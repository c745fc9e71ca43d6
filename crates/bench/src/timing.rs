//! The [`TimingLog`] the `experiments` binary writes to
//! `results/timing.json`.

use cgct_sim::{Json, ToJson};

/// One cell of a run: its wall time, plus the simulated cycles and
/// memory events it covered, so throughput (simulated cycles per
/// wall-clock second) is derivable from artifacts alone.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// `section:cell` identifier, in the order the cells were run.
    pub label: String,
    /// Wall-clock seconds the cell took on its worker.
    pub seconds: f64,
    /// Simulated cycles of the measured phase.
    pub sim_cycles: u64,
    /// Memory completion events the cell delivered — with `seconds`,
    /// the raw material for the `memory_events_per_sec` figure.
    pub mem_events: u64,
    /// Whether the cell was reused from an earlier identical cell of
    /// the same run instead of simulated.
    pub reused: bool,
}

impl CellRow {
    /// Simulated cycles per wall-clock second, or `None` for an
    /// unmeasurably short wall time.
    pub fn cycles_per_sec(&self) -> Option<f64> {
        (self.seconds > 0.0).then(|| self.sim_cycles as f64 / self.seconds)
    }
}

/// Per-cell wall-clock record of an experiments run, written to
/// `<json-dir>/timing.json` so run-over-run speedup (serial vs
/// `CGCT_JOBS=N`) is measurable from artifacts alone.
///
/// Cell rows and section (`phase`) rows are kept apart: a section's
/// wall time contains its cells', so only the cell rows add up to the
/// run's work.
///
/// Unlike the figure outputs, timing is *not* expected to be
/// byte-identical across runs — it is explicitly excluded from the
/// determinism guarantee.
#[derive(Debug, Clone)]
pub struct TimingLog {
    /// Worker threads the run used (1 for `--serial`).
    jobs: usize,
    /// One row per cell, reused or simulated.
    cells: Vec<CellRow>,
    /// `(section, wall seconds)` per command section, plus `total`.
    phases: Vec<(String, f64)>,
}

impl TimingLog {
    /// An empty log for a run on `jobs` workers.
    pub fn new(jobs: usize) -> TimingLog {
        TimingLog {
            jobs,
            cells: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Appends one cell row: wall seconds plus the simulated cycles
    /// the cell covered, the memory completion events it delivered,
    /// and whether it was reused rather than simulated.
    pub fn record_cell(
        &mut self,
        label: impl Into<String>,
        seconds: f64,
        sim_cycles: u64,
        mem_events: u64,
        reused: bool,
    ) {
        self.cells.push(CellRow {
            label: label.into(),
            seconds,
            sim_cycles,
            mem_events,
            reused,
        });
    }

    /// Appends one section's wall time.
    pub fn record_phase(&mut self, label: impl Into<String>, seconds: f64) {
        self.phases.push((label.into(), seconds));
    }

    /// The cell rows, in insertion order.
    pub fn cells(&self) -> &[CellRow] {
        &self.cells
    }

    /// The section rows, in insertion order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// The cells that were simulated: everything but reused cells.
    fn simulated(&self) -> impl Iterator<Item = &CellRow> {
        self.cells.iter().filter(|r| !r.reused)
    }

    /// Sum of wall time over simulated cells — the serial-equivalent
    /// cost of the work, to compare against actual wall-clock.
    pub fn total_seconds(&self) -> f64 {
        self.simulated().map(|r| r.seconds).sum()
    }

    /// Sum of simulated cycles over simulated cells.
    pub fn total_sim_cycles(&self) -> u64 {
        self.simulated().map(|r| r.sim_cycles).sum()
    }

    /// Sum of memory completion events over simulated cells.
    pub fn total_mem_events(&self) -> u64 {
        self.simulated().map(|r| r.mem_events).sum()
    }

    /// Writes the log to `<dir>/timing.json`, returning the path.
    pub fn write(&self, dir: &str) -> std::io::Result<String> {
        let path = format!("{dir}/timing.json");
        std::fs::write(&path, self.to_json().dump_pretty())?;
        Ok(path)
    }
}

impl ToJson for TimingLog {
    fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|row| {
                Json::obj([
                    ("label", Json::str(&row.label)),
                    ("seconds", Json::f64(row.seconds)),
                    ("sim_cycles", Json::u64(row.sim_cycles)),
                    (
                        "cycles_per_sec",
                        Json::f64(row.cycles_per_sec().unwrap_or(0.0)),
                    ),
                    ("mem_events", Json::u64(row.mem_events)),
                    ("reused", Json::Bool(row.reused)),
                ])
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|(label, seconds)| {
                Json::obj([
                    ("label", Json::str(label)),
                    ("seconds", Json::f64(*seconds)),
                ])
            })
            .collect();
        Json::obj([
            ("jobs", Json::u64(self.jobs as u64)),
            ("items", Json::u64(self.cells.len() as u64)),
            ("total_item_seconds", Json::f64(self.total_seconds())),
            ("total_sim_cycles", Json::u64(self.total_sim_cycles())),
            ("total_mem_events", Json::u64(self.total_mem_events())),
            ("timings", Json::Array(cells)),
            ("phases", Json::Array(phases)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_log_round_trips_through_json() {
        let mut log = TimingLog::new(4);
        log.record_cell("suite:barnes/baseline#s1", 1.25, 100, 10, false);
        log.record_phase("ablations", 2.75);
        assert_eq!(log.cells().len(), 1);
        assert_eq!(log.phases().len(), 1);
        // A section's time contains its cells' and is not work of its own.
        assert!((log.total_seconds() - 1.25).abs() < 1e-12);
        let v = Json::parse(&log.to_json().dump()).unwrap();
        assert_eq!(v.get("jobs").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("items").and_then(Json::as_u64), Some(1));
        let rows = v.get("timings").and_then(Json::as_array).unwrap();
        assert_eq!(
            rows[0].get("label").and_then(Json::as_str),
            Some("suite:barnes/baseline#s1")
        );
        let phases = v.get("phases").and_then(Json::as_array).unwrap();
        assert_eq!(
            phases[0].get("label").and_then(Json::as_str),
            Some("ablations")
        );
        assert_eq!(phases[0].get("seconds").and_then(Json::as_f64), Some(2.75));
        // Section rows carry no throughput fields.
        assert!(phases[0].get("sim_cycles").is_none());
        assert!(phases[0].get("reused").is_none());
    }

    #[test]
    fn simulation_rows_carry_cycles_and_throughput() {
        let mut log = TimingLog::new(1);
        log.record_cell("suite:ocean/cgct-512B#s1", 0.5, 1_000_000, 900, false);
        log.record_cell("suite:ocean/cgct-512B#s2", 0.25, 500_000, 450, true);
        log.record_cell("rca-stats:ocean/baseline#s1", 0.25, 250_000, 100, false);
        log.record_phase("total", 9.0);
        // The reused row and the phase row count toward neither time
        // nor throughput.
        assert!((log.total_seconds() - 0.75).abs() < 1e-12);
        assert_eq!(log.total_sim_cycles(), 1_250_000);
        assert_eq!(log.total_mem_events(), 1_000);
        assert_eq!(log.cells()[0].cycles_per_sec(), Some(2_000_000.0));
        let v = Json::parse(&log.to_json().dump()).unwrap();
        assert_eq!(
            v.get("total_sim_cycles").and_then(Json::as_u64),
            Some(1_250_000)
        );
        assert_eq!(
            v.get("total_mem_events").and_then(Json::as_u64),
            Some(1_000)
        );
        assert_eq!(
            v.get("total_item_seconds").and_then(Json::as_f64),
            Some(0.75)
        );
        let rows = v.get("timings").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0].get("sim_cycles").and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(rows[0].get("mem_events").and_then(Json::as_u64), Some(900));
        assert_eq!(rows[0].get("reused").and_then(Json::as_bool), Some(false));
        assert_eq!(rows[1].get("reused").and_then(Json::as_bool), Some(true));
        assert_eq!(
            rows[1].get("cycles_per_sec").and_then(Json::as_f64),
            Some(2_000_000.0)
        );
        // A zero wall-time reading cannot produce an infinite rate.
        let mut zero = TimingLog::new(1);
        zero.record_cell("x", 0.0, 10, 1, false);
        assert_eq!(zero.cells()[0].cycles_per_sec(), None);
        let z = Json::parse(&zero.to_json().dump()).unwrap();
        let zr = z.get("timings").and_then(Json::as_array).unwrap();
        assert_eq!(
            zr[0].get("cycles_per_sec").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn timing_log_writes_to_dir() {
        let dir = std::env::temp_dir().join(format!("cgct-timing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = TimingLog::new(1);
        log.record_phase("x", 0.5);
        let path = log.write(dir.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"jobs\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
