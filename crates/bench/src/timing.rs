//! The [`TimingLog`] the `experiments` binary writes to
//! `results/timing.json`.

use cgct_sim::{Json, ToJson};

/// One timed entry in a [`TimingLog`]: a work item or command phase,
/// plus — for entries that are actual simulations — the simulated
/// cycles the item covered, so throughput (simulated cycles per
/// wall-clock second) is derivable from artifacts alone.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// `prefix:bench/mode#seed`-style identifier, canonical item order.
    pub label: String,
    /// Wall-clock seconds the item took on its worker.
    pub seconds: f64,
    /// Simulated cycles of the measured phase (`None` for rows that are
    /// not simulations: command phases, analytic tables, cache models).
    pub sim_cycles: Option<u64>,
    /// Memory completion events the item delivered (`None` for
    /// non-simulation rows) — with `seconds`, the raw material for the
    /// `memory_events_per_sec` throughput figure.
    pub mem_events: Option<u64>,
    /// Whether the item was reused from an earlier identical cell of
    /// the same run instead of simulated (`None` for non-simulation
    /// rows).
    pub reused: Option<bool>,
}

impl TimingRow {
    /// Simulated cycles per wall-clock second, or `None` for rows with
    /// no cycle count (or an unmeasurably short wall time).
    pub fn cycles_per_sec(&self) -> Option<f64> {
        match self.sim_cycles {
            Some(c) if self.seconds > 0.0 => Some(c as f64 / self.seconds),
            _ => None,
        }
    }
}

/// Per-item wall-clock record of an experiments run, written to
/// `<json-dir>/timing.json` so run-over-run speedup (serial vs
/// `CGCT_JOBS=N`) is measurable from artifacts alone.
///
/// Unlike the figure outputs, timing is *not* expected to be
/// byte-identical across runs — it is explicitly excluded from the
/// determinism guarantee.
#[derive(Debug, Clone)]
pub struct TimingLog {
    /// Worker threads the run used (1 for `--serial`).
    jobs: usize,
    /// One row per completed work item or command phase.
    rows: Vec<TimingRow>,
}

impl TimingLog {
    /// An empty log for a run on `jobs` workers.
    pub fn new(jobs: usize) -> TimingLog {
        TimingLog {
            jobs,
            rows: Vec::new(),
        }
    }

    /// Appends one `(label, seconds)` row with no cycle count (command
    /// phases and other non-simulation work).
    pub fn record(&mut self, label: impl Into<String>, seconds: f64) {
        self.rows.push(TimingRow {
            label: label.into(),
            seconds,
            sim_cycles: None,
            mem_events: None,
            reused: None,
        });
    }

    /// Appends one simulation row: wall seconds plus the simulated
    /// cycles the item covered, the memory completion events it
    /// delivered, and whether the cell was reused rather than
    /// simulated.
    pub fn record_run(
        &mut self,
        label: impl Into<String>,
        seconds: f64,
        sim_cycles: u64,
        mem_events: u64,
        reused: bool,
    ) {
        self.rows.push(TimingRow {
            label: label.into(),
            seconds,
            sim_cycles: Some(sim_cycles),
            mem_events: Some(mem_events),
            reused: Some(reused),
        });
    }

    /// Appends many cycle-free rows (e.g. phase timings).
    pub fn extend(&mut self, rows: impl IntoIterator<Item = (String, f64)>) {
        for (label, seconds) in rows {
            self.record(label, seconds);
        }
    }

    /// Appends a suite's per-item simulation rows, labelled
    /// `prefix:<label>`.
    pub fn extend_runs(&mut self, prefix: &str, rows: &[(String, f64, u64, u64, bool)]) {
        for (label, seconds, cycles, events, reused) in rows {
            self.record_run(
                format!("{prefix}:{label}"),
                *seconds,
                *cycles,
                *events,
                *reused,
            );
        }
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows whose work actually ran: everything but reused cells.
    fn worked(&self) -> impl Iterator<Item = &TimingRow> {
        self.rows.iter().filter(|r| r.reused != Some(true))
    }

    /// Sum of item times over rows that ran — the serial-equivalent
    /// cost of the work, to compare against actual wall-clock.
    pub fn total_seconds(&self) -> f64 {
        self.worked().map(|r| r.seconds).sum()
    }

    /// Sum of simulated cycles over simulated (not reused) rows.
    pub fn total_sim_cycles(&self) -> u64 {
        self.worked().filter_map(|r| r.sim_cycles).sum()
    }

    /// Sum of memory completion events over simulated (not reused)
    /// rows.
    pub fn total_mem_events(&self) -> u64 {
        self.worked().filter_map(|r| r.mem_events).sum()
    }

    /// The recorded rows, in insertion order.
    pub fn rows(&self) -> &[TimingRow] {
        &self.rows
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
        let items = Json::Array(
            self.rows
                .iter()
                .map(|row| {
                    let mut fields = vec![
                        ("label", Json::str(&row.label)),
                        ("seconds", Json::f64(row.seconds)),
                    ];
                    if let Some(c) = row.sim_cycles {
                        fields.push(("sim_cycles", Json::u64(c)));
                        fields.push((
                            "cycles_per_sec",
                            Json::f64(row.cycles_per_sec().unwrap_or(0.0)),
                        ));
                    }
                    if let Some(e) = row.mem_events {
                        fields.push(("mem_events", Json::u64(e)));
                    }
                    if let Some(h) = row.reused {
                        fields.push(("reused", Json::Bool(h)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        );
        Json::obj([
            ("jobs", Json::u64(self.jobs as u64)),
            ("items", Json::u64(self.rows.len() as u64)),
            ("total_item_seconds", Json::f64(self.total_seconds())),
            ("total_sim_cycles", Json::u64(self.total_sim_cycles())),
            ("total_mem_events", Json::u64(self.total_mem_events())),
            ("timings", items),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_log_round_trips_through_json() {
        let mut log = TimingLog::new(4);
        assert!(log.is_empty());
        log.record("suite:barnes/baseline#s1", 1.25);
        log.extend([("phase:ablations".to_string(), 2.75)]);
        assert_eq!(log.len(), 2);
        assert!((log.total_seconds() - 4.0).abs() < 1e-12);
        let v = Json::parse(&log.to_json().dump()).unwrap();
        assert_eq!(v.get("jobs").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("items").and_then(Json::as_u64), Some(2));
        let rows = v.get("timings").and_then(Json::as_array).unwrap();
        assert_eq!(
            rows[0].get("label").and_then(Json::as_str),
            Some("suite:barnes/baseline#s1")
        );
        assert_eq!(rows[1].get("seconds").and_then(Json::as_f64), Some(2.75));
        // Cycle-free rows carry no throughput fields.
        assert!(rows[0].get("sim_cycles").is_none());
        assert!(rows[0].get("cycles_per_sec").is_none());
    }

    #[test]
    fn simulation_rows_carry_cycles_and_throughput() {
        let mut log = TimingLog::new(1);
        log.record_run("suite:ocean/cgct-512B#s1", 0.5, 1_000_000, 900, false);
        log.extend_runs(
            "suite",
            &[("ocean/cgct-512B#s2".to_string(), 0.25, 500_000, 450, true)],
        );
        log.record("phase:total", 0.75);
        // The reused row counts toward neither time nor throughput.
        assert!((log.total_seconds() - 1.25).abs() < 1e-12);
        assert_eq!(log.total_sim_cycles(), 1_000_000);
        assert_eq!(log.total_mem_events(), 900);
        assert_eq!(log.rows()[0].cycles_per_sec(), Some(2_000_000.0));
        assert_eq!(log.rows()[2].cycles_per_sec(), None);
        let v = Json::parse(&log.to_json().dump()).unwrap();
        assert_eq!(
            v.get("total_sim_cycles").and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(v.get("total_mem_events").and_then(Json::as_u64), Some(900));
        let rows = v.get("timings").and_then(Json::as_array).unwrap();
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
        assert!(rows[2].get("sim_cycles").is_none());
        assert!(rows[2].get("mem_events").is_none());
        assert!(rows[2].get("reused").is_none());
        // A zero wall-time reading cannot produce an infinite rate.
        let mut zero = TimingLog::new(1);
        zero.record_run("x", 0.0, 10, 1, false);
        assert_eq!(zero.rows()[0].cycles_per_sec(), None);
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
        log.record("x", 0.5);
        let path = log.write(dir.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"jobs\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
