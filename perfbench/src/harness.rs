//! Runs a workload's cells on the pool, untraced or traced, and checks
//! their outputs.

use crate::traced::{run_traced, Ledger};
use crate::workload::{Cells, SimCell, SimPlan, VerifyCell};
use cgct_interconnect::CoreId;
use cgct_sim::Snap;
use cgct_system::RunResult;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Exact work counts of a cell, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `Err` names why the cell failed: a panic, a truncated run, a
    /// broken invariant, or a golden-count mismatch.
    pub status: Result<(), String>,
    /// Seconds of the whole cell, construction included.
    pub seconds: f64,
    /// Work units: committed instructions (warm-up counted at its quota)
    /// or reachable states.
    pub units: u64,
    /// Canonical text of the modelled outputs; the digest hashes it.
    pub output: String,
    /// The headline modelled outputs, for the report.
    pub summary: String,
    /// Exact work counts read through public getters.
    pub counts: Counts,
    /// The traced cell's layer times (traced passes only).
    pub ledger: Option<Ledger>,
}

/// One pass over every cell of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Pool workers used.
    pub workers: usize,
    /// The cells, in canonical order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Cells that failed.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.status.is_err()).count()
    }

    /// Work units of the pass.
    pub fn units(&self) -> u64 {
        self.cells.iter().map(|c| c.units).sum()
    }

    /// Seconds of the slowest cell.
    pub fn cell_max_s(&self) -> f64 {
        self.cells.iter().map(|c| c.seconds).fold(0.0, f64::max)
    }

    /// Cell seconds summed: the pool's busy time.
    pub fn busy_s(&self) -> f64 {
        self.cells.iter().map(|c| c.seconds).sum()
    }

    /// FNV-1a digest of every cell's modelled outputs, in cell order.
    pub fn digest(&self) -> u64 {
        let text: Vec<&str> = self.cells.iter().map(|c| c.output.as_str()).collect();
        cgct_sim::hash::fnv1a(text.join("\n").as_bytes())
    }

    /// Counts summed over cells.
    pub fn counts(&self) -> Counts {
        let mut sum = Counts::new();
        for c in &self.cells {
            for (&k, &v) in &c.counts {
                *sum.entry(k).or_default() += v;
            }
        }
        sum
    }
}

/// Runs every cell once on at most `jobs` workers; `traced` selects the
/// traced loop for simulated cells and the timed call for verify cells.
pub fn run_pass(cells: &Cells, seed: u64, traced: bool, jobs: usize) -> Pass {
    let t0 = Instant::now();
    let (workers, cells) = match cells {
        Cells::Sim(plan, sims) => (
            jobs.min(sims.len()),
            cgct_sim::pool::run_on(jobs, sims.clone(), |_, cell| {
                guarded(|| run_sim(&cell, plan, seed, traced))
            }),
        ),
        Cells::Verify(models) => (
            jobs.min(models.len()),
            cgct_sim::pool::run_on(jobs, models.clone(), |_, cell| {
                guarded(|| run_verify(&cell, traced))
            }),
        ),
    };
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        workers,
        cells,
    }
}

/// Runs `f`, turning a panic into a failed cell.
fn guarded(f: impl FnOnce() -> CellRun) -> CellRun {
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        CellRun {
            status: Err(format!("panicked: {message}")),
            seconds: t0.elapsed().as_secs_f64(),
            units: 0,
            output: String::new(),
            summary: String::new(),
            counts: Counts::new(),
            ledger: None,
        }
    })
}

fn run_sim(cell: &SimCell, plan: &SimPlan, seed: u64, traced: bool) -> CellRun {
    let t0 = Instant::now();
    if traced {
        let (result, ledger) = run_traced(cell, plan, seed);
        let seconds = t0.elapsed().as_secs_f64();
        let counts = Counts::from([("cpu.ticks", ledger.ticks)]);
        return finish_sim(cell, plan, result, seconds, counts, Some(ledger), Ok(()));
    }
    let mut m = cell.machine(seed);
    let result = m.run_warmed(
        plan.warmup_per_core,
        plan.measured_per_core,
        plan.max_cycles,
    );
    let seconds = t0.elapsed().as_secs_f64();
    let mut counts = sim_counts(&result);
    counts.insert("cpu.ticks", m.executed_ticks());
    for i in 0..cell.cores {
        if let Some(rca) = m.memory().rca(CoreId(i)) {
            *counts.entry("rca.hits").or_default() += rca.stats().region_hits.value();
            *counts.entry("rca.misses").or_default() += rca.stats().region_misses.value();
        }
    }
    let invariants = m.check_invariants();
    finish_sim(cell, plan, result, seconds, counts, None, invariants)
}

fn finish_sim(
    cell: &SimCell,
    plan: &SimPlan,
    result: RunResult,
    seconds: f64,
    counts: Counts,
    ledger: Option<Ledger>,
    invariants: Result<(), String>,
) -> CellRun {
    let status = if result.truncated {
        Err(format!("{} truncated at the cycle cap", cell.label()))
    } else {
        invariants.map_err(|e| format!("{}: {e}", cell.label()))
    };
    let m = &result.metrics;
    CellRun {
        status,
        seconds,
        units: result.committed + plan.warmup_per_core * cell.cores as u64,
        output: format!("{} {}", cell.label(), result.snap().dump()),
        summary: format!(
            "{}: runtime_cycles={} committed={} ipc={} broadcasts={} direct={}",
            cell.label(),
            result.runtime_cycles,
            result.committed,
            result.ipc,
            m.broadcasts,
            m.direct.total()
        ),
        counts,
        ledger,
    }
}

/// Modelled counts of the measured phase, from the run's metrics.
fn sim_counts(r: &RunResult) -> Counts {
    let m = &r.metrics;
    Counts::from([
        ("memsys.requests", m.requests.total()),
        ("memsys.broadcasts", m.broadcasts),
        ("memsys.direct", m.direct.total()),
        ("memsys.local", m.local.total()),
        ("memsys.snooped_tag_lookups", m.snooped_tag_lookups),
        ("memsys.cache_to_cache", m.cache_to_cache),
        ("memsys.memory_fills", m.memory_fills),
        ("rca.evictions", r.rca.evictions),
        ("rca.self_invalidations", r.rca.self_invalidations),
        ("dir.lookups", m.dir_lookups),
        ("dir.bypasses", m.dir_bypasses),
        ("dir.three_hop", m.three_hop_transfers),
        ("hier.cluster_local", m.cluster_local_requests),
        ("hier.cross_cluster", m.cross_cluster_requests),
        ("hier.snoops_filtered", m.cluster_snoops_filtered),
    ])
}

fn run_verify(cell: &VerifyCell, traced: bool) -> CellRun {
    let t0 = Instant::now();
    let r = cgct_verify::explore(&cell.model);
    let seconds = t0.elapsed().as_secs_f64();
    let status = if let Some(v) = &r.violation {
        Err(format!("{}: violation: {}", cell.label, v.message))
    } else if (r.states, r.transitions) != (cell.golden_states, cell.golden_transitions) {
        Err(format!(
            "{}: {} states / {} transitions, golden {} / {}",
            cell.label, r.states, r.transitions, cell.golden_states, cell.golden_transitions
        ))
    } else {
        Ok(())
    };
    CellRun {
        status,
        seconds,
        units: r.states,
        output: format!("{} {} {}", cell.label, r.states, r.transitions),
        summary: format!(
            "{}: states={} transitions={}",
            cell.label, r.states, r.transitions
        ),
        counts: Counts::from([
            ("verify.states", r.states),
            ("verify.transitions", r.transitions),
        ]),
        ledger: traced.then(|| Ledger {
            verify_s: seconds,
            cell_s: seconds,
            ..Ledger::default()
        }),
    }
}

/// One sample of the time to construct every cell's machine or model, as
/// the cells do before their first tick.
pub fn setup_sample(cells: &Cells, seed: u64) -> f64 {
    // A model is a few words; time a batch of constructions per sample.
    const MODEL_BATCH: u32 = 20_000;
    match cells {
        Cells::Sim(_, sims) => sims
            .iter()
            .map(|cell| {
                let t0 = Instant::now();
                let m = cell.machine(seed);
                let s = t0.elapsed().as_secs_f64();
                drop(std::hint::black_box(m));
                s
            })
            .sum(),
        Cells::Verify(models) => models
            .iter()
            .map(|cell| {
                let t0 = Instant::now();
                for _ in 0..MODEL_BATCH {
                    let model = std::hint::black_box(cell.model);
                    model.validate();
                    std::hint::black_box(cgct_verify::GlobalState::initial(&model));
                }
                t0.elapsed().as_secs_f64() / f64::from(MODEL_BATCH)
            })
            .sum(),
    }
}

/// Fails every cell of `pass` whose modelled outputs differ from the
/// same cell in `reference`, or that ticked the cores a different number
/// of times. Passes of one seed, traced or not, must agree exactly.
pub fn mark_mismatches(reference: &Pass, pass: &mut Pass) {
    for (r, c) in reference.cells.iter().zip(&mut pass.cells) {
        if c.status.is_err() {
            continue;
        }
        if r.output != c.output {
            c.status = Err(format!(
                "outputs differ from the first pass:\n  first {}\n  this  {}",
                r.output, c.output
            ));
        } else if r.counts.get("cpu.ticks") != c.counts.get("cpu.ticks") {
            c.status = Err(format!(
                "{}: cores ticked {:?} times, first pass {:?}",
                c.summary,
                c.counts.get("cpu.ticks"),
                r.counts.get("cpu.ticks")
            ));
        }
    }
}
