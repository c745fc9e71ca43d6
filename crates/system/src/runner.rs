//! Multi-seed experiment runner.
//!
//! The paper averages several perturbed runs per benchmark and reports
//! 95% confidence intervals (§4). [`run_averaged`] does the same,
//! fanning seeds out across the deterministic thread pool
//! ([`cgct_sim::pool`]). The unit of scheduling is a [`WorkItem`] — a
//! `(benchmark, configuration, seed)` triple executed by a pure
//! function — so results never depend on which worker ran what.

use crate::config::SystemConfig;
use crate::machine::{Machine, RunResult};
use cgct_sim::{pool, RunningStats};
use cgct_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How much work one experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Cache-warming instructions per core before measurement starts.
    pub warmup_per_core: u64,
    /// Instructions each core must commit during measurement.
    pub instructions_per_core: u64,
    /// Hard cycle cap (guards against pathological configurations).
    pub max_cycles: u64,
    /// Number of perturbed runs to average.
    pub runs: u64,
    /// Base seed; run *i* uses `base_seed + i`.
    pub base_seed: u64,
}

impl RunPlan {
    /// A quick plan for tests and smoke runs.
    pub fn smoke() -> Self {
        RunPlan {
            warmup_per_core: 2_000,
            instructions_per_core: 5_000,
            max_cycles: 5_000_000,
            runs: 2,
            base_seed: 1,
        }
    }

    /// The default evaluation plan used by the benchmark harness.
    pub fn evaluation() -> Self {
        RunPlan {
            warmup_per_core: 250_000,
            instructions_per_core: 150_000,
            max_cycles: 80_000_000,
            runs: 4,
            base_seed: 1,
        }
    }

    /// The root seed for perturbed run `run` of this plan.
    ///
    /// This is a pure function of the plan and the run index (run *i*
    /// uses `base_seed + i`, the scheme the committed `results/*.json`
    /// were generated with), so a [`WorkItem`] carries its seed from
    /// the moment the work list is built — worker identity and
    /// completion order can never leak into it. The seed becomes the
    /// root of the machine's [`cgct_sim::SeedSequence`], from which
    /// every per-component stream is derived. Keeping the same seed
    /// for run *i* across coherence modes is load-bearing: speedup
    /// confidence intervals pair baseline and CGCT runs by seed.
    pub fn seed_for(&self, run: u64) -> u64 {
        self.base_seed + run
    }
}

/// One independent cell of an experiment sweep: a benchmark under a
/// fully-adjusted configuration at one perturbation seed.
///
/// Executing a `WorkItem` is a pure function — the same item yields the
/// same [`RunResult`] regardless of the thread that runs it or the
/// order items complete in — which is what lets the pool collect
/// results out of order and merge them canonically.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The benchmark to run.
    pub spec: BenchmarkSpec,
    /// The system configuration (mode, topology, ablation toggles).
    pub cfg: SystemConfig,
    /// Root seed for this item's `SeedSequence` (see
    /// [`RunPlan::seed_for`]).
    pub seed: u64,
}

impl WorkItem {
    /// A human-readable `benchmark/mode#seed` tag for progress lines
    /// and `timing.json`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}#s{}",
            self.spec.name,
            self.cfg.mode.label(),
            self.seed
        )
    }

    /// Runs the item to completion under `plan`.
    pub fn execute(&self, plan: &RunPlan) -> RunResult {
        run_once(&self.cfg, &self.spec, self.seed, plan)
    }

    /// Runs the item through the process-global [`Memo`], if one is
    /// installed ([`install_memo`]): a cell this process already
    /// simulated is handed back without simulating again. The flag
    /// records that reuse. Without an installed memo this is exactly
    /// [`WorkItem::execute`].
    pub fn execute_cached(&self, plan: &RunPlan) -> (RunResult, bool) {
        match MEMO.get() {
            Some(memo) => memo.execute(self, plan),
            None => (self.execute(plan), false),
        }
    }
}

/// An in-process memo of finished sweep cells.
///
/// A cell ([`WorkItem`] + [`RunPlan`]) is a pure function of its
/// inputs, so a cell that an earlier section of the same process
/// already simulated can be handed back instead of simulated again:
/// the ablation, region-sweep, directory and energy sections share
/// many cells with the main suite. The key is the full canonical
/// rendering of the configuration, benchmark, seed and the plan's
/// per-cell knobs, so two different cells never share an entry. The
/// worker count, tracing and sanitizing are not part of it: none of
/// them changes a result.
///
/// Two workers that miss on the same key at once both simulate it and
/// store the same result; the only cost is the duplicated work.
#[derive(Debug, Default)]
pub struct Memo {
    cells: Mutex<BTreeMap<String, RunResult>>,
    reused: AtomicU64,
    simulated: AtomicU64,
}

impl Memo {
    fn key(item: &WorkItem, plan: &RunPlan) -> String {
        format!(
            "config={:?}\nbenchmark={:?}\nseed={}\nwarmup={}\ninstructions={}\nmax_cycles={}",
            item.cfg,
            item.spec,
            item.seed,
            plan.warmup_per_core,
            plan.instructions_per_core,
            plan.max_cycles,
        )
    }

    /// Runs `item` under `plan`, or hands back the result of an earlier
    /// identical cell; the flag records the reuse.
    fn execute(&self, item: &WorkItem, plan: &RunPlan) -> (RunResult, bool) {
        let key = Self::key(item, plan);
        if let Some(result) = self.cells.lock().expect("memo poisoned").get(&key) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return (result.clone(), true);
        }
        let result = item.execute(plan);
        self.simulated.fetch_add(1, Ordering::Relaxed);
        self.cells
            .lock()
            .expect("memo poisoned")
            .insert(key, result.clone());
        (result, false)
    }

    /// `(reused, simulated)` cell counts since the previous call (or
    /// construction); zeroes both.
    pub fn take_counts(&self) -> (u64, u64) {
        (
            self.reused.swap(0, Ordering::Relaxed),
            self.simulated.swap(0, Ordering::Relaxed),
        )
    }
}

/// The process-global memo behind [`WorkItem::execute_cached`].
static MEMO: OnceLock<Memo> = OnceLock::new();

/// Installs the process-global [`Memo`], unless request-lifetime
/// tracing is on (`CGCT_TRACE`): a reused cell carries no trace spans,
/// so a traced run must simulate every cell.
///
/// The library default is no reuse: only a binary that calls this (the
/// `experiments` harness does) shares cells between runs. Tests that
/// run the same suite several times in one process, such as the
/// worker-count determinism test, would otherwise compare a result
/// with its own copy.
pub fn install_memo() {
    if !crate::config::env_knobs().trace {
        MEMO.get_or_init(Memo::default);
    }
}

/// The memo [`install_memo`] installed, if any.
pub fn memo() -> Option<&'static Memo> {
    MEMO.get()
}

/// Mean/CI aggregation of several perturbed runs of one configuration.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Mode label.
    pub mode: String,
    /// Runtime in cycles across runs.
    pub runtime: RunningStats,
    /// Fraction of requests that avoided a broadcast.
    pub avoided_fraction: RunningStats,
    /// Oracle-unnecessary fraction (meaningful for baseline runs).
    pub unnecessary_fraction: RunningStats,
    /// Average broadcasts per traffic window.
    pub avg_traffic: RunningStats,
    /// Peak broadcasts in any window.
    pub peak_traffic: RunningStats,
    /// L2 miss ratio.
    pub l2_miss_ratio: RunningStats,
    /// The individual runs.
    pub runs: Vec<RunResult>,
}

impl AggregateResult {
    /// Folds per-seed runs into mean/CI statistics. The fold order is
    /// the order of `runs`, so callers must pass runs in ascending
    /// seed-index order for bit-identical aggregates across worker
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_runs(runs: Vec<RunResult>) -> AggregateResult {
        let mut agg = AggregateResult {
            benchmark: runs[0].benchmark.clone(),
            mode: runs[0].mode.clone(),
            runtime: RunningStats::new(),
            avoided_fraction: RunningStats::new(),
            unnecessary_fraction: RunningStats::new(),
            avg_traffic: RunningStats::new(),
            peak_traffic: RunningStats::new(),
            l2_miss_ratio: RunningStats::new(),
            runs: Vec::new(),
        };
        for r in &runs {
            agg.runtime.push(r.runtime_cycles as f64);
            agg.avoided_fraction.push(r.metrics.avoided_fraction());
            agg.unnecessary_fraction
                .push(r.metrics.unnecessary_fraction());
            agg.avg_traffic.push(r.metrics.avg_traffic());
            agg.peak_traffic.push(r.metrics.peak_traffic() as f64);
            agg.l2_miss_ratio.push(r.metrics.l2_miss_ratio());
        }
        agg.runs = runs;
        agg
    }

    /// Mean runtime in cycles.
    pub fn mean_runtime(&self) -> f64 {
        self.runtime.mean()
    }
}

/// Runs one seed of one configuration.
pub fn run_once(cfg: &SystemConfig, spec: &BenchmarkSpec, seed: u64, plan: &RunPlan) -> RunResult {
    let mut machine = Machine::new(cfg.clone(), spec, seed);
    machine.run_warmed(
        plan.warmup_per_core,
        plan.instructions_per_core,
        plan.max_cycles,
    )
}

/// [`run_once`] through the process-global memo (see
/// [`WorkItem::execute_cached`]); the flag records a reused cell.
pub fn run_once_cached(
    cfg: &SystemConfig,
    spec: &BenchmarkSpec,
    seed: u64,
    plan: &RunPlan,
) -> (RunResult, bool) {
    WorkItem {
        spec: spec.clone(),
        cfg: cfg.clone(),
        seed,
    }
    .execute_cached(plan)
}

/// Runs `plan.runs` perturbed seeds of one configuration on the
/// deterministic pool (worker count from `CGCT_JOBS` or the machine's
/// available parallelism) and aggregates them in seed order.
///
/// # Panics
///
/// Panics if `plan.runs` is zero or a worker thread panics.
pub fn run_averaged(cfg: &SystemConfig, spec: &BenchmarkSpec, plan: &RunPlan) -> AggregateResult {
    assert!(plan.runs > 0, "need at least one run");
    let items: Vec<WorkItem> = (0..plan.runs)
        .map(|i| WorkItem {
            spec: spec.clone(),
            cfg: cfg.clone(),
            seed: plan.seed_for(i),
        })
        .collect();
    let results = pool::run(items, |_, item| item.execute(plan));
    AggregateResult::from_runs(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use cgct_sim::Snap;
    use cgct_workloads::by_name;

    #[test]
    fn averaged_runs_aggregate() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        let spec = by_name("specint2000rate").unwrap();
        let plan = RunPlan {
            warmup_per_core: 500,
            instructions_per_core: 2_000,
            max_cycles: 2_000_000,
            runs: 2,
            base_seed: 10,
        };
        let agg = run_averaged(&cfg, &spec, &plan);
        assert_eq!(agg.runs.len(), 2);
        assert_eq!(agg.runtime.count(), 2);
        assert!(agg.mean_runtime() > 0.0);
        assert!(agg.unnecessary_fraction.mean() > 0.0);
        // Perturbation makes the runs differ.
        assert!(agg.runs[0].runtime_cycles != agg.runs[1].runtime_cycles);
    }

    #[test]
    fn run_once_is_reproducible() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        let spec = by_name("barnes").unwrap();
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 1_500,
            max_cycles: 2_000_000,
            runs: 1,
            base_seed: 3,
        };
        let a = run_once(&cfg, &spec, 3, &plan);
        let b = run_once(&cfg, &spec, 3, &plan);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.metrics.broadcasts, b.metrics.broadcasts);
    }

    #[test]
    fn work_item_is_pure_and_labeled() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        let spec = by_name("barnes").unwrap();
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 1_000,
            max_cycles: 1_000_000,
            runs: 1,
            base_seed: 4,
        };
        let item = WorkItem {
            spec,
            cfg,
            seed: plan.seed_for(0),
        };
        assert_eq!(item.seed, 4);
        assert_eq!(item.label(), "barnes/cgct-512B#s4");
        let a = item.execute(&plan);
        let b = item.execute(&plan);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
    }

    #[test]
    fn memo_reuses_identical_cells_and_separates_every_input() {
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 1_000,
            max_cycles: 1_000_000,
            runs: 1,
            base_seed: 3,
        };
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        let item = WorkItem {
            spec: by_name("barnes").unwrap(),
            cfg,
            seed: 3,
        };
        let memo = Memo::default();
        let (first, reused) = memo.execute(&item, &plan);
        assert!(!reused, "an empty memo simulates");
        let (second, reused) = memo.execute(&item, &plan);
        assert!(reused, "an identical cell is reused");
        assert_eq!(second.snap().dump(), first.snap().dump());
        assert_eq!(memo.take_counts(), (1, 1));

        let mut seed = item.clone();
        seed.seed += 1;
        let mut config = item.clone();
        config.cfg.perturbation += 1;
        let mut bench = item.clone();
        bench.spec = by_name("ocean").unwrap();
        for (what, other) in [("seed", seed), ("config", config), ("benchmark", bench)] {
            assert!(!memo.execute(&other, &plan).1, "{what} is in the key");
        }
        let mut longer = plan;
        longer.instructions_per_core += 1;
        assert!(!memo.execute(&item, &longer).1, "plan is in the key");
        assert_eq!(memo.take_counts(), (0, 4));
    }

    #[test]
    fn seeds_are_item_derived_and_mode_independent() {
        let plan = RunPlan::smoke();
        // The same run index maps to the same seed whatever the mode —
        // speedup CIs pair baseline/CGCT runs by seed.
        assert_eq!(plan.seed_for(0), plan.base_seed);
        assert_eq!(plan.seed_for(3), plan.base_seed + 3);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        let spec = by_name("barnes").unwrap();
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 100,
            max_cycles: 1000,
            runs: 0,
            base_seed: 0,
        };
        let _ = run_averaged(&cfg, &spec, &plan);
    }
}
