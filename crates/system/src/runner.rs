//! The one cell path of every experiment sweep.
//!
//! The paper's evaluation (§4–5) is a fold over independent
//! `(benchmark, configuration, seed)` cells, averaging several perturbed
//! runs per benchmark with 95% confidence intervals. A cell is a
//! [`WorkItem`], executed by a pure function, and [`run_cells`] is the
//! only way a sweep runs its cells: on the deterministic thread pool
//! ([`cgct_sim::pool`]) with an explicit worker count, through an
//! optional in-process [`Memo`], each cell timed, the results handed
//! back in item order. [`run_averaged`], the [`crate::experiments`]
//! sweeps and every section of the `experiments` binary use it, so
//! results never depend on which worker ran what.

use crate::config::SystemConfig;
use crate::machine::{Machine, RunResult};
use cgct_sim::pool::{self, ItemReport};
use cgct_sim::RunningStats;
use cgct_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::sync::Mutex;

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
            return (result.clone(), true);
        }
        let result = item.execute(plan);
        self.cells
            .lock()
            .expect("memo poisoned")
            .insert(key, result.clone());
        (result, false)
    }
}

/// One finished cell of [`run_cells`].
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The label the cell was submitted under.
    pub label: String,
    /// The cell's result.
    pub result: RunResult,
    /// Wall-clock seconds the cell took on its worker (for a reused
    /// cell, the memo lookup).
    pub seconds: f64,
    /// Whether the result came from the memo instead of a simulation.
    pub reused: bool,
}

/// Runs labelled cells under `plan` on `jobs` workers of the
/// deterministic pool, through `memo` if one is given, and returns
/// every cell's result, wall seconds and reuse flag in item order.
///
/// `observe` sees each completion as it happens (from whichever worker
/// finished it; progress display only). Each cell's seed is part of its
/// [`WorkItem`], so the results are the same for any `jobs`, including
/// 1, which runs the cells in order on the calling thread.
///
/// # Panics
///
/// Propagates a panic raised by a cell.
pub fn run_cells(
    cells: Vec<(String, WorkItem)>,
    plan: &RunPlan,
    jobs: usize,
    memo: Option<&Memo>,
    observe: impl Fn(ItemReport) + Sync,
) -> Vec<CellRun> {
    let seconds = Mutex::new(vec![0.0f64; cells.len()]);
    let runs = pool::run_observed(
        jobs,
        cells,
        |_, (label, item)| {
            let (result, reused) = match memo {
                Some(memo) => memo.execute(&item, plan),
                None => (item.execute(plan), false),
            };
            (label, result, reused)
        },
        |report| {
            seconds.lock().expect("timing poisoned")[report.index] = report.seconds;
            observe(report);
        },
    );
    runs.into_iter()
        .zip(seconds.into_inner().expect("timing poisoned"))
        .map(|((label, result, reused), seconds)| CellRun {
            label,
            result,
            seconds,
            reused,
        })
        .collect()
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

/// Runs `plan.runs` perturbed seeds of one configuration on `jobs`
/// workers and aggregates them in seed order.
///
/// # Panics
///
/// Panics if `plan.runs` is zero or a run panics.
pub fn run_averaged(
    cfg: &SystemConfig,
    spec: &BenchmarkSpec,
    plan: &RunPlan,
    jobs: usize,
) -> AggregateResult {
    assert!(plan.runs > 0, "need at least one run");
    let cells = (0..plan.runs)
        .map(|i| {
            let item = WorkItem {
                spec: spec.clone(),
                cfg: cfg.clone(),
                seed: plan.seed_for(i),
            };
            (item.label(), item)
        })
        .collect();
    let runs = run_cells(cells, plan, jobs, None, |_| {});
    AggregateResult::from_runs(runs.into_iter().map(|run| run.result).collect())
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
        let agg = run_averaged(&cfg, &spec, &plan, 2);
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
    }

    #[test]
    fn run_cells_keeps_item_order_times_every_cell_and_flags_reuse() {
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 800,
            max_cycles: 1_000_000,
            runs: 2,
            base_seed: 7,
        };
        let item = |bench: &str, mode: CoherenceMode, seed: u64| WorkItem {
            spec: by_name(bench).unwrap(),
            cfg: SystemConfig::paper_default(mode),
            seed,
        };
        let cgct = CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        };
        // The last cell repeats the first.
        let items = [
            item("barnes", CoherenceMode::Baseline, 7),
            item("ocean", cgct, 8),
            item("tpc-w", CoherenceMode::Baseline, 7),
            item("barnes", CoherenceMode::Baseline, 7),
        ];
        let cells = || -> Vec<(String, WorkItem)> {
            items
                .iter()
                .enumerate()
                .map(|(i, w)| (format!("{i}:{}", w.label()), w.clone()))
                .collect()
        };
        let mut dumps = Vec::new();
        for jobs in [1, 4] {
            let memo = Memo::default();
            let runs = run_cells(cells(), &plan, jobs, Some(&memo), |_| {});
            let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "0:barnes/baseline#s7",
                    "1:ocean/cgct-512B#s8",
                    "2:tpc-w/baseline#s7",
                    "3:barnes/baseline#s7"
                ],
                "jobs={jobs}"
            );
            for (run, item) in runs.iter().zip(&items) {
                assert_eq!(run.result.benchmark, item.spec.name, "jobs={jobs}");
                assert!(run.seconds > 0.0, "{} has no seconds reading", run.label);
            }
            let reused: Vec<bool> = runs.iter().map(|r| r.reused).collect();
            if jobs == 1 {
                assert_eq!(reused, [false, false, false, true]);
            } else {
                // Four workers may start the repeat before its twin
                // finishes; then both simulate.
                assert!(!reused[..3].iter().any(|&r| r), "jobs={jobs}");
            }
            dumps.push(
                runs.iter()
                    .map(|r| r.result.snap().dump())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(dumps[0], dumps[1], "4 workers diverged from 1");
        assert_eq!(dumps[0][3], dumps[0][0], "a reused cell is its twin");

        // A repeated batch through the same memo is reused whole, at
        // any worker count.
        let memo = Memo::default();
        run_cells(cells(), &plan, 4, Some(&memo), |_| {});
        let again = run_cells(cells(), &plan, 4, Some(&memo), |_| {});
        assert!(again.iter().all(|r| r.reused));
        let without = run_cells(cells(), &plan, 4, None, |_| {});
        assert!(without.iter().all(|r| !r.reused), "no memo, no reuse");
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
        let _ = run_averaged(&cfg, &spec, &plan, 1);
    }
}
