//! The parallel runner's core guarantee: results are a function of the
//! work list, never of the worker count or scheduling order.
//!
//! These tests run the same tiny suite serially and on 2 and 8 workers
//! and require *bit-identical* aggregates — not "close", identical —
//! plus the `CGCT_JOBS=1` escape hatch degrading to the calling thread.

use cgct_sim::pool;
use cgct_system::experiments::Suite;
use cgct_system::{run_cells, CoherenceMode, RunPlan};

/// The suite of `modes` under `plan`, its cells run on `jobs` workers.
fn suite(plan: RunPlan, modes: &[CoherenceMode], jobs: usize) -> Suite {
    let runs = run_cells(Suite::cells(&plan, modes, |c| c), &plan, jobs, None, |_| {});
    Suite::from_results(plan, modes, runs.into_iter().map(|r| r.result).collect())
}

fn tiny_plan() -> RunPlan {
    RunPlan {
        warmup_per_core: 0,
        instructions_per_core: 1_200,
        max_cycles: 2_000_000,
        runs: 2,
        base_seed: 5,
    }
}

fn tiny_modes() -> Vec<CoherenceMode> {
    vec![
        CoherenceMode::Baseline,
        CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
    ]
}

/// Every observable output of a suite, flattened to exactly comparable
/// values (u64 cycles and the raw bits of every f64 statistic).
fn fingerprint(suite: &Suite) -> Vec<(String, String, Vec<u64>)> {
    suite
        .results
        .iter()
        .map(|((bench, mode), agg)| {
            let mut words: Vec<u64> = agg.runs.iter().map(|r| r.runtime_cycles).collect();
            words.extend(agg.runs.iter().map(|r| r.metrics.broadcasts));
            words.push(agg.runtime.mean().to_bits());
            words.push(agg.avoided_fraction.mean().to_bits());
            words.push(agg.l2_miss_ratio.mean().to_bits());
            words.push(agg.runtime.confidence_interval_95().half_width().to_bits());
            (bench.clone(), mode.clone(), words)
        })
        .collect()
}

#[test]
fn worker_count_never_changes_results() {
    let plan = tiny_plan();
    let modes = tiny_modes();
    let serial = suite(plan, &modes, 1);
    let two = suite(plan, &modes, 2);
    let eight = suite(plan, &modes, 8);

    let want = fingerprint(&serial);
    assert!(!want.is_empty());
    assert_eq!(fingerprint(&two), want, "2 workers diverged from serial");
    assert_eq!(fingerprint(&eight), want, "8 workers diverged from serial");
}

#[test]
fn worker_count_never_changes_results_for_directory_modes() {
    // The directory and hierarchical machines route work through the
    // home controllers and cluster buses; their results must be just as
    // independent of worker count as the bus modes'.
    let plan = tiny_plan();
    let modes = vec![
        CoherenceMode::Directory,
        CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        },
        CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        },
    ];
    let serial = suite(plan, &modes, 1);
    let four = suite(plan, &modes, 4);

    let want = fingerprint(&serial);
    assert!(!want.is_empty());
    assert_eq!(fingerprint(&four), want, "4 workers diverged from serial");
}

#[test]
fn timing_labels_stay_in_canonical_order() {
    // Whatever order cells *complete* in, they come back in build
    // order: benchmark-major, then mode, then seed.
    let plan = tiny_plan();
    let modes = tiny_modes();
    let runs = run_cells(Suite::cells(&plan, &modes, |c| c), &plan, 4, None, |_| {});
    let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
    // Every suite cell is a real simulation, so every one must carry a
    // wall-time reading, a non-zero simulated-cycle count and some
    // delivered memory completion events for the timing log.
    assert!(runs.iter().all(|r| r.seconds > 0.0 && !r.reused));
    assert!(runs.iter().all(|r| r.result.runtime_cycles > 0));
    assert!(runs.iter().all(|r| r.result.mem_events > 0));
    let first_bench = cgct_workloads::all_benchmarks()[0].name;
    assert_eq!(labels[0], format!("{first_bench}/baseline#s5"));
    assert_eq!(labels[1], format!("{first_bench}/baseline#s6"));
    assert_eq!(labels[2], format!("{first_bench}/cgct-512B#s5"));
    assert_eq!(
        labels.len(),
        cgct_workloads::all_benchmarks().len() * modes.len() * plan.runs as usize
    );
}

#[test]
fn observer_sees_every_item_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let plan = tiny_plan();
    let modes = tiny_modes();
    let seen = AtomicUsize::new(0);
    let runs = run_cells(
        Suite::cells(&plan, &modes, |c| c),
        &plan,
        3,
        None,
        |report| {
            seen.fetch_add(1, Ordering::SeqCst);
            assert!(report.done >= 1 && report.done <= report.total);
        },
    );
    assert_eq!(seen.load(Ordering::SeqCst), runs.len());
}

#[test]
fn cgct_jobs_one_degrades_to_the_calling_thread() {
    // `--serial` (and CGCT_JOBS=1) must run items in order on the
    // calling thread with no workers spawned. This test owns the env
    // var: the other tests in this binary pass `jobs` explicitly and
    // never read it, so there is no race.
    std::env::set_var("CGCT_JOBS", "1");
    assert_eq!(pool::jobs(), 1);
    let main_thread = std::thread::current().id();
    let order = pool::run(vec![10u64, 20, 30], |i, x| {
        assert_eq!(std::thread::current().id(), main_thread);
        (i, x)
    });
    assert_eq!(order, vec![(0, 10), (1, 20), (2, 30)]);
    std::env::remove_var("CGCT_JOBS");

    // Out-of-range and garbage values fall back to auto-detection.
    assert_eq!(pool::jobs_from(Some("0")), pool::jobs_from(None));
    assert_eq!(pool::jobs_from(Some("lots")), pool::jobs_from(None));
}
