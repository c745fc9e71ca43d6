//! Event-driven time advancement must be invisible: jumping `now`
//! straight to the next core wakeup or memory event (bus grants, snoop
//! completions, DRAM accesses, data-port releases, MSHR fills) instead
//! of ticking every cycle may change how fast the simulator runs, never
//! what it computes.
//!
//! Every benchmark runs under every coherence mode twice — once with the
//! event-driven loop (the default) and once with the plain cycle-stepped
//! reference (`Machine::set_cycle_skip(false)`) — and the two
//! `RunResult`s must be *bit-identical*: same `runtime_cycles`, same
//! memory metrics to the last counter, same RCA statistics, same
//! perturbation-RNG draws, and the same delivered-event count (both
//! loops pass every scheduled completion time, so `mem_events` agrees
//! even though only the event-driven loop uses those times to jump).
//! Any drift means a wakeup was reported too late (a tick that mattered
//! got skipped) and is a correctness bug, not a tolerance question.

use cgct_interconnect::Topology;
use cgct_system::{CoherenceMode, Machine, RunResult, SystemConfig};
use cgct_workloads::all_benchmarks;

fn run_mode(
    mode: CoherenceMode,
    topology: Topology,
    bench: &str,
    seed: u64,
    skip: bool,
) -> (RunResult, Machine) {
    let mut cfg = SystemConfig::paper_default(mode);
    cfg.topology = topology;
    let spec = all_benchmarks()
        .iter()
        .find(|s| s.name == bench)
        .expect("benchmark exists")
        .clone();
    let mut m = Machine::new(cfg, &spec, seed);
    m.set_cycle_skip(skip);
    let r = m.run_warmed(500, 1500, 2_000_000);
    (r, m)
}

/// Every field of a `RunResult`, flattened to an exactly-comparable
/// string. `Debug` for `f64` prints the shortest round-trip
/// representation, so two results format equal iff they are bit-equal
/// (modulo -0.0, which never arises from these counters).
fn fingerprint(r: &RunResult) -> String {
    format!("{r:?}")
}

/// Every `CoherenceMode` on the paper's 4-node machine, plus the
/// hierarchical machine on two boards, where its broadcasts can cross
/// clusters (on one board it has a single cluster).
fn cases() -> Vec<(CoherenceMode, Topology)> {
    let (region_bytes, sets) = (512, 8192);
    let paper = Topology::paper_default();
    vec![
        (CoherenceMode::Baseline, paper),
        (CoherenceMode::Cgct { region_bytes, sets }, paper),
        (CoherenceMode::Scaled { region_bytes, sets }, paper),
        (CoherenceMode::RegionScout { region_bytes }, paper),
        (CoherenceMode::Directory, paper),
        (CoherenceMode::DirectoryCgct { region_bytes, sets }, paper),
        (CoherenceMode::Hierarchical { region_bytes, sets }, paper),
        (
            CoherenceMode::Hierarchical { region_bytes, sets },
            Topology::two_boards(),
        ),
    ]
}

#[test]
fn event_driven_and_cycle_stepped_loops_agree_on_every_benchmark_and_mode() {
    for spec in all_benchmarks() {
        for (mode, topology) in cases() {
            let label = format!("{}/{}/{}c", spec.name, mode.label(), topology.total_cores());
            let (event, m) = run_mode(mode, topology, spec.name, 42, true);
            let (stepped, _) = run_mode(mode, topology, spec.name, 42, false);
            assert!(!event.truncated, "{label}: truncated");
            // The memory system actually ran event-driven: completions
            // were scheduled and delivered during the measured phase.
            assert!(event.mem_events > 0, "{label}: no events delivered");
            assert_eq!(
                event.mem_events, stepped.mem_events,
                "{label}: delivered-event counts diverged"
            );
            assert_eq!(
                event.runtime_cycles, stepped.runtime_cycles,
                "{label}: runtime diverged"
            );
            assert_eq!(
                fingerprint(&event),
                fingerprint(&stepped),
                "{label}: results diverged"
            );
            // The run must also leave a coherent machine behind (this
            // exercises the region-line reverse index validation).
            m.check_invariants()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// The cycle cap is exclusive and truncation lands on the identical
/// cycle in both loops — including the once-off-by-one case where the
/// warmup phase itself exhausts the cap.
#[test]
fn truncation_is_identical_across_modes() {
    for &(warmup, instr, cap) in &[(0u64, 1_000_000u64, 700u64), (1_000_000, 1_000, 700)] {
        let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        let spec = all_benchmarks()[0].clone();
        let mut a = Machine::new(cfg.clone(), &spec, 9);
        a.set_cycle_skip(true);
        let ra = a.run_warmed(warmup, instr, cap);
        let mut b = Machine::new(cfg, &spec, 9);
        b.set_cycle_skip(false);
        let rb = b.run_warmed(warmup, instr, cap);
        assert!(ra.truncated && rb.truncated);
        assert_eq!(
            a.now().0,
            cap,
            "the event-driven loop must stop exactly at the cap"
        );
        assert_eq!(
            b.now().0,
            cap,
            "the cycle-stepped loop must stop exactly at the cap"
        );
        assert_eq!(fingerprint(&ra), fingerprint(&rb));
    }
}

/// At the end of a completed run no event can still be pending before
/// the final cycle: the clock never jumps past an undelivered
/// completion.
#[test]
fn no_event_is_left_behind_the_clock() {
    let (_, m) = run_mode(
        CoherenceMode::Baseline,
        Topology::paper_default(),
        all_benchmarks()[0].name,
        3,
        true,
    );
    if let Some(t) = m.memory().next_event_time() {
        assert!(
            t > m.now(),
            "pending event at {t:?} is not ahead of now {:?}",
            m.now()
        );
    }
}
