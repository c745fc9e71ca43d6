//! Acceptance tests for the exhaustive checker: clean fixpoints on the
//! faithful protocol, guaranteed counterexamples on mutated wirings,
//! and cross-validation of the model against the real `MemorySystem`.

use cgct::RegionState;
use cgct_cache::{Addr, LineAddr, RegionAddr};
use cgct_interconnect::CoreId;
use cgct_sim::rng::Xoshiro256pp;
use cgct_sim::Cycle;
use cgct_system::{CoherenceMode, MemorySystem, SystemConfig};
use cgct_verify::checker::explore;
use cgct_verify::model::{
    apply, GlobalState, HomeState, ModelConfig, Mutation, NodeState, Protocol,
};

/// Golden state/transition counts for the acceptance configuration
/// (3 nodes x 1 region x 2 lines). A change here means the protocol's
/// reachable state space changed — deliberate protocol edits must update
/// these, anything else is a regression.
const GOLDEN_3X2_STATES: u64 = 4947;
const GOLDEN_3X2_TRANSITIONS: u64 = 116_040;

/// Golden counts for the directory machine at the same shape. The space
/// is much larger: the home's per-line owner/sharer bits and the
/// region-grain directory cache mask are part of the global state, and
/// silent clean evictions leave reachable stale-bit patterns.
const GOLDEN_DIR_3X2_STATES: u64 = 184_879;
const GOLDEN_DIR_3X2_TRANSITIONS: u64 = 4_496_964;

#[test]
fn acceptance_config_explores_to_fixpoint_with_zero_violations() {
    let cfg = ModelConfig::default_3x2();
    let r = explore(&cfg);
    assert!(
        r.clean(),
        "{}",
        r.violation.unwrap().render(&GlobalState::initial(&cfg))
    );
    assert_eq!(r.states, GOLDEN_3X2_STATES);
    assert_eq!(r.transitions, GOLDEN_3X2_TRANSITIONS);
    assert_eq!(r.reachable.len() as u64, r.states);
}

#[test]
fn state_count_is_stable_across_runs() {
    let cfg = ModelConfig::default_3x2();
    let a = explore(&cfg);
    let b = explore(&cfg);
    assert_eq!(a.states, b.states);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.reachable, b.reachable);
}

#[test]
fn other_shapes_are_clean() {
    for (nodes, lines) in [(2, 1), (2, 2), (4, 1)] {
        let cfg = ModelConfig {
            nodes,
            lines,
            ..ModelConfig::default_3x2()
        };
        let r = explore(&cfg);
        assert!(
            r.clean(),
            "{nodes}x{lines}: {}",
            r.violation.unwrap().render(&GlobalState::initial(&cfg))
        );
    }
}

#[test]
fn directory_acceptance_config_explores_to_fixpoint_with_zero_violations() {
    let cfg = ModelConfig::directory_3x2();
    let r = explore(&cfg);
    assert!(
        r.clean(),
        "{}",
        r.violation.unwrap().render(&GlobalState::initial(&cfg))
    );
    assert_eq!(r.states, GOLDEN_DIR_3X2_STATES);
    assert_eq!(r.transitions, GOLDEN_DIR_3X2_TRANSITIONS);
}

#[test]
fn hierarchical_reachable_space_equals_the_flat_bus() {
    // The inter-cluster region filter only skips clusters that provably
    // cache nothing of the region, so partitioning the machine must not
    // change the reachable state space at all — for any cluster count.
    let snoop = explore(&ModelConfig::default_3x2());
    for clusters in [2, 3] {
        let cfg = ModelConfig {
            clusters,
            ..ModelConfig::hierarchical_3x2()
        };
        let r = explore(&cfg);
        assert!(
            r.clean(),
            "{clusters} clusters: {}",
            r.violation.unwrap().render(&GlobalState::initial(&cfg))
        );
        assert_eq!(r.states, GOLDEN_3X2_STATES, "{clusters} clusters");
        assert_eq!(r.transitions, GOLDEN_3X2_TRANSITIONS, "{clusters} clusters");
        assert_eq!(r.reachable, snoop.reachable, "{clusters} clusters");
    }
}

#[test]
fn disabling_self_invalidation_is_still_safe() {
    let cfg = ModelConfig {
        self_invalidation: false,
        ..ModelConfig::default_3x2()
    };
    let r = explore(&cfg);
    assert!(
        r.clean(),
        "{}",
        r.violation.unwrap().render(&GlobalState::initial(&cfg))
    );
    // Keeping stale entries alive changes the space, not its safety.
    assert_ne!(r.states, GOLDEN_3X2_STATES);
}

/// The shortest counterexample of every protocol x applicable fault:
/// the invariant it breaks and its events. Recorded from the checker
/// that kept every visited state in memory for its traces; traces
/// rebuilt by replaying parent-linked events must stay these
/// breadth-first-shortest ones.
const FAULT_TRACES: &[(&str, &str, &str, &[&str])] = &[
    (
        "snoop",
        "keep-stale-sharers",
        "I1",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "snoop",
        "skip-external-downgrade",
        "I2",
        &["n0 load L0", "n1 load L0"],
    ),
    (
        "snoop",
        "leak-line-count",
        "I3",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "snoop",
        "overclaim-exclusive",
        "I1",
        &["n0 load L0", "n1 load L0", "n0 store L0"],
    ),
    (
        "dir-cgct",
        "keep-stale-sharers",
        "I1",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "dir-cgct",
        "skip-external-downgrade",
        "I2",
        &["n0 load L0", "n1 load L0"],
    ),
    (
        "dir-cgct",
        "leak-line-count",
        "I3",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "dir-cgct",
        "overclaim-exclusive",
        "I1",
        &["n0 load L0", "n1 load L0", "n0 store L0"],
    ),
    (
        "dir-cgct",
        "stale-region-dir-cache",
        "I6",
        &["n0 load L0", "n1 load L0"],
    ),
    (
        "hierarchical",
        "keep-stale-sharers",
        "I1",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "hierarchical",
        "skip-external-downgrade",
        "I2",
        &["n0 load L0", "n1 load L0"],
    ),
    (
        "hierarchical",
        "leak-line-count",
        "I3",
        &["n0 load L0", "n1 store L0"],
    ),
    (
        "hierarchical",
        "overclaim-exclusive",
        "I1",
        &["n0 load L0", "n1 load L0", "n0 store L0"],
    ),
    (
        "hierarchical",
        "skip-cluster-invalidation",
        "I1",
        &["n0 load L0", "n2 load L0"],
    ),
];

#[test]
fn every_fault_injection_yields_a_counterexample() {
    // Every fault applicable to a protocol must be caught under that
    // protocol: the four line/region wirings under all three machines,
    // plus the directory machine's stale-region-cache fault and the
    // hierarchical machine's skipped cluster invalidation.
    let bases = [
        ModelConfig::default_3x2(),
        ModelConfig::directory_3x2(),
        ModelConfig::hierarchical_3x2(),
    ];
    let mut checked = 0;
    for base in bases {
        for mutation in base.applicable_faults() {
            let cfg = ModelConfig { mutation, ..base };
            let label = format!("{}/{}", cfg.protocol.name(), mutation.name());
            let r = explore(&cfg);
            let v = r
                .violation
                .unwrap_or_else(|| panic!("{label} must be caught"));
            let &(_, _, invariant, events) = FAULT_TRACES
                .iter()
                .find(|(p, m, _, _)| *p == cfg.protocol.name() && *m == mutation.name())
                .unwrap_or_else(|| panic!("{label}: no recorded trace shape"));
            let taken: Vec<String> = v.trace.iter().map(|s| s.event.to_string()).collect();
            assert_eq!(taken, events, "{label}: trace events");
            assert!(
                v.message.starts_with(&format!("{invariant}:")),
                "{label}: expected {invariant}, got {}",
                v.message
            );
            checked += 1;
            // The trace must replay: applying its events from the initial
            // state reproduces exactly the recorded intermediate states.
            let mut state = GlobalState::initial(&cfg);
            for (i, step) in v.trace.iter().enumerate() {
                state = apply(&cfg, &state, step.event);
                assert_eq!(state, step.state, "{label}: trace step {i} does not replay");
            }
            // And the replayed final state violates an invariant.
            assert!(
                cgct_verify::invariants::check(&state).is_err(),
                "{label}: final trace state passes the invariants"
            );
        }
    }
    assert_eq!(checked, FAULT_TRACES.len(), "every recorded shape checked");
}

#[test]
fn protocol_specific_faults_reject_other_protocols_cleanly() {
    // The new faults only have meaning on their machine; the base
    // protocols must not silently "pass" them.
    let snoop = ModelConfig::default_3x2();
    assert!(!snoop
        .applicable_faults()
        .contains(&Mutation::StaleRegionDirCache));
    assert!(!snoop
        .applicable_faults()
        .contains(&Mutation::SkipClusterInvalidation));
    assert!(ModelConfig::directory_3x2()
        .applicable_faults()
        .contains(&Mutation::StaleRegionDirCache));
    assert!(ModelConfig::hierarchical_3x2()
        .applicable_faults()
        .contains(&Mutation::SkipClusterInvalidation));
}

// ------------------------------------------------------------------
// Cross-validation: every global state a real MemorySystem reaches
// under random traffic must be in the model's reachable set.
// ------------------------------------------------------------------

/// Projects the live system's state for region 0 onto the model's
/// abstract state: per node, the L2 MOESI state of each line of the
/// region plus the RCA entry (state, line count).
fn observed_state(m: &MemorySystem, nodes: usize, lines: usize) -> GlobalState {
    observed_state_mapped(m, &(0..nodes).collect::<Vec<_>>(), lines)
}

/// Same projection with an explicit model-node -> live-core map, for
/// live machines larger than the model (hierarchical cross-validation
/// drives 4 active cores of a 16-core machine).
fn observed_state_mapped(m: &MemorySystem, cores: &[usize], lines: usize) -> GlobalState {
    GlobalState {
        nodes: cores
            .iter()
            .map(|&c| {
                let core = CoreId(c);
                let entry = m.rca(core).expect("cgct mode").entry(RegionAddr(0));
                NodeState {
                    lines: (0..lines)
                        .map(|l| m.l2_state(core, LineAddr(l as u64)))
                        .collect(),
                    region: entry.map_or(RegionState::Invalid, |e| e.state),
                    line_count: entry.map_or(0, |e| e.line_count),
                }
            })
            .collect(),
        home: None,
    }
}

/// Projects the live home controller (directory entries for region 0's
/// lines plus the region-grain directory cache mask) onto the model's
/// [`HomeState`].
fn observed_home(m: &MemorySystem, nodes: usize, lines: usize) -> HomeState {
    let dir = m.directory(0);
    HomeState {
        lines: (0..lines)
            .map(|l| {
                let e = dir.entry(LineAddr(l as u64));
                assert!(
                    e.sharers < 1 << nodes,
                    "live sharer bits outside the model's node range"
                );
                e
            })
            .collect(),
        cache_mask: m
            .region_dir_cache(0)
            .expect("dir-cgct mode")
            .peek(RegionAddr(0))
            .map(|mask| mask as u8),
    }
}

/// Drives `ops` random load/ifetch/store/dcbz operations from `nodes`
/// cores over `lines` lines of region 0 and asserts after every single
/// operation that the observed global state is model-reachable.
fn cross_validate(nodes: usize, lines: usize, ops: usize, seed: u64) {
    let model = ModelConfig {
        nodes,
        lines,
        ..ModelConfig::default_3x2()
    };
    let reachable = explore(&model);
    assert!(reachable.clean());

    let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
        region_bytes: 64 * lines as u64,
        sets: 8192,
    });
    // The model covers the coherence protocol, not the predictors: turn
    // off everything that issues requests on its own or changes fill
    // policy, and make completion times deterministic.
    cfg.stream_prefetch = false;
    cfg.exclusive_prefetch = false;
    cfg.shared_read_bypass = false;
    cfg.owner_prediction = false;
    cfg.perturbation = 0;
    assert_eq!(cfg.geometry().lines_per_region(), lines as u64);
    let mut m = MemorySystem::new(cfg, seed);

    let mut g = Xoshiro256pp::seed_from_u64(seed);
    let mut now = Cycle(0);
    for i in 0..ops {
        let core = CoreId(g.gen_range(0..nodes));
        let addr = Addr(64 * g.gen_range(0..lines as u64));
        now = match g.gen_range(0u32..4) {
            0 => m.load(core, now, addr, false),
            1 => m.ifetch(core, now, addr),
            2 => m.store(core, now, addr),
            _ => m.dcbz(core, now, addr),
        };
        let state = observed_state(&m, nodes, lines);
        assert!(
            reachable.reachable.contains(&state.encode()),
            "op {i}: live state {state} is not model-reachable"
        );
        m.check_invariants()
            .unwrap_or_else(|e| panic!("op {i}: {e}"));
    }
}

#[test]
fn live_system_stays_within_the_model_reachable_set_4_nodes() {
    // All four cores of the paper topology, one-line regions.
    cross_validate(4, 1, 1500, 0xC6C7_2005);
}

#[test]
fn live_system_stays_within_the_model_reachable_set_2_nodes() {
    // Two active cores, two-line regions. The idle cores never cache
    // anything, so the active pair must behave exactly like the 2-node
    // model; the projection below checks the idle cores stay empty.
    let nodes = 2;
    let lines = 2;
    let model = ModelConfig {
        nodes,
        lines,
        ..ModelConfig::default_3x2()
    };
    let reachable = explore(&model);
    assert!(reachable.clean());

    let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
        region_bytes: 128,
        sets: 8192,
    });
    cfg.stream_prefetch = false;
    cfg.exclusive_prefetch = false;
    cfg.perturbation = 0;
    let mut m = MemorySystem::new(cfg, 7);

    let mut g = Xoshiro256pp::seed_from_u64(7);
    let mut now = Cycle(0);
    for i in 0..1500 {
        let core = CoreId(g.gen_range(0..nodes));
        let addr = Addr(64 * g.gen_range(0..lines as u64));
        now = match g.gen_range(0u32..4) {
            0 => m.load(core, now, addr, false),
            1 => m.ifetch(core, now, addr),
            2 => m.store(core, now, addr),
            _ => m.dcbz(core, now, addr),
        };
        for idle in nodes..4 {
            assert_eq!(observed_state(&m, 4, lines).nodes[idle].cached_lines(), 0);
        }
        let state = observed_state(&m, nodes, lines);
        assert!(
            reachable.reachable.contains(&state.encode()),
            "op {i}: live state {state} is not model-reachable"
        );
    }
}

#[test]
fn live_directory_system_stays_within_the_model_reachable_set() {
    // The directory machine's cross-validation also projects the home:
    // per-line owner/sharer bits and the region directory cache mask
    // must match a model-reachable home state after every operation.
    let nodes = 4;
    let lines = 1;
    let model = ModelConfig {
        nodes,
        lines,
        protocol: Protocol::DirectoryCgct,
        ..ModelConfig::default_3x2()
    };
    let reachable = explore(&model);
    assert!(reachable.clean());

    let mut cfg = SystemConfig::paper_default(CoherenceMode::DirectoryCgct {
        region_bytes: 64 * lines as u64,
        sets: 8192,
    });
    cfg.stream_prefetch = false;
    cfg.exclusive_prefetch = false;
    cfg.shared_read_bypass = false;
    cfg.owner_prediction = false;
    cfg.perturbation = 0;
    let mut m = MemorySystem::new(cfg, 0xD1CE_2005);
    m.set_sanitize(true);

    let mut g = Xoshiro256pp::seed_from_u64(0xD1CE_2005);
    let mut now = Cycle(0);
    for i in 0..1500 {
        let core = CoreId(g.gen_range(0..nodes));
        let addr = Addr(64 * g.gen_range(0..lines as u64));
        now = match g.gen_range(0u32..4) {
            0 => m.load(core, now, addr, false),
            1 => m.ifetch(core, now, addr),
            2 => m.store(core, now, addr),
            _ => m.dcbz(core, now, addr),
        };
        let mut state = observed_state(&m, nodes, lines);
        state.home = Some(observed_home(&m, nodes, lines));
        assert!(
            reachable.reachable.contains(&state.encode()),
            "op {i}: live state {state} is not model-reachable"
        );
        m.check_invariants()
            .unwrap_or_else(|e| panic!("op {i}: {e}"));
    }
}

#[test]
fn live_hierarchical_system_stays_within_the_model_reachable_set() {
    // Four active cores of a 16-core, 2-board machine — two per board,
    // so cluster-filtered snoops are actually exercised. The model's
    // 4-node/2-cluster reachable space equals the flat bus's, and the
    // live machine must stay inside it; the other 12 cores stay empty.
    use cgct_interconnect::topology::Topology;
    let lines = 1;
    let active = [0usize, 1, 8, 9];
    let model = ModelConfig {
        nodes: active.len(),
        lines,
        protocol: Protocol::Hierarchical,
        clusters: 2,
        ..ModelConfig::default_3x2()
    };
    let reachable = explore(&model);
    assert!(reachable.clean());

    let mut cfg = SystemConfig::paper_default(CoherenceMode::Hierarchical {
        region_bytes: 64 * lines as u64,
        sets: 8192,
    });
    cfg.topology = Topology::for_cores(16);
    cfg.stream_prefetch = false;
    cfg.exclusive_prefetch = false;
    cfg.shared_read_bypass = false;
    cfg.owner_prediction = false;
    cfg.perturbation = 0;
    let mut m = MemorySystem::new(cfg, 0x41E2);
    m.set_sanitize(true);

    let mut g = Xoshiro256pp::seed_from_u64(0x41E2);
    let mut now = Cycle(0);
    for i in 0..1500 {
        let core = CoreId(active[g.gen_range(0..active.len() as u64) as usize]);
        let addr = Addr(64 * g.gen_range(0..lines as u64));
        now = match g.gen_range(0u32..4) {
            0 => m.load(core, now, addr, false),
            1 => m.ifetch(core, now, addr),
            2 => m.store(core, now, addr),
            _ => m.dcbz(core, now, addr),
        };
        for idle in 0..16 {
            if !active.contains(&idle) {
                assert_eq!(
                    observed_state_mapped(&m, &[idle], lines).nodes[0].cached_lines(),
                    0,
                    "idle core {idle} cached something"
                );
            }
        }
        let state = observed_state_mapped(&m, &active, lines);
        assert!(
            reachable.reachable.contains(&state.encode()),
            "op {i}: live state {state} is not model-reachable"
        );
        m.check_invariants()
            .unwrap_or_else(|e| panic!("op {i}: {e}"));
    }
}
