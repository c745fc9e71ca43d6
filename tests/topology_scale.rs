//! Larger-topology integration tests: the 16-core two-board machine
//! exercises all four distance classes and a shared address network under
//! four times the load.

use cgct_interconnect::Topology;
use cgct_system::{CoherenceMode, Machine, SystemConfig};
use cgct_workloads::by_name;

fn sixteen_core_cfg(mode: CoherenceMode) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(mode);
    cfg.topology = Topology::two_boards();
    cfg.perturbation = 0;
    cfg
}

#[test]
fn sixteen_cores_run_and_hold_invariants() {
    for mode in [
        CoherenceMode::Baseline,
        CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
    ] {
        let spec = by_name("specjbb2000").unwrap();
        let mut m = Machine::new(sixteen_core_cfg(mode), &spec, 1);
        let r = m.run(800, 10_000_000);
        assert!(!r.truncated, "{}", mode.label());
        assert!(r.committed >= 16 * 800);
        m.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
    }
}

#[test]
fn cgct_relieves_the_shared_bus_at_scale() {
    let spec = by_name("tpc-w").unwrap();
    let base =
        Machine::new(sixteen_core_cfg(CoherenceMode::Baseline), &spec, 2).run(1_000, 20_000_000);
    let cgct = Machine::new(
        sixteen_core_cfg(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        }),
        &spec,
        2,
    )
    .run(1_000, 20_000_000);
    assert!(
        cgct.metrics.broadcasts < base.metrics.broadcasts,
        "{} vs {}",
        cgct.metrics.broadcasts,
        base.metrics.broadcasts
    );
    assert!(cgct.runtime_cycles <= base.runtime_cycles);
}

#[test]
fn remote_sharing_crosses_boards_correctly() {
    use cgct_cache::Addr;
    use cgct_interconnect::CoreId;
    use cgct_sim::Cycle;
    use cgct_system::MemorySystem;

    let mut cfg = sixteen_core_cfg(CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    });
    cfg.stream_prefetch = false;
    let mut mem = MemorySystem::new(cfg, 1);
    let a = Addr(0x9000);
    // Core 0 (board 0) dirties a line; core 15 (board 1) reads it:
    // a remote cache-to-cache transfer.
    mem.store(CoreId(0), Cycle(0), a);
    let t0 = Cycle(10_000);
    let done = mem.load(CoreId(15), t0, a, false);
    assert!(mem.metrics.cache_to_cache >= 1);
    // Remote c2c costs snoop (160) + remote transfer (120) = 280 cycles
    // plus L2/bus overhead.
    assert!(done - t0 >= 280, "remote transfer too fast: {}", done - t0);
    // A flat machine on two boards is still one bus: with no Jetty
    // fitted, every broadcast snoops all 15 other nodes, and only the
    // hierarchical machine filters snoops by cluster.
    assert!(mem.metrics.broadcasts >= 1);
    assert_eq!(mem.metrics.snooped_tag_lookups, 15 * mem.metrics.broadcasts);
    assert_eq!(mem.metrics.cluster_snoops_filtered, 0);
    mem.check_invariants().unwrap();
}

#[test]
fn owner_prediction_works_at_machine_scale() {
    let spec = by_name("tpc-h").unwrap(); // cache-to-cache heavy merge
    let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    });
    cfg.perturbation = 0;
    cfg.owner_prediction = true;
    let mut m = Machine::new(cfg, &spec, 3);
    let r = m.run_warmed(4_000, 4_000, 20_000_000);
    assert!(
        r.metrics.owner_prediction_hits + r.metrics.owner_prediction_misses > 0,
        "predictor never consulted"
    );
    m.check_invariants().unwrap();
}
