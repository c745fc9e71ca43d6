//! The traced loop must reproduce `Machine::run_warmed` exactly, and the
//! chunked generator must hand out the generator's own stream.

use cgct_cpu::UopSource;
use cgct_perfbench::traced::{run_traced, ChunkedSource, CHUNK};
use cgct_perfbench::workload::{SimCell, SimPlan};
use cgct_sim::Snap;
use cgct_system::CoherenceMode;
use cgct_workloads::WorkloadThread;

const TINY: SimPlan = SimPlan {
    warmup_per_core: 1_500,
    measured_per_core: 1_500,
    max_cycles: 5_000_000,
};

fn assert_traced_matches_machine(cell: SimCell, seed: u64) {
    let mut machine = cell.machine(seed);
    let expected = machine.run_warmed(
        TINY.warmup_per_core,
        TINY.measured_per_core,
        TINY.max_cycles,
    );
    let (traced, ledger) = run_traced(&cell, &TINY, seed);
    assert!(!expected.truncated, "{} truncated", cell.label());
    assert_eq!(
        traced.snap().dump(),
        expected.snap().dump(),
        "{}",
        cell.label()
    );
    assert_eq!(ledger.ticks, machine.executed_ticks());
    assert!(ledger.mem.iter().all(|&(calls, _)| calls > 0));
    assert!(ledger.uops > 0 && ledger.uops <= ledger.uops_pulled);
    assert!(ledger.committed >= (TINY.warmup_per_core + TINY.measured_per_core) * 4);
}

#[test]
fn traced_loop_equals_run_warmed_on_a_4_node_cgct_cell() {
    let cell = SimCell {
        benchmark: "tpc-b",
        mode: CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
        cores: 4,
    };
    assert_traced_matches_machine(cell, 7);
}

#[test]
fn traced_loop_equals_run_warmed_on_an_8_node_hierarchical_cell() {
    let cell = SimCell {
        benchmark: "barnes",
        mode: CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        },
        cores: 8,
    };
    assert_traced_matches_machine(cell, 3);
}

#[test]
fn chunked_pulls_match_direct_pulls() {
    let spec = cgct_workloads::by_name("tpc-w").expect("tpc-w is registered");
    let mut direct = WorkloadThread::new(spec.clone(), 1, 4, 42);
    let mut chunked = ChunkedSource::new(WorkloadThread::new(spec, 1, 4, 42));
    let n = 3 * CHUNK + 17;
    for i in 0..n {
        assert_eq!(chunked.next_uop(), direct.next_uop(), "uop {i}");
    }
    assert_eq!(chunked.served, n as u64);
    assert_eq!(chunked.pulled, 4 * CHUNK as u64);
}
