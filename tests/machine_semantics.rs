//! Semantics of the machine-level runner: warmup epochs, trace-driven
//! sources, and aggregate accounting.

use cgct_cpu::{Uop, UopKind, UopSource};
use cgct_system::{run_averaged, CoherenceMode, Machine, RunPlan, SystemConfig};
use cgct_workloads::{by_name, trace, WorkloadThread};

fn cfg(mode: CoherenceMode) -> SystemConfig {
    let mut c = SystemConfig::paper_default(mode);
    c.perturbation = 0;
    c
}

#[test]
fn warmup_resets_measurement_but_keeps_cache_state() {
    let spec = by_name("specweb99").unwrap();
    // Measured-only run vs warmed run of the same total length: the
    // warmed measurement must see far fewer cold misses per instruction.
    let mut cold = Machine::new(cfg(CoherenceMode::Baseline), &spec, 1);
    let rc = cold.run_warmed(0, 4_000, 50_000_000);
    let mut warm = Machine::new(cfg(CoherenceMode::Baseline), &spec, 1);
    let rw = warm.run_warmed(8_000, 4_000, 50_000_000);
    let cold_mpki = rc.metrics.l2_misses as f64 / rc.committed as f64;
    let warm_mpki = rw.metrics.l2_misses as f64 / rw.committed as f64;
    assert!(
        warm_mpki < cold_mpki,
        "warm {warm_mpki:.4} should be below cold {cold_mpki:.4}"
    );
    // The measured runtime excludes the warmup cycles.
    assert!(rw.runtime_cycles < warm.now().0);
}

#[test]
fn committed_counts_measured_instructions_only() {
    let spec = by_name("ocean").unwrap();
    let mut m = Machine::new(cfg(CoherenceMode::Baseline), &spec, 2);
    let r = m.run_warmed(3_000, 2_000, 50_000_000);
    // The reported count is what the cores actually committed during
    // the measured phase: within one tick's commit width of the quota
    // on either side (the warmup and measured phases each stop at tick
    // granularity, so a core can enter the measured phase slightly
    // ahead or leave it slightly over).
    assert_eq!(r.committed_per_core.len(), 4);
    for &c in &r.committed_per_core {
        assert!((1_936..2_064).contains(&c), "per-core committed {c}");
    }
    assert_eq!(r.committed, r.committed_per_core.iter().sum::<u64>());
}

#[test]
fn truncated_run_reports_actual_committed_and_ipc() {
    // Deliberately truncate: the cycle cap lands mid-measurement, so
    // cores commit only part of their quota. `committed` and `ipc`
    // must reflect what actually happened, not the target count (the
    // old accounting reported quota * n — wildly inflating IPC on
    // truncated runs).
    let spec = by_name("ocean").unwrap();
    let mut m = Machine::new(cfg(CoherenceMode::Baseline), &spec, 2);
    let r = m.run_warmed(1_000, 1_000_000, 20_000);
    assert!(r.truncated);
    let measured: u64 = r.committed_per_core.iter().sum();
    assert_eq!(r.committed, measured);
    assert!(
        r.committed < 4 * 1_000_000,
        "a truncated run cannot have committed its full quota"
    );
    for &c in &r.committed_per_core {
        assert!(c > 0, "every core ran for some of the measured phase");
    }
    let n = r.committed_per_core.len() as u64;
    let expected_ipc = r.committed as f64 / (r.runtime_cycles as f64 * n as f64);
    assert!((r.ipc - expected_ipc).abs() < 1e-12, "ipc {}", r.ipc);
    // Sanity bound: per-core IPC can never exceed the commit width.
    assert!(r.ipc > 0.0 && r.ipc < 8.0);
}

#[test]
fn run_averaged_confidence_interval_brackets_each_run() {
    let spec = by_name("barnes").unwrap();
    let mut config = SystemConfig::paper_default(CoherenceMode::Baseline);
    config.perturbation = 3;
    let plan = RunPlan {
        warmup_per_core: 1_000,
        instructions_per_core: 2_000,
        max_cycles: 50_000_000,
        runs: 3,
        base_seed: 1,
    };
    let agg = run_averaged(&config, &spec, &plan, 2);
    let ci = agg.runtime.confidence_interval_95();
    assert!(ci.contains(agg.runtime.mean()));
    assert!(agg.runtime.min() >= ci.low - 1.0 || agg.runtime.max() <= ci.high + 1.0);
    assert_eq!(agg.runs.len(), 3);
}

#[test]
fn trace_driven_machine_is_deterministic() {
    // Record one trace, replay it twice: identical runs.
    let spec = by_name("raytrace").unwrap();
    let texts: Vec<String> = (0..4)
        .map(|c| {
            let mut src = WorkloadThread::new(spec.clone(), c, 4, 5);
            trace::to_jsonl(&trace::record(&mut src, 5_000)).unwrap()
        })
        .collect();
    let run = || {
        let sources: Vec<Box<dyn UopSource + Send>> = texts
            .iter()
            .map(|t| {
                Box::new(trace::TraceThread::from_jsonl(t).unwrap()) as Box<dyn UopSource + Send>
            })
            .collect();
        let mut m = Machine::from_sources(
            cfg(CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192,
            }),
            sources,
            "trace",
            7,
        );
        let r = m.run(2_000, 50_000_000);
        m.check_invariants().unwrap();
        (
            r.runtime_cycles,
            r.metrics.broadcasts,
            r.metrics.direct.total(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn synthetic_uop_source_closure_drives_machine() {
    // Machine::from_sources accepts arbitrary sources — here a pure
    // closure stream of private strided loads.
    let mk = |core: usize| {
        let mut pc = 0u64;
        let base = 0x1000_0000u64 * (core as u64 + 1);
        move || {
            pc += 4;
            if pc.is_multiple_of(3) {
                Uop::simple(
                    pc,
                    UopKind::Load {
                        addr: cgct_cache::Addr(base + (pc * 16) % 0x8000),
                        store_intent: false,
                    },
                )
            } else {
                Uop::simple(pc, UopKind::IntAlu)
            }
        }
    };
    let sources: Vec<Box<dyn UopSource + Send>> = (0..4)
        .map(|c| Box::new(mk(c)) as Box<dyn UopSource + Send>)
        .collect();
    let mut m = Machine::from_sources(
        cfg(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        }),
        sources,
        "closures",
        1,
    );
    let r = m.run(3_000, 50_000_000);
    assert!(!r.truncated);
    // Fully private streams: CGCT avoids nearly everything after the
    // first touch of each region.
    assert!(
        r.metrics.avoided_fraction() > 0.5,
        "avoided {:.2}",
        r.metrics.avoided_fraction()
    );
    m.check_invariants().unwrap();
}

#[test]
#[should_panic(expected = "one source per core")]
fn from_sources_validates_core_count() {
    let sources: Vec<Box<dyn UopSource + Send>> = vec![];
    let _ = Machine::from_sources(cfg(CoherenceMode::Baseline), sources, "empty", 0);
}
