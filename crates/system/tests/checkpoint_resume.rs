//! Checkpoint/resume byte-equality across benchmarks and modes.
//!
//! The contract under test: interrupting a measured run at an arbitrary
//! cycle boundary, serializing it to JSON, dropping every live object,
//! resuming from the bytes, and finishing produces the byte-identical
//! `RunResult` of an uninterrupted run — for the baseline and CGCT
//! snooping machines and the 16-node directory-backed and hierarchical
//! CGCT machines alike — and a snapshot survives a restore unchanged
//! (idempotence). The last two also rebuild the derived RCA-holder mask
//! on restore, which the restore's invariant walk checks.

use cgct_interconnect::Topology;
use cgct_sim::check::check;
use cgct_sim::{Json, Snap};
use cgct_system::{CheckpointRun, CoherenceMode, Machine, SystemConfig};
use cgct_workloads::by_name;

const BENCHMARKS: [&str; 3] = ["ocean", "barnes", "tpc-w"];
const CGCT: CoherenceMode = CoherenceMode::Cgct {
    region_bytes: 512,
    sets: 8192,
};

/// The runs the round trips cover, with the cycles between pauses: the
/// baseline and CGCT snooping machines on the paper's four nodes under
/// every benchmark, and the directory-backed and hierarchical CGCT
/// machines on sixteen under one (pausing less often: each snapshot
/// holds four times the caches).
fn cases() -> Vec<(&'static str, SystemConfig, u64)> {
    let mut cases = Vec::new();
    for bench in BENCHMARKS {
        for mode in [CoherenceMode::Baseline, CGCT] {
            cases.push((bench, SystemConfig::paper_default(mode), 900));
        }
    }
    for mode in [
        CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        },
        CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        },
    ] {
        let mut cfg = SystemConfig::paper_default(mode);
        cfg.topology = Topology::for_cores(16);
        cases.push(("ocean", cfg, 4_000));
    }
    cases
}
const WARMUP: u64 = 300;
const INSTRUCTIONS: u64 = 1_200;
const MAX_CYCLES: u64 = 2_000_000;
const SEED: u64 = 7;

fn machine(bench: &str, cfg: &SystemConfig) -> Machine {
    let mut m = Machine::new(cfg.clone(), &by_name(bench).unwrap(), SEED);
    m.set_trace(false);
    m
}

#[test]
fn resumed_runs_byte_equal_uninterrupted_across_benchmarks_and_modes() {
    for (bench, cfg, step) in cases() {
        let reference = machine(bench, &cfg)
            .run_warmed(WARMUP, INSTRUCTIONS, MAX_CYCLES)
            .snap()
            .dump();
        // Segment the same run; after every pause, serialize, drop the
        // live run, and resume from the bytes alone.
        let mut run =
            CheckpointRun::new(machine(bench, &cfg), WARMUP, INSTRUCTIONS, MAX_CYCLES).unwrap();
        let (mut finished, mut resumes) = (None, 0);
        for _ in 0..100_000 {
            if run.step(step) {
                finished = Some(run.finish().unwrap());
                break;
            }
            let bytes = run.snapshot().unwrap().dump();
            drop(run);
            let parsed = Json::parse(&bytes).unwrap();
            run = CheckpointRun::resume(cfg.clone(), &by_name(bench).unwrap(), &parsed).unwrap();
            resumes += 1;
        }
        assert!(resumes > 1, "{bench}/{} never resumed", cfg.mode.label());
        let resumed = finished.expect("run completed").snap().dump();
        assert_eq!(
            resumed,
            reference,
            "{bench}/{} diverged after checkpoint+resume",
            cfg.mode.label()
        );
    }
}

#[test]
fn snapshot_restore_snapshot_is_idempotent_everywhere() {
    for (bench, cfg, _) in cases() {
        let mut run =
            CheckpointRun::new(machine(bench, &cfg), WARMUP, INSTRUCTIONS, MAX_CYCLES).unwrap();
        // Probe idempotence at several points along the run: fresh,
        // mid-warmup, and mid-measurement.
        for probe in 0..3 {
            if run.step(800) {
                break;
            }
            let first = run.snapshot().unwrap().dump();
            let parsed = Json::parse(&first).unwrap();
            let restored =
                CheckpointRun::resume(cfg.clone(), &by_name(bench).unwrap(), &parsed).unwrap();
            let second = restored.snapshot().unwrap().dump();
            assert_eq!(
                first,
                second,
                "{bench}/{} snapshot drifted through restore (probe {probe})",
                cfg.mode.label()
            );
            run = restored;
        }
    }
}

/// The checkpoint format is pinned: a mid-run snapshot (four cores with
/// misses outstanding, completion events pending) must serialize to the
/// exact bytes earlier builds wrote, so checkpoints stay restorable
/// across versions. One core's load-MSHR file is spelled out; the whole
/// snapshot is pinned by its FNV-1a digest.
#[test]
fn mid_run_snapshot_bytes_are_pinned() {
    use cgct_sim::snap::{elements, field};
    let mut m = machine("ocean", &SystemConfig::paper_default(CGCT));
    assert!(m.run(1_000_000, 4000).truncated);
    let snap = m.snapshot().unwrap();
    let cores = elements(field(&snap, "cores").unwrap()).unwrap();
    assert_eq!(
        field(&cores[1], "load_mshrs").unwrap().dump(),
        concat!(
            r#"[{"line":1077942720,"waiters":[4222]},{"line":1077940823,"waiters":[4061]},"#,
            r#"{"line":1077942550,"waiters":[4011]},{"line":1077940824,"waiters":[4103]},"#,
            r#"{"line":1077942719,"waiters":[4141]},null,null,null,null,null,null,null,null,"#,
            r#"null,null,null]"#
        )
    );
    assert_eq!(
        cgct_sim::hash::fnv1a(snap.dump().as_bytes()),
        0xdedf_d4a3_bd75_2335
    );
}

/// A snapshot whose region line counts disagree with the caches is
/// rejected at resume, instead of panicking steps later when a fill
/// pushes a corrupted count past the region's capacity.
#[test]
fn resume_rejects_region_counts_that_disagree_with_the_caches() {
    /// Sets `"n"` to 8 in every RCA entry (the objects keyed exactly
    /// `s`, `n`, `mc`, `o`) and returns how many it changed.
    fn corrupt_counts(v: &mut Json) -> usize {
        match v {
            Json::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                if keys == ["s", "n", "mc", "o"] {
                    fields[1].1 = Json::u64(8);
                    return 1;
                }
                fields.iter_mut().map(|(_, f)| corrupt_counts(f)).sum()
            }
            Json::Array(items) => items.iter_mut().map(corrupt_counts).sum(),
            _ => 0,
        }
    }
    let cfg = SystemConfig::paper_default(CGCT);
    let mut run =
        CheckpointRun::new(machine("ocean", &cfg), WARMUP, INSTRUCTIONS, MAX_CYCLES).unwrap();
    assert!(!run.step(1_500), "the run must still be in progress");
    let mut snap = run.snapshot().unwrap();
    assert!(CheckpointRun::resume(cfg.clone(), &by_name("ocean").unwrap(), &snap).is_ok());
    assert!(corrupt_counts(&mut snap) > 0, "no RCA entry to corrupt");
    let err = CheckpointRun::resume(cfg, &by_name("ocean").unwrap(), &snap)
        .expect_err("a corrupted snapshot must be rejected");
    assert!(err.contains("inconsistent snapshot"), "{err}");
}

/// Damaged checkpoint bytes, cut short or with one bit flipped, come
/// back from `Json::parse` and `CheckpointRun::resume` as `Ok` or `Err`,
/// never as a panic. Every truncation is an error. A flipped bit can
/// land somewhere harmless (a digit of a counter, say), so a flip is
/// not required to fail.
#[test]
fn damaged_snapshots_fail_without_panicking() {
    let cfg = SystemConfig::paper_default(CGCT);
    let spec = by_name("ocean").unwrap();
    let mut run =
        CheckpointRun::new(machine("ocean", &cfg), WARMUP, INSTRUCTIONS, MAX_CYCLES).unwrap();
    assert!(!run.step(1_500), "the run must still be in progress");
    let bytes = run.snapshot().unwrap().dump().into_bytes();
    let load = |damaged: &[u8]| -> Result<(), String> {
        let text = std::str::from_utf8(damaged).map_err(|e| e.to_string())?;
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        CheckpointRun::resume(cfg.clone(), &spec, &v).map(|_| ())
    };
    check("damaged checkpoint snapshots", 200, |g| {
        let cut = g.gen_range(0..bytes.len());
        assert!(load(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        let mut flipped = bytes.clone();
        let at = g.gen_range(0..bytes.len());
        flipped[at] ^= 1 << g.gen_range(0u32..8);
        let _ = load(&flipped);
    });
}
