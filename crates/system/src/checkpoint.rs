//! Deterministic mid-run checkpoint/resume for measured runs.
//!
//! [`CheckpointRun`] drives the same warmup → reset → measure sequence
//! as [`Machine::run_warmed`], but in caller-sized cycle segments with
//! a serializable pause between any two of them. Segmentation is
//! invisible to the simulation: the run loop's stopping times
//! are a superset of its progress times, so running to a cycle
//! boundary, snapshotting, restoring, and continuing produces the
//! byte-identical trajectory — and therefore the byte-identical
//! [`RunResult`] — of an uninterrupted run (see
//! `tests/checkpoint_resume.rs`).
//!
//! A snapshot taken at the warmup boundary can also be *forked*:
//! resumed any number of times, optionally with a different
//! measurement quota per fork ([`CheckpointRun::override_measure`]),
//! so a sweep pays for cache warming once.

use crate::config::SystemConfig;
use crate::machine::{Machine, RunResult};
use cgct_sim::snap::{field, unsnap_field};
use cgct_sim::Json;
use cgct_workloads::BenchmarkSpec;

/// A measured run that can pause at cycle boundaries, serialize itself,
/// and resume — on this process or another — without perturbing the
/// simulated trajectory.
#[derive(Debug)]
pub struct CheckpointRun {
    machine: Machine,
    warmup: u64,
    instructions: u64,
    max_cycles: u64,
    truncated: bool,
    warmed: bool,
    done: bool,
}

impl CheckpointRun {
    /// Wraps `machine` in a resumable run of `warmup` then `instructions`
    /// instructions per core under a `max_cycles` cap (the same plan
    /// shape as [`Machine::run_warmed`]).
    ///
    /// The machine must not have run yet.
    ///
    /// # Errors
    ///
    /// Fails when tracing is on (traced runs are not checkpointable).
    pub fn new(
        machine: Machine,
        warmup: u64,
        instructions: u64,
        max_cycles: u64,
    ) -> Result<Self, String> {
        if machine.trace() {
            return Err("checkpointed runs cannot be traced".to_string());
        }
        Ok(CheckpointRun {
            machine,
            warmup,
            instructions,
            max_cycles,
            truncated: false,
            warmed: false,
            done: false,
        })
    }

    /// Advances the run by at most `cycles` simulated cycles (minimum
    /// one). Returns `true` once the run has completed — every core hit
    /// its quota or the cycle cap was reached — after which
    /// [`CheckpointRun::finish`] yields the result.
    pub fn step(&mut self, cycles: u64) -> bool {
        if self.done {
            return true;
        }
        let stop = self
            .machine
            .now()
            .0
            .saturating_add(cycles.max(1))
            .min(self.max_cycles);
        if !self.warmed {
            if self.warmup > 0 {
                let hit = self.machine.run_until(self.warmup, stop);
                if hit && self.machine.now().0 < self.max_cycles {
                    // Paused at the segment boundary mid-warmup.
                    return false;
                }
                self.truncated |= hit;
            }
            self.machine.mark_warmed();
            self.warmed = true;
        }
        let target = self.warmup + self.instructions;
        let hit = self.machine.run_until(target, stop);
        if hit && self.machine.now().0 < self.max_cycles {
            return false;
        }
        self.truncated |= hit;
        self.done = true;
        true
    }

    /// Whether the run has completed.
    pub fn done(&self) -> bool {
        self.done
    }

    /// The machine being driven (inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Closes out a completed run and returns its result — identical to
    /// what [`Machine::run_warmed`] would have returned uninterrupted.
    ///
    /// # Errors
    ///
    /// Fails if the run has not completed ([`CheckpointRun::step`]
    /// until it returns `true`).
    pub fn finish(mut self) -> Result<RunResult, String> {
        if !self.done {
            return Err("run has not completed; keep stepping".to_string());
        }
        Ok(self.machine.finish_run(self.truncated))
    }

    /// Replaces the measurement quota and cycle cap — the fork seam: a
    /// warmup-boundary snapshot resumed several times with different
    /// quotas yields several independently-sized measured runs from one
    /// paid-for warm state. Overriding *mid-measurement* still runs
    /// deterministically but no longer corresponds to any single
    /// uninterrupted plan.
    ///
    /// # Errors
    ///
    /// Fails once the run has completed.
    pub fn override_measure(&mut self, instructions: u64, max_cycles: u64) -> Result<(), String> {
        if self.done {
            return Err("run has already completed".to_string());
        }
        self.instructions = instructions;
        self.max_cycles = max_cycles;
        Ok(())
    }

    /// Serializes the paused run: the full machine snapshot plus the
    /// run-plan progress header.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::snapshot`] failures.
    pub fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            ("machine", self.machine.snapshot()?),
            (
                "run",
                Json::obj([
                    ("warmup", Json::u64(self.warmup)),
                    ("instructions", Json::u64(self.instructions)),
                    ("max_cycles", Json::u64(self.max_cycles)),
                    ("truncated", Json::Bool(self.truncated)),
                    ("warmed", Json::Bool(self.warmed)),
                    ("done", Json::Bool(self.done)),
                ]),
            ),
        ]))
    }

    /// Rebuilds a paused run from a [`CheckpointRun::snapshot`]. The
    /// configuration and spec must be the ones the snapshot was taken
    /// under ([`Machine::restore`] validates both, plus the seed stored
    /// in the snapshot).
    ///
    /// # Errors
    ///
    /// Fails on malformed input or any identity mismatch.
    pub fn resume(cfg: SystemConfig, spec: &BenchmarkSpec, v: &Json) -> Result<Self, String> {
        let mv = field(v, "machine")?;
        let seed: u64 = unsnap_field(mv, "seed")?;
        let mut machine = Machine::new(cfg, spec, seed);
        machine.set_trace(false);
        machine.restore(mv)?;
        let r = field(v, "run")?;
        Ok(CheckpointRun {
            machine,
            warmup: unsnap_field(r, "warmup")?,
            instructions: unsnap_field(r, "instructions")?,
            max_cycles: unsnap_field(r, "max_cycles")?,
            truncated: unsnap_field(r, "truncated")?,
            warmed: unsnap_field(r, "warmed")?,
            done: unsnap_field(r, "done")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use cgct_workloads::by_name;

    fn cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        cfg
    }

    fn machine(seed: u64) -> Machine {
        let mut m = Machine::new(cfg(), &by_name("ocean").unwrap(), seed);
        m.set_trace(false);
        m
    }

    #[test]
    fn segmented_run_matches_uninterrupted() {
        let mut reference = machine(3);
        let expect = reference.run_warmed(500, 2000, 2_000_000);
        let mut run = CheckpointRun::new(machine(3), 500, 2000, 2_000_000).unwrap();
        let mut steps = 0;
        while !run.step(1000) {
            steps += 1;
            assert!(steps < 100_000, "run never completes");
        }
        assert!(steps > 2, "segments too coarse to exercise pausing");
        let got = run.finish().unwrap();
        assert_eq!(got.runtime_cycles, expect.runtime_cycles);
        assert_eq!(got.committed, expect.committed);
        assert_eq!(got.metrics.broadcasts, expect.metrics.broadcasts);
    }

    #[test]
    fn snapshot_resume_roundtrip_matches() {
        let mut reference = machine(9);
        let expect = reference.run_warmed(500, 2000, 2_000_000);
        let mut run = CheckpointRun::new(machine(9), 500, 2000, 2_000_000).unwrap();
        let mut result = None;
        for _ in 0..100_000 {
            if run.step(700) {
                result = Some(run.finish().unwrap());
                break;
            }
            // Serialize, discard the live run, resume from the bytes.
            let snap = run.snapshot().unwrap();
            let bytes = snap.dump();
            let parsed = Json::parse(&bytes).unwrap();
            run = CheckpointRun::resume(cfg(), &by_name("ocean").unwrap(), &parsed).unwrap();
        }
        let got = result.expect("run completed");
        assert_eq!(got.runtime_cycles, expect.runtime_cycles);
        assert_eq!(got.committed, expect.committed);
        assert_eq!(got.metrics.broadcasts, expect.metrics.broadcasts);
        assert_eq!(got.mem_events, expect.mem_events);
    }

    #[test]
    fn snapshot_is_idempotent_across_restore() {
        let mut run = CheckpointRun::new(machine(5), 500, 2000, 2_000_000).unwrap();
        assert!(!run.step(1500));
        let first = run.snapshot().unwrap().dump();
        let parsed = Json::parse(&first).unwrap();
        let resumed = CheckpointRun::resume(cfg(), &by_name("ocean").unwrap(), &parsed).unwrap();
        let second = resumed.snapshot().unwrap().dump();
        assert_eq!(first, second, "snapshot -> restore -> snapshot drifted");
    }

    #[test]
    fn resume_rejects_wrong_benchmark_and_config() {
        let mut run = CheckpointRun::new(machine(5), 500, 2000, 2_000_000).unwrap();
        assert!(!run.step(1000));
        let snap = run.snapshot().unwrap();
        let err = CheckpointRun::resume(cfg(), &by_name("barnes").unwrap(), &snap).unwrap_err();
        assert!(err.contains("benchmark"), "{err}");
        let mut other = cfg();
        other.perturbation = 7;
        let err = CheckpointRun::resume(other, &by_name("ocean").unwrap(), &snap).unwrap_err();
        assert!(err.contains("configuration"), "{err}");
    }
}
