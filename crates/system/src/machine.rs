//! A whole simulated machine: cores + workload threads + memory system.

use crate::config::SystemConfig;
use crate::memsys::MemorySystem;
use crate::metrics::MemMetrics;
use cgct_cache::Addr;
use cgct_cpu::{Core, CoreConfig, MemoryInterface, UopSource};
use cgct_interconnect::CoreId;
use cgct_sim::{Cycle, SeedSequence};
use cgct_trace::{SharedSink, TraceReport, DEFAULT_CAPACITY};
use cgct_workloads::{BenchmarkSpec, WorkloadThread};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Adapter giving one core a view of the shared memory system.
struct Port<'a> {
    mem: &'a mut MemorySystem,
    core: CoreId,
}

impl MemoryInterface for Port<'_> {
    fn ifetch(&mut self, now: Cycle, addr: Addr) -> Cycle {
        self.mem.ifetch(self.core, now, addr)
    }
    fn load(&mut self, now: Cycle, addr: Addr, store_intent: bool) -> Cycle {
        self.mem.load(self.core, now, addr, store_intent)
    }
    fn store(&mut self, now: Cycle, addr: Addr) -> Cycle {
        self.mem.store(self.core, now, addr)
    }
    fn dcbz(&mut self, now: Cycle, addr: Addr) -> Cycle {
        self.mem.dcbz(self.core, now, addr)
    }
}

/// Aggregated Region-Coherence-Array statistics across all nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RcaRunStats {
    /// Total region evictions.
    pub evictions: u64,
    /// Fraction of evicted regions with zero cached lines (§3.2: 65.1%).
    pub evicted_empty_fraction: f64,
    /// Fraction with exactly one cached line (§3.2: 17.2%).
    pub evicted_one_line_fraction: f64,
    /// Fraction with exactly two cached lines (§3.2: 5.1%).
    pub evicted_two_lines_fraction: f64,
    /// Region self-invalidations.
    pub self_invalidations: u64,
    /// Mean cached lines per valid region, sampled over the run (§5.2:
    /// 2.8–5).
    pub mean_lines_per_region: f64,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Coherence mode label.
    pub mode: String,
    /// Cycles until every core committed its instruction quota.
    pub runtime_cycles: u64,
    /// Total instructions committed across cores during the measured
    /// phase. On a truncated run this is what the cores actually
    /// managed, not the target quota.
    pub committed: u64,
    /// Instructions committed per core during the measured phase.
    pub committed_per_core: Vec<u64>,
    /// Memory completion events delivered during the measured phase
    /// (bus grants, snoop completions, DRAM completions, port releases,
    /// MSHR fills) — identical across the event-driven and
    /// cycle-stepped loops.
    pub mem_events: u64,
    /// Aggregate IPC across cores.
    pub ipc: f64,
    /// Branch misprediction rate across cores.
    pub mispredict_rate: f64,
    /// Memory-system metrics.
    pub metrics: MemMetrics,
    /// RCA statistics (zeroed for non-CGCT modes).
    pub rca: RcaRunStats,
    /// Whether the run hit the cycle cap before finishing.
    pub truncated: bool,
    /// Request-lifetime trace report (`None` unless tracing was on —
    /// `CGCT_TRACE=1` or [`Machine::set_trace`]).
    pub trace: Option<TraceReport>,
}

/// One simulated machine instance.
pub struct Machine {
    cores: Vec<Core>,
    threads: Vec<Box<dyn UopSource + Send>>,
    mem: MemorySystem,
    now: Cycle,
    benchmark: String,
    /// Per-core wakeup times from the last tick (see
    /// [`cgct_cpu::Wakeup`]); `now` jumps to the minimum over unfinished
    /// cores when `cycle_skip` is on.
    wakeups: Vec<Cycle>,
    /// Per-core committed counts at the metrics epoch (end of warmup),
    /// so measured-phase counts can be reported exactly even when the
    /// run truncates short of its quota.
    epoch_committed: Vec<u64>,
    /// Event-driven time advancement (default). A test may turn it off
    /// with [`Machine::set_cycle_skip`] to run the plain cycle-stepped
    /// loop as a reference.
    cycle_skip: bool,
    /// Request-lifetime trace sink shared with the memory system and the
    /// cores (`CGCT_TRACE=1` or [`Machine::set_trace`]). Tracing is pure
    /// observation: a traced run's architectural outcome is
    /// byte-identical to an untraced one.
    trace: Option<SharedSink>,
    /// Seed the machine was built with (labels the trace report).
    seed: u64,
}

/// Whether request-lifetime tracing is enabled for new machines
/// (`CGCT_TRACE`, via the [`crate::config::env_knobs`] seam).
fn trace_default() -> bool {
    crate::config::env_knobs().trace
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("benchmark", &self.benchmark)
            .field("now", &self.now)
            .finish()
    }
}

impl Machine {
    /// Builds a machine for `spec` under `cfg`; `seed` controls both the
    /// workload streams and the perturbation RNG.
    pub fn new(cfg: SystemConfig, spec: &BenchmarkSpec, seed: u64) -> Self {
        let seq = SeedSequence::new(seed);
        let n = cfg.topology.total_cores();
        let threads = (0..n)
            .map(|c| {
                Box::new(WorkloadThread::new(
                    spec.clone(),
                    c,
                    n,
                    seq.stream(c as u64),
                )) as Box<dyn UopSource + Send>
            })
            .collect();
        Self::from_sources(cfg, threads, spec.name, seed)
    }

    /// Builds a machine driven by caller-provided instruction sources —
    /// one per core — e.g. recorded traces
    /// ([`cgct_workloads::trace::TraceThread`]) instead of the synthetic
    /// generators.
    ///
    /// # Panics
    ///
    /// Panics if the number of sources does not match the topology's core
    /// count.
    pub fn from_sources(
        cfg: SystemConfig,
        sources: Vec<Box<dyn UopSource + Send>>,
        label: &str,
        seed: u64,
    ) -> Self {
        let n = cfg.topology.total_cores();
        assert_eq!(sources.len(), n, "need one source per core ({n})");
        let core_cfg: CoreConfig = cfg.core;
        let cores = (0..n).map(|_| Core::new(core_cfg)).collect();
        let mem = MemorySystem::new(cfg, SeedSequence::new(seed).stream(1000));
        let mut machine = Machine {
            cores,
            threads: sources,
            mem,
            now: Cycle::ZERO,
            benchmark: label.to_string(),
            wakeups: vec![Cycle::ZERO; n],
            epoch_committed: vec![0; n],
            cycle_skip: true,
            trace: None,
            seed,
        };
        if trace_default() {
            machine.install_trace();
        }
        machine
    }

    /// Installs a fresh shared trace ring buffer into the memory system
    /// and every core.
    fn install_trace(&mut self) {
        let sink = SharedSink::new(DEFAULT_CAPACITY);
        self.mem.set_trace(sink.clone());
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.set_trace(i as u8, Box::new(sink.clone()));
        }
        self.trace = Some(sink);
    }

    /// Enables or disables request-lifetime tracing for this machine
    /// (overriding the `CGCT_TRACE` default). Enabling replaces any
    /// existing trace buffer with an empty one.
    pub fn set_trace(&mut self, enabled: bool) {
        if enabled {
            self.install_trace();
        } else {
            self.mem.clear_trace();
            for core in &mut self.cores {
                core.clear_trace();
            }
            self.trace = None;
        }
    }

    /// Whether request-lifetime tracing is on for this machine.
    pub fn trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Chooses this machine's time advancement: `true` (the default) is
    /// the event-driven loop, `false` the plain cycle-stepped one. The
    /// two are observationally equivalent (see
    /// `tests/skip_equivalence.rs`); the cycle-stepped loop exists as
    /// the trusted reference for tests.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.cycle_skip = enabled;
    }

    /// Whether this machine advances time event-driven (cycle skipping).
    pub fn cycle_skip(&self) -> bool {
        self.cycle_skip
    }

    /// A machine runs on one thread: `None` is the only accepted value,
    /// and it changes nothing.
    ///
    /// # Panics
    ///
    /// Panics on `Some(_)`.
    pub fn set_intra(&mut self, workers: Option<usize>) {
        assert!(
            workers.is_none(),
            "a machine runs on one thread; set_intra accepts only None"
        );
    }

    /// Total core ticks actually executed, summed across cores. Under
    /// the cycle-stepped loop this is (cores x cycles each core ran);
    /// under cycle skipping it is smaller by exactly the number of
    /// skipped no-op ticks — the speedup diagnostic.
    pub fn executed_ticks(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().cycles).sum()
    }

    /// Read access to the memory system (tests, inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Enables or disables the runtime coherence sanitizer for this
    /// machine (overriding the `CGCT_SANITIZE` default).
    pub fn set_sanitize(&mut self, enabled: bool) {
        self.mem.set_sanitize(enabled);
    }

    /// Mutable access to the memory system (sanitizer configuration).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Runs until every core has committed `instructions_per_core`, or
    /// `max_cycles` elapse.
    pub fn run(&mut self, instructions_per_core: u64, max_cycles: u64) -> RunResult {
        self.run_warmed(0, instructions_per_core, max_cycles)
    }

    /// Runs `warmup_per_core` instructions to warm the caches, resets all
    /// metrics, then measures a further `instructions_per_core` per core —
    /// mirroring the paper's warmed-checkpoint methodology (§4).
    pub fn run_warmed(
        &mut self,
        warmup_per_core: u64,
        instructions_per_core: u64,
        max_cycles: u64,
    ) -> RunResult {
        let mut truncated = false;
        if warmup_per_core > 0 {
            truncated |= self.run_until(warmup_per_core, max_cycles);
            self.mark_warmed();
        }
        truncated |= self.run_until(warmup_per_core + instructions_per_core, max_cycles);
        self.finish_run(truncated)
    }

    /// Ends the warmup phase: resets all metrics to start the measured
    /// phase at the current cycle (mirroring the paper's
    /// warmed-checkpoint methodology, §4).
    pub(crate) fn mark_warmed(&mut self) {
        let epoch = self.now;
        self.mem.reset_metrics(epoch);
        for (slot, core) in self.epoch_committed.iter_mut().zip(&self.cores) {
            *slot = core.committed();
        }
    }

    /// Closes out a measured run: finalizes interval tracking, runs the
    /// sanitizer's end-of-run walk, and builds the [`RunResult`].
    pub(crate) fn finish_run(&mut self, truncated: bool) -> RunResult {
        let end = Cycle(self.now.0.saturating_sub(self.mem.metrics_epoch().0));
        self.mem.metrics.finish(end);
        if self.mem.sanitize() {
            // End-of-run walk: periodic checks can miss a violation that
            // appears in the final stretch of the run.
            if let Err(err) = self.mem.check_invariants() {
                panic!("coherence sanitizer (end of run): {err}");
            }
        }
        self.result(truncated)
    }

    /// Runs cores until each has committed `committed_target`
    /// instructions or `now` reaches the (exclusive) `max_cycles` cap.
    ///
    /// One clock (DESIGN.md "One clock"): the unfinished cores wait in a
    /// calendar, a binary min-heap keyed `(wakeup, core)`. Each round
    /// pops and ticks the cores due at `now` in index order, files them
    /// again under their new wakeups, and moves `now` to the smallest
    /// key left. The cycle-stepped reference (cycle skipping off) files
    /// every ticked core under `now + 1` instead, so every core is due
    /// every cycle. Both modes tick the same cores with the same `now`
    /// at every cycle where any core makes progress, so the sequence of
    /// memory-system calls — and with it every architectural outcome —
    /// is identical. Memory completion events never stop the clock:
    /// each stop retires the events due by then. The cap is exclusive:
    /// no core is ever ticked at a cycle >= `max_cycles`, and a
    /// truncated run stops with `now == max_cycles` in both modes.
    pub(crate) fn run_until(&mut self, committed_target: u64, max_cycles: u64) -> bool {
        let now = self.now.0;
        // A core that met an earlier phase's quota early carries a
        // wakeup before `now`: the clamp files it under `now`, so the
        // first round ticks it in index order with the others due then.
        let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = (0..self.cores.len())
            .filter(|&i| self.cores[i].committed() < committed_target)
            .map(|i| {
                let key = if self.cycle_skip {
                    self.wakeups[i].0.max(now)
                } else {
                    now
                };
                Reverse((key, i))
            })
            .collect();
        loop {
            if calendar.is_empty() {
                return false;
            }
            if self.now.0 >= max_cycles {
                return true;
            }
            // Tick every core due at `now`; ties pop in index order.
            while let Some(mut top) = calendar.peek_mut() {
                let Reverse((due, i)) = *top;
                if due > self.now.0 {
                    break;
                }
                if self.tick_core(i, committed_target) {
                    PeekMut::pop(top);
                } else {
                    // A ticked core's wakeup is at least `now + 1`.
                    let key = if self.cycle_skip {
                        self.wakeups[i].0
                    } else {
                        self.now.0 + 1
                    };
                    *top = Reverse((key, i));
                }
            }
            // Every key left is > now, so the clock only moves forward.
            let next = calendar
                .peek()
                .map_or(self.now.0 + 1, |&Reverse((due, _))| due);
            self.now = Cycle(next.min(max_cycles));
            // Retire memory completion events that time has now reached.
            // Purely observational (events carry no state), and both loop
            // modes reach the same final time having delivered everything
            // due by then, so the counts agree.
            self.mem.advance(self.now);
        }
    }

    /// Ticks core `i` at `now`, records its wakeup, and reports whether
    /// it has reached `committed_target`.
    fn tick_core(&mut self, i: usize, committed_target: u64) -> bool {
        let mut port = Port {
            mem: &mut self.mem,
            core: CoreId(i),
        };
        let w = self.cores[i].tick(self.now, &mut port, &mut *self.threads[i]);
        self.wakeups[i] = w.0;
        self.cores[i].committed() >= committed_target
    }

    fn result(&self, truncated: bool) -> RunResult {
        // Report what the cores actually committed since the metrics
        // epoch — NOT `quota * n`, which overstates both committed and
        // IPC whenever the run truncates at the cycle cap before every
        // core reaches its quota. (On a complete run the actual count
        // can differ from the quota by at most one tick's commit width
        // per core.)
        let committed_per_core: Vec<u64> = self
            .cores
            .iter()
            .zip(&self.epoch_committed)
            .map(|(c, &epoch)| c.committed() - epoch)
            .collect();
        let committed: u64 = committed_per_core.iter().sum();
        let (mut preds, mut mispreds) = (0u64, 0u64);
        for c in &self.cores {
            preds += c.branch_predictor().predictions();
            mispreds += c.branch_predictor().mispredictions();
        }
        let mut rca = RcaRunStats::default();
        let mut evicted = [0u64; 3];
        let mut evictions_total = 0u64;
        let mut nodes_with_rca = 0u64;
        for i in 0..self.cores.len() {
            if let Some(r) = self.mem.rca(CoreId(i)) {
                nodes_with_rca += 1;
                let s = r.stats();
                evictions_total += s.evictions.value();
                for (b, slot) in evicted.iter_mut().enumerate() {
                    *slot += s.evicted_line_counts.count(b);
                }
                rca.self_invalidations += s.self_invalidations.value();
                rca.mean_lines_per_region += r.mean_lines_per_region();
            }
        }
        if nodes_with_rca > 0 {
            rca.mean_lines_per_region /= nodes_with_rca as f64;
        }
        rca.evictions = evictions_total;
        if evictions_total > 0 {
            rca.evicted_empty_fraction = evicted[0] as f64 / evictions_total as f64;
            rca.evicted_one_line_fraction = evicted[1] as f64 / evictions_total as f64;
            rca.evicted_two_lines_fraction = evicted[2] as f64 / evictions_total as f64;
        }
        let runtime = self.now.0.saturating_sub(self.mem.metrics_epoch().0);
        RunResult {
            benchmark: self.benchmark.clone(),
            mode: self.mem.config().mode.label(),
            runtime_cycles: runtime,
            committed,
            committed_per_core,
            mem_events: self.mem.events_delivered(),
            ipc: if runtime == 0 {
                0.0
            } else {
                committed as f64 / (runtime as f64 * self.cores.len() as f64)
            },
            mispredict_rate: if preds == 0 {
                0.0
            } else {
                mispreds as f64 / preds as f64
            },
            metrics: self.mem.metrics.clone(),
            rca,
            truncated,
            trace: self.trace.as_ref().map(|sink| {
                TraceReport::from_buffer(
                    format!(
                        "{}/{}#s{}",
                        self.benchmark,
                        self.mem.config().mode.label(),
                        self.seed
                    ),
                    &sink.take(),
                )
            }),
        }
    }

    /// Checks global invariants (delegates to the memory system).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.mem.check_invariants()
    }

    /// The benchmark label this machine was built for.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The seed this machine was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serializes the complete dynamic machine state — every core's
    /// pipeline, every instruction source's generator state, and the
    /// full memory system — as a [`cgct_sim::Json`] snapshot that
    /// [`Machine::restore`] turns back into an identical machine.
    ///
    /// A restored machine's subsequent trajectory is byte-identical to
    /// the uninterrupted one (see `tests/checkpoint_resume.rs`), which
    /// is what makes on-disk checkpoints and warmed-state forking safe.
    ///
    /// # Errors
    ///
    /// Fails when tracing is on, when an instruction source does not
    /// support checkpointing, or while the memory system is mid-request.
    pub fn snapshot(&self) -> Result<cgct_sim::Json, String> {
        use cgct_sim::{Json, Snap};
        if self.trace.is_some() {
            return Err("cannot snapshot a traced machine".to_string());
        }
        let threads: Vec<Json> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| {
                t.snap_state().ok_or_else(|| {
                    format!("thread {i}'s instruction source does not support checkpointing")
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Json::obj([
            ("v", Json::u64(1)),
            ("benchmark", Json::str(self.benchmark.clone())),
            ("seed", Json::u64(self.seed)),
            ("config_fp", Json::u64(self.mem.config().fingerprint())),
            ("now", self.now.snap()),
            ("wakeups", self.wakeups.snap()),
            ("epoch_committed", self.epoch_committed.snap()),
            (
                "cores",
                Json::Array(self.cores.iter().map(|c| c.snap_state()).collect()),
            ),
            ("threads", Json::Array(threads)),
            ("mem", self.mem.snap_state()?),
        ]))
    }

    /// Restores a [`Machine::snapshot`] into this machine, which must
    /// have been built with the identical configuration, benchmark, and
    /// seed (all three are validated against the snapshot).
    ///
    /// # Errors
    ///
    /// Fails on malformed input, any identity mismatch, or when this
    /// machine is traced.
    pub fn restore(&mut self, v: &cgct_sim::Json) -> Result<(), String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        if self.trace.is_some() {
            return Err("cannot restore into a traced machine".to_string());
        }
        let version: u64 = unsnap_field(v, "v")?;
        if version != 1 {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let benchmark: String = unsnap_field(v, "benchmark")?;
        if benchmark != self.benchmark {
            return Err(format!(
                "snapshot is of benchmark {benchmark:?}, machine runs {:?}",
                self.benchmark
            ));
        }
        let seed: u64 = unsnap_field(v, "seed")?;
        if seed != self.seed {
            return Err(format!(
                "snapshot was taken at seed {seed}, machine uses {}",
                self.seed
            ));
        }
        let fp: u64 = unsnap_field(v, "config_fp")?;
        if fp != self.mem.config().fingerprint() {
            return Err("snapshot was taken under a different configuration".to_string());
        }
        let wakeups: Vec<Cycle> = unsnap_field(v, "wakeups")?;
        if wakeups.len() != self.wakeups.len() {
            return Err("wakeup count does not match core count".to_string());
        }
        let epoch_committed: Vec<u64> = unsnap_field(v, "epoch_committed")?;
        if epoch_committed.len() != self.epoch_committed.len() {
            return Err("epoch-committed count does not match core count".to_string());
        }
        let cores = elements(field(v, "cores")?)?;
        if cores.len() != self.cores.len() {
            return Err(format!(
                "snapshot has {} cores, machine has {}",
                cores.len(),
                self.cores.len()
            ));
        }
        let threads = elements(field(v, "threads")?)?;
        if threads.len() != self.threads.len() {
            return Err(format!(
                "snapshot has {} threads, machine has {}",
                threads.len(),
                self.threads.len()
            ));
        }
        for (i, (core, cv)) in self.cores.iter_mut().zip(cores).enumerate() {
            core.restore_state(cv)
                .map_err(|e| format!("core[{i}]: {e}"))?;
        }
        for (i, (thread, tv)) in self.threads.iter_mut().zip(threads).enumerate() {
            thread
                .restore_state(tv)
                .map_err(|e| format!("thread[{i}]: {e}"))?;
        }
        self.mem
            .restore_state(field(v, "mem")?)
            .map_err(|e| format!("memory system: {e}"))?;
        self.now = unsnap_field(v, "now")?;
        self.wakeups = wakeups;
        self.epoch_committed = epoch_committed;
        Ok(())
    }
}

impl cgct_sim::Snap for RcaRunStats {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::obj([
            ("evictions", Json::u64(self.evictions)),
            ("evicted_empty_fraction", self.evicted_empty_fraction.snap()),
            (
                "evicted_one_line_fraction",
                self.evicted_one_line_fraction.snap(),
            ),
            (
                "evicted_two_lines_fraction",
                self.evicted_two_lines_fraction.snap(),
            ),
            ("self_invalidations", Json::u64(self.self_invalidations)),
            ("mean_lines_per_region", self.mean_lines_per_region.snap()),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        Ok(RcaRunStats {
            evictions: unsnap_field(v, "evictions")?,
            evicted_empty_fraction: unsnap_field(v, "evicted_empty_fraction")?,
            evicted_one_line_fraction: unsnap_field(v, "evicted_one_line_fraction")?,
            evicted_two_lines_fraction: unsnap_field(v, "evicted_two_lines_fraction")?,
            self_invalidations: unsnap_field(v, "self_invalidations")?,
            mean_lines_per_region: unsnap_field(v, "mean_lines_per_region")?,
        })
    }
}

impl cgct_sim::Snap for RunResult {
    /// The trace report is never serialized: a snapshot holds the
    /// result a checkpointed or single `run` prints, and `unsnap`
    /// restores `trace: None`.
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::obj([
            ("benchmark", Json::str(self.benchmark.clone())),
            ("mode", Json::str(self.mode.clone())),
            ("runtime_cycles", Json::u64(self.runtime_cycles)),
            ("committed", Json::u64(self.committed)),
            ("committed_per_core", self.committed_per_core.snap()),
            ("mem_events", Json::u64(self.mem_events)),
            ("ipc", self.ipc.snap()),
            ("mispredict_rate", self.mispredict_rate.snap()),
            ("metrics", self.metrics.snap()),
            ("rca", self.rca.snap()),
            ("truncated", Json::Bool(self.truncated)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        Ok(RunResult {
            benchmark: unsnap_field(v, "benchmark")?,
            mode: unsnap_field(v, "mode")?,
            runtime_cycles: unsnap_field(v, "runtime_cycles")?,
            committed: unsnap_field(v, "committed")?,
            committed_per_core: unsnap_field(v, "committed_per_core")?,
            mem_events: unsnap_field(v, "mem_events")?,
            ipc: unsnap_field(v, "ipc")?,
            mispredict_rate: unsnap_field(v, "mispredict_rate")?,
            metrics: unsnap_field(v, "metrics")?,
            rca: unsnap_field(v, "rca")?,
            truncated: unsnap_field(v, "truncated")?,
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use cgct_workloads::by_name;

    fn tiny_run(mode: CoherenceMode, seed: u64) -> (RunResult, Machine) {
        let mut cfg = SystemConfig::paper_default(mode);
        cfg.perturbation = 0;
        let spec = by_name("ocean").unwrap();
        let mut m = Machine::new(cfg, &spec, seed);
        let r = m.run(3000, 2_000_000);
        (r, m)
    }

    #[test]
    fn baseline_run_completes_and_holds_invariants() {
        let (r, m) = tiny_run(CoherenceMode::Baseline, 1);
        assert!(!r.truncated, "run truncated at {} cycles", r.runtime_cycles);
        assert!(r.committed >= 4 * 3000);
        assert!(r.ipc > 0.01, "ipc {}", r.ipc);
        assert!(r.metrics.broadcasts > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cgct_run_avoids_broadcasts() {
        let (base, _) = tiny_run(CoherenceMode::Baseline, 1);
        let (cgct, m) = tiny_run(
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192,
            },
            1,
        );
        assert!(!cgct.truncated);
        assert!(
            cgct.metrics.broadcasts < base.metrics.broadcasts,
            "cgct {} vs base {}",
            cgct.metrics.broadcasts,
            base.metrics.broadcasts
        );
        assert!(cgct.metrics.avoided_fraction() > 0.1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cgct_is_not_slower() {
        let (base, _) = tiny_run(CoherenceMode::Baseline, 2);
        let (cgct, _) = tiny_run(
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192,
            },
            2,
        );
        // Tiny runs are noisy; allow a small tolerance but catch gross
        // regressions (CGCT must not be meaningfully slower).
        assert!(
            (cgct.runtime_cycles as f64) < base.runtime_cycles as f64 * 1.05,
            "cgct {} vs base {}",
            cgct.runtime_cycles,
            base.runtime_cycles
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = tiny_run(CoherenceMode::Baseline, 7);
        let (b, _) = tiny_run(CoherenceMode::Baseline, 7);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.metrics.broadcasts, b.metrics.broadcasts);
    }

    #[test]
    fn different_seeds_perturb_runtime() {
        let (a, _) = tiny_run(CoherenceMode::Baseline, 1);
        let (b, _) = tiny_run(CoherenceMode::Baseline, 99);
        assert_ne!(
            (a.runtime_cycles, a.metrics.broadcasts),
            (b.runtime_cycles, b.metrics.broadcasts)
        );
    }

    #[test]
    fn sanitized_run_is_byte_identical_and_actually_checks() {
        let mode = CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        };
        let (plain, _) = tiny_run(mode, 5);
        let mut cfg = SystemConfig::paper_default(mode);
        cfg.perturbation = 0;
        let spec = by_name("ocean").unwrap();
        let mut m = Machine::new(cfg, &spec, 5);
        m.set_sanitize(true);
        m.memory_mut().set_sanitize_interval(500);
        let sanitized = m.run(3000, 2_000_000);
        // The sanitizer is read-only: every architectural outcome must
        // match the unsanitized run exactly.
        assert_eq!(sanitized.runtime_cycles, plain.runtime_cycles);
        assert_eq!(sanitized.committed, plain.committed);
        assert_eq!(sanitized.metrics.broadcasts, plain.metrics.broadcasts,);
        assert_eq!(
            sanitized.metrics.requests.total(),
            plain.metrics.requests.total()
        );
        // And it must actually have walked the invariants along the way.
        assert!(
            m.memory().sanitize_checks() > 0,
            "no periodic sanitizer walks ran"
        );
    }

    #[test]
    fn traced_run_is_byte_identical_and_spans_are_conserved() {
        let mode = CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        };
        let (plain, _) = tiny_run(mode, 5);
        let mut cfg = SystemConfig::paper_default(mode);
        cfg.perturbation = 0;
        let spec = by_name("ocean").unwrap();
        let mut m = Machine::new(cfg, &spec, 5);
        m.set_trace(true);
        let traced = m.run(3000, 2_000_000);
        // Tracing is pure observation: every architectural outcome must
        // match the untraced run exactly.
        assert_eq!(traced.runtime_cycles, plain.runtime_cycles);
        assert_eq!(traced.committed, plain.committed);
        assert_eq!(traced.metrics.broadcasts, plain.metrics.broadcasts);
        assert_eq!(
            traced.metrics.requests.total(),
            plain.metrics.requests.total()
        );
        // Span conservation: every counted request retired exactly one
        // complete span whose segments partition its lifetime.
        let report = traced.trace.expect("tracing was on");
        assert_eq!(report.dropped_events, 0);
        assert_eq!(report.incomplete, 0, "requests issued but never retired");
        assert_eq!(report.orphans, 0, "milestones without a matching issue");
        assert_eq!(report.spans.len() as u64, traced.metrics.requests.total());
        for span in &report.spans {
            let total: u64 = span.segments.iter().map(|s| s.cycles()).sum();
            assert_eq!(total, span.latency(), "segments must partition {span:?}");
        }
    }

    /// A scripted source: the same op forever, each reading the result
    /// of the one `dep` ops before it, so a chain of `dep == 1` wakes
    /// its core once per op latency.
    fn scripted(kind: cgct_cpu::UopKind, dep: u8) -> Box<dyn UopSource + Send> {
        Box::new(move || cgct_cpu::Uop {
            pc: 0x4000,
            kind,
            dep_dist: dep,
        })
    }

    /// A scripted source of loads, each to a fresh line of core `c`'s
    /// private range and each feeding the next: every load misses, so
    /// the core spends most cycles waiting on a fill.
    fn missing_loads(c: u64) -> Box<dyn UopSource + Send> {
        let mut k = 0u64;
        Box::new(move || {
            k += 1;
            cgct_cpu::Uop {
                pc: 0x4000,
                kind: cgct_cpu::UopKind::Load {
                    addr: Addr((c + 1) << 30 | k << 12),
                    store_intent: false,
                },
                dep_dist: 1,
            }
        })
    }

    /// A baseline machine fed by `sources`, cycle skipping on.
    fn scripted_machine(sources: fn() -> Vec<Box<dyn UopSource + Send>>) -> Machine {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        let mut m = Machine::from_sources(cfg, sources(), "scripted", 1);
        m.set_cycle_skip(true);
        m
    }

    /// Different wakeup rhythms: a 7-cycle integer multiply chain, a
    /// 4-cycle FP chain, a looser multiply mix, and a dependence-free
    /// stream.
    fn rhythms() -> Vec<Box<dyn UopSource + Send>> {
        use cgct_cpu::UopKind;
        vec![
            scripted(UopKind::IntMult, 1),
            scripted(UopKind::FpMult, 1),
            scripted(UopKind::IntMult, 3),
            scripted(UopKind::IntAlu, 0),
        ]
    }

    /// Three cores stalled on missing loads and one dependence-free
    /// stream, which finishes while the others wait.
    fn one_streams_three_wait() -> Vec<Box<dyn UopSource + Send>> {
        vec![
            missing_loads(0),
            missing_loads(1),
            missing_loads(2),
            scripted(cgct_cpu::UopKind::IntAlu, 0),
        ]
    }

    /// Steps `m` one cycle at a time until every core reaches `target`
    /// (a cap of `now + 1` never lets a run-ahead start) and returns,
    /// per cycle, every core's wakeup and committed count after that
    /// cycle's ticks.
    fn timeline(m: &mut Machine, target: u64) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
        let mut out = Vec::new();
        loop {
            let t = m.now.0;
            let running = m.run_until(target, t + 1);
            out.push((
                t,
                m.wakeups.iter().map(|w| w.0).collect(),
                m.cores.iter().map(Core::committed).collect(),
            ));
            if !running {
                return out;
            }
        }
    }

    /// Counts, in the cycle-stepped timeline of `sources`, the two
    /// run-ahead edges: the lone due core's next wakeup landing exactly
    /// on another core's wakeup (the round must take over and tick both
    /// in index order), and a lone due core reaching its quota.
    fn run_ahead_edges(sources: fn() -> Vec<Box<dyn UopSource + Send>>, target: u64) -> (u32, u32) {
        let steps = timeline(&mut scripted_machine(sources), target);
        let at: std::collections::BTreeMap<u64, usize> =
            steps.iter().enumerate().map(|(i, s)| (s.0, i)).collect();
        let (mut ties, mut quota) = (0, 0);
        for (_, wakeups, committed) in &steps {
            let mut running: Vec<usize> = (0..4).filter(|&i| committed[i] < target).collect();
            running.sort_by_key(|&i| wakeups[i]);
            let [lead, next, ..] = running[..] else {
                continue;
            };
            let (u, second) = (wakeups[lead], wakeups[next]);
            if u == second {
                continue;
            }
            // `lead` alone is due at `u`; nobody else ticks before then.
            let (_, after, done) = &steps[at[&u]];
            if done[lead] >= target {
                quota += 1;
            } else if after[lead] == second {
                ties += 1;
            }
        }
        (ties, quota)
    }

    /// Skip-mode runs with run-ahead equal the cycle-stepped loop, both
    /// complete and truncated at caps inside the run.
    fn assert_matches_cycle_stepped(sources: fn() -> Vec<Box<dyn UopSource + Send>>, target: u64) {
        let skip = scripted_machine(sources).run(target, 1_000_000);
        let mut stepped = scripted_machine(sources);
        stepped.set_cycle_skip(false);
        assert!(!skip.truncated);
        assert_eq!(
            format!("{skip:?}"),
            format!("{:?}", stepped.run(target, 1_000_000))
        );
        for cap in [skip.runtime_cycles / 3, skip.runtime_cycles / 2 + 1] {
            let mut a = scripted_machine(sources);
            let ra = a.run(target, cap);
            let mut b = scripted_machine(sources);
            b.set_cycle_skip(false);
            assert!(ra.truncated && a.now().0 == cap);
            assert_eq!(format!("{ra:?}"), format!("{:?}", b.run(target, cap)));
        }
    }

    #[test]
    fn run_ahead_ending_on_a_wakeup_tie_matches_the_cycle_stepped_loop() {
        let (ties, _) = run_ahead_edges(rhythms, 400);
        assert!(ties > 0, "no run-ahead ended on an exact wakeup tie");
        assert_matches_cycle_stepped(rhythms, 400);
    }

    #[test]
    fn quota_reached_while_running_ahead_matches_the_cycle_stepped_loop() {
        let (_, quota) = run_ahead_edges(one_streams_three_wait, 40);
        assert!(quota > 0, "no core finished while running ahead");
        assert_matches_cycle_stepped(one_streams_three_wait, 40);
    }

    /// Runs `one_streams_three_wait` through a warm-up of `warmup`
    /// instructions and a measured phase of as many again, every source
    /// logging its core's index on each pull. Returns the result, the
    /// pull log (the order in which the loop ticked fetching cores), and
    /// whether some core entered the measured phase with a wakeup before
    /// `now` — one that met the warm-up quota early and sat out the rest
    /// of the warm-up.
    fn phase_boundary_run(skip: bool, warmup: u64) -> (RunResult, Vec<usize>, bool) {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(Vec::new()));
        let sources = one_streams_three_wait()
            .into_iter()
            .enumerate()
            .map(|(c, mut inner)| {
                let log = Arc::clone(&log);
                Box::new(move || {
                    log.lock().unwrap().push(c);
                    inner.next_uop()
                }) as Box<dyn UopSource + Send>
            })
            .collect();
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        let mut m = Machine::from_sources(cfg, sources, "scripted", 1);
        m.set_cycle_skip(skip);
        assert!(!m.run_until(warmup, 1_000_000));
        let stale = m.wakeups.iter().any(|&w| w < m.now);
        m.mark_warmed();
        assert!(!m.run_until(2 * warmup, 1_000_000));
        let result = m.finish_run(false);
        let pulls = log.lock().unwrap().clone();
        (result, pulls, stale)
    }

    #[test]
    fn a_core_that_met_the_warmup_quota_early_ticks_in_index_order_after_the_boundary() {
        let (skip, skip_pulls, stale) = phase_boundary_run(true, 40);
        assert!(stale, "no core carried an early wakeup across the boundary");
        let (stepped, stepped_pulls, _) = phase_boundary_run(false, 40);
        assert!(!skip.truncated);
        assert_eq!(format!("{skip:?}"), format!("{stepped:?}"));
        assert_eq!(
            skip_pulls, stepped_pulls,
            "cores ticked in a different order"
        );
    }

    #[test]
    fn truncation_reported() {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        let spec = by_name("barnes").unwrap();
        let mut m = Machine::new(cfg, &spec, 1);
        let r = m.run(1_000_000, 500);
        assert!(r.truncated);
    }
}
