//! The traced run: `Machine::run_warmed`'s event-skip loop rebuilt over
//! the public API of the cores, generators and memory system, with a
//! clock around every call into each layer.
//!
//! The loop must stay a faithful copy: the benchmark checks that a traced
//! cell's [`RunResult`] equals the untraced `Machine::run_warmed` result
//! field for field, and fails the cell otherwise.

use crate::workload::{SimCell, SimPlan};
use cgct_cache::Addr;
use cgct_cpu::{Core, MemoryInterface, Uop, UopSource};
use cgct_interconnect::CoreId;
use cgct_sim::{Cycle, SeedSequence};
use cgct_system::machine::RcaRunStats;
use cgct_system::{MemorySystem, RunResult};
use cgct_workloads::WorkloadThread;
use std::time::Instant;

/// Uops pulled from a generator per timed chunk. One clock read per uop
/// would cost about as much as generating it.
pub const CHUNK: usize = 256;

/// Host time and work counts of one traced cell, by layer. Counts cover
/// the whole cell, warm-up included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Uops the cores consumed.
    pub uops: u64,
    /// Uops pulled from the generators (consumed plus what was still
    /// buffered when the cell ended).
    pub uops_pulled: u64,
    /// Seconds inside `WorkloadThread::next_uop`.
    pub workloads_s: f64,
    /// `Core::tick` calls.
    pub ticks: u64,
    /// Seconds inside `Core::tick`, including the memory and generator
    /// calls it makes.
    pub tick_s: f64,
    /// Memory calls answered within the L1 latency, the L2 latency, and
    /// beyond (external), as `(calls, seconds)`.
    pub mem: [(u64, f64); 3],
    /// Completion events delivered.
    pub events: u64,
    /// `MemorySystem::advance` calls.
    pub advance_calls: u64,
    /// Seconds in `MemorySystem::{advance, next_event_time}`.
    pub events_s: f64,
    /// Final simulated cycle summed over cells, times their core count:
    /// the tick count a cycle-stepped loop would execute.
    pub core_cycles: u64,
    /// Instructions committed by all cores, warm-up included.
    pub committed: u64,
    /// Seconds inside `cgct_verify::explore`.
    pub verify_s: f64,
    /// Seconds of the whole cell, machine construction included.
    pub cell_s: f64,
}

impl Ledger {
    /// Seconds in `Core::tick` itself, outside memory and generator calls.
    pub fn cpu_self_s(&self) -> f64 {
        self.tick_s - self.mem_s() - self.workloads_s
    }

    /// Seconds in all memory calls.
    pub fn mem_s(&self) -> f64 {
        self.mem.iter().map(|&(_, s)| s).sum()
    }

    /// Seconds of the cell outside every timed layer: construction, the
    /// loop's own bookkeeping and result assembly.
    pub fn harness_s(&self) -> f64 {
        self.cell_s - self.tick_s - self.events_s - self.verify_s
    }

    /// Adds `other`'s counts and times to this ledger.
    pub fn add(&mut self, other: &Ledger) {
        self.uops += other.uops;
        self.uops_pulled += other.uops_pulled;
        self.workloads_s += other.workloads_s;
        self.ticks += other.ticks;
        self.tick_s += other.tick_s;
        for (a, b) in self.mem.iter_mut().zip(other.mem) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.events += other.events;
        self.advance_calls += other.advance_calls;
        self.events_s += other.events_s;
        self.core_cycles += other.core_cycles;
        self.committed += other.committed;
        self.verify_s += other.verify_s;
        self.cell_s += other.cell_s;
    }
}

/// A generator served from pre-pulled chunks, each pull timed as one
/// span. `next_uop` takes no input, so the stream a core sees is exactly
/// the generator's own.
pub struct ChunkedSource<S> {
    inner: S,
    buf: Vec<Uop>,
    /// Next unread position in `buf`.
    at: usize,
    /// Uops handed out.
    pub served: u64,
    /// Uops pulled from `inner`.
    pub pulled: u64,
    /// Seconds spent pulling.
    pub seconds: f64,
}

impl<S: UopSource> ChunkedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        ChunkedSource {
            inner,
            buf: Vec::with_capacity(CHUNK),
            at: 0,
            served: 0,
            pulled: 0,
            seconds: 0.0,
        }
    }
}

impl<S: UopSource> UopSource for ChunkedSource<S> {
    fn next_uop(&mut self) -> Uop {
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
            let t0 = Instant::now();
            for _ in 0..CHUNK {
                self.buf.push(self.inner.next_uop());
            }
            self.seconds += t0.elapsed().as_secs_f64();
            self.pulled += CHUNK as u64;
        }
        self.served += 1;
        self.at += 1;
        self.buf[self.at - 1]
    }
}

/// One core's timed view of the memory system. A call is classed by the
/// latency it returns: at most `l1`, at most `l2`, or beyond.
struct TimedPort<'a> {
    mem: &'a mut MemorySystem,
    core: CoreId,
    l1: u64,
    l2: u64,
    calls: &'a mut [(u64, f64); 3],
}

impl TimedPort<'_> {
    fn timed(&mut self, now: Cycle, call: impl FnOnce(&mut MemorySystem) -> Cycle) -> Cycle {
        let t0 = Instant::now();
        let done = call(self.mem);
        let s = t0.elapsed().as_secs_f64();
        let latency = done.0.saturating_sub(now.0);
        let class = if latency <= self.l1 {
            0
        } else if latency <= self.l2 {
            1
        } else {
            2
        };
        self.calls[class].0 += 1;
        self.calls[class].1 += s;
        done
    }
}

impl MemoryInterface for TimedPort<'_> {
    fn ifetch(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let core = self.core;
        self.timed(now, |m| m.ifetch(core, now, addr))
    }
    fn load(&mut self, now: Cycle, addr: Addr, store_intent: bool) -> Cycle {
        let core = self.core;
        self.timed(now, |m| m.load(core, now, addr, store_intent))
    }
    fn store(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let core = self.core;
        self.timed(now, |m| m.store(core, now, addr))
    }
    fn dcbz(&mut self, now: Cycle, addr: Addr) -> Cycle {
        let core = self.core;
        self.timed(now, |m| m.dcbz(core, now, addr))
    }
}

/// A machine assembled from public parts, as `Machine::new` assembles it.
struct TracedMachine {
    cores: Vec<Core>,
    sources: Vec<ChunkedSource<WorkloadThread>>,
    mem: MemorySystem,
    now: Cycle,
    wakeups: Vec<Cycle>,
    epoch_committed: Vec<u64>,
    l1: u64,
    l2: u64,
    ledger: Ledger,
}

/// Runs `cell` at `seed` under `plan` through the traced loop, returning
/// its result and ledger.
///
/// # Panics
///
/// Panics if the cell names an unknown benchmark.
pub fn run_traced(cell: &SimCell, plan: &SimPlan, seed: u64) -> (RunResult, Ledger) {
    let t0 = Instant::now();
    let cfg = cell.config();
    let spec = cgct_workloads::by_name(cell.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {}", cell.benchmark));
    let seq = SeedSequence::new(seed);
    let n = cfg.topology.total_cores();
    let l1 = cfg.hierarchy.l1d.latency;
    let l2 = cfg.hierarchy.l2.latency + cfg.perturbation;
    let mut mem = MemorySystem::new(cfg.clone(), seq.stream(1000));
    mem.set_sanitize(false);
    let mut m = TracedMachine {
        cores: (0..n).map(|_| Core::new(cfg.core)).collect(),
        sources: (0..n)
            .map(|c| {
                ChunkedSource::new(WorkloadThread::new(
                    spec.clone(),
                    c,
                    n,
                    seq.stream(c as u64),
                ))
            })
            .collect(),
        mem,
        now: Cycle::ZERO,
        wakeups: vec![Cycle::ZERO; n],
        epoch_committed: vec![0; n],
        l1,
        l2,
        ledger: Ledger::default(),
    };
    let mut truncated = false;
    if plan.warmup_per_core > 0 {
        truncated |= m.run_until(plan.warmup_per_core, plan.max_cycles);
        m.ledger.events += m.mem.events_delivered();
        m.mem.reset_metrics(m.now);
        for (slot, core) in m.epoch_committed.iter_mut().zip(&m.cores) {
            *slot = core.committed();
        }
    }
    truncated |= m.run_until(
        plan.warmup_per_core + plan.measured_per_core,
        plan.max_cycles,
    );
    let end = Cycle(m.now.0.saturating_sub(m.mem.metrics_epoch().0));
    m.mem.metrics.finish(end);
    let result = m.result(cell, truncated);
    let mut ledger = m.ledger;
    ledger.events += m.mem.events_delivered();
    ledger.uops = m.sources.iter().map(|s| s.served).sum();
    ledger.uops_pulled = m.sources.iter().map(|s| s.pulled).sum();
    ledger.workloads_s = m.sources.iter().map(|s| s.seconds).sum();
    ledger.core_cycles = m.now.0 * n as u64;
    ledger.committed = m.cores.iter().map(|c| c.committed()).sum();
    ledger.cell_s = t0.elapsed().as_secs_f64();
    (result, ledger)
}

impl TracedMachine {
    /// `Machine::run_until` with cycle skipping on, timed.
    fn run_until(&mut self, committed_target: u64, max_cycles: u64) -> bool {
        let n = self.cores.len();
        let mut unfinished: Vec<usize> = (0..n)
            .filter(|&i| self.cores[i].committed() < committed_target)
            .collect();
        loop {
            if unfinished.is_empty() {
                return false;
            }
            if self.now.0 >= max_cycles {
                return true;
            }
            let mut earliest = u64::MAX;
            unfinished.retain(|&i| {
                if self.wakeups[i] <= self.now {
                    let mut port = TimedPort {
                        mem: &mut self.mem,
                        core: CoreId(i),
                        l1: self.l1,
                        l2: self.l2,
                        calls: &mut self.ledger.mem,
                    };
                    let t0 = Instant::now();
                    let w = self.cores[i].tick(self.now, &mut port, &mut self.sources[i]);
                    self.ledger.tick_s += t0.elapsed().as_secs_f64();
                    self.ledger.ticks += 1;
                    self.wakeups[i] = w.0;
                    if self.cores[i].committed() >= committed_target {
                        return false;
                    }
                }
                earliest = earliest.min(self.wakeups[i].0);
                true
            });
            let mut next = self.now.0 + 1;
            if earliest != u64::MAX && earliest > next {
                next = earliest;
            }
            let t0 = Instant::now();
            if let Some(t) = self.mem.next_event_time() {
                next = next.min(t.0.max(self.now.0 + 1));
            }
            self.now = Cycle(next.min(max_cycles));
            self.mem.advance(self.now);
            self.ledger.events_s += t0.elapsed().as_secs_f64();
            self.ledger.advance_calls += 1;
        }
    }

    /// `Machine::run_warmed`'s result, built the same way.
    fn result(&self, cell: &SimCell, truncated: bool) -> RunResult {
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
        let mut nodes_with_rca = 0u64;
        for i in 0..self.cores.len() {
            if let Some(r) = self.mem.rca(CoreId(i)) {
                nodes_with_rca += 1;
                let s = r.stats();
                rca.evictions += s.evictions.value();
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
        if rca.evictions > 0 {
            let total = rca.evictions as f64;
            rca.evicted_empty_fraction = evicted[0] as f64 / total;
            rca.evicted_one_line_fraction = evicted[1] as f64 / total;
            rca.evicted_two_lines_fraction = evicted[2] as f64 / total;
        }
        let runtime = self.now.0.saturating_sub(self.mem.metrics_epoch().0);
        RunResult {
            benchmark: cell.benchmark.to_string(),
            mode: cell.mode.label(),
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
            trace: None,
        }
    }
}
