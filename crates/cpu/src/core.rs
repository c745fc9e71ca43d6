//! The out-of-order core model.
//!
//! A trace-driven pipeline: fetch (with instruction-cache and branch-
//! misprediction stalls), dispatch into a reorder buffer, out-of-order
//! issue limited by an issue window, functional units and one memory
//! port, in-order commit, and a post-commit store buffer that drains
//! stores (and `dcbz` ops) to the memory system in order.
//!
//! The memory system is abstracted behind [`MemoryInterface`]: every
//! access returns its completion time synchronously, which keeps the
//! whole multiprocessor simulation deterministic and fast while still
//! letting misses overlap (memory-level parallelism) inside the core.

use crate::bpred::BranchPredictor;
use crate::config::CoreConfig;
use crate::uop::{Uop, UopKind, UopSource};
use cgct_cache::{Addr, LineAddr, MshrFile};
use cgct_sim::Cycle;
use std::collections::VecDeque;

/// The memory hierarchy as seen by one core. All methods return the
/// completion time of the access (`now + 1` for an L1 hit).
pub trait MemoryInterface {
    /// Fetches the instruction-cache line containing `addr`.
    fn ifetch(&mut self, now: Cycle, addr: Addr) -> Cycle;
    /// Data load. `store_intent` requests an exclusive copy (R10000-style
    /// exclusive prefetching).
    fn load(&mut self, now: Cycle, addr: Addr, store_intent: bool) -> Cycle;
    /// Data store (write permission + write).
    fn store(&mut self, now: Cycle, addr: Addr) -> Cycle;
    /// Data-cache-block-zero.
    fn dcbz(&mut self, now: Cycle, addr: Addr) -> Cycle;
}

/// The earliest cycle at which a core might make progress again.
///
/// Returned by [`Core::tick`]. The contract: ticking the core at any
/// cycle strictly before `self.0` is an observational no-op — it
/// commits nothing, issues nothing, drains nothing, fetches nothing,
/// and makes no [`MemoryInterface`] call — so a driver may skip
/// straight to `self.0` without changing any architectural outcome.
/// The value may be conservative (earlier than the real next event);
/// early ticks are merely wasted work, never wrong. Per-tick stall
/// statistics ([`CoreStats::fetch_stall_cycles`],
/// [`CoreStats::store_buffer_stall_cycles`], [`CoreStats::cycles`])
/// count *executed* ticks only, so they shrink under a skipping
/// driver; they are diagnostics, not architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup(pub Cycle);

/// Aggregate core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles this core was actually ticked (equals wall-clock cycles
    /// only under a non-skipping driver).
    pub cycles: u64,
    /// Cycles fetch was stalled (icache miss, misprediction redirect).
    pub fetch_stall_cycles: u64,
    /// Cycles commit was blocked by a full store buffer.
    pub store_buffer_stall_cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// `dcbz` ops committed.
    pub dcbz_ops: u64,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    uop: Uop,
    issued: bool,
    done_at: Cycle,
    /// This entry is a mispredicted branch: fetch resumes a pipeline
    /// refill after it resolves.
    redirect: bool,
    /// Functional-unit class (index into the issue stage's availability
    /// array), precomputed at dispatch so the issue scan — which may
    /// revisit a blocked entry many times — never re-derives it from
    /// the uop kind.
    fu_class: u8,
}

/// Functional-unit classes, in the order the issue stage's availability
/// array is laid out: int ALU (also branches), int mult, FP ALU, FP
/// mult, memory port.
const FU_INT_ALU: u8 = 0;
const FU_INT_MULT: u8 = 1;
const FU_FP_ALU: u8 = 2;
const FU_FP_MULT: u8 = 3;
const FU_MEM: u8 = 4;

fn fu_class_of(kind: UopKind) -> u8 {
    match kind {
        UopKind::IntAlu | UopKind::Branch { .. } => FU_INT_ALU,
        UopKind::IntMult => FU_INT_MULT,
        UopKind::FpAlu => FU_FP_ALU,
        UopKind::FpMult => FU_FP_MULT,
        UopKind::Load { .. } | UopKind::Store { .. } | UopKind::Dcbz { .. } => FU_MEM,
    }
}

#[derive(Debug, Clone, Copy)]
struct FetchedUop {
    uop: Uop,
    redirect: bool,
}

#[derive(Debug, Clone, Copy)]
enum StoreKind {
    Store,
    Dcbz,
}

/// One out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    bpred: BranchPredictor,
    fetch_queue: VecDeque<FetchedUop>,
    pending_fetch: Option<FetchedUop>,
    current_fetch_line: Option<u64>,
    fetch_line_ready: Cycle,
    /// Mispredicted branches in flight; fetch stalls while non-zero.
    redirects_in_flight: usize,
    fetch_stall_until: Cycle,
    /// Reorder buffer as a power-of-two ring indexed by `seq & rob_mask`.
    /// Valid entries are exactly `head_seq..next_seq`; producer lookups
    /// and the issue scan become direct slice indexing instead of deque
    /// walks.
    rob: Vec<RobEntry>,
    rob_mask: u64,
    head_seq: u64,
    next_seq: u64,
    /// Seqs of entries in `head_seq..next_seq` not yet issued, in
    /// ascending order (dispatch appends, issue removes from anywhere).
    /// The issue stage and `next_event` walk this list instead of the
    /// ROB, so their cost scales with the *unissued* population — a
    /// handful in steady flow — rather than with ROB occupancy, which
    /// is mostly issued entries waiting to commit.
    unissued_seqs: Vec<u64>,
    lsq_occupancy: usize,
    store_buffer: VecDeque<(StoreKind, Addr)>,
    stores_in_flight: Vec<Cycle>,
    /// Outstanding load-miss lines, keyed by line, carrying the shared
    /// completion time. Bounds load-level parallelism and merges
    /// secondary misses onto the primary's fill.
    load_mshrs: MshrFile,
    /// Earliest primary fill among `load_mshrs` (`u64::MAX` when none):
    /// the retire stage scans the file only when a fill is actually due,
    /// and `next_event` reads this instead of re-deriving the minimum.
    earliest_fill: u64,
    /// Optional trace sink for MSHR alloc/merge events, tagged with
    /// this core's id. `None` (the default) records nothing and is the
    /// zero-cost path; the sink never influences core behaviour. `Send`
    /// so a core can move with its machine across pool workers.
    trace: Option<(u8, Box<dyn cgct_trace::TraceSink + Send>)>,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("committed", &self.stats.committed)
            .field("rob_occupancy", &self.rob_len())
            .field("fetch_queue", &self.fetch_queue.len())
            .finish()
    }
}

impl Core {
    /// Creates a core with the given configuration and a paper-default
    /// branch predictor.
    pub fn new(cfg: CoreConfig) -> Self {
        let ring = cfg.rob.next_power_of_two().max(1);
        let placeholder = RobEntry {
            uop: Uop::simple(0, UopKind::IntAlu),
            issued: false,
            done_at: Cycle::ZERO,
            redirect: false,
            fu_class: FU_INT_ALU,
        };
        Core {
            cfg,
            bpred: BranchPredictor::paper_default(),
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue + 1),
            pending_fetch: None,
            current_fetch_line: None,
            fetch_line_ready: Cycle::ZERO,
            redirects_in_flight: 0,
            fetch_stall_until: Cycle::ZERO,
            rob: vec![placeholder; ring],
            rob_mask: ring as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            unissued_seqs: Vec::with_capacity(cfg.rob),
            lsq_occupancy: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer + 1),
            stores_in_flight: Vec::with_capacity(cfg.store_mshrs + 1),
            load_mshrs: MshrFile::new(cfg.load_mshrs),
            earliest_fill: u64::MAX,
            trace: None,
            stats: CoreStats::default(),
        }
    }

    /// Installs a trace sink; MSHR alloc/merge events are recorded to
    /// it tagged with `core_id`.
    pub fn set_trace(&mut self, core_id: u8, sink: Box<dyn cgct_trace::TraceSink + Send>) {
        self.trace = Some((core_id, sink));
    }

    /// Removes any installed trace sink (tracing off).
    pub fn clear_trace(&mut self) {
        self.trace = None;
    }

    /// Collected statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// The branch predictor (for misprediction statistics).
    pub fn branch_predictor(&self) -> &BranchPredictor {
        &self.bpred
    }

    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    #[inline]
    fn rob_at(&self, seq: u64) -> &RobEntry {
        &self.rob[(seq & self.rob_mask) as usize]
    }

    /// Whether all buffered work (ROB + store buffer) has drained.
    pub fn quiesced(&self, now: Cycle) -> bool {
        self.head_seq == self.next_seq
            && self.store_buffer.is_empty()
            && self.stores_in_flight.iter().all(|&t| t <= now)
    }

    /// Advances the core by one cycle: commit, issue, dispatch, fetch
    /// (reverse pipeline order so each instruction spends at least a cycle
    /// per stage). Returns the [`Wakeup`] cycle: if any stage made
    /// progress this tick, `now + 1`; otherwise the earliest pending
    /// completion event (fill arrival, store retirement, fetch-line
    /// ready, redirect refill), before which every tick would be a
    /// no-op.
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemoryInterface,
        src: &mut dyn UopSource,
    ) -> Wakeup {
        self.stats.cycles += 1;
        self.retire_load_mshrs(now);
        self.drain_store_buffer(now, mem);
        let committed = self.commit(now);
        let issue_force = self.issue(now, mem);
        let dispatched = self.dispatch();
        let fetched = self.fetch(now, mem, src);
        // A stage forces a `now + 1` wakeup only when it will have work
        // next cycle that no recorded completion event covers:
        //   - fetch consumed the stream and may consume more (stalls are
        //     covered by `fetch_line_ready` / `fetch_stall_until`);
        //   - dispatch moved uops into the ROB — they may issue next
        //     cycle (their producers can already be complete);
        //   - issue was cut short by per-cycle limits (functional units,
        //     issue width, issue window) that reset next cycle — see
        //     [`Core::issue`]; producer / MSHR stalls instead resolve at
        //     completion times `next_event` already tracks;
        //   - commit exhausted its width with work left (a store-buffer
        //     or head-not-done block resolves at a recorded event);
        //   - the store buffer holds entries (pushed by commit after the
        //     drain stage ran) that a free write MSHR can accept.
        // Everything else a stalled core waits for — fills, store
        // retirements, fetch-line arrival, redirect refill — completes
        // at a cycle `next_event` returns.
        // Fetch continues next cycle only if it ran to its width: queue
        // space left and neither stall timer armed (an icache stall
        // recorded here always reaches past `now + 1`).
        let fetch_force = fetched
            && self.redirects_in_flight == 0
            && self.fetch_line_ready <= now + 1
            && self.fetch_queue.len() < self.cfg.fetch_queue;
        // Dispatch has work next cycle if uops wait (including ones fetch
        // pushed after dispatch ran) and the ROB/LSQ can take the front.
        let can_dispatch_next = self.rob_len() < self.cfg.rob
            && match self.fetch_queue.front() {
                Some(f) => !(f.uop.kind.is_mem() && self.lsq_occupancy >= self.cfg.lsq),
                None => false,
            };
        let force = fetch_force
            || dispatched > 0
            || can_dispatch_next
            || issue_force
            || committed >= self.cfg.commit_width as u64
            || (!self.store_buffer.is_empty()
                && self.stores_in_flight.len() < self.cfg.store_mshrs);
        if force {
            return Wakeup(now + 1);
        }
        self.next_event(now)
    }

    /// The earliest cycle after `now` at which a fully-stalled core can
    /// change state. Sound because every stall in this model resolves at
    /// a completion time that is already recorded somewhere in the core:
    /// issued ROB entries (`done_at` gates both commit and dependent
    /// issue, and redirect resolution), in-flight stores (gate the store
    /// buffer and, through it, commit), load MSHRs (gate load issue when
    /// the file is full), and the two fetch stalls. If no event is
    /// pending the conservative answer `now + 1` keeps the driver live.
    fn next_event(&mut self, now: Cycle) -> Wakeup {
        let mut wake = u64::MAX;
        // Commit is enabled by the head's completion. (A head that is
        // already complete but store-buffer-blocked waits on a store
        // retirement, picked up below — a full buffer implies in-flight
        // stores.) A still-unissued head is reached through the issue
        // events next.
        if self.head_seq != self.next_seq {
            let h = self.rob_at(self.head_seq);
            if h.issued && h.done_at > now {
                wake = wake.min(h.done_at.0);
            }
        }
        // Issue is enabled when the producer of an unissued entry inside
        // the issue window completes. Producers that are themselves
        // unissued sit earlier in the same window, so their own
        // producers' events cover them transitively; producers already
        // complete mean the entry was schedulable this tick and the
        // forcing rules in `tick` handled it.
        for (scanned, &seq) in self.unissued_seqs.iter().enumerate() {
            if scanned >= self.cfg.issue_window {
                break;
            }
            let e = self.rob_at(seq);
            if e.uop.dep_dist == 0 {
                continue;
            }
            let Some(producer_seq) = seq.checked_sub(e.uop.dep_dist as u64) else {
                continue;
            };
            if producer_seq < self.head_seq {
                continue;
            }
            let p = self.rob_at(producer_seq);
            if p.issued && p.done_at > now {
                wake = wake.min(p.done_at.0);
            }
        }
        // A fill retirement frees a load MSHR, unblocking an MSHR-full
        // load in the window (these mostly coincide with producer
        // completions above). The retire stage already ran at `now`, so
        // the cached minimum is either in the future or MAX.
        wake = wake.min(self.earliest_fill);
        // Store retirements matter only while the buffer has a backlog
        // to drain (which also covers a store-buffer-blocked commit).
        if !self.store_buffer.is_empty() {
            for &t in &self.stores_in_flight {
                if t > now {
                    wake = wake.min(t.0);
                }
            }
        }
        // Fetch stalls matter only when fetch could otherwise run: queue
        // space and no unresolved redirect (a redirect resolves through
        // the issue events above, which set `fetch_stall_until` anew).
        if self.redirects_in_flight == 0 && self.fetch_queue.len() < self.cfg.fetch_queue {
            if self.fetch_line_ready > now {
                wake = wake.min(self.fetch_line_ready.0);
            }
            if self.fetch_stall_until > now {
                wake = wake.min(self.fetch_stall_until.0);
            }
        }
        if wake == u64::MAX {
            Wakeup(now + 1)
        } else {
            Wakeup(Cycle(wake))
        }
    }

    fn retire_load_mshrs(&mut self, now: Cycle) {
        // Free registers whose fills have arrived. The cached minimum
        // makes the no-fill-due case (the vast majority of ticks) a
        // single compare; the scan re-derives it from what stays.
        if self.earliest_fill <= now.0 {
            self.earliest_fill = self.load_mshrs.retire_filled(now).map_or(u64::MAX, |c| c.0);
        }
    }

    fn drain_store_buffer(&mut self, now: Cycle, mem: &mut dyn MemoryInterface) -> bool {
        // Committed stores issue in order but may overlap in flight up to
        // the write-MSHR limit; the memory system applies their coherence
        // effects at issue time, preserving store order for SC.
        self.stores_in_flight.retain(|&t| t > now);
        let mut any = false;
        while self.stores_in_flight.len() < self.cfg.store_mshrs {
            let Some(&(kind, addr)) = self.store_buffer.front() else {
                return any;
            };
            let done = match kind {
                StoreKind::Store => mem.store(now, addr),
                StoreKind::Dcbz => mem.dcbz(now, addr),
            };
            self.store_buffer.pop_front();
            any = true;
            if done > now {
                self.stores_in_flight.push(done);
            }
        }
        any
    }

    fn commit(&mut self, now: Cycle) -> u64 {
        let mut committed = 0;
        while committed < self.cfg.commit_width as u64 {
            if self.head_seq == self.next_seq {
                break;
            }
            let head = self.rob_at(self.head_seq);
            if !head.issued || head.done_at > now {
                break;
            }
            let head_is_mem = head.uop.kind.is_mem();
            // Stores and dcbz retire into the store buffer.
            let buffered = match head.uop.kind {
                UopKind::Store { addr } => Some((StoreKind::Store, addr)),
                UopKind::Dcbz { addr } => Some((StoreKind::Dcbz, addr)),
                _ => None,
            };
            if let Some((kind, addr)) = buffered {
                if self.store_buffer.len() >= self.cfg.store_buffer {
                    self.stats.store_buffer_stall_cycles += 1;
                    break;
                }
                // Merge consecutive stores to the same line.
                let line = addr.0 >> 6;
                let mergeable = matches!(kind, StoreKind::Store)
                    && self
                        .store_buffer
                        .back()
                        .is_some_and(|(k, a)| matches!(k, StoreKind::Store) && a.0 >> 6 == line);
                if !mergeable {
                    self.store_buffer.push_back((kind, addr));
                }
                match kind {
                    StoreKind::Store => self.stats.stores += 1,
                    StoreKind::Dcbz => self.stats.dcbz_ops += 1,
                }
            }
            if head_is_mem {
                self.lsq_occupancy -= 1;
            }
            self.head_seq += 1;
            self.stats.committed += 1;
            committed += 1;
        }
        committed
    }

    /// Whether the in-window register producer of the entry at `seq` has
    /// a result available.
    #[inline]
    fn producer_ready(&self, seq: u64, dep_dist: u8, now: Cycle) -> bool {
        if dep_dist == 0 {
            return true;
        }
        let Some(producer_seq) = seq.checked_sub(dep_dist as u64) else {
            return true;
        };
        if producer_seq < self.head_seq {
            return true; // producer already retired
        }
        let p = self.rob_at(producer_seq);
        p.issued && p.done_at <= now
    }

    /// Issue stage. Returns whether issue must run again next cycle
    /// because a *per-cycle* limit cut it short: a functional unit ran
    /// out, the issue width was exhausted with unissued entries left, or
    /// the issue window was exceeded after at least one issue widened
    /// it. Entries blocked on producers or MSHRs instead wait for
    /// completion events that [`Core::next_event`] reports.
    fn issue(&mut self, now: Cycle, mem: &mut dyn MemoryInterface) -> bool {
        if self.unissued_seqs.is_empty() {
            return false;
        }
        let mut issued = 0;
        let mut fu_blocked = false;
        let mut window_break = false;
        let mut avail: [usize; 5] = [
            self.cfg.int_alu,
            self.cfg.int_mult,
            self.cfg.fp_alu,
            self.cfg.fp_mult,
            self.cfg.mem_ports,
        ];
        // Walk the unissued list in program order, compacting in place:
        // entries that issue drop out, blocked entries (and, after a
        // width/window break, the unprocessed tail) stay.
        let n_list = self.unissued_seqs.len();
        let mut read = 0;
        let mut write = 0;
        while read < n_list {
            if issued >= self.cfg.issue_width {
                break;
            }
            // Only the oldest `issue_window` unissued entries are
            // candidates; every list element is unissued, so the read
            // position is the count scanned.
            if read >= self.cfg.issue_window {
                window_break = true;
                break;
            }
            let seq = self.unissued_seqs[read];
            let e = self.rob_at(seq);
            let dep_dist = e.uop.dep_dist;
            let kind = e.uop.kind;
            // Functional-unit availability (checked before the producer
            // lookup: it is cheaper and both must pass).
            let fu = e.fu_class as usize;
            if avail[fu] == 0 {
                fu_blocked = true;
                self.unissued_seqs[write] = seq;
                write += 1;
                read += 1;
                continue;
            }
            if !self.producer_ready(seq, dep_dist, now) {
                self.unissued_seqs[write] = seq;
                write += 1;
                read += 1;
                continue;
            }
            // A load to a line not already in flight needs a free MSHR.
            if let UopKind::Load { addr, .. } = kind {
                let line = LineAddr(addr.0 >> 6);
                if self.load_mshrs.is_full() && self.load_mshrs.find(line).is_none() {
                    self.unissued_seqs[write] = seq;
                    write += 1;
                    read += 1;
                    continue;
                }
            }
            avail[fu] -= 1;
            let done_at = match kind {
                UopKind::IntAlu | UopKind::Branch { .. } => now + 1,
                UopKind::IntMult => now + self.cfg.int_mult_latency,
                UopKind::FpAlu | UopKind::FpMult => now + self.cfg.fp_latency,
                UopKind::Load { addr, store_intent } => {
                    let line = LineAddr(addr.0 >> 6);
                    let merged = match &mut self.trace {
                        Some((id, sink)) => {
                            self.load_mshrs
                                .find_merge_traced(line, *id, now, sink.as_mut())
                        }
                        None => self.load_mshrs.find(line),
                    };
                    if let Some(id) = merged {
                        // Secondary miss: share the in-flight fill.
                        self.stats.loads += 1;
                        self.load_mshrs.fill(id)
                    } else {
                        let done = mem.load(now, addr, store_intent);
                        self.stats.loads += 1;
                        if done > now + 1 {
                            // A real miss occupies an MSHR until it fills.
                            let _ = match &mut self.trace {
                                Some((id, sink)) => self.load_mshrs.allocate_traced(
                                    line,
                                    done,
                                    *id,
                                    now,
                                    sink.as_mut(),
                                ),
                                None => self.load_mshrs.allocate(line, done),
                            };
                            self.earliest_fill = self.earliest_fill.min(done.0);
                        }
                        done
                    }
                }
                // Stores/dcbz only compute their address here; the data
                // access happens post-commit via the store buffer.
                UopKind::Store { .. } | UopKind::Dcbz { .. } => now + 1,
            };
            let entry = &mut self.rob[(seq & self.rob_mask) as usize];
            entry.issued = true;
            entry.done_at = done_at;
            if entry.redirect {
                // The mispredicted branch resolved: refill the pipeline.
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(done_at + self.cfg.mispredict_penalty);
                self.redirects_in_flight -= 1;
            }
            issued += 1;
            read += 1;
        }
        // Keep the unprocessed tail (width/window break) and drop the
        // issued entries the compaction skipped.
        if write != read {
            self.unissued_seqs.copy_within(read..n_list, write);
        }
        self.unissued_seqs.truncate(write + (n_list - read));
        // Width and window breaks only matter if unissued entries remain
        // beyond the cut (width) or newly inside the window (window —
        // which shifts only when something issued).
        fu_blocked
            || (issued >= self.cfg.issue_width && !self.unissued_seqs.is_empty())
            || (window_break && issued > 0)
    }

    fn dispatch(&mut self) -> usize {
        let mut dispatched = 0;
        for _ in 0..self.cfg.dispatch_width {
            if self.rob_len() >= self.cfg.rob {
                break;
            }
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if front.uop.kind.is_mem() && self.lsq_occupancy >= self.cfg.lsq {
                break;
            }
            // cgct-lint: allow(D006) guarded by the non-empty check on the line above; pop_front cannot fail
            let f = self.fetch_queue.pop_front().expect("front exists");
            if f.uop.kind.is_mem() {
                self.lsq_occupancy += 1;
            }
            self.rob[(self.next_seq & self.rob_mask) as usize] = RobEntry {
                fu_class: fu_class_of(f.uop.kind),
                uop: f.uop,
                issued: false,
                done_at: Cycle::ZERO,
                redirect: f.redirect,
            };
            // Dispatch appends in seq order, keeping the list sorted.
            self.unissued_seqs.push(self.next_seq);
            self.next_seq += 1;
            dispatched += 1;
        }
        dispatched
    }

    fn fetch(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemoryInterface,
        src: &mut dyn UopSource,
    ) -> bool {
        if self.redirects_in_flight > 0 || now < self.fetch_stall_until {
            self.stats.fetch_stall_cycles += 1;
            return false;
        }
        if self.fetch_line_ready > now {
            self.stats.fetch_stall_cycles += 1;
            return false;
        }
        let mut any = false;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            let fetched = match self.pending_fetch.take() {
                Some(f) => f,
                None => {
                    let uop = src.next_uop();
                    let redirect = match uop.kind {
                        UopKind::Branch { kind, taken } => {
                            !self.bpred.predict_and_update(uop.pc, kind, taken)
                        }
                        _ => false,
                    };
                    FetchedUop { uop, redirect }
                }
            };
            // Consuming the stream (or the pending slot) is progress even
            // if the icache stalls the line below.
            any = true;
            // Instruction cache: fetching a new line may stall.
            let line = fetched.uop.pc >> 6;
            if self.current_fetch_line != Some(line) {
                let ready = mem.ifetch(now, Addr(fetched.uop.pc));
                self.current_fetch_line = Some(line);
                if ready > now + 1 {
                    self.fetch_line_ready = ready;
                    self.pending_fetch = Some(fetched);
                    break;
                }
            }
            let redirect = fetched.redirect;
            self.fetch_queue.push_back(fetched);
            if redirect {
                // Everything after a mispredicted branch is wrong-path:
                // stop fetching until it resolves.
                self.redirects_in_flight += 1;
                break;
            }
        }
        any
    }
}

impl cgct_sim::Snap for FetchedUop {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::obj([("u", self.uop.snap()), ("r", Json::Bool(self.redirect))])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        Ok(FetchedUop {
            uop: unsnap_field(v, "u")?,
            redirect: unsnap_field(v, "r")?,
        })
    }
}

impl cgct_sim::Snap for StoreKind {
    fn snap(&self) -> cgct_sim::Json {
        cgct_sim::Json::str(match self {
            StoreKind::Store => "S",
            StoreKind::Dcbz => "Z",
        })
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        match v.as_str() {
            Some("S") => Ok(StoreKind::Store),
            Some("Z") => Ok(StoreKind::Dcbz),
            other => Err(format!("unknown store kind {other:?}")),
        }
    }
}

impl cgct_sim::Snap for RobEntry {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        // `fu_class` is derived from the uop kind, so it is not stored.
        Json::obj([
            ("u", self.uop.snap()),
            ("i", Json::Bool(self.issued)),
            ("d", self.done_at.snap()),
            ("r", Json::Bool(self.redirect)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        let uop: Uop = unsnap_field(v, "u")?;
        Ok(RobEntry {
            fu_class: fu_class_of(uop.kind),
            uop,
            issued: unsnap_field(v, "i")?,
            done_at: unsnap_field(v, "d")?,
            redirect: unsnap_field(v, "r")?,
        })
    }
}

impl cgct_sim::Snap for CoreStats {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::obj([
            ("committed", Json::u64(self.committed)),
            ("cycles", Json::u64(self.cycles)),
            ("fetch_stall_cycles", Json::u64(self.fetch_stall_cycles)),
            (
                "store_buffer_stall_cycles",
                Json::u64(self.store_buffer_stall_cycles),
            ),
            ("loads", Json::u64(self.loads)),
            ("stores", Json::u64(self.stores)),
            ("dcbz_ops", Json::u64(self.dcbz_ops)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        Ok(CoreStats {
            committed: unsnap_field(v, "committed")?,
            cycles: unsnap_field(v, "cycles")?,
            fetch_stall_cycles: unsnap_field(v, "fetch_stall_cycles")?,
            store_buffer_stall_cycles: unsnap_field(v, "store_buffer_stall_cycles")?,
            loads: unsnap_field(v, "loads")?,
            stores: unsnap_field(v, "stores")?,
            dcbz_ops: unsnap_field(v, "dcbz_ops")?,
        })
    }
}

impl Core {
    /// Snapshots all architectural and microarchitectural state except
    /// the configuration (fixed at construction) and any trace sink
    /// (checkpointing is disabled while tracing).
    ///
    /// Only the valid `head_seq..next_seq` window of the ROB ring is
    /// stored; the unissued list is an invariant of those entries and is
    /// rebuilt on restore.
    pub fn snap_state(&self) -> cgct_sim::Json {
        use cgct_sim::{Json, Snap};
        let rob: Vec<cgct_sim::Json> = (self.head_seq..self.next_seq)
            .map(|seq| self.rob_at(seq).snap())
            .collect();
        Json::obj([
            ("bpred", self.bpred.snap_state()),
            ("fetch_queue", self.fetch_queue.snap()),
            ("pending_fetch", self.pending_fetch.snap()),
            ("current_fetch_line", self.current_fetch_line.snap()),
            ("fetch_line_ready", self.fetch_line_ready.snap()),
            (
                "redirects_in_flight",
                Json::u64(self.redirects_in_flight as u64),
            ),
            ("fetch_stall_until", self.fetch_stall_until.snap()),
            ("rob", Json::Array(rob)),
            ("head_seq", Json::u64(self.head_seq)),
            ("next_seq", Json::u64(self.next_seq)),
            ("lsq_occupancy", self.lsq_occupancy.snap()),
            ("store_buffer", self.store_buffer.snap()),
            ("stores_in_flight", self.stores_in_flight.snap()),
            ("load_mshrs", self.load_mshrs.snap()),
            ("earliest_fill", Json::u64(self.earliest_fill)),
            // Retired fields, written as zero so the checkpoint format
            // is unchanged; `restore_state` ignores them.
            ("issue_retry_at", Cycle::ZERO.snap()),
            ("store_retry_at", Cycle::ZERO.snap()),
            ("stats", self.stats.snap()),
        ])
    }

    /// Restores state captured by [`snap_state`](Self::snap_state) into a
    /// core of the same configuration.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or any capacity mismatch with this
    /// core's configuration.
    pub fn restore_state(&mut self, v: &cgct_sim::Json) -> Result<(), String> {
        use cgct_sim::snap::{field, unsnap_field, Snap};
        self.bpred.restore_state(field(v, "bpred")?)?;
        let fetch_queue: VecDeque<FetchedUop> = unsnap_field(v, "fetch_queue")?;
        if fetch_queue.len() > self.cfg.fetch_queue {
            return Err("fetch queue overflows its capacity".to_string());
        }
        let head_seq: u64 = unsnap_field(v, "head_seq")?;
        let next_seq: u64 = unsnap_field(v, "next_seq")?;
        if next_seq < head_seq || (next_seq - head_seq) as usize > self.cfg.rob {
            return Err("invalid ROB sequence window".to_string());
        }
        let entries: Vec<RobEntry> = unsnap_field(v, "rob")?;
        if entries.len() as u64 != next_seq - head_seq {
            return Err("ROB entry count does not match the sequence window".to_string());
        }
        let store_buffer: VecDeque<(StoreKind, Addr)> = unsnap_field(v, "store_buffer")?;
        if store_buffer.len() > self.cfg.store_buffer {
            return Err("store buffer overflows its capacity".to_string());
        }
        let stores_in_flight: Vec<Cycle> = unsnap_field(v, "stores_in_flight")?;
        if stores_in_flight.len() > self.cfg.store_mshrs {
            return Err("more in-flight stores than write MSHRs".to_string());
        }
        let load_mshrs = MshrFile::unsnap(field(v, "load_mshrs")?)?;
        if load_mshrs.capacity() != self.cfg.load_mshrs {
            return Err("load MSHR capacity mismatch".to_string());
        }
        self.fetch_queue = fetch_queue;
        self.pending_fetch = unsnap_field(v, "pending_fetch")?;
        self.current_fetch_line = unsnap_field(v, "current_fetch_line")?;
        self.fetch_line_ready = unsnap_field(v, "fetch_line_ready")?;
        self.redirects_in_flight = unsnap_field::<u64>(v, "redirects_in_flight")? as usize;
        self.fetch_stall_until = unsnap_field(v, "fetch_stall_until")?;
        self.head_seq = head_seq;
        self.next_seq = next_seq;
        self.unissued_seqs.clear();
        for (i, e) in entries.into_iter().enumerate() {
            let seq = head_seq + i as u64;
            if !e.issued {
                self.unissued_seqs.push(seq);
            }
            self.rob[(seq & self.rob_mask) as usize] = e;
        }
        self.lsq_occupancy = unsnap_field(v, "lsq_occupancy")?;
        self.store_buffer = store_buffer;
        self.stores_in_flight = stores_in_flight;
        self.load_mshrs = load_mshrs;
        self.earliest_fill = unsnap_field(v, "earliest_fill")?;
        self.stats = unsnap_field(v, "stats")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::BranchKind;

    /// Memory with fixed latencies and perfect icache.
    struct FixedMem {
        load_latency: u64,
        store_latency: u64,
        loads: u64,
        stores: u64,
    }

    impl FixedMem {
        fn new(load_latency: u64, store_latency: u64) -> Self {
            FixedMem {
                load_latency,
                store_latency,
                loads: 0,
                stores: 0,
            }
        }
    }

    impl MemoryInterface for FixedMem {
        fn ifetch(&mut self, now: Cycle, _addr: Addr) -> Cycle {
            now + 1
        }
        fn load(&mut self, now: Cycle, _addr: Addr, _ex: bool) -> Cycle {
            self.loads += 1;
            now + self.load_latency
        }
        fn store(&mut self, now: Cycle, _addr: Addr) -> Cycle {
            self.stores += 1;
            now + self.store_latency
        }
        fn dcbz(&mut self, now: Cycle, _addr: Addr) -> Cycle {
            now + self.store_latency
        }
    }

    fn run(core: &mut Core, mem: &mut dyn MemoryInterface, src: &mut dyn UopSource, cycles: u64) {
        for c in 0..cycles {
            core.tick(Cycle(c), mem, src);
        }
    }

    /// Straight-line integer code: IPC limited by the 2 integer ALUs.
    #[test]
    fn int_alu_throughput_limited_by_fus() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(pc, UopKind::IntAlu)
        };
        run(&mut core, &mut mem, &mut src, 1000);
        let ipc = core.stats().ipc();
        assert!(
            (1.7..=2.05).contains(&ipc),
            "expected ~2 IPC (2 int ALUs), got {ipc:.3}"
        );
    }

    /// Independent loads overlap: with a 1-cycle L1, IPC is port-limited.
    #[test]
    fn independent_loads_are_port_limited() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(
                pc,
                UopKind::Load {
                    addr: Addr(pc * 8),
                    store_intent: false,
                },
            )
        };
        run(&mut core, &mut mem, &mut src, 1000);
        let ipc = core.stats().ipc();
        assert!(
            (0.85..=1.05).contains(&ipc),
            "expected ~1 IPC (1 mem port), got {ipc:.3}"
        );
    }

    /// Long-latency independent loads overlap up to the ROB limit.
    #[test]
    fn mlp_hides_some_miss_latency() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(100, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(
                pc,
                UopKind::Load {
                    addr: Addr(pc * 128),
                    store_intent: false,
                },
            )
        };
        run(&mut core, &mut mem, &mut src, 5000);
        // Serial execution would give IPC = 1/100; overlap must beat that
        // by an order of magnitude (LSQ=32 entries, 1 port).
        let ipc = core.stats().ipc();
        assert!(ipc > 0.1, "expected MLP > 10x serial, got IPC {ipc:.4}");
    }

    /// Dependent loads (pointer chasing) serialize on the load latency.
    #[test]
    fn dependent_loads_serialize() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(50, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop {
                pc,
                kind: UopKind::Load {
                    addr: Addr(pc * 128),
                    store_intent: false,
                },
                dep_dist: 1,
            }
        };
        run(&mut core, &mut mem, &mut src, 10_000);
        let ipc = core.stats().ipc();
        assert!(
            ipc < 0.025,
            "chained 50-cycle loads must serialize, got IPC {ipc:.4}"
        );
    }

    /// Load MSHRs bound outstanding load-line parallelism.
    #[test]
    fn load_mshrs_bound_mlp() {
        let mut wide = CoreConfig::paper_default();
        wide.load_mshrs = 16;
        let mut narrow = CoreConfig::paper_default();
        narrow.load_mshrs = 2;
        let run_ipc = |cfg: CoreConfig| {
            let mut core = Core::new(cfg);
            let mut mem = FixedMem::new(100, 1);
            let mut pc = 0u64;
            let mut src = move || {
                pc += 4;
                Uop::simple(
                    pc,
                    UopKind::Load {
                        addr: Addr(pc * 128),
                        store_intent: false,
                    },
                )
            };
            run(&mut core, &mut mem, &mut src, 5000);
            core.stats().ipc()
        };
        let wide_ipc = run_ipc(wide);
        let narrow_ipc = run_ipc(narrow);
        assert!(
            wide_ipc > narrow_ipc * 2.0,
            "16 MSHRs ({wide_ipc:.3}) should far outrun 2 ({narrow_ipc:.3})"
        );
    }

    /// Loads to an in-flight line merge onto the primary miss.
    #[test]
    fn secondary_load_misses_merge() {
        struct CountingMem(u64);
        impl MemoryInterface for CountingMem {
            fn ifetch(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 1
            }
            fn load(&mut self, now: Cycle, _a: Addr, _e: bool) -> Cycle {
                self.0 += 1;
                now + 200
            }
            fn store(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 1
            }
            fn dcbz(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 1
            }
        }
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = CountingMem(0);
        let mut pc = 0u64;
        // All loads hit the same line: one memory request serves many.
        let mut src = move || {
            pc += 4;
            Uop::simple(
                pc,
                UopKind::Load {
                    addr: Addr(0x1000 + (pc % 16)),
                    store_intent: false,
                },
            )
        };
        run(&mut core, &mut mem, &mut src, 2000);
        assert!(core.stats().loads > 50);
        assert!(
            mem.0 * 4 < core.stats().loads,
            "{} memory loads for {} executed loads",
            mem.0,
            core.stats().loads
        );
    }

    /// Mispredicted branches cost pipeline refills.
    #[test]
    fn mispredictions_reduce_ipc() {
        let mut well_predicted = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            if pc.is_multiple_of(20) {
                Uop::simple(
                    0x1000, // same PC: trains perfectly, always taken
                    UopKind::Branch {
                        kind: BranchKind::Conditional,
                        taken: true,
                    },
                )
            } else {
                Uop::simple(pc, UopKind::IntAlu)
            }
        };
        run(&mut well_predicted, &mut mem, &mut src, 2000);

        let mut badly_predicted = Core::new(CoreConfig::paper_default());
        let mut mem2 = FixedMem::new(1, 1);
        let mut pc2 = 0u64;
        let mut toggle = 0u64;
        // Pseudo-random outcomes at one PC defeat gshare.
        let mut src2 = move || {
            pc2 += 4;
            if pc2.is_multiple_of(20) {
                toggle = toggle.wrapping_mul(6364136223846793005).wrapping_add(1);
                Uop::simple(
                    0x1000,
                    UopKind::Branch {
                        kind: BranchKind::Conditional,
                        taken: (toggle >> 33) & 1 == 1,
                    },
                )
            } else {
                Uop::simple(pc2, UopKind::IntAlu)
            }
        };
        run(&mut badly_predicted, &mut mem2, &mut src2, 2000);

        assert!(
            well_predicted.stats().ipc() > badly_predicted.stats().ipc() * 1.2,
            "well: {:.3}, badly: {:.3}",
            well_predicted.stats().ipc(),
            badly_predicted.stats().ipc()
        );
    }

    /// Slow stores eventually backpressure commit through the store buffer.
    #[test]
    fn store_buffer_backpressure() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 200);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(
                pc,
                UopKind::Store {
                    addr: Addr(pc * 128),
                },
            )
        };
        run(&mut core, &mut mem, &mut src, 20_000);
        let ipc = core.stats().ipc();
        // With 4 write MSHRs and 200-cycle stores, throughput is bounded
        // near 4/200 = 0.02 IPC.
        assert!(ipc < 0.035, "store stream must be MSHR-bound, got {ipc:.4}");
        assert!(core.stats().store_buffer_stall_cycles > 0);
    }

    /// Same-line stores merge in the store buffer when it backs up.
    #[test]
    fn same_line_stores_merge() {
        let mut cfg = CoreConfig::paper_default();
        cfg.store_mshrs = 1; // force queueing so merging can happen
        let mut core = Core::new(cfg);
        let mut mem = FixedMem::new(1, 50);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(pc, UopKind::Store { addr: Addr(64) }) // all one line
        };
        run(&mut core, &mut mem, &mut src, 5000);
        // Far fewer memory stores than committed store instructions.
        assert!(
            mem.stores * 4 < core.stats().stores,
            "{} memory stores vs {} committed",
            mem.stores,
            core.stats().stores
        );
    }

    /// Instruction-cache stalls throttle fetch.
    #[test]
    fn icache_misses_stall_fetch() {
        struct SlowIMem;
        impl MemoryInterface for SlowIMem {
            fn ifetch(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 30
            }
            fn load(&mut self, now: Cycle, _a: Addr, _e: bool) -> Cycle {
                now + 1
            }
            fn store(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 1
            }
            fn dcbz(&mut self, now: Cycle, _a: Addr) -> Cycle {
                now + 1
            }
        }
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = SlowIMem;
        let mut pc = 0u64;
        // Jump a line every instruction: every fetch misses.
        let mut src = move || {
            pc += 64;
            Uop::simple(pc, UopKind::IntAlu)
        };
        run(&mut core, &mut mem, &mut src, 3000);
        let ipc = core.stats().ipc();
        assert!(
            ipc < 0.06,
            "every-line icache miss must crush IPC, got {ipc:.3}"
        );
        assert!(core.stats().fetch_stall_cycles > 2000);
    }

    /// A full ROB throttles dispatch: long-latency producers with many
    /// dependents bound the in-flight window.
    #[test]
    fn rob_capacity_bounds_inflight_window() {
        let mut small = CoreConfig::paper_default();
        small.rob = 8;
        let big = CoreConfig::paper_default();
        let ipc_with = |cfg: CoreConfig| {
            let mut core = Core::new(cfg);
            let mut mem = FixedMem::new(120, 1);
            let mut pc = 0u64;
            let mut src = move || {
                pc += 4;
                Uop::simple(
                    pc,
                    UopKind::Load {
                        addr: Addr(pc * 128),
                        store_intent: false,
                    },
                )
            };
            run(&mut core, &mut mem, &mut src, 6000);
            core.stats().ipc()
        };
        let small_ipc = ipc_with(small);
        let big_ipc = ipc_with(big);
        assert!(
            big_ipc > small_ipc * 1.5,
            "64-entry ROB ({big_ipc:.3}) should beat 8-entry ({small_ipc:.3})"
        );
    }

    /// Branch kinds train the call/return stack through the uop stream.
    #[test]
    fn calls_and_returns_flow_through_pipeline() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut i = 0u64;
        let mut src = move || {
            i += 1;
            let pc = i * 4;
            match i % 10 {
                3 => Uop::simple(
                    pc,
                    UopKind::Branch {
                        kind: BranchKind::Call,
                        taken: true,
                    },
                ),
                7 => Uop::simple(
                    pc,
                    UopKind::Branch {
                        kind: BranchKind::Return,
                        taken: true,
                    },
                ),
                _ => Uop::simple(pc, UopKind::IntAlu),
            }
        };
        run(&mut core, &mut mem, &mut src, 3000);
        assert!(core.committed() > 1000);
        assert!(core.branch_predictor().predictions() > 100);
        // RAS-covered returns predict well; rate stays moderate.
        assert!(core.stats().ipc() > 0.4, "ipc {:.3}", core.stats().ipc());
    }

    /// dcbz ops flow through the store buffer like stores.
    #[test]
    fn dcbz_ops_commit_through_store_buffer() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 5);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            if pc.is_multiple_of(40) {
                Uop::simple(
                    pc,
                    UopKind::Dcbz {
                        addr: Addr(pc * 64),
                    },
                )
            } else {
                Uop::simple(pc, UopKind::IntAlu)
            }
        };
        run(&mut core, &mut mem, &mut src, 2000);
        assert!(core.stats().dcbz_ops > 10, "{}", core.stats().dcbz_ops);
    }

    /// Mixed FP workloads exercise the FP units without starving.
    #[test]
    fn fp_heavy_mix_is_fp_unit_limited() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut pc = 0u64;
        let mut src = move || {
            pc += 4;
            Uop::simple(
                pc,
                if pc.is_multiple_of(2) {
                    UopKind::FpAlu
                } else {
                    UopKind::FpMult
                },
            )
        };
        run(&mut core, &mut mem, &mut src, 4000);
        // 1 FP ALU + 1 FP mult, both 4-cycle latency but pipelined via
        // per-cycle FU counters: throughput near 2/cycle is impossible;
        // at least well above serial.
        let ipc = core.stats().ipc();
        assert!(ipc > 0.4, "fp mix ipc {ipc:.3}");
    }

    /// The quiesced predicate reflects drained state.
    #[test]
    fn quiesce_after_drain() {
        let mut core = Core::new(CoreConfig::paper_default());
        let mut mem = FixedMem::new(1, 1);
        let mut fed = 0;
        let mut src = move || {
            fed += 1;
            Uop::simple(fed * 4, UopKind::IntAlu)
        };
        // Run a bit, then stop feeding by never calling tick again.
        run(&mut core, &mut mem, &mut src, 100);
        assert!(!core.quiesced(Cycle(0)) || core.committed() > 0);
    }
}
