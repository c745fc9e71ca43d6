//! A deterministic discrete-event queue.
//!
//! Events scheduled for the same timestamp are delivered in scheduling order
//! (FIFO), which keeps the simulation deterministic regardless of the
//! queue's internal layout.
//!
//! The queue is a timing wheel: one bucket per cycle over a fixed window
//! starting at the last delivery time, plus a min-heap ("spill") for any
//! event that falls outside the window. Scheduling, delivery and the
//! earliest-time query are O(1) amortized while events land in the wheel.
//! Wheel events live in one slab of linked entries with a free list: a
//! bucket is a `(head, tail, len)` chain through it, so retiring a bucket
//! and popping its head are O(1), and the slab holds no more entries than
//! were ever pending at once — a steady-state simulation schedules
//! without allocating.

use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles covered by the wheel. Events due at or after `base + WHEEL` (or
/// before `base`) go to the spill heap instead.
///
/// Sized from the memory system's completion latencies: on the paper's
/// machine at 4 and 16 nodes, perfbench's workloads schedule every event
/// less than 3,700 cycles after the last delivery, so none spills.
const WHEEL: usize = 4096;
/// Occupancy bitmap words (one bit per bucket).
const WORDS: usize = WHEEL / 64;
/// The null slab index: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// A time-ordered queue of simulation events.
///
/// `E` is the payload type; the queue imposes no trait bounds on it
/// (ordering uses only the timestamp and a monotonically increasing
/// sequence number).
///
/// # Examples
///
/// ```
/// use cgct_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(3), 'b');
/// q.schedule(Cycle(3), 'c'); // same time: FIFO order
/// q.schedule(Cycle(1), 'a');
/// assert_eq!(q.next_time(), Some(Cycle(1)));
/// assert_eq!(q.advance(Cycle(2)), 1); // delivers 'a'
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['b', 'c']);
/// assert_eq!(q.delivered(), 1); // `pop` hands events out; it does not count them
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `t % WHEEL` chains the slab entries due at cycle `t`, for
    /// `t` in `[base, base + WHEEL)`, in ascending `seq` order. Empty
    /// until the first event arrives, so building a machine that never
    /// runs allocates nothing here.
    wheel: Vec<Bucket>,
    /// Every wheel entry, pending or free. Free entries form a list from
    /// `free`; a retired entry keeps its payload until the slot is reused.
    slab: Vec<Slot<E>>,
    /// Head of the free list through `slab` (`NIL` when empty).
    free: u32,
    /// One bit per bucket, set while the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Start of the wheel's window. No wheel event is earlier; it follows
    /// [`EventQueue::advance`]'s `now` and the delivered head.
    base: u64,
    /// Events held by the wheel.
    wheel_len: usize,
    /// Earliest time held by the wheel (`u64::MAX` when it is empty).
    head: u64,
    /// Events outside the wheel's window, as a `(time, seq)` min-heap.
    spill: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Events retired by [`EventQueue::advance`] since the last
    /// [`EventQueue::reset_delivered`].
    delivered: u64,
}

/// One wheel bucket: a chain of `len` slab entries from `head` to `tail`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// A slab entry: a wheel event, or a free slot, linked by `next`.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
    next: u32,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(Cycle, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            base: 0,
            wheel_len: 0,
            head: u64::MAX,
            spill: BinaryHeap::new(),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, payload);
    }

    fn insert(&mut self, at: Cycle, seq: u64, payload: E) {
        // `u64::MAX` is the empty-wheel sentinel for `head`.
        if at.0 >= self.base && at.0 - self.base < WHEEL as u64 && at.0 != u64::MAX {
            if self.wheel.is_empty() {
                self.wheel = vec![EMPTY; WHEEL];
            }
            let idx = self.alloc(seq, payload);
            let slot = at.0 as usize % WHEEL;
            let bucket = &mut self.wheel[slot];
            if bucket.len == 0 {
                bucket.head = idx;
            } else {
                self.slab[bucket.tail as usize].next = idx;
            }
            bucket.tail = idx;
            bucket.len += 1;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
            self.head = self.head.min(at.0);
        } else {
            self.spill.push(Entry {
                key: Reverse((at, seq)),
                payload,
            });
        }
    }

    /// Stores one wheel event in a free slab slot, growing the slab only
    /// when none is free, and returns its index.
    ///
    /// # Panics
    ///
    /// Panics when the slab would need more than `u32::MAX - 1` entries.
    fn alloc(&mut self, seq: u64, payload: E) -> u32 {
        let entry = Slot {
            seq,
            payload: Some(payload),
            next: NIL,
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = entry;
            return idx;
        }
        let idx = match u32::try_from(self.slab.len()) {
            Ok(idx) if idx != NIL => idx,
            _ => panic!("event queue: more than {NIL} pending wheel events"),
        };
        self.slab.push(entry);
        idx
    }

    /// The earliest occupied wheel time at or after `base`, found from
    /// the occupancy bitmap (`u64::MAX` when the wheel is empty).
    fn scan_head(&self) -> u64 {
        if self.wheel_len == 0 {
            return u64::MAX;
        }
        let start = self.base as usize % WHEEL;
        let (w0, b0) = (start / 64, start % 64);
        // Bits at or after `start` in its own word, then the following
        // words in ring order, then the bits before `start`.
        let words = std::iter::once(self.occupied[w0] & (!0u64 << b0))
            .chain((1..WORDS).map(|k| self.occupied[(w0 + k) % WORDS]))
            .chain(std::iter::once(self.occupied[w0] & !(!0u64 << b0)));
        for (k, bits) in words.enumerate() {
            if bits != 0 {
                let slot = (w0 + k) % WORDS * 64 + bits.trailing_zeros() as usize;
                return self.base + ((slot + WHEEL - start) % WHEEL) as u64;
            }
        }
        unreachable!("wheel_len > 0 but no bucket is occupied")
    }

    /// Drops the events of the wheel's head bucket, splicing its chain
    /// onto the free list, and returns how many there were.
    fn retire_head(&mut self) -> u64 {
        let slot = self.head as usize % WHEEL;
        let bucket = std::mem::replace(&mut self.wheel[slot], EMPTY);
        self.slab[bucket.tail as usize].next = self.free;
        self.free = bucket.head;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let n = bucket.len as usize;
        self.wheel_len -= n;
        // Nothing pending in the wheel is earlier than the head, so the
        // window may start there; the scan then finds the next head.
        self.base = self.head;
        self.head = self.scan_head();
        n as u64
    }

    /// Delivers every event due at or before `now` and returns how many
    /// there were. Delivered events are dropped; [`EventQueue::delivered`]
    /// counts them.
    pub fn advance(&mut self, now: Cycle) -> u64 {
        let mut n = 0;
        while self.wheel_len > 0 && self.head <= now.0 {
            n += self.retire_head();
        }
        while self.spill.peek().is_some_and(|e| e.key.0 .0 <= now) {
            self.spill.pop();
            n += 1;
        }
        // Slide the window. Every wheel event is now later than `now`,
        // so all of them stay inside `[now, now + WHEEL)`.
        self.base = self.base.max(now.0);
        self.delivered += n;
        n
    }

    /// Removes and returns the earliest event, if any, without counting
    /// it as delivered.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let from_spill = match self.spill.peek() {
            None => false,
            Some(_) if self.wheel_len == 0 => true,
            Some(e) => {
                let first = self.wheel[self.head as usize % WHEEL].head;
                e.key.0 < (Cycle(self.head), self.slab[first as usize].seq)
            }
        };
        if from_spill {
            return self.spill.pop().map(|e| (e.key.0 .0, e.payload));
        }
        if self.wheel_len == 0 {
            return None;
        }
        let slot = self.head as usize % WHEEL;
        let bucket = &mut self.wheel[slot];
        let idx = bucket.head;
        let entry = &mut self.slab[idx as usize];
        bucket.head = entry.next;
        bucket.len -= 1;
        let emptied = bucket.len == 0;
        entry.next = self.free;
        self.free = idx;
        let payload = entry.payload.take();
        let t = Cycle(self.head);
        self.wheel_len -= 1;
        if emptied {
            *bucket = EMPTY;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.head = self.scan_head();
        }
        payload.map(|p| (t, p))
    }

    /// The timestamp of the earliest pending event.
    pub fn next_time(&self) -> Option<Cycle> {
        let spill = self.spill.peek().map_or(u64::MAX, |e| e.key.0 .0 .0);
        let t = self.head.min(spill);
        (t != u64::MAX).then_some(Cycle(t))
    }

    /// Events delivered by [`EventQueue::advance`] since the last
    /// [`EventQueue::reset_delivered`].
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Restarts the delivered count at zero (pending events stay queued).
    pub fn reset_delivered(&mut self) {
        self.delivered = 0;
    }

    /// Sets the delivered count — for restoring a snapshot, which carries
    /// the count separately from the pending events.
    pub fn set_delivered(&mut self, n: u64) {
        self.delivered = n;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.spill.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.wheel.fill(EMPTY);
        self.slab.clear();
        self.free = NIL;
        self.occupied = [0; WORDS];
        self.wheel_len = 0;
        self.head = u64::MAX;
        self.spill.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: crate::snap::Snap> crate::snap::Snap for EventQueue<E> {
    /// Pending entries are emitted sorted by `(time, seq)` — never in
    /// storage order — and each keeps its exact sequence number so FIFO
    /// tie-breaks replay identically after restore. The delivered count
    /// is not part of the snapshot; the owner records it.
    fn snap(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut entries: Vec<(u64, u64, &E)> = Vec::with_capacity(self.len());
        let start = self.base as usize % WHEEL;
        for (slot, bucket) in self.wheel.iter().enumerate() {
            let t = self.base + ((slot + WHEEL - start) % WHEEL) as u64;
            let mut idx = bucket.head;
            for _ in 0..bucket.len {
                let entry = &self.slab[idx as usize];
                if let Some(e) = &entry.payload {
                    entries.push((t, entry.seq, e));
                }
                idx = entry.next;
            }
        }
        entries.extend(
            self.spill
                .iter()
                .map(|e| (e.key.0 .0 .0, e.key.0 .1, &e.payload)),
        );
        entries.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        Json::obj([
            ("next_seq", Json::u64(self.next_seq)),
            (
                "entries",
                Json::Array(
                    entries
                        .iter()
                        .map(|&(t, seq, e)| {
                            Json::Array(vec![Json::u64(t), Json::u64(seq), e.snap()])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn unsnap(v: &crate::json::Json) -> Result<Self, String> {
        use crate::snap::{elements, field, unsnap_field};
        let mut q = EventQueue::new();
        q.next_seq = unsnap_field(v, "next_seq")?;
        let entries = elements(field(v, "entries")?)?;
        // Open the window at the earliest pending event, so a restored
        // queue keeps its near events in the wheel as the original did.
        if let Some(t) = entries
            .first()
            .and_then(|e| elements(e).ok()?.first()?.as_u64())
        {
            q.base = t;
        }
        let mut last = None;
        for (i, item) in entries.iter().enumerate() {
            let parts = elements(item)?;
            if parts.len() != 3 {
                return Err(format!("entry [{i}]: expected [time, seq, payload]"));
            }
            let at = Cycle(parts[0].as_u64().ok_or("entry time must be u64")?);
            let seq = parts[1].as_u64().ok_or("entry seq must be u64")?;
            if seq >= q.next_seq {
                return Err(format!("entry [{i}]: seq {seq} >= next_seq"));
            }
            // Sorted input keeps every wheel bucket in ascending seq order.
            if last.is_some_and(|prev| prev >= (at, seq)) {
                return Err(format!(
                    "entry [{i}]: entries must be sorted by (time, seq)"
                ));
            }
            last = Some((at, seq));
            let payload = E::unsnap(&parts[2]).map_err(|e| format!("entry [{i}]: {e}"))?;
            q.insert(at, seq, payload);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::snap::Snap;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn advance_delivers_everything_due_and_counts_it() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), 'x');
        q.schedule(Cycle(10), 'y');
        q.schedule(Cycle(3 * WHEEL as u64), 'z');
        assert_eq!(q.advance(Cycle(9)), 0);
        assert_eq!(q.advance(Cycle(10)), 2);
        assert_eq!(q.next_time(), Some(Cycle(3 * WHEEL as u64)));
        // An event scheduled behind the delivery point is still pending
        // and is the earliest.
        q.schedule(Cycle(4), 'w');
        assert_eq!(q.next_time(), Some(Cycle(4)));
        assert_eq!(q.advance(Cycle(10)), 1);
        assert_eq!(q.advance(Cycle(u64::MAX)), 1);
        assert_eq!(q.delivered(), 4);
        assert!(q.is_empty());
        q.reset_delivered();
        assert_eq!(q.delivered(), 0);
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(Cycle(7), ());
        assert_eq!(q.next_time(), Some(Cycle(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(1), 0u8);
        q.schedule(Cycle(2 * WHEEL as u64), 1u8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        assert_eq!(q.pop(), None);
    }

    /// A snapshot written by the binary-heap queue this wheel replaced
    /// restores, behaves, and re-serializes byte for byte.
    #[test]
    fn heap_era_snapshot_restores_byte_identically() {
        let text = r#"{"next_seq":6,"entries":[[12,1,2],[12,4,5],[40,0,1],[40,2,3],[5000,3,4]]}"#;
        let mut q: EventQueue<u64> = EventQueue::unsnap(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(q.snap().dump(), text);
        assert_eq!(q.len(), 5);
        // The window opens at the earliest entry: only the event beyond
        // it spills.
        assert_eq!((q.wheel_len, q.spill.len()), (4, 1));
        assert_eq!(q.next_time(), Some(Cycle(12)));
        assert_eq!(q.advance(Cycle(40)), 4);
        assert_eq!(q.next_time(), Some(Cycle(5000)));
        q.schedule(Cycle(41), 7);
        assert_eq!(q.pop(), Some((Cycle(41), 7)));
        assert_eq!(q.pop(), Some((Cycle(5000), 4)));
        let unsorted = r#"{"next_seq":6,"entries":[[40,0,1],[12,1,2]]}"#;
        assert!(EventQueue::<u64>::unsnap(&Json::parse(unsorted).unwrap()).is_err());
    }

    /// Retired and popped entries go back to the free list, so a long
    /// run with at most `N` events pending never grows the slab past `N`.
    #[test]
    fn slab_reuses_entries_in_steady_state() {
        const N: usize = 48;
        let mut q = EventQueue::new();
        for now in 0..20_000u64 {
            while q.len() < N {
                let at = now + 1 + (q.len() as u64 * 37 + now) % 64;
                q.schedule(Cycle(at), now);
            }
            if now % 5 == 0 {
                assert!(q.pop().is_some());
            }
            q.advance(Cycle(now));
            assert!(q.slab.len() <= N, "slab grew to {}", q.slab.len());
        }
        assert!(q.delivered() > 10_000);
        assert_eq!(q.spill.len(), 0);
    }

    /// Random sequences of every operation, checked against a sorted
    /// `Vec` of `(time, seq, payload)` — including events far beyond the
    /// wheel's window, events behind the delivery point, and snapshot
    /// round trips mid-sequence.
    #[test]
    fn matches_a_sorted_vec_reference() {
        use crate::check::check;

        check("event::matches_a_sorted_vec_reference", 256, |g| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            let (mut next_seq, mut delivered, mut now) = (0u64, 0u64, 0u64);
            for step in 0..g.gen_range(1usize..400) {
                match g.gen_range(0u32..10) {
                    0..=3 => {
                        let at = match g.gen_range(0u32..8) {
                            0 => now.saturating_sub(g.gen_range(0u64..50)),
                            1 => now + g.gen_range(WHEEL as u64 - 4..4 * WHEEL as u64),
                            _ => now + g.gen_range(0u64..64),
                        };
                        let payload = g.gen_range(0u64..1000);
                        q.schedule(Cycle(at), payload);
                        model.push((at, next_seq, payload));
                        next_seq += 1;
                    }
                    4 | 5 => {
                        now += match g.gen_range(0u32..6) {
                            0 => g.gen_range(0u64..3 * WHEEL as u64),
                            _ => g.gen_range(0u64..8),
                        };
                        let due = model.iter().filter(|e| e.0 <= now).count() as u64;
                        model.retain(|e| e.0 > now);
                        delivered += due;
                        assert_eq!(q.advance(Cycle(now)), due, "step {step}: advance");
                    }
                    6 => {
                        model.sort_unstable();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        let got = q.pop();
                        assert_eq!(got, want.map(|(t, _, p)| (Cycle(t), p)), "step {step}: pop");
                    }
                    7 => {
                        delivered = 0;
                        q.reset_delivered();
                    }
                    8 => {
                        let text = q.snap().dump();
                        let mut back: EventQueue<u64> =
                            EventQueue::unsnap(&Json::parse(&text).unwrap()).unwrap();
                        back.set_delivered(q.delivered());
                        assert_eq!(back.snap().dump(), text, "step {step}: round trip");
                        q = back;
                    }
                    _ => {}
                }
                let earliest = model.iter().map(|e| e.0).min().map(Cycle);
                assert_eq!(q.next_time(), earliest, "step {step}: next_time");
                assert_eq!(q.delivered(), delivered, "step {step}: delivered");
                assert_eq!(q.len(), model.len(), "step {step}: len");
            }
            // The snapshot lists exactly the model, in (time, seq) order.
            model.sort_unstable();
            let entries: Vec<String> = model
                .iter()
                .map(|(t, s, p)| format!("[{t},{s},{p}]"))
                .collect();
            let want = format!(
                r#"{{"next_seq":{next_seq},"entries":[{}]}}"#,
                entries.join(",")
            );
            assert_eq!(q.snap().dump(), want);
        });
    }
}
