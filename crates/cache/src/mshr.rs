//! Miss Status Holding Registers.
//!
//! MSHRs bound the number of outstanding misses per cache and merge
//! secondary misses to a line already being fetched, which is what lets the
//! out-of-order cores overlap multiple memory requests (MLP).

use crate::addr::LineAddr;
use cgct_sim::Cycle;
use cgct_trace::{EventKind, TraceEvent, TraceSink, UNKEYED};

/// Identifier of an allocated MSHR slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(pub usize);

/// A file of MSHRs, each tracking one outstanding line miss and the cycle
/// its fill arrives. A secondary miss to the same line merges by sharing
/// that fill time; nothing else about it needs recording.
///
/// # Examples
///
/// ```
/// use cgct_cache::{LineAddr, MshrFile};
/// use cgct_sim::Cycle;
///
/// let mut m = MshrFile::new(2);
/// let id = m.allocate(LineAddr(5), Cycle(100)).expect("free slot");
/// assert_eq!(m.find(LineAddr(5)), Some(id));
/// assert_eq!(m.fill(id), Cycle(100));
/// assert_eq!(m.complete(id), (LineAddr(5), Cycle(100)));
/// assert_eq!(m.find(LineAddr(5)), None);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    slots: Vec<Option<(LineAddr, Cycle)>>,
    /// Bit `i` is set exactly when slot `i` is occupied, so lookups and
    /// retirement visit only occupied registers and the full check is
    /// one compare.
    occupied: u64,
}

/// The most registers one file holds: one bit of the occupancy mask each.
const MAX_REGISTERS: usize = 64;

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above 64.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one register");
        assert!(
            capacity <= MAX_REGISTERS,
            "MSHR file holds at most {MAX_REGISTERS} registers, not {capacity}"
        );
        MshrFile {
            slots: vec![None; capacity],
            occupied: 0,
        }
    }

    /// The occupied slot indices, in ascending order.
    fn occupied_slots(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.occupied;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                i
            })
        })
    }

    /// The `(line, fill)` of occupied slot `i`.
    fn occupant(&self, i: usize) -> (LineAddr, Cycle) {
        // cgct-lint: allow(D006) `occupied` marks exactly the slots that hold Some; fail-stop on a broken mask
        self.slots[i].expect("occupied slot")
    }

    /// Total number of registers.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of registers in use.
    pub fn in_use(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Whether every register is occupied.
    pub fn is_full(&self) -> bool {
        self.in_use() == self.slots.len()
    }

    /// Returns the MSHR already tracking `line`, if any (a secondary miss
    /// should merge into it rather than allocate).
    pub fn find(&self, line: LineAddr) -> Option<MshrId> {
        self.occupied_slots()
            .find(|&i| self.occupant(i).0 == line)
            .map(MshrId)
    }

    /// Allocates the first free register for a primary miss to `line`
    /// whose fill arrives at `fill`. Returns `None` when the file is full
    /// (the miss must stall).
    pub fn allocate(&mut self, line: LineAddr, fill: Cycle) -> Option<MshrId> {
        debug_assert!(self.find(line).is_none(), "line {line} already has an MSHR");
        let idx = (!self.occupied).trailing_zeros() as usize;
        if idx >= self.slots.len() {
            return None;
        }
        self.slots[idx] = Some((line, fill));
        self.occupied |= 1 << idx;
        Some(MshrId(idx))
    }

    fn slot(&self, id: MshrId) -> (LineAddr, Cycle) {
        // cgct-lint: allow(D006) MshrId is a capability handed out by allocate(); an invalid id is a protocol bug and must fail-stop
        self.slots[id.0].expect("MSHR not allocated")
    }

    /// The line a register is tracking.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn line(&self, id: MshrId) -> LineAddr {
        self.slot(id).0
    }

    /// The fill time of a register, which secondary misses share.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn fill(&self, id: MshrId) -> Cycle {
        self.slot(id).1
    }

    /// Completes the miss: frees the register and returns its line and
    /// fill time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not allocated.
    pub fn complete(&mut self, id: MshrId) -> (LineAddr, Cycle) {
        let slot = self.slot(id);
        self.slots[id.0] = None;
        self.occupied &= !(1 << id.0);
        slot
    }

    /// Frees every register whose fill has arrived by `now` and returns
    /// the earliest fill still outstanding, if any.
    pub fn retire_filled(&mut self, now: Cycle) -> Option<Cycle> {
        let mut next = None;
        let mut mask = self.occupied;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let (_, fill) = self.occupant(i);
            if fill <= now {
                self.slots[i] = None;
                self.occupied &= !(1 << i);
            } else if next.is_none_or(|n| fill < n) {
                next = Some(fill);
            }
        }
        next
    }

    /// The earliest fill time across all allocated registers — the next
    /// cycle at which this file releases a miss; `None` when no miss is
    /// outstanding.
    pub fn next_fill(&self) -> Option<Cycle> {
        self.occupied_slots().map(|i| self.occupant(i).1).min()
    }

    /// [`MshrFile::find`] that, on a merge hit, records the merge and
    /// the remaining wait (`fill - now`) for the secondary access in
    /// `sink`. Tracing is observation only.
    pub fn find_merge_traced(
        &self,
        line: LineAddr,
        node: u8,
        now: Cycle,
        sink: &mut dyn TraceSink,
    ) -> Option<MshrId> {
        let id = self.find(line)?;
        sink.record(TraceEvent {
            node,
            seq: UNKEYED,
            cycle: now.0,
            kind: EventKind::MshrMerge {
                line: line.0,
                wait: self.fill(id).0.saturating_sub(now.0),
            },
        });
        Some(id)
    }

    /// [`MshrFile::allocate`] that records the allocation in `sink`.
    pub fn allocate_traced(
        &mut self,
        line: LineAddr,
        fill: Cycle,
        node: u8,
        now: Cycle,
        sink: &mut dyn TraceSink,
    ) -> Option<MshrId> {
        let id = self.allocate(line, fill)?;
        sink.record(TraceEvent {
            node,
            seq: UNKEYED,
            cycle: now.0,
            kind: EventKind::MshrAlloc { line: line.0 },
        });
        Some(id)
    }
}

impl cgct_sim::Snap for MshrFile {
    /// Slots serialize positionally (`null` for a free register), so
    /// first-free allocation and merge lookup replay identically after
    /// restore. Each occupied slot keeps the `waiters` list shape of
    /// earlier versions, holding exactly the fill time.
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::Array(
            self.slots
                .iter()
                .map(|s| match s {
                    None => Json::Null,
                    Some((line, fill)) => Json::obj([
                        ("line", Json::u64(line.0)),
                        ("waiters", Json::Array(vec![fill.snap()])),
                    ]),
                })
                .collect(),
        )
    }

    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        use cgct_sim::Json;
        let items = elements(v)?;
        if items.is_empty() {
            return Err("MSHR file needs at least one register".to_string());
        }
        if items.len() > MAX_REGISTERS {
            return Err(format!(
                "MSHR file holds at most {MAX_REGISTERS} registers, snapshot has {}",
                items.len()
            ));
        }
        let mut m = MshrFile::new(items.len());
        for (i, s) in items.iter().enumerate() {
            if matches!(s, Json::Null) {
                continue;
            }
            // Only the primary waiter — the fill time — was ever read;
            // merged waiters of older snapshots carry nothing else.
            let waiters: Vec<Cycle> = unsnap_field(s, "waiters")?;
            let Some(&fill) = waiters.first() else {
                return Err(format!("slot [{i}] has no fill time"));
            };
            let line = LineAddr(field(s, "line")?.as_u64().ok_or("line must be u64")?);
            m.slots[i] = Some((line, fill));
            m.occupied |= 1 << i;
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(3);
        for i in 0..3 {
            assert!(m.allocate(LineAddr(i), Cycle(i)).is_some());
        }
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr(99), Cycle(9)), None);
        assert_eq!(m.in_use(), 3);
    }

    #[test]
    fn secondary_misses_share_the_fill() {
        let mut m = MshrFile::new(2);
        let id = m.allocate(LineAddr(7), Cycle(40)).unwrap();
        assert_eq!(m.find(LineAddr(7)), Some(id));
        assert_eq!(m.fill(id), Cycle(40));
        assert_eq!(m.complete(id), (LineAddr(7), Cycle(40)));
        assert_eq!(m.in_use(), 0);
        assert_eq!(m.find(LineAddr(7)), None);
    }

    #[test]
    fn slots_are_reusable_after_completion() {
        let mut m = MshrFile::new(1);
        let id = m.allocate(LineAddr(1), Cycle(1)).unwrap();
        m.complete(id);
        assert!(m.allocate(LineAddr(2), Cycle(2)).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn rejects_zero_capacity() {
        let _ = MshrFile::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 64 registers")]
    fn rejects_more_registers_than_the_occupancy_mask_holds() {
        let _ = MshrFile::new(65);
    }

    #[test]
    fn the_widest_file_fills_every_register() {
        let mut m = MshrFile::new(64);
        for i in 0..64 {
            assert_eq!(
                m.allocate(LineAddr(i), Cycle(i + 1)),
                Some(MshrId(i as usize))
            );
        }
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr(99), Cycle(9)), None);
        assert_eq!(m.find(LineAddr(63)), Some(MshrId(63)));
        assert_eq!(m.retire_filled(Cycle(63)), Some(Cycle(64)));
        assert_eq!(m.in_use(), 1);
    }

    #[test]
    fn snapshot_wider_than_the_mask_is_an_error() {
        use cgct_sim::{Json, Snap};
        let wide = Json::Array(vec![Json::Null; 65]);
        let err = MshrFile::unsnap(&wide).unwrap_err();
        assert!(err.contains("at most 64"), "{err}");
    }

    #[test]
    fn line_accessor() {
        let mut m = MshrFile::new(2);
        let id = m.allocate(LineAddr(42), Cycle(5)).unwrap();
        assert_eq!(m.line(id), LineAddr(42));
    }

    #[test]
    fn next_fill_is_earliest() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_fill(), None);
        let a = m.allocate(LineAddr(1), Cycle(300)).unwrap();
        m.allocate(LineAddr(2), Cycle(200)).unwrap();
        assert_eq!(m.next_fill(), Some(Cycle(200)));
        let b = m.find(LineAddr(2)).unwrap();
        m.complete(b);
        assert_eq!(m.next_fill(), Some(Cycle(300)));
        m.complete(a);
        assert_eq!(m.next_fill(), None);
    }

    #[test]
    fn retire_filled_frees_due_slots_and_reports_the_rest() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr(1), Cycle(300)).unwrap();
        m.allocate(LineAddr(2), Cycle(200)).unwrap();
        m.allocate(LineAddr(3), Cycle(250)).unwrap();
        assert_eq!(m.retire_filled(Cycle(199)), Some(Cycle(200)));
        assert_eq!(m.in_use(), 3);
        assert_eq!(m.retire_filled(Cycle(250)), Some(Cycle(300)));
        assert_eq!(m.in_use(), 1);
        assert_eq!(m.find(LineAddr(1)), Some(MshrId(0)));
        // The first free slot is reused.
        assert_eq!(m.allocate(LineAddr(4), Cycle(400)), Some(MshrId(1)));
        assert_eq!(m.retire_filled(Cycle(400)), None);
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn snapshot_keeps_the_waiters_shape_and_reads_merged_waiters() {
        use cgct_sim::{Json, Snap};
        let mut m = MshrFile::new(3);
        m.allocate(LineAddr(9), Cycle(500)).unwrap();
        m.allocate(LineAddr(4), Cycle(80)).unwrap();
        m.complete(MshrId(0));
        let dump = m.snap().dump();
        assert_eq!(dump, r#"[null,{"line":4,"waiters":[80]},null]"#);
        let back = MshrFile::unsnap(&Json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.snap().dump(), dump);
        // A snapshot with merged waiters restores to its primary fill.
        let old = Json::parse(r#"[{"line":7,"waiters":[120,95]},null]"#).unwrap();
        let restored = MshrFile::unsnap(&old).unwrap();
        assert_eq!(restored.fill(MshrId(0)), Cycle(120));
        assert!(MshrFile::unsnap(&Json::parse(r#"[{"line":7,"waiters":[]}]"#).unwrap()).is_err());
    }

    #[test]
    fn traced_variants_record_and_match_untraced() {
        let mut m = MshrFile::new(2);
        let mut sink = cgct_trace::TraceBuffer::new(16);
        let id = m
            .allocate_traced(LineAddr(9), Cycle(500), 3, Cycle(100), &mut sink)
            .unwrap();
        assert_eq!(m.find(LineAddr(9)), Some(id));
        let merged = m.find_merge_traced(LineAddr(9), 3, Cycle(140), &mut sink);
        assert_eq!(merged, Some(id));
        assert_eq!(
            m.find_merge_traced(LineAddr(8), 3, Cycle(141), &mut sink),
            None
        );
        let events: Vec<_> = sink.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::MshrAlloc { line: 9 });
        assert_eq!(events[0].cycle, 100);
        assert_eq!(events[1].kind, EventKind::MshrMerge { line: 9, wait: 360 });
    }
}
