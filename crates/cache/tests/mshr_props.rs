//! Property suite for the MSHR file: random operation sequences checked
//! against a naive reference model.

use cgct_cache::{LineAddr, MshrFile, MshrId};
use cgct_sim::check::check;
use cgct_sim::rng::Xoshiro256pp;
use cgct_sim::Cycle;

/// The obviously-correct reference: one optional `(line, fill)` per
/// register, allocated first-free. No occupancy counter, no cached
/// minimum — just the architectural contract.
struct Reference {
    slots: Vec<Option<(u64, u64)>>,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference {
            slots: vec![None; capacity],
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(l, f)| (i, l, f)))
    }

    /// A miss for `line` filling at `fill`: merge if tracked (the
    /// tracked fill wins), allocate the first free register if there is
    /// one, refuse otherwise. Returns the register used.
    fn miss(&mut self, line: u64, fill: u64) -> Option<usize> {
        if let Some((i, _, _)) = self.live().find(|&(_, l, _)| l == line) {
            return Some(i);
        }
        let i = self.slots.iter().position(Option::is_none)?;
        self.slots[i] = Some((line, fill));
        Some(i)
    }
}

/// Cross-checks every observable of the real file against the reference.
fn assert_agrees(m: &MshrFile, r: &Reference, step: usize) {
    let live: Vec<_> = r.live().collect();
    assert_eq!(m.in_use(), live.len(), "step {step}: in_use");
    assert_eq!(
        m.is_full(),
        live.len() == r.slots.len(),
        "step {step}: is_full"
    );
    for &(i, line, fill) in &live {
        let id = m
            .find(LineAddr(line))
            .unwrap_or_else(|| panic!("step {step}: line {line} lost"));
        assert_eq!(id, MshrId(i), "step {step}: register index");
        assert_eq!(m.line(id), LineAddr(line), "step {step}: line accessor");
        assert_eq!(m.fill(id), Cycle(fill), "step {step}: fill");
    }
    let earliest = live.iter().map(|&(_, _, f)| f).min().map(Cycle);
    assert_eq!(m.next_fill(), earliest, "step {step}: next_fill");
}

/// One random op: a miss to a line from a small pool (forcing merges and
/// capacity pressure), a completion of a random tracked line, or a
/// retirement of every fill due by a random time.
fn random_step(g: &mut Xoshiro256pp, m: &mut MshrFile, r: &mut Reference, step: usize) {
    let live: Vec<_> = r.live().collect();
    match g.gen_range(0u32..4) {
        0 if !live.is_empty() => {
            let (i, line, fill) = live[g.gen_range(0..live.len())];
            r.slots[i] = None;
            let id = m.find(LineAddr(line)).expect("tracked line has a slot");
            assert_eq!(
                m.complete(id),
                (LineAddr(line), Cycle(fill)),
                "step {step}: completed"
            );
            assert_eq!(m.find(LineAddr(line)), None, "step {step}: slot freed");
        }
        1 => {
            let now = g.gen_range(0u64..400);
            for s in &mut r.slots {
                if s.is_some_and(|(_, f)| f <= now) {
                    *s = None;
                }
            }
            let rest = r.live().map(|(_, _, f)| f).min().map(Cycle);
            assert_eq!(m.retire_filled(Cycle(now)), rest, "step {step}: retire");
        }
        _ => {
            let line = g.gen_range(0u64..12);
            let fill = g.gen_range(0u64..400);
            let had_slot = m.find(LineAddr(line));
            let want = r.miss(line, fill);
            match had_slot {
                // Merge-on-match: a tracked line never allocates a second
                // register, it shares the existing fill.
                Some(id) => assert_eq!(Some(id.0), want, "step {step}: merged"),
                // Capacity refusal: allocation fails exactly when the
                // file is full, and otherwise takes the first free slot.
                None => assert_eq!(
                    m.allocate(LineAddr(line), Cycle(fill)).map(|id| id.0),
                    want,
                    "step {step}: allocation"
                ),
            }
        }
    }
}

#[test]
fn random_sequences_match_the_reference_model() {
    check("mshr matches reference", 256, |g| {
        let capacity = g.gen_range(1usize..6);
        let mut m = MshrFile::new(capacity);
        let mut r = Reference::new(capacity);
        let steps = g.gen_range(10usize..120);
        for step in 0..steps {
            random_step(g, &mut m, &mut r, step);
            assert_agrees(&m, &r, step);
        }
    });
}

#[test]
fn snapshots_round_trip_mid_sequence() {
    use cgct_sim::{Json, Snap};
    check("mshr snapshot round trip", 64, |g| {
        let capacity = g.gen_range(1usize..6);
        let mut m = MshrFile::new(capacity);
        let mut r = Reference::new(capacity);
        for step in 0..g.gen_range(1usize..60) {
            random_step(g, &mut m, &mut r, step);
        }
        let dump = m.snap().dump();
        let mut back = MshrFile::unsnap(&Json::parse(&dump).unwrap()).unwrap();
        assert_eq!(back.snap().dump(), dump);
        // The restored file keeps behaving like the reference.
        for step in 0..20 {
            random_step(g, &mut back, &mut r, step);
            assert_agrees(&back, &r, step);
        }
    });
}

#[test]
fn slots_recycle_under_sustained_pressure() {
    check("mshr slot recycling", 64, |g| {
        let mut m = MshrFile::new(2);
        for round in 0..g.gen_range(3usize..20) {
            let a = m
                .allocate(LineAddr(round as u64 * 2), Cycle(0))
                .expect("slot");
            let b = m
                .allocate(LineAddr(round as u64 * 2 + 1), Cycle(1))
                .expect("slot");
            assert!(m.is_full());
            assert_eq!(
                m.allocate(LineAddr(999), Cycle(2)),
                None,
                "full file refuses"
            );
            m.complete(a);
            m.complete(b);
            assert_eq!(m.in_use(), 0, "all slots recycled");
        }
    });
}
