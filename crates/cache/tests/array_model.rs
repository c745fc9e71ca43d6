//! Model-based property tests: `SetAssocArray` against a reference
//! implementation with explicit per-set LRU lists and way positions.

#![allow(clippy::disallowed_types)]
// ^ D002 mirror (clippy.toml): test code is exempt by policy

use cgct_cache::{LookupOutcome, SetAssocArray};
use cgct_sim::check::{check, gen_vec};
use cgct_sim::{Json, Snap, Xoshiro256pp};
use std::collections::HashMap;

/// Reference model: per-set vector of keys in LRU order (front = LRU),
/// plus the way each key occupies and its LRU stamp, so iteration order
/// and the positional snapshot can be predicted exactly.
struct Model {
    sets: usize,
    ways: usize,
    lru: HashMap<usize, Vec<u64>>,
    values: HashMap<u64, u32>,
    /// Per touched set, the key held by each way (`None` = free).
    slots: HashMap<usize, Vec<Option<u64>>>,
    /// Last-use stamp of each live key.
    stamps: HashMap<u64, u64>,
    /// Bumped by every insert and by every access that hits.
    clock: u64,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets,
            ways,
            lru: HashMap::new(),
            values: HashMap::new(),
            slots: HashMap::new(),
            stamps: HashMap::new(),
            clock: 0,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key as usize) % self.sets
    }

    fn touch(&mut self, key: u64) {
        let set = self.set_of(key);
        let order = self.lru.entry(set).or_default();
        if let Some(pos) = order.iter().position(|&k| k == key) {
            let k = order.remove(pos);
            order.push(k);
            self.clock += 1;
            self.stamps.insert(key, self.clock);
        }
    }

    fn insert(&mut self, key: u64, value: u32) -> Option<(u64, u32)> {
        self.clock += 1;
        self.stamps.insert(key, self.clock);
        let set = self.set_of(key);
        let order = self.lru.entry(set).or_default();
        if let Some(pos) = order.iter().position(|&k| k == key) {
            let k = order.remove(pos);
            order.push(k);
            return self.values.insert(key, value).map(|old| (key, old));
        }
        let slots = self
            .slots
            .entry(set)
            .or_insert_with(|| vec![None; self.ways]);
        let evicted = if order.len() == self.ways {
            // The LRU victim's way is reused in place.
            let victim = order.remove(0);
            let old = self.values.remove(&victim).expect("victim has value");
            self.stamps.remove(&victim);
            let way = slots.iter().position(|&s| s == Some(victim));
            slots[way.expect("victim has a way")] = Some(key);
            Some((victim, old))
        } else {
            // Otherwise the lowest free way.
            let way = slots.iter().position(Option::is_none);
            slots[way.expect("set has a free way")] = Some(key);
            None
        };
        order.push(key);
        self.values.insert(key, value);
        evicted
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let set = self.set_of(key);
        if let Some(order) = self.lru.get_mut(&set) {
            if let Some(pos) = order.iter().position(|&k| k == key) {
                order.remove(pos);
            }
        }
        if let Some(slot) = self
            .slots
            .get_mut(&set)
            .and_then(|slots| slots.iter_mut().find(|s| **s == Some(key)))
        {
            *slot = None;
        }
        self.stamps.remove(&key);
        self.values.remove(&key)
    }

    /// Live `(key, value)` pairs in set-major, way-minor order.
    fn positional_pairs(&self) -> Vec<(u64, u32)> {
        (0..self.sets)
            .filter_map(|set| self.slots.get(&set))
            .flatten()
            .flatten()
            .map(|k| (*k, self.values[k]))
            .collect()
    }

    /// The snapshot format: `sets x ways` ways in set-major order, `null`
    /// for a free way, else the tag, LRU stamp and entry.
    fn snap(&self) -> Json {
        let shift = self.sets.trailing_zeros();
        let storage = (0..self.sets)
            .flat_map(|set| {
                let free = vec![None; self.ways];
                self.slots.get(&set).unwrap_or(&free).clone()
            })
            .map(|slot| match slot {
                None => Json::Null,
                Some(k) => Json::obj([
                    ("t", Json::u64(k >> shift)),
                    ("u", Json::u64(self.stamps[&k])),
                    ("e", self.values[&k].snap()),
                ]),
            })
            .collect();
        Json::obj([
            ("sets", Json::u64(self.sets as u64)),
            ("ways", Json::u64(self.ways as u64)),
            ("clock", Json::u64(self.clock)),
            ("storage", Json::Array(storage)),
        ])
    }

    fn get(&self, key: u64) -> Option<u32> {
        self.values.get(&key).copied()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u32),
    Access(u64),
    Get(u64),
    Remove(u64),
}

fn gen_ops(g: &mut Xoshiro256pp, max_key: u64) -> Vec<Op> {
    gen_vec(g, 1..300, |g| {
        let k = g.gen_range(0..max_key);
        match g.gen_range(0u8..4) {
            0 => Op::Insert(k, g.next_u32()),
            1 => Op::Access(k),
            2 => Op::Get(k),
            _ => Op::Remove(k),
        }
    })
}

/// Runs `ops` on a real array and on the model, comparing every result,
/// then the final contents: their iteration order (set-major, way-minor,
/// for `iter` and `iter_mut` alike) and the positional snapshot, which
/// must also survive a restore byte-for-byte.
fn run_against_model(sets: usize, ways: usize, ops: Vec<Op>) {
    let mut real: SetAssocArray<u32> = SetAssocArray::new(sets, ways);
    let mut model = Model::new(sets, ways);
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                let a = real.insert_lru(k, v);
                let b = model.insert(k, v);
                assert_eq!(a, b, "insert({k}, {v})");
            }
            Op::Access(k) => {
                let a = real.access(k).copied();
                model.touch(k);
                let b = model.get(k);
                assert_eq!(a, b, "access({k})");
            }
            Op::Get(k) => {
                assert_eq!(real.get(k).copied(), model.get(k), "get({k})");
            }
            Op::Remove(k) => {
                assert_eq!(real.remove(k), model.get(k), "remove({k})");
                model.remove(k);
            }
        }
        assert_eq!(real.len(), model.values.len());
    }
    // Final contents agree, in order.
    let expect = model.positional_pairs();
    let real_pairs: Vec<(u64, u32)> = real.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(real_pairs, expect, "iter order");
    let real_pairs: Vec<(u64, u32)> = real.iter_mut().map(|(k, v)| (k, *v)).collect();
    assert_eq!(real_pairs, expect, "iter_mut order");
    let snap = real.snap().dump();
    assert_eq!(snap, model.snap().dump(), "positional snapshot");
    let restored = SetAssocArray::<u32>::unsnap(&real.snap()).expect("snapshot restores");
    assert_eq!(restored.snap().dump(), snap, "snapshot round trip");
}

#[test]
fn matches_reference_lru_model() {
    check("array_model::matches_reference_lru_model", 64, |g| {
        let sets_log = g.gen_range(0usize..4);
        let ways = g.gen_range(1usize..5);
        let ops = gen_ops(g, 64);
        run_against_model(1 << sets_log, ways, ops);
    });
}

/// Many sets, few of them touched, in scrambled order: most sets never
/// hold an entry, so their ways must still snapshot as `null` in place.
#[test]
fn sparse_array_matches_reference_lru_model() {
    check(
        "array_model::sparse_array_matches_reference_lru_model",
        32,
        |g| {
            let sets_log = g.gen_range(6usize..11);
            let ways = g.gen_range(1usize..5);
            let ops = gen_ops(g, 1 << 16);
            run_against_model(1 << sets_log, ways, ops);
        },
    );
}

/// A set drained by `remove` must behave exactly like a never-used set:
/// reinsertions take free ways (no phantom evictions), and the stale
/// tags the removed entries leave behind in their ways must never
/// produce a hit — neither for the removed key itself nor for a
/// different key whose tag happens to collide.
#[test]
fn insert_into_set_emptied_by_remove_uses_free_ways() {
    let mut a: SetAssocArray<u32> = SetAssocArray::new(4, 2);
    // Keys 1, 5, 9 all map to set 1 (tags 0, 1, 2).
    a.insert_lru(1, 10);
    a.insert_lru(5, 50);
    assert_eq!(a.remove(1), Some(10));
    assert_eq!(a.remove(5), Some(50));
    assert_eq!(a.len(), 0);
    assert_eq!(a.lookup(9), LookupOutcome::MissFree);
    // Stale tags are invisible to probes...
    assert!(!a.contains(1) && !a.contains(5));
    assert_eq!(a.get(1), None);
    assert_eq!(a.access(5), None);
    // ...and to insertion: both ways are free again, nothing is evicted.
    assert!(a.insert_lru(9, 90).is_none());
    assert!(a.insert_lru(1, 11).is_none());
    assert_eq!(a.len(), 2);
    assert_eq!(a.lookup(5), LookupOutcome::MissFull);
    assert_eq!(a.get(1), Some(&11));
    assert_eq!(a.get(9), Some(&90));
    assert!(!a.contains(5));
}

/// The branch-lean `find` fast path (tag compare first, validity only on
/// a tag match) must classify probes exactly like a naive scan of the
/// live contents — across hits, free-way misses, full-set misses, and
/// the stale-tag ways that removals leave behind.
#[test]
fn lookup_and_contains_match_naive_reference() {
    check(
        "array_model::lookup_and_contains_match_naive_reference",
        64,
        |g| {
            let sets = 1usize << g.gen_range(0usize..4);
            let ways = g.gen_range(1usize..5);
            let ops = gen_ops(g, 48);
            let mut real: SetAssocArray<u32> = SetAssocArray::new(sets, ways);
            // Naive reference: the live (key, value) pairs, scanned linearly.
            let mut naive: Vec<(u64, u32)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        // A replace-on-hit reports the key itself as the
                        // displaced pair, so a single retain covers both it
                        // and a genuine eviction.
                        if let Some((victim, _)) = real.insert_lru(k, v) {
                            naive.retain(|&(nk, _)| nk != victim);
                        }
                        naive.push((k, v));
                    }
                    Op::Access(k) => {
                        real.touch(k);
                    }
                    Op::Get(_) => {}
                    Op::Remove(k) => {
                        real.remove(k);
                        naive.retain(|&(nk, _)| nk != k);
                    }
                }
                // Probe every key in range, present or not: the fast path
                // and the naive scan must agree on all of them.
                for k in 0..48u64 {
                    let hit = naive.iter().any(|&(nk, _)| nk == k);
                    assert_eq!(real.contains(k), hit, "contains({k})");
                    let in_set = naive
                        .iter()
                        .filter(|&&(nk, _)| (nk as usize) % sets == (k as usize) % sets)
                        .count();
                    let want = if hit {
                        LookupOutcome::Hit
                    } else if in_set < ways {
                        LookupOutcome::MissFree
                    } else {
                        LookupOutcome::MissFull
                    };
                    assert_eq!(real.lookup(k), want, "lookup({k})");
                }
            }
        },
    );
}

#[test]
fn occupancy_never_exceeds_ways() {
    check("array_model::occupancy_never_exceeds_ways", 64, |g| {
        let ways = g.gen_range(1usize..4);
        let keys = gen_vec(g, 1..200, |g| g.gen_range(0u64..256));
        let mut a: SetAssocArray<()> = SetAssocArray::new(8, ways);
        for k in keys {
            a.insert_lru(k, ());
            for set_key in 0..8u64 {
                assert!(a.set_occupancy(set_key) <= ways);
            }
        }
        assert!(a.len() <= a.capacity());
    });
}
