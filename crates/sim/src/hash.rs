//! Deterministic, seed-free hashing for reproducible data structures.
//!
//! `std`'s default hasher is randomly seeded per process, so the
//! iteration order of a `HashMap` — and anything derived from it —
//! varies run to run. Most of the workspace avoids that by never
//! iterating hash maps on result-affecting paths, but the model checker
//! (`cgct-verify`) and the property harness want hashing that is
//! *stable across processes*: identical inputs must explore identical
//! orders and print identical diagnostics.
//!
//! This module provides FNV-1a (the same function the property harness
//! uses to derive per-property seed streams) as a [`std::hash::Hasher`],
//! plus map/set aliases built on it. Byte strings hash as plain FNV-1a;
//! integer keys take one multiply-xorshift step per 64-bit word instead
//! of eight byte steps, which is what hot `u64`/`u128`-keyed maps want.
//!
//! # Examples
//!
//! ```
//! use cgct_sim::hash::{fnv1a, StableHashSet};
//!
//! assert_eq!(fnv1a(b"region"), fnv1a(b"region"));
//! let mut seen: StableHashSet<u64> = StableHashSet::default();
//! assert!(seen.insert(42));
//! assert!(!seen.insert(42));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis (64-bit).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd multiplier with dense bits (2^64 / golden ratio) for the
/// word-at-a-time integer step: every input bit reaches the high half of
/// the product, and the xorshift folds it back into the low bits a hash
/// table indexes by.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a hasher. Deterministic: no per-process seed.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(WORD_MUL);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
}

/// Builds [`Fnv1a`] hashers; usable as a `HashMap`/`HashSet` hasher.
pub type BuildFnv1a = BuildHasherDefault<Fnv1a>;

/// A `HashMap` with process-independent (FNV-1a) hashing.
#[allow(clippy::disallowed_types)] // clippy mirror of the cgct-lint allow below
                                   // cgct-lint: allow(D002) this alias IS the sanctioned deterministic wrapper the rule points everyone at
pub type StableHashMap<K, V> = std::collections::HashMap<K, V, BuildFnv1a>;

/// A `HashSet` with process-independent (FNV-1a) hashing.
#[allow(clippy::disallowed_types)] // clippy mirror of the cgct-lint allow below
                                   // cgct-lint: allow(D002) this alias IS the sanctioned deterministic wrapper the rule points everyone at
pub type StableHashSet<T> = std::collections::HashSet<T, BuildFnv1a>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Seed streams, result-cache keys and digests are built on these
    /// outputs: they must never change.
    #[test]
    fn byte_string_outputs_are_pinned() {
        assert_eq!(fnv1a(b"region"), 0xc755_a623_f50a_24dd);
        assert_eq!(fnv1a(b"mshr matches reference"), 0x9848_4542_dc52_6c2b);
        assert_eq!(fnv1a(&[0u8; 8]), 0xa8c7_f832_281a_39c5);
        assert_eq!(fnv1a(&7919u64.to_le_bytes()), 0x80bf_c6d0_9d82_4b60);
    }

    #[test]
    fn integer_keys_hash_a_word_at_a_time() {
        use std::hash::Hash;
        let hash = |k: &dyn Fn(&mut Fnv1a)| {
            let mut h = Fnv1a::default();
            k(&mut h);
            h.finish()
        };
        // Deterministic, distinct from the byte-wise path, and spread
        // into the low bits even for aligned keys.
        let a = hash(&|h| 0x1000u64.hash(h));
        assert_eq!(a, hash(&|h| 0x1000u64.hash(h)));
        assert_ne!(a, fnv1a(&0x1000u64.to_le_bytes()));
        let low: StableHashSet<u64> = (0..64u64)
            .map(|i| hash(&|h| (i << 12).hash(h)) & 0x3f)
            .collect();
        assert!(low.len() > 32, "aligned keys collide in the low bits");
        let wide = hash(&|h| (1u128 << 100).hash(h));
        assert_ne!(wide, hash(&|h| 0u128.hash(h)));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn map_and_set_work_with_integer_keys() {
        let mut m: StableHashMap<u64, &str> = StableHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let s: StableHashSet<u32> = (0..100).collect();
        assert_eq!(s.len(), 100);
    }
}
