//! A small fixed std-only hasher for integer-keyed hot-path maps.
//!
//! `std`'s default `SipHash` is keyed per process to resist hash flooding.
//! The workspace's hot maps are keyed by amplitudes, interned ids and
//! automaton state ids of circuits under analysis, never by untrusted
//! input, and on them hashing dominates once the surrounding arithmetic is
//! cheap.  [`FixedHasher`] folds each word in with one 64×64→128-bit
//! multiply whose halves are XORed, so every input bit reaches the low bits
//! `HashMap` indexes its buckets by.
//!
//! Measured on a 2-core VM: the increment8 hunt row (hunt and
//! confirmation) took ~1.1 s with it and ~1.75 s with `SipHash` keying the
//! state-pair maps of its tagged products.  The sparse simulator no longer
//! hashes basis indices at all: its states are sorted runs, and each gate
//! is one merge pass over them.
//!
//! # Examples
//!
//! ```
//! use autoq_amplitude::hash::{FixedMap, FixedSet};
//!
//! let mut map: FixedMap<u128, u32> = FixedMap::default();
//! map.insert(1 << 100, 7);
//! assert_eq!(map[&(1 << 100)], 7);
//!
//! let mut set: FixedSet<u64> = FixedSet::default();
//! assert!(set.insert(42) && !set.insert(42));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FixedHasher`].
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

/// A `HashSet` hashed by [`FixedHasher`].
pub type FixedSet<K> = HashSet<K, BuildHasherDefault<FixedHasher>>;

/// The fixed multiply-fold hasher (see the [module docs](self)).
///
/// It is keyed by a constant, not per process, so it must not hash
/// attacker-chosen keys.
#[derive(Clone, Copy, Debug)]
pub struct FixedHasher(u64);

impl FixedHasher {
    /// 2^64 divided by the golden ratio, made odd.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Default for FixedHasher {
    fn default() -> Self {
        // The fractional bits of π, so that zero words do not fold to zero.
        FixedHasher(0x243f_6a88_85a3_08d3)
    }
}

impl Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    // Slice length prefixes and enum discriminants arrive as `usize`/`isize`;
    // folding them as one word keeps them off the byte-chunk `write`.
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut hasher = FixedHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn hashing_is_fixed_and_spreads_into_the_low_bits() {
        assert_eq!(hash_of(5u64), hash_of(5u64));
        assert_ne!(hash_of(0u64), 0);
        // Keys differing only in high bits (packed state pairs, wide basis
        // indices) must still land in different low-bit buckets.
        let buckets: HashSet<u64> = (0..64u64).map(|i| hash_of(i << 32) & 0xff).collect();
        assert!(buckets.len() > 32, "only {} of 64 buckets", buckets.len());
        assert_ne!(hash_of(1u128 << 100), hash_of(1u128 << 101));
    }

    #[test]
    fn word_sized_integers_fold_as_one_u64() {
        for n in [0usize, 1, 7, usize::MAX] {
            assert_eq!(hash_of(n), hash_of(n as u64));
        }
        for n in [0isize, 3, -1, isize::MIN] {
            assert_eq!(hash_of(n), hash_of(n as u64));
        }
    }
}
