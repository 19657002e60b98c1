//! A fast deterministic hasher for the engines' integer-keyed maps.
//!
//! The standard library's default hasher is SipHash behind a per-process
//! random seed — HashDoS-resistant, but several times slower than needed
//! for maps keyed by vertex-id pairs the workload controls anyway, and the
//! random seed makes iteration order differ between runs.  This is the
//! classic multiply-rotate scheme (the rustc "Fx" hash): one rotate, one
//! xor and one multiply per word, fully deterministic, so map iteration
//! order is a pure function of the insertion history.  Nothing in the
//! engines *relies* on that order (the determinism contract is enforced by
//! sorted structures, DESIGN.md §12) — but deterministic beats randomized
//! when reproducing a trace under a debugger.
//!
//! Not DoS-resistant; use only for keys the process itself generates.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over native words.  See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, `Default`-constructible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the fast deterministic hasher.  Construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `FxHashSet::with_capacity` (custom-hasher sets lack the inherent fn).
#[inline]
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_instances() {
        let a = FxBuildHasher::default().hash_one((17usize, 42usize));
        let b = FxBuildHasher::default().hash_one((17usize, 42usize));
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher::default().hash_one((42usize, 17usize)));
    }

    #[test]
    fn map_round_trips_pair_keys() {
        let mut m: FxHashMap<(usize, usize), u32> = FxHashMap::default();
        for u in 0..40usize {
            for v in u + 1..40 {
                m.insert((u, v), (u * 41 + v) as u32);
            }
        }
        for u in 0..40usize {
            for v in u + 1..40 {
                assert_eq!(m.get(&(u, v)), Some(&((u * 41 + v) as u32)));
            }
        }
        assert_eq!(m.len(), 40 * 39 / 2);
    }

    #[test]
    fn uneven_byte_tails_hash_differently() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefghi"), h(b"abcdefghj"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefghi"));
    }
}
