//! A fast, non-cryptographic hasher for keys the program assigns itself.
//!
//! std's default `RandomState` (SipHash-1-3) resists hash flooding, which
//! matters when an adversary chooses the keys — document text, query
//! strings.  Node ids, interned-string symbols, plan node ids, document
//! indexes and the executor's typed `Key`s are handed out by the program,
//! so the fixpoint hot path hashes them with this multiply-rotate hasher
//! instead (the `FxHash` scheme of rustc, one multiply per word).  Maps
//! keyed by strings keep `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// The `BuildHasher` of [`FxHashMap`] / [`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Word-at-a-time multiply hasher; see the [module documentation](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the high bits best mixed; hash tables index
        // buckets by the low bits, so rotate the high bits down.
        self.hash.rotate_left(26)
    }
}
