//! A fast, deterministic hasher for the simulator's integer-keyed hot maps.
//!
//! The standard library's SipHash resists keys crafted to collide, which
//! costs tens of nanoseconds per lookup; the simulator's hot maps key by
//! session ids, job slots and block hashes that the program makes itself.
//! [`FxBuildHasher`] is the FxHash word mix (rotate, xor, multiply by an
//! odd constant): sequential ids spread over both the low bits hashbrown
//! indexes by and the top seven bits it keeps as the control byte.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`FxBuildHasher`]; build with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` under [`FxBuildHasher`]; build with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// Builds [`FxHasher`]s. Keep the default hasher for keys from outside
/// the program: this one is easy to collide on purpose.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash state: one word, mixed in per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_low_and_top_bits() {
        let b = FxBuildHasher::default();
        let hashes: Vec<u64> = (0u64..128).map(|i| b.hash_one(i)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 127).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(low.len(), 128, "low bits collide");
        // A pass-through hash would give all 128 the control byte 0.
        assert!(top.len() >= 48, "only {} distinct control bytes", top.len());
        assert_ne!(
            b.hash_one(7u64),
            7,
            "keys must be mixed, not passed through"
        );
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 3, i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&2997), Some(&999));
        assert!(!m.contains_key(&2998));
        let s: FxHashSet<usize> = (0..10).collect();
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
