//! A fast, deterministic hash map for integer-like keys.
//!
//! This is the FxHash algorithm used by rustc (a multiply-xor mix), written
//! here so the workspace has no extra hashing dependency. It is *not* HashDoS
//! resistant; keys in this codebase are entity handles and part ids produced
//! by our own algorithms, so speed and determinism win. Determinism matters:
//! distributed tests assert exact results, so iteration-independent code paths
//! plus a fixed seed keep runs reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (a.k.a. the Firefox hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        // Process 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MeshEnt;

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<MeshEnt, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(MeshEnt::vertex(i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&MeshEnt::vertex(123)], 246);
        assert!(!m.contains_key(&MeshEnt::edge(123)));
    }

    #[test]
    fn hash_is_deterministic() {
        let h = |x: u64| {
            let mut s = FxHasher::default();
            s.write_u64(x);
            s.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn byte_stream_matches_tail_handling() {
        // Hashing [1,2,3] must differ from [1,2,3,0] despite zero-padding
        // internally? It does not need to (length is not mixed), but the same
        // input must always agree with itself and short inputs must hash.
        let h = |b: &[u8]| {
            let mut s = FxHasher::default();
            s.write(b);
            s.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]));
        assert_ne!(h(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), h(&[1, 2, 3]));
    }
}
