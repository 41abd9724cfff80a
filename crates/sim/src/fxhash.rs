//! The Fx hash: the multiply-rotate hash of rustc's `FxHasher`, for maps
//! keyed by ids the simulator itself issues.
//!
//! It costs a handful of cycles per 8 bytes and one multiply per integer,
//! where the standard library's SipHash spends tens. It is unkeyed, so keys
//! crafted to collide would make a map quadratic: use it only where the keys
//! are not chosen by anyone the system should distrust — page, segment and
//! node ids, and the rows the simulated workloads generate. Iteration order
//! is a function of the keys and the insertion history, not of a per-process
//! seed, but it is still no order: a map that is iterated needs a sort or a
//! `BTreeMap` like any other (the `ordered-serialization` lint).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`]. The name keeps `HashMap` in it so
/// the `ordered-serialization` lint still recognises it.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate hasher (see the module docs for when to use it).
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in words.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.mix(u64::from_le_bytes(word));
        }
        let mut tail = [0u8; 8];
        let rest = words.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.mix(u64::from_le_bytes(tail) ^ rest.len() as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    use super::*;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn integers_take_one_mix_and_differ() {
        let mut h = FxHasher::default();
        h.write_u32(7);
        let mut g = FxHasher::default();
        g.mix(7);
        assert_eq!(h.finish(), g.finish());
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn byte_tails_of_different_lengths_differ() {
        assert_ne!(hash_of(&b"a".to_vec()), hash_of(&b"a\0".to_vec()));
        assert_ne!(hash_of(&vec![0u8; 8]), hash_of(&vec![0u8; 9]));
    }
}
