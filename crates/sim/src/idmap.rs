//! [`IdMap`]: a `HashMap` with one fixed hasher, for the lookup tables the
//! frame path searches per hop (FDB, ARP, conntrack, sockets, timers).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`]: no per-process seed, and one
/// multiply-rotate per key word instead of SipHash's rounds.
///
/// For point lookups only. Its iteration order is the hasher's, so
/// `storm-lint`'s `no-hash-iter` rule tracks `IdMap` like `HashMap`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// An FxHash-style word hasher: each word is folded in as
/// `(hash.rotate_left(5) ^ word) * K`, and `finish` rotates the
/// well-mixed high bits down to where the table takes its bucket index.
///
/// Not collision-resistant: the keys it serves come from the simulator,
/// never from a tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_fixed_across_maps_and_keys_resolve() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one((7u32, 9u16)), build.hash_one((7u32, 9u16)));
        assert_ne!(build.hash_one(1u64), build.hash_one(2u64));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
        let mut m: IdMap<u32, u32> = IdMap::default();
        for i in 0..1_000 {
            m.insert(i, i * 2);
        }
        assert!((0..1_000).all(|i| m.get(&i) == Some(&(i * 2))));
        assert_eq!(m.get(&1_000), None);
    }
}
