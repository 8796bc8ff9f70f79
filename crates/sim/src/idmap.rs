//! [`IdMap`]: the workspace's one hash map, lookup-only, for the tables the
//! frame path searches per hop (FDB, ARP, conntrack, sockets, timers) and
//! every other keyed table whose order nobody reads.
//!
//! `clippy.toml` bans `std::collections::{HashMap, HashSet}` everywhere
//! else: their iteration order is the hasher's, and a per-process seed in
//! that order would reach traces and metrics. `IdMap` cannot be iterated
//! in that order, so no caller can observe it, whichever hasher it uses.
#![expect(
    clippy::disallowed_types,
    reason = "the one wrapper around std's HashMap"
)]

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// A hash map with point operations only: `get`, `insert`, `remove`,
/// `entry` and friends, but no `iter`, `keys`, `values`, `drain` or
/// `retain`. [`IdMap::sorted`] is the whole-table view, in key order.
///
/// The hasher defaults to [`IdHasher`]: no per-process seed, and one
/// multiply-rotate per key word instead of SipHash's rounds. The other
/// tables name `std::hash::RandomState` and keep SipHash, whose collision
/// resistance the ones keyed by tenant-written values need.
#[derive(Clone)]
pub struct IdMap<K, V, S = BuildHasherDefault<IdHasher>>(HashMap<K, V, S>);

impl<K, V, S: Default> Default for IdMap<K, V, S> {
    fn default() -> Self {
        IdMap(HashMap::default())
    }
}

/// Prints the size only: the entries' order is the hasher's.
impl<K, V, S> fmt::Debug for IdMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdMap").field("len", &self.0.len()).finish()
    }
}

impl<K: Eq + Hash, V, S: BuildHasher> IdMap<K, V, S> {
    /// The value at `k`.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(k)
    }

    /// The stored key equal to `k`, and its value.
    pub fn get_key_value<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
    {
        self.0.get_key_value(k)
    }

    /// The value at `k`, mutably.
    pub fn get_mut<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(k)
    }

    /// Whether `k` has a value.
    pub fn contains_key<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(k)
    }

    /// Stores `v` at `k`, returning the value it replaces.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes and returns the value at `k`.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(k)
    }

    /// The slot at `k`, for in-place update or insertion.
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }
}

impl<K, V, S> IdMap<K, V, S> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Every entry, in key order: the one whole-table view, for tests
    /// and reports. It sorts, so keep it off per-frame paths.
    pub fn sorted(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut all: Vec<_> = self.0.iter().collect();
        all.sort_unstable_by(|a, b| a.0.cmp(b.0));
        all
    }
}

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
        assert_eq!(format!("{m:?}"), "IdMap { len: 1000 }");
    }
}
