//! The integer hasher behind the simulator's internal maps.
//!
//! `SimNet`'s per-link maps and `am-mp`'s ack index are keyed by integers
//! the simulator itself makes up (directed-link ids, `(author, seq,
//! content)` triples), are looked up once or more per simulated message,
//! and are never iterated unsorted — so SipHash's collision resistance
//! buys nothing there and its ~20 ns per lookup is most of the lookup.
//! [`IntHasher`] is one multiply and one xor-shift per integer written,
//! with no per-process key: the same keys land in the same buckets in
//! every run. `am-node`'s mempool keys its author table by it too: the
//! request API is served in-process, so its clients are part of the
//! program. The hasher is invertible, so a client could pick authors
//! that share a bucket; a front end that takes requests from outside the
//! program would key that table by the default hasher again.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` over [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Multiply-xorshift over the integers a key writes (Fibonacci hashing,
/// folded so both the table's bucket bits and its tag bits are mixed).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        let z = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = z ^ (z >> 32);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Keys here are integers; anything else is folded a word at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn dense_link_keys_spread_over_buckets_and_tags() {
        // The keys SimNet makes: (from << 32) | to over a 64-node mesh.
        // hashbrown takes the bucket from the low bits and the tag from
        // the top seven; neither may collapse.
        let keys = (0..64u64).flat_map(|from| (0..64u64).map(move |to| (from << 32) | to));
        let hashes: Vec<u64> = keys.map(hash_of).collect();
        let distinct = |f: fn(u64) -> u64| hashes.iter().map(|&h| f(h)).collect::<HashSet<u64>>();
        assert_eq!(distinct(|h| h).len(), 4096, "full hashes collide");
        assert!(distinct(|h| h & 0xfff).len() > 2400, "low 12 bits clump");
        assert_eq!(distinct(|h| h >> 57).len(), 128, "tag bits unused");
    }

    #[test]
    fn same_key_same_hash_and_tuple_fields_all_count() {
        assert_eq!(hash_of((3usize, 7u64, 9u64)), hash_of((3usize, 7u64, 9u64)));
        let base = hash_of((3usize, 7u64, 9u64));
        assert_ne!(base, hash_of((4usize, 7u64, 9u64)));
        assert_ne!(base, hash_of((3usize, 8u64, 9u64)));
        assert_ne!(base, hash_of((3usize, 7u64, 10u64)));
        assert_ne!(hash_of(*b"abcdefghi"), hash_of(*b"abcdefghj"));
    }
}
