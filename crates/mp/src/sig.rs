//! Simulated unforgeable signatures.
//!
//! Section 4 assumes "the nodes sign their messages and … these signatures
//! cannot be forged". The proofs only use one property: a Byzantine node
//! cannot fabricate a message that verifies as coming from a correct node.
//! A keyed 64-bit MAC (SplitMix64 over a per-node secret and the content
//! hash) provides exactly that property inside the simulator: secrets live
//! in the [`KeyRing`]; Byzantine code never sees them, so the best forgery
//! is a blind 64-bit guess, which tests treat as impossible.

use am_core::splitmix::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A 64-bit message authentication tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

/// FNV-1a over a byte slice, for content hashing.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Holds every node's signing secret. Only the ring can sign; verification
/// is public.
pub struct KeyRing {
    secrets: Vec<u64>,
}

impl KeyRing {
    /// Generates `n` independent secrets from a seed.
    pub fn new(n: usize, seed: u64) -> KeyRing {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        KeyRing {
            secrets: (0..n).map(|_| rng.gen()).collect(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Signs `content` as node `author`. Only the simulator's trusted path
    /// calls this for correct nodes; Byzantine code signs only its own id.
    pub fn sign(&self, author: usize, content: u64) -> Signature {
        Signature(splitmix64(self.secrets[author] ^ splitmix64(content)))
    }

    /// Verifies that `sig` is `author`'s signature over `content`. An
    /// `author` the ring has no key for (it comes off the wire) verifies
    /// nothing.
    pub fn verify(&self, author: usize, content: u64, sig: Signature) -> bool {
        author < self.secrets.len() && self.sign(author, content) == sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let ring = KeyRing::new(4, 42);
        assert_eq!(ring.len(), 4);
        assert!(!ring.is_empty());
        let c = content_hash(b"hello");
        let s = ring.sign(2, c);
        assert!(ring.verify(2, c, s));
    }

    #[test]
    fn wrong_author_fails() {
        let ring = KeyRing::new(4, 42);
        let c = content_hash(b"hello");
        let s = ring.sign(2, c);
        assert!(!ring.verify(1, c, s));
        assert!(!ring.verify(3, c, s));
        assert!(!ring.verify(4, c, s), "no key, no signature");
    }

    #[test]
    fn wrong_content_fails() {
        let ring = KeyRing::new(4, 42);
        let s = ring.sign(0, content_hash(b"aaa"));
        assert!(!ring.verify(0, content_hash(b"aab"), s));
    }

    #[test]
    fn blind_forgery_fails() {
        let ring = KeyRing::new(4, 42);
        let c = content_hash(b"target");
        // A Byzantine guess without the secret.
        for guess in 0..1000u64 {
            assert!(!ring.verify(0, c, Signature(guess)) || ring.sign(0, c) == Signature(guess));
        }
        // The real tag is astronomically unlikely to be < 1000; check it
        // verifies and nothing else did.
        let real = ring.sign(0, c);
        assert!(ring.verify(0, c, real));
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyRing::new(2, 1);
        let b = KeyRing::new(2, 2);
        let c = content_hash(b"x");
        assert_ne!(a.sign(0, c), b.sign(0, c));
    }

    #[test]
    fn content_hash_distinguishes() {
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_eq!(content_hash(b"same"), content_hash(b"same"));
    }
}
