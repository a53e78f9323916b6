//! Shared fixtures for the benchmark suite, and the perf ledger's writer.
//!
//! The benches (one per experiment family, plus the DESIGN.md ablations)
//! live in `benches/`; this crate hosts the reusable history builders, so
//! the fixtures stay identical across bench targets, and the
//! [`recorder`] every recorded lane writes `BENCH_TRAJECTORY.json`
//! through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use am_core::{AppendMemory, MessageBuilder, MsgId, NodeId, Value, GENESIS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub mod recorder;
pub mod trajectory;

/// Builds a linear chain of `len` blocks authored round-robin by `n` nodes.
pub fn chain_history(n: usize, len: usize) -> AppendMemory {
    let mem = AppendMemory::new(n);
    let mut tip = GENESIS;
    for i in 0..len {
        tip = mem
            .append(MessageBuilder::new(NodeId((i % n) as u32), Value::plus()).parent(tip))
            .unwrap();
    }
    mem
}

/// Builds a bushy random DAG: each append references 1–3 uniformly random
/// prior messages. Deterministic per seed.
pub fn dag_history(n: usize, len: usize, seed: u64) -> AppendMemory {
    let mem = AppendMemory::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..len {
        let cur = mem.len() as u64;
        let parents: Vec<MsgId> = (0..rng.gen_range(1..=3usize))
            .map(|_| MsgId(rng.gen_range(0..cur)))
            .collect();
        mem.append(MessageBuilder::new(NodeId((i % n) as u32), Value::plus()).parents(parents))
            .unwrap();
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::check_view;

    #[test]
    fn fixtures_are_valid_histories() {
        let c = chain_history(4, 50);
        assert_eq!(c.len(), 51);
        assert!(check_view(&c.read(), true).is_empty());
        let d = dag_history(4, 50, 1);
        assert_eq!(d.len(), 51);
        assert!(check_view(&d.read(), true).is_empty());
    }

    #[test]
    fn dag_fixture_deterministic() {
        let a = dag_history(4, 30, 7).read();
        let b = dag_history(4, 30, 7).read();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.parents, y.parents);
        }
    }
}
