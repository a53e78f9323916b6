//! The 300-seed networked equivalence suite: the optimized engine
//! (Arc-interned broadcasts, persistent `MpView` snapshots, dense
//! `AckTally` bitmasks, tombstone inboxes) must be *bit-equal* to the
//! in-tree naive baselines (`broadcast_cloning`, `local_view_rebuild`,
//! `acks_hashmap`) on every observable: append and read outcomes, settled
//! views, total message counts, and the full `NetStats` delivery trace.
//!
//! Both runs share one seed, so any divergence — an extra RNG draw, a
//! reordered delivery, a changed seq number — fails loudly. This is the
//! acceptance gate that lets the naive paths serve as the benchmark
//! baselines: they are provably the same algorithm, differing only in
//! memory behaviour.

use am_mp::{Delivery, MpError, MpMsg, MpSystem, Payload};
use am_net::{LatencyModel, NetConfig, SimNet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Everything observable about one scripted run.
#[derive(Debug, PartialEq)]
struct Observed {
    appends: Vec<Result<MpMsg, MpError>>,
    reads: Vec<Result<Vec<MpMsg>, MpError>>,
    views: Vec<Vec<MpMsg>>,
    total_sent: u64,
    /// The full `NetStats` (trace, per-link and per-kind counters) in
    /// Debug form — any divergence in network behaviour shows up here.
    stats: String,
}

fn faulty_net(n: usize, seed: u64) -> SimNet<Payload> {
    NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 1_000 })
        .drop(0.08)
        .dup(0.1)
        .reorder(0.3)
        .build()
        .expect("valid config")
        .build_net(n, seed ^ 0x5ca1_ab1e)
}

/// One seed-derived script: appends, reads, and pause/resume churn under
/// Random delivery (the path that takes from arbitrary inbox positions).
fn run(seed: u64, naive: bool) -> Observed {
    let mut script_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let n = 4 + (seed % 3) as usize; // 4..=6 nodes
    let mut sys = MpSystem::with_transport(faulty_net(n, seed), &[], seed);
    sys.set_naive(naive);
    sys.set_delivery(Delivery::Random);

    let mut appends = Vec::new();
    let mut reads = Vec::new();
    let mut paused: Option<usize> = None;
    for _ in 0..14 {
        match script_rng.gen_range(0..10u32) {
            0..=4 => {
                let node = script_rng.gen_range(0..n);
                let value = script_rng.gen_range(-1..=1i8);
                appends.push(sys.append(node, value));
            }
            5..=7 => {
                let node = script_rng.gen_range(0..n);
                reads.push(sys.read(node).map(|v| v.to_vec()));
            }
            8 => {
                // Pause one node (never more: the majority quorum must
                // stay reachable so the script exercises progress, not
                // just stalls).
                if paused.is_none() {
                    let node = script_rng.gen_range(0..n);
                    sys.pause(node);
                    paused = Some(node);
                }
            }
            _ => {
                if let Some(node) = paused.take() {
                    sys.resume(node);
                }
            }
        }
    }
    if let Some(node) = paused {
        sys.resume(node);
    }
    sys.settle();

    let views = (0..n).map(|v| sys.local_view(v).to_vec()).collect();
    let total_sent = sys.total_sent();
    let stats = format!("{:?}", sys.transport().stats());
    Observed {
        appends,
        reads,
        views,
        total_sent,
        stats,
    }
}

#[test]
fn optimized_engine_is_bit_equal_to_naive_baselines_across_300_seeds() {
    for seed in 0..300u64 {
        let fast = run(seed, false);
        let naive = run(seed, true);
        assert_eq!(
            fast, naive,
            "optimized engine diverged from naive baselines at seed {seed}"
        );
    }
}
