//! The 300-seed networked pin suite: every observable of a scripted ABD
//! run over a faulty `SimNet` — append and read outcomes, settled views,
//! total message counts, and the full `NetStats` in Debug form — hashed
//! (FNV-1a) ten seeds to a row.
//!
//! The rows were recorded at commit `38356ab`, the last one to carry the
//! deep-clone broadcast (`Transport::broadcast_cloning`), the per-read
//! view rebuild (`MpSystem::local_view_rebuild`) and the
//! `HashMap<_, HashSet<_>>` ack tally behind `MpSystem::set_naive`. This
//! file's `run` was executed there twice per seed, once with
//! `sys.set_naive(true)` after construction and once without, the two
//! `Observed` values were asserted equal for all 300 seeds, and the rows
//! printed by
//!
//! ```text
//! cargo test --release -p am-mp --test naive_equiv -- --nocapture
//! ```
//!
//! are the table below. So a row that moves means the shipped engine no
//! longer behaves as both of those did — an extra RNG draw, a reordered
//! delivery, a changed seq number, a different `NetStats` layout. On a
//! mismatch the test prints the recomputed table in source form.

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
fn run(seed: u64) -> Observed {
    let mut script_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let n = 4 + (seed % 3) as usize; // 4..=6 nodes
    let mut sys = MpSystem::with_transport(faulty_net(n, seed), &[], seed);
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
    let got: Vec<(String, u64)> = (0..30u64)
        .map(|block| {
            let seeds = block * 10..block * 10 + 10;
            let label = format!("seeds/{:03}-{:03}", seeds.start, seeds.end - 1);
            let hash = seeds.fold(0xcbf2_9ce4_8422_2325u64, |h, seed| {
                let h = format!("{:?}", run(seed))
                    .bytes()
                    .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
                (h ^ 0xff).wrapping_mul(0x0100_0000_01b3) // separator
            });
            (label, hash)
        })
        .collect();
    let moved: Vec<&str> = got
        .iter()
        .zip(PINS)
        .filter(|((label, hash), (l, h))| label != l || hash != h)
        .map(|((label, _), _)| label.as_str())
        .collect();
    if !moved.is_empty() || got.len() != PINS.len() {
        let mut table = String::new();
        for (label, hash) in &got {
            table.push_str(&format!("    (\"{label}\", 0x{hash:016x}),\n"));
        }
        panic!("fingerprints moved for {moved:?}\nrecomputed rows:\n{table}");
    }
}

/// Recorded at `38356ab` with both modes asserted equal (see the header).
const PINS: &[(&str, u64)] = &[
    ("seeds/000-009", 0xa5a61a20c38ef0b5),
    ("seeds/010-019", 0x1423d879f480b42a),
    ("seeds/020-029", 0x0b84571b120cd7e8),
    ("seeds/030-039", 0xe779e3018db28d59),
    ("seeds/040-049", 0x50eb98c26c3bf6c7),
    ("seeds/050-059", 0xd9ac34c87106deb9),
    ("seeds/060-069", 0xc9aaa3c23ebbf350),
    ("seeds/070-079", 0xfea600be5da834c6),
    ("seeds/080-089", 0x95e9be890f870998),
    ("seeds/090-099", 0xe9d80944b216842d),
    ("seeds/100-109", 0x4d13f7e0a43e8859),
    ("seeds/110-119", 0x42b050f4b2a87ec3),
    ("seeds/120-129", 0x2b3e13598088d1c1),
    ("seeds/130-139", 0x2699c3a4ee254d52),
    ("seeds/140-149", 0xd070b0522f8c413e),
    ("seeds/150-159", 0x01faab798fbd6189),
    ("seeds/160-169", 0x767074a14eb8edc9),
    ("seeds/170-179", 0xedc2a18daed3badb),
    ("seeds/180-189", 0x8db023eea6de01fd),
    ("seeds/190-199", 0xca9d6181b066941f),
    ("seeds/200-209", 0xe848fcfae24a1ba1),
    ("seeds/210-219", 0x9cff068229bdad07),
    ("seeds/220-229", 0x318553fc7ca0ac37),
    ("seeds/230-239", 0xf299dbbca7e64a53),
    ("seeds/240-249", 0x75530466a60dc2e0),
    ("seeds/250-259", 0xe754a1442e5dd057),
    ("seeds/260-269", 0x4fbe859b3747daf1),
    ("seeds/270-279", 0x38369937fb0018e7),
    ("seeds/280-289", 0x9bc14d4a630cf4a6),
    ("seeds/290-299", 0x3862c8ce61cf1140),
];
