//! Fingerprint table over every public trial entry point.
//!
//! The experiment goldens only cover the (kind, adversary, view policy,
//! network) combinations the ten golden experiments happen to sweep. This
//! suite pins the rest: every entry point × every adversary × both
//! [`ViewPolicy`]s × three network configurations (ideal mesh, 20 % drops
//! plus a partition window, a degree-8 relay overlay), each row an FNV-1a
//! hash over 100 seeds of the *full* trial struct (and the `NetStats` JSON
//! for networked runs). A refactor of the runners must leave every row
//! unchanged; on a mismatch the test prints the whole recomputed table in
//! source form.

use am_net::{LatencyModel, NetConfig, NetStats, Topology};
use am_protocols::{
    run_bft, run_bft_net_full, run_chain, run_chain_net, run_chain_staggered, run_dag,
    run_dag_multinode, run_dag_net, run_dag_staggered, BftAdversary, ChainAdversary, DagAdversary,
    DagRule, Params, TieBreak, ViewPolicy,
};
use std::fmt::Debug;

const SEEDS: u64 = 100;

const TIES: [TieBreak; 2] = [TieBreak::Deterministic, TieBreak::Randomized];
const CHAIN_ADVS: [ChainAdversary; 4] = [
    ChainAdversary::Absent,
    ChainAdversary::Dissenter,
    ChainAdversary::ForkMaker,
    ChainAdversary::TieBreaker,
];
const RULES: [DagRule; 3] = [DagRule::LongestChain, DagRule::Ghost, DagRule::Pivot];
const DAG_ADVS: [DagAdversary; 3] = [
    DagAdversary::Absent,
    DagAdversary::Dissenter,
    DagAdversary::WithholdBurst,
];
const BFT_ADVS: [BftAdversary; 4] = [
    BftAdversary::Absent,
    BftAdversary::Equivocator,
    BftAdversary::Withholder,
    BftAdversary::StaleMiner,
];
const POLICIES: [ViewPolicy; 2] = [ViewPolicy::IntervalSnapshot, ViewPolicy::LaggedDelta];
const TTL_FACTORS: [f64; 2] = [1.0, 4.0];

/// FNV-1a over the bytes of each absorbed string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3); // separator
    }

    fn trial(&mut self, t: &impl Debug) {
        self.absorb(&format!("{t:?}"));
    }

    fn stats(&mut self, s: &NetStats) {
        self.absorb(&serde_json::to_string(&s.to_json()).expect("stats render"));
    }
}

/// The three network configurations, labelled.
fn nets() -> [(&'static str, NetConfig); 3] {
    let ideal = NetConfig::ideal(LatencyModel::Constant(10_000_000));
    let lossy = NetConfig::builder()
        .latency(LatencyModel::Uniform {
            lo: 10_000_000,
            hi: 300_000_000,
        })
        .drop(0.2)
        .partition(2_000_000_000, 6_000_000_000)
        .build()
        .expect("valid lossy config");
    let relay = NetConfig::builder()
        .latency(LatencyModel::Constant(20_000_000))
        .topology(Topology::Relay { k: 8 })
        .build()
        .expect("valid relay config");
    [("ideal", ideal), ("lossy", lossy), ("relay8", relay)]
}

fn base(policy: ViewPolicy) -> Params {
    Params::new(10, 3, 0.5, 15, 0).with_view_policy(policy)
}

/// Hashes `f(seed)`'s absorbed output over all seeds into one row.
fn row(label: String, p: &Params, mut f: impl FnMut(&Params, &mut Fnv)) -> (String, u64) {
    let mut h = Fnv::new();
    for seed in 0..SEEDS {
        f(&p.with_seed(seed.wrapping_mul(0x9e37_79b9) ^ 0xa5), &mut h);
    }
    (label, h.0)
}

fn chain_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for policy in POLICIES {
        let p = base(policy);
        for tie in TIES {
            for adv in CHAIN_ADVS {
                rows.push(row(
                    format!("chain/{tie:?}/{adv:?}/{policy:?}"),
                    &p,
                    |p, h| h.trial(&run_chain(p, tie, adv)),
                ));
                for (net, cfg) in nets() {
                    rows.push(row(
                        format!("chain_net/{tie:?}/{adv:?}/{policy:?}/{net}"),
                        &p,
                        |p, h| {
                            let (t, s) = run_chain_net(p, tie, adv, &cfg);
                            h.trial(&t);
                            h.stats(&s);
                        },
                    ));
                }
            }
        }
    }
    rows
}

fn dag_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for policy in POLICIES {
        let p = base(policy);
        for rule in RULES {
            for adv in DAG_ADVS {
                rows.push(row(
                    format!("dag/{rule:?}/{adv:?}/{policy:?}"),
                    &p,
                    |p, h| h.trial(&run_dag(p, rule, adv)),
                ));
                for (net, cfg) in nets() {
                    rows.push(row(
                        format!("dag_net/{rule:?}/{adv:?}/{policy:?}/{net}"),
                        &p,
                        |p, h| {
                            let (t, s) = run_dag_net(p, rule, adv, &cfg);
                            h.trial(&t);
                            h.stats(&s);
                        },
                    ));
                }
            }
        }
    }
    rows
}

fn weak_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for policy in POLICIES {
        let p = base(policy);
        for ttl in TTL_FACTORS {
            for rule in RULES {
                rows.push(row(
                    format!("dag_staggered/{rule:?}/ttl{ttl}/{policy:?}"),
                    &p,
                    |p, h| h.trial(&run_dag_staggered(p, rule, ttl)),
                ));
                rows.push(row(
                    format!("dag_multinode/{rule:?}/ttl{ttl}/{policy:?}"),
                    &p,
                    |p, h| h.trial(&run_dag_multinode(p, rule, ttl)),
                ));
            }
            rows.push(row(
                format!("chain_staggered/ttl{ttl}/{policy:?}"),
                &p,
                |p, h| h.trial(&run_chain_staggered(p, ttl)),
            ));
        }
    }
    rows
}

fn bft_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for policy in POLICIES {
        // k = 7 keeps stalled (beyond-tolerance) trials inside a small
        // grant budget; n = 10, t = 3 is exactly at the quorum edge.
        let p = Params::new(10, 3, 0.5, 7, 0).with_view_policy(policy);
        for adv in BFT_ADVS {
            rows.push(row(format!("bft/{adv:?}/{policy:?}"), &p, |p, h| {
                h.trial(&run_bft(p, adv))
            }));
            for (net, cfg) in nets() {
                rows.push(row(
                    format!("bft_net/{adv:?}/{policy:?}/{net}"),
                    &p,
                    |p, h| {
                        let run = run_bft_net_full(p, adv, &cfg);
                        h.trial(&run.trial);
                        h.stats(&run.stats);
                        h.trial(&run.chains_at_gate);
                        h.trial(&run.chains_settled);
                        h.trial(&run.chains_healed);
                        h.trial(&run.digests_healed);
                        h.trial(&run.conflict_any);
                    },
                ));
            }
        }
    }
    rows
}

/// Checks `got` against the pinned rows whose label starts with one of
/// `families` (each family's label prefix up to the first `/`).
fn check(families: &[&str], got: Vec<(String, u64)>) {
    let family_of = |label: &str| label.split('/').next().unwrap_or("").to_string();
    let pinned = PINS
        .iter()
        .filter(|(l, _)| families.contains(&family_of(l).as_str()))
        .count();
    let moved: Vec<&str> = got
        .iter()
        .filter(|(label, hash)| !PINS.iter().any(|(l, h)| l == label && h == hash))
        .map(|(label, _)| label.as_str())
        .collect();
    if !moved.is_empty() || pinned != got.len() {
        let mut table = String::new();
        for (label, hash) in &got {
            table.push_str(&format!("    (\"{label}\", 0x{hash:016x}),\n"));
        }
        panic!(
            "{} pinned vs {} computed rows; fingerprints moved for {} row(s): {moved:?}\n\
             recomputed rows:\n{table}",
            pinned,
            got.len(),
            moved.len()
        );
    }
}

#[test]
fn chain_entry_points_match_their_pins() {
    check(&["chain", "chain_net"], chain_rows());
}

#[test]
fn dag_entry_points_match_their_pins() {
    check(&["dag", "dag_net"], dag_rows());
}

#[test]
fn weak_agreement_entry_points_match_their_pins() {
    check(
        &["dag_staggered", "dag_multinode", "chain_staggered"],
        weak_rows(),
    );
}

#[test]
fn bft_entry_points_match_their_pins() {
    check(&["bft", "bft_net"], bft_rows());
}

/// Recorded at the commit before the `GrantSchedule`/`Visibility` refactor.
const PINS: &[(&str, u64)] = &[
    (
        "chain/Deterministic/Absent/IntervalSnapshot",
        0x0d2adbf6b14fc393,
    ),
    (
        "chain_net/Deterministic/Absent/IntervalSnapshot/ideal",
        0x1d059ea7ad07b182,
    ),
    (
        "chain_net/Deterministic/Absent/IntervalSnapshot/lossy",
        0x8196ba29aa5016c1,
    ),
    (
        "chain_net/Deterministic/Absent/IntervalSnapshot/relay8",
        0x50ff41d61dbe737f,
    ),
    (
        "chain/Deterministic/Dissenter/IntervalSnapshot",
        0x95c0d7ea72009bd0,
    ),
    (
        "chain_net/Deterministic/Dissenter/IntervalSnapshot/ideal",
        0xc0594c777a44fae1,
    ),
    (
        "chain_net/Deterministic/Dissenter/IntervalSnapshot/lossy",
        0xa4730d936a62199a,
    ),
    (
        "chain_net/Deterministic/Dissenter/IntervalSnapshot/relay8",
        0xa204be32f8e41b6b,
    ),
    (
        "chain/Deterministic/ForkMaker/IntervalSnapshot",
        0x0964322cfe78c19e,
    ),
    (
        "chain_net/Deterministic/ForkMaker/IntervalSnapshot/ideal",
        0xeb28b00d6f849c47,
    ),
    (
        "chain_net/Deterministic/ForkMaker/IntervalSnapshot/lossy",
        0x30c59cf34fb9759a,
    ),
    (
        "chain_net/Deterministic/ForkMaker/IntervalSnapshot/relay8",
        0xae95ff23a4ec0490,
    ),
    (
        "chain/Deterministic/TieBreaker/IntervalSnapshot",
        0x6bb5460ee12a2bf0,
    ),
    (
        "chain_net/Deterministic/TieBreaker/IntervalSnapshot/ideal",
        0xd501ba863b405996,
    ),
    (
        "chain_net/Deterministic/TieBreaker/IntervalSnapshot/lossy",
        0x5241f4c8825cddbe,
    ),
    (
        "chain_net/Deterministic/TieBreaker/IntervalSnapshot/relay8",
        0x74c3b54172852dc7,
    ),
    (
        "chain/Randomized/Absent/IntervalSnapshot",
        0x0d2adbf6b14fc393,
    ),
    (
        "chain_net/Randomized/Absent/IntervalSnapshot/ideal",
        0x1d059ea7ad07b182,
    ),
    (
        "chain_net/Randomized/Absent/IntervalSnapshot/lossy",
        0xc0f360e279c16ae8,
    ),
    (
        "chain_net/Randomized/Absent/IntervalSnapshot/relay8",
        0x50ff41d61dbe737f,
    ),
    (
        "chain/Randomized/Dissenter/IntervalSnapshot",
        0x5c7bb751eb284615,
    ),
    (
        "chain_net/Randomized/Dissenter/IntervalSnapshot/ideal",
        0x412d5f7571c6dbfc,
    ),
    (
        "chain_net/Randomized/Dissenter/IntervalSnapshot/lossy",
        0x3aefb984e07aac1f,
    ),
    (
        "chain_net/Randomized/Dissenter/IntervalSnapshot/relay8",
        0x71edde632ac71378,
    ),
    (
        "chain/Randomized/ForkMaker/IntervalSnapshot",
        0x8e2ed568df6f7c0a,
    ),
    (
        "chain_net/Randomized/ForkMaker/IntervalSnapshot/ideal",
        0xc90ea6c3907aed20,
    ),
    (
        "chain_net/Randomized/ForkMaker/IntervalSnapshot/lossy",
        0x1d55fd8e799e6501,
    ),
    (
        "chain_net/Randomized/ForkMaker/IntervalSnapshot/relay8",
        0xb8ac7cdd568205f9,
    ),
    (
        "chain/Randomized/TieBreaker/IntervalSnapshot",
        0x6bb5460ee12a2bf0,
    ),
    (
        "chain_net/Randomized/TieBreaker/IntervalSnapshot/ideal",
        0xd501ba863b405996,
    ),
    (
        "chain_net/Randomized/TieBreaker/IntervalSnapshot/lossy",
        0x729a6a0cbca597ff,
    ),
    (
        "chain_net/Randomized/TieBreaker/IntervalSnapshot/relay8",
        0x79c497e582e1235a,
    ),
    (
        "dag/LongestChain/Absent/IntervalSnapshot",
        0xbc0d075e267325ab,
    ),
    (
        "dag_net/LongestChain/Absent/IntervalSnapshot/ideal",
        0xadbed2128ac72034,
    ),
    (
        "dag_net/LongestChain/Absent/IntervalSnapshot/lossy",
        0x3d5e2473482c8e4c,
    ),
    (
        "dag_net/LongestChain/Absent/IntervalSnapshot/relay8",
        0xe6a0847e5f68c2e4,
    ),
    (
        "dag/LongestChain/Dissenter/IntervalSnapshot",
        0xe861fab47f4f9be5,
    ),
    (
        "dag_net/LongestChain/Dissenter/IntervalSnapshot/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/LongestChain/Dissenter/IntervalSnapshot/lossy",
        0x1af3218598d60044,
    ),
    (
        "dag_net/LongestChain/Dissenter/IntervalSnapshot/relay8",
        0xe3012b6c1fafcf5f,
    ),
    (
        "dag/LongestChain/WithholdBurst/IntervalSnapshot",
        0x036f27100c913468,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/IntervalSnapshot/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/IntervalSnapshot/lossy",
        0xcdb43abab658a078,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/IntervalSnapshot/relay8",
        0xa142e3f2897963ab,
    ),
    (
        "dag_staggered/LongestChain/ttl1/IntervalSnapshot",
        0xd360161cada5a775,
    ),
    (
        "dag_multinode/LongestChain/ttl1/IntervalSnapshot",
        0x18841d072eaf9e47,
    ),
    (
        "dag_staggered/LongestChain/ttl4/IntervalSnapshot",
        0x5404e0e10d0ed36b,
    ),
    (
        "dag_multinode/LongestChain/ttl4/IntervalSnapshot",
        0x830d0a27d8c24e27,
    ),
    ("dag/Ghost/Absent/IntervalSnapshot", 0xbc0d075e267325ab),
    (
        "dag_net/Ghost/Absent/IntervalSnapshot/ideal",
        0xadbed2128ac72034,
    ),
    (
        "dag_net/Ghost/Absent/IntervalSnapshot/lossy",
        0xc15d7dce22129e8b,
    ),
    (
        "dag_net/Ghost/Absent/IntervalSnapshot/relay8",
        0xe6a0847e5f68c2e4,
    ),
    ("dag/Ghost/Dissenter/IntervalSnapshot", 0xe861fab47f4f9be5),
    (
        "dag_net/Ghost/Dissenter/IntervalSnapshot/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/Ghost/Dissenter/IntervalSnapshot/lossy",
        0xd91576723bc2ac88,
    ),
    (
        "dag_net/Ghost/Dissenter/IntervalSnapshot/relay8",
        0xe3012b6c1fafcf5f,
    ),
    (
        "dag/Ghost/WithholdBurst/IntervalSnapshot",
        0x036f27100c913468,
    ),
    (
        "dag_net/Ghost/WithholdBurst/IntervalSnapshot/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/Ghost/WithholdBurst/IntervalSnapshot/lossy",
        0xf40c1f6708d425d3,
    ),
    (
        "dag_net/Ghost/WithholdBurst/IntervalSnapshot/relay8",
        0xa142e3f2897963ab,
    ),
    (
        "dag_staggered/Ghost/ttl1/IntervalSnapshot",
        0x9e0d19818cf81729,
    ),
    (
        "dag_multinode/Ghost/ttl1/IntervalSnapshot",
        0xaede0ef1cf16568b,
    ),
    (
        "dag_staggered/Ghost/ttl4/IntervalSnapshot",
        0x7a135b31aa2b6148,
    ),
    (
        "dag_multinode/Ghost/ttl4/IntervalSnapshot",
        0x4b87f787141ea34c,
    ),
    ("dag/Pivot/Absent/IntervalSnapshot", 0xbc0d075e267325ab),
    (
        "dag_net/Pivot/Absent/IntervalSnapshot/ideal",
        0xadbed2128ac72034,
    ),
    (
        "dag_net/Pivot/Absent/IntervalSnapshot/lossy",
        0xd8bd92ab2020feff,
    ),
    (
        "dag_net/Pivot/Absent/IntervalSnapshot/relay8",
        0x12ca91a696cbb6d2,
    ),
    ("dag/Pivot/Dissenter/IntervalSnapshot", 0xe861fab47f4f9be5),
    (
        "dag_net/Pivot/Dissenter/IntervalSnapshot/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/Pivot/Dissenter/IntervalSnapshot/lossy",
        0xaf4183d20e17f127,
    ),
    (
        "dag_net/Pivot/Dissenter/IntervalSnapshot/relay8",
        0x5aba7223e7d4bdf2,
    ),
    (
        "dag/Pivot/WithholdBurst/IntervalSnapshot",
        0x036f27100c913468,
    ),
    (
        "dag_net/Pivot/WithholdBurst/IntervalSnapshot/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/Pivot/WithholdBurst/IntervalSnapshot/lossy",
        0x168532d89ff21806,
    ),
    (
        "dag_net/Pivot/WithholdBurst/IntervalSnapshot/relay8",
        0xf186a400a1a5078f,
    ),
    (
        "dag_staggered/Pivot/ttl1/IntervalSnapshot",
        0x9e0d19818cf81729,
    ),
    (
        "dag_multinode/Pivot/ttl1/IntervalSnapshot",
        0x48a4296975242414,
    ),
    (
        "dag_staggered/Pivot/ttl4/IntervalSnapshot",
        0x7a135b31aa2b6148,
    ),
    (
        "dag_multinode/Pivot/ttl4/IntervalSnapshot",
        0x03a3a9d88ff00b45,
    ),
    ("chain_staggered/ttl1/IntervalSnapshot", 0x7b4d429e96e9b807),
    ("chain_staggered/ttl4/IntervalSnapshot", 0x567cd3ce2dd8c81a),
    ("bft/Absent/IntervalSnapshot", 0x18303ef6f5edee33),
    ("bft_net/Absent/IntervalSnapshot/ideal", 0x9e22ad7304601513),
    ("bft_net/Absent/IntervalSnapshot/lossy", 0xa3b32e71d0f363f9),
    ("bft_net/Absent/IntervalSnapshot/relay8", 0xbcd5f78834f4aada),
    ("bft/Equivocator/IntervalSnapshot", 0x5cb8292ea8bc597d),
    (
        "bft_net/Equivocator/IntervalSnapshot/ideal",
        0x568ec1a9c7288e7d,
    ),
    (
        "bft_net/Equivocator/IntervalSnapshot/lossy",
        0x59c20992c1e3f4df,
    ),
    (
        "bft_net/Equivocator/IntervalSnapshot/relay8",
        0xd3728d337648ea8c,
    ),
    ("bft/Withholder/IntervalSnapshot", 0xe1f8cf7373ce5ffb),
    (
        "bft_net/Withholder/IntervalSnapshot/ideal",
        0x47b9dd9a2aa59cae,
    ),
    (
        "bft_net/Withholder/IntervalSnapshot/lossy",
        0x9d63557706d6dc76,
    ),
    (
        "bft_net/Withholder/IntervalSnapshot/relay8",
        0x35417a6397692580,
    ),
    ("bft/StaleMiner/IntervalSnapshot", 0x51b46b87bf7231f1),
    (
        "bft_net/StaleMiner/IntervalSnapshot/ideal",
        0x5b4439395795ab10,
    ),
    (
        "bft_net/StaleMiner/IntervalSnapshot/lossy",
        0x1645ebdafedac4c3,
    ),
    (
        "bft_net/StaleMiner/IntervalSnapshot/relay8",
        0xcefdf0236053b67a,
    ),
    ("chain/Deterministic/Absent/LaggedDelta", 0xd94f0f06571db51b),
    (
        "chain_net/Deterministic/Absent/LaggedDelta/ideal",
        0x1d059ea7ad07b182,
    ),
    (
        "chain_net/Deterministic/Absent/LaggedDelta/lossy",
        0x8196ba29aa5016c1,
    ),
    (
        "chain_net/Deterministic/Absent/LaggedDelta/relay8",
        0x50ff41d61dbe737f,
    ),
    (
        "chain/Deterministic/Dissenter/LaggedDelta",
        0xe9152ffaab94316d,
    ),
    (
        "chain_net/Deterministic/Dissenter/LaggedDelta/ideal",
        0xc0594c777a44fae1,
    ),
    (
        "chain_net/Deterministic/Dissenter/LaggedDelta/lossy",
        0xa4730d936a62199a,
    ),
    (
        "chain_net/Deterministic/Dissenter/LaggedDelta/relay8",
        0xa204be32f8e41b6b,
    ),
    (
        "chain/Deterministic/ForkMaker/LaggedDelta",
        0x40ef445e646d3e9e,
    ),
    (
        "chain_net/Deterministic/ForkMaker/LaggedDelta/ideal",
        0xeb28b00d6f849c47,
    ),
    (
        "chain_net/Deterministic/ForkMaker/LaggedDelta/lossy",
        0x30c59cf34fb9759a,
    ),
    (
        "chain_net/Deterministic/ForkMaker/LaggedDelta/relay8",
        0xae95ff23a4ec0490,
    ),
    (
        "chain/Deterministic/TieBreaker/LaggedDelta",
        0x834bfbc599739791,
    ),
    (
        "chain_net/Deterministic/TieBreaker/LaggedDelta/ideal",
        0xd501ba863b405996,
    ),
    (
        "chain_net/Deterministic/TieBreaker/LaggedDelta/lossy",
        0x5241f4c8825cddbe,
    ),
    (
        "chain_net/Deterministic/TieBreaker/LaggedDelta/relay8",
        0x74c3b54172852dc7,
    ),
    ("chain/Randomized/Absent/LaggedDelta", 0xd94f0f06571db51b),
    (
        "chain_net/Randomized/Absent/LaggedDelta/ideal",
        0x1d059ea7ad07b182,
    ),
    (
        "chain_net/Randomized/Absent/LaggedDelta/lossy",
        0xc0f360e279c16ae8,
    ),
    (
        "chain_net/Randomized/Absent/LaggedDelta/relay8",
        0x50ff41d61dbe737f,
    ),
    ("chain/Randomized/Dissenter/LaggedDelta", 0x9cbe6edeb095937e),
    (
        "chain_net/Randomized/Dissenter/LaggedDelta/ideal",
        0x412d5f7571c6dbfc,
    ),
    (
        "chain_net/Randomized/Dissenter/LaggedDelta/lossy",
        0x3aefb984e07aac1f,
    ),
    (
        "chain_net/Randomized/Dissenter/LaggedDelta/relay8",
        0x71edde632ac71378,
    ),
    ("chain/Randomized/ForkMaker/LaggedDelta", 0xb6cf1947c3c397bd),
    (
        "chain_net/Randomized/ForkMaker/LaggedDelta/ideal",
        0xc90ea6c3907aed20,
    ),
    (
        "chain_net/Randomized/ForkMaker/LaggedDelta/lossy",
        0x1d55fd8e799e6501,
    ),
    (
        "chain_net/Randomized/ForkMaker/LaggedDelta/relay8",
        0xb8ac7cdd568205f9,
    ),
    (
        "chain/Randomized/TieBreaker/LaggedDelta",
        0x054e215ad7987872,
    ),
    (
        "chain_net/Randomized/TieBreaker/LaggedDelta/ideal",
        0xd501ba863b405996,
    ),
    (
        "chain_net/Randomized/TieBreaker/LaggedDelta/lossy",
        0x729a6a0cbca597ff,
    ),
    (
        "chain_net/Randomized/TieBreaker/LaggedDelta/relay8",
        0x79c497e582e1235a,
    ),
    ("dag/LongestChain/Absent/LaggedDelta", 0xcd349913b6d3bb98),
    (
        "dag_net/LongestChain/Absent/LaggedDelta/ideal",
        0xadbed2128ac72034,
    ),
    (
        "dag_net/LongestChain/Absent/LaggedDelta/lossy",
        0x3d5e2473482c8e4c,
    ),
    (
        "dag_net/LongestChain/Absent/LaggedDelta/relay8",
        0xe6a0847e5f68c2e4,
    ),
    ("dag/LongestChain/Dissenter/LaggedDelta", 0xe9a92ca24cab7a70),
    (
        "dag_net/LongestChain/Dissenter/LaggedDelta/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/LongestChain/Dissenter/LaggedDelta/lossy",
        0x1af3218598d60044,
    ),
    (
        "dag_net/LongestChain/Dissenter/LaggedDelta/relay8",
        0xe3012b6c1fafcf5f,
    ),
    (
        "dag/LongestChain/WithholdBurst/LaggedDelta",
        0x53d16299793579fa,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/LaggedDelta/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/LaggedDelta/lossy",
        0xcdb43abab658a078,
    ),
    (
        "dag_net/LongestChain/WithholdBurst/LaggedDelta/relay8",
        0xa142e3f2897963ab,
    ),
    (
        "dag_staggered/LongestChain/ttl1/LaggedDelta",
        0x40562cfa80a24fd9,
    ),
    (
        "dag_multinode/LongestChain/ttl1/LaggedDelta",
        0x8db8f94df7212a7c,
    ),
    (
        "dag_staggered/LongestChain/ttl4/LaggedDelta",
        0x31af1810bf1f087f,
    ),
    (
        "dag_multinode/LongestChain/ttl4/LaggedDelta",
        0x2482050034898e13,
    ),
    ("dag/Ghost/Absent/LaggedDelta", 0xcd349913b6d3bb98),
    ("dag_net/Ghost/Absent/LaggedDelta/ideal", 0xadbed2128ac72034),
    ("dag_net/Ghost/Absent/LaggedDelta/lossy", 0xc15d7dce22129e8b),
    (
        "dag_net/Ghost/Absent/LaggedDelta/relay8",
        0xe6a0847e5f68c2e4,
    ),
    ("dag/Ghost/Dissenter/LaggedDelta", 0xe9a92ca24cab7a70),
    (
        "dag_net/Ghost/Dissenter/LaggedDelta/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/Ghost/Dissenter/LaggedDelta/lossy",
        0xd91576723bc2ac88,
    ),
    (
        "dag_net/Ghost/Dissenter/LaggedDelta/relay8",
        0xe3012b6c1fafcf5f,
    ),
    ("dag/Ghost/WithholdBurst/LaggedDelta", 0x53d16299793579fa),
    (
        "dag_net/Ghost/WithholdBurst/LaggedDelta/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/Ghost/WithholdBurst/LaggedDelta/lossy",
        0xf40c1f6708d425d3,
    ),
    (
        "dag_net/Ghost/WithholdBurst/LaggedDelta/relay8",
        0xa142e3f2897963ab,
    ),
    ("dag_staggered/Ghost/ttl1/LaggedDelta", 0xeebe22396206635e),
    ("dag_multinode/Ghost/ttl1/LaggedDelta", 0x4f874e878a1bd98b),
    ("dag_staggered/Ghost/ttl4/LaggedDelta", 0xacba7e33f70809c0),
    ("dag_multinode/Ghost/ttl4/LaggedDelta", 0x8c2e326909cc1fbb),
    ("dag/Pivot/Absent/LaggedDelta", 0x094dd67b23d47a04),
    ("dag_net/Pivot/Absent/LaggedDelta/ideal", 0xadbed2128ac72034),
    ("dag_net/Pivot/Absent/LaggedDelta/lossy", 0xd8bd92ab2020feff),
    (
        "dag_net/Pivot/Absent/LaggedDelta/relay8",
        0x12ca91a696cbb6d2,
    ),
    ("dag/Pivot/Dissenter/LaggedDelta", 0xbf42d0d48e9efb59),
    (
        "dag_net/Pivot/Dissenter/LaggedDelta/ideal",
        0xdd9ce5d844c6ad09,
    ),
    (
        "dag_net/Pivot/Dissenter/LaggedDelta/lossy",
        0xaf4183d20e17f127,
    ),
    (
        "dag_net/Pivot/Dissenter/LaggedDelta/relay8",
        0x5aba7223e7d4bdf2,
    ),
    ("dag/Pivot/WithholdBurst/LaggedDelta", 0x8013ccf88d8dc206),
    (
        "dag_net/Pivot/WithholdBurst/LaggedDelta/ideal",
        0x77a952ac52ad2294,
    ),
    (
        "dag_net/Pivot/WithholdBurst/LaggedDelta/lossy",
        0x168532d89ff21806,
    ),
    (
        "dag_net/Pivot/WithholdBurst/LaggedDelta/relay8",
        0xf186a400a1a5078f,
    ),
    ("dag_staggered/Pivot/ttl1/LaggedDelta", 0x0f885643ddcd6f99),
    ("dag_multinode/Pivot/ttl1/LaggedDelta", 0xfd8b2dd077b3e29f),
    ("dag_staggered/Pivot/ttl4/LaggedDelta", 0xc9f1c18ec1c0b017),
    ("dag_multinode/Pivot/ttl4/LaggedDelta", 0x1e24601bf9da0d14),
    ("chain_staggered/ttl1/LaggedDelta", 0x7b4d429e96e9b807),
    ("chain_staggered/ttl4/LaggedDelta", 0x567cd3ce2dd8c81a),
    ("bft/Absent/LaggedDelta", 0x18303ef6f5edee33),
    ("bft_net/Absent/LaggedDelta/ideal", 0x9e22ad7304601513),
    ("bft_net/Absent/LaggedDelta/lossy", 0xa3b32e71d0f363f9),
    ("bft_net/Absent/LaggedDelta/relay8", 0xbcd5f78834f4aada),
    ("bft/Equivocator/LaggedDelta", 0x5cb8292ea8bc597d),
    ("bft_net/Equivocator/LaggedDelta/ideal", 0x568ec1a9c7288e7d),
    ("bft_net/Equivocator/LaggedDelta/lossy", 0x59c20992c1e3f4df),
    ("bft_net/Equivocator/LaggedDelta/relay8", 0xd3728d337648ea8c),
    ("bft/Withholder/LaggedDelta", 0xe1f8cf7373ce5ffb),
    ("bft_net/Withholder/LaggedDelta/ideal", 0x47b9dd9a2aa59cae),
    ("bft_net/Withholder/LaggedDelta/lossy", 0x9d63557706d6dc76),
    ("bft_net/Withholder/LaggedDelta/relay8", 0x35417a6397692580),
    ("bft/StaleMiner/LaggedDelta", 0x51b46b87bf7231f1),
    ("bft_net/StaleMiner/LaggedDelta/ideal", 0x5b4439395795ab10),
    ("bft_net/StaleMiner/LaggedDelta/lossy", 0x1645ebdafedac4c3),
    ("bft_net/StaleMiner/LaggedDelta/relay8", 0xcefdf0236053b67a),
];
