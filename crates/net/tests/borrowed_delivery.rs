//! Borrowed delivery (`Transport::deliver_at_with`) against owned delivery
//! (`Transport::deliver_at`) on `SimNet`.
//!
//! Both take a message through one bookkeeping step — the inbox take, the
//! backlog bit, the delivery counters and the flight span — and differ
//! only in what happens to the payload: `deliver_at` moves it out of its
//! slab slot on the last copy owed and clones it otherwise;
//! `deliver_at_with` lends it from the slot to a handler and gives the
//! copy's reference back afterwards.
//!
//! `borrowed_and_owned_drains_are_the_same_run` builds two same-seed nets
//! for every subset of drop / duplicate / reorder / partition on a full
//! mesh (n = 8) and on a `relay:3` overlay (n = 12), runs one script of
//! broadcasts and point-to-point sends on both, and takes every arrival at
//! an index drawn by a seeded random policy — one side owned, the other
//! borrowed. The `(from, payload)` sequences, the `NetStats` JSON, the
//! delivery traces and `delivered_count` must be equal; the borrowed side
//! clones nothing, and once a net drains, with the simulator still
//! standing, no payload of either side is alive.
//!
//! `a_borrowed_broadcast_clones_nothing` is the pin for "no per-copy
//! clone": a payload that counts its clones and drops, broadcast to
//! n = 8 nodes, is cloned 0 times when drained borrowed and 7 times when
//! drained owned, and dropped exactly once per instance either way.
//!
//! Mutation-checked, each failing both tests: the release after a
//! borrowed delivery skipped (payloads alive in a drained net); the
//! payload lent from an owned `take` (clones); a borrowed delivery left
//! out of `delivered` (stats and `delivered_count` differ).

use am_net::stats::Counters;
use am_net::{DeliveryRecord, Kinded, LatencyModel, NetConfig, SimNet, Topology, Transport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;

// ---------------------------------------------------------------------------
// The counting payload (per thread: the runner's other tests count too)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Census {
    made: u64,
    cloned: u64,
    dropped: u64,
}

impl Census {
    fn alive(self) -> u64 {
        self.made + self.cloned - self.dropped
    }

    fn since(self, before: Census) -> Census {
        Census {
            made: self.made - before.made,
            cloned: self.cloned - before.cloned,
            dropped: self.dropped - before.dropped,
        }
    }
}

thread_local! {
    static CENSUS: Cell<Census> = const {
        Cell::new(Census { made: 0, cloned: 0, dropped: 0 })
    };
}

fn census() -> Census {
    CENSUS.get()
}

fn count(f: impl FnOnce(&mut Census)) {
    // `try_with`: a payload may still drop while its thread's locals
    // unwind.
    let _ = CENSUS.try_with(|c| {
        let mut now = c.get();
        f(&mut now);
        c.set(now);
    });
}

/// A message `id` that counts its constructions, clones and drops.
#[derive(Debug, PartialEq, Eq)]
struct Counted {
    id: u64,
}

impl Counted {
    fn new(id: u64) -> Counted {
        count(|c| c.made += 1);
        Counted { id }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Counted {
        count(|c| c.cloned += 1);
        Counted { id: self.id }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        count(|c| c.dropped += 1);
    }
}

impl Kinded for Counted {
    fn kind(&self) -> &'static str {
        if self.id.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
}

// ---------------------------------------------------------------------------
// The scenario
// ---------------------------------------------------------------------------

const ROUNDS: u64 = 12;
/// Simulated time between rounds.
const TICK: u64 = 400;
/// The partition window: rounds 3 to 7.
const CUT: (u64, u64) = (1_200, 3_000);

fn config(faults: u8, topology: Topology) -> NetConfig {
    let mut b = NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 900 })
        .topology(topology)
        .trace(true);
    if faults & 1 != 0 {
        b = b.drop(0.2);
    }
    if faults & 2 != 0 {
        b = b.dup(0.25);
    }
    if faults & 4 != 0 {
        b = b.reorder(0.3);
    }
    if faults & 8 != 0 {
        b = b.partition(CUT.0, CUT.1);
    }
    b.build().expect("valid config")
}

/// One delivery as the handler saw it: when, to whom, from whom, which
/// message.
type Seen = (u64, usize, usize, u64);

/// Takes every arrival, at an index `pick` draws, owned or borrowed.
fn take_arrived(
    net: &mut SimNet<Counted>,
    pick: &mut ChaCha8Rng,
    borrowed: bool,
    out: &mut Vec<Seen>,
) -> bool {
    let mut any = false;
    for node in 0..net.n() {
        while net.backlog(node) > 0 {
            let idx = pick.gen_range(0..net.backlog(node));
            let now = net.now_ns();
            let seen = if borrowed {
                net.deliver_at_with(node, idx, |from, m| (now, node, from, m.id))
            } else {
                net.deliver_at(node, idx)
                    .map(|env| (now, env.to, env.from, env.payload.id))
            };
            out.push(seen.expect("idx < backlog"));
            any = true;
        }
    }
    any
}

/// What one side of a comparison leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    seen: Vec<Seen>,
    stats_json: String,
    trace: Vec<DeliveryRecord>,
    totals: Counters,
    delivered: u64,
}

/// Each round every node broadcasts or sends to some node, time moves one
/// tick and the arrivals are taken; afterwards the network drains.
fn script(mut net: SimNet<Counted>, seed: u64, borrowed: bool) -> Outcome {
    let n = net.n();
    let alive_before = census().alive();
    let mut pick = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut seen = Vec::new();
    for round in 0..ROUNDS {
        for from in 0..n {
            let id = round * n as u64 + from as u64;
            if (round as usize + from).is_multiple_of(2) {
                net.broadcast(from, Counted::new(id));
            } else {
                net.send(from, (from * 5 + round as usize + 1) % n, Counted::new(id));
            }
        }
        net.advance_until((round + 1) * TICK);
        take_arrived(&mut net, &mut pick, borrowed, &mut seen);
    }
    while take_arrived(&mut net, &mut pick, borrowed, &mut seen) || net.advance() {}
    assert!(net.quiescent());
    assert_eq!(
        census().alive(),
        alive_before,
        "payloads alive inside a drained network"
    );
    Outcome {
        seen,
        stats_json: serde_json::to_string(&net.stats().to_json()).expect("stats render"),
        trace: net.stats().trace().to_vec(),
        totals: net.stats().totals(),
        delivered: net.delivered_count(),
    }
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

#[test]
fn borrowed_and_owned_drains_are_the_same_run() {
    let overlays = [(Topology::FullMesh, 8), (Topology::Relay { k: 3 }, 12)];
    for (topology, n) in overlays {
        for faults in 0..16u8 {
            for seed in [0, 7] {
                let what = format!("{topology} faults {faults:04b} seed {seed}");
                let cfg = config(faults, topology);
                let owned = script(cfg.build_net(n, seed), seed, false);
                let before = census();
                let borrowed = script(cfg.build_net(n, seed), seed, true);
                assert_eq!(census().since(before).cloned, 0, "{what}: clones");
                let Counters {
                    delivered,
                    dropped,
                    duplicated,
                    ..
                } = owned.totals;
                assert!(delivered > 0, "{what}: nothing delivered");
                assert_eq!(dropped > 0, faults & 9 != 0, "{what}: drops");
                assert_eq!(duplicated > 0, faults & 2 != 0, "{what}: duplicates");
                assert_eq!(owned, borrowed, "{what}");
            }
        }
    }
}

#[test]
fn a_borrowed_broadcast_clones_nothing() {
    const N: usize = 8;
    let cfg = NetConfig::ideal(LatencyModel::Constant(0));
    for borrowed in [true, false] {
        let mut net: SimNet<Counted> = cfg.build_net(N, 3);
        let before = census();
        net.broadcast(0, Counted::new(42));
        assert!(net.advance());
        let mut ids = Vec::new();
        for node in 0..N {
            let id = if borrowed {
                // Past the backlog: no handler call, nothing consumed.
                assert_eq!(net.deliver_at_with(node, 1, |_, m| m.id), None);
                net.deliver_at_with(node, 0, |from, m| {
                    assert_eq!(from, 0);
                    assert_eq!(census().since(before).dropped, 0, "lent a dropped slot");
                    m.id
                })
            } else {
                net.deliver_at(node, 0).map(|env| env.payload.id)
            };
            ids.push(id.expect("one copy each"));
        }
        assert_eq!(ids, [42; N]);
        assert!(net.quiescent());
        assert_eq!(net.delivered_count(), N as u64);
        let spent = census().since(before);
        let clones = if borrowed { 0 } else { N as u64 - 1 };
        assert_eq!(
            spent,
            Census {
                made: 1,
                cloned: clones,
                dropped: 1 + clones,
            },
            "borrowed = {borrowed}"
        );
    }
}
