//! The payload slab's reference rules, held to a payload that counts.
//!
//! `SimNet` stores every payload once (`sim.rs`, `Parcels`), with what
//! every copy of its send shares — sender, send time, kind — and moves
//! 12-byte handles through its event queue and 16-byte ones through its
//! inboxes (receiver, parcel, link row). Each copy the
//! network owes somebody is a reference on the slot: `send` starts one,
//! `broadcast` one per recipient, the duplicate fault adds one, every way
//! a copy can be lost (the drop fault, the partition) gives one back, and
//! a delivery takes one — moving the payload out if it was the last,
//! cloning it otherwise. A rule broken in
//! one direction leaks a payload; broken in the other it hands out a
//! vacated or recycled slot.
//!
//! [`Tracked`] counts its constructions, clones and drops per thread.
//! Seeded nets with drop 0.3, duplicate 0.3 and reorder 0.3, with and
//! without a partition window, carry a mix of broadcasts and
//! point-to-point sends, and the suite asserts that
//!
//! * once `quiescent()`, no payload is alive and every construction and
//!   clone has been dropped (so each exactly once — safe Rust cannot drop
//!   twice);
//! * a payload is cloned only by a delivery that is not the last owed:
//!   clones = deliveries − last-reference moves, and a message that is
//!   delivered at all is delivered as its original instance exactly once
//!   (every copy is lost, if at all, at its send, so the last delivery
//!   holds the last reference);
//! * the deliveries and the `NetStats` trace equal those of one `send`
//!   per recipient — the `Transport::broadcast` default body (the
//!   in-crate `broadcast_cloning_matches_zero_copy_broadcast` pins the
//!   same for a plain payload);
//! * `into_scratch` with messages in flight and arrived drops them all,
//!   and a simulator rebuilt on that scratch behaves like a fresh one.
//!
//! Mutation-checked: each of these edits to `sim.rs` fails the three
//! tests that drain a network (`teardown_in_mid_flight…` tears its down
//! before that and fails on the third edit only) —
//!
//! * `release` skipped on the drop fault or on the partition cut:
//!   payloads alive inside a quiescent network;
//! * `add_ref` skipped on the duplicate fault: the second copy names a
//!   vacated slot — a panic — or a recycled one — the wrong message;
//! * `take` cloning although `refs == 1`: the original stays alive in its
//!   freed slot, and clones ≠ deliveries − moves.
//!
//! A delivered copy reads its sender and send time from its parcel, and
//! its link row from its handle. `every_copy_reports_its_parcel_s_origin`
//! sends [`Stamped`] payloads that carry both, under duplicate, reorder
//! and partition faults, on a 12-node mesh (every link a row), a
//! 70-node mesh (every link spills), a relay overlay and a bandwidth-limited
//! geo overlay (rows and spill mixed), and holds each delivery's sender,
//! the delivery trace, the per-kind delay histograms and the per-link
//! counters to what the payloads say. It fails on each of: the send time
//! taken at arrival instead of at the send, the sender of a delivery read
//! from anywhere but the parcel, the link row resolved for the reverse
//! direction.

use am_net::stats::Counters;
use am_net::{
    DeliveryRecord, Kinded, LatencyModel, NetConfig, NetScratch, NetStats, SimNet, Topology,
    Transport,
};
use std::cell::Cell;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The counting payload (per thread: the runner's other tests count too)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Census {
    made: u64,
    cloned: u64,
    dropped: u64,
}

impl Census {
    fn alive(self) -> u64 {
        self.made + self.cloned - self.dropped
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

/// A message `id`, knowing whether it is the instance the test
/// constructed or a clone the network made of it.
#[derive(Debug)]
struct Tracked {
    id: u64,
    original: bool,
}

impl Tracked {
    fn new(id: u64) -> Tracked {
        count(|c| c.made += 1);
        Tracked { id, original: true }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Tracked {
        count(|c| c.cloned += 1);
        Tracked {
            id: self.id,
            original: false,
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        count(|c| c.dropped += 1);
    }
}

impl Kinded for Tracked {
    fn kind(&self) -> &'static str {
        "tracked"
    }
}

// ---------------------------------------------------------------------------
// The scenario
// ---------------------------------------------------------------------------

const N: usize = 5;
const ROUNDS: u64 = 40;

/// Which faults besides drop / duplicate / reorder are on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Profile {
    /// Random faults only.
    Lossy,
    /// Plus a partition window, which cuts the copies that cross it.
    LossyCut,
}

fn net(profile: Profile, seed: u64, scratch: NetScratch<Tracked>) -> SimNet<Tracked> {
    let mut cfg = NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 60 })
        .drop(0.3)
        .dup(0.3)
        .reorder(0.3)
        .trace(true);
    if profile == Profile::LossyCut {
        cfg = cfg.partition(300, 900);
    }
    cfg.build()
        .expect("valid config")
        .build_net_with_scratch(N, seed, scratch)
}

/// One delivery as the caller saw it: when, who to whom, which message,
/// and whether it came out as the constructed instance.
type Delivery = (u64, usize, usize, u64, bool);

/// Consumes everything arrived, alternating front and back takes.
fn deliver_arrived(net: &mut SimNet<Tracked>, out: &mut Vec<Delivery>) -> bool {
    let mut any = false;
    for node in 0..N {
        while net.backlog(node) > 0 {
            let idx = if out.len().is_multiple_of(2) {
                0
            } else {
                net.backlog(node) - 1
            };
            let env = net.deliver_at(node, idx).expect("backlog > 0");
            out.push((
                net.now_ns(),
                env.from,
                env.to,
                env.payload.id,
                env.payload.original,
            ));
            any = true;
        }
    }
    any
}

/// Sends rounds `rounds` of the script — per node, two broadcasts then
/// one point-to-point send, time moving 50 ns a round with arrivals
/// consumed as it goes. `one_parcel` picks `broadcast` over the
/// per-recipient `send` loop it must equal. Returns the messages sent.
fn send_rounds(
    net: &mut SimNet<Tracked>,
    rounds: std::ops::Range<u64>,
    one_parcel: bool,
    out: &mut Vec<Delivery>,
) -> u64 {
    let mut messages = 0;
    for round in rounds {
        for from in 0..N {
            let id = round * N as u64 + from as u64;
            messages += 1;
            if round % 3 == 2 {
                net.send(from, (from + 1 + round as usize) % N, Tracked::new(id));
            } else if one_parcel {
                net.broadcast(from, Tracked::new(id));
            } else {
                for to in 0..N {
                    net.send(from, to, Tracked::new(id));
                }
            }
        }
        net.advance_until((round + 1) * 50);
        deliver_arrived(net, out);
    }
    messages
}

fn drain(net: &mut SimNet<Tracked>, out: &mut Vec<Delivery>) {
    while deliver_arrived(net, out) || net.advance() {}
    assert!(net.quiescent());
}

struct Outcome {
    deliveries: Vec<Delivery>,
    trace: Vec<DeliveryRecord>,
    totals: Counters,
    messages: u64,
}

/// The whole script on `net` (empty so far), drained — at which point,
/// with the simulator still standing, no payload may be alive.
fn run(mut net: SimNet<Tracked>, one_parcel: bool) -> (Outcome, NetScratch<Tracked>) {
    let alive_before = census().alive();
    let mut deliveries = Vec::new();
    let messages = send_rounds(&mut net, 0..ROUNDS, one_parcel, &mut deliveries);
    drain(&mut net, &mut deliveries);
    assert_eq!(
        census().alive(),
        alive_before,
        "payloads alive inside a quiescent network"
    );
    let outcome = Outcome {
        deliveries,
        trace: net.stats().trace().to_vec(),
        totals: net.stats().totals(),
        messages,
    };
    (outcome, net.into_scratch())
}

/// Deliveries of each message as (all instances, constructed instance).
fn per_message(outcome: &Outcome) -> Vec<(u64, u64)> {
    let mut per = vec![(0u64, 0u64); outcome.messages as usize];
    for &(_, _, _, id, original) in &outcome.deliveries {
        per[id as usize].0 += 1;
        per[id as usize].1 += u64::from(original);
    }
    per
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

#[test]
fn nothing_outlives_quiescence_and_only_non_final_deliveries_clone() {
    for profile in [Profile::Lossy, Profile::LossyCut] {
        for seed in 0..12 {
            let what = format!("{profile:?} seed {seed}");
            let before = census();
            let (outcome, scratch) = run(net(profile, seed, NetScratch::new()), true);
            let after = census();
            let (made, cloned) = (after.made - before.made, after.cloned - before.cloned);
            assert_eq!(after.alive(), before.alive(), "{what}: payloads leaked");
            assert_eq!(made, outcome.messages, "{what}: one construction a message");
            let Counters {
                sent,
                delivered,
                dropped,
                duplicated,
            } = outcome.totals;
            assert_eq!(delivered, outcome.deliveries.len() as u64, "{what}");
            assert_eq!(sent + duplicated, delivered + dropped, "{what}: copies");
            assert!(dropped > 0 && duplicated > 0, "{what}: faults idle");

            // Clones are made by deliveries alone, and never by a
            // parcel's last one.
            let per = per_message(&outcome);
            let moves: u64 = per.iter().map(|&(_, originals)| originals).sum();
            assert_eq!(cloned, delivered - moves, "{what}: clones");
            for (id, &(all, originals)) in per.iter().enumerate() {
                // Copies are lost at send time only, so whichever
                // delivery comes last holds the last reference.
                assert_eq!(originals, u64::from(all > 0), "{what}: message {id}");
            }
            drop(scratch);
            assert_eq!(census().alive(), before.alive(), "{what}: scratch held one");
        }
    }
}

#[test]
fn broadcast_equals_one_send_per_recipient() {
    for profile in [Profile::Lossy, Profile::LossyCut] {
        for seed in [3, 77, 1_234] {
            let what = format!("{profile:?} seed {seed}");
            let before = census();
            let (one, _) = run(net(profile, seed, NetScratch::new()), true);
            let (each, _) = run(net(profile, seed, NetScratch::new()), false);
            // The instance flag differs by construction (the loop makes a
            // fresh original per recipient); everything else must not.
            let strip = |d: &[Delivery]| -> Vec<(u64, usize, usize, u64)> {
                d.iter().map(|&(at, f, t, id, _)| (at, f, t, id)).collect()
            };
            assert_eq!(
                strip(&one.deliveries),
                strip(&each.deliveries),
                "{what}: deliveries"
            );
            assert_eq!(one.trace, each.trace, "{what}: NetStats trace");
            assert_eq!(one.totals, each.totals, "{what}: totals");
            assert!(!one.trace.is_empty());
            assert_eq!(census().alive(), before.alive(), "{what}: payloads leaked");
        }
    }
}

#[test]
fn teardown_in_mid_flight_drops_every_payload() {
    for profile in [Profile::Lossy, Profile::LossyCut] {
        let before = census();
        let mut net = net(profile, 9, NetScratch::new());
        let mut seen = Vec::new();
        send_rounds(&mut net, 0..ROUNDS / 2, true, &mut seen);
        // Leave some arrived and undelivered, the rest in flight.
        for from in 0..N {
            net.broadcast(from, Tracked::new(0));
        }
        net.advance();
        assert!(!net.quiescent());
        assert!((0..N).any(|node| net.backlog(node) > 0), "none arrived");
        let held = census().alive() - before.alive();
        assert!(held > 0, "{profile:?}: nothing was in the network");
        let scratch = net.into_scratch();
        assert_eq!(
            census().alive(),
            before.alive(),
            "{profile:?}: {held} payloads were inside; the scratch must hold none"
        );
        drop(scratch);
        assert_eq!(census().alive(), before.alive());
    }
}

#[test]
fn a_recycled_scratch_changes_nothing() {
    for profile in [Profile::Lossy, Profile::LossyCut] {
        let before = census();
        let (fresh, _) = run(net(profile, 21, NetScratch::new()), true);
        // A scratch torn off a simulator in mid flight, with a different
        // seed's slab and free-list shape behind it.
        let mut other = net(profile, 22, NetScratch::new());
        send_rounds(&mut other, 0..ROUNDS / 2, true, &mut Vec::new());
        let (reused, scratch) = run(net(profile, 21, other.into_scratch()), true);
        assert_eq!(fresh.deliveries, reused.deliveries, "{profile:?}");
        assert_eq!(fresh.trace, reused.trace, "{profile:?}");
        // And once more on the scratch of a run that drained.
        let (again, _) = run(net(profile, 21, scratch), true);
        assert_eq!(fresh.deliveries, again.deliveries, "{profile:?}");
        assert_eq!(census().alive(), before.alive(), "{profile:?}: leaked");
    }
}

// ---------------------------------------------------------------------------
// The parcel-held origin: sender and send time, shared by every copy
// ---------------------------------------------------------------------------

/// A payload that carries the facts the network keeps once per send, so a
/// delivery can be checked against them.
#[derive(Clone, Debug)]
struct Stamped {
    from: usize,
    sent_ns: u64,
    kind: &'static str,
}

impl Kinded for Stamped {
    fn kind(&self) -> &'static str {
        self.kind
    }
}

const KINDS: [&str; 3] = ["alpha", "beta", "gamma"];

/// A network under every fault a copy can meet besides a plain drop:
/// duplicates, reorders and a partition window.
fn origin_net(n: usize, topology: Topology, bandwidth: bool, seed: u64) -> SimNet<Stamped> {
    let mut cfg = NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 60 })
        .topology(topology)
        .dup(0.3)
        .reorder(0.3)
        .partition(300, 900)
        .trace(true);
    if bandwidth {
        // 512-byte payloads at ~1 µs each: bursts queue on their link.
        cfg = cfg.bandwidth_bps(4_096_000_000);
    }
    cfg.build().expect("valid config").build_net(n, seed)
}

/// One delivery: when, the payload as delivered, and to whom.
type Arrived = (u64, Stamped, usize);

/// Copies handed to each directed link by `send` / `broadcast`.
type Handed = BTreeMap<(usize, usize), u64>;

/// Consumes everything arrived, checking each copy's sender against its
/// payload.
fn take_arrived(net: &mut SimNet<Stamped>, got: &mut Vec<Arrived>) -> bool {
    let mut any = false;
    for node in 0..net.n() {
        while let Some(env) = net.deliver(node) {
            assert_eq!(env.to, node);
            assert_eq!(
                env.from, env.payload.from,
                "a copy's sender is its parcel's"
            );
            got.push((net.now_ns(), env.payload, node));
            any = true;
        }
    }
    any
}

/// Each round, every node broadcasts, sends to a gossip neighbour or sends
/// to an arbitrary node (off the overlay, on a sparse topology), and time
/// moves 50 ns. Returns the deliveries and the copies each link was
/// handed.
fn origin_script(net: &mut SimNet<Stamped>, rounds: u64) -> (Vec<Arrived>, Handed) {
    let n = net.n();
    let mut sent = Handed::new();
    let mut got = Vec::new();
    for round in 0..rounds {
        for from in 0..n {
            let payload = Stamped {
                from,
                sent_ns: net.now_ns(),
                kind: KINDS[(round as usize + from) % KINDS.len()],
            };
            match (round as usize + from) % 3 {
                0 => {
                    for to in 0..n {
                        *sent.entry((from, to)).or_default() += 1;
                    }
                    net.broadcast(from, payload);
                }
                1 => {
                    let topo = net.topology();
                    let to = topo.neighbor(from, round as usize % topo.degree(from));
                    *sent.entry((from, to)).or_default() += 1;
                    net.send(from, to, payload);
                }
                _ => {
                    let to = (from * 7 + round as usize * 13 + 5) % n;
                    *sent.entry((from, to)).or_default() += 1;
                    net.send(from, to, payload);
                }
            }
        }
        net.advance_until((round + 1) * 50);
        take_arrived(net, &mut got);
    }
    while take_arrived(net, &mut got) || net.advance() {}
    assert!(net.quiescent());
    (got, sent)
}

#[test]
fn every_copy_reports_its_parcel_s_origin() {
    let geo = Topology::Geo {
        regions: 3,
        k: 4,
        inter: LatencyModel::Constant(200),
    };
    let networks = [
        ("12-node mesh", 12, Topology::FullMesh, false),
        ("70-node mesh", 70, Topology::FullMesh, false),
        ("relay overlay", 24, Topology::Relay { k: 4 }, false),
        ("bandwidth-limited geo overlay", 30, geo, true),
    ];
    for (name, n, topology, bandwidth) in networks {
        for seed in [5, 11] {
            let what = format!("{name}, seed {seed}");
            let mut net = origin_net(n, topology, bandwidth, seed);
            let (got, sent) = origin_script(&mut net, 12);
            let stats = net.stats();
            assert!(stats.totals().duplicated > 0, "{what}: no duplicates");
            assert!(stats.totals().dropped > 0, "{what}: no cuts");

            // The trace names each delivery's parcel sender, in delivery
            // order.
            let trace: Vec<_> = stats
                .trace()
                .iter()
                .map(|r| (r.at_ns, r.from, r.to, r.kind))
                .collect();
            let want: Vec<_> = got
                .iter()
                .map(|(at, p, to)| (*at, p.from, *to, p.kind))
                .collect();
            assert_eq!(trace, want, "{what}: trace");

            // Every delivery's delay runs from its parcel's send time: the
            // per-kind histograms are what those delays make.
            let mut reference = NetStats::with_options(n, false);
            for (at, p, to) in &got {
                assert!(*at >= p.sent_ns, "{what}: delivered before it was sent");
                let rec = DeliveryRecord {
                    at_ns: *at,
                    from: p.from,
                    to: *to,
                    kind: p.kind,
                    seq: 0,
                };
                reference.on_delivered(rec, at - p.sent_ns);
            }
            let kinds = |s: &NetStats| {
                let json = s.to_json();
                KINDS.map(|k| {
                    let kind = json.get("kinds").and_then(|ks| ks.get(k)).cloned();
                    (
                        kind.as_ref().and_then(|k| k.get("delay")).cloned(),
                        kind.and_then(|k| k.get("delivered").cloned()),
                    )
                })
            };
            assert_eq!(kinds(stats), kinds(&reference), "{what}: delay histograms");
            for k in KINDS {
                assert_eq!(
                    stats.kind_mean_delay_ns(k),
                    reference.kind_mean_delay_ns(k),
                    "{what}: {k}"
                );
            }

            // Each link counts the copies it was handed and delivered, and
            // every copy it was handed or duplicated was delivered or lost.
            let mut delivered: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for (_, p, to) in &got {
                *delivered.entry((p.from, *to)).or_default() += 1;
            }
            let mut links = 0;
            for from in 0..n {
                for to in 0..n {
                    let c = stats.link(from, to);
                    let handed = sent.get(&(from, to)).copied().unwrap_or(0);
                    assert_eq!(c.sent, handed, "{what}: {from}->{to} sent");
                    let arrived = delivered.get(&(from, to)).copied().unwrap_or(0);
                    assert_eq!(c.delivered, arrived, "{what}: {from}->{to} delivered");
                    assert_eq!(
                        c.sent + c.duplicated,
                        c.delivered + c.dropped,
                        "{what}: {from}->{to} copies"
                    );
                    links += usize::from(c != Counters::default());
                }
            }
            assert_eq!(links, stats.active_links(), "{what}");
        }
    }
}
