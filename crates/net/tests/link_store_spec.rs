//! Per-link state against the map it stands for.
//!
//! `NetStats`' per-link counters and `SimNet`'s bandwidth busy horizons are
//! `LinkTable`s laid out over the network's topology: one dense row per
//! topology edge — `TopologyMap::edge_index`, the CSR row offset plus the
//! position in the sorted row, or `from · n + to` on a mesh of at most 64
//! nodes — and one sparse spill map for every link without a row (an
//! off-topology send, any link of a larger mesh). Where a link is held must
//! show nowhere in what [`NetStats`] reports: `link()`, `active_links()`,
//! `totals()`, the `{:?}` form `naive_equiv` hashes and `to_json()` (what
//! `e14.netstats.json` is written from). The reference here is a
//! `BTreeMap<(from, to), Counters>` inside a mirror of the struct, driven by
//! the same seeded random calls — on-edge traffic, a few hot links and
//! uniformly random (mostly off-topology) pairs — over meshes of n ∈ {1, 12,
//! 64, 65, 70, 300} (both sides of the limit; 65 and up all spill), relay
//! overlays and a geo overlay. A trial loop keeps one `NetStats` and
//! `reset`s it, so the suite also holds a recycled one (dirty, across
//! meshes and overlays) to a fresh one, and — under a counting allocator,
//! the library keeps `#![forbid(unsafe_code)]` — that a reset onto the same
//! topology allocates nothing, an idle network holds no table, and the
//! first write brings one 32-byte row per edge. The busy horizons are held
//! to a per-direction reference by the arrival times of bandwidth-limited
//! bursts on the same topologies.
//!
//! Mutation-checked: each of these edits fails the test named —
//!
//! * `edge_index` reads the receiver's row (`offsets[to]` plus the place of
//!   `from` in it): `every_report_matches_the_map_reference` (relay and geo:
//!   the `{:?}` / JSON list a link's counters under its reverse);
//! * `LinkTable::entries` appends the spill after the rows unsorted:
//!   `every_report_matches…` (relay and geo `{:?}` / JSON order);
//! * `send_parcel` keys the busy horizon by the unordered pair (both
//!   directions of a link share one): `busy_horizons_are_per_direction…`;
//! * a stale row survives `reset` (`rows.clear()` dropped, or the kind
//!   list / totals / trace left): `a_recycled_netstats_is_a_fresh_one`;
//! * `active_links` counts zeroed rows (`values().count()`):
//!   `every_report_matches…` on every mesh up to 64 and every overlay;
//! * the mesh index transposed (`to * n + from`): `every_report_matches…`
//!   (`{:?}` / JSON order);
//! * the mesh limit compared as if against `n²` (`n <= 4_096`, so meshes of
//!   65 to 4 096 nodes get a table): `an_idle_large_network_holds_no_table`;
//! * `reset` dropping the rows' allocation instead of clearing them:
//!   `a_reset_at_the_same_size_allocates_nothing` (same topology, same
//!   size).

use am_net::stats::{Counters, DelayHistogram};
use am_net::{
    DeliveryRecord, Kinded, LatencyModel, NetConfig, NetStats, SimNet, Topology, TopologyMap,
    Transport,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Counting allocator (per thread: the runner's other tests allocate too)
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn requested(size: usize) {
    // `try_with`: a thread may still free memory while its locals unwind.
    let _ = REQUESTED.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        requested(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f` asks the allocator for on this thread.
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

// ---------------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------------

/// The struct under test with its stores spelled as the sorted maps they
/// stand for. Same name, same field order, derived `Debug` — so `{:?}` and
/// `{:#?}` of the two must agree character for character.
mod reference {
    use super::*;

    #[derive(Debug, Default)]
    pub struct NetStats {
        pub n: usize,
        pub links: BTreeMap<(usize, usize), Counters>,
        pub totals: Counters,
        pub kinds: BTreeMap<&'static str, (Counters, DelayHistogram)>,
        pub trace: Vec<DeliveryRecord>,
        pub trace_on: bool,
    }
}

fn counters_json(c: Counters) -> Vec<(String, Value)> {
    vec![
        ("sent".into(), Value::Number(c.sent.into())),
        ("delivered".into(), Value::Number(c.delivered.into())),
        ("dropped".into(), Value::Number(c.dropped.into())),
        ("duplicated".into(), Value::Number(c.duplicated.into())),
    ]
}

impl reference::NetStats {
    fn new(n: usize, trace_on: bool) -> Self {
        reference::NetStats {
            n,
            trace_on,
            ..Default::default()
        }
    }

    /// `to_json` as documented: `n`, `totals`, `kinds`, then the non-empty
    /// links ascending by `(from, to)`. The per-kind block (delay
    /// histograms) is not this suite's subject and is taken from `actual`.
    fn to_json(&self, actual: &Value) -> Value {
        let links = self.links.iter().map(|(&(from, to), &c)| {
            let mut row = vec![
                ("from".into(), Value::Number((from as u64).into())),
                ("to".into(), Value::Number((to as u64).into())),
            ];
            row.extend(counters_json(c));
            Value::Object(row)
        });
        Value::Object(vec![
            ("n".into(), Value::Number((self.n as u64).into())),
            ("totals".into(), Value::Object(counters_json(self.totals))),
            ("kinds".into(), actual.get("kinds").expect("kinds").clone()),
            ("links".into(), Value::Array(links.collect())),
        ])
    }
}

/// Applies `calls` seeded random `on_*` calls to both.
fn drive(
    s: &mut NetStats,
    r: &mut reference::NetStats,
    topo: &TopologyMap,
    rng: &mut ChaCha8Rng,
    calls: usize,
) {
    const KINDS: [&str; 3] = ["block", "ack", "append"];
    for step in 0..calls {
        let (from, to) = pick_link(topo, rng);
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let link = r.links.entry((from, to)).or_default();
        let by_kind = r.kinds.entry(kind).or_default();
        match rng.gen_range(0..10u32) {
            0..=4 => {
                s.on_sent(from, to, kind);
                (link.sent, r.totals.sent, by_kind.0.sent) =
                    (link.sent + 1, r.totals.sent + 1, by_kind.0.sent + 1);
            }
            5..=6 => {
                s.on_dropped(from, to, kind);
                (link.dropped, r.totals.dropped, by_kind.0.dropped) = (
                    link.dropped + 1,
                    r.totals.dropped + 1,
                    by_kind.0.dropped + 1,
                );
            }
            7 => {
                s.on_duplicated(from, to, kind);
                link.duplicated += 1;
                r.totals.duplicated += 1;
                by_kind.0.duplicated += 1;
            }
            _ => {
                let delay = rng.gen_range(0..5_000u64);
                let rec = DeliveryRecord {
                    at_ns: step as u64 * 10,
                    from,
                    to,
                    kind,
                    seq: step as u64,
                };
                s.on_delivered(rec, delay);
                link.delivered += 1;
                r.totals.delivered += 1;
                by_kind.0.delivered += 1;
                by_kind.1.record(delay);
                if r.trace_on {
                    r.trace.push(rec);
                }
            }
        }
    }
}

/// A link to put traffic on: half the time an overlay edge (any ordered
/// pair on a mesh), a fifth of the time one of a few hot links, otherwise
/// a uniformly random pair — off the topology, mostly, on an overlay.
fn pick_link(topo: &TopologyMap, rng: &mut ChaCha8Rng) -> (usize, usize) {
    let n = topo.n();
    match rng.gen_range(0..10u32) {
        0..=4 => {
            let from = rng.gen_range(0..n);
            match topo.degree(from) {
                0 => (from, from),
                degree => (from, topo.neighbor(from, rng.gen_range(0..degree))),
            }
        }
        5..=6 => (rng.gen_range(0..n.min(3)), rng.gen_range(0..n.min(4))),
        _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
    }
}

/// Whether `from → to` is an overlay edge (on a mesh: any pair).
fn on_topology(topo: &TopologyMap, from: usize, to: usize) -> bool {
    (0..topo.degree(from)).any(|i| topo.neighbor(from, i) == to)
}

/// Everything `NetStats` reports about its links, held to the reference.
fn assert_same(s: &NetStats, r: &reference::NetStats, what: &str) {
    assert_eq!(s.totals(), r.totals, "totals ({what})");
    assert_eq!(s.active_links(), r.links.len(), "active_links ({what})");
    for (&(from, to), &c) in &r.links {
        assert_eq!(s.link(from, to), c, "link({from}, {to}) ({what})");
    }
    // Links never touched read as zero — the transposed one included.
    for from in 0..r.n.min(70) {
        for to in 0..r.n.min(70) {
            let want = r.links.get(&(from, to)).copied().unwrap_or_default();
            assert_eq!(s.link(from, to), want, "link({from}, {to}) ({what})");
        }
    }
    assert_eq!(s.link(r.n, 0), Counters::default(), "out of range ({what})");
    assert_eq!(s.link(0, r.n), Counters::default(), "out of range ({what})");
    assert_eq!(format!("{s:?}"), format!("{r:?}"), "{{:?}} ({what})");
    assert_eq!(format!("{s:#?}"), format!("{r:#?}"), "{{:#?}} ({what})");
    let json = s.to_json();
    assert_eq!(json, r.to_json(&json), "to_json ({what})");
}

/// The network seed every topology here is instantiated at.
const SEED: u64 = 5;

/// Meshes on both sides of the 64-node limit (from 65 nodes every link
/// spills), relay overlays and a geo overlay: a name, the description and
/// its instance at [`SEED`].
fn topologies() -> Vec<(String, Topology, TopologyMap)> {
    let meshes = [1usize, 12, 64, 65, 70, 300].map(|n| (Topology::FullMesh, n));
    let geo = Topology::Geo {
        regions: 4,
        k: 4,
        inter: LatencyModel::Constant(10),
    };
    let overlays = [
        (Topology::Relay { k: 4 }, 40),
        (Topology::Relay { k: 6 }, 200),
        (geo, 120),
    ];
    meshes
        .into_iter()
        .chain(overlays)
        .map(|(topo, n)| (format!("{topo} n {n}"), topo, topo.instantiate(n, SEED)))
        .collect()
}

#[test]
fn every_report_matches_the_map_reference() {
    for (name, _, topo) in topologies() {
        let (mut on_rows, mut spilled) = (0, 0);
        for seed in 0..8u64 {
            let what = format!("{name} seed {seed}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (topo.n() as u64) << 8);
            let trace = seed % 2 == 0;
            let mut s = NetStats::over(topo.clone(), trace);
            let mut r = reference::NetStats::new(topo.n(), trace);
            assert_same(&s, &r, &what);
            for _ in 0..4 {
                drive(&mut s, &mut r, &topo, &mut rng, 400);
                assert_same(&s, &r, &what);
            }
            assert!(r.n == 1 || r.links.len() > 12, "too few links ({what})");
            for &(from, to) in r.links.keys() {
                match on_topology(&topo, from, to) {
                    true => on_rows += 1,
                    false => spilled += 1,
                }
            }
        }
        // Every overlay exercises both the rows and the spill.
        if !topo.is_mesh() {
            assert!(
                on_rows > 100 && spilled > 100,
                "{name}: {on_rows} / {spilled}"
            );
        }
    }
}

#[test]
fn a_recycled_netstats_is_a_fresh_one() {
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let all = topologies();
    let mut recycled = NetStats::over(all[2].2.clone(), true);
    let mut scrap = reference::NetStats::new(64, true);
    drive(&mut recycled, &mut scrap, &all[2].2, &mut rng, 3_000);
    // Meshes and overlays in turn, each onto what the last one left.
    for (round, at) in [1usize, 2, 8, 5, 6, 0, 3, 7, 1, 8].into_iter().enumerate() {
        let (name, _, topo) = &all[at];
        let what = format!("round {round}: reset to {name}");
        let trace = round % 2 == 1;
        recycled.reset(topo.clone(), trace);
        let mut r = reference::NetStats::new(topo.n(), trace);
        assert_same(&recycled, &r, &what);
        assert_eq!(recycled.trace_enabled(), trace);
        // Dirty it again, in step with a fresh one.
        let mut fresh = NetStats::over(topo.clone(), trace);
        let mut twin = rng.clone();
        drive(&mut recycled, &mut r, topo, &mut rng, 1_500);
        drive(
            &mut fresh,
            &mut reference::NetStats::new(topo.n(), trace),
            topo,
            &mut twin,
            1_500,
        );
        assert_same(&recycled, &r, &what);
        assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"), "{what}");
        assert_eq!(recycled.to_json(), fresh.to_json(), "{what}");
        assert_eq!(recycled.trace(), fresh.trace(), "{what}");
    }
}

#[test]
fn an_idle_large_network_holds_no_table() {
    let geo = Topology::Geo {
        regions: 8,
        k: 8,
        inter: LatencyModel::Constant(10),
    }
    .instantiate(5_000, 1);
    let mut all: Vec<TopologyMap> = [12usize, 64, 65, 300, 4_096, 5_000]
        .into_iter()
        .map(TopologyMap::mesh)
        .collect();
    all.push(geo);
    for topo in all {
        let what = format!("{} nodes, {} edge rows", topo.n(), topo.edge_count());
        // Idle: no per-link storage at all, whatever n² would be.
        let edges = topo.edge_count() as u64;
        let (mut s, bytes) = bytes_requested(|| NetStats::over(topo, false));
        assert_eq!(bytes, 0, "{what}: an idle NetStats asked for {bytes} B");
        // The first write on a link brings the whole table — one 32-byte
        // row per edge, n² on a mesh of at most 64 nodes, none past it —
        // plus the kind list's first block.
        let ((), bytes) = bytes_requested(|| s.on_sent(0, 1, "block"));
        let rows = edges * 32;
        assert!(
            (rows..rows + 4_096).contains(&bytes),
            "{what}: the first send asked for {bytes} B"
        );
        assert_eq!(edges == 0, s.topology().n() > 64 && s.topology().is_mesh());
    }
}

#[test]
fn a_reset_at_the_same_size_allocates_nothing() {
    for (name, _, topo) in topologies().into_iter().filter(|(_, _, t)| t.n() >= 12) {
        let mut rng = ChaCha8Rng::seed_from_u64(topo.n() as u64);
        let mut s = NetStats::over(topo.clone(), true);
        let mut r = reference::NetStats::new(topo.n(), true);
        drive(&mut s, &mut r, &topo, &mut rng, 2_000);
        let again = topo.clone();
        let mut twin = rng.clone();
        let ((), bytes) = bytes_requested(|| {
            s.reset(again, true);
            // Traffic on links and kinds the first pass already met.
            drive_only(&mut s, &topo, &mut twin, 500);
        });
        assert_eq!(bytes, 0, "{name}: reset + replay asked for {bytes} B");
    }
}

/// [`drive`]'s sent / dropped arms on its hot links, without the
/// (allocating) reference.
fn drive_only(s: &mut NetStats, topo: &TopologyMap, rng: &mut ChaCha8Rng, calls: usize) {
    let n = topo.n();
    for _ in 0..calls {
        let (from, to) = (rng.gen_range(0..n.min(3)), rng.gen_range(0..n.min(4)));
        if rng.gen_bool(0.7) {
            s.on_sent(from, to, "block");
        } else {
            s.on_dropped(from, to, "ack");
        }
    }
}

// ---------------------------------------------------------------------------
// Bandwidth busy horizons
// ---------------------------------------------------------------------------

/// A fixed-size payload: 512 B on the wire (the `Kinded` default).
#[derive(Clone, Debug)]
struct Ping(u32);

impl Kinded for Ping {
    fn kind(&self) -> &'static str {
        "ping"
    }
}

/// Every arrival `(at_ns, from, to, id)`, popped and delivered in time order.
fn drain(net: &mut SimNet<Ping>) -> Vec<(u64, usize, usize, u32)> {
    let mut got = Vec::new();
    while net.advance() {
        for node in 0..net.n() {
            while let Some(env) = net.deliver(node) {
                got.push((net.now_ns(), env.from, env.to, env.payload.0));
            }
        }
    }
    got
}

/// Bursts of sends over edges, their reverses and off-topology pairs; each
/// directed link transmits one 1 000 ns message at a time, behind its own
/// earlier ones only. The reference is a busy horizon per ordered pair.
#[test]
fn busy_horizons_are_per_direction_on_every_topology() {
    for (name, topology, map) in topologies() {
        let cfg = NetConfig::builder()
            .topology(topology)
            .latency(LatencyModel::Constant(10))
            // 512 B at 4 096 Mbit/s: 1 000 ns on the wire.
            .bandwidth_bps(4_096_000_000)
            .build()
            .expect("valid config");
        let mut net: SimNet<Ping> = cfg.build_net(map.n(), SEED);
        assert_eq!(
            format!("{:?}", net.topology()),
            format!("{map:?}"),
            "{name}"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(map.n() as u64);
        let mut busy: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let mut id = 0u32;
        for round in 0..3u64 {
            let now = round * 1_000_000;
            net.advance_until(now);
            let mut last = (0, 0);
            for _ in 0..300 {
                // A third of the sends go back along the previous link.
                let (from, to) = match rng.gen_bool(0.3) {
                    true => (last.1, last.0),
                    false => pick_link(&map, &mut rng),
                };
                last = (from, to);
                let done = busy.entry((from, to)).or_insert(0);
                *done = (*done).max(now) + 1_000;
                want.push((*done + 10, from, to, id));
                net.send(from, to, Ping(id));
                id += 1;
            }
            got.extend(drain(&mut net));
        }
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{name}");
    }
}
