//! Pins what each fault a `NetConfig` can switch on does to a network.
//!
//! A network's faults are its configuration: a drop probability, a
//! duplicate probability, a reorder probability and a half/half partition
//! window. `SimNet` applies them to every copy at its send, in that order —
//! drop, duplicate, reorder, partition — and each draw it makes moves the
//! RNG stream every later latency sample reads. So a reordered check, an
//! extra or a missing draw, a partition side other than `0..n/2` or a
//! window checked at arrival instead of at the send moves the delivery
//! trace of some seed.
//!
//! `every_fault_combination_is_pinned` runs one script for every subset of
//! the four faults on a full mesh (n = 8), a `relay:3` overlay (n = 12) and
//! a three-region geo overlay (n = 15), each with and without bandwidth
//! queueing, at seeds 0 and 7, and hashes (FNV-1a) the delivery trace as
//! the caller saw it and the `NetStats` JSON. The rows were recorded on
//! the injector-list simulator this file was written against, which built
//! the same four faults from the same `NetConfig`; on a mismatch the test
//! prints the recomputed table in source form.
//!
//! `the_partition_cuts_exactly_the_crossing_links_inside_its_window`
//! sends on every ordered pair at times around the window's edges and
//! holds each link's drop count to "crosses `0..n/2`, sent inside
//! `[from, until)`" — also for a copy that is sent just before the heal
//! and arrives after it, and one sent just before the cut and arriving
//! inside it.
//!
//! Mutation-checked: the partition side taken as `0..⌈n/2⌉` and the
//! window's end taken as inclusive each fail both tests; a duplicate's
//! extra delay sampled from the link's latency instead of the configured
//! one moves every duplicating geo row.

use am_net::{Kinded, LatencyModel, NetConfig, SimNet, Topology, Transport};

/// A message: its id, and a size that varies so bandwidth queueing bites
/// unevenly.
#[derive(Clone, Debug)]
struct Msg {
    id: u64,
    bytes: u64,
}

impl Kinded for Msg {
    fn kind(&self) -> &'static str {
        if self.id.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.bytes
    }
}

const ROUNDS: u64 = 16;
/// Simulated time between rounds.
const TICK: u64 = 400;
/// The partition window: rounds 4 to 9.
const CUT: (u64, u64) = (1_600, 4_000);

/// The four faults, one bit each, in the order `SimNet` applies them.
const FAULTS: [&str; 4] = ["drop", "dup", "reorder", "partition"];

fn config(faults: u8, topology: Topology, bandwidth: bool) -> NetConfig {
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
    if bandwidth {
        // A 512-byte message takes 1 µs to transmit.
        b = b.bandwidth_bps(4_096_000_000);
    }
    b.build().expect("valid config")
}

/// Consumes everything arrived, alternating front and back takes, and
/// folds each delivery into `h`.
fn take_arrived(net: &mut SimNet<Msg>, h: &mut u64) -> bool {
    let mut any = false;
    for node in 0..net.n() {
        while net.backlog(node) > 0 {
            let idx = if (*h).is_multiple_of(2) {
                0
            } else {
                net.backlog(node) - 1
            };
            let env = net.deliver_at(node, idx).expect("backlog > 0");
            for x in [net.now_ns(), env.from as u64, env.to as u64, env.payload.id] {
                *h = fnv(*h, &x.to_le_bytes());
            }
            any = true;
        }
    }
    any
}

/// Each round every node broadcasts, sends to a gossip neighbour or sends
/// to an arbitrary node, then time moves one tick; afterwards the network
/// drains. Returns the hashes of the deliveries and of the stats JSON.
fn script(mut net: SimNet<Msg>) -> (u64, u64) {
    let n = net.n();
    let mut h = FNV_OFFSET;
    for round in 0..ROUNDS {
        for from in 0..n {
            let id = round * n as u64 + from as u64;
            let msg = Msg {
                id,
                bytes: 128 + (id * 37) % 700,
            };
            match (round as usize + from) % 3 {
                0 => net.broadcast(from, msg),
                1 => {
                    let topo = net.topology();
                    let to = topo.neighbor(from, round as usize % topo.degree(from));
                    net.send(from, to, msg);
                }
                _ => net.send(from, (from * 5 + round as usize * 3 + 1) % n, msg),
            }
        }
        net.advance_until((round + 1) * TICK);
        take_arrived(&mut net, &mut h);
    }
    while take_arrived(&mut net, &mut h) || net.advance() {}
    assert!(net.quiescent());
    let json = serde_json::to_string(&net.stats().to_json()).expect("stats render");
    (h, fnv(FNV_OFFSET, json.as_bytes()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn networks() -> [(&'static str, usize, Topology); 3] {
    let geo = Topology::Geo {
        regions: 3,
        k: 4,
        inter: LatencyModel::Constant(2_500),
    };
    [
        ("mesh8", 8, Topology::FullMesh),
        ("relay3x12", 12, Topology::Relay { k: 3 }),
        ("geo15", 15, geo),
    ]
}

fn label(faults: u8) -> String {
    let on: Vec<&str> = (0..4)
        .filter(|bit| faults & (1 << bit) != 0)
        .map(|bit| FAULTS[bit])
        .collect();
    if on.is_empty() {
        "none".to_string()
    } else {
        on.join("+")
    }
}

#[test]
fn every_fault_combination_is_pinned() {
    let mut got: Vec<(String, u64, u64)> = Vec::new();
    for faults in 0..16u8 {
        for (name, n, topology) in networks() {
            for bandwidth in [false, true] {
                let cfg = config(faults, topology, bandwidth);
                for seed in [0, 7] {
                    let bw = if bandwidth { "bw" } else { "nobw" };
                    let (trace, stats) = script(cfg.build_net(n, seed));
                    got.push((
                        format!("{}/{name}/{bw}/s{seed}", label(faults)),
                        trace,
                        stats,
                    ));
                }
            }
        }
    }
    let moved: Vec<&str> = got
        .iter()
        .zip(PINS)
        .filter(|((label, t, s), (l, pt, ps))| label != l || t != pt || s != ps)
        .map(|((label, _, _), _)| label.as_str())
        .collect();
    if !moved.is_empty() || got.len() != PINS.len() {
        let mut table = String::new();
        for (label, t, s) in &got {
            table.push_str(&format!("    (\"{label}\", 0x{t:016x}, 0x{s:016x}),\n"));
        }
        panic!(
            "{} of {} rows moved: {moved:?}\nrecomputed rows:\n{table}",
            moved.len(),
            got.len()
        );
    }
}

#[test]
fn the_partition_cuts_exactly_the_crossing_links_inside_its_window() {
    let (from_ns, until_ns) = (1_000, 2_000);
    // Send times around both edges of the window, the clock moved there
    // before each wave.
    let waves = [0, 999, 1_000, 1_500, 1_999, 2_000, 3_000];
    for (name, n, topology) in networks()
        .into_iter()
        .chain([("mesh7", 7, Topology::FullMesh)])
    {
        for bandwidth in [false, true] {
            let mut b = NetConfig::builder()
                // Copies sent at 999 arrive inside the window, those sent
                // at 1 999 after it: the cut is decided at the send.
                .latency(LatencyModel::Constant(600))
                .topology(topology)
                .partition(from_ns, until_ns);
            if bandwidth {
                b = b.bandwidth_bps(4_096_000_000);
            }
            let mut net: SimNet<Msg> = b.build().expect("valid config").build_net(n, 3);
            let side = |node: usize| node < n / 2;
            let mut want = vec![0u64; n * n];
            for &at in &waves {
                net.advance_until(at);
                while (0..n).any(|node| net.deliver(node).is_some()) {}
                assert_eq!(net.now_ns(), at, "{name}: clock");
                let cut = (from_ns..until_ns).contains(&at);
                for from in 0..n {
                    for to in 0..n {
                        net.send(from, to, Msg { id: 0, bytes: 64 });
                        want[from * n + to] += u64::from(cut && side(from) != side(to));
                    }
                }
            }
            while (0..n).any(|node| net.deliver(node).is_some()) || net.advance() {}
            let stats = net.stats();
            for from in 0..n {
                for to in 0..n {
                    let c = stats.link(from, to);
                    let what = format!("{name} bandwidth {bandwidth}: {from}->{to}");
                    assert_eq!(c.dropped, want[from * n + to], "{what}: dropped");
                    assert_eq!(c.sent, waves.len() as u64, "{what}: sent");
                    assert_eq!(c.delivered + c.dropped, c.sent, "{what}: copies");
                }
            }
            // 2 · ⌊n/2⌋ · ⌈n/2⌉ crossing links, cut in the three waves
            // inside the window.
            let crossing = 2 * (n / 2) * (n - n / 2);
            assert_eq!(stats.totals().dropped, 3 * crossing as u64, "{name}");
        }
    }
}

/// Recorded on the injector-list simulator (see the header).
const PINS: &[(&str, u64, u64)] = &[
    ("none/mesh8/nobw/s0", 0x9aa33c9ca97569e6, 0xb06bf473a90a7cae),
    ("none/mesh8/nobw/s7", 0x0405b4b7e50634de, 0x7acb5d60bd7571df),
    ("none/mesh8/bw/s0", 0x3a0182e2c6711c9f, 0xd0b52a2fac6aed0d),
    ("none/mesh8/bw/s7", 0xca500943a4c3b1aa, 0xb443d2217fd09286),
    (
        "none/relay3x12/nobw/s0",
        0xf73e03f92ab20079,
        0x0cf338f7e9a7a604,
    ),
    (
        "none/relay3x12/nobw/s7",
        0xa9326506604cbab3,
        0x667392b1333657c5,
    ),
    (
        "none/relay3x12/bw/s0",
        0x41e3bdfc6ae563c4,
        0x13c891cb56e6f6b1,
    ),
    (
        "none/relay3x12/bw/s7",
        0xe2748633508b25f1,
        0xfdb8aef197d90c4d,
    ),
    ("none/geo15/nobw/s0", 0x1acb326b555a0b7c, 0x964baf1baea3cb86),
    ("none/geo15/nobw/s7", 0x5c4c9ef3e1d209dd, 0x39e5ee35f67cef7e),
    ("none/geo15/bw/s0", 0x424b89bc817a7688, 0xdd1e74ba953b671d),
    ("none/geo15/bw/s7", 0xd64b3bdaa11ad5b8, 0xf14f5a4f5c95f50c),
    ("drop/mesh8/nobw/s0", 0xdb20425ba65317a6, 0x8d19ea1a3aced5b4),
    ("drop/mesh8/nobw/s7", 0xba2b4f8ef0d7d01a, 0x9208e2092a0c554f),
    ("drop/mesh8/bw/s0", 0x0ea323d375bddc6d, 0x6521158574449799),
    ("drop/mesh8/bw/s7", 0x3147902974fefff8, 0xe46710246339bd6e),
    (
        "drop/relay3x12/nobw/s0",
        0x1d3fa3c97e919f04,
        0xf4f6a7150af15233,
    ),
    (
        "drop/relay3x12/nobw/s7",
        0x5cd31b0c3566c54d,
        0x70635a0e3292b151,
    ),
    (
        "drop/relay3x12/bw/s0",
        0xbe25d6ac41e8cc6e,
        0xc437ff0021460f11,
    ),
    (
        "drop/relay3x12/bw/s7",
        0x61938c90f70f296a,
        0x7e8e194a2914833f,
    ),
    ("drop/geo15/nobw/s0", 0xbe7695c51ef841c8, 0x5eee80f0efe4876a),
    ("drop/geo15/nobw/s7", 0x8fec886694467a6b, 0x908f644a34c46f62),
    ("drop/geo15/bw/s0", 0x57533738ee33ffc6, 0x2f560a9eaf55d62f),
    ("drop/geo15/bw/s7", 0x9dfdbf68e2a34f67, 0x3d1068eb7081aa7c),
    ("dup/mesh8/nobw/s0", 0xc6152aee793efde6, 0xaac50539ad3ff087),
    ("dup/mesh8/nobw/s7", 0x7a7167e36e050d26, 0x2e1bb0cb538f9784),
    ("dup/mesh8/bw/s0", 0x5467294d2daa1432, 0xd579240d0644ac9e),
    ("dup/mesh8/bw/s7", 0xfb33ccaba4021d38, 0xbb976532f934308a),
    (
        "dup/relay3x12/nobw/s0",
        0x6cc7680888b3a77e,
        0x8eab710dbaaee416,
    ),
    (
        "dup/relay3x12/nobw/s7",
        0x9bb6a684fca2fd21,
        0x57e91cf845124513,
    ),
    (
        "dup/relay3x12/bw/s0",
        0x31419735f8780c92,
        0x97644ea64683602c,
    ),
    (
        "dup/relay3x12/bw/s7",
        0x12865b2d97ac1587,
        0xe08bc9943d745e07,
    ),
    ("dup/geo15/nobw/s0", 0x9480edfa61cf4ca8, 0xd7d7da822a0739bb),
    ("dup/geo15/nobw/s7", 0x330e1a275e0f7514, 0x65f3a9530ff80e41),
    ("dup/geo15/bw/s0", 0x6f64fd86592811ec, 0x97b06743742d80e7),
    ("dup/geo15/bw/s7", 0xf4f06b1e0e561515, 0xf6fa5cce53949fcd),
    (
        "drop+dup/mesh8/nobw/s0",
        0xe11378dded8bbd2c,
        0x2b9ce018173f6a7b,
    ),
    (
        "drop+dup/mesh8/nobw/s7",
        0x8f5c4c2d057acdc6,
        0x6efc3ba4ba75c06e,
    ),
    (
        "drop+dup/mesh8/bw/s0",
        0xe8ca39fab1182bc5,
        0xbb40a8c19e15223c,
    ),
    (
        "drop+dup/mesh8/bw/s7",
        0x1c98b2d5a4dee4a1,
        0x1d8708eb0e7543b6,
    ),
    (
        "drop+dup/relay3x12/nobw/s0",
        0x992d385e3e983e15,
        0x1e50f7948bffe83c,
    ),
    (
        "drop+dup/relay3x12/nobw/s7",
        0xe93eb03bed94097b,
        0xfbb6023b3e3834c5,
    ),
    (
        "drop+dup/relay3x12/bw/s0",
        0xd3b5bc9164fee674,
        0x862b5e9457b8460a,
    ),
    (
        "drop+dup/relay3x12/bw/s7",
        0x3fb42c992608b7d4,
        0x0b95426e8733d542,
    ),
    (
        "drop+dup/geo15/nobw/s0",
        0xf66226af3305f9c9,
        0x558105069e88a587,
    ),
    (
        "drop+dup/geo15/nobw/s7",
        0x3446660fcd7c19d4,
        0x76e278ca296815dc,
    ),
    (
        "drop+dup/geo15/bw/s0",
        0xd38348b93aa9716a,
        0xb15aaece4691e1a4,
    ),
    (
        "drop+dup/geo15/bw/s7",
        0xdc598de94b077f4d,
        0x2f88728baf54a9f9,
    ),
    (
        "reorder/mesh8/nobw/s0",
        0x46defb3559cac2c3,
        0x1f6a5b1f96109042,
    ),
    (
        "reorder/mesh8/nobw/s7",
        0x5fce52870c09e3c3,
        0xbf89c6e5901a3738,
    ),
    (
        "reorder/mesh8/bw/s0",
        0x4a2c9ff5b73c2193,
        0x9de03f9592c7ba79,
    ),
    (
        "reorder/mesh8/bw/s7",
        0x9326da0fce94c051,
        0x5b5b5546fd0e968c,
    ),
    (
        "reorder/relay3x12/nobw/s0",
        0xc6f80a725b87eab9,
        0x22ff1e4522b7cdda,
    ),
    (
        "reorder/relay3x12/nobw/s7",
        0x083010dd2b97ff3e,
        0x8e4fc892a8ecab74,
    ),
    (
        "reorder/relay3x12/bw/s0",
        0xc208ab8c1f5efb0f,
        0xe0ab8a8b8a5fcb50,
    ),
    (
        "reorder/relay3x12/bw/s7",
        0xe8743676016fddca,
        0x6f660cf3b6f2787a,
    ),
    (
        "reorder/geo15/nobw/s0",
        0x91630dec5d347e90,
        0xe807a39883ef8c3d,
    ),
    (
        "reorder/geo15/nobw/s7",
        0xf4bb7b6302e02b3c,
        0xa93fa3be65c135e7,
    ),
    (
        "reorder/geo15/bw/s0",
        0x396bfe2e26c7ea2d,
        0x358a52465a8a13e5,
    ),
    (
        "reorder/geo15/bw/s7",
        0xe93f17b94f95a69f,
        0x9bb2896c4bb53719,
    ),
    (
        "drop+reorder/mesh8/nobw/s0",
        0x4910f4d7302e8dde,
        0xc1a434bacc97b9e6,
    ),
    (
        "drop+reorder/mesh8/nobw/s7",
        0x381687c1387cc561,
        0xe10886725a4dfb9b,
    ),
    (
        "drop+reorder/mesh8/bw/s0",
        0xbaf73a4d01b014d7,
        0xa4fcda0806aeb129,
    ),
    (
        "drop+reorder/mesh8/bw/s7",
        0x181b1295e137f64d,
        0xb6338bcadb599153,
    ),
    (
        "drop+reorder/relay3x12/nobw/s0",
        0x791e99d1a2018849,
        0x93db8a9d0aa1e27b,
    ),
    (
        "drop+reorder/relay3x12/nobw/s7",
        0xf48fe1bc17410d01,
        0x65b3e81a86dcfcd2,
    ),
    (
        "drop+reorder/relay3x12/bw/s0",
        0x297e0ccb81b05ab7,
        0x975729c25eccdbaa,
    ),
    (
        "drop+reorder/relay3x12/bw/s7",
        0x4aa613550c831385,
        0xc04f6af0eff96582,
    ),
    (
        "drop+reorder/geo15/nobw/s0",
        0x8afd968eeff11ce3,
        0xb5503a9af0f86507,
    ),
    (
        "drop+reorder/geo15/nobw/s7",
        0x59ca0b8d79127d43,
        0xa5428d85cd362e5d,
    ),
    (
        "drop+reorder/geo15/bw/s0",
        0x2bcd5c0e23fb7c01,
        0x85757daa2c42a321,
    ),
    (
        "drop+reorder/geo15/bw/s7",
        0xcdf458301248ec89,
        0xf420c31ca8c72b83,
    ),
    (
        "dup+reorder/mesh8/nobw/s0",
        0xf762d14caa955f7d,
        0x268099615c8d6ccc,
    ),
    (
        "dup+reorder/mesh8/nobw/s7",
        0xdfc4df5283e3a1ed,
        0x46bd45a7e813f055,
    ),
    (
        "dup+reorder/mesh8/bw/s0",
        0x56acf265d5e38369,
        0x8c664c15139fbfe0,
    ),
    (
        "dup+reorder/mesh8/bw/s7",
        0xc591168b8d504971,
        0x5a94da32440ecc8c,
    ),
    (
        "dup+reorder/relay3x12/nobw/s0",
        0x31861ff67e1c2048,
        0xccd688e7c6a4f13b,
    ),
    (
        "dup+reorder/relay3x12/nobw/s7",
        0xf32bfdec2d1d43b5,
        0xda8596e5b15fab20,
    ),
    (
        "dup+reorder/relay3x12/bw/s0",
        0xb9ca772e1e7fd014,
        0x5872de15e3b85cff,
    ),
    (
        "dup+reorder/relay3x12/bw/s7",
        0x2b91a88eb471fab6,
        0x47693f3799abaa56,
    ),
    (
        "dup+reorder/geo15/nobw/s0",
        0x45ac863f20dce77b,
        0xb4860071bcadea96,
    ),
    (
        "dup+reorder/geo15/nobw/s7",
        0xff1e06872daefa84,
        0xd10e83c456cc1cc0,
    ),
    (
        "dup+reorder/geo15/bw/s0",
        0x22cbcebf2089c0d3,
        0xffcfd53a7ea42605,
    ),
    (
        "dup+reorder/geo15/bw/s7",
        0x4de4b094df82b6bf,
        0x241cba0e7e9d1324,
    ),
    (
        "drop+dup+reorder/mesh8/nobw/s0",
        0x4a9c86ec56b30830,
        0x35363206058f8228,
    ),
    (
        "drop+dup+reorder/mesh8/nobw/s7",
        0xfa0380218cd644d3,
        0x524bc94872baafef,
    ),
    (
        "drop+dup+reorder/mesh8/bw/s0",
        0x94918ca66a23340e,
        0x2f2e7d9349483615,
    ),
    (
        "drop+dup+reorder/mesh8/bw/s7",
        0x48c06eb96c1aa2c7,
        0xa5bcfcf43a06abf8,
    ),
    (
        "drop+dup+reorder/relay3x12/nobw/s0",
        0x4245f1df0d568510,
        0x896c8beeb1c064bb,
    ),
    (
        "drop+dup+reorder/relay3x12/nobw/s7",
        0x92221ee9e4b33eea,
        0xcb4ec555faa84861,
    ),
    (
        "drop+dup+reorder/relay3x12/bw/s0",
        0xe7d317f04e88dc08,
        0x3b8182a65416c142,
    ),
    (
        "drop+dup+reorder/relay3x12/bw/s7",
        0xcc0dc074b1d8bf7e,
        0x10e96766fbede2e5,
    ),
    (
        "drop+dup+reorder/geo15/nobw/s0",
        0xf82b1e00378129c6,
        0xd7d77aaa92d438d5,
    ),
    (
        "drop+dup+reorder/geo15/nobw/s7",
        0x2b07b8b76af72e01,
        0x9a898074d802af18,
    ),
    (
        "drop+dup+reorder/geo15/bw/s0",
        0xcf4e51b2522878e1,
        0xb65f5707e521f7fc,
    ),
    (
        "drop+dup+reorder/geo15/bw/s7",
        0xa45c9db205af4703,
        0x95ab6710c5667a98,
    ),
    (
        "partition/mesh8/nobw/s0",
        0xef52efc2ae43f188,
        0x00660a9dbb8beb55,
    ),
    (
        "partition/mesh8/nobw/s7",
        0xeb545be63dca093c,
        0xc31a9bf36b53a9e8,
    ),
    (
        "partition/mesh8/bw/s0",
        0xc19103c5208304e1,
        0xf90243e260cd53ed,
    ),
    (
        "partition/mesh8/bw/s7",
        0x28cee6d91c77bda0,
        0x675b8e385d19d2de,
    ),
    (
        "partition/relay3x12/nobw/s0",
        0x09bc276acc4faa6a,
        0xb6504543a101d4fd,
    ),
    (
        "partition/relay3x12/nobw/s7",
        0x93425623400d43cb,
        0x4f7383a2ad247ae7,
    ),
    (
        "partition/relay3x12/bw/s0",
        0x6476e6b791bdb819,
        0x1e0f2c289289b711,
    ),
    (
        "partition/relay3x12/bw/s7",
        0xc222a2e1bf377845,
        0xb1ad359aba546f67,
    ),
    (
        "partition/geo15/nobw/s0",
        0x03891dca71097c3e,
        0xa03e1e7c8b032adc,
    ),
    (
        "partition/geo15/nobw/s7",
        0x8147627b7af78729,
        0x570b38d6c477ded6,
    ),
    (
        "partition/geo15/bw/s0",
        0x5321c858ee0f810b,
        0xdc8b1c77ac282042,
    ),
    (
        "partition/geo15/bw/s7",
        0x2f3fd3728d434a2c,
        0x5d904c431ed7104c,
    ),
    (
        "drop+partition/mesh8/nobw/s0",
        0xb38446d927835b5c,
        0x8841889fb4fc0c72,
    ),
    (
        "drop+partition/mesh8/nobw/s7",
        0x0869ab0d11581f04,
        0xe8dd53df12e796ca,
    ),
    (
        "drop+partition/mesh8/bw/s0",
        0x804991b2448a7fee,
        0x4f478f833f1d9b43,
    ),
    (
        "drop+partition/mesh8/bw/s7",
        0x3e4ce57c7030e068,
        0xe7c40eb16dc18e8a,
    ),
    (
        "drop+partition/relay3x12/nobw/s0",
        0xb9859f44279baf69,
        0x0725880d375fe194,
    ),
    (
        "drop+partition/relay3x12/nobw/s7",
        0x0fff038c543a1aec,
        0x544478cf7a3522bc,
    ),
    (
        "drop+partition/relay3x12/bw/s0",
        0xc0b27e08f990b365,
        0x9d42410d4d33641e,
    ),
    (
        "drop+partition/relay3x12/bw/s7",
        0xbdd34e933050b1fe,
        0x40bbd1244add6bdd,
    ),
    (
        "drop+partition/geo15/nobw/s0",
        0xef5b039cb59106b0,
        0x2397fbff429a1214,
    ),
    (
        "drop+partition/geo15/nobw/s7",
        0x3a582095f2ba1fc0,
        0x4c8f97558b4a255d,
    ),
    (
        "drop+partition/geo15/bw/s0",
        0xcf58456415c4d4b8,
        0xdff4d82eda747ae3,
    ),
    (
        "drop+partition/geo15/bw/s7",
        0x5a2d80e71bacbebd,
        0x7d0fef2fbe09a276,
    ),
    (
        "dup+partition/mesh8/nobw/s0",
        0x7f763c757333cd03,
        0x7b3f856891502666,
    ),
    (
        "dup+partition/mesh8/nobw/s7",
        0x0629aa7e4d110774,
        0x331261634266139a,
    ),
    (
        "dup+partition/mesh8/bw/s0",
        0x045a634770eeed41,
        0x814f753f58f9c46e,
    ),
    (
        "dup+partition/mesh8/bw/s7",
        0x51a927fe33a4a4c4,
        0x67863d4c0c43a425,
    ),
    (
        "dup+partition/relay3x12/nobw/s0",
        0x7086d8dd25008746,
        0x010c19f4340c8247,
    ),
    (
        "dup+partition/relay3x12/nobw/s7",
        0xea6274e199cb0ab6,
        0x2dba6d23f01f122a,
    ),
    (
        "dup+partition/relay3x12/bw/s0",
        0x7901c0f1989bacbb,
        0xdc64c44c79ae6522,
    ),
    (
        "dup+partition/relay3x12/bw/s7",
        0x151c8c9f07ea2090,
        0xefdc0e5ca7a19dfb,
    ),
    (
        "dup+partition/geo15/nobw/s0",
        0xcb0036afad8c0481,
        0x847c2d21c182b089,
    ),
    (
        "dup+partition/geo15/nobw/s7",
        0x9be122c90dced90a,
        0xa67cffbda45a6694,
    ),
    (
        "dup+partition/geo15/bw/s0",
        0x107f0137a7ee1b24,
        0x3654a879a0257482,
    ),
    (
        "dup+partition/geo15/bw/s7",
        0x8ae714b81971b6fb,
        0x229b24989b55c260,
    ),
    (
        "drop+dup+partition/mesh8/nobw/s0",
        0x8403875feb6fb446,
        0x796fff69d657644b,
    ),
    (
        "drop+dup+partition/mesh8/nobw/s7",
        0x6304e407a948e144,
        0xe5cb86d9add43fda,
    ),
    (
        "drop+dup+partition/mesh8/bw/s0",
        0x4e8290b08fdee251,
        0xe0af7564f1769eb2,
    ),
    (
        "drop+dup+partition/mesh8/bw/s7",
        0x60cea61fbcf60d72,
        0xb6a590d2c9a104ac,
    ),
    (
        "drop+dup+partition/relay3x12/nobw/s0",
        0xa6bf229ae585085f,
        0xf8fcedadea21893d,
    ),
    (
        "drop+dup+partition/relay3x12/nobw/s7",
        0x9ed2b267a2107290,
        0x1006574debc71fb0,
    ),
    (
        "drop+dup+partition/relay3x12/bw/s0",
        0xc3c041c2e9051dc4,
        0xc8ce9db880efe46b,
    ),
    (
        "drop+dup+partition/relay3x12/bw/s7",
        0x9cc6e2a03eb5b73e,
        0xbb179605798ecdb8,
    ),
    (
        "drop+dup+partition/geo15/nobw/s0",
        0x4ae72866cf459fa0,
        0xd71a3bd86161ea89,
    ),
    (
        "drop+dup+partition/geo15/nobw/s7",
        0xab213c15c878e700,
        0x7ea5735bfd19752c,
    ),
    (
        "drop+dup+partition/geo15/bw/s0",
        0x2a343e05c7f9dbab,
        0x3b8f7e1ae5b2b623,
    ),
    (
        "drop+dup+partition/geo15/bw/s7",
        0xc054c329f1f60474,
        0x53b2daf4182726d7,
    ),
    (
        "reorder+partition/mesh8/nobw/s0",
        0x13988679a0297ed1,
        0xe44315a9e7413b80,
    ),
    (
        "reorder+partition/mesh8/nobw/s7",
        0x702285d2474460f3,
        0xdcd8b957f45962cc,
    ),
    (
        "reorder+partition/mesh8/bw/s0",
        0xb6a803e1bffd5823,
        0xe0eb2026e5998397,
    ),
    (
        "reorder+partition/mesh8/bw/s7",
        0x42ac02c88f04880e,
        0xb0d0f41d3ddca9f2,
    ),
    (
        "reorder+partition/relay3x12/nobw/s0",
        0x2ea54656b7969ed9,
        0x4af0ce3cd027b578,
    ),
    (
        "reorder+partition/relay3x12/nobw/s7",
        0x0c807e6fb63f6eb7,
        0xd78ef0a83b33c5df,
    ),
    (
        "reorder+partition/relay3x12/bw/s0",
        0x9a9b362bdb062b7c,
        0xb26e57de2ba23534,
    ),
    (
        "reorder+partition/relay3x12/bw/s7",
        0x3b8db107f9c92751,
        0xa4b294cbc1f23037,
    ),
    (
        "reorder+partition/geo15/nobw/s0",
        0x93f1ae411f914e43,
        0xd20560144cca5e5c,
    ),
    (
        "reorder+partition/geo15/nobw/s7",
        0x1d8116864c962a64,
        0x448daf23e4f9e73a,
    ),
    (
        "reorder+partition/geo15/bw/s0",
        0xa2f2a9a232d0b3b6,
        0x4616b77d13f54e2c,
    ),
    (
        "reorder+partition/geo15/bw/s7",
        0x911d3225db35efe4,
        0x54cc2834d9ac4095,
    ),
    (
        "drop+reorder+partition/mesh8/nobw/s0",
        0xff87528e29499769,
        0x4ecf86bd8d9dbd3b,
    ),
    (
        "drop+reorder+partition/mesh8/nobw/s7",
        0xfe13ebca75a02f3c,
        0x4390acde7b9318ad,
    ),
    (
        "drop+reorder+partition/mesh8/bw/s0",
        0xf9358a0a83535e28,
        0xb596a1d6c9740849,
    ),
    (
        "drop+reorder+partition/mesh8/bw/s7",
        0xbbda6078a782b65d,
        0xc625e0b2686bac1a,
    ),
    (
        "drop+reorder+partition/relay3x12/nobw/s0",
        0xc6528dffa8f38871,
        0x2e5a75f748be1ca8,
    ),
    (
        "drop+reorder+partition/relay3x12/nobw/s7",
        0x6d31be6b173fd417,
        0x86278b9b722e17b1,
    ),
    (
        "drop+reorder+partition/relay3x12/bw/s0",
        0x8ebde99dc4c0ad75,
        0x841eb8334f47e5c3,
    ),
    (
        "drop+reorder+partition/relay3x12/bw/s7",
        0x5f182e460d921a9b,
        0xb0270db93350fe02,
    ),
    (
        "drop+reorder+partition/geo15/nobw/s0",
        0xa7433f50b0e71a2d,
        0xe1b0fbc1a0c39e35,
    ),
    (
        "drop+reorder+partition/geo15/nobw/s7",
        0x60ce01ee15789aaa,
        0xece24306edfae96d,
    ),
    (
        "drop+reorder+partition/geo15/bw/s0",
        0x190b030246c6b4e5,
        0x790d9b705a264323,
    ),
    (
        "drop+reorder+partition/geo15/bw/s7",
        0xb5c2482e4ef88b3f,
        0x2c1a62e7621d35f9,
    ),
    (
        "dup+reorder+partition/mesh8/nobw/s0",
        0x0cad402151f933ee,
        0x1a2f760d06ab05ab,
    ),
    (
        "dup+reorder+partition/mesh8/nobw/s7",
        0x5a4c624a4fe6166f,
        0x04c6ef09801617e2,
    ),
    (
        "dup+reorder+partition/mesh8/bw/s0",
        0x0bbe94f081364d3e,
        0x0fab7001f650aa3e,
    ),
    (
        "dup+reorder+partition/mesh8/bw/s7",
        0xe34c9b4353f6c05d,
        0x1165e6352f55c3b6,
    ),
    (
        "dup+reorder+partition/relay3x12/nobw/s0",
        0x2d0be9113d2dc471,
        0x02599e46cb419516,
    ),
    (
        "dup+reorder+partition/relay3x12/nobw/s7",
        0xa2df8b93b7106db9,
        0xdd3e12067b538482,
    ),
    (
        "dup+reorder+partition/relay3x12/bw/s0",
        0xbdde6c5014fd725c,
        0x1bb279781600b0ea,
    ),
    (
        "dup+reorder+partition/relay3x12/bw/s7",
        0x67d7c79166328a0b,
        0xebae98e5c46a1bb1,
    ),
    (
        "dup+reorder+partition/geo15/nobw/s0",
        0xcc51b1f167aa2d17,
        0x36f29f59e2a8cded,
    ),
    (
        "dup+reorder+partition/geo15/nobw/s7",
        0x6dd8024e26705d18,
        0xc3630f963713e3f7,
    ),
    (
        "dup+reorder+partition/geo15/bw/s0",
        0x26fe2ccbe278b322,
        0xf54446fde6752cc6,
    ),
    (
        "dup+reorder+partition/geo15/bw/s7",
        0x1c418192198fcbaf,
        0xe7c754c0d3154b28,
    ),
    (
        "drop+dup+reorder+partition/mesh8/nobw/s0",
        0xad81cdeb30b12cca,
        0x8beb7c3ae9013ce9,
    ),
    (
        "drop+dup+reorder+partition/mesh8/nobw/s7",
        0x667267adc3c39d3a,
        0x7efe2ad7c0ed7a31,
    ),
    (
        "drop+dup+reorder+partition/mesh8/bw/s0",
        0x94db0d36ed0b5b7e,
        0x3287543b4471a861,
    ),
    (
        "drop+dup+reorder+partition/mesh8/bw/s7",
        0x5f1565b8bd59404c,
        0x33d29a6679f992cc,
    ),
    (
        "drop+dup+reorder+partition/relay3x12/nobw/s0",
        0x5fc334002fcbaffd,
        0x70db5a8cace3e8c9,
    ),
    (
        "drop+dup+reorder+partition/relay3x12/nobw/s7",
        0xe039cd368121e36f,
        0x8e55598a5b308d82,
    ),
    (
        "drop+dup+reorder+partition/relay3x12/bw/s0",
        0x2e36b29e08181658,
        0x7e2000e62da7a14d,
    ),
    (
        "drop+dup+reorder+partition/relay3x12/bw/s7",
        0x55ecf7502a7cc794,
        0x767427a0515f3eb9,
    ),
    (
        "drop+dup+reorder+partition/geo15/nobw/s0",
        0xa0eae91f965e1051,
        0x515f7bd67030b879,
    ),
    (
        "drop+dup+reorder+partition/geo15/nobw/s7",
        0x0a633ce436cf9bef,
        0xb812a192ab0650ec,
    ),
    (
        "drop+dup+reorder+partition/geo15/bw/s0",
        0xa5b7428a61b81111,
        0x446c8b168c1920f1,
    ),
    (
        "drop+dup+reorder+partition/geo15/bw/s7",
        0x594d1de6bec30b5f,
        0x288ea7e462c6a331,
    ),
];
