//! Substrate equivalence: a fault-free, zero-latency `am-net` simulator
//! is observationally identical to the reliable network (the test-side
//! reference in `reliable/`) — the property that lets Algorithms 2/3 run
//! unchanged over either.

mod reliable;

use am_mp::{MpMsg, MpSystem, Payload};
use am_net::{LatencyModel, NetConfig, SimNet, Transport};
use proptest::prelude::*;
use reliable::ReliableNet;

/// Drains every arrived/in-flight message via the Transport interface,
/// FIFO per node, lowest node first — the same schedule for any substrate.
fn drain_fifo<T: Transport<Payload>>(net: &mut T) -> Vec<(usize, usize, &'static str)> {
    use am_net::Kinded;
    let mut out = Vec::new();
    loop {
        let mut any = false;
        for node in 0..net.n() {
            while let Some(env) = net.deliver(node) {
                out.push((env.from, env.to, env.payload.kind()));
                any = true;
            }
        }
        if !net.advance() && !any {
            break;
        }
    }
    out
}

fn ideal_sim(n: usize, seed: u64) -> SimNet<Payload> {
    NetConfig::ideal(LatencyModel::Constant(0)).build_net(n, seed)
}

/// One scripted operation for the equivalence property.
#[derive(Clone, Debug)]
enum Op {
    Append { node: u8, value: i8 },
    Read { node: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -1i8..=1).prop_map(|(node, value)| Op::Append { node, value }),
        any::<u8>().prop_map(|node| Op::Read { node }),
    ]
}

/// Every observable outcome of a script: append results, read results,
/// settled per-node views, total messages sent.
type Observed = (
    Vec<Result<MpMsg, am_mp::MpError>>,
    Vec<Option<Vec<MpMsg>>>,
    Vec<Vec<MpMsg>>,
    u64,
);

/// Runs a script on any substrate, returning every observable outcome.
fn run_script<T: Transport<Payload>>(mut sys: MpSystem<T>, ops: &[Op]) -> Observed {
    let n = sys.n();
    let mut appends = Vec::new();
    let mut reads = Vec::new();
    for o in ops {
        match *o {
            Op::Append { node, value } => {
                appends.push(sys.append(node as usize % n, value));
            }
            Op::Read { node } => {
                reads.push(sys.read(node as usize % n).ok().map(|v| v.to_vec()));
            }
        }
    }
    sys.settle();
    let mut views: Vec<Vec<MpMsg>> = (0..n).map(|v| sys.local_view(v).to_vec()).collect();
    for v in &mut views {
        v.sort_by_key(|m| (m.author, m.seq, m.content));
    }
    (appends, reads, views, sys.total_sent())
}

#[test]
fn fifo_delivery_order_matches_reliable_network() {
    // Same scripted sends on both substrates → identical delivery order.
    let script = |net: &mut dyn Transport<Payload>| {
        for round in 0..3u64 {
            for from in 0..4 {
                net.broadcast(from, Payload::ReadReq { op: round });
            }
            net.send(
                1,
                2,
                Payload::Ack {
                    author: 0,
                    seq: round,
                    content: round * 7,
                },
            );
        }
    };
    let mut reliable = ReliableNet::new(4);
    script(&mut reliable);
    let a = drain_fifo(&mut reliable);

    let mut sim = ideal_sim(4, 99);
    script(&mut sim);
    let b = drain_fifo(&mut sim);

    assert_eq!(
        a, b,
        "zero-latency fault-free SimNet must be FIFO-identical"
    );
    assert_eq!(reliable.sent_count(), sim.sent_count());
    assert_eq!(reliable.delivered_count(), sim.delivered_count());
    assert!(reliable.quiescent() && sim.quiescent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full ABD simulation gives identical observable outcomes over
    /// both substrates: same append results, same read views, same final
    /// views, same total message count.
    #[test]
    fn abd_outcomes_identical_over_both_substrates(
        n in 3usize..7,
        ops in prop::collection::vec(op(), 1..12),
        seed in any::<u64>(),
    ) {
        let reliable = MpSystem::with_transport(ReliableNet::new(n), &[], seed);
        let sim = MpSystem::with_transport(ideal_sim(n, seed), &[], seed);

        let (a_app, a_read, a_views, a_sent) = run_script(reliable, &ops);
        let (b_app, b_read, b_views, b_sent) = run_script(sim, &ops);

        prop_assert_eq!(&a_app, &b_app, "append outcomes diverged");
        // Read views may be merged in different pump interleavings, so
        // compare as sorted sets.
        prop_assert_eq!(a_read.len(), b_read.len());
        for (x, y) in a_read.iter().zip(b_read.iter()) {
            let norm = |v: &Option<Vec<MpMsg>>| {
                v.as_ref().map(|v| {
                    let mut v = v.clone();
                    v.sort_by_key(|m| (m.author, m.seq, m.content));
                    v
                })
            };
            prop_assert_eq!(norm(x), norm(y), "read outcomes diverged");
        }
        prop_assert_eq!(a_views, b_views, "settled views diverged");
        prop_assert_eq!(a_sent, b_sent, "message complexity diverged");
    }

    /// Safety survives lossy networks: whatever the drop rate, a
    /// completed append is visible to every later completed read
    /// (drops can only cause stalls — liveness, never safety).
    #[test]
    fn drops_never_break_safety(
        drop_pct in 0u8..60,
        seed in any::<u64>(),
    ) {
        let n = 5;
        let net: SimNet<Payload> = NetConfig::builder()
            .latency(LatencyModel::Exponential { mean: 1000 })
            .drop(drop_pct as f64 / 100.0)
            .build()
            .expect("valid config")
            .build_net(n, seed);
        let mut sys = MpSystem::with_transport(net, &[], seed);
        let mut completed: Vec<MpMsg> = Vec::new();
        for i in 0..4 {
            if let Ok(m) = sys.append(i % n, 1) {
                completed.push(m);
            }
            if let Ok(view) = sys.read((i + 1) % n) {
                for m in &completed {
                    prop_assert!(
                        view.contains(m),
                        "completed append {:?} invisible to a completed read",
                        m
                    );
                }
            }
        }
    }
}
