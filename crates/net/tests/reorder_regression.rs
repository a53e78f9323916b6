//! Pins the exact delivery order of a reorder-faulted network at seed 0.
//!
//! `SimNet::deliver_at` used to shift the whole inbox tail on every
//! middle removal; it is now an order-preserving O(1) tombstone take.
//! The observable contract — which message comes out for which index —
//! must never change, or every seeded experiment would silently produce
//! different histories. This test replays a fixed script over a heavily
//! reordering + duplicating profile at seed 0 and asserts the full
//! delivery sequence (including adversarial middle-of-inbox takes)
//! against values recorded from the pre-tombstone implementation.

use am_net::{Kinded, LatencyModel, NetConfig, SimNet, Transport};

#[derive(Clone, Debug, PartialEq, Eq)]
struct Ping(u64);

impl Kinded for Ping {
    fn kind(&self) -> &'static str {
        "ping"
    }
}

/// FNV-1a over the delivery tuples — a compact pin for a long sequence.
fn fingerprint(deliveries: &[(usize, usize, u64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &(from, to, val) in deliveries {
        for x in [from as u64, to as u64, val] {
            h = (h ^ x).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn run_seed0() -> Vec<(usize, usize, u64)> {
    let mut net: SimNet<Ping> = NetConfig::builder()
        .latency(LatencyModel::Uniform { lo: 10, hi: 1_000 })
        .reorder(0.5)
        .dup(0.25)
        .build()
        .expect("valid config")
        .build_net(4, 0);

    let mut out = Vec::new();
    for round in 0..4u64 {
        for from in 0..4 {
            net.broadcast(from, Ping(round * 100 + from as u64));
        }
        net.send(1, 2, Ping(round * 100 + 90));
        // Advance in small slices and take from adversarial positions:
        // middle, last, then front — exercising every inbox code path.
        for slice in 0..5 {
            net.advance_until(round * 2_000 + slice * 400);
            for node in 0..4 {
                let mut b = net.backlog(node);
                while b > 0 {
                    let idx = match b % 3 {
                        0 => b / 2, // middle
                        1 => 0,     // front
                        _ => b - 1, // back
                    };
                    let env = net.deliver_at(node, idx).expect("index < backlog");
                    out.push((env.from, env.to, env.payload.0));
                    b -= 1;
                }
            }
        }
    }
    while net.advance() {
        for node in 0..4 {
            while let Some(env) = net.deliver(node) {
                out.push((env.from, env.to, env.payload.0));
            }
        }
    }
    assert!(net.quiescent());
    out
}

#[test]
fn delivery_order_under_reorder_faults_is_unchanged_at_seed_0() {
    let got = run_seed0();
    // Pinned from the pre-tombstone `VecDeque::remove` implementation,
    // recorded by running this exact script against it.
    assert_eq!(got.len(), 86, "delivery count changed");
    assert_eq!(
        &got[..8],
        &[
            (2, 1, 2),
            (2, 2, 2),
            (0, 0, 0),
            (1, 0, 1),
            (3, 0, 3),
            (2, 0, 2),
            (0, 1, 0),
            (3, 1, 3),
        ],
        "leading deliveries changed"
    );
    assert_eq!(
        fingerprint(&got),
        0xac46a958fb87df58,
        "full delivery sequence diverged from the pre-tombstone recording"
    );
}
