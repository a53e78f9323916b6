//! The `mp/*` lanes of the perf ledger: one simulated `M.append` /
//! `M.read` across system sizes over `MpSystem::new`'s ideal `SimNet`
//! (E4's n + n² / 2n message counts as wall clock), a read far behind
//! the appends (the serving shape), ABD over a faulty `SimNet`, and the
//! view operations whose cost must not depend on the history behind
//! them.

use am_bench::recorder::Recorder;
use am_mp::{MpMsg, MpSystem, MpView, Payload, Signature};
use am_net::{LatencyModel, NetConfig, SimNet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A view of `h` distinct messages, built outside any `MpSystem`.
fn view_of(h: u64) -> MpView {
    let msgs: Vec<MpMsg> = (0..h)
        .map(|i| MpMsg {
            author: (i % 7) as usize,
            seq: i,
            value: 1,
            content: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            sig: Signature(i),
        })
        .collect();
    MpView::from_slice(&msgs)
}

/// ns per settled append on a long-lived n-node system, authors
/// round-robin over the correct nodes.
fn append_lane(rec: &mut Recorder, op: &str, n: usize, byz: &[usize], budget: Duration) {
    let mut sys = MpSystem::new(n, byz, 1);
    let correct = n - byz.len();
    let mut i = 0usize;
    rec.measure_absolute(op, 1, budget, || {
        i += 1;
        let m = sys
            .append(i % correct, 1)
            .expect("ideal network cannot stall");
        sys.settle();
        m.seq
    });
}

fn main() {
    let mut rec = Recorder::layer("mp");
    let budget = Duration::from_millis(700);

    // E4 per operation: Algorithm 2 (append, n + n² messages) and
    // Algorithm 3 (read of a four-append history, 2n messages). The append
    // lanes' systems keep every message, hence the shorter budget.
    let e4_budget = Duration::from_millis(300);
    for n in [4usize, 8, 16, 32] {
        append_lane(&mut rec, &format!("mp/append_n{n}"), n, &[], e4_budget);
        let mut sys = MpSystem::new(n, &[], 1);
        for i in 0..4 {
            sys.append(i % n, 1).expect("ideal network cannot stall");
            sys.settle();
        }
        rec.measure_absolute(&format!("mp/read_n{n}"), 1, e4_budget, || {
            let v = sys.read(1).expect("ideal network cannot stall");
            sys.settle();
            v.len()
        });
    }
    // The same append with the top third of the nodes Byzantine (silent):
    // the quorum is met by the correct majority alone.
    let byz: Vec<usize> = (11..16).collect();
    append_lane(&mut rec, "mp/append_n16_byz5", 16, &byz, e4_budget);

    // The serving shape (`am-node`'s cluster on `serve_append_heavy`): n = 8,
    // appends back to back without settling, then a quorum read by a node
    // whose last read is 840 appends old: every responder's 840-message
    // suffix is walked and nothing in it is new, the broadcasts having
    // delivered it already.
    let mut sys = MpSystem::new(8, &[], 11);
    let mut i = 0usize;
    rec.measure_absolute_part(
        "mp/read_n8_simnet_gap840",
        1,
        Duration::from_millis(1600),
        || {
            for _ in 0..840 {
                i += 1;
                sys.append(i % 8, 1).expect("ideal network cannot stall");
            }
            let start = Instant::now();
            black_box(sys.read(0).expect("ideal network cannot stall").len());
            start.elapsed()
        },
    );

    // An E14-shaped sweep cell: 800 append + read + read rounds at n = 8
    // over a lossy, then partitioned, network — ns per ABD operation.
    let sweep = || {
        let mut acc = 0u64;
        for (drop, partition) in [(0.05, None), (0.15, Some((50_000_000u64, 250_000_000u64)))] {
            let n = 8usize;
            let mut cfg = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 1_000_000 })
                .drop(drop)
                .trace(true);
            if let Some((from_ns, until_ns)) = partition {
                cfg = cfg.partition(from_ns, until_ns);
            }
            let net: SimNet<Payload> = cfg.build().expect("valid config").build_net(n, 0xe14);
            let mut sys = MpSystem::with_transport(net, &[], 0xe14);
            for i in 0..800 {
                let _ = sys.append(i % n, 1);
                let _ = sys.read((i + 1) % n);
                let _ = sys.read((i + 3) % n);
            }
            acc += sys.total_sent();
        }
        acc
    };
    rec.measure_absolute(
        "mp/abd_e14_drop_partition",
        2 * 800 * 3,
        Duration::from_millis(900),
        sweep,
    );

    // Snapshotting one node's view of a settled 1000-append history.
    let mut sys = MpSystem::new(5, &[], 7);
    for i in 0..1000usize {
        sys.append(i % 5, 1).expect("ideal network cannot stall");
    }
    rec.measure_absolute("mp/local_view_h1000", 1, budget, || sys.local_view(0).len());

    // The shape of the persistent view: a snapshot (taken and dropped) at
    // a thousand and at a million messages, a cut in the middle of the
    // million, and the first push after a snapshot of it (at a million
    // the tail is full, so it moves into the trie and the right edge the
    // snapshot shares is copied — the dearer of the two cases; the
    // pushed-to copy is dropped, so the view stays at a million).
    let small = view_of(1_000);
    let large = view_of(1_000_000);
    for (op, view) in [
        ("mp/view_clone_h1000", &small),
        ("mp/view_clone_h1000000", &large),
    ] {
        rec.measure_absolute(op, 1, budget, || black_box(view).clone());
    }
    let mut k = 0usize;
    rec.measure_absolute("mp/prefix_mid_h1000000", 1, budget, || {
        k = (k + 1) % 100;
        large.prefix(black_box(500_000 + k))
    });
    let next = *small.last().expect("non-empty");
    rec.measure_absolute("mp/push_after_snapshot_h1000000", 1, budget, || {
        let mut live = large.clone();
        live.push(black_box(next));
        live
    });
    drop((small, large));

    // One quorum read at n = 4 whose reader is five appends behind, on a
    // history of 20 000 that grows by the five untimed appends per call
    // (a read's cost does not depend on it: `mp/view_clone_*`).
    let mut sys = MpSystem::new(4, &[], 11);
    for i in 0..20_000usize {
        sys.append(i % 4, 1).expect("ideal network cannot stall");
    }
    sys.read(0).expect("ideal network cannot stall");
    let mut i = 0usize;
    rec.measure_absolute_part(
        "mp/read_n4_gap5_h20000",
        1,
        Duration::from_millis(60),
        || {
            for _ in 0..5 {
                i += 1;
                sys.append(i % 4, 1).expect("ideal network cannot stall");
            }
            let start = Instant::now();
            black_box(sys.read(0).expect("ideal network cannot stall").len());
            start.elapsed()
        },
    );
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
