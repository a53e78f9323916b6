//! Fault injection against a *running* cluster: the node runtime must
//! keep serving archive reads while a minority of nodes is partitioned
//! away, fail partition-crossing protocol operations with typed errors
//! (never hangs), and converge every node to an identical linearization
//! once the partition heals — all under a lossy network.

use am_net::{LatencyModel, NetConfig};
use am_node::api::{
    ApiError, AppendReq, LinearizeReq, ReadReq, Request, Response, SnapshotAtReq, TipReq,
};
use am_node::cluster::{Cluster, ClusterConfig};
use am_node::mempool::MempoolConfig;

const N: usize = 5;
const PARTITION_FROM: u64 = 10_000;
const PARTITION_UNTIL: u64 = 50_000;

/// A `NetConfig` partition window cuts `0..n/2` off from the rest, so with
/// five nodes the minority side is `{0, 1}` and the majority `{2, 3, 4}`
/// keeps a quorum of 3.
fn faulty_cluster(drop_prob: f64, seed: u64) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: N,
        seed,
        net: NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .drop(drop_prob)
            .partition(PARTITION_FROM, PARTITION_UNTIL)
            .build()
            .expect("valid config"),
        mempool: MempoolConfig::default(),
    })
}

/// An author whose appends execute on protocol node `node` (the cluster
/// routes author → node by modulo).
fn author_on(node: usize) -> u64 {
    node as u64
}

fn append(c: &mut Cluster, author: u64) -> Response {
    c.handle(&Request::Append(AppendReq { author, value: 1 }))
}

fn tip_height(c: &mut Cluster, node: u64) -> u64 {
    match c.handle(&Request::Tip(TipReq { node })) {
        Response::Tip(t) => t.height,
        other => panic!("tip on node {node} failed: {other:?}"),
    }
}

fn lin_digest(c: &mut Cluster, node: u64) -> (u64, u64) {
    match c.handle(&Request::Linearize(LinearizeReq { node })) {
        Response::Linearized(l) => (l.height, l.digest),
        other => panic!("linearize on node {node} failed: {other:?}"),
    }
}

#[test]
fn minority_partition_keeps_serving_archive_reads() {
    let mut c = faulty_cluster(0.0, 7);

    // Phase A: healthy traffic before the partition window opens.
    for i in 0..12 {
        let r = append(&mut c, author_on(i % N));
        assert!(!r.is_err(), "pre-partition append {i} failed: {r:?}");
    }
    c.converge();
    let height_before = tip_height(&mut c, 0);
    assert_eq!(height_before, 12);

    // Phase B: inside the partition window. Nodes {0, 1} are cut off.
    c.advance_to(PARTITION_FROM);

    // The majority side keeps deciding new appends...
    let mut decided_during = 0;
    for i in 0..9 {
        let r = append(&mut c, author_on(2 + (i % 3)));
        assert!(!r.is_err(), "majority append {i} failed: {r:?}");
        decided_during += 1;
    }
    assert!(!c.handle(&Request::Read(ReadReq { node: 3 })).is_err());

    // ...while the partitioned nodes KEEP SERVING archive reads: tip,
    // snapshot-at-height, and linearization answer from decided history
    // without touching the network.
    for node in [0u64, 1] {
        assert_eq!(
            tip_height(&mut c, node),
            height_before,
            "node {node} serves its archived tip while partitioned"
        );
        match c.handle(&Request::SnapshotAt(SnapshotAtReq { node, height: 5 })) {
            Response::Snapshot(s) => {
                assert_eq!(s.height, 5);
                assert_eq!(s.tail.len(), 5);
            }
            other => panic!("snapshot on partitioned node {node} failed: {other:?}"),
        }
        let (h, _) = lin_digest(&mut c, node);
        assert_eq!(h, height_before);
    }
    // The majority archives moved on past the minority's.
    assert_eq!(tip_height(&mut c, 2), height_before + decided_during);

    // Protocol ops through the minority stall with a *typed* error —
    // never a hang. (The stalled value stays buffered in the minority's
    // local views: undecided now, merged into everyone after heal.)
    assert_eq!(
        append(&mut c, author_on(0)),
        Response::Error(ApiError::Stalled),
        "an append executing on a partitioned minority node must stall"
    );
    assert_eq!(
        c.handle(&Request::Read(ReadReq { node: 1 })),
        Response::Error(ApiError::Stalled),
        "a quorum read on a partitioned minority node must stall"
    );

    // Phase C: heal, then one anti-entropy sweep converges everyone.
    c.advance_to(PARTITION_UNTIL + 1_000);
    c.converge();
    let reference = lin_digest(&mut c, 0);
    for node in 1..N as u64 {
        assert_eq!(
            lin_digest(&mut c, node),
            reference,
            "node {node} diverged after heal"
        );
    }
    // 12 pre-partition + 9 majority-decided + the once-stalled minority
    // append, which the sweep recovered from the minority's buffers.
    assert_eq!(reference.0, 12 + decided_during + 1);

    // The archives agree on the canonical order itself, not just its
    // digest.
    let canonical = c.archive(0).linearization();
    for node in 1..N {
        assert_eq!(
            c.archive(node).linearization(),
            canonical,
            "node {node}'s canonical order diverged"
        );
    }
}

#[test]
fn drop_plus_partition_schedule_still_converges() {
    // A lossy network on top of the partition: individual protocol ops
    // may stall (typed, never hanging), archive reads always answer, and
    // heal + sweeps still converge every node that the quorum reaches.
    let mut c = faulty_cluster(0.05, 23);

    let mut decided = 0u64;
    let mut stalled = 0u64;
    let drive = |c: &mut Cluster, authors: &[usize], rounds: usize| {
        let (mut ok, mut bad) = (0u64, 0u64);
        for i in 0..rounds {
            match append(c, author_on(authors[i % authors.len()])) {
                Response::Appended(_) => ok += 1,
                Response::Error(ApiError::Stalled) => bad += 1,
                other => panic!("unexpected append outcome: {other:?}"),
            }
        }
        (ok, bad)
    };

    // Healthy-but-lossy phase.
    let (ok, bad) = drive(&mut c, &[0, 1, 2, 3, 4], 20);
    decided += ok;
    stalled += bad;
    assert!(ok > 0, "a 5% lossy network still decides appends");

    // Partition phase: only majority-side authors make progress.
    c.advance_to(PARTITION_FROM);
    let (ok, bad) = drive(&mut c, &[2, 3, 4], 15);
    decided += ok;
    stalled += bad;
    assert!(ok > 0, "the majority side still decides under loss");
    // Archive queries on the cut-off minority never error.
    for node in [0u64, 1] {
        assert!(!c.handle(&Request::Tip(TipReq { node })).is_err());
        assert!(!c
            .handle(&Request::Linearize(LinearizeReq { node }))
            .is_err());
    }

    // Heal; two sweeps (a dropped view response in the first round is
    // re-requested by the second) converge all five nodes.
    c.advance_to(PARTITION_UNTIL + 1_000);
    c.converge();
    c.converge();
    let reference = lin_digest(&mut c, 0);
    for node in 1..N as u64 {
        assert_eq!(
            lin_digest(&mut c, node),
            reference,
            "node {node} diverged after heal under drops (decided={decided}, stalled={stalled})"
        );
    }
    // Every decided append is in the converged history (stalled ones may
    // or may not have spread — they are allowed either way, the *set*
    // just has to agree).
    assert!(reference.0 >= decided, "converged height covers decisions");
}
