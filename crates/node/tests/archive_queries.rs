//! `SnapshotAt` / `SnapshotAtFinal` answers read the archive's log in
//! place (`Archive::tail_at`); this suite holds every answer to the
//! construction they replaced, a prefix view per query:
//! `archive(node).snapshot_at(h).iter_from(h.saturating_sub(8))`.
//!
//! One n = 4 cluster is driven past 2 100 archived messages with quorum
//! reads interleaved, and snapshots of the logs are held while they grow,
//! so the queried logs share leaves and tails with views still alive.
//! The final sweep covers every height `0..=height + 3` on every node:
//! the leaf boundary (64/65), the first trie-height boundary
//! (2 048/2 049), and heights past the end, which must clamp.

use am_mp::MpView;
use am_node::api::{
    ApiMsg, AppendReq, ReadReq, Request, Response, SnapshotAtFinalReq, SnapshotAtReq, SnapshotResp,
};
use am_node::{Archive, Cluster, ClusterConfig};

const N: usize = 4;
const TARGET: usize = 2_100;

/// What a snapshot answer was before: a prefix view of the clamped height,
/// then its last eight messages.
fn prefix_answer(ar: &Archive, height: usize, digest: u64) -> Response {
    let snap: MpView = ar.snapshot_at(height);
    Response::Snapshot(SnapshotResp {
        height: height as u64,
        digest,
        tail: snap
            .iter_from(height.saturating_sub(8))
            .map(|m| ApiMsg::from(*m))
            .collect(),
    })
}

fn check_snapshot_at(c: &mut Cluster, node: usize, height: usize) {
    let ar = c.archive(node);
    let clamped = height.min(ar.height());
    let want = prefix_answer(ar, clamped, ar.digest_at(clamped).expect("clamped"));
    let got = c.handle(&Request::SnapshotAt(SnapshotAtReq {
        node: node as u64,
        height: height as u64,
    }));
    assert_eq!(got, want, "node {node}, SnapshotAt {{ height: {height} }}");
}

fn check_snapshot_at_final(c: &mut Cluster, node: usize) {
    let ar = c.archive(node);
    let want = prefix_answer(ar, ar.finalized_height(), ar.finalized_digest());
    let got = c.handle(&Request::SnapshotAtFinal(SnapshotAtFinalReq {
        node: node as u64,
    }));
    assert_eq!(got, want, "node {node}, SnapshotAtFinal");
}

#[test]
fn in_place_answers_equal_prefix_view_answers() {
    let mut c = Cluster::new(ClusterConfig::ideal(N, 43));
    let mut held: Vec<(usize, MpView)> = Vec::new();
    let mut step = 0u64;
    while c.archive(0).height() < TARGET {
        let resp = c.handle(&Request::Append(AppendReq {
            author: step % 7,
            value: (step % 3) as i8 - 1,
        }));
        assert!(matches!(resp, Response::Appended(_)), "{resp:?}");
        if step.is_multiple_of(5) {
            let node = (step / 5) as usize % N;
            let resp = c.handle(&Request::Read(ReadReq { node: node as u64 }));
            assert!(matches!(resp, Response::View(_)), "{resp:?}");
        }
        if step.is_multiple_of(97) {
            // Mid-growth: the heights just below each node's tip, with a
            // snapshot of that log kept alive while the log grows on.
            for node in 0..N {
                let h = c.archive(node).height();
                for height in h.saturating_sub(10)..=h + 1 {
                    check_snapshot_at(&mut c, node, height);
                }
                check_snapshot_at_final(&mut c, node);
                held.push((node, c.archive(node).snapshot()));
            }
        }
        step += 1;
    }

    for node in 0..N {
        let height = c.archive(node).height();
        for h in 0..=height + 3 {
            check_snapshot_at(&mut c, node, h);
        }
        check_snapshot_at_final(&mut c, node);
    }
    let height = c.archive(0).height();
    assert!(
        height > 2_049,
        "the sweep crosses the trie-height boundary: {height}"
    );
    let resp = c.handle(&Request::SnapshotAt(SnapshotAtReq {
        node: 0,
        height: u64::MAX,
    }));
    match resp {
        Response::Snapshot(s) => {
            assert_eq!(s.height, height as u64, "heights past the end clamp");
            assert_eq!(s.tail.len(), 8);
        }
        other => panic!("{other:?}"),
    }

    // After anti-entropy every node holds every message; finality follows.
    c.converge();
    for node in 0..N {
        check_snapshot_at_final(&mut c, node);
        for h in [0, 1, 7, 8, 9, 63, 64, 65, 2_047, 2_048, 2_049] {
            check_snapshot_at(&mut c, node, h);
        }
    }
    // The logs grew past every held snapshot without disturbing it: each
    // still equals its log's prefix.
    for (node, snap) in &held {
        assert_eq!(
            *snap,
            c.archive(*node).snapshot_at(snap.len()),
            "node {node}"
        );
    }
}
