//! Schedules pinned on the reliable reference network (`reliable/`),
//! the substrate their numbers were written for: two quorum ablations
//! that steer delivery with pauses and LIFO order, and the FNV pin of a
//! pause/resume script. Over the shipped `SimNet` the same ablations run
//! across a partition, in `abd.rs`'s tests.

mod reliable;

use am_mp::{Delivery, MpMsg, MpSystem};
use reliable::ReliableNet;

fn system(n: usize, seed: u64) -> MpSystem<ReliableNet> {
    MpSystem::with_transport(ReliableNet::new(n), &[], seed)
}

#[test]
fn sub_majority_quorum_breaks_visibility() {
    // The ablation behind "> n/2": with quorum 2 of 5, an append can
    // complete against {0, 1} while a later read consults {2, 3} —
    // disjoint quorums, invisible append.
    let mut sys = system(5, 7);
    sys.set_quorum(2);
    // Node 0 appends; only nodes 0 and 1 are reachable.
    sys.pause(2);
    sys.pause(3);
    sys.pause(4);
    let m = sys.append(0, 1).expect("tiny quorum completes");
    // Now flip the partition: the reader can only reach {2, 3, 4},
    // never {0, 1} — and the stale append broadcast is *overtaken* by
    // the read traffic (LIFO reordering: asynchrony lets new messages
    // arrive before old ones).
    sys.resume(2);
    sys.resume(3);
    sys.resume(4);
    sys.pause(0);
    sys.pause(1);
    sys.set_delivery(Delivery::Lifo);
    let view = sys.read(4).expect("read completes on the other side");
    assert!(
        !view.contains(&m),
        "quorum 2 of 5 must lose the append — quorum intersection fails"
    );
}

#[test]
fn asymmetric_quorums_without_intersection_fail() {
    // w = 2, r = 3 in n = 5: w + r = 5 ≤ n → a read can miss a write.
    let mut sys = system(5, 13);
    sys.set_quorums(2, 3);
    sys.pause(2);
    sys.pause(3);
    sys.pause(4);
    let m = sys.append(0, 1).expect("w=2 write completes");
    sys.resume(2);
    sys.resume(3);
    sys.resume(4);
    sys.pause(0);
    sys.pause(1);
    sys.set_delivery(Delivery::Lifo);
    let view = sys.read(4).expect("read completes on the other side");
    assert!(
        !view.contains(&m),
        "w+r = n must lose the append in this schedule"
    );
}

/// A node's view rebuilt message by message from what it stores — what
/// every snapshot must equal, however its leaves are shared.
fn rebuilt_view(sys: &MpSystem<ReliableNet>, node: usize) -> Vec<MpMsg> {
    sys.view(node).iter().copied().collect()
}

#[test]
fn pause_resume_views_and_ack_tallies_match_naive_baselines() {
    // The incremental structures must survive the pause/resume
    // catch-up path: a resumed node replays its whole backlog into an
    // MpView that already has live snapshots (earlier ViewResps), and
    // ack bitmasks keep counting across the pause. Every observable of
    // the script is pinned to what the deep-clone / per-read-rebuild /
    // HashMap-tally baselines produced at 38356ab (the last commit to
    // carry them; they and the shipped paths were asserted equal there
    // before the FNV-1a of the Debug form was recorded), and each
    // node's snapshot must equal its own rebuild.
    let mut sys = system(5, 23);
    sys.set_delivery(Delivery::Random);
    let mut keys = Vec::new();
    sys.pause(3);
    sys.pause(4);
    for i in 0..6 {
        let m = sys.append(i % 3, i as i8).unwrap();
        keys.push((m.author, m.seq, m.content));
    }
    let mid_read = sys.read(1).unwrap();
    sys.resume(3);
    sys.resume(4);
    sys.pause(0);
    for i in 0..4 {
        let m = sys.append(1 + i % 2, -(i as i8)).unwrap();
        keys.push((m.author, m.seq, m.content));
    }
    sys.resume(0);
    sys.settle();
    let acks: Vec<usize> = keys.iter().map(|&k| sys.ack_count(k)).collect();
    let views: Vec<Vec<MpMsg>> = (0..5).map(|v| sys.local_view(v).to_vec()).collect();
    for (v, snapshot) in views.iter().enumerate() {
        assert_eq!(
            *snapshot,
            rebuilt_view(&sys, v),
            "node {v}: snapshot diverged from rebuild"
        );
    }
    let observed = (mid_read.to_vec(), acks, views, sys.total_sent());
    let fnv = format!("{observed:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(fnv, 0x53b9_58bf_47db_a18c, "moved: {observed:?}");
    // Every append completed, so every key reached its quorum of 3.
    assert!(observed.1.iter().all(|&c| c >= 3));
}
