//! The validity memo: `MpSystem` keeps the last message whose validity it
//! established, so the other n − 1 receivers of one broadcast append skip
//! the content hash and the MAC. Validity is a pure function of a message's
//! five fields and the key ring, so the memo may answer only for a copy
//! equal to it in all five; anything else is checked afresh.
//!
//! Each test steers a copy to a node that does not hold the message yet,
//! right after the system verified a message it resembles — a paused node
//! holds the genuine copy, the look-alike is queued behind it, and LIFO
//! delivery hands the look-alike over first. Checked to catch, each on its
//! own: a memo that compares everything but the signature (a forgery
//! passes), one keyed by `(author, seq)` (an equivocated look-alike under
//! a stolen signature passes), and a memo consulted before the membership
//! test (a duplicated copy is admitted twice).

use am_mp::{Delivery, MpMsg, MpSystem, Payload, Signature};
use am_net::{LatencyModel, NetConfig, Transport};
use std::collections::BTreeSet;

fn wire(m: &MpMsg) -> Payload {
    Payload::Append {
        author: m.author,
        seq: m.seq,
        value: m.value,
        content: m.content,
        sig: m.sig,
    }
}

/// Queues `m`, sent by `from`, behind everything already in `to`'s inbox.
fn queue_behind(sys: &mut MpSystem, from: usize, to: usize, m: &MpMsg) {
    sys.transport_mut().send(from, to, wire(m));
    sys.transport_mut().advance();
}

#[test]
fn a_copy_off_the_verified_append_by_one_field_is_rejected() {
    type Edit = fn(&mut MpMsg);
    let edits: [(&str, Edit); 5] = [
        ("signature", |m| m.sig = Signature(m.sig.0 ^ 1)),
        ("value", |m| m.value = m.value.wrapping_add(1)),
        ("content", |m| m.content ^= 1),
        ("author", |m| m.author = 1),
        ("seq", |m| m.seq += 1),
    ];
    for (field, edit) in edits {
        // Node 2 is paused through the append, so the genuine copy waits
        // in its inbox while nodes 0, 1 and 3 verify it.
        let mut sys = MpSystem::new(5, &[4], 7);
        sys.pause(2);
        let genuine = sys.append(0, 7).unwrap();
        let mut forged = genuine;
        edit(&mut forged);
        queue_behind(&mut sys, 4, 2, &forged);
        sys.set_delivery(Delivery::Lifo);
        sys.resume(2);
        sys.settle();
        let view: Vec<MpMsg> = sys.local_view(2).iter().copied().collect();
        assert_eq!(view, [genuine], "{field}: node 2 took the forged copy");
        for node in [0, 1, 3] {
            assert!(
                !sys.local_view(node).contains(&forged),
                "{field}: node {node}"
            );
        }
    }
}

#[test]
fn an_equivocated_second_value_is_verified_on_its_own() {
    // Byzantine node 4 signs value 1 for nodes 0 and 1 and value −1 for
    // the rest, under one sequence number. Nodes 2 and 3 are paused, so
    // the system's last verified message is the first value.
    let mut sys = MpSystem::new(5, &[4], 7);
    sys.pause(2);
    sys.pause(3);
    let (ma, mb) = sys.byz_equivocate(4, 1, -1, &[0, 1]).unwrap();
    sys.settle();
    assert!(sys.local_view(0).contains(&ma) && sys.local_view(1).contains(&ma));
    // The second value under the first one's signature: same author and
    // sequence number as what was just verified, so only a check of its
    // own can turn it away.
    let stolen = MpMsg { sig: ma.sig, ..mb };
    queue_behind(&mut sys, 4, 3, &stolen);
    sys.set_delivery(Delivery::Lifo);
    sys.resume(3);
    sys.settle();
    let view: Vec<MpMsg> = sys.local_view(3).iter().copied().collect();
    assert_eq!(view, [mb], "node 3 holds the second value, properly signed");
    sys.resume(2);
    sys.settle();
    assert!(sys.local_view(2).contains(&mb));
    for node in 0..4 {
        assert!(!sys.local_view(node).contains(&stolen), "node {node}");
    }
}

#[test]
fn no_message_is_admitted_twice() {
    for seed in 0..8 {
        for delivery in [Delivery::Fifo, Delivery::Lifo, Delivery::Random] {
            let what = format!("seed {seed}, {delivery:?}");
            // Every copy is duplicated half the time, so a copy often
            // arrives right behind its twin, the message the system has
            // just verified.
            let net = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 40 })
                .dup(0.5)
                .reorder(0.3)
                .build()
                .unwrap()
                .build_net(5, seed);
            let mut sys = MpSystem::with_transport(net, &[], seed);
            sys.set_delivery(delivery);
            let mut appended = Vec::new();
            for round in 0..6 {
                for node in 0..5 {
                    appended.push(sys.append(node, (round * 5 + node) as i8).unwrap());
                }
                sys.read(round % 5).unwrap();
            }
            sys.settle();
            let want: BTreeSet<(usize, u64, u64)> = appended
                .iter()
                .map(|m| (m.author, m.seq, m.content))
                .collect();
            for node in 0..5 {
                let view = sys.local_view(node);
                let held: Vec<(usize, u64, u64)> =
                    view.iter().map(|m| (m.author, m.seq, m.content)).collect();
                let distinct: BTreeSet<_> = held.iter().copied().collect();
                assert_eq!(
                    held.len(),
                    distinct.len(),
                    "{what}: node {node} admitted a copy twice"
                );
                assert_eq!(distinct, want, "{what}: node {node}");
            }
            for m in &appended {
                assert!(sys.ack_count((m.author, m.seq, m.content)) <= 5, "{what}");
            }
        }
    }
}
