//! The backlog set each substrate maintains ([`Transport::backlogged`]),
//! held to a rescan of `backlog(i) > 0` after every call the ABD pump
//! makes into the substrate: every delivery, every advance of simulated
//! time and every send or broadcast it answers with. Scripts mix appends,
//! reads and pause/resume under all three delivery policies, over the
//! reliable reference network (`reliable/`) and over `SimNet`, at n = 5
//! and at n = 70 (two-word bitsets, pauses either side of the word
//! boundary), with one `NetScratch` carried through n = 5 → 70 → 5.
//!
//! Checked to catch, each on its own: `SimNet` setting no bit at admit,
//! not clearing it when a take empties an inbox, clearing it while the
//! inbox still holds arrivals, or keeping a set sized for the previous
//! network on a recycled scratch; the reference not clearing its bit.

mod reliable;

use am_mp::{Delivery, MpSystem, Payload};
use am_net::{Envelope, LatencyModel, NetConfig, NetScratch, SimNet, Transport};
use proptest::prelude::*;
use reliable::ReliableNet;

/// A substrate that checks the backlog set against a rescan after every
/// call that can move a message.
struct Rescanned<T> {
    net: T,
    checks: u64,
}

impl<T: Transport<Payload>> Rescanned<T> {
    fn new(net: T) -> Rescanned<T> {
        let mut wrapped = Rescanned { net, checks: 0 };
        wrapped.check();
        wrapped
    }

    fn check(&mut self) {
        let n = self.net.n();
        let words = self.net.backlogged();
        assert_eq!(words.len(), n.div_ceil(64), "one bit per node, no more");
        for node in 0..words.len() * 64 {
            let bit = words[node / 64] >> (node % 64) & 1 == 1;
            let waiting = node < n && self.net.backlog(node) > 0;
            assert_eq!(bit, waiting, "node {node} of {n}");
        }
        self.checks += 1;
    }
}

impl<T: Transport<Payload>> Transport<Payload> for Rescanned<T> {
    fn n(&self) -> usize {
        self.net.n()
    }

    fn send(&mut self, from: usize, to: usize, payload: Payload) {
        self.net.send(from, to, payload);
        self.check();
    }

    fn broadcast(&mut self, from: usize, payload: Payload) {
        self.net.broadcast(from, payload);
        self.check();
    }

    fn backlog(&self, node: usize) -> usize {
        self.net.backlog(node)
    }

    fn backlogged(&self) -> &[u64] {
        self.net.backlogged()
    }

    fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope<Payload>> {
        let env = self.net.deliver_at(node, idx);
        self.check();
        env
    }

    fn advance(&mut self) -> bool {
        let any = self.net.advance();
        self.check();
        any
    }

    fn quiescent(&self) -> bool {
        self.net.quiescent()
    }

    fn sent_count(&self) -> u64 {
        self.net.sent_count()
    }

    fn delivered_count(&self) -> u64 {
        self.net.delivered_count()
    }
}

/// One scripted step; node numbers are taken modulo n.
#[derive(Clone, Copy, Debug)]
enum Op {
    Append(usize),
    Read(usize),
    Pause(usize),
    Resume(usize),
    Settle,
}

const POLICIES: [Delivery; 3] = [Delivery::Fifo, Delivery::Lifo, Delivery::Random];

/// Runs `script` (stalls allowed: a paused majority blocks a quorum),
/// resumes everyone, settles, and hands the system back.
fn run<T: Transport<Payload>>(
    mut sys: MpSystem<Rescanned<T>>,
    delivery: Delivery,
    script: &[Op],
) -> MpSystem<Rescanned<T>> {
    let n = sys.n();
    sys.set_delivery(delivery);
    for &op in script {
        match op {
            Op::Append(v) => {
                let _ = sys.append(v % n, 1);
            }
            Op::Read(v) => {
                let _ = sys.read(v % n);
            }
            Op::Pause(v) => sys.pause(v % n),
            Op::Resume(v) => sys.resume(v % n),
            Op::Settle => {
                sys.settle();
            }
        }
    }
    for v in 0..n {
        sys.resume(v);
    }
    sys.settle();
    assert!(sys.transport().quiescent());
    sys
}

fn ideal() -> NetConfig {
    NetConfig::ideal(LatencyModel::Constant(0))
}

/// A lossy, reordering wire: arrivals spread over time, so the set is
/// also exercised between advances.
fn lossy() -> NetConfig {
    NetConfig::builder()
        .latency(LatencyModel::Exponential { mean: 1_000 })
        .drop(0.1)
        .dup(0.1)
        .build()
        .expect("static config")
}

fn op() -> impl Strategy<Value = Op> {
    (0..11u8, 0..5usize).prop_map(|(what, v)| match what {
        0..=3 => Op::Append(v),
        4..=5 => Op::Read(v),
        6..=7 => Op::Pause(v),
        8..=9 => Op::Resume(v),
        _ => Op::Settle,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_backlog_set_is_the_rescan_at_n5(
        script in prop::collection::vec(op(), 1..14),
        seed in 0u64..1_000,
    ) {
        for delivery in POLICIES {
            let sys = MpSystem::with_transport(Rescanned::new(ReliableNet::new(5)), &[], seed);
            run(sys, delivery, &script);
            for cfg in [ideal(), lossy()] {
                let net: SimNet<Payload> = cfg.build_net(5, seed);
                let sys = MpSystem::with_transport(Rescanned::new(net), &[], seed);
                run(sys, delivery, &script);
            }
        }
    }
}

/// The n = 70 script: appends from either word, a read, pauses on both
/// sides of the word boundary (a minority, so quorums still form) and
/// their release mid-script.
fn wide_script() -> Vec<Op> {
    vec![
        Op::Pause(63),
        Op::Pause(64),
        Op::Pause(69),
        Op::Append(0),
        Op::Append(66),
        Op::Read(65),
        Op::Resume(64),
        Op::Pause(1),
        Op::Append(64),
        Op::Resume(63),
        Op::Read(2),
    ]
}

#[test]
fn the_backlog_set_is_the_rescan_at_n70_and_on_a_recycled_scratch() {
    let short = [
        Op::Pause(4),
        Op::Append(0),
        Op::Read(3),
        Op::Resume(4),
        Op::Append(4),
    ];
    for delivery in POLICIES {
        let sys = MpSystem::with_transport(Rescanned::new(ReliableNet::new(70)), &[], 7);
        let sys = run(sys, delivery, &wide_script());
        assert!(sys.transport().checks > 10_000);
        for cfg in [ideal(), lossy()] {
            // One scratch through n = 5 → 70 → 5: the set is resized for
            // each network, never carried over.
            let mut scratch = NetScratch::new();
            for (n, script) in [(5, &short[..]), (70, &wide_script()[..]), (5, &short[..])] {
                let net: SimNet<Payload> = cfg.build_net_with_scratch(n, 7, scratch);
                let sys = MpSystem::with_transport(Rescanned::new(net), &[], 7);
                let sys = run(sys, delivery, script);
                assert!(
                    sys.stats().msgs_per_append.len() >= 2,
                    "{delivery:?} at n = {n}"
                );
                scratch = sys.into_transport().net.into_scratch();
            }
        }
    }
}
