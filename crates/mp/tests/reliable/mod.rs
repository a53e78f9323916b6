//! The reliable network: per-node FIFO inboxes, every message arriving
//! the moment it is sent. The reference that a fault-free zero-latency
//! `SimNet` is held to (`transport_equiv`), and the substrate the pins in
//! `reliable_pins` and `view_spec`'s replay bound were written for. Not
//! shipped: `MpSystem::new` runs on an ideal `SimNet`.

use am_mp::{Envelope, Payload};
use am_net::Transport;
use std::collections::VecDeque;

/// Per-node FIFO inboxes plus counters.
pub struct ReliableNet {
    inboxes: Vec<VecDeque<Envelope>>,
    /// One bit per node with a non-empty inbox ([`Transport::backlogged`]).
    backlogged: Vec<u64>,
    sent: u64,
    delivered: u64,
}

impl ReliableNet {
    /// A network of `n` nodes with nothing sent.
    pub fn new(n: usize) -> ReliableNet {
        ReliableNet {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            backlogged: vec![0; n.div_ceil(64)],
            sent: 0,
            delivered: 0,
        }
    }
}

/// Nothing is ever in flight, so `advance` has nothing to do.
impl Transport<Payload> for ReliableNet {
    fn n(&self) -> usize {
        self.inboxes.len()
    }

    fn send(&mut self, from: usize, to: usize, payload: Payload) {
        self.sent += 1;
        self.inboxes[to].push_back(Envelope { from, to, payload });
        self.backlogged[to / 64] |= 1 << (to % 64);
    }

    fn backlog(&self, node: usize) -> usize {
        self.inboxes[node].len()
    }

    fn backlogged(&self) -> &[u64] {
        &self.backlogged
    }

    fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope> {
        let inbox = &mut self.inboxes[node];
        let e = inbox.remove(idx);
        if e.is_some() {
            self.delivered += 1;
            if inbox.is_empty() {
                self.backlogged[node / 64] &= !(1 << (node % 64));
            }
        }
        e
    }

    fn advance(&mut self) -> bool {
        false
    }

    fn quiescent(&self) -> bool {
        self.backlogged.iter().all(|&word| word == 0)
    }

    fn sent_count(&self) -> u64 {
        self.sent
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }
}
