//! The in-process simulated network.
//!
//! Point-to-point FIFO inboxes with broadcast, message counting, and
//! droppable links (a Byzantine node "not responding" is modelled by the
//! node simply not reacting; the network itself is reliable, as the
//! Section 4 model requires correct nodes to be available at all times).

use crate::sig::Signature;
use crate::view::MpView;
use am_net::{Kinded, Transport};
use std::collections::VecDeque;

/// The wire payloads of Algorithms 2 and 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// `append(val(v))_v` — a signed append announcement.
    Append {
        /// Authoring node.
        author: usize,
        /// Author's sequence number for this append.
        seq: u64,
        /// The value (opaque to the network).
        value: i8,
        /// Content hash the signature covers.
        content: u64,
        /// The author's signature.
        sig: Signature,
    },
    /// `ack(append(val(w))_w)_v` — acknowledgement of someone's append.
    Ack {
        /// Whose append is being acked.
        author: usize,
        /// Which append of theirs.
        seq: u64,
        /// Content hash of the acked append.
        content: u64,
    },
    /// `M.read()` — a read request.
    ReadReq {
        /// Requester's operation id.
        op: u64,
    },
    /// A full local view sent back to a reader.
    ViewResp {
        /// The operation id this responds to.
        op: u64,
        /// A snapshot of the responder's local view. [`MpView`] shares its
        /// storage with the responder's live view, so building, cloning
        /// and dropping this payload is O(1), whatever the history.
        view: MpView,
    },
}

impl Kinded for Payload {
    fn kind(&self) -> &'static str {
        match self {
            Payload::Append { .. } => "append",
            Payload::Ack { .. } => "ack",
            Payload::ReadReq { .. } => "read_req",
            Payload::ViewResp { .. } => "view_resp",
        }
    }
}

/// A message in flight.
pub type Envelope = am_net::Envelope<Payload>;

/// The simulated network: per-node FIFO inboxes plus counters.
pub struct Network {
    n: usize,
    inboxes: Vec<VecDeque<Envelope>>,
    /// One bit per node with a non-empty inbox ([`Transport::backlogged`]).
    backlogged: Vec<u64>,
    sent: u64,
    delivered: u64,
}

impl Network {
    /// Creates a network for `n` nodes.
    pub fn new(n: usize) -> Network {
        Network {
            n,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            backlogged: vec![0; n.div_ceil(64)],
            sent: 0,
            delivered: 0,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sends a point-to-point message.
    pub fn send(&mut self, from: usize, to: usize, payload: Payload) {
        self.sent += 1;
        self.inboxes[to].push_back(Envelope { from, to, payload });
        self.backlogged[to / 64] |= 1 << (to % 64);
    }

    /// Broadcasts to every node including the sender (self-delivery keeps
    /// the algorithms symmetric, as in the paper's pseudocode).
    pub fn broadcast(&mut self, from: usize, payload: Payload) {
        for to in 0..self.n {
            self.send(from, to, payload.clone());
        }
    }

    /// Pops the next message for `node`, if any.
    pub fn deliver(&mut self, node: usize) -> Option<Envelope> {
        self.deliver_at(node, 0)
    }

    /// Pops the message at position `idx` of `node`'s inbox — the
    /// adversarial-reordering primitive (asynchrony = delivery-order
    /// freedom).
    pub fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope> {
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

    /// Whether any message is still in flight.
    pub fn quiescent(&self) -> bool {
        self.backlogged.iter().all(|&word| word == 0)
    }

    /// Total messages sent so far (the complexity metric of E4).
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Total messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages waiting for `node`.
    pub fn backlog(&self, node: usize) -> usize {
        self.inboxes[node].len()
    }
}

/// The reliable network is the degenerate substrate: every sent message
/// arrives instantly, so `advance` has nothing to do. Algorithms written
/// against [`Transport`] run identically over [`Network`] and a
/// fault-free zero-latency [`am_net::SimNet`] (see the
/// `transport_equiv` tests).
impl Transport<Payload> for Network {
    fn n(&self) -> usize {
        Network::n(self)
    }

    fn send(&mut self, from: usize, to: usize, payload: Payload) {
        Network::send(self, from, to, payload);
    }

    fn backlog(&self, node: usize) -> usize {
        Network::backlog(self, node)
    }

    fn backlogged(&self) -> &[u64] {
        &self.backlogged
    }

    fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope> {
        Network::deliver_at(self, node, idx)
    }

    fn advance(&mut self) -> bool {
        false // nothing is ever "in flight"
    }

    fn quiescent(&self) -> bool {
        Network::quiescent(self)
    }

    fn sent_count(&self) -> u64 {
        Network::sent_count(self)
    }

    fn delivered_count(&self) -> u64 {
        Network::delivered_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping(op: u64) -> Payload {
        Payload::ReadReq { op }
    }

    #[test]
    fn fifo_per_receiver() {
        let mut net = Network::new(2);
        net.send(0, 1, ping(1));
        net.send(0, 1, ping(2));
        let a = net.deliver(1).unwrap();
        let b = net.deliver(1).unwrap();
        assert_eq!(a.payload, ping(1));
        assert_eq!(b.payload, ping(2));
        assert!(net.deliver(1).is_none());
    }

    #[test]
    fn broadcast_hits_everyone_including_self() {
        let mut net = Network::new(3);
        net.broadcast(1, ping(9));
        for node in 0..3 {
            let e = net.deliver(node).unwrap();
            assert_eq!(e.from, 1);
            assert_eq!(e.to, node);
        }
        assert!(net.quiescent());
    }

    #[test]
    fn counters_track_traffic() {
        let mut net = Network::new(4);
        net.broadcast(0, ping(1));
        assert_eq!(net.sent_count(), 4);
        assert_eq!(net.delivered_count(), 0);
        assert_eq!(net.backlog(2), 1);
        net.deliver(2);
        assert_eq!(net.delivered_count(), 1);
        assert!(!net.quiescent());
    }
}
