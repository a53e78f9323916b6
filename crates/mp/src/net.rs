//! The wire format of Algorithms 2 and 3.
//!
//! Messages travel over any [`am_net::Transport`]; [`crate::MpSystem::new`]
//! uses a fault-free zero-latency [`am_net::SimNet`]. A Byzantine node
//! "not responding" is modelled by the node simply not reacting, not by
//! the wire.

use crate::sig::Signature;
use crate::view::MpView;
use am_net::Kinded;

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
