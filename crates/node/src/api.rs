//! The typed request API: every operation a client can ask of a node
//! cluster, plus its response, as plain serializable data.
//!
//! The shapes are deliberately JSON-RPC-flavoured: a [`Request`] renders
//! as a single-key object (`{"Append": {"author": 3, "value": 1}}`), a
//! [`Response`] likewise, so the in-process transport in
//! [`crate::runtime`] could be swapped for a wire without changing any
//! client. Responses carry heights, digests, and message tails — never
//! whole views — so a response's size is bounded by what the client asked
//! for, not by history.
//!
//! All enums use tuple variants wrapping named payload structs (the
//! vendored serde derive's supported enum shape).

use serde::{Deserialize, Serialize};

/// An append with the sequence number auto-assigned by the mempool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppendReq {
    /// Client author key.
    pub author: u64,
    /// Value to append.
    pub value: i8,
}

/// An append at an explicit client sequence number (rejected on gaps and
/// replays — the strict per-author ordering lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppendSeqReq {
    /// Client author key.
    pub author: u64,
    /// The author's claimed sequence number.
    pub seq: u64,
    /// Value to append.
    pub value: i8,
}

/// A quorum read executed by one node (Algorithm 3 under the hood).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadReq {
    /// The node that runs the read.
    pub node: u64,
}

/// The latest archived message of one node — served locally from the
/// archive, no network round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TipReq {
    /// The node whose archive is queried.
    pub node: u64,
}

/// Archive snapshot at a height — served locally from the archive's log:
/// the height's digest and the last 8 messages below it, read in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotAtReq {
    /// The node whose archive is queried.
    pub node: u64,
    /// Height (message count) of the requested prefix.
    pub height: u64,
}

/// Canonical linearization digest of a node's archive — served locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearizeReq {
    /// The node whose archive is queried.
    pub node: u64,
}

/// The node's finalized watermark (quorum-replicated prefix height) and
/// its digest — served locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinalizedHeightReq {
    /// The node whose archive is queried.
    pub node: u64,
}

/// Archive snapshot pinned to the node's finalized watermark — the
/// strongest prefix a client can read without trusting a single node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotAtFinalReq {
    /// The node whose archive is queried.
    pub node: u64,
}

/// Everything a client can ask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Submit an append; the mempool assigns the sequence number.
    Append(AppendReq),
    /// Submit an append at an explicit sequence number.
    AppendSeq(AppendSeqReq),
    /// Run a quorum read on a node.
    Read(ReadReq),
    /// The node's archived tip.
    Tip(TipReq),
    /// An archive snapshot at a height.
    SnapshotAt(SnapshotAtReq),
    /// The node's canonical linearization digest.
    Linearize(LinearizeReq),
    /// The node's finalized watermark and its digest.
    FinalizedHeight(FinalizedHeightReq),
    /// An archive snapshot at the node's finalized watermark.
    SnapshotAtFinal(SnapshotAtFinalReq),
    /// Cluster-wide counters.
    Stats,
}

/// One archived message as the API reports it (the signature stays
/// internal to the protocol layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiMsg {
    /// Authoring protocol node.
    pub author: u64,
    /// The author's sequence number.
    pub seq: u64,
    /// The appended value.
    pub value: i8,
    /// Content hash (identity of the append instance).
    pub content: u64,
}

impl From<am_mp::MpMsg> for ApiMsg {
    fn from(m: am_mp::MpMsg) -> ApiMsg {
        ApiMsg {
            author: m.author as u64,
            seq: m.seq,
            value: m.value,
            content: m.content,
        }
    }
}

/// A completed append.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppendedResp {
    /// The author the append was credited to.
    pub author: u64,
    /// The client sequence number it was admitted at.
    pub seq: u64,
    /// The protocol node that executed it.
    pub node: u64,
    /// Content hash of the decided message.
    pub content: u64,
}

/// A completed quorum read: the view summarized, not shipped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewResp {
    /// The node that ran the read.
    pub node: u64,
    /// Messages in the merged view.
    pub len: u64,
    /// Rolling digest of the view in append order.
    pub digest: u64,
}

/// The archived tip of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TipResp {
    /// Archived height.
    pub height: u64,
    /// The tip message, if the archive is non-empty.
    pub tip: Option<ApiMsg>,
}

/// An archive snapshot summary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotResp {
    /// Height the snapshot was clamped to.
    pub height: u64,
    /// Rolling digest at that height.
    pub digest: u64,
    /// The last few messages of the snapshot (newest last, at most 8) —
    /// enough for a client to verify continuity without O(history) bytes.
    pub tail: Vec<ApiMsg>,
}

/// A canonical linearization digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearizedResp {
    /// Archived height the digest covers.
    pub height: u64,
    /// Digest of the sorted (canonical) message set.
    pub digest: u64,
}

/// A finalized-watermark report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinalizedResp {
    /// The finalized prefix height (quorum-replicated).
    pub height: u64,
    /// Rolling digest of the finalized prefix.
    pub digest: u64,
    /// The node's full archived height, for gauging its lag.
    pub archived: u64,
}

/// Cluster-wide counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsResp {
    /// Protocol nodes in the cluster.
    pub nodes: u64,
    /// Appends decided so far.
    pub appends: u64,
    /// Quorum reads completed so far.
    pub reads: u64,
    /// Appends currently pending in the mempool.
    pub mempool: u64,
    /// Network messages sent so far.
    pub sent: u64,
}

/// Typed failures a request can come back with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApiError {
    /// The operation could not reach its quorum (partitioned minority,
    /// too many nodes down).
    Stalled,
    /// The mempool is at capacity; resubmit after backoff.
    MempoolFull,
    /// The author is at its per-author mempool allowance.
    AuthorFull,
    /// The explicit sequence number skips ahead of the author's next.
    Gap(GapInfo),
    /// The explicit sequence number was already admitted.
    Duplicate(DupInfo),
    /// The request named a node outside the cluster.
    NoSuchNode,
}

/// Detail for [`ApiError::Gap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapInfo {
    /// The sequence the mempool would admit next.
    pub expected: u64,
    /// The sequence that was submitted.
    pub got: u64,
}

/// Detail for [`ApiError::Duplicate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DupInfo {
    /// The replayed sequence number.
    pub seq: u64,
}

/// Everything a node can answer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The append was decided.
    Appended(AppendedResp),
    /// The quorum read completed.
    View(ViewResp),
    /// The archived tip.
    Tip(TipResp),
    /// The archive snapshot summary.
    Snapshot(SnapshotResp),
    /// The canonical linearization digest.
    Linearized(LinearizedResp),
    /// The finalized watermark.
    Finalized(FinalizedResp),
    /// Cluster counters.
    Stats(StatsResp),
    /// The request failed with a typed error.
    Error(ApiError),
}

impl Response {
    /// Whether the response is an error.
    pub fn is_err(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(r: Request) {
        let json = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r, "request round-trip through {json}");
    }

    fn round_trip_resp(r: Response) {
        let json = serde_json::to_string(&r).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r, "response round-trip through {json}");
    }

    #[test]
    fn requests_round_trip_as_json() {
        round_trip_req(Request::Append(AppendReq {
            author: 7,
            value: -1,
        }));
        round_trip_req(Request::AppendSeq(AppendSeqReq {
            author: 7,
            seq: 3,
            value: 1,
        }));
        round_trip_req(Request::Read(ReadReq { node: 2 }));
        round_trip_req(Request::Tip(TipReq { node: 0 }));
        round_trip_req(Request::SnapshotAt(SnapshotAtReq { node: 1, height: 9 }));
        round_trip_req(Request::Linearize(LinearizeReq { node: 3 }));
        round_trip_req(Request::FinalizedHeight(FinalizedHeightReq { node: 2 }));
        round_trip_req(Request::SnapshotAtFinal(SnapshotAtFinalReq { node: 0 }));
        round_trip_req(Request::Stats);
    }

    #[test]
    fn responses_round_trip_as_json() {
        round_trip_resp(Response::Appended(AppendedResp {
            author: 1,
            seq: 0,
            node: 2,
            content: 0xabcd,
        }));
        round_trip_resp(Response::View(ViewResp {
            node: 1,
            len: 42,
            digest: 7,
        }));
        round_trip_resp(Response::Tip(TipResp {
            height: 1,
            tip: Some(ApiMsg {
                author: 0,
                seq: 0,
                value: 1,
                content: 5,
            }),
        }));
        round_trip_resp(Response::Tip(TipResp {
            height: 0,
            tip: None,
        }));
        round_trip_resp(Response::Snapshot(SnapshotResp {
            height: 3,
            digest: 9,
            tail: vec![ApiMsg {
                author: 1,
                seq: 2,
                value: -1,
                content: 8,
            }],
        }));
        round_trip_resp(Response::Linearized(LinearizedResp {
            height: 10,
            digest: 11,
        }));
        round_trip_resp(Response::Finalized(FinalizedResp {
            height: 8,
            digest: 13,
            archived: 10,
        }));
        round_trip_resp(Response::Stats(StatsResp {
            nodes: 4,
            appends: 100,
            reads: 900,
            mempool: 3,
            sent: 12345,
        }));
        for e in [
            ApiError::Stalled,
            ApiError::MempoolFull,
            ApiError::AuthorFull,
            ApiError::Gap(GapInfo {
                expected: 2,
                got: 5,
            }),
            ApiError::Duplicate(DupInfo { seq: 1 }),
            ApiError::NoSuchNode,
        ] {
            round_trip_resp(Response::Error(e));
        }
    }

    #[test]
    fn requests_render_json_rpc_shapes() {
        let json = serde_json::to_string(&Request::Append(AppendReq {
            author: 3,
            value: 1,
        }))
        .unwrap();
        assert!(
            json.contains("\"Append\"") && json.contains("\"author\""),
            "single-key object shape: {json}"
        );
        let unit = serde_json::to_string(&Request::Stats).unwrap();
        assert_eq!(unit, "\"Stats\"", "unit variants render as strings");
    }
}
