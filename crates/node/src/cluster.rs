//! The in-process cluster: mempool → ABD protocol → archives, behind the
//! typed request API.
//!
//! A [`Cluster`] owns one [`MpSystem`] over a fault-injecting
//! [`SimNet`] plus the admission ([`Mempool`]) and archival
//! ([`Archive`], one per node) layers, and answers [`Request`]s
//! synchronously. The split matters under faults:
//!
//! * **Appends and quorum reads** run the protocol, so they stall (with a
//!   typed [`ApiError::Stalled`]) when their executing node sits in a
//!   partitioned minority.
//! * **Tip / snapshot / linearize** are served from the node's archive
//!   without touching the network — a partitioned node keeps answering
//!   them from its decided history, which is exactly the availability
//!   property the fault-injection suite pins down.
//!
//! Simulated time only moves as messages pump, so fault windows given in
//! nanoseconds are steered explicitly: [`Cluster::advance_to`] moves the
//! clock (delivering anything in flight) and later sends see the fault
//! state at the new time. [`Cluster::converge`] is the post-heal
//! anti-entropy sweep: one quorum read per node plus a full settle, after
//! which every node's view holds the union of all views (quorum
//! intersection guarantees every decided append reaches every reader, and
//! the settle merges the remaining straggler responses).

use crate::api::{
    ApiError, ApiMsg, AppendedResp, DupInfo, FinalizedResp, GapInfo, LinearizedResp, Request,
    Response, SnapshotResp, StatsResp, TipResp, ViewResp,
};
use crate::archive::Archive;
use crate::mempool::{Mempool, MempoolConfig, MempoolError, PendingAppend};
use am_mp::{MpError, MpSystem, Payload};
use am_net::{NetConfig, SimNet};

/// Messages a snapshot answer carries: the last ones below its height.
const SNAPSHOT_TAIL: usize = 8;

/// How to build a cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Protocol nodes.
    pub nodes: usize,
    /// Seed for the network and the protocol's delivery randomness.
    pub seed: u64,
    /// Network behaviour (topology, latency, faults, bandwidth).
    pub net: NetConfig,
    /// Mempool limits.
    pub mempool: MempoolConfig,
}

impl ClusterConfig {
    /// An ideal-network cluster of `nodes` nodes.
    pub fn ideal(nodes: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            nodes,
            seed,
            net: NetConfig::ideal(am_net::LatencyModel::Constant(0)),
            mempool: MempoolConfig::default(),
        }
    }
}

/// The running cluster core (single-threaded; [`crate::runtime`] puts it
/// behind a thread and hands out concurrent handles).
pub struct Cluster {
    sys: MpSystem<SimNet<Payload>>,
    mempool: Mempool,
    archives: Vec<Archive>,
    appends_done: u64,
    reads_done: u64,
    /// Scratch for the per-sync watermark computation.
    heights_buf: Vec<usize>,
}

impl Cluster {
    /// Builds and starts a cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let net = cfg.net.build_net(cfg.nodes, cfg.seed);
        Cluster {
            sys: MpSystem::with_transport(net, &[], cfg.seed),
            mempool: Mempool::new(cfg.mempool),
            archives: vec![Archive::new(); cfg.nodes],
            appends_done: 0,
            reads_done: 0,
            heights_buf: Vec::new(),
        }
    }

    /// Number of protocol nodes.
    pub fn n(&self) -> usize {
        self.sys.n()
    }

    /// The archive of one node.
    pub fn archive(&self, node: usize) -> &Archive {
        &self.archives[node]
    }

    /// The admission pool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Moves simulated time to `target_ns`, delivering anything already
    /// in flight, so later operations run under the fault state at that
    /// time (partition windows open and close by the sim clock).
    pub fn advance_to(&mut self, target_ns: u64) {
        self.sys.transport_mut().advance_until(target_ns);
        self.sync_archives();
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> u64 {
        self.sys.transport().now_ns()
    }

    fn sync_archives(&mut self) {
        for node in 0..self.archives.len() {
            self.archives[node].sync_from(self.sys.view(node));
        }
        // Finalized watermark: a prefix height is final once a majority
        // of archives hold it (the q-th largest archived height, q =
        // ⌊n/2⌋ + 1) — quorum intersection then guarantees any future
        // quorum read returns it. Each archive clamps the cluster
        // watermark to its own height, so a lagging node reports the
        // finalized prefix it actually holds.
        let q = self.archives.len() / 2 + 1;
        self.heights_buf.clear();
        self.heights_buf
            .extend(self.archives.iter().map(|a| a.height()));
        self.heights_buf.sort_unstable_by(|a, b| b.cmp(a));
        let w = self.heights_buf[q - 1];
        for ar in &mut self.archives {
            ar.set_final_watermark(w);
        }
    }

    /// Anti-entropy sweep: one quorum read per node (stalls ignored — a
    /// still-partitioned node just stays behind) followed by a full
    /// settle, so every reachable node merges every other reachable
    /// node's view. After a heal, one sweep converges all views — the
    /// linearization digests agree across nodes afterwards.
    pub fn converge(&mut self) {
        for node in 0..self.n() {
            let _ = self.sys.read(node);
        }
        self.sys.settle();
        self.sync_archives();
    }

    fn node_of(&self, raw: u64) -> Result<usize, ApiError> {
        let node = usize::try_from(raw).map_err(|_| ApiError::NoSuchNode)?;
        if node < self.n() {
            Ok(node)
        } else {
            Err(ApiError::NoSuchNode)
        }
    }

    /// Drains the mempool and executes every drained entry through the
    /// protocol. Returns the outcome of the entry matching
    /// `wanted_ticket`. Entries are executed on the node their author
    /// hashes to, in strict ticket order — per-author order is preserved
    /// end to end.
    fn execute_pending(
        &mut self,
        wanted_ticket: crate::mempool::Ticket,
    ) -> Result<AppendedResp, ApiError> {
        let mut wanted: Result<AppendedResp, ApiError> = Err(ApiError::Stalled);
        while let Some((ticket, entry)) = self.mempool.pop() {
            let PendingAppend { author, seq, value } = entry;
            let node = (author as usize) % self.n();
            let outcome = match self.sys.append(node, value) {
                Ok(msg) => Ok(AppendedResp {
                    author,
                    seq,
                    node: node as u64,
                    content: msg.content,
                }),
                Err(MpError::Stalled) => Err(ApiError::Stalled),
                Err(MpError::WrongRole) => Err(ApiError::NoSuchNode),
            };
            if outcome.is_ok() {
                self.appends_done += 1;
            }
            if ticket == wanted_ticket {
                wanted = outcome;
            }
        }
        self.sync_archives();
        wanted
    }

    fn map_mempool_err(e: MempoolError) -> ApiError {
        match e {
            MempoolError::Full { .. } => ApiError::MempoolFull,
            MempoolError::AuthorFull { .. } => ApiError::AuthorFull,
            MempoolError::Gap { expected, got, .. } => ApiError::Gap(GapInfo { expected, got }),
            MempoolError::Duplicate { seq, .. } => ApiError::Duplicate(DupInfo { seq }),
        }
    }

    /// A snapshot answer at `height` (≤ the archived height): its digest
    /// and the last [`SNAPSHOT_TAIL`] messages below it, read from the
    /// archive's log in place — no prefix view is built.
    fn snapshot_resp(ar: &Archive, height: usize, digest: u64) -> Response {
        Response::Snapshot(SnapshotResp {
            height: height as u64,
            digest,
            tail: ar
                .tail_at(height, SNAPSHOT_TAIL)
                .map(|m| ApiMsg::from(*m))
                .collect(),
        })
    }

    /// Answers one request. Synchronous: returns once the operation
    /// decided, failed, or (for archive queries) was read locally.
    pub fn handle(&mut self, req: &Request) -> Response {
        match self.handle_inner(req) {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        }
    }

    fn handle_inner(&mut self, req: &Request) -> Result<Response, ApiError> {
        match *req {
            Request::Append(r) => {
                let (ticket, _) = self
                    .mempool
                    .submit(r.author, r.value)
                    .map_err(Self::map_mempool_err)?;
                self.execute_pending(ticket).map(Response::Appended)
            }
            Request::AppendSeq(r) => {
                let ticket = self
                    .mempool
                    .insert(PendingAppend {
                        author: r.author,
                        seq: r.seq,
                        value: r.value,
                    })
                    .map_err(Self::map_mempool_err)?;
                self.execute_pending(ticket).map(Response::Appended)
            }
            Request::Read(r) => {
                let node = self.node_of(r.node)?;
                let view = self.sys.read(node).map_err(|_| ApiError::Stalled)?;
                self.reads_done += 1;
                let len = view.len();
                self.archives[node].sync_from(&view);
                Ok(Response::View(ViewResp {
                    node: r.node,
                    len: len as u64,
                    digest: self.archives[node]
                        .digest_at(len)
                        .expect("archive covers the read view"),
                }))
            }
            Request::Tip(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                Ok(Response::Tip(TipResp {
                    height: ar.height() as u64,
                    tip: ar.tip().map(ApiMsg::from),
                }))
            }
            Request::SnapshotAt(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                let height = (r.height as usize).min(ar.height());
                let digest = ar.digest_at(height).expect("height clamped");
                Ok(Self::snapshot_resp(ar, height, digest))
            }
            Request::Linearize(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                Ok(Response::Linearized(LinearizedResp {
                    height: ar.height() as u64,
                    digest: ar.linearization_digest(),
                }))
            }
            Request::FinalizedHeight(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                Ok(Response::Finalized(FinalizedResp {
                    height: ar.finalized_height() as u64,
                    digest: ar.finalized_digest(),
                    archived: ar.height() as u64,
                }))
            }
            Request::SnapshotAtFinal(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                Ok(Self::snapshot_resp(
                    ar,
                    ar.finalized_height(),
                    ar.finalized_digest(),
                ))
            }
            Request::Stats => Ok(Response::Stats(StatsResp {
                nodes: self.n() as u64,
                appends: self.appends_done,
                reads: self.reads_done,
                mempool: self.mempool.len() as u64,
                sent: self.sys.total_sent(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AppendReq, AppendSeqReq, LinearizeReq, ReadReq, SnapshotAtReq, TipReq};

    fn append(c: &mut Cluster, author: u64, value: i8) -> AppendedResp {
        match c.handle(&Request::Append(AppendReq { author, value })) {
            Response::Appended(r) => r,
            other => panic!("append failed: {other:?}"),
        }
    }

    #[test]
    fn appends_land_in_archives_and_queries_agree() {
        let mut c = Cluster::new(ClusterConfig::ideal(4, 7));
        for i in 0..20 {
            let r = append(&mut c, i % 3, 1);
            assert_eq!(r.author, i % 3);
        }
        c.converge();
        for node in 0..4u64 {
            match c.handle(&Request::Tip(TipReq { node })) {
                Response::Tip(t) => assert_eq!(t.height, 20, "node {node}"),
                other => panic!("tip failed: {other:?}"),
            }
        }
        // All nodes report the same linearization digest once converged.
        let digests: Vec<Response> = (0..4)
            .map(|node| c.handle(&Request::Linearize(LinearizeReq { node })))
            .collect();
        assert!(digests.iter().all(|d| *d == digests[0]), "{digests:?}");
        // Snapshot at a mid height has the right digest and tail.
        match c.handle(&Request::SnapshotAt(SnapshotAtReq { node: 0, height: 7 })) {
            Response::Snapshot(s) => {
                assert_eq!(s.height, 7);
                assert_eq!(s.tail.len(), 7);
                assert_eq!(Some(s.digest), c.archive(0).digest_at(7));
            }
            other => panic!("snapshot failed: {other:?}"),
        }
    }

    #[test]
    fn finalized_watermark_tracks_quorum_replication_and_converges() {
        use crate::api::{FinalizedHeightReq, SnapshotAtFinalReq};
        let mut c = Cluster::new(ClusterConfig::ideal(4, 11));
        for i in 0..12 {
            append(&mut c, i % 2, 1);
        }
        // Watermarks never exceed archived heights and at least one node
        // (the quorum majority) has finalized something.
        for node in 0..4u64 {
            match c.handle(&Request::FinalizedHeight(FinalizedHeightReq { node })) {
                Response::Finalized(f) => {
                    assert!(f.height <= f.archived, "node {node}: {f:?}");
                    assert_eq!(
                        Some(f.digest),
                        c.archive(node as usize).digest_at(f.height as usize)
                    );
                }
                other => panic!("finalized failed: {other:?}"),
            }
        }
        // converge() equalizes archives, hence finality watermarks.
        c.converge();
        let finals: Vec<Response> = (0..4)
            .map(|node| c.handle(&Request::FinalizedHeight(FinalizedHeightReq { node })))
            .collect();
        match &finals[0] {
            Response::Finalized(f) => assert_eq!(f.height, 12, "all appends finalized"),
            other => panic!("finalized failed: {other:?}"),
        }
        assert!(finals.iter().all(|f| *f == finals[0]), "{finals:?}");
        // SnapshotAtFinal pins the snapshot to the watermark.
        match c.handle(&Request::SnapshotAtFinal(SnapshotAtFinalReq { node: 1 })) {
            Response::Snapshot(s) => {
                assert_eq!(s.height, 12);
                assert_eq!(Some(s.digest), c.archive(1).digest_at(12));
                assert_eq!(s.tail.len(), 8, "tail caps at 8");
            }
            other => panic!("snapshot-at-final failed: {other:?}"),
        }
    }

    #[test]
    fn quorum_read_reports_merged_view() {
        let mut c = Cluster::new(ClusterConfig::ideal(5, 3));
        append(&mut c, 0, 1);
        append(&mut c, 1, -1);
        match c.handle(&Request::Read(ReadReq { node: 4 })) {
            Response::View(v) => {
                assert_eq!(v.node, 4);
                assert_eq!(v.len, 2, "read sees both decided appends");
            }
            other => panic!("read failed: {other:?}"),
        }
    }

    #[test]
    fn explicit_sequence_lane_rejects_gaps_through_the_api() {
        let mut c = Cluster::new(ClusterConfig::ideal(4, 7));
        let req = |seq| {
            Request::AppendSeq(AppendSeqReq {
                author: 9,
                seq,
                value: 1,
            })
        };
        assert!(!c.handle(&req(0)).is_err());
        assert_eq!(
            c.handle(&req(2)),
            Response::Error(ApiError::Gap(GapInfo {
                expected: 1,
                got: 2
            }))
        );
        assert_eq!(
            c.handle(&req(0)),
            Response::Error(ApiError::Duplicate(DupInfo { seq: 0 }))
        );
        assert!(!c.handle(&req(1)).is_err());
    }

    #[test]
    fn unknown_node_is_a_typed_error() {
        let mut c = Cluster::new(ClusterConfig::ideal(3, 1));
        for req in [
            Request::Read(ReadReq { node: 3 }),
            Request::Tip(TipReq { node: 99 }),
            Request::SnapshotAt(SnapshotAtReq {
                node: u64::MAX,
                height: 0,
            }),
            Request::Linearize(LinearizeReq { node: 3 }),
            Request::FinalizedHeight(crate::api::FinalizedHeightReq { node: 3 }),
            Request::SnapshotAtFinal(crate::api::SnapshotAtFinalReq { node: 8 }),
        ] {
            assert_eq!(c.handle(&req), Response::Error(ApiError::NoSuchNode));
        }
    }

    #[test]
    fn stats_track_operations() {
        let mut c = Cluster::new(ClusterConfig::ideal(4, 7));
        append(&mut c, 0, 1);
        append(&mut c, 1, 1);
        c.handle(&Request::Read(ReadReq { node: 0 }));
        match c.handle(&Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.nodes, 4);
                assert_eq!(s.appends, 2);
                assert_eq!(s.reads, 1);
                assert_eq!(s.mempool, 0);
                assert!(s.sent > 0);
            }
            other => panic!("stats failed: {other:?}"),
        }
    }
}
