//! The shadow pipeline: `Cluster::handle` re-created from the public parts
//! it is made of, with a span around every call into a layer.
//!
//! `Cluster::handle` is one monolithic entry point, so timing it from
//! outside says nothing about where a request spends its time. This twin
//! does the same steps in the same order — `Mempool::submit` →
//! `take_batch` → `MpSystem::append`/`read` over `NetConfig::build_net` →
//! `Archive::sync_from` per node → watermark → archive queries — on the
//! same seed, and the caller asserts that its archives end up identical to
//! the real cluster's. Whatever a request's root span does not spend in a
//! child is the glue, reported as `node.shadow.residual_share`.

use crate::gen::{class_of, Class};
use crate::trace::{NameId, Tracer};
use crate::Layers;
use am_mp::{MpError, MpSystem, Payload};
use am_net::SimNet;
use am_node::api::{
    ApiError, ApiMsg, AppendedResp, DupInfo, FinalizedResp, GapInfo, LinearizedResp, Request,
    Response, SnapshotResp, StatsResp, TipResp, ViewResp,
};
use am_node::{Archive, ClusterConfig, Mempool, MempoolError, PendingAppend, Ticket};

struct Names {
    handle: [NameId; 4],
    submit: NameId,
    take_batch: NameId,
    mp_append: NameId,
    mp_read: NameId,
    sync: NameId,
    watermark: NameId,
    snapshot: NameId,
    digest: NameId,
    tip: NameId,
}

/// The cluster's glue, rebuilt outside it.
pub struct Shadow {
    sys: MpSystem<SimNet<Payload>>,
    mempool: Mempool,
    archives: Vec<Archive>,
    heights_buf: Vec<usize>,
    names: Names,
    appends_done: u64,
    reads_done: u64,
    sent_by_appends: u64,
    sent_by_reads: u64,
    synced_msgs: u64,
}

impl Shadow {
    /// Builds the parts exactly as `Cluster::new` does.
    pub fn new(cfg: ClusterConfig, tracer: &mut Tracer) -> Shadow {
        let net = cfg.net.build_net(cfg.nodes, cfg.seed);
        let names = Names {
            handle: Class::ALL.map(|c| {
                tracer.name(match c {
                    Class::Append => "node.handle.append",
                    Class::Read => "node.handle.read",
                    Class::Query => "node.handle.query",
                    Class::Finality => "node.handle.finality",
                })
            }),
            submit: tracer.name("node.mempool.submit"),
            take_batch: tracer.name("node.mempool.take_batch"),
            mp_append: tracer.name("mp.append"),
            mp_read: tracer.name("mp.read"),
            sync: tracer.name("node.archive.sync"),
            watermark: tracer.name("node.archive.watermark"),
            snapshot: tracer.name("node.archive.snapshot"),
            digest: tracer.name("node.archive.digest"),
            tip: tracer.name("node.archive.tip"),
        };
        Shadow {
            sys: MpSystem::with_transport(net, &[], cfg.seed),
            mempool: Mempool::new(cfg.mempool),
            archives: vec![Archive::new(); cfg.nodes],
            heights_buf: Vec::new(),
            names,
            appends_done: 0,
            reads_done: 0,
            sent_by_appends: 0,
            sent_by_reads: 0,
            synced_msgs: 0,
        }
    }

    fn n(&self) -> usize {
        self.sys.n()
    }

    /// Per-node `(height, linearization digest, finalized height)`, the
    /// shape of `serve::snapshot_archives`.
    pub fn archive_state(&self) -> Vec<(usize, u64, usize)> {
        self.archives
            .iter()
            .map(|ar| {
                (
                    ar.height(),
                    ar.linearization_digest(),
                    ar.finalized_height(),
                )
            })
            .collect()
    }

    fn sync_archives(&mut self, tr: &mut Tracer) {
        for node in 0..self.archives.len() {
            let (ar, view) = (&mut self.archives[node], self.sys.view(node));
            self.synced_msgs += tr.span(self.names.sync, || ar.sync_from(view)) as u64;
        }
        let span = tr.enter(self.names.watermark);
        let q = self.archives.len() / 2 + 1;
        self.heights_buf.clear();
        self.heights_buf
            .extend(self.archives.iter().map(|a| a.height()));
        self.heights_buf.sort_unstable_by(|a, b| b.cmp(a));
        let w = self.heights_buf[q - 1];
        for ar in &mut self.archives {
            ar.set_final_watermark(w);
        }
        tr.exit(span);
    }

    fn node_of(&self, raw: u64) -> Result<usize, ApiError> {
        usize::try_from(raw)
            .ok()
            .filter(|&node| node < self.n())
            .ok_or(ApiError::NoSuchNode)
    }

    fn execute_pending(
        &mut self,
        wanted: Ticket,
        tr: &mut Tracer,
    ) -> Result<AppendedResp, ApiError> {
        let mut out = Err(ApiError::Stalled);
        let batch = tr.span(self.names.take_batch, || {
            self.mempool.take_batch(usize::MAX)
        });
        for (ticket, PendingAppend { author, seq, value }) in batch {
            let node = (author as usize) % self.n();
            let before = self.sys.total_sent();
            let outcome = match tr.span(self.names.mp_append, || self.sys.append(node, value)) {
                Ok(msg) => Ok(AppendedResp {
                    author,
                    seq,
                    node: node as u64,
                    content: msg.content,
                }),
                Err(MpError::Stalled) => Err(ApiError::Stalled),
                Err(MpError::WrongRole) => Err(ApiError::NoSuchNode),
            };
            self.sent_by_appends += self.sys.total_sent() - before;
            if outcome.is_ok() {
                self.appends_done += 1;
            }
            if ticket == wanted {
                out = outcome;
            }
        }
        self.sync_archives(tr);
        out
    }

    fn snapshot(&self, node: usize, height: usize, tr: &mut Tracer) -> Vec<ApiMsg> {
        let ar = &self.archives[node];
        tr.span(self.names.snapshot, || {
            ar.snapshot_at(height)
                .iter_from(height.saturating_sub(8))
                .map(|m| ApiMsg::from(*m))
                .collect()
        })
    }

    /// Answers one request the way `Cluster::handle` does.
    pub fn handle(&mut self, req: &Request, tr: &mut Tracer) -> Response {
        let root = tr.enter(self.names.handle[class_of(req).index()]);
        let resp = self.handle_inner(req, tr).unwrap_or_else(Response::Error);
        tr.exit(root);
        resp
    }

    fn handle_inner(&mut self, req: &Request, tr: &mut Tracer) -> Result<Response, ApiError> {
        match *req {
            Request::Append(r) => {
                let (ticket, _) = tr
                    .span(self.names.submit, || self.mempool.submit(r.author, r.value))
                    .map_err(map_mempool_err)?;
                self.execute_pending(ticket, tr).map(Response::Appended)
            }
            Request::AppendSeq(r) => {
                let entry = PendingAppend {
                    author: r.author,
                    seq: r.seq,
                    value: r.value,
                };
                let ticket = tr
                    .span(self.names.submit, || self.mempool.insert(entry))
                    .map_err(map_mempool_err)?;
                self.execute_pending(ticket, tr).map(Response::Appended)
            }
            Request::Read(r) => {
                let node = self.node_of(r.node)?;
                let before = self.sys.total_sent();
                let view = tr
                    .span(self.names.mp_read, || self.sys.read(node))
                    .map_err(|_| ApiError::Stalled)?;
                self.sent_by_reads += self.sys.total_sent() - before;
                self.reads_done += 1;
                let len = view.len();
                let ar = &mut self.archives[node];
                self.synced_msgs += tr.span(self.names.sync, || ar.sync_from(&view)) as u64;
                let digest = tr
                    .span(self.names.digest, || ar.digest_at(len))
                    .expect("archive covers the read view");
                Ok(Response::View(ViewResp {
                    node: r.node,
                    len: len as u64,
                    digest,
                }))
            }
            Request::Tip(r) => {
                let ar = &self.archives[self.node_of(r.node)?];
                let (height, tip) = tr.span(self.names.tip, || (ar.height(), ar.tip()));
                Ok(Response::Tip(TipResp {
                    height: height as u64,
                    tip: tip.map(ApiMsg::from),
                }))
            }
            Request::SnapshotAt(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                let height = (r.height as usize).min(ar.height());
                let tail = self.snapshot(node, height, tr);
                Ok(Response::Snapshot(SnapshotResp {
                    height: height as u64,
                    digest: tr
                        .span(self.names.digest, || ar.digest_at(height))
                        .expect("height clamped"),
                    tail,
                }))
            }
            Request::Linearize(r) => {
                let ar = &self.archives[self.node_of(r.node)?];
                Ok(Response::Linearized(LinearizedResp {
                    height: ar.height() as u64,
                    digest: tr.span(self.names.digest, || ar.linearization_digest()),
                }))
            }
            Request::FinalizedHeight(r) => {
                let ar = &self.archives[self.node_of(r.node)?];
                Ok(Response::Finalized(FinalizedResp {
                    height: ar.finalized_height() as u64,
                    digest: tr.span(self.names.digest, || ar.finalized_digest()),
                    archived: ar.height() as u64,
                }))
            }
            Request::SnapshotAtFinal(r) => {
                let node = self.node_of(r.node)?;
                let ar = &self.archives[node];
                let height = ar.finalized_height();
                let tail = self.snapshot(node, height, tr);
                Ok(Response::Snapshot(SnapshotResp {
                    height: height as u64,
                    digest: tr.span(self.names.digest, || ar.finalized_digest()),
                    tail,
                }))
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

    /// Turns the recorded spans into the `node.*` and `mp.*` layer metrics.
    pub fn report(&self, tracer: &Tracer, layers: &mut Layers) {
        let agg = tracer.aggregate();
        let of = |name: &str| agg.get(name).copied().unwrap_or_default();
        let appends = self.appends_done.max(1) as f64;
        let reads = self.reads_done.max(1) as f64;
        let admit = of("node.mempool.submit").total_ns + of("node.mempool.take_batch").total_ns;
        layers.set("node.mempool.admit_ns", admit as f64 / appends);
        layers.set(
            "node.archive.sync_ns",
            of("node.archive.sync").total_ns as f64 / (appends + reads),
        );
        layers.set("node.archive.synced_msgs", self.synced_msgs as f64);
        layers.set(
            "node.archive.snapshot_ns",
            of("node.archive.snapshot").mean_ns(),
        );
        layers.set(
            "node.archive.digest_ns",
            of("node.archive.digest").mean_ns(),
        );
        layers.set("mp.append_ns", of("mp.append").mean_ns());
        layers.set("mp.read_ns", of("mp.read").mean_ns());
        layers.set("mp.msgs_per_append", self.sent_by_appends as f64 / appends);
        layers.set("mp.msgs_per_read", self.sent_by_reads as f64 / reads);
        // The glue: what the request spans do not spend in a layer call,
        // net of the one timer pair each child span puts between its
        // parent's boundaries (calibrated in this run as machine.timer_ns).
        let (mut own, mut total, mut children) = (0u64, 0u64, 0u64);
        for (name, stats) in &agg {
            if name.starts_with("node.handle.") {
                own += stats.self_ns;
                total += stats.total_ns;
            } else {
                children += stats.count;
            }
        }
        let glue = own as f64 - children as f64 * layers.get("machine.timer_ns");
        layers.set(
            "node.shadow.residual_share",
            glue.max(0.0) / total.max(1) as f64,
        );
    }
}

fn map_mempool_err(e: MempoolError) -> ApiError {
    match e {
        MempoolError::Full { .. } => ApiError::MempoolFull,
        MempoolError::AuthorFull { .. } => ApiError::AuthorFull,
        MempoolError::Gap { expected, got, .. } => ApiError::Gap(GapInfo { expected, got }),
        MempoolError::Duplicate { seq, .. } => ApiError::Duplicate(DupInfo { seq }),
    }
}
