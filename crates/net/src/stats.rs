//! Per-link / per-kind observability.
//!
//! Per-link counters are probed on every send, drop and delivery. They
//! sit in a `LinkTable` over the network's topology: one dense row per
//! topology edge ([`TopologyMap::edge_index`]: the CSR row offset plus the
//! position in the sorted row, or `from · n + to` on a mesh of at most 64
//! nodes), so an overlay link costs a short binary search and no hashing
//! — once per message copy: the simulator resolves the row at the send
//! and hands it to every hook of that copy — and memory stays O(edges),
//! not n² (25M `Counters` at n = 5000). Links
//! without a row — off-topology repair sends, any link of a larger mesh —
//! spill into one sparse map. Where a link is held shows nowhere in what
//! [`NetStats`] reports.
//! Totals are maintained incrementally, so [`NetStats::totals`] is O(1)
//! instead of an n² scan, and the delivery trace is opt-in for the same
//! reason: at 5k nodes an unbounded record stream dominates peak memory.
//! A trial loop keeps one `NetStats` and [`NetStats::reset`]s it, so a
//! trial allocates no counters of its own.

use crate::topology::{Link, LinkTable, TopologyMap};
use serde::Value;

/// Counter set shared by links and payload kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages accepted by `send` on this link/kind.
    pub sent: u64,
    /// Messages that arrived and were consumed.
    pub delivered: u64,
    /// Messages lost to drops or partitions.
    pub dropped: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
}

impl Counters {
    fn is_zero(&self) -> bool {
        *self == Counters::default()
    }

    fn to_json(self) -> Value {
        Value::Object(vec![
            ("sent".into(), Value::Number(self.sent.into())),
            ("delivered".into(), Value::Number(self.delivered.into())),
            ("dropped".into(), Value::Number(self.dropped.into())),
            ("duplicated".into(), Value::Number(self.duplicated.into())),
        ])
    }
}

/// A log₂-bucketed histogram of delivery delays in nanoseconds: bucket
/// `i` counts delays `d` with `2^(i-1) ≤ d < 2^i` (bucket 0 counts 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayHistogram {
    buckets: [u64; 64],
    count: u64,
    total_ns: u64,
}

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram {
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
        }
    }
}

impl DelayHistogram {
    /// Records one delay.
    pub fn record(&mut self, delay_ns: u64) {
        let idx = if delay_ns == 0 {
            0
        } else {
            64 - delay_ns.leading_zeros() as usize
        };
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.total_ns += delay_ns;
    }

    /// Number of recorded delays.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean delay in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                Value::Object(vec![
                    ("le_ns".into(), Value::Number(le.into())),
                    ("count".into(), Value::Number(c.into())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".into(), Value::Number(self.count.into())),
            (
                "mean_ns".into(),
                Value::Number(serde::Number::Float(self.mean_ns())),
            ),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// One line of the delivery trace — the determinism witness: two runs
/// with the same seed produce identical traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Simulated arrival time.
    pub at_ns: u64,
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Payload kind.
    pub kind: &'static str,
    /// The send sequence number of the underlying message.
    pub seq: u64,
}

/// The per-link counters — probed on every send, drop and delivery and
/// only ever read out sorted: a [`LinkTable`] over the network's topology,
/// which the store owns (the simulator reads its adjacency from here). A
/// link counts as *active* once any of its counters is non-zero.
#[derive(Clone, Default)]
struct LinkStore {
    topo: TopologyMap,
    table: LinkTable<Counters>,
}

impl std::fmt::Debug for LinkStore {
    /// Deterministic Debug: non-zero links only, in sorted `(from, to)`
    /// order, like the map this stands for.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let links = self.sorted_nonzero().into_iter();
        f.debug_map()
            .entries(links.map(|(from, to, c)| ((from, to), c)))
            .finish()
    }
}

impl LinkStore {
    #[inline]
    fn at_mut(&mut self, link: Link) -> &mut Counters {
        self.table.at_mut(&self.topo, link)
    }

    /// Non-zero links, ascending `(from, to)` — the historic row-major
    /// export order.
    fn sorted_nonzero(&self) -> Vec<(usize, usize, Counters)> {
        let mut links = self.table.entries(&self.topo);
        links.retain(|(_, _, c)| !c.is_zero());
        links
    }
}

/// A payload kind's row in [`NetStats`]' kind table, resolved once per
/// parcel by [`NetStats::kind_slot`] so the per-message hooks index the
/// table instead of searching it by label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct KindSlot(u32);

/// The per-kind counter storage: a handful of entries in first-seen
/// order, which is what a [`KindSlot`] indexes; `Debug` and JSON print
/// the counted ones sorted by label, like the `BTreeMap` this replaced.
/// A kind is a `&'static str` literal, so resolving a label compares
/// label *addresses* and falls back to comparing text (two literals with
/// the same text need not share an address) only for a label not met
/// before at that address.
#[derive(Clone, Default)]
struct KindStore(Vec<(&'static str, (Counters, DelayHistogram))>);

impl std::fmt::Debug for KindStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.sorted().into_iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl KindStore {
    fn slot(&mut self, kind: &'static str) -> KindSlot {
        let same_literal =
            |k: &str| std::ptr::eq(k.as_ptr(), kind.as_ptr()) && k.len() == kind.len();
        let at = match self.0.iter().position(|(k, _)| same_literal(k)) {
            Some(at) => at,
            None => match self.0.iter().position(|(k, _)| *k == kind) {
                Some(at) => at,
                None => {
                    self.0.push((kind, Default::default()));
                    self.0.len() - 1
                }
            },
        };
        KindSlot(at as u32)
    }

    #[inline]
    fn at(&mut self, slot: KindSlot) -> &mut (Counters, DelayHistogram) {
        &mut self.0[slot.0 as usize].1
    }

    fn get(&self, kind: &str) -> Option<&(Counters, DelayHistogram)> {
        self.0.iter().find(|(k, _)| *k == kind).map(|(_, v)| v)
    }

    /// The kinds any hook counted, ascending by label. A slot resolved
    /// but not yet counted (see [`NetStats::emptied`]) prints nowhere.
    fn sorted(&self) -> Vec<&(&'static str, (Counters, DelayHistogram))> {
        let mut kinds: Vec<_> = self.0.iter().filter(|(_, (c, _))| !c.is_zero()).collect();
        kinds.sort_unstable_by_key(|(k, _)| *k);
        kinds
    }
}

/// Aggregated network observability: per-link counters, per-kind counters
/// with delay histograms, maintained totals, and the (opt-in) delivery
/// trace.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    n: usize,
    links: LinkStore,
    totals: Counters,
    kinds: KindStore,
    trace: Vec<DeliveryRecord>,
    trace_on: bool,
}

impl NetStats {
    /// Stats for an `n`-node full mesh, recording the per-delivery trace
    /// iff `trace`.
    pub fn with_options(n: usize, trace: bool) -> NetStats {
        NetStats::over(TopologyMap::mesh(n), trace)
    }

    /// Stats for a network over `topo`, recording the per-delivery trace
    /// iff `trace`.
    pub fn over(topo: TopologyMap, trace: bool) -> NetStats {
        let mut stats = NetStats::default();
        stats.reset(topo, trace);
        stats
    }

    /// Back to what [`NetStats::over`]`(topo, trace)` returns, on the
    /// storage already held: nothing recorded before shows afterwards.
    pub fn reset(&mut self, topo: TopologyMap, trace: bool) {
        self.n = topo.n();
        self.links.topo = topo;
        self.links.table.clear();
        self.totals = Counters::default();
        self.kinds.0.clear();
        self.trace.clear();
        self.trace_on = trace;
    }

    /// Records a send.
    pub fn on_sent(&mut self, from: usize, to: usize, kind: &'static str) {
        let slot = self.kind_slot(kind);
        self.count_sent(self.links.topo.link(from, to), slot);
    }

    /// Records a drop (fault loss).
    pub fn on_dropped(&mut self, from: usize, to: usize, kind: &'static str) {
        let slot = self.kind_slot(kind);
        self.count_dropped(self.links.topo.link(from, to), slot);
    }

    /// Records an injected duplicate.
    pub fn on_duplicated(&mut self, from: usize, to: usize, kind: &'static str) {
        let slot = self.kind_slot(kind);
        self.count_duplicated(self.links.topo.link(from, to), slot);
    }

    /// Records a consumed delivery with its in-flight delay.
    pub fn on_delivered(&mut self, rec: DeliveryRecord, delay_ns: u64) {
        let slot = self.kind_slot(rec.kind);
        let link = self.links.topo.link(rec.from, rec.to);
        self.count_delivered(link, slot, (rec.at_ns, rec.seq), delay_ns);
    }

    /// The kind table's slot for `kind`, appended on first sight.
    pub(crate) fn kind_slot(&mut self, kind: &'static str) -> KindSlot {
        self.kinds.slot(kind)
    }

    /// The label `slot` was resolved from (its first-seen literal).
    pub(crate) fn kind_label(&self, slot: KindSlot) -> &'static str {
        self.kinds.0[slot.0 as usize].0
    }

    /// [`NetStats::on_sent`] for a resolved link and kind.
    #[inline]
    pub(crate) fn count_sent(&mut self, link: Link, kind: KindSlot) {
        self.links.at_mut(link).sent += 1;
        self.totals.sent += 1;
        self.kinds.at(kind).0.sent += 1;
    }

    /// [`NetStats::on_dropped`] for a resolved link and kind.
    #[inline]
    pub(crate) fn count_dropped(&mut self, link: Link, kind: KindSlot) {
        self.links.at_mut(link).dropped += 1;
        self.totals.dropped += 1;
        self.kinds.at(kind).0.dropped += 1;
    }

    /// [`NetStats::on_duplicated`] for a resolved link and kind.
    #[inline]
    pub(crate) fn count_duplicated(&mut self, link: Link, kind: KindSlot) {
        self.links.at_mut(link).duplicated += 1;
        self.totals.duplicated += 1;
        self.kinds.at(kind).0.duplicated += 1;
    }

    /// [`NetStats::on_delivered`] for a resolved link and kind: `(at_ns,
    /// seq)` are the trace line's time and send sequence number.
    #[inline]
    pub(crate) fn count_delivered(
        &mut self,
        link: Link,
        kind: KindSlot,
        (at_ns, seq): (u64, u64),
        delay_ns: u64,
    ) {
        self.links.at_mut(link).delivered += 1;
        self.totals.delivered += 1;
        let (c, h) = self.kinds.at(kind);
        c.delivered += 1;
        h.record(delay_ns);
        if self.trace_on {
            self.push_trace(link, kind, at_ns, seq);
        }
    }

    /// Appends one line to the delivery trace (opt-in, so off the
    /// delivery path).
    #[cold]
    #[inline(never)]
    fn push_trace(&mut self, link: Link, kind: KindSlot, at_ns: u64, seq: u64) {
        let kind = self.kind_label(kind);
        self.trace.push(DeliveryRecord {
            at_ns,
            from: link.from as usize,
            to: link.to as usize,
            kind,
            seq,
        });
    }

    /// Empty statistics over the same topology and trace setting that keep
    /// this table's kind slots, so slots resolved before stay valid.
    pub(crate) fn emptied(&self) -> NetStats {
        let mut fresh = NetStats::over(self.links.topo.clone(), self.trace_on);
        fresh
            .kinds
            .0
            .extend(self.kinds.0.iter().map(|(k, _)| (*k, Default::default())));
        fresh
    }

    /// Per-link counters for `from → to`.
    pub fn link(&self, from: usize, to: usize) -> Counters {
        self.links.table.get(&self.links.topo, from, to)
    }

    /// The topology the link counters are laid out over.
    pub fn topology(&self) -> &TopologyMap {
        &self.links.topo
    }

    /// Per-kind counters for `kind` (zeroes if never seen).
    pub fn kind(&self, kind: &str) -> Counters {
        self.kinds.get(kind).map(|(c, _)| *c).unwrap_or_default()
    }

    /// Mean delivery delay for `kind` in nanoseconds.
    pub fn kind_mean_delay_ns(&self, kind: &str) -> f64 {
        self.kinds
            .get(kind)
            .map(|(_, h)| h.mean_ns())
            .unwrap_or(0.0)
    }

    /// Totals across all links — O(1), maintained incrementally.
    pub fn totals(&self) -> Counters {
        self.totals
    }

    /// Number of links that ever carried (or dropped) a message.
    pub fn active_links(&self) -> usize {
        self.links.table.values().filter(|c| !c.is_zero()).count()
    }

    /// Whether the per-delivery trace is being recorded.
    pub fn trace_enabled(&self) -> bool {
        self.trace_on
    }

    /// The delivery trace (arrival-ordered; empty when tracing is off).
    pub fn trace(&self) -> &[DeliveryRecord] {
        &self.trace
    }

    /// Renders everything as a JSON value: totals, per-kind counters with
    /// delay histograms, and the non-empty links in ascending `(from,
    /// to)` order.
    pub fn to_json(&self) -> Value {
        let kinds: Vec<(String, Value)> = self
            .kinds
            .sorted()
            .into_iter()
            .map(|(k, (c, h))| {
                let mut obj = match c.to_json() {
                    Value::Object(fields) => fields,
                    _ => unreachable!("counters render as object"),
                };
                obj.push(("delay".into(), h.to_json()));
                (k.to_string(), Value::Object(obj))
            })
            .collect();
        let links: Vec<Value> = self
            .links
            .sorted_nonzero()
            .into_iter()
            .map(|(from, to, c)| {
                let mut obj = vec![
                    ("from".into(), Value::Number((from as u64).into())),
                    ("to".into(), Value::Number((to as u64).into())),
                ];
                if let Value::Object(fields) = c.to_json() {
                    obj.extend(fields);
                }
                Value::Object(obj)
            })
            .collect();
        Value::Object(vec![
            ("n".into(), Value::Number((self.n as u64).into())),
            ("totals".into(), self.totals().to_json()),
            ("kinds".into(), Value::Object(kinds)),
            ("links".into(), Value::Array(links)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = DelayHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_ns(), (1 + 2 + 3 + 1000) as f64 / 5.0);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn counters_aggregate_per_link_and_kind() {
        let mut s = NetStats::with_options(3, true);
        s.on_sent(0, 1, "a");
        s.on_sent(0, 1, "a");
        s.on_sent(1, 2, "b");
        s.on_dropped(0, 1, "a");
        s.on_duplicated(1, 2, "b");
        s.on_delivered(
            DeliveryRecord {
                at_ns: 5,
                from: 0,
                to: 1,
                kind: "a",
                seq: 0,
            },
            5,
        );
        assert_eq!(s.link(0, 1).sent, 2);
        assert_eq!(s.link(0, 1).dropped, 1);
        assert_eq!(s.link(0, 1).delivered, 1);
        assert_eq!(s.kind("a").sent, 2);
        assert_eq!(s.kind("b").duplicated, 1);
        assert_eq!(s.totals().sent, 3);
        assert_eq!(s.active_links(), 2);
        assert_eq!(s.trace().len(), 1);
        assert_eq!(s.kind_mean_delay_ns("a"), 5.0);
    }

    #[test]
    fn json_shape() {
        let mut s = NetStats::with_options(2, true);
        s.on_sent(0, 1, "x");
        s.on_delivered(
            DeliveryRecord {
                at_ns: 7,
                from: 0,
                to: 1,
                kind: "x",
                seq: 0,
            },
            7,
        );
        let j = s.to_json();
        assert_eq!(
            j.get("totals").unwrap().get("sent").unwrap().as_u64(),
            Some(1)
        );
        let kinds = j.get("kinds").unwrap();
        assert_eq!(
            kinds.get("x").unwrap().get("delivered").unwrap().as_u64(),
            Some(1)
        );
        // Only the one active link is listed.
        match j.get("links").unwrap() {
            Value::Array(ls) => assert_eq!(ls.len(), 1),
            other => panic!("links not an array: {other:?}"),
        }
    }

    fn exercise(mut s: NetStats) -> NetStats {
        for from in 0..4 {
            for to in [1usize, 3] {
                s.on_sent(from, to, "a");
                s.on_delivered(
                    DeliveryRecord {
                        at_ns: (from * 10 + to) as u64,
                        from,
                        to,
                        kind: "a",
                        seq: from as u64,
                    },
                    3,
                );
            }
        }
        s.on_dropped(2, 0, "b");
        s
    }

    #[test]
    fn trace_opt_out_keeps_counters() {
        let s = exercise(NetStats::with_options(4, false));
        assert!(s.trace().is_empty(), "trace off records nothing");
        assert!(!s.trace_enabled());
        assert_eq!(s.totals().delivered, 8, "counters still aggregate");
        assert_eq!(s.kind("a").delivered, 8);
    }

    /// A payload whose kind is whatever label it carries.
    #[derive(Clone, Debug)]
    struct Labelled(&'static str);

    impl crate::Kinded for Labelled {
        fn kind(&self) -> &'static str {
            self.0
        }
    }

    #[test]
    fn kinds_print_as_the_sorted_map_they_replace() {
        use crate::{LatencyModel, NetConfig, SimNet, Transport};
        use std::collections::BTreeMap;
        // The same text at two addresses must be one kind.
        let ack_elsewhere: &'static str = String::from("ack").leak();
        let mut s = NetStats::with_options(2, false);
        let mut want: BTreeMap<&'static str, (Counters, DelayHistogram)> = BTreeMap::new();
        for kind in [
            "view_resp",
            "ack",
            "append",
            ack_elsewhere,
            "read_req",
            "ack",
        ] {
            s.on_sent(0, 1, kind);
            want.entry(kind).or_default().0.sent += 1;
        }
        assert_eq!(s.kind("ack").sent, 3);
        assert_eq!(s.kind("nope"), Counters::default());
        assert_eq!(format!("{:?}", s.kinds), format!("{want:?}"));
        assert_eq!(format!("{:#?}", s.kinds), format!("{want:#?}"));
        let names = |j: &Value| match j.get("kinds") {
            Some(Value::Object(kinds)) => kinds.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("kinds not an object: {other:?}"),
        };
        assert_eq!(
            names(&s.to_json()),
            ["ack", "append", "read_req", "view_resp"]
        );

        // Through a real simulator, whose hooks count by kind slot. Slots
        // are handed out in first-seen order — "b", then "a" at a second
        // address, then "a" again — and must still print sorted, one entry
        // per text. Every copy is duplicated, one latency later, and node
        // 0 is cut from node 1 at t = 0.
        let a_elsewhere: &'static str = String::from("a").leak();
        let mut net: SimNet<Labelled> = NetConfig::builder()
            .latency(LatencyModel::Constant(5))
            .dup(1.0)
            .partition(0, 1)
            .build()
            .unwrap()
            .build_net(2, 1);
        net.broadcast(0, Labelled("b")); // 0 → 1 crosses the cut: one drop
        let drain = |net: &mut SimNet<Labelled>| {
            while net.advance() {
                for node in 0..2 {
                    while net.deliver(node).is_some() {}
                }
            }
        };
        drain(&mut net); // now = 10, the cut has healed
        net.send(1, 0, Labelled(a_elsewhere));
        drain(&mut net);
        net.send(0, 1, Labelled("a"));
        drain(&mut net);

        let mut want: BTreeMap<&'static str, (Counters, DelayHistogram)> = BTreeMap::new();
        let b = want.entry("b").or_default();
        (b.0.sent, b.0.duplicated, b.0.dropped, b.0.delivered) = (2, 1, 1, 2);
        for delay in [5, 10] {
            b.1.record(delay);
        }
        let a = want.entry("a").or_default();
        (a.0.sent, a.0.duplicated, a.0.delivered) = (2, 2, 4);
        for delay in [5, 10, 5, 10] {
            a.1.record(delay);
        }
        let kinds = &net.stats().kinds;
        assert_eq!(
            kinds.0.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            ["b", "a"]
        );
        assert_eq!(format!("{kinds:?}"), format!("{want:?}"));
        assert_eq!(format!("{kinds:#?}"), format!("{want:#?}"));
        let want_json: Vec<(String, Value)> = want
            .iter()
            .map(|(k, (c, h))| {
                let Value::Object(mut fields) = c.to_json() else {
                    unreachable!("counters render as object")
                };
                fields.push(("delay".into(), h.to_json()));
                (k.to_string(), Value::Object(fields))
            })
            .collect();
        assert_eq!(
            net.stats().to_json().get("kinds"),
            Some(&Value::Object(want_json))
        );
        // A slot resolved but not yet counted prints nowhere: the emptied
        // table keeps both slots and shows neither.
        let emptied = net.stats().emptied();
        assert_eq!(emptied.kinds.0.len(), 2);
        assert_eq!(format!("{:?}", emptied.kinds), "{}");
    }
}
