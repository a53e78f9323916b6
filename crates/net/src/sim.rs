//! The discrete-event simulator.

use crate::config::NetConfig;
use crate::fault;
use crate::latency::LatencyModel;
use crate::queue::{EventQueue, Storage};
use crate::stats::{KindSlot, NetStats};
use crate::topology::{Link, LinkTable, Topology, TopologyMap};
use crate::transport::{Envelope, Kinded, Transport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroU32;

/// Handle to a payload held in the simulator's [`Parcels`] slab: the slot
/// index plus one, so an `Option` of anything carrying it costs no extra
/// word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ParcelId(NonZeroU32);

impl ParcelId {
    fn slot(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// What every copy of one `send` or `broadcast` shares, so no copy carries
/// it: who sent it, when, and its kind's row in the [`NetStats`] kind table
/// (resolved once, when the payload enters the network). Duplicate
/// copies share it too.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    sent_ns: u64,
    from: u32,
    kind: KindSlot,
}

/// One slab slot: a payload, its [`Stamp`] and how many in-flight or
/// arrived copies of it are still owed a delivery. Vacant slots hold
/// `None` and sit on the free list.
#[derive(Debug)]
struct Parcel<M> {
    payload: Option<M>,
    refs: u32,
    stamp: Stamp,
}

/// Every payload inside the network, stored once with its per-send facts.
/// `send` and `broadcast` move the payload in and pass [`ParcelId`]s
/// through the event queue and the inboxes; each way a copy can leave the
/// network gives its reference back — a fault drop through
/// [`Parcels::release`], a delivery through [`Parcels::take`], which moves
/// the payload out for the last reference and clones it for any earlier
/// one. Nothing is allocated per message once the slab has warmed up, and
/// the slab is recycled across trials through [`NetScratch`] like the
/// queue's.
#[derive(Debug)]
struct Parcels<M> {
    slots: Vec<Parcel<M>>,
    free: Vec<u32>,
}

impl<M> Parcels<M> {
    fn new() -> Parcels<M> {
        Parcels {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Empties the slab, dropping every payload still inside the network
    /// and keeping the capacity.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Stores `payload`, sent as `stamp` says, with `refs` copies owed.
    #[inline]
    fn insert(&mut self, payload: M, stamp: Stamp, refs: u32) -> ParcelId {
        debug_assert!(refs > 0, "a parcel nobody is owed would never be freed");
        let parcel = Parcel {
            payload: Some(payload),
            refs,
            stamp,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = parcel;
                slot
            }
            None => {
                self.slots.push(parcel);
                u32::try_from(self.slots.len() - 1).expect("parcel slab exceeds u32 indices")
            }
        };
        ParcelId(NonZeroU32::new(slot + 1).expect("slot + 1 > 0"))
    }

    fn get(&self, id: ParcelId) -> &M {
        self.slots[id.slot()]
            .payload
            .as_ref()
            .expect("a live handle names an occupied slot")
    }

    /// One more copy owed (the duplicate fault).
    fn add_ref(&mut self, id: ParcelId) {
        self.slots[id.slot()].refs += 1;
    }

    /// One copy will never be delivered; the payload is dropped with the
    /// last of them.
    fn release(&mut self, id: ParcelId) {
        let parcel = &mut self.slots[id.slot()];
        parcel.refs -= 1;
        if parcel.refs == 0 {
            parcel.payload = None;
            self.free.push(id.slot() as u32);
        }
    }
}

impl<M: Clone> Parcels<M> {
    /// The payload for one delivery, with its stamp: moved out if this is
    /// the last copy owed, cloned otherwise.
    #[inline]
    fn take(&mut self, id: ParcelId) -> (M, Stamp) {
        let parcel = &mut self.slots[id.slot()];
        parcel.refs -= 1;
        let payload = if parcel.refs == 0 {
            self.free.push(id.slot() as u32);
            parcel.payload.take()
        } else {
            parcel.payload.clone()
        };
        let payload = payload.expect("a live handle names an occupied slot");
        (payload, parcel.stamp)
    }
}

/// A run of scheduled arrivals in flight: 16 bytes whatever the payload
/// — the first receiver, the parcel, the first link's row in the per-link
/// tables, resolved at the send (`Link::SPILL` for a link without one),
/// and how many copies the run holds. Copy `i` of an entry queued as
/// `(at_ns, seq, flight)` goes to `to + i` on row `row + i` (a spilled row
/// stays spilled) under sequence number `seq + i`: a broadcast's copies
/// that arrive at one instant share one queue entry
/// ([`EventQueue::schedule_or_merge`] through [`Flight::extend`]), and
/// [`SimNet::admit`] expands it in that order. The sender and send time
/// are per send, so they stay in the parcel's [`Stamp`]. Ordering lives
/// in the event queue's `(at_ns, seq)` key, so flights never implement
/// `Ord` and the queue never sees the payload. Endpoints are `u32` — node
/// counts cap at `u32::MAX` and 5k-node runs keep millions of these in
/// the queue.
#[derive(Clone, Copy, Debug)]
struct Flight {
    to: u32,
    parcel: ParcelId,
    row: u32,
    copies: u32,
}

impl Flight {
    /// Folds `next` into this run when it is one more copy of the same
    /// parcel, to the next node on the next row; the caller has checked
    /// that the two arrive at the same instant.
    #[inline]
    fn extend(&mut self, next: &Flight) -> bool {
        let follows = next.parcel == self.parcel
            && next.to == self.to + self.copies
            && next.row == row_after(self.row, self.copies);
        self.copies += u32::from(follows);
        follows
    }
}

/// The row `i` links past `row` in a run: consecutive receivers of one
/// sender sit on consecutive rows, and links with no row all share the
/// spill.
#[inline]
fn row_after(row: u32, i: u32) -> u32 {
    if row == Link::SPILL {
        row
    } else {
        row + i
    }
}

impl NetConfig {
    /// The one delay every copy takes when this configuration draws
    /// nothing and gives every link the same constant latency: no drop,
    /// duplicate, reorder, partition or bandwidth, and no inter-region
    /// latency class. `None` otherwise.
    fn every_link_ns(&self) -> Option<u64> {
        let quiet = self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.partition.is_none()
            && self.bandwidth_bps.is_none()
            && !matches!(self.topology, Topology::Geo { .. });
        match self.latency {
            LatencyModel::Constant(ns) if quiet => Some(ns),
            _ => None,
        }
    }

    /// Builds the simulator for `n` nodes with this configuration.
    pub fn build_net<M: Kinded>(&self, n: usize, seed: u64) -> SimNet<M> {
        self.build_net_with_scratch(n, seed, NetScratch::new())
    }

    /// Like [`NetConfig::build_net`] but reusing recycled [`NetScratch`]
    /// storage. The network keeps this configuration and applies its
    /// faults to every copy at the send, in a fixed order (drop,
    /// duplicate, reorder, partition), which fixes the RNG draw order and
    /// hence the delivery trace per seed.
    pub fn build_net_with_scratch<M: Kinded>(
        &self,
        n: usize,
        seed: u64,
        mut scratch: NetScratch<M>,
    ) -> SimNet<M> {
        let mut inbox_slots = std::mem::take(&mut scratch.inboxes);
        inbox_slots.resize_with(n, Vec::new);
        scratch
            .stats
            .reset(self.topology.instantiate(n, seed), self.trace);
        scratch.dirty.clear();
        scratch.in_dirty.clear();
        scratch.in_dirty.resize(n, false);
        scratch.backlogged.clear();
        scratch.backlogged.resize(n.div_ceil(64), 0);
        SimNet {
            every_link_ns: self.every_link_ns(),
            n,
            now_ns: 0,
            queue: EventQueue::from_storage(scratch.queue),
            parcels: scratch.parcels,
            arrived: inbox_slots.into_iter().map(Inbox::from_slots).collect(),
            cfg: *self,
            link_latency: LinkTable::default(),
            link_busy: LinkTable::default(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5e70_fae7),
            stats: scratch.stats,
            sent: 0,
            delivered: 0,
            dirty: scratch.dirty,
            in_dirty: scratch.in_dirty,
            backlogged: scratch.backlogged,
            obs_sent: am_obs::static_counter!("net.sent"),
            obs_delivered: am_obs::static_counter!("net.delivered"),
            obs_dropped: am_obs::static_counter!("net.dropped"),
            obs_duplicated: am_obs::static_counter!("net.duplicated"),
        }
    }
}

/// A queued arrival waiting in a node's inbox. Compact on purpose (16
/// bytes, tombstone included) — the receiver is implied by which inbox it
/// sits in, the sender, send time, payload and kind slot stay in the
/// [`Parcels`] slab, and the link's row came with the [`Flight`] — so
/// 5k-node backlogs carry no redundant per-arrival bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    seq: u64,
    parcel: ParcelId,
    row: u32,
}

/// An order-preserving inbox with O(1) amortized removal at either end
/// and tombstoned removal in the middle.
///
/// `SimNet::deliver_at` used to call `VecDeque::remove(idx)`, which
/// shifts every later arrival — O(backlog) per delivery, and the ABD pump
/// delivers from both ends constantly. Slots are now tombstoned
/// (`None`) instead of shifted: logical order is slot order, front takes
/// advance `head` past tombstones, back takes pop trailing tombstones,
/// and the buffer compacts (order-preserving) only when tombstones
/// dominate. Delivery *order* is bit-identical to the `VecDeque` scheme.
#[derive(Debug)]
struct Inbox {
    slots: Vec<Option<Arrival>>,
    /// Index of the first possibly-live slot (everything before is a
    /// tombstone).
    head: usize,
    /// Number of live (non-tombstone) slots.
    live: usize,
}

impl Inbox {
    fn from_slots(mut slots: Vec<Option<Arrival>>) -> Inbox {
        slots.clear();
        Inbox {
            slots,
            head: 0,
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn push(&mut self, arrival: Arrival) {
        if self.live == 0 {
            // Whole buffer is tombstones — restart it for free.
            self.slots.clear();
            self.head = 0;
        }
        self.slots.push(Some(arrival));
        self.live += 1;
    }

    /// Removes and returns the arrival at logical position `idx` (0 =
    /// oldest). Preserves the relative order of everything else.
    #[inline]
    fn take(&mut self, idx: usize) -> Option<Arrival> {
        if idx >= self.live {
            return None;
        }
        let taken = if idx == 0 {
            while self.slots[self.head].is_none() {
                self.head += 1;
            }
            let a = self.slots[self.head].take();
            self.head += 1;
            a
        } else if idx == self.live - 1 {
            while self.slots.last().is_some_and(Option::is_none) {
                self.slots.pop();
            }
            self.slots.pop().flatten()
        } else {
            // Middle removal: walk to the idx-th live slot and tombstone
            // it. Rare (only the Random delivery policy lands here), and
            // no worse than the shift the old VecDeque::remove paid.
            let mut live_seen = 0;
            let mut slot = None;
            for s in self.slots[self.head..].iter_mut() {
                if s.is_some() {
                    if live_seen == idx {
                        slot = s.take();
                        break;
                    }
                    live_seen += 1;
                }
            }
            slot
        };
        debug_assert!(taken.is_some(), "logical index {idx} must be live");
        self.live -= 1;
        if self.live == 0 {
            self.slots.clear();
            self.head = 0;
        } else if self.slots.len() > self.live * 2 + 32 {
            // Tombstones dominate: compact in place, preserving order.
            self.slots.retain(Option::is_some);
            self.head = 0;
        }
        taken
    }

    /// Tears the inbox down to its reusable slot buffer.
    fn into_slots(mut self) -> Vec<Option<Arrival>> {
        self.slots.clear();
        self.slots
    }
}

/// Everything a [`SimNet`] would otherwise allocate per trial — queue
/// storage, payload slab, inbox buffers, the [`NetStats`] tables and the
/// arrival and backlog sets — following the `TrialScratch` pattern: trial
/// loops keep one `NetScratch` per thread, rebuild each trial's `SimNet`
/// on it via [`NetConfig::build_net_with_scratch`], which resets every
/// piece rather than rebuilding it, and reclaim it afterwards with
/// [`SimNet::into_scratch`]. It holds capacity only — every payload of
/// the simulator it came from was dropped when it was taken, and nothing
/// the old simulator counted or was configured with shows in the next.
#[derive(Debug)]
pub struct NetScratch<M> {
    queue: Storage<u64, Flight>,
    /// Always empty here.
    parcels: Parcels<M>,
    inboxes: Vec<Vec<Option<Arrival>>>,
    stats: NetStats,
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    backlogged: Vec<u64>,
}

impl<M> Default for NetScratch<M> {
    fn default() -> Self {
        NetScratch::new()
    }
}

impl<M> NetScratch<M> {
    /// Empty scratch (allocates nothing until first use).
    pub fn new() -> NetScratch<M> {
        NetScratch {
            queue: Storage::new(),
            parcels: Parcels::new(),
            inboxes: Vec::new(),
            stats: NetStats::default(),
            dirty: Vec::new(),
            in_dirty: Vec::new(),
            backlogged: Vec::new(),
        }
    }
}

/// The seeded discrete-event network: latency models feed a slab-backed
/// event queue ([`crate::queue::EventQueue`]); the faults of the
/// [`NetConfig`] it was built from apply at send time; arrivals land in
/// per-node inboxes consumed through the [`Transport`] interface. The
/// payloads sit in one slab (`Parcels`) from `send` to delivery, each with
/// what its send shares among its copies — sender, send time, kind. In
/// the queue a run of same-instant copies to consecutive receivers is one
/// 16-byte `Flight` (first receiver, parcel, first link row, copies); in
/// an inbox each copy is a 16-byte handle: receiver, parcel and its link's
/// row, resolved once at the send.
///
/// Per-node state is O(nodes + topology edges): latency overrides, link
/// busy-times and the [`NetStats`] counters are `LinkTable`s over the
/// topology (one dense row per edge, a sparse spill for the rest), and
/// two node sets are maintained incrementally so delivery loops iterate
/// O(active) instead of O(n): the nodes with fresh arrivals
/// ([`SimNet::drain_arrived_nodes`]) and the nodes with a non-empty inbox
/// ([`Transport::backlogged`]).
pub struct SimNet<M> {
    n: usize,
    now_ns: u64,
    queue: EventQueue<u64, Flight>,
    parcels: Parcels<M>,
    arrived: Vec<Inbox>,
    /// What this network was built from: its default latency, bandwidth
    /// and faults.
    cfg: NetConfig,
    /// The delay of every copy on every link when `cfg` draws nothing and
    /// no link's latency differs (see `NetConfig::every_link_ns`); a
    /// latency override that differs clears it. The send path then skips
    /// the fault branches and the latency lookup, which are no-ops here.
    every_link_ns: Option<u64>,
    /// Per-link latency overrides.
    link_latency: LinkTable<Option<LatencyModel>>,
    /// Per-link transmit-busy horizon (only touched when the config sets
    /// a bandwidth).
    link_busy: LinkTable<u64>,
    rng: ChaCha8Rng,
    stats: NetStats,
    sent: u64,
    delivered: u64,
    /// Nodes that received ≥ 1 arrival since the last
    /// [`SimNet::drain_arrived_nodes`], deduplicated via `in_dirty`.
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
    /// One bit per node, set iff its inbox is non-empty: set at admit,
    /// cleared by the take that empties the inbox.
    backlogged: Vec<u64>,
    obs_sent: &'static am_obs::Counter,
    obs_delivered: &'static am_obs::Counter,
    obs_dropped: &'static am_obs::Counter,
    obs_duplicated: &'static am_obs::Counter,
}

impl<M: Kinded> SimNet<M> {
    /// Tears the simulator down to its reusable storage (see
    /// [`NetScratch`]), dropping any undelivered payloads.
    pub fn into_scratch(mut self) -> NetScratch<M> {
        self.parcels.clear();
        NetScratch {
            queue: self.queue.into_storage(),
            parcels: self.parcels,
            inboxes: self.arrived.into_iter().map(Inbox::into_slots).collect(),
            stats: self.stats,
            dirty: self.dirty,
            in_dirty: self.in_dirty,
            backlogged: self.backlogged,
        }
    }

    /// Overrides the latency model of one directed link.
    pub fn set_link_latency(&mut self, from: usize, to: usize, model: LatencyModel) {
        *self.link_latency.get_mut(self.stats.topology(), from, to) = Some(model);
        self.every_link_ns = self
            .every_link_ns
            .filter(|&ns| model == LatencyModel::Constant(ns));
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The collected observability data.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Moves the collected observability data out — for a caller that
    /// keeps the statistics of a simulator it is done with — leaving empty
    /// [`NetStats`] over the same topology. A simulator torn down with its
    /// statistics in place recycles their storage instead.
    pub fn take_stats(&mut self) -> NetStats {
        let fresh = self.stats.emptied();
        std::mem::replace(&mut self.stats, fresh)
    }

    /// The gossip adjacency this network was configured with (its
    /// [`NetStats`] are laid out over it and hold it).
    pub fn topology(&self) -> &TopologyMap {
        self.stats.topology()
    }

    /// Moves the nodes that received arrivals since the last call into
    /// `out`, ascending (so a caller draining them visits nodes in the
    /// same order as the legacy `for node in 0..n` scan). O(active), the
    /// backbone of the 5k-node delivery loop.
    pub fn drain_arrived_nodes(&mut self, out: &mut Vec<u32>) {
        out.clear();
        std::mem::swap(out, &mut self.dirty);
        out.sort_unstable();
        for &node in out.iter() {
            self.in_dirty[node as usize] = false;
        }
    }

    /// [`EventQueue::calendar_scheduled`] of this network's event queue:
    /// how many of its schedules went to the calendar since it was built,
    /// a probe for tests that pin which store a workload's events take.
    #[doc(hidden)]
    pub fn queue_calendar_scheduled(&self) -> u64 {
        self.queue.calendar_scheduled()
    }

    /// How many entries this network's event queue holds — a run of
    /// same-instant copies is one — a probe for tests that pin which
    /// copies share an entry.
    #[doc(hidden)]
    pub fn queue_entries(&self) -> usize {
        self.queue.len()
    }

    /// Sends one `payload` from `from` to each node of `to`, in order: one
    /// parcel and one stamp for all of them, as [`Transport::broadcast`]
    /// does for every node. Each copy takes the send path on its own, so
    /// the RNG draws, the counters and the delivery trace equal one
    /// [`Transport::send`] per recipient.
    pub fn multicast(&mut self, from: usize, to: &[u32], payload: M) {
        self.send_to_each(from, to.iter().map(|&to| to as usize), payload);
    }

    /// One parcel with a reference per recipient and one stamp for all,
    /// then the send path for each recipient in order.
    #[inline]
    fn send_to_each(&mut self, from: usize, to: impl ExactSizeIterator<Item = usize>, payload: M) {
        if to.len() == 0 {
            return;
        }
        let refs = u32::try_from(to.len()).expect("endpoints are u32");
        let stamp = self.stamp(from, &payload);
        let parcel = self.parcels.insert(payload, stamp, refs);
        for to in to {
            self.send_parcel(to, parcel, stamp);
        }
    }

    fn latency_of(&self, link: Link) -> LatencyModel {
        if let Some(m) = self.link_latency.at(link) {
            return m;
        }
        if let Some(m) = self
            .topology()
            .inter_latency(link.from as usize, link.to as usize)
        {
            return m;
        }
        self.cfg.latency
    }

    /// The [`Stamp`] of a payload `from` sends now. A sender past `u32`
    /// saturates, so `send_parcel`'s range check still turns it away.
    fn stamp(&mut self, from: usize, payload: &M) -> Stamp {
        Stamp {
            sent_ns: self.now_ns,
            from: u32::try_from(from).unwrap_or(u32::MAX),
            kind: self.stats.kind_slot(payload.kind()),
        }
    }

    /// Queues one copy of `parcel` over `link`, `delay_ns` from now — as
    /// one more copy of the latest entry when it continues that entry's
    /// run ([`Flight::extend`]).
    #[inline]
    fn schedule(&mut self, link: Link, parcel: ParcelId, delay_ns: u64) {
        let flight = Flight {
            to: link.to,
            parcel,
            row: link.row,
            copies: 1,
        };
        self.queue
            .schedule_or_merge(self.now_ns + delay_ns, flight, Flight::extend);
    }

    /// Counts one copy of `parcel` (of kind `kind`) lost on `link`,
    /// reports it as obs event `event` on the sender's sim row, and gives
    /// its reference back.
    fn drop_copy(&mut self, link: Link, parcel: ParcelId, kind: KindSlot, event: &'static str) {
        self.stats.count_dropped(link, kind);
        self.obs_dropped.inc();
        let label = self.stats.kind_label(kind);
        let Link { from, to, .. } = link;
        am_obs::event(event, from as usize, self.now_ns, || {
            format!("{label} {from}->{to}")
        });
        self.parcels.release(parcel);
    }

    /// The shared send path: the config's faults, transmission-delay
    /// queueing, latency sampling, and event scheduling for one copy to
    /// `to` of a payload already in the slab, sent as `stamp` says, whose
    /// reference this call either hands to the flight it schedules or
    /// releases. The link's row is resolved here, once, for the counters,
    /// the busy horizon and the delivery. RNG draw order, stats, and `seq`
    /// assignment do not depend on how many copies share the parcel, so
    /// per-recipient sends and the one-parcel broadcast produce
    /// bit-identical traces. On a network whose every copy takes one
    /// constant delay (`every_link_ns`) the faults and the latency lookup
    /// would draw nothing and change nothing, so the copy goes straight to
    /// the queue.
    #[inline]
    fn send_parcel(&mut self, to: usize, parcel: ParcelId, stamp: Stamp) {
        let from = stamp.from as usize;
        // Checked here, at the caller's send, and on `n` rather than on
        // adjacency (repair traffic leaves the topology): past this point
        // an endpoint indexes the link table and an inbox unchecked.
        assert!(
            from < self.n && to < self.n,
            "send {from}->{to} names a node outside this {}-node network",
            self.n
        );
        let kind = stamp.kind;
        let link = self.topology().link(from, to);
        self.sent += 1;
        self.stats.count_sent(link, kind);
        self.obs_sent.inc();
        if let Some(delay_ns) = self.every_link_ns {
            self.schedule(link, parcel, delay_ns);
            return;
        }

        // The faults, in a fixed order: a probability of 0 draws nothing,
        // and a duplicate's or a reorder's extra delay is a second sample
        // of the configured latency. The partition cuts the links between
        // `0..n/2` and the rest, decided at the send.
        let cfg = &self.cfg;
        if cfg.drop_prob > 0.0 && self.rng.gen_bool(cfg.drop_prob) {
            self.drop_copy(link, parcel, kind, "net/drop/random");
            return;
        }
        let mut duplicate: Option<u64> = None;
        if cfg.dup_prob > 0.0 && self.rng.gen_bool(cfg.dup_prob) {
            duplicate = Some(cfg.latency.sample(&mut self.rng));
        }
        let mut extra_ns: u64 = 0;
        if cfg.reorder_prob > 0.0 && self.rng.gen_bool(cfg.reorder_prob) {
            extra_ns = cfg.latency.sample(&mut self.rng);
        }
        if let Some(window) = cfg.partition {
            if fault::partition_cuts(window, self.n, from, to, self.now_ns) {
                self.drop_copy(link, parcel, kind, "net/drop/partitioned");
                return;
            }
        }

        // Store-and-forward queueing: the link transmits one message at a
        // time at `bandwidth_bps`, so a burst serializes — the i-th
        // message waits behind the first i−1. Size-dependent via
        // [`Kinded::wire_bytes`]; propagation latency is added on top.
        // Duplicates ride the same transmission (they are a fault
        // artifact, not a second send). No RNG is drawn, so configs
        // without bandwidth stay bit-identical to the historic path.
        let mut tx_ns: u64 = 0;
        if let Some(bps) = cfg.bandwidth_bps {
            let bits = (self.parcels.get(parcel).wire_bytes() as u128) * 8;
            let tx = ((bits * 1_000_000_000) / bps.max(1) as u128).min(u64::MAX as u128) as u64;
            let busy = self.link_busy.at_mut(self.stats.topology(), link);
            let done = (*busy).max(self.now_ns).saturating_add(tx);
            *busy = done;
            tx_ns = done - self.now_ns;
        }

        let base = self.latency_of(link).sample(&mut self.rng);
        if let Some(dup_extra) = duplicate {
            self.stats.count_duplicated(link, kind);
            self.obs_duplicated.inc();
            let label = self.stats.kind_label(kind);
            am_obs::event("net/duplicate", from, self.now_ns, || {
                format!("{label} {from}->{to}")
            });
            self.parcels.add_ref(parcel);
            self.schedule(link, parcel, tx_ns + base + dup_extra);
        }
        self.schedule(link, parcel, tx_ns + base + extra_ns);
    }

    /// Moves one popped entry's copies into their arrival inboxes, copy
    /// `i` to `to + i` on row `row + i` under `seq + i`, advancing the
    /// clock to the event time.
    #[inline]
    fn admit(&mut self, at_ns: u64, seq: u64, flight: Flight) {
        debug_assert!(at_ns >= self.now_ns, "time went backwards");
        self.now_ns = at_ns;
        let Flight {
            to,
            parcel,
            row,
            copies,
        } = flight;
        for i in 0..copies {
            let to = (to + i) as usize;
            self.arrived[to].push(Arrival {
                seq: seq + u64::from(i),
                parcel,
                row: row_after(row, i),
            });
            self.backlogged[to / 64] |= 1 << (to % 64);
            if !self.in_dirty[to] {
                self.in_dirty[to] = true;
                self.dirty.push(to as u32);
            }
        }
    }

    /// Delivers every in-flight event scheduled at or before `target_ns`,
    /// then moves the clock to `target_ns` (time-driven callers — the
    /// protocol runners — use this so sends issued at the target time see
    /// the right partition window). Returns whether anything arrived.
    pub fn advance_until(&mut self, target_ns: u64) -> bool {
        let mut any = false;
        while let Some((at_ns, seq, flight)) = self.queue.pop_due(target_ns) {
            self.admit(at_ns, seq, flight);
            any = true;
        }
        if self.now_ns < target_ns {
            self.now_ns = target_ns;
        }
        any
    }
}

impl<M: Kinded + Clone> Transport<M> for SimNet<M> {
    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, from: usize, to: usize, payload: M) {
        let stamp = self.stamp(from, &payload);
        let parcel = self.parcels.insert(payload, stamp, 1);
        self.send_parcel(to, parcel, stamp);
    }

    fn broadcast(&mut self, from: usize, payload: M)
    where
        M: Clone,
    {
        self.send_to_each(from, 0..self.n, payload);
    }

    fn backlog(&self, node: usize) -> usize {
        self.arrived[node].len()
    }

    fn backlogged(&self) -> &[u64] {
        &self.backlogged
    }

    fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope<M>> {
        let inbox = &mut self.arrived[node];
        let Arrival { seq, parcel, row } = inbox.take(idx)?;
        if inbox.is_empty() {
            self.backlogged[node / 64] &= !(1 << (node % 64));
        }
        let (payload, stamp) = self.parcels.take(parcel);
        let Stamp {
            sent_ns,
            from,
            kind,
        } = stamp;
        self.delivered += 1;
        self.obs_delivered.inc();
        if am_obs::enabled() {
            // One flight span per delivery, on the receiver's sim row.
            let label = self.stats.kind_label(kind);
            am_obs::record_sim_span(&format!("net/flight/{label}"), node, sent_ns, self.now_ns);
        }
        let link = Link {
            from,
            to: node as u32,
            row,
        };
        self.stats
            .count_delivered(link, kind, (self.now_ns, seq), self.now_ns - sent_ns);
        Some(Envelope {
            from: from as usize,
            to: node,
            payload,
        })
    }

    fn advance(&mut self) -> bool {
        let Some((at_ns, seq, flight)) = self.queue.pop() else {
            return false;
        };
        self.admit(at_ns, seq, flight);
        // Also surface everything else arriving at the same instant, so
        // equal-time arrivals stay in send order for the caller.
        while let Some((nat, nseq, nflight)) = self.queue.pop_due(self.now_ns) {
            self.admit(nat, nseq, nflight);
        }
        true
    }

    fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.backlogged.iter().all(|&word| word == 0)
    }

    fn sent_count(&self) -> u64 {
        self.sent
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping(u64);

    impl Kinded for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    /// A traced fault-free full mesh with `latency` on every link.
    fn mesh(n: usize, seed: u64, latency: LatencyModel) -> SimNet<Ping> {
        NetConfig::builder()
            .latency(latency)
            .trace(true)
            .build()
            .unwrap()
            .build_net(n, seed)
    }

    fn drain(net: &mut SimNet<Ping>) -> Vec<(u64, usize, usize, u64)> {
        let mut out = Vec::new();
        loop {
            let mut any = false;
            for node in 0..net.n() {
                while let Some(env) = net.deliver(node) {
                    out.push((net.now_ns(), env.from, env.to, env.payload.0));
                    any = true;
                }
            }
            if !net.advance() && !any {
                break;
            }
        }
        out
    }

    #[test]
    fn a_run_is_16_bytes_in_flight_and_a_copy_16_in_an_inbox() {
        use std::mem::size_of;
        // The copy count takes the padding a queue entry already had.
        assert_eq!(size_of::<Flight>(), 16);
        assert_eq!(size_of::<Option<Flight>>(), 16);
        assert_eq!(size_of::<Arrival>(), 16);
        assert_eq!(size_of::<Option<Arrival>>(), 16);
        // A queue entry: `(at_ns, seq, flight)`.
        assert_eq!(size_of::<(u64, u64, Flight)>(), 32);
    }

    /// Broadcasts `Ping(0)` from `from` and returns the queue entries it
    /// made, then drains; the delivery log, the trace and the sent count
    /// come back with them.
    fn entries_of_broadcast(
        net: &mut SimNet<Ping>,
        from: usize,
    ) -> (usize, Vec<(u64, usize, usize, u64)>) {
        let before = net.queue_entries();
        net.broadcast(from, Ping(0));
        let entries = net.queue_entries() - before;
        (entries, drain(net))
    }

    #[test]
    fn a_fault_free_constant_latency_broadcast_is_one_queue_entry() {
        for n in [8, 64] {
            for from in [0, 3, n - 1] {
                let mut net = mesh(n, 1, LatencyModel::Constant(10));
                assert!(net.every_link_ns.is_some());
                let (entries, got) = entries_of_broadcast(&mut net, from);
                assert_eq!(entries, 1, "n = {n}, from {from}");
                assert_eq!(got.len(), n);
                // The expansion hands out every copy's own seq and row.
                let trace = net.stats().trace();
                assert!(trace.iter().map(|r| r.seq).eq(0..n as u64));
                assert!(trace.iter().map(|r| r.to).eq(0..n));
                for to in 0..n {
                    assert_eq!(net.stats().link(from, to).delivered, 1);
                }
            }
        }
        // Past 64 nodes a mesh has no link rows: the spill row runs too.
        let mut net = mesh(100, 1, LatencyModel::Constant(10));
        assert_eq!(entries_of_broadcast(&mut net, 7).0, 1);
        assert_eq!(net.stats().link(7, 99).delivered, 1);
    }

    /// The ranks of `to` where a new run starts: the first survivor and
    /// every survivor whose predecessor was lost.
    fn runs_of(survived: &[bool]) -> usize {
        (0..survived.len())
            .filter(|&to| survived[to] && (to == 0 || !survived[to - 1]))
            .count()
    }

    #[test]
    fn drops_split_a_broadcast_into_its_runs_of_survivors() {
        let mut splits = 0;
        for seed in 0..20 {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Constant(10))
                .drop(0.2)
                .trace(true)
                .build()
                .unwrap()
                .build_net(16, seed);
            assert!(net.every_link_ns.is_none());
            let (entries, got) = entries_of_broadcast(&mut net, 5);
            let survived: Vec<bool> = (0..16)
                .map(|to| net.stats().link(5, to).dropped == 0)
                .collect();
            assert_eq!(entries, runs_of(&survived), "seed {seed}");
            assert_eq!(got.len(), survived.iter().filter(|&&s| s).count());
            splits += usize::from(entries > 1);
        }
        assert!(splits > 10, "the seeds exercise split runs");
    }

    #[test]
    fn a_duplicate_breaks_a_run() {
        // A duplicate arrives one more latency later and is scheduled
        // before its original, so the run's back moves past the instant
        // the other copies arrive at: every later original goes behind it,
        // to the calendar, one entry each.
        let mut seen = 0;
        for seed in 0..200 {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Constant(10))
                .dup(0.05)
                .build()
                .unwrap()
                .build_net(8, seed);
            let (entries, got) = entries_of_broadcast(&mut net, 0);
            let dups: Vec<usize> = (0..8)
                .filter(|&to| net.stats().link(0, to).duplicated > 0)
                .collect();
            let [k] = dups[..] else {
                continue;
            };
            seen += 1;
            assert_eq!(got.len(), 9);
            // The copies before `k` (one run, if any), the duplicate, and
            // the originals from `k` on.
            assert_eq!(entries, usize::from(k > 0) + 1 + (8 - k), "seed {seed}");
            assert_eq!(net.queue_calendar_scheduled(), 8 - k as u64);
        }
        assert!(seen > 5, "the seeds exercise lone duplicates");
    }

    #[test]
    fn spread_latency_gives_one_entry_per_copy() {
        let mut net = mesh(8, 1, LatencyModel::Exponential { mean: 1_000 });
        assert!(net.every_link_ns.is_none());
        assert_eq!(entries_of_broadcast(&mut net, 2).0, 8);
        // Geo with one node per region: every copy but the self-send takes
        // the inter-region class, a spread, so no two arrive together.
        let geo = NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .topology(Topology::Geo {
                regions: 8,
                k: 2,
                inter: LatencyModel::Uniform { lo: 50, hi: 150 },
            })
            .trace(true)
            .build()
            .unwrap();
        let mut net: SimNet<Ping> = geo.build_net(8, 3);
        assert!(net.every_link_ns.is_none());
        assert_eq!(entries_of_broadcast(&mut net, 0).0, 8);
    }

    #[test]
    fn a_link_latency_override_ends_the_shortcut_and_keeps_the_trace() {
        // The reference never has the shortcut: an empty partition window
        // cuts nothing, but any partition sends every copy down the full
        // send path.
        let run = |reference: bool| {
            let b = NetConfig::builder()
                .latency(LatencyModel::Constant(10))
                .trace(true);
            let cfg = if reference { b.partition(0, 0) } else { b };
            let mut net: SimNet<Ping> = cfg.build().unwrap().build_net(6, 1);
            assert_eq!(net.every_link_ns.is_some(), !reference);
            // The same constant keeps the shortcut; another one ends it.
            net.set_link_latency(0, 1, LatencyModel::Constant(10));
            assert_eq!(net.every_link_ns.is_some(), !reference);
            net.broadcast(0, Ping(1));
            net.set_link_latency(1, 2, LatencyModel::Constant(25));
            assert!(net.every_link_ns.is_none());
            let mut got = drain(&mut net);
            for from in 0..6 {
                net.broadcast(from, Ping(2 + from as u64));
            }
            got.extend(drain(&mut net));
            (got, net.stats().trace().to_vec(), net.sent_count())
        };
        let (got, trace, sent) = run(false);
        assert_eq!(sent, 42);
        assert!(got.contains(&(35, 1, 2, 3)), "the override applies");
        assert_eq!((got, trace, sent), run(true));
    }

    /// A degree-2 ring: most node pairs are not adjacent.
    fn ring(n: usize) -> SimNet<Ping> {
        NetConfig::builder()
            .topology(Topology::Relay { k: 2 })
            .build()
            .unwrap()
            .build_net(n, 1)
    }

    #[test]
    #[should_panic(expected = "send 0->3 names a node outside this 3-node network")]
    fn send_to_a_node_out_of_range_panics_at_the_send() {
        mesh(3, 1, LatencyModel::Constant(10)).send(0, 3, Ping(1));
    }

    #[test]
    #[should_panic(expected = "send 3->0 names a node outside this 3-node network")]
    fn send_from_a_node_out_of_range_panics_at_the_send() {
        mesh(3, 1, LatencyModel::Constant(10)).send(3, 0, Ping(1));
    }

    #[test]
    #[should_panic(expected = "send 5->0 names a node outside this 5-node network")]
    fn broadcast_from_a_node_out_of_range_panics_at_the_send() {
        mesh(5, 1, LatencyModel::Constant(10)).broadcast(5, Ping(1));
    }

    #[test]
    #[should_panic(expected = "send 2->8 names a node outside this 8-node network")]
    fn sparse_topology_send_to_a_node_out_of_range_panics_at_the_send() {
        ring(8).send(2, 8, Ping(1));
    }

    #[test]
    #[should_panic(expected = "send 9->2 names a node outside this 8-node network")]
    fn sparse_topology_send_from_a_node_out_of_range_panics_at_the_send() {
        ring(8).send(9, 2, Ping(1));
    }

    #[test]
    fn off_topology_sends_are_legal() {
        // Pull repair asks a block's author directly, neighbour or not:
        // the endpoint check is on the node count, not on adjacency.
        let mut net = ring(8);
        net.send(0, 4, Ping(1));
        assert_eq!(drain(&mut net).len(), 1);
        assert_eq!(net.stats().link(0, 4).delivered, 1);
    }

    #[test]
    fn constant_latency_delivers_in_send_order() {
        let mut net: SimNet<Ping> = mesh(3, 1, LatencyModel::Constant(10));
        net.send(0, 1, Ping(1));
        net.send(0, 2, Ping(2));
        net.send(1, 2, Ping(3));
        let got = drain(&mut net);
        assert_eq!(
            got,
            vec![(10, 0, 1, 1), (10, 0, 2, 2), (10, 1, 2, 3)],
            "equal arrival times tie-break in send order"
        );
        assert!(net.quiescent());
    }

    #[test]
    fn latency_orders_arrivals_not_sends() {
        let mut net: SimNet<Ping> = mesh(2, 1, LatencyModel::Constant(0));
        net.set_link_latency(0, 1, LatencyModel::Constant(100));
        net.set_link_latency(1, 0, LatencyModel::Constant(1));
        net.send(0, 1, Ping(1)); // slow link, sent first
        net.send(1, 0, Ping(2)); // fast link, sent second
        assert!(net.advance());
        assert_eq!(net.backlog(0), 1, "fast message arrives first");
        assert_eq!(net.backlog(1), 0);
        assert!(net.advance());
        assert_eq!(net.backlog(1), 1);
    }

    #[test]
    fn drop_all_loses_everything() {
        let mut net: SimNet<Ping> = NetConfig::builder()
            .drop(1.0)
            .build()
            .unwrap()
            .build_net(2, 1);
        net.broadcast(0, Ping(1));
        assert!(!net.advance());
        assert!(net.quiescent());
        assert_eq!(net.stats().totals().dropped, 2);
        assert_eq!(net.sent_count(), 2);
    }

    #[test]
    fn duplicates_arrive_twice() {
        let mut net: SimNet<Ping> = NetConfig::builder()
            .latency(LatencyModel::Constant(5))
            .dup(1.0)
            .build()
            .unwrap()
            .build_net(2, 1);
        net.send(0, 1, Ping(9));
        let got = drain(&mut net);
        assert_eq!(
            got,
            vec![(5, 0, 1, 9), (10, 0, 1, 9)],
            "original, then the duplicate one more latency sample later"
        );
        assert_eq!(net.stats().totals().duplicated, 1);
        assert_eq!(net.stats().totals().delivered, 2);
    }

    #[test]
    fn partition_heals() {
        // Nodes 0 and 1 (the first half) are cut from 2 and 3 until t = 50.
        let mut net: SimNet<Ping> = NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .partition(0, 50)
            .build()
            .unwrap()
            .build_net(4, 1);
        net.send(0, 2, Ping(1)); // cut
        net.send(0, 1, Ping(2)); // same side, fine
        let got = drain(&mut net);
        assert_eq!(got.len(), 1);
        assert_eq!(net.stats().link(0, 2).dropped, 1);
        // Move past the heal time, then the cross link works.
        net.set_link_latency(0, 2, LatencyModel::Constant(60));
        net.send(0, 2, Ping(3)); // arrives at t=61 ≥ 50... sent at t=1 < 50 → still cut!
        assert_eq!(
            net.stats().link(0, 2).dropped,
            2,
            "cut is checked at send time"
        );
        // Advance simulated time past the window via an in-partition hop.
        net.set_link_latency(0, 1, LatencyModel::Constant(60));
        net.send(0, 1, Ping(4));
        assert!(net.advance());
        assert!(net.now_ns() >= 50);
        net.send(0, 2, Ping(5));
        assert!(net.advance());
        assert_eq!(net.backlog(2), 1, "healed link delivers");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 100 })
                .drop(0.2)
                .dup(0.1)
                .reorder(0.3)
                .trace(true)
                .build()
                .unwrap()
                .build_net(4, seed);
            for round in 0..20u64 {
                for from in 0..4 {
                    net.broadcast(from, Ping(round * 4 + from as u64));
                }
            }
            let _ = drain(&mut net);
            net.stats().trace().to_vec()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must give an identical delivery trace");
        assert!(!a.is_empty());
        let c = run(43);
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn broadcast_cloning_matches_zero_copy_broadcast() {
        // The one-parcel broadcast and one `send` (one parcel) per
        // recipient (the trait's default body) must draw the same
        // randomness and produce the same trace.
        let run = |zero_copy: bool| {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 50 })
                .drop(0.1)
                .dup(0.2)
                .reorder(0.3)
                .trace(true)
                .build()
                .unwrap()
                .build_net(5, 77);
            for round in 0..30u64 {
                for from in 0..5 {
                    let msg = Ping(round * 5 + from as u64);
                    if zero_copy {
                        net.broadcast(from, msg);
                    } else {
                        for to in 0..5 {
                            net.send(from, to, msg.clone());
                        }
                    }
                }
            }
            let delivered = drain(&mut net);
            (delivered, net.stats().trace().to_vec(), net.sent_count())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_allocation_stable() {
        let run = |scratch: NetScratch<Ping>| {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Exponential { mean: 100 })
                .drop(0.2)
                .dup(0.1)
                .trace(true)
                .build()
                .unwrap()
                .build_net_with_scratch(4, 9, scratch);
            for round in 0..20u64 {
                for from in 0..4 {
                    net.broadcast(from, Ping(round));
                }
            }
            let got = drain(&mut net);
            let trace = net.stats().trace().to_vec();
            (got, trace, net.into_scratch())
        };
        let (got_a, trace_a, scratch) = run(NetScratch::new());
        let (got_b, trace_b, _) = run(scratch);
        assert_eq!(got_a, got_b, "recycled storage must not change results");
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn scratch_from_another_network_leaves_no_trace() {
        // The recycled statistics and arrival set come from a larger,
        // faultier network torn down mid-flight.
        let run = |scratch: NetScratch<Ping>| {
            let mut net: SimNet<Ping> = NetConfig::builder()
                .latency(LatencyModel::Constant(10))
                .partition(0, 15)
                .trace(true)
                .build()
                .unwrap()
                .build_net_with_scratch(4, 3, scratch);
            for from in 0..4 {
                net.broadcast(from, Ping(from as u64));
            }
            let got = drain(&mut net);
            (got, format!("{:?}", net.stats()), net.stats().to_json())
        };
        let mut other: SimNet<Ping> = NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .drop(0.3)
            .dup(0.3)
            .partition(0, 1_000)
            .build()
            .unwrap()
            .build_net(9, 8);
        for from in 0..9 {
            other.broadcast(from, Ping(99));
        }
        other.advance();
        assert!(other.stats().active_links() > 16 && !other.dirty.is_empty());
        assert_eq!(run(other.into_scratch()), run(NetScratch::new()));
    }

    #[test]
    fn taken_stats_are_the_trial_s_own_and_leave_nothing_behind() {
        let mut net: SimNet<Ping> = mesh(3, 1, LatencyModel::Constant(1));
        net.broadcast(0, Ping(1));
        let _ = drain(&mut net);
        let want = format!("{:?}", net.stats());
        let taken = net.take_stats();
        assert_eq!(format!("{taken:?}"), want);
        assert_eq!(net.stats().totals(), crate::stats::Counters::default());
        // The scratch recycles whatever was left in place — here nothing.
        let mut again: SimNet<Ping> = NetConfig::ideal(LatencyModel::Constant(1))
            .build_net_with_scratch(3, 1, net.into_scratch());
        again.broadcast(0, Ping(1));
        let _ = drain(&mut again);
        assert_eq!(again.stats().totals(), taken.totals());
    }

    #[test]
    fn stats_taken_mid_flight_count_what_is_still_in_flight() {
        // In-flight parcels carry kind slots of the taken table; the
        // table left behind keeps the slots, so their delivery counts.
        let mut net: SimNet<Ping> = mesh(2, 1, LatencyModel::Constant(1));
        net.broadcast(0, Ping(1));
        let taken = net.take_stats();
        assert_eq!(taken.kind("ping").sent, 2);
        assert_eq!(
            format!("{:?}", net.stats()),
            format!("{:?}", NetStats::with_options(2, true))
        );
        let _ = drain(&mut net);
        assert_eq!(net.stats().kind("ping").delivered, 2);
        assert_eq!(net.stats().trace()[0].kind, "ping");
    }

    #[test]
    fn middle_removal_preserves_inbox_order() {
        let mut net: SimNet<Ping> = mesh(2, 1, LatencyModel::Constant(1));
        for i in 0..6 {
            net.send(0, 1, Ping(i));
        }
        net.advance();
        assert_eq!(net.backlog(1), 6);
        // Remove the middle (idx 2 = Ping(2)), then the new idx 2 must be
        // Ping(3): tombstoning must not disturb relative order.
        assert_eq!(net.deliver_at(1, 2).unwrap().payload, Ping(2));
        assert_eq!(net.deliver_at(1, 2).unwrap().payload, Ping(3));
        assert_eq!(
            net.deliver_at(1, net.backlog(1) - 1).unwrap().payload,
            Ping(5)
        );
        assert_eq!(net.deliver_at(1, 0).unwrap().payload, Ping(0));
        assert_eq!(net.deliver_at(1, 0).unwrap().payload, Ping(1));
        assert_eq!(net.deliver_at(1, 0).unwrap().payload, Ping(4));
        assert!(net.quiescent());
    }

    #[test]
    fn advance_until_is_bounded_and_moves_the_clock() {
        let mut net: SimNet<Ping> = mesh(2, 1, LatencyModel::Constant(0));
        net.set_link_latency(0, 1, LatencyModel::Constant(10));
        net.send(0, 1, Ping(1)); // arrives at 10
        net.send(0, 1, Ping(2)); // arrives at 10
        net.set_link_latency(0, 1, LatencyModel::Constant(100));
        net.send(0, 1, Ping(3)); // arrives at 100
        assert!(net.advance_until(50));
        assert_eq!(net.backlog(1), 2, "only the t=10 arrivals surface");
        assert_eq!(net.now_ns(), 50, "clock moves to the target, not past");
        assert!(!net.advance_until(99), "nothing arrives before 100");
        assert!(net.advance_until(100));
        assert_eq!(net.backlog(1), 3);
        // An empty target still moves time forward.
        net.advance_until(500);
        assert_eq!(net.now_ns(), 500);
    }

    #[test]
    fn config_wires_faults_in_fixed_order() {
        // The net keeps the config it was built from and draws the drop,
        // duplicate and reorder coins before it checks the partition, so a
        // cut send still spends its draws: the sends on either side of the
        // cut see the same faults as on the same net without the cut.
        let config = |cut: bool| {
            let b = NetConfig::builder()
                .latency(LatencyModel::Constant(1))
                .drop(0.3)
                .dup(0.3)
                .reorder(0.3)
                .trace(true);
            if cut { b.partition(0, 20) } else { b }.build().unwrap()
        };
        let mut cut: SimNet<Ping> = config(true).build_net(6, 7);
        let mut whole: SimNet<Ping> = config(false).build_net(6, 7);
        assert_eq!(cut.n(), 6);
        assert_eq!(cut.cfg, config(true));
        for net in [&mut cut, &mut whole] {
            for from in 0..6 {
                for to in 0..6 {
                    net.send(from, to, Ping(0));
                }
            }
            let _ = drain(net);
        }
        let (mut whole_dropped, mut whole_crossed) = (false, false);
        for from in 0..6 {
            for to in 0..6 {
                let (c, w) = (cut.stats().link(from, to), whole.stats().link(from, to));
                if (from < 3) != (to < 3) {
                    assert_eq!((c.dropped, c.delivered), (1, 0), "{from}->{to} is cut");
                    whole_crossed |= w.delivered > 0;
                } else {
                    assert_eq!(c, w, "{from}->{to} keeps its draws");
                    whole_dropped |= w.dropped > 0;
                }
            }
        }
        assert!(
            whole_dropped && whole_crossed,
            "the seed exercises both paths"
        );
    }

    #[test]
    fn partition_cuts_only_across_and_only_in_window() {
        // The config's partition cuts nodes 0..3 (the first half) from the
        // rest during [10, 20), decided at the send.
        let mut net: SimNet<Ping> = NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .partition(10, 20)
            .build()
            .unwrap()
            .build_net(6, 7);
        let all_pairs = |net: &mut SimNet<Ping>| {
            for from in 0..6 {
                for to in 0..6 {
                    net.send(from, to, Ping(0));
                }
            }
        };
        all_pairs(&mut net); // t = 0: before the window
        net.advance_until(10);
        all_pairs(&mut net); // t = 10: cut
        net.advance_until(20);
        all_pairs(&mut net); // t = 20: healed
        let _ = drain(&mut net);
        for from in 0..6 {
            for to in 0..6 {
                let crosses = (from < 3) != (to < 3);
                let link = net.stats().link(from, to);
                assert_eq!(link.dropped, u64::from(crosses), "{from}->{to}");
                assert_eq!(link.delivered, 3 - link.dropped, "{from}->{to}");
            }
        }
    }

    #[test]
    fn exponential_latency_reorders_across_links() {
        // With memoryless latency, some later send overtakes an earlier
        // one with overwhelming probability over enough trials.
        let mut net: SimNet<Ping> = mesh(2, 9, LatencyModel::Exponential { mean: 1000 });
        for i in 0..50 {
            net.send(0, 1, Ping(i));
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 50);
        let payloads: Vec<u64> = got.iter().map(|g| g.3).collect();
        let mut sorted = payloads.clone();
        sorted.sort_unstable();
        assert_ne!(payloads, sorted, "exponential latency should reorder");
    }

    #[test]
    fn bandwidth_serializes_a_bursty_link() {
        // 512-byte default wire size at 4_096_000_000 bps → 1000 ns per
        // transmission. Three back-to-back sends on one link serialize:
        // arrival i completes its transmission at (i+1)·1000, plus the
        // 10 ns propagation latency.
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(10))
            .bandwidth_bps(4_096_000_000)
            .trace(true)
            .build()
            .unwrap();
        let mut net: SimNet<Ping> = cfg.build_net(2, 1);
        net.send(0, 1, Ping(0));
        net.send(0, 1, Ping(1));
        net.send(0, 1, Ping(2));
        // The reverse link is idle, so it only pays one transmission.
        net.send(1, 0, Ping(9));
        let got = drain(&mut net);
        assert_eq!(
            got,
            vec![
                (1010, 1, 0, 9),
                (1010, 0, 1, 0),
                (2010, 0, 1, 1),
                (3010, 0, 1, 2),
            ]
        );
    }

    #[test]
    fn geo_config_routes_cross_region_sends_through_the_inter_class() {
        let cfg = NetConfig::builder()
            .latency(LatencyModel::Constant(1))
            .topology(Topology::Geo {
                regions: 2,
                k: 4,
                inter: LatencyModel::Constant(100),
            })
            .trace(true)
            .build()
            .unwrap();
        let mut net: SimNet<Ping> = cfg.build_net(4, 3);
        net.send(0, 1, Ping(1)); // intra region 0
        net.send(0, 3, Ping(2)); // region 0 → region 1
        let got = drain(&mut net);
        assert_eq!(got, vec![(1, 0, 1, 1), (100, 0, 3, 2)]);
        // An explicit per-link override still beats the region class.
        net.set_link_latency(0, 3, LatencyModel::Constant(7));
        net.send(0, 3, Ping(3));
        assert!(net.advance());
        assert_eq!(net.now_ns(), 107);
    }

    #[test]
    fn drained_arrival_nodes_come_back_sorted_and_deduplicated() {
        let mut net: SimNet<Ping> = mesh(5, 1, LatencyModel::Constant(10));
        net.send(0, 3, Ping(1));
        net.send(0, 1, Ping(2));
        net.send(0, 3, Ping(3));
        net.advance_until(10);
        let mut active = Vec::new();
        net.drain_arrived_nodes(&mut active);
        assert_eq!(active, vec![1, 3]);
        net.drain_arrived_nodes(&mut active);
        assert!(active.is_empty(), "drain clears the set");
        net.send(2, 4, Ping(4));
        net.advance_until(20);
        net.drain_arrived_nodes(&mut active);
        assert_eq!(active, vec![4]);
    }
}
