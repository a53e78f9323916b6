//! The substrate interface: what an algorithm needs from a network.

/// A message in flight or delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Payload.
    pub payload: M,
}

/// Payload classification for per-kind metrics. Kinds are short static
/// labels ("append", "ack", "block", ...).
pub trait Kinded {
    /// The metric label for this payload.
    fn kind(&self) -> &'static str;

    /// Serialized size on the wire, for transmission-delay queueing on
    /// bandwidth-limited links. The default (512 bytes, a typical block
    /// header + compact id announcement) keeps payloads that don't care
    /// about size out of the business of estimating one.
    fn wire_bytes(&self) -> u64 {
        512
    }
}

/// A network substrate for `n` nodes exchanging messages of type `M`.
///
/// The contract mirrors the asynchronous model of the paper: `send`
/// accepts a message immediately; the message later *arrives* at the
/// receiver (shows up in [`backlog`](Transport::backlog)) and is consumed
/// by [`deliver_at`](Transport::deliver_at) — the adversarial-reordering
/// primitive, since the caller chooses *which* arrived message a node
/// handles next — or by [`deliver_at_with`](Transport::deliver_at_with),
/// the same consumption with the message lent to a handler instead of
/// handed over. Substrates with simulated time expose progress through
/// [`advance`](Transport::advance); instantaneous substrates (the
/// test-side reliable reference network in `am-mp`) make every sent
/// message arrive at once and `advance` is a no-op returning `false`.
/// [`SimNet`](crate::SimNet) is the one shipped implementation; the trait
/// stays so that test-side substitutes can stand in for it.
pub trait Transport<M> {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// Sends a point-to-point message.
    fn send(&mut self, from: usize, to: usize, payload: M);

    /// Broadcasts to every node including the sender (self-delivery keeps
    /// the paper's pseudocode symmetric), observably as one
    /// [`send`](Transport::send) per recipient — which is what this default
    /// does, cloning the payload for each. Substrates that share one
    /// payload across recipients (see `SimNet`'s override: one slab slot,
    /// one reference per recipient, a clone only when a copy is delivered
    /// owned) must stay observably identical to that loop.
    fn broadcast(&mut self, from: usize, payload: M)
    where
        M: Clone,
    {
        for to in 0..self.n() {
            self.send(from, to, payload.clone());
        }
    }

    /// Messages arrived and waiting for `node`.
    fn backlog(&self, node: usize) -> usize;

    /// The nodes whose [`backlog`](Transport::backlog) is non-empty, one
    /// bit per node (node `i` is bit `i % 64` of word `i / 64`; the slice
    /// holds `n.div_ceil(64)` words and no bit at or above `n`).
    /// Maintained as messages arrive and are consumed, so a delivery loop
    /// finds its next target without asking every node.
    fn backlogged(&self) -> &[u64];

    /// Consumes the arrived message at position `idx` of `node`'s queue.
    fn deliver_at(&mut self, node: usize, idx: usize) -> Option<Envelope<M>>;

    /// Consumes the same message as [`deliver_at`](Transport::deliver_at)
    /// — same choice, same counters, same order — but lends it: `f` gets
    /// the sender and a borrow of the payload, and its result comes back.
    /// `None` (with `f` not called) when `idx` is past the backlog. A
    /// handler that only reads the message saves the owned copy: `SimNet`
    /// lends the payload from its slab slot and gives the copy's reference
    /// back afterwards, so delivering a broadcast this way clones nothing.
    /// The default delivers owned and lends that, for substrates with
    /// nothing to save. `Self: Sized` keeps the trait object-safe.
    fn deliver_at_with<R>(
        &mut self,
        node: usize,
        idx: usize,
        f: impl FnOnce(usize, &M) -> R,
    ) -> Option<R>
    where
        Self: Sized,
    {
        self.deliver_at(node, idx)
            .map(|env| f(env.from, &env.payload))
    }

    /// Pops the next arrived message for `node` (FIFO), if any.
    fn deliver(&mut self, node: usize) -> Option<Envelope<M>> {
        if self.backlog(node) == 0 {
            None
        } else {
            self.deliver_at(node, 0)
        }
    }

    /// Progresses simulated time until at least one in-flight message
    /// arrives somewhere. Returns `false` when nothing is in flight —
    /// if all backlogs are empty too, the system is stuck.
    fn advance(&mut self) -> bool;

    /// Whether nothing is arrived *or* in flight.
    fn quiescent(&self) -> bool;

    /// Total messages accepted by `send` so far.
    fn sent_count(&self) -> u64;

    /// Total messages consumed by `deliver_at` or `deliver_at_with` so far.
    fn delivered_count(&self) -> u64;
}
