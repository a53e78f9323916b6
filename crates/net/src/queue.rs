//! The shared event core: an in-order run beside an adaptive calendar
//! queue, one total order.
//!
//! One type serves every discrete-event loop in the workspace — [`SimNet`]
//! here and the `am_poisson::des::EventQueue` wrapper over it. Events are
//! ordered by the strict total order `(key, seq)`, where `seq` is the
//! schedule sequence number, so equal-key events pop in schedule order and
//! the pop sequence is **independent of how the events are stored** — a
//! calendar, a heap and a sorted list all produce the identical event
//! trace. The queue keeps them in two places and reads no configuration to
//! choose between them; it adapts to the order events arrive in:
//!
//! - the **in-order run**: a ring buffer that takes a scheduled event
//!   whenever its key is ≥ the key at the run's tail (an empty run takes
//!   anything). `seq` only grows, so the run is sorted by `(key, seq)` by
//!   construction and its front is its minimum. Under a constant latency
//!   events are scheduled in pop order already — every one lands here, and
//!   a push or a pop is one ring-buffer operation. The run's back may also
//!   grow in place: [`EventQueue::schedule_or_merge`] lets the caller fold
//!   an event into the latest entry when that entry is the run's back
//!   under the same key, so a burst of same-instant events can cost one
//!   entry, one push and one pop. The merged events hold consecutive
//!   sequence numbers under one key, so nothing sorts between them and
//!   the caller's expansion of the entry pops what one entry per event
//!   would have. A schedule into the calendar, a pop that empties the run,
//!   [`EventQueue::clear`] and [`Storage`] all take the back's "latest"
//!   mark away;
//! - the **calendar** (Brown, CACM 1988): everything else. A key's
//!   [`QueueKey::ordinal`] shifted right by the width's log gives its
//!   bucket number; a ring of buckets covers the bucket numbers from the
//!   cursor on, and a push there is one `Vec::push`. The bucket under the
//!   cursor is *committed* when an event pops from it: it is sorted by
//!   `(key, seq)` once and popped from its front, and an event scheduled
//!   into it takes its sorted place. Keys past the ring wait in an
//!   unordered **far store** with its exact minimum beside it; they move
//!   into the ring when the cursor has left half a ring behind (one scan
//!   per half turn, skipped while the minimum is still out of reach), and
//!   an empty ring jumps straight to the minimum's bucket. Every key in the
//!   calendar was below the run's tail when it was scheduled, so on a
//!   constant latency the calendar is never touched — tests pin that from
//!   outside with the `calendar_scheduled` probe.
//!
//! The calendar has no configured width. It is (re)built from the events
//! — the width is a power of two near `PER_BUCKET` times the smaller of
//! two mean key gaps, among the earliest quarter of the keys it holds and
//! between the pops since its last build; the ring spans the earliest
//! fifteen sixteenths of the keys — at the first commit after [`Storage`]
//! or [`EventQueue::clear`] emptied it, and again whenever the events
//! outgrow that estimate: the cursor steps over twice as many buckets as
//! it pops events, the committed buckets hold four times the target, or
//! inserts into the committed bucket or rescans of the far store cost more
//! than the operations since the last build. A rebuild costs one pass over
//! the calendar and waits until the operations since the last one pay for
//! it, so it stays O(1) amortized per event and no input shape goes
//! quadratic.
//!
//! [`EventQueue::pop`] and [`EventQueue::peek_key`] take the smaller
//! `(key, seq)` of the two fronts; [`EventQueue::pop_due`] pops only up to a
//! key and commits no bucket that starts after it. All storage keeps its
//! capacity across trials through [`Storage`], mirroring the
//! `TrialScratch` pattern from `am-protocols`.
//! `crates/net/tests/queue_determinism.rs` holds the pop sequence to a
//! `BinaryHeap` reference model over schedule shapes that exercise the run
//! alone, the calendar alone, both at once, its far store, its width
//! changes and merged entries (expanded copy by copy).
//!
//! [`SimNet`]: crate::SimNet

use std::collections::VecDeque;

/// An integer view of a queue key: a calendar bucket is a range of
/// ordinals.
///
/// Must be monotone — `a <= b` implies `a.ordinal() <= b.ordinal()` — so a
/// lower bucket never holds a later key. Within a bucket the key's own
/// [`Ord`] decides. Wrappers key the queue by a local newtype that
/// implements this (as `am_poisson::des` does for `Time`).
pub trait QueueKey: Ord + Copy {
    /// The key's position on the integer line.
    fn ordinal(self) -> u64;
}

impl QueueKey for u64 {
    #[inline]
    fn ordinal(self) -> u64 {
        self
    }
}

/// One queued event: `(key, seq, payload)`.
type Entry<K, E> = (K, u64, E);

/// Events a bucket is sized to hold near the front of the calendar: a
/// commit sorts about this many, and the cursor steps over about one
/// bucket per this many pops.
const PER_BUCKET: u64 = 16;

/// Fewest ring buckets a build makes.
const MIN_BUCKETS: usize = 16;

/// Most ring buckets a build makes (the far store holds the rest).
const MAX_BUCKETS: usize = 1 << 20;

/// Log₂ of the narrowest bucket. Two ordinals per bucket keep every
/// bucket number below 2⁶³, so the ring's bounds never overflow.
const MIN_SHIFT: u32 = 1;

/// Recycled run and calendar storage for an [`EventQueue`].
///
/// [`EventQueue::into_storage`] returns the warmed-up ring buffer, bucket
/// ring and far store (payloads dropped, capacity kept);
/// [`EventQueue::from_storage`] rebuilds a fresh queue on top of them with
/// zero allocations. Trial runners keep one `Storage` per thread (a
/// `thread_local!`).
#[derive(Debug)]
pub struct Storage<K, E> {
    run: VecDeque<Entry<K, E>>,
    cal: Calendar<K, E>,
}

impl<K, E> Default for Storage<K, E> {
    fn default() -> Self {
        Storage::new()
    }
}

impl<K, E> Storage<K, E> {
    /// Empty storage (allocates nothing until first use).
    pub fn new() -> Storage<K, E> {
        Storage {
            run: VecDeque::new(),
            cal: Calendar::new(),
        }
    }
}

/// The out-of-order store: a ring of buckets, the committed bucket and a
/// far store (see the module docs).
///
/// With `next` the cursor and `b(e) = e.ordinal() >> shift`:
/// `cur` holds every entry with `b < next`, sorted; ring slot `b & mask`
/// holds those with `next <= b < horizon` (unordered, `horizon <= next +
/// mask + 1`, so no two live bucket numbers share a slot); `far` holds
/// those with `b >= horizon`. An unbuilt calendar has `horizon == 0`, so
/// everything waits in `far` until the first commit builds the ring from
/// it.
#[derive(Debug)]
struct Calendar<K, E> {
    /// The committed bucket (and anything scheduled behind the cursor
    /// since), ascending by `(key, seq)`.
    cur: VecDeque<Entry<K, E>>,
    /// Bucket slots; the first `mask + 1` are in use, the rest keep
    /// their capacity for a later, larger build.
    ring: Vec<Vec<Entry<K, E>>>,
    /// Entries past the ring, unordered.
    far: Vec<Entry<K, E>>,
    /// The smallest `(key, seq)` in `far`, if any.
    far_min: Option<(K, u64)>,
    /// An empty buffer that trades places with `far` while it is sorted
    /// out.
    spare: Vec<Entry<K, E>>,
    /// Scratch ordinals for a build's estimates.
    ords: Vec<u64>,
    /// Log₂ of the bucket width in ordinals.
    shift: u32,
    /// Ring slots in use, minus one.
    mask: u64,
    /// The next bucket number to commit.
    next: u64,
    /// First bucket number held in `far`.
    horizon: u64,
    /// Entries in ring slots.
    in_ring: usize,
    /// Entries in `cur`, the ring and `far`.
    len: usize,
    /// Whether the width and ring were derived from the events it holds.
    built: bool,
    /// What the calendar did since it was last built.
    since: Since,
}

/// Operation counts since the last build: what [`Calendar::rebuild_due`]
/// weighs.
#[derive(Clone, Copy, Debug, Default)]
struct Since {
    /// Schedules into and pops from the calendar.
    ops: u64,
    pops: u64,
    /// Cursor steps, empty buckets included.
    steps: u64,
    /// Buckets committed.
    commits: u64,
    /// Entries moved aside by inserts into the committed bucket.
    shifted: u64,
    /// Far entries looked at by refills.
    scanned: u64,
    /// Ordinals of the first and the latest pop.
    first_pop: u64,
    last_pop: u64,
}

impl<K, E> Calendar<K, E> {
    fn new() -> Calendar<K, E> {
        Calendar {
            cur: VecDeque::new(),
            ring: Vec::new(),
            far: Vec::new(),
            far_min: None,
            spare: Vec::new(),
            ords: Vec::new(),
            shift: MIN_SHIFT,
            mask: 0,
            next: 0,
            horizon: 0,
            in_ring: 0,
            len: 0,
            built: false,
            since: Since::default(),
        }
    }

    /// Drops every entry; the next commit derives the width afresh.
    fn clear(&mut self) {
        self.cur.clear();
        if self.in_ring > 0 {
            for slot in &mut self.ring {
                slot.clear();
            }
        }
        self.far.clear();
        self.far_min = None;
        self.in_ring = 0;
        self.len = 0;
        self.horizon = 0;
        self.next = 0;
        self.built = false;
    }

    fn buckets(&self) -> u64 {
        self.mask + 1
    }
}

impl<K: QueueKey, E> Calendar<K, E> {
    #[inline]
    fn bucket(&self, key: K) -> u64 {
        key.ordinal() >> self.shift
    }

    fn push(&mut self, entry: Entry<K, E>) {
        if self.len == 0 && self.built {
            // Empty: re-anchor the ring at this event, committing nothing.
            self.next = self.bucket(entry.0);
            self.horizon = self.next + self.buckets();
        }
        self.len += 1;
        self.since.ops += 1;
        let b = self.bucket(entry.0);
        if b < self.next {
            // Behind the cursor: its sorted place in the committed bucket
            // (after every equal key — its `seq` is the largest).
            let at = self.cur.partition_point(|e| e.0 <= entry.0);
            self.since.shifted += at.min(self.cur.len() - at) as u64;
            self.cur.insert(at, entry);
            if self.rebuild_due() {
                self.rebuild();
            }
        } else if b < self.horizon {
            self.ring[(b & self.mask) as usize].push(entry);
            self.in_ring += 1;
        } else {
            self.push_far(entry);
        }
    }

    #[inline]
    fn push_far(&mut self, entry: Entry<K, E>) {
        if self
            .far_min
            .is_none_or(|(key, seq)| (entry.0, entry.1) < (key, seq))
        {
            self.far_min = Some((entry.0, entry.1));
        }
        self.far.push(entry);
    }

    /// The earliest entry, without committing anything.
    fn peek(&self) -> Option<(K, u64)> {
        if let Some(e) = self.cur.front() {
            return Some((e.0, e.1));
        }
        if self.in_ring == 0 {
            return self.far_min;
        }
        (self.next..self.horizon)
            .map(|b| &self.ring[(b & self.mask) as usize])
            .find(|slot| !slot.is_empty())
            .and_then(|slot| slot.iter().map(|e| (e.0, e.1)).min())
    }

    /// The earliest entry, committing the bucket it sits in — unless that
    /// bucket starts past ordinal `bound`, when nothing is committed and
    /// `None` is returned.
    fn front_through(&mut self, bound: u64) -> Option<(K, u64)> {
        if self.cur.is_empty() {
            if self.len == 0 {
                return None;
            }
            if !self.built {
                let (key, _) = self.far_min.expect("an unbuilt calendar keeps all in far");
                if key.ordinal() > bound {
                    return None;
                }
            }
            if self.rebuild_due() {
                self.rebuild();
            }
            if !self.commit_through(bound >> self.shift) {
                return None;
            }
        }
        self.cur.front().map(|e| (e.0, e.1))
    }

    /// Moves the cursor to the next non-empty bucket numbered at most
    /// `last` and commits it; false if there is none.
    fn commit_through(&mut self, last: u64) -> bool {
        loop {
            if self.in_ring == 0 {
                // Only the far store holds events: jump to its minimum.
                let (key, _) = self.far_min.expect("a non-empty calendar");
                let b = self.bucket(key);
                if b > last {
                    return false;
                }
                self.next = b;
                self.refill();
                // The minimum is exact, so its bucket is in the ring now;
                // a stale one would send this loop back to the same jump
                // forever.
                debug_assert!(
                    !self.ring[(b & self.mask) as usize].is_empty(),
                    "the far store's minimum names bucket {b}, which the refill left empty"
                );
            }
            if self.next > last {
                return false;
            }
            let slot = (self.next & self.mask) as usize;
            let found = !self.ring[slot].is_empty();
            if found {
                let bucket = std::mem::take(&mut self.ring[slot]);
                let emptied = std::mem::replace(&mut self.cur, VecDeque::from(bucket));
                self.ring[slot] = Vec::from(emptied);
                self.in_ring -= self.cur.len();
                self.since.commits += 1;
            }
            // Step past the bucket before the refill, which may hand its
            // slot to the bucket a full turn ahead.
            self.next += 1;
            self.since.steps += 1;
            if self.horizon - self.next <= self.mask / 2 {
                self.refill();
            }
            if found {
                self.cur
                    .make_contiguous()
                    .sort_unstable_by_key(|e| (e.0, e.1));
                return true;
            }
        }
    }

    /// Slides the ring's end to a full turn past the cursor and moves the
    /// far entries it now covers into their buckets. Skips the scan when
    /// the far minimum is still out of reach.
    fn refill(&mut self) {
        self.horizon = self.next + self.buckets();
        if self
            .far_min
            .is_some_and(|(key, _)| self.bucket(key) < self.horizon)
        {
            self.sort_far();
        }
    }

    /// Moves every far entry below `horizon` into its ring slot and
    /// recomputes the far minimum over the rest.
    fn sort_far(&mut self) {
        self.since.scanned += self.far.len() as u64;
        let mut far = std::mem::replace(&mut self.far, std::mem::take(&mut self.spare));
        self.far_min = None;
        for entry in far.drain(..) {
            let b = self.bucket(entry.0);
            if b < self.horizon {
                self.ring[(b & self.mask) as usize].push(entry);
                self.in_ring += 1;
            } else {
                self.push_far(entry);
            }
        }
        self.spare = far;
    }

    /// Whether the events have outgrown the width and ring they were
    /// built for: the cursor steps over twice as many buckets as it pops
    /// events, the committed buckets hold four times the target or take
    /// costly inserts, or the far store is rescanned more than it is used.
    /// A rebuild waits until the operations since the last one pay for its
    /// pass over the calendar.
    fn rebuild_due(&self) -> bool {
        if !self.built {
            return true;
        }
        let s = self.since;
        let buckets = self.buckets();
        if 2 * s.ops < self.len as u64 + buckets {
            return false;
        }
        s.steps > 2 * s.pops + buckets
            || s.pops > 4 * PER_BUCKET * s.commits + buckets
            || s.shifted > s.ops + buckets
            || s.scanned > s.ops + buckets
    }

    /// Re-derives width and ring size from the events held and sorts
    /// every one of them into the new ring (or the far store). The width
    /// is the power of two at or above `PER_BUCKET` mean key gaps; the
    /// ring spans the earliest fifteen sixteenths of the keys, in at most
    /// four buckets per event.
    fn rebuild(&mut self) {
        // Gather everything into `far`; nothing stays committed.
        self.far.extend(self.cur.drain(..));
        if self.in_ring > 0 {
            let buckets = self.buckets() as usize;
            for slot in &mut self.ring[..buckets] {
                self.far.append(slot);
            }
        }
        self.in_ring = 0;
        self.ords.clear();
        self.ords.extend(self.far.iter().map(|e| e.0.ordinal()));
        let n = self.ords.len();
        let low = *self.ords.iter().min().expect("a non-empty calendar");
        let quarter = (n / 4).max(1);
        let held = if n > quarter {
            (*self.ords.select_nth_unstable(quarter).1 - low) / quarter as u64
        } else {
            0
        };
        let s = self.since;
        // Pops run backwards only when keys were scheduled behind popped
        // ones; the pop gap then says nothing.
        let popped = match (s.pops, s.last_pop.checked_sub(s.first_pop)) {
            (2.., Some(span)) => span / (s.pops - 1),
            _ => u64::MAX,
        };
        // The held keys speak for the coming pops; the popped ones step in
        // when the held are mostly far off while a few cycle at the front.
        let gap = held.min(popped.saturating_mul(4));
        let width = gap
            .saturating_mul(PER_BUCKET)
            .max(1)
            .checked_next_power_of_two()
            .unwrap_or(1 << 63);
        self.shift = width.trailing_zeros().max(MIN_SHIFT);
        let reach = *self.ords.select_nth_unstable(n * 15 / 16).1 - low;
        let most = (4 * n).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let buckets = ((reach >> self.shift) as usize + 1)
            .checked_next_power_of_two()
            .map_or(most, |b| b.clamp(MIN_BUCKETS, most));
        if self.ring.len() < buckets {
            self.ring.resize_with(buckets, Vec::new);
        }
        self.mask = buckets as u64 - 1;
        self.next = low >> self.shift;
        self.horizon = self.next + self.buckets();
        self.sort_far();
        self.built = true;
        self.since = Since::default();
    }

    /// Pops the front of the committed bucket.
    fn pop_front(&mut self) -> Option<Entry<K, E>> {
        let entry = self.cur.pop_front()?;
        let at = entry.0.ordinal();
        if self.since.pops == 0 {
            self.since.first_pop = at;
        }
        self.since.last_pop = at;
        self.len -= 1;
        self.since.ops += 1;
        self.since.pops += 1;
        Some(entry)
    }
}

/// A deterministic min-queue over `(key, seq)`: an in-order run beside an
/// adaptive calendar queue (see the module docs). `seq` is assigned per
/// [`schedule`](EventQueue::schedule) or
/// [`schedule_or_merge`](EventQueue::schedule_or_merge) call in strictly
/// increasing order starting at 0, so ties on `key` break in schedule
/// order.
#[derive(Debug)]
pub struct EventQueue<K, E> {
    /// The in-order run: strictly ascending in `(key, seq)`, front first.
    run: VecDeque<Entry<K, E>>,
    /// Everything scheduled behind the run's tail.
    cal: Calendar<K, E>,
    next_seq: u64,
    /// Whether the run's back is the latest entry — the one that took
    /// `next_seq − 1` (or, merged, ended on it): only then may
    /// [`schedule_or_merge`](EventQueue::schedule_or_merge) extend it.
    back_is_latest: bool,
    /// Schedules that went to the calendar since the queue was built.
    calendar_scheduled: u64,
}

impl<K: QueueKey, E> Default for EventQueue<K, E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<K: QueueKey, E> EventQueue<K, E> {
    /// An empty queue.
    pub fn new() -> EventQueue<K, E> {
        EventQueue::from_storage(Storage::new())
    }

    /// Rebuilds an empty queue on recycled [`Storage`]: capacity is kept,
    /// any stale payloads are dropped, `seq` restarts at 0 and the
    /// calendar's width is derived afresh from the new events.
    pub fn from_storage(mut storage: Storage<K, E>) -> EventQueue<K, E> {
        storage.run.clear();
        storage.cal.clear();
        EventQueue {
            run: storage.run,
            cal: storage.cal,
            next_seq: 0,
            back_is_latest: false,
            calendar_scheduled: 0,
        }
    }

    /// Tears the queue down to its reusable storage, dropping any
    /// still-queued payloads.
    pub fn into_storage(self) -> Storage<K, E> {
        Storage {
            run: self.run,
            cal: self.cal,
        }
    }

    /// Number of queued entries (a merged entry counts once).
    pub fn len(&self) -> usize {
        self.run.len() + self.cal.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules that went to the calendar since this queue was built on
    /// its [`Storage`] (a [`clear`](EventQueue::clear) keeps counting): a
    /// probe for tests that pin which store a workload's events take.
    #[doc(hidden)]
    pub fn calendar_scheduled(&self) -> u64 {
        self.calendar_scheduled
    }

    /// Sequence number the next [`schedule`](EventQueue::schedule) call
    /// will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Key of the earliest queued event, if any. Commits no bucket.
    pub fn peek_key(&self) -> Option<K> {
        match (self.run.front(), self.cal.peek()) {
            (Some(&(run, ..)), Some((cal, _))) => Some(run.min(cal)),
            (Some(&(run, ..)), None) => Some(run),
            (None, cal) => cal.map(|(key, _)| key),
        }
    }

    /// Removes every queued event (payloads are dropped; capacity and the
    /// `seq` counter are kept).
    pub fn clear(&mut self) {
        self.run.clear();
        self.cal.clear();
        self.back_is_latest = false;
    }

    /// Queues `item` at `key` and returns the assigned sequence number.
    /// Allocation-free whenever the store it lands in has room.
    #[inline]
    pub fn schedule(&mut self, key: K, item: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // In order behind the run's tail (`seq` already is): extend the
        // run, whose back is then the latest entry.
        self.back_is_latest = self.run.back().is_none_or(|&(tail, ..)| key >= tail);
        if self.back_is_latest {
            self.run.push_back((key, seq, item));
        } else {
            self.calendar_scheduled += 1;
            self.cal.push((key, seq, item));
        }
        seq
    }

    /// Like [`schedule`](EventQueue::schedule), but first offers `item` to
    /// the latest entry when that entry sits at the run's back under the
    /// same `key`: `merge(back, &item)` may fold the item into the back's
    /// payload and return true, and the item then takes the next sequence
    /// number without an entry of its own. The caller owns what a merged
    /// payload means: an entry popped as `(key, seq, e)` stands for every
    /// item folded into `e`, the `i`-th of them (0 for the entry's own) at
    /// sequence number `seq + i`. Nothing can sort between them — they are
    /// consecutive in `seq` under one key — so expanding an entry in that
    /// order pops exactly what one entry per item would have. [`len`]
    /// counts entries.
    ///
    /// [`len`]: EventQueue::len
    #[inline]
    pub fn schedule_or_merge(
        &mut self,
        key: K,
        item: E,
        merge: impl FnOnce(&mut E, &E) -> bool,
    ) -> u64 {
        if self.back_is_latest {
            let back = self
                .run
                .back_mut()
                .expect("the latest entry sits at the run's back");
            if back.0 == key && merge(&mut back.2, &item) {
                let seq = self.next_seq;
                self.next_seq += 1;
                return seq;
            }
        }
        self.schedule(key, item)
    }

    /// Pops the event with the smallest `(key, seq)` — the smaller of the
    /// run's front and the calendar's.
    pub fn pop(&mut self) -> Option<(K, u64, E)> {
        self.pop_first(None)
    }

    /// Pops the event with the smallest `(key, seq)` if its key is at most
    /// `limit`; otherwise leaves the queue as it was, save that the
    /// calendar may have committed a bucket starting at or before `limit`.
    pub fn pop_due(&mut self, limit: K) -> Option<(K, u64, E)> {
        self.pop_first(Some(limit))
    }

    #[inline]
    fn pop_first(&mut self, limit: Option<K>) -> Option<(K, u64, E)> {
        if self.cal.len == 0 {
            // In-order traffic: the run's front is the minimum.
            let &(key, ..) = self.run.front()?;
            if limit.is_some_and(|limit| key > limit) {
                return None;
            }
            return self.pop_run();
        }
        let run = self.run.front().map(|&(key, seq, _)| (key, seq));
        // The calendar need not commit past the run's front or the limit.
        let bound = match (run, limit) {
            (Some((key, _)), Some(limit)) => Some(key.min(limit)),
            (run, limit) => run.map(|(key, _)| key).or(limit),
        };
        let cal = self.cal.front_through(bound.map_or(u64::MAX, K::ordinal));
        let (key, from_cal) = match (run, cal) {
            (None, None) => return None,
            (Some(run), Some(cal)) => {
                let cal_first = (cal.0 < run.0) | ((cal.0 == run.0) & (cal.1 < run.1));
                (if cal_first { cal.0 } else { run.0 }, cal_first)
            }
            (Some((key, _)), None) => (key, false),
            (None, Some((key, _))) => (key, true),
        };
        if limit.is_some_and(|limit| key > limit) {
            return None;
        }
        if from_cal {
            self.cal.pop_front()
        } else {
            self.pop_run()
        }
    }

    /// Pops the run's front; the run's last entry takes the latest-entry
    /// mark with it.
    #[inline]
    fn pop_run(&mut self) -> Option<(K, u64, E)> {
        let entry = self.run.pop_front();
        if self.run.is_empty() {
            self.back_is_latest = false;
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule(3u64, "c");
        q.schedule(1, "a");
        q.schedule(2, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_keys_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(7u64, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn seq_is_dense_and_returned() {
        let mut q = EventQueue::new();
        assert_eq!(q.schedule(5u64, ()), 0);
        assert_eq!(q.schedule(5, ()), 1);
        assert_eq!(q.next_seq(), 2);
        let (k, seq, ()) = q.pop().unwrap();
        assert_eq!((k, seq), (5, 0));
    }

    #[test]
    fn storage_recycling_resets_seq_and_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(1_000 + i, i); // in order: the run
        }
        for i in 0..100u64 {
            q.schedule(999 - i, i); // below the run's tail: the calendar
        }
        assert_eq!((q.run.len(), q.cal.len), (100, 100));
        while q.pop().is_some() {}
        let (run_cap, ring_len) = (q.run.capacity(), q.cal.ring.len());
        assert!(ring_len >= MIN_BUCKETS, "the first pop built the ring");
        let storage = q.into_storage();
        let mut q2: EventQueue<u64, u64> = EventQueue::from_storage(storage);
        assert_eq!(q2.next_seq(), 0);
        assert!(q2.run.capacity() >= run_cap && q2.cal.ring.len() == ring_len);
        assert!(!q2.cal.built, "a recycled calendar re-derives its width");
        assert_eq!(q2.schedule(1, 9), 0);
        assert_eq!(q2.pop(), Some((1, 0, 9)));
    }

    #[test]
    fn interleaved_push_pop_recycles_slots() {
        // A far-future sentinel holds the run's tail, so every other event
        // is out of order and goes through the calendar.
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, 0);
        let mut last_popped = None;
        for round in 0..50u64 {
            q.schedule(round * 2, round);
            q.schedule(round * 2 + 1, round);
            let (k, _, _) = q.pop().unwrap();
            assert!(last_popped < Some(k), "pops come out in key order");
            last_popped = Some(k);
        }
        // The calendar holds the live events only: popped room is reused.
        assert_eq!((q.cal.len, q.run.len(), q.len()), (50, 1, 51));
        assert_eq!(q.calendar_scheduled(), 100);
        let held: usize = q.cal.ring.iter().map(Vec::capacity).sum::<usize>()
            + q.cal.cur.capacity()
            + q.cal.far.capacity();
        assert!(held <= 4 * 100, "the calendar holds room for {held}");
    }

    #[test]
    fn a_bucket_is_committed_only_by_a_pop_from_it() {
        // Events 1 000 apart behind a sentinel: a bucket of the built
        // calendar holds one or a few of them.
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, 0);
        for i in 1..=64u64 {
            q.schedule(i * 1_000, i);
        }
        assert_eq!(q.peek_key(), Some(1_000));
        assert_eq!(q.pop_due(999), None, "nothing is due before 1 000");
        assert!(
            q.cal.cur.is_empty(),
            "a limit before the front commits nothing"
        );
        assert_eq!(q.pop_due(1_000), Some((1_000, 1, 1)));
        // The committed bucket ends before 64 000, and a limit short of the
        // next event's bucket leaves that bucket in the ring.
        while !q.cal.cur.is_empty() {
            q.pop();
        }
        let next = q.peek_key().expect("events left");
        let start = (next >> q.cal.shift) << q.cal.shift;
        if start > 0 {
            assert_eq!(q.pop_due(start - 1), None);
            assert!(q.cal.cur.is_empty(), "a limit before the bucket commits it");
        }
        assert!(q.cal.cur.is_empty(), "peek_key commits nothing");
        assert_eq!(q.pop_due(next).map(|(k, ..)| k), Some(next));
    }

    #[test]
    fn the_width_follows_the_spread() {
        // A hold model 2 000 deep: delays up to 100, then up to 10⁶.
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, u64::MAX);
        for i in 0..2_000u64 {
            q.schedule(1 + i % 97, i);
        }
        let mut x = 1u64;
        let mut hold = |q: &mut EventQueue<u64, u64>, spread: u64| {
            for _ in 0..20_000 {
                let (now, _, item) = q.pop().unwrap();
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.schedule(now + 1 + (x >> 33) % spread, item);
            }
            q.cal.shift
        };
        let narrow = hold(&mut q, 100);
        let wide = hold(&mut q, 1_000_000);
        let narrow_again = hold(&mut q, 100);
        assert!(narrow <= 4, "2 000 events over 100 keys: width 2^{narrow}");
        assert!(wide >= narrow + 10, "10⁴× the spread: width 2^{wide}");
        assert!(
            narrow_again + 6 <= wide,
            "back near the first: 2^{narrow_again}"
        );
        assert_eq!(q.len(), 2_001);
    }

    #[test]
    fn in_order_schedules_never_touch_the_calendar() {
        // Constant-latency traffic: keys never decrease, pops interleave.
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..4u64 {
                q.schedule(round * 10, round * 4 + i);
            }
            // Schedule order is pop order: the `round`-th event overall.
            assert_eq!(q.pop(), Some((round / 4 * 10, round, round)));
        }
        assert_eq!(q.cal.len, 0, "an in-order event reached the calendar");
        assert!(q.cal.ring.is_empty() && q.cal.far.capacity() == 0);
        assert_eq!((q.len(), q.run.len()), (150, 150));
        // One late event is the calendar's; the fronts still merge in order.
        q.schedule(5, 999);
        assert_eq!((q.cal.len, q.peek_key()), (1, Some(5)));
        assert_eq!(q.pop(), Some((5, 200, 999)));
        assert_eq!(q.pop(), Some((120, 50, 50)));
    }

    #[test]
    fn peek_key_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.schedule(9u64, ());
        q.schedule(4, ());
        assert_eq!(q.peek_key(), Some(4));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // seq keeps counting after clear (clear ≠ recycle).
        assert_eq!(q.schedule(1, ()), 2);
    }
}
