//! Determinism properties of the shared event core.
//!
//! [`am_net::EventQueue`] keeps its events in two places — an in-order run
//! (a ring buffer that takes an event whose key is not below the run's
//! tail) and an adaptive calendar queue (everything else: a ring of
//! buckets whose width and size are derived from the events it holds, a
//! committed bucket sorted when an event first pops from it, and a far
//! store for keys past the ring) — and neither has a canonical shape:
//! which event sits where depends on the exact push/pop interleaving and
//! on when the calendar last rebuilt. What *is* canonical is the pop
//! sequence: `(key, seq)` is a strict total order, so any correct
//! implementation must pop in exactly the same order as the `BinaryHeap`
//! the queue replaced. These tests pin that contract over three schedule
//! shapes per seed ([`Shape`]): keys that never decrease (the run alone),
//! random keys (the calendar, mostly) and in-order bursts between
//! stragglers with pops in between (both fronts live, equal keys on both
//! sides); over the calendar's own corners — equal keys inside one bucket,
//! schedules into the committed bucket, keys past the ring and a full turn
//! of it away, a spread that changes 10⁴-fold mid-run and storage recycled
//! between trials of very different spreads; over `pop_due`'s limit; and
//! over one spread-latency run at `gossip_scale`'s depth (~56 k in
//! flight). `len`, `peek_key` and `next_seq` are held to the reference at
//! every step, `clear` and the `Storage` round trip are exercised with
//! events in both stores, and `crates/poisson/tests/des_determinism.rs`
//! runs the same shapes through the `am_poisson::EventQueue` wrapper.
//! What only the queue's insides show — that a rebuild follows the spread,
//! that nothing is committed before a pop from it — is pinned in-crate
//! (`queue::tests`).
//!
//! Mutation-checked: each of these edits to `queue.rs` fails the tests
//! named —
//!
//! * a push files an entry one bucket late (`(b + 1) & mask`):
//!   `fuzz_matches_…`, `equal_keys_inside_one_bucket…`,
//!   `keys_past_the_ring…` and the spread run;
//! * the cursor commits the slot one past its own: the same tests;
//! * the committed bucket is sorted on `key` alone with an unstable sort:
//!   `equal_keys_inside_one_bucket…` and the random shape;
//! * the far minimum goes stale — a far push that does not lower it, or a
//!   refill that keeps the old one: the per-step `peek_key` check of
//!   `keys_past_the_ring…` and of the spread run;
//! * a rebuild changes the width but leaves the ring's entries in their
//!   old slots: `a_spread_change…`, `recycled_storage_between_spreads…`
//!   and the spread run;
//! * `pop_due` (and `pop` behind the run's front) commits the next bucket
//!   whatever its start: `queue::tests::a_bucket_is_committed_only_by_a_pop_from_it`
//!   (`peek_key` takes `&self`, so it cannot commit at all);
//! * `pop` settles the two fronts on `key` alone and takes the calendar's
//!   on a tie (on a tie the run's event is always the older — the calendar
//!   only ever receives what was scheduled behind the run's tail):
//!   `equal_keys_split_across_run_and_calendar…` and the burst shape;
//! * the run accepts a key *below* its tail (`key >= tail` → `true`): the
//!   random and burst shapes of `fuzz_matches_…`;
//! * `pop` always prefers a non-empty run: the random and burst shapes;
//! * `peek_key` ignores the run (or the calendar): the per-step `peek_key`
//!   check of every shape;
//! * `clear` leaves the run: `clear_empties_both_stores…`;
//! * `len` counts only the calendar: the per-step `len` check (first step
//!   of the in-order shape);
//! * `from_storage` keeps the old run: `recycled_storage_starts_empty…`.
//!
//! Merged entries ([`EventQueue::schedule_or_merge`], the shape `SimNet`
//! gives a broadcast's same-instant copies) are held to a per-copy
//! reference: every popped entry is expanded copy by copy and each copy
//! must match one reference pop ([`MergePair`]). Mutation-checked the same
//! way —
//!
//! * a pop of the run's back keeps the "latest entry" mark:
//!   `a_pop_of_the_run_s_back_closes_it_to_merges` and
//!   `merged_runs_interleaved_with_calendar_events_match_…` (the merge
//!   finds no back to extend);
//! * a merge under a different key (the key compare dropped):
//!   `merged_runs_interleaved_with_calendar_events_match_…`, and
//!   `fault_pins`, `parcel_spec` and `sim::tests` through `SimNet`.
//!
//! The merge rule `SimNet` passes in (same parcel, next receiver, next
//! row) and its expansion at admission are pinned in `sim::tests`,
//! `fault_pins` and `parcel_spec`.

use am_net::EventQueue;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Equal-timestamp events must pop in schedule (`seq`) order — the FIFO
/// tie-break every simulator invariant leans on.
#[test]
fn equal_timestamp_events_pop_in_seq_order() {
    let mut q: EventQueue<u64, &'static str> = EventQueue::new();
    // Three distinct timestamps, interleaved scheduling.
    q.schedule(7, "a");
    q.schedule(3, "b");
    q.schedule(7, "c");
    q.schedule(3, "d");
    q.schedule(1, "e");
    q.schedule(7, "f");
    let mut popped = Vec::new();
    while let Some((key, seq, item)) = q.pop() {
        popped.push((key, seq, item));
    }
    assert_eq!(
        popped,
        vec![
            (1, 4, "e"),
            (3, 1, "b"),
            (3, 3, "d"),
            (7, 0, "a"),
            (7, 2, "c"),
            (7, 5, "f"),
        ],
        "equal keys must pop in schedule order, keys ascending"
    );
}

/// The reference the event core replaced: a `BinaryHeap` of
/// `Reverse<(key, seq, item)>` (min-heap, seq tie-break).
type Reference = BinaryHeap<Reverse<(u64, u64, u32)>>;

/// The queue under test and its reference, driven in lockstep.
struct Pair {
    q: EventQueue<u64, u32>,
    r: Reference,
    what: String,
}

impl Pair {
    fn new(what: String) -> Pair {
        Pair {
            q: EventQueue::new(),
            r: Reference::new(),
            what,
        }
    }

    fn push(&mut self, key: u64, item: u32) {
        let want_seq = self.q.next_seq();
        let seq = self.q.schedule(key, item);
        assert_eq!(seq, want_seq, "seq must be dense ({})", self.what);
        self.r.push(Reverse((key, seq, item)));
        self.check();
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let got = self.q.pop();
        let want = self.r.pop().map(|Reverse(t)| t);
        assert_eq!(got, want, "pop diverged from BinaryHeap ({})", self.what);
        self.check();
        got
    }

    /// What is observable without popping.
    fn check(&self) {
        assert_eq!(self.q.len(), self.r.len(), "len ({})", self.what);
        assert_eq!(self.q.is_empty(), self.r.is_empty(), "{}", self.what);
        let want = self.r.peek().map(|Reverse((key, ..))| *key);
        assert_eq!(self.q.peek_key(), want, "peek_key ({})", self.what);
    }

    fn pop_due(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
        let got = self.q.pop_due(limit);
        let due = self
            .r
            .peek()
            .is_some_and(|Reverse((key, ..))| *key <= limit);
        let want = if due {
            self.r.pop().map(|Reverse(t)| t)
        } else {
            None
        };
        assert_eq!(got, want, "pop_due({limit}) diverged ({})", self.what);
        self.check();
        got
    }

    fn drain(&mut self) -> usize {
        let mut pops = 0;
        while self.pop().is_some() {
            pops += 1;
        }
        pops
    }
}

/// How a fuzz run draws its keys.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Keys never decrease — constant-latency traffic. Everything rides
    /// the run; the calendar stays empty.
    InOrder,
    /// Keys uniform over a small range, so ties are common and nearly
    /// every event is behind the run's tail: the calendar, mostly.
    Random,
    /// Bursts of in-order keys with stragglers between them, drawn from
    /// the span the run currently covers (its own keys included): both
    /// fronts live, equal keys split across run and heap.
    Bursts,
}

/// Draws the next key. `now` is the last popped key, `hi` the largest
/// scheduled so far.
fn next_key(shape: Shape, rng: &mut ChaCha8Rng, now: u64, hi: &mut u64) -> u64 {
    match shape {
        Shape::InOrder => *hi += rng.gen_range(0..3u64),
        Shape::Random => return rng.gen_range(0..40u64),
        Shape::Bursts => {
            if rng.gen_bool(0.3) {
                return rng.gen_range(now.min(*hi)..=*hi);
            }
            *hi += rng.gen_range(0..2u64);
        }
    }
    *hi
}

/// A kill/re-push fuzz: random bursts of schedules (with deliberately
/// colliding keys), random bursts of pops, and popped items re-scheduled
/// under new keys ("kill/re-push") — the queue must match the
/// `BinaryHeap` reference event-for-event across 100 seeds, in each of
/// the three schedule shapes.
#[test]
fn fuzz_matches_binary_heap_reference_across_100_seeds() {
    for shape in [Shape::InOrder, Shape::Random, Shape::Bursts] {
        for seed in 0..100u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut pair = Pair::new(format!("{shape:?} seed {seed}"));
            let (mut now, mut hi) = (0u64, 0u64);
            let mut pops = 0usize;
            for _ in 0..300 {
                if rng.gen_bool(0.55) || pair.q.is_empty() {
                    let key = next_key(shape, &mut rng, now, &mut hi);
                    pair.push(key, rng.gen_range(0..1000u32));
                    continue;
                }
                for _ in 0..rng.gen_range(1..4usize) {
                    let Some((key, _, item)) = pair.pop() else {
                        break;
                    };
                    now = key;
                    pops += 1;
                    // Kill/re-push: the popped event re-enters the future
                    // (retransmission-style), stressing slot reuse.
                    if rng.gen_bool(0.3) {
                        let key = match shape {
                            Shape::Random => key + rng.gen_range(1..20u64),
                            _ => next_key(shape, &mut rng, now, &mut hi),
                        };
                        pair.push(key, item);
                    }
                }
            }
            // Drain: the tails must agree too.
            pops += pair.drain();
            assert!(pops > 50, "fuzz too shallow ({})", pair.what);
        }
    }
}

/// The smallest schedule with the same key at both fronts: the run holds
/// the older event, the calendar the younger, and `seq` — not which store
/// an event happens to sit in — decides.
#[test]
fn equal_keys_split_across_run_and_calendar_pop_in_seq_order() {
    let mut q: EventQueue<u64, &'static str> = EventQueue::new();
    q.schedule(5, "run, first"); // empty run takes it
    q.schedule(9, "run, tail"); // in order behind 5
    q.schedule(5, "calendar"); // behind the tail: the calendar
    q.schedule(9, "run, tie with the tail"); // equal to the tail: still in order
    q.schedule(9, "run, again");
    q.schedule(7, "calendar, between");
    assert_eq!(q.len(), 6);
    let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        popped,
        vec![
            (5, 0, "run, first"),
            (5, 2, "calendar"),
            (7, 5, "calendar, between"),
            (9, 1, "run, tail"),
            (9, 3, "run, tie with the tail"),
            (9, 4, "run, again"),
        ]
    );
}

/// Fills both stores: an in-order stretch, then as many events behind its
/// tail.
fn fill_both(pair: &mut Pair, rng: &mut ChaCha8Rng) {
    for i in 0..40u64 {
        pair.push(100 + i / 2, rng.gen_range(0..1000u32));
    }
    for _ in 0..40 {
        pair.push(rng.gen_range(0..119u64), rng.gen_range(0..1000u32));
    }
}

/// `clear` drops what the run holds as well as what the calendar holds, keeps
/// counting `seq`, and leaves a queue that orders new events correctly.
#[test]
fn clear_empties_both_stores_and_keeps_counting_seq() {
    for seed in 0..20u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("clear seed {seed}"));
        fill_both(&mut pair, &mut rng);
        for _ in 0..10 {
            pair.pop();
        }
        pair.q.clear();
        pair.r.clear();
        pair.check();
        assert_eq!(pair.q.pop(), None, "cleared queue still pops");
        assert_eq!(pair.q.next_seq(), 80, "clear is not a recycle");
        fill_both(&mut pair, &mut rng);
        assert_eq!(pair.drain(), 80);
    }
}

/// A queue rebuilt on the storage of one torn down with events in both
/// stores starts empty with `seq` back at 0 and matches the reference from
/// there. (That the capacity survives the round trip is pinned in-crate,
/// by `queue::tests::storage_recycling_resets_seq_and_keeps_capacity`.)
#[test]
fn recycled_storage_starts_empty_and_restarts_seq() {
    for seed in 0..20u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("storage seed {seed}"));
        fill_both(&mut pair, &mut rng);
        for _ in 0..10 {
            pair.pop();
        }
        let old = std::mem::replace(&mut pair.q, EventQueue::new());
        assert_eq!(old.len(), 70);
        pair.q = EventQueue::from_storage(old.into_storage());
        pair.r.clear();
        pair.check();
        assert_eq!(pair.q.pop(), None, "recycled queue still pops");
        assert_eq!(pair.q.next_seq(), 0, "a recycled queue restarts seq");
        fill_both(&mut pair, &mut rng);
        assert_eq!(pair.drain(), 80);
    }
}

/// Calendar sizes on both sides of the smallest ring (16 buckets) and of
/// each doubling after it: a far-future sentinel holds the run's tail, so
/// every other event goes to the calendar; keys are drawn from a narrow
/// range, so most compares are ties that `seq` must settle. The calendar
/// is filled to the size, held there (pop one, push one) and drained.
#[test]
fn calendar_sizes_across_ring_boundaries_pop_in_order() {
    for size in [1usize, 15, 16, 17, 31, 32, 33, 64, 65] {
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (size as u64) << 16);
            let mut pair = Pair::new(format!("calendar size {size} seed {seed}"));
            pair.push(u64::MAX, 0);
            for _ in 0..size {
                pair.push(rng.gen_range(0..(size as u64 / 2 + 2)), rng.gen());
            }
            assert_eq!(pair.q.len(), size + 1);
            for _ in 0..4 * size {
                let (key, _, item) = pair.pop().expect("the calendar stays loaded");
                pair.push(key + rng.gen_range(0..4u64), item);
            }
            assert_eq!(pair.drain(), size + 1);
        }
    }
}

/// Many events on a handful of keys, all inside one bucket: the calendar
/// is first built over a spread a thousand times wider, so its buckets are
/// wide, and the committed bucket then holds runs of equal keys that only
/// `seq` orders — some scheduled before the commit, some into it.
#[test]
fn equal_keys_inside_one_bucket_pop_in_seq_order() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("one bucket seed {seed}"));
        pair.push(u64::MAX, 0);
        for i in 0..64u64 {
            pair.push(i * 1_000, rng.gen());
        }
        for _ in 0..400 {
            if rng.gen_bool(0.6) {
                pair.push(64_000 + rng.gen_range(0..4u64), rng.gen());
            } else {
                pair.pop();
            }
        }
        pair.drain();
    }
}

/// Schedules into the bucket being popped from: after each pop commits a
/// bucket, keys land below the popped key, on it and between it and the
/// bucket's end, each taking its sorted place among what is left.
#[test]
fn schedules_into_the_committed_bucket_take_their_sorted_place() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("committed bucket seed {seed}"));
        pair.push(u64::MAX, 0);
        for _ in 0..200 {
            pair.push(rng.gen_range(0..10_000u64), rng.gen());
        }
        for _ in 0..600 {
            let Some((key, _, item)) = pair.pop() else {
                break;
            };
            for _ in 0..rng.gen_range(0..3) {
                let near = match rng.gen_range(0..3) {
                    0 => key.saturating_sub(rng.gen_range(0..50u64)),
                    1 => key,
                    _ => key + rng.gen_range(0..200u64),
                };
                pair.push(near, item);
            }
        }
        pair.drain();
    }
}

/// Keys far past the ring (a million times its span, and up to
/// `u64::MAX − 1`), keys a whole number of turns of the ring away from
/// live ones (so they share its slots) and a ring that empties while the
/// far store does not, with pops in between: the far store's minimum must
/// stay exact, since `peek_key` reports it and the cursor jumps to it.
#[test]
fn keys_past_the_ring_and_its_wrap_pop_in_order() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("past the ring seed {seed}"));
        pair.push(u64::MAX, 0);
        // A dense front: a narrow width and a short ring.
        for i in 0..256u64 {
            pair.push(i, rng.gen());
        }
        pair.pop();
        for round in 0..300u64 {
            let key = match rng.gen_range(0..6) {
                0 => u64::MAX - 1 - rng.gen_range(0..3u64),
                1 => rng.gen_range(1_000_000..1_000_000_000u64),
                // A power-of-two number of turns past a live key.
                2 => round + (1u64 << rng.gen_range(4..40)),
                _ => round + rng.gen_range(0..300u64),
            };
            pair.push(key, rng.gen());
            if rng.gen_bool(0.7) {
                pair.pop();
            }
        }
        pair.drain();
    }
}

/// A hold model whose delays jump 10⁴-fold wider mid-run and then back:
/// the width the calendar built for the first spread is wrong for the
/// second, and the queue must rebuild it without losing order.
#[test]
fn a_spread_change_of_ten_thousand_fold_rebuilds_the_width() {
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("spread change seed {seed}"));
        for item in 0..2_000u32 {
            pair.push(rng.gen_range(1..100u64), item);
        }
        for spread in [100u64, 1_000_000, 100] {
            for _ in 0..6_000 {
                let (now, _, item) = pair.pop().expect("the queue stays loaded");
                pair.push(now + rng.gen_range(1..spread), item);
            }
        }
        assert_eq!(pair.drain(), 2_000);
    }
}

/// One `Storage` carried through trials of very different spreads —
/// nanosecond keys a second wide, small integers, then the wide ones again
/// — each held to a fresh reference: a recycled calendar must derive its
/// width from the new trial's events, not the last one's.
#[test]
fn recycled_storage_between_spreads_matches_the_reference() {
    let mut storage = am_net::queue::Storage::new();
    for (trial, spread) in [1_000_000_000u64, 10, 1_000_000_000, 3]
        .into_iter()
        .enumerate()
    {
        let mut rng = ChaCha8Rng::seed_from_u64(trial as u64);
        let mut pair = Pair::new(format!("recycled trial {trial}, spread {spread}"));
        pair.q = EventQueue::from_storage(storage);
        for item in 0..500u32 {
            pair.push(rng.gen_range(0..spread), item);
        }
        for _ in 0..3_000 {
            let (now, _, item) = pair.pop().expect("the queue stays loaded");
            pair.push(now + rng.gen_range(1..spread.max(2)), item);
        }
        pair.drain();
        storage = std::mem::take(&mut pair.q).into_storage();
    }
}

/// `pop_due` pops exactly what the reference holds at or before its
/// limit, in order, and leaves the rest — with limits that fall before
/// the front, inside a bucket and past everything.
#[test]
fn pop_due_stops_at_its_limit() {
    for seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = Pair::new(format!("pop_due seed {seed}"));
        let mut now = 0u64;
        for _ in 0..200 {
            for _ in 0..rng.gen_range(0..6) {
                pair.push(now + rng.gen_range(0..5_000u64), rng.gen());
            }
            let limit = now + rng.gen_range(0..2_000u64);
            while pair.pop_due(limit).is_some() {}
            now = limit;
        }
        pair.drain();
    }
}

/// `gossip_scale`'s shape at its depth: ~56 k events in flight, each popped
/// event scheduling its successor 2–20 ms later (uniform), so nearly every
/// event lands behind the run's tail — in the calendar — and a record-late
/// one now and then rides the run.
#[test]
fn spread_latency_at_gossip_depth_matches_the_reference() {
    const IN_FLIGHT: usize = 56_000;
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let mut pair = Pair::new("spread latency, 56 k in flight".into());
    let latency = |rng: &mut ChaCha8Rng| rng.gen_range(2_000_000..20_000_000u64);
    for item in 0..IN_FLIGHT as u32 {
        pair.push(latency(&mut rng), item);
    }
    for _ in 0..3 * IN_FLIGHT {
        let (now, _, item) = pair.pop().expect("the queue stays loaded");
        pair.push(now + latency(&mut rng), item);
    }
    assert_eq!(pair.drain(), IN_FLIGHT);
}

/// One queue entry of the merge tests: `copies` copies of `parcel`, the
/// `i`-th carrying value `first + i` — the shape `SimNet` gives a run of
/// one broadcast's same-instant copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Copies {
    parcel: u32,
    first: u32,
    copies: u32,
}

/// Folds `next` into `back` when it is the next copy of the same parcel.
fn extend(back: &mut Copies, next: &Copies) -> bool {
    let follows = next.parcel == back.parcel && next.first == back.first + back.copies;
    back.copies += u32::from(follows);
    follows
}

/// The per-copy reference of the merge tests: one `(key, seq, (parcel,
/// value))` per scheduled copy.
type CopyReference = BinaryHeap<Reverse<(u64, u64, (u32, u32))>>;

/// A queue fed through `schedule_or_merge` and the per-copy reference,
/// driven in lockstep: every popped entry is expanded copy by copy (copy
/// `i` at `seq + i`) and each copy is held to one reference pop.
struct MergePair {
    q: EventQueue<u64, Copies>,
    r: CopyReference,
    /// Copies that joined an entry instead of making one.
    merged: usize,
    what: String,
}

impl MergePair {
    fn new(what: String) -> MergePair {
        MergePair {
            q: EventQueue::new(),
            r: CopyReference::new(),
            merged: 0,
            what,
        }
    }

    /// Schedules one copy, merging it into the latest entry if it fits.
    fn merge(&mut self, key: u64, parcel: u32, value: u32) -> u64 {
        let item = Copies {
            parcel,
            first: value,
            copies: 1,
        };
        let (want_seq, entries) = (self.q.next_seq(), self.q.len());
        let seq = self.q.schedule_or_merge(key, item, extend);
        self.merged += usize::from(self.q.len() == entries);
        self.record(key, want_seq, seq, (parcel, value))
    }

    /// Schedules one copy as an entry of its own.
    fn plain(&mut self, key: u64, parcel: u32, value: u32) -> u64 {
        let item = Copies {
            parcel,
            first: value,
            copies: 1,
        };
        let want_seq = self.q.next_seq();
        let seq = self.q.schedule(key, item);
        self.record(key, want_seq, seq, (parcel, value))
    }

    fn record(&mut self, key: u64, want_seq: u64, seq: u64, copy: (u32, u32)) -> u64 {
        assert_eq!(seq, want_seq, "seq must be dense ({})", self.what);
        self.r.push(Reverse((key, seq, copy)));
        self.check();
        seq
    }

    /// Checks a popped entry against the reference, copy by copy, and
    /// returns how many copies it held (0 for none).
    fn expand(&mut self, got: Option<(u64, u64, Copies)>, call: &str) -> u32 {
        let Some((key, seq, run)) = got else {
            return 0;
        };
        assert!(run.copies > 0, "an empty entry ({})", self.what);
        for i in 0..run.copies {
            let want = self.r.pop().map(|Reverse(t)| t);
            let copy = (key, seq + u64::from(i), (run.parcel, run.first + i));
            assert_eq!(
                Some(copy),
                want,
                "{call}: copy {i} of {run:?} diverged ({})",
                self.what
            );
        }
        self.check();
        run.copies
    }

    fn pop(&mut self) -> u32 {
        let got = self.q.pop();
        if got.is_none() {
            assert!(self.r.is_empty(), "pop: queue empty early ({})", self.what);
        }
        self.expand(got, "pop")
    }

    fn pop_due(&mut self, limit: u64) -> u32 {
        let got = self.q.pop_due(limit);
        if got.is_none() {
            let due = self
                .r
                .peek()
                .is_some_and(|Reverse((key, ..))| *key <= limit);
            assert!(!due, "pop_due({limit}) left a due copy ({})", self.what);
        }
        self.expand(got, &format!("pop_due({limit})"))
    }

    /// An entry holds one copy or more, so the queue never holds more
    /// entries than the reference holds copies; the front key is the same.
    fn check(&self) {
        assert!(self.q.len() <= self.r.len(), "len ({})", self.what);
        assert_eq!(self.q.is_empty(), self.r.is_empty(), "{}", self.what);
        let want = self.r.peek().map(|Reverse((key, ..))| *key);
        assert_eq!(self.q.peek_key(), want, "peek_key ({})", self.what);
    }

    fn drain(&mut self) -> u32 {
        let mut copies = 0;
        while !self.q.is_empty() {
            copies += self.pop();
        }
        assert!(self.r.is_empty(), "drain left copies ({})", self.what);
        copies
    }
}

/// Broadcast-shaped bursts — one parcel's copies to consecutive values
/// under one key, some broken by a skipped value, a different parcel or a
/// different key — interleaved with plain schedules at the run's own keys
/// and behind them (the calendar), pops and `pop_due`s, across 100 seeds.
/// Every copy must pop where one entry per copy would have put it.
#[test]
fn merged_runs_interleaved_with_calendar_events_match_the_per_copy_reference() {
    let mut merged_total = 0usize;
    for seed in 0..100u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = MergePair::new(format!("merge fuzz seed {seed}"));
        let (mut now, mut parcel) = (0u64, 0u32);
        for _ in 0..200 {
            match rng.gen_range(0..10) {
                // A burst: the instant the run is at or a later one.
                0..=4 => {
                    parcel += 1;
                    let key = now + rng.gen_range(0..3u64);
                    let mut value = rng.gen_range(0..4u32);
                    for _ in 0..rng.gen_range(1..12) {
                        match rng.gen_range(0..12) {
                            0 => value += 1,
                            1 => parcel += 1,
                            2 => {
                                // A copy at another key breaks the run.
                                let other = key + rng.gen_range(0..2u64);
                                pair.merge(other, parcel, value);
                                value += 1;
                                continue;
                            }
                            _ => {}
                        }
                        pair.merge(key, parcel, value);
                        value += 1;
                    }
                }
                // A plain event at the run's key or behind it.
                5 | 6 => {
                    let key = now + rng.gen_range(0..3u64);
                    let key = key.saturating_sub(rng.gen_range(0..2u64));
                    pair.plain(key, 0, rng.gen_range(0..1000u32));
                }
                7 | 8 => {
                    for _ in 0..rng.gen_range(1..4) {
                        pair.pop();
                    }
                }
                _ => {
                    now += rng.gen_range(0..3u64);
                    while pair.pop_due(now) > 0 {}
                }
            }
        }
        merged_total += pair.merged;
        pair.drain();
    }
    assert!(merged_total > 5_000, "the fuzz merges ({merged_total})");
}

/// A pop that takes the run's back — its only entry — takes the
/// "latest entry" mark with it: the next copy of the same parcel, to the
/// next value at the same key, starts an entry of its own. Pops of the
/// run's front alone leave the back open.
#[test]
fn a_pop_of_the_run_s_back_closes_it_to_merges() {
    let mut pair = MergePair::new("pop the run's back".into());
    pair.merge(5, 1, 0);
    pair.merge(5, 1, 1);
    assert_eq!(pair.q.len(), 1, "the second copy joins the first");
    assert_eq!(pair.pop(), 2);
    pair.merge(5, 1, 2);
    assert_eq!(pair.q.len(), 1, "the popped entry took no copy");
    pair.merge(5, 1, 3);
    assert_eq!(pair.q.len(), 1);
    // A front pop with the back still queued keeps the back open.
    pair.merge(6, 2, 0);
    assert_eq!(pair.q.len(), 2);
    assert_eq!(pair.pop(), 2);
    pair.merge(6, 2, 1);
    assert_eq!(pair.q.len(), 1, "the back stayed open");
    // Between merges: a pop of everything, then the same copies again.
    for round in 0..20u32 {
        pair.merge(7, 3, 2 * round);
        pair.merge(7, 3, 2 * round + 1);
        while pair.pop() > 0 {}
    }
    assert_eq!(pair.drain(), 0);
}

/// A schedule into the calendar takes the mark from the run's back — the
/// seq it took sits between the back's last copy and the next — and a
/// plain schedule onto the run's back is the new latest entry.
#[test]
fn a_calendar_schedule_between_copies_breaks_the_run() {
    let mut pair = MergePair::new("calendar between copies".into());
    pair.merge(10, 1, 0);
    pair.plain(4, 0, 99); // behind the run's tail: the calendar
    pair.merge(10, 1, 1);
    assert_eq!(
        pair.q.len(),
        3,
        "the copy after the calendar event is apart"
    );
    pair.merge(10, 1, 2);
    assert_eq!(pair.q.len(), 3, "…and the run goes on from it");
    pair.plain(10, 2, 0); // on the run's back, as its own entry
    pair.merge(10, 2, 1);
    assert_eq!(pair.q.len(), 4, "a plain entry at the back takes merges");
    assert_eq!(pair.drain(), 6);
}

/// `clear` and a `Storage` round trip between merges leave no open back:
/// the next copy of the same parcel starts a fresh entry and `seq` goes on
/// (or restarts) as the queue says.
#[test]
fn clear_and_recycled_storage_between_merges_start_fresh_entries() {
    for seed in 0..20u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = MergePair::new(format!("clear between merges seed {seed}"));
        let key = rng.gen_range(0..100u64);
        for value in 0..5 {
            pair.merge(key, 7, value);
        }
        pair.plain(key.saturating_sub(1), 0, 0);
        pair.merge(key, 7, 5);
        assert_eq!(pair.q.len(), 3);
        pair.q.clear();
        pair.r.clear();
        pair.check();
        let seq = pair.merge(key, 7, 6);
        assert_eq!(seq, 7, "clear keeps counting seq");
        pair.merge(key, 7, 7);
        assert_eq!(pair.q.len(), 1);
        // Recycle with the back open; the new queue's first copy is alone.
        let old = std::mem::take(&mut pair.q);
        pair.q = EventQueue::from_storage(old.into_storage());
        pair.r.clear();
        assert_eq!(pair.merge(key, 7, 8), 0, "a recycled queue restarts seq");
        pair.merge(key, 7, 9);
        assert_eq!(pair.q.len(), 1);
        assert_eq!(pair.drain(), 2);
    }
}

/// `pop_due` with its limit at a merged entry's key hands out the whole
/// entry, and with its limit just below it hands out nothing — a run's
/// copies share their key, so no limit splits one.
#[test]
fn pop_due_at_the_run_s_key_takes_the_whole_entry() {
    let mut pair = MergePair::new("pop_due at the run's key".into());
    pair.plain(u64::MAX, 0, 0); // a sentinel keeps later keys behind the tail
    for (key, parcel) in [(30u64, 1u32), (20, 2), (20, 3)] {
        for value in 0..4 {
            pair.merge(key, parcel, value);
        }
    }
    for value in 0..3 {
        pair.merge(u64::MAX, 9, value);
    }
    assert_eq!(pair.pop_due(19), 0);
    assert_eq!(pair.pop_due(20), 1, "calendar copies arrive one by one");
    while pair.pop_due(20) > 0 {}
    assert_eq!(pair.pop_due(29), 0);
    while pair.pop_due(30) > 0 {}
    // On the run, with no calendar: one entry at a time.
    let mut pair = MergePair::new("pop_due on the run".into());
    for (key, parcel) in [(5u64, 1u32), (5, 2), (8, 3)] {
        for value in 0..6 {
            pair.merge(key, parcel, value);
        }
    }
    assert_eq!(pair.q.len(), 3);
    assert_eq!(pair.pop_due(4), 0);
    assert_eq!(pair.pop_due(5), 6);
    assert_eq!(pair.pop_due(5), 6);
    assert_eq!(pair.pop_due(7), 0);
    assert_eq!(pair.pop_due(8), 6);
    assert!(pair.q.is_empty());
}
