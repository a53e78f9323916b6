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
