//! Determinism properties of the shared event core.
//!
//! [`am_net::EventQueue`] keeps its events in two places — an in-order run
//! (a ring buffer that takes an event whose key is not below the run's
//! tail) and an implicit 4-ary min-heap (everything else) — and neither has
//! a canonical shape: which event sits where depends on the exact push/pop
//! interleaving. What *is* canonical is the pop sequence: `(key, seq)` is a
//! strict total order, so any correct implementation must pop in exactly
//! the same order as the `BinaryHeap` the queue replaced. These tests pin
//! that contract over three schedule shapes per seed ([`Shape`]): keys that
//! never decrease (the run alone), random keys (the heap, mostly) and
//! in-order bursts between stragglers with pops in between (both fronts
//! live, equal keys on both sides); over heap sizes on both sides of each
//! 4-ary level boundary (1, 4, 5, 20, 21, 84, 85 slots); and over one
//! spread-latency run at `gossip_scale`'s depth (~56 k in flight). `len`,
//! `peek_key` and `next_seq` are held to the reference at every step,
//! `clear` and the `Storage` round trip are exercised with events in both
//! stores, and `crates/poisson/tests/des_determinism.rs` runs the same
//! shapes through the `am_poisson::EventQueue` wrapper.
//!
//! Mutation-checked: each of these edits to `queue.rs` fails the test
//! named —
//!
//! * `pop` sifts down to the first child instead of the least:
//!   `heap_sizes_across_level_boundaries…` (from 3 slots on), the random
//!   and burst shapes and the spread run;
//! * key ties broken by heap position instead of `seq` (`before` compares
//!   `key` alone): `heap_sizes_across_level_boundaries…` and the random
//!   shape of `fuzz_matches_…`;
//! * `pop` settles the two fronts on `key` alone and takes the heap's on a
//!   tie (on a tie the run's event is always the older — the heap only
//!   ever receives what was scheduled behind the run's tail):
//!   `equal_keys_split_across_run_and_heap…` and the burst shape;
//! * the run accepts a key *below* its tail (`key >= tail` → `true`): the
//!   random and burst shapes of `fuzz_matches_…`;
//! * `pop` always prefers a non-empty run: the random and burst shapes;
//! * `peek_key` ignores the run (or the heap): the per-step `peek_key`
//!   check of every shape;
//! * `clear` leaves the run: `clear_empties_both_stores…`;
//! * `len` counts only the heap: the per-step `len` check (first step of
//!   the in-order shape);
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
    /// the run; the heap stays empty.
    InOrder,
    /// Keys uniform over a small range, so ties are common and nearly
    /// every event is behind the run's tail: the heap, mostly.
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
/// the older event, the heap the younger, and `seq` — not which store an
/// event happens to sit in — decides.
#[test]
fn equal_keys_split_across_run_and_heap_pop_in_seq_order() {
    let mut q: EventQueue<u64, &'static str> = EventQueue::new();
    q.schedule(5, "run, first"); // empty run takes it
    q.schedule(9, "run, tail"); // in order behind 5
    q.schedule(5, "heap"); // behind the tail: melds into the heap
    q.schedule(9, "run, tie with the tail"); // equal to the tail: still in order
    q.schedule(9, "run, again");
    q.schedule(7, "heap, between");
    assert_eq!(q.len(), 6);
    let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        popped,
        vec![
            (5, 0, "run, first"),
            (5, 2, "heap"),
            (7, 5, "heap, between"),
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

/// `clear` drops what the run holds as well as what the heap holds, keeps
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

/// Heap sizes on both sides of each 4-ary level boundary: 1, 5, 21 and 85
/// slots fill one to four levels exactly, 4, 20 and 84 leave the last
/// family one short. A far-future sentinel holds the run's tail, so every
/// other event goes to the heap; keys are drawn from a narrow range, so
/// most compares are ties that `seq` must settle. The heap is filled to
/// the size, held there (pop one, push one) and drained.
#[test]
fn heap_sizes_across_level_boundaries_pop_in_order() {
    for size in [1usize, 4, 5, 20, 21, 84, 85] {
        for seed in 0..20u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (size as u64) << 16);
            let mut pair = Pair::new(format!("heap size {size} seed {seed}"));
            pair.push(u64::MAX, 0);
            for _ in 0..size {
                pair.push(rng.gen_range(0..(size as u64 / 2 + 2)), rng.gen());
            }
            assert_eq!(pair.q.len(), size + 1);
            for _ in 0..4 * size {
                let (key, _, item) = pair.pop().expect("the heap stays loaded");
                pair.push(key + rng.gen_range(0..4u64), item);
            }
            assert_eq!(pair.drain(), size + 1);
        }
    }
}

/// `gossip_scale`'s shape at its depth: ~56 k events in flight, each popped
/// event scheduling its successor 2–20 ms later (uniform), so nearly every
/// event lands behind the run's tail — the heap nine levels deep — and a
/// record-late one now and then rides the run.
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
