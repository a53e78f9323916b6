//! The shared event core's pop order, seen through the
//! `am_poisson::EventQueue` wrapper.
//!
//! `am_net::EventQueue` keeps an in-order run beside an adaptive calendar
//! queue (`crates/net/src/queue.rs`); `crates/net/tests/queue_determinism.rs`
//! pins its pop sequence against a `BinaryHeap` and lists the mutations
//! that suite catches. This file runs the same three schedule shapes
//! through the `Time`-keyed wrapper — which adds a clock, refuses to
//! schedule into the past and buckets times by their `f64` bits — so the
//! one queue type is held to the one total order `(time, schedule order)`
//! from both of its callers. A fourth shape spreads times over thirteen
//! binades (1/8 s to 1 024 s past the clock), where the bit view of a
//! time is far from linear.

use am_core::Time;
use am_poisson::EventQueue;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a run draws its fire times, in ticks of 1/8 s past the clock.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Never before the latest time scheduled: the run alone.
    InOrder,
    /// Anywhere in the next five seconds: the calendar, mostly.
    Random,
    /// In-order bursts with stragglers drawn from the span the run covers.
    Bursts,
    /// From one tick to 8 192 ticks past the clock, the binade drawn
    /// uniformly: most near, a long tail far.
    Binades,
}

#[test]
fn wrapper_pops_in_time_then_schedule_order_in_every_shape() {
    for shape in [Shape::InOrder, Shape::Random, Shape::Bursts, Shape::Binades] {
        for seed in 0..60u64 {
            let what = format!("{shape:?} seed {seed}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut q: EventQueue<u32> = EventQueue::new();
            // (tick, schedule order, item); `item` is the schedule order
            // too, so a popped event names the `seq` the wrapper hides.
            let mut r: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
            let (mut now, mut hi, mut next) = (0u64, 0u64, 0u32);
            let mut pops = 0;
            for _ in 0..300 {
                if rng.gen_bool(0.55) || q.is_empty() {
                    hi = hi.max(now);
                    let tick = match shape {
                        Shape::Random => now + rng.gen_range(0..40u64),
                        Shape::Bursts if rng.gen_bool(0.3) => rng.gen_range(now..=hi),
                        Shape::Binades => {
                            let binade = 1u64 << rng.gen_range(0..13);
                            now + binade + rng.gen_range(0..binade)
                        }
                        _ => {
                            hi += rng.gen_range(0..3u64);
                            hi
                        }
                    };
                    q.schedule(Time::new(tick as f64 / 8.0), next);
                    r.push(Reverse((tick, next, next)));
                    next += 1;
                } else {
                    let got = q.pop().map(|s| (s.time, s.event));
                    let want = r.pop().map(|Reverse((tick, _, item))| {
                        now = tick;
                        (Time::new(tick as f64 / 8.0), item)
                    });
                    assert_eq!(got, want, "pop diverged from BinaryHeap ({what})");
                    assert_eq!(q.now(), Time::new(now as f64 / 8.0), "{what}");
                    pops += 1;
                }
                assert_eq!(q.len(), r.len(), "len ({what})");
            }
            while let Some(s) = q.pop() {
                let Reverse((tick, _, item)) = r.pop().expect("reference ran dry");
                assert_eq!((s.time, s.event), (Time::new(tick as f64 / 8.0), item));
                pops += 1;
            }
            assert!(r.is_empty() && pops > 50, "{what}");
        }
    }
}
