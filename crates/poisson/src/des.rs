//! A minimal discrete-event queue (called only by the `benchmark/`
//! harness's `poisson.queue_op_ns` probe; see the crate docs).
//!
//! A thin wrapper over the shared event core
//! ([`am_net::queue::EventQueue`]: an in-order run beside an adaptive
//! calendar queue) keyed by `(Time, seq)`; `seq` breaks time ties in
//! insertion order so runs are deterministic, and event storage is
//! recycled in place instead of reallocated per event.
//! `tests/des_determinism.rs` holds the pop order to a `BinaryHeap`
//! through this wrapper.

use am_core::Time;
use am_net::queue::QueueKey;

/// A [`Time`] as a queue key: the calendar buckets times by the bits of
/// the `f64`, mapped so that unsigned order is [`f64::total_cmp`] order —
/// the order `Time` itself sorts by.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct At(Time);

impl QueueKey for At {
    #[inline]
    fn ordinal(self) -> u64 {
        let bits = self.0.seconds().to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// Fire time.
    pub time: Time,
    #[allow(dead_code)]
    seq: u64,
    /// Payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

/// A deterministic min-time event queue.
pub struct EventQueue<E> {
    core: am_net::queue::EventQueue<At, E>,
    now: Time,
    obs_scheduled: am_obs::Counter,
    obs_popped: am_obs::Counter,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            core: am_net::queue::EventQueue::new(),
            now: Time::ZERO,
            obs_scheduled: am_obs::counter("poisson.des.scheduled"),
            obs_popped: am_obs::counter("poisson.des.popped"),
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `t`. Scheduling in the past is a
    /// logic error and panics.
    pub fn schedule(&mut self, t: Time, event: E) {
        assert!(t >= self.now, "cannot schedule into the past");
        self.obs_scheduled.inc();
        self.core.schedule(At(t), event);
    }

    /// Schedules `event` `dt` after now.
    pub fn schedule_after(&mut self, dt: f64, event: E) {
        let t = self.now.after(dt);
        self.schedule(t, event);
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let (At(time), seq, event) = self.core.pop()?;
        self.obs_popped.inc();
        self.now = time;
        Some(Scheduled { time, seq, event })
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::new(3.0), "c");
        q.schedule(Time::new(1.0), "a");
        q.schedule(Time::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.schedule(Time::new(1.0), 1);
        q.schedule(Time::new(1.0), 2);
        q.schedule(Time::new(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::new(5.0), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::new(5.0));
        q.schedule_after(1.5, ());
        let s = q.pop().unwrap();
        assert_eq!(s.time, Time::new(6.5));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(Time::new(5.0), ());
        q.pop();
        q.schedule(Time::new(1.0), ());
    }

    #[test]
    fn ordinals_follow_time_order() {
        let times = [
            f64::NEG_INFINITY,
            -2.5,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.125,
            1.0,
            3.5e9,
            f64::INFINITY,
        ];
        for pair in times.windows(2) {
            let (a, b) = (At(Time::new(pair[0])), At(Time::new(pair[1])));
            assert!(a < b && a.ordinal() < b.ordinal(), "{pair:?}");
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::new(1.0), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
