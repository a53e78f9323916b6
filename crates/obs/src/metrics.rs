//! Named counters, and the log₂ bucket math the span aggregates use.
//!
//! A [`Counter`] handle is an `Arc` into the registry: fetch once, then
//! increment on the hot path. Every mutation is gated on
//! [`crate::enabled`], so a disabled registry costs one relaxed atomic
//! load per call. The fetch itself ([`counter`]) locks the registry and
//! allocates the name even when disabled — a type built once per
//! simulated trial resolves its handles once per process with
//! [`static_counter!`](crate::static_counter) instead.

use crate::registry::registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named monotonic counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fetches (creating on first use) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut map = registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    Counter(Arc::clone(map.entry(name.to_string()).or_default()))
}

/// The counter named by a string literal, resolved on first use and cached
/// in a `static` at the call site: `&'static Counter`. [`crate::reset`]
/// zeroes the shared cell in place, so the cached handle stays valid, and
/// a handle resolved while disabled counts once [`crate::set_enabled`]
/// turns recording on.
#[macro_export]
macro_rules! static_counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// A snapshot of every counter, name-sorted.
pub fn counter_values() -> Vec<(String, u64)> {
    registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect()
}

/// Index of the log₂ bucket covering `v`.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(63)
    }
}

/// Upper bound of bucket `i` — the value reported for quantiles.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Approximate quantile over log₂ buckets: the upper bound of the first
/// bucket whose cumulative count reaches `q * count`.
pub(crate) fn bucket_quantile(buckets: &[u64; 64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= target {
            return bucket_upper(i);
        }
    }
    bucket_upper(63)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let _l = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        let a = counter("m.test");
        let b = counter("m.test");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert!(counter_values().contains(&("m.test".to_string(), 5)));
        crate::set_enabled(false);
    }

    #[test]
    fn static_handles_resolved_while_disabled_count_once_enabled() {
        let _l = test_lock::hold();
        crate::set_enabled(false);
        let handle = || crate::static_counter!("m.static");
        let c = handle();
        c.inc();
        assert_eq!(c.get(), 0, "disabled: inert");
        crate::set_enabled(true);
        let c2 = handle(); // the same call site: the cached handle
        c2.add(2);
        assert_eq!(c.get(), 2);
        assert!(counter_values().contains(&("m.static".to_string(), 2)));
        crate::reset();
        assert_eq!(c.get(), 0, "reset zeroes in place");
        c.inc();
        assert_eq!(counter("m.static").get(), 1, "and the handle stays live");
        crate::set_enabled(false);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        let mut buckets = [0u64; 64];
        buckets[2] = 10;
        assert_eq!(bucket_quantile(&buckets, 10, 0.5), 3);
        assert_eq!(bucket_quantile(&buckets, 0, 0.5), 0);
    }
}
