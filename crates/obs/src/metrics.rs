//! Named counters and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are `Arc`s into the registry:
//! fetch once, then increment on the hot path. Every mutation is gated on
//! [`crate::enabled`], so a disabled registry costs one relaxed atomic
//! load per call. The fetch itself ([`counter`], [`histogram`]) locks the
//! registry and allocates the name even when disabled — a type built once
//! per simulated trial resolves its handles once per process with
//! [`static_counter!`](crate::static_counter) /
//! [`static_histogram!`](crate::static_histogram) instead.

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

/// [`static_counter!`](crate::static_counter) for a [`Histogram`].
#[macro_export]
macro_rules! static_histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::histogram($name))
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

/// The shared histogram storage: 64 log₂ buckets (bucket `i` counts
/// values `v` with `2^(i-1) ≤ v < 2^i`; bucket 0 counts zeroes) plus
/// running count/total for exact means.
pub struct HistInner {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    total: AtomicU64,
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    pub(crate) fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
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

/// A log₂-bucket histogram handle: named and registry-backed from
/// [`histogram`], or a caller-owned value from [`Histogram::detached`].
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
    /// Detached histograms are the owner's own data, not telemetry: they
    /// record regardless of [`crate::enabled`] and [`crate::reset`] never
    /// sees them.
    detached: bool,
}

impl Histogram {
    /// A histogram outside the global registry that always records —
    /// for a measurement whose *result* is the histogram (a load run's
    /// latency table), so concurrent runs cannot clear or gate each
    /// other's samples. Clones share the same cells.
    pub fn detached() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner::new()),
            detached: true,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.detached || crate::enabled() {
            self.inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.inner.count.fetch_add(1, Ordering::Relaxed);
            self.inner.total.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot of the aggregates.
    pub fn stats(&self) -> HistogramStats {
        let buckets: [u64; 64] =
            std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed));
        let count = self.inner.count.load(Ordering::Relaxed);
        let total = self.inner.total.load(Ordering::Relaxed);
        HistogramStats {
            count,
            total,
            mean: if count == 0 {
                0.0
            } else {
                total as f64 / count as f64
            },
            p50: bucket_quantile(&buckets, count, 0.50),
            p99: bucket_quantile(&buckets, count, 0.99),
            p999: bucket_quantile(&buckets, count, 0.999),
        }
    }
}

/// Aggregate view of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramStats {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub total: u64,
    /// Exact mean.
    pub mean: f64,
    /// Approximate median (log₂ bucket upper bound).
    pub p50: u64,
    /// Approximate 99th percentile (log₂ bucket upper bound).
    pub p99: u64,
    /// Approximate 99.9th percentile (log₂ bucket upper bound).
    pub p999: u64,
}

/// Fetches (creating on first use) the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().hists.lock().unwrap_or_else(|e| e.into_inner());
    Histogram {
        inner: Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistInner::new())),
        ),
        detached: false,
    }
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
        let handles = || {
            (
                crate::static_counter!("m.static"),
                crate::static_histogram!("m.static_hist"),
            )
        };
        let (c, h) = handles();
        c.inc();
        h.record(7);
        assert_eq!((c.get(), h.stats().count), (0, 0), "disabled: inert");
        crate::set_enabled(true);
        let (c2, h2) = handles(); // the same call site: the cached pair
        c2.add(2);
        h2.record(7);
        assert_eq!((c.get(), h.stats().count), (2, 1));
        assert!(counter_values().contains(&("m.static".to_string(), 2)));
        crate::reset();
        assert_eq!((c.get(), h.stats().count), (0, 0), "reset zeroes in place");
        c.inc();
        assert_eq!(counter("m.static").get(), 1, "and the handle stays live");
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let _l = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        let h = histogram("m.hist");
        for v in [0u64, 1, 2, 3, 1000, 1000, 1000, 1000, 1000, 1000] {
            h.record(v);
        }
        let s = h.stats();
        assert_eq!(s.count, 10);
        assert_eq!(s.total, 6 + 6000);
        // 6 of 10 samples are 1000 → p50 lands in the [512, 1024) bucket.
        assert_eq!(s.p50, 1023);
        assert_eq!(s.p99, 1023);
        assert_eq!(s.p999, 1023);
        crate::set_enabled(false);
    }

    #[test]
    fn p999_separates_the_extreme_tail() {
        let _l = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        let h = histogram("m.tail");
        // 998 fast samples and two 100x outliers: p99 stays in the fast
        // bucket, p999 must surface the outlier's bucket.
        for _ in 0..998 {
            h.record(100);
        }
        h.record(10_000);
        h.record(10_000);
        let s = h.stats();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p99, 127, "p99 stays in the bulk bucket");
        assert_eq!(s.p999, 16_383, "p999 reaches the outlier bucket");
        crate::set_enabled(false);
    }

    #[test]
    fn detached_histogram_ignores_global_state() {
        // No test lock and no `set_enabled`: whatever the other tests
        // are doing to the registry, a detached histogram records.
        let h = Histogram::detached();
        let shared = h.clone();
        h.record(100);
        shared.record(100);
        let s = h.stats();
        assert_eq!((s.count, s.total), (2, 200));
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
