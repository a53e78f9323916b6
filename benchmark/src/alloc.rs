//! Counting global allocator: exact live/peak heap bytes and allocation
//! counts for the harness binary.
//!
//! The library crates all `#![forbid(unsafe_code)]`; this wrapper over
//! [`System`] is the only `unsafe` in the repository and exists so that the
//! `alloc.*` metrics are exact numbers that repeat to the byte between
//! repetitions instead of an RSS sample.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and keeps four statistics. The counters publish
/// no other data, so `Relaxed` is enough; they are atomics only because
/// `NodeRuntime`'s thread allocates concurrently during the hop probe.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Set while the harness's own calibration kernel runs: its allocations
/// are not the system's and are left out of every statistic.
static PAUSED: AtomicBool = AtomicBool::new(false);

fn shrank(size: usize) {
    if !PAUSED.load(Relaxed) {
        LIVE.fetch_sub(size, Relaxed);
    }
}

fn grew(size: usize) {
    if PAUSED.load(Relaxed) {
        return;
    }
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation, passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// A reading of the four statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Allocations (including reallocations) since process start.
    pub count: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `f` with the statistics frozen. `f` must free what it allocates
/// and must not run while another thread allocates (the harness only calls
/// it from its single measuring thread, between slices of work).
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    PAUSED.store(true, Relaxed);
    let out = f();
    PAUSED.store(false, Relaxed);
    out
}
