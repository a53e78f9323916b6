//! What a model-checker state costs the allocator, held to a number.
//!
//! The compact search allocates per BFS level, not per state: a
//! successor is probed as soon as it is made, both frontiers are reused
//! level to level, and the visited set and the log arena's child index are
//! keyed by the (already mixed) fingerprints over a pass-through hasher,
//! so they grow geometrically and nothing else touches the heap. The
//! nonforking DFS keeps one finality oracle per depth, refilled with
//! `clone_from` from the depth above, and every other per-state buffer —
//! parent lists, the finalized chain's cids, the block-set key, the
//! groups' chains — in pools sized by the path or growing geometrically.
//!
//! This test crate installs a counting global allocator (the library
//! keeps `#![forbid(unsafe_code)]`) and counts, on the calling thread, the
//! allocations of two checks the benchmark's `modelcheck` workload runs.
//!
//! Checked to catch, each on its own:
//!
//! * a successor `Vec` per frontier state (1.04 allocations per state
//!   before the level buffer);
//! * a finality oracle cloned per visited state instead of refilled in
//!   its depth's slot, or `view_parents` / the chain / the set key
//!   collected into fresh `Vec`s (33.4 allocations per state before the
//!   per-depth slots);
//! * a `clone_from` on `FinalityOracle` that falls back to `clone`
//!   (29 allocations per state).

use am_sched::{check_nonforking, search, Config, QuorumVoteProtocol, SearchOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Counting allocator (per thread: the test runner's other threads allocate
// concurrently and must not be counted)
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) this thread made.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    // `try_with`: a thread may still allocate while its locals unwind.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

#[test]
fn a_search_state_allocates_almost_nothing() {
    // The workload's balanced n = 6 search: |G| = 36, and 46 % of the
    // successors are fingerprint hits.
    let proto = QuorumVoteProtocol::new(6, 4, 0);
    let init = Config::initial(&[0, 0, 0, 1, 1, 1]);
    let (rep, allocs) = allocations(|| search(&proto, &init, &SearchOptions::reduced(2_000_000)));
    assert!(!rep.truncated);
    assert!(
        rep.states > 10_000,
        "too small to average: {} states",
        rep.states
    );
    let per_state = allocs as f64 / rep.states as f64;
    assert!(
        per_state <= 0.05,
        "{allocs} allocations over {} states = {per_state:.3} per state",
        rep.states
    );
}

#[test]
fn a_nonforking_state_allocates_less_than_once() {
    // One Byzantine author of three, six blocks: the workload's larger
    // nonforking check.
    let (rep, allocs) = allocations(|| check_nonforking(3, &[1], 6, 400_000));
    assert!(!rep.truncated && rep.violation.is_none(), "{rep:?}");
    assert!(
        rep.states > 10_000,
        "too small to average: {} states",
        rep.states
    );
    let per_state = allocs as f64 / rep.states as f64;
    assert!(
        per_state <= 1.0,
        "{allocs} allocations over {} states = {per_state:.3} per state",
        rep.states
    );
}
