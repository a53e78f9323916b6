//! What a served request costs the allocator, held to a number.
//!
//! Archive queries read the append-only log in place: `Tip`, `Linearize`
//! and `FinalizedHeight` are O(1) reads of the archive, and `SnapshotAt` /
//! `SnapshotAtFinal` read the ≤ 8 messages below their height with
//! `Archive::tail_at`, so the response's own `tail` is their one heap
//! block. An append drains the mempool one entry at a time
//! (`Mempool::pop`), so nothing per append is collected; what is left is
//! the archive logs' leaf turnover (each of the n = 4 logs fills a
//! 64-message leaf every 64 appends) and the protocol's own buffers.
//!
//! This test crate installs a counting global allocator (the library
//! keeps `#![forbid(unsafe_code)]`) and counts, on the calling thread,
//! the blocks and bytes one `Cluster::handle` call asks for. No
//! `NodeRuntime` thread: the cluster is driven inline.
//!
//! Checked to catch, each on its own (the figures are what the previous
//! construction made on this cluster):
//!
//! * a snapshot answer built from a prefix view (`Archive::snapshot_at`,
//!   which copies the partial leaf and its spine): 3–5 blocks and up to
//!   2 816 B for a height inside a leaf (heights 1, 7–9, 63, 65, 128,
//!   200), against one block of ≤ 8 × `size_of::<ApiMsg>()` = 256 B. At
//!   the tip and on a leaf boundary it made one block, so the heights
//!   checked are mostly inside a leaf;
//! * a drained batch collected per append (`take_batch(usize::MAX)` in
//!   `execute_pending`): 1.34 blocks per append, against ≤ 0.5 (0.34 now:
//!   one block of the 1.0 was the batch `Vec`);
//! * any allocation in a `Tip`, `Linearize` or `FinalizedHeight` answer
//!   (none made one before either: the bound keeps it that way).

use am_node::api::{
    ApiMsg, AppendReq, FinalizedHeightReq, LinearizeReq, ReadReq, Request, Response,
    SnapshotAtFinalReq, SnapshotAtReq, TipReq,
};
use am_node::{Cluster, ClusterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Counting allocator (per thread: the test runner's other threads allocate
// concurrently and must not be counted)
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    /// Blocks (`alloc`, `alloc_zeroed`, `realloc`) this thread asked for.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn counted(size: usize) {
    // `try_with`: a thread may still allocate while its locals unwind.
    let _ = BLOCKS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches two
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the blocks and bytes it asked the
/// allocator for on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (blocks, bytes) = (BLOCKS.get(), BYTES.get());
    let out = f();
    (out, BLOCKS.get() - blocks, BYTES.get() - bytes)
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

const N: usize = 4;

fn append(c: &mut Cluster, i: u64) {
    let resp = c.handle(&Request::Append(AppendReq {
        author: i % 7,
        value: (i % 3) as i8 - 1,
    }));
    assert!(matches!(resp, Response::Appended(_)), "{resp:?}");
}

/// An n = 4 cluster a few leaves deep, every archive current and final,
/// with every buffer the serving path reuses already grown.
fn warmed() -> Cluster {
    let mut c = Cluster::new(ClusterConfig::ideal(N, 17));
    for i in 0..300 {
        append(&mut c, i);
        if i.is_multiple_of(4) {
            c.handle(&Request::Read(ReadReq {
                node: i / 4 % N as u64,
            }));
        }
    }
    c.converge();
    c
}

#[test]
fn archive_point_queries_allocate_nothing() {
    let mut c = warmed();
    for node in 0..N as u64 {
        for req in [
            Request::Tip(TipReq { node }),
            Request::Linearize(LinearizeReq { node }),
            Request::FinalizedHeight(FinalizedHeightReq { node }),
        ] {
            let (resp, blocks, bytes) = allocations(|| c.handle(&req));
            assert!(!resp.is_err(), "{resp:?}");
            assert_eq!(blocks, 0, "{req:?} allocated {blocks} blocks, {bytes} B");
        }
    }
}

#[test]
fn a_snapshot_answer_allocates_only_its_tail() {
    let mut c = warmed();
    let cap = 8 * std::mem::size_of::<ApiMsg>() as u64;
    for node in 0..N as u64 {
        let height = c.archive(node as usize).height() as u64;
        assert!(height >= 300, "node {node} at {height}");
        let mut reqs: Vec<Request> = [1, 7, 8, 9, 63, 64, 65, 128, 200, height, height + 5]
            .into_iter()
            .map(|height| Request::SnapshotAt(SnapshotAtReq { node, height }))
            .collect();
        reqs.push(Request::SnapshotAtFinal(SnapshotAtFinalReq { node }));
        for req in &reqs {
            let (resp, blocks, bytes) = allocations(|| c.handle(req));
            let Response::Snapshot(s) = &resp else {
                panic!("{req:?}: {resp:?}");
            };
            assert!(!s.tail.is_empty());
            assert_eq!(blocks, 1, "{req:?} allocated {blocks} blocks, {bytes} B");
            assert!(bytes <= cap, "{req:?} allocated {bytes} B > {cap} B");
        }
    }
}

#[test]
fn an_append_allocates_less_than_once() {
    let mut c = warmed();
    const APPENDS: u64 = 640;
    let ((), blocks, bytes) = allocations(|| {
        for i in 0..APPENDS {
            append(&mut c, 300 + i);
        }
    });
    let per_append = blocks as f64 / APPENDS as f64;
    assert!(
        per_append <= 0.5,
        "{blocks} blocks ({bytes} B) over {APPENDS} appends = {per_append:.3} per append"
    );
}
