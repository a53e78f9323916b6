//! `NetStats`' per-link counters against the map they stand for.
//!
//! `stats.rs` holds the counters of a small network (n² ≤ 4 096 links, so
//! n ≤ 64) in a table indexed `from · n + to` and those of a larger one in
//! a sparse integer-hashed map. Which of the two is in use follows from
//! `n` alone and must show nowhere in what [`NetStats`] reports: `link()`,
//! `active_links()`, `totals()`, the `{:?}` form `naive_equiv` hashes and
//! `to_json()` (what `e14.netstats.json` is written from). The reference
//! here is a `BTreeMap<(from, to), Counters>` inside a mirror of the
//! struct, driven by the same seeded random calls at n ∈ {1, 12, 64, 65,
//! 300} — both sides of the limit. A trial loop keeps one `NetStats` and
//! `reset`s it, so the suite also holds a recycled one (dirty, across
//! n 64 → 12 → 64 → 300 → 64) to a fresh one, and — under a counting
//! allocator, the library keeps `#![forbid(unsafe_code)]` — that a reset
//! at the same `n` allocates nothing while an idle large network holds no
//! table.
//!
//! Mutation-checked: each of these edits to `stats.rs` fails the test
//! named —
//!
//! * a stale row survives `reset` (`rows.clear()` dropped, or the kind
//!   list / totals / trace left): `a_recycled_netstats_is_a_fresh_one`;
//! * `active_links` counts zeroed rows (`rows.len()`):
//!   `every_report_matches_the_map_reference` at n = 12 and 64;
//! * the row-major index transposed (`to * n + from`) in `get_mut`, in
//!   `get` or in the read-out: `every_report_matches…` (`link()` or the
//!   `{:?}` / JSON order);
//! * the dense limit compared against `n` instead of `n²`:
//!   `an_idle_large_network_holds_no_table` (n = 65 and 300 would
//!   allocate theirs);
//! * `reset` rebuilding the table instead of clearing it:
//!   `a_reset_at_the_same_size_allocates_nothing`.

use am_net::stats::{Counters, DelayHistogram};
use am_net::{DeliveryRecord, NetStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Counting allocator (per thread: the runner's other tests allocate too)
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn requested(size: usize) {
    // `try_with`: a thread may still free memory while its locals unwind.
    let _ = REQUESTED.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        requested(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f` asks the allocator for on this thread.
fn bytes_requested<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

// ---------------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------------

/// The struct under test with its stores spelled as the sorted maps they
/// stand for. Same name, same field order, derived `Debug` — so `{:?}` and
/// `{:#?}` of the two must agree character for character.
mod reference {
    use super::*;

    #[derive(Debug, Default)]
    pub struct NetStats {
        pub n: usize,
        pub links: BTreeMap<(usize, usize), Counters>,
        pub totals: Counters,
        pub kinds: BTreeMap<&'static str, (Counters, DelayHistogram)>,
        pub trace: Vec<DeliveryRecord>,
        pub trace_on: bool,
    }
}

fn counters_json(c: Counters) -> Vec<(String, Value)> {
    vec![
        ("sent".into(), Value::Number(c.sent.into())),
        ("delivered".into(), Value::Number(c.delivered.into())),
        ("dropped".into(), Value::Number(c.dropped.into())),
        ("duplicated".into(), Value::Number(c.duplicated.into())),
    ]
}

impl reference::NetStats {
    fn new(n: usize, trace_on: bool) -> Self {
        reference::NetStats {
            n,
            trace_on,
            ..Default::default()
        }
    }

    /// `to_json` as documented: `n`, `totals`, `kinds`, then the non-empty
    /// links ascending by `(from, to)`. The per-kind block (delay
    /// histograms) is not this suite's subject and is taken from `actual`.
    fn to_json(&self, actual: &Value) -> Value {
        let links = self.links.iter().map(|(&(from, to), &c)| {
            let mut row = vec![
                ("from".into(), Value::Number((from as u64).into())),
                ("to".into(), Value::Number((to as u64).into())),
            ];
            row.extend(counters_json(c));
            Value::Object(row)
        });
        Value::Object(vec![
            ("n".into(), Value::Number((self.n as u64).into())),
            ("totals".into(), Value::Object(counters_json(self.totals))),
            ("kinds".into(), actual.get("kinds").expect("kinds").clone()),
            ("links".into(), Value::Array(links.collect())),
        ])
    }
}

/// Applies `calls` seeded random `on_*` calls to both.
fn drive(s: &mut NetStats, r: &mut reference::NetStats, rng: &mut ChaCha8Rng, calls: usize) {
    const KINDS: [&str; 3] = ["block", "ack", "append"];
    let n = r.n;
    for step in 0..calls {
        // Half the traffic on a few hot links, the rest anywhere.
        let (from, to) = if rng.gen_bool(0.5) {
            (rng.gen_range(0..n.min(3)), rng.gen_range(0..n.min(4)))
        } else {
            (rng.gen_range(0..n), rng.gen_range(0..n))
        };
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let link = r.links.entry((from, to)).or_default();
        let by_kind = r.kinds.entry(kind).or_default();
        match rng.gen_range(0..10u32) {
            0..=4 => {
                s.on_sent(from, to, kind);
                (link.sent, r.totals.sent, by_kind.0.sent) =
                    (link.sent + 1, r.totals.sent + 1, by_kind.0.sent + 1);
            }
            5..=6 => {
                s.on_dropped(from, to, kind);
                (link.dropped, r.totals.dropped, by_kind.0.dropped) = (
                    link.dropped + 1,
                    r.totals.dropped + 1,
                    by_kind.0.dropped + 1,
                );
            }
            7 => {
                s.on_duplicated(from, to, kind);
                link.duplicated += 1;
                r.totals.duplicated += 1;
                by_kind.0.duplicated += 1;
            }
            _ => {
                let delay = rng.gen_range(0..5_000u64);
                let rec = DeliveryRecord {
                    at_ns: step as u64 * 10,
                    from,
                    to,
                    kind,
                    seq: step as u64,
                };
                s.on_delivered(rec, delay);
                link.delivered += 1;
                r.totals.delivered += 1;
                by_kind.0.delivered += 1;
                by_kind.1.record(delay);
                if r.trace_on {
                    r.trace.push(rec);
                }
            }
        }
    }
}

/// Everything `NetStats` reports about its links, held to the reference.
fn assert_same(s: &NetStats, r: &reference::NetStats, what: &str) {
    assert_eq!(s.totals(), r.totals, "totals ({what})");
    assert_eq!(s.active_links(), r.links.len(), "active_links ({what})");
    for (&(from, to), &c) in &r.links {
        assert_eq!(s.link(from, to), c, "link({from}, {to}) ({what})");
    }
    // Links never touched read as zero — the transposed one included.
    for from in 0..r.n.min(70) {
        for to in 0..r.n.min(70) {
            let want = r.links.get(&(from, to)).copied().unwrap_or_default();
            assert_eq!(s.link(from, to), want, "link({from}, {to}) ({what})");
        }
    }
    assert_eq!(s.link(r.n, 0), Counters::default(), "out of range ({what})");
    assert_eq!(s.link(0, r.n), Counters::default(), "out of range ({what})");
    assert_eq!(format!("{s:?}"), format!("{r:?}"), "{{:?}} ({what})");
    assert_eq!(format!("{s:#?}"), format!("{r:#?}"), "{{:#?}} ({what})");
    let json = s.to_json();
    assert_eq!(json, r.to_json(&json), "to_json ({what})");
}

const SIZES: [usize; 5] = [1, 12, 64, 65, 300];

#[test]
fn every_report_matches_the_map_reference() {
    for n in SIZES {
        for seed in 0..8u64 {
            let what = format!("n {n} seed {seed}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 8);
            let trace = seed % 2 == 0;
            let mut s = NetStats::with_options(n, trace);
            let mut r = reference::NetStats::new(n, trace);
            assert_same(&s, &r, &what);
            for _ in 0..4 {
                drive(&mut s, &mut r, &mut rng, 400);
                assert_same(&s, &r, &what);
            }
            assert!(r.n == 1 || r.links.len() > 12, "too few links ({what})");
        }
    }
}

#[test]
fn a_recycled_netstats_is_a_fresh_one() {
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let mut recycled = NetStats::with_options(64, true);
    let mut scrap = reference::NetStats::new(64, true);
    drive(&mut recycled, &mut scrap, &mut rng, 3_000);
    for (round, n) in [12usize, 64, 300, 64, 1, 65, 12].into_iter().enumerate() {
        let what = format!("round {round}: reset to n {n}");
        let trace = round % 2 == 1;
        recycled.reset(n, trace);
        let mut r = reference::NetStats::new(n, trace);
        assert_same(&recycled, &r, &what);
        assert_eq!(recycled.trace_enabled(), trace);
        // Dirty it again, in step with a fresh one.
        let mut fresh = NetStats::with_options(n, trace);
        let mut twin = rng.clone();
        drive(&mut recycled, &mut r, &mut rng, 1_500);
        drive(
            &mut fresh,
            &mut reference::NetStats::new(n, trace),
            &mut twin,
            1_500,
        );
        assert_same(&recycled, &r, &what);
        assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"), "{what}");
        assert_eq!(recycled.to_json(), fresh.to_json(), "{what}");
        assert_eq!(recycled.trace(), fresh.trace(), "{what}");
    }
}

#[test]
fn an_idle_large_network_holds_no_table() {
    // Past the limit the store is O(active links): building the stats of
    // an idle network asks for (next to) nothing, whatever n² would be.
    for n in [65usize, 300, 5_000] {
        let (_, bytes) = bytes_requested(|| NetStats::with_options(n, false));
        assert!(bytes < 1_024, "n {n}: an idle NetStats asked for {bytes} B");
    }
    // At or under it, the whole table is there from the start, and is all
    // that is: 32 B of counters per link.
    for n in [12usize, 64] {
        let (_, bytes) = bytes_requested(|| NetStats::with_options(n, false));
        assert_eq!(bytes, (n * n * 32) as u64, "n {n}");
    }
}

#[test]
fn a_reset_at_the_same_size_allocates_nothing() {
    for n in [12usize, 64, 300] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let mut s = NetStats::with_options(n, true);
        let mut r = reference::NetStats::new(n, true);
        drive(&mut s, &mut r, &mut rng, 2_000);
        let mut twin = rng.clone();
        let ((), bytes) = bytes_requested(|| {
            s.reset(n, true);
            // Traffic on links and kinds the first pass already met.
            drive_only(&mut s, n, &mut twin, 500);
        });
        assert_eq!(bytes, 0, "n {n}: reset + replay asked for {bytes} B");
    }
}

/// [`drive`]'s sent / dropped arms without the (allocating) reference.
fn drive_only(s: &mut NetStats, n: usize, rng: &mut ChaCha8Rng, calls: usize) {
    for _ in 0..calls {
        let (from, to) = (rng.gen_range(0..n.min(3)), rng.gen_range(0..n.min(4)));
        if rng.gen_bool(0.7) {
            s.on_sent(from, to, "block");
        } else {
            s.on_dropped(from, to, "ack");
        }
    }
}
