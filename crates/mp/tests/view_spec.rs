//! `MpView` held to a plain `Vec<MpMsg>`, its bounds held to an
//! allocation count, and — at the end, under the same counting allocator
//! — what a node's membership table (`SeenTable`, also `src/view.rs`)
//! must and must not let into a view.
//!
//! [`MpView`] is a persistent radix vector (`src/view.rs`): full leaves
//! under a trie, the newest messages in a tail, everything behind `Arc`s
//! and nothing written while shared. The behaviour pins (`naive_equiv`,
//! `transport_equiv`, `proptest_mp`, the FNV pin in `reliable_pins`) all
//! run histories shorter than one leaf, so the trie is exercised here: every
//! view in play is paired with the `Vec` it must equal, under seeded
//! random interleavings of `push` / `clone` / `prefix` / `iter_from` /
//! `last` / `to_vec` / `==` / drop, at lengths that cross the first and
//! the second growth of the root (three trie levels), and at every leaf
//! edge. The leaf and branching widths are private; the sweeps below
//! visit every multiple of 32 (± 1), which covers every edge of any
//! power-of-two leaf width from 32 up.
//!
//! The bounds the structure exists for are checked as numbers that
//! repeat, not as timings: this test crate installs a counting global
//! allocator (the library keeps `#![forbid(unsafe_code)]`) and asserts,
//! at H = 10³, 10⁵ and 10⁶, that `clone` allocates nothing, that
//! `prefix(H/2)` and 1 000 pushes after a snapshot allocate no more than
//! a constant, and that a 10⁶-message view and its snapshot drop on a
//! 128 KiB stack.
//!
//! Mutation-checked: each of these edits to `view.rs` fails a test here —
//!
//! * tail offset off by one at a full tail (`prefix` computing its tail
//!   start as `len / LEAF * LEAF`): `every_cut…`, `random_interleavings…`;
//! * root not grown when every slot under it is taken (the `k == WIDTH
//!   << shift` arm of `push_leaf` never taken): all four suites;
//! * the cut kept one child short (`cut_after` keeping `leaves[..at]`):
//!   all four suites;
//! * a whole branch shared although the cut falls inside it (`cut_after`
//!   without its `at + 1 == kids.len()` test): `every_cut…`,
//!   `three_levels…` only;
//! * `prefix` sharing a leaf longer than the cut as its tail: all four;
//! * a view going on from a shared tail without its messages (the copy in
//!   `push_new_tail` skipped): all four suites;
//! * `iter_from` resuming one leaf late (`run_from` indexing leaf
//!   `at / LEAF + 1`): all four suites.
//!
//! Two mutants the issue names cannot be written against this
//! implementation from outside the crate: a node or tail mutated in place
//! while shared is unrepresentable (`Arc::get_mut` / `Arc::make_mut` are
//! the only write paths and the library forbids `unsafe`), and a
//! single-child root left uncollapsed by `prefix` changes no observable —
//! lookups and later pushes work on the taller trie. The canonical height
//! is pinned in-crate, where `shift` is visible, by
//! `view::tests::prefix_shares_full_chunks_and_matches_take`.
//!
//! The membership table is indexed by `(author, seq)`, which is sound
//! only because a receiver checks that `content` is the hash of the
//! `(author, seq, value)` it arrives with: `a_content_signed_for_one_value
//! …` injects the pair a Byzantine author could otherwise split the
//! correct nodes with (it fails at `db294cd`, where half of them keep the
//! other value for good). And it is indexed by numbers off the wire:
//! `wild_and_gapped_seqs…` holds a `seq` of 2⁴⁰ and a 500-seq backlog
//! replayed in random order to a heap bound that does not know them.
//! Both run on the reliable reference network (`reliable/`), whose
//! inboxes the heap bound was written for: over `SimNet` the replay's
//! in-flight acks pass through the event queue as well.

mod reliable;

use am_mp::sig::content_hash;
use am_mp::{Delivery, KeyRing, MpMsg, MpSystem, MpView, Payload, Signature};
use am_net::Transport;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reliable::ReliableNet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Counting allocator (per thread: the test runner's other threads allocate
// concurrently and must not be counted)
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
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes it asked the allocator
/// for on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.get();
    let out = f();
    (out, REQUESTED.get() - before)
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

fn msg(i: u64) -> MpMsg {
    MpMsg {
        author: (i % 7) as usize,
        seq: i,
        value: (i % 3) as i8 - 1,
        content: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        sig: Signature(!i),
    }
}

/// A view and the vector it must equal.
struct Pair {
    view: MpView,
    model: Vec<MpMsg>,
}

impl Pair {
    fn of(model: Vec<MpMsg>) -> Pair {
        Pair {
            view: MpView::from_slice(&model),
            model,
        }
    }

    fn push(&mut self, m: MpMsg) {
        self.view.push(m);
        self.model.push(m);
    }

    /// O(1)-ish observables, checked after every mutation.
    fn check_edge(&self, what: &str) {
        let n = self.model.len();
        assert_eq!(self.view.len(), n, "{what}: len");
        assert_eq!(self.view.is_empty(), n == 0, "{what}: is_empty");
        assert_eq!(self.view.last(), self.model.last(), "{what}: last");
        let from = n.saturating_sub(3);
        assert!(
            self.view.iter_from(from).eq(&self.model[from..]),
            "{what}: the last three messages"
        );
    }

    /// Every message, through each of the three read paths.
    fn check_all(&self, what: &str) {
        self.check_edge(what);
        assert!(self.view.iter().eq(&self.model), "{what}: iter");
        assert_eq!(self.view.to_vec(), self.model, "{what}: to_vec");
        assert!(
            self.view.clone().into_iter().eq(self.model.iter().copied()),
            "{what}: into_iter"
        );
    }
}

/// A position near a multiple of 32 — where leaf and trie edges are,
/// whatever the private widths — or anywhere in `0..=max`.
fn position(rng: &mut ChaCha8Rng, max: usize) -> usize {
    if rng.gen_bool(0.5) {
        let edge = rng.gen_range(0..=max / 32) * 32;
        (edge + rng.gen_range(0..3usize)).saturating_sub(1).min(max)
    } else {
        rng.gen_range(0..=max)
    }
}

/// One seeded interleaving over a pool of views that starts from a single
/// view of `start` messages.
fn interleave(seed: u64, start: usize, burst: usize, steps: usize, pool_cap: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut next = start as u64;
    let mut fresh = move || {
        next += 1;
        msg(next)
    };
    let first: Vec<MpMsg> = (0..start as u64).map(msg).collect();
    let mut pool = vec![Pair::of(first)];
    for step in 0..steps {
        let what = format!("seed {seed} step {step}");
        let at = rng.gen_range(0..pool.len());
        match rng.gen_range(0..10u32) {
            0..=2 => {
                for _ in 0..rng.gen_range(1..=burst) {
                    pool[at].push(fresh());
                }
                pool[at].check_edge(&what);
            }
            3 => {
                // A snapshot, taken where the tail is as often full or
                // one short as not.
                if pool.len() == pool_cap {
                    pool.swap_remove(rng.gen_range(0..pool_cap));
                }
                let of = &pool[rng.gen_range(0..pool.len())];
                pool.push(Pair {
                    view: of.view.clone(),
                    model: of.model.clone(),
                });
            }
            4 => {
                let k = position(&mut rng, pool[at].model.len() + 3);
                let cut = Pair {
                    view: pool[at].view.prefix(k),
                    model: pool[at].model.iter().take(k).copied().collect(),
                };
                cut.check_edge(&what);
                assert_eq!(
                    cut.view,
                    MpView::from_slice(&cut.model),
                    "{what}: prefix({k})"
                );
                if pool.len() == pool_cap {
                    pool.swap_remove(at);
                }
                pool.push(cut);
            }
            5 => {
                let p = &pool[at];
                let s = position(&mut rng, p.model.len() + 3);
                let want = &p.model[s.min(p.model.len())..];
                let iter = p.view.iter_from(s);
                assert_eq!(iter.size_hint(), (want.len(), Some(want.len())), "{what}");
                assert!(iter.eq(want), "{what}: iter_from({s})");
            }
            6 => {
                let other = &pool[rng.gen_range(0..pool.len())];
                assert_eq!(
                    pool[at].view == other.view,
                    pool[at].model == other.model,
                    "{what}: =="
                );
            }
            7 => {
                if pool.len() > 1 {
                    pool.swap_remove(at);
                }
            }
            8 => pool[at].check_all(&what),
            _ => {
                // One more message on a view that may be a snapshot of
                // (or share a tail with) another: the other must not see
                // it.
                pool[at].push(fresh());
                pool[at].check_edge(&what);
            }
        }
    }
    // Old snapshots are byte-stable under everything that came later.
    for (i, p) in pool.iter().enumerate() {
        p.check_all(&format!("seed {seed}, survivor {i}"));
    }
}

#[test]
fn random_interleavings_match_the_vec_model() {
    // From empty: every leaf edge of the first few thousand messages.
    for seed in 0..40 {
        interleave(seed, 0, 48, 300, 6);
    }
    // Around the first growth of the root (leaf · branching messages —
    // 1 056, 2 112 or 4 224 at leaf 32, 64 or 128 — plus a tail).
    for (seed, start) in [1_000, 1_990, 2_050, 2_111, 4_100, 4_223]
        .into_iter()
        .enumerate()
    {
        for round in 0..4 {
            interleave(100 + 10 * seed as u64 + round, start, 96, 160, 5);
        }
    }
    // Around the second (leaf · branching² + a tail: three levels).
    for (seed, start) in [32_700, 65_500, 65_599].into_iter().enumerate() {
        interleave(200 + seed as u64, start, 160, 100, 4);
    }
}

/// Two futures of one cut, both pushed past the next leaf edge: each must
/// hold its own messages, and `source` must not have moved.
fn divergent_futures(source: &Pair, k: usize) {
    let mut a = Pair {
        view: source.view.prefix(k),
        model: source.model[..k].to_vec(),
    };
    let mut b = Pair {
        view: source.view.prefix(k),
        model: source.model[..k].to_vec(),
    };
    for i in 0..140 {
        a.push(msg(1 << 40 | i));
        b.push(msg(1 << 41 | i));
    }
    a.check_all(&format!("first future of prefix({k})"));
    b.check_all(&format!("second future of prefix({k})"));
    source.check_edge(&format!("source of prefix({k})"));
    let peek = k + 140.min(source.model.len() - k);
    assert!(
        source
            .view
            .iter_from(k)
            .take(140)
            .eq(&source.model[k..peek]),
        "source past prefix({k})"
    );
}

#[test]
fn every_cut_of_a_two_level_view_equals_the_rebuilt_prefix() {
    // 4 500 messages: past the first root growth at any of the widths
    // above. Built by `push`, so it also has to equal `from_slice`.
    let mut v = Pair::of(Vec::new());
    for i in 0..4_500 {
        v.push(msg(i));
        v.check_edge("growing");
    }
    assert_eq!(v.view, MpView::from_slice(&v.model));
    for k in 0..=v.model.len() + 2 {
        let want = &v.model[..k.min(v.model.len())];
        let cut = v.view.prefix(k);
        assert_eq!(cut.len(), want.len(), "prefix({k}) length");
        assert_eq!(cut.last(), want.last(), "prefix({k}) last");
        assert_eq!(cut, MpView::from_slice(want), "prefix({k})");
        // `iter_from` against `skip`, at every position.
        let rest = &v.model[want.len()..];
        assert!(v.view.iter_from(k).eq(rest), "iter_from({k})");
    }
    assert_eq!(v.view.iter_from(usize::MAX).next(), None);
    for edge in (0..=4_480).step_by(32) {
        for k in [edge.max(1) - 1, edge, edge + 1] {
            divergent_futures(&v, k);
        }
    }
    v.check_all("after every cut");
}

#[test]
fn three_levels_cut_seek_and_diverge_at_every_subtree_edge() {
    // 70 000 pushes: the root grows twice (at 2 112 and 65 600 messages
    // with leaf 64 × branching 32).
    let mut v = Pair::of(Vec::new());
    for i in 0..70_000 {
        v.push(msg(i));
    }
    v.check_all("70 000 pushed");
    assert_eq!(v.view, MpView::from_slice(&v.model));
    let n = v.model.len();
    // Seeks: at every leaf edge the next 130 messages and the exact
    // remaining count; the full remainder at every 64th edge.
    for edge in (0..=n).step_by(32) {
        for s in [edge.max(1) - 1, edge, edge + 1] {
            let rest = &v.model[s.min(n)..];
            let iter = v.view.iter_from(s);
            assert_eq!(iter.size_hint(), (rest.len(), Some(rest.len())), "at {s}");
            if edge % 2_048 == 0 {
                assert!(iter.eq(rest), "iter_from({s})");
            } else {
                assert!(
                    iter.take(130).eq(rest.iter().take(130)),
                    "iter_from({s}), first 130"
                );
            }
        }
    }
    // Cuts: around every multiple of 1 024 (every bottom-node edge at any
    // width above) and around both root growths.
    let mut cuts: Vec<usize> = (0..=n).step_by(1_024).collect();
    cuts.extend([2_112, 4_224, 32_768 + 32, 65_536 + 64, 65_536 + 128, n - 1]);
    for edge in cuts {
        for k in [edge.max(1) - 1, edge, edge + 1, edge + 64, edge + 65] {
            let k = k.min(n);
            let cut = v.view.prefix(k);
            assert_eq!(cut.len(), k);
            assert!(cut.iter().eq(&v.model[..k]), "prefix({k})");
            if edge % 8_192 == 0 || edge > 65_000 {
                assert_eq!(cut, MpView::from_slice(&v.model[..k]), "prefix({k})");
                divergent_futures(&v, k);
            }
        }
    }
    v.check_all("after every cut");
}

/// A view of `h` messages built by `push`, without a model beside it.
fn pushed(h: u64) -> MpView {
    let mut v = MpView::new();
    for i in 0..h {
        v.push(msg(i));
    }
    v
}

#[test]
fn snapshot_prefix_and_push_costs_do_not_grow_with_history() {
    for h in [1_000u64, 100_000, 1_000_000] {
        let mut v = pushed(h);
        let (snap, bytes) = allocated(|| v.clone());
        assert_eq!(bytes, 0, "H = {h}: clone allocated");
        let (cut, bytes) = allocated(|| v.prefix(h as usize / 2));
        assert!(
            bytes <= 8 * 1024,
            "H = {h}: prefix(H/2) allocated {bytes} B"
        );
        // 1 000 messages are 40 000 bytes; the rest is leaf rounding, one
        // copy of the right edge and the shared tail.
        let ((), bytes) = allocated(|| {
            for i in h..h + 1_000 {
                v.push(msg(i));
            }
        });
        assert!(
            bytes <= 64 * 1024,
            "H = {h}: 1 000 pushes after a snapshot allocated {bytes} B"
        );
        // And the three views are still what they were.
        assert_eq!((snap.len(), cut.len()), (h as usize, h as usize / 2));
        assert_eq!(v.len(), h as usize + 1_000);
        for (view, len) in [(&snap, h), (&cut, h / 2), (&v, h + 1_000)] {
            assert_eq!(view.last(), Some(&msg(len - 1)));
            let from = len as usize - 200;
            assert!(view.iter_from(from).copied().eq((len - 200..len).map(msg)));
        }
    }
}

#[test]
fn a_million_messages_and_a_snapshot_drop_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(128 * 1024)
        .spawn(|| {
            let v = pushed(1_000_000);
            let snap = v.clone();
            // The owner first (the snapshot keeps everything alive), then
            // the last reference (which frees every node and leaf).
            drop(v);
            assert_eq!(snap.len(), 1_000_000);
            assert_eq!(snap.last(), Some(&msg(999_999)));
            drop(snap);
        })
        .expect("spawn")
        .join()
        .expect("build and drop within 128 KiB of stack");
}

// ---------------------------------------------------------------------------
// The membership table, from outside: what gets into a view
// ---------------------------------------------------------------------------

/// `author`'s append of `value` at `seq`, signed — what `MpSystem::append`
/// builds, for authors and seqs it would not.
fn signed(ring: &KeyRing, author: usize, seq: u64, value: i8) -> MpMsg {
    let mut bytes = [0u8; 17];
    bytes[..8].copy_from_slice(&(author as u64).to_le_bytes());
    bytes[8..16].copy_from_slice(&seq.to_le_bytes());
    bytes[16] = value as u8;
    let content = content_hash(&bytes);
    MpMsg {
        author,
        seq,
        value,
        content,
        sig: ring.sign(author, content),
    }
}

fn wire(m: MpMsg) -> Payload {
    Payload::Append {
        author: m.author,
        seq: m.seq,
        value: m.value,
        content: m.content,
        sig: m.sig,
    }
}

/// A five-node system over the reliable network with node 4 Byzantine,
/// and the key ring its seed makes (a test may sign as anybody).
fn system_with_keys(seed: u64) -> (MpSystem<ReliableNet>, KeyRing) {
    let mut sys = MpSystem::with_transport(ReliableNet::new(5), &[4], seed);
    let ring = KeyRing::new(5, seed);
    // The helper signs what the system signs.
    let first = sys.append(0, 1).expect("quorum of correct nodes");
    assert_eq!(first, signed(&ring, 0, 0, 1));
    sys.settle();
    (sys, ring)
}

#[test]
fn a_content_signed_for_one_value_is_not_accepted_under_another() {
    let (mut sys, ring) = system_with_keys(5);
    // Node 4 signs (4, 0, +1) and ships that content and signature under
    // −1 as well. Nodes 0 and 1 meet the honest copy first, 2 and 3 the
    // twisted one; everybody then gets the other.
    let honest = signed(&ring, 4, 0, 1);
    let twisted = MpMsg {
        value: -1,
        ..honest
    };
    for to in 0..4 {
        let order = if to < 2 {
            [honest, twisted]
        } else {
            [twisted, honest]
        };
        for m in order {
            sys.transport_mut().send(4, to, wire(m));
        }
    }
    sys.settle();
    // The same trick inside a read response, for a slot nobody has met.
    let honest_next = signed(&ring, 4, 1, 1);
    let twisted_next = MpMsg {
        value: -1,
        ..honest_next
    };
    let view = MpView::from_slice(&[twisted_next]);
    sys.transport_mut()
        .send(4, 2, Payload::ViewResp { op: u64::MAX, view });
    sys.settle();
    let want = [signed(&ring, 0, 0, 1), honest];
    for node in 0..4 {
        assert_eq!(
            sys.local_view(node).to_vec(),
            want,
            "node {node}: every correct view holds the honest value and only it"
        );
    }
    // The honest copy of the second slot is still welcome afterwards.
    sys.transport_mut().send(4, 2, wire(honest_next));
    sys.settle();
    assert_eq!(sys.local_view(2).last(), Some(&honest_next));
}

#[test]
fn wild_and_gapped_seqs_are_accepted_at_a_constant_heap_cost() {
    // A correctly signed append whose seq is 2⁴⁰: accepted by every
    // correct node, once, and nothing about it is sized by the number.
    let (mut sys, ring) = system_with_keys(6);
    let wild = signed(&ring, 4, 1 << 40, 1);
    let ((), bytes) = allocated(|| {
        for _twice in 0..2 {
            for to in 0..4 {
                sys.transport_mut().send(4, to, wire(wild));
            }
            sys.settle();
        }
    });
    // 208 B when written: four first overflow entries.
    assert!(bytes <= 4 * 1024, "seq 2^40 allocated {bytes} B");
    for node in 0..4 {
        let view = sys.local_view(node);
        assert_eq!(view.len(), 2, "node {node}: admitted once, not twice");
        assert_eq!(view.last(), Some(&wild), "node {node}");
    }

    // Both of an equivocated pair — one (author, seq), two contents —
    // are held by everybody after a read, once each.
    let (a, b) = sys
        .byz_equivocate(4, 1, -1, &[0, 1])
        .expect("node 4 is Byzantine");
    assert_eq!((a.author, a.seq), (b.author, b.seq));
    sys.settle();
    for _ in 0..2 {
        for node in 0..4 {
            let view = sys.read(node).expect("quorum of correct nodes");
            assert!(view.contains(&a) && view.contains(&b), "node {node}");
            assert_eq!(view.len(), 4, "node {node}: no copy admitted twice");
        }
        sys.settle();
    }

    // A node paused for 500 appends of one author and then handed its
    // backlog in random order meets seq 400-odd before seq 0: the table
    // grows to the gap at once, and to nothing more.
    let mut sys = MpSystem::with_transport(ReliableNet::new(5), &[], 7);
    sys.set_delivery(Delivery::Random);
    sys.pause(4);
    for _ in 0..500 {
        sys.append(0, 1).expect("four of five are up");
    }
    sys.settle();
    sys.resume(4);
    let (_, bytes) = allocated(|| sys.settle());
    // 500 messages in node 4's view (20 KB), their table row, as many
    // ack broadcasts through the network: 29 KB when written.
    assert!(bytes <= 64 * 1024, "the replay allocated {bytes} B");
    let mut seqs: Vec<u64> = sys.view(4).iter().map(|m| m.seq).collect();
    assert_ne!(seqs, (0..500).collect::<Vec<_>>(), "replayed in order");
    seqs.sort_unstable();
    assert_eq!(seqs, (0..500).collect::<Vec<_>>());
    assert_eq!(sys.view(4).len(), sys.view(0).len());
}
