//! Per-thread trial scratch: what a Monte-Carlo trial borrows instead of
//! building.
//!
//! A `thread_local!` pool gives every thread that runs trials a private
//! set of buffers that grow to their working size once and are then
//! reused by every trial that thread runs — no synchronisation, and a
//! warm abstract trial allocates nothing for its graph or its decision:
//!
//! * the **trial DAG** ([`TrialDag`]) — the whole append history and its
//!   incremental indexes; [`take_dag`] hands it out *reset*, not rebuilt;
//! * the **decision scratch** ([`with_decision`]) — GHOST's exact-weight
//!   bitset pool (`n × ⌈n/64⌉` words) and the linearization buffers;
//! * the **parent list** a DAG append assembles ([`take_parents`]);
//! * the **frontiers** ([`FrontierBuf`]) — the shared-log view's tips and
//!   deepest blocks, and an omniscient adversary's, each grown with its
//!   prefix;
//! * the **banked-grant buffer** every withhold-style adversary fills and
//!   drains;
//! * the **gossip layer** of a networked trial ([`PropagationScratch`]:
//!   the `SimNet` storage — event queue, payload slab, inboxes, the
//!   statistics tables, arrival set and injector list — and
//!   `Propagation`'s block metadata, visibility bitmaps and per-node
//!   views, all reset instead of rebuilt);
//! * the **BFT trial tables** ([`BftScratch`]: one interpretation table,
//!   one finality view per observer, the drivers' own bookkeeping).
//!
//! Each buffer has one named slot, so its capacity depends only on the
//! sequence of trials the thread has run — a repeated workload reaches
//! every high-water mark in its first pass and allocates identically
//! thereafter. Trials remain bit-identical: a buffer is cleared or reset
//! when it is taken, so no state leaks between trials. A trial
//! that panics forfeits what it held; the next one starts a fresh buffer.

use crate::bft::BftScratch;
use crate::propagation::PropagationScratch;
use crate::trial_dag::TrialDag;
use am_core::ghost::GhostScratch;
use am_core::{Frontier, LinScratch, MsgId};
use am_poisson::Grant;
use std::cell::RefCell;

/// The pooled [`Frontier`] slots, by role.
#[derive(Clone, Copy)]
pub(crate) enum FrontierBuf {
    /// `SharedLog`'s: the prefix every correct node sees.
    View,
    /// An omniscient adversary's: the whole log.
    Adversary,
}

#[derive(Default)]
struct TrialScratch {
    banked: Vec<Grant>,
    parents: Vec<MsgId>,
    frontiers: [Frontier; 2],
    dag: Option<TrialDag>,
    ghost: GhostScratch,
    lin: LinScratch,
    prop: PropagationScratch,
    bft: Option<BftScratch>,
}

thread_local! {
    static TRIAL_SCRATCH: RefCell<TrialScratch> = RefCell::new(TrialScratch::default());
}

/// Takes the pooled banked-grant buffer (empty, capacity retained).
/// Return it with [`put_banked`] when the trial is done.
pub(crate) fn take_banked() -> Vec<Grant> {
    TRIAL_SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().banked))
}

/// Returns a banked-grant buffer to the pool, clearing it first.
pub(crate) fn put_banked(mut v: Vec<Grant>) {
    v.clear();
    TRIAL_SCRATCH.with(|s| s.borrow_mut().banked = v);
}

/// Takes the pooled parent-list buffer (empty, capacity retained).
/// Return it with [`put_parents`].
pub(crate) fn take_parents() -> Vec<MsgId> {
    TRIAL_SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().parents))
}

/// Returns the parent-list buffer to the pool, clearing it first.
pub(crate) fn put_parents(mut v: Vec<MsgId>) {
    v.clear();
    TRIAL_SCRATCH.with(|s| s.borrow_mut().parents = v);
}

/// Takes the pooled frontier of role `which`, cleared (capacity retained:
/// a frontier extends what it holds, so one left over from the previous
/// trial would answer for that trial's log). Return it with
/// [`put_frontier`] under the same role.
pub(crate) fn take_frontier(which: FrontierBuf) -> Frontier {
    let mut f =
        TRIAL_SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().frontiers[which as usize]));
    f.clear();
    f
}

/// Returns a frontier to its slot.
pub(crate) fn put_frontier(which: FrontierBuf, f: Frontier) {
    TRIAL_SCRATCH.with(|s| s.borrow_mut().frontiers[which as usize] = f);
}

/// Takes the pooled trial DAG, reset to the genesis-only state for `n`
/// authors. Return it with [`put_dag`] when the trial is done.
pub(crate) fn take_dag(n: usize) -> TrialDag {
    match TRIAL_SCRATCH.with(|s| s.borrow_mut().dag.take()) {
        Some(mut dag) => {
            dag.reset(n);
            dag
        }
        None => TrialDag::new(n),
    }
}

/// Returns a trial DAG to the pool for the next trial on this thread.
pub(crate) fn put_dag(dag: TrialDag) {
    TRIAL_SCRATCH.with(|s| s.borrow_mut().dag = Some(dag));
}

/// Runs `f` on the pooled decision scratch. `f` must not re-enter this
/// module (the pool is borrowed for its duration).
pub(crate) fn with_decision<R>(f: impl FnOnce(&mut GhostScratch, &mut LinScratch) -> R) -> R {
    TRIAL_SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        f(&mut s.ghost, &mut s.lin)
    })
}

/// Takes the pooled gossip-layer storage (everything a `Propagation` and
/// its `SimNet` would allocate per trial) for a networked trial. Return it
/// with [`put_prop`] when the trial is done.
pub(crate) fn take_prop() -> PropagationScratch {
    TRIAL_SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().prop))
}

/// Returns gossip-layer storage to the pool for the next trial on this
/// thread.
pub(crate) fn put_prop(scratch: PropagationScratch) {
    TRIAL_SCRATCH.with(|s| s.borrow_mut().prop = scratch);
}

/// Takes the pooled BFT trial tables, reset for `n` authors and
/// `observers` finality views. Return them with [`put_bft`] when the
/// trial is done.
pub(crate) fn take_bft(n: usize, observers: usize) -> BftScratch {
    // An `Option` slot, as for the trial DAG: taking must not build a
    // placeholder (a fresh table allocates).
    let mut bft = TRIAL_SCRATCH
        .with(|s| s.borrow_mut().bft.take())
        .unwrap_or_default();
    bft.reset(n, observers);
    bft
}

/// Returns BFT trial tables to the pool for the next trial on this thread.
pub(crate) fn put_bft(bft: BftScratch) {
    TRIAL_SCRATCH.with(|s| s.borrow_mut().bft = Some(bft));
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::{ghost, AppendMemory, DagIndex, MessageBuilder, NodeId, Time, Value, GENESIS};

    #[test]
    fn banked_pool_round_trips_and_keeps_capacity() {
        let mut b = take_banked();
        assert!(b.is_empty());
        b.reserve(64);
        let cap = b.capacity();
        put_banked(b);
        let b2 = take_banked();
        assert!(b2.is_empty());
        assert!(b2.capacity() >= cap, "pool must retain capacity");
        put_banked(b2);
    }

    #[test]
    fn id_slots_are_separate_and_come_back_empty() {
        let mut parents = take_parents();
        parents.extend([GENESIS; 100]);
        let cap = parents.capacity();
        put_parents(parents);
        let mut store = am_core::BlockStore::new();
        store.push(NodeId(0), [0], Time::new(1.0));
        let mut view = take_frontier(FrontierBuf::View);
        view.extend_to(&store, 2);
        put_frontier(FrontierBuf::View, view);
        let other = take_frontier(FrontierBuf::Adversary);
        assert!(other.tips().is_empty(), "another slot");
        put_frontier(FrontierBuf::Adversary, other);
        // A frontier comes back cleared: the next trial's log starts over.
        let view = take_frontier(FrontierBuf::View);
        assert!(view.tips().is_empty() && view.deepest().is_empty());
        put_frontier(FrontierBuf::View, view);
        let back = take_parents();
        assert!(back.is_empty() && back.capacity() == cap);
        put_parents(back);
    }

    #[test]
    fn pooled_dag_comes_back_reset() {
        let mut dag = take_dag(3);
        dag.append(NodeId(2), Value::plus(), &[GENESIS], Time::new(1.0))
            .unwrap();
        put_dag(dag);
        let dag = take_dag(2);
        assert!(dag.append_count() == 0 && dag.now() == Time::ZERO);
        put_dag(dag);
    }

    #[test]
    fn pooled_ghost_matches_fresh_scratch() {
        // The same forked history in the pooled arena and in the memory.
        let m = AppendMemory::new(4);
        let mut dag = take_dag(4);
        let mut tip = GENESIS;
        let mut both = |author: u32, value: Value, parent: MsgId| {
            let id = m
                .append(MessageBuilder::new(NodeId(author), value).parent(parent))
                .unwrap();
            let at = dag.now();
            assert_eq!(dag.append(NodeId(author), value, &[parent], at), Ok(id));
            id
        };
        for i in 0..20u32 {
            tip = both(i % 4, Value::plus(), tip);
            if i % 5 == 0 {
                both((i + 1) % 4, Value::minus(), GENESIS);
            }
        }
        dag.index_children();
        let reference = ghost::ghost_pivot_with(&DagIndex::new(&m.read()));
        // Run twice so the second call exercises a warm (dirty) pool.
        for _ in 0..2 {
            let pooled = with_decision(|gs, _| ghost::ghost_pivot_in(&dag, gs));
            assert_eq!(pooled, reference);
        }
        put_dag(dag);
    }
}
