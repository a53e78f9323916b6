//! Per-thread trial scratch: buffers reused across Monte-Carlo trials.
//!
//! A `thread_local!` arena gives every thread that runs trials a private
//! set of buffers that warm up once and are then reused by every trial
//! that thread runs — no synchronisation, no per-trial allocation churn.
//! Two buffers matter on the hot path:
//!
//! * the **banked-grant buffer** every withhold-style adversary fills and
//!   drains (its capacity stabilises at the largest bank seen), and
//! * the **GHOST scratch** ([`GhostScratch`]) whose exact-weight bitset
//!   pool is `n × ⌈n/64⌉` words — by far the largest per-decision
//!   allocation when the rule is [`DagRule::Ghost`](crate::DagRule).
//!
//! Trials remain bit-identical: the buffers are cleared (or fully
//! overwritten) before use, so no state leaks between trials.

use crate::propagation::BlockMsg;
use am_core::ghost::GhostScratch;
use am_core::{DagIndex, MsgId};
use am_net::NetScratch;
use am_poisson::Grant;
use std::cell::RefCell;

struct TrialScratch {
    banked: Vec<Grant>,
    ghost: GhostScratch,
    net: NetScratch<BlockMsg>,
}

thread_local! {
    static TRIAL_SCRATCH: RefCell<TrialScratch> = RefCell::new(TrialScratch {
        banked: Vec::new(),
        ghost: GhostScratch::new(),
        net: NetScratch::default(),
    });
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

/// GHOST pivot through the pooled per-thread [`GhostScratch`].
pub(crate) fn ghost_pivot_pooled(dag: &DagIndex) -> Vec<MsgId> {
    TRIAL_SCRATCH.with(|s| am_core::ghost::ghost_pivot_in(dag, &mut s.borrow_mut().ghost))
}

/// Takes the pooled network scratch (event-queue slab + inbox slots) for
/// a networked trial. Return it with [`put_net`] when the trial is done.
pub(crate) fn take_net() -> NetScratch<BlockMsg> {
    TRIAL_SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().net))
}

/// Returns network scratch to the pool for the next trial on this thread.
pub(crate) fn put_net(scratch: NetScratch<BlockMsg>) {
    TRIAL_SCRATCH.with(|s| s.borrow_mut().net = scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pooled_ghost_matches_fresh_scratch() {
        use am_core::{ghost, AppendMemory, MessageBuilder, NodeId, Value, GENESIS};
        let m = AppendMemory::new(4);
        let mut tip = GENESIS;
        for i in 0..20u32 {
            tip = m
                .append(MessageBuilder::new(NodeId(i % 4), Value::plus()).parent(tip))
                .unwrap();
            if i % 5 == 0 {
                m.append(MessageBuilder::new(NodeId((i + 1) % 4), Value::minus()).parent(GENESIS))
                    .unwrap();
            }
        }
        let dag = DagIndex::new(&m.read());
        // Run twice so the second call exercises a warm (dirty) pool.
        assert_eq!(ghost_pivot_pooled(&dag), ghost::ghost_pivot_with(&dag));
        assert_eq!(ghost_pivot_pooled(&dag), ghost::ghost_pivot_with(&dag));
    }
}
