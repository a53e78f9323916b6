//! Property suite for the mempool's three contracts: deterministic
//! admission/eviction under a fixed seed, per-author ordering never
//! violated, and full-pool rejection (typed, never a silent drop).

use am_node::mempool::{Mempool, MempoolConfig, MempoolError, PendingAppend, Ticket};
use proptest::prelude::*;
use std::collections::HashMap;

/// One scripted action against the pool.
#[derive(Clone, Debug)]
enum Action {
    /// Auto-sequenced admission.
    Submit { author: u64, value: i8 },
    /// Explicit-sequence admission, with an offset from the author's
    /// expected next (0 = contiguous, >0 = gap, and a flag to aim below).
    Insert {
        author: u64,
        offset: u64,
        below: bool,
        value: i8,
    },
    /// Drain up to `max` entries.
    Take { max: usize },
    /// Drain the oldest entry, if any — what the cluster's executor does
    /// once per pending append.
    Pop,
    /// Evict at least `k` oldest entries.
    Evict { k: usize },
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..6, -1i8..=1).prop_map(|(author, value)| Action::Submit { author, value }),
        (0u64..6, 0u64..3, any::<bool>(), -1i8..=1).prop_map(|(author, offset, below, value)| {
            Action::Insert {
                author,
                offset,
                below,
                value,
            }
        }),
        (0usize..8).prop_map(|max| Action::Take { max }),
        Just(Action::Pop),
        (0usize..4).prop_map(|k| Action::Evict { k }),
    ]
}

/// Everything observable a script produces: per-step results plus the
/// drained/evicted streams. Two runs of the same script must match on all
/// of it.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    admissions: Vec<Result<Ticket, MempoolError>>,
    drained: Vec<(Ticket, PendingAppend)>,
    /// One inner vector per `Evict` action (cascade batches).
    evicted: Vec<Vec<(Ticket, PendingAppend)>>,
    final_len: usize,
}

fn run_script(cfg: MempoolConfig, script: &[Action]) -> Trace {
    let mut mp = Mempool::new(cfg);
    let mut trace = Trace {
        admissions: Vec::new(),
        drained: Vec::new(),
        evicted: Vec::new(),
        final_len: 0,
    };
    for act in script {
        match *act {
            Action::Submit { author, value } => {
                trace
                    .admissions
                    .push(mp.submit(author, value).map(|(t, _)| t));
            }
            Action::Insert {
                author,
                offset,
                below,
                value,
            } => {
                let expected = mp.next_seq(author);
                let seq = if below {
                    expected.saturating_sub(1 + offset)
                } else {
                    expected + offset
                };
                trace
                    .admissions
                    .push(mp.insert(PendingAppend { author, seq, value }));
            }
            Action::Take { max } => trace.drained.extend(mp.take_batch(max)),
            Action::Pop => trace.drained.extend(mp.pop()),
            Action::Evict { k } => trace.evicted.push(mp.evict_oldest(k)),
        }
    }
    trace.final_len = mp.len();
    trace
}

/// Takes entries that left the pool off the per-author pending model;
/// returns how many left.
fn leave(pending: &mut HashMap<u64, usize>, out: Vec<(Ticket, PendingAppend)>) -> usize {
    for (_, e) in &out {
        *pending.get_mut(&e.author).expect("admitted author") -= 1;
    }
    out.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pool is a deterministic function of its input script: same
    /// config + same actions ⇒ identical tickets, rejections, drain
    /// order, and eviction order.
    #[test]
    fn admission_and_eviction_are_deterministic(
        capacity in 1usize..24,
        per_author in 1usize..8,
        script in prop::collection::vec(action(), 1..60),
    ) {
        let cfg = MempoolConfig { capacity, per_author_cap: per_author };
        let a = run_script(cfg, &script);
        let b = run_script(cfg, &script);
        prop_assert_eq!(a, b, "same script must replay identically");
    }

    /// Per-author ordering is never violated: across everything that ever
    /// leaves the pool (drains and evictions interleaved by ticket),
    /// each author's sequence numbers appear in increasing order, and the
    /// *drained* (executed) stream additionally has no gaps between
    /// consecutive surviving sequences of an author unless an eviction
    /// rolled the author back in between.
    #[test]
    fn per_author_order_never_violated(
        capacity in 2usize..32,
        per_author in 1usize..8,
        script in prop::collection::vec(action(), 1..80),
    ) {
        let cfg = MempoolConfig { capacity, per_author_cap: per_author };
        let trace = run_script(cfg, &script);

        // Drained entries leave in ticket order…
        let drained_tickets: Vec<Ticket> = trace.drained.iter().map(|&(t, _)| t).collect();
        let mut sorted = drained_tickets.clone();
        sorted.sort();
        prop_assert_eq!(&drained_tickets, &sorted, "drain is ticket-ordered");

        // …so per author, drained sequences are strictly increasing.
        let mut last_seq: HashMap<u64, u64> = HashMap::new();
        for &(_, e) in &trace.drained {
            if let Some(&prev) = last_seq.get(&e.author) {
                prop_assert!(
                    e.seq > prev,
                    "author {} executed seq {} after {}",
                    e.author, e.seq, prev
                );
            }
            last_seq.insert(e.author, e.seq);
        }

        // Eviction cascades: within one eviction batch, each author's
        // evicted sequences are contiguous and increasing (the author's
        // whole pending tail leaves together, oldest first).
        for batch in &trace.evicted {
            let mut prev_in_batch: HashMap<u64, u64> = HashMap::new();
            for &(_, e) in batch {
                if let Some(&prev) = prev_in_batch.get(&e.author) {
                    prop_assert_eq!(
                        e.seq, prev + 1,
                        "author {}'s cascade must evict a contiguous tail", e.author
                    );
                }
                prev_in_batch.insert(e.author, e.seq);
            }
        }
    }

    /// A full pool (or a full author lane) rejects with the right typed
    /// error and never drops an admitted entry: every admitted ticket is
    /// accounted for as drained, evicted, or still pending, and each
    /// author's pending count is the model's (admitted minus left) after
    /// every action, whichever lane the entries left by.
    #[test]
    fn full_rejects_and_nothing_is_dropped(
        capacity in 1usize..16,
        per_author in 1usize..5,
        script in prop::collection::vec(action(), 1..80),
    ) {
        let cfg = MempoolConfig { capacity, per_author_cap: per_author };
        let mut mp = Mempool::new(cfg);
        let mut admitted = 0usize;
        let mut left = 0usize;
        let mut pending: HashMap<u64, usize> = HashMap::new();
        for act in &script {
            match *act {
                Action::Submit { author, value } => {
                    let was_len = mp.len();
                    let was_author = mp.pending_of(author);
                    match mp.submit(author, value) {
                        Ok(_) => {
                            admitted += 1;
                            *pending.entry(author).or_default() += 1;
                        }
                        Err(MempoolError::Full { capacity: c }) => {
                            prop_assert_eq!(c, capacity);
                            prop_assert_eq!(was_len, capacity, "Full only at capacity");
                            prop_assert_eq!(mp.len(), was_len, "reject is a no-op");
                        }
                        Err(MempoolError::AuthorFull { cap, .. }) => {
                            prop_assert_eq!(cap, per_author);
                            prop_assert_eq!(was_author, per_author);
                            prop_assert_eq!(mp.len(), was_len, "reject is a no-op");
                        }
                        Err(other) => prop_assert!(false, "submit cannot fail with {other:?}"),
                    }
                }
                Action::Insert { author, offset, below, value } => {
                    let expected = mp.next_seq(author);
                    let seq = if below {
                        expected.saturating_sub(1 + offset)
                    } else {
                        expected + offset
                    };
                    let was_len = mp.len();
                    match mp.insert(PendingAppend { author, seq, value }) {
                        Ok(_) => {
                            prop_assert_eq!(seq, expected, "only contiguous seqs admit");
                            admitted += 1;
                            *pending.entry(author).or_default() += 1;
                        }
                        Err(MempoolError::Gap { expected: e, got, .. }) => {
                            prop_assert!(got > e, "gap means above expected");
                            prop_assert_eq!(mp.len(), was_len);
                        }
                        Err(MempoolError::Duplicate { seq: s, .. }) => {
                            prop_assert!(s < expected, "duplicate means below expected");
                            prop_assert_eq!(mp.len(), was_len);
                        }
                        Err(MempoolError::Full { .. } | MempoolError::AuthorFull { .. }) => {
                            prop_assert_eq!(mp.len(), was_len);
                        }
                    }
                }
                Action::Take { max } => left += leave(&mut pending, mp.take_batch(max)),
                Action::Pop => left += leave(&mut pending, mp.pop().into_iter().collect()),
                Action::Evict { k } => left += leave(&mut pending, mp.evict_oldest(k)),
            }
            prop_assert!(mp.len() <= capacity, "capacity is an invariant");
            for author in 0..6 {
                prop_assert_eq!(
                    mp.pending_of(author),
                    pending.get(&author).copied().unwrap_or(0),
                    "author {}'s pending count", author
                );
            }
        }
        prop_assert_eq!(
            admitted, left + mp.len(),
            "every admitted entry is drained, evicted, or pending — never dropped"
        );
    }
}
