//! The mempool: deterministic admission and eviction of pending appends.
//!
//! Client appends enter the node runtime here before the ABD protocol
//! executes them. Three properties the runtime (and the property suite in
//! `tests/mempool_props.rs`) relies on:
//!
//! * **Deterministic admission order.** Every admitted append gets a
//!   monotone [`Ticket`]; [`Mempool::pop`] (and [`Mempool::take_batch`],
//!   repeated pops) drains strictly in ticket order. No hash-map
//!   iteration order leaks into behaviour, so the same submission script
//!   always yields the same execution order.
//! * **Per-author ordering is never violated.** An author's appends are
//!   admitted only at contiguous sequence numbers (`expected`, then
//!   `expected + 1`, ...). A gap or a replay is rejected with a typed
//!   error; drained batches therefore always carry each author's appends
//!   in sequence order with no holes.
//! * **Full means reject, not drop.** When the pool (or one author's
//!   allowance) is full, `insert` returns [`MempoolError::Full`] /
//!   [`MempoolError::AuthorFull`] and the pool is untouched — admitted
//!   entries are never silently displaced by new traffic. Space is only
//!   reclaimed by execution ([`Mempool::pop`]) or by the explicit,
//!   deterministic eviction lane ([`Mempool::evict_oldest`]).
//!
//! Eviction cascades by author: evicting an author's oldest pending
//! append also evicts the author's later pending appends (they would
//! otherwise leave a sequence gap) and rolls the author's expected
//! sequence back, so the author can resubmit from the evicted point.

use am_net::hash::IntMap;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Admission ticket: the position in the global admission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// A pending append waiting in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingAppend {
    /// Client author key (the mempool's ordering domain — distinct from
    /// the protocol-level node that will execute the append).
    pub author: u64,
    /// The author's client sequence number; contiguous per author.
    pub seq: u64,
    /// The value to append.
    pub value: i8,
}

/// Typed admission/eviction failures. The pool state is unchanged by
/// every rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MempoolError {
    /// The pool is at capacity; the append was rejected, not queued.
    Full {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The author is at its per-author allowance.
    AuthorFull {
        /// The rejected author.
        author: u64,
        /// The configured per-author cap that was hit.
        cap: usize,
    },
    /// The sequence number skips ahead of the author's expected next.
    Gap {
        /// The rejected author.
        author: u64,
        /// The sequence the pool would admit next.
        expected: u64,
        /// The sequence that was submitted.
        got: u64,
    },
    /// The sequence number was already admitted (replay).
    Duplicate {
        /// The rejected author.
        author: u64,
        /// The replayed sequence number.
        seq: u64,
    },
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MempoolError::Full { capacity } => write!(f, "mempool full (capacity {capacity})"),
            MempoolError::AuthorFull { author, cap } => {
                write!(f, "author {author} at its allowance ({cap} pending)")
            }
            MempoolError::Gap {
                author,
                expected,
                got,
            } => write!(f, "author {author}: expected seq {expected}, got {got}"),
            MempoolError::Duplicate { author, seq } => {
                write!(f, "author {author}: seq {seq} already admitted")
            }
        }
    }
}

impl std::error::Error for MempoolError {}

/// Capacity limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Total pending appends the pool holds before rejecting.
    pub capacity: usize,
    /// Pending appends one author may hold before rejecting.
    pub per_author_cap: usize,
}

impl Default for MempoolConfig {
    fn default() -> MempoolConfig {
        MempoolConfig {
            capacity: 4096,
            per_author_cap: 64,
        }
    }
}

/// Per-author bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct AuthorState {
    /// Next sequence number this author may submit.
    next_seq: u64,
    /// Pending (admitted, not yet drained) entries.
    pending: usize,
}

/// The pool. Entries live in a ticket-ordered map — the single total
/// order behind admission, draining, and eviction. The author table is
/// only ever looked up by key, never iterated, so its hasher cannot leak
/// into any order.
pub struct Mempool {
    cfg: MempoolConfig,
    next_ticket: u64,
    entries: BTreeMap<Ticket, PendingAppend>,
    authors: IntMap<u64, AuthorState>,
    obs_admitted: am_obs::Counter,
    obs_rejected: am_obs::Counter,
    obs_evicted: am_obs::Counter,
}

impl Mempool {
    /// An empty pool with the given limits.
    pub fn new(cfg: MempoolConfig) -> Mempool {
        Mempool {
            cfg,
            next_ticket: 0,
            entries: BTreeMap::new(),
            authors: IntMap::default(),
            obs_admitted: am_obs::counter("node.mempool.admitted"),
            obs_rejected: am_obs::counter("node.mempool.rejected"),
            obs_evicted: am_obs::counter("node.mempool.evicted"),
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured limits.
    pub fn config(&self) -> MempoolConfig {
        self.cfg
    }

    /// Pending entries of one author.
    pub fn pending_of(&self, author: u64) -> usize {
        self.authors.get(&author).map_or(0, |a| a.pending)
    }

    /// The sequence number the pool would admit next for `author`.
    pub fn next_seq(&self, author: u64) -> u64 {
        self.authors.get(&author).map_or(0, |a| a.next_seq)
    }

    /// Admits `author`'s append at `seq`, or at the author's expected
    /// sequence when `seq` is `None`, with one author-table lookup.
    /// Checks a replay or gap first, then capacity; a rejection leaves
    /// the pool — author table included — untouched.
    fn admit(
        &mut self,
        author: u64,
        seq: Option<u64>,
        value: i8,
    ) -> Result<(Ticket, u64), MempoolError> {
        let slot = self.authors.entry(author);
        let st = match &slot {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(_) => AuthorState::default(),
        };
        let seq = seq.unwrap_or(st.next_seq);
        let verdict = if seq < st.next_seq {
            Err(MempoolError::Duplicate { author, seq })
        } else if seq > st.next_seq {
            Err(MempoolError::Gap {
                author,
                expected: st.next_seq,
                got: seq,
            })
        } else if self.entries.len() >= self.cfg.capacity {
            Err(MempoolError::Full {
                capacity: self.cfg.capacity,
            })
        } else if st.pending >= self.cfg.per_author_cap {
            Err(MempoolError::AuthorFull {
                author,
                cap: self.cfg.per_author_cap,
            })
        } else {
            Ok(())
        };
        if let Err(e) = verdict {
            self.obs_rejected.inc();
            return Err(e);
        }
        let st = slot.or_default();
        st.next_seq = seq + 1;
        st.pending += 1;
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.entries
            .insert(ticket, PendingAppend { author, seq, value });
        self.obs_admitted.inc();
        Ok((ticket, seq))
    }

    /// Admits an append at an explicit sequence number. Rejects (typed,
    /// state untouched) on capacity, a per-author gap, or a replay.
    pub fn insert(&mut self, entry: PendingAppend) -> Result<Ticket, MempoolError> {
        self.admit(entry.author, Some(entry.seq), entry.value)
            .map(|(ticket, _)| ticket)
    }

    /// Admits an append with the sequence number auto-assigned — the lane
    /// concurrent clients use, since the pool (behind the runtime thread)
    /// serializes each author's sequence for them.
    pub fn submit(&mut self, author: u64, value: i8) -> Result<(Ticket, u64), MempoolError> {
        self.admit(author, None, value)
    }

    /// Drains the oldest entry (lowest ticket), if any. Each author's
    /// entries come out in sequence order because they went in that way
    /// — the executed prefix never has per-author holes.
    pub fn pop(&mut self) -> Option<(Ticket, PendingAppend)> {
        let (ticket, entry) = self.entries.pop_first()?;
        self.authors
            .get_mut(&entry.author)
            .expect("admitted author")
            .pending -= 1;
        Some((ticket, entry))
    }

    /// Drains up to `max` entries in admission (ticket) order: `max`
    /// [`Mempool::pop`]s, collected.
    pub fn take_batch(&mut self, max: usize) -> Vec<(Ticket, PendingAppend)> {
        std::iter::from_fn(|| self.pop()).take(max).collect()
    }

    /// Evicts at least `min_evicted` entries (if that many are pending)
    /// starting from the oldest ticket, cascading per author: every later
    /// pending entry of an evicted author goes too, and the author's
    /// expected sequence rolls back to the evicted entry's, so resubmission
    /// is well-defined. Returns the evicted entries in eviction order.
    /// Fully deterministic: ticket order drives everything.
    pub fn evict_oldest(&mut self, min_evicted: usize) -> Vec<(Ticket, PendingAppend)> {
        let mut out = Vec::new();
        while out.len() < min_evicted {
            let Some((&oldest, &entry)) = self.entries.iter().next() else {
                break;
            };
            // Cascade: collect every pending ticket of this author from
            // `oldest` on (ticket order ⇒ sequence order).
            let tickets: Vec<Ticket> = self
                .entries
                .range(oldest..)
                .filter(|(_, e)| e.author == entry.author)
                .map(|(&t, _)| t)
                .collect();
            let st = self.authors.get_mut(&entry.author).expect("author");
            st.next_seq = entry.seq;
            st.pending -= tickets.len();
            for t in tickets {
                let e = self.entries.remove(&t).expect("collected");
                self.obs_evicted.inc();
                out.push((t, e));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize, per_author: usize) -> Mempool {
        Mempool::new(MempoolConfig {
            capacity,
            per_author_cap: per_author,
        })
    }

    #[test]
    fn admission_is_ticket_ordered_and_contiguous() {
        let mut mp = pool(16, 8);
        assert_eq!(mp.submit(7, 1).unwrap(), (Ticket(0), 0));
        assert_eq!(mp.submit(3, 2).unwrap(), (Ticket(1), 0));
        assert_eq!(mp.submit(7, 3).unwrap(), (Ticket(2), 1));
        let batch = mp.take_batch(10);
        let authors: Vec<(u64, u64)> = batch.iter().map(|(_, e)| (e.author, e.seq)).collect();
        assert_eq!(authors, vec![(7, 0), (3, 0), (7, 1)]);
        assert!(mp.is_empty());
        // Sequences continue after draining.
        assert_eq!(mp.submit(7, 4).unwrap().1, 2);
    }

    #[test]
    fn explicit_sequence_gaps_and_replays_reject() {
        let mut mp = pool(16, 8);
        let e = |seq| PendingAppend {
            author: 5,
            seq,
            value: 0,
        };
        mp.insert(e(0)).unwrap();
        assert_eq!(
            mp.insert(e(2)),
            Err(MempoolError::Gap {
                author: 5,
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            mp.insert(e(0)),
            Err(MempoolError::Duplicate { author: 5, seq: 0 })
        );
        mp.insert(e(1)).unwrap();
        assert_eq!(mp.len(), 2, "rejections leave the pool untouched");
    }

    #[test]
    fn full_pool_rejects_without_dropping() {
        let mut mp = pool(2, 8);
        mp.submit(1, 0).unwrap();
        mp.submit(2, 0).unwrap();
        assert_eq!(mp.submit(3, 0), Err(MempoolError::Full { capacity: 2 }));
        assert_eq!(mp.len(), 2, "admitted entries survive the rejection");
        // Draining frees space again.
        mp.take_batch(1);
        assert!(mp.submit(3, 0).is_ok());
    }

    #[test]
    fn per_author_allowance_rejects() {
        let mut mp = pool(16, 2);
        mp.submit(9, 0).unwrap();
        mp.submit(9, 0).unwrap();
        assert_eq!(
            mp.submit(9, 0),
            Err(MempoolError::AuthorFull { author: 9, cap: 2 })
        );
        assert!(mp.submit(8, 0).is_ok(), "other authors unaffected");
    }

    #[test]
    fn eviction_cascades_and_rolls_back() {
        let mut mp = pool(16, 8);
        mp.submit(1, 0).unwrap(); // Ticket 0, seq 0
        mp.submit(2, 0).unwrap(); // Ticket 1
        mp.submit(1, 0).unwrap(); // Ticket 2, seq 1
        let evicted = mp.evict_oldest(1);
        // Author 1's whole pending tail goes (tickets 0 and 2).
        let got: Vec<(u64, u64)> = evicted.iter().map(|(_, e)| (e.author, e.seq)).collect();
        assert_eq!(got, vec![(1, 0), (1, 1)]);
        assert_eq!(mp.len(), 1, "author 2 untouched");
        assert_eq!(mp.next_seq(1), 0, "rolled back to the evicted seq");
        assert_eq!(mp.pending_of(1), 0);
        // Resubmission from the rollback point works.
        assert_eq!(mp.submit(1, 0).unwrap().1, 0);
    }

    #[test]
    fn error_messages_render() {
        let msgs = [
            MempoolError::Full { capacity: 4 }.to_string(),
            MempoolError::AuthorFull { author: 1, cap: 2 }.to_string(),
            MempoolError::Gap {
                author: 1,
                expected: 2,
                got: 5,
            }
            .to_string(),
            MempoolError::Duplicate { author: 1, seq: 3 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
