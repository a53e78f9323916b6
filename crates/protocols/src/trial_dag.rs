//! The one graph a Monte-Carlo trial keeps.
//!
//! A Section 5 trial appends a few dozen messages, polls depth / tips /
//! coverage after every one, and at a decision point selects a chain and
//! linearizes. [`TrialDag`] is that history as flat columns: author, value,
//! per-author `seq` and the clock beside the [`IncrementalDag`] (depth,
//! prefix tips, arrival times) and the [`ConeCoverTracker`] (parent CSR,
//! covered-value gate) it composes, plus a child CSR built on demand by
//! [`TrialDag::index_children`]. It implements [`DagRead`], so the chain
//! rules and `linearize_in` of `am-core` run on it directly — there is no
//! second copy of the graph to build at decision time.
//!
//! [`TrialDag::append`] enforces exactly the rules of
//! `AppendMemory::append_at` (author `< n`, every parent a prior id,
//! per-author `seq`, monotone clock) and is a dozen `Vec` pushes. The
//! runners take one arena per trial from the thread's pool
//! (`crate::scratch`) and [`reset`](TrialDag::reset) it instead of building
//! a new one, so a warm trial allocates nothing for its graph.
//! `tests/trial_dag_spec.rs` holds it against `AppendMemory` + `DagIndex`.

use am_core::{AppendError, ConeCoverTracker, DagRead, IncrementalDag, MsgId, NodeId, Time, Value};

/// Author column entry of genesis, which nobody wrote.
const NO_AUTHOR: u32 = u32::MAX;

/// An append-only message DAG for `n` authors, genesis included.
///
/// ```
/// use am_core::{chain::longest_chain_positions, NodeId, Time, Value, GENESIS};
/// use am_protocols::TrialDag;
/// let mut dag = TrialDag::new(2);
/// let a = dag.append(NodeId(0), Value::plus(), &[GENESIS], Time::new(0.5)).unwrap();
/// let b = dag.append(NodeId(1), Value::minus(), &[a], Time::new(0.9)).unwrap();
/// assert_eq!((dag.len(), dag.deepest(), dag.seq(b)), (3, b, 0));
/// dag.index_children(); // before anything that walks child edges
/// assert_eq!(longest_chain_positions(&dag), vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct TrialDag {
    n: usize,
    author: Vec<u32>,
    value: Vec<Value>,
    seq: Vec<u64>,
    next_seq: Vec<u64>,
    now: Time,
    log: IncrementalDag,
    cover: ConeCoverTracker,
    /// Children of `i` are `child[child_off[i]..child_off[i + 1]]`, valid
    /// for the first `indexed` messages only.
    child_off: Vec<u32>,
    child: Vec<u32>,
    indexed: usize,
}

impl TrialDag {
    /// A fresh arena for `n` authors holding only genesis.
    pub fn new(n: usize) -> TrialDag {
        let mut dag = TrialDag {
            n: 0,
            author: Vec::new(),
            value: Vec::new(),
            seq: Vec::new(),
            next_seq: Vec::new(),
            now: Time::ZERO,
            log: IncrementalDag::new(),
            cover: ConeCoverTracker::new(),
            child_off: Vec::new(),
            child: Vec::new(),
            indexed: 0,
        };
        dag.reset(n);
        dag
    }

    /// Back to the genesis-only state of [`TrialDag::new`]`(n)`, keeping
    /// every buffer's capacity.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.author.clear();
        self.author.push(NO_AUTHOR);
        self.value.clear();
        self.value.push(Value::Unit);
        self.seq.clear();
        self.seq.push(0);
        self.next_seq.clear();
        self.next_seq.resize(n, 0);
        self.now = Time::ZERO;
        self.log.reset();
        self.cover.reset();
        self.indexed = 0;
    }

    /// Appends a message and returns its id, or rejects it — consuming
    /// neither an id nor a sequence number — exactly as
    /// `AppendMemory::append_at` would. `parents` is stored as listed; the
    /// runners pass tip lists, which never repeat an id.
    pub fn append(
        &mut self,
        author: NodeId,
        value: Value,
        parents: &[MsgId],
        at: Time,
    ) -> Result<MsgId, AppendError> {
        if author.index() >= self.n {
            return Err(AppendError::UnknownAuthor { author, n: self.n });
        }
        let id = MsgId(self.len() as u64);
        for &p in parents {
            if p >= id {
                return Err(if p == id {
                    AppendError::ForwardReference { parent: p }
                } else {
                    AppendError::UnknownParent { parent: p }
                });
            }
        }
        debug_assert!(
            parents
                .iter()
                .enumerate()
                .all(|(i, p)| !parents[..i].contains(p)),
            "parents must not repeat"
        );
        if at > self.now {
            self.now = at;
        }
        let seq = &mut self.next_seq[author.index()];
        self.seq.push(*seq);
        *seq += 1;
        self.author.push(author.0);
        self.value.push(value);
        self.log.on_append(id, parents, self.now);
        self.cover.on_append(id, parents, value.as_sign().is_some());
        Ok(id)
    }

    /// Number of messages, genesis included.
    pub fn len(&self) -> usize {
        self.author.len()
    }

    /// Whether only genesis is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Appends so far (genesis excluded).
    pub fn append_count(&self) -> usize {
        self.len() - 1
    }

    /// The clock: the latest arrival time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The author of `id` (`None` for genesis).
    pub fn author(&self, id: MsgId) -> Option<NodeId> {
        let a = self.author[id.index()];
        (a != NO_AUTHOR).then_some(NodeId(a))
    }

    /// The value `id` carries.
    pub fn value(&self, id: MsgId) -> Value {
        self.value[id.index()]
    }

    /// The position of `id` among its author's appends.
    pub fn seq(&self, id: MsgId) -> u64 {
        self.seq[id.index()]
    }

    /// Depth, prefix tips and arrival times — what a
    /// `Visibility` reads of the log.
    pub fn log(&self) -> &IncrementalDag {
        &self.log
    }

    /// The deepest message, ties to the smallest id.
    pub fn deepest(&self) -> MsgId {
        self.log.deepest()
    }

    /// Value-carrying messages in the closed past cone of the deepest
    /// message — Algorithm 6's "the selected chain covers ≥ k values"
    /// gate, maintained incrementally.
    pub fn gate_covered(&mut self) -> usize {
        self.cover.cover_of(self.log.deepest())
    }

    /// Builds the child CSR over the current history. Call it at a
    /// decision point, before handing the DAG to anything that reads
    /// [`DagRead::children_of`]; appending afterwards invalidates it.
    pub fn index_children(&mut self) {
        let n = self.len();
        self.child_off.clear();
        self.child_off.resize(n + 1, 0);
        // Count children one slot to the right, prefix-sum into offsets,
        // then scatter through the offsets as running cursors; ascending
        // child order falls out of the ascending sweep.
        for pos in 0..n {
            for &p in self.cover.parents_of(pos) {
                self.child_off[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.child_off[i + 1] += self.child_off[i];
        }
        self.child.clear();
        self.child.resize(self.cover.edge_count(), 0);
        for pos in 0..n {
            for &p in self.cover.parents_of(pos) {
                let cursor = &mut self.child_off[p as usize];
                self.child[*cursor as usize] = pos as u32;
                *cursor += 1;
            }
        }
        // Every cursor now sits at the end of its row, the start of the
        // next one: shift right to turn them back into row starts.
        self.child_off.copy_within(0..n, 1);
        self.child_off[0] = 0;
        self.indexed = n;
    }
}

impl DagRead for TrialDag {
    #[inline]
    fn len(&self) -> usize {
        TrialDag::len(self)
    }

    #[inline]
    fn parents_of(&self, pos: usize) -> &[u32] {
        self.cover.parents_of(pos)
    }

    #[inline]
    fn children_of(&self, pos: usize) -> &[u32] {
        assert_eq!(
            self.indexed,
            self.len(),
            "index_children() must follow the last append"
        );
        &self.child[self.child_off[pos] as usize..self.child_off[pos + 1] as usize]
    }

    #[inline]
    fn depth_of(&self, pos: usize) -> u32 {
        self.log.depth_of(MsgId(pos as u64))
    }

    #[inline]
    fn max_depth(&self) -> u32 {
        self.log.max_depth()
    }

    #[inline]
    fn id_at(&self, pos: usize) -> MsgId {
        MsgId(pos as u64)
    }

    #[inline]
    fn position(&self, id: MsgId) -> Option<usize> {
        (id.index() < self.len()).then_some(id.index())
    }

    #[inline]
    fn content_key(&self, pos: usize) -> (u32, u64) {
        let a = self.author[pos];
        (if a == NO_AUTHOR { 0 } else { a }, self.seq[pos])
    }

    #[inline]
    fn first_parent(&self, pos: usize) -> Option<usize> {
        self.cover.parents_of(pos).first().map(|&p| p as usize)
    }
}
