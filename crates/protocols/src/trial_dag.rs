//! The one graph a Monte-Carlo trial keeps.
//!
//! A Section 5 trial appends a few dozen messages, polls depth / tips /
//! coverage after every one, and at a decision point selects a chain and
//! linearizes. [`TrialDag`] is that history: a [`BlockStore`] (author,
//! parents, depth, prefix tips, arrival times) plus the value and
//! per-author `seq` columns, the [`ConeCoverTracker`] marks of the
//! covered-value gate, and a [`ChildIndex`] built on demand by
//! [`TrialDag::index_children`]. It implements [`DagRead`], so the chain
//! rules and `linearize_in` of `am-core` run on it directly — there is no
//! second copy of the graph to build at decision time.
//!
//! [`TrialDag::append`] enforces exactly the rules of
//! `AppendMemory::append_at` (author `< n`, every parent a prior id,
//! per-author `seq`, monotone clock) and is a handful of `Vec` pushes. The
//! runners take one arena per trial from the thread's pool
//! (`crate::scratch`) and [`reset`](TrialDag::reset) it instead of building
//! a new one, so a warm trial allocates nothing for its graph.
//! `tests/trial_dag_spec.rs` holds it against `AppendMemory` + `DagIndex`.

use am_core::{
    AppendError, BlockStore, ChildIndex, ConeCoverTracker, DagRead, MsgId, NodeId, Time, Value,
};

/// An append-only message DAG for `n` authors, genesis included.
///
/// ```
/// use am_core::{chain::longest_chain_positions, DagRead, NodeId, Time, Value, GENESIS};
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
    store: BlockStore,
    value: Vec<Value>,
    seq: Vec<u64>,
    next_seq: Vec<u64>,
    cover: ConeCoverTracker,
    /// Valid while it indexes as many messages as the store holds.
    children: ChildIndex,
}

impl TrialDag {
    /// A fresh arena for `n` authors holding only genesis.
    pub fn new(n: usize) -> TrialDag {
        let mut dag = TrialDag {
            n: 0,
            store: BlockStore::default(),
            value: Vec::new(),
            seq: Vec::new(),
            next_seq: Vec::new(),
            cover: ConeCoverTracker::new(),
            children: ChildIndex::default(),
        };
        dag.reset(n);
        dag
    }

    /// Back to the genesis-only state of [`TrialDag::new`]`(n)`, keeping
    /// every buffer's capacity.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.store.reset();
        self.value.clear();
        self.value.push(Value::Unit);
        self.seq.clear();
        self.seq.push(0);
        self.next_seq.clear();
        self.next_seq.resize(n, 0);
        self.cover.reset();
        self.children.clear();
    }

    /// Appends a message and returns its id, or rejects it — consuming
    /// neither an id nor a sequence number — exactly as
    /// `AppendMemory::append_at` would (which also keeps its clock from
    /// running backwards). `parents` is stored as listed; the runners pass
    /// tip lists, which never repeat an id.
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
        let seq = &mut self.next_seq[author.index()];
        self.seq.push(*seq);
        *seq += 1;
        self.value.push(value);
        let at = at.max(self.now());
        Ok(self
            .store
            .push(author, parents.iter().map(|p| p.0 as u32), at))
    }

    /// Appends so far (genesis excluded).
    pub fn append_count(&self) -> usize {
        self.len() - 1
    }

    /// The clock: the latest arrival time.
    pub fn now(&self) -> Time {
        self.store.arrival(self.len() - 1)
    }

    /// The author of `id` (`None` for genesis).
    pub fn author(&self, id: MsgId) -> Option<NodeId> {
        self.store.author_of(id.index())
    }

    /// The value `id` carries.
    pub fn value(&self, id: MsgId) -> Value {
        self.value[id.index()]
    }

    /// The position of `id` among its author's appends.
    pub fn seq(&self, id: MsgId) -> u64 {
        self.seq[id.index()]
    }

    /// The deepest message, ties to the smallest id.
    pub fn deepest(&self) -> MsgId {
        self.store.deepest()
    }

    /// Value-carrying messages in the closed past cone of the deepest
    /// message — Algorithm 6's "the selected chain covers ≥ k values"
    /// gate, maintained incrementally.
    pub fn gate_covered(&mut self) -> usize {
        let value = &self.value;
        self.cover.cover_of(&self.store, self.store.deepest(), |i| {
            value[i].as_sign().is_some()
        })
    }

    /// Builds the child index over the current history. Call it at a
    /// decision point, before handing the DAG to anything that reads
    /// [`DagRead::children_of`]; appending afterwards invalidates it.
    pub fn index_children(&mut self) {
        self.children.build(&self.store);
    }
}

impl DagRead for TrialDag {
    /// The graph: depth, prefix tips and arrival times — what a
    /// `Visibility` reads of the log.
    #[inline]
    fn store(&self) -> &BlockStore {
        &self.store
    }

    #[inline]
    fn children_of(&self, pos: usize) -> &[u32] {
        assert_eq!(
            self.children.len(),
            self.len(),
            "index_children() must follow the last append"
        );
        self.children.children_of(pos)
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
        (self.store.author_of(pos).map_or(0, |a| a.0), self.seq[pos])
    }
}
