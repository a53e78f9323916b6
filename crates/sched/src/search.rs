//! Compact search core: interned states, hash-compacted visited sets,
//! symmetry and partial-order reduction, and one breadth-first level
//! loop (DESIGN.md §14).
//!
//! The naive [`crate::explore::Explorer`] clones whole [`Config`] values
//! (nested `Vec`s) per transition and stores them verbatim in a
//! `HashMap` visited set. This module replaces that hot path for every
//! search in the crate:
//!
//! * **Interning** — per-author logs live once in a [`LogArena`]; a
//!   state is a fixed-size, `Copy` [`CState`] of arena ids, counts and
//!   incremental content hashes (≈150 bytes, no heap).
//! * **Hash compaction** — the visited set is keyed by the 128-bit
//!   fingerprint itself (two multiply-xorshift lanes over the canonical
//!   encoding, each finalized by splitmix64, so a pass-through hasher
//!   suffices).
//!   `exact: true` keys full decoded configurations instead and counts
//!   how many fingerprints would have collided, so the collision risk
//!   of the compacted mode is *measured*, not assumed.
//! * **Symmetry reduction** — for protocols that declare themselves
//!   [`AsyncProtocol::symmetric`], states are canonicalized under the
//!   node-ID permutations that fix the input vector (the stabilizer of
//!   the initial configuration); one representative per orbit is
//!   explored. The orbit minimum is found by individualizing one
//!   position at a time and refining the rest of the partition by the
//!   placed node's row ([`Stabilizer`]); the group is never listed and no
//!   permuted state but the winner is ever built. The same search reports
//!   which positions the state's symmetry moves ([`Canonical::moved`]); a
//!   decision by a node at any other position skips canonicalization.
//! * **Partial-order reduction** — sleep sets over the commutation
//!   structure of the append memory (reads/appends/decides by distinct
//!   nodes commute unless an append changes what the other node would
//!   do), plus an ample-set rule that commits pending stable decisions
//!   immediately. The soundness argument is in DESIGN.md §14 and the
//!   reduced search is pinned to the naive one by
//!   `tests/reduced_equivalence.rs`.
//! * **Level loop** — breadth-first, one frontier state at a time: its
//!   facts are recorded, the valency-only early exit is checked, and
//!   each successor is interned, canonicalized and probed against the
//!   visited set on the spot. The two frontiers are reused level to
//!   level, so a state allocates nothing.

use crate::explore::{Config, Entry, LocalState, Valency};
use crate::proto::{AsyncProtocol, Op, ViewRef};
use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum node count the compact state representation supports.
pub const MAX_N: usize = 8;

/// Words in the canonical state encoding.
pub const ENC_WORDS: usize = 2 * MAX_N + 4;

/// Sentinel for "undecided" in [`CState::decided`].
const UNDECIDED: u8 = 0xff;

// ---------------------------------------------------------------------------
// Hashing primitives
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — the crate-wide cheap mixer (cf. `nonforking`).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Content hash of one log entry (value + parent refs, order-sensitive).
fn entry_hash(e: &Entry) -> u64 {
    let mut h = mix64(0x5ca1_ab1e ^ e.value as u64);
    for r in &e.parents {
        h = mix64(h ^ ((r.author as u64) << 8 | r.seq as u64));
    }
    h
}

/// Incremental log hash: hash of `log ++ [entry]` from hash of `log`.
fn log_push_hash(log_hash: u64, eh: u64) -> u64 {
    mix64(log_hash.wrapping_mul(0x100_0000_01b3) ^ eh)
}

/// Hash of the empty log.
const EMPTY_LOG_HASH: u64 = 0x8422_2015_a5a5_a5a5;

/// Hasher for keys that are already splitmix-mixed — fingerprints,
/// content hashes, a small id beside one: it folds the key's integers
/// together instead of SipHashing them a second time.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("pass-through hashing takes integer keys only");
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(32) ^ x;
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64 ^ (x >> 64) as u64);
    }
}

/// A map keyed by mixed integers (see [`PassThrough`]).
pub(crate) type FpMap<K, V> = HashMap<K, V, BuildHasherDefault<PassThrough>>;

/// A set of mixed integers (see [`PassThrough`]).
pub(crate) type FpSet<K> = HashSet<K, BuildHasherDefault<PassThrough>>;

// ---------------------------------------------------------------------------
// Log arena
// ---------------------------------------------------------------------------

/// Interner for per-author logs. Every distinct log (sequence of entries
/// by one author) is stored once and named by a `u32` id; an append is an
/// edge `(parent id, entry) → child id`, so the arena is a trie over
/// entries and ids are a function of log *content* alone.
pub struct LogArena {
    logs: Vec<Vec<Entry>>,
    children: FpMap<(u32, u64), Vec<u32>>,
}

/// Id of the empty log.
pub const EMPTY_LOG: u32 = 0;

impl LogArena {
    /// Creates an arena holding only the empty log.
    pub fn new() -> LogArena {
        LogArena {
            logs: vec![Vec::new()],
            children: FpMap::default(),
        }
    }

    /// The entries of log `id`.
    pub fn get(&self, id: u32) -> &[Entry] {
        &self.logs[id as usize]
    }

    /// Interns `parent ++ [entry]`, returning the child id.
    pub fn push(&mut self, parent: u32, entry: Entry) -> u32 {
        let eh = entry_hash(&entry);
        if let Some(cands) = self.children.get(&(parent, eh)) {
            for &c in cands {
                if self.logs[c as usize].last() == Some(&entry) {
                    return c;
                }
            }
        }
        let id = self.logs.len() as u32;
        let mut log = self.logs[parent as usize].clone();
        log.push(entry);
        self.logs.push(log);
        self.children.entry((parent, eh)).or_default().push(id);
        id
    }

    /// Interns a full log, returning its id.
    pub fn intern(&mut self, log: &[Entry]) -> u32 {
        let mut id = EMPTY_LOG;
        for e in log {
            id = self.push(id, e.clone());
        }
        id
    }

    /// Number of distinct logs interned (including the empty log).
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// Whether the arena holds only the empty log.
    pub fn is_empty(&self) -> bool {
        self.logs.len() == 1
    }
}

impl Default for LogArena {
    fn default() -> LogArena {
        LogArena::new()
    }
}

// ---------------------------------------------------------------------------
// Compact state
// ---------------------------------------------------------------------------

/// A configuration in compact, fixed-size, `Copy` form. Logs are named by
/// arena ids; `logh` carries an incremental content hash per author so
/// canonical encodings never have to touch the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CState {
    /// Arena id of each author's log.
    pub logs: [u32; MAX_N],
    /// Length of each author's log.
    pub loglen: [u8; MAX_N],
    /// Incremental content hash of each author's log.
    pub logh: [u64; MAX_N],
    /// `view[v][a]` = how many of author `a`'s appends node `v` saw.
    pub view: [[u8; MAX_N]; MAX_N],
    /// Appends performed per node.
    pub own: [u8; MAX_N],
    /// Decision per node (`UNDECIDED` if none).
    pub decided: [u8; MAX_N],
    /// Binary input per node.
    pub input: [u8; MAX_N],
}

impl CState {
    /// Encodes a [`Config`] (interning its logs into `arena`).
    pub fn from_config(c: &Config, arena: &mut LogArena) -> CState {
        let n = c.logs.len();
        assert!(n <= MAX_N, "compact search supports n <= {MAX_N}");
        let mut s = CState {
            logs: [EMPTY_LOG; MAX_N],
            loglen: [0; MAX_N],
            logh: [EMPTY_LOG_HASH; MAX_N],
            view: [[0; MAX_N]; MAX_N],
            own: [0; MAX_N],
            decided: [UNDECIDED; MAX_N],
            input: [0; MAX_N],
        };
        for a in 0..n {
            s.logs[a] = arena.intern(&c.logs[a]);
            s.loglen[a] = c.logs[a].len() as u8;
            s.logh[a] = c.logs[a]
                .iter()
                .fold(EMPTY_LOG_HASH, |h, e| log_push_hash(h, entry_hash(e)));
        }
        for (v, st) in c.nodes.iter().enumerate() {
            for a in 0..n {
                s.view[v][a] = st.view[a];
            }
            s.own[v] = st.own;
            s.decided[v] = st.decided.unwrap_or(UNDECIDED);
            s.input[v] = st.input;
        }
        s
    }

    /// Decodes back to the naive representation.
    pub fn to_config(&self, n: usize, arena: &LogArena) -> Config {
        Config {
            logs: (0..n).map(|a| arena.get(self.logs[a]).to_vec()).collect(),
            nodes: (0..n)
                .map(|v| LocalState {
                    input: self.input[v],
                    view: self.view[v][..n].to_vec(),
                    own: self.own[v],
                    decided: match self.decided[v] {
                        UNDECIDED => None,
                        d => Some(d),
                    },
                })
                .collect(),
        }
    }

    /// Bitmask of decisions present (bit `v` set iff some node decided
    /// `v`) — mirrors [`Config::decision_bits`].
    pub fn decision_bits(&self, n: usize) -> u8 {
        let mut m = 0u8;
        for v in 0..n {
            if self.decided[v] != UNDECIDED {
                m |= 1 << self.decided[v];
            }
        }
        m
    }
}

/// Canonical fixed-width encoding of a state. Logs enter via their
/// content hashes (`logh`) so the encoding is arena-independent: the
/// same abstract configuration encodes identically no matter which
/// arena (or discovery order) interned it.
fn encode(s: &CState) -> [u64; ENC_WORDS] {
    let mut w = [0u64; ENC_WORDS];
    w[..MAX_N].copy_from_slice(&s.logh);
    for v in 0..MAX_N {
        w[MAX_N + v] = u64::from_le_bytes(s.view[v]);
    }
    w[2 * MAX_N] = u64::from_le_bytes(s.loglen);
    w[2 * MAX_N + 1] = u64::from_le_bytes(s.own);
    w[2 * MAX_N + 2] = u64::from_le_bytes(s.decided);
    w[2 * MAX_N + 3] = u64::from_le_bytes(s.input);
    w
}

/// The state `enc` encodes, given the arena ids the encoding leaves out.
fn decode(enc: &[u64; ENC_WORDS], logs: [u32; MAX_N]) -> CState {
    let bytes = |k: usize| enc[k].to_le_bytes();
    CState {
        logs,
        loglen: bytes(2 * MAX_N),
        logh: std::array::from_fn(|a| enc[a]),
        view: std::array::from_fn(|v| bytes(MAX_N + v)),
        own: bytes(2 * MAX_N + 1),
        decided: bytes(2 * MAX_N + 2),
        input: bytes(2 * MAX_N + 3),
    }
}

/// 128-bit fingerprint of an encoding: two lanes, one multiply-xorshift per
/// word each, then splitmix64. Every step is a bijection of the lane and of
/// the word, so encodings one word apart differ in both halves.
fn fingerprint(enc: &[u64; ENC_WORDS]) -> u128 {
    let mut a = 0x243f_6a88_85a3_08d3u64;
    let mut b = 0x1319_8a2e_0370_7344u64;
    for &w in enc {
        a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        a ^= a >> 32;
        b = b.wrapping_add(w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        b ^= b >> 29;
    }
    ((mix64(a) as u128) << 64) | mix64(b) as u128
}

/// The identity permutation.
const IDENTITY: [u8; MAX_N] = [0, 1, 2, 3, 4, 5, 6, 7];

/// A state encoding.
type Enc = [u64; ENC_WORDS];

/// Byte `i` of `w`.
fn byte(w: u64, i: usize) -> u64 {
    w >> (8 * i) & 0xff
}

/// Word `k >= MAX_N` of `encode(t)`, `t` being `s` relabelled by `p`, read
/// off `src = encode(s)` and the arrangement `inv` (byte `j` is `p⁻¹(j)`,
/// a word so that it stays in a register): a row or packed field, gathered.
fn permuted_word(src: &Enc, inv: u64, k: usize) -> u64 {
    let row = |k: usize| MAX_N + (byte(inv, k - MAX_N) as usize & 7);
    let x = src[if k < 2 * MAX_N { row(k) } else { k }];
    if x == 0 {
        return 0; // a padding node's row, say
    }
    let b = x.to_le_bytes();
    (0..MAX_N).fold(0, |w, j| {
        w | u64::from(b[byte(inv, j) as usize & 7]) << (8 * j)
    })
}

/// Whether the same-input nodes `x < y` are twins, swapping them fixing the
/// state `src` encodes; `memo` has the pairs asked and found at `8x + y`.
fn twins(src: &Enc, memo: &mut [u64; 2], x: usize, y: usize) -> bool {
    let (apart, bit) = (|w: u64| byte(w, x) != byte(w, y), 1 << (8 * x + y));
    if memo[0] & bit == 0 {
        let (rx, ry) = (src[MAX_N + x], src[MAX_N + y]);
        let twins = src[x] == src[y]
            && (rx ^ ry) & !(0xff << (8 * x) | 0xff << (8 * y)) == 0
            && byte(rx, x) == byte(ry, y)
            && byte(rx, y) == byte(ry, x)
            && !src[2 * MAX_N..2 * MAX_N + 3].iter().any(|&w| apart(w))
            && !(0..MAX_N).any(|z| z != x && z != y && apart(src[MAX_N + z]));
        (memo[0], memo[1]) = (memo[0] | bit, memo[1] | (bit * u64::from(twins)));
    }
    memo[1] & bit != 0
}

/// An ordered partition: the arrangement (byte `k` of `inv` is the node at
/// position `k`) and its cells, runs of slots (see [`Stabilizer::order`]):
/// bit `i` of `cells` is set iff a cell starts at slot `i`, as is bit `n`.
#[derive(Clone, Copy)]
struct Part {
    inv: u64,
    cells: u16,
}

impl Part {
    /// The slot one past the cell that starts at slot `lo`.
    fn end(&self, lo: usize) -> usize {
        lo + 1 + (self.cells >> (lo + 1)).trailing_zeros() as usize
    }
}

/// The best leaf (rows valid below `known`, `n + 1` once a leaf is stored;
/// the tail once `tail` is set), the memo of [`twins`], the positions where
/// leaves tied with the best on every row differ from it (`ties`), and the
/// nodes of the twin pairs pruned so far (`pruned`).
struct Best {
    enc: Enc,
    known: usize,
    tail: bool,
    inv: u64,
    twins: [u64; 2],
    ties: u8,
    pruned: u8,
}

impl Best {
    /// Offers `w` as row `k` of a path tied with the best; false if it loses.
    fn offer(&mut self, k: usize, w: u64) -> bool {
        let word = &mut self.enc[MAX_N + k];
        if self.known > k && w > *word {
            return false;
        }
        if self.known <= k || w < *word {
            (*word, self.known) = (w, k + 1);
        }
        true
    }
}

/// What [`Stabilizer::canonicalize`] finds for a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canonical {
    /// The orbit's representative: the permuted state with the least
    /// encoding (arena ids ride along).
    pub state: CState,
    /// Its encoding.
    pub enc: [u64; ENC_WORDS],
    /// The first minimal permutation in list order: node `v` of the input
    /// state is node `perm[v]` of the representative.
    pub perm: [u8; MAX_N],
    /// Bit `k` is set iff some stabilizer element that fixes the
    /// representative's `logh` words and rows moves its position `k`.
    pub moved: u8,
}

/// The stabilizer of an input vector — the permutations of `0..n` that map
/// each node to one of equal input — held as its two input classes. Its
/// list order is lexicographic in the images over the class order (zero-
/// input nodes ascending, then one-input ones), the identity first; the
/// first minimal permutation wins and relabels the sleep mask.
pub struct Stabilizer {
    n: usize,
    /// The nodes in class order: slot `i` is position `order[i]`, so every
    /// cell is a run of slots, positions rising with them; `slot` inverts.
    order: [u8; MAX_N],
    slot: [u8; MAX_N],
    /// The class partition; the positions on slots below `i` in `span[i]`.
    classes: u16,
    span: [u64; MAX_N + 1],
    size: usize,
}

impl Stabilizer {
    /// The stabilizer of `inputs` (one binary input per node); of none, the
    /// trivial group.
    pub fn new(inputs: &[u8]) -> Stabilizer {
        let n = inputs.len();
        assert!(n <= MAX_N, "compact search supports n <= {MAX_N}");
        let zeros = inputs.iter().filter(|&&b| b == 0).count();
        let (mut order, mut slot, mut next) = (IDENTITY, IDENTITY, [0, zeros]);
        for (v, &b) in inputs.iter().enumerate() {
            let c = usize::from(b != 0);
            (order[next[c]], slot[v]) = (v as u8, next[c] as u8);
            next[c] += 1;
        }
        let mut span = [0; MAX_N + 1];
        for i in 0..n {
            span[i + 1] = span[i] | 0xff << (8 * order[i]);
        }
        let factorial = |m: usize| (1..=m).product::<usize>();
        let size = factorial(zeros) * factorial(n - zeros);
        let classes = 1 | 1 << zeros | 1 << n;
        Stabilizer {
            n,
            order,
            slot,
            classes,
            span,
            size,
        }
    }

    /// Number of permutations in the group.
    pub fn order(&self) -> usize {
        self.size
    }

    /// Canonicalizes `s` (whose inputs the stabilizer was built for): the
    /// permuted state with the least encoding, that encoding, the first such
    /// permutation in list order, and the positions the representative's
    /// prefix symmetry moves. By refinement (DESIGN.md §14): classes start
    /// sorted by `logh`; position `k` takes each node `b` of its cell in
    /// turn, the other cells sorted by `b`'s row for the least row-`k` word
    /// `b` allows; the least words go on, bar a larger twin's. Leaves tied on
    /// every row are decided by the tail, then by list order. The pruned
    /// twins and the positions where tied leaves differ are `moved`.
    pub fn canonicalize(&self, s: &CState) -> Canonical {
        let src = encode(s);
        let identity = u64::from_le_bytes(IDENTITY);
        let (inv, cells) = (identity, self.classes);
        let mut root = Part { inv, cells };
        let mut lo = 0;
        while lo < self.n {
            let hi = root.end(lo);
            self.split(&mut root, lo, hi, |v| src[v]);
            lo = hi;
        }
        let known = if root.inv == identity { self.n + 1 } else { 0 };
        let mut best = Best {
            enc: src,
            known,
            tail: true,
            inv: identity,
            twins: [0; 2],
            ties: 0,
            pruned: 0,
        };
        self.level(&src, root, 0, &mut best);
        let inv = best.inv;
        let node = |k: usize| byte(inv, k) as usize & 7;
        let mut perm = IDENTITY;
        (0..MAX_N).for_each(|k| perm[node(k)] = k as u8);
        let pruned = (0..MAX_N).filter(|&v| best.pruned >> v & 1 != 0);
        let moved = pruned.fold(best.ties, |m, v| m | 1 << perm[v]);
        let (state, enc) = if inv == identity {
            (*s, src)
        } else {
            let tail = (MAX_N + self.n..ENC_WORDS).filter(|_| !best.tail);
            tail.for_each(|k| best.enc[k] = permuted_word(&src, inv, k));
            (0..MAX_N).for_each(|k| best.enc[k] = src[node(k)]);
            // The representative is its encoding read back; only the arena
            // ids ride along.
            let logs = std::array::from_fn(|k| s.logs[node(k)]);
            (decode(&best.enc, logs), best.enc)
        };
        Canonical {
            state,
            enc,
            perm,
            moved,
        }
    }

    /// Sorts slots `lo..hi` of `part` by `key`, cutting a cell at each change.
    fn split(&self, part: &mut Part, lo: usize, hi: usize, key: impl Fn(usize) -> u64) {
        let node = |i: usize| byte(part.inv, self.order[i] as usize & 7);
        if (lo + 1..hi).all(|i| key(node(i) as usize & 7) == key(node(lo) as usize & 7)) {
            return;
        }
        let mut cell = [(0, 0); MAX_N];
        let cell = &mut cell[..hi - lo];
        for (i, x) in cell.iter_mut().enumerate() {
            *x = (key(node(lo + i) as usize & 7), node(lo + i));
        }
        cell.sort_by_key(|x| x.0);
        for (i, &(key, v)) in cell.iter().enumerate() {
            let at = 8 * (self.order[lo + i] as usize & 7);
            part.inv = part.inv & !(0xff << at) | v << at;
            if i > 0 && cell[i - 1].0 != key {
                part.cells |= 1 << (lo + i);
            }
        }
    }

    /// Searches below `part`, whose positions `< k` are placed; a level one
    /// branch alone wins goes on in the loop, tied branches recurse.
    fn level(&self, src: &Enc, mut part: Part, mut k: usize, best: &mut Best) {
        while part.cells != (2 << self.n) - 1 {
            let (lo, hi) = (self.slot[k] as usize, part.end(self.slot[k] as usize));
            let node = |i: usize| byte(part.inv, self.order[i] as usize & 7) as usize & 7;
            let cell: u64 = (lo..hi).map(|i| 1 << node(i)).sum();
            let mut kids = [part; MAX_N];
            let (mut m, mut least) = (0, u64::MAX);
            for j in lo..hi {
                let y = node(j);
                let twin =
                    (0..y).find(|&x| cell >> x & 1 != 0 && twins(src, &mut best.twins, x, y));
                if let Some(x) = twin {
                    best.pruned |= 1 << x | 1 << y;
                    continue;
                }
                let (kid, w) = self.place(src, &part, lo, j);
                if w < least {
                    (least, m) = (w, 0);
                }
                if w == least {
                    kids[m] = kid;
                    m += 1;
                }
            }
            if !best.offer(k, least) {
                return;
            }
            for &kid in &kids[1..m] {
                self.level(src, kid, k + 1, best);
            }
            (part, k) = (kids[0], k + 1);
        }
        self.leaf(src, part.inv, k, best);
    }

    /// `part` with the node on slot `j` placed on slot `lo`, the first of
    /// its cell, and every open cell sorted by that node's row, largest
    /// values first; with the row word, the least the node allows.
    fn place(&self, src: &Enc, part: &Part, lo: usize, j: usize) -> (Part, u64) {
        let (at, from) = (self.order[lo] as usize & 7, self.order[j] as usize & 7);
        let d = byte(part.inv, at) ^ byte(part.inv, from);
        let inv = part.inv ^ (d << (8 * at) | d << (8 * from));
        let cells = part.cells | 1 << (lo + 1);
        let mut kid = Part { inv, cells };
        let row = src[MAX_N + (byte(kid.inv, at) as usize & 7)];
        let mut w = permuted_word(src, kid.inv, MAX_N + at);
        let mut open = kid.cells & !(kid.cells >> 1) & ((1 << self.n) - 1);
        while open != 0 {
            let c = open.trailing_zeros() as usize;
            open &= open - 1;
            let (end, first) = (kid.end(c), byte(w, self.order[c] as usize & 7));
            let mask = self.span[end] & !self.span[c];
            if w & mask != first.wrapping_mul(0x0101_0101_0101_0101) & mask {
                self.split(&mut kid, c, end, |v| !byte(row, v));
                w = permuted_word(src, kid.inv, MAX_N + at);
            }
        }
        (kid, w)
    }

    /// The arrangement `inv`, tied with `best` on rows below `k`: its other
    /// rows, then its tail and its key in list order (the images of the
    /// nodes in class order) decide whether it replaces `best`. A leaf tied
    /// on every row adds the positions where it differs to `best.ties`; a
    /// strictly better one starts them afresh.
    fn leaf(&self, src: &Enc, inv: u64, k: usize, best: &mut Best) {
        let seen = inv == best.inv && best.known > self.n;
        if seen || !(k..self.n).all(|k| best.offer(k, permuted_word(src, inv, MAX_N + k))) {
            return;
        }
        let (tail, n) = (MAX_N + self.n..ENC_WORDS, self.n);
        if best.known <= n {
            best.ties = 0;
            return (best.known, best.tail, best.inv) = (n + 1, false, inv);
        }
        let apart = inv ^ best.inv;
        best.ties |= (0..n).fold(0, |m, k| m | u8::from(byte(apart, k) != 0) << k);
        let fill = |enc: &mut Enc, inv| {
            for k in tail.clone() {
                enc[k] = permuted_word(src, inv, k);
            }
        };
        if !best.tail {
            fill(&mut best.enc, best.inv);
        }
        let key = |inv: u64| {
            let p = (0..MAX_N).fold(0, |p, k| p | (k as u64) << (8 * byte(inv, k)));
            (0..n).fold(0, |key, i| key << 8 | byte(p, self.order[i].into()))
        };
        let mut words = tail.clone().map(|k| (k, permuted_word(src, inv, k)));
        match words.find(|&(k, w)| w != best.enc[k]) {
            Some((k, w)) if w > best.enc[k] => {}
            None if key(inv) > key(best.inv) => {}
            _ => {
                fill(&mut best.enc, inv);
                best.inv = inv;
            }
        }
        best.tail = true;
    }
}

/// Canonical key of a configuration under input-stabilizer symmetry —
/// exposed so property tests can check the quotient is well defined:
/// `canonical_key(perm(c)) == canonical_key(c)` for any permutation
/// fixing the input vector. With `symmetric: false` the key is just the
/// plain encoding (no folding). A test helper, not the search path: it
/// re-interns the configuration's logs on every call.
pub fn canonical_key(c: &Config, symmetric: bool) -> Vec<u64> {
    let mut arena = LogArena::new();
    let s = CState::from_config(c, &mut arena);
    if !symmetric {
        return encode(&s).to_vec();
    }
    let inputs: Vec<u8> = c.nodes.iter().map(|st| st.input).collect();
    Stabilizer::new(&inputs).canonicalize(&s).enc.to_vec()
}

// ---------------------------------------------------------------------------
// Search options / report
// ---------------------------------------------------------------------------

/// What facts the search must establish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Everything the naive `Explorer::analyze` reports: valency,
    /// agreement violations, v-free non-termination.
    Full,
    /// Valency only — exploration stops as soon as both decision values
    /// have been seen (the state is then provably bivalent).
    ValencyOnly,
}

/// Knobs of the compact search. `Default` enables every reduction with
/// hash compaction.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions {
    /// State budget; exploration past it sets `truncated`.
    pub max_states: usize,
    /// Sleep-set partial-order reduction (prunes redundant transitions;
    /// preserves the reachable state set exactly).
    pub sleep_sets: bool,
    /// Ample-set rule: commit pending fresh-insensitive decisions
    /// immediately (prunes states; preserves valency / violation /
    /// v-free facts — DESIGN.md §14).
    pub ample_decide: bool,
    /// Symmetry reduction for protocols that opt in via
    /// [`AsyncProtocol::symmetric`].
    pub symmetry: bool,
    /// Key the visited set by full configurations instead of 128-bit
    /// fingerprints, and count would-be fingerprint collisions.
    pub exact: bool,
    /// What to establish (full analysis vs valency-only early exit).
    pub mode: SearchMode,
}

impl SearchOptions {
    /// All reductions on, hash-compacted, full analysis.
    pub fn reduced(max_states: usize) -> SearchOptions {
        SearchOptions {
            max_states,
            sleep_sets: true,
            ample_decide: true,
            symmetry: true,
            exact: false,
            mode: SearchMode::Full,
        }
    }

    /// No reductions, exact visited set — the compact core degenerates
    /// to the naive state graph (used by the equivalence suite).
    pub fn unreduced(max_states: usize) -> SearchOptions {
        SearchOptions {
            max_states,
            sleep_sets: false,
            ample_decide: false,
            symmetry: false,
            exact: true,
            mode: SearchMode::Full,
        }
    }

    /// Sets the search mode.
    pub fn with_mode(mut self, mode: SearchMode) -> SearchOptions {
        self.mode = mode;
        self
    }
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions::reduced(1_000_000)
    }
}

/// Result of a compact search, superset of the naive
/// [`crate::explore::Analysis`] facts plus reduction counters.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Distinct states visited (post-reduction).
    pub states: usize,
    /// Transitions executed.
    pub transitions: u64,
    /// Whether the state budget was hit.
    pub truncated: bool,
    /// Valency of the root (union of decisions over explored states).
    pub valency: Valency,
    /// A reachable configuration where two nodes decided differently.
    pub agreement_violation: Option<Config>,
    /// `(crashed_node, stuck_config)` — a v-free non-termination
    /// witness, as in the naive analysis (only hunted in
    /// [`SearchMode::Full`]).
    pub vfree_nontermination: Option<(usize, Config)>,
    /// Enabled transitions skipped by sleep sets.
    pub por_sleep_skipped: u64,
    /// States where the ample rule committed a pending decision (and
    /// pruned every other enabled move).
    pub ample_commits: u64,
    /// Successor states folded onto a different orbit representative.
    pub symmetry_folds: u64,
    /// Successor states already present in the visited set.
    pub fingerprint_hits: u64,
    /// Distinct states sharing a fingerprint (only measurable — and
    /// only counted — in `exact` mode).
    pub collisions: u64,
}

impl SearchReport {
    /// Publishes the reduction counters as am-obs aggregates.
    pub fn publish_obs(&self, prefix: &str) {
        am_obs::counter(&format!("{prefix}.states")).add(self.states as u64);
        am_obs::counter(&format!("{prefix}.transitions")).add(self.transitions);
        am_obs::counter(&format!("{prefix}.por_sleep_skipped")).add(self.por_sleep_skipped);
        am_obs::counter(&format!("{prefix}.ample_commits")).add(self.ample_commits);
        am_obs::counter(&format!("{prefix}.symmetry_folds")).add(self.symmetry_folds);
        am_obs::counter(&format!("{prefix}.fingerprint_hits")).add(self.fingerprint_hits);
        am_obs::counter(&format!("{prefix}.collisions")).add(self.collisions);
    }
}

// ---------------------------------------------------------------------------
// Move computation
// ---------------------------------------------------------------------------

/// One enabled move of a node, pre-applied where possible.
#[derive(Clone, Debug)]
enum Move {
    Read,
    Append(Entry),
    Decide(u8),
}

/// Per-node move analysis at one state.
struct NodeMoves {
    /// The enabled move, if any (None = passive: decided, idle, or a
    /// rule-(b) self-loop read).
    mv: [Option<Move>; MAX_N],
    /// Whether the node's pending op is insensitive to the `fresh` flag
    /// (so a concurrent append cannot change what it does next). Only
    /// evaluated for pending decides and for nodes with nothing fresh.
    stable: [bool; MAX_N],
    /// Whether anything unseen exists for the node.
    fresh: [bool; MAX_N],
}

/// Computes every node's enabled move at `s`, reading logs from the
/// arena.
fn node_moves(proto: &dyn AsyncProtocol, s: &CState, arena: &LogArena, n: usize) -> NodeMoves {
    let mut slices: [&[Entry]; MAX_N] = [&[]; MAX_N];
    for (a, slot) in slices.iter_mut().enumerate().take(n) {
        *slot = arena.get(s.logs[a]);
    }
    let mut out = NodeMoves {
        mv: Default::default(),
        stable: [true; MAX_N],
        fresh: [false; MAX_N],
    };
    for v in 0..n {
        if s.decided[v] != UNDECIDED {
            continue; // halted: no move, trivially stable
        }
        let fresh = (0..n).any(|a| s.loglen[a] > s.view[v][a]);
        out.fresh[v] = fresh;
        let view = ViewRef {
            logs: &slices[..n],
            counts: &s.view[v][..n],
        };
        let op = proto.next_op(v, s.input[v], s.own[v] as usize, &view, fresh);
        // Stability: would the op differ under the flipped fresh flag?
        // Read only by the ample rule (pending decides) and by
        // `independent` while nothing is fresh, so only asked then.
        if matches!(op, Op::Decide(_)) || !fresh {
            out.stable[v] = op == proto.next_op(v, s.input[v], s.own[v] as usize, &view, !fresh);
        }
        out.mv[v] = match op {
            Op::Idle => None,
            Op::Read => {
                if fresh {
                    Some(Move::Read)
                } else {
                    None // rule (b): e_v(C) = C
                }
            }
            Op::Append { value, parents } => Some(Move::Append(Entry { value, parents })),
            Op::Decide(d) => Some(Move::Decide(d)),
        };
    }
    out
}

/// Conditional independence of the enabled moves of nodes `x` and `y`
/// at the state `moves` was computed for: they commute and neither
/// changes what the other does next. Reads and decides touch only the
/// acting node's state; an append by `x` affects `y` iff `y` is about
/// to read (the read result changes) or `y`'s pending op flips with the
/// fresh flag.
fn independent(moves: &NodeMoves, x: usize, y: usize) -> bool {
    let affects = |a: usize, b: usize| -> bool {
        match moves.mv[a] {
            Some(Move::Append(_)) => match moves.mv[b] {
                Some(Move::Read) => true,
                _ => !moves.fresh[b] && !moves.stable[b],
            },
            _ => false, // reads/decides touch only the acting node
        }
    };
    !affects(x, y) && !affects(y, x)
}

/// Applies a move to the compact state, interning an append's entry
/// into `arena`.
fn apply_move(s: &CState, v: usize, mv: &Move, n: usize, arena: &mut LogArena) -> CState {
    let mut t = *s;
    match mv {
        Move::Read => {
            for a in 0..n {
                t.view[v][a] = t.loglen[a];
            }
        }
        Move::Append(e) => {
            t.logs[v] = arena.push(t.logs[v], e.clone());
            t.logh[v] = log_push_hash(t.logh[v], entry_hash(e));
            t.loglen[v] += 1;
            t.own[v] += 1;
            t.view[v][v] = t.view[v][v].max(t.loglen[v]);
        }
        Move::Decide(d) => t.decided[v] = *d,
    }
    t
}

/// A node whose crash leaves `s` stuck — the v-free non-termination
/// witness: every other node is passive and one of them is undecided
/// (passivity is permanent unless an active node appends; if all others
/// are passive, nobody ever appends again).
fn vfree_node(s: &CState, moves: &NodeMoves, n: usize) -> Option<usize> {
    (0..n).find(|&v| {
        let mut others = (0..n).filter(|&u| u != v);
        others.clone().all(|u| moves.mv[u].is_none()) && others.any(|u| s.decided[u] == UNDECIDED)
    })
}

/// The node the ample rule commits at the state `moves` was computed
/// for: a pending decision whose op is fresh-insensitive commutes with
/// every other move and can never be disabled, so the lowest-index one
/// is taken alone and every other move is pruned.
fn ample_node(moves: &NodeMoves, n: usize) -> Option<usize> {
    (0..n).find(|&v| matches!(moves.mv[v], Some(Move::Decide(_))) && moves.stable[v])
}

/// The sleep mask of the successor through node `v`'s move: the moves
/// in `candidates` (enabled, and asleep at the state or taken before
/// `v`) that are independent of it.
fn successor_sleep(moves: &NodeMoves, candidates: u8, v: usize, n: usize) -> u8 {
    (0..n)
        .filter(|&u| candidates & (1 << u) != 0 && independent(moves, u, v))
        .fold(0, |mask, u| mask | (1 << u))
}

// ---------------------------------------------------------------------------
// The search proper
// ---------------------------------------------------------------------------

/// The visited set: state → the sleep mask it was explored with, keyed
/// by the fingerprint itself or (`SearchOptions::exact`) by the decoded
/// configuration, beside an audit map that counts fingerprints two
/// distinct states share.
enum Visited {
    Fp(FpMap<u128, u8>),
    Exact {
        masks: HashMap<Config, u8>,
        audit: FpMap<u128, Config>,
    },
}

impl Visited {
    fn new(exact: bool) -> Visited {
        if exact {
            Visited::Exact {
                masks: HashMap::new(),
                audit: FpMap::default(),
            }
        } else {
            Visited::Fp(FpMap::default())
        }
    }

    /// Room for `additional` more states without a rehash.
    fn reserve(&mut self, additional: usize) {
        if let Visited::Fp(masks) = self {
            masks.reserve(additional);
        }
    }

    /// The mask the state with fingerprint `fp` (decoded by `config`,
    /// which only `exact` calls) was stored with, or `None` after storing
    /// it with `sleep`.
    fn probe(
        &mut self,
        fp: u128,
        sleep: u8,
        config: impl FnOnce() -> Config,
        collisions: &mut u64,
    ) -> Option<&mut u8> {
        match self {
            Visited::Fp(masks) => stored(masks.entry(fp), sleep),
            Visited::Exact { masks, audit } => {
                let config = config();
                match audit.entry(fp) {
                    Slot::Vacant(e) => {
                        e.insert(config.clone());
                    }
                    Slot::Occupied(e) => *collisions += u64::from(*e.get() != config),
                }
                stored(masks.entry(config), sleep)
            }
        }
    }
}

/// The value of an occupied entry, or `None` after filling a vacant one
/// with `value`.
fn stored<K, V>(slot: Slot<'_, K, V>, value: V) -> Option<&mut V> {
    match slot {
        Slot::Occupied(e) => Some(e.into_mut()),
        Slot::Vacant(e) => {
            e.insert(value);
            None
        }
    }
}

/// Runs the compact search from `init`.
pub fn search(proto: &dyn AsyncProtocol, init: &Config, opts: &SearchOptions) -> SearchReport {
    let n = proto.n();
    assert!(n <= MAX_N, "compact search supports n <= {MAX_N}");
    assert_eq!(init.logs.len(), n);

    let mut arena = LogArena::new();
    let root_raw = CState::from_config(init, &mut arena);

    // Symmetry applies only to protocols that declare equivariance, and
    // only while logs stay parent-free (permuting authors would
    // otherwise have to rewrite refs inside entries) — asserted where
    // entries are interned.
    let inputs: Vec<u8> = if opts.symmetry && proto.symmetric() {
        init.nodes.iter().map(|s| s.input).collect()
    } else {
        Vec::new() // the trivial group
    };
    let stab = Stabilizer::new(&inputs);
    let use_sym = stab.order() > 1;

    let mut report = SearchReport {
        states: 0,
        transitions: 0,
        truncated: false,
        valency: Valency::NoDecision,
        agreement_violation: None,
        vfree_nontermination: None,
        por_sleep_skipped: 0,
        ample_commits: 0,
        symmetry_folds: 0,
        fingerprint_hits: 0,
        collisions: 0,
    };

    let root = stab.canonicalize(&root_raw);

    // A revisit whose sleep mask is not a superset of the stored one must
    // be re-explored with the intersection (strictly smaller →
    // terminates).
    let mut visited = Visited::new(opts.exact);
    let root_fp = fingerprint(&root.enc);
    let root_config = || root.state.to_config(n, &arena);
    visited.probe(root_fp, 0, root_config, &mut report.collisions);
    report.states = 1;

    // Both frontiers are reused level to level. A state rides with its
    // sleep mask and the positions its prefix symmetry moves.
    let mut frontier: Vec<(CState, u8, u8)> = vec![(root.state, 0, root.moved)];
    let mut next: Vec<(CState, u8, u8)> = Vec::new();
    let mut seen_bits = 0u8;

    'levels: while !frontier.is_empty() {
        // Room for about as many new states as this level has.
        visited.reserve(frontier.len());
        next.clear();
        for &(s, sleep, moved) in &frontier {
            // The state's facts, then the moves reduction leaves it.
            let moves = node_moves(proto, &s, &arena, n);
            let bits = s.decision_bits(n);
            seen_bits |= bits;
            if bits == 0b11 && report.agreement_violation.is_none() {
                report.agreement_violation = Some(s.to_config(n, &arena));
            }
            if opts.mode == SearchMode::Full && report.vfree_nontermination.is_none() {
                if let Some(v) = vfree_node(&s, &moves, n) {
                    report.vfree_nontermination = Some((v, s.to_config(n, &arena)));
                }
            }
            let enabled = (0..n)
                .filter(|&v| moves.mv[v].is_some())
                .fold(0u8, |mask, v| mask | (1 << v));
            let ample = opts.ample_decide.then(|| ample_node(&moves, n)).flatten();
            let sleeps = ample.is_none() && opts.sleep_sets;
            let taken = match ample {
                Some(v) => (1 << v) & !sleep,
                None if sleeps => enabled & !sleep,
                None => enabled,
            };
            report.ample_commits += u64::from(ample.is_some());
            if sleeps {
                report.por_sleep_skipped += u64::from((enabled & sleep).count_ones());
            }
            report.transitions += u64::from(taken.count_ones());
            if opts.mode == SearchMode::ValencyOnly && seen_bits == 0b11 {
                break 'levels;
            }

            // Its successors, in node order: interned, folded onto their
            // orbit representative and probed against the visited set.
            for v in (0..n).filter(|&v| taken & (1 << v) != 0) {
                let mv = moves.mv[v].as_ref().expect("a taken move is enabled");
                if let Move::Append(e) = mv {
                    assert!(
                        !use_sym || e.parents.is_empty(),
                        "{} declares symmetric() but appends an entry with parents; \
                         AsyncProtocol::symmetric requires parent-free entries",
                        proto.name()
                    );
                }
                let succ_sleep = if sleeps {
                    successor_sleep(&moves, (sleep | (taken & ((1 << v) - 1))) & enabled, v, n)
                } else {
                    0
                };
                let succ = apply_move(&s, v, mv, n, &mut arena);
                // A decision by a node no prefix symmetry moves leaves the
                // successor its own representative (DESIGN.md §14).
                let c = match mv {
                    Move::Decide(_) if moved >> v & 1 == 0 => Canonical {
                        state: succ,
                        enc: encode(&succ),
                        perm: IDENTITY,
                        moved,
                    },
                    _ => stab.canonicalize(&succ),
                };
                // The identity is listed first, so any other winner has a
                // strictly smaller encoding: a different state of the orbit.
                report.symmetry_folds += u64::from(c.perm != IDENTITY);
                // Sleep masks name nodes and are relabelled with the state.
                let sleep =
                    (0..MAX_N).fold(0u8, |mask, u| mask | ((succ_sleep >> u & 1) << c.perm[u]));
                let config = || c.state.to_config(n, &arena);
                match visited.probe(fingerprint(&c.enc), sleep, config, &mut report.collisions) {
                    None => {
                        report.states += 1;
                        if report.states > opts.max_states {
                            report.truncated = true;
                            break 'levels;
                        }
                        next.push((c.state, sleep, c.moved));
                    }
                    Some(stored) => {
                        report.fingerprint_hits += 1;
                        // Already explored with mask `stored`: only a
                        // strictly smaller sleep set warrants re-entry.
                        if sleep & *stored != *stored {
                            let inter = sleep & *stored;
                            *stored = inter;
                            next.push((c.state, inter, c.moved));
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }

    report.valency = Valency::from_bits(seen_bits & 1 != 0, seen_bits & 2 != 0);
    report
}

/// Valency of `init` with early exit on bivalence — the fast primitive
/// behind the witness searches.
pub fn valency_fast(proto: &dyn AsyncProtocol, init: &Config, opts: &SearchOptions) -> Valency {
    search(proto, init, &opts.with_mode(SearchMode::ValencyOnly)).valency
}

/// Enabled successor states of `s` in node order, interning appends into
/// `arena` — the unreduced building block for path-level searches (the
/// bivalence extension walk) that must see every individual event.
pub fn successors_compact(
    proto: &dyn AsyncProtocol,
    s: &CState,
    arena: &mut LogArena,
) -> Vec<(usize, CState)> {
    let n = proto.n();
    let moves = node_moves(proto, s, arena, n);
    (0..n)
        .filter_map(|v| Some((v, apply_move(s, v, moves.mv[v].as_ref()?, n, arena))))
        .collect()
}

/// 128-bit fingerprint of a compact state (hash-compaction key).
pub fn state_fingerprint(s: &CState) -> u128 {
    fingerprint(&encode(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::proto::{FirstSeenProtocol, QuorumVoteProtocol};

    #[test]
    fn arena_interns_by_content() {
        let mut a = LogArena::new();
        let e1 = Entry {
            value: 1,
            parents: Vec::new(),
        };
        let e0 = Entry {
            value: 0,
            parents: Vec::new(),
        };
        let l1 = a.intern(&[e1.clone(), e0.clone()]);
        let l2 = a.intern(&[e1.clone(), e0.clone()]);
        assert_eq!(l1, l2, "same content, same id");
        let l3 = a.intern(&[e0, e1]);
        assert_ne!(l1, l3, "order matters");
        assert_eq!(a.len(), 5); // empty, [1], [1,0], [0], [0,1]
    }

    #[test]
    fn cstate_round_trips_through_config() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let ex = Explorer::new(&p, 10_000);
        let mut c = Config::initial(&[0, 1, 1]);
        for v in [0usize, 1, 0, 2, 1] {
            if let Some((_, c2)) = ex.apply(&c, v) {
                c = c2;
            }
        }
        let mut arena = LogArena::new();
        let s = CState::from_config(&c, &mut arena);
        assert_eq!(s.to_config(3, &arena), c);
    }

    #[test]
    fn stabilizer_size_matches_class_factorials() {
        assert_eq!(Stabilizer::new(&[0, 1, 1]).order(), 2); // 1! * 2!
        assert_eq!(Stabilizer::new(&[0, 0, 1, 1]).order(), 4); // 2! * 2!
        assert_eq!(Stabilizer::new(&[1, 1, 1]).order(), 6); // 3!
        assert_eq!(Stabilizer::new(&[0, 1, 0, 0, 1, 0, 0, 1]).order(), 720); // 5! * 3!
        assert_eq!(Stabilizer::new(&[1; MAX_N]).order(), 40_320); // 8!

        // Nodes of a root state look alike within a class: the identity wins.
        for inputs in [&[0, 1][..], &[0, 0, 1, 1], &[1, 0, 1, 0, 1, 0, 1, 0]] {
            let root = CState::from_config(&Config::initial(inputs), &mut LogArena::new());
            let c = Stabilizer::new(inputs).canonicalize(&root);
            assert_eq!((c.state, c.enc, c.perm), (root, encode(&root), IDENTITY));
        }
    }

    #[test]
    fn canonical_key_is_permutation_invariant() {
        // Build a state, permute two same-input nodes, check equal keys.
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let ex = Explorer::new(&p, 10_000);
        let c0 = Config::initial(&[0, 1, 1]);
        let (_, c1) = ex.apply(&c0, 1).unwrap(); // node 1 appends
                                                 // Mirror image: node 2 appends instead (nodes 1 and 2 share input).
        let (_, c2) = ex.apply(&c0, 2).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(canonical_key(&c1, true), canonical_key(&c2, true));
        assert_ne!(canonical_key(&c1, false), canonical_key(&c2, false));
    }

    #[test]
    fn unreduced_search_matches_naive_counts_and_facts() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let init = Config::initial(&[0, 1, 1]);
        let naive = Explorer::new(&p, 500_000).analyze(&init);
        let rep = search(&p, &init, &SearchOptions::unreduced(500_000));
        assert!(!rep.truncated);
        assert_eq!(rep.states, naive.configs);
        assert_eq!(rep.valency, naive.valency);
        assert_eq!(
            rep.agreement_violation.is_some(),
            naive.agreement_violation.is_some()
        );
        assert_eq!(
            rep.collisions, 0,
            "128-bit fingerprints must not collide here"
        );
    }

    #[test]
    fn sleep_sets_preserve_the_state_set() {
        // Sleep sets prune transitions, never states.
        for inputs in [[0u8, 1, 1], [0, 0, 1], [1, 1, 1]] {
            let p = QuorumVoteProtocol::new(3, 2, 0);
            let naive = Explorer::new(&p, 500_000).analyze(&Config::initial(&inputs));
            let mut opts = SearchOptions::unreduced(500_000);
            opts.sleep_sets = true;
            let rep = search(&p, &Config::initial(&inputs), &opts);
            assert_eq!(rep.states, naive.configs, "inputs {inputs:?}");
            assert!(rep.por_sleep_skipped > 0 || rep.transitions <= naive.configs as u64 * 3);
            assert!(
                rep.transitions < naive.configs as u64 * 3,
                "sleep sets must cut transitions below the n-per-state ceiling"
            );
        }
    }

    #[test]
    fn reduced_search_agrees_on_verdicts() {
        let p = FirstSeenProtocol::new(3);
        let init = Config::initial(&[0, 1, 1]);
        let naive = Explorer::new(&p, 500_000).analyze(&init);
        let rep = search(&p, &init, &SearchOptions::reduced(500_000));
        assert!(!rep.truncated);
        assert_eq!(rep.valency, naive.valency);
        assert_eq!(
            rep.agreement_violation.is_some(),
            naive.agreement_violation.is_some()
        );
        if let Some(w) = &rep.agreement_violation {
            assert!(w.violates_agreement());
        }
    }

    #[test]
    fn symmetry_folds_orbit_states() {
        let p = QuorumVoteProtocol::new(4, 3, 0);
        let init = Config::initial(&[0, 0, 1, 1]);
        let mut no_sym = SearchOptions::reduced(2_000_000);
        no_sym.symmetry = false;
        let base = search(&p, &init, &no_sym);
        let folded = search(&p, &init, &SearchOptions::reduced(2_000_000));
        assert!(folded.symmetry_folds > 0);
        assert!(
            folded.states < base.states,
            "orbit folding must shrink the state count ({} vs {})",
            folded.states,
            base.states
        );
        assert_eq!(folded.valency, base.valency);
        assert_eq!(
            folded.vfree_nontermination.is_some(),
            base.vfree_nontermination.is_some()
        );
    }

    #[test]
    fn vfree_detection_matches_naive() {
        let p = QuorumVoteProtocol::new(3, 3, 0);
        let init = Config::initial(&[0, 1, 0]);
        let naive = Explorer::new(&p, 500_000).analyze(&init);
        let rep = search(&p, &init, &SearchOptions::reduced(500_000));
        assert!(naive.vfree_nontermination.is_some());
        let (crashed, stuck) = rep
            .vfree_nontermination
            .expect("reduced search must also find the stuck computation");
        assert!(crashed < 3);
        assert!(!stuck.all_decided());
    }

    #[test]
    fn valency_only_mode_early_exits() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let init = Config::initial(&[0, 1, 1]);
        let full = search(&p, &init, &SearchOptions::reduced(500_000));
        let fast = search(
            &p,
            &init,
            &SearchOptions::reduced(500_000).with_mode(SearchMode::ValencyOnly),
        );
        assert_eq!(full.valency, fast.valency);
        assert!(fast.states <= full.states);
        assert_eq!(
            valency_fast(&p, &init, &SearchOptions::reduced(500_000)),
            full.valency
        );
    }

    #[test]
    fn truncation_fires_on_tiny_budget() {
        let p = QuorumVoteProtocol::new(3, 2, 0);
        let rep = search(&p, &Config::initial(&[0, 1, 0]), &SearchOptions::reduced(3));
        assert!(rep.truncated);
    }
}
