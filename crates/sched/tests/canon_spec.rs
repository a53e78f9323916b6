//! Spec-equivalence suite for the symmetry canonicalizer (DESIGN.md §14).
//!
//! `Stabilizer::canonicalize` never lists the group: it individualizes
//! one position at a time, refines the other cells by the placed node's
//! row, prunes twin branches and breaks ties at the leaves. The rule it
//! must reproduce — materialise every stabilizer permutation in list
//! order, encode each, keep the first minimal one — lives here as the
//! spec, with its own permutation listing, `apply_perm` and `encode`, so
//! the search path has no twin in `src/`. On seeded random states and on
//! the states a quorum-vote search actually reaches, the canonical state,
//! the 20-word encoding and the chosen permutation must all equal the
//! spec's: the permutation decides how sleep masks are relabelled, so a
//! different winner of a tie moves `transitions`, `sleep_skipped` and
//! `fingerprint_hits`. The `moved` mask must *equal* the positions that
//! the listed permutations keeping the representative's `logh` words and
//! rows move: the search skips canonicalizing a decision at an unmoved
//! position, so a missing bit lets an unfolded successor in, while an
//! extra one only costs time, which equality alone catches.
//!
//! Mutation-checked: each of these edits to `Stabilizer` in `search.rs`
//! turns this suite red —
//!
//! * a pruned twin pair is not added to `moved`;
//! * the tied-leaf positions are not cleared when a strictly better leaf
//!   takes over (a safe over-report);
//! * the twin rule keeps the larger twin (prunes `x` while a larger twin
//!   `y` is in its cell);
//! * refinement puts ascending values on ascending positions;
//! * tied branches are dropped (only the first kid with the least row
//!   word goes on);
//! * leaves that tie on every row are compared without the packed fields;
//! * the list-key tie-break is reversed (the last tied leaf wins).
//!
//! A level loop that skips canonicalizing every decision, whatever the
//! mask says, is caught by `reduced_equivalence`'s
//! `decisions_the_ample_rule_leaves_are_pinned`: with the ample rule on,
//! no pin here or there moves.

use am_sched::search::{
    state_fingerprint, successors_compact, CState, LogArena, Stabilizer, ENC_WORDS, MAX_N,
};
use am_sched::{
    search, AsyncProtocol, Config, Op, QuorumVoteProtocol, Ref, SearchOptions, ViewRef,
};
use std::collections::HashSet;

const UNDECIDED: u8 = 0xff;

const IDENTITY: [u8; MAX_N] = [0, 1, 2, 3, 4, 5, 6, 7];

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

fn spec_encode(s: &CState) -> [u64; ENC_WORDS] {
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

/// Node `v` becomes node `p[v]`.
fn spec_apply_perm(s: &CState, p: &[u8; MAX_N]) -> CState {
    let mut t = *s;
    for v in 0..MAX_N {
        let pv = p[v] as usize;
        t.logs[pv] = s.logs[v];
        t.loglen[pv] = s.loglen[v];
        t.logh[pv] = s.logh[v];
        t.own[pv] = s.own[v];
        t.decided[pv] = s.decided[v];
        t.input[pv] = s.input[v];
        for (a, &pa) in p.iter().enumerate() {
            t.view[pv][pa as usize] = s.view[v][a];
        }
    }
    t
}

/// Every permutation of `0..n` that keeps each node's input, identity on
/// `n..MAX_N`, in lexicographic order of the images of (zero-input nodes
/// ascending, then one-input nodes ascending).
fn spec_perms(inputs: &[u8]) -> Vec<[u8; MAX_N]> {
    let n = inputs.len();
    let order: Vec<usize> = (0..n)
        .filter(|&v| inputs[v] == 0)
        .chain((0..n).filter(|&v| inputs[v] == 1))
        .collect();
    let mut images: Vec<Vec<u8>> = vec![Vec::new()];
    for &v in &order {
        let mut longer = Vec::new();
        for prefix in &images {
            for t in (0..n as u8).filter(|&t| inputs[t as usize] == inputs[v]) {
                if !prefix.contains(&t) {
                    longer.push([prefix.as_slice(), &[t]].concat());
                }
            }
        }
        images = longer;
    }
    images.sort();
    images
        .iter()
        .map(|image| {
            let mut p = IDENTITY;
            for (&v, &t) in order.iter().zip(image) {
                p[v] = t;
            }
            p
        })
        .collect()
}

/// Every position of `r` moved by a listed permutation that keeps its
/// `logh` words and rows: what `Canonical::moved` must equal.
fn spec_moved(r: &CState, perms: &[[u8; MAX_N]]) -> u8 {
    let prefix = |s: &CState| spec_encode(s)[..2 * MAX_N].to_vec();
    let fixes = |p: &&[u8; MAX_N]| prefix(&spec_apply_perm(r, p)) == prefix(r);
    perms.iter().filter(fixes).fold(0, |m, p| {
        (0..MAX_N).fold(m, |m, v| m | u8::from(p[v] as usize != v) << v)
    })
}

/// The rule: first minimal permutation in list order wins.
fn spec_canonicalize(s: &CState, perms: &[[u8; MAX_N]]) -> (CState, [u64; ENC_WORDS], [u8; MAX_N]) {
    let mut best = (*s, spec_encode(s), perms[0]);
    for p in &perms[1..] {
        let t = spec_apply_perm(s, p);
        let e = spec_encode(&t);
        if e < best.1 {
            best = (t, e, *p);
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Seeded random states
// ---------------------------------------------------------------------------

/// splitmix64 — the suite's only randomness, so every run sees the same
/// states.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }
}

/// A random state over `inputs`. Nodes draw a *type* from a pool of
/// `types` and every field is a function of the types involved, so few
/// types make tie-heavy states (one type: every permutation ties and the
/// identity must win) and many make generic ones; `noise` then perturbs
/// single cells so that ties break late, in the view rows or the packed
/// byte fields. Padding nodes keep the values `from_config` gives them.
fn random_state(inputs: &[u8], rng: &mut Rng) -> CState {
    let n = inputs.len();
    let mut arena = LogArena::new();
    let mut s = CState::from_config(&Config::initial(inputs), &mut arena);
    let types = 1 + rng.below(4);
    let ty: Vec<u64> = (0..n).map(|_| rng.below(types)).collect();
    let salt = rng.next();
    let f = |a: u64, b: u64, k: u64| {
        let mut r = Rng(salt ^ (a << 8) ^ (b << 16) ^ (k << 24));
        r.next()
    };
    // 0 = nobody appended, 1 = `logh` a function of the input class
    // (same-input nodes appended the same vote — the common case),
    // 2 = a function of the type (unequal within a class, with repeats).
    let logh_mode = rng.below(3);
    let view_max = 1 + rng.below(3);
    for v in 0..n {
        s.logs[v] = 1 + rng.below(1 << 20) as u32;
        match logh_mode {
            0 => {}
            1 => s.logh[v] = f(u64::from(inputs[v]), 0, 1),
            _ if f(ty[v], 0, 2) % 3 > 0 => s.logh[v] = f(ty[v], 0, 3),
            _ => {}
        }
        s.loglen[v] = (f(ty[v], 0, 4) % 3) as u8;
        s.own[v] = (f(ty[v], 0, 5) % 2) as u8;
        s.decided[v] = match f(ty[v], 0, 6) % 4 {
            0 => 0,
            1 => 1,
            _ => UNDECIDED,
        };
        for a in 0..n {
            let diag = u64::from(a == v);
            s.view[v][a] = (f(ty[v], ty[a], 7 + diag) % (view_max + 1)) as u8;
        }
    }
    for _ in 0..rng.below(3) {
        let (v, a) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        match rng.below(4) {
            0 => s.view[v][a] = s.view[v][a].wrapping_add(1) % 4,
            1 => s.own[v] ^= 1,
            2 => s.decided[v] = [0, 1, UNDECIDED][rng.below(3) as usize],
            _ => s.loglen[v] = (s.loglen[v] + 1) % 3,
        }
    }
    s
}

/// Every split of every n in 2..=MAX_N (one-sided and singleton classes
/// included), zeros and ones interleaved at random; fewer states where
/// the spec has to walk thousands of permutations.
#[test]
fn matches_the_materialising_spec() {
    let mut rng = Rng(0x5eed_ca11);
    let (mut states, mut folded, mut unequal_logh, mut full_ties) = (0, 0, 0, 0);
    let mut partly_moved = 0;
    for n in 2..=MAX_N {
        for zeros in 0..=n {
            let order: usize = (1..=zeros).product::<usize>() * (1..=n - zeros).product::<usize>();
            let count = match order {
                0..=720 => 60,
                721..=5040 => 12,
                _ => 4,
            };
            for _ in 0..count {
                let mut inputs: Vec<u8> = (0..n).map(|v| u8::from(v >= zeros)).collect();
                for i in (1..n).rev() {
                    inputs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let s = random_state(&inputs, &mut rng);
                let perms = spec_perms(&inputs);
                assert_eq!(perms.len(), order);
                let stab = Stabilizer::new(&inputs);
                assert_eq!(stab.order(), order);

                let want = spec_canonicalize(&s, &perms);
                let got = stab.canonicalize(&s);
                assert_eq!(
                    got.perm, want.2,
                    "permutation, inputs {inputs:?}, state {s:?}"
                );
                assert_eq!(got.enc, want.1, "encoding, inputs {inputs:?}, state {s:?}");
                assert_eq!(got.state, want.0, "state, inputs {inputs:?}, state {s:?}");
                let moved = spec_moved(&want.0, &perms);
                assert_eq!(got.moved, moved, "moved, inputs {inputs:?}, state {s:?}");

                states += 1;
                folded += usize::from(want.2 != perms[0]);
                partly_moved += usize::from(moved != 0 && moved.count_ones() < n as u32);
                unequal_logh += usize::from(
                    (0..n)
                        .any(|a| (0..n).any(|b| inputs[a] == inputs[b] && s.logh[a] != s.logh[b])),
                );
                full_ties += usize::from(
                    order > 1
                        && perms
                            .iter()
                            .all(|p| spec_encode(&spec_apply_perm(&s, p)) == want.1),
                );
            }
        }
    }
    // The generator must keep reaching the cases the rule turns on.
    assert!(states >= 2_000, "{states} states");
    assert!(folded >= 500, "{folded} states folded");
    assert!(
        unequal_logh >= 300,
        "{unequal_logh} states with unequal logh in a class"
    );
    assert!(full_ties >= 100, "{full_ties} fully symmetric states");
    assert!(
        partly_moved >= 300,
        "{partly_moved} states whose prefix symmetry moves some positions only"
    );
}

/// The first `cap` distinct states `successors_compact` reaches
/// breadth-first from `inputs` under the quorum-vote protocol the
/// benchmark searches (quorum `n / 2 + 1`): the raw successors a search
/// hands its canonicalizer, ties between twins included — with the arena
/// that holds their logs.
fn reachable_states(inputs: &[u8], cap: usize) -> (Vec<CState>, LogArena) {
    let n = inputs.len();
    let proto = QuorumVoteProtocol::new(n, n / 2 + 1, 0);
    let mut arena = LogArena::new();
    let root = CState::from_config(&Config::initial(inputs), &mut arena);
    let mut seen = HashSet::from([state_fingerprint(&root)]);
    let mut states = vec![root];
    let mut next = 0;
    while next < states.len() && states.len() < cap {
        let s = states[next];
        next += 1;
        for (_, t) in successors_compact(&proto, &s, &mut arena) {
            if states.len() < cap && seen.insert(state_fingerprint(&t)) {
                states.push(t);
            }
        }
    }
    (states, arena)
}

const REACHED: [&[u8]; 3] = [&[0, 0, 1, 1], &[0, 0, 1, 1, 1], &[0, 1, 1, 1, 1, 1]];

#[test]
fn reachable_states_match_the_materialising_spec() {
    for inputs in REACHED {
        let (states, _) = reachable_states(inputs, 2_000);
        let perms = spec_perms(inputs);
        let stab = Stabilizer::new(inputs);
        let (mut folded, mut partly_moved) = (0, 0);
        for s in &states {
            let want = spec_canonicalize(s, &perms);
            let got = stab.canonicalize(s);
            assert_eq!(
                got.perm, want.2,
                "permutation, inputs {inputs:?}, state {s:?}"
            );
            assert_eq!(got.enc, want.1, "encoding, inputs {inputs:?}, state {s:?}");
            assert_eq!(got.state, want.0, "state, inputs {inputs:?}, state {s:?}");
            let moved = spec_moved(&want.0, &perms);
            assert_eq!(got.moved, moved, "moved, inputs {inputs:?}, state {s:?}");
            folded += usize::from(want.2 != perms[0]);
            partly_moved += usize::from(moved != 0 && moved.count_ones() < inputs.len() as u32);
        }
        assert!(
            states.len() >= 1_000 && folded >= states.len() / 4,
            "inputs {inputs:?}: {} states, {folded} folded",
            states.len()
        );
        assert!(
            partly_moved >= states.len() / 10,
            "inputs {inputs:?}: {partly_moved} states whose prefix symmetry moves some positions only"
        );
    }
}

/// What lets the search skip a decision's canonicalization: from a
/// representative, a `Decide` by a node at a position its prefix symmetry
/// does not move reaches a state that is its own representative under the
/// identity, with the same `moved`.
#[test]
fn a_decision_at_an_unmoved_position_is_its_own_representative() {
    for inputs in REACHED {
        let (states, mut arena) = reachable_states(inputs, 2_000);
        let n = inputs.len();
        let proto = QuorumVoteProtocol::new(n, n / 2 + 1, 0);
        let stab = Stabilizer::new(inputs);
        let (mut skipped, mut kept) = (0, 0);
        for s in &states {
            let r = stab.canonicalize(s);
            for (v, t) in successors_compact(&proto, &r.state, &mut arena) {
                if t.decided[v] == r.state.decided[v] {
                    continue; // not a decision
                }
                if r.moved >> v & 1 != 0 {
                    kept += 1;
                    continue;
                }
                let got = stab.canonicalize(&t);
                assert_eq!(
                    (got.state, got.enc, got.perm, got.moved),
                    (t, spec_encode(&t), IDENTITY, r.moved),
                    "inputs {inputs:?}, node {v} decides from {:?}",
                    r.state
                );
                skipped += 1;
            }
        }
        assert!(
            skipped >= 100 && kept >= 30,
            "inputs {inputs:?}: {skipped} decisions at unmoved positions, {kept} at moved ones"
        );
    }
}

/// The quotient is well defined: every state of an orbit canonicalizes to
/// the same encoding and the same state up to arena ids riding along.
#[test]
fn orbit_mates_share_the_representative() {
    let mut rng = Rng(0x0b17_5eed);
    for _ in 0..300 {
        let n = 2 + rng.below(5) as usize;
        let inputs: Vec<u8> = (0..n).map(|_| rng.below(2) as u8).collect();
        let s = random_state(&inputs, &mut rng);
        let perms = spec_perms(&inputs);
        let stab = Stabilizer::new(&inputs);
        let p = perms[rng.below(perms.len() as u64) as usize];
        let (a, b) = (
            stab.canonicalize(&s),
            stab.canonicalize(&spec_apply_perm(&s, &p)),
        );
        assert_eq!(a.enc, b.enc, "inputs {inputs:?}, perm {p:?}, state {s:?}");
    }
}

// ---------------------------------------------------------------------------
// The symmetry precondition
// ---------------------------------------------------------------------------

/// Claims symmetry, but its second append references an entry by author
/// index — exactly what relabelling authors cannot carry along.
struct ParentRefProtocol;

impl AsyncProtocol for ParentRefProtocol {
    fn n(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        "parent-ref".to_string()
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn next_op(&self, node: usize, input: u8, own: usize, _: &ViewRef<'_>, _: bool) -> Op {
        match own {
            0 => Op::Append {
                value: input,
                parents: Vec::new(),
            },
            1 => Op::Append {
                value: input,
                parents: vec![Ref {
                    author: node as u8,
                    seq: 0,
                }],
            },
            _ => Op::Decide(input),
        }
    }
}

#[test]
#[should_panic(expected = "AsyncProtocol::symmetric requires parent-free entries")]
fn symmetric_protocol_appending_parents_is_refused() {
    search(
        &ParentRefProtocol,
        &Config::initial(&[0, 1, 1]),
        &SearchOptions::reduced(10_000),
    );
}

/// The same protocol is searched without complaint when nothing folds.
#[test]
fn parent_refs_are_fine_without_the_quotient() {
    let mut opts = SearchOptions::reduced(10_000);
    opts.symmetry = false;
    let rep = search(&ParentRefProtocol, &Config::initial(&[0, 1, 1]), &opts);
    assert!(!rep.truncated);
}
