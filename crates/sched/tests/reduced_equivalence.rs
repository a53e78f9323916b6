//! Reduced-vs-naive equivalence suite: the compact search core of
//! `am_sched::search` (interning + fingerprinting + sleep sets + ample
//! decide + symmetry folding) must be a *verdict-preserving* drop-in for
//! the naive [`Explorer`] on every protocol in the zoo — same valency for
//! every input vector, an agreement/v-free witness iff the naive search
//! finds one, and (with sleep sets alone) the exact same reachable state
//! count. The bivalence-witness pipeline is held, schedule for schedule,
//! to the same construction driven by the `Explorer`; the nonforking DAG
//! search is held, counter for counter, to a replay-every-state search
//! written here on the public `am_bft::FinalityOracle`. Neither reference
//! has a twin in `src/` (DESIGN.md §6, "Specs and pins").

use am_bft::FinalityOracle;
use am_core::{MsgId, GENESIS};
use am_sched::search::{state_fingerprint, CState, LogArena};
use am_sched::{
    check_nonforking, round_robin_witness, search, AsyncProtocol, Config, EchoVoteProtocol,
    Explorer, FirstSeenProtocol, QuorumVoteProtocol, SearchMode, SearchOptions, SearchReport,
    Valency, Witness, WitnessOutcome,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

const BUDGET: usize = 500_000;

/// The protocol zoo at `n` nodes: one asymmetric member (FirstSeen
/// tie-breaks on author index) and two symmetric ones.
fn zoo(n: usize) -> Vec<(&'static str, Box<dyn AsyncProtocol>)> {
    vec![
        (
            "first-seen",
            Box::new(FirstSeenProtocol::new(n)) as Box<dyn AsyncProtocol>,
        ),
        (
            "quorum-vote",
            Box::new(QuorumVoteProtocol::new(n, n / 2 + 1, 0)),
        ),
        (
            "quorum-vote-unanimous",
            Box::new(QuorumVoteProtocol::new(n, n, 1)),
        ),
        (
            "echo-vote",
            Box::new(EchoVoteProtocol::new(n, n / 2 + 1, 0)),
        ),
    ]
}

/// Every input vector of length `n`, as `Config`s.
fn all_initials(n: usize) -> impl Iterator<Item = Config> {
    (0..(1u32 << n)).map(move |mask| {
        let inputs: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
        Config::initial(&inputs)
    })
}

#[test]
fn reduced_search_matches_naive_valency_on_every_input_vector() {
    for (name, proto) in zoo(3) {
        let ex = Explorer::new(proto.as_ref(), BUDGET);
        for c in all_initials(3) {
            let naive = ex.analyze(&c);
            assert!(!naive.truncated, "{name}: naive budget too small");
            let rep = search(proto.as_ref(), &c, &SearchOptions::reduced(BUDGET));
            assert!(!rep.truncated, "{name}: reduced budget too small");
            assert_eq!(rep.valency, naive.valency, "{name} at {:?}", c);
            assert_eq!(
                rep.agreement_violation.is_some(),
                naive.agreement_violation.is_some(),
                "{name}: agreement witness must exist iff naive finds one"
            );
            assert_eq!(
                rep.vfree_nontermination.is_some(),
                naive.vfree_nontermination.is_some(),
                "{name}: v-free witness must exist iff naive finds one"
            );
        }
    }
}

#[test]
fn sleep_sets_alone_preserve_the_exact_state_count() {
    // Sleep sets prune *transitions*, never states: with every other
    // reduction off and exact keys on, the visited count must equal the
    // naive explorer's distinct-configuration count, protocol by
    // protocol, input vector by input vector.
    for (name, proto) in zoo(3) {
        let ex = Explorer::new(proto.as_ref(), BUDGET);
        let mut opts = SearchOptions::unreduced(BUDGET);
        opts.sleep_sets = true;
        for c in all_initials(3) {
            let naive = ex.analyze(&c);
            let rep = search(proto.as_ref(), &c, &opts);
            assert_eq!(
                rep.states, naive.configs,
                "{name} at {:?}: sleep sets must preserve the state set",
                c
            );
            assert_eq!(rep.collisions, 0, "{name}: exact mode saw an fp collision");
        }
    }
}

/// The fingerprint takes every byte of every encoding word into both of
/// its 64-bit halves: on seeded states, changing any one byte of any of
/// the 20 words (through the `CState` field it encodes) changes both. A
/// mixer that skipped a word, or a lane that skipped the word's high
/// bytes, fails here; the exact-mode audits above bound what the two
/// halves together let collide.
#[test]
fn one_changed_byte_changes_both_fingerprint_halves() {
    let mut seed = 0x5eed_f00d_u64;
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) ^ seed >> 31
    };
    let base = CState::from_config(&Config::initial(&[0; 8]), &mut LogArena::new());
    for _ in 0..50 {
        let mut s = base;
        s.logh = std::array::from_fn(|_| next());
        s.view = std::array::from_fn(|_| next().to_le_bytes());
        (s.loglen, s.own) = (next().to_le_bytes(), next().to_le_bytes());
        (s.decided, s.input) = (next().to_le_bytes(), next().to_le_bytes());
        let fp = state_fingerprint(&s);
        for word in 0..20 {
            for b in 0..8 {
                let flip = (next() as u8) | 1;
                let mut t = s;
                match word {
                    0..=7 => t.logh[word] ^= u64::from(flip) << (8 * b),
                    8..=15 => t.view[word - 8][b] ^= flip,
                    16 => t.loglen[b] ^= flip,
                    17 => t.own[b] ^= flip,
                    18 => t.decided[b] ^= flip,
                    _ => t.input[b] ^= flip,
                }
                let ft = state_fingerprint(&t);
                assert_ne!(
                    fp >> 64,
                    ft >> 64,
                    "word {word} byte {b}: high half unchanged"
                );
                assert_ne!(
                    fp as u64, ft as u64,
                    "word {word} byte {b}: low half unchanged"
                );
            }
        }
    }
}

/// The Lemma 2.2 / 2.3 / Theorem 2.1 construction driven by the naive
/// [`Explorer`] alone: first bivalent input vector in mask order, then,
/// node by node round-robin, a breadth-first search (successors in node
/// order) for the nearest bivalent configuration behind an event of that
/// node.
fn explorer_witness(proto: &dyn AsyncProtocol, target_steps: usize) -> Witness {
    let n = proto.n();
    let ex = Explorer::new(proto, BUDGET);
    let mut valency: HashMap<Config, Valency> = HashMap::new();
    let mut valency_of = |c: &Config| *valency.entry(c.clone()).or_insert_with(|| ex.valency_of(c));
    let mut w = Witness {
        inputs: Vec::new(),
        schedule: Vec::new(),
        null_steps: 0,
        outcome: WitnessOutcome::KeptBivalent,
    };
    let start = all_initials(n).find(|c| valency_of(c) == Valency::Bivalent);
    let Some(mut cur) = start else {
        w.outcome = WitnessOutcome::NoBivalentStart;
        return w;
    };
    w.inputs = cur.nodes.iter().map(|node| node.input).collect();
    for node in (0..n).cycle() {
        if w.schedule.len() >= target_steps {
            break;
        }
        if ex.is_passive(&cur, node) {
            w.null_steps += 1;
            if (0..n).all(|v| ex.is_passive(&cur, v)) {
                w.null_steps += target_steps - w.schedule.len();
                break;
            }
            continue;
        }
        let mut queue = VecDeque::from([(cur.clone(), false, Vec::new())]);
        let mut seen = HashSet::from([(cur.clone(), false)]);
        let found = loop {
            let Some((c, hit, path)) = queue.pop_front() else {
                break None;
            };
            if hit && valency_of(&c) == Valency::Bivalent {
                break Some((path, c));
            }
            for v in 0..n {
                if let Some((_, next)) = ex.apply(&c, v) {
                    let hit = hit || v == node;
                    if seen.insert((next.clone(), hit)) {
                        let mut path = path.clone();
                        path.push(v);
                        queue.push_back((next, hit, path));
                    }
                }
            }
        };
        let Some((path, next)) = found else {
            w.outcome = WitnessOutcome::StuckAt {
                node,
                steps: w.schedule.len(),
            };
            break;
        };
        w.schedule.extend(path);
        cur = next;
    }
    w
}

#[test]
fn fast_witness_pipeline_agrees_with_naive_for_every_zoo_protocol() {
    let opts = SearchOptions::reduced(BUDGET);
    for (name, proto) in zoo(3) {
        let naive = explorer_witness(proto.as_ref(), 6);
        let fast = round_robin_witness(proto.as_ref(), 6, &opts);
        assert_eq!(naive.inputs, fast.inputs, "{name}: bivalent start");
        assert_eq!(naive.outcome, fast.outcome, "{name}: witness outcome");
        assert_eq!(naive.schedule, fast.schedule, "{name}: witness schedule");
        assert_eq!(naive.null_steps, fast.null_steps, "{name}: null steps");
    }
}

// ---------------------------------------------------------------------------
// Counter pins of the reduced search
// ---------------------------------------------------------------------------

/// `(states, transitions, por_sleep_skipped, ample_commits,
/// symmetry_folds, fingerprint_hits, truncated, valency)` of one search.
type Counters = (usize, u64, u64, u64, u64, u64, bool, Valency);

fn counters(r: &SearchReport) -> Counters {
    (
        r.states,
        r.transitions,
        r.por_sleep_skipped,
        r.ample_commits,
        r.symmetry_folds,
        r.fingerprint_hits,
        r.truncated,
        r.valency,
    )
}

#[test]
fn reduced_search_counters_are_pinned() {
    // The verdict suites above hold what a search decides; this table
    // holds how it got there. Expansion order, the sleep masks a state
    // is entered with, orbit folding and the early exit all move at
    // least one counter, so a level loop that reorders any of them fails
    // here even when every verdict survives. Echo-vote is the case whose
    // sleep sets are busy enough that a mask not relabelled with its
    // folded state shows (it even loses states).
    let first_seen = FirstSeenProtocol::new(3);
    let q4 = QuorumVoteProtocol::new(4, 3, 0);
    let q5 = QuorumVoteProtocol::new(5, 3, 0);
    let echo = EchoVoteProtocol::new(3, 2, 0);
    let cases: [(&str, &dyn AsyncProtocol, &[u8]); 4] = [
        ("first-seen(3) 011", &first_seen, &[0, 1, 1]),
        ("quorum-vote(4,3,0) 0011", &q4, &[0, 0, 1, 1]),
        ("quorum-vote(5,3,0) 00111", &q5, &[0, 0, 1, 1, 1]),
        ("echo-vote(3,2,0) 011", &echo, &[0, 1, 1]),
    ];
    use SearchMode::{Full, ValencyOnly};
    use Valency::Bivalent;
    #[rustfmt::skip]
    let pinned: [(SearchMode, Counters); 8] = [
        (Full, (20, 24, 0, 12, 0, 5, false, Bivalent)),
        (ValencyOnly, (9, 10, 0, 3, 0, 0, false, Bivalent)),
        (Full, (434, 686, 10, 214, 182, 253, false, Bivalent)),
        (ValencyOnly, (82, 115, 10, 16, 32, 31, false, Bivalent)),
        (Full, (3232, 5004, 38, 1706, 1721, 1773, false, Bivalent)),
        (ValencyOnly, (106, 170, 17, 17, 67, 61, false, Bivalent)),
        (Full, (1125, 1565, 98, 485, 253, 441, false, Bivalent)),
        (ValencyOnly, (280, 333, 61, 14, 89, 52, false, Bivalent)),
    ];
    let runs = cases.iter().flat_map(|&(name, proto, inputs)| {
        [Full, ValencyOnly].map(|mode| {
            let opts = SearchOptions::reduced(BUDGET).with_mode(mode);
            (
                name,
                mode,
                counters(&search(proto, &Config::initial(inputs), &opts)),
            )
        })
    });
    let got: Vec<(&str, SearchMode, Counters)> = runs.collect();
    let rows: Vec<String> = got
        .iter()
        .map(|(_, mode, (s, t, sl, am, sy, fh, tr, v))| {
            format!("({mode:?}, ({s}, {t}, {sl}, {am}, {sy}, {fh}, {tr}, {v:?})),")
        })
        .collect();
    for ((name, mode, c), (pin_mode, pin)) in got.iter().zip(&pinned) {
        assert_eq!(
            (mode, c),
            (pin_mode, pin),
            "{name} {mode:?}; recomputed table:\n{}",
            rows.join("\n")
        );
    }
}

#[test]
fn decisions_the_ample_rule_leaves_are_pinned() {
    // Without the ample rule every pending decision is a successor of its
    // own, and 40 of the 543 here are not their own representative: a
    // search that skips the canonicalization of a decision its state's
    // symmetry can move (DESIGN.md §14) stores those unfolded and reads
    // more states.
    let mut opts = SearchOptions::reduced(BUDGET);
    opts.ample_decide = false;
    let q4 = QuorumVoteProtocol::new(4, 3, 0);
    let r = search(&q4, &Config::initial(&[0, 0, 1, 1]), &opts);
    assert_eq!(
        (counters(&r), r.agreement_violation.is_some()),
        (
            (916, 1214, 1304, 0, 283, 299, false, Valency::Bivalent),
            true
        )
    );
}

// ---------------------------------------------------------------------------
// Nonforking: the replay-every-state spec
// ---------------------------------------------------------------------------

/// One block of a history in the spec search: ids are positions + 1.
struct SpecBlock {
    author: usize,
    parents: Vec<MsgId>,
    depth: usize,
    /// Structural name, equal across interleavings that build the same
    /// logical block under different ids.
    name: u32,
}

/// The nonforking universe explored the obvious way: every interleaving,
/// no pruning, and at every state a fresh [`FinalityOracle`] replays the
/// whole history.
#[derive(Default)]
struct NonforkingSpec {
    n: usize,
    byz: Vec<bool>,
    max_blocks: usize,
    states: usize,
    finalizing_states: usize,
    equivocating_states: usize,
    max_finalized: usize,
    violation: bool,
    names: HashMap<(usize, Vec<u32>, usize), u32>,
    /// Sorted name set → finalized chains (as name sequences) seen at
    /// states holding exactly that set.
    groups: HashMap<Vec<u32>, Vec<Vec<u32>>>,
}

impl NonforkingSpec {
    fn name_of(blocks: &[SpecBlock], id: MsgId) -> u32 {
        if id == GENESIS {
            0
        } else {
            blocks[id.index() - 1].name
        }
    }

    /// The honest parent rule on the view "genesis + first `p` blocks":
    /// the deepest visible block (ties to the smallest id), then the
    /// author's own last block, then every other visible tip by id.
    fn parents(blocks: &[SpecBlock], p: usize, own: MsgId) -> Vec<MsgId> {
        let visible = || (1..=p as u64).map(MsgId);
        let depth = |id: MsgId| blocks[id.index() - 1].depth;
        let deepest = visible().map(depth).max().unwrap_or(0);
        let sel = visible()
            .find(|&id| depth(id) == deepest)
            .unwrap_or(GENESIS);
        let mut parents = vec![sel];
        if own != sel && own != GENESIS && own.index() <= p {
            parents.push(own);
        }
        let referenced: HashSet<MsgId> = blocks[..p]
            .iter()
            .flat_map(|b| b.parents.iter().copied())
            .collect();
        for id in std::iter::once(GENESIS).chain(visible()) {
            if !referenced.contains(&id) && id != sel && id != own {
                parents.push(id);
            }
        }
        parents
    }

    fn explore(&mut self, blocks: &mut Vec<SpecBlock>, parent_chain: &[MsgId]) {
        if blocks.len() >= self.max_blocks {
            return;
        }
        for node in 0..self.n {
            // Correct: the full view with a self-parent. Byzantine: any
            // prefix, no self-parent.
            let (prefixes, own) = if self.byz[node] {
                (0..=blocks.len(), GENESIS)
            } else {
                let last = blocks.iter().rposition(|b| b.author == node);
                let own = last.map_or(GENESIS, |i| MsgId(i as u64 + 1));
                (blocks.len()..=blocks.len(), own)
            };
            for p in prefixes {
                let parents = Self::parents(blocks, p, own);
                let depth = 1 + parents
                    .iter()
                    .map(|&pa| pa.index().checked_sub(1).map_or(0, |i| blocks[i].depth))
                    .max()
                    .unwrap();
                let base: Vec<u32> = parents
                    .iter()
                    .map(|&pa| Self::name_of(blocks, pa))
                    .collect();
                let mut twin = 0usize;
                let name = loop {
                    let fresh = self.names.len() as u32 + 1;
                    let name = *self
                        .names
                        .entry((node, base.clone(), twin))
                        .or_insert(fresh);
                    if blocks.iter().all(|b| b.name != name) {
                        break name;
                    }
                    twin += 1;
                };
                blocks.push(SpecBlock {
                    author: node,
                    parents,
                    depth,
                    name,
                });
                self.visit(blocks, parent_chain);
                blocks.pop();
            }
        }
    }

    fn visit(&mut self, blocks: &mut Vec<SpecBlock>, parent_chain: &[MsgId]) {
        self.states += 1;
        let mut oracle = FinalityOracle::new(self.n);
        for (i, b) in blocks.iter().enumerate() {
            oracle.observe(MsgId(i as u64 + 1), b.author, &b.parents);
        }
        let chain = oracle.finalized_chain();
        self.equivocating_states += usize::from(oracle.equivocator_count() > 0);
        self.finalizing_states += usize::from(chain.len() > 1);
        self.max_finalized = self.max_finalized.max(chain.len().saturating_sub(1));
        let names: Vec<u32> = chain.iter().map(|&id| Self::name_of(blocks, id)).collect();
        let mut set: Vec<u32> = blocks.iter().map(|b| b.name).collect();
        set.sort_unstable();
        let peers = self.groups.entry(set).or_default();
        let forks = peers.iter().any(|peer| {
            let m = peer.len().min(names.len());
            peer[..m] != names[..m]
        });
        peers.push(names);
        self.violation |= oracle.conflict_detected() || !chain.starts_with(parent_chain) || forks;
        self.explore(blocks, &chain);
    }

    fn run(n: usize, byz: &[usize], max_blocks: usize) -> NonforkingSpec {
        let mut spec = NonforkingSpec {
            n,
            byz: (0..n).map(|v| byz.contains(&v)).collect(),
            max_blocks,
            ..NonforkingSpec::default()
        };
        spec.explore(&mut Vec::new(), &FinalityOracle::new(n).finalized_chain());
        spec
    }
}

#[test]
fn nonforking_reduced_verdicts_match_naive() {
    let mut finalizing = 0;
    for (byz, max_blocks) in [(&[][..], 6), (&[1][..], 5), (&[2][..], 6)] {
        let fast = check_nonforking(3, byz, max_blocks, 400_000);
        let naive = NonforkingSpec::run(3, byz, max_blocks);
        assert!(!fast.truncated, "byz {byz:?}");
        assert_eq!(fast.violation.is_some(), naive.violation, "byz {byz:?}");
        assert_eq!(fast.states, naive.states, "byz {byz:?}");
        assert_eq!(fast.max_finalized, naive.max_finalized, "byz {byz:?}");
        assert_eq!(
            fast.finalizing_states, naive.finalizing_states,
            "byz {byz:?}"
        );
        assert_eq!(
            fast.equivocating_states, naive.equivocating_states,
            "byz {byz:?}"
        );
        assert!(fast.observes_saved > 0, "reduction must actually fire");
        finalizing += naive.finalizing_states;
    }
    assert!(finalizing > 0, "no compared universe reaches finality");
}

// ---------------------------------------------------------------------------
// Symmetry canonicalization property
// ---------------------------------------------------------------------------

/// Builds a permutation of `0..n` that fixes the input vector (only nodes
/// with equal inputs are swapped), from an arbitrary shuffled order: the
/// members of each input class are re-mapped to the class members in the
/// order the shuffle lists them.
fn class_fixing_perm(inputs: &[u8], order: &[usize]) -> Vec<usize> {
    let n = inputs.len();
    let mut perm = vec![0usize; n];
    for class in [0u8, 1] {
        let members: Vec<usize> = (0..n).filter(|&i| inputs[i] == class).collect();
        let shuffled: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| inputs[i] == class)
            .collect();
        for (m, s) in members.iter().zip(shuffled.iter()) {
            perm[*m] = *s;
        }
    }
    perm
}

/// Runs a schedule (list of node indices; passive steps are skipped) from
/// the all-inputs initial configuration.
fn run_schedule(proto: &dyn AsyncProtocol, inputs: &[u8], schedule: &[usize]) -> Config {
    let ex = Explorer::new(proto, BUDGET);
    let mut c = Config::initial(inputs);
    for &v in schedule {
        if let Some((_, next)) = ex.apply(&c, v) {
            c = next;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `canon(perm(s)) == canon(s)`: for a symmetric protocol, running a
    /// schedule and running its node-permuted image (under any
    /// permutation that fixes the input vector) must land in the same
    /// symmetry orbit — i.e. produce the identical canonical key.
    #[test]
    fn canonical_key_is_invariant_under_input_fixing_permutations(
        quorumish in 0u8..2,
        n in 3usize..5,
        mask in 0u32..32,
        schedule in proptest::collection::vec(0usize..5, 0..8),
        keys in proptest::collection::vec(0u32..1000, 5),
    ) {
        let proto: Box<dyn AsyncProtocol> = if quorumish == 0 {
            Box::new(QuorumVoteProtocol::new(n, n / 2 + 1, 0))
        } else {
            Box::new(EchoVoteProtocol::new(n, n / 2 + 1, 0))
        };
        prop_assume!(proto.symmetric());
        let inputs: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
        let schedule: Vec<usize> = schedule.into_iter().map(|v| v % n).collect();
        // A shuffle of 0..n derived from random sort keys (index tiebreak
        // keeps it a permutation even with duplicate keys).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let perm = class_fixing_perm(&inputs, &order);

        // perm fixes the input vector by construction.
        for i in 0..n {
            prop_assert_eq!(inputs[perm[i]], inputs[i]);
        }

        let a = run_schedule(proto.as_ref(), &inputs, &schedule);
        let permuted: Vec<usize> = schedule.iter().map(|&v| perm[v]).collect();
        let b = run_schedule(proto.as_ref(), &inputs, &permuted);

        prop_assert_eq!(
            am_sched::canonical_key(&a, true),
            am_sched::canonical_key(&b, true),
            "orbit-mates must share a canonical key"
        );
    }
}
