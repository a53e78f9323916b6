//! Property-based tests for the append memory core.
//!
//! Strategy: generate random append histories (random authors, random
//! parent choices among existing messages, random values) and assert the
//! structural invariants the rest of the workspace relies on.

use am_core::{
    chain, check_view, ghost, linearize, pivot_chain, AppendMemory, DagIndex, DagRead, MemoryView,
    MessageBuilder, MsgId, NodeId, Value, GENESIS,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A chain-selection rule: its name and the chain it picks, root first.
type Rule = (&'static str, fn(&MemoryView) -> Vec<MsgId>);

/// Every chain rule Algorithm 6 may order the DAG by.
const RULES: [Rule; 3] = [
    ("longest-chain", chain::longest_chain),
    ("ghost", ghost::ghost_pivot),
    ("pivot", pivot_chain),
];

/// A recipe for one append: author index, parent picks (as fractions of the
/// current memory size), and a spin value.
#[derive(Clone, Debug)]
struct AppendSpec {
    author: u32,
    parent_picks: Vec<u16>,
    plus: bool,
}

fn append_spec(n_nodes: u32) -> impl Strategy<Value = AppendSpec> {
    (
        0..n_nodes,
        prop::collection::vec(any::<u16>(), 1..4),
        any::<bool>(),
    )
        .prop_map(|(author, parent_picks, plus)| AppendSpec {
            author,
            parent_picks,
            plus,
        })
}

/// Builds a memory from specs; parents are resolved modulo current length.
fn build_memory(n_nodes: u32, specs: &[AppendSpec]) -> AppendMemory {
    let mem = AppendMemory::new(n_nodes as usize);
    for s in specs {
        let len = mem.len() as u64;
        let parents: Vec<MsgId> = s
            .parent_picks
            .iter()
            .map(|&p| MsgId(p as u64 % len))
            .collect();
        let v = if s.plus {
            Value::plus()
        } else {
            Value::minus()
        };
        mem.append(MessageBuilder::new(NodeId(s.author), v).parents(parents))
            .expect("generated append is always valid");
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_views_satisfy_all_invariants(
        specs in prop::collection::vec(append_spec(5), 0..60)
    ) {
        let mem = build_memory(5, &specs);
        let view = mem.read();
        prop_assert!(check_view(&view, true).is_empty());
    }

    #[test]
    fn prefix_views_are_prefixes(
        specs in prop::collection::vec(append_spec(4), 1..40),
        cut in any::<u16>(),
    ) {
        let mem = build_memory(4, &specs);
        let full = mem.read();
        let cut = 1 + (cut as usize % full.len());
        let pre = mem.read_prefix(cut);
        prop_assert!(pre.is_prefix_of(&full));
        prop_assert!(check_view(&pre, false).is_empty());
    }

    #[test]
    fn linearization_respects_topology_and_covers_past_cone(
        specs in prop::collection::vec(append_spec(5), 1..50)
    ) {
        let mem = build_memory(5, &specs);
        let view = mem.read();
        for (name, select) in RULES {
            let lin = linearize(&view, &select(&view));
            // No duplicates; covered + uncovered == all messages.
            let mut seen = std::collections::HashSet::new();
            for &id in &lin.order {
                prop_assert!(seen.insert(id), "duplicate {id:?} in order");
            }
            for &id in &lin.uncovered {
                prop_assert!(seen.insert(id), "uncovered {id:?} also in order");
            }
            prop_assert_eq!(seen.len(), view.len());
            // Topological: every parent of an ordered message that is also
            // ordered must precede it.
            let pos: std::collections::HashMap<MsgId, usize> =
                lin.order.iter().copied().enumerate().map(|(i, id)| (id, i)).collect();
            for &id in &lin.order {
                let m = view.get(id).unwrap();
                for &p in &m.parents {
                    if let Some(&pp) = pos.get(&p) {
                        prop_assert!(pp < pos[&id],
                            "{p:?} must precede {id:?} under {name}");
                    }
                }
            }
        }
    }

    #[test]
    fn selected_chains_are_real_paths(
        specs in prop::collection::vec(append_spec(4), 1..50)
    ) {
        let mem = build_memory(4, &specs);
        let view = mem.read();
        for (name, select) in RULES {
            let c = select(&view);
            prop_assert_eq!(c[0], GENESIS, "chains start at genesis");
            // Consecutive chain elements are parent→child edges.
            for w in c.windows(2) {
                let child = view.get(w[1]).unwrap();
                prop_assert!(child.parents.contains(&w[0]),
                    "{:?} not a parent of {:?} under {name}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn longest_chain_has_max_depth_length(
        specs in prop::collection::vec(append_spec(4), 1..50)
    ) {
        let mem = build_memory(4, &specs);
        let view = mem.read();
        let dag = DagIndex::new(&view);
        let c = chain::longest_chain(&view);
        prop_assert_eq!(c.len() as u32, dag.max_depth() + 1);
    }

    #[test]
    fn longest_chain_starts_at_the_first_deepest_block(
        specs in prop::collection::vec(append_spec(4), 0..60),
        keep in prop::collection::vec(any::<bool>(), 61),
    ) {
        // The full view, and a sparse one (any message, genesis included,
        // may go) whose index drops the references that leave it, so it
        // can have several roots or none at all.
        let full = build_memory(4, &specs).read();
        let sparse = MemoryView::from_messages(
            full.iter()
                .zip(&keep)
                .filter(|&(_, &k)| k)
                .map(|(m, _)| Arc::clone(m))
                .collect::<Vec<_>>(),
        );
        for view in [full, sparse] {
            let dag = DagIndex::new(&view);
            let max = (0..dag.len()).map(|i| dag.depth_of(i)).max();
            let first = (0..dag.len()).find(|&i| Some(dag.depth_of(i)) == max);
            let scan = first.map_or_else(Vec::new, |tip| chain::chain_to_genesis(&dag, tip));
            prop_assert_eq!(chain::longest_chain_positions(&dag), scan);
        }
    }

    #[test]
    fn ghost_weights_dominate_children(
        specs in prop::collection::vec(append_spec(4), 1..40)
    ) {
        let mem = build_memory(4, &specs);
        let dag = DagIndex::new(&mem.read());
        let mut gs = ghost::GhostScratch::new();
        ghost::subtree_weights_in(&dag, &mut gs);
        let w = gs.weights();
        for pos in 0..dag.len() {
            for &c in dag.children_of(pos) {
                prop_assert!(w[pos] > w[c as usize],
                    "parent weight must strictly exceed any child's");
            }
            prop_assert!(w[pos] >= 1);
        }
    }

    #[test]
    fn snapshots_are_immutable_under_concurrent_growth(
        specs in prop::collection::vec(append_spec(3), 1..30)
    ) {
        let mem = build_memory(3, &specs);
        let before = mem.read();
        let len_before = before.len();
        mem.append(MessageBuilder::new(NodeId(0), Value::plus()).parent(GENESIS)).unwrap();
        prop_assert_eq!(before.len(), len_before);
        prop_assert_eq!(mem.read().len(), len_before + 1);
    }

    #[test]
    fn register_reads_are_gap_free(
        specs in prop::collection::vec(append_spec(5), 0..50)
    ) {
        let mem = build_memory(5, &specs);
        for a in 0..5u32 {
            let reg = mem.read_register(NodeId(a));
            for (i, m) in reg.iter().enumerate() {
                prop_assert_eq!(m.seq, i as u64);
                prop_assert_eq!(m.author, Some(NodeId(a)));
            }
        }
    }

    #[test]
    fn linearize_is_stable_under_view_identity(
        specs in prop::collection::vec(append_spec(4), 1..40)
    ) {
        let mem = build_memory(4, &specs);
        let v1 = mem.read();
        let v2 = mem.read();
        let c = chain::longest_chain(&v1);
        prop_assert_eq!(linearize(&v1, &c), linearize(&v2, &c));
    }
}
