//! DAG ordering rules under adversarial shapes: GHOST vs longest chain.
//!
//! ```text
//! cargo run --release --example dag_ordering
//! ```
//!
//! Crafts the classic "long thin branch vs short bushy branch" DAG where
//! the two rules (am-core's plain rule functions) disagree, then runs
//! Algorithm 6 trials under the withhold-burst adversary with both
//! `DagRule`s to compare outcomes.

use append_memory::core::{
    ghost_pivot, linearize, longest_chain, AppendMemory, MessageBuilder, MsgId, NodeId, Value,
    GENESIS,
};
use append_memory::protocols::{run_dag, DagAdversary, DagRule, Params};

fn append(m: &AppendMemory, a: u32, parents: &[MsgId]) -> MsgId {
    m.append(MessageBuilder::new(NodeId(a), Value::plus()).parents(parents.iter().copied()))
        .unwrap()
}

fn main() {
    // Hand-crafted divergence: attacker mines a long private chain (A),
    // honest nodes produce a bushy subtree (B).
    let mem = AppendMemory::new(8);
    let a1 = append(&mem, 0, &[GENESIS]);
    let a2 = append(&mem, 0, &[a1]);
    let a3 = append(&mem, 0, &[a2]);
    let a4 = append(&mem, 0, &[a3]); // depth 4, weight 5
    let b1 = append(&mem, 1, &[GENESIS]);
    for i in 2..7 {
        append(&mem, i, &[b1]); // bushy: weight of b1's cone = 6
    }
    let view = mem.read();

    let lc = longest_chain(&view);
    let gp = ghost_pivot(&view);
    println!(
        "longest chain tip: {:?} (follows the thin branch)",
        lc.last()
    );
    println!(
        "ghost pivot path:  {:?} (follows the bushy branch)",
        &gp[..2]
    );
    assert_eq!(lc.last(), Some(&a4));
    assert_eq!(gp[1], b1);

    // Linearizations cover different prefixes first — the rule choice
    // changes which values the first-k decision sees.
    let lin_lc = linearize(&view, &lc);
    let lin_gp = linearize(&view, &gp);
    println!("\nlongest-chain order: {:?}", lin_lc.order);
    println!("ghost order:         {:?}", lin_gp.order);

    // Algorithm 6 end-to-end under both rules, withhold-burst adversary.
    println!("\nAlgorithm 6, n = 12, t = 4, λ = 0.4, k = 41, 30 seeds each:");
    for rule in [DagRule::LongestChain, DagRule::Ghost] {
        let mut fails = 0;
        let mut bursts = 0usize;
        for seed in 0..30 {
            let p = Params::new(12, 4, 0.4, 41, seed);
            let out = run_dag(&p, rule, DagAdversary::WithholdBurst);
            if !out.validity {
                fails += 1;
            }
            bursts += out.burst_len;
        }
        println!(
            "  {rule:?}: {fails}/30 validity failures, mean burst {:.1}",
            bursts as f64 / 30.0
        );
    }
    println!("\nBoth rules hold validity at t/n = 1/3 — the DAG's resilience");
    println!("does not hinge on the specific chain rule (Theorem 5.6).");
}
