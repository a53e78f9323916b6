//! Model-checking a consensus protocol in the append memory.
//!
//! ```text
//! cargo run --release --example model_checking
//! ```
//!
//! Takes the "quorum vote" protocol family and lets the Theorem 2.1
//! machinery loose on it: exhaustive safety analysis per initial
//! configuration, with validity asserted on the all-zero inputs,
//! bivalent-start search (Lemma 2.2), and the round-robin adversarial
//! schedule (Theorem 2.1). The Lemma 3.1 round lower bound is E2's
//! (`am-experiments e2`).

use append_memory::sched::{
    initial_bivalent, round_robin_witness, AsyncProtocol, Config, Explorer, QuorumVoteProtocol,
    SearchOptions, Valency, WitnessOutcome,
};

fn main() {
    let budget = 300_000;
    for (q, tie) in [(3usize, 0u8), (2, 0), (2, 1)] {
        let proto = QuorumVoteProtocol::new(3, q, tie);
        println!("=== {} ===", proto.name());
        let ex = Explorer::new(&proto, budget);

        // Exhaustive pass over all 2^3 initial input vectors.
        for mask in 0..8u32 {
            let inputs: Vec<u8> = (0..3).map(|i| ((mask >> i) & 1) as u8).collect();
            let a = ex.analyze(&Config::initial(&inputs));
            println!(
                "  inputs {:?}: {:4} configs, valency {:?}{}{}",
                inputs,
                a.configs,
                a.valency,
                if a.agreement_violation.is_some() {
                    ", AGREEMENT BROKEN"
                } else {
                    ""
                },
                if let Some((v, _)) = &a.vfree_nontermination {
                    format!(", stuck if v{v} crashes")
                } else {
                    String::new()
                },
            );
            // Validity sanity: uniform inputs must be univalent that way.
            if inputs.iter().all(|&b| b == 0) {
                assert_eq!(a.valency, Valency::Zero);
            }
        }

        // Lemma 2.2 + Theorem 2.1.
        let opts = SearchOptions::reduced(budget);
        match initial_bivalent(&proto, &opts) {
            Some((inputs, _)) => {
                println!("  bivalent start: {inputs:?}");
                let w = round_robin_witness(&proto, 9, &opts);
                match w.outcome {
                    WitnessOutcome::KeptBivalent => println!(
                        "  round-robin adversary kept it bivalent for {} real steps \
                         (+{} null reads): schedule {:?}",
                        w.schedule.len(),
                        w.null_steps,
                        w.schedule
                    ),
                    o => println!("  witness ended: {o:?}"),
                }
            }
            None => println!("  no bivalent start (protocol sacrifices validity or liveness)"),
        }
        println!();
    }
}
