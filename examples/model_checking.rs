//! Model-checking a consensus protocol in the append memory.
//!
//! ```text
//! cargo run --release --example model_checking
//! ```
//!
//! Takes the "quorum vote" protocol family and lets the Theorem 2.1
//! machinery loose on it: exhaustive safety analysis per initial
//! configuration, bivalent-start search (Lemma 2.2), and the round-robin
//! adversarial schedule (Theorem 2.1).
//!
//! A second mode splits the Lemma 3.1 round-lower-bound frontier across
//! OS processes, mirroring the experiments CLI's sweep sharding
//! (DESIGN.md §8, "Sweep lifecycle"): each shard owns the input masks in
//! its residue class, writes its tagged witnesses to a small JSON file, and a merge
//! pass reproduces `search_disagreement_t_parallel`'s answer exactly:
//!
//! ```text
//! model_checking round-lb --n 4 --t 1 --rounds 2 --shard 0/2 --out-dir out
//! model_checking round-lb --n 4 --t 1 --rounds 2 --shard 1/2 --out-dir out
//! model_checking round-lb --n 4 --t 1 --rounds 2 --merge 2 --out-dir out
//! ```

use append_memory::sched::round_lb::ByzAction;
use append_memory::sched::{
    initial_bivalent, merge_round_lb_shards, round_robin_witness, search_disagreement_t_shard,
    AsyncProtocol, Config, Disagreement, Explorer, QuorumVoteProtocol, RoundLbShard, SearchOptions,
    Valency, WitnessOutcome,
};
use serde_json::Value;

fn rl_usage(err: &str) -> ! {
    eprintln!("model_checking round-lb: {err}");
    eprintln!(
        "usage: model_checking round-lb [--n N] [--t T] [--rounds R] [--tie B] \
         [--shard I/M --out-dir DIR | --merge M --out-dir DIR]"
    );
    std::process::exit(2);
}

fn rl_parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        rl_usage(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| rl_usage(&format!("bad value {v:?} for {flag}")))
}

fn uint(x: u64) -> Value {
    Value::Number(serde::Number::UInt(x))
}

/// Serializes one tagged witness — am-sched carries no serde dependency,
/// so the example owns the (tiny) JSON mirror of [`Disagreement`].
fn witness_json(w: &Option<(usize, Disagreement)>) -> Value {
    let Some((idx, d)) = w else {
        return Value::Null;
    };
    Value::Object(vec![
        ("idx".to_string(), uint(*idx as u64)),
        (
            "inputs".to_string(),
            Value::Array(d.inputs.iter().map(|&b| uint(u64::from(b))).collect()),
        ),
        (
            "decisions".to_string(),
            Value::Array(d.decisions.iter().map(|&b| uint(u64::from(b))).collect()),
        ),
        (
            "strategy".to_string(),
            Value::Array(
                d.strategy
                    .iter()
                    .map(|a| match a {
                        None => Value::Null,
                        Some(a) => Value::Object(vec![
                            ("actor".to_string(), uint(a.actor as u64)),
                            ("value".to_string(), uint(u64::from(a.value))),
                            ("visible_now".to_string(), uint(u64::from(a.visible_now))),
                        ]),
                    })
                    .collect(),
            ),
        ),
    ])
}

fn witness_from_json(v: &Value) -> Option<(usize, Disagreement)> {
    let bytes = |key: &str| -> Option<Vec<u8>> {
        match v.get(key)? {
            Value::Array(xs) => xs.iter().map(|x| x.as_u64().map(|u| u as u8)).collect(),
            _ => None,
        }
    };
    let idx = v.get("idx")?.as_u64()? as usize;
    let Value::Array(strat) = v.get("strategy")? else {
        return None;
    };
    let strategy = strat
        .iter()
        .map(|a| match a {
            Value::Null => Some(None),
            Value::Object(_) => Some(Some(ByzAction {
                actor: a.get("actor")?.as_u64()? as usize,
                value: a.get("value")?.as_u64()? as u8,
                visible_now: a.get("visible_now")?.as_u64()? as u32,
            })),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((
        idx,
        Disagreement {
            inputs: bytes("inputs")?,
            strategy,
            decisions: bytes("decisions")?,
        },
    ))
}

fn shard_file(dir: &str, n: usize, t: usize, rounds: u32, tie: u8, i: u32, m: u32) -> String {
    format!("{dir}/round-lb.n{n}t{t}r{rounds}tie{tie}.shard-{i}-of-{m}.json")
}

fn run_round_lb(mut args: std::env::Args) {
    let (mut n, mut t, mut rounds, mut tie) = (4usize, 1usize, 2u32, 0u8);
    let mut shard: Option<(u32, u32)> = None;
    let mut merge: Option<u32> = None;
    let mut out_dir = "out".to_string();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--n" => n = rl_parse(&flag, args.next()),
            "--t" => t = rl_parse(&flag, args.next()),
            "--rounds" => rounds = rl_parse(&flag, args.next()),
            "--tie" => tie = rl_parse(&flag, args.next()),
            "--out-dir" => out_dir = rl_parse(&flag, args.next()),
            "--shard" => {
                let raw: String = rl_parse(&flag, args.next());
                let Some((i, m)) = raw.split_once('/') else {
                    rl_usage("--shard wants i/m");
                };
                shard = Some((
                    rl_parse("--shard index", Some(i.to_string())),
                    rl_parse("--shard count", Some(m.to_string())),
                ));
            }
            "--merge" => merge = Some(rl_parse(&flag, args.next())),
            other => rl_usage(&format!("unknown flag {other:?}")),
        }
    }
    if let Some((i, m)) = shard {
        if m == 0 || i >= m {
            rl_usage("--shard index out of range");
        }
        let s = search_disagreement_t_shard(n, t, rounds, tie, i, m, 1);
        let doc = Value::Object(vec![
            ("executions".to_string(), uint(s.executions as u64)),
            ("disagreement".to_string(), witness_json(&s.disagreement)),
            (
                "validity_violation".to_string(),
                witness_json(&s.validity_violation),
            ),
        ]);
        std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| rl_usage(&format!("--out-dir: {e}")));
        let path = shard_file(&out_dir, n, t, rounds, tie, i, m);
        std::fs::write(&path, doc.render(true) + "\n")
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "round-lb shard {i}/{m}: {} executions, witnesses at {path}",
            s.executions
        );
        return;
    }
    let outcome = if let Some(m) = merge {
        if m == 0 {
            rl_usage("--merge wants a positive shard count");
        }
        let shards: Vec<RoundLbShard> = (0..m)
            .map(|i| {
                let path = shard_file(&out_dir, n, t, rounds, tie, i, m);
                let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    rl_usage(&format!("read {path}: {e} — run that shard first"))
                });
                let doc: Value = serde_json::from_str(&body)
                    .unwrap_or_else(|e| rl_usage(&format!("parse {path}: {e}")));
                RoundLbShard {
                    executions: doc
                        .get("executions")
                        .and_then(Value::as_u64)
                        .unwrap_or_else(|| rl_usage(&format!("{path}: no executions field")))
                        as usize,
                    disagreement: doc.get("disagreement").and_then(witness_from_json),
                    validity_violation: doc.get("validity_violation").and_then(witness_from_json),
                }
            })
            .collect();
        merge_round_lb_shards(&shards)
    } else {
        // Unsharded: a single full-range shard is the whole search.
        merge_round_lb_shards(&[search_disagreement_t_shard(n, t, rounds, tie, 0, 1, 1)])
    };
    println!(
        "round-lb n={n} t={t} rounds={rounds} tie={tie}: {} executions",
        outcome.executions
    );
    match &outcome.disagreement {
        Some(d) => println!(
            "  disagreement: inputs {:?} decide {:?} under {:?}",
            d.inputs, d.decisions, d.strategy
        ),
        None => println!("  no disagreement at this horizon (bound not yet violated)"),
    }
}

fn main() {
    let mut args = std::env::args();
    args.next();
    if args.next().as_deref() == Some("round-lb") {
        run_round_lb(args);
        return;
    }
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
