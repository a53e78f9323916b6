//! The paper's theorem shapes, read off the committed goldens.
//!
//! `results/golden/<id>.json` is what `--fast --seed 0` produces, and CI
//! holds every run to it byte for byte. Byte identity says the numbers
//! did not move; these tests say the numbers that are there still show
//! what each experiment is for. A refactor that keeps the bytes keeps
//! these; a change that re-records a golden must keep them too.

use serde::Value;
use std::path::Path;

/// The golden report of experiment `id`.
fn golden(id: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(format!("{id}.json"));
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(items)) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// The column under `header` in the first table of `id`'s golden, each
/// cell's leading number (a proportion cell reads `p [lo,hi]`).
fn column(id: &str, header: &str) -> Vec<f64> {
    let doc = golden(id);
    let table = &items(doc.get("tables"))[0];
    let at = items(table.get("headers"))
        .iter()
        .position(|h| text(h) == header)
        .unwrap_or_else(|| panic!("{id}: no column {header:?}"));
    items(table.get("rows"))
        .iter()
        .map(|row| {
            let cell = text(&items(Some(row))[at]);
            let lead = cell.split_whitespace().next().unwrap_or_default();
            lead.parse()
                .unwrap_or_else(|_| panic!("{id}/{header}: cell {cell:?}"))
        })
        .collect()
}

#[test]
fn e7_deterministic_tie_break_collapses_before_a_third() {
    // Theorem 5.3: against the fork-maker, a deterministic tie-break loses
    // validity before t reaches n/3, while the randomized one holds.
    let share = column("e7", "t/n");
    let det = column("e7", "det: failure");
    let rand = column("e7", "rand: failure");
    let collapse = det
        .iter()
        .position(|&f| f >= 0.5)
        .expect("the deterministic rule collapses within the grid");
    assert!(
        share[collapse] < 1.0 / 3.0,
        "first failure rate ≥ 1/2 at t/n = {}",
        share[collapse]
    );
    for (i, (&r, &d)) in rand.iter().zip(&det).enumerate() {
        assert!(r <= d, "row {i}: randomized {r} above deterministic {d}");
    }
}

#[test]
fn e8_measured_chain_resilience_stays_under_the_bound() {
    // Theorem 5.4: no measured resilience exceeds 1/(1+λ(n−t)).
    let measured = column("e8", "measured resilience t/n");
    let bound = column("e8", "bound 1/(1+λ(n-t*))");
    assert_eq!(measured.len(), bound.len());
    for (i, (&m, &b)) in measured.iter().zip(&bound).enumerate() {
        assert!(m <= b, "row {i}: measured {m} above the bound {b}");
    }
}

#[test]
fn e13_dag_latency_falls_with_the_rate() {
    // Section 5.3 inclusivity: every append counts, so doubling λ at
    // least nearly halves the DAG's time to decision.
    let rate = column("e13", "λ");
    let dag = column("e13", "dag latency");
    for i in 1..rate.len() {
        assert!(
            (rate[i] / rate[i - 1] - 2.0).abs() < 1e-9,
            "the grid doubles λ"
        );
        let fall = dag[i - 1] / dag[i];
        assert!(
            fall >= 1.8,
            "λ {} → {}: latency falls {fall:.3}×",
            rate[i - 1],
            rate[i]
        );
    }
}
