//! Round-trip and distribution checks for the observability surface:
//! `NetStats::to_json` must survive a render → parse cycle unchanged, and
//! the latency samplers must hit their nominal means under a fixed seed.

use am_net::{DeliveryRecord, LatencyModel, NetStats};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

fn populated_stats() -> NetStats {
    let mut s = NetStats::with_options(3, true);
    for seq in 0..10u64 {
        s.on_sent(0, 1, "block");
        s.on_delivered(
            DeliveryRecord {
                at_ns: 100 * (seq + 1),
                from: 0,
                to: 1,
                kind: "block",
                seq,
            },
            37 * (seq + 1),
        );
    }
    s.on_sent(1, 2, "ack");
    s.on_dropped(1, 2, "ack");
    s.on_sent(2, 0, "block");
    s.on_duplicated(2, 0, "block");
    s
}

#[test]
fn netstats_json_round_trips_through_text() {
    let s = populated_stats();
    let doc = s.to_json();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let parsed: Value = serde_json::from_str(&text).expect("netstats JSON parses");
    assert_eq!(parsed, doc, "render → parse must be the identity");

    // And a second render of the parsed tree is byte-identical.
    assert_eq!(serde_json::to_string(&parsed), serde_json::to_string(&doc));

    // Spot-check the content that experiments consume downstream.
    assert_eq!(parsed.get("n").and_then(Value::as_u64), Some(3));
    let totals = parsed.get("totals").expect("totals present");
    assert_eq!(totals.get("sent").and_then(Value::as_u64), Some(12));
    assert_eq!(totals.get("delivered").and_then(Value::as_u64), Some(10));
    assert_eq!(totals.get("dropped").and_then(Value::as_u64), Some(1));
    assert_eq!(totals.get("duplicated").and_then(Value::as_u64), Some(1));
    let block = parsed.get("kinds").and_then(|k| k.get("block")).unwrap();
    let delay = block.get("delay").unwrap();
    assert_eq!(delay.get("count").and_then(Value::as_u64), Some(10));
    let mean = delay.get("mean_ns").and_then(Value::as_f64).unwrap();
    let expect = (1..=10).map(|i| 37 * i).sum::<u64>() as f64 / 10.0;
    assert!((mean - expect).abs() < 1e-9);
    match parsed.get("links") {
        Some(Value::Array(links)) => assert_eq!(links.len(), 3, "only active links listed"),
        other => panic!("links not an array: {other:?}"),
    }
}

#[test]
fn empty_netstats_round_trips_too() {
    let doc = NetStats::with_options(4, true).to_json();
    let text = serde_json::to_string(&doc).unwrap();
    let parsed: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed, doc);
}

/// Empirical mean of `samples` draws under a fixed seed.
fn empirical_mean(model: LatencyModel, seed: u64, samples: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..samples).map(|_| model.sample(&mut rng)).sum::<u64>() as f64 / samples as f64
}

#[test]
fn constant_sampler_mean_is_exact() {
    let model = LatencyModel::Constant(12_345);
    assert_eq!(model.mean(), 12_345.0);
    assert_eq!(empirical_mean(model, 7, 1_000), 12_345.0);
}

#[test]
fn uniform_sampler_mean_within_tolerance() {
    let model = LatencyModel::Uniform { lo: 100, hi: 900 };
    assert_eq!(model.mean(), 500.0);
    let m = empirical_mean(model, 11, 50_000);
    assert!(
        (m - 500.0).abs() < 5.0,
        "uniform empirical mean {m} too far from 500"
    );
}

#[test]
fn exponential_sampler_mean_within_tolerance() {
    let model = LatencyModel::Exponential { mean: 2_000_000 };
    assert_eq!(model.mean(), 2_000_000.0);
    let m = empirical_mean(model, 13, 50_000);
    let rel = (m - 2e6).abs() / 2e6;
    assert!(
        rel < 0.02,
        "exponential empirical mean {m} off by {:.2}% from 2e6",
        rel * 100.0
    );
}

#[test]
fn samplers_are_deterministic_under_a_fixed_seed() {
    for model in [
        LatencyModel::Constant(10),
        LatencyModel::Uniform { lo: 1, hi: 99 },
        LatencyModel::Exponential { mean: 500 },
    ] {
        assert_eq!(
            empirical_mean(model, 42, 1_000),
            empirical_mean(model, 42, 1_000),
            "{model:?} must replay identically"
        );
    }
}
