//! End-to-end observability check: running real experiments with obs
//! enabled must yield a valid Chrome-trace document with spans from every
//! simulation layer (am-poisson, am-net, am-mp, am-protocols), coherent
//! span statistics, and a parseable manifest.
//!
//! Integration test (own process), so enabling the global registry cannot
//! race the library unit tests.

use am_experiments::run_one;
use am_net::{LatencyModel, NetConfig};
use am_protocols::{run_chain_net, ChainAdversary, Params, TieBreak};
use serde::Value;
use std::sync::Mutex;

/// The obs registry is process-global; serialize the tests touching it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// One fast pass through each layer: E4 covers am-mp (ABD append/read
/// over an ideal `SimNet`), a single networked chain trial covers
/// am-poisson (token grants), am-net (flights), and am-protocols.
fn exercise_all_layers() {
    run_one("e4", 0).expect("e4 runs");
    let p = Params::new(6, 1, 0.5, 9, 3);
    let cfg = NetConfig::builder()
        .latency(LatencyModel::Constant(10_000_000))
        .drop(0.1)
        .build()
        .expect("valid config");
    let _ = run_chain_net(&p, TieBreak::Randomized, ChainAdversary::Absent, &cfg);
}

#[test]
fn trace_covers_every_layer_and_parses_as_chrome_trace() {
    let _l = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    am_obs::set_enabled(true);
    am_obs::reset();
    exercise_all_layers();

    let doc = am_obs::chrome_trace_json();
    for needle in [
        "e4/mp/append",        // am-mp wall span nested under the experiment
        "e4/mp/append/quorum", // the ABD quorum-wait phase
        "poisson/grant",       // am-poisson sim span
        "net/flight/block",    // am-net flight sim span
        "protocols/chain_net", // am-protocols runner span
    ] {
        assert!(doc.contains(needle), "trace missing '{needle}'");
    }

    // Schema: valid JSON with the Chrome-trace envelope, and every event
    // carries the fields chrome://tracing requires for its phase.
    let v: Value = serde_json::from_str(&doc).expect("trace must be valid JSON");
    assert!(v.get("displayTimeUnit").is_some());
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(events.len() > 10, "expected a populated trace");
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Value::String(s)) => s.as_str(),
            other => panic!("event missing ph: {other:?}"),
        };
        assert!(ev.get("pid").and_then(Value::as_u64).is_some());
        match ph {
            "X" => {
                assert!(ev.get("ts").and_then(Value::as_f64).is_some());
                assert!(ev.get("dur").and_then(Value::as_f64).is_some());
                assert!(ev.get("tid").and_then(Value::as_u64).is_some());
            }
            "i" => {
                assert!(ev.get("ts").and_then(Value::as_f64).is_some());
                assert_eq!(ev.get("s"), Some(&Value::String("t".into())));
            }
            "M" => assert!(ev.get("args").is_some()),
            other => panic!("unexpected phase '{other}'"),
        }
    }

    // Span statistics stay internally coherent.
    let stats = am_obs::span_stats();
    let appends = stats
        .iter()
        .find(|(p, _)| p == "e4/mp/append")
        .map(|(_, s)| *s)
        .expect("append span aggregated");
    assert!(appends.count >= 4, "E4 issues ≥4 appends per n");
    assert!(appends.min_ns <= appends.p50_ns);
    assert!(appends.p50_ns <= appends.p99_ns);
    assert!(appends.p99_ns <= appends.max_ns);
    assert!(appends.total_ns >= appends.max_ns);

    // Layer counters moved.
    let counters = am_obs::counter_values();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(get("mp.appends") >= 4);
    // A read explains itself: how many messages its `ViewResp` merges
    // walked, and how many of those the reader did not hold yet.
    assert!(get("mp.reads") > 0);
    assert!(get("mp.read.merge_walked") >= get("mp.read.merge_adopted"));
    assert!(get("mp.read.merge_adopted") > 0);
    assert!(get("net.sent") > 0);
    assert!(get("net.delivered") > 0);
    assert!(get("poisson.grants") > 0);
    assert!(get("protocols.blocks_announced") > 0);

    // The manifest embeds the same snapshot and stays parseable.
    let mut manifest = am_obs::RunManifest::new(0, "results");
    manifest.record(am_obs::ExperimentRecord {
        id: "e4".into(),
        duration_ms: 1.0,
        output: None,
    });
    let parsed: Value = serde_json::from_str(&manifest.to_json()).expect("manifest is valid JSON");
    assert_eq!(parsed.get("seed").and_then(Value::as_u64), Some(0));
    assert!(parsed
        .get("spans")
        .and_then(|s| s.get("e4/mp/append"))
        .is_some());
    for name in ["net.sent", "mp.read.merge_walked", "mp.read.merge_adopted"] {
        assert!(
            parsed.get("counters").and_then(|c| c.get(name)).is_some(),
            "manifest lacks counter {name}"
        );
    }

    am_obs::set_enabled(false);
}

/// `TokenAuthority`, `SimNet` and `Propagation` resolve their counter
/// handles once per process, whatever the registry's state at that
/// moment: the same handles must stay inert while disabled, count once
/// enabled, and read zero after a reset.
#[test]
fn handles_resolved_once_follow_enable_and_reset() {
    let _l = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const LAYERS: [&str; 3] = ["poisson.grants", "net.sent", "protocols.blocks_announced"];
    let read = || LAYERS.map(|name| am_obs::counter(name).get());
    let trial = || {
        let p = Params::new(6, 1, 0.5, 9, 3);
        let cfg = NetConfig::builder().build().expect("valid config");
        run_chain_net(&p, TieBreak::Randomized, ChainAdversary::Absent, &cfg)
    };
    am_obs::set_enabled(false);
    am_obs::reset();
    trial(); // resolves every handle, if no earlier test has
    assert_eq!(read(), [0; 3], "disabled: inert");
    am_obs::set_enabled(true);
    trial();
    let counted = read();
    assert!(counted.iter().all(|&c| c > 0), "enabled: {counted:?}");
    trial();
    assert_eq!(read(), counted.map(|c| 2 * c), "the same trial, twice");
    am_obs::reset();
    assert_eq!(read(), [0; 3], "reset zeroes the shared cells");
    am_obs::set_enabled(false);
}

#[test]
fn disabled_obs_records_nothing_and_preserves_results() {
    let _l = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    am_obs::set_enabled(false);
    am_obs::reset();
    let with_off = run_one("e4", 0).expect("e4 runs");
    assert!(am_obs::span_stats().is_empty());
    assert_eq!(am_obs::events_recorded(), 0);

    // Observability must not perturb the seeded simulation: the rendered
    // report is identical with obs on and off.
    am_obs::set_enabled(true);
    am_obs::reset();
    let with_on = run_one("e4", 0).expect("e4 runs");
    am_obs::set_enabled(false);
    assert_eq!(with_off.render(), with_on.render());
}
