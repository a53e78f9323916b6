//! The `obs/*` lanes of the perf ledger: what observability costs when
//! it is off (the default — every probe is one relaxed atomic load) and
//! what turning it on costs the E4 hot loop.

use am_bench::recorder::Recorder;
use am_mp::MpSystem;
use std::time::Duration;

/// The E4 kernel: one ABD append plus one read on a 16-node system.
fn e4_hot_loop() -> usize {
    let mut sys = MpSystem::new(16, &[], 1);
    sys.append(0, 1).unwrap();
    sys.settle();
    let v = sys.read(1).unwrap();
    sys.settle();
    v.len()
}

fn main() {
    let mut rec = Recorder::layer("obs");
    let budget = Duration::from_millis(400);

    // The disabled probes themselves — the entire cost obs adds to an
    // instrumented hot path when observability is off.
    am_obs::set_enabled(false);
    am_obs::reset();
    let counter = am_obs::counter("bench.disabled");
    rec.measure_absolute("obs/disabled_counter_ns", 1, budget, || counter.inc());
    rec.measure_absolute("obs/disabled_span_ns", 1, budget, || {
        am_obs::span("bench/disabled")
    });

    // The hot loop with the registry off, then on (spans, counters, ring
    // events).
    for (op, on) in [("obs/e4_loop_ns_off", false), ("obs/e4_loop_ns_on", true)] {
        am_obs::set_enabled(on);
        am_obs::reset();
        rec.measure_absolute(op, 1, budget, e4_hot_loop);
    }
    am_obs::set_enabled(false);
    rec.write().unwrap_or_else(|e| panic!("{e}"));
}
