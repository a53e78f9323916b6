//! The consolidated perf trajectory: `BENCH_TRAJECTORY.json`.
//!
//! Six per-PR `BENCH_PR*.json` files track individual optimization PRs;
//! this module folds their headline numbers into one tracked document
//! ([`Preset::Trajectory`]) so a single file answers "is the repo getting
//! faster or slower" — and gives CI one place to assert against:
//!
//! * [`fold_headlines`] copies every per-PR `speedups` entry in as
//!   `<prN>/<op>` plus the loadgen's throughput records — rerunnable any
//!   time the per-PR files are regenerated.
//! * [`record_sweep`] publishes per-experiment sweep throughput
//!   (trials/sec at a given shard count), recorded by the experiments
//!   harness at merge time. The host's core count is stored alongside,
//!   because multi-process sharding is the only real parallelism in this
//!   workspace (the vendored rayon shim is sequential) and a 1-core
//!   container cannot exhibit the ≥ 3× four-shard speedup a 4-core CI
//!   runner can.
//! * [`ensure_budgets`] seeds the `budgets` section: per-experiment
//!   wall-clock ceilings (seconds) for the CI perf-smoke `--fast` golden
//!   run. The recorder preserves the section verbatim on every later
//!   merge, so hand-tuned values stick; CI multiplies each ceiling by
//!   the `PERF_BUDGET_SCALE` env knob to absorb noisy runners.

use crate::presets::{Preset, HEADLINE};
use crate::recorder::{cores, Recorder};
use serde::{Number, Value};
use std::path::PathBuf;

/// One sweep throughput observation, recorded at merge time.
#[derive(Debug, Clone)]
pub struct SweepThroughput {
    /// Experiment id, e.g. `"e8"`.
    pub experiment: String,
    /// How many OS-process shards produced the tallies (1 = unsharded).
    pub shards: u32,
    /// Total Monte-Carlo trials across the experiment's sweep points.
    pub trials: u64,
    /// Wall-clock seconds from first shard spawn to merged results.
    pub wall_s: f64,
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float((x * 100.0).round() / 100.0))
}

/// Path of a trajectory file at the repository root.
fn root_path(file_name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file_name)
}

/// Records one experiment's sweep throughput under
/// `sweep/<experiment>/shards<m>`: trials, wall seconds, trials/sec, and
/// the host's core count (shard speedups are only meaningful relative to
/// the cores that backed them).
pub fn record_sweep(t: &SweepThroughput) {
    let trials_per_sec = t.trials as f64 / t.wall_s.max(1e-9);
    let mut rec = Recorder::preset(Preset::Trajectory);
    rec.record_value(
        &format!("sweep/{}/shards{}", t.experiment, t.shards),
        Value::Object(vec![
            ("trials".to_string(), Value::Number(Number::UInt(t.trials))),
            ("wall_s".to_string(), num(t.wall_s)),
            ("trials_per_sec".to_string(), num(trials_per_sec)),
            (
                "shards".to_string(),
                Value::Number(Number::UInt(u64::from(t.shards))),
            ),
            ("cores".to_string(), Value::Number(Number::UInt(cores()))),
        ]),
    );
    rec.write();
}

/// Folds every per-PR trajectory file's headline numbers into the
/// consolidated file: each `speedups.<op>` lands as `<prN>/<op>` with
/// `{speedup, source}`, and every loadgen-style op carrying
/// `requests_per_sec` lands with its throughput. Missing per-PR files
/// are skipped (their ops simply stay absent). Returns the number of ops
/// folded.
pub fn fold_headlines() -> usize {
    let mut rec = Recorder::preset(Preset::Trajectory);
    let mut folded = 0usize;
    for preset in HEADLINE {
        let Ok(body) = std::fs::read_to_string(root_path(preset.file_name())) else {
            println!("traj: {} absent, skipping", preset.file_name());
            continue;
        };
        let Ok(doc) = serde_json::from_str::<Value>(&body) else {
            println!("traj: {} unparsable, skipping", preset.file_name());
            continue;
        };
        let source = Value::String(preset.file_name().to_string());
        if let Some(Value::Object(speedups)) = doc.get("speedups") {
            for (op, v) in speedups {
                rec.record_value(
                    &format!("{}/{op}", preset.tag()),
                    Value::Object(vec![
                        ("speedup".to_string(), v.clone()),
                        ("source".to_string(), source.clone()),
                    ]),
                );
                folded += 1;
            }
        }
        if let Some(Value::Object(ops)) = doc.get("ops") {
            for (op, entry) in ops {
                let Some(rps) = entry.get("requests_per_sec").and_then(Value::as_f64) else {
                    continue;
                };
                let mut fields = vec![("requests_per_sec".to_string(), num(rps))];
                if let Some(tps) = entry.get("trials_per_sec").and_then(Value::as_f64) {
                    fields.push(("trials_per_sec".to_string(), num(tps)));
                }
                fields.push(("source".to_string(), source.clone()));
                rec.record_value(&format!("{}/{op}", preset.tag()), Value::Object(fields));
                folded += 1;
            }
        }
    }
    rec.write();
    folded
}

/// Default per-experiment wall-clock budgets (seconds) for the CI
/// perf-smoke golden run (`--fast --seed 0`, the `results/golden/` set).
/// Deliberately ~10× the observed durations on a cold CI runner: the
/// budgets exist to catch order-of-magnitude hot-path regressions, not
/// scheduler jitter. CONTRIBUTING.md documents the update policy.
pub const DEFAULT_BUDGETS_S: &[(&str, f64)] = &[
    ("e4", 5.0),
    ("e6", 5.0),
    ("e8", 10.0),
    ("e12", 10.0),
    ("e14", 15.0),
    ("e15", 300.0),
    ("e17", 30.0),
    ("e18", 10.0),
    ("e19", 10.0),
];

/// Seeds the consolidated file's `budgets` section from
/// [`DEFAULT_BUDGETS_S`] when absent, leaving an existing section
/// untouched (hand-tuned ceilings win). Creates the document if needed.
pub fn ensure_budgets() {
    let rec = Recorder::preset(Preset::Trajectory);
    let path = rec.output_path();
    let existing = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok());
    if let Some(v) = &existing {
        if v.get("budgets").is_some() {
            return;
        }
    }
    // Write (or re-write) through the recorder so the header/ops shape
    // stays canonical, then append the budgets section.
    rec.write();
    let body = std::fs::read_to_string(&path).unwrap_or_default();
    let Ok(Value::Object(mut entries)) = serde_json::from_str::<Value>(&body) else {
        return;
    };
    entries.push((
        "budgets".to_string(),
        Value::Object(
            DEFAULT_BUDGETS_S
                .iter()
                .map(|(id, s)| (id.to_string(), num(*s)))
                .collect(),
        ),
    ));
    let doc = Value::Object(entries);
    let _ = std::fs::write(&path, doc.render(true) + "\n");
    println!("traj: seeded budgets in {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_cover_the_golden_experiments() {
        // The CI perf-smoke golden set; a budget without a golden (or
        // vice versa) means the assertion lane silently checks nothing.
        let golden = ["e4", "e6", "e8", "e12", "e14", "e15", "e17", "e18", "e19"];
        assert_eq!(DEFAULT_BUDGETS_S.len(), golden.len());
        for id in golden {
            assert!(
                DEFAULT_BUDGETS_S.iter().any(|(b, _)| *b == id),
                "no budget for golden experiment {id}"
            );
        }
        for (_, s) in DEFAULT_BUDGETS_S {
            assert!(*s > 0.0);
        }
    }

    #[test]
    fn throughput_record_shape() {
        let t = SweepThroughput {
            experiment: "e8".into(),
            shards: 4,
            trials: 4000,
            wall_s: 2.0,
        };
        // The op key and derived rate, without touching the real file.
        assert_eq!(
            format!("sweep/{}/shards{}", t.experiment, t.shards),
            "sweep/e8/shards4"
        );
        let rate = t.trials as f64 / t.wall_s;
        assert!((rate - 2000.0).abs() < 1e-9);
    }
}
