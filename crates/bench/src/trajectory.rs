//! Sweep throughput records in the perf ledger, and the ledger's shape.
//!
//! [`record_sweep`] publishes per-experiment sweep throughput (trials/sec
//! at a given shard count), recorded by the experiments harness at merge
//! time. The host's core count is stored alongside, because shards are
//! the only parallelism a sweep has (`--workers` runs one shard per
//! thread, each shard's trials run in sequence) and a 1-core container
//! cannot exhibit the four-shard speedup a 4-core CI runner can.
//!
//! The ledger's `budgets` section — per-experiment wall-clock ceilings
//! (seconds, ~10× the observed duration on a cold CI runner) for the CI
//! perf-smoke `--fast` golden run — is hand-maintained; the recorder
//! preserves it verbatim on every merge, and CI multiplies each ceiling
//! by the `PERF_BUDGET_SCALE` env knob to absorb noisy runners.

use crate::recorder::{num, uint, LedgerError, Recorder};

/// One sweep throughput observation, recorded at merge time.
#[derive(Debug, Clone)]
pub struct SweepThroughput {
    /// Experiment id, e.g. `"e8"`.
    pub experiment: String,
    /// How many shards produced the tallies (1 = unsharded).
    pub shards: u32,
    /// Total Monte-Carlo trials across the experiment's sweep points.
    pub trials: u64,
    /// Wall-clock seconds from the first shard's start to merged results.
    pub wall_s: f64,
}

/// Records one experiment's sweep throughput under
/// `sweep/<experiment>/shards<m>`: trials, wall seconds, trials/sec, and
/// the host's core count (shard speedups are only meaningful relative to
/// the cores that backed them).
pub fn record_sweep(t: &SweepThroughput) -> Result<(), LedgerError> {
    let trials_per_sec = t.trials as f64 / t.wall_s.max(1e-9);
    let mut rec = Recorder::new();
    rec.record_value(
        &format!("sweep/{}/shards{}", t.experiment, t.shards),
        vec![
            ("trials".to_string(), uint(t.trials)),
            ("wall_s".to_string(), num(t.wall_s)),
            ("trials_per_sec".to_string(), num(trials_per_sec)),
            ("shards".to_string(), uint(u64::from(t.shards))),
        ],
    );
    rec.write()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FORMAT, SAMPLES, SCHEMA};
    use serde::Value;

    fn committed_ledger() -> Value {
        let body = std::fs::read_to_string(Recorder::output_path()).expect("ledger is committed");
        serde_json::from_str(&body).expect("ledger parses")
    }

    fn section(doc: &Value, key: &str) -> Vec<(String, Value)> {
        match doc.get(key) {
            Some(Value::Object(entries)) => entries.clone(),
            other => panic!("`{key}` is not an object: {other:?}"),
        }
    }

    #[test]
    fn ledger_holds_layer_keyed_absolutes_only() {
        // The layers a `cargo bench -p am-bench` target owns, and the
        // whole-run layer written by `am-experiments --record`.
        const KERNEL: [&str; 8] = [
            "core/",
            "protocols/",
            "mp/",
            "net/",
            "sync/",
            "bft/",
            "sched/",
            "obs/",
        ];
        const WHOLE_RUN: [&str; 1] = ["sweep/"];
        let doc = committed_ledger();
        assert_eq!(doc.get("schema"), Some(&Value::String(SCHEMA.into())));
        assert_eq!(doc.get("format"), Some(&Value::String(FORMAT.into())));
        assert!(doc.get("speedups").is_none(), "ratios are not recorded");
        let ops = section(&doc, "ops");
        for layer in KERNEL.iter().chain(&WHOLE_RUN) {
            assert!(
                ops.iter().any(|(op, _)| op.starts_with(layer)),
                "no `{layer}` lane"
            );
        }
        for (op, record) in &ops {
            let kernel = KERNEL.iter().any(|l| op.starts_with(l));
            assert!(
                kernel || WHOLE_RUN.iter().any(|l| op.starts_with(l)),
                "{op}: not under a layer key"
            );
            // Machine context, on every record.
            let cores = record.get("cores").and_then(Value::as_u64);
            assert!(cores.is_some_and(|c| c > 0), "{op}: cores {cores:?}");
            match record.get("commit") {
                Some(Value::String(stamp)) => assert!(!stamp.is_empty(), "{op}: empty commit"),
                other => panic!("{op}: commit is {other:?}"),
            }
            // The noise band, on every kernel timing.
            if kernel {
                let field = |k: &str| {
                    let v = record.get(k).and_then(Value::as_f64);
                    v.unwrap_or_else(|| panic!("{op}: no `{k}`"))
                };
                let (median, min) = (field("ns_per_op"), field("min_ns_per_op"));
                assert!(
                    0.0 < min && min <= median,
                    "{op}: min {min}, median {median}"
                );
                assert!(field("mad_ns_per_op") >= 0.0, "{op}");
                assert_eq!(
                    record.get("samples").and_then(Value::as_u64),
                    Some(SAMPLES as u64),
                    "{op}"
                );
                assert!(field("ops_per_call") >= 1.0, "{op}");
            }
            for ratio_field in ["speedup", "source", "baseline"] {
                assert!(
                    record.get(ratio_field).is_none(),
                    "{op}: has `{ratio_field}`"
                );
            }
        }
    }

    #[test]
    fn budgets_cover_the_golden_experiments() {
        // The CI perf-smoke golden set, read from `results/golden/`: a
        // golden without a budget (or a budget without a golden) means
        // the wall-clock lane silently checks nothing.
        let dir = Recorder::output_path()
            .with_file_name("results")
            .join("golden");
        let mut golden: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("readable entry").file_name())
            .filter_map(|name| {
                let name = name.to_str()?;
                let id = name.strip_suffix(".json")?;
                // `e14.netstats.json` is E14's second file, not an experiment.
                (!id.contains('.')).then(|| id.to_string())
            })
            .collect();
        golden.sort();
        assert_eq!(golden.len(), 19, "one golden per experiment");
        let budgets = section(&committed_ledger(), "budgets");
        let mut budgeted: Vec<String> = budgets.iter().map(|(id, _)| id.clone()).collect();
        budgeted.sort();
        assert_eq!(
            budgeted, golden,
            "budgets and goldens name different experiments"
        );
        for (id, s) in &budgets {
            assert!(s.as_f64().is_some_and(|s| s > 0.0), "budget for {id}");
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
