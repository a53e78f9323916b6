//! The perf ledger's shape, held against the committed file.
//!
//! `BENCH_TRAJECTORY.json` holds kernel lanes only: every op sits under
//! one of the eight layer keys a `cargo bench -p am-bench` target owns,
//! and every record carries its noise band, core count and commit (see
//! [`crate::recorder`]). Whole-experiment wall time lives elsewhere: each
//! registry entry of the experiments harness declares a `budget_s`, and a
//! run's `manifest.json` records it beside the measured `duration_ms`.

#[cfg(test)]
mod tests {
    use crate::recorder::{Recorder, FORMAT, SAMPLES, SCHEMA};
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
        // The layers a `cargo bench -p am-bench` target owns.
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
        let doc = committed_ledger();
        let Value::Object(top) = &doc else {
            panic!("the ledger is not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "format", "ops"], "top-level sections");
        assert_eq!(doc.get("schema"), Some(&Value::String(SCHEMA.into())));
        assert_eq!(doc.get("format"), Some(&Value::String(FORMAT.into())));
        let ops = section(&doc, "ops");
        for layer in KERNEL {
            assert!(
                ops.iter().any(|(op, _)| op.starts_with(layer)),
                "no `{layer}` lane"
            );
        }
        for (op, record) in &ops {
            assert!(
                KERNEL.iter().any(|l| op.starts_with(l)),
                "{op}: not under a layer key"
            );
            // Machine context, on every record.
            let cores = record.get("cores").and_then(Value::as_u64);
            assert!(cores.is_some_and(|c| c > 0), "{op}: cores {cores:?}");
            match record.get("commit") {
                Some(Value::String(stamp)) => assert!(!stamp.is_empty(), "{op}: empty commit"),
                other => panic!("{op}: commit is {other:?}"),
            }
            // The noise band, on every record.
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
            for ratio_field in ["speedup", "source", "baseline"] {
                assert!(
                    record.get(ratio_field).is_none(),
                    "{op}: has `{ratio_field}`"
                );
            }
        }
    }
}
