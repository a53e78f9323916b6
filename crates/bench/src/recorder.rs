//! Machine-readable recorder for the benchmark trajectory files.
//!
//! The vendored criterion shim prints per-iteration timings but does not
//! hand the measured numbers back to the caller, so comparison groups
//! time their closures directly with [`std::time::Instant`] and merge the
//! results into a `BENCH_*.json` file at the repository root. One file
//! per optimization PR — the [`Preset`] table in [`crate::presets`] is
//! the single registry — all sharing one document shape (documented in
//! CONTRIBUTING.md "Benchmark trajectory files"):
//!
//! ```json
//! {
//!   "schema": "bench-prN/1",
//!   "format": "bench-trajectory/1",
//!   "ops": { "<op>": { "ns_per_op": 123.4, "baseline": "<naive-op>" } },
//!   "speedups": { "<op>": 3.7 }
//! }
//! ```
//!
//! `ops` maps an operation name to its record. Kernel comparisons
//! ([`Recorder::measure`]) record `{ns_per_op, baseline?}` where
//! `baseline` names the in-repo `*_naive` op to compare against;
//! richer records ([`Recorder::record_value`], e.g. the `am-node`
//! loadgen's throughput/latency summaries) store an arbitrary JSON
//! object. `speedups` is derived on every write: `baseline ns / op ns`
//! for each op whose baseline is also present in the file. Several
//! bench binaries may contribute to one file, so writes merge into any
//! existing document with a matching schema instead of replacing it.

use crate::presets::{Preset, FORMAT};
use serde::{Number, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One recorded operation: either a timed kernel (mean ns/op plus the
/// optional baseline op name) or a preassembled record object.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Operation name, e.g. `run_dag/ghost_withhold_lam1.6_k15`.
    pub op: String,
    /// The record stored under `ops.<op>` — for timed kernels an object
    /// of the shape `{ns_per_op, baseline?}`.
    pub record: Value,
}

/// Collects [`OpResult`]s and merge-writes them to a schema-tagged
/// `BENCH_*.json` at the repository root.
#[derive(Debug)]
pub struct Recorder {
    schema: &'static str,
    file_name: &'static str,
    tag: &'static str,
    results: Vec<OpResult>,
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// The host's core count — the machine context of an absolute record.
pub(crate) fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Inserts or replaces `key` in an insertion-ordered object body.
fn upsert(entries: &mut Vec<(String, Value)>, key: &str, value: Value) {
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => entries.push((key.to_string(), value)),
    }
}

impl Recorder {
    /// A recorder writing `file_name` (repo-root relative) tagged with
    /// `schema`; `tag` prefixes the progress lines printed per op.
    pub fn new(schema: &'static str, file_name: &'static str, tag: &'static str) -> Recorder {
        Recorder {
            schema,
            file_name,
            tag,
            results: Vec::new(),
        }
    }

    /// The recorder for one of the registered trajectory files — the
    /// single entry point every bench binary and the loadgen share.
    pub fn preset(p: Preset) -> Recorder {
        Recorder::new(p.schema(), p.file_name(), p.tag())
    }

    /// Times `f` (after one warm-up call) for roughly `budget` and records
    /// the mean ns/op under `op`. Returns the measured ns/op.
    pub fn measure<O>(
        &mut self,
        op: &str,
        baseline: Option<&str>,
        budget: Duration,
        mut f: impl FnMut() -> O,
    ) -> f64 {
        black_box(f());
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < budget {
            black_box(f());
            iters += 1;
        }
        let ns = start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        println!("{}: {op:<44} {ns:>14.1} ns/op  ({iters} iters)", self.tag);
        let mut entry = vec![("ns_per_op".to_string(), num(ns))];
        if let Some(b) = baseline {
            entry.push(("baseline".to_string(), Value::String(b.to_string())));
        }
        self.results.push(OpResult {
            op: op.to_string(),
            record: Value::Object(entry),
        });
        ns
    }

    /// [`measure`](Recorder::measure) for an absolute lane: `f` performs
    /// `ops_per_call` operations, and the record is `{ns_per_op,
    /// ops_per_call, cores}` — no baseline, compared against its own
    /// committed value from a like machine. Returns the ns per operation.
    pub fn measure_absolute<O>(
        &mut self,
        op: &str,
        ops_per_call: u64,
        budget: Duration,
        f: impl FnMut() -> O,
    ) -> f64 {
        let ns = self.measure(op, None, budget, f) / ops_per_call as f64;
        self.results.pop();
        self.record_value(
            op,
            Value::Object(vec![
                ("ns_per_op".to_string(), num(round2(ns))),
                (
                    "ops_per_call".to_string(),
                    Value::Number(Number::UInt(ops_per_call)),
                ),
                ("cores".to_string(), Value::Number(Number::UInt(cores()))),
            ]),
        );
        ns
    }

    /// Records a preassembled JSON object under `ops.<op>` — the lane for
    /// records richer than a kernel timing (e.g. the loadgen's
    /// throughput/latency summary). The object participates in the merge
    /// exactly like a timed op; `speedups` derivation skips it unless it
    /// carries both `ns_per_op` and `baseline`.
    pub fn record_value(&mut self, op: &str, record: Value) {
        println!("{}: {op:<44} (record)", self.tag);
        self.results.push(OpResult {
            op: op.to_string(),
            record,
        });
    }

    /// Path of this recorder's output file at the repository root.
    pub fn output_path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(self.file_name)
    }

    /// Merges the recorded ops into the output file and recomputes the
    /// `speedups` map. Existing entries for other ops are preserved so
    /// several bench binaries can each contribute their share.
    pub fn write(&self) {
        let path = self.output_path();
        let existing = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str::<Value>(&s).ok())
            .filter(|v| matches!(v.get("schema"), Some(Value::String(s)) if s == self.schema));
        let mut ops: Vec<(String, Value)> = match existing.as_ref().and_then(|v| v.get("ops")) {
            Some(Value::Object(entries)) => entries.clone(),
            _ => Vec::new(),
        };
        for r in &self.results {
            upsert(&mut ops, &r.op, r.record.clone());
        }
        let mut speedups: Vec<(String, Value)> = Vec::new();
        for (op, entry) in &ops {
            let base = match entry.get("baseline") {
                Some(Value::String(b)) => b,
                _ => continue,
            };
            let ns = entry.get("ns_per_op").and_then(Value::as_f64);
            let base_ns = ops
                .iter()
                .find(|(k, _)| k == base)
                .and_then(|(_, e)| e.get("ns_per_op"))
                .and_then(Value::as_f64);
            if let (Some(ns), Some(base_ns)) = (ns, base_ns) {
                if ns > 0.0 {
                    speedups.push((op.clone(), num(round2(base_ns / ns))));
                }
            }
        }
        let mut doc = vec![
            ("schema".to_string(), Value::String(self.schema.to_string())),
            ("format".to_string(), Value::String(FORMAT.to_string())),
            ("ops".to_string(), Value::Object(ops)),
            ("speedups".to_string(), Value::Object(speedups)),
        ];
        // Carry over any other top-level sections of a matching document
        // (e.g. the consolidated trajectory's hand-maintained `budgets`
        // map) so a recorder run never strips them.
        if let Some(Value::Object(entries)) = existing.as_ref() {
            for (k, v) in entries {
                if !doc.iter().any(|(dk, _)| dk == k) {
                    doc.push((k.clone(), v.clone()));
                }
            }
        }
        let doc = Value::Object(doc);
        std::fs::write(&path, doc.render(true) + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("{}: wrote {}", self.tag, path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_ns() {
        let mut rec = Recorder::new("bench-test/1", "BENCH_TEST.json", "test");
        let ns = rec.measure("noop", None, Duration::from_millis(5), || {
            std::hint::black_box(1 + 1)
        });
        assert!(ns > 0.0);
        assert_eq!(rec.results.len(), 1);
    }

    #[test]
    fn presets_target_distinct_files_and_schemas() {
        let a = Recorder::preset(Preset::Pr4);
        let b = Recorder::preset(Preset::Pr5);
        let c = Recorder::preset(Preset::Pr6);
        assert_ne!(a.schema, b.schema);
        assert_ne!(a.output_path(), b.output_path());
        assert!(a.output_path().ends_with("BENCH_PR4.json"));
        assert!(b.output_path().ends_with("BENCH_PR5.json"));
        assert!(c.output_path().ends_with("BENCH_PR6.json"));
    }

    #[test]
    fn record_value_is_upserted_verbatim() {
        let mut rec = Recorder::new("bench-test/1", "BENCH_TEST.json", "test");
        let body = Value::Object(vec![
            ("requests".to_string(), num(100.0)),
            ("requests_per_sec".to_string(), num(5.0)),
        ]);
        rec.record_value("loadgen/smoke", body.clone());
        assert_eq!(rec.results.len(), 1);
        assert_eq!(rec.results[0].record, body);
    }

    #[test]
    fn upsert_replaces_in_place_and_appends() {
        let mut entries = vec![("a".to_string(), num(1.0))];
        upsert(&mut entries, "a", num(2.0));
        upsert(&mut entries, "b", num(3.0));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.as_f64(), Some(2.0));
        assert_eq!(entries[1].0, "b");
    }

    #[test]
    fn merged_doc_round_trips_with_speedups() {
        // Exercise the document shape end-to-end through the vendored
        // serde_json parser, without touching the real output files.
        let ops = Value::Object(vec![
            (
                "fast".to_string(),
                Value::Object(vec![
                    ("ns_per_op".to_string(), num(100.0)),
                    ("baseline".to_string(), Value::String("slow".into())),
                ]),
            ),
            (
                "slow".to_string(),
                Value::Object(vec![("ns_per_op".to_string(), num(400.0))]),
            ),
        ]);
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::String("bench-test/1".to_string()),
            ),
            ("ops".to_string(), ops),
        ]);
        let parsed: Value = serde_json::from_str(&doc.render(true)).unwrap();
        let fast = parsed.get("ops").and_then(|o| o.get("fast")).unwrap();
        let base = match fast.get("baseline") {
            Some(Value::String(s)) => s.clone(),
            _ => panic!("missing baseline"),
        };
        let ratio = parsed
            .get("ops")
            .and_then(|o| o.get(&base))
            .and_then(|e| e.get("ns_per_op"))
            .and_then(Value::as_f64)
            .unwrap()
            / fast.get("ns_per_op").and_then(Value::as_f64).unwrap();
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}
