//! Machine-readable recorder for the perf ledger, `BENCH_TRAJECTORY.json`.
//!
//! The vendored criterion shim prints per-iteration timings but does not
//! hand the measured numbers back to the caller, so recorded lanes time
//! their closures directly with [`std::time::Instant`] and merge the
//! results into the one ledger at the repository root (documented in
//! CONTRIBUTING.md "The perf ledger"):
//!
//! ```json
//! {
//!   "schema": "bench-trajectory-consolidated/1",
//!   "format": "bench-trajectory/1",
//!   "ops": { "<layer>/<op>": { "ns_per_op": 123.4, "ops_per_call": 40, "cores": 2, "commit": "e0e9d11" } },
//!   "budgets": { "<experiment>": 10.0 }
//! }
//! ```
//!
//! `ops` maps a layer-prefixed operation name to its record. Every record
//! is an absolute with the host's core count and the commit it was
//! measured at, both of which the recorder adds — a kernel timing
//! ([`Recorder::measure_absolute`], or [`Recorder::measure_absolute_part`]
//! when only part of each call is the operation) or a preassembled object
//! ([`Recorder::record_value`], e.g. sweep and loadgen throughput) — and is
//! compared against its own committed value from a like machine, never
//! against a second implementation. Several bench binaries contribute to
//! the file, so writes merge into the existing document instead of
//! replacing it.

use serde::{Number, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Schema tag written to (and required of) the ledger.
pub(crate) const SCHEMA: &str = "bench-trajectory-consolidated/1";
/// Document format version.
pub(crate) const FORMAT: &str = "bench-trajectory/1";
/// The ledger's file name at the repository root.
const FILE_NAME: &str = "BENCH_TRAJECTORY.json";

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Operation name, e.g. `protocols/run_dag_ghost_quadratic_lam1.6_k15`.
    pub op: String,
    /// The record stored under `ops.<op>`.
    pub record: Value,
}

/// Collects [`OpResult`]s and merge-writes them to the ledger.
#[derive(Debug, Default)]
pub struct Recorder {
    results: Vec<OpResult>,
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// The host's core count — the machine context of every record.
fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The checkout a record is measured at: `git rev-parse --short HEAD`,
/// with `-dirty` appended when the work tree differs from it, or
/// `"unknown"` where git or the repository is absent. Asked of git once
/// per process.
fn commit() -> String {
    static STAMP: OnceLock<String> = OnceLock::new();
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    STAMP
        .get_or_init(|| match git(&["rev-parse", "--short", "HEAD"]) {
            Some(head) if !head.is_empty() => match git(&["status", "--porcelain"]) {
                Some(changes) if !changes.is_empty() => head + "-dirty",
                _ => head,
            },
            _ => "unknown".to_string(),
        })
        .clone()
}

/// The machine context every record ends with.
fn context() -> [(String, Value); 2] {
    [
        ("cores".to_string(), Value::Number(Number::UInt(cores()))),
        ("commit".to_string(), Value::String(commit())),
    ]
}

/// Inserts or replaces `key` in an insertion-ordered object body.
fn upsert(entries: &mut Vec<(String, Value)>, key: &str, value: Value) {
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => entries.push((key.to_string(), value)),
    }
}

impl Recorder {
    /// A recorder for the ledger — the single entry point every bench
    /// binary, the experiments harness and the loadgen share.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Times `f` (after one warm-up call) for roughly `budget`; `f`
    /// performs `ops_per_call` operations, and the record is `{ns_per_op,
    /// ops_per_call, cores, commit}`. Returns the ns per operation.
    pub fn measure_absolute<O>(
        &mut self,
        op: &str,
        ops_per_call: u64,
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
        self.push_timing(op, ops_per_call, start.elapsed(), iters)
    }

    /// [`Recorder::measure_absolute`] for an operation that needs untimed
    /// preparation before every call: `f` prepares, times its
    /// `ops_per_call` operations itself and returns that time. `budget`
    /// bounds the wall clock, preparation included.
    pub fn measure_absolute_part(
        &mut self,
        op: &str,
        ops_per_call: u64,
        budget: Duration,
        mut f: impl FnMut() -> Duration,
    ) -> f64 {
        f();
        let start = Instant::now();
        let mut timed = Duration::ZERO;
        let mut iters = 0u64;
        while start.elapsed() < budget {
            timed += f();
            iters += 1;
        }
        self.push_timing(op, ops_per_call, timed, iters)
    }

    fn push_timing(&mut self, op: &str, ops_per_call: u64, timed: Duration, iters: u64) -> f64 {
        let per_call = timed.as_nanos() as f64 / iters.max(1) as f64;
        let ns = per_call / ops_per_call as f64;
        println!("bench: {op:<52} {ns:>14.1} ns/op  ({iters} iters × {ops_per_call} ops)");
        let mut record = vec![
            ("ns_per_op".to_string(), num(round2(ns))),
            (
                "ops_per_call".to_string(),
                Value::Number(Number::UInt(ops_per_call)),
            ),
        ];
        record.extend(context());
        self.results.push(OpResult {
            op: op.to_string(),
            record: Value::Object(record),
        });
        ns
    }

    /// Records the object `fields` + `cores` + `commit` under `ops.<op>` — the lane
    /// for records richer than a kernel timing (sweep and loadgen
    /// throughput).
    pub fn record_value(&mut self, op: &str, mut fields: Vec<(String, Value)>) {
        println!("bench: {op:<52} (record)");
        fields.extend(context());
        self.results.push(OpResult {
            op: op.to_string(),
            record: Value::Object(fields),
        });
    }

    /// Path of the ledger at the repository root.
    pub fn output_path() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(FILE_NAME)
    }

    /// Merges the recorded ops into the ledger. Existing entries for
    /// other ops, and every other top-level section (the hand-maintained
    /// `budgets` map), are preserved.
    pub fn write(&self) {
        let path = Recorder::output_path();
        let existing = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str::<Value>(&s).ok())
            .filter(|v| matches!(v.get("schema"), Some(Value::String(s)) if s == SCHEMA));
        let mut ops: Vec<(String, Value)> = match existing.as_ref().and_then(|v| v.get("ops")) {
            Some(Value::Object(entries)) => entries.clone(),
            _ => Vec::new(),
        };
        for r in &self.results {
            upsert(&mut ops, &r.op, r.record.clone());
        }
        let mut doc = vec![
            ("schema".to_string(), Value::String(SCHEMA.to_string())),
            ("format".to_string(), Value::String(FORMAT.to_string())),
            ("ops".to_string(), Value::Object(ops)),
        ];
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
        println!("bench: wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_ns() {
        let mut rec = Recorder::new();
        let ns = rec.measure_absolute("noop", 4, Duration::from_millis(5), || {
            std::hint::black_box(1 + 1)
        });
        assert!(ns > 0.0);
        assert_eq!(rec.results.len(), 1);
        let record = &rec.results[0].record;
        assert_eq!(record.get("ops_per_call").and_then(Value::as_u64), Some(4));
        assert_eq!(record.get("cores").and_then(Value::as_u64), Some(cores()));
        assert_eq!(record.get("commit"), Some(&Value::String(commit())));
    }

    #[test]
    fn part_timing_counts_only_what_the_closure_reports() {
        let mut rec = Recorder::new();
        let ns = rec.measure_absolute_part("part", 2, Duration::from_millis(5), || {
            std::thread::sleep(Duration::from_micros(200)); // untimed preparation
            Duration::from_nanos(500)
        });
        assert!((ns - 250.0).abs() < 1e-6, "{ns}");
    }

    #[test]
    fn commit_stamp_is_a_short_hash_or_unknown() {
        let stamp = commit();
        let hash = stamp.strip_suffix("-dirty").unwrap_or(&stamp);
        assert!(
            stamp == "unknown" || (hash.len() >= 7 && hash.chars().all(|c| c.is_ascii_hexdigit())),
            "{stamp}"
        );
    }

    #[test]
    fn record_value_is_upserted_verbatim() {
        let mut rec = Recorder::new();
        let body = vec![
            ("requests".to_string(), num(100.0)),
            ("requests_per_sec".to_string(), num(5.0)),
        ];
        rec.record_value("node/loadgen/smoke", body.clone());
        assert_eq!(rec.results.len(), 1);
        let record = &rec.results[0].record;
        for (k, v) in &body {
            assert_eq!(record.get(k), Some(v));
        }
        assert_eq!(record.get("cores").and_then(Value::as_u64), Some(cores()));
        assert_eq!(record.get("commit"), Some(&Value::String(commit())));
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
}
