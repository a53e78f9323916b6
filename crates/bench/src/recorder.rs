//! The workspace's one timing loop, and the writer of the perf ledger
//! `BENCH_TRAJECTORY.json` at the repository root (documented in
//! CONTRIBUTING.md "The perf ledger"):
//!
//! ```json
//! {
//!   "schema": "bench-trajectory-consolidated/1",
//!   "format": "bench-trajectory/1",
//!   "ops": { "<layer>/<op>": { "ns_per_op": 123.4, "min_ns_per_op": 121.9, "mad_ns_per_op": 0.8,
//!                              "samples": 15, "calls_per_sample": 310, "ops_per_call": 40,
//!                              "cores": 2, "commit": "e0e9d11" } }
//! }
//! ```
//!
//! `ops` maps a layer-prefixed operation name to its record. Every record
//! is a kernel timing ([`Recorder::measure_absolute`], or
//! [`Recorder::measure_absolute_part`] when only part of each call is the
//! operation): [`SAMPLES`] timed samples reduced to a noise band —
//! `ns_per_op` is their median, `min_ns_per_op` the fastest,
//! `mad_ns_per_op` the median absolute deviation from the median — plus
//! the host's core count and the commit it was measured at. A lane is
//! compared against its own committed band from a like machine, never
//! against a second implementation. How long a whole experiment takes is
//! not a ledger lane: its `manifest.json` holds each run's duration
//! beside the budget its registry entry declares.
//!
//! Each bench target is a `fn main()` holding a [`Recorder::layer`], which
//! owns one layer key: its write *replaces* every `<layer>/` entry, so a
//! renamed or dropped lane leaves the file with the run that stopped
//! measuring it.

use serde::{Number, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Schema tag written to (and required of) the ledger.
pub(crate) const SCHEMA: &str = "bench-trajectory-consolidated/1";
/// Document format version.
pub(crate) const FORMAT: &str = "bench-trajectory/1";
/// The ledger's file name at the repository root.
const FILE_NAME: &str = "BENCH_TRAJECTORY.json";
/// Timed samples behind every kernel record — odd, so the median is one
/// of them.
pub const SAMPLES: usize = 15;

/// Why [`Recorder::write`] left the ledger untouched. Only a *missing*
/// file starts a fresh document: anything else at the path holds other
/// targets' lanes, and overwriting it would silently drop them.
#[derive(Debug)]
pub enum LedgerError {
    /// The file exists but cannot be read (or the result not written).
    Io(PathBuf, std::io::Error),
    /// The file is not JSON, or its `ops` section is not an object.
    Unparseable(PathBuf, String),
    /// The file is JSON under another `schema` tag (the one found).
    ForeignSchema(PathBuf, Option<String>),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Io(path, e) => write!(f, "ledger {}: {e}", path.display()),
            LedgerError::Unparseable(path, why) => {
                write!(f, "ledger {} does not parse: {why}", path.display())
            }
            LedgerError::ForeignSchema(path, found) => write!(
                f,
                "ledger {} has schema {}, expected {SCHEMA:?}",
                path.display(),
                found
                    .as_deref()
                    .map_or("none".to_string(), |s| format!("{s:?}"))
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Collects one layer's `(op, record)` pairs and writes them to the ledger.
#[derive(Debug)]
pub struct Recorder {
    /// The `<layer>/` prefix this recorder replaces on write.
    owns: String,
    results: Vec<(String, Value)>,
}

/// A ledger float, kept to two decimals.
fn num(x: f64) -> Value {
    Value::Number(Number::Float((x * 100.0).round() / 100.0))
}

fn uint(x: u64) -> Value {
    Value::Number(Number::UInt(x))
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
        ("cores".to_string(), uint(cores())),
        ("commit".to_string(), Value::String(commit())),
    ]
}

/// Median, minimum and median absolute deviation of [`SAMPLES`] values.
fn band(mut ns: [f64; SAMPLES]) -> (f64, f64, f64) {
    ns.sort_by(f64::total_cmp);
    let (min, median) = (ns[0], ns[SAMPLES / 2]);
    let mut dev = ns.map(|x| (x - median).abs());
    dev.sort_by(f64::total_cmp);
    (median, min, dev[SAMPLES / 2])
}

impl Recorder {
    /// The recorder of the bench target that owns `layer`: every op it
    /// records must sit under `<layer>/`, and its write replaces the
    /// ledger's `<layer>/` entries with exactly this run's.
    pub fn layer(layer: &str) -> Recorder {
        Recorder {
            owns: format!("{layer}/"),
            results: Vec::new(),
        }
    }

    /// Times `f`, which performs `ops_per_call` operations, and records
    /// `{ns_per_op, min_ns_per_op, mad_ns_per_op, samples,
    /// calls_per_sample, ops_per_call, cores, commit}`. Returns the median
    /// ns per operation.
    ///
    /// `budget` is the wall clock to aim for. Its first sixteenth warms
    /// `f` up and counts how many calls fit in that share; each of the
    /// [`SAMPLES`] samples is then that many calls under one clock read,
    /// so an operation of a few ns needs no batching by the caller. A
    /// call slower than a sixteenth of `budget` is one sample by itself
    /// and the lane overruns: size `budget` to at least 16 calls.
    pub fn measure_absolute<O>(
        &mut self,
        op: &str,
        ops_per_call: u64,
        budget: Duration,
        mut f: impl FnMut() -> O,
    ) -> f64 {
        self.sample(op, ops_per_call, budget, |calls| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            start.elapsed()
        })
    }

    /// [`Recorder::measure_absolute`] for an operation that needs untimed
    /// preparation before every call: `f` prepares, times its
    /// `ops_per_call` operations itself and returns that time. `budget`
    /// counts the wall clock, preparation included; a sample is the mean
    /// of its calls' reported times.
    pub fn measure_absolute_part(
        &mut self,
        op: &str,
        ops_per_call: u64,
        budget: Duration,
        mut f: impl FnMut() -> Duration,
    ) -> f64 {
        self.sample(op, ops_per_call, budget, |calls| {
            (0..calls).map(|_| f()).sum()
        })
    }

    /// The timing loop: `run(c)` makes `c` calls and returns what they
    /// took.
    fn sample(
        &mut self,
        op: &str,
        ops_per_call: u64,
        budget: Duration,
        mut run: impl FnMut(u64) -> Duration,
    ) -> f64 {
        let share = budget / (SAMPLES as u32 + 1);
        let start = Instant::now();
        let mut calls = 0u64;
        while calls == 0 || start.elapsed() < share {
            run(1);
            calls += 1;
        }
        let ops = (calls * ops_per_call) as f64;
        let (median, min, mad) = band(std::array::from_fn(|_| run(calls).as_nanos() as f64 / ops));
        println!(
            "bench: {op:<52} {median:>12.2} ns/op  (min {min:.2}, mad {mad:.2}, \
             {SAMPLES} samples × {calls} calls × {ops_per_call} ops)"
        );
        let mut record = vec![
            ("ns_per_op".to_string(), num(median)),
            ("min_ns_per_op".to_string(), num(min)),
            ("mad_ns_per_op".to_string(), num(mad)),
            ("samples".to_string(), uint(SAMPLES as u64)),
            ("calls_per_sample".to_string(), uint(calls)),
            ("ops_per_call".to_string(), uint(ops_per_call)),
        ];
        record.extend(context());
        self.push(op, record);
        median
    }

    fn push(&mut self, op: &str, record: Vec<(String, Value)>) {
        assert!(
            op.starts_with(&self.owns),
            "{op}: outside the layer this recorder owns ({:?})",
            self.owns
        );
        self.results.push((op.to_string(), Value::Object(record)));
    }

    /// Path of the ledger at the repository root.
    pub fn output_path() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(FILE_NAME)
    }

    /// Writes the recorded ops into the ledger, replacing this recorder's
    /// layer prefix in place (so the file keeps its order). Every other
    /// entry and every other top-level section is preserved; a ledger
    /// that cannot be preserved is refused.
    pub fn write(&self) -> Result<(), LedgerError> {
        self.write_to(&Recorder::output_path())
    }

    fn write_to(&self, path: &Path) -> Result<(), LedgerError> {
        let unparseable = |why: String| LedgerError::Unparseable(path.into(), why);
        let mut doc = match std::fs::read_to_string(path) {
            Ok(body) => {
                match serde_json::from_str(&body).map_err(|e| unparseable(e.to_string()))? {
                    Value::Object(doc) => doc,
                    other => return Err(unparseable(format!("top level is {}", other.kind()))),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => vec![
                ("schema".to_string(), Value::String(SCHEMA.to_string())),
                ("format".to_string(), Value::String(FORMAT.to_string())),
            ],
            Err(e) => return Err(LedgerError::Io(path.into(), e)),
        };
        match doc.iter().find(|(k, _)| k == "schema") {
            Some((_, Value::String(s))) if s == SCHEMA => {}
            Some((_, Value::String(s))) => {
                return Err(LedgerError::ForeignSchema(path.into(), Some(s.clone())))
            }
            _ => return Err(LedgerError::ForeignSchema(path.into(), None)),
        }
        if !doc.iter().any(|(k, _)| k == "ops") {
            doc.push(("ops".to_string(), Value::Object(Vec::new())));
        }
        let ops = match doc.iter_mut().find(|(k, _)| k == "ops") {
            Some((_, Value::Object(ops))) => ops,
            _ => return Err(unparseable("`ops` is not an object".to_string())),
        };
        let owned = |(op, _): &(String, Value)| op.starts_with(self.owns.as_str());
        let at = ops.iter().position(owned).unwrap_or(ops.len());
        ops.retain(|entry| !owned(entry));
        ops.splice(at..at, self.results.iter().cloned());
        std::fs::write(path, Value::Object(doc).render(true) + "\n")
            .map_err(|e| LedgerError::Io(path.into(), e))?;
        println!("bench: wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_ns() {
        let mut rec = Recorder::layer("test");
        let ns = rec.measure_absolute("test/noop", 4, Duration::from_millis(5), || {
            std::hint::black_box(1 + 1)
        });
        assert!(ns > 0.0);
        assert_eq!(rec.results.len(), 1);
        let record = &rec.results[0].1;
        assert_eq!(record.get("ops_per_call").and_then(Value::as_u64), Some(4));
        assert_eq!(
            record.get("samples").and_then(Value::as_u64),
            Some(SAMPLES as u64)
        );
        let field = |k: &str| record.get(k).and_then(Value::as_f64).expect(k);
        assert!(field("min_ns_per_op") <= field("ns_per_op"));
        assert!(field("mad_ns_per_op") >= 0.0);
        assert_eq!(record.get("cores").and_then(Value::as_u64), Some(cores()));
        assert_eq!(record.get("commit"), Some(&Value::String(commit())));
    }

    #[test]
    fn part_timing_counts_only_what_the_closure_reports() {
        let mut rec = Recorder::layer("test");
        let ns = rec.measure_absolute_part("test/part", 2, Duration::from_millis(5), || {
            std::thread::sleep(Duration::from_micros(200)); // untimed preparation
            Duration::from_nanos(500)
        });
        assert!((ns - 250.0).abs() < 1e-6, "{ns}");
    }

    #[test]
    fn a_slow_tenth_of_the_calls_does_not_move_the_recorded_median() {
        // Nine calls in ten report 100 ns, the tenth 10 µs: the mean is
        // ≈ 1 090 ns, the median 100. The sleep is at least one sample's
        // share of the budget, so every sample is exactly one call and
        // any 15 consecutive calls hold at most two slow ones.
        let budget = Duration::from_millis(8);
        let mut rec = Recorder::layer("test");
        let mut call = 0u32;
        let ns = rec.measure_absolute_part("test/bimodal", 1, budget, || {
            std::thread::sleep(budget / 16);
            call += 1;
            Duration::from_nanos(if call.is_multiple_of(10) { 10_000 } else { 100 })
        });
        assert_eq!(ns, 100.0);
        assert_eq!(
            call,
            1 + SAMPLES as u32,
            "one warm-up call, then one per sample"
        );
        let record = &rec.results[0].1;
        for (field, want) in [
            ("ns_per_op", 100.0),
            ("min_ns_per_op", 100.0),
            ("mad_ns_per_op", 0.0),
        ] {
            assert_eq!(
                record.get(field).and_then(Value::as_f64),
                Some(want),
                "{field}"
            );
        }
    }

    #[test]
    fn band_is_median_min_and_mad() {
        let mut ns = [10.0; SAMPLES];
        ns[..4].copy_from_slice(&[7.0, 13.0, 9.0, 500.0]);
        assert_eq!(band(ns), (10.0, 7.0, 0.0));
        let ramp: [f64; SAMPLES] = std::array::from_fn(|i| i as f64);
        assert_eq!(band(ramp), (7.0, 0.0, 4.0));
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
    #[should_panic(expected = "outside the layer")]
    fn a_layer_recorder_refuses_another_layers_op() {
        Recorder::layer("core").push("mp/append_n4", Vec::new());
    }

    /// A scratch ledger path unique to `name` (tests run in parallel).
    fn scratch(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("am-bench-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn op_names(path: &Path) -> Vec<String> {
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        match doc.get("ops") {
            Some(Value::Object(ops)) => ops.iter().map(|(op, _)| op.clone()).collect(),
            other => panic!("ops: {other:?}"),
        }
    }

    #[test]
    fn a_layer_write_replaces_its_prefix_and_nothing_else() {
        let path = scratch("prefix");
        std::fs::write(
            &path,
            format!(
                r#"{{"schema": "{SCHEMA}", "format": "{FORMAT}",
                    "ops": {{"bft/kept": {{"cores": 2}}, "core/old_a": {{"cores": 2}},
                             "mp/kept": {{"cores": 2}}, "core/old_b": {{"cores": 2}}}},
                    "other": {{"e4": 5.0}}}}"#
            ),
        )
        .unwrap();
        let mut rec = Recorder::layer("core");
        rec.push("core/new", Vec::new());
        rec.push("core/old_b", vec![("x".to_string(), num(1.0))]);
        rec.write_to(&path).unwrap();
        assert_eq!(
            op_names(&path),
            ["bft/kept", "core/new", "core/old_b", "mp/kept"],
            "`core/old_a` left with the run that no longer measures it"
        );
        // Another top-level section is carried over untouched.
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("other")
                .and_then(|b| b.get("e4"))
                .and_then(Value::as_f64),
            Some(5.0)
        );
        assert_eq!(
            doc.get("ops")
                .and_then(|o| o.get("core/old_b"))
                .and_then(|r| r.get("x"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_missing_ledger_starts_a_fresh_document() {
        let path = scratch("fresh");
        let mut rec = Recorder::layer("obs");
        rec.push("obs/probe", Vec::new());
        rec.write_to(&path).unwrap();
        assert_eq!(op_names(&path), ["obs/probe"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_damaged_ledger_is_refused_and_left_as_it_was() {
        let foreign = br#"{"schema": "someone-elses/3", "ops": {}, "other": {"e4": 5.0}}"#;
        let cases: [(&str, &[u8]); 3] = [
            ("unreadable", b"{\"schema\": \"\xff\xfe\"}"), // not UTF-8
            ("unparseable", b"{\"schema\": \"bench-traj"), // truncated
            ("foreign", foreign),
        ];
        for (name, body) in cases {
            let path = scratch(name);
            std::fs::write(&path, body).unwrap();
            let mut rec = Recorder::layer("core");
            rec.push("core/probe", Vec::new());
            let err = rec.write_to(&path).unwrap_err();
            assert!(
                matches!(
                    (name, &err),
                    ("unreadable", LedgerError::Io(..))
                        | ("unparseable", LedgerError::Unparseable(..))
                        | ("foreign", LedgerError::ForeignSchema(_, Some(_)))
                ),
                "{name}: {err:?}"
            );
            assert!(err.to_string().contains(path.to_str().unwrap()), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), body, "{name}: overwritten");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
