//! Experiment report plumbing: tables + series + notes + sweep records,
//! printed to stdout and dumped as JSON under a caller-chosen output
//! directory.

use am_protocols::PointResult;
use am_stats::{Series, Table};
use serde::{Deserialize, Error, Serialize, Value};
use std::path::PathBuf;

/// Version stamp of the report JSON document. Bumped to 2 when the
/// `schema_version` and `sweeps` fields (per-point `trials_used` +
/// achieved CI from the adaptive engine) were added; version-1 documents
/// are the historic six-field shape.
pub const SCHEMA_VERSION: u32 = 2;

/// One sweep point's outcome as recorded in the report JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPointRecord {
    /// The point's stable key (also its checkpoint/obs identity).
    pub key: String,
    /// Failure-probability point estimate.
    pub estimate: f64,
    /// Achieved 95% Wilson interval, lower bound.
    pub ci_lo: f64,
    /// Achieved 95% Wilson interval, upper bound.
    pub ci_hi: f64,
    /// Trials actually run at this point.
    pub trials_used: u64,
    /// The budget the point was allowed.
    pub budget: u64,
    /// Batches executed.
    pub batches: u64,
    /// Stop reason: `"half_width"`, `"budget"`, or `"fixed"`.
    pub stop: String,
}

/// One labelled sweep: the engine outcomes of a grid of points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Human label of the sweep (matches the table it fed).
    pub label: String,
    /// Per-point outcomes, in probe order.
    pub points: Vec<SweepPointRecord>,
}

/// One experiment's full output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Report JSON schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id, e.g. "E8".
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper result being reproduced.
    pub paper_ref: String,
    /// Tables (paper bound vs measured).
    pub tables: Vec<Table>,
    /// Series (figure stand-ins).
    pub series: Vec<Series>,
    /// Free-form findings.
    pub notes: Vec<String>,
    /// Sweep-engine records: trials used and achieved CI per point.
    pub sweeps: Vec<SweepRecord>,
    /// Side-car documents: `(file name, pre-rendered JSON body)` pairs
    /// written next to the main JSON (e.g. E14's network statistics).
    pub extras: Vec<(String, String)>,
}

// Manual impl: the JSON document keeps the historic field order with
// `schema_version` leading and `sweeps` trailing; the extras land in
// their own files, not inside the report.
impl Serialize for Report {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("title".to_string(), self.title.to_value()),
            ("paper_ref".to_string(), self.paper_ref.to_value()),
            ("tables".to_string(), self.tables.to_value()),
            ("series".to_string(), self.series.to_value()),
            ("notes".to_string(), self.notes.to_value()),
            ("sweeps".to_string(), self.sweeps.to_value()),
        ])
    }
}

// Manual impl mirroring the Serialize shape (extras are side-car files
// and do not round-trip through the main document).
impl Deserialize for Report {
    fn from_value(v: &Value) -> Result<Report, Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| Error::msg(format!("Report: missing field {k}")))
        };
        Ok(Report {
            schema_version: u32::from_value(field("schema_version")?)?,
            id: String::from_value(field("id")?)?,
            title: String::from_value(field("title")?)?,
            paper_ref: String::from_value(field("paper_ref")?)?,
            tables: Vec::from_value(field("tables")?)?,
            series: Vec::from_value(field("series")?)?,
            notes: Vec::from_value(field("notes")?)?,
            sweeps: Vec::from_value(field("sweeps")?)?,
            extras: Vec::new(),
        })
    }
}

impl Report {
    /// Creates an empty report at the current [`SCHEMA_VERSION`].
    pub fn new(id: &str, title: &str, paper_ref: &str) -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            title: title.into(),
            paper_ref: paper_ref.into(),
            tables: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
            sweeps: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Adds a note line.
    pub fn note<S: Into<String>>(&mut self, s: S) {
        self.notes.push(s.into());
    }

    /// Records a sweep's engine outcomes (trials used, achieved CI, stop
    /// reason per point) for the JSON document.
    pub fn record_sweep(
        &mut self,
        label: &str,
        points: impl IntoIterator<Item = (String, PointResult)>,
    ) {
        let points = points
            .into_iter()
            .map(|(key, r)| {
                let ci = r.ci95();
                SweepPointRecord {
                    key,
                    estimate: r.estimate(),
                    ci_lo: ci.lo,
                    ci_hi: ci.hi,
                    trials_used: r.trials_used(),
                    budget: r.budget,
                    batches: r.batches,
                    stop: r.stop.label().to_string(),
                }
            })
            .collect();
        self.sweeps.push(SweepRecord {
            label: label.into(),
            points,
        });
    }

    /// Renders everything to a printable string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "################ {} — {} ################\n({})\n\n",
            self.id, self.title, self.paper_ref
        ));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.series.is_empty() {
            for s in &self.series {
                out.push_str(&s.render());
                out.push('\n');
            }
            out.push('\n');
            out.push_str(&Series::ascii_chart(&self.series, 12));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("* {n}\n"));
        }
        out
    }

    /// Total Monte-Carlo trials across every recorded sweep point — the
    /// numerator of the trials/sec throughput the harness publishes to
    /// BENCH_TRAJECTORY.json. Derived from the serialized sweeps
    /// section, so it is identical whether computed on the live report
    /// or on a reloaded `<id>.json` (wall-clock itself never enters the
    /// report document, which must stay byte-reproducible).
    pub fn total_sweep_trials(&self) -> u64 {
        self.sweeps
            .iter()
            .flat_map(|s| &s.points)
            .map(|p| p.trials_used)
            .sum()
    }

    /// Loads a saved report from `<dir>/<id>.json`.
    pub fn load_from(dir: &str, id: &str) -> Option<Report> {
        let path = std::path::Path::new(dir).join(format!("{}.json", id.to_lowercase()));
        let body = std::fs::read_to_string(path).ok()?;
        serde_json::from_str(&body).ok()
    }

    /// Adds a side-car JSON document saved as `<out_dir>/<file>` by
    /// [`Report::save_in`].
    pub fn extra_json(&mut self, file: impl Into<String>, body: impl Into<String>) {
        self.extras.push((file.into(), body.into()));
    }

    /// Writes the JSON form to `<dir>/<id>.json` plus every extra
    /// document (best effort). Returns the main JSON path on success.
    pub fn save_in(&self, dir: &str) -> Option<PathBuf> {
        std::fs::create_dir_all(dir).ok()?;
        let dir = std::path::Path::new(dir);
        for (file, body) in &self.extras {
            let _ = std::fs::write(dir.join(file), body);
        }
        let path = dir.join(format!("{}.json", self.id.to_lowercase()));
        let s = serde_json::to_string_pretty(self).ok()?;
        std::fs::write(&path, s).ok()?;
        Some(path)
    }
}

/// Formats a float tersely for table cells.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a proportion with its 95% interval.
pub fn prop(p: &am_stats::Proportion) -> String {
    let w = p.wilson95();
    format!("{:.3} [{:.3},{:.3}]", p.estimate(), w.lo, w.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_stats::Proportion;

    #[test]
    fn render_includes_all_sections() {
        let mut r = Report::new("EX", "demo title", "Theorem 0");
        let mut t = Table::new("tbl", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        r.tables.push(t);
        let mut se = Series::new("line");
        se.push(1.0, 2.0);
        r.series.push(se);
        r.note("finding one");
        let out = r.render();
        assert!(out.contains("EX — demo title"));
        assert!(out.contains("Theorem 0"));
        assert!(out.contains("== tbl =="));
        assert!(out.contains("line: (1.0000, 2.0000)"));
        assert!(out.contains("* finding one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.5), "0.5000");
        let p = Proportion::from_counts(5, 100);
        let s = prop(&p);
        assert!(s.starts_with("0.050 ["));
        assert!(s.contains(','));
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        use am_protocols::PointResult;
        use am_stats::StopReason;

        let mut r = Report::new("ERT", "round trip", "Schema v2");
        let mut t = Table::new("tbl", &["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        r.tables.push(t);
        let mut se = Series::new("curve");
        se.push(0.5, 0.25);
        r.series.push(se);
        r.note("a finding");
        r.record_sweep(
            "demo sweep",
            [(
                "pt/t3".to_string(),
                PointResult {
                    tally: Proportion::from_counts(7, 96),
                    budget: 4000,
                    batches: 3,
                    stop: StopReason::HalfWidth,
                    complete: true,
                },
            )],
        );

        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"trials_used\": 96"));
        assert!(json.contains("\"stop\": \"half_width\""));

        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.id, r.id);
        assert_eq!(back.sweeps, r.sweeps);
        assert_eq!(back.sweeps[0].points[0].budget, 4000);
        assert!((back.sweeps[0].points[0].estimate - 7.0 / 96.0).abs() < 1e-12);
        // Re-serializing the rebuilt report reproduces the document.
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn deserialize_rejects_versionless_documents() {
        let legacy = r#"{"id":"E1","title":"t","paper_ref":"p",
                         "tables":[],"series":[],"notes":[]}"#;
        let err = serde_json::from_str::<Report>(legacy).unwrap_err();
        assert!(err.to_string().contains("schema_version"));
    }

    #[test]
    fn save_in_respects_dir_and_writes_extras() {
        let mut r = Report::new("EDIR", "out-dir demo", "none");
        r.extra_json("edir.sidecar.json", "{\"x\": 1}");
        let dir = std::env::temp_dir().join("am_exp_report_test");
        let main = r.save_in(dir.to_str().unwrap()).expect("save succeeds");
        assert!(main.ends_with("edir.json"));
        let body = std::fs::read_to_string(&main).unwrap();
        assert!(body.contains("out-dir demo"));
        assert!(!body.contains("sidecar"), "extras stay out of the report");
        let side = std::fs::read_to_string(dir.join("edir.sidecar.json")).unwrap();
        assert_eq!(side, "{\"x\": 1}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
