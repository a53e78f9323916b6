//! The per-run manifest: one JSON document answering "what did this run
//! do, how long did each part take, and where did the outputs go".

use crate::trace::{esc, us};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// One executed experiment.
#[derive(Clone, Debug)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. "e14".
    pub id: String,
    /// Wall-clock duration.
    pub duration_ms: f64,
    /// The wall-clock ceiling the experiment declares for its `--fast`
    /// run, in seconds; CI compares `duration_ms` against it.
    pub budget_s: f64,
    /// Where the experiment's JSON landed, if it was written.
    pub output: Option<String>,
}

/// A run's manifest, written to `<out_dir>/manifest.json`. The document
/// embeds a snapshot of the obs registry (span stats, counters, event
/// counts) taken at [`RunManifest::write`] time.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// The base Monte-Carlo seed of the run.
    pub seed: u64,
    /// Output directory every path in the manifest is relative to.
    pub out_dir: String,
    /// Trace file path, when `--trace` exported one.
    pub trace: Option<String>,
    /// Executed experiments, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl RunManifest {
    /// An empty manifest for a run with `seed` writing under `out_dir`.
    pub fn new(seed: u64, out_dir: impl Into<String>) -> RunManifest {
        RunManifest {
            seed,
            out_dir: out_dir.into(),
            trace: None,
            experiments: Vec::new(),
        }
    }

    /// Appends one experiment record.
    pub fn record(&mut self, rec: ExperimentRecord) {
        self.experiments.push(rec);
    }

    /// Notes the exported trace path.
    pub fn set_trace(&mut self, path: impl Into<String>) {
        self.trace = Some(path.into());
    }

    /// Renders the manifest (plus a registry snapshot) as JSON.
    pub fn to_json(&self) -> String {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"written_unix\": {unix},\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"out_dir\": \"{}\",\n", esc(&self.out_dir)));
        match &self.trace {
            Some(t) => out.push_str(&format!("  \"trace\": \"{}\",\n", esc(t))),
            None => out.push_str("  \"trace\": null,\n"),
        }
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let output = match &e.output {
                Some(p) => format!("\"{}\"", esc(p)),
                None => "null".into(),
            };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"duration_ms\": {}, \"budget_s\": {}, \"output\": {output}}}{}\n",
                esc(&e.id),
                us(e.duration_ms),
                us(e.budget_s),
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");

        // Registry snapshot: spans, counters, events.
        out.push_str("  \"spans\": {\n");
        let spans = crate::span_stats();
        for (i, (path, s)) in spans.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
                esc(path),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.p50_ns,
                s.p99_ns,
                if i + 1 < spans.len() { "," } else { "" },
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"counters\": {\n");
        let counters: Vec<(String, u64)> = crate::counter_values()
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .collect();
        for (i, (name, v)) in counters.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {v}{}\n",
                esc(name),
                if i + 1 < counters.len() { "," } else { "" },
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"events\": {\n");
        let events = crate::event_counts();
        for (i, (name, v)) in events.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {v}{}\n",
                esc(name),
                if i + 1 < events.len() { "," } else { "" },
            ));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"events_total\": {},\n  \"trace_ring_evicted\": {}\n}}\n",
            crate::events_recorded(),
            crate::events_dropped(),
        ));
        out
    }

    /// Writes `manifest.json` under [`RunManifest::out_dir`].
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = Path::new(&self.out_dir);
        std::fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn manifest_renders_and_writes() {
        let _l = test_lock::hold();
        crate::set_enabled(true);
        crate::reset();
        crate::counter("man.count").add(7);
        crate::record_sim_span("man/span", 0, 0, 1_000);
        crate::event("man/ev", 1, 10, || "d".into());

        let dir = std::env::temp_dir().join("am_obs_manifest_test");
        let mut m = RunManifest::new(42, dir.to_string_lossy().to_string());
        m.record(ExperimentRecord {
            id: "e4".into(),
            duration_ms: 12.5,
            budget_s: 5.0,
            output: Some("e4.json".into()),
        });
        m.record(ExperimentRecord {
            id: "e14".into(),
            duration_ms: 99.0,
            budget_s: 15.0,
            output: None,
        });
        m.set_trace("trace.json");

        let body = m.to_json();
        assert!(body.contains("\"seed\": 42"));
        assert!(body.contains(
            "{\"id\": \"e4\", \"duration_ms\": 12.500, \"budget_s\": 5.000, \"output\": \"e4.json\"}"
        ));
        assert!(body.contains("\"man.count\": 7"));
        assert!(body.contains("\"man/span\""));
        assert!(body.contains("\"man/ev\": 1"));
        assert!(body.contains("\"events_total\": 1"));

        let path = m.write().expect("manifest writes");
        assert!(path.ends_with("manifest.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), m.to_json());
        let _ = std::fs::remove_dir_all(&dir);
        crate::set_enabled(false);
    }

    #[test]
    fn empty_manifest_is_valid() {
        let _l = test_lock::hold();
        crate::set_enabled(false);
        crate::reset();
        let m = RunManifest::new(0, "results");
        let body = m.to_json();
        assert!(body.contains("\"experiments\": [\n  ]"));
        assert!(body.contains("\"trace\": null"));
    }
}
