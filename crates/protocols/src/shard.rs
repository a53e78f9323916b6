//! The sweep's window logs: residue-class identity, the one checkpoint
//! store, and the conservative stop test.
//!
//! The sweep engine's tallies are pure functions of `(seed, trial
//! index)`, so a sweep point can be split across OS processes by residue
//! class: shard `i` of `m` runs exactly the trial indices `≡ i (mod m)`,
//! and the unsharded run *is* shard `0/1`. The engine consults its
//! stopping rule only at batch boundaries, so each class keeps, per
//! point, an append-only log of its *per-window* hit counts (window `b` =
//! the index range batch `b` covers). Any process that reads the union of
//! the `m` logs can replay the batch loop with each window's hits summed
//! over classes and reproduce the single-process tallies, batch counts
//! and stop decisions bit for bit, adaptive early stops included.
//!
//! Three pieces live here:
//!
//! * [`ShardSpec`] — a validated residue class plus the closed-form
//!   index arithmetic.
//! * [`ShardCheckpointStore`] — one class's log file
//!   (`<id>.checkpoint.json` for `0/1`, else
//!   `<id>.shard-<i>-of-<m>.checkpoint.json`), written with an atomic
//!   tmp+rename and stamped with schema, seed, shard identity, batch size
//!   and sweep mode. [`ShardCheckpointStore::load`] is the only reader:
//!   `--resume` and the merge both go through it, and a file that is
//!   absent, damaged or stamped for another run is a typed
//!   [`LoadError`], never trusted and never a panic.
//! * `surely_stopped` — the stop test every role shares.
//!
//! **Why a process that sees only some classes can stop at all.** It
//! cannot evaluate the global Wilson rule, but it can bound the global
//! tally: at batch boundary `T` the global hit count lies in `[seen_hits,
//! seen_hits + (T − seen_trials)]`, and the Wilson half-width is unimodal
//! in the hit count (widest at `T/2`). When every tally in that interval
//! satisfies the rule, the single-process run has provably stopped at or
//! before `T`, so the shard has logged every window a merge can ever ask
//! for. A process that has seen *every* index below `T` (the unsharded
//! run, the merge) has a one-point interval, and the test is exactly
//! [`StopRule::check`]. Fixed-mode rules only fire at the budget, so
//! fixed shards run their full slice.

use crate::sweep::{SweepConfig, SweepMode};
use am_stats::{Proportion, StopRule};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp of the checkpoint JSON document.
pub const SHARD_CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// One residue class of the trial-index range: shard `index` of `count`
/// owns the indices `≡ index (mod count)`. Fields are private so that
/// `index < count` (and hence `count ≥ 1`) holds for every value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    index: u32,
    count: u32,
}

impl ShardSpec {
    /// The whole index range as a single class: the unsharded run.
    pub const UNSHARDED: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// A validated spec; `index` must be below `count`.
    pub fn new(index: u32, count: u32) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be ≥ 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range (must be < {count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Every class of a `count`-way split, in index order.
    pub fn all(count: NonZeroU32) -> impl Iterator<Item = ShardSpec> {
        let count = count.get();
        (0..count).map(move |index| ShardSpec { index, count })
    }

    /// 0-based shard index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total shard count (≥ 1).
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The checkpoint file name this class writes for experiment `id`.
    pub fn file_name(&self, id: &str) -> String {
        if *self == ShardSpec::UNSHARDED {
            return format!("{id}.checkpoint.json");
        }
        format!(
            "{id}.shard-{}-of-{}.checkpoint.json",
            self.index, self.count
        )
    }

    /// Whether this shard runs trial index `idx`.
    pub fn owns(&self, idx: u64) -> bool {
        idx % u64::from(self.count) == u64::from(self.index)
    }

    /// How many indices in `[lo, hi)` belong to this shard.
    pub fn trials_in(&self, lo: u64, hi: u64) -> u64 {
        let below = |x: u64| {
            let (i, m) = (u64::from(self.index), u64::from(self.count));
            if x > i {
                (x - i).div_ceil(m)
            } else {
                0
            }
        };
        below(hi.max(lo)) - below(lo)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    /// Parses the CLI grammar `i/m` (0-based index, e.g. `"2/4"`).
    fn from_str(s: &str) -> Result<ShardSpec, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/m (e.g. 0/4), got '{s}'"))?;
        let index: u32 = i.parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let count: u32 = m.parse().map_err(|_| format!("bad shard count '{m}'"))?;
        ShardSpec::new(index, count)
    }
}

/// Monotone counter making concurrent tmp files unique *within* a
/// process; the PID makes them unique across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The tmp path a checkpoint write under `path` uses for process `pid`
/// and write sequence number `seq` — pure so the uniqueness property is
/// directly testable.
pub fn tmp_path_for(path: &Path, pid: u32, seq: u64) -> PathBuf {
    path.with_extension(format!("tmp.{pid}.{seq}"))
}

/// Writes `body` to `path` atomically: a PID-and-sequence-unique tmp
/// file plus a rename, so two processes (or stores) checkpointing into
/// the same path can never tear each other's tmp file — the last rename
/// wins and readers always see a complete document.
fn write_atomic(path: &Path, body: &str) -> io::Result<()> {
    let tmp = tmp_path_for(
        path,
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    );
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// One sweep point's log for one residue class: the class's hit count
/// inside each global batch window it has run, in window order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardPointCheckpoint {
    /// `batch_hits[b]` = failures among this class's indices inside the
    /// single-process run's batch window `b`.
    pub batch_hits: Vec<u64>,
    /// Whether the writer has proven the single-process run stops within
    /// the recorded windows (or has exhausted the budget).
    pub done: bool,
}

/// Why [`ShardCheckpointStore::load`] refused a file. Every variant
/// means the same thing to the caller — start the class's log empty and
/// re-run its trials — but the warning should say which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// No file at the path.
    Missing,
    /// Unreadable, not UTF-8, not JSON, or not the checkpoint shape
    /// (e.g. truncated by a crash of something other than this store).
    Unparsable,
    /// A well-formed checkpoint of a different run: `field` is the first
    /// header entry (or `"batch_hits"`, for a tally no window of this
    /// geometry can hold) that disagrees.
    Mismatch {
        /// The disagreeing header field.
        field: &'static str,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Missing => write!(f, "missing"),
            LoadError::Unparsable => write!(f, "unparsable"),
            LoadError::Mismatch { field } => write!(f, "ignored ({field} mismatch)"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One residue class's on-disk log: a header naming the run it belongs
/// to (schema, seed, shard identity, batch size, sweep mode — everything
/// the window geometry depends on) and the per-point window tallies.
#[derive(Debug)]
pub struct ShardCheckpointStore {
    path: PathBuf,
    seed: u64,
    spec: ShardSpec,
    batch: u64,
    mode: String,
    points: Mutex<BTreeMap<String, ShardPointCheckpoint>>,
}

impl ShardCheckpointStore {
    /// A fresh store writing to `path`; any existing file is overwritten
    /// at the first flush.
    pub fn create(
        path: impl Into<PathBuf>,
        seed: u64,
        spec: ShardSpec,
        cfg: &SweepConfig,
    ) -> ShardCheckpointStore {
        ShardCheckpointStore {
            path: path.into(),
            seed,
            spec,
            batch: cfg.batch,
            mode: match cfg.mode {
                SweepMode::Fixed => "fixed".to_string(),
                SweepMode::Adaptive { target_half_width } => {
                    format!("adaptive:{target_half_width}")
                }
            },
            points: Mutex::new(BTreeMap::new()),
        }
    }

    /// Reopens the log at `path` if it was written for the same seed,
    /// shard identity and sweep geometry.
    pub fn load(
        path: impl Into<PathBuf>,
        seed: u64,
        spec: ShardSpec,
        cfg: &SweepConfig,
    ) -> Result<ShardCheckpointStore, LoadError> {
        let mut store = ShardCheckpointStore::create(path, seed, spec, cfg);
        let body = std::fs::read(&store.path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => LoadError::Missing,
            _ => LoadError::Unparsable,
        })?;
        store.points = Mutex::new(store.parse(&body)?);
        Ok(store)
    }

    fn header(&self) -> [(&'static str, Value); 6] {
        [
            ("schema_version", SHARD_CHECKPOINT_SCHEMA_VERSION.to_value()),
            ("seed", self.seed.to_value()),
            ("shard_index", self.spec.index.to_value()),
            ("shard_count", self.spec.count.to_value()),
            ("batch", self.batch.to_value()),
            ("mode", self.mode.to_value()),
        ]
    }

    fn parse(&self, body: &[u8]) -> Result<BTreeMap<String, ShardPointCheckpoint>, LoadError> {
        let doc: Value = std::str::from_utf8(body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
            .ok_or(LoadError::Unparsable)?;
        for (field, want) in self.header() {
            if *doc.get(field).ok_or(LoadError::Unparsable)? != want {
                return Err(LoadError::Mismatch { field });
            }
        }
        let Some(Value::Object(entries)) = doc.get("points") else {
            return Err(LoadError::Unparsable);
        };
        let mut points = BTreeMap::new();
        for (key, val) in entries {
            let cp = ShardPointCheckpoint::from_value(val).map_err(|_| LoadError::Unparsable)?;
            // No window holds more hits than the class has indices in a
            // full batch; a larger tally cannot have come from this run.
            for (w, &hits) in (0u64..).zip(&cp.batch_hits) {
                let lo = w.saturating_mul(self.batch);
                if hits > self.spec.trials_in(lo, lo.saturating_add(self.batch)) {
                    return Err(LoadError::Mismatch {
                        field: "batch_hits",
                    });
                }
            }
            points.insert(key.clone(), cp);
        }
        Ok(points)
    }

    /// The file this store writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The residue class this store logs.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The recorded state of a point, if any.
    pub fn lookup(&self, key: &str) -> Option<ShardPointCheckpoint> {
        self.points.lock().unwrap().get(key).cloned()
    }

    /// Records a point's state and rewrites the checkpoint file.
    pub fn update(&self, key: &str, cp: ShardPointCheckpoint) -> io::Result<()> {
        let body = {
            let mut points = self.points.lock().unwrap();
            points.insert(key.to_string(), cp);
            let mut doc: Vec<(String, Value)> = self
                .header()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            doc.push((
                "points".to_string(),
                Value::Object(
                    points
                        .iter()
                        .map(|(k, cp)| (k.clone(), cp.to_value()))
                        .collect(),
                ),
            ));
            serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_else(|_| "{}".into())
        };
        write_atomic(&self.path, &body)
    }

    /// Whether every recorded point has proven global coverage — false
    /// after a `max_batches_per_run` halt or a mid-sweep kill.
    pub fn all_done(&self) -> bool {
        self.points.lock().unwrap().values().all(|cp| cp.done)
    }

    /// Deletes the checkpoint file and any tmp sibling a writer killed
    /// between its write and its rename left behind (call after the
    /// final results are safely written; a stale checkpoint would shadow
    /// the next run).
    pub fn discard(&self) {
        let _ = std::fs::remove_file(&self.path);
        let (Some(dir), Some(stem)) = (self.path.parent(), self.path.file_stem()) else {
            return;
        };
        let stale = format!("{}.tmp.", stem.to_string_lossy());
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&stale) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Whether the single-process run has provably stopped at or before
/// `trials` global trials, given that this process has seen `seen_hits`
/// failures over `seen_trials` of the indices below that boundary. The
/// global hit count lies in `[seen_hits, seen_hits + (trials −
/// seen_trials)]`; the Wilson half-width is unimodal in the hit count
/// (maximal near `trials/2`), so checking the interval's endpoints plus
/// the clamped midpoint bounds the width over every consistent tally.
/// With `seen_trials == trials` the three probes coincide and this is
/// exactly `rule.check(..).is_some()`.
pub(crate) fn surely_stopped(
    rule: &StopRule,
    seen_hits: u64,
    seen_trials: u64,
    trials: u64,
) -> bool {
    debug_assert!(seen_trials <= trials && seen_hits <= seen_trials);
    if trials >= rule.max_trials {
        return true;
    }
    if trials < rule.min_trials {
        return false;
    }
    let lo = seen_hits;
    let hi = seen_hits + (trials - seen_trials);
    let mid = (trials / 2).clamp(lo, hi);
    [lo, mid, hi]
        .iter()
        .all(|&h| rule.half_width(&Proportion::from_counts(h, trials)) <= rule.target_half_width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_and_validate() {
        let s: ShardSpec = "2/4".parse().unwrap();
        assert_eq!(s, ShardSpec { index: 2, count: 4 });
        assert_eq!(s.to_string(), "2/4");
        assert_eq!(s.file_name("e8"), "e8.shard-2-of-4.checkpoint.json");
        assert_eq!("0/1".parse(), Ok(ShardSpec::UNSHARDED));
        assert_eq!(ShardSpec::UNSHARDED.file_name("e8"), "e8.checkpoint.json");
        let three = ShardSpec::all(NonZeroU32::new(3).unwrap());
        assert_eq!(
            three.map(|s| s.to_string()).collect::<Vec<_>>(),
            ["0/3", "1/3", "2/3"]
        );
        assert!("4/4".parse::<ShardSpec>().is_err(), "index must be < count");
        assert!("0/0".parse::<ShardSpec>().is_err(), "count must be ≥ 1");
        assert!("nope".parse::<ShardSpec>().is_err());
        assert!("1".parse::<ShardSpec>().is_err());
    }

    #[test]
    fn trials_in_matches_enumeration() {
        for count in 1..=5u32 {
            for index in 0..count {
                let spec = ShardSpec { index, count };
                for lo in 0..40u64 {
                    for hi in lo..40 {
                        let expect = (lo..hi).filter(|&i| spec.owns(i)).count() as u64;
                        assert_eq!(
                            spec.trials_in(lo, hi),
                            expect,
                            "shard {spec} over [{lo}, {hi})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shards_partition_every_index() {
        let count = 3u32;
        for idx in 0..100u64 {
            let owners = (0..count)
                .filter(|&i| ShardSpec { index: i, count }.owns(idx))
                .count();
            assert_eq!(owners, 1, "index {idx} must have exactly one owner");
        }
    }

    #[test]
    fn tmp_paths_are_unique_per_pid_and_seq() {
        let path = Path::new("/tmp/x/e8.checkpoint.json");
        let a = tmp_path_for(path, 100, 0);
        let b = tmp_path_for(path, 100, 1);
        let c = tmp_path_for(path, 101, 0);
        assert_ne!(a, b, "writes within a process must not share a tmp file");
        assert_ne!(a, c, "processes must not share a tmp file");
        assert!(a.to_string_lossy().contains("100"));
        // The tmp file stays inside the checkpoint's directory.
        assert_eq!(a.parent(), path.parent());
    }

    #[test]
    fn concurrent_stores_never_tear_the_file() {
        // Two stores aimed at one path (the two-process hazard, simulated
        // in-process: each store's writes use distinct tmp names via the
        // global sequence) hammer updates while a reader keeps parsing.
        // Every observed file must be a complete JSON document.
        let dir = std::env::temp_dir().join(format!("am_shard_race_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cp.checkpoint.json");
        let cfg = SweepConfig::fixed();
        let spec = ShardSpec { index: 0, count: 1 };
        let a = ShardCheckpointStore::create(&path, 7, spec, &cfg);
        let b = ShardCheckpointStore::create(&path, 7, spec, &cfg);
        std::thread::scope(|sc| {
            for store in [&a, &b] {
                sc.spawn(move || {
                    for i in 0..60u64 {
                        let cp = ShardPointCheckpoint {
                            batch_hits: vec![i; 8],
                            done: false,
                        };
                        store.update("pt", cp).unwrap();
                    }
                });
            }
            sc.spawn(|| {
                for _ in 0..120 {
                    if let Ok(body) = std::fs::read_to_string(&path) {
                        let v: Value = serde_json::from_str(&body)
                            .unwrap_or_else(|e| panic!("torn checkpoint read: {e}\n{body}"));
                        assert!(v.get("points").is_some());
                    }
                    std::thread::yield_now();
                }
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_validates_identity_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("am_shard_ident_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let cfg = SweepConfig::adaptive(0.05);
        let spec = ShardSpec { index: 1, count: 4 };
        let path = dir.join(spec.file_name("e8"));
        let load = |seed, spec, cfg: &SweepConfig| {
            ShardCheckpointStore::load(&path, seed, spec, cfg).map(|s| s.lookup("k"))
        };
        assert_eq!(load(3, spec, &cfg), Err(LoadError::Missing));
        let cp = ShardPointCheckpoint {
            batch_hits: vec![1, 0, 2],
            done: true,
        };
        ShardCheckpointStore::create(&path, 3, spec, &cfg)
            .update("k", cp.clone())
            .unwrap();
        assert_eq!(load(3, spec, &cfg), Ok(Some(cp)));

        // Any identity mismatch must be refused, naming the field — a
        // foreign run's tallies are never continued or merged.
        let mismatch = |field| Err(LoadError::Mismatch { field });
        assert_eq!(load(4, spec, &cfg), mismatch("seed"));
        let other = ShardSpec { index: 2, count: 4 };
        assert_eq!(load(3, other, &cfg), mismatch("shard_index"));
        let other = ShardSpec { index: 1, count: 5 };
        assert_eq!(load(3, other, &cfg), mismatch("shard_count"));
        let mut other = cfg;
        other.batch = 8;
        assert_eq!(load(3, spec, &other), mismatch("batch"));
        assert_eq!(load(3, spec, &SweepConfig::fixed()), mismatch("mode"));

        // Damage is refused too: a truncated document, a non-UTF-8 byte,
        // a tally no 32-index window of a 4-way split can hold (9 > 8), and the
        // pre-unification `{hits, trials, batches, done}` layout.
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert_eq!(load(3, spec, &cfg), Err(LoadError::Unparsable));
        let mut flipped = body.clone();
        flipped[body.len() / 2] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(load(3, spec, &cfg), Err(LoadError::Unparsable));
        let impossible = ShardPointCheckpoint {
            batch_hits: vec![8, 9],
            done: false,
        };
        ShardCheckpointStore::create(&path, 3, spec, &cfg)
            .update("k", impossible)
            .unwrap();
        assert_eq!(load(3, spec, &cfg), mismatch("batch_hits"));
        let old = r#"{"schema_version":1,"seed":3,"points":{"k":{"hits":5,"trials":10,"batches":1,"done":true}}}"#;
        std::fs::write(&path, old).unwrap();
        assert_eq!(load(3, spec, &cfg), Err(LoadError::Unparsable));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_removes_the_file_and_its_stale_tmp_siblings() {
        // A writer killed between its write and its rename leaves
        // `<stem>.tmp.<pid>.<seq>` behind; discard sweeps those up, and
        // only those.
        let dir = std::env::temp_dir().join(format!("am_shard_tmp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let cfg = SweepConfig::fixed();
        let path = dir.join(ShardSpec::UNSHARDED.file_name("e6"));
        let store = ShardCheckpointStore::create(&path, 0, ShardSpec::UNSHARDED, &cfg);
        store.update("pt", ShardPointCheckpoint::default()).unwrap();
        let stale = tmp_path_for(&path, 999_999, 7);
        let neighbour = dir.join("e6.shard-0-of-2.checkpoint.tmp.1.0");
        std::fs::write(&stale, "{").unwrap();
        std::fs::write(&neighbour, "{").unwrap();
        std::fs::write(dir.join("e6.json"), "{}").unwrap();
        store.discard();
        assert!(!path.exists() && !stale.exists());
        assert!(neighbour.exists(), "another class's tmp file is not ours");
        assert!(dir.join("e6.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn surely_stopped_is_sound_against_every_consistent_tally() {
        // Whenever the conservative check fires, the actual rule must
        // fire for every global tally consistent with the shard's view.
        let rule = StopRule::wilson95(0.05, 10_000);
        for trials in [0u64, 32, 64, 96, 200, 400, 800] {
            for own_trials in [0, trials / 4, trials / 2, trials] {
                for own_hits in [0, own_trials / 3, own_trials] {
                    if surely_stopped(&rule, own_hits, own_trials, trials) {
                        for h in own_hits..=own_hits + (trials - own_trials) {
                            assert!(
                                rule.check(&Proportion::from_counts(h, trials)).is_some(),
                                "claimed stop at {trials} but h={h} keeps sampling"
                            );
                        }
                    }
                }
            }
        }
        // And it must eventually fire: full knowledge at an easy point.
        assert!(surely_stopped(&rule, 0, 200, 200));
        // Budget exhaustion always fires.
        let tight = StopRule::wilson95(0.001, 64);
        assert!(surely_stopped(&tight, 10, 32, 64));
    }

    #[test]
    fn fixed_mode_shards_run_the_full_slice() {
        let cfg = SweepConfig::fixed();
        let rule = cfg.rule(100);
        assert!(!surely_stopped(&rule, 0, 25, 96), "fixed never stops early");
        assert!(surely_stopped(&rule, 0, 25, 100), "fixed stops at budget");
    }

    #[test]
    fn surely_stopped_is_the_exact_rule_on_a_full_tally() {
        // The unsharded run and the merge see every index below the
        // boundary, so the conservative test must degenerate to
        // `StopRule::check` — this is what lets one loop serve all roles.
        for cfg in [SweepConfig::fixed(), SweepConfig::adaptive(0.05)] {
            for budget in [0u64, 1, 31, 32, 100, 400] {
                let rule = cfg.rule(budget);
                for trials in (0..=budget + 40).step_by(7).chain([budget]) {
                    for hits in [
                        0,
                        1,
                        trials / 7,
                        trials / 2,
                        trials.saturating_sub(1),
                        trials,
                    ] {
                        let hits = hits.min(trials);
                        assert_eq!(
                            surely_stopped(&rule, hits, trials, trials),
                            rule.check(&Proportion::from_counts(hits, trials)).is_some(),
                            "{cfg:?} budget {budget} tally {hits}/{trials}"
                        );
                    }
                }
            }
        }
    }
}
