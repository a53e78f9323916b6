//! The adaptive Monte-Carlo sweep engine.
//!
//! Every theorem experiment is a sweep: a grid of parameter points, each
//! estimating a Bernoulli failure probability by repeated simulation.
//! This module is the one engine those sweeps share:
//!
//! * **Batched, schedule-independent trials.** Each point runs trials in
//!   batches, one after another on the calling thread; trial `i` is
//!   seeded by [`trial_seed`]`(seed, i)`, so the tally is a pure function
//!   of `(seed, trial count)` — independent of batch boundaries and
//!   interruption, and of which thread would run which index (the trial
//!   closure is `Sync` for that reason: a window is a sum over
//!   independent indices).
//! * **Sequential stopping.** In [`SweepMode::Adaptive`] the engine
//!   consults an [`am_stats::StopRule`] between batches and stops a point
//!   as soon as its Wilson half-width reaches the target — easy points
//!   (failure rate ≈ 0 or ≈ 1) finish in a batch or two, hard points near
//!   the resilience threshold run to the budget cap. [`SweepMode::Fixed`]
//!   reproduces the historic fixed-budget tables exactly.
//! * **One lifecycle for every role.** A process answers for a set of
//!   residue classes of the trial-index range (see [`crate::shard`]),
//!   each with an append-only per-window hit log: the unsharded run is
//!   class `0/1`, a shard is class `i/m`, the merge is all of `mod m`.
//!   In each batch window a class's hits are *reused* if its log already
//!   holds that window and *run* otherwise — so `--resume` (own log from
//!   an earlier process), the merge (the `m` shard logs) and top-up (a
//!   window some shard never reached) are one mechanism. The stop test
//!   is `surely_stopped`, exact whenever the process has seen every
//!   index, conservative otherwise. Integer tallies plus index-derived
//!   seeds leave nothing schedule-dependent, so every split, kill and
//!   resume reproduces the single-process results bit for bit.
//! * **Reset, not rebuilt.** A trial takes its graph (`TrialDag`), its
//!   decision scratch, its id buffers, its bank and its network storage
//!   from the `thread_local!` pool in `crate::scratch` and puts them
//!   back; each grows to its working size on a thread's first trials and
//!   a warm abstract trial then allocates nothing for any of them.
//!   Everything is reset or cleared before use, so tallies stay
//!   bit-identical regardless of which thread runs which trial.
//!
//! Observability: a `sweep/<key>` span per point and four counters —
//! `sweep.batches` (windows in which this process ran trials),
//! `sweep.trials` (indices this process ran), `sweep.windows_reused`
//! (class-windows taken from a log instead) and `sweep.trials_saved`
//! (budget left unspent at each stop this process saw exactly).

use crate::params::Params;
use crate::runner::{trial_seed, TrialKind};
use crate::shard::{surely_stopped, ShardCheckpointStore, ShardPointCheckpoint, ShardSpec};
use am_stats::{Proportion, StopReason, StopRule, WilsonInterval};

/// How a sweep spends its per-point trial budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepMode {
    /// Historic behaviour: every point runs its full budget.
    Fixed,
    /// Sequential stopping: batches until the 95% Wilson half-width is
    /// ≤ `target_half_width` or the budget cap is hit.
    Adaptive {
        /// The Wilson 95% half-width at which a point stops sampling.
        target_half_width: f64,
    },
}

/// Engine configuration shared by every point of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepConfig {
    /// Fixed or adaptive budget spending.
    pub mode: SweepMode,
    /// Trials per batch (the granularity of stopping checks and
    /// checkpoints).
    pub batch: u64,
    /// When set, each point runs at most this many batches *in this
    /// process* and then reports itself incomplete — a deterministic
    /// stand-in for a mid-sweep kill, used by the `--resume` round-trip
    /// test lane.
    pub max_batches_per_run: Option<u64>,
}

impl SweepConfig {
    /// The historic default: fixed budgets, 32-trial batches.
    pub fn fixed() -> SweepConfig {
        SweepConfig {
            mode: SweepMode::Fixed,
            batch: 32,
            max_batches_per_run: None,
        }
    }

    /// Adaptive stopping at the given Wilson 95% half-width target.
    pub fn adaptive(target_half_width: f64) -> SweepConfig {
        SweepConfig {
            mode: SweepMode::Adaptive { target_half_width },
            batch: 32,
            max_batches_per_run: None,
        }
    }

    /// The stop rule this configuration induces for a point with the
    /// given trial budget.
    pub fn rule(&self, budget: u64) -> StopRule {
        match self.mode {
            // A fixed rule "stops" only at the budget; the unreachable
            // half-width target keeps the check inert.
            SweepMode::Fixed => StopRule {
                target_half_width: 0.0,
                z: 1.959964,
                max_trials: budget,
                min_trials: budget,
            },
            SweepMode::Adaptive { target_half_width } => {
                let mut rule = StopRule::wilson95(target_half_width, budget);
                // Never stop before one batch of evidence, but also never
                // demand more than the budget itself.
                rule.min_trials = self.batch.min(budget);
                rule
            }
        }
    }
}

/// Outcome of one sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointResult {
    /// The failure tally over the trials actually run.
    pub tally: Proportion,
    /// The budget the point was allowed.
    pub budget: u64,
    /// Batches executed (across resumes).
    pub batches: u64,
    /// Why sampling stopped.
    pub stop: StopReason,
    /// False when `max_batches_per_run` halted the point mid-budget; the
    /// checkpoint holds the cursor for a later `--resume`.
    pub complete: bool,
}

impl PointResult {
    /// Trials actually run.
    pub fn trials_used(&self) -> u64 {
        self.tally.trials
    }

    /// Point estimate of the failure probability.
    pub fn estimate(&self) -> f64 {
        self.tally.estimate()
    }

    /// The achieved 95% Wilson interval.
    pub fn ci95(&self) -> WilsonInterval {
        self.tally.wilson95()
    }

    /// Trials the stopping rule saved relative to the full budget.
    pub fn trials_saved(&self) -> u64 {
        self.budget.saturating_sub(self.tally.trials)
    }
}

/// How many batch windows a writer runs between checkpoint flushes. The
/// in-memory log is always current; only the file lags. A hard kill
/// therefore costs at most this many windows of one point's work (the
/// next process re-runs whatever the file is missing), while the sweep
/// avoids rewriting the whole checkpoint after every window.
const SHARD_FLUSH_WINDOWS: usize = 256;

/// The engine: a configuration plus the window logs of the residue
/// classes this process answers for.
///
/// ```
/// use am_protocols::sweep::{SweepConfig, SweepRunner};
/// let runner = SweepRunner::new(SweepConfig::adaptive(0.05));
/// // A deterministic coin: trial i fails iff its low bit is set.
/// let r = runner.estimate("demo", 10_000, |i| i % 2 == 0);
/// assert!(r.complete);
/// assert!(r.trials_used() < 10_000, "a fair coin stops well short");
/// assert!(r.ci95().contains(0.5));
/// ```
pub struct SweepRunner<'a> {
    cfg: SweepConfig,
    stores: &'a [ShardCheckpointStore],
}

/// What one point cost this process; [`SweepRunner::estimate`] folds it
/// into the `sweep.*` counters.
#[derive(Debug, Default, PartialEq)]
struct Work {
    batches: u64,
    trials: u64,
    windows_reused: u64,
    trials_saved: u64,
}

impl<'a> SweepRunner<'a> {
    /// The plain single-process engine: class `0/1`, no log on disk.
    pub fn new(cfg: SweepConfig) -> SweepRunner<'static> {
        SweepRunner::over(cfg, &[])
    }

    /// An engine answering for the residue class of every store in
    /// `stores` (none = the whole range, unlogged). With one store the
    /// process is that class's writer: windows already in the log are
    /// reused, the rest are run, appended and flushed — a fresh or
    /// resumed unsharded run (`0/1`) or shard (`i/m`), whose tallies
    /// cover its own indices only. With the `m` stores of a split it is
    /// the merge: a reader of the union of logs that runs whatever window
    /// no shard recorded and writes nothing.
    ///
    /// # Panics
    /// If the stores do not share one shard count.
    pub fn over(cfg: SweepConfig, stores: &'a [ShardCheckpointStore]) -> SweepRunner<'a> {
        assert!(
            stores
                .iter()
                .all(|s| s.spec().count() == stores[0].spec().count()),
            "the logs of one sweep share one shard count"
        );
        SweepRunner { cfg, stores }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// The log this process appends to, if it is a class's single writer.
    pub fn log(&self) -> Option<&'a ShardCheckpointStore> {
        match self.stores {
            [store] => Some(store),
            _ => None,
        }
    }

    /// Estimates a Bernoulli proportion: `trial(i)` runs trial `i` and
    /// returns whether the event occurred. `key` names the point in the
    /// checkpoint file and its obs span; it must be stable across runs
    /// and unique within the sweep.
    ///
    /// The trial function must be deterministic in `i` (derive all
    /// randomness from `i`, e.g. via
    /// [`trial_seed`]); the engine guarantees
    /// each index in `0..trials_used` runs exactly once, across batches,
    /// shards and resumes.
    pub fn estimate<F>(&self, key: &str, budget: u64, trial: F) -> PointResult
    where
        F: Fn(u64) -> bool + Sync,
    {
        let _span = am_obs::span(format!("sweep/{key}"));
        let (result, work) = self.run_point(key, budget, &trial);
        am_obs::counter("sweep.batches").add(work.batches);
        am_obs::counter("sweep.trials").add(work.trials);
        am_obs::counter("sweep.windows_reused").add(work.windows_reused);
        am_obs::counter("sweep.trials_saved").add(work.trials_saved);
        result
    }

    /// The one batch loop. Walks the global batch windows; in each, every
    /// class this process answers for contributes its logged hits or, if
    /// the log is short, runs its indices of the window. Stops once the
    /// single-process rule has provably fired given what was seen.
    fn run_point<F>(&self, key: &str, budget: u64, trial: &F) -> (PointResult, Work)
    where
        F: Fn(u64) -> bool + Sync,
    {
        let rule = self.cfg.rule(budget);
        let mut logs: Vec<(ShardSpec, ShardPointCheckpoint)> = match self.stores {
            [] => vec![(ShardSpec::UNSHARDED, ShardPointCheckpoint::default())],
            stores => stores
                .iter()
                .map(|s| (s.spec(), s.lookup(key).unwrap_or_default()))
                .collect(),
        };
        let was_done = logs[0].1.done;
        let mut work = Work::default();
        // `seen` tallies this process's classes below the global trial
        // boundary `bound`; window sizes are deterministic, so a resumed
        // log's boundary is reconstructed by replaying its windows.
        let (mut seen, mut bound, mut window) = (Proportion::new(), 0u64, 0usize);
        let complete = loop {
            if surely_stopped(&rule, seen.hits, seen.trials, bound) {
                break true;
            }
            if self
                .cfg
                .max_batches_per_run
                .is_some_and(|cap| work.batches >= cap)
            {
                break false;
            }
            let n = rule.next_batch(bound, self.cfg.batch);
            debug_assert!(n > 0, "surely_stopped must fire at the budget");
            let mut ran = false;
            for (class, log) in &mut logs {
                let own_n = class.trials_in(bound, bound + n);
                let hits = match log.batch_hits.get(window) {
                    Some(&hits) => {
                        work.windows_reused += 1;
                        hits
                    }
                    None => {
                        let hits = (bound..bound + n)
                            .filter(|&i| class.owns(i) && trial(i))
                            .count() as u64;
                        log.batch_hits.push(hits);
                        work.trials += own_n;
                        ran = true;
                        hits
                    }
                };
                seen.hits += hits;
                seen.trials += own_n;
            }
            bound += n;
            window += 1;
            if ran {
                work.batches += 1;
                if window.is_multiple_of(SHARD_FLUSH_WINDOWS) {
                    self.save(key, &logs[0].1);
                }
            }
        };
        // Durability boundaries: the point finished, or the batch cap is
        // handing control back for a later resume.
        logs[0].1.done = complete;
        if work.batches > 0 || complete != was_done {
            self.save(key, &logs[0].1);
        }
        // Whether `seen` is the global tally, i.e. the stop test was exact.
        let exact = seen.trials == bound;
        if complete && exact {
            work.trials_saved = budget - seen.trials;
        }
        let stop = if !complete {
            StopReason::Budget
        } else if self.cfg.mode == SweepMode::Fixed {
            StopReason::Fixed
        } else if let (true, Some(stop)) = (exact, rule.check(&seen)) {
            stop
        } else if bound >= budget {
            // A shard's tally is partial, so report which bound its
            // conservative test ran into instead of the rule's verdict.
            StopReason::Budget
        } else {
            StopReason::HalfWidth
        };
        let result = PointResult {
            tally: seen,
            budget,
            batches: window as u64,
            stop,
            complete,
        };
        (result, work)
    }

    /// Estimates the validity-failure rate of `kind` at `p` — the
    /// protocol-trial form of [`SweepRunner::estimate`], seeding trial
    /// `i` with `trial_seed(p.seed, i)` exactly as
    /// [`measure_failure_rate`](crate::runner::measure_failure_rate)
    /// always has.
    pub fn measure(&self, key: &str, p: &Params, kind: TrialKind, budget: u64) -> PointResult {
        let result = self.estimate(key, budget, |i| {
            kind.run_one(&p.with_seed(trial_seed(p.seed, i)))
        });
        am_obs::counter("protocols.trials").add(result.trials_used());
        am_obs::counter("protocols.failures").add(result.tally.hits);
        result
    }

    fn save(&self, key: &str, cp: &ShardPointCheckpoint) {
        if let Some(store) = self.log() {
            if let Err(e) = store.update(key, cp.clone()) {
                // Checkpointing is crash insurance, not correctness; a
                // full disk must not kill the sweep itself.
                eprintln!(
                    "[sweep] checkpoint write to {} failed: {e}",
                    store.path().display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainAdversary, TieBreak};
    use crate::runner::measure_failure_rate;
    use crate::shard::LoadError;
    use std::num::NonZeroU32;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn coin(i: u64) -> bool {
        // A deterministic ~30% coin on the trial index.
        trial_seed(9, i) % 10 < 3
    }

    #[test]
    fn fixed_mode_runs_exactly_the_budget() {
        let runner = SweepRunner::new(SweepConfig::fixed());
        let r = runner.estimate("fixed", 100, coin);
        assert_eq!(r.trials_used(), 100);
        assert_eq!(r.stop, StopReason::Fixed);
        assert_eq!(r.batches, 4); // 32+32+32+4
        assert!(r.complete);
        assert_eq!(r.trials_saved(), 0);
    }

    #[test]
    fn fixed_mode_matches_measure_failure_rate() {
        let p = Params::new(8, 3, 0.5, 15, 77);
        let kind = TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker);
        let old = measure_failure_rate(&p, kind, 64);
        let new = SweepRunner::new(SweepConfig::fixed()).measure("m", &p, kind, 64);
        assert_eq!(
            new.tally, old,
            "the engine must reproduce the historic tallies"
        );
    }

    #[test]
    fn adaptive_stops_early_on_easy_points() {
        let runner = SweepRunner::new(SweepConfig::adaptive(0.05));
        let r = runner.estimate("easy", 10_000, |_| false);
        assert_eq!(r.stop, StopReason::HalfWidth);
        assert!(
            r.trials_used() <= 96,
            "an all-clear point should stop within a few batches, used {}",
            r.trials_used()
        );
        assert!(r.trials_saved() > 9_000);
    }

    #[test]
    fn adaptive_hits_budget_on_hard_points() {
        let runner = SweepRunner::new(SweepConfig::adaptive(0.01));
        let r = runner.estimate("hard", 200, |i| i % 2 == 0);
        assert_eq!(r.stop, StopReason::Budget);
        assert_eq!(r.trials_used(), 200);
    }

    #[test]
    fn adaptive_needs_at_least_half_the_trials_at_equal_half_width() {
        // The 30-point E8 grid (λ × t, chain vs the tie-breaker, budget
        // 300): fixed first, to learn its worst 95 % half-width, then
        // adaptive targeting exactly that width — the comparison is at
        // equal statistical quality. Counts are seed-deterministic.
        let kind = TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker);
        let run_grid = |cfg: SweepConfig| {
            let runner = SweepRunner::new(cfg);
            let (mut total, mut worst_hw) = (0u64, 0.0f64);
            for lambda in [0.05, 0.1, 0.2, 0.4, 0.8] {
                for t in 1..=6usize {
                    let p = Params::new(12, t, lambda, 41, 7);
                    let r = runner.measure(&format!("l{lambda}/t{t}"), &p, kind, 300);
                    total += r.trials_used();
                    let w = r.ci95();
                    worst_hw = worst_hw.max((w.hi - w.lo) / 2.0);
                }
            }
            (total, worst_hw)
        };
        let (fixed_total, fixed_hw) = run_grid(SweepConfig::fixed());
        let (adaptive_total, adaptive_hw) = run_grid(SweepConfig::adaptive(fixed_hw));
        assert_eq!((fixed_total, adaptive_total), (9_000, 1_912));
        assert!(adaptive_hw <= fixed_hw, "{adaptive_hw} > {fixed_hw}");
        assert!(fixed_total >= 2 * adaptive_total);
    }

    #[test]
    fn adaptive_prefix_of_fixed() {
        // The adaptive tally is the fixed tally's prefix: same indices,
        // same seeds.
        let runner = SweepRunner::new(SweepConfig::adaptive(0.04));
        let adaptive = runner.estimate("prefix", 4000, coin);
        let mut prefix = Proportion::new();
        for i in 0..adaptive.trials_used() {
            prefix.record(coin(i));
        }
        assert_eq!(adaptive.tally, prefix);
    }

    fn shard_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("am_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    fn halted(cfg: SweepConfig) -> SweepConfig {
        SweepConfig {
            max_batches_per_run: Some(1),
            ..cfg
        }
    }

    /// The class's log under `dir`, reopened if a usable file is there.
    fn open(dir: &std::path::Path, spec: ShardSpec, cfg: &SweepConfig) -> ShardCheckpointStore {
        let path = dir.join(spec.file_name("pt"));
        ShardCheckpointStore::load(&path, 9, spec, cfg)
            .unwrap_or_else(|_| ShardCheckpointStore::create(&path, 9, spec, cfg))
    }

    /// Runs one class as a chain of processes that each die after a
    /// single window, until the class reports done.
    fn stutter(dir: &std::path::Path, spec: ShardSpec, cfg: SweepConfig, budget: u64) {
        for _ in 0..400 {
            let store = [open(dir, spec, &halted(cfg))];
            if SweepRunner::over(halted(cfg), &store)
                .estimate("pt", budget, coin)
                .complete
            {
                assert!(store[0].all_done());
                return;
            }
            assert!(!store[0].all_done());
        }
        panic!("resume loop never finished");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // Uninterrupted reference vs. one window per process, resumed
        // until done: same tally, batch count and stop reason.
        let cfg = SweepConfig::adaptive(0.03);
        let full = SweepRunner::new(cfg).estimate("pt", 4000, coin);
        let dir = shard_dir("ckpt");
        stutter(&dir, ShardSpec::UNSHARDED, cfg, 4000);
        let store = [open(&dir, ShardSpec::UNSHARDED, &cfg)];
        assert_eq!(
            store[0].lookup("pt").unwrap().batch_hits.len() as u64,
            full.batches
        );
        let before = std::fs::read(store[0].path()).unwrap();

        // A further run over the finished log replays without trials and
        // without touching the file.
        let replay = SweepRunner::over(cfg, &store)
            .estimate("pt", 4000, |_| panic!("done points must not re-run trials"));
        assert_eq!(replay, full);
        assert_eq!(std::fs::read(store[0].path()).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn run_sharded_and_merge(
        cfg: SweepConfig,
        shards: u32,
        budget: u64,
        tag: &str,
        kill_shard: Option<u32>,
    ) -> (PointResult, Work, u64) {
        let dir = shard_dir(tag);
        let count = NonZeroU32::new(shards).unwrap();
        for spec in ShardSpec::all(count) {
            // A killed shard is one window in one process: its file ends
            // incomplete.
            let cfg = if kill_shard == Some(spec.index()) {
                halted(cfg)
            } else {
                cfg
            };
            let store = [open(&dir, spec, &cfg)];
            let r = SweepRunner::over(cfg, &store).estimate("pt", budget, coin);
            assert_eq!(r.complete, store[0].all_done());
            assert!(r.complete || cfg.max_batches_per_run.is_some());
        }
        let stores: Vec<_> = ShardSpec::all(count)
            .map(|spec| ShardCheckpointStore::load(dir.join(spec.file_name("pt")), 9, spec, &cfg))
            .collect::<Result<_, _>>()
            .expect("all shard files present");
        let calls = AtomicU64::new(0);
        let (merged, work) = SweepRunner::over(cfg, &stores).run_point("pt", budget, &|i| {
            calls.fetch_add(1, Ordering::Relaxed);
            coin(i)
        });
        let _ = std::fs::remove_dir_all(&dir);
        (merged, work, calls.into_inner())
    }

    #[test]
    fn sharded_merge_matches_unsharded_fixed() {
        let cfg = SweepConfig::fixed();
        let full = SweepRunner::new(cfg).estimate("pt", 500, coin);
        for shards in [1, 2, 4, 7] {
            let (merged, ..) = run_sharded_and_merge(cfg, shards, 500, "fx", None);
            assert_eq!(merged, full, "{shards} shards");
        }
    }

    #[test]
    fn sharded_merge_matches_unsharded_adaptive() {
        // Adaptive early stop: the merged run must stop at the same batch
        // with the same tally even though each shard saw a different
        // slice of the evidence.
        let cfg = SweepConfig::adaptive(0.04);
        let full = SweepRunner::new(cfg).estimate("pt", 4000, coin);
        assert_eq!(full.stop, StopReason::HalfWidth, "test wants an early stop");
        for shards in [1, 2, 4] {
            let (merged, ..) = run_sharded_and_merge(cfg, shards, 4000, "ad", None);
            assert_eq!(merged, full, "{shards} shards");
        }
    }

    #[test]
    fn merge_tops_up_a_killed_shard() {
        // Shard 1 of 3 dies after one window; the merge re-runs its
        // residue class inline and still reproduces the unsharded run.
        let cfg = SweepConfig::adaptive(0.04);
        let full = SweepRunner::new(cfg).estimate("pt", 4000, coin);
        let (merged, ..) = run_sharded_and_merge(cfg, 3, 4000, "kill", Some(1));
        assert_eq!(merged, full);
    }

    #[test]
    fn work_counts_exactly_the_indices_run_and_reused() {
        // Indices run + indices reused == trials_used, with "run" being
        // precisely the trial calls made — per class, not `n / shards`
        // rounded up (32-trial windows over 3 shards hold 11, 11 and 10).
        let cfg = SweepConfig::adaptive(0.04);
        let calls = AtomicU64::new(0);
        let (full, work) = SweepRunner::new(cfg).run_point("pt", 4000, &|i| {
            calls.fetch_add(1, Ordering::Relaxed);
            coin(i)
        });
        let used = full.trials_used();
        assert!(used % 3 != 0, "test wants uneven classes");
        let expect = Work {
            batches: full.batches,
            trials: used,
            windows_reused: 0,
            trials_saved: 4000 - used,
        };
        assert_eq!((work, calls.into_inner()), (expect, used));

        // Healthy 3-way split: the merge runs nothing.
        let (merged, work, calls) = run_sharded_and_merge(cfg, 3, 4000, "w3", None);
        let expect = Work {
            batches: 0,
            trials: 0,
            windows_reused: 3 * full.batches,
            trials_saved: 4000 - used,
        };
        assert_eq!((merged, work, calls), (full, expect, 0));

        // Shard 1 logged only window 0: the merge runs class 1's indices
        // of every later window and reuses everything else.
        let (merged, work, calls) = run_sharded_and_merge(cfg, 3, 4000, "wk", Some(1));
        let topped_up = ShardSpec::new(1, 3).unwrap().trials_in(cfg.batch, used);
        let expect = Work {
            batches: full.batches - 1,
            trials: topped_up,
            windows_reused: 2 * full.batches + 1,
            trials_saved: 4000 - used,
        };
        assert_eq!((merged, work, calls), (full, expect, topped_up));
    }

    #[test]
    fn merge_with_no_shard_files_degrades_to_local() {
        // All shards missing: the merge runs every trial itself and,
        // being a reader, leaves no file behind.
        let dir = shard_dir("empty");
        let cfg = SweepConfig::adaptive(0.04);
        let stores: Vec<_> = ShardSpec::all(NonZeroU32::new(4).unwrap())
            .map(|spec| {
                let path = dir.join(spec.file_name("pt"));
                let missing = ShardCheckpointStore::load(&path, 9, spec, &cfg).unwrap_err();
                assert_eq!(missing, LoadError::Missing);
                ShardCheckpointStore::create(path, 9, spec, &cfg)
            })
            .collect();
        let merged = SweepRunner::over(cfg, &stores).estimate("pt", 4000, coin);
        let full = SweepRunner::new(cfg).estimate("pt", 4000, coin);
        assert_eq!(merged, full);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_shard_resumes_from_its_checkpoint() {
        let cfg = SweepConfig::adaptive(0.03);
        let budget = 4000;
        let dir = shard_dir("resume");
        let spec = ShardSpec::new(1, 4).unwrap();

        // Reference: the shard run uninterrupted.
        let clean_store = [open(&dir, spec, &cfg)];
        let clean = SweepRunner::over(cfg, &clean_store).estimate("pt", budget, coin);
        let clean_cp = clean_store[0].lookup("pt").unwrap();
        clean_store[0].discard();

        // One window per process, resumed until done.
        stutter(&dir, spec, cfg, budget);
        let store = [open(&dir, spec, &cfg)];
        assert_eq!(store[0].lookup("pt").unwrap(), clean_cp);
        let replay = SweepRunner::over(cfg, &store).estimate("pt", budget, |_| {
            panic!("done points must not re-run trials")
        });
        assert_eq!(replay, clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_overrun_is_bounded_and_sufficient() {
        // A shard stops at or after the global stop point (never before),
        // so the merge never asks for an unrecorded window of a healthy
        // shard — pin that containment directly.
        let cfg = SweepConfig::adaptive(0.04);
        let budget = 4000;
        let full = SweepRunner::new(cfg).estimate("pt", budget, coin);
        let dir = shard_dir("overrun");
        for spec in ShardSpec::all(NonZeroU32::new(3).unwrap()) {
            let store = [open(&dir, spec, &cfg)];
            SweepRunner::over(cfg, &store).estimate("pt", budget, coin);
            let cp = store[0].lookup("pt").unwrap();
            assert!(
                cp.batch_hits.len() as u64 >= full.batches,
                "shard {spec} recorded {} windows < global {}",
                cp.batch_hits.len(),
                full.batches
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_rule_never_stops_early() {
        let cfg = SweepConfig::fixed();
        let rule = cfg.rule(500);
        assert_eq!(rule.check(&Proportion::from_counts(0, 499)), None);
        assert_eq!(
            rule.check(&Proportion::from_counts(0, 500)),
            Some(StopReason::Budget)
        );
    }
}
