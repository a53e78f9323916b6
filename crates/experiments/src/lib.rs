//! # am-experiments — the E1..E19 harness, as a library
//!
//! An experiment is a [`REGISTRY`] entry — id, title, paper reference,
//! one-line description, wall-clock budget — plus its module's
//! `run(ctx: &RunCtx, rep: &mut Report)`, which fills the report
//! [`run_with`] opened from the entry.
//! The binary, the tests, and downstream tooling all dispatch through
//! the registry.
//!
//! A [`RunCtx`] carries the run's [`HarnessOpts`] — base seed plus the
//! sweep-engine configuration: fixed budgets reproduce the historic
//! tables at `--seed 0`, adaptive mode ([`SweepConfig::adaptive`]) stops
//! each Monte-Carlo point early once its Wilson 95% half-width is tight,
//! and the attached window logs make a sweep resumable, shardable —
//! across threads on one box ([`coordinate`]) or across machines
//! (`--shard`) — and mergeable, all through one engine loop (DESIGN.md,
//! "Sweep lifecycle"). Every Monte-Carlo point goes through a [`Sweep`],
//! which keeps the points in probe order for the report's sweep record.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod report;

use am_protocols::{
    ChainAdversary, DagAdversary, DagRule, Params, PointResult, ShardCheckpointStore, ShardSpec,
    SweepConfig, SweepRunner, TieBreak, TrialKind,
};
use report::Report;
use std::num::NonZeroU32;
use std::path::Path;
use std::time::Instant;

/// Budget cap applied to every Monte-Carlo loop under `--fast`: enough
/// trials to exercise the full pipeline, few enough that all nineteen
/// experiments smoke-test in seconds.
pub const FAST_BUDGET: u64 = 24;

/// Context one experiment run receives: the harness options (base seed,
/// sweep-engine configuration, budget knobs, topology override) and the
/// window logs of the residue classes this run answers for (none = the
/// whole range, unlogged).
pub struct RunCtx {
    /// The options of this run; a merge's sweep has no batch cap.
    pub opts: HarnessOpts,
    stores: Vec<ShardCheckpointStore>,
}

impl RunCtx {
    /// The library default: fixed budgets, no checkpointing — the
    /// context under which seed-0 runs reproduce the historic tables.
    pub fn fixed(seed: u64) -> RunCtx {
        RunCtx {
            opts: HarnessOpts::new(seed, "results"),
            stores: Vec::new(),
        }
    }

    /// A fresh sweep over this run's engine; experiment code funnels
    /// every Monte-Carlo point through one. Under a shard's context the
    /// tallies it returns cover that shard's indices only — progress,
    /// not estimates.
    pub fn sweep(&self) -> Sweep<'_> {
        Sweep {
            runner: SweepRunner::over(self.opts.sweep, &self.stores),
            points: Vec::new(),
        }
    }

    /// A per-point trial budget (or repetition count of a mean loop):
    /// the experiment's historic default times `--trials-scale`, capped
    /// at [`FAST_BUDGET`] under `--fast`.
    pub fn budget(&self, default: u64) -> u64 {
        let scaled = default.saturating_mul(self.opts.trials_scale.max(1));
        if self.opts.fast {
            scaled.min(FAST_BUDGET)
        } else {
            scaled
        }
    }

    /// False when an engine point was halted mid-budget (the
    /// `--max-batches` interruption lane): the report's tallies are
    /// partial and must not be saved as final results. A shard is
    /// complete once every point has proven global coverage.
    pub fn complete(&self) -> bool {
        SweepRunner::over(self.opts.sweep, &self.stores)
            .log()
            .is_none_or(ShardCheckpointStore::all_done)
    }
}

/// The Monte-Carlo points of one sweep, run through the engine and kept
/// in probe order; an experiment hands them to
/// [`Report::record_sweep`] once its grid is done.
pub struct Sweep<'a> {
    runner: SweepRunner<'a>,
    /// `(key, outcome)` of every point probed so far, in probe order.
    pub points: Vec<(String, PointResult)>,
}

impl Sweep<'_> {
    /// Measures the validity-failure rate of `kind` at `p` as point `key`
    /// (see [`SweepRunner::measure`]).
    pub fn measure(
        &mut self,
        key: String,
        p: &Params,
        kind: TrialKind,
        trials: u64,
    ) -> PointResult {
        let point = self.runner.measure(&key, p, kind, trials);
        self.points.push((key, point));
        point
    }

    /// Estimates the proportion of trials `i` for which `trial(i)` holds,
    /// as point `key` (see [`SweepRunner::estimate`]).
    pub fn estimate<F>(&mut self, key: String, trials: u64, trial: F) -> PointResult
    where
        F: Fn(u64) -> bool + Sync,
    {
        let point = self.runner.estimate(&key, trials, trial);
        self.points.push((key, point));
        point
    }

    /// Measures each named kind at `p`, keyed `"{row}/{name}"` in order,
    /// and returns their failure-rate estimates.
    pub fn row<const K: usize>(
        &mut self,
        row: &str,
        p: &Params,
        kinds: &[(&str, TrialKind); K],
        trials: u64,
    ) -> [f64; K] {
        (*kinds).map(|(name, kind)| {
            self.measure(format!("{row}/{name}"), p, kind, trials)
                .estimate()
        })
    }
}

/// The head-to-head pair of E14, E15 and E17: Algorithm 5's chain with
/// randomized tie-breaking against the tie-breaker, Algorithm 6's DAG
/// against the withheld burst.
pub const CHAIN_VS_DAG: [(&str, TrialKind); 2] = [
    (
        "chain",
        TrialKind::Chain(TieBreak::Randomized, ChainAdversary::TieBreaker),
    ),
    (
        "dag",
        TrialKind::Dag(DagRule::LongestChain, DagAdversary::WithholdBurst),
    ),
];

/// One experiment: its identity, one-line description, and entry point.
pub struct Experiment {
    /// Lower-case id, e.g. `"e8"`; the report's id is its upper case,
    /// and its JSON lands at `<out-dir>/<id>.json`.
    pub id: &'static str,
    /// The report's human title.
    pub title: &'static str,
    /// The paper result the report reproduces.
    pub paper_ref: &'static str,
    /// One-line description for `--list` and the docs.
    pub describe: &'static str,
    /// Wall-clock ceiling in seconds for the `--fast` run, about ten
    /// times the duration seen on a cold CI runner. [`execute`] puts it
    /// into the manifest beside the measured `duration_ms`, and CI's
    /// perf-smoke job fails an experiment that overruns it (times the
    /// `PERF_BUDGET_SCALE` env knob, for slow or shared runners).
    pub budget_s: f64,
    /// The experiment body: fills the report [`run_with`] opened.
    pub run: fn(&RunCtx, &mut Report),
}

/// Every experiment in presentation order — the single source of truth
/// for ids, titles, paper references, descriptions, budgets, and
/// dispatch.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e1",
        title: "No 1-resilient asynchronous consensus in the append memory",
        paper_ref: "Theorem 2.1, Lemmas 2.2-2.3",
        describe: "Thm 2.1: no 1-resilient asynchronous consensus (model checker)",
        budget_s: 5.0,
        run: e1::run,
    },
    Experiment {
        id: "e2",
        title: "Round lower bound: t+1 rounds are necessary and sufficient",
        paper_ref: "Lemma 3.1 + Theorem 3.2",
        describe: "Lemma 3.1: t+1 rounds necessary (exhaustive adversary search)",
        budget_s: 3.0,
        run: e2::run,
    },
    Experiment {
        id: "e3",
        title: "Algorithm 1: Byzantine agreement for t < n/2 within O(tΔ)",
        paper_ref: "Theorem 3.2",
        describe: "Thm 3.2: Algorithm 1 solves BA for t < n/2",
        budget_s: 1.0,
        run: e3::run,
    },
    Experiment {
        id: "e4",
        title: "ABD-style simulation of the append memory over message passing",
        paper_ref: "Section 4, Algorithms 2-3, Lemmas 4.1-4.2",
        describe: "Lemmas 4.1/4.2: message-passing simulation + complexity",
        budget_s: 5.0,
        run: e4::run,
    },
    Experiment {
        id: "e5",
        title: "Randomized access + asynchronous nodes: still no consensus",
        paper_ref: "Theorem 5.1",
        describe: "Thm 5.1: randomized access doesn't rescue asynchrony",
        budget_s: 1.0,
        run: e5::run,
    },
    Experiment {
        id: "e6",
        title: "Timestamp baseline: validity failure vs k (Algorithm 4)",
        paper_ref: "Theorem 5.2",
        describe: "Thm 5.2: timestamp baseline validity vs k",
        budget_s: 5.0,
        run: e6::run,
    },
    Experiment {
        id: "e7",
        title: "Chain + deterministic tie-break: the n/3 wall (fork-maker)",
        paper_ref: "Theorem 5.3",
        describe: "Thm 5.3: deterministic tie-break dies at n/3",
        budget_s: 1.0,
        run: e7::run,
    },
    Experiment {
        id: "e8",
        title: "Chain resilience vs rate: t/n ≤ 1/(1+λ(n−t)) (tie-breaker adversary)",
        paper_ref: "Theorem 5.4",
        describe: "Thm 5.4: chain resilience 1/(1+λ(n−t))",
        budget_s: 10.0,
        run: e8::run,
    },
    Experiment {
        id: "e9",
        title: "DAG resilience ≈ 1/2 independent of λ; withheld burst is O(λ log n)",
        paper_ref: "Lemma 5.5 + Theorem 5.6",
        describe: "Lemma 5.5 + Thm 5.6: DAG resilience ≈ 1/2, burst O(λ log n)",
        budget_s: 1.0,
        run: e9::run,
    },
    Experiment {
        id: "e10",
        title: "Chain vs DAG: the resilience crossover",
        paper_ref: "Section 5 headline (Theorems 5.4 + 5.6)",
        describe: "Headline crossover figure: chain vs DAG",
        budget_s: 1.0,
        run: e10::run,
    },
    Experiment {
        id: "e11",
        title: "Temporal asynchrony reduces DAG Byzantine-agreement resilience",
        paper_ref: "Section 5.3 closing remark (extension experiment)",
        describe: "Extension: temporal asynchrony reduces DAG resilience",
        budget_s: 1.0,
        run: e11::run,
    },
    Experiment {
        id: "e12",
        title: "Weak agreement: staggered deciders disagree with probability → 0 in k",
        paper_ref: "Section 1.1 weak properties + Section 5.3 (extension experiment)",
        describe: "Extension: weak agreement under staggered decisions",
        budget_s: 10.0,
        run: e12::run,
    },
    Experiment {
        id: "e13",
        title: "Decision latency: chain saturates at 1 block/Δ, the DAG scales with λn",
        paper_ref: "Section 5.3 inclusivity (extension experiment; cf. [14])",
        describe: "Extension: decision latency — chain saturates, DAG scales",
        budget_s: 1.0,
        run: e13::run,
    },
    Experiment {
        id: "e14",
        title: "Fault injection: ABD and chain-vs-DAG guarantees on a lossy network",
        paper_ref: "Lemmas 4.1-4.2 + Theorems 5.4/5.6 under relaxed delivery (extension)",
        describe: "Extension: ABD + chain/DAG under drops and partitions (am-net)",
        budget_s: 15.0,
        run: e14::run,
    },
    Experiment {
        id: "e15",
        title: "Embedded BFT finality vs Byzantine fraction, head-to-head with Algs 4-6",
        paper_ref:
            "Extension: Schett-Danezis interpretation + Casper-CBC finality over §5 schedules",
        describe: "Extension: embedded BFT finality vs Byzantine fraction (am-bft)",
        budget_s: 300.0,
        run: e15::run,
    },
    Experiment {
        id: "e16",
        title: "Finalized-prefix growth over a faulty network (drops, dup/reorder, partitions)",
        paper_ref: "Extension: am-bft per-node oracles over am-net fault schedules",
        describe: "Extension: finalized-prefix growth on a faulty network",
        budget_s: 15.0,
        run: e16::run,
    },
    Experiment {
        id: "e17",
        title: "Topology and the chain-vs-DAG gap: orphans track gossip diameter",
        paper_ref: "Thms 5.4/5.6 over relay and geo overlays (extension)",
        describe: "Extension: chain orphans vs topology diameter (relay/geo gossip)",
        budget_s: 30.0,
        run: e17::run,
    },
    Experiment {
        id: "e18",
        title: "Planet-scale divergence: geo overlays, bandwidth, fanout gossip",
        paper_ref: "Section 5 inclusion argument at deployment scale (extension)",
        describe: "Extension: divergence at planet scale (n up to 5000, geo latency)",
        budget_s: 10.0,
        run: e18::run,
    },
    Experiment {
        id: "e19",
        title: "Scaling the model checker: reductions, ablated and audited",
        paper_ref: "Theorem 2.1 infrastructure; DESIGN.md §14",
        describe: "Infrastructure: model-checker reduction stack, ablated and audited",
        budget_s: 10.0,
        run: e19::run,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Runs one experiment by id under `ctx`, into a report opened from its
/// registry entry. The whole run is wrapped in an obs span named after
/// the id, so sub-spans (ABD phases, sweep points, network flights)
/// aggregate under `e<N>/...` paths.
pub fn run_with(id: &str, ctx: &RunCtx) -> Option<Report> {
    let exp = find(id)?;
    let _span = am_obs::span(id);
    let mut rep = Report::new(&exp.id.to_uppercase(), exp.title, exp.paper_ref);
    (exp.run)(ctx, &mut rep);
    Some(rep)
}

/// Runs one experiment by id with the given base seed under the library
/// default context (fixed budgets — the historic behaviour).
pub fn run_one(id: &str, seed: u64) -> Option<Report> {
    run_with(id, &RunCtx::fixed(seed))
}

/// What one `execute` call does with each sweep — which residue classes
/// of the trial-index range it answers for, and whether it publishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepRole {
    /// The unsharded run: class `0/1`, logged to
    /// `<out-dir>/<id>.checkpoint.json`, final results written.
    Whole,
    /// One shard of a sharded sweep: run only this class and leave
    /// its log (`<out-dir>/<id>.shard-<i>-of-<m>.checkpoint.json`) for a
    /// later merge instead of writing final results.
    Shard(ShardSpec),
    /// The merge: answer for all classes of this many shards, reusing
    /// every window their logs recorded and running the rest, and write
    /// final results byte-identical to an unsharded run; the logs are
    /// deleted once the results are on disk.
    Merge(NonZeroU32),
}

/// Harness-level options shared by a whole binary invocation.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Base seed for every experiment.
    pub seed: u64,
    /// Output directory for report JSON, checkpoints, and the manifest.
    pub out_dir: String,
    /// Sweep-engine configuration.
    pub sweep: SweepConfig,
    /// Shrink trial budgets to [`FAST_BUDGET`].
    pub fast: bool,
    /// `--trials-scale`: multiply every sweep trial budget (ignored
    /// under `--fast`, which caps after scaling). Scaled runs produce
    /// *different* results than the historic tables — the knob exists
    /// for throughput measurement (CI's sharded-speedup lane needs a
    /// sweep-dominated workload), not for golden comparisons.
    pub trials_scale: u64,
    /// Continue from the log an interrupted [`SweepRole::Whole`] or
    /// [`SweepRole::Shard`] run left behind (a merge always reads the
    /// logs).
    pub resume: bool,
    /// `--topology`: override the network topology of experiments that
    /// honour it (E18's planet-scale sweep); `None` keeps each
    /// experiment's own default.
    pub topology: Option<am_net::Topology>,
    /// This run's part in the sweep.
    pub role: SweepRole,
}

impl HarnessOpts {
    /// Fixed-budget defaults writing under `out_dir` (the binary's
    /// baseline).
    pub fn new(seed: u64, out_dir: &str) -> HarnessOpts {
        HarnessOpts {
            seed,
            out_dir: out_dir.to_string(),
            sweep: SweepConfig::fixed(),
            fast: false,
            trials_scale: 1,
            resume: false,
            topology: None,
            role: SweepRole::Whole,
        }
    }
}

/// Runs one experiment, prints its report, and saves the JSON under
/// `opts.out_dir`. Returns the manifest record (`None` for unknown ids)
/// — the one run/time/print/save path every harness entry point shares.
///
/// When the sweep was interrupted (`max_batches_per_run`), the final
/// JSON is *not* written: the checkpoint file is kept instead and the
/// record's `output` is `None`, so a later `--resume` run completes the
/// sweep and writes byte-identical final results. A shard never writes
/// final JSON; its record's `output` is its log once every point is done.
pub fn execute(id: &str, opts: &HarnessOpts) -> Option<am_obs::ExperimentRecord> {
    execute_since(id, opts, Instant::now())
}

/// [`execute`] on a clock started at `started`, so the duration it prints
/// and records is the wall time since then.
fn execute_since(
    id: &str,
    opts: &HarnessOpts,
    started: Instant,
) -> Option<am_obs::ExperimentRecord> {
    let exp = find(id)?;
    let dir = Path::new(&opts.out_dir);
    // Logs are written during the run, so the directory must exist
    // before the first batch.
    let _ = std::fs::create_dir_all(dir);
    let (classes, reuse): (Vec<ShardSpec>, bool) = match opts.role {
        SweepRole::Whole => (vec![ShardSpec::UNSHARDED], opts.resume),
        SweepRole::Shard(spec) => (vec![spec], opts.resume),
        SweepRole::Merge(count) => (ShardSpec::all(count).collect(), true),
    };
    let stores = classes
        .into_iter()
        .map(|spec| {
            let path = dir.join(spec.file_name(id));
            if reuse {
                match ShardCheckpointStore::load(&path, opts.seed, spec, &opts.sweep) {
                    Ok(store) => return store,
                    Err(e) => eprintln!(
                        "[sweep] checkpoint {} {e}; its trials will be re-run",
                        path.display()
                    ),
                }
            }
            ShardCheckpointStore::create(path, opts.seed, spec, &opts.sweep)
        })
        .collect();
    let mut ctx = RunCtx {
        opts: opts.clone(),
        stores,
    };
    if matches!(opts.role, SweepRole::Merge(_)) {
        // The batch cap interrupts a writer, which leaves a log to resume
        // from; the merge must run to completion or no final results
        // would ever be written.
        ctx.opts.sweep.max_batches_per_run = None;
    }
    let rep = run_with(id, &ctx)?;
    let duration_ms = started.elapsed().as_secs_f64() * 1e3;
    // A shard's report holds its residue class's tallies only, so neither
    // the rendered report nor the final JSON is emitted for it; the merge
    // produces both.
    let shard = match opts.role {
        SweepRole::Shard(spec) => Some(spec),
        _ => None,
    };
    if shard.is_none() {
        println!("{}", rep.render());
    }
    let log = ctx.stores[0].path().display().to_string();
    let output = if !ctx.complete() {
        println!(
            "[sweep] {id} interrupted by the batch cap after {duration_ms:.0} ms; \
             checkpoint kept at {log} — rerun with --resume to finish"
        );
        None
    } else if let Some(spec) = shard {
        println!("[shard {spec}] {id} finished in {duration_ms:.0} ms; tallies at {log}");
        Some(log)
    } else {
        let saved = rep.save_in(&opts.out_dir);
        if saved.is_some() {
            // The final results are on disk; a stale log would shadow the
            // next run's tallies.
            ctx.stores.iter().for_each(ShardCheckpointStore::discard);
        }
        println!("[obs] {id} finished in {duration_ms:.0} ms");
        saved.map(|p| p.display().to_string())
    };
    Some(am_obs::ExperimentRecord {
        id: id.to_string(),
        duration_ms,
        budget_s: exp.budget_s,
        output,
    })
}

/// Runs `id` as `workers` interleaved shards on scoped threads of this
/// process, then merges their logs into final results byte-identical to
/// an unsharded run — the `--shard i/w` runs and `--merge-shards w` of a
/// cross-machine sweep, on one box. Workers run with am-obs off, as a
/// standalone `--no-obs` shard would (on the global registry's locks the
/// threads would serialise); the merge runs with obs as the caller had
/// it. A worker stopped by the batch cap leaves its log and the merge
/// runs the windows it did not; a panicking worker panics the caller.
/// The record's duration is the whole run's, shards and merge.
pub fn coordinate(
    id: &str,
    opts: &HarnessOpts,
    workers: NonZeroU32,
) -> Option<am_obs::ExperimentRecord> {
    find(id)?;
    let started = Instant::now();
    {
        let _restore = ObsRestore(am_obs::enabled());
        am_obs::set_enabled(false);
        std::thread::scope(|s| {
            for spec in ShardSpec::all(workers) {
                let shard = HarnessOpts {
                    role: SweepRole::Shard(spec),
                    ..opts.clone()
                };
                s.spawn(move || execute(id, &shard));
            }
        });
    }
    let merge = HarnessOpts {
        role: SweepRole::Merge(workers),
        ..opts.clone()
    };
    execute_since(id, &merge, started)
}

/// Puts the am-obs switch back as it was, on unwind too.
struct ObsRestore(bool);

impl Drop for ObsRestore {
    fn drop(&mut self) {
        am_obs::set_enabled(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        assert_eq!(REGISTRY.len(), 19);
        for (i, exp) in REGISTRY.iter().enumerate() {
            assert_eq!(exp.id, format!("e{}", i + 1), "presentation order");
            assert!(!exp.describe.is_empty(), "{} lacks a description", exp.id);
            assert!(!exp.title.is_empty() && !exp.paper_ref.is_empty());
            assert_eq!(find(exp.id).map(|e| e.id), Some(exp.id));
        }
        assert!(find("e99").is_none());
        assert!(run_one("nope", 0).is_none());
    }

    #[test]
    fn budgets_cover_the_golden_experiments() {
        // The CI perf-smoke golden set, read from `results/golden/`: a
        // golden without a registry entry (or an entry without a golden)
        // means the wall-clock lane silently checks nothing.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let mut golden: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("readable entry").file_name())
            .filter_map(|name| {
                let id = name.to_str()?.strip_suffix(".json")?;
                // `e14.netstats.json` is E14's second file, not an experiment.
                (!id.contains('.')).then(|| id.to_string())
            })
            .collect();
        golden.sort();
        let mut ids: Vec<String> = REGISTRY.iter().map(|e| e.id.to_string()).collect();
        ids.sort();
        assert_eq!(
            golden, ids,
            "goldens and registry name different experiments"
        );
        for exp in REGISTRY {
            assert!(exp.budget_s > 0.0, "budget for {}", exp.id);
        }
    }

    #[test]
    fn registry_run_pointers_match_modules() {
        // The descriptor's fn pointer is the module's `run` — dispatch
        // has no indirection left to drift.
        assert!(std::ptr::fn_addr_eq(
            find("e3").unwrap().run,
            e3::run as fn(&RunCtx, &mut Report)
        ));
        assert!(std::ptr::fn_addr_eq(
            find("e10").unwrap().run,
            e10::run as fn(&RunCtx, &mut Report)
        ));
    }

    #[test]
    fn e2_report_reproduces_the_bound() {
        // Fast and fully deterministic: the exhaustive search experiment.
        let rep = run_one("e2", 0).expect("e2 exists");
        let text = rep.render();
        assert!(text.contains("Lemma 3.1"));
        // The t+1 rows must show no disagreement; the R ≤ t rows must.
        assert!(text.contains("YES (inputs"));
        assert_eq!(rep.tables.len(), 1);
        assert!(rep.tables[0].len() >= 10);
    }

    #[test]
    fn e1_report_covers_the_zoo() {
        let rep = run_one("e1", 0).expect("e1 exists");
        let text = rep.render();
        for proto in ["first-seen", "quorum-vote", "echo-vote"] {
            assert!(text.contains(proto), "zoo missing {proto}");
        }
    }

    #[test]
    fn e4_report_confirms_all_three_lemma_checks() {
        let rep = run_one("e4", 0).expect("e4 exists");
        let confirmed = rep.notes.iter().filter(|n| n.contains("CONFIRMED")).count();
        assert!(
            confirmed >= 3,
            "expected ≥3 CONFIRMED notes, got {confirmed}"
        );
        let text = rep.render();
        assert!(!text.contains("VIOLATED"));
    }

    #[test]
    fn e4_is_seed_sensitive_but_structure_stable() {
        // A different seed changes trials but not the report shape or the
        // CONFIRMED verdicts.
        let rep = run_one("e4", 12345).expect("e4 exists");
        assert!(!rep.render().contains("VIOLATED"));
    }

    #[test]
    fn fast_context_caps_budgets() {
        let mut ctx = RunCtx::fixed(0);
        assert_eq!(ctx.budget(4000), 4000);
        ctx.opts.fast = true;
        assert_eq!(ctx.budget(4000), FAST_BUDGET);
        assert_eq!(ctx.budget(8), 8);
    }
}
