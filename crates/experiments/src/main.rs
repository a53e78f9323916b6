//! The experiment harness binary: regenerates the quantitative content of
//! every theorem in "The Append Memory Model: Why BlockDAGs Excel
//! Blockchains" (SPAA 2020).
//!
//! ```text
//! am-experiments                  # run everything (E1..E19)
//! am-experiments e8 e9 e10        # run a subset
//! am-experiments --seed 7 e8      # shift every Monte-Carlo trial
//! am-experiments --out-dir out e8 # write out/e8.json + out/manifest.json
//! am-experiments --adaptive e8    # Wilson early stopping per sweep point
//! am-experiments --ci-width 0.02 e8  # adaptive, tighter half-width target
//! am-experiments --fast           # tiny budgets: all 19 in seconds
//! am-experiments --max-batches 1 e8  # stop mid-sweep (checkpoint kept)
//! am-experiments --resume e8      # finish from the checkpoint
//! am-experiments --trace t.json e14 # export a chrome://tracing trace
//! am-experiments --no-obs e4      # skip spans/counters/manifest
//! am-experiments --topology relay:8 e18 # override the gossip topology
//! am-experiments --shard 0/4 e8   # run one interleaved trial slice
//! am-experiments --merge-shards 4 e8 # fold shard tallies to final JSON
//! am-experiments --workers 4 e8   # 4 shard threads, then the merge
//! am-experiments --workers 4 --record e8 # + publish trials/sec
//! am-experiments --trials-scale 8 e6 # 8× trial budgets (throughput runs)
//! am-experiments --list           # list experiments
//! ```
//!
//! Each experiment prints its tables/series and writes
//! `<out-dir>/<id>.json` (default `results/`). Unless `--no-obs`, the run
//! also writes `<out-dir>/manifest.json` — seed, per-experiment timings,
//! output paths, and a snapshot of every span/counter/event recorded by
//! the simulation layers. The default seed 0 under the default fixed
//! budgets reproduces the historic outputs exactly; `--adaptive` trades
//! surplus trials at easy sweep points for speed, recording the trials
//! actually used and the achieved 95% CI per point in the JSON.

use am_bench::trajectory::{record_sweep, SweepThroughput};
use am_experiments::{coordinate, execute, report::Report, HarnessOpts, SweepRole, REGISTRY};
use am_obs::RunManifest;
use am_protocols::SweepConfig;
use std::num::NonZeroU32;

struct Cli {
    /// Everything `execute` needs; `opts.sweep` is set from the three
    /// engine flags below once parsing is done.
    opts: HarnessOpts,
    trace: Option<String>,
    obs: bool,
    adaptive: bool,
    ci_width: Option<f64>,
    max_batches: Option<u64>,
    workers: Option<NonZeroU32>,
    record: bool,
    ids: Vec<String>,
}

/// A process has one role, so `--shard` and `--merge-shards` exclude each
/// other (and themselves, repeated with a different value).
fn set_role(cli: &mut Cli, role: SweepRole) -> Result<(), String> {
    if cli.opts.role != SweepRole::Whole {
        return Err("--shard runs one slice and --merge-shards folds them; give one, once".into());
    }
    cli.opts.role = role;
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: HarnessOpts::new(0, "results"),
        trace: None,
        obs: true,
        adaptive: false,
        ci_width: None,
        max_batches: None,
        workers: None,
        record: false,
        ids: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "-s" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a u64, got '{v}'"))?;
            }
            "--out-dir" | "-o" => {
                cli.opts.out_dir = it.next().ok_or("--out-dir needs a path")?.clone();
            }
            "--trace" | "-t" => {
                cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            "--adaptive" | "-a" => cli.adaptive = true,
            "--ci-width" | "-w" => {
                let v = it.next().ok_or("--ci-width needs a value")?;
                let w: f64 = v
                    .parse()
                    .map_err(|_| format!("--ci-width needs a number, got '{v}'"))?;
                if !(w > 0.0 && w < 0.5) {
                    return Err(format!("--ci-width must be in (0, 0.5), got {w}"));
                }
                cli.ci_width = Some(w);
            }
            "--fast" | "-f" => cli.opts.fast = true,
            "--trials-scale" => {
                let v = it.next().ok_or("--trials-scale needs a multiplier")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--trials-scale needs a u64, got '{v}'"))?;
                if n == 0 {
                    return Err("--trials-scale must be ≥ 1".into());
                }
                cli.opts.trials_scale = n;
            }
            "--resume" | "-r" => cli.opts.resume = true,
            "--max-batches" => {
                let v = it.next().ok_or("--max-batches needs a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--max-batches needs a u64, got '{v}'"))?;
                if n == 0 {
                    return Err("--max-batches must be ≥ 1".into());
                }
                cli.max_batches = Some(n);
            }
            "--topology" => {
                let v = it
                    .next()
                    .ok_or("--topology needs mesh|relay:<k>|geo:<r>[:<k>]")?;
                cli.opts.topology = Some(v.parse().map_err(|e| format!("--topology: {e}"))?);
            }
            "--shard" => {
                let v = it.next().ok_or("--shard needs i/m (e.g. 0/4)")?;
                let spec = v.parse().map_err(|e| format!("--shard: {e}"))?;
                set_role(&mut cli, SweepRole::Shard(spec))?;
            }
            "--merge-shards" => {
                let v = it.next().ok_or("--merge-shards needs a shard count")?;
                let count = v
                    .parse()
                    .map_err(|_| format!("--merge-shards needs a shard count ≥ 1, got '{v}'"))?;
                set_role(&mut cli, SweepRole::Merge(count))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a worker count")?;
                cli.workers = Some(
                    v.parse()
                        .ok()
                        .filter(|w: &NonZeroU32| w.get() <= 256)
                        .ok_or_else(|| format!("--workers must be in 1..=256, got '{v}'"))?,
                );
            }
            "--record" => cli.record = true,
            "--no-obs" => cli.obs = false,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            id => cli.ids.push(id.to_lowercase()),
        }
    }
    if cli.workers.is_some() && cli.opts.role != SweepRole::Whole {
        return Err(
            "--workers runs the shards and merges them itself; drop --shard / --merge-shards"
                .into(),
        );
    }
    cli.opts.sweep = sweep_config(&cli);
    Ok(cli)
}

/// The sweep-engine configuration a CLI invocation asks for: `--ci-width`
/// implies `--adaptive` (default target 0.05); `--fast` shrinks the batch
/// so even tiny budgets span several batches (checkpoint/interruption
/// behaviour stays exercisable); `--max-batches` caps each point's
/// batches for this run (for each worker under `--workers`), leaving the
/// checkpoint to a `--resume` (or the rest of its windows to the merge).
fn sweep_config(cli: &Cli) -> SweepConfig {
    let mut sweep = if cli.adaptive || cli.ci_width.is_some() {
        SweepConfig::adaptive(cli.ci_width.unwrap_or(0.05))
    } else {
        SweepConfig::fixed()
    };
    if cli.opts.fast {
        sweep.batch = 8;
    }
    sweep.max_batches_per_run = cli.max_batches;
    sweep
}

/// `--workers`: runs every selected experiment through
/// [`am_experiments::coordinate`] — `w` shard threads, then the merge.
/// With `--record`, publishes the end-to-end trials/sec into
/// BENCH_TRAJECTORY.json. Returns false if any experiment failed to
/// produce merged results.
fn run_coordinator(
    cli: &Cli,
    workers: NonZeroU32,
    ids: &[String],
    manifest: &mut RunManifest,
) -> bool {
    let mut ok = true;
    for id in ids {
        let started = std::time::Instant::now();
        let Some(rec) = coordinate(id, &cli.opts, workers) else {
            eprintln!("unknown experiment '{id}' (try --list)");
            ok = false;
            continue;
        };
        if rec.output.is_none() {
            ok = false;
        } else if cli.record {
            ok &= record_throughput(cli, id, workers.get(), started.elapsed().as_secs_f64());
        }
        manifest.record(rec);
    }
    ok
}

/// Files a `sweep/<id>/shards<n>` trials/sec record for the results
/// just written; `false` (after saying why) if the ledger refused it.
fn record_throughput(cli: &Cli, id: &str, shards: u32, wall_s: f64) -> bool {
    let trials = Report::load_from(&cli.opts.out_dir, id)
        .map(|r| r.total_sweep_trials())
        .unwrap_or(0);
    let filed = record_sweep(&SweepThroughput {
        experiment: id.to_string(),
        shards,
        trials,
        wall_s,
    });
    if let Err(e) = &filed {
        eprintln!("[record] {e}");
    }
    filed.is_ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for exp in REGISTRY {
            println!("{:4} {}", exp.id, exp.describe);
        }
        return;
    }
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    am_obs::set_enabled(cli.obs);
    if cli.obs && cli.trace.is_some() {
        // A full export is requested: grow the trace ring so a whole run
        // fits (the default cap favours bounded memory over completeness).
        am_obs::set_ring_capacity(1 << 20);
    }

    let selected: Vec<String> = if cli.ids.is_empty() {
        REGISTRY.iter().map(|e| e.id.to_string()).collect()
    } else {
        cli.ids.clone()
    };
    let mut manifest = RunManifest::new(cli.opts.seed, cli.opts.out_dir.clone());
    let mut failed = false;
    let mut shard_incomplete = false;
    if let Some(workers) = cli.workers {
        if !run_coordinator(&cli, workers, &selected, &mut manifest) {
            failed = true;
        }
    } else {
        for id in &selected {
            match execute(id, &cli.opts) {
                Some(rec) => {
                    let is_shard = matches!(cli.opts.role, SweepRole::Shard(_));
                    if is_shard && rec.output.is_none() {
                        shard_incomplete = true;
                    }
                    if cli.record && !is_shard && rec.output.is_some() {
                        if cli.opts.role == SweepRole::Whole {
                            failed |= !record_throughput(&cli, id, 1, rec.duration_ms / 1e3);
                        } else {
                            // A standalone merge's wall clock covers only the
                            // merge step, not the shard runs — recording it
                            // would fabricate throughput. The coordinator
                            // (--workers) records the honest end-to-end rate.
                            println!(
                                "[record] skipping trials/sec for {id}: standalone \
                                 --merge-shards has no end-to-end wall clock \
                                 (use --workers to record sharded throughput)"
                            );
                        }
                    }
                    manifest.record(rec);
                }
                None => {
                    eprintln!("unknown experiment '{id}' (try --list)");
                    failed = true;
                }
            }
        }
    }
    if cli.obs {
        if let Some(path) = &cli.trace {
            match am_obs::export_chrome_trace(path) {
                Ok(p) => {
                    manifest.set_trace(p.display().to_string());
                    println!(
                        "[obs] trace written to {} (open in chrome://tracing)",
                        p.display()
                    );
                }
                Err(e) => eprintln!("[obs] trace export to '{path}' failed: {e}"),
            }
        }
        match manifest.write() {
            Ok(p) => println!("[obs] manifest written to {}", p.display()),
            Err(e) => eprintln!("[obs] manifest write failed: {e}"),
        }
    }
    if failed {
        std::process::exit(2);
    }
    if shard_incomplete {
        // Distinguishable from flag errors: a standalone shard was
        // interrupted, and its runner restarts it with --resume.
        std::process::exit(3);
    }
}
