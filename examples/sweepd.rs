//! `sweepd`: a minimal multi-process sweep supervisor built directly on
//! the `am-experiments` library (DESIGN.md, "Sweep lifecycle").
//!
//! ```text
//! cargo run --release --example sweepd -- e8 --workers 4 --fast --out-dir out
//! ```
//!
//! The supervisor hands `am_experiments::coordinate` the argv of its own
//! hidden `--worker i/m` mode; the library re-executes the binary once
//! per shard, monitors the children, restarts any that die — resuming
//! from the shard checkpoint the dead worker left behind — and merges the
//! shard tallies into final results byte-identical to an unsharded run.
//! The experiments CLI's `--workers` flag calls the same function; this
//! example is the recipe for embedding it in another binary.
//!
//! Flags (defaults in brackets):
//!
//! | flag | meaning |
//! |---|---|
//! | `<id>` | experiment id to sweep, e.g. `e8` (required) |
//! | `--workers N` | shard/worker processes [2] |
//! | `--seed N` | base RNG seed [0] |
//! | `--out-dir DIR` | results + shard checkpoints [out-sweepd] |
//! | `--fast` | shrunken trial budgets |
//! | `--adaptive W` | adaptive stopping at CI half-width W |
//! | `--chaos-kill I` | worker I dies after one batch on its first attempt |
//!
//! `--chaos-kill` is the demo's point: the killed worker's partial shard
//! checkpoint survives, the supervisor restarts it with `--resume`, and
//! the merged output still matches the unsharded run byte for byte.

use am_experiments::{coordinate, execute, HarnessOpts, SweepRole};
use am_protocols::{ShardSpec, SweepConfig};
use std::num::NonZeroU32;

fn usage(err: &str) -> ! {
    eprintln!("sweepd: {err}");
    eprintln!(
        "usage: sweepd <id> [--workers N] [--seed N] [--out-dir DIR] \
         [--fast] [--adaptive W] [--chaos-kill I]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        usage(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| usage(&format!("bad value {v:?} for {flag}")))
}

struct Cli {
    id: Option<String>,
    workers: NonZeroU32,
    seed: u64,
    out_dir: String,
    fast: bool,
    adaptive: Option<f64>,
    chaos_kill: Option<u32>,
    /// Hidden: run as one shard instead of supervising.
    worker: Option<ShardSpec>,
    /// Hidden: the worker should resume its shard checkpoint.
    resume: bool,
    /// Hidden: the worker should die after one batch (chaos demo).
    cap: bool,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        id: None,
        workers: NonZeroU32::new(2).expect("2 > 0"),
        seed: 0,
        out_dir: "out-sweepd".to_string(),
        fast: false,
        adaptive: None,
        chaos_kill: None,
        worker: None,
        resume: false,
        cap: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workers" => cli.workers = parse(&flag, args.next()),
            "--seed" => cli.seed = parse(&flag, args.next()),
            "--out-dir" => cli.out_dir = parse(&flag, args.next()),
            "--fast" => cli.fast = true,
            "--adaptive" => cli.adaptive = Some(parse(&flag, args.next())),
            "--chaos-kill" => cli.chaos_kill = Some(parse(&flag, args.next())),
            "--worker" => cli.worker = Some(parse(&flag, args.next())),
            "--resume" => cli.resume = true,
            "--cap" => cli.cap = true,
            "--help" | "-h" => usage("help"),
            other if !other.starts_with('-') && cli.id.is_none() => {
                cli.id = Some(other.to_string());
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.workers.get() > 256 {
        usage("--workers must be in 1..=256");
    }
    if let Some(w) = cli.adaptive {
        if w <= 0.0 || w.is_nan() {
            usage("--adaptive needs a positive half-width");
        }
    }
    cli
}

fn base_opts(cli: &Cli) -> HarnessOpts {
    let mut opts = HarnessOpts::new(cli.seed, &cli.out_dir);
    if let Some(w) = cli.adaptive {
        opts.sweep = SweepConfig::adaptive(w);
    }
    if cli.fast {
        opts.fast = true;
        opts.sweep.batch = 8;
    }
    opts
}

/// Hidden worker mode: run one shard in-process and exit with 0 when the
/// shard finished, 3 when it was interrupted (the supervisor's signal to
/// restart with `--resume`).
fn run_worker(cli: &Cli, id: &str, spec: ShardSpec) -> ! {
    let mut opts = base_opts(cli);
    opts.role = SweepRole::Shard(spec);
    opts.resume = cli.resume;
    if cli.cap {
        // The chaos demo: give up after one batch window, leaving a
        // partial shard checkpoint for the restart to resume.
        opts.sweep.max_batches_per_run = Some(1);
    }
    let Some(rec) = execute(id, &opts) else {
        usage(&format!("unknown experiment {id:?}"));
    };
    std::process::exit(if rec.output.is_some() { 0 } else { 3 });
}

fn worker_args(cli: &Cli, id: &str, spec: ShardSpec, resume: bool) -> Vec<String> {
    let mut args = vec![
        id.to_string(),
        "--worker".to_string(),
        spec.to_string(),
        "--seed".to_string(),
        cli.seed.to_string(),
        "--out-dir".to_string(),
        cli.out_dir.clone(),
    ];
    if cli.fast {
        args.push("--fast".to_string());
    }
    if let Some(w) = cli.adaptive {
        args.push("--adaptive".to_string());
        args.push(w.to_string());
    }
    if resume {
        args.push("--resume".to_string());
    } else if cli.chaos_kill == Some(spec.index()) {
        args.push("--cap".to_string());
    }
    args
}

fn main() {
    let cli = parse_args();
    let Some(id) = cli.id.clone() else {
        usage("an experiment id is required");
    };
    if let Some(spec) = cli.worker {
        run_worker(&cli, &id, spec);
    }
    if cli.chaos_kill.is_some_and(|i| i >= cli.workers.get()) {
        usage("--chaos-kill index out of range");
    }
    println!("sweepd: {id} across {} worker processes", cli.workers);
    let child = |spec, resume| worker_args(&cli, &id, spec, resume);
    if coordinate(&id, &base_opts(&cli), cli.workers, child).is_none() {
        usage(&format!("unknown experiment {id:?}"));
    }
}
