//! The `am-node` load harness: drive millions of requests from many
//! client threads against an in-process cluster (DESIGN.md §11).
//!
//! ```text
//! cargo run --release --example loadgen -- \
//!     --nodes 4 --clients 8 --requests 1000000 --mix 0.9 --out-dir out
//! ```
//!
//! Flags (all optional; defaults in brackets):
//!
//! | flag | meaning |
//! |---|---|
//! | `--nodes N` | protocol nodes in the cluster [4] |
//! | `--clients N` | client threads [4] |
//! | `--requests N` | total request budget, 0 = unbounded [1000000] |
//! | `--duration MS` | wall-clock cap in ms, 0 = none [0] |
//! | `--mix F` | read-side fraction of the workload [0.9] |
//! | `--skew F` | zipf exponent for author selection [1.0] |
//! | `--authors N` | author pool size [64] |
//! | `--pipeline N` | outstanding requests per client [8] |
//! | `--seed N` | base RNG seed [0] |
//! | `--topology T` | cluster gossip topology: `mesh`, `relay:<k>`, `geo:<r>[:<k>]` [mesh] |
//! | `--out-dir DIR` | also write `DIR/loadgen.json` |
//! | `--record` | merge the run's throughput into BENCH_TRAJECTORY.json |
//!
//! Each run prints a throughput/latency summary; `--record` files the
//! run's throughput in the perf ledger under a `node/loadgen/…` op name
//! derived from the configuration, so repeated runs at different shapes
//! accumulate into one comparable table.

use am_bench::recorder::Recorder;
use append_memory::node::{LoadgenConfig, LoadgenRecord};
use serde::{Number, Value};

fn usage(err: &str) -> ! {
    eprintln!("loadgen: {err}");
    eprintln!(
        "usage: loadgen [--nodes N] [--clients N] [--requests N] [--duration MS] \
         [--mix F] [--skew F] [--authors N] [--pipeline N] [--seed N] \
         [--topology mesh|relay:k|geo:r] [--out-dir DIR] [--record]"
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
    cfg: LoadgenConfig,
    out_dir: Option<std::path::PathBuf>,
    record: bool,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        cfg: LoadgenConfig {
            requests: 1_000_000,
            pipeline: 8,
            ..LoadgenConfig::default()
        },
        out_dir: None,
        record: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--nodes" => cli.cfg.nodes = parse(&flag, args.next()),
            "--clients" => cli.cfg.clients = parse(&flag, args.next()),
            "--requests" => cli.cfg.requests = parse(&flag, args.next()),
            "--duration" => cli.cfg.duration_ms = parse(&flag, args.next()),
            "--mix" => cli.cfg.read_mix = parse(&flag, args.next()),
            "--skew" => cli.cfg.skew = parse(&flag, args.next()),
            "--authors" => cli.cfg.authors = parse(&flag, args.next()),
            "--pipeline" => cli.cfg.pipeline = parse(&flag, args.next()),
            "--seed" => cli.cfg.seed = parse(&flag, args.next()),
            "--topology" => cli.cfg.topology = parse(&flag, args.next()),
            "--out-dir" => cli.out_dir = Some(parse(&flag, args.next())),
            "--record" => cli.record = true,
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cli.cfg.nodes < 2 {
        usage("--nodes must be at least 2 (a quorum needs peers)");
    }
    if cli.cfg.requests == 0 && cli.cfg.duration_ms == 0 {
        usage("set --requests and/or --duration to bound the run");
    }
    if let Err(e) = cli.cfg.topology_config() {
        usage(&format!("--topology: {e}"));
    }
    cli
}

/// The op name the run files under in the ledger — one slot per
/// workload shape, so re-runs of a shape update in place.
fn op_name(cfg: &LoadgenConfig) -> String {
    format!(
        "node/loadgen/n{}_c{}_mix{}_zipf{}_p{}",
        cfg.nodes, cfg.clients, cfg.read_mix, cfg.skew, cfg.pipeline
    )
}

fn summarize(rec: &LoadgenRecord) {
    println!(
        "loadgen: {} requests in {:.2}s over {} nodes / {} clients  ({:.0} req/s, {} errors)",
        rec.completed,
        rec.elapsed_ms as f64 / 1e3,
        rec.nodes,
        rec.clients,
        rec.requests_per_sec,
        rec.errors
    );
    for (class, s) in [
        ("append", &rec.append),
        ("read", &rec.read),
        ("query", &rec.query),
        ("finality", &rec.finality),
    ] {
        println!(
            "loadgen:   {class:<8} n={:<9} mean={:>9.0}ns  p50={:>8}ns  p99={:>9}ns  p999={:>9}ns",
            s.count, s.mean_ns, s.p50_ns, s.p99_ns, s.p999_ns
        );
    }
}

fn uint(x: u64) -> Value {
    Value::Number(Number::UInt(x))
}

fn main() {
    let cli = parse_args();
    let rec = append_memory::node::loadgen::run(cli.cfg);
    summarize(&rec);

    let json = serde_json::to_string_pretty(&rec).unwrap();
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| usage(&format!("--out-dir: {e}")));
        let path = dir.join("loadgen.json");
        std::fs::write(&path, json.clone() + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("loadgen: wrote {}", path.display());
    }
    if cli.record {
        let mut recorder = Recorder::new();
        recorder.record_value(
            &op_name(&cli.cfg),
            vec![
                ("completed".into(), uint(rec.completed)),
                ("errors".into(), uint(rec.errors)),
                ("elapsed_ms".into(), uint(rec.elapsed_ms)),
                (
                    "requests_per_sec".into(),
                    Value::Number(Number::Float(
                        (rec.requests_per_sec * 100.0).round() / 100.0,
                    )),
                ),
            ],
        );
        if let Err(e) = recorder.write() {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    }
    if cli.out_dir.is_none() && !cli.record {
        println!("{json}");
    }
}
