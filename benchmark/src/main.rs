//! The append-memory benchmark harness: seven fixed workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to read the output; `/BENCHMARK.json` is the machine-readable
//! declaration. The last line of standard output of a one-workload run is
//! the result object the benchmark contract asks for.

mod alloc;
mod calib;
mod cli;
mod gen;
mod metrics;
mod probes;
mod rep;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use cli::Args;
use metrics::{Layers, END_TO_END};
use rep::{Rep, Workload};
use serde::Value;
use stats::{summarize, Better, Summary};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Default of `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// Repetitions every workload gets however long one takes.
const MIN_REPS: usize = 3;

/// Divisor of the fixed work under `--smoke`.
const SMOKE_SCALE: usize = 10;

/// Operations per workload whose spans are written to `trace.json` (all
/// spans are aggregated; the file keeps a readable prefix).
const TRACE_OPS_WRITTEN: u32 = 2_000;

/// Pinned outcomes at the default seed, full and smoke size.
const EXPECTED: &str = include_str!("../expected.json");

/// What one workload's pass produced.
struct Outcome {
    workload: &'static str,
    /// What `attempted`, `failed` and `ops_per_s` count.
    op_unit: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(name, value, unit, direction)`, in declaration order.
    metrics: Vec<(&'static str, f64, &'static str, Better)>,
    /// Spread of the time-based metrics over the repetitions.
    summaries: Vec<(&'static str, Summary)>,
    /// The same metrics in plain wall-clock seconds, uncalibrated.
    wall_clock: Vec<(&'static str, Summary)>,
    outcome: Value,
}

/// A JSON object from `(key, value)` pairs, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn summary_fields(s: &Summary) -> [(&'static str, Value); 5] {
    [
        ("best", Value::Number(s.best.into())),
        ("median", Value::Number(s.median.into())),
        ("q1", Value::Number(s.q1.into())),
        ("q3", Value::Number(s.q3.into())),
        ("reps", Value::Number((s.reps as u64).into())),
    ]
}

impl Outcome {
    /// The `metrics` object; with `spread`, each time-based metric also
    /// carries its summary over the repetitions.
    fn metrics_json(&self, spread: bool) -> Value {
        object(self.metrics.iter().map(|&(name, value, unit, _)| {
            let mut entry = vec![
                ("value", Value::Number(value.into())),
                ("unit", Value::String(unit.to_string())),
            ];
            if let Some((_, s)) = self.summaries.iter().find(|(n, _)| spread && *n == name) {
                entry.extend(summary_fields(s));
            }
            (name, object(entry))
        }))
    }

    /// The contract's result object.
    fn result_line(&self) -> String {
        object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Number(self.attempted.into())),
            ("failed", Value::Number(self.failed.into())),
            ("metrics", self.metrics_json(false)),
        ])
        .render(false)
    }

    /// The fuller record `result.json` keeps.
    fn to_json(&self) -> Value {
        let problems = self.problems.iter().cloned().map(Value::String).collect();
        let wall_clock = self
            .wall_clock
            .iter()
            .map(|(name, s)| (*name, object(summary_fields(s))));
        object([
            ("correct", Value::Bool(self.correct)),
            ("op_unit", Value::String(self.op_unit.to_string())),
            ("attempted", Value::Number(self.attempted.into())),
            ("failed", Value::Number(self.failed.into())),
            ("problems", Value::Array(problems)),
            ("metrics", self.metrics_json(true)),
            ("wall_clock", object(wall_clock)),
            ("outcome", self.outcome.clone()),
        ])
    }
}

/// Checks an outcome object against the pin for this seed and size, if
/// there is one.
fn check_pin(args: &Args, workload: &str, outcome: &Value, problems: &mut Vec<String>) {
    if args.seed != cli::DEFAULT_SEED {
        return;
    }
    let expected: Value = serde_json::from_str(EXPECTED).expect("expected.json parses");
    let size = if args.smoke { "smoke" } else { "full" };
    match expected.get(size).and_then(|s| s.get(workload)) {
        Some(pin) if pin == outcome => {}
        Some(pin) => problems.push(format!(
            "outcome differs from expected.json [{size}][{workload}]: got {}, pinned {}",
            outcome.render(false),
            pin.render(false)
        )),
        None => problems.push(format!("expected.json has no pin for [{size}][{workload}]")),
    }
}

fn build(args: &Args) -> Vec<Box<dyn Workload>> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    args.workloads
        .iter()
        .map(|name| workloads::build(name, args.seed, scale).expect("names were validated"))
        .collect()
}

/// The untraced run: repetitions of every selected workload, round-robin,
/// until each has had `--seconds` of them (and at least [`MIN_REPS`]).
fn run_untraced(args: &Args) -> (Vec<Outcome>, Vec<f64>) {
    let ws = build(args);
    // The first repetition in a process also pays one-off initialisation
    // (thread-local scratch arenas growing to their final size, lazily
    // built tables), so its allocation counts differ from every later
    // one's. One discarded repetition per workload pays it instead.
    for w in &ws {
        std::hint::black_box(w.rep());
    }
    let (min_reps, seconds) = if args.smoke {
        (1, 0.0)
    } else {
        (MIN_REPS, args.seconds)
    };
    let mut reps: Vec<Vec<Rep>> = ws.iter().map(|_| Vec::new()).collect();
    let mut spent = vec![0.0f64; ws.len()];
    let mut calib = Vec::new();
    loop {
        // Calibration kernel times the round's repetitions saw.
        let mut seen = Vec::new();
        for (i, w) in ws.iter().enumerate() {
            if reps[i].len() < min_reps || spent[i] < seconds {
                let t = Instant::now();
                let rep = w.rep();
                spent[i] += t.elapsed().as_secs_f64();
                seen.push(rep.calib_ns);
                reps[i].push(rep);
            }
        }
        if seen.is_empty() {
            break;
        }
        // One figure per round: a slow phase of the host shows here as
        // well as in every workload of the round.
        calib.push(seen.iter().sum::<f64>() / seen.len() as f64);
    }
    let outcomes = ws
        .iter()
        .zip(&reps)
        .map(|(w, reps)| evaluate_untraced(args, w.as_ref(), reps))
        .collect();
    (outcomes, calib)
}

fn evaluate_untraced(args: &Args, w: &dyn Workload, reps: &[Rep]) -> Outcome {
    let last = reps.last().expect("at least one repetition");
    let mut problems = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        problems.extend(r.problems.iter().map(|p| format!("rep {i}: {p}")));
        if r.outcome != last.outcome {
            problems.push(format!(
                "rep {i}: outcome differs from the last repetition's"
            ));
        }
        // The allocator counts are exact; identical work must repeat them.
        if (r.heap_peak, r.allocs, r.alloc_bytes) != (last.heap_peak, last.allocs, last.alloc_bytes)
        {
            problems.push(format!(
                "rep {i}: heap peak / allocations / bytes {:?} differ from the last repetition's {:?}",
                (r.heap_peak, r.allocs, r.alloc_bytes),
                (last.heap_peak, last.allocs, last.alloc_bytes)
            ));
        }
    }
    check_pin(args, w.name(), &last.outcome, &mut problems);

    let ops: Vec<f64> = reps.iter().map(Rep::ops_per_s).collect();
    let setups: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let mut metrics = Vec::new();
    let mut summaries = Vec::new();
    for m in &END_TO_END {
        let value = match m.name {
            "ops_per_s" => {
                // Machine noise only slows a repetition down, so the upper
                // quartile is steadier than the median and, unlike the
                // best, does not hang on one lucky repetition.
                let s = summarize(&ops, m.better);
                summaries.push((m.name, s));
                s.q3
            }
            "setup_s" => {
                let s = summarize(&setups, m.better);
                summaries.push((m.name, s));
                s.median
            }
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        metrics.push((m.name, value, m.unit, m.better));
    }
    let raw_ops: Vec<f64> = reps.iter().map(Rep::raw_ops_per_s).collect();
    let raw_setups: Vec<f64> = reps.iter().map(|r| r.setup_wall_s).collect();
    let wall_clock = vec![
        ("ops_per_s", summarize(&raw_ops, Better::Higher)),
        ("setup_s", summarize(&raw_setups, Better::Lower)),
    ];
    Outcome {
        workload: w.name(),
        op_unit: w.op_unit(),
        correct: problems.is_empty(),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        problems,
        metrics,
        summaries,
        wall_clock,
        outcome: last.outcome.clone(),
    }
}

/// The traced run: per workload one discarded and one kept untraced
/// repetition (the reference for the tracing overhead and the allocation
/// counts), one repetition with spans, then the workload's layer probes.
fn run_traced(args: &Args, trace_out: &mut impl Write) -> std::io::Result<Vec<Outcome>> {
    let mut outcomes = Vec::new();
    let mut first_span = true;
    trace_out.write_all(b"{\"spans\":[\n")?;
    for w in build(args) {
        let mut layers = Layers::new();
        let mut tracer = trace::Tracer::new();
        layers.set("machine.timer_ns", probes::timer_ns());
        // As in the untraced run, the first repetition in the process pays
        // one-off initialisation and is discarded.
        std::hint::black_box(w.rep());
        let base = w.rep();
        let traced = w.traced(&mut tracer, &mut layers);
        probes::obs(&mut layers);
        layers.set("alloc.count_per_op", base.allocs as f64 / base.ops as f64);
        layers.set(
            "alloc.bytes_per_op",
            base.alloc_bytes as f64 / base.ops as f64,
        );
        layers.set("alloc.peak_heap_mb", base.heap_peak_mb());
        layers.set("machine.calib_spin_ns", base.calib_ns);
        layers.set(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / base.ops_per_s(),
        );
        tracer.write_json(trace_out, w.name(), TRACE_OPS_WRITTEN, &mut first_span)?;

        let mut problems = base.problems.clone();
        problems.extend(traced.problems.iter().map(|p| format!("traced: {p}")));
        if traced.outcome != base.outcome {
            problems.push("traced repetition's outcome differs from the untraced one's".into());
        }
        check_pin(args, w.name(), &base.outcome, &mut problems);
        outcomes.push(Outcome {
            workload: w.name(),
            op_unit: w.op_unit(),
            correct: problems.is_empty(),
            attempted: base.ops + traced.ops,
            failed: base.failed + traced.failed,
            problems,
            metrics: layers
                .iter()
                .map(|(m, v)| (m.name, v, m.unit, m.better))
                .collect(),
            summaries: Vec::new(),
            wall_clock: Vec::new(),
            outcome: base.outcome,
        });
    }
    trace_out.write_all(b"\n]}\n")?;
    Ok(outcomes)
}

fn print_tables(title: &str, outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "\n== {} · {title} · {} attempted {} · failed {} · {} ==",
            o.workload,
            o.op_unit,
            o.attempted,
            o.failed,
            if o.correct { "correct" } else { "INCORRECT" }
        );
        for p in &o.problems {
            println!("  CHECK FAILED: {p}");
        }
        // A per-layer metric that does not apply to the workload stays 0:
        // the result line carries it, the table does not.
        for &(name, value, unit, better) in o.metrics.iter().filter(|m| m.1 != 0.0) {
            let line = format!(
                "  {name:<40} {value:>18.6} {unit:<6} {:<6}",
                better.as_str()
            );
            match o.summaries.iter().find(|(n, _)| *n == name) {
                Some((_, s)) => println!(
                    "{line} best {:.6}  median {:.6}  q1 {:.6}  q3 {:.6}  reps {}",
                    s.best, s.median, s.q1, s.q3, s.reps
                ),
                None => println!("{}", line.trim_end()),
            }
        }
        for (name, s) in &o.wall_clock {
            println!(
                "  {:<40} {:>18} {:<13} best {:.6}  median {:.6}  q1 {:.6}  q3 {:.6}  reps {}",
                format!("wall clock {name}"),
                "",
                "",
                s.best,
                s.median,
                s.q1,
                s.q3,
                s.reps
            );
        }
    }
}

/// The `context` block: what a reader needs to compare two result files.
fn context(args: &Args) -> Vec<(String, Value)> {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are meaningless)"
    } else {
        "release, lto = thin, codegen-units = 1"
    };
    vec![
        ("nproc".to_string(), Value::Number(nproc.into())),
        ("commit".to_string(), Value::String(commit)),
        (
            "rustc".to_string(),
            Value::String(env!("AM_BENCHMARK_RUSTC").to_string()),
        ),
        ("profile".to_string(), Value::String(profile.to_string())),
        ("seed".to_string(), Value::Number(args.seed.into())),
        ("seconds".to_string(), Value::Number(args.seconds.into())),
        ("smoke".to_string(), Value::Bool(args.smoke)),
    ]
}

fn run(args: &Args) -> std::io::Result<bool> {
    let started = Instant::now();
    let mut ctx = context(args);
    println!("context: {}", Value::Object(ctx.clone()).render(false));
    std::fs::create_dir_all(&args.out)?;

    let mut passes: Vec<(&str, Vec<Outcome>)> = Vec::new();
    let mut calib = Vec::new();
    if args.trace != Some(true) {
        let (outcomes, spins) = run_untraced(args);
        print_tables("end to end (untraced)", &outcomes);
        calib = spins;
        passes.push(("end_to_end", outcomes));
    }
    if args.trace != Some(false) {
        let path = args.out.join("trace.json");
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let outcomes = run_traced(args, &mut file)?;
        file.flush()?;
        print_tables("per layer (traced)", &outcomes);
        println!(
            "\nspans of the first {TRACE_OPS_WRITTEN} operations per workload: {}",
            path.display()
        );
        passes.push(("per_layer", outcomes));
    }

    let wall = started.elapsed().as_secs_f64();
    ctx.push(("total_wall_s".to_string(), Value::Number(wall.into())));
    ctx.push((
        "calib_spin_ns_per_round".to_string(),
        Value::Array(calib.iter().map(|&c| Value::Number(c.into())).collect()),
    ));
    let mut doc = vec![("context".to_string(), Value::Object(ctx))];
    for (key, outcomes) in &passes {
        let per_workload = outcomes
            .iter()
            .map(|o| (o.workload.to_string(), o.to_json()))
            .collect();
        doc.push((key.to_string(), Value::Object(per_workload)));
    }
    let result_path = args.out.join("result.json");
    std::fs::write(&result_path, Value::Object(doc).render(true) + "\n")?;
    println!(
        "full record: {} · total wall time {wall:.1} s",
        result_path.display()
    );

    // Result lines last, one per workload and pass: the final line of a
    // one-workload, one-pass run is what the benchmark contract reads.
    for (_, outcomes) in &passes {
        for o in outcomes {
            println!("{}", o.result_line());
        }
    }
    Ok(passes.iter().all(|(_, os)| os.iter().all(|o| o.correct)))
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("am-benchmark: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = if args.self_check {
        selfcheck::run(&args)
    } else {
        run(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("am-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
