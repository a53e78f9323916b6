//! `--self-check`: the suite twice, A then B, same binary, same seed; B is
//! held to each end-to-end metric's bound against A, and every exact
//! number must agree to the last digit.

use crate::cli::Args;
use crate::metrics::{END_TO_END, PER_LAYER};
use serde::Value;
use std::io;
use std::process::{Command, Stdio};

/// The result lines of one child run: untraced per workload, then traced.
fn run_child(args: &Args, tag: &str) -> io::Result<Vec<Value>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    for w in &args.workloads {
        cmd.args(["--workload", w]);
    }
    cmd.args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(args.out.join(format!("self-check-{tag}")));
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(trace) = args.trace {
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Value> = text
        .lines()
        .filter(|l| l.starts_with("{\"correct\":"))
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    let passes = if args.trace.is_some() { 1 } else { 2 };
    if !out.status.success() || lines.len() != passes * args.workloads.len() {
        print!("{text}");
        return Err(io::Error::other(format!(
            "run {tag} exited with {} and {} result lines",
            out.status,
            lines.len()
        )));
    }
    Ok(lines)
}

fn metric(line: &Value, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs A and B and prints the comparison; `Ok(true)` when B holds.
pub fn run(args: &Args) -> io::Result<bool> {
    println!("self-check: run A");
    let a = run_child(args, "a")?;
    println!("self-check: run B");
    let b = run_child(args, "b")?;
    let mut ok = true;
    let mut lines = a.iter().zip(&b);
    if args.trace != Some(true) {
        println!(
            "\n{:<20} {:<14} {:>16} {:>16} {:>9} {:>7}",
            "workload", "metric", "A", "B", "worse by", "bound"
        );
        for (w, (la, lb)) in args.workloads.iter().zip(&mut lines) {
            for m in &END_TO_END {
                let (Some(va), Some(vb)) = (metric(la, m.name), metric(lb, m.name)) else {
                    return Err(io::Error::other(format!(
                        "{w}: no {} in a result line",
                        m.name
                    )));
                };
                let worse = m.better.worse_by(va, vb);
                let held = worse <= m.bound;
                ok &= held;
                println!(
                    "{w:<20} {:<14} {va:>16.6} {vb:>16.6} {:>8.2}% {:>6.0}% {}",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if held { "" } else { "EXCEEDED" }
                );
            }
        }
    }
    if args.trace != Some(false) {
        let mut compared = 0;
        for (w, (la, lb)) in args.workloads.iter().zip(&mut lines) {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                compared += 1;
                if metric(la, m.name) != metric(lb, m.name) {
                    ok = false;
                    println!(
                        "{w}: exact metric {} differs: {:?} then {:?}",
                        m.name,
                        metric(la, m.name),
                        metric(lb, m.name)
                    );
                }
            }
        }
        println!("\n{compared} exact per-layer values compared between A and B");
    }
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
