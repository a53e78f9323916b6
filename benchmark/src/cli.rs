//! Command-line flags. No environment variables are read.

use crate::workloads::NAMES;
use crate::DEFAULT_SECONDS;
use std::path::PathBuf;

/// Seed whose outcomes `expected.json` pins.
pub const DEFAULT_SEED: u64 = 11;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Selected workloads, in `BENCHMARK.json` order.
    pub workloads: Vec<&'static str>,
    /// Input seed.
    pub seed: u64,
    /// Seconds each workload of the untraced run repeats its work for.
    pub seconds: f64,
    /// `Some(false)`: untraced run only; `Some(true)`: traced run only;
    /// `None`: both.
    pub trace: Option<bool>,
    /// Directory for `result.json` and `trace.json`.
    pub out: PathBuf,
    /// One repetition of every workload at one-tenth size.
    pub smoke: bool,
    /// Run the suite twice and compare.
    pub self_check: bool,
}

pub const USAGE: &str = "usage: am-benchmark [--workload <name>]... [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--out <dir>] [--smoke] [--self-check]
  --workload <name>  run this workload (repeatable; default: all seven)
  --seed <n>         input seed (default 11, whose outcomes expected.json pins)
  --seconds <s>      how long each workload repeats its fixed work (default 10)
  --trace <0|1>      0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --out <dir>        where result.json and trace.json go (default benchmark/out)
  --smoke            one repetition of every workload at one-tenth size, all checks
  --self-check       run the suite twice (A, then B) and hold B to the bounds against A";

/// Parses the flags; the error is the message to print before the usage.
pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
        self_check: false,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = NAMES.iter().find(|&&n| n == name).ok_or(format!(
                    "unknown workload '{name}' (one of {})",
                    NAMES.join(", ")
                ))?;
                if !args.workloads.contains(known) {
                    args.workloads.push(known);
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                });
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = NAMES.to_vec();
    } else {
        args.workloads
            .sort_by_key(|w| NAMES.iter().position(|n| n == w));
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_contract_invocation_parses() {
        let a = parse_str("--workload sweep_net --seed 5 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, ["sweep_net"]);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 10.0, Some(true)));
    }

    #[test]
    fn defaults_select_everything_in_table_order() {
        let a = parse_str("").unwrap();
        assert_eq!(a.workloads, NAMES);
        assert_eq!((a.seed, a.trace, a.smoke), (DEFAULT_SEED, None, false));
        let b = parse_str("--workload modelcheck --workload serve_read_heavy").unwrap();
        assert_eq!(b.workloads, ["serve_read_heavy", "modelcheck"]);
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse_str("--workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse_str("--seed x").is_err());
        assert!(parse_str("--seed").unwrap_err().contains("needs a value"));
        assert!(parse_str("--trace 2").is_err());
        assert!(parse_str("--seconds -1").is_err());
        assert!(parse_str("--reps 3").unwrap_err().contains("unknown flag"));
    }
}
