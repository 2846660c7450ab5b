//! Command line.
//!
//! ```text
//! benchmark [run]     --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark trace     --workload W [--seed N] [--seconds S] [--smoke]
//! benchmark selfcheck [--sets N]   [--seed N] [--seconds S] [--smoke]
//! ```

use crate::workloads::{Workload, NAMES};
use crate::{selfcheck, timed, trace};

/// The seed numbers in the README were measured with. Claims must also
/// hold on the held-out seed 1337, which was not used to size anything.
pub const DEFAULT_SEED: u64 = 42;
/// Seconds of timed repetitions when `--seconds` is absent
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 24.0;

const USAGE: &str = "usage: benchmark [run|trace|selfcheck] --workload <name> [--seed N] \
                     [--seconds S] [--trace 0|1] [--sets N] [--smoke]";

/// Parsed options, shared by every subcommand.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`, or the `trace` subcommand.
    pub trace: bool,
    /// `--smoke`: tiny scale for tests.
    pub smoke: bool,
    /// `--sets` (selfcheck).
    pub sets: usize,
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: 3,
    };
    let mut args = args.iter().map(String::as_str).peekable();
    let command = match args.peek() {
        Some(&c) if !c.starts_with("--") => {
            args.next();
            c.to_owned()
        }
        _ => "run".to_owned(),
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => opts.workload = Some(value.to_owned()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                opts.sets = value.parse().map_err(|_| bad())?;
                if opts.sets < 2 {
                    return Err("--sets must be at least 2".into());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((command, opts))
}

/// Runs the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let (command, mut opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    match command.as_str() {
        "selfcheck" => return selfcheck::run(&opts),
        "trace" => opts.trace = true,
        "run" => {}
        other => {
            eprintln!("benchmark: unknown command {other}\n{USAGE}");
            return 2;
        }
    }
    let Some(workload) = opts
        .workload
        .as_deref()
        .and_then(|w| Workload::named(w, opts.smoke))
    else {
        eprintln!(
            "benchmark: --workload must be one of {}\n{USAGE}",
            NAMES.join(", ")
        );
        return 2;
    };
    let result = if opts.trace {
        trace::run(&workload, opts.seed, opts.seconds)
    } else {
        timed::run(&workload, opts.seed, opts.seconds, opts.smoke)
    };
    println!("{}", result.to_json());
    if result.correct {
        0
    } else {
        1
    }
}
