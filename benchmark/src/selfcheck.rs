//! `benchmark selfcheck`: back-to-back sets of every workload on the
//! current tree, and the spread of the set medians against each bound.
//!
//! One run is one process, as the driver runs it, so each set spawns
//! this executable once per workload and waits for it.

use crate::cli::Options;
use crate::output::RunResult;
use crate::stats::median;
use crate::timed::END_TO_END;
use crate::workloads::NAMES;
use std::process::Command;

fn one_run(workload: &str, opts: &Options) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match RunResult::from_json(line) {
        Some(result) if out.status.success() && result.correct => Ok(result),
        _ => Err(format!(
            "{workload}: run failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Runs the self-check; returns the process exit code.
pub fn run(opts: &Options) -> i32 {
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for set in 0..opts.sets {
        let mut results = Vec::new();
        for workload in NAMES {
            eprintln!("set {} of {}: {workload}", set + 1, opts.sets);
            match one_run(workload, opts) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("selfcheck: {e}");
                    return 1;
                }
            }
        }
        sets.push(results);
    }

    let mut worst_ok = true;
    println!(
        "{:<13} {:<22} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, workload) in NAMES.iter().enumerate() {
        for spec in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .map(|set| {
                    set[w]
                        .value(spec.name)
                        .expect("every run reports every metric")
                })
                .collect();
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let spread = (hi - lo) / mid;
            let verdict = if spread > spec.bound {
                worst_ok = false;
                "EXCEEDS BOUND"
            } else if spread > spec.bound / 2.0 {
                "over half the bound"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {:<22} {mid:>14.6} {:>8.3}% {:>6.1}%  {verdict}",
                spec.name,
                spread * 100.0,
                spec.bound * 100.0
            );
        }
    }
    if worst_ok {
        0
    } else {
        1
    }
}
