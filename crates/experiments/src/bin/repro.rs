//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                  # everything, paper order
//! repro fig1 fig2 table2     # a subset
//! repro --paper-scale all    # full population sizes (slow)
//! repro --quick fig6         # tiny populations (CI smoke), no CSVs
//! repro --smoke resilience   # tiny populations, CSVs kept
//! repro --seed 7 fig10       # different random world
//! repro --shards 4 fig1      # the cells on 4 worker threads (default: 1)
//! repro --cells 64 zipf-population   # tunable cell layout (identity-changing)
//! repro --metrics fig6       # + metrics dashboard and Prometheus text
//! repro --list               # show available artifact ids
//!
//! repro cache-report               # ledger forensics (Tables 3–4)
//! repro cache-report --diff A B    # diff two cache snapshots (JSONL)
//! repro flame RUN_DIR_OR_TRACE     # collapsed stacks from sim-time spans
//! repro doctor RUN_DIR             # audit manifests, traces, time series
//! repro timeline RUN_DIR           # sim-time series → CSV + sparklines
//! repro diff RUN_A RUN_B           # structured run comparison (JSON verdict)
//! ```
//!
//! Every module run writes a provenance manifest
//! (`<module>_manifest.json`), a simulation-time trace
//! (`<module>_trace.jsonl`), a sim-time series
//! (`<module>_timeseries.jsonl`), and the final metrics
//! (`<module>_metrics.prom`) next to its CSVs, unless `--no-csv`.

use dnsttl_experiments::artifacts::{self, RunFile, ARTIFACTS};
use dnsttl_experiments::{flightdeck, rundiff, timeline, ExpConfig};

/// Which experiment module regenerates an artifact; exits with a usage
/// error on an unknown id.
fn module_of(id: &str) -> &'static str {
    artifacts::module_of(id).unwrap_or_else(|| {
        eprintln!("unknown artifact {id:?}; try --list");
        std::process::exit(2);
    })
}

/// `repro cache-report --diff A B`: diff two cache snapshots.
fn run_snapshot_diff(a: &str, b: &str) -> ! {
    use dnsttl_resolver::CacheSnapshot;
    let load = |path: &str| -> CacheSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        CacheSnapshot::parse_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    };
    let before = load(a);
    let after = load(b);
    let diff = before.diff(&after);
    if diff.is_empty() {
        println!("snapshots are identical ({} entries)", before.len());
    } else {
        print!("{}", diff.render());
    }
    std::process::exit(0);
}

/// `repro flame`: fold the sim-time span trees of one or more trace
/// files into collapsed-stack lines (flamegraph.pl / inferno input).
fn run_flame(args: &[String]) -> ! {
    let mut out: Option<std::path::PathBuf> = None;
    let mut inputs: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .unwrap_or_else(|| {
                            eprintln!("--out needs a path");
                            std::process::exit(2);
                        })
                        .into(),
                );
            }
            other => inputs.push(other.into()),
        }
        i += 1;
    }
    if inputs.is_empty() {
        eprintln!("usage: repro flame [--out FILE] TRACE.jsonl…|RUN_DIR…");
        std::process::exit(2);
    }
    // A directory stands for every *_trace.jsonl inside it.
    let mut traces: Vec<std::path::PathBuf> = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let found = artifacts::run_files(&input, RunFile::Trace).unwrap_or_default();
            if found.is_empty() {
                let suffix = RunFile::Trace.suffix();
                eprintln!("no *_{suffix} in {}", input.display());
                std::process::exit(1);
            }
            traces.extend(found.into_iter().map(|(_, path)| path));
        } else {
            traces.push(input);
        }
    }
    let mut rendered = String::new();
    for path in &traces {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let lines = flightdeck::parse_trace_jsonl(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", path.display());
            std::process::exit(1);
        });
        let forest = flightdeck::build_span_forest(&lines);
        let stacks = flightdeck::collapsed_stacks(&forest);
        eprintln!(
            "{}: {} spans, {} stacks",
            path.display(),
            forest.nodes.len(),
            stacks.len()
        );
        for line in stacks {
            rendered.push_str(&line);
            rendered.push('\n');
        }
    }
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("collapsed stacks written to {}", path.display());
        }
        None => print!("{rendered}"),
    }
    std::process::exit(0);
}

/// `repro doctor`: audit a run directory's manifests, traces and time
/// series. Exits nonzero when any check fails.
fn run_doctor(args: &[String]) -> ! {
    let [dir] = args else {
        eprintln!("usage: repro doctor RUN_DIR");
        std::process::exit(2);
    };
    let report = flightdeck::doctor_dir(std::path::Path::new(dir));
    print!("{}", report.render());
    std::process::exit(i32::from(!report.failures.is_empty()));
}

/// `repro timeline`: render a run directory's sim-time series as
/// `timeline.csv` plus ASCII sparklines on stdout.
fn run_timeline(args: &[String]) -> ! {
    let [dir] = args else {
        eprintln!("usage: repro timeline RUN_DIR");
        std::process::exit(2);
    };
    let dir = std::path::Path::new(dir);
    match timeline::render_dir(dir) {
        Ok(text) => {
            print!("{text}");
            eprintln!(
                "(timeline CSV written to {})",
                dir.join("timeline.csv").display()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("timeline: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro diff`: compare two run directories metric by metric. Prints
/// a JSON verdict on stdout, a human summary on stderr, and exits
/// nonzero when any metric drifts beyond tolerance.
fn run_diff(args: &[String]) -> ! {
    let bad = |msg: &str| -> ! {
        eprintln!("{msg}");
        eprintln!("usage: repro diff [--tolerance [METRIC=]PCT]… RUN_A RUN_B");
        std::process::exit(2);
    };
    let mut cfg = rundiff::DiffConfig::default();
    let mut dirs: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                let spec = args
                    .get(i)
                    .unwrap_or_else(|| bad("--tolerance needs a value"));
                let parse_pct = |v: &str| -> f64 {
                    let pct: f64 = v
                        .parse()
                        .unwrap_or_else(|_| bad(&format!("bad tolerance {v:?} (want a percent)")));
                    if !(0.0..=100.0).contains(&pct) {
                        bad(&format!("tolerance {pct}% out of range 0..=100"));
                    }
                    pct / 100.0
                };
                match spec.split_once('=') {
                    Some((metric, pct)) => cfg.per_metric.push((metric.to_owned(), parse_pct(pct))),
                    None => cfg.default_tolerance = parse_pct(spec),
                }
            }
            other if other.starts_with('-') => bad(&format!("unknown diff flag {other:?}")),
            _ => dirs.push(&args[i]),
        }
        i += 1;
    }
    let [a, b] = dirs[..] else {
        bad("diff needs exactly two run directories");
    };
    let verdict = rundiff::diff_dirs(std::path::Path::new(a), std::path::Path::new(b), &cfg)
        .unwrap_or_else(|e| {
            eprintln!("diff: {e}");
            std::process::exit(2);
        });
    println!("{}", verdict.to_json(a, b));
    eprint!("{}", verdict.render_text());
    std::process::exit(i32::from(!verdict.clean()));
}

/// The process's peak resident set so far, in whole MB, read from
/// `VmHWM` in `/proc/self/status`: `None` where that file cannot be
/// read (any OS but Linux). Goes to stderr only, beside the wall time.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("flame") {
        run_flame(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("doctor") {
        run_doctor(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("timeline") {
        run_timeline(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("diff") {
        run_diff(&argv[1..]);
    }
    if let Some(pos) = argv.iter().position(|a| a == "--diff") {
        if argv.first().map(String::as_str) != Some("cache-report") || argv.len() != pos + 3 {
            eprintln!("usage: repro cache-report --diff SNAPSHOT_A SNAPSHOT_B");
            std::process::exit(2);
        }
        run_snapshot_diff(&argv[pos + 1], &argv[pos + 2]);
    }

    // A preset picks the scale and nothing else, so every other flag
    // counts wherever it stands. `--smoke` is `--quick` for CI smoke
    // stages: tiny populations, CSVs still written for schema checks.
    let presets = ["--paper-scale", "--quick", "--smoke"];
    let mut cfg = match argv.iter().rev().find(|a| presets.contains(&a.as_str())) {
        Some(p) if p == "--paper-scale" => ExpConfig::paper_scale(),
        Some(p) if p == "--quick" => ExpConfig::quick(),
        Some(_) => ExpConfig {
            out_dir: ExpConfig::default().out_dir,
            ..ExpConfig::quick()
        },
        None => ExpConfig::default(),
    };
    let mut wanted: Vec<String> = Vec::new();
    let mut show_metrics = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                println!("available artifacts:");
                for (id, desc) in ARTIFACTS {
                    println!("  {id:<8} {desc}");
                }
                return;
            }
            "--paper-scale" | "--quick" | "--smoke" => {} // picked above
            "--seed" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                cfg.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--probes" => {
                let v = args.next().unwrap_or_default();
                cfg.probes = v.parse().unwrap_or_else(|_| {
                    eprintln!("--probes needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            // Worker threads for the cell engine. Output is
            // byte-identical for every N (DESIGN.md §10): the worker
            // count is a throughput knob, not part of the experiment.
            // Only fig10 runs a second engine without it; bailiwick
            // (fig5–8) runs one global population either way.
            "--shards" => {
                let v = args.next().unwrap_or_default();
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--shards needs an integer, got {v:?}");
                    std::process::exit(2);
                });
                if n == 0 {
                    eprintln!("--shards needs at least 1 worker");
                    std::process::exit(2);
                }
                cfg.shards = Some(n);
            }
            // Logical cell count for cell campaigns. Unlike
            // `--shards`, this IS part of the experiment's identity:
            // a different partition means different per-cell RNG
            // streams. Restricted to powers of two so the space of
            // comparable identities stays enumerable (16, 64, 256, …).
            "--cells" => {
                let v = args.next().unwrap_or_default();
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("--cells needs an integer, got {v:?}");
                    std::process::exit(2);
                });
                if n == 0 || !n.is_power_of_two() {
                    eprintln!("--cells must be a power of two (16, 64, 256, …), got {n}");
                    std::process::exit(2);
                }
                cfg.cells = Some(n);
            }
            "--no-csv" => cfg.out_dir = None,
            // Redirect artifacts (CSVs, manifests, traces, time series)
            // to DIR; the CI self-diff stage uses this to lay two runs
            // side by side.
            "--out" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
                cfg.out_dir = Some(v.into());
            }
            // Live campaign heartbeats on stderr (cell campaigns only);
            // wall clock never reaches the artifacts.
            "--progress" => cfg.progress = true,
            "--metrics" => show_metrics = true,
            "all" => wanted.extend(ARTIFACTS.iter().map(|(id, _)| id.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
            other => wanted.push(other.to_owned()),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: repro [--paper-scale|--quick|--smoke] [--seed N] [--probes N] [--shards N] [--cells N] [--out DIR|--no-csv] [--progress] [--metrics] <artifact…|all>");
        eprintln!("       repro --list");
        std::process::exit(2);
    }

    // Every campaign runs on its cells whatever the worker count, except
    // fig10: without `--shards` it runs one global population, which has
    // no cells to partition or report on. There either flag would be
    // dropped silently, which misreads as "identity changed" or "run
    // hung".
    if cfg.shards.is_none() && wanted.iter().any(|id| module_of(id) == "uy_latency") {
        for (given, flag, effect) in [
            (cfg.cells.is_some(), "--cells", "running one population"),
            (cfg.progress, "--progress", "printing no heartbeat"),
        ] {
            if given {
                eprintln!("warning: {flag} has no effect on fig10 without --shards; {effect}");
            }
        }
    }

    // Every module writes into the one run directory: make it before
    // any of them runs, so a bad `--out` fails before the simulation.
    if let Some(dir) = &cfg.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    // Deduplicate module runs: several artifacts share one experiment.
    let mut done_modules: Vec<&'static str> = Vec::new();
    for id in &wanted {
        let module = module_of(id);
        if done_modules.contains(&module) {
            continue;
        }
        done_modules.push(module);
        let started = std::time::Instant::now();
        let (reports, telemetry) = artifacts::run_module(module, &cfg);
        let wall = started.elapsed();
        for report in &reports {
            // Only print what was asked for (a module may produce
            // siblings the user did not request).
            let asked = wanted.iter().any(|w| report.id.starts_with(w.as_str()));
            if asked {
                println!("{}", report.render());
            }
        }
        if show_metrics {
            println!("=== {module}: metrics dashboard ===");
            println!("{}", telemetry.dashboard());
            println!("=== {module}: prometheus exposition ===");
            println!("{}", telemetry.prometheus_text());
        }
        let peak = peak_rss_mb().map_or(String::new(), |mb| format!(", peak RSS {mb} MB"));
        eprintln!(
            "({module}: {:.1}s wall, {} trace events{peak})",
            wall.as_secs_f64(),
            telemetry.events_recorded()
        );
    }
    if let Some(dir) = &cfg.out_dir {
        if artifacts::write_failed() {
            eprintln!(
                "(some artifacts could not be written under {})",
                dir.display()
            );
            std::process::exit(1);
        }
        eprintln!("(CSV series written under {})", dir.display());
    }
}
