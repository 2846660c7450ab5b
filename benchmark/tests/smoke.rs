//! Drives the built binary at `--smoke` scale: the output parses, every
//! name matches `BENCHMARK.json` and the code's own lists, and the counts
//! repeat exactly from one process to the next.

use dnsttl_benchmark::output::RunResult;
use dnsttl_benchmark::timed::END_TO_END;
use dnsttl_benchmark::trace::per_layer_names;
use dnsttl_benchmark::workloads::NAMES;
use std::process::Command;

struct Run {
    result: RunResult,
    stdout: String,
}

fn run(workload: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = RunResult::from_json(line).unwrap_or_else(|| panic!("unparsable: {line}"));
    assert!(result.correct && result.failed == 0 && result.attempted >= 1);
    Run { result, stdout }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The line of the report that starts with `key`.
fn report_line<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("no {key} line in:\n{stdout}"))
}

#[test]
fn timed_runs_report_the_end_to_end_metrics_and_repeat_their_counts() {
    for workload in NAMES {
        let first = run(workload, "0");
        let second = run(workload, "0");
        let names: Vec<&str> = first.result.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{workload}");
        for (m, spec) in first.result.metrics.iter().zip(&END_TO_END) {
            assert_eq!(m.unit, spec.unit);
            assert!(m.value > 0.0, "{workload} {} is {}", m.name, m.value);
        }
        // Exact counts: identical between two processes.
        for key in [
            "ops_attempted",
            "ops_failed",
            "sim_digest",
            "sim.hit_rate",
            "allocations",
        ] {
            assert_eq!(
                report_line(&first.stdout, key),
                report_line(&second.stdout, key),
                "{workload}"
            );
        }
        for name in ["allocs_per_query", "peak_heap_mb"] {
            assert_eq!(
                first.result.value(name),
                second.result.value(name),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn traced_runs_report_the_per_layer_metrics() {
    for workload in NAMES {
        let traced = run(workload, "1");
        let names: Vec<&str> = traced.result.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, per_layer_names(), "{workload}");
        // The replay drove every layer on every workload.
        for name in [
            "wire.encode_ns",
            "auth.handle_query_ns",
            "resolver.resolve_miss_ns",
        ] {
            assert!(
                traced.result.value(name).unwrap() > 0.0,
                "{workload} {name}"
            );
        }
        let shares: f64 = traced
            .result
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("share."))
            .map(|m| m.value)
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{workload}: shares sum to {shares}"
        );
    }
}

#[test]
fn a_bad_command_line_exits_with_2_and_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// The quoted strings that follow `"key":` between `"section": [` and
/// the section's closing bracket.
fn section_strings(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &body[i + needle.len()..];
            rest[..rest.find('"').expect("string closes")].to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(section_strings(&json, "workloads", "name"), NAMES);
    assert_eq!(
        section_strings(&json, "per_layer", "name"),
        per_layer_names()
    );
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(section_strings(&json, "end_to_end", "name"), expected);
    let units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
    assert_eq!(section_strings(&json, "end_to_end", "unit"), units);
    let better: Vec<&str> = END_TO_END.iter().map(|m| m.better).collect();
    assert_eq!(section_strings(&json, "end_to_end", "better"), better);
    for spec in &END_TO_END {
        assert!(
            json.contains(&format!("\"bound\": {}", spec.bound)),
            "{} bound {} is not in BENCHMARK.json",
            spec.name,
            spec.bound
        );
    }
    for name in NAMES
        .iter()
        .copied()
        .chain(per_layer_names())
        .chain(expected)
    {
        assert!(is_name(name), "{name}");
    }
}
