//! The result line: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`, printed last on standard output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result of a run whose output was wrong, with the reasons on
    /// standard error: a wrong output counts every operation as failed.
    pub fn failed(problems: &[String]) -> RunResult {
        for p in problems {
            eprintln!("FAILED: {p}");
        }
        RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    /// The result line. Values print with every digit `f64` holds.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Parses a line [`RunResult::to_json`] wrote (names and units come
    /// back leaked, which is fine for the few lines a self-check reads).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let body = &line[line.find("\"metrics\":{")? + 11..];
        let mut metrics = Vec::new();
        for part in body.split("},") {
            let part = part.trim_end_matches('}');
            if part.is_empty() {
                continue;
            }
            let (name, rest) = part.strip_prefix('"')?.split_once("\":{\"value\":")?;
            let (value, unit) = rest.split_once(",\"unit\":\"")?;
            metrics.push(Metric {
                name: String::leak(name.to_owned()),
                value: value.parse().ok()?,
                unit: String::leak(unit.trim_end_matches('"').to_owned()),
            });
        }
        Some(RunResult {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }

    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("cal_cpu_us_per_query", 7.012345678901234, "us"),
                Metric::new("setup_s", 1.5, "s"),
            ],
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
        assert_eq!(RunResult::from_json(&line), Some(r));
    }
}
