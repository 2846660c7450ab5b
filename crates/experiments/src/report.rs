//! Experiment reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The output of one experiment run: printable text plus the named
/// quantities the test suite asserts on.
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact id, e.g. `"fig6"` or `"table10"`.
    pub id: String,
    /// Human title, e.g. `"Figure 6: in-bailiwick renumbering"`.
    pub title: String,
    /// Rendered tables / ASCII charts / commentary.
    pub text: String,
    /// Named scalar results (fractions, medians, counts).
    pub metrics: BTreeMap<String, f64>,
    /// Every file (relative to the experiment out-dir) this run wrote
    /// through `Report::write` — CSVs, snapshots, a fault-plan
    /// script — journalled into the run manifest's `artifacts`.
    pub artifacts: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            text: String::new(),
            metrics: BTreeMap::new(),
            artifacts: Vec::new(),
        }
    }

    /// Appends a line (or block) of text.
    pub fn push(&mut self, text: impl AsRef<str>) -> &mut Report {
        self.text.push_str(text.as_ref());
        if !text.as_ref().ends_with('\n') {
            self.text.push('\n');
        }
        self
    }

    /// Records a named metric.
    pub(crate) fn metric(&mut self, key: &str, value: f64) -> &mut Report {
        self.metrics.insert(key.to_owned(), value);
        self
    }

    /// A metric by name.
    ///
    /// # Panics
    /// Panics when absent — tests want loud failures.
    pub fn get(&self, key: &str) -> f64 {
        *self
            .metrics
            .get(key)
            .unwrap_or_else(|| panic!("metric {key:?} missing from {}", self.id))
    }

    /// Renders the full report, metrics included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bar = "=".repeat(72);
        let _ = writeln!(out, "{bar}\n{} — {}\n{bar}", self.id, self.title);
        out.push_str(&self.text);
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "--- metrics ---");
            for (k, v) in &self.metrics {
                let _ = writeln!(out, "{k} = {v:.4}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_adds_newlines_once() {
        let mut r = Report::new("x", "t");
        r.push("a").push("b\n");
        assert_eq!(r.text, "a\nb\n");
    }

    #[test]
    fn metrics_round_trip() {
        let mut r = Report::new("x", "t");
        r.metric("frac", 0.9);
        assert_eq!(r.get("frac"), 0.9);
        assert!(r.render().contains("frac = 0.9000"));
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_metric_panics() {
        Report::new("x", "t").get("nope");
    }
}
