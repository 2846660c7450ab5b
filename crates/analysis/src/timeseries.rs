//! Binned categorical time series.
//!
//! Figures 6 and 7 of the paper count, in 10-minute bins, how many
//! responses came from the *original* versus the *renumbered*
//! authoritative server. [`TimeSeries`] is that structure: events carry
//! a category label and a timestamp; the series reports per-bin counts.

use std::collections::BTreeMap;

/// Counts of labelled events in fixed-width time bins.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: u64,
    /// bin index → (label → count)
    bins: BTreeMap<u64, BTreeMap<String, u64>>,
}

impl TimeSeries {
    /// A series with `bin_width` (same unit as the event timestamps —
    /// the workspace uses seconds).
    ///
    /// # Panics
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: u64) -> TimeSeries {
        assert!(bin_width > 0, "bin width must be positive");
        TimeSeries {
            bin_width,
            bins: BTreeMap::new(),
        }
    }

    /// Records one event.
    pub fn record(&mut self, at: u64, label: &str) {
        *self
            .bins
            .entry(at / self.bin_width)
            .or_default()
            .entry(label.to_owned())
            .or_default() += 1;
    }

    /// All labels seen, sorted.
    pub fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.bins.values().flat_map(|m| m.keys().cloned()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// `(bin_start, count)` for one label across all bins (bins where
    /// the label is absent yield 0), covering the observed range.
    pub fn series(&self, label: &str) -> Vec<(u64, u64)> {
        let (Some(&first), Some(&last)) = (self.bins.keys().next(), self.bins.keys().next_back())
        else {
            return Vec::new();
        };
        (first..=last)
            .map(|bin| {
                let count = self
                    .bins
                    .get(&bin)
                    .and_then(|m| m.get(label))
                    .copied()
                    .unwrap_or(0);
                (bin * self.bin_width, count)
            })
            .collect()
    }

    /// Total events for a label.
    pub fn total(&self, label: &str) -> u64 {
        self.bins.values().filter_map(|m| m.get(label)).sum()
    }

    /// Renders stacked per-bin counts as text rows:
    /// `t=HH:MM  labelA=12 labelB=3`.
    pub fn render(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        for (&bin, counts) in &self.bins {
            let t = bin * self.bin_width;
            out.push_str(&format!("t={:>6}s ", t));
            for label in &labels {
                let c = counts.get(label).copied().unwrap_or(0);
                out.push_str(&format!(" {label}={c:<6}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_counts() {
        let mut ts = TimeSeries::new(600);
        ts.record(0, "old");
        ts.record(599, "old");
        ts.record(600, "new");
        ts.record(1_300, "new");
        assert_eq!(ts.series("old"), vec![(0, 2), (600, 0), (1_200, 0)]);
        assert_eq!(ts.series("new"), vec![(0, 0), (600, 1), (1_200, 1)]);
        assert_eq!(ts.total("new"), 2);
    }

    #[test]
    fn series_fills_gaps_with_zero() {
        let mut ts = TimeSeries::new(100);
        ts.record(0, "x");
        ts.record(350, "x");
        let s = ts.series("x");
        assert_eq!(s, vec![(0, 1), (100, 0), (200, 0), (300, 1)]);
    }

    #[test]
    fn labels_sorted_and_deduped() {
        let mut ts = TimeSeries::new(10);
        ts.record(1, "b");
        ts.record(2, "a");
        ts.record(3, "b");
        assert_eq!(ts.labels(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn empty_series_is_empty() {
        let ts = TimeSeries::new(10);
        assert!(ts.series("x").is_empty());
        assert_eq!(ts.total("x"), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_panics() {
        TimeSeries::new(0);
    }
}
