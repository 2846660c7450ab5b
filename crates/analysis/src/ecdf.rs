//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
///
/// ```
/// use dnsttl_analysis::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.median(), 2.0);          // nearest-rank (lower) median
/// assert_eq!(e.fraction_leq(2.0), 0.5);
/// assert_eq!(e.quantile(0.95), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF; NaN samples are dropped.
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Builds from integer samples (TTLs, milliseconds, counts).
    pub fn from_u64(samples: impl IntoIterator<Item = u64>) -> Ecdf {
        Ecdf::new(samples.into_iter().map(|x| x as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `P(X ≤ x)` over the sample.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (nearest-rank), `p` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an empty ECDF or `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The median (nearest-rank: the lower middle sample for even
    /// sizes).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().unwrap_or(&f64::NAN)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap_or(&f64::NAN)
    }

    /// `(x, F(x))` steps for plotting, deduplicated on x.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n as f64;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => out.push((x, y)),
            }
        }
        out
    }

    /// A one-line summary: n, min, p25, median, p75, p95, p99, max.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0".to_owned();
        }
        format!(
            "n={} min={:.1} p25={:.1} p50={:.1} p75={:.1} p95={:.1} p99={:.1} max={:.1}",
            self.len(),
            self.min(),
            self.quantile(0.25),
            self.median(),
            self.quantile(0.75),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::from_u64(1..=100);
        assert_eq!(e.quantile(0.01), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.95), 95.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.0), 1.0);
    }

    #[test]
    fn fraction_leq_counts_ties() {
        let e = Ecdf::new(vec![300.0, 300.0, 300.0, 172_800.0]);
        assert_eq!(e.fraction_leq(300.0), 0.75);
        assert_eq!(e.fraction_leq(299.0), 0.0);
        assert_eq!(e.fraction_leq(200_000.0), 1.0);
    }

    #[test]
    fn points_deduplicate_ties() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(e.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn nan_samples_dropped() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn mean_min_max() {
        let e = Ecdf::new(vec![2.0, 4.0, 9.0]);
        assert_eq!(e.mean(), 5.0);
        assert_eq!(e.min(), 2.0);
        assert_eq!(e.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Ecdf::new(vec![]).quantile(0.5);
    }

    #[test]
    fn summary_mentions_count() {
        assert!(Ecdf::from_u64([5, 6, 7]).summary().starts_with("n=3"));
        assert_eq!(Ecdf::new(vec![]).summary(), "n=0");
    }
}
