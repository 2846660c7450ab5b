//! Order statistics over host-time samples.

/// Median and quartiles of a sample, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here match the ones the driver computes.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (which need not be sorted).
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |k: usize| {
            if n == 1 {
                return v[0];
            }
            // Exclusive method: position k·(n+1)/4, clamped to the sample.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// The arithmetic mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A timing summary: the median, and the highest of p90/p99/p99.9 that
/// still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Median.
    pub p50: f64,
    /// Arithmetic mean (what adds up across layers).
    pub mean: f64,
    /// Which tail percentile `tail` is (0 when the sample is too small
    /// to support any).
    pub tail_pct: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

impl Timing {
    /// Summarises `samples` (0 everywhere for an empty sample).
    pub fn of(samples: &[f64]) -> Timing {
        if samples.is_empty() {
            return Timing::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // Per-mille, so that "ten samples beyond" is whole-number arithmetic.
        let (tail_pct, tail) = [(99.9, 1), (99.0, 10), (90.0, 100)]
            .into_iter()
            .find_map(|(pct, beyond_per_mille)| {
                let beyond = n * beyond_per_mille / 1000;
                (beyond >= 10).then(|| (pct, v[n - 1 - beyond]))
            })
            .unwrap_or((0.0, v[n - 1]));
        Timing {
            p50: v[n / 2],
            mean: mean(&v),
            tail_pct,
            tail,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!(t.tail, 89.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Timing::of(&v).tail_pct, 99.0);
        assert_eq!(Timing::of(&[1.0, 2.0]).tail_pct, 0.0);
    }
}
