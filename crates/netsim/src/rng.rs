//! Deterministic random numbers.
//!
//! A self-contained xoshiro256** implementation seeded via splitmix64.
//! Every stochastic component in the workspace (latency jitter, resolver
//! policy assignment, synthetic list generation) draws from a [`SimRng`]
//! derived from the experiment seed, so an experiment is one number away
//! from being rerun exactly.

/// Derives the seed for one logical shard of a sharded run.
///
/// The sharded engine partitions a population into logical shards and
/// gives each its own RNG stream. The derivation mixes `run_seed` and
/// `shard_id` through two splitmix64 rounds, so shard streams are
/// independent of each other, of the worker-thread count, and of
/// scheduling order: shard 3 draws the same numbers whether it runs
/// first on one thread or last on eight. Nothing in the derivation
/// depends on the total shard count — the contract extends unchanged
/// from the classic fixed 16-cell layout to any tunable cell count
/// (the scale campaigns run 64 or 256 cells), with the corollary that
/// the cell count *is* part of an experiment's identity: cell 3 of a
/// 64-cell run owns a different probe slice than cell 3 of 16.
///
/// ```
/// use dnsttl_netsim::rng::shard_seed;
/// assert_eq!(shard_seed(42, 3), shard_seed(42, 3));
/// assert_ne!(shard_seed(42, 3), shard_seed(42, 4));
/// assert_ne!(shard_seed(42, 3), shard_seed(43, 3));
/// ```
pub fn shard_seed(run_seed: u64, shard_id: u64) -> u64 {
    let mut state = run_seed;
    let mixed_run = splitmix64(&mut state);
    let mut state = mixed_run ^ shard_id.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut state)
}

/// A deterministic PRNG (xoshiro256**) with the sampling helpers the
/// simulator needs.
///
/// ```
/// use dnsttl_netsim::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; used to give each probe /
    /// resolver / experiment module its own stream so adding draws in one
    /// place does not perturb another.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::seed_from(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift bounded generation (Lemire); bias is negligible
        // for the population sizes simulated here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE); // avoid ln(0)
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal draw with the given parameters of the underlying
    /// normal. Used for RTT jitter: long right tails, never negative.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Zipf-like rank draw over `[0, n)` with exponent `s` — used to give
    /// synthetic top lists a realistic popularity skew.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        // Inverse-CDF on the continuous approximation; adequate for
        // workload generation (not for exact statistics).
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        if (s - 1.0).abs() < 1e-9 {
            let h = (n as f64).ln();
            ((u * h).exp() - 1.0).min(n as f64 - 1.0) as usize
        } else {
            let exp = 1.0 - s;
            let h = ((n as f64).powf(exp) - 1.0) / exp;
            let x = (1.0 + u * h * exp).powf(1.0 / exp) - 1.0;
            (x.min(n as f64 - 1.0)).max(0.0) as usize
        }
    }

    /// Picks an index according to non-negative weights.
    ///
    /// Returns `weights.len() - 1` if rounding leaves residual mass.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        debug_assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_stable_and_pairwise_distinct() {
        let seeds: Vec<u64> = (0..64).map(|i| shard_seed(42, i)).collect();
        assert_eq!(
            seeds,
            (0..64).map(|i| shard_seed(42, i)).collect::<Vec<_>>()
        );
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "shard seeds must not collide");
        // Streams derived from adjacent shard ids diverge immediately.
        let mut a = SimRng::seed_from(shard_seed(7, 0));
        let mut b = SimRng::seed_from(shard_seed(7, 1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_mean_is_about_half() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_is_positive_and_skewed() {
        let mut rng = SimRng::seed_from(9);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.log_normal(3.0, 0.5)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "log-normal should be right-skewed");
        // Median of lognormal(mu, sigma) is exp(mu) ≈ 20.1.
        assert!((median - 3.0f64.exp()).abs() < 1.5, "median {median}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SimRng::seed_from(13);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[rng.zipf(10, 1.1)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[9] / 2);
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SimRng::seed_from(17);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[0.7, 0.2, 0.1])] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
        let share0 = counts[0] as f64 / 30_000.0;
        assert!((share0 - 0.7).abs() < 0.03, "share {share0}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SimRng::seed_from(23);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
