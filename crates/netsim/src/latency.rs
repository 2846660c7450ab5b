//! Regions and the latency model.
//!
//! The paper reports latency by continent (Figure 10b) using RIPE Atlas
//! probes' self-reported geolocation; our model assigns every node a
//! [`Region`] and samples per-exchange RTTs from log-normal distributions
//! whose medians come from a region-pair matrix. Magnitudes are chosen to
//! match the paper's observations: a query answered from a recursive's
//! cache takes a few milliseconds; a cache miss to a Frankfurt
//! authoritative costs tens to hundreds of milliseconds depending on the
//! client's continent.

use crate::rng::SimRng;
use crate::time::SimDuration;
use std::fmt;

/// A continental region, after the paper's Figure 10b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Africa.
    Af,
    /// Asia.
    As,
    /// Europe — where the paper's test authoritatives (EC2 Frankfurt)
    /// live, and where Atlas probes are densest.
    Eu,
    /// North America.
    Na,
    /// Oceania.
    Oc,
    /// South America.
    Sa,
}

impl Region {
    /// All regions, in the paper's display order.
    pub const ALL: [Region; 6] = [
        Region::Af,
        Region::As,
        Region::Eu,
        Region::Na,
        Region::Oc,
        Region::Sa,
    ];

    /// Index into latency matrices.
    pub fn index(self) -> usize {
        match self {
            Region::Af => 0,
            Region::As => 1,
            Region::Eu => 2,
            Region::Na => 3,
            Region::Oc => 4,
            Region::Sa => 5,
        }
    }

    /// The two-letter region code (what `Display` prints).
    pub fn as_str(self) -> &'static str {
        match self {
            Region::Af => "AF",
            Region::As => "AS",
            Region::Eu => "EU",
            Region::Na => "NA",
            Region::Oc => "OC",
            Region::Sa => "SA",
        }
    }

    /// RIPE-Atlas-like population weights: Atlas probes skew heavily
    /// European (the paper's §7 notes this bias explicitly).
    pub fn atlas_weights() -> [f64; 6] {
        // AF, AS, EU, NA, OC, SA
        [0.03, 0.12, 0.55, 0.20, 0.04, 0.06]
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Samples round-trip times between regions.
///
/// RTT = median(pair) × lognormal(0, σ) + floor, with an optional loss
/// probability per exchange. σ defaults to 0.35, giving the long right
/// tail visible in every RTT CDF in the paper.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Median one-way-pair RTT in ms, indexed `[from][to]`.
    medians_ms: [[f64; 6]; 6],
    /// Log-normal sigma of the multiplicative jitter.
    sigma: f64,
    /// Probability that one exchange is lost (query or reply dropped).
    pub loss_probability: f64,
    /// Additive floor in ms (local processing, last-mile).
    floor_ms: f64,
}

impl LatencyModel {
    /// The default Internet-like matrix.
    ///
    /// Intra-region medians: EU 12 ms, NA 18 ms, AS 28 ms, SA 25 ms,
    /// AF 35 ms, OC 15 ms. Inter-region values follow great-circle
    /// expectations (EU↔NA ≈ 95 ms, EU↔OC ≈ 280 ms, …).
    pub fn internet() -> LatencyModel {
        // Order: AF, AS, EU, NA, OC, SA
        let m = [
            [35.0, 220.0, 140.0, 190.0, 320.0, 240.0], // AF
            [220.0, 28.0, 180.0, 170.0, 140.0, 300.0], // AS
            [140.0, 180.0, 12.0, 95.0, 280.0, 200.0],  // EU
            [190.0, 170.0, 95.0, 18.0, 160.0, 130.0],  // NA
            [320.0, 140.0, 280.0, 160.0, 15.0, 260.0], // OC
            [240.0, 300.0, 200.0, 130.0, 260.0, 25.0], // SA
        ];
        LatencyModel {
            medians_ms: m,
            sigma: 0.35,
            loss_probability: 0.005,
            floor_ms: 1.0,
        }
    }

    /// A constant-RTT model for unit tests: every exchange takes
    /// exactly `ms` milliseconds and nothing is lost.
    pub fn constant(ms: f64) -> LatencyModel {
        LatencyModel {
            medians_ms: [[ms; 6]; 6],
            sigma: 0.0,
            loss_probability: 0.0,
            floor_ms: 0.0,
        }
    }

    #[cfg(test)]
    /// Overrides the jitter parameter.
    pub(crate) fn with_sigma(mut self, sigma: f64) -> LatencyModel {
        self.sigma = sigma;
        self
    }

    #[cfg(test)]
    /// Overrides the loss probability.
    pub(crate) fn with_loss(mut self, p: f64) -> LatencyModel {
        self.loss_probability = p;
        self
    }

    /// The median RTT between two regions, without jitter. Anycast site
    /// selection uses this (BGP picks by topology, not by instantaneous
    /// load).
    pub(crate) fn median_ms(&self, from: Region, to: Region) -> f64 {
        self.medians_ms[from.index()][to.index()]
    }

    /// Samples one round-trip time.
    pub(crate) fn sample_rtt(&self, from: Region, to: Region, rng: &mut SimRng) -> SimDuration {
        let median = self.median_ms(from, to);
        let jitter = if self.sigma > 0.0 {
            rng.log_normal(0.0, self.sigma)
        } else {
            1.0
        };
        SimDuration::from_millis((self.floor_ms + median * jitter).round() as u64)
    }

    /// Samples whether one exchange is lost.
    pub(crate) fn sample_loss(&self, rng: &mut SimRng) -> bool {
        self.loss_probability > 0.0 && rng.chance(self.loss_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = LatencyModel::internet();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(m.median_ms(a, b), m.median_ms(b, a), "{a}->{b}");
            }
        }
    }

    #[test]
    fn intra_region_is_fastest() {
        let m = LatencyModel::internet();
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert!(m.median_ms(a, a) < m.median_ms(a, b));
                }
            }
        }
    }

    #[test]
    fn constant_model_is_exact() {
        let m = LatencyModel::constant(10.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(
                m.sample_rtt(Region::Eu, Region::Na, &mut rng),
                SimDuration::from_millis(10)
            );
            assert!(!m.sample_loss(&mut rng));
        }
    }

    #[test]
    fn sampled_median_tracks_matrix() {
        let m = LatencyModel::internet();
        let mut rng = SimRng::seed_from(2);
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| m.sample_rtt(Region::Eu, Region::Na, &mut rng).as_millis())
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!((median - 96.0).abs() < 10.0, "median {median}");
    }

    #[test]
    fn rtt_distribution_has_right_tail() {
        let m = LatencyModel::internet();
        let mut rng = SimRng::seed_from(3);
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| m.sample_rtt(Region::Eu, Region::Eu, &mut rng).as_millis())
            .collect();
        samples.sort_unstable();
        let p50 = samples[samples.len() / 2];
        let p99 = samples[samples.len() * 99 / 100];
        assert!(p99 as f64 > p50 as f64 * 1.8, "p50={p50} p99={p99}");
    }

    #[test]
    fn loss_rate_matches_parameter() {
        let m = LatencyModel::internet().with_loss(0.1);
        let mut rng = SimRng::seed_from(4);
        let lost = (0..50_000).filter(|_| m.sample_loss(&mut rng)).count();
        let rate = lost as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn atlas_weights_sum_to_one() {
        let sum: f64 = Region::atlas_weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
