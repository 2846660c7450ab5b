//! Analytic cache model: TTLs → hit rates, latency, server load.
//!
//! Jung, Berger, and Balakrishnan (INFOCOM 2003, the paper's \[26\])
//! modelled a TTL-based cache under Poisson arrivals: after each miss
//! the record is cached for `T` seconds, during which every query hits.
//! With query rate `λ`, a renewal argument gives an expected `λT`
//! hits per miss, so
//!
//! ```text
//! hit_rate(λ, T) = λT / (1 + λT)
//! ```
//!
//! The paper's §6.2 measures exactly the consequences of this curve:
//! raising TTL from 60 s to 86 400 s cut authoritative traffic by ~77%
//! and cut median latency by ~5× (Table 10, Figure 11). These functions
//! let examples and benches compute the predicted values next to the
//! simulated ones.

/// Analytic hit rate of a TTL cache under Poisson arrivals.
///
/// `rate_qps` is the aggregate query rate reaching the resolver for one
/// name; `ttl_secs` is the effective TTL. Both must be non-negative.
///
/// ```
/// use dnsttl_core::hit_rate;
/// assert!(hit_rate(0.1, 60.0) < hit_rate(0.1, 86_400.0));
/// assert_eq!(hit_rate(1.0, 0.0), 0.0); // TTL 0 ⇒ every query misses
/// ```
pub fn hit_rate(rate_qps: f64, ttl_secs: f64) -> f64 {
    assert!(rate_qps >= 0.0 && ttl_secs >= 0.0);
    let lt = rate_qps * ttl_secs;
    lt / (1.0 + lt)
}

/// Complement of [`hit_rate`]: the fraction of client queries that must
/// travel to an authoritative server.
pub(crate) fn miss_rate(rate_qps: f64, ttl_secs: f64) -> f64 {
    1.0 - hit_rate(rate_qps, ttl_secs)
}

/// Queries per second arriving at the authoritative, given the client
/// rate and effective TTL — Table 10's authoritative-side query counts,
/// as a rate.
pub fn authoritative_load(rate_qps: f64, ttl_secs: f64) -> f64 {
    rate_qps * miss_rate(rate_qps, ttl_secs)
}

/// Expected client-observed latency under the two-level model the paper
/// describes: hits are answered by the recursive in `hit_ms`, misses
/// cost an extra authoritative round trip of `miss_ms`.
pub fn expected_latency_ms(rate_qps: f64, ttl_secs: f64, hit_ms: f64, miss_ms: f64) -> f64 {
    let h = hit_rate(rate_qps, ttl_secs);
    h * hit_ms + (1.0 - h) * (hit_ms + miss_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_monotone_in_ttl() {
        let mut prev = -1.0;
        for ttl in [0.0, 30.0, 60.0, 600.0, 3_600.0, 86_400.0] {
            let h = hit_rate(0.05, ttl);
            assert!(h > prev, "ttl {ttl}");
            assert!((0.0..1.0).contains(&h));
            prev = h;
        }
    }

    #[test]
    fn hit_rate_is_monotone_in_rate() {
        assert!(hit_rate(0.001, 600.0) < hit_rate(0.1, 600.0));
        assert!(hit_rate(0.1, 600.0) < hit_rate(10.0, 600.0));
    }

    #[test]
    fn ttl_zero_never_hits() {
        assert_eq!(hit_rate(100.0, 0.0), 0.0);
        assert_eq!(miss_rate(100.0, 0.0), 1.0);
    }

    #[test]
    fn rates_partition() {
        for (r, t) in [(0.01, 60.0), (0.5, 3_600.0), (2.0, 86_400.0)] {
            assert!((hit_rate(r, t) + miss_rate(r, t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn moura2018_cache_rates_are_in_band() {
        // The paper's §7 cites Moura et al. 2018: ~70% cache hit rates
        // for TTLs of 1800–86400 s in production. With a plausible
        // per-name rate of one query per ~7 minutes, the analytic model
        // should put those TTLs in the same band.
        let rate = 1.0 / 420.0;
        let low = hit_rate(rate, 1_800.0);
        let high = hit_rate(rate, 86_400.0);
        assert!(low > 0.5 && low < 0.9, "low {low}");
        assert!(high > 0.95, "high {high}");
    }

    #[test]
    fn expected_latency_interpolates_endpoints() {
        let l_all_miss = expected_latency_ms(0.0, 0.0, 5.0, 100.0);
        assert!((l_all_miss - 105.0).abs() < 1e-9);
        // Huge TTL and rate → essentially every query hits.
        let l_all_hit = expected_latency_ms(10.0, 86_400.0, 5.0, 100.0);
        assert!((l_all_hit - 5.0).abs() < 0.1, "{l_all_hit}");
    }

    #[test]
    fn longer_ttl_lowers_latency_and_load() {
        let r = 0.02;
        assert!(
            expected_latency_ms(r, 86_400.0, 5.0, 100.0) < expected_latency_ms(r, 60.0, 5.0, 100.0)
        );
        assert!(authoritative_load(r, 86_400.0) < authoritative_load(r, 60.0));
    }
}
