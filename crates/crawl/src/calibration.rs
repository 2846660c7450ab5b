//! Per-list calibration constants.
//!
//! Every number here is traceable to the paper: Table 5 (sizes,
//! responsiveness, unique-record ratios), Figure 9 (TTL CDFs per record
//! type), Table 8 (TTL-zero counts), Table 9 (bailiwick splits), and
//! §5.1's prose (Umbrella's transient cloud names, the root's 80%
//! 1-or-2-day TTLs, human-chosen values "10 minutes and 1, 24, or 48
//! hours").

use crate::lists::ListKind;

/// The human-chosen TTL values that dominate Figure 9, in seconds.
pub(crate) const TTL_VALUES: [u32; 14] = [
    0, 30, 60, 300, 600, 900, 1_800, 3_600, 7_200, 14_400, 21_600, 43_200, 86_400, 172_800,
];

/// A TTL mixture: weights over [`TTL_VALUES`].
pub(crate) type TtlMix = [f64; 14];

/// NS-record TTL mixtures (child side), per list.
///
/// * Root: §5.1 "about 80% of records have TTLs of 1 or 2 days".
/// * Umbrella: "25% of its domains with NS records are under 1 minute".
/// * Alexa/Majestic: long-lived, centred on hours-to-days.
/// * .nl: ~40% below the parent's hour (§5.1), median 4 h (Table 7).
pub(crate) fn ns_ttl_mix(list: ListKind) -> TtlMix {
    match list {
        //                 0     30    60    300   600   900   1800  3600  7200  14400 21600 43200 86400 172800
        ListKind::Root => [
            0.000, 0.004, 0.006, 0.010, 0.010, 0.010, 0.010, 0.050, 0.030, 0.030, 0.020, 0.030,
            0.400, 0.400,
        ],
        ListKind::Alexa => [
            0.005, 0.010, 0.030, 0.060, 0.050, 0.020, 0.040, 0.180, 0.080, 0.080, 0.090, 0.070,
            0.230, 0.055,
        ],
        ListKind::Majestic => [
            0.004, 0.010, 0.025, 0.055, 0.045, 0.020, 0.040, 0.170, 0.080, 0.085, 0.095, 0.075,
            0.240, 0.056,
        ],
        ListKind::Umbrella => [
            0.005, 0.120, 0.130, 0.100, 0.060, 0.030, 0.050, 0.140, 0.060, 0.060, 0.060, 0.045,
            0.105, 0.035,
        ],
        ListKind::Nl => [
            0.001, 0.004, 0.015, 0.050, 0.060, 0.030, 0.080, 0.160, 0.090, 0.210, 0.070, 0.060,
            0.130, 0.040,
        ],
    }
}

/// A-record TTL mixtures: §5.1 "IP addresses are the shortest",
/// Table 7 gives `.nl` a 1 h median.
pub(crate) fn a_ttl_mix(list: ListKind) -> TtlMix {
    match list {
        ListKind::Root => [
            0.000, 0.004, 0.010, 0.020, 0.020, 0.010, 0.030, 0.100, 0.050, 0.050, 0.040, 0.060,
            0.330, 0.276,
        ],
        ListKind::Alexa => [
            0.001, 0.030, 0.100, 0.280, 0.110, 0.040, 0.070, 0.190, 0.050, 0.040, 0.030, 0.020,
            0.035, 0.004,
        ],
        ListKind::Majestic => [
            0.001, 0.025, 0.090, 0.250, 0.110, 0.040, 0.080, 0.210, 0.060, 0.045, 0.030, 0.022,
            0.033, 0.004,
        ],
        ListKind::Umbrella => [
            0.001, 0.090, 0.230, 0.280, 0.100, 0.030, 0.050, 0.120, 0.030, 0.020, 0.020, 0.010,
            0.017, 0.002,
        ],
        ListKind::Nl => [
            0.000, 0.005, 0.030, 0.090, 0.090, 0.060, 0.100, 0.370, 0.090, 0.060, 0.035, 0.030,
            0.035, 0.005,
        ],
    }
}

/// AAAA mixtures track A with slightly longer tails (Figure 9c).
pub(crate) fn aaaa_ttl_mix(list: ListKind) -> TtlMix {
    let mut mix = a_ttl_mix(list);
    // Shift a little weight from the minute-scale bins to hour-scale.
    mix[2] *= 0.7;
    mix[3] *= 0.8;
    mix[7] += 0.05;
    mix[9] += 0.03;
    mix
}

/// MX mixtures: mail is provisioned manually; hours dominate
/// (Table 7: 1 h median for `.nl`).
pub(crate) fn mx_ttl_mix(_list: ListKind) -> TtlMix {
    [
        0.001, 0.004, 0.020, 0.080, 0.060, 0.030, 0.100, 0.330, 0.100, 0.090, 0.060, 0.050, 0.065,
        0.010,
    ]
}

/// DNSKEY mixtures: "NS and DNSKEY records tend to be the longest
/// lived" (§5.1).
pub(crate) fn dnskey_ttl_mix(_list: ListKind) -> TtlMix {
    [
        0.001, 0.002, 0.007, 0.020, 0.020, 0.010, 0.040, 0.250, 0.090, 0.120, 0.080, 0.080, 0.250,
        0.030,
    ]
}

/// Per-list population parameters from Table 5 / Table 9.
#[derive(Debug, Clone)]
pub(crate) struct ListParams {
    /// Domains in the full-scale list.
    pub domains: usize,
    /// Fraction of domains that answer at all (Table 5 "ratio").
    pub responsive: f64,
    /// Probability that a responsive domain's NS query returns a CNAME
    /// instead (Table 9; Umbrella's FQDNs do this massively).
    pub cname_on_ns: f64,
    /// Probability of an SOA-instead-of-NS answer (Table 9).
    pub soa_on_ns: f64,
    /// Fraction of NS-responding domains whose servers are all out of
    /// bailiwick (Table 9 "percent out").
    pub out_only: f64,
    /// Of the remainder, fraction purely in bailiwick (vs mixed).
    pub in_only_of_rest: f64,
    /// Probability a domain publishes AAAA records.
    pub has_aaaa: f64,
    /// Probability a domain publishes MX records.
    pub has_mx: f64,
    /// Probability a domain publishes DNSKEY records (DNSSEC).
    pub has_dnskey: f64,
    /// Size of the hosting-provider NS pool; smaller pool ⇒ higher
    /// sharing ⇒ higher Table 5 "ratio" (total/unique). `.nl`'s ratio
    /// of 190 comes from mass low-cost shared hosting.
    pub ns_pool: usize,
    /// Size of the address pool A records draw from.
    pub addr_pool: usize,
}

/// The calibrated parameters for each list.
pub(crate) fn list_params(list: ListKind) -> ListParams {
    match list {
        ListKind::Alexa => ListParams {
            domains: 1_000_000,
            responsive: 0.99,
            cname_on_ns: 0.052,
            soa_on_ns: 0.013,
            out_only: 0.950,
            in_only_of_rest: 0.81,
            has_aaaa: 0.28,
            has_mx: 0.65,
            has_dnskey: 0.043,
            ns_pool: 135_000,
            addr_pool: 290_000,
        },
        ListKind::Majestic => ListParams {
            domains: 1_000_000,
            responsive: 0.93,
            cname_on_ns: 0.008,
            soa_on_ns: 0.009,
            out_only: 0.957,
            in_only_of_rest: 0.72,
            has_aaaa: 0.22,
            has_mx: 0.63,
            has_dnskey: 0.041,
            ns_pool: 115_000,
            addr_pool: 270_000,
        },
        ListKind::Umbrella => ListParams {
            domains: 1_000_000,
            responsive: 0.78,
            cname_on_ns: 0.578,
            soa_on_ns: 0.075,
            out_only: 0.901,
            in_only_of_rest: 0.75,
            has_aaaa: 0.37,
            has_mx: 0.39,
            has_dnskey: 0.015,
            ns_pool: 53_000,
            addr_pool: 225_000,
        },
        ListKind::Nl => ListParams {
            domains: 5_582_431,
            responsive: 0.94,
            cname_on_ns: 0.002,
            soa_on_ns: 0.002,
            out_only: 0.997,
            in_only_of_rest: 0.81,
            has_aaaa: 0.38,
            has_mx: 0.72,
            has_dnskey: 0.66,
            ns_pool: 37_000,
            addr_pool: 137_000,
        },
        ListKind::Root => ListParams {
            domains: 1_562,
            responsive: 0.97,
            cname_on_ns: 0.0,
            soa_on_ns: 0.0,
            out_only: 0.487,
            in_only_of_rest: 0.83,
            has_aaaa: 0.96,
            has_mx: 0.03,
            has_dnskey: 0.92,
            ns_pool: 2_100,
            addr_pool: 1_600,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(mix: &TtlMix) -> u32 {
        let total: f64 = mix.iter().sum();
        let mut acc = 0.0;
        for (i, w) in mix.iter().enumerate() {
            acc += w;
            if acc >= total / 2.0 {
                return TTL_VALUES[i];
            }
        }
        *TTL_VALUES.last().unwrap()
    }

    #[test]
    fn mixtures_are_normalised_enough() {
        for list in ListKind::ALL {
            for mix in [
                ns_ttl_mix(list),
                a_ttl_mix(list),
                aaaa_ttl_mix(list),
                mx_ttl_mix(list),
                dnskey_ttl_mix(list),
            ] {
                let sum: f64 = mix.iter().sum();
                assert!((0.9..1.1).contains(&sum), "{list:?} sum {sum}");
                assert!(mix.iter().all(|&w| w >= 0.0));
            }
        }
    }

    #[test]
    fn root_ns_ttls_are_mostly_a_day_or_two() {
        let mix = ns_ttl_mix(ListKind::Root);
        let long = mix[12] + mix[13];
        assert!((0.75..0.9).contains(&long), "long fraction {long}");
    }

    #[test]
    fn umbrella_ns_has_sub_minute_mass() {
        let mix = ns_ttl_mix(ListKind::Umbrella);
        let sub_min: f64 = mix[..3].iter().sum();
        assert!((0.2..0.3).contains(&sub_min), "sub-minute {sub_min}");
    }

    #[test]
    fn a_records_shorter_than_ns() {
        for list in [
            ListKind::Alexa,
            ListKind::Majestic,
            ListKind::Umbrella,
            ListKind::Nl,
        ] {
            assert!(
                median_of(&a_ttl_mix(list)) <= median_of(&ns_ttl_mix(list)),
                "{list:?}"
            );
        }
    }

    #[test]
    fn nl_a_median_is_one_hour() {
        assert_eq!(median_of(&a_ttl_mix(ListKind::Nl)), 3_600);
    }

    #[test]
    fn params_match_table5_magnitudes() {
        let alexa = list_params(ListKind::Alexa);
        assert_eq!(alexa.domains, 1_000_000);
        assert!((0.98..1.0).contains(&alexa.responsive));
        let umbrella = list_params(ListKind::Umbrella);
        assert!(umbrella.responsive < 0.8);
        let root = list_params(ListKind::Root);
        assert!((0.4..0.6).contains(&root.out_only));
    }
}
