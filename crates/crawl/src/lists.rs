//! Synthetic list generation and the crawled-domain record.

use crate::bailiwick::BailiwickClass;
use crate::calibration::{self, TTL_VALUES};
use crate::content::ContentCategory;
use dnsttl_netsim::SimRng;
use dnsttl_wire::RecordType;

/// The five populations the paper crawls (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// Alexa top 1M second-level domains.
    Alexa,
    /// Majestic Million second-level domains.
    Majestic,
    /// Cisco Umbrella top 1M FQDNs (cloud/CDN heavy).
    Umbrella,
    /// The `.nl` ccTLD zone (5.58 M domains).
    Nl,
    /// The root zone's 1 562 TLD delegations.
    Root,
}

impl ListKind {
    /// All lists in the paper's column order.
    pub const ALL: [ListKind; 5] = [
        ListKind::Alexa,
        ListKind::Majestic,
        ListKind::Umbrella,
        ListKind::Nl,
        ListKind::Root,
    ];

    /// Display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            ListKind::Alexa => "Alexa",
            ListKind::Majestic => "Majestic",
            ListKind::Umbrella => "Umbrella",
            ListKind::Nl => ".nl",
            ListKind::Root => "Root",
        }
    }

    /// The "format" row of Table 5.
    pub fn format(self) -> &'static str {
        match self {
            ListKind::Alexa | ListKind::Majestic | ListKind::Nl => "2LD",
            ListKind::Umbrella => "FQDN",
            ListKind::Root => "TLD",
        }
    }
}

/// One record as the crawler observed it at the child authoritative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawledRecord {
    /// Record type.
    pub rtype: RecordType,
    /// Observed TTL, seconds.
    pub ttl: u32,
    /// The record value (server name, address, …); uniqueness over
    /// these produces Table 5's "unique" rows.
    pub value: String,
}

/// One domain's crawl result.
#[derive(Debug, Clone)]
pub struct CrawledDomain {
    /// The domain name.
    pub name: String,
    /// False if no query got an answer (Table 5 "discarded").
    pub responsive: bool,
    /// True when the NS query returned a CNAME (Table 9 row "CNAME").
    pub cname_on_ns: bool,
    /// True when the NS query returned an SOA (Table 9 row "SOA").
    pub soa_on_ns: bool,
    /// All records retrieved from the child authoritative.
    pub records: Vec<CrawledRecord>,
    /// Bailiwick classification of the NS set (Table 9).
    pub bailiwick: Option<BailiwickClass>,
    /// DMap-style content category, only for `.nl` (Tables 6–7).
    pub category: Option<ContentCategory>,
}

impl CrawledDomain {
    /// Records of one type.
    pub(crate) fn records_of(&self, rtype: RecordType) -> impl Iterator<Item = &CrawledRecord> {
        self.records.iter().filter(move |r| r.rtype == rtype)
    }

    /// True if the domain answered the NS query with NS records.
    pub fn responds_ns(&self) -> bool {
        self.responsive && !self.cname_on_ns && !self.soa_on_ns && self.bailiwick.is_some()
    }
}

/// Generation parameters for one synthetic list.
#[derive(Debug, Clone)]
pub struct ListSpec {
    /// Which population.
    pub kind: ListKind,
    /// How many domains to generate (scaled-down or full).
    pub size: usize,
}

impl ListSpec {
    /// Full paper-scale size.
    pub fn paper_scale(kind: ListKind) -> ListSpec {
        ListSpec {
            kind,
            size: calibration::list_params(kind).domains,
        }
    }

    /// Scaled by `factor` (the root is small and never scaled down).
    pub fn scaled(kind: ListKind, factor: f64) -> ListSpec {
        let full = calibration::list_params(kind).domains;
        let size = if kind == ListKind::Root {
            full
        } else {
            ((full as f64 * factor) as usize).max(1_000)
        };
        ListSpec { kind, size }
    }

    /// Generates the synthetic population.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<CrawledDomain> {
        let params = calibration::list_params(self.kind);
        let scale = self.size as f64 / params.domains as f64;
        let ns_pool = ((params.ns_pool as f64 * scale).ceil() as usize).max(16);
        let addr_pool = ((params.addr_pool as f64 * scale).ceil() as usize).max(16);

        let ns_mix = calibration::ns_ttl_mix(self.kind);
        let a_mix = calibration::a_ttl_mix(self.kind);
        let aaaa_mix = calibration::aaaa_ttl_mix(self.kind);
        let mx_mix = calibration::mx_ttl_mix(self.kind);
        let dnskey_mix = calibration::dnskey_ttl_mix(self.kind);

        let sample_ttl = |rng: &mut SimRng, mix: &calibration::TtlMix| -> u32 {
            TTL_VALUES[rng.weighted_index(mix)]
        };

        let mut out = Vec::with_capacity(self.size);
        for i in 0..self.size {
            let name = match self.kind {
                ListKind::Alexa => format!("alexa{i}.example"),
                ListKind::Majestic => format!("majestic{i}.example"),
                ListKind::Umbrella => format!("host{i}.svc{}.cloud.example", i % 977),
                ListKind::Nl => format!("domein{i}.nl"),
                ListKind::Root => format!("tld{i}"),
            };
            let responsive = rng.chance(params.responsive);
            if !responsive {
                out.push(CrawledDomain {
                    name,
                    responsive: false,
                    cname_on_ns: false,
                    soa_on_ns: false,
                    records: Vec::new(),
                    bailiwick: None,
                    category: None,
                });
                continue;
            }

            let cname_on_ns = rng.chance(params.cname_on_ns);
            let soa_on_ns = !cname_on_ns && rng.chance(params.soa_on_ns);
            let mut records = Vec::new();
            let mut bailiwick = None;

            // `.nl` content category, biasing TTLs per Table 7.
            let category = if self.kind == ListKind::Nl {
                Some(ContentCategory::sample(rng))
            } else {
                None
            };

            if cname_on_ns {
                records.push(CrawledRecord {
                    rtype: RecordType::CNAME,
                    ttl: sample_ttl(rng, &a_mix),
                    value: format!("edge{}.cdn.example", rng.below(addr_pool as u64)),
                });
            } else if !soa_on_ns {
                // NS set: 2–4 servers from the provider pool (Zipf for
                // shared hosting: a few providers serve huge swaths).
                let ns_count = 2 + rng.below(3) as usize;
                let ns_ttl = category
                    .map(|c| c.bias_ns_ttl(sample_ttl(rng, &ns_mix)))
                    .unwrap_or_else(|| sample_ttl(rng, &ns_mix));
                let out_only = rng.chance(params.out_only);
                let in_only = !out_only && rng.chance(params.in_only_of_rest);
                let mut in_count = 0usize;
                for k in 0..ns_count {
                    let in_bailiwick = if out_only {
                        false
                    } else if in_only {
                        true
                    } else {
                        // Mixed: first server in, rest out.
                        k == 0
                    };
                    let value = if in_bailiwick {
                        in_count += 1;
                        format!("ns{k}.{name}")
                    } else {
                        format!("ns{k}.provider{}.example", rng.zipf(ns_pool, 1.25))
                    };
                    records.push(CrawledRecord {
                        rtype: RecordType::NS,
                        ttl: ns_ttl,
                        value,
                    });
                }
                bailiwick = Some(BailiwickClass::from_counts(in_count, ns_count - in_count));

                // Address records.
                let a_ttl = sample_ttl(rng, &a_mix);
                let a_count = 1 + rng.below(2) as usize;
                for _ in 0..a_count {
                    records.push(CrawledRecord {
                        rtype: RecordType::A,
                        ttl: a_ttl,
                        value: format!(
                            "192.0.{}.{}",
                            rng.below(addr_pool as u64 / 250 + 1),
                            rng.below(250)
                        ),
                    });
                }
                if rng.chance(params.has_aaaa) {
                    records.push(CrawledRecord {
                        rtype: RecordType::AAAA,
                        ttl: sample_ttl(rng, &aaaa_mix),
                        value: format!("2001:db8::{:x}", 1 + rng.below(addr_pool as u64)),
                    });
                }
                if rng.chance(params.has_mx) {
                    let mx_ttl = sample_ttl(rng, &mx_mix);
                    records.push(CrawledRecord {
                        rtype: RecordType::MX,
                        ttl: mx_ttl,
                        value: format!("mx.provider{}.example", rng.zipf(ns_pool, 1.2)),
                    });
                }
                if rng.chance(params.has_dnskey) {
                    records.push(CrawledRecord {
                        rtype: RecordType::DNSKEY,
                        ttl: category
                            .map(|c| c.bias_dnskey_ttl(sample_ttl(rng, &dnskey_mix)))
                            .unwrap_or_else(|| sample_ttl(rng, &dnskey_mix)),
                        value: format!("key-{}", rng.below(u64::MAX / 2)),
                    });
                }
            }

            out.push(CrawledDomain {
                name,
                responsive: true,
                cname_on_ns,
                soa_on_ns,
                records,
                bailiwick,
                category,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(kind: ListKind, size: usize) -> Vec<CrawledDomain> {
        let mut rng = SimRng::seed_from(42);
        ListSpec { kind, size }.generate(&mut rng)
    }

    #[test]
    fn sizes_and_responsiveness() {
        let domains = generate(ListKind::Alexa, 5_000);
        assert_eq!(domains.len(), 5_000);
        let responsive = domains.iter().filter(|d| d.responsive).count() as f64 / 5_000.0;
        assert!((0.97..1.0).contains(&responsive), "{responsive}");
        let umbrella = generate(ListKind::Umbrella, 5_000);
        let responsive = umbrella.iter().filter(|d| d.responsive).count() as f64 / 5_000.0;
        assert!((0.74..0.82).contains(&responsive), "{responsive}");
    }

    #[test]
    fn umbrella_is_cname_heavy() {
        let domains = generate(ListKind::Umbrella, 5_000);
        let cnames = domains.iter().filter(|d| d.cname_on_ns).count() as f64;
        let responsive = domains.iter().filter(|d| d.responsive).count() as f64;
        let rate = cnames / responsive;
        assert!((0.5..0.65).contains(&rate), "cname rate {rate}");
    }

    #[test]
    fn bailiwick_split_matches_params() {
        let domains = generate(ListKind::Alexa, 10_000);
        let ns_responding: Vec<_> = domains.iter().filter(|d| d.responds_ns()).collect();
        let out_only = ns_responding
            .iter()
            .filter(|d| d.bailiwick == Some(BailiwickClass::OutOnly))
            .count() as f64
            / ns_responding.len() as f64;
        assert!((0.93..0.97).contains(&out_only), "out-only {out_only}");

        let root = generate(ListKind::Root, 1_562);
        let ns_root: Vec<_> = root.iter().filter(|d| d.responds_ns()).collect();
        let out_only = ns_root
            .iter()
            .filter(|d| d.bailiwick == Some(BailiwickClass::OutOnly))
            .count() as f64
            / ns_root.len() as f64;
        assert!((0.4..0.6).contains(&out_only), "root out-only {out_only}");
    }

    #[test]
    fn ns_rrset_shares_one_ttl() {
        let domains = generate(ListKind::Majestic, 1_000);
        for d in domains.iter().filter(|d| d.responds_ns()) {
            let ttls: Vec<u32> = d.records_of(RecordType::NS).map(|r| r.ttl).collect();
            assert!(ttls.windows(2).all(|w| w[0] == w[1]), "{:?}", d.name);
        }
    }

    #[test]
    fn nl_domains_have_categories_others_do_not() {
        let nl = generate(ListKind::Nl, 2_000);
        assert!(nl
            .iter()
            .filter(|d| d.responsive)
            .all(|d| d.category.is_some()));
        let alexa = generate(ListKind::Alexa, 100);
        assert!(alexa.iter().all(|d| d.category.is_none()));
    }

    #[test]
    fn shared_hosting_produces_duplicate_ns_values() {
        let domains = generate(ListKind::Nl, 20_000);
        let all_ns: Vec<&str> = domains
            .iter()
            .flat_map(|d| d.records_of(RecordType::NS))
            .map(|r| r.value.as_str())
            .collect();
        let mut unique: Vec<&str> = all_ns.clone();
        unique.sort_unstable();
        unique.dedup();
        let ratio = all_ns.len() as f64 / unique.len() as f64;
        assert!(ratio > 3.0, "sharing ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(ListKind::Alexa, 500);
        let b = generate(ListKind::Alexa, 500);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.records, y.records);
        }
    }
}
