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

/// A record's value as the numbers its text was drawn from. Within one
/// record type two values are equal exactly when their texts are, so a
/// set of them counts Table 5's "unique" rows with no string per record.
/// Pool indices and list positions fit a `u32`; a DNSKEY draw does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordValue {
    /// NS `ns{k}.provider{p}.example`.
    ProviderNs(u32, u32),
    /// NS `ns{k}.{domain}`, the domain given by its index in the list.
    InBailiwickNs(u32, u32),
    /// A `192.0.{a}.{b}`.
    A(u32, u32),
    /// AAAA `2001:db8::{x:x}`.
    Aaaa(u32),
    /// MX `mx.provider{p}.example`.
    Mx(u32),
    /// CNAME `edge{n}.cdn.example`.
    Cname(u32),
    /// DNSKEY `key-{u}`.
    Dnskey(u64),
}

#[cfg(test)]
impl RecordValue {
    /// The value's text, as a server of a list of `kind` serves it.
    pub(crate) fn render(self, kind: ListKind) -> String {
        match self {
            RecordValue::ProviderNs(k, p) => format!("ns{k}.provider{p}.example"),
            RecordValue::InBailiwickNs(k, i) => format!("ns{k}.{}", kind.domain_name(i as usize)),
            RecordValue::A(a, b) => format!("192.0.{a}.{b}"),
            RecordValue::Aaaa(x) => format!("2001:db8::{x:x}"),
            RecordValue::Mx(p) => format!("mx.provider{p}.example"),
            RecordValue::Cname(n) => format!("edge{n}.cdn.example"),
            RecordValue::Dnskey(u) => format!("key-{u}"),
        }
    }
}

/// One record as the crawler observed it at the child authoritative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawledRecord {
    /// Record type.
    pub rtype: RecordType,
    /// Observed TTL, seconds.
    pub ttl: u32,
    /// The record value (server name, address, …); uniqueness over
    /// these produces Table 5's "unique" rows.
    pub value: RecordValue,
}

/// One domain's crawl result.
#[derive(Debug, Clone)]
pub struct CrawledDomain {
    /// The list the domain belongs to.
    pub kind: ListKind,
    /// Its position in the list; with `kind` it names the domain.
    pub index: usize,
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

#[cfg(test)]
impl ListKind {
    /// The name of the list's `i`-th domain.
    pub(crate) fn domain_name(self, i: usize) -> String {
        match self {
            ListKind::Alexa => format!("alexa{i}.example"),
            ListKind::Majestic => format!("majestic{i}.example"),
            ListKind::Umbrella => format!("host{i}.svc{}.cloud.example", i % 977),
            ListKind::Nl => format!("domein{i}.nl"),
            ListKind::Root => format!("tld{i}"),
        }
    }
}

#[cfg(test)]
impl CrawledDomain {
    /// The domain name.
    pub(crate) fn name(&self) -> String {
        self.kind.domain_name(self.index)
    }

    /// True if the domain answered the NS query with NS records.
    pub(crate) fn responds_ns(&self) -> bool {
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

    /// Generates the synthetic population in list order, handing each
    /// domain to `f` as it is drawn; no domain outlives its call.
    pub fn for_each(&self, rng: &mut SimRng, mut f: impl FnMut(&CrawledDomain)) {
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

        // One record buffer serves every domain in turn.
        let mut records = Vec::new();
        for index in 0..self.size {
            let mut d = CrawledDomain {
                kind: self.kind,
                index,
                responsive: rng.chance(params.responsive),
                cname_on_ns: false,
                soa_on_ns: false,
                records: std::mem::take(&mut records),
                bailiwick: None,
                category: None,
            };
            d.records.clear();
            if d.responsive {
                d.cname_on_ns = rng.chance(params.cname_on_ns);
                d.soa_on_ns = !d.cname_on_ns && rng.chance(params.soa_on_ns);
                // `.nl` content category, biasing TTLs per Table 7.
                if self.kind == ListKind::Nl {
                    d.category = Some(ContentCategory::sample(rng));
                }
                if d.cname_on_ns {
                    d.records.push(CrawledRecord {
                        rtype: RecordType::CNAME,
                        ttl: sample_ttl(rng, &a_mix),
                        value: RecordValue::Cname(rng.below(addr_pool as u64) as u32),
                    });
                } else if !d.soa_on_ns {
                    // NS set: 2–4 servers from the provider pool (Zipf for
                    // shared hosting: a few providers serve huge swaths).
                    let ns_count = 2 + rng.below(3) as usize;
                    let ns_ttl = d
                        .category
                        .map(|c| c.bias_ns_ttl(sample_ttl(rng, &ns_mix)))
                        .unwrap_or_else(|| sample_ttl(rng, &ns_mix));
                    let out_only = rng.chance(params.out_only);
                    let in_only = !out_only && rng.chance(params.in_only_of_rest);
                    let mut in_count = 0usize;
                    for k in 0..ns_count as u32 {
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
                            RecordValue::InBailiwickNs(k, index as u32)
                        } else {
                            RecordValue::ProviderNs(k, rng.zipf(ns_pool, 1.25) as u32)
                        };
                        d.records.push(CrawledRecord {
                            rtype: RecordType::NS,
                            ttl: ns_ttl,
                            value,
                        });
                    }
                    d.bailiwick = Some(BailiwickClass::from_counts(in_count, ns_count - in_count));

                    // Address records; `a` is drawn before `b`.
                    let a_ttl = sample_ttl(rng, &a_mix);
                    let a_count = 1 + rng.below(2) as usize;
                    for _ in 0..a_count {
                        let a = rng.below(addr_pool as u64 / 250 + 1) as u32;
                        d.records.push(CrawledRecord {
                            rtype: RecordType::A,
                            ttl: a_ttl,
                            value: RecordValue::A(a, rng.below(250) as u32),
                        });
                    }
                    if rng.chance(params.has_aaaa) {
                        d.records.push(CrawledRecord {
                            rtype: RecordType::AAAA,
                            ttl: sample_ttl(rng, &aaaa_mix),
                            value: RecordValue::Aaaa(1 + rng.below(addr_pool as u64) as u32),
                        });
                    }
                    if rng.chance(params.has_mx) {
                        let mx_ttl = sample_ttl(rng, &mx_mix);
                        d.records.push(CrawledRecord {
                            rtype: RecordType::MX,
                            ttl: mx_ttl,
                            value: RecordValue::Mx(rng.zipf(ns_pool, 1.2) as u32),
                        });
                    }
                    if rng.chance(params.has_dnskey) {
                        d.records.push(CrawledRecord {
                            rtype: RecordType::DNSKEY,
                            ttl: d
                                .category
                                .map(|c| c.bias_dnskey_ttl(sample_ttl(rng, &dnskey_mix)))
                                .unwrap_or_else(|| sample_ttl(rng, &dnskey_mix)),
                            value: RecordValue::Dnskey(rng.below(u64::MAX / 2)),
                        });
                    }
                }
            }
            f(&d);
            records = d.records;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Hands `size` domains of `kind`, drawn from seed 42, to `f`.
    fn generate(kind: ListKind, size: usize, f: impl FnMut(&CrawledDomain)) {
        let mut rng = SimRng::seed_from(42);
        ListSpec { kind, size }.for_each(&mut rng, f);
    }

    /// The share of `size` domains of `kind` for which `pick` holds.
    fn share(kind: ListKind, size: usize, pick: impl Fn(&CrawledDomain) -> bool) -> f64 {
        let mut n = 0;
        generate(kind, size, |d| n += pick(d) as usize);
        n as f64 / size as f64
    }

    #[test]
    fn sizes_and_responsiveness() {
        let mut domains = 0;
        generate(ListKind::Alexa, 5_000, |d| {
            assert_eq!(d.index, domains);
            domains += 1;
        });
        assert_eq!(domains, 5_000);
        let responsive = share(ListKind::Alexa, 5_000, |d| d.responsive);
        assert!((0.97..1.0).contains(&responsive), "{responsive}");
        let responsive = share(ListKind::Umbrella, 5_000, |d| d.responsive);
        assert!((0.74..0.82).contains(&responsive), "{responsive}");
    }

    #[test]
    fn umbrella_is_cname_heavy() {
        let cnames = share(ListKind::Umbrella, 5_000, |d| d.cname_on_ns);
        let responsive = share(ListKind::Umbrella, 5_000, |d| d.responsive);
        let rate = cnames / responsive;
        assert!((0.5..0.65).contains(&rate), "cname rate {rate}");
    }

    #[test]
    fn bailiwick_split_matches_params() {
        let out_only = |kind, size| {
            let out = share(kind, size, |d| d.bailiwick == Some(BailiwickClass::OutOnly));
            out / share(kind, size, CrawledDomain::responds_ns)
        };
        let alexa = out_only(ListKind::Alexa, 10_000);
        assert!((0.93..0.97).contains(&alexa), "out-only {alexa}");
        let root = out_only(ListKind::Root, 1_562);
        assert!((0.4..0.6).contains(&root), "root out-only {root}");
    }

    #[test]
    fn ns_rrset_shares_one_ttl() {
        generate(ListKind::Majestic, 1_000, |d| {
            let mut ttls = d.records.iter().filter(|r| r.rtype == RecordType::NS);
            let first = ttls.next().map(|r| r.ttl);
            assert!(ttls.all(|r| Some(r.ttl) == first), "{}", d.name());
        });
    }

    #[test]
    fn nl_domains_have_categories_others_do_not() {
        generate(ListKind::Nl, 2_000, |d| {
            assert_eq!(d.category.is_some(), d.responsive)
        });
        generate(ListKind::Alexa, 100, |d| assert!(d.category.is_none()));
    }

    #[test]
    fn shared_hosting_produces_duplicate_ns_values() {
        let mut total = 0;
        let mut unique = HashSet::new();
        generate(ListKind::Nl, 20_000, |d| {
            for r in d.records.iter().filter(|r| r.rtype == RecordType::NS) {
                total += 1;
                unique.insert(r.value);
            }
        });
        let ratio = total as f64 / unique.len() as f64;
        assert!(ratio > 3.0, "sharing ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let records = || {
            let mut all = Vec::new();
            generate(ListKind::Alexa, 500, |d| {
                all.extend(d.records.iter().map(|&r| (d.index, r)))
            });
            all
        };
        assert_eq!(records(), records());
    }

    #[test]
    fn a_value_is_unique_exactly_when_its_text_is() {
        for kind in ListKind::ALL {
            let mut distinct: HashMap<RecordType, (HashSet<RecordValue>, HashSet<String>)> =
                HashMap::new();
            generate(kind, 2_000, |d| {
                for r in &d.records {
                    let (values, texts) = distinct.entry(r.rtype).or_default();
                    values.insert(r.value);
                    texts.insert(r.value.render(kind));
                }
            });
            for (rtype, (values, texts)) in distinct {
                assert_eq!(values.len(), texts.len(), "{kind:?} {rtype}");
            }
        }
    }
}
