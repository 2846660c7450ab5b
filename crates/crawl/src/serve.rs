//! Materialising synthetic domains into servable zones.
//!
//! The paper's crawler queried real authoritative servers; our
//! generator produces [`CrawledDomain`] records directly. To keep the
//! generator honest, this module converts a generated domain into an
//! actual [`Zone`] behind an [`AuthoritativeServer`] and re-derives the
//! crawl view by *querying* it — the test suite samples every list and
//! asserts the round trip is lossless (same record sets, same TTLs,
//! same bailiwick classification).

use crate::bailiwick::BailiwickClass;
use crate::lists::{CrawledDomain, CrawledRecord};
use dnsttl_auth::{AuthoritativeServer, Zone};
use dnsttl_netsim::{ClientId, DnsService, Region, SimTime};
use dnsttl_wire::{Message, Name, RData, Record, RecordType, Ttl};

/// Builds the zone a responsive, NS-answering domain would serve.
///
/// Returns `None` for unresponsive domains and for the CNAME/SOA-on-NS
/// populations (those names live inside someone else's zone; there is
/// no zone of their own to build).
pub(crate) fn materialize_zone(domain: &CrawledDomain) -> Option<Zone> {
    if !domain.responds_ns() {
        return None;
    }
    let origin = Name::parse(&domain.name).ok()?;
    let mut zone = Zone::new(origin.clone());
    for r in &domain.records {
        let rdata = match r.rtype {
            RecordType::NS => RData::Ns(Name::parse(&r.value).ok()?),
            RecordType::A => RData::A(r.value.parse().ok()?),
            RecordType::AAAA => RData::Aaaa(r.value.parse().ok()?),
            RecordType::MX => RData::Mx {
                preference: 10,
                exchange: Name::parse(&r.value).ok()?,
            },
            RecordType::DNSKEY => RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: r.value.clone().into_bytes(),
            },
            RecordType::CNAME => RData::Cname(Name::parse(&r.value).ok()?),
            _ => continue,
        };
        zone.add(Record::new(origin.clone(), Ttl::from_secs(r.ttl), rdata));
    }
    Some(zone)
}

/// Queries a materialised domain's server for every crawled type and
/// reconstructs the [`CrawledRecord`] view, exactly as the crawler
/// would from the wire.
pub(crate) fn crawl_served_domain(domain: &CrawledDomain) -> Option<Vec<CrawledRecord>> {
    let zone = materialize_zone(domain)?;
    let origin = zone.origin().clone();
    let mut server = AuthoritativeServer::new(domain.name.clone()).with_zone(zone);
    let client = ClientId {
        region: Region::Eu,
        tag: 0,
    };
    let mut out = Vec::new();
    for rtype in crate::crawler::CRAWLED_TYPES {
        let q = Message::iterative_query(1, origin.clone(), rtype);
        let response = server.handle_query(&q, client, SimTime::ZERO);
        for r in &response.answers {
            if r.record_type() != rtype {
                continue;
            }
            let value = match &r.rdata {
                RData::Ns(n) | RData::Cname(n) => {
                    let mut s = n.to_string();
                    s.pop(); // crawler stores names without trailing dot
                    s
                }
                RData::A(a) => a.to_string(),
                RData::Aaaa(a) => a.to_string(),
                RData::Mx { exchange, .. } => {
                    let mut s = exchange.to_string();
                    s.pop();
                    s
                }
                RData::Dnskey { key, .. } => String::from_utf8_lossy(key).into_owned(),
                other => other.to_string(),
            };
            out.push(CrawledRecord {
                rtype,
                ttl: r.ttl.as_secs(),
                value,
            });
        }
    }
    Some(out)
}

/// Re-derives the bailiwick classification by parsing the served NS
/// targets, for cross-checking the generator's label.
pub(crate) fn served_bailiwick(domain: &CrawledDomain) -> Option<BailiwickClass> {
    let records = crawl_served_domain(domain)?;
    let origin = Name::parse(&domain.name).ok()?;
    let targets: Vec<Name> = records
        .iter()
        .filter(|r| r.rtype == RecordType::NS)
        .filter_map(|r| Name::parse(&r.value).ok())
        .collect();
    BailiwickClass::classify(&origin, &targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::{ListKind, ListSpec};
    use dnsttl_netsim::SimRng;
    use std::collections::BTreeSet;

    fn sample(kind: ListKind, size: usize) -> Vec<CrawledDomain> {
        let mut rng = SimRng::seed_from(99);
        ListSpec { kind, size }.generate(&mut rng)
    }

    fn as_set(records: &[CrawledRecord]) -> BTreeSet<(String, u32, String)> {
        records
            .iter()
            .map(|r| (r.rtype.to_string(), r.ttl, r.value.clone()))
            .collect()
    }

    #[test]
    fn served_view_matches_generated_view_across_lists() {
        for kind in ListKind::ALL {
            let domains = sample(kind, 300);
            let mut checked = 0;
            for d in domains.iter().filter(|d| d.responds_ns()).take(40) {
                let served =
                    crawl_served_domain(d).unwrap_or_else(|| panic!("{} must materialize", d.name));
                assert_eq!(
                    as_set(&served),
                    as_set(&d.records),
                    "{:?} domain {} served ≠ generated",
                    kind,
                    d.name
                );
                checked += 1;
            }
            assert!(checked > 10, "{kind:?}: too few NS-responding domains");
        }
    }

    #[test]
    fn bailiwick_labels_agree_with_served_ns_targets() {
        for kind in [ListKind::Alexa, ListKind::Root, ListKind::Nl] {
            let domains = sample(kind, 400);
            for d in domains.iter().filter(|d| d.responds_ns()).take(60) {
                let derived = served_bailiwick(d).expect("classifiable");
                assert_eq!(
                    Some(derived),
                    d.bailiwick,
                    "{kind:?} domain {} label mismatch",
                    d.name
                );
            }
        }
    }

    #[test]
    fn unresponsive_and_cname_domains_do_not_materialize() {
        let domains = sample(ListKind::Umbrella, 500);
        let unresponsive = domains.iter().find(|d| !d.responsive).expect("some fail");
        assert!(materialize_zone(unresponsive).is_none());
        let cname = domains
            .iter()
            .find(|d| d.cname_on_ns)
            .expect("umbrella has CNAMEs");
        assert!(materialize_zone(cname).is_none());
    }

    #[test]
    fn served_ttls_are_intact() {
        // TTLs must survive the zone → wire → crawl path bit-for-bit
        // (the crawler reads fresh authoritative answers).
        let domains = sample(ListKind::Nl, 200);
        let d = domains.iter().find(|d| d.responds_ns()).unwrap();
        let served = crawl_served_domain(d).unwrap();
        for r in &served {
            assert!(
                d.records
                    .iter()
                    .any(|g| g.rtype == r.rtype && g.ttl == r.ttl),
                "TTL {} for {} not in generated set",
                r.ttl,
                r.rtype
            );
        }
    }
}
