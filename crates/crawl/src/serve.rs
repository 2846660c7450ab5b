//! Materialising synthetic domains into servable zones.
//!
//! The paper's crawler queried real authoritative servers; our
//! generator produces [`CrawledDomain`] records directly. To keep the
//! generator honest, this module converts a generated domain into an
//! actual [`Zone`] behind an [`AuthoritativeServer`] and re-derives the
//! crawl view by *querying* it — the test suite samples every list and
//! asserts the round trip is lossless (same record texts, same TTLs,
//! same bailiwick classification).

use crate::bailiwick::BailiwickClass;
use crate::lists::CrawledDomain;
use dnsttl_auth::{AuthoritativeServer, Zone};
use dnsttl_netsim::{ClientId, DnsService, Region, SimTime};
use dnsttl_wire::{Message, Name, RData, Record, RecordType, Ttl};

/// A record as text: its type, TTL and value, the way a crawler reads
/// it off the wire.
type RecordText = (RecordType, u32, String);

/// The generated records of `domain`, as text.
pub(crate) fn generated_records(domain: &CrawledDomain) -> Vec<RecordText> {
    domain
        .records
        .iter()
        .map(|r| (r.rtype, r.ttl, r.value.render(domain.kind)))
        .collect()
}

/// Builds the zone a responsive, NS-answering domain would serve.
///
/// Returns `None` for unresponsive domains and for the CNAME/SOA-on-NS
/// populations (those names live inside someone else's zone; there is
/// no zone of their own to build).
pub(crate) fn materialize_zone(domain: &CrawledDomain) -> Option<Zone> {
    if !domain.responds_ns() {
        return None;
    }
    let origin = Name::parse(&domain.name()).ok()?;
    let mut zone = Zone::new(origin.clone());
    for (rtype, ttl, value) in generated_records(domain) {
        let rdata = match rtype {
            RecordType::NS => RData::Ns(Name::parse(&value).ok()?),
            RecordType::A => RData::A(value.parse().ok()?),
            RecordType::AAAA => RData::Aaaa(value.parse().ok()?),
            RecordType::MX => RData::Mx {
                preference: 10,
                exchange: Name::parse(&value).ok()?,
            },
            RecordType::DNSKEY => RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: value.into_bytes(),
            },
            RecordType::CNAME => RData::Cname(Name::parse(&value).ok()?),
            _ => continue,
        };
        zone.add(Record::new(origin.clone(), Ttl::from_secs(ttl), rdata));
    }
    Some(zone)
}

/// Queries a materialised domain's server for every crawled type and
/// reconstructs the records as text, exactly as the crawler would from
/// the wire.
pub(crate) fn crawl_served_domain(domain: &CrawledDomain) -> Option<Vec<RecordText>> {
    let zone = materialize_zone(domain)?;
    let origin = zone.origin().clone();
    let mut server = AuthoritativeServer::new(domain.name()).with_zone(zone);
    let client = ClientId {
        region: Region::Eu,
        tag: 0,
    };
    let mut out = Vec::new();
    for rtype in crate::crawler::CRAWLED_TYPES {
        let q = Message::iterative_query(1, origin.clone(), rtype);
        let response = server.handle_query(&q, client, SimTime::ZERO);
        let sets = response.answers.iter().filter(|set| set.rtype == rtype);
        for (set, rdata) in sets.flat_map(|set| set.rdatas.iter().map(move |rd| (set, rd))) {
            let value = match rdata {
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
            out.push((rtype, set.ttl.as_secs(), value));
        }
    }
    Some(out)
}

/// Re-derives the bailiwick classification by parsing the served NS
/// targets, for cross-checking the generator's label.
pub(crate) fn served_bailiwick(domain: &CrawledDomain) -> Option<BailiwickClass> {
    let records = crawl_served_domain(domain)?;
    let origin = Name::parse(&domain.name()).ok()?;
    let targets: Vec<Name> = records
        .iter()
        .filter(|(rtype, _, _)| *rtype == RecordType::NS)
        .filter_map(|(_, _, value)| Name::parse(value).ok())
        .collect();
    BailiwickClass::classify(&origin, &targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::{ListKind, ListSpec};
    use dnsttl_netsim::SimRng;
    use std::collections::BTreeSet;

    /// Hands `size` domains of `kind`, drawn from seed 99, to `f`.
    fn sample(kind: ListKind, size: usize, f: impl FnMut(&CrawledDomain)) {
        let mut rng = SimRng::seed_from(99);
        ListSpec { kind, size }.for_each(&mut rng, f);
    }

    fn as_set(records: Vec<RecordText>) -> BTreeSet<RecordText> {
        records.into_iter().collect()
    }

    #[test]
    fn served_view_matches_generated_view_across_lists() {
        for kind in ListKind::ALL {
            let mut checked = 0;
            sample(kind, 300, |d| {
                if !d.responds_ns() || checked == 40 {
                    return;
                }
                let served = crawl_served_domain(d)
                    .unwrap_or_else(|| panic!("{} must materialize", d.name()));
                assert_eq!(
                    as_set(served),
                    as_set(generated_records(d)),
                    "{:?} domain {} served ≠ generated",
                    kind,
                    d.name()
                );
                checked += 1;
            });
            assert!(checked > 10, "{kind:?}: too few NS-responding domains");
        }
    }

    #[test]
    fn bailiwick_labels_agree_with_served_ns_targets() {
        for kind in [ListKind::Alexa, ListKind::Root, ListKind::Nl] {
            let mut checked = 0;
            sample(kind, 400, |d| {
                if !d.responds_ns() || checked == 60 {
                    return;
                }
                let derived = served_bailiwick(d).expect("classifiable");
                assert_eq!(
                    Some(derived),
                    d.bailiwick,
                    "{kind:?} domain {} label mismatch",
                    d.name()
                );
                checked += 1;
            });
        }
    }

    #[test]
    fn unresponsive_and_cname_domains_do_not_materialize() {
        let (mut unresponsive, mut cname) = (0, 0);
        sample(ListKind::Umbrella, 500, |d| {
            if !d.responsive || d.cname_on_ns {
                assert!(materialize_zone(d).is_none(), "{}", d.name());
                unresponsive += !d.responsive as usize;
                cname += d.cname_on_ns as usize;
            }
        });
        assert!(unresponsive > 0, "some fail");
        assert!(cname > 0, "umbrella has CNAMEs");
    }

    #[test]
    fn served_ttls_are_intact() {
        // TTLs must survive the zone → wire → crawl path bit-for-bit
        // (the crawler reads fresh authoritative answers).
        let mut checked = false;
        sample(ListKind::Nl, 200, |d| {
            if checked || !d.responds_ns() {
                return;
            }
            for (rtype, ttl, _) in crawl_served_domain(d).unwrap() {
                assert!(
                    d.records.iter().any(|g| g.rtype == rtype && g.ttl == ttl),
                    "TTL {ttl} for {rtype} not in generated set"
                );
            }
            checked = true;
        });
        assert!(checked);
    }
}
