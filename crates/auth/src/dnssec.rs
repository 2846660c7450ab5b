//! Zone signing (structural DNSSEC).
//!
//! The record-level primitives (digests, RRSIG construction and
//! verification) live in [`dnsttl_wire::dnssec`]; this module applies
//! them at zone granularity: every authoritative RRset gets an RRSIG
//! under the zone's own key, while delegation NS sets and glue are
//! deliberately left unsigned — the parent is not authoritative for
//! them, which is precisely why the paper (§2) observes that DNSSEC
//! validation forces child-centric behaviour.

use crate::zone::Zone;
use dnsttl_wire::dnssec::sign_rrset;
use dnsttl_wire::{Name, RData, RRset, Record, RecordType, Ttl};

pub use dnsttl_wire::dnssec::{verify_rrset, SYNTH_ALGORITHM};

/// Signs every authoritative RRset in the zone, its SOA included, with
/// the zone's own key and plants a DNSKEY at the apex. Data at or below
/// delegation cuts (the cut NS sets and any glue) is left unsigned.
pub fn sign_zone(zone: &mut Zone) {
    let origin = zone.origin().clone();

    // Delegation cuts: non-apex names carrying NS records.
    let cuts: Vec<Name> = zone
        .names()
        .filter(|n| **n != origin && zone.get(n, RecordType::NS).is_some())
        .cloned()
        .collect();

    // The sets to sign, as the zone holds them: not the RRSIGs
    // themselves nor anything at or below a cut, and the SOA, which the
    // zone keeps apart from its nodes.
    let mut sets: Vec<RRset> = zone
        .iter()
        .filter(|set| set.rtype != RecordType::RRSIG)
        .filter(|set| !cuts.iter().any(|cut| set.name.is_subdomain_of(cut)))
        .collect();
    sets.push(zone.soa_rrset());

    // Apex DNSKEY (if absent), included in the signing set.
    if zone.get(&origin, RecordType::DNSKEY).is_none() {
        let key = RData::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: SYNTH_ALGORITHM,
            key: origin.canonical().into_bytes(),
        };
        sets.push(RRset::new(
            origin.clone(),
            RecordType::DNSKEY,
            Ttl::HOUR,
            key.clone(),
        ));
        zone.add(Record::new(origin.clone(), Ttl::HOUR, key));
    }

    for set in &sets {
        zone.add(sign_rrset(set, &origin));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneBuilder;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn signed_zone() -> Zone {
        let mut zone = ZoneBuilder::new("uy")
            .ns("uy", "a.nic.uy", Ttl::from_secs(300))
            .a("a.nic.uy", "200.40.241.1", Ttl::from_secs(120))
            .ns("gub.uy", "ns.gub.uy", Ttl::HOUR)
            .a("ns.gub.uy", "200.40.30.53", Ttl::HOUR)
            .build();
        sign_zone(&mut zone);
        zone
    }

    #[test]
    fn signing_adds_rrsigs_and_dnskey() {
        let zone = signed_zone();
        assert!(zone.get(&n("uy"), RecordType::DNSKEY).is_some());
        let sigs = zone.get(&n("uy"), RecordType::RRSIG).unwrap();
        let covers = |rtype: RecordType| {
            sigs.rdatas
                .iter()
                .any(|rd| matches!(rd, RData::Rrsig(sig) if sig.type_covered == rtype))
        };
        assert!(covers(RecordType::NS), "apex NS RRset must be signed");
        assert!(zone.get(&n("a.nic.uy"), RecordType::RRSIG).is_some());
        assert!(
            covers(RecordType::DNSKEY),
            "the DNSKEY itself must be signed"
        );
        assert!(covers(RecordType::SOA), "the SOA must be signed");
    }

    #[test]
    fn delegation_data_stays_unsigned() {
        let zone = signed_zone();
        // gub.uy is a cut: its NS set and glue are the child's to sign.
        assert!(zone.get(&n("gub.uy"), RecordType::RRSIG).is_none());
        assert!(zone.get(&n("ns.gub.uy"), RecordType::RRSIG).is_none());
    }

    #[test]
    fn signatures_verify_against_zone_content() {
        let zone = signed_zone();
        let a = zone.get(&n("a.nic.uy"), RecordType::A).unwrap();
        let sigs = zone.get(&n("a.nic.uy"), RecordType::RRSIG).unwrap();
        let sig = &sigs.rdatas[0];
        assert!(verify_rrset(&n("a.nic.uy"), RecordType::A, &a.rdatas, sig));
        let forged = vec![RData::A("198.51.100.66".parse().unwrap())];
        assert!(!verify_rrset(&n("a.nic.uy"), RecordType::A, &forged, sig));
    }

    #[test]
    fn signed_zone_answers_include_sig_via_server() {
        use crate::server::AuthoritativeServer;
        use dnsttl_netsim::{ClientId, DnsService, Region, SimTime};
        use dnsttl_wire::Message;

        let mut srv = AuthoritativeServer::new("a.nic.uy").with_zone(signed_zone());
        let q = Message::iterative_query(1, n("a.nic.uy"), RecordType::A);
        let client = ClientId {
            region: Region::Eu,
            tag: 0,
        };
        let r = srv.handle_query(&q, client, SimTime::ZERO);
        let types: Vec<RecordType> = r.answers.iter().map(|x| x.rtype).collect();
        assert!(types.contains(&RecordType::A));
        assert!(
            types.contains(&RecordType::RRSIG),
            "answer must carry its RRSIG"
        );
    }
}
