//! Property tests: master-file render ⇄ parse round-trips, and parsed
//! zones behave identically to builder-built ones. Driven by the
//! workspace's own deterministic [`SimRng`] with fixed seeds (the build
//! environment is offline, so no external property-testing harness).

use dnsttl_auth::{
    parse_records, parse_zone, render_records, render_zone, AuthoritativeServer, MasterErrorKind,
    SecondaryServer, ZoneBuilder,
};
use dnsttl_netsim::{ClientId, DnsService, Region, SimDuration, SimRng, SimTime};
use dnsttl_wire::{Message, Name, RData, Rcode, Record, RecordType, SoaData, Ttl};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn gen_label(rng: &mut SimRng) -> String {
    let first = b"abcdefghijklmnopqrstuvwxyz";
    let rest = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut s = String::new();
    s.push(first[rng.below(first.len() as u64) as usize] as char);
    for _ in 0..rng.below(9) {
        s.push(rest[rng.below(rest.len() as u64) as usize] as char);
    }
    s
}

fn gen_name(rng: &mut SimRng) -> Name {
    let labels: Vec<String> = (0..=rng.below(3)).map(|_| gen_label(rng)).collect();
    Name::from_labels(labels).expect("small labels")
}

fn gen_ttl(rng: &mut SimRng) -> Ttl {
    Ttl::from_secs(rng.range_u64(1, 172_801) as u32)
}

fn gen_record(rng: &mut SimRng) -> Record {
    let rdata = match rng.below(7) {
        0 => RData::A(std::net::Ipv4Addr::from(rng.next_u64() as u32)),
        1 => RData::Aaaa(std::net::Ipv6Addr::from(
            (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
        )),
        2 => RData::Ns(gen_name(rng)),
        3 => RData::Cname(gen_name(rng)),
        4 => RData::Mx {
            preference: rng.range_u64(1, 100) as u16,
            exchange: gen_name(rng),
        },
        5 => {
            let chars = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =:;.-";
            let txt: String = (0..rng.below(41))
                .map(|_| chars[rng.below(chars.len() as u64) as usize] as char)
                .collect();
            RData::Txt(txt)
        }
        _ => RData::Soa(Arc::new(SoaData {
            mname: gen_name(rng),
            rname: gen_name(rng),
            serial: rng.next_u64() as u32,
            refresh: 7_200,
            retry: 3_600,
            expire: 1_209_600,
            minimum: 300,
        })),
    };
    Record::new(gen_name(rng), gen_ttl(rng), rdata)
}

#[test]
fn render_parse_round_trips() {
    let mut rng = SimRng::seed_from(11);
    for case in 0..128 {
        let records: Vec<Record> = (0..rng.below(12)).map(|_| gen_record(&mut rng)).collect();
        let text = render_records(&records);
        let parsed = parse_records(&text, None).expect("rendered output must parse");
        assert_eq!(parsed, records, "case {case}");
    }
}

#[test]
fn parser_never_panics() {
    let mut rng = SimRng::seed_from(12);
    for _ in 0..256 {
        // Printable ASCII plus newlines and tabs, up to 400 chars.
        let text: String = (0..rng.below(401))
            .map(|_| match rng.below(12) {
                0 => '\n',
                1 => '\t',
                _ => (32 + rng.below(95) as u8) as char,
            })
            .collect();
        let _ = parse_records(&text, None);
    }
}

#[test]
fn zone_render_parse_preserves_lookups() {
    let mut rng = SimRng::seed_from(13);
    for case in 0..128 {
        let host = gen_label(&mut rng);
        let addr = std::net::Ipv4Addr::from(rng.next_u64() as u32);
        let ttl = rng.range_u64(1, 86_400) as u32;
        let origin = "example";
        let owner = format!("{host}.example");
        let zone = ZoneBuilder::new(origin)
            .ns("example", "ns.example", Ttl::HOUR)
            .a("ns.example", "192.0.2.53", Ttl::HOUR)
            .a(&owner, &addr.to_string(), Ttl::from_secs(ttl))
            .build();
        let text = render_zone(&zone);
        let reparsed = parse_zone(origin, &text).expect("rendered zone parses");
        let name = Name::parse(&owner).unwrap();
        let original = zone.get(&name, dnsttl_wire::RecordType::A);
        let round = reparsed.get(&name, dnsttl_wire::RecordType::A);
        assert_eq!(original, round, "case {case}");
        assert_eq!(render_zone(&reparsed), text, "case {case}");
    }
}

/// The SOA data of a zone's answer: the answer's for an SOA question,
/// the authority's for a negative one.
fn soa_in(response: &Message) -> (Ttl, SoaData) {
    let sets = match response.answers.is_empty() {
        true => &response.authorities,
        false => &response.answers,
    };
    match &sets[..] {
        [set] => match &set.rdatas[..] {
            [RData::Soa(soa)] => (set.ttl, (**soa).clone()),
            other => panic!("an SOA, not {other:?}"),
        },
        other => panic!("one set, not {other:?}"),
    }
}

#[test]
fn a_zone_file_keeps_its_own_soa() {
    let mut rng = SimRng::seed_from(15);
    let client = ClientId {
        region: Region::Eu,
        tag: 1,
    };
    for case in 0..64 {
        let soa = SoaData {
            mname: Name::parse("ns1.example").unwrap(),
            rname: Name::parse("host.example").unwrap(),
            serial: rng.range_u64(2, 1 << 31) as u32,
            refresh: rng.range_u64(60, 86_400) as u32,
            retry: rng.range_u64(60, 86_400) as u32,
            expire: rng.range_u64(60, 1 << 21) as u32,
            minimum: rng.range_u64(1, 86_400) as u32,
        };
        let soa_ttl = gen_ttl(&mut rng);
        let text = format!(
            "$TTL 300\n@ {} SOA ns1 host {} {} {} {} {}\n@ NS ns1\nns1 A 192.0.2.53\n",
            soa_ttl.as_secs(),
            soa.serial,
            soa.refresh,
            soa.retry,
            soa.expire,
            soa.minimum
        );
        let zone = parse_zone("example", &text).expect("the file parses");
        assert_eq!(*zone.soa(), soa, "case {case}");
        // One SOA line, however often the zone goes round.
        let rendered = render_zone(&zone);
        assert_eq!(rendered.matches(" SOA ").count(), 1, "case {case}");
        let again = parse_zone("example", &rendered).expect("rendered zone parses");
        assert_eq!(render_zone(&again), rendered, "case {case}");

        // Negative answers and the apex SOA answer carry the file's SOA,
        // from the primary and from a secondary that transferred it.
        let primary = Rc::new(RefCell::new(
            AuthoritativeServer::new("ns1.example").with_zone(zone),
        ));
        let apex = Name::parse("example").unwrap();
        let mut secondary = SecondaryServer::new(
            "ns2.example",
            Rc::clone(&primary),
            apex.clone(),
            SimDuration::from_secs(u64::from(soa.refresh)),
        );
        let questions = [
            ("ns1.example", RecordType::TXT, Rcode::NoError),
            ("absent.example", RecordType::A, Rcode::NxDomain),
            ("example", RecordType::SOA, Rcode::NoError),
        ];
        for (qname, qtype, rcode) in questions {
            let query = Message::iterative_query(1, Name::parse(qname).unwrap(), qtype);
            let from_primary = primary
                .borrow_mut()
                .handle_query(&query, client, SimTime::ZERO);
            let from_secondary = secondary.handle_query(&query, client, SimTime::ZERO);
            for response in [from_primary, from_secondary] {
                assert_eq!(response.header.rcode, rcode, "case {case}: {qname} {qtype}");
                assert_eq!(
                    soa_in(&response),
                    (soa_ttl, soa.clone()),
                    "case {case}: {qname} {qtype}"
                );
            }
        }
    }
}

#[test]
fn out_of_zone_owner_is_reported_with_its_name_and_source_line() {
    let mut rng = SimRng::seed_from(14);
    for case in 0..64 {
        // In-zone records on lines that comments and blanks push around,
        // then one stray owner: the error must carry that line, not the
        // record's index.
        let mut text = String::from("; header\n$TTL 300\n\n");
        for _ in 0..rng.below(6) {
            text += &format!("{}.example. A 192.0.2.1\n", gen_label(&mut rng));
            if rng.chance(0.5) {
                text += "; note\n\n";
            }
        }
        let stray = format!("{}.Elsewhere.", gen_label(&mut rng));
        let line = text.lines().count() + 1;
        text += &format!("{stray} A 192.0.2.2\nlater.example. A 192.0.2.3\n");
        let e = parse_zone("example", &text).expect_err("stray owner");
        assert_eq!(e.line, line, "case {case}");
        let owner = Name::parse(&stray).unwrap();
        let origin = Name::parse("example").unwrap();
        assert_eq!(e.kind, MasterErrorKind::OutOfZone { owner, origin });
        let shown = e.to_string();
        assert_eq!(
            shown,
            format!("line {line}: owner {stray} is outside zone example.")
        );
    }
}
