//! Differential test of the zone index: `AuthoritativeServer::handle_query`
//! — and its `respond_into`, over the previous step's response — against
//! a brute-force model of RFC 1034 §4.3.2 and RFC 4592 wildcards kept in
//! this file.
//!
//! The model is a flat `Vec<Record>` in insertion order and answers
//! every question by linear scans over it, so it shares nothing with
//! `Zone`'s hash index, its sets, its cut, signature and wildcard
//! counters, or its empty-non-terminal map — the bookkeeping
//! `add`/`remove` must keep right. It groups the records it serves
//! into sets only at the end, by the decoder's rule: in order of first
//! appearance, at the smallest TTL of each owner and type (RFC 2181
//! §5.2), RRSIGs ordered by the type they cover. Zones are random and
//! hostile on purpose: nested cuts, glue, empty non-terminals, wildcards (some owning nothing but names below),
//! CNAME chains and loops, RRSIGs that come and go, SOA records at the
//! apex and below it, owners and queries in mixed case, and mutations
//! interleaved with the queries.
//!
//! The last test pins what stays ordered: `iter()`/`names()` in RFC 4034
//! §6.1 canonical order, and `render_zone`/`sign_zone` output equal, byte
//! for byte, to what the `BTreeMap` index produced for `data/uy.zone`
//! (`data/uy.rendered`, `data/uy.signed`: written by that commit;
//! `uy.signed` has since gained the apex SOA's RRSIG, which `sign_zone`
//! used to leave out).

use dnsttl_auth::{parse_zone, render_zone, sign_zone, AuthoritativeServer, Zone};
use dnsttl_netsim::{ClientId, DnsService, Region, SimRng, SimTime};
use dnsttl_wire::{
    Message, Name, RData, RRset, Rcode, Record, RecordType, RrsigData, SoaData, Ttl,
};
use std::sync::Arc;

/// What the model says a one-zone server owes a question.
#[derive(Debug)]
enum Outcome {
    /// Matching records (possibly preceded by a CNAME chain), the
    /// RRSIGs covering them, and the NS/MX targets' addresses.
    Answer {
        records: Vec<Record>,
        additionals: Vec<Record>,
        signatures: Vec<Record>,
    },
    /// The NS records at the cut (parent-side TTLs) and their glue.
    Referral {
        ns_records: Vec<Record>,
        glue: Vec<Record>,
    },
    /// The name exists without the type; the SOA is the authority.
    NoData,
    /// The name does not exist; the SOA is the authority.
    NxDomain,
    /// The name is not within the zone.
    NotInZone,
}

/// The reference: every record of the zone, in the order it was added,
/// except the apex SOA, which is the zone's SOA record.
struct Model {
    origin: Name,
    soa: Record,
    records: Vec<Record>,
}

impl Model {
    fn new(zone: &Zone) -> Model {
        Model {
            origin: zone.origin().clone(),
            soa: zone
                .soa_rrset()
                .records()
                .next()
                .expect("an SOA set holds one"),
            records: Vec::new(),
        }
    }

    /// `Zone::add`: an SOA at the apex replaces the zone's SOA record.
    fn add(&mut self, record: Record) {
        match &record.rdata {
            RData::Soa(_) if record.name == self.origin => {
                self.soa = Record::new(self.origin.clone(), record.ttl, record.rdata);
            }
            _ => self.records.push(record),
        }
    }

    /// A name exists if it, or anything below it, owns a record.
    fn exists(&self, name: &Name) -> bool {
        self.records.iter().any(|r| r.name.is_subdomain_of(name))
    }

    /// RFC 4592's source of synthesis for a name that does not exist:
    /// `*.` under its deepest existing ancestor, if that exists.
    fn wildcard_for(&self, qname: &Name) -> Option<Name> {
        let mut ancestor = qname.parent();
        while let Some(name) = ancestor {
            if !name.is_subdomain_of(&self.origin) {
                return None;
            }
            if self.exists(&name) {
                let text = format!("*.{}", name.as_str().trim_start_matches('.'));
                let source = Name::parse(&text).ok()?;
                return self.exists(&source).then_some(source);
            }
            ancestor = name.parent();
        }
        None
    }

    /// The records of `rtype` at `name` in insertion order; RRSIGs
    /// ordered (stably) by the type they cover.
    fn at(&self, name: &Name, rtype: RecordType) -> Vec<Record> {
        let here = |r: &&Record| r.name == *name && r.record_type() == rtype;
        let mut records: Vec<Record> = self.records.iter().filter(here).cloned().collect();
        records.sort_by_key(covered);
        records
    }

    /// The first CNAME at `name`, at the smallest TTL of the CNAMEs
    /// there: its set's.
    fn first_alias(&self, name: &Name) -> Option<Record> {
        let aliases = self.at(name, RecordType::CNAME);
        let ttl = aliases.iter().map(|r| r.ttl).min()?;
        let first = aliases.into_iter().next()?;
        Some(Record { ttl, ..first })
    }

    fn remove(&mut self, name: &Name, rtype: RecordType) -> usize {
        let before = self.records.len();
        self.records
            .retain(|r| !(r.name == *name && r.record_type() == rtype));
        before - self.records.len()
    }

    /// `Zone::replace_address{,_v6}`: one new record under the old TTL,
    /// and a serial bump.
    fn replace(&mut self, name: &Name, rdata: RData, fallback: Ttl) {
        let rtype = rdata.record_type();
        let ttl = self
            .at(name, rtype)
            .iter()
            .map(|r| r.ttl)
            .min()
            .unwrap_or(fallback);
        self.remove(name, rtype);
        self.records.push(Record::new(name.clone(), ttl, rdata));
        if let RData::Soa(soa) = &mut self.soa.rdata {
            Arc::make_mut(soa).serial += 1;
        }
    }

    /// The addresses of `targets`, each host once.
    fn addresses<'t>(&self, targets: impl Iterator<Item = &'t Name>) -> Vec<Record> {
        let mut seen: Vec<&Name> = Vec::new();
        let mut out = Vec::new();
        for target in targets {
            if !seen.contains(&target) {
                seen.push(target);
                out.extend(self.at(target, RecordType::A));
                out.extend(self.at(target, RecordType::AAAA));
            }
        }
        out
    }

    /// RRSIGs at `qname` covering a type present in the answer.
    fn signatures(&self, qname: &Name, answer: &[Record]) -> Vec<Record> {
        let mut sigs = self.at(qname, RecordType::RRSIG);
        sigs.retain(|sig| match &sig.rdata {
            RData::Rrsig(sig) => answer.iter().any(|r| r.record_type() == sig.type_covered),
            _ => false,
        });
        sigs
    }

    fn lookup(&self, qname: &Name, qtype: RecordType) -> Outcome {
        if !qname.is_subdomain_of(&self.origin) {
            return Outcome::NotInZone;
        }
        // The cut closest to the apex hides everything at and below it.
        let cut = self
            .records
            .iter()
            .filter(|r| r.record_type() == RecordType::NS && r.name != self.origin)
            .filter(|r| qname.is_subdomain_of(&r.name))
            .map(|r| &r.name)
            .min_by_key(|name| name.label_count());
        if let Some(cut) = cut {
            let ns_records = self.at(cut, RecordType::NS);
            let glue = self.addresses(ns_records.iter().filter_map(|ns| match &ns.rdata {
                RData::Ns(target) if target.is_subdomain_of(&self.origin) => Some(target),
                _ => None,
            }));
            return Outcome::Referral { ns_records, glue };
        }

        if qtype == RecordType::SOA && *qname == self.origin {
            let records = vec![self.soa.clone()];
            return Outcome::Answer {
                signatures: self.signatures(qname, &records),
                records,
                additionals: Vec::new(),
            };
        }

        // A name that does not exist is read at its wildcard, if any;
        // what is found there is owned by the query name.
        let exists = self.exists(qname);
        let source = match exists {
            true => None,
            false => self.wildcard_for(qname),
        };
        let at_name = source.as_ref().unwrap_or(qname);
        let owned = |mut records: Vec<Record>| {
            if source.is_some() {
                records.iter_mut().for_each(|r| r.name = qname.clone());
            }
            records
        };

        let direct = self.at(at_name, qtype);
        if !direct.is_empty() {
            let additionals = self.addresses(direct.iter().filter_map(|r| match &r.rdata {
                RData::Ns(target)
                | RData::Mx {
                    exchange: target, ..
                } => Some(target),
                _ => None,
            }));
            return Outcome::Answer {
                signatures: owned(self.signatures(at_name, &direct)),
                records: owned(direct),
                additionals,
            };
        }

        let alias = self.first_alias(at_name);
        if let (Some(first), true) = (alias, qtype != RecordType::CNAME) {
            // Follow the chain for at most eight targets, never twice
            // through the same name; whatever was collected is served.
            // Targets are read as stored, wildcards or not.
            let mut chain = owned(vec![first]);
            let mut visited = vec![qname.clone()];
            for _hop in 0..8 {
                let RData::Cname(target) = chain.last().expect("non-empty").rdata.clone() else {
                    unreachable!("the chain only ever grows by CNAMEs");
                };
                if visited.contains(&target) {
                    break;
                }
                visited.push(target.clone());
                let end = self.at(&target, qtype);
                if !end.is_empty() {
                    chain.extend(end);
                    break;
                }
                match self.first_alias(&target) {
                    Some(next) => chain.push(next),
                    None => break,
                }
            }
            return Outcome::Answer {
                signatures: owned(self.signatures(at_name, &chain)),
                records: chain,
                additionals: Vec::new(),
            };
        }

        // The apex exists even when it owns nothing.
        match exists || source.is_some() || *qname == self.origin {
            true => Outcome::NoData,
            false => Outcome::NxDomain,
        }
    }

    /// The SOA and the RRSIGs at the apex covering it: a negative
    /// answer's authority section.
    fn negative_authority(&self) -> Vec<RRset> {
        let soa = vec![self.soa.clone()];
        let mut records = soa.clone();
        records.extend(self.signatures(&self.origin, &soa));
        grouped(records)
    }

    /// The response a one-zone server owes for `query`.
    fn respond(&self, query: &Message) -> Message {
        let mut response = Message::response_to(query);
        let question = query.question.as_ref().expect("queries carry a question");
        match self.lookup(&question.qname, question.qtype) {
            Outcome::Answer {
                records,
                additionals,
                signatures,
            } => {
                response.header.authoritative = true;
                response.answers = grouped(records);
                response.answers.extend(grouped(signatures));
                response.additionals = grouped(additionals);
            }
            Outcome::Referral { ns_records, glue } => {
                response.authorities = grouped(ns_records);
                response.additionals = grouped(glue);
            }
            Outcome::NoData => {
                response.header.authoritative = true;
                response.authorities = self.negative_authority();
            }
            Outcome::NxDomain => {
                response.header.authoritative = true;
                response.header.rcode = Rcode::NxDomain;
                response.authorities = self.negative_authority();
            }
            Outcome::NotInZone => response.header.rcode = Rcode::Refused,
        }
        response
    }

    /// What `Zone::iter` must yield: owners in canonical order, each
    /// owner's types in `RecordType` order, RRSIGs one set per covered
    /// type, each RRset's members as added, at their smallest TTL.
    fn in_canonical_order(&self) -> Vec<RRset> {
        let mut sorted = self.records.clone();
        let key = |r: &Record| (r.record_type(), covered(r));
        sorted.sort_by(|a, b| a.name.cmp(&b.name).then(key(a).cmp(&key(b))));
        let mut sets: Vec<RRset> = Vec::new();
        for run in sorted.chunk_by(|a, b| a.name == b.name && key(a) == key(b)) {
            sets.push(set_of(run));
        }
        sets
    }
}

/// The type an RRSIG record covers; `None` for any other record.
fn covered(r: &Record) -> Option<RecordType> {
    match &r.rdata {
        RData::Rrsig(sig) => Some(sig.type_covered),
        _ => None,
    }
}

/// Records of one owner and type as one set, spelled as the first, at
/// the smallest TTL.
fn set_of(records: &[Record]) -> RRset {
    let first = &records[0];
    RRset::new(
        first.name.clone(),
        first.record_type(),
        records
            .iter()
            .map(|r| r.ttl)
            .min()
            .expect("a set holds a record"),
        records.iter().map(|r| r.rdata.clone()).collect::<Vec<_>>(),
    )
}

/// A section's records as sets: in order of first appearance, by owner
/// (case-insensitively) and type.
fn grouped(records: Vec<Record>) -> Vec<RRset> {
    let mut keys: Vec<(Name, RecordType)> = Vec::new();
    for r in &records {
        let key = (r.name.clone(), r.record_type());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys.iter()
        .map(|(name, rtype)| {
            let members: Vec<Record> = records
                .iter()
                .filter(|r| r.name == *name && r.record_type() == *rtype)
                .cloned()
                .collect();
            set_of(&members)
        })
        .collect()
}

const LABELS: [&str; 6] = ["a", "b", "ns", "w", "x1", "*"];
const QTYPES: [RecordType; 9] = [
    RecordType::A,
    RecordType::AAAA,
    RecordType::NS,
    RecordType::CNAME,
    RecordType::MX,
    RecordType::TXT,
    RecordType::SOA,
    RecordType::DNSKEY,
    RecordType::RRSIG,
];

fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// A name `depth` labels below `origin` (or, one time in ten when
/// `stray`, outside it), each letter upper-cased at random.
fn gen_name(rng: &mut SimRng, origin: &Name, depth: u64, stray: bool) -> Name {
    let mut text = String::new();
    for _ in 0..depth {
        text += pick(rng, &LABELS);
        text.push('.');
    }
    if stray && rng.chance(0.1) {
        text += "ns.Other.net.";
    } else if origin.is_root() && text.is_empty() {
        text.push('.');
    } else if !origin.is_root() {
        text += origin.as_str();
    }
    let text: String = text
        .chars()
        .map(|c| match rng.chance(0.3) {
            true => c.to_ascii_uppercase(),
            false => c,
        })
        .collect();
    Name::parse(&text).expect("generated names are valid")
}

/// Owner depths favour the middle of the tree, so that cuts, glue below
/// them and empty non-terminals above them all turn up.
fn gen_owner(rng: &mut SimRng, origin: &Name) -> Name {
    let depth = pick(rng, &[0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4]);
    gen_name(rng, origin, depth, false)
}

fn gen_record(rng: &mut SimRng, origin: &Name) -> Record {
    let owner = gen_owner(rng, origin);
    let target = |rng: &mut SimRng| {
        let depth = 1 + rng.below(3);
        gen_name(rng, origin, depth, true)
    };
    let rdata = match rng.below(21) {
        // Mostly at the apex, where it becomes the zone's SOA.
        20 => {
            let soa = RData::Soa(Arc::new(SoaData {
                mname: target(rng),
                rname: origin.clone(),
                serial: rng.below(1_000) as u32,
                refresh: 7_200,
                retry: 3_600,
                expire: 1_209_600,
                minimum: 60 + rng.below(600) as u32,
            }));
            let owner = match rng.chance(0.8) {
                true => gen_name(rng, origin, 0, false),
                false => owner,
            };
            return Record::new(owner, Ttl::from_secs(60 + rng.below(7_200) as u32), soa);
        }
        0..=6 => RData::A(std::net::Ipv4Addr::from(rng.next_u64() as u32)),
        7..=9 => RData::Aaaa(std::net::Ipv6Addr::from(rng.next_u64() as u128)),
        10..=11 => RData::Ns(target(rng)),
        12..=14 => RData::Cname(target(rng)),
        15 => RData::Mx {
            preference: 10,
            exchange: target(rng),
        },
        16..=17 => RData::Txt(format!("t{}", rng.below(100))),
        _ => RData::Rrsig(Arc::new(RrsigData {
            type_covered: pick(rng, &QTYPES[..7]),
            algorithm: 13,
            original_ttl: 300,
            signer: origin.clone(),
            signature: rng.next_u64().to_be_bytes().to_vec(),
        })),
    };
    Record::new(owner, Ttl::from_secs(60 + rng.below(7_200) as u32), rdata)
}

/// Outcome tallies, so a seed that stopped exercising a branch fails
/// instead of passing vacuously.
#[derive(Default, Debug)]
struct Seen {
    answers: usize,
    chains: usize,
    signed: usize,
    referrals: usize,
    glued: usize,
    nodata: usize,
    empty_non_terminals: usize,
    nxdomain: usize,
    refused: usize,
    synthesised_answers: usize,
    synthesised_nodata: usize,
    apex_soa_answers: usize,
}

impl Seen {
    fn note(&mut self, model: &Model, qname: &Name, outcome: &Outcome) {
        let synthesised = !model.exists(qname) && model.wildcard_for(qname).is_some();
        match outcome {
            Outcome::Answer {
                records,
                signatures,
                ..
            } => {
                self.answers += 1;
                self.chains += usize::from(records.len() > 1 && records[0].name != records[1].name);
                self.signed += usize::from(!signatures.is_empty());
                self.synthesised_answers += usize::from(synthesised);
                let soa = records[0].record_type() == RecordType::SOA;
                self.apex_soa_answers += usize::from(soa && *qname == model.origin);
            }
            Outcome::Referral { glue, .. } => {
                self.referrals += 1;
                self.glued += usize::from(!glue.is_empty());
            }
            Outcome::NoData => {
                self.nodata += 1;
                let owned = model.records.iter().any(|r| r.name == *qname);
                self.empty_non_terminals += usize::from(!owned && !synthesised);
                self.synthesised_nodata += usize::from(synthesised);
            }
            Outcome::NxDomain => self.nxdomain += 1,
            Outcome::NotInZone => self.refused += 1,
        }
    }
}

fn check_stored_view(zone: &Zone, model: &Model, step: usize) {
    let expected = model.in_canonical_order();
    let stored: Vec<RRset> = zone.iter().collect();
    assert_eq!(stored, expected, "step {step}: iter()");
    let mut owners: Vec<Name> = expected.iter().map(|s| s.name.clone()).collect();
    owners.dedup();
    let names: Vec<Name> = zone.names().cloned().collect();
    assert_eq!(names, owners, "step {step}: names()");
    for s in &expected {
        let at = model.at(&s.name, s.rtype);
        assert_eq!(zone.get(&s.name, s.rtype), Some(set_of(&at)), "step {step}");
    }
}

fn run_seed(seed: u64, origin: &str) -> Seen {
    let mut rng = SimRng::seed_from(seed);
    let origin = Name::parse(origin).unwrap();
    let mut srv = AuthoritativeServer::new("model").with_zone(Zone::new(origin.clone()));
    let mut model = Model::new(srv.zone(&origin).unwrap());
    let client = ClientId {
        region: Region::Eu,
        tag: seed,
    };
    let mut seen = Seen::default();
    // The previous step's response, refilled in place as a recycled
    // message is: every flag and section it held must be overwritten.
    let mut recycled = Message::default();

    for step in 0..2_600 {
        // Fill the zone first, then keep mutating it under the queries.
        if step < 90 || rng.chance(0.12) {
            let zone = srv.zone_mut(&origin).unwrap();
            match rng.below(if step < 90 { 5 } else { 10 }) {
                0..=4 => {
                    let record = gen_record(&mut rng, &origin);
                    model.add(record.clone());
                    zone.add(record);
                }
                5..=7 => {
                    // Mostly aimed at an RRset that exists, in other case.
                    let (name, rtype) = match model.records.is_empty() || rng.chance(0.2) {
                        true => (gen_owner(&mut rng, &origin), pick(&mut rng, &QTYPES)),
                        false => {
                            let r = &model.records[rng.below(model.records.len() as u64) as usize];
                            let name = Name::parse(&r.name.as_str().to_ascii_uppercase());
                            (name.unwrap(), r.record_type())
                        }
                    };
                    let removed = zone.remove(&name, rtype);
                    assert_eq!(removed, model.remove(&name, rtype), "step {step}");
                }
                8 => {
                    let name = gen_owner(&mut rng, &origin);
                    let addr = std::net::Ipv4Addr::from(rng.next_u64() as u32);
                    zone.replace_address(&name, addr, Ttl::MINUTE);
                    model.replace(&name, RData::A(addr), Ttl::MINUTE);
                }
                _ => {
                    let name = gen_owner(&mut rng, &origin);
                    let addr = std::net::Ipv6Addr::from(rng.next_u64() as u128);
                    zone.replace_address_v6(&name, addr, Ttl::MINUTE);
                    model.replace(&name, RData::Aaaa(addr), Ttl::MINUTE);
                }
            }
        }
        if step % 200 == 0 {
            check_stored_view(srv.zone(&origin).unwrap(), &model, step);
        }

        let depth = rng.below(6);
        let qname = gen_name(&mut rng, &origin, depth, true);
        let qtype = pick(&mut rng, &QTYPES);
        seen.note(&model, &qname, &model.lookup(&qname, qtype));
        let query = Message::iterative_query(step as u16, qname, qtype);
        let response = srv.handle_query(&query, client, SimTime::from_secs(step as u64));
        assert_eq!(
            response,
            model.respond(&query),
            "seed {seed} step {step}: {:?}",
            query.question
        );
        srv.respond_into(
            &query,
            client,
            SimTime::from_secs(step as u64),
            &mut recycled,
        );
        assert_eq!(
            recycled,
            model.respond(&query),
            "seed {seed} step {step}, in place"
        );
        recycled = response;
    }

    // Take the zone apart RRset by RRset: every counter must unwind to
    // an empty zone that knows no name at all.
    let zone = srv.zone_mut(&origin).unwrap();
    while let Some(r) = model.records.first().cloned() {
        let rtype = r.record_type();
        assert_eq!(zone.remove(&r.name, rtype), model.remove(&r.name, rtype));
    }
    assert_eq!(zone.iter().count(), 0);
    for depth in 0..4 {
        let qname = gen_name(&mut rng, &origin, depth, false);
        let query = Message::iterative_query(1, qname, RecordType::A);
        let response = srv.handle_query(&query, client, SimTime::ZERO);
        // The apex exists even in an empty zone: NODATA there.
        let rcode = match depth {
            0 => Rcode::NoError,
            _ => Rcode::NxDomain,
        };
        assert_eq!(response.header.rcode, rcode, "{response:?}");
        assert!(response.answers.is_empty(), "{response:?}");
    }
    seen
}

#[test]
fn lookup_and_handle_query_match_the_flat_record_model() {
    let runs = [
        (0xA11CE_u64, "."),
        (0xB0B, "test"),
        (0xC0FFEE, "Zone.Example"),
        (0xD00D, "x1.a"),
        (0xE66, "uy"),
    ];
    for (seed, origin) in runs {
        let seen = run_seed(seed, origin);
        let floor = |count: usize, what: &str| {
            assert!(
                count >= 10,
                "seed {seed:#x}: only {count} {what} in {seen:?}"
            )
        };
        floor(seen.answers, "answers");
        floor(seen.chains, "CNAME chains");
        floor(seen.signed, "signed answers");
        floor(seen.referrals, "referrals");
        floor(seen.glued, "referrals with glue");
        floor(seen.nodata, "NODATA");
        floor(seen.empty_non_terminals, "empty non-terminals");
        floor(seen.nxdomain, "NXDOMAIN");
        floor(seen.synthesised_answers, "answers from a wildcard");
        floor(seen.synthesised_nodata, "NODATA from a wildcard");
        floor(seen.apex_soa_answers, "apex SOA answers");
        // Nothing is outside the root zone.
        if origin != "." {
            floor(seen.refused, "out-of-zone queries");
        }
    }
}

#[test]
fn nested_cuts_refer_to_the_highest_and_resurface_when_it_goes() {
    let text = "$TTL 60\na.b NS ns.a.b\nns.a.b A 192.0.2.1\nb NS ns.elsewhere.\nw.a.b TXT \"t\"\n";
    let n = |s: &str| Name::parse(s).unwrap();
    let test = n("test");
    let mut srv = AuthoritativeServer::new("test").with_zone(parse_zone("test", text).unwrap());
    let ask = |srv: &mut AuthoritativeServer, qname: &str| {
        let query = Message::iterative_query(1, n(qname), RecordType::TXT);
        let client = ClientId {
            region: Region::Eu,
            tag: 1,
        };
        srv.handle_query(&query, client, SimTime::ZERO)
    };
    // A referral's authority section holds the cut's NS records.
    let cut_for = |srv: &mut AuthoritativeServer, qname: &str| {
        let response = ask(srv, qname);
        response
            .is_referral()
            .then(|| response.authorities[0].name.clone())
    };
    assert_eq!(cut_for(&mut srv, "W.A.B.test"), Some(n("b.test")));
    assert_eq!(cut_for(&mut srv, "b.TEST"), Some(n("b.test")));
    // With the upper cut gone the lower one is the zone's edge.
    let zone = srv.zone_mut(&test).unwrap();
    assert_eq!(zone.remove(&n("B.test"), RecordType::NS), 1);
    assert_eq!(cut_for(&mut srv, "w.a.b.test"), Some(n("a.b.test")));
    assert_eq!(cut_for(&mut srv, "b.test"), None);
    // `b.test` owns nothing now but still has names below it: NODATA.
    let response = ask(&mut srv, "b.test");
    assert_eq!(response.header.rcode, Rcode::NoError);
    assert!(response.header.authoritative && response.answers.is_empty());
    // With no cut left the data below answers for itself.
    let zone = srv.zone_mut(&test).unwrap();
    assert_eq!(zone.remove(&n("a.b.test"), RecordType::NS), 1);
    let response = ask(&mut srv, "w.a.b.test");
    assert!(response.header.authoritative);
    assert_eq!(response.answers.len(), 1);
}

/// One line per record; RRSIGs with their signature bytes, which
/// `Display` leaves out.
fn dump(zone: &Zone) -> String {
    let mut out = String::new();
    for r in zone
        .iter()
        .flat_map(|set| set.records().collect::<Vec<_>>())
    {
        out += &r.to_string();
        if let RData::Rrsig(sig) = &r.rdata {
            out.push(' ');
            out.extend(sig.signature.iter().map(|b| format!("{b:02x}")));
        }
        out.push('\n');
    }
    out
}

#[test]
fn canonical_order_survives_the_unordered_index() {
    let mut zone = parse_zone("uy", include_str!("data/uy.zone")).unwrap();
    let strictly_ascending = |zone: &Zone| {
        let names: Vec<&Name> = zone.names().collect();
        names.windows(2).all(|pair| pair[0] < pair[1])
    };
    assert!(strictly_ascending(&zone));
    assert_eq!(render_zone(&zone), include_str!("data/uy.rendered"));
    // What a secondary transfers renders the same.
    assert_eq!(render_zone(&zone.clone()), include_str!("data/uy.rendered"));
    sign_zone(&mut zone);
    assert!(strictly_ascending(&zone));
    assert_eq!(dump(&zone), include_str!("data/uy.signed"));
}
