//! Metamorphic relations: transform a world or its questions in a way
//! whose effect on the findings is known, and check the effect. No
//! second model of the system is needed, and the simulator is
//! deterministic, so a relation that should hold exactly is checked
//! exactly.

use dnsttl::analysis::BehaviorCensus;
use dnsttl::atlas::{Population, PopulationConfig};
use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::experiments::worlds::{addrs, cachetest_world, uy_world};
use dnsttl::netsim::{Region, SimRng, SimTime};
use dnsttl::resolver::CacheStats;
use dnsttl::wire::{Name, Rcode, RecordType, Ttl};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

/// The `.uy` world as the paper found it: the child publishes its NS
/// set for 300 s and its server addresses for 120 s, the root for two
/// days.
const CHILD_NS_TTL: u64 = 300;
const PARENT_NS_TTL: u64 = 172_800;

/// The questions every resolver asks, every ten minutes for two
/// hours: the NS set the paper's Figure 1 reads, a server address, a
/// name in the zone and one that does not exist.
const QUESTIONS: [(&str, RecordType); 4] = [
    ("uy", RecordType::NS),
    ("a.nic.uy", RecordType::A),
    ("www.gub.uy", RecordType::A),
    ("no-such-name.gub.uy", RecordType::A),
];

/// What one question returned: rcode, hit, stale, upstream queries,
/// resolver-side milliseconds, and the TTL of every record in each
/// section.
type Seen = (Rcode, bool, bool, u32, u64, [Vec<u64>; 3]);

/// Everything a run of the questions yields that DNS case rules say
/// cannot depend on the case of the question.
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<Seen>,
    caches: Vec<CacheStats>,
    /// Queries the root and the three `.uy` servers received.
    server_load: [u64; 4],
    /// Figure 1's finding: each resolver's NS TTL series classified.
    census: BehaviorCensus,
}

/// Asks [`QUESTIONS`] of a 100-probe population on the `.uy` world. With
/// `case_seed`, each question's qname is spelled in seeded random case
/// (DNS 0x20 style), a fresh spelling per question; the second value is
/// how many spellings differed from the lowercase one.
fn ask(case_seed: Option<u64>) -> (Observed, usize) {
    let (mut net, roots) = uy_world(Ttl::from_secs(CHILD_NS_TTL as u32), Ttl::from_secs(120));
    let mut rng = SimRng::seed_from(19);
    let mut pop = Population::build(&PopulationConfig::small(100), &roots, &mut rng);
    let mut case_rng = SimRng::seed_from(case_seed.unwrap_or(0));
    let (mut answers, mut recased) = (Vec::new(), 0);
    let mut ns_series = vec![Vec::new(); pop.resolvers.len()];
    for round in 0..12u64 {
        for (k, resolver) in pop.resolvers.iter_mut().enumerate() {
            let now = SimTime::from_secs(round * 600 + k as u64);
            for (qname, qtype) in QUESTIONS {
                let spelled: String = match case_seed {
                    None => qname.to_owned(),
                    Some(_) => qname
                        .chars()
                        .map(|c| match case_rng.below(2) {
                            0 => c,
                            _ => c.to_ascii_uppercase(),
                        })
                        .collect(),
                };
                recased += usize::from(spelled != qname);
                let name = Name::parse(&spelled).expect("valid name");
                let out = resolver.resolve(&name, qtype, now, &mut net);
                let msg = &out.answer;
                let ttls: [Vec<u64>; 3] = [&msg.answers, &msg.authorities, &msg.additionals]
                    .map(|section| section.iter().map(|r| u64::from(r.ttl.as_secs())).collect());
                if qtype == RecordType::NS && msg.header.rcode == Rcode::NoError {
                    ns_series[k].extend(ttls[0].iter().copied());
                }
                answers.push((
                    msg.header.rcode,
                    out.cache_hit,
                    out.served_stale,
                    out.upstream_queries,
                    out.elapsed.as_millis(),
                    ttls,
                ));
            }
        }
    }
    let observed = Observed {
        answers,
        caches: pop.resolvers.iter().map(|r| r.cache().stats()).collect(),
        server_load: [addrs::ROOT, addrs::UY_A, addrs::UY_B, addrs::UY_C]
            .map(|addr| net.queries_received(addr)),
        census: BehaviorCensus::take(
            ns_series.iter().map(Vec::as_slice),
            CHILD_NS_TTL,
            PARENT_NS_TTL,
        ),
    };
    (observed, recased)
}

#[test]
fn a_question_asked_in_random_case_gets_the_same_answers_counts_and_findings() {
    // Names compare without case (RFC 4343): the resolver's cache keys,
    // the zone lookup and the codec's compression must all fold it, so
    // a question spelled `wWw.GuB.uY` is the question `www.gub.uy`.
    let (lower, _) = ask(None);
    assert!(
        lower.census.child_centric > 0 && lower.census.parent_centric > 0,
        "the population shows both of Figure 1's behaviours: {:?}",
        lower.census
    );
    assert!(
        lower.answers.iter().any(|a| a.1),
        "some questions hit the cache"
    );
    assert!(
        lower.answers.iter().any(|a| a.0 == Rcode::NxDomain),
        "some questions are negative"
    );
    for case_seed in [1, 2] {
        let (mixed, recased) = ask(Some(case_seed));
        assert!(
            recased * 10 > mixed.answers.len() * 9,
            "most questions are spelled in mixed case: {recased} of {}",
            mixed.answers.len()
        );
        if mixed != lower {
            let first = (0..lower.answers.len())
                .find(|&i| lower.answers.get(i) != mixed.answers.get(i))
                .map(|i| (i, &lower.answers[i], mixed.answers.get(i)));
            panic!(
                "case seed {case_seed}: the case of the question moved what resolvers saw; \
                 first differing answer (index, lower, mixed): {first:?}\n\
                 server load {:?} vs {:?}\ncensus {:?} vs {:?}",
                lower.server_load, mixed.server_load, lower.census, mixed.census
            );
        }
    }
}

/// Where the zone no question reaches is served: `ns1.unused.cachetest.net`.
const UNUSED: IpAddr = IpAddr::V4(Ipv4Addr::new(18, 184, 0, 30));

/// What a run of §4's in-bailiwick renumbering yields: every answer's
/// rcode, hit, upstream count, elapsed time and records (rendered, so
/// the VM's marker shows), each resolver's cache counters, and the
/// load on each server of the world.
#[derive(Debug, PartialEq)]
struct Renumbering {
    answers: Vec<(Rcode, bool, u32, u64, Vec<String>)>,
    caches: Vec<CacheStats>,
    server_load: [u64; 5],
}

/// A 40-probe population asks its own `pK.sub.cachetest.net` AAAA and
/// the VM's address every five minutes for two hours, with the VM
/// renumbered nine minutes in (§4). With `unused`, the `cachetest.net`
/// parent also delegates `unused.cachetest.net`, holds its glue, and
/// serves that child zone itself, added after its own; a second server
/// at [`UNUSED`] serves it too. No question is under it. Building a
/// world draws no randomness, so every stream starts where it did.
fn renumbering(unused: bool) -> Renumbering {
    let mut world = cachetest_world(false);
    if unused {
        let host = "ns1.unused.cachetest.net";
        let child = ZoneBuilder::new("unused.cachetest.net")
            .ns("unused.cachetest.net", host, Ttl::HOUR)
            .a(host, "18.184.0.30", Ttl::HOUR)
            .a("www.unused.cachetest.net", "18.184.0.31", Ttl::MINUTE)
            .build();
        let mut parent = world.parent.borrow_mut();
        let apex = Name::parse("cachetest.net").unwrap();
        let zone = parent.zone_mut(&apex).expect("the parent zone");
        for record in ZoneBuilder::new("cachetest.net")
            .ns("unused.cachetest.net", host, Ttl::HOUR)
            .a(host, "18.184.0.30", Ttl::HOUR)
            .build()
            .iter()
        {
            record.records().for_each(|r| zone.add(r));
        }
        parent.add_zone(child.clone());
        let server = AuthoritativeServer::new(host).with_zone(child);
        world
            .net
            .register(UNUSED, Region::Eu, Rc::new(RefCell::new(server)));
    }
    let mut rng = SimRng::seed_from(54);
    let mut pop = Population::build(&PopulationConfig::small(40), &world.roots, &mut rng);
    let host = Name::parse("ns1.sub.cachetest.net").unwrap();
    let mut answers = Vec::new();
    for round in 0..24u64 {
        if round == 2 {
            world.renumber();
        }
        for (k, resolver) in pop.resolvers.iter_mut().enumerate() {
            let now = SimTime::from_secs(round * 300 + k as u64);
            let probe = Name::parse(&format!("p{k}.sub.cachetest.net")).unwrap();
            for (qname, qtype) in [(&probe, RecordType::AAAA), (&host, RecordType::A)] {
                let out = resolver.resolve(qname, qtype, now, &mut world.net);
                let msg = &out.answer;
                let records = msg
                    .sectioned_records()
                    .map(|(_, r)| r.to_string())
                    .collect();
                answers.push((
                    msg.header.rcode,
                    out.cache_hit,
                    out.upstream_queries,
                    out.elapsed.as_millis(),
                    records,
                ));
            }
        }
    }
    if unused {
        assert_eq!(
            world.net.queries_received(UNUSED),
            0,
            "no question reaches it"
        );
    }
    Renumbering {
        answers,
        caches: pop.resolvers.iter().map(|r| r.cache().stats()).collect(),
        server_load: [
            addrs::ROOT,
            addrs::NET,
            addrs::CACHETEST,
            addrs::SUB_OLD,
            addrs::SUB_NEW,
        ]
        .map(|addr| world.net.queries_received(addr)),
    }
}

#[test]
fn a_delegated_zone_no_question_reaches_changes_nothing() {
    let plain = renumbering(false);
    let [_, _, parent, old_vm, new_vm] = plain.server_load;
    assert!(
        parent > 0 && old_vm > 0 && new_vm > 0,
        "the parent is asked, and both VMs answer: {:?}",
        plain.server_load
    );
    let with_unused = renumbering(true);
    if with_unused != plain {
        let first = (0..plain.answers.len())
            .find(|&i| plain.answers.get(i) != with_unused.answers.get(i))
            .map(|i| (i, &plain.answers[i], with_unused.answers.get(i)));
        panic!(
            "a zone no question reaches moved what resolvers saw; first differing answer \
             (index, without, with): {first:?}\nserver load {:?} vs {:?}",
            plain.server_load, with_unused.server_load
        );
    }
}
