//! End-to-end integration: wire ⇄ auth ⇄ netsim ⇄ resolver ⇄ atlas,
//! exercised through the public facade crate.

use dnsttl::atlas::{run_measurement, MeasurementSpec, Population, PopulationConfig, QueryName};
use dnsttl::core::{Centricity, ResolverPolicy};
use dnsttl::experiments::worlds;
use dnsttl::netsim::{FaultPlan, Region, SimRng, SimTime};
use dnsttl::resolver::RecursiveResolver;
use dnsttl::wire::{Name, Rcode, RecordType, Ttl};

fn n(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn resolver(policy: ResolverPolicy, roots: Vec<dnsttl::resolver::RootHint>) -> RecursiveResolver {
    RecursiveResolver::new(
        "itest",
        policy,
        Region::Eu,
        99,
        roots,
        SimRng::seed_from(11),
    )
}

#[test]
fn full_stack_resolution_and_caching() {
    let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    let mut r = resolver(ResolverPolicy::default(), roots);

    let cold = r.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
    assert_eq!(cold.answer.header.rcode, Rcode::NoError);
    assert!(!cold.cache_hit);
    assert!(cold.upstream_queries >= 2, "root referral + child answer");
    assert!(cold.elapsed.as_millis() > 0);

    let warm = r.resolve(
        &n("www.gub.uy"),
        RecordType::A,
        SimTime::from_secs(30),
        &mut net,
    );
    assert!(warm.cache_hit);
    assert_eq!(warm.upstream_queries, 0);
    // TTL decremented by 30 s of age.
    assert_eq!(warm.answer.answers[0].ttl.as_secs(), 3_600 - 30);
}

#[test]
fn centricity_decides_the_observed_ttl_end_to_end() {
    let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    let mut child = resolver(ResolverPolicy::default(), roots.clone());
    let mut parent = resolver(ResolverPolicy::parent_centric(), roots);

    let c = child.resolve(&n("uy"), RecordType::NS, SimTime::ZERO, &mut net);
    let p = parent.resolve(&n("uy"), RecordType::NS, SimTime::ZERO, &mut net);
    assert_eq!(c.answer.answers[0].ttl.as_secs(), 300);
    assert_eq!(p.answer.answers[0].ttl.as_secs(), 172_800);
    assert_eq!(child.policy().centricity, Centricity::ChildCentric);
}

#[test]
fn negative_answers_cache_and_expire() {
    let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    let mut r = resolver(ResolverPolicy::default(), roots);

    let miss = r.resolve(
        &n("doesnotexist.uy"),
        RecordType::A,
        SimTime::ZERO,
        &mut net,
    );
    assert_eq!(miss.answer.header.rcode, Rcode::NxDomain);
    let cached = r.resolve(
        &n("doesnotexist.uy"),
        RecordType::A,
        SimTime::from_secs(60),
        &mut net,
    );
    assert_eq!(cached.answer.header.rcode, Rcode::NxDomain);
    assert!(cached.cache_hit, "negative answer must come from cache");
    // Zone::new defaults SOA minimum to 300 s; past it, a fresh query
    // goes upstream again.
    let expired = r.resolve(
        &n("doesnotexist.uy"),
        RecordType::A,
        SimTime::from_secs(400),
        &mut net,
    );
    assert_eq!(expired.answer.header.rcode, Rcode::NxDomain);
    assert!(!expired.cache_hit);
}

#[test]
fn atlas_campaign_over_full_stack_is_deterministic() {
    let run = |seed: u64| {
        let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
        let mut rng = SimRng::seed_from(seed);
        let mut pop = Population::build(&PopulationConfig::small(120), &roots, &mut rng);
        let spec = MeasurementSpec::every_600s(QueryName::Fixed(n("uy")), RecordType::NS, 1);
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        (
            ds.len(),
            ds.valid_count(),
            ds.ttls(),
            ds.rtts_ms().iter().sum::<u64>(),
        )
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "same seed ⇒ bit-identical campaign");
    let c = run(4321);
    assert_ne!(a.3, c.3, "different seed ⇒ different RTT draws");
}

#[test]
fn serve_stale_survives_total_outage_end_to_end() {
    // A fault plan that keeps the whole .uy NS set down for good.
    let uy_outage = || {
        let forever = SimTime::from_millis(u64::MAX);
        [
            worlds::addrs::UY_A,
            worlds::addrs::UY_B,
            worlds::addrs::UY_C,
        ]
        .into_iter()
        .fold(FaultPlan::new(), |plan, addr| {
            plan.outage(addr, SimTime::ZERO, forever)
        })
    };
    let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    let mut r = resolver(ResolverPolicy::serve_stale_like(), roots);
    let ok = r.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
    assert_eq!(ok.answer.header.rcode, Rcode::NoError);

    // Take the whole .uy NS set down after the record expired.
    net.set_faults(uy_outage());
    let stale = r.resolve(
        &n("www.gub.uy"),
        RecordType::A,
        SimTime::from_secs(4_000),
        &mut net,
    );
    assert_eq!(stale.answer.header.rcode, Rcode::NoError);
    assert!(stale.served_stale);

    // A non-stale resolver SERVFAILs in the same situation.
    let (mut net2, roots2) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    let mut strict = resolver(ResolverPolicy::default(), roots2);
    strict.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net2);
    net2.set_faults(uy_outage());
    let dead = strict.resolve(
        &n("www.gub.uy"),
        RecordType::A,
        SimTime::from_secs(4_000),
        &mut net2,
    );
    assert_eq!(dead.answer.header.rcode, Rcode::ServFail);
}

#[test]
fn ttl_capping_visible_at_the_edge() {
    let (mut net, roots) = worlds::google_co_world();
    let mut capped = resolver(ResolverPolicy::google_like(), roots.clone());
    let out = capped.resolve(&n("google.co"), RecordType::NS, SimTime::ZERO, &mut net);
    assert_eq!(out.answer.answers[0].ttl.as_secs(), 21_599);

    let mut plain = resolver(ResolverPolicy::default(), roots);
    let out = plain.resolve(&n("google.co"), RecordType::NS, SimTime::ZERO, &mut net);
    assert_eq!(out.answer.answers[0].ttl.as_secs(), 345_600);
}
