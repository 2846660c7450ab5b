//! Cross-crate property tests: invariants that must hold for any zone
//! configuration or policy the generators produce. Driven by the
//! workspace's own deterministic [`SimRng`] with fixed seeds (the build
//! environment is offline, so no external property-testing harness).

use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::core::{effective_ttl, Bailiwick, Centricity, PublishedTtls, ResolverPolicy};
use dnsttl::netsim::{LatencyModel, Network, Region, SimRng, SimTime};
use dnsttl::resolver::{RecursiveResolver, RootHint};
use dnsttl::wire::{Name, Rcode, RecordType, Ttl};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

fn gen_ttl(rng: &mut SimRng) -> Ttl {
    match rng.below(3) {
        0 => Ttl::ZERO,
        1 => Ttl::from_secs(rng.range_u64(1, 172_801) as u32),
        _ => Ttl::MAX,
    }
}

fn gen_policy(rng: &mut SimRng) -> ResolverPolicy {
    ResolverPolicy {
        centricity: if rng.chance(0.5) {
            Centricity::ParentCentric
        } else {
            Centricity::ChildCentric
        },
        ttl_cap: rng
            .chance(0.5)
            .then(|| Ttl::from_secs(rng.range_u64(1, 604_801) as u32)),
        link_inbailiwick_glue: rng.chance(0.5),
        serve_stale: rng.chance(0.5).then_some(Ttl::DAY),
        upstream_failure_ttl: rng.chance(0.5).then_some(Ttl::from_secs(30)),
        server_backoff: rng.chance(0.5).then_some(Ttl::from_secs(1)),
        local_root: false,
        sticky: rng.chance(0.5),
        validate_dnssec: false,
    }
}

/// The effective TTL never exceeds what either parent or child
/// published (policy clamping can only shrink it), and
/// in-bailiwick coupling never *extends* an address's life.
#[test]
fn effective_ttl_is_bounded() {
    let mut rng = SimRng::seed_from(21);
    for case in 0..256 {
        let published = PublishedTtls {
            parent_ns: gen_ttl(&mut rng),
            child_ns: gen_ttl(&mut rng),
            parent_addr: gen_ttl(&mut rng),
            child_addr: gen_ttl(&mut rng),
        };
        let policy = gen_policy(&mut rng);
        let in_bailiwick = rng.chance(0.5);
        let bw = if in_bailiwick {
            Bailiwick::In
        } else {
            Bailiwick::Out
        };
        let eff = effective_ttl(&policy, &published, bw);
        let source_ns = match policy.centricity {
            Centricity::ChildCentric => published.child_ns,
            Centricity::ParentCentric => published.parent_ns,
        };
        assert_eq!(eff.ns, policy.clamp_ttl(source_ns), "case {case}");
        let source_addr = match policy.centricity {
            Centricity::ChildCentric => published.child_addr,
            Centricity::ParentCentric => published.parent_addr,
        };
        let addr_bound = eff.ns.max(policy.clamp_ttl(source_addr));
        assert!(eff.addr <= addr_bound, "case {case}");
        if eff.addr_coupled_to_ns {
            assert_eq!(eff.addr, eff.ns, "case {case}");
            assert!(in_bailiwick && policy.link_inbailiwick_glue, "case {case}");
        }
    }
}

/// Any (policy, TTL) world resolves without panicking, terminates, and
/// the answer's TTL never exceeds the policy-clamped published TTL.
#[test]
fn resolution_terminates_and_ttls_are_clamped() {
    let mut rng = SimRng::seed_from(22);
    for case in 0..64 {
        let child_ns = rng.range_u64(1, 172_801) as u32;
        let child_a = rng.range_u64(1, 172_801) as u32;
        let policy = gen_policy(&mut rng);
        let query_at = rng.below(7_200);

        let root_addr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
        let child_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "192.0.2.53", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::from_secs(child_ns))
                .a("ns.example", "192.0.2.53", Ttl::from_secs(child_a))
                .a("www.example", "203.0.113.1", Ttl::from_secs(child_a))
                .build(),
        );
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
        let mut r = RecursiveResolver::new(
            "prop",
            policy.clone(),
            Region::Eu,
            1,
            vec![RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: root_addr,
            }],
            SimRng::seed_from(1),
        );
        // Two queries: cold then somewhere in the cache lifetime.
        let www = Name::parse("www.example").unwrap();
        let first = r.resolve(&www, RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(first.answer.header.rcode, Rcode::NoError, "case {case}");
        let second = r.resolve(&www, RecordType::A, SimTime::from_secs(query_at), &mut net);
        assert_eq!(second.answer.header.rcode, Rcode::NoError, "case {case}");
        for rec in &second.answer.answers {
            let bound = policy.clamp_ttl(Ttl::from_secs(child_a)).max(
                policy.clamp_ttl(Ttl::TWO_DAYS), // parent-centric may serve glue TTL
            );
            assert!(
                rec.ttl <= bound,
                "case {case}: ttl {} > bound {}",
                rec.ttl,
                bound
            );
        }
    }
}

/// Arbitrary three-level delegation trees (random TTLs, random
/// bailiwick for the leaf zone's server, random policy) always
/// resolve, terminate, and keep answering as time advances.
#[test]
fn random_delegation_trees_resolve() {
    let mut rng = SimRng::seed_from(23);
    for case in 0..64 {
        let tld_ns_ttl = rng.range_u64(60, 172_801) as u32;
        let sld_ns_ttl = rng.range_u64(60, 172_801) as u32;
        let sld_a_ttl = rng.range_u64(60, 172_801) as u32;
        let leaf_ttl = rng.range_u64(1, 86_401) as u32;
        let out_of_bailiwick = rng.chance(0.5);
        let policy = gen_policy(&mut rng);
        let later = rng.range_u64(1, 200_000);

        let root_addr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
        let tld_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1));
        let sld_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 2));
        let other_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 3));

        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("tld", "ns.tld", Ttl::TWO_DAYS)
                .a("ns.tld", "192.0.2.1", Ttl::TWO_DAYS)
                .ns("other", "ns.other", Ttl::TWO_DAYS)
                .a("ns.other", "192.0.2.3", Ttl::TWO_DAYS)
                .build(),
        );
        let sld_host = if out_of_bailiwick {
            "ns.host.other"
        } else {
            "ns.site.tld"
        };
        let mut tld_builder = ZoneBuilder::new("tld")
            .ns("tld", "ns.tld", Ttl::from_secs(tld_ns_ttl))
            .a("ns.tld", "192.0.2.1", Ttl::from_secs(tld_ns_ttl))
            .ns("site.tld", sld_host, Ttl::from_secs(sld_ns_ttl));
        if !out_of_bailiwick {
            tld_builder = tld_builder.a(sld_host, "192.0.2.2", Ttl::from_secs(sld_a_ttl));
        }
        let tld = AuthoritativeServer::new("ns.tld").with_zone(tld_builder.build());
        // The same operator serves `other` and its child `host.other`
        // (the A record must live in a zone someone is authoritative
        // for — below a cut it would be unreachable glue).
        let other = AuthoritativeServer::new("ns.other")
            .with_zone(
                ZoneBuilder::new("other")
                    .ns("other", "ns.other", Ttl::DAY)
                    .a("ns.other", "192.0.2.3", Ttl::DAY)
                    .ns("host.other", "ns.other", Ttl::DAY)
                    .build(),
            )
            .with_zone(
                ZoneBuilder::new("host.other")
                    .ns("host.other", "ns.other", Ttl::DAY)
                    .a("ns.host.other", "192.0.2.2", Ttl::from_secs(sld_a_ttl))
                    .build(),
            );
        let sld = AuthoritativeServer::new("sld").with_zone(
            ZoneBuilder::new("site.tld")
                .ns("site.tld", sld_host, Ttl::from_secs(sld_ns_ttl))
                .a("www.site.tld", "203.0.113.1", Ttl::from_secs(leaf_ttl))
                .build(),
        );
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        net.register(tld_addr, Region::Eu, Rc::new(RefCell::new(tld)));
        net.register(other_addr, Region::Eu, Rc::new(RefCell::new(other)));
        net.register(sld_addr, Region::Eu, Rc::new(RefCell::new(sld)));

        let mut r = RecursiveResolver::new(
            "tree",
            policy,
            Region::Eu,
            1,
            vec![RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: root_addr,
            }],
            SimRng::seed_from(3),
        );
        let leaf = Name::parse("www.site.tld").unwrap();
        let first = r.resolve(&leaf, RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(first.answer.header.rcode, Rcode::NoError, "case {case}");
        assert!(!first.answer.answers.is_empty(), "case {case}");
        let second = r.resolve(&leaf, RecordType::A, SimTime::from_secs(later), &mut net);
        assert_eq!(second.answer.header.rcode, Rcode::NoError, "case {case}");
        // Bounded work per query even on cold paths.
        assert!(
            second.upstream_queries <= 12,
            "case {case}: {} upstream",
            second.upstream_queries
        );
    }
}

/// Cached answers age monotonically: a later query never sees a larger
/// remaining TTL than an earlier one, unless a re-fetch happened (in
/// which case it is back at the clamped original).
#[test]
fn cached_ttls_age_monotonically() {
    let mut rng = SimRng::seed_from(24);
    for case in 0..64 {
        let step = rng.range_u64(1, 400);
        let root_addr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
        let child_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "192.0.2.53", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .a("www.example", "203.0.113.1", Ttl::from_secs(1_000))
                .build(),
        );
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
        let mut r = RecursiveResolver::new(
            "prop",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            vec![RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: root_addr,
            }],
            SimRng::seed_from(2),
        );
        let name = Name::parse("www.example").unwrap();
        let mut last_ttl = u32::MAX;
        for i in 0..6u64 {
            let now = SimTime::from_secs(i * step);
            let out = r.resolve(&name, RecordType::A, now, &mut net);
            let ttl = out.answer.answers[0].ttl.as_secs();
            if out.cache_hit {
                assert!(
                    ttl <= last_ttl,
                    "case {case}: aged entry grew: {ttl} > {last_ttl}"
                );
            } else {
                assert_eq!(
                    ttl, 1_000,
                    "case {case}: fresh fetch returns the original TTL"
                );
            }
            last_ttl = ttl;
        }
    }
}
