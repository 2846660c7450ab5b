//! # dnsttl-bench — benchmark scenarios
//!
//! Helper scenarios shared by the Criterion benches in `benches/`
//! (interactive tools, never cited as evidence):
//!
//! * `micro` — component costs: wire codec, cache operations, zone
//!   lookups, single resolutions;
//! * `tables` — one bench per paper table (the regeneration cost of
//!   each artifact at quick scale);
//! * `figures` — one bench per paper figure;
//! * `ablations` — the design choices DESIGN.md calls out, measured
//!   head-to-head (credibility ranking, glue linking, TTL caps, cache
//!   sharing).
//!
//! Keeping the world-building helpers here keeps the bench files
//! declarative.
//!
//! [`runner`] is the headless suite behind `repro bench`: interleaved
//! pairs timed in one run, and the gates CI holds their ratios to.
//! Cross-commit numbers belong to neither — the `benchmark/` package
//! owns them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

pub use runner::{BenchConfig, BenchReport, Counter, Timing, BENCH_SCHEMA, TIMINGS_MARKER};

use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{LatencyModel, Network, Region, SimRng, SimTime};
use dnsttl_resolver::{RecursiveResolver, RootHint};
use dnsttl_wire::{Name, RecordType, Ttl};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

/// A self-contained two-level world (root + one delegated zone) with a
/// resolver attached: the minimal fixture for resolution benches.
pub struct BenchWorld {
    /// The network with both servers registered.
    pub net: Network,
    /// A resolver using `policy`.
    pub resolver: RecursiveResolver,
    /// A leaf name that resolves to an A record.
    pub leaf: Name,
}

/// The two-level network under every fixture here — a root delegating
/// `example` to one child server, `www.example` published with
/// `child_ttl` — plus the root hints a resolver or a probe population
/// needs to walk it.
fn two_level_network(child_ttl: Ttl) -> (Network, Vec<RootHint>) {
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
            .a("ns.example", "192.0.2.53", Ttl::HOUR)
            .a("www.example", "203.0.113.1", child_ttl)
            .build(),
    );
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
    let roots = vec![RootHint {
        ns_name: Name::parse("root").expect("static"),
        addr: root_addr,
    }];
    (net, roots)
}

/// Builds the fixture. `child_ttl` controls the leaf record's cache
/// lifetime; `policy` the resolver behaviour.
pub fn bench_world(child_ttl: Ttl, policy: ResolverPolicy) -> BenchWorld {
    let (net, roots) = two_level_network(child_ttl);
    let resolver =
        RecursiveResolver::new("bench", policy, Region::Eu, 1, roots, SimRng::seed_from(99));
    BenchWorld {
        net,
        resolver,
        leaf: Name::parse("www.example").expect("static"),
    }
}

impl BenchWorld {
    /// One resolution at `now`; panics on non-NOERROR (a bench fixture
    /// must not silently degrade into benchmarking the error path).
    pub fn resolve_at(&mut self, now_s: u64) -> u32 {
        let out = self.resolver.resolve(
            &self.leaf,
            RecordType::A,
            SimTime::from_secs(now_s),
            &mut self.net,
        );
        assert_eq!(out.answer.header.rcode, dnsttl_wire::Rcode::NoError);
        out.upstream_queries
    }
}

/// A representative referral message for codec benches (question +
/// NS authority + A/AAAA glue, with compressible names).
pub fn sample_referral() -> dnsttl_wire::Message {
    use dnsttl_wire::{Message, RData, Record};
    let q = Message::iterative_query(
        0x2222,
        Name::parse("www.example.cl").expect("static"),
        RecordType::A,
    );
    let mut m = Message::response_to(&q);
    for i in 0..4u8 {
        let ns = Name::parse(&format!("ns{i}.nic.cl")).expect("static");
        m.authorities.push(Record::new(
            Name::parse("cl").expect("static"),
            Ttl::TWO_DAYS,
            RData::Ns(ns.clone()),
        ));
        m.additionals.push(Record::new(
            ns,
            Ttl::TWO_DAYS,
            RData::A(Ipv4Addr::new(190, 124, 27, 10 + i)),
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_world_resolves() {
        let mut w = bench_world(Ttl::HOUR, ResolverPolicy::default());
        assert!(w.resolve_at(0) >= 2, "cold resolution walks the tree");
        assert_eq!(w.resolve_at(10), 0, "warm resolution hits cache");
    }

    #[test]
    fn sample_referral_round_trips() {
        let m = sample_referral();
        let wire = dnsttl_wire::encode_message(&m).unwrap();
        assert_eq!(dnsttl_wire::decode_message(&wire).unwrap(), m);
    }
}
