//! # dnsttl-bench — the paired suite behind `repro bench`
//!
//! [`runner`] is the headless suite behind `repro bench`: interleaved
//! pairs timed in one run, and the gates CI holds their ratios to.
//! Cross-commit numbers belong to the `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

pub use runner::{BenchConfig, BenchReport, Counter, Timing, TIMINGS_MARKER};

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
pub(crate) struct BenchWorld {
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
pub(crate) fn bench_world(child_ttl: Ttl, policy: ResolverPolicy) -> BenchWorld {
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
    pub(crate) fn resolve_at(&mut self, now_s: u64) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_world_resolves() {
        let mut w = bench_world(Ttl::HOUR, ResolverPolicy::default());
        assert!(w.resolve_at(0) >= 2, "cold resolution walks the tree");
        assert_eq!(w.resolve_at(10), 0, "warm resolution hits cache");
    }
}
