//! The stub resolver — the client side of the paper's three-tier
//! picture ("client software (the stub resolver, provided by OS
//! libraries) that contacts recursive resolvers", §1).
//!
//! A [`StubResolver`] is what an application links against: it holds a
//! list of recursive resolvers (like `/etc/resolv.conf` nameservers), a
//! search list, and retry behaviour, and turns host names into address
//! lists. It does no caching of its own beyond what the recursive
//! provides — exactly like the common OS stubs.

use crate::resolver::RecursiveResolver;
use dnsttl_netsim::{Network, SimDuration, SimTime};
use dnsttl_wire::{Name, RData, Rcode, RecordType};
use std::cell::RefCell;
use std::net::IpAddr;
use std::rc::Rc;

/// A shared handle to a recursive resolver (one `nameserver` line).
pub type ResolverHandle = Rc<RefCell<RecursiveResolver>>;

/// Stub configuration, `resolv.conf`-shaped.
#[derive(Clone)]
pub struct StubConfig {
    /// Recursive resolvers, tried in order (`nameserver`).
    pub servers: Vec<ResolverHandle>,
    /// Suffixes appended to relative names (`search`).
    pub search: Vec<Name>,
    /// Names with at least this many dots are tried as-is first
    /// (`ndots`; glibc default 1).
    pub ndots: usize,
    /// Attempts per server before failing over (`attempts`).
    pub attempts: u8,
}

impl StubConfig {
    /// A minimal config with one server and no search list.
    pub fn new(server: ResolverHandle) -> StubConfig {
        StubConfig {
            servers: vec![server],
            search: Vec::new(),
            ndots: 1,
            attempts: 2,
        }
    }
}

/// The result of a host lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLookup {
    /// The fully-qualified name that finally resolved (after the
    /// search list was applied).
    pub canonical: Name,
    /// All addresses, A then AAAA.
    pub addresses: Vec<IpAddr>,
    /// Total client-observed time.
    pub elapsed: SimDuration,
}

/// Errors a stub can return to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubError {
    /// Every candidate name returned NXDOMAIN.
    NotFound,
    /// The name exists but has no address records.
    NoAddresses,
    /// Every server failed (SERVFAIL / timeouts).
    ServersFailed,
    /// The input was not a usable name.
    BadName,
}

/// An application-facing stub resolver.
pub struct StubResolver {
    config: StubConfig,
}

impl StubResolver {
    /// Creates a stub with the given configuration.
    ///
    /// # Panics
    /// Panics when no servers are configured — a stub with an empty
    /// `resolv.conf` cannot do anything.
    pub fn new(config: StubConfig) -> StubResolver {
        assert!(
            !config.servers.is_empty(),
            "stub resolver needs at least one nameserver"
        );
        StubResolver { config }
    }

    /// The candidate FQDNs for `host`, in the glibc try order: as-is
    /// first when it has ≥ `ndots` dots (or is absolute), then each
    /// search suffix.
    pub(crate) fn candidates(&self, host: &str) -> Result<Vec<Name>, StubError> {
        let absolute = host.ends_with('.');
        let dots = host.trim_end_matches('.').matches('.').count();
        let as_is = Name::parse(host).map_err(|_| StubError::BadName)?;
        let mut out = Vec::new();
        if absolute || dots >= self.config.ndots {
            out.push(as_is.clone());
        }
        if !absolute {
            for suffix in &self.config.search {
                let mut combined = suffix.clone();
                // Prepend the host's labels onto the suffix.
                for label in as_is.labels().rev() {
                    combined = match combined.child(label) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                }
                out.push(combined);
            }
            if dots < self.config.ndots {
                out.push(as_is);
            }
        }
        out.dedup();
        if out.is_empty() {
            return Err(StubError::BadName);
        }
        Ok(out)
    }

    /// Resolves `host` to addresses, walking the search list and the
    /// server list with retries — `getaddrinfo`, in miniature.
    pub fn lookup_host(
        &self,
        host: &str,
        now: SimTime,
        net: &mut Network,
    ) -> Result<HostLookup, StubError> {
        let candidates = self.candidates(host)?;
        let mut elapsed = SimDuration::ZERO;
        let mut any_server_answered = false;
        for candidate in candidates {
            let mut nxdomain = false;
            'servers: for server in &self.config.servers {
                for _attempt in 0..self.config.attempts.max(1) {
                    let mut server = server.borrow_mut();
                    let a = server.resolve(&candidate, RecordType::A, now, net);
                    elapsed = elapsed + a.elapsed;
                    match a.answer.header.rcode {
                        Rcode::ServFail => continue, // retry
                        Rcode::NxDomain => {
                            any_server_answered = true;
                            nxdomain = true;
                            break 'servers;
                        }
                        _ => {}
                    }
                    let mut addresses: Vec<IpAddr> = a
                        .answer
                        .answers
                        .iter()
                        .filter_map(|r| match &r.rdata {
                            RData::A(v4) => Some(IpAddr::V4(*v4)),
                            _ => None,
                        })
                        .collect();
                    let aaaa = server.resolve(&candidate, RecordType::AAAA, now, net);
                    elapsed = elapsed + aaaa.elapsed;
                    addresses.extend(aaaa.answer.answers.iter().filter_map(|r| match &r.rdata {
                        RData::Aaaa(v6) => Some(IpAddr::V6(*v6)),
                        _ => None,
                    }));
                    if addresses.is_empty() {
                        return Err(StubError::NoAddresses);
                    }
                    return Ok(HostLookup {
                        canonical: candidate,
                        addresses,
                        elapsed,
                    });
                }
            }
            if nxdomain {
                continue; // next search-list candidate
            }
        }
        if any_server_answered {
            Err(StubError::NotFound)
        } else {
            Err(StubError::ServersFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
    use dnsttl_core::ResolverPolicy;
    use dnsttl_netsim::{LatencyModel, Region, SimRng};
    use dnsttl_wire::Ttl;
    use std::net::Ipv4Addr;

    fn world() -> (Network, ResolverHandle) {
        let root_addr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
        let child_addr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("corp", "ns.corp", Ttl::TWO_DAYS)
                .a("ns.corp", "192.0.2.53", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.corp").with_zone(
            ZoneBuilder::new("corp")
                .ns("corp", "ns.corp", Ttl::HOUR)
                .a("web.corp", "203.0.113.80", Ttl::HOUR)
                .aaaa("web.corp", "2001:db8::80", Ttl::HOUR)
                .a("db.prod.corp", "203.0.113.81", Ttl::HOUR)
                .build(),
        );
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
        let recursive = RecursiveResolver::new(
            "stub-upstream",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            vec![crate::resolver::RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: root_addr,
            }],
            SimRng::seed_from(7),
        );
        (net, Rc::new(RefCell::new(recursive)))
    }

    #[test]
    fn absolute_lookup_returns_both_families() {
        let (mut net, server) = world();
        let stub = StubResolver::new(StubConfig::new(server));
        let result = stub
            .lookup_host("web.corp.", SimTime::ZERO, &mut net)
            .unwrap();
        assert_eq!(result.addresses.len(), 2);
        assert!(result.addresses[0].is_ipv4());
        assert!(result.addresses[1].is_ipv6());
        assert!(result.elapsed.as_millis() > 0);
    }

    #[test]
    fn search_list_expands_short_names() {
        let (mut net, server) = world();
        let mut config = StubConfig::new(server);
        config.search = vec![
            Name::parse("prod.corp").unwrap(),
            Name::parse("corp").unwrap(),
        ];
        let stub = StubResolver::new(config);
        // "db" has 0 dots < ndots=1 → search list first: db.prod.corp.
        let result = stub.lookup_host("db", SimTime::ZERO, &mut net).unwrap();
        assert_eq!(result.canonical, Name::parse("db.prod.corp").unwrap());
        // "web" resolves via the second suffix.
        let result = stub.lookup_host("web", SimTime::ZERO, &mut net).unwrap();
        assert_eq!(result.canonical, Name::parse("web.corp").unwrap());
    }

    #[test]
    fn nxdomain_walks_the_whole_search_list_then_fails() {
        let (mut net, server) = world();
        let mut config = StubConfig::new(server);
        config.search = vec![Name::parse("corp").unwrap()];
        let stub = StubResolver::new(config);
        assert_eq!(
            stub.lookup_host("missing", SimTime::ZERO, &mut net),
            Err(StubError::NotFound)
        );
    }

    #[test]
    fn dead_servers_reported_distinctly() {
        let (mut net, server) = world();
        // Kill the whole world.
        net.set_online(IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4)), false);
        net.set_online(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53)), false);
        let stub = StubResolver::new(StubConfig::new(server));
        assert_eq!(
            stub.lookup_host("web.corp.", SimTime::ZERO, &mut net),
            Err(StubError::ServersFailed)
        );
    }

    #[test]
    fn failover_to_second_server() {
        let (mut net, dead) = world();
        // First server's policy never succeeds because we point its
        // root hint nowhere.
        let broken = RecursiveResolver::new(
            "broken",
            ResolverPolicy::default(),
            Region::Eu,
            2,
            vec![crate::resolver::RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 250)), // unregistered
            }],
            SimRng::seed_from(8),
        );
        let config = StubConfig {
            servers: vec![Rc::new(RefCell::new(broken)), dead],
            search: Vec::new(),
            ndots: 1,
            attempts: 1,
        };
        let stub = StubResolver::new(config);
        let result = stub
            .lookup_host("web.corp.", SimTime::ZERO, &mut net)
            .unwrap();
        assert!(
            !result.addresses.is_empty(),
            "second server must save the lookup"
        );
    }

    #[test]
    fn bad_names_rejected() {
        let (_net, server) = world();
        let stub = StubResolver::new(StubConfig::new(server));
        assert!(stub.candidates("bad..name").is_err());
    }
}
