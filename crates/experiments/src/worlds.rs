//! World builders: the DNS hierarchies each experiment runs against.
//!
//! Every world reconstructs, inside the simulator, the zone
//! configuration the paper measured on the live Internet — same names,
//! same TTLs, same parent/child disagreements, same bailiwick layouts.

use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_netsim::{LatencyModel, Network, Region};
use dnsttl_resolver::RootHint;
use dnsttl_wire::{Name, RData, Record, SoaData, Ttl};
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::rc::Rc;
use std::sync::Arc;

/// Address book for the simulated infrastructure.
pub mod addrs {
    use super::*;
    /// The root server.
    pub const ROOT: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
    /// `a.nic.uy` (Montevideo).
    pub const UY_A: IpAddr = IpAddr::V4(Ipv4Addr::new(200, 40, 241, 1));
    /// `b.nic.uy` (Montevideo).
    pub const UY_B: IpAddr = IpAddr::V4(Ipv4Addr::new(200, 40, 241, 2));
    /// `c.nic.uy` — the anycast member of the `.uy` NS set.
    pub const UY_C: IpAddr = IpAddr::V4(Ipv4Addr::new(204, 61, 216, 40));
    /// `.co` registry server.
    pub(crate) const CO: IpAddr = IpAddr::V4(Ipv4Addr::new(156, 154, 100, 1));
    /// `.com` gTLD server.
    pub(crate) const COM: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 5, 6, 30));
    /// Google authoritative (anycast).
    pub(crate) const GOOGLE: IpAddr = IpAddr::V4(Ipv4Addr::new(216, 239, 32, 10));
    /// `.org` server.
    pub const ORG: IpAddr = IpAddr::V4(Ipv4Addr::new(199, 19, 56, 1));
    /// ISC's server for `isc.org`.
    pub(crate) const ISC: IpAddr = IpAddr::V4(Ipv4Addr::new(149, 20, 64, 3));
    /// `.nl` servers ns1..ns3.dns.nl plus sns-pb.isc.org.
    pub(crate) const NL: [IpAddr; 4] = [
        IpAddr::V4(Ipv4Addr::new(194, 0, 28, 53)),
        IpAddr::V4(Ipv4Addr::new(194, 146, 106, 42)),
        IpAddr::V4(Ipv4Addr::new(194, 0, 25, 24)),
        IpAddr::V4(Ipv4Addr::new(192, 5, 4, 1)),
    ];
    /// `.net` gTLD server.
    pub const NET: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 55, 83, 30));
    /// `ns1.cachetest.net`.
    pub const CACHETEST: IpAddr = IpAddr::V4(Ipv4Addr::new(18, 184, 0, 10));
    /// The original `sub.cachetest.net` server.
    pub const SUB_OLD: IpAddr = IpAddr::V4(Ipv4Addr::new(18, 184, 0, 20));
    /// The renumbered `sub.cachetest.net` server.
    pub const SUB_NEW: IpAddr = IpAddr::V4(Ipv4Addr::new(18, 184, 0, 21));
    /// The controlled-experiment test server (`mapache-de-madrid.co`).
    pub(crate) const MAPACHE: IpAddr = IpAddr::V4(Ipv4Addr::new(18, 184, 0, 40));
    /// `ns.example`, the one server of [`example_world`](super::example_world).
    pub(crate) const EXAMPLE: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 53));
}

fn rc(server: AuthoritativeServer) -> Rc<RefCell<AuthoritativeServer>> {
    Rc::new(RefCell::new(server))
}

pub(crate) fn name(s: &str) -> Name {
    Name::parse(s).expect("static experiment name")
}

fn v4(addr: IpAddr) -> Ipv4Addr {
    match addr {
        IpAddr::V4(a) => a,
        IpAddr::V6(_) => unreachable!("experiment servers are IPv4"),
    }
}

/// Root hints shared by every world.
pub fn root_hints() -> Vec<RootHint> {
    vec![RootHint {
        ns_name: name("k.root-servers.net"),
        addr: addrs::ROOT,
    }]
}

// ---------------------------------------------------------------------
// §3.2 / §5.3: the .uy world
// ---------------------------------------------------------------------

/// Builds the `.uy` hierarchy with configurable child TTLs.
///
/// Before the paper's intervention: `child_ns_ttl` = 300 s and
/// `child_a_ttl` = 120 s against the root's 172 800 s glue; after,
/// both are 86 400 s (§5.3). The NS set has two unicast servers in
/// South America and one anycast member, like the real `.uy`'s mix of
/// in-bailiwick and globally hosted servers.
pub fn uy_world(child_ns_ttl: Ttl, child_a_ttl: Ttl) -> (Network, Vec<RootHint>) {
    let mut net = Network::new(LatencyModel::internet());

    let root_zone = ZoneBuilder::new(".")
        .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
        .ns("uy", "b.nic.uy", Ttl::TWO_DAYS)
        .ns("uy", "c.nic.uy", Ttl::TWO_DAYS)
        .a("a.nic.uy", "200.40.241.1", Ttl::TWO_DAYS)
        .a("b.nic.uy", "200.40.241.2", Ttl::TWO_DAYS)
        .a("c.nic.uy", "204.61.216.40", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::ROOT,
        Region::Eu,
        rc(AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone)),
    );

    let uy_zone = || {
        ZoneBuilder::new("uy")
            .ns("uy", "a.nic.uy", child_ns_ttl)
            .ns("uy", "b.nic.uy", child_ns_ttl)
            .ns("uy", "c.nic.uy", child_ns_ttl)
            .a("a.nic.uy", "200.40.241.1", child_a_ttl)
            .a("b.nic.uy", "200.40.241.2", child_a_ttl)
            .a("c.nic.uy", "204.61.216.40", child_a_ttl)
            .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
            .build()
    };
    net.register(
        addrs::UY_A,
        Region::Sa,
        rc(AuthoritativeServer::new("a.nic.uy").with_zone(uy_zone())),
    );
    net.register(
        addrs::UY_B,
        Region::Sa,
        rc(AuthoritativeServer::new("b.nic.uy").with_zone(uy_zone())),
    );
    net.register_anycast(
        addrs::UY_C,
        &[Region::Eu, Region::Na, Region::As, Region::Sa],
        rc(AuthoritativeServer::new("c.nic.uy").with_zone(uy_zone())),
    );

    (net, root_hints())
}

// ---------------------------------------------------------------------
// §3.3: the google.co world
// ---------------------------------------------------------------------

/// Builds the `google.co` hierarchy (§3.3): the `.co` parent publishes
/// the delegation with a 900 s TTL and *no glue* (the servers are
/// `ns[1-4].google.com`, out of bailiwick), while Google's own servers
/// answer with 345 600 s.
pub fn google_co_world() -> (Network, Vec<RootHint>) {
    let mut net = Network::new(LatencyModel::internet());

    let root_zone = ZoneBuilder::new(".")
        .ns("co", "ns.cctld.co", Ttl::TWO_DAYS)
        .a("ns.cctld.co", "156.154.100.1", Ttl::TWO_DAYS)
        .ns("com", "a.gtld-servers.net", Ttl::TWO_DAYS)
        .a("a.gtld-servers.net", "192.5.6.30", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::ROOT,
        Region::Eu,
        rc(AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone)),
    );

    let co_zone = ZoneBuilder::new("co")
        .ns("co", "ns.cctld.co", Ttl::DAY)
        .a("ns.cctld.co", "156.154.100.1", Ttl::DAY)
        .ns("google.co", "ns1.google.com", Ttl::from_secs(900))
        .ns("google.co", "ns2.google.com", Ttl::from_secs(900))
        .ns("google.co", "ns3.google.com", Ttl::from_secs(900))
        .ns("google.co", "ns4.google.com", Ttl::from_secs(900))
        .build();
    net.register(
        addrs::CO,
        Region::Na,
        rc(AuthoritativeServer::new("ns.cctld.co").with_zone(co_zone)),
    );

    let com_zone = ZoneBuilder::new("com")
        .ns("com", "a.gtld-servers.net", Ttl::TWO_DAYS)
        .ns("google.com", "ns1.google.com", Ttl::TWO_DAYS)
        .a("ns1.google.com", "216.239.32.10", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::COM,
        Region::Na,
        rc(AuthoritativeServer::new("a.gtld-servers.net").with_zone(com_zone)),
    );

    let google_ttl = Ttl::from_secs(345_600);
    let google = AuthoritativeServer::new("ns1.google.com")
        .with_zone(
            ZoneBuilder::new("google.com")
                .ns("google.com", "ns1.google.com", google_ttl)
                .a("ns1.google.com", "216.239.32.10", google_ttl)
                .a("ns2.google.com", "216.239.32.10", google_ttl)
                .a("ns3.google.com", "216.239.32.10", google_ttl)
                .a("ns4.google.com", "216.239.32.10", google_ttl)
                .build(),
        )
        .with_zone(
            ZoneBuilder::new("google.co")
                .ns("google.co", "ns1.google.com", google_ttl)
                .ns("google.co", "ns2.google.com", google_ttl)
                .ns("google.co", "ns3.google.com", google_ttl)
                .ns("google.co", "ns4.google.com", google_ttl)
                .a("www.google.co", "172.217.28.99", Ttl::from_secs(300))
                .build(),
        );
    net.register_anycast(
        addrs::GOOGLE,
        &[Region::Eu, Region::Na, Region::As, Region::Sa, Region::Oc],
        rc(google),
    );

    (net, root_hints())
}

// ---------------------------------------------------------------------
// §3.4: the .nl world
// ---------------------------------------------------------------------

/// Handles to the logged `.nl` servers.
pub struct NlWorld {
    /// The network with the whole hierarchy attached.
    pub net: Network,
    /// Root hints.
    pub roots: Vec<RootHint>,
    /// The two logged authoritative servers (ns1 and ns3.dns.nl), as
    /// in the paper's ENTRADA capture.
    pub logged: [Rc<RefCell<AuthoritativeServer>>; 2],
    /// The NS-host A-record names clients resolve.
    pub ns_host_names: Vec<Name>,
}

/// Builds the `.nl` world: four authoritative servers (three
/// `dns.nl` hosts with 172 800 s root glue vs 3 600 s child TTL, plus
/// the out-of-bailiwick `sns-pb.isc.org`), with passive query logging
/// enabled at ns1 and ns3.
pub fn nl_world() -> NlWorld {
    let mut net = Network::new(LatencyModel::internet());

    let root_zone = ZoneBuilder::new(".")
        .ns("nl", "ns1.dns.nl", Ttl::TWO_DAYS)
        .ns("nl", "ns2.dns.nl", Ttl::TWO_DAYS)
        .ns("nl", "ns3.dns.nl", Ttl::TWO_DAYS)
        .ns("nl", "sns-pb.isc.org", Ttl::TWO_DAYS)
        .a("ns1.dns.nl", "194.0.28.53", Ttl::TWO_DAYS)
        .a("ns2.dns.nl", "194.146.106.42", Ttl::TWO_DAYS)
        .a("ns3.dns.nl", "194.0.25.24", Ttl::TWO_DAYS)
        .ns("org", "ns.org", Ttl::TWO_DAYS)
        .a("ns.org", "199.19.56.1", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::ROOT,
        Region::Eu,
        rc(AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone)),
    );

    let org_zone = ZoneBuilder::new("org")
        .ns("org", "ns.org", Ttl::DAY)
        .ns("isc.org", "ns1.isc.org", Ttl::DAY)
        .a("ns1.isc.org", "149.20.64.3", Ttl::DAY)
        .build();
    net.register(
        addrs::ORG,
        Region::Na,
        rc(AuthoritativeServer::new("ns.org").with_zone(org_zone)),
    );
    let isc_zone = ZoneBuilder::new("isc.org")
        .ns("isc.org", "ns1.isc.org", Ttl::HOUR)
        .a("ns1.isc.org", "149.20.64.3", Ttl::HOUR)
        .a("sns-pb.isc.org", "192.5.4.1", Ttl::HOUR)
        .build();
    net.register(
        addrs::ISC,
        Region::Na,
        rc(AuthoritativeServer::new("ns1.isc.org").with_zone(isc_zone)),
    );

    // The child zone: 3600 s for everything, against 2-day glue.
    let nl_zone = || {
        ZoneBuilder::new("nl")
            .ns("nl", "ns1.dns.nl", Ttl::HOUR)
            .ns("nl", "ns2.dns.nl", Ttl::HOUR)
            .ns("nl", "ns3.dns.nl", Ttl::HOUR)
            .ns("nl", "sns-pb.isc.org", Ttl::HOUR)
            .a("ns1.dns.nl", "194.0.28.53", Ttl::HOUR)
            .a("ns2.dns.nl", "194.146.106.42", Ttl::HOUR)
            .a("ns3.dns.nl", "194.0.25.24", Ttl::HOUR)
            .build()
    };
    let names = ["ns1.dns.nl", "ns2.dns.nl", "ns3.dns.nl", "sns-pb.isc.org"];
    let mut logged = Vec::new();
    for (i, addr) in addrs::NL.iter().enumerate() {
        let mut server = AuthoritativeServer::new(names[i]).with_zone(nl_zone());
        if i == 0 || i == 2 {
            server.enable_logging();
        }
        let handle = rc(server);
        if i == 0 || i == 2 {
            logged.push(handle.clone());
        }
        let region = if i == 3 { Region::Na } else { Region::Eu };
        net.register(*addr, region, handle);
    }

    NlWorld {
        net,
        roots: root_hints(),
        logged: [logged[0].clone(), logged[1].clone()],
        ns_host_names: vec![name("ns1.dns.nl"), name("ns2.dns.nl"), name("ns3.dns.nl")],
    }
}

// ---------------------------------------------------------------------
// §4: the cachetest.net renumbering worlds
// ---------------------------------------------------------------------

/// An experiment VM, where the paper ran its own zones on EC2 (§4's
/// renumbering, §6.2's controlled TTLs): one zone per apex, each with
/// the apex NS set, the host's address `addr` where the host is in the
/// zone, a 60 s SOA, and `*.<apex> AAAA marker`, which answers every
/// probe's own `PROBEID.<apex>` and tells the VMs apart.
fn vm(
    apexes: &[&str],
    ns_host: &str,
    addr: IpAddr,
    marker: Ipv6Addr,
    [ns_ttl, a_ttl, aaaa_ttl]: [Ttl; 3],
) -> AuthoritativeServer {
    let soa = RData::Soa(Arc::new(SoaData {
        mname: name(ns_host),
        rname: name("hostmaster.invalid"),
        serial: 1,
        refresh: 7_200,
        retry: 3_600,
        expire: 1_209_600,
        minimum: 60,
    }));
    let mut server = AuthoritativeServer::new(ns_host);
    for &apex in apexes {
        let mut zone = ZoneBuilder::new(apex)
            .ns(apex, ns_host, ns_ttl)
            .record(Record::new(name(apex), Ttl::MINUTE, soa.clone()))
            .aaaa(&format!("*.{apex}"), &marker.to_string(), aaaa_ttl);
        if name(ns_host).is_subdomain_of(&name(apex)) {
            zone = zone.a(ns_host, &addr.to_string(), a_ttl);
        }
        server.add_zone(zone.build());
    }
    server
}

/// The §4 experiment world, in either bailiwick configuration.
pub struct CachetestWorld {
    /// The network.
    pub net: Network,
    /// Root hints.
    pub roots: Vec<RootHint>,
    /// `ns1.cachetest.net` — the parent of the sub zone; renumbering
    /// rewrites its glue.
    pub parent: Rc<RefCell<AuthoritativeServer>>,
    /// The `.com` registry server (glue for the out-of-bailiwick NS
    /// host; `None` in the in-bailiwick configuration).
    pub com: Option<Rc<RefCell<AuthoritativeServer>>>,
}

/// The marker AAAA of the original server.
pub(crate) const OLD_MARKER: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x0001);
/// The marker AAAA of the renumbered server.
pub const NEW_MARKER: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x0002);

/// Builds the §4 world. With `out_of_bailiwick = false` the sub zone's
/// server is `ns1.sub.cachetest.net` (glue in the parent, NS 3600 s /
/// A 7200 s); with `true` it is `ns1.zurrundedu.com` (no glue in
/// cachetest.net; the address comes from `.com` / the host's own
/// zone, same TTLs). Call [`CachetestWorld::renumber`] at t = 9 min.
pub fn cachetest_world(out_of_bailiwick: bool) -> CachetestWorld {
    let mut net = Network::new(LatencyModel::internet());

    let root_zone = ZoneBuilder::new(".")
        .ns("net", "a.gtld-servers.net", Ttl::TWO_DAYS)
        .a("a.gtld-servers.net", "192.55.83.30", Ttl::TWO_DAYS)
        .ns("com", "a.gtld-servers.net", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::ROOT,
        Region::Eu,
        rc(AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone)),
    );

    // .net delegates cachetest.net with the registry's default 2-day
    // TTLs (Figure 5).
    let net_zone = ZoneBuilder::new("net")
        .ns("net", "a.gtld-servers.net", Ttl::TWO_DAYS)
        .ns("cachetest.net", "ns1.cachetest.net", Ttl::TWO_DAYS)
        .a("ns1.cachetest.net", "18.184.0.10", Ttl::TWO_DAYS)
        .build();

    let ns_host = if out_of_bailiwick {
        "ns1.zurrundedu.com"
    } else {
        "ns1.sub.cachetest.net"
    };

    // cachetest.net: our zone, TTL 3600 s; it delegates
    // sub.cachetest.net to the experiment server. In bailiwick the
    // delegation carries glue (NS 3600 s, A 7200 s).
    let mut cachetest_builder = ZoneBuilder::new("cachetest.net")
        .ns("cachetest.net", "ns1.cachetest.net", Ttl::HOUR)
        .a("ns1.cachetest.net", "18.184.0.10", Ttl::HOUR)
        .ns("sub.cachetest.net", ns_host, Ttl::HOUR);
    if !out_of_bailiwick {
        cachetest_builder = cachetest_builder.a(ns_host, "18.184.0.20", Ttl::from_secs(7_200));
    }
    let parent =
        rc(AuthoritativeServer::new("ns1.cachetest.net").with_zone(cachetest_builder.build()));

    // The same gTLD infrastructure serves .net and, out of bailiwick,
    // .com, which delegates zurrundedu.com. The registry pins its own
    // 2-day TTLs on delegation data — which is why §4.4 finds OpenDNS
    // (parent-centric) serving the old address long after the child's
    // 7200 s A record rolled over. Renumbering still propagates into
    // this glue within seconds (.com dynamic updates), but
    // parent-centric caches hold the *old* copy for up to two days.
    let mut gtld = AuthoritativeServer::new("a.gtld-servers.net").with_zone(net_zone);
    let mut apexes = vec!["sub.cachetest.net"];
    if out_of_bailiwick {
        gtld.add_zone(
            ZoneBuilder::new("com")
                .ns("com", "a.gtld-servers.net", Ttl::TWO_DAYS)
                .ns("zurrundedu.com", "ns1.zurrundedu.com", Ttl::TWO_DAYS)
                .a("ns1.zurrundedu.com", "18.184.0.20", Ttl::TWO_DAYS)
                .build(),
        );
        apexes.push("zurrundedu.com");
    }
    let gtld = rc(gtld);
    net.register(addrs::NET, Region::Na, gtld.clone());
    net.register(addrs::CACHETEST, Region::Eu, parent.clone());

    // The experiment VMs: NS 3600 s, A 7200 s and AAAA 60 s ("one
    // tenth our probe interval"), for sub.cachetest.net and, out of
    // bailiwick, the NS host's own zone zurrundedu.com.
    let ttls = [Ttl::HOUR, Ttl::from_secs(7_200), Ttl::MINUTE];
    for (addr, marker) in [(addrs::SUB_OLD, OLD_MARKER), (addrs::SUB_NEW, NEW_MARKER)] {
        net.register(
            addr,
            Region::Eu,
            rc(vm(&apexes, ns_host, addr, marker, ttls)),
        );
    }

    CachetestWorld {
        net,
        roots: root_hints(),
        parent,
        com: out_of_bailiwick.then_some(gtld),
    }
}

impl CachetestWorld {
    /// Renumbers the sub-zone's name server to the new VM: rewrites the
    /// glue in the parent zone (cachetest.net, or `.com` for the
    /// out-of-bailiwick host), exactly as §4 does nine minutes in.
    pub fn renumber(&self) {
        renumber(&self.parent, self.com.as_deref());
    }
}

/// [`CachetestWorld::renumber`] over the two servers it edits: `.com`
/// when the world has it (out of bailiwick), else the parent zone.
pub(crate) fn renumber(
    parent: &RefCell<AuthoritativeServer>,
    com: Option<&RefCell<AuthoritativeServer>>,
) {
    let new_addr = v4(addrs::SUB_NEW);
    if let Some(gtld) = com {
        let mut gtld = gtld.borrow_mut();
        let zone = gtld.zone_mut(&name("com")).expect("com zone");
        zone.replace_address(&name("ns1.zurrundedu.com"), new_addr, Ttl::from_secs(7_200));
    } else {
        let mut parent = parent.borrow_mut();
        let zone = parent
            .zone_mut(&name("cachetest.net"))
            .expect("cachetest zone");
        zone.replace_address(
            &name("ns1.sub.cachetest.net"),
            new_addr,
            Ttl::from_secs(7_200),
        );
    }
}

// ---------------------------------------------------------------------
// §6.2: the controlled-TTL world (Table 10 / Figure 11)
// ---------------------------------------------------------------------

/// Builds the controlled-experiment world: `mapache-de-madrid.co`
/// served from Frankfurt (EU) — or from a 6-region anycast set — with
/// a configurable AAAA TTL.
///
/// Returns the network, hints, and the test server's address (for
/// Table 10's authoritative-side counters).
pub(crate) fn controlled_world(aaaa_ttl: Ttl, anycast: bool) -> (Network, Vec<RootHint>, IpAddr) {
    let mut net = Network::new(LatencyModel::internet());

    let root_zone = ZoneBuilder::new(".")
        .ns("co", "ns.cctld.co", Ttl::TWO_DAYS)
        .a("ns.cctld.co", "156.154.100.1", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::ROOT,
        Region::Eu,
        rc(AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone)),
    );

    let co_zone = ZoneBuilder::new("co")
        .ns("co", "ns.cctld.co", Ttl::DAY)
        .a("ns.cctld.co", "156.154.100.1", Ttl::DAY)
        .ns(
            "mapache-de-madrid.co",
            "ns1.mapache-de-madrid.co",
            Ttl::TWO_DAYS,
        )
        .a("ns1.mapache-de-madrid.co", "18.184.0.40", Ttl::TWO_DAYS)
        .build();
    net.register(
        addrs::CO,
        Region::Na,
        rc(AuthoritativeServer::new("ns.cctld.co").with_zone(co_zone)),
    );

    let handle = rc(vm(
        &["mapache-de-madrid.co"],
        "ns1.mapache-de-madrid.co",
        addrs::MAPACHE,
        Ipv6Addr::new(0x2001, 0xdb8, 0xaa, 0, 0, 0, 0, 1),
        [Ttl::TWO_DAYS, Ttl::TWO_DAYS, aaaa_ttl],
    ));
    if anycast {
        // Route53-like: sites on every continent.
        net.register_anycast(addrs::MAPACHE, &Region::ALL, handle);
    } else {
        // A single EC2 Frankfurt origin.
        net.register(addrs::MAPACHE, Region::Eu, handle);
    }
    // Table 10's "Querying IPs": the one address whose sources a
    // campaign reads.
    net.count_sources(addrs::MAPACHE);

    (net, root_hints(), addrs::MAPACHE)
}

// ---------------------------------------------------------------------
// The client experiments' one-zone world
// ---------------------------------------------------------------------

/// Builds the world the client experiments share: the root delegates
/// `example` to `ns.example` at [`addrs::EXAMPLE`] (NS and glue for two
/// days), where `child` serves it. Both servers sit in Europe behind
/// `latency`; the hints are [`root_hints`].
pub(crate) fn example_world(latency: LatencyModel, child: AuthoritativeServer) -> Network {
    let mut net = Network::new(latency);
    let root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("example", "ns.example", Ttl::TWO_DAYS)
            .a("ns.example", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    net.register(addrs::ROOT, Region::Eu, rc(root));
    net.register(addrs::EXAMPLE, Region::Eu, rc(child));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_core::ResolverPolicy;
    use dnsttl_netsim::{ClientId, DnsService, SimRng, SimTime};
    use dnsttl_resolver::RecursiveResolver;
    use dnsttl_wire::{Message, RRset, Rcode, RecordType};

    fn resolver(roots: Vec<RootHint>) -> RecursiveResolver {
        RecursiveResolver::new(
            "t",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            roots,
            SimRng::seed_from(5),
        )
    }

    /// A recycled message — TC and AA set, every section full — comes
    /// back from `respond_into` as `handle_query`'s fresh answer, on
    /// every kind of answer the §4 VM gives.
    #[test]
    fn a_synthetic_zone_fills_a_recycled_message_as_it_answers_afresh() {
        let ttls = [Ttl::HOUR, Ttl::from_secs(7_200), Ttl::MINUTE];
        let apexes = ["sub.cachetest.net"];
        let mut service = vm(
            &apexes,
            "ns1.sub.cachetest.net",
            addrs::SUB_OLD,
            OLD_MARKER,
            ttls,
        );
        let ask = |qname: &str, qtype| Message::query(7, name(qname), qtype);
        let mut question_less = ask("sub.cachetest.net", RecordType::NS);
        question_less.question = None;
        let cases = [
            (ask("sub.cachetest.net", RecordType::NS), Rcode::NoError),
            (ask("ns1.sub.cachetest.net", RecordType::A), Rcode::NoError),
            (ask("1.sub.cachetest.net", RecordType::AAAA), Rcode::NoError),
            (ask("1.sub.cachetest.net", RecordType::TXT), Rcode::NoError),
            (ask("www.example", RecordType::AAAA), Rcode::Refused),
            (question_less, Rcode::FormErr),
        ];
        let client = ClientId {
            region: Region::Eu,
            tag: 0,
        };
        let stale = RRset::new(
            name("stale.example"),
            RecordType::A,
            Ttl::HOUR,
            RData::A(Ipv4Addr::BROADCAST),
        );
        for (query, rcode) in cases {
            let mut recycled = ask("old.example", RecordType::MX);
            recycled.header.truncated = true;
            recycled.header.authoritative = true;
            recycled.answers = vec![stale.clone(); 3];
            recycled.authorities = vec![stale.clone(); 2];
            recycled.additionals = vec![stale.clone(); 2];
            service.respond_into(&query, client, SimTime::ZERO, &mut recycled);
            let fresh = service.handle_query(&query, client, SimTime::ZERO);
            assert_eq!(recycled, fresh, "{:?}", query.question);
            assert_eq!(fresh.header.rcode, rcode, "{:?}", query.question);
        }
    }

    #[test]
    fn uy_world_resolves_with_child_ttls() {
        let (mut net, roots) = uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
        let mut r = resolver(roots);
        let out = r.resolve(&name("uy"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 300);
        let out = r.resolve(&name("a.nic.uy"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 120);
    }

    #[test]
    fn google_co_world_returns_long_child_ns_ttl() {
        let (mut net, roots) = google_co_world();
        let mut r = resolver(roots);
        let out = r.resolve(&name("google.co"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 345_600);
    }

    #[test]
    fn nl_world_logs_at_two_servers_only() {
        let NlWorld {
            mut net,
            roots,
            logged,
            ..
        } = nl_world();
        let mut r = resolver(roots);
        for _ in 0..8 {
            // Repeated cold-ish resolutions rotate across the four NS.
            let out = r.resolve(&name("ns1.dns.nl"), RecordType::A, SimTime::ZERO, &mut net);
            assert_eq!(out.answer.header.rcode, Rcode::NoError);
            r.clear_cache();
        }
        let logged: usize = logged
            .iter()
            .map(|s| s.borrow_mut().drain_log().count())
            .sum();
        assert!(logged > 0, "some queries must land at logged servers");
    }

    #[test]
    fn cachetest_in_bailiwick_switches_after_renumber() {
        let mut world = cachetest_world(false);
        let mut r = resolver(world.roots.clone());
        let q = name("p1.sub.cachetest.net");
        let out = r.resolve(&q, RecordType::AAAA, SimTime::ZERO, &mut world.net);
        assert_eq!(
            out.answer.answers[0].rdatas[0],
            RData::Aaaa(OLD_MARKER),
            "before renumber: old VM answers"
        );
        world.renumber();
        // Within NS lifetime: cached glue still points at the old VM.
        let out = r.resolve(
            &q,
            RecordType::AAAA,
            SimTime::from_secs(1_200),
            &mut world.net,
        );
        assert_eq!(out.answer.answers[0].rdatas[0], RData::Aaaa(OLD_MARKER));
        // After the NS TTL (3600 s): the re-fetched referral glue
        // carries the new address (§4.2's coupled lifetimes).
        let out = r.resolve(
            &q,
            RecordType::AAAA,
            SimTime::from_secs(3_700),
            &mut world.net,
        );
        assert_eq!(out.answer.answers[0].rdatas[0], RData::Aaaa(NEW_MARKER));
    }

    #[test]
    fn cachetest_out_of_bailiwick_keeps_address_past_ns_expiry() {
        let mut world = cachetest_world(true);
        let mut r = resolver(world.roots.clone());
        let q = name("p1.sub.cachetest.net");
        let out = r.resolve(&q, RecordType::AAAA, SimTime::ZERO, &mut world.net);
        assert_eq!(out.answer.answers[0].rdatas[0], RData::Aaaa(OLD_MARKER));
        world.renumber();
        // Past the NS TTL but inside the address's 7200 s: still old
        // (§4.3: out-of-bailiwick addresses live their full TTL).
        let out = r.resolve(
            &q,
            RecordType::AAAA,
            SimTime::from_secs(3_700),
            &mut world.net,
        );
        assert_eq!(out.answer.answers[0].rdatas[0], RData::Aaaa(OLD_MARKER));
        // Past the address TTL: new server.
        let out = r.resolve(
            &q,
            RecordType::AAAA,
            SimTime::from_secs(7_300),
            &mut world.net,
        );
        assert_eq!(out.answer.answers[0].rdatas[0], RData::Aaaa(NEW_MARKER));
    }

    #[test]
    fn controlled_world_counts_authoritative_queries() {
        let (mut net, roots, test_addr) = controlled_world(Ttl::MINUTE, false);
        let mut r = resolver(roots);
        let q = name("1.mapache-de-madrid.co");
        r.resolve(&q, RecordType::AAAA, SimTime::ZERO, &mut net);
        // TTL 60: a repeat at 120 s must miss and re-query.
        r.resolve(&q, RecordType::AAAA, SimTime::from_secs(120), &mut net);
        assert!(net.queries_received(test_addr) >= 2);
    }
}
