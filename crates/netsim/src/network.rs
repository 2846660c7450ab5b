//! The message fabric: servers, addresses, anycast, and exchanges.
//!
//! A [`Network`] owns every DNS server in an experiment, keyed by IP
//! address. Resolvers perform *exchanges*: one query/response round trip
//! whose RTT is sampled from the [`LatencyModel`], with optional loss and
//! a scripted [`FaultPlan`] of outages, degradations and blackouts (the
//! paper's `zurrundedu-offline` experiment is an outage of the child's
//! authoritatives while the parent stays up). Anycast addresses map to
//! several sites in different regions, and clients reach the site with
//! the lowest median RTT — the BGP-like behaviour behind the paper's
//! Route53 comparison (Figure 11b).
//!
//! Messages cross the fabric by reference, not as bytes: an exchange
//! asks the wire codec only how long each message would be
//! (`dnsttl_wire::encoded_len`). That decides UDP truncation, and a
//! message with no legal encoding is a packet that was never sent — a
//! counted timeout. Debug builds additionally assert, on every exchange,
//! that the real encoding has that length and decodes back to the same
//! message.

use crate::fault::FaultPlan;
use crate::latency::{LatencyModel, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use dnsttl_telemetry::{EventKind, Telemetry};
use dnsttl_wire::{encoded_len, Message, WireError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;

/// The address a DNS service listens on. Plain `IpAddr`, re-exported
/// under a protocol-flavoured alias for readability at call sites.
pub type ServiceAddr = IpAddr;

/// Identity of a querying client as a server perceives it: the region it
/// queries from and an opaque tag (one per simulated source address).
/// Passive-measurement experiments group query logs by this, exactly as
/// the paper groups `.nl` traffic by resolver source IP (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId {
    /// Region the query arrived from.
    pub region: Region,
    /// Opaque per-source tag (the simulation's stand-in for a source IP).
    pub tag: u64,
}

/// A DNS server attached to the network.
///
/// Implemented by authoritative servers in `dnsttl-auth` (and by test
/// doubles). Servers are synchronous: one query in, one response out.
pub trait DnsService {
    /// Handles one query from `client`, producing a response.
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message;
}

/// A shared handle to a service; the simulation is single-threaded, so
/// `Rc<RefCell<…>>` is the right tool (no locks, no atomics).
pub type ServiceHandle = Rc<RefCell<dyn DnsService>>;

/// Transport for one exchange.
///
/// Classic DNS over UDP truncates responses above 512 octets
/// (RFC 1035 §4.2.1), setting the TC bit; clients then retry over TCP,
/// paying an extra round trip for the handshake. The simulation models
/// exactly that: [`Transport::Udp`] enforces the limit,
/// [`Transport::Tcp`] carries any size at double the RTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Datagram transport with the classic 512-octet payload limit.
    Udp,
    /// Stream transport: unlimited payload, one extra RTT of handshake.
    Tcp,
}

/// The classic UDP payload limit (RFC 1035 §4.2.1).
pub(crate) const UDP_PAYLOAD_LIMIT: usize = 512;

struct Site {
    region: Region,
    service: ServiceHandle,
}

struct Endpoint {
    sites: Vec<Site>,
    queries_received: u64,
    /// Distinct sources are approximated by the count of distinct
    /// `(client_region, client_tag)` pairs observed.
    sources: std::collections::HashSet<(Region, u64)>,
}

/// Result of one query/response exchange.
#[derive(Debug, Clone)]
pub enum ExchangeOutcome {
    /// The server answered.
    Response {
        /// The server's response (truncated if it outgrew UDP).
        message: Message,
        /// Sampled round-trip time for this exchange.
        rtt: SimDuration,
    },
    /// No answer: packet loss, a scripted fault, an unknown address, or
    /// a message with no wire encoding.
    /// The caller observes `elapsed` (its retransmission timeout).
    Timeout {
        /// How long the caller waited before giving up on this exchange.
        elapsed: SimDuration,
    },
}

impl ExchangeOutcome {
    /// The response message, if any.
    pub fn response(&self) -> Option<&Message> {
        match self {
            ExchangeOutcome::Response { message, .. } => Some(message),
            ExchangeOutcome::Timeout { .. } => None,
        }
    }

    /// Time the exchange consumed, whether it succeeded or not.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            ExchangeOutcome::Response { rtt, .. } => *rtt,
            ExchangeOutcome::Timeout { elapsed } => *elapsed,
        }
    }
}

/// The network fabric for one experiment.
pub struct Network {
    /// Keyed service endpoints. Lookup-only — exchanges address a
    /// specific server and the accounting getters take an address, so
    /// the map is never iterated and its order cannot affect output.
    endpoints: HashMap<ServiceAddr, Endpoint>,
    latency: LatencyModel,
    /// How long a client waits for a lost packet before retrying.
    pub query_timeout: SimDuration,
    telemetry: Telemetry,
    faults: FaultPlan,
}

impl Network {
    /// A network with the given latency model and a 2 s query timeout
    /// (a common resolver default).
    pub fn new(latency: LatencyModel) -> Network {
        Network {
            endpoints: HashMap::new(),
            latency,
            query_timeout: SimDuration::from_secs(2),
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::new(),
        }
    }

    /// Attaches a scripted [`FaultPlan`]; every exchange consults it by
    /// simulation time. An empty plan (the default) injects nothing.
    pub fn with_faults(mut self, plan: FaultPlan) -> Network {
        self.faults = plan;
        self
    }

    /// Replaces the fault plan on an already-built network.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The fault plan in force (empty when none was attached). Drivers
    /// poll [`FaultPlan::flushes_between`] through this to learn about
    /// scheduled resolver cache flushes, which the fabric cannot apply
    /// itself.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attaches a telemetry handle; packet counters, loss events, and
    /// per-region RTT sketches from every exchange land in it. The
    /// default handle is disabled (no-op).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers a unicast server at `addr` in `region`.
    pub fn register(&mut self, addr: ServiceAddr, region: Region, service: ServiceHandle) {
        self.endpoints.insert(
            addr,
            Endpoint {
                sites: vec![Site { region, service }],
                queries_received: 0,
                sources: Default::default(),
            },
        );
    }

    /// Registers an anycast address backed by one site per region given.
    /// All sites share the same service state (like a replicated zone).
    pub fn register_anycast(
        &mut self,
        addr: ServiceAddr,
        regions: &[Region],
        service: ServiceHandle,
    ) {
        self.endpoints.insert(
            addr,
            Endpoint {
                sites: regions
                    .iter()
                    .map(|&region| Site {
                        region,
                        service: service.clone(),
                    })
                    .collect(),
                queries_received: 0,
                sources: Default::default(),
            },
        );
    }

    /// Queries received by `addr` so far (for Table 10's authoritative-
    /// side accounting).
    pub fn queries_received(&self, addr: ServiceAddr) -> u64 {
        self.endpoints
            .get(&addr)
            .map(|e| e.queries_received)
            .unwrap_or(0)
    }

    /// Distinct querying sources seen by `addr` (Table 10's
    /// "Querying IPs" row).
    pub fn distinct_sources(&self, addr: ServiceAddr) -> usize {
        self.endpoints
            .get(&addr)
            .map(|e| e.sources.len())
            .unwrap_or(0)
    }

    /// Performs one query/response exchange from a client in
    /// `client_region` (identified for source accounting by
    /// `client_tag`) to the server at `server`.
    ///
    /// The server sees `query` itself and the caller gets the server's
    /// own `Message`; the codec is asked only for their encoded lengths.
    /// A query or response that cannot be encoded could never have been
    /// sent: it is counted as `net_unencodable` and the caller times out.
    pub fn exchange(
        &mut self,
        client_region: Region,
        client_tag: u64,
        server: ServiceAddr,
        query: &Message,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ExchangeOutcome {
        self.exchange_with(
            client_region,
            client_tag,
            server,
            query,
            now,
            rng,
            Transport::Udp,
        )
    }

    /// [`Network::exchange`] with an explicit transport. Over UDP,
    /// responses larger than `UDP_PAYLOAD_LIMIT` are truncated (TC
    /// bit set, record sections emptied); over TCP the handshake costs
    /// an extra sampled round trip.
    #[allow(clippy::too_many_arguments)]
    pub fn exchange_with(
        &mut self,
        client_region: Region,
        client_tag: u64,
        server: ServiceAddr,
        query: &Message,
        now: SimTime,
        rng: &mut SimRng,
        transport: Transport,
    ) -> ExchangeOutcome {
        let timeout = self.query_timeout;
        self.telemetry
            .count_keyed_at(&metrics::PACKETS_SENT, 1, now.as_millis());
        let degradation = self.faults.degradation(server, now);
        let Some(ep) = self.endpoints.get_mut(&server) else {
            self.telemetry
                .count_keyed_at(&metrics::UNKNOWN_ADDRESS, 1, now.as_millis());
            return ExchangeOutcome::Timeout { elapsed: timeout };
        };
        if self.faults.outage_active(server, now) {
            self.telemetry
                .count_keyed_at(&metrics::FAULT_OUTAGE, 1, now.as_millis());
            self.telemetry
                .event(now.as_millis(), EventKind::Fault, |f| {
                    f.push("fault", "outage");
                    f.push("server", server.to_string());
                });
            return ExchangeOutcome::Timeout { elapsed: timeout };
        }
        if self.latency.sample_loss(rng) {
            self.telemetry
                .count_keyed_at(&metrics::PACKETS_LOST, 1, now.as_millis());
            self.telemetry
                .event(now.as_millis(), EventKind::PacketLoss, |f| {
                    f.push("server", server.to_string());
                    f.push("client_region", client_region.to_string());
                });
            return ExchangeOutcome::Timeout { elapsed: timeout };
        }
        // DDoS-style degradation: extra loss on top of the base model.
        if let Some(deg) = degradation {
            if deg.loss > 0.0 && rng.chance(deg.loss) {
                self.telemetry
                    .count_keyed_at(&metrics::FAULT_DEGRADED_DROP, 1, now.as_millis());
                self.telemetry
                    .event(now.as_millis(), EventKind::Fault, |f| {
                        f.push("fault", "degrade");
                        f.push("server", server.to_string());
                    });
                return ExchangeOutcome::Timeout { elapsed: timeout };
            }
        }
        // Anycast: BGP-like stable routing to the site with the lowest
        // median RTT from the client's region. Sites in blacked-out
        // regions are unreachable; anycast fails over around them,
        // unicast goes dark.
        let site = ep
            .sites
            .iter()
            .filter(|s| !self.faults.blackout_active(s.region, now))
            .min_by(|a, b| {
                self.latency
                    .median_ms(client_region, a.region)
                    .total_cmp(&self.latency.median_ms(client_region, b.region))
            });
        let Some(site) = site else {
            self.telemetry
                .count_keyed_at(&metrics::FAULT_BLACKOUT, 1, now.as_millis());
            self.telemetry
                .event(now.as_millis(), EventKind::Fault, |f| {
                    f.push("fault", "blackout");
                    f.push("server", server.to_string());
                });
            return ExchangeOutcome::Timeout { elapsed: timeout };
        };
        if wire_len(query).is_err() {
            return self.unencodable(now);
        }
        ep.queries_received += 1;
        ep.sources.insert((client_region, client_tag));
        if self.telemetry.is_enabled() && ep.sites.len() > 1 {
            // Anycast catchment accounting: which site this client
            // region lands on (the Figure 11b comparison).
            self.telemetry.count_with(
                "net_anycast_catchment",
                &[
                    ("client", client_region.as_str()),
                    ("site", site.region.as_str()),
                ],
                1,
            );
        }

        let client = ClientId {
            region: client_region,
            tag: client_tag,
        };
        let mut response = site.service.borrow_mut().handle_query(query, client, now);
        let Ok(response_len) = wire_len(&response) else {
            return self.unencodable(now);
        };

        if transport == Transport::Udp && response_len > UDP_PAYLOAD_LIMIT {
            // RFC 1035 §4.2.1: truncate and set TC; the client retries
            // over TCP.
            response.header.truncated = true;
            response.answers.clear();
            response.authorities.clear();
            response.additionals.clear();
        }

        let mut rtt = self.latency.sample_rtt(client_region, site.region, rng);
        if transport == Transport::Tcp {
            // Handshake before the query round trip.
            rtt = rtt + self.latency.sample_rtt(client_region, site.region, rng);
        }
        if let Some(deg) = degradation {
            // Congested paths: inflate the sampled RTT.
            rtt = SimDuration::from_millis((rtt.as_millis() as f64 * deg.latency_factor) as u64);
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .count_keyed_at(&metrics::RESPONSES, 1, now.as_millis());
            self.telemetry.sketch_with(
                "net_rtt_ms",
                &[("client_region", client_region.as_str())],
                rtt.as_millis(),
            );
        }
        ExchangeOutcome::Response {
            message: response,
            rtt,
        }
    }

    /// The outcome for a message the codec cannot put on the wire.
    fn unencodable(&self, now: SimTime) -> ExchangeOutcome {
        self.telemetry
            .count_keyed_at(&metrics::UNENCODABLE, 1, now.as_millis());
        ExchangeOutcome::Timeout {
            elapsed: self.query_timeout,
        }
    }
}

/// Pre-hashed keys for the fabric's unlabelled counters: every
/// exchange bumps at least two of them.
mod metrics {
    use dnsttl_telemetry::MetricKey;

    pub(crate) const PACKETS_SENT: MetricKey = MetricKey::new("net_packets_sent");
    pub(crate) const PACKETS_LOST: MetricKey = MetricKey::new("net_packets_lost");
    pub(crate) const RESPONSES: MetricKey = MetricKey::new("net_responses");
    pub(crate) const UNKNOWN_ADDRESS: MetricKey = MetricKey::new("net_unknown_address");
    pub(crate) const UNENCODABLE: MetricKey = MetricKey::new("net_unencodable");
    pub(crate) const FAULT_OUTAGE: MetricKey = MetricKey::new("net_fault_outage");
    pub(crate) const FAULT_DEGRADED_DROP: MetricKey = MetricKey::new("net_fault_degraded_drop");
    pub(crate) const FAULT_BLACKOUT: MetricKey = MetricKey::new("net_fault_blackout");
}

/// `encoded_len`, with the contract the exchange path rests on checked in
/// debug builds: the real encoding has exactly that length and decodes
/// back to `msg`, and a message without a length has no encoding either.
fn wire_len(msg: &Message) -> Result<usize, WireError> {
    let len = encoded_len(msg);
    debug_assert!(
        match (&len, dnsttl_wire::encode_message(msg)) {
            (Ok(n), Ok(wire)) => {
                wire.len() == *n && dnsttl_wire::decode_message(&wire).as_ref() == Ok(msg)
            }
            (Err(a), Err(b)) => *a == b,
            _ => false,
        },
        "encoded_len disagrees with the codec round trip on {msg:?}"
    );
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_wire::{Name, RData, Rcode, Record, RecordType, Ttl};
    use std::net::Ipv4Addr;

    /// Echo server: answers every query with a fixed A record.
    struct Fixed {
        answer: Ipv4Addr,
    }

    impl DnsService for Fixed {
        fn handle_query(&mut self, query: &Message, _client: ClientId, _now: SimTime) -> Message {
            let mut r = Message::response_to(query);
            r.header.authoritative = true;
            r.header.rcode = Rcode::NoError;
            if let Some(q) = query.question() {
                r.answers.push(Record::new(
                    q.qname.clone(),
                    Ttl::MINUTE,
                    RData::A(self.answer),
                ));
            }
            r
        }
    }

    fn addr(last: u8) -> ServiceAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, last))
    }

    fn query() -> Message {
        Message::iterative_query(1, Name::parse("x.example").unwrap(), RecordType::A)
    }

    #[test]
    fn unicast_exchange_round_trips() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::new(203, 0, 113, 7),
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(1);
        let out = net.exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng);
        let msg = out.response().expect("response");
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(out.elapsed(), SimDuration::from_millis(10));
        assert_eq!(net.queries_received(addr(1)), 1);
        assert_eq!(net.distinct_sources(addr(1)), 1);
    }

    #[test]
    fn unknown_address_times_out() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let mut rng = SimRng::seed_from(1);
        let out = net.exchange(Region::Eu, 0, addr(9), &query(), SimTime::ZERO, &mut rng);
        assert!(out.response().is_none());
        assert_eq!(out.elapsed(), net.query_timeout);
    }

    #[test]
    fn anycast_routes_to_nearest_site() {
        let mut net = Network::new(LatencyModel::internet().with_loss(0.0).with_sigma(0.0));
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register_anycast(addr(1), &[Region::Eu, Region::Na, Region::As], svc);
        let mut rng = SimRng::seed_from(3);
        // A NA client should reach the NA site: ~18 ms intra-region
        // median, far below EU (95) or AS (170).
        let out = net.exchange(Region::Na, 0, addr(1), &query(), SimTime::ZERO, &mut rng);
        let ms = out.elapsed().as_millis();
        assert!((15..=25).contains(&ms), "rtt {ms}ms should be intra-NA");
    }

    #[test]
    fn loss_produces_timeouts_at_expected_rate() {
        let mut net = Network::new(LatencyModel::constant(5.0).with_loss(0.25));
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(4);
        let n = 10_000;
        let timeouts = (0..n)
            .filter(|_| {
                net.exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng)
                    .response()
                    .is_none()
            })
            .count();
        let rate = timeouts as f64 / n as f64;
        // Binomial confidence bound, not a point assertion: the seeded
        // stream still shifts when upstream draws are added (e.g. fault
        // hooks), and a hard ±0.02 window flakes. 4.5σ on Bin(n, p)
        // bounds the false-failure probability below 1e-5 for any
        // stream the seed produces.
        let p = 0.25;
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        let bound = 4.5 * sigma;
        assert!(
            (rate - p).abs() < bound,
            "rate {rate} outside {p} ± {bound:.4} (4.5σ binomial bound, n={n})"
        );
    }

    #[test]
    fn scripted_outage_window_times_out_and_recovers() {
        let plan =
            FaultPlan::new().outage(addr(1), SimTime::from_secs(100), SimTime::from_secs(200));
        let mut net = Network::new(LatencyModel::constant(5.0)).with_faults(plan);
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(11);
        let mut at = |secs: u64, rng: &mut SimRng| {
            net.exchange(
                Region::Eu,
                0,
                addr(1),
                &query(),
                SimTime::from_secs(secs),
                rng,
            )
            .response()
            .is_some()
        };
        assert!(at(99, &mut rng), "before the window the server answers");
        assert!(!at(100, &mut rng), "window start: outage");
        assert!(!at(199, &mut rng), "still inside the window");
        assert!(at(200, &mut rng), "window end: recovered");
        // Outage drops never reach the service.
        assert_eq!(net.queries_received(addr(1)), 2);
    }

    #[test]
    fn degradation_elevates_loss_and_inflates_rtt() {
        let window_end = SimTime::from_secs(1_000_000);
        let plan = FaultPlan::new().degrade(Some(addr(1)), SimTime::ZERO, window_end, 0.9, 4.0);
        let mut net = Network::new(LatencyModel::constant(5.0)).with_faults(plan);
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(12);
        let n = 2_000;
        let mut failures = 0usize;
        for _ in 0..n {
            match net.exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng) {
                ExchangeOutcome::Response { rtt, .. } => {
                    assert_eq!(
                        rtt,
                        SimDuration::from_millis(20),
                        "4x the 5 ms constant RTT"
                    );
                }
                ExchangeOutcome::Timeout { .. } => failures += 1,
            }
        }
        let rate = failures as f64 / n as f64;
        let sigma = (0.9f64 * 0.1 / n as f64).sqrt();
        assert!(
            (rate - 0.9).abs() < 4.5 * sigma,
            "degraded loss rate {rate} outside 0.9 ± 4.5σ"
        );
        // Outside the window the path is clean again.
        let out = net.exchange(Region::Eu, 0, addr(1), &query(), window_end, &mut rng);
        assert_eq!(out.elapsed(), SimDuration::from_millis(5));
    }

    #[test]
    fn blackout_darkens_unicast_but_anycast_fails_over() {
        let plan = FaultPlan::new().blackout(Region::Eu, SimTime::ZERO, SimTime::from_secs(60));
        let mut net =
            Network::new(LatencyModel::internet().with_loss(0.0).with_sigma(0.0)).with_faults(plan);
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc.clone());
        net.register_anycast(addr(2), &[Region::Eu, Region::Na], svc);
        let mut rng = SimRng::seed_from(13);
        // Unicast in the blacked-out region: dark.
        assert!(net
            .exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng)
            .response()
            .is_none());
        // Anycast: the EU client reroutes to the surviving NA site.
        let out = net.exchange(Region::Eu, 0, addr(2), &query(), SimTime::ZERO, &mut rng);
        assert!(out.response().is_some());
        let ms = out.elapsed().as_millis();
        assert!(ms > 50, "EU→NA failover path, not the intra-EU {ms} ms one");
        // After the blackout the unicast server answers again.
        assert!(net
            .exchange(
                Region::Eu,
                0,
                addr(1),
                &query(),
                SimTime::from_secs(60),
                &mut rng
            )
            .response()
            .is_some());
    }

    /// A server whose answers exceed the UDP limit.
    struct Chunky;

    impl DnsService for Chunky {
        fn handle_query(&mut self, query: &Message, _client: ClientId, _now: SimTime) -> Message {
            let mut r = Message::response_to(query);
            r.header.authoritative = true;
            if let Some(q) = query.question() {
                for i in 0..40u8 {
                    r.answers.push(Record::new(
                        q.qname.clone(),
                        Ttl::MINUTE,
                        RData::A(Ipv4Addr::new(203, 0, 113, i)),
                    ));
                }
            }
            r
        }
    }

    #[test]
    fn oversize_udp_responses_truncate_and_tcp_carries_them() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        net.register(addr(1), Region::Eu, Rc::new(RefCell::new(Chunky)));
        let mut rng = SimRng::seed_from(6);
        let udp = net.exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng);
        let msg = udp.response().unwrap();
        assert!(msg.header.truncated, "40 A records exceed 512 octets");
        assert!(msg.answers.is_empty());
        let tcp = net.exchange_with(
            Region::Eu,
            0,
            addr(1),
            &query(),
            SimTime::ZERO,
            &mut rng,
            Transport::Tcp,
        );
        let msg = tcp.response().unwrap();
        assert!(!msg.header.truncated);
        assert_eq!(msg.answers.len(), 40);
        // TCP pays the handshake: exactly two constant RTTs.
        assert_eq!(tcp.elapsed(), SimDuration::from_millis(20));
    }

    /// A server whose response encodes to exactly `octets`: the echoed
    /// question plus one opaque record sized to make up the rest.
    struct Padded {
        octets: usize,
    }

    impl DnsService for Padded {
        fn handle_query(&mut self, query: &Message, _client: ClientId, _now: SimTime) -> Message {
            let mut r = Message::response_to(query);
            r.additionals
                .push(Record::new(Name::root(), Ttl::ZERO, RData::Opt(Vec::new())));
            let pad = self.octets - encoded_len(&r).expect("encodable");
            r.additionals[0].rdata = RData::Opt(vec![0; pad]);
            assert_eq!(encoded_len(&r), Ok(self.octets));
            r
        }
    }

    #[test]
    fn udp_truncates_above_512_octets_and_not_at_them() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        net.register(
            addr(1),
            Region::Eu,
            Rc::new(RefCell::new(Padded { octets: 512 })),
        );
        net.register(
            addr(2),
            Region::Eu,
            Rc::new(RefCell::new(Padded { octets: 513 })),
        );
        let mut rng = SimRng::seed_from(8);
        let mut ask = |server: ServiceAddr, transport: Transport| {
            net.exchange_with(
                Region::Eu,
                0,
                server,
                &query(),
                SimTime::ZERO,
                &mut rng,
                transport,
            )
            .response()
            .cloned()
            .expect("response")
        };
        let fits = ask(addr(1), Transport::Udp);
        assert!(!fits.header.truncated, "512 octets is a legal UDP payload");
        assert_eq!(fits.additionals.len(), 1);
        let cut = ask(addr(2), Transport::Udp);
        assert!(cut.header.truncated, "513 octets is one too many");
        assert!(cut.additionals.is_empty());
        let whole = ask(addr(2), Transport::Tcp);
        assert!(!whole.header.truncated);
        assert_eq!(whole.additionals.len(), 1);
    }

    /// A server that answers with whatever records it was built with.
    struct Canned {
        answers: Vec<Record>,
    }

    impl DnsService for Canned {
        fn handle_query(&mut self, query: &Message, _client: ClientId, _now: SimTime) -> Message {
            let mut r = Message::response_to(query);
            r.answers = self.answers.clone();
            r
        }
    }

    #[test]
    fn unencodable_messages_are_counted_timeouts_not_panics() {
        let owner = || Name::parse("x.example").unwrap();
        let txt = |t: String| Record::new(owner(), Ttl::MINUTE, RData::Txt(t));
        let bad_answers = [
            vec![txt("x".repeat(70_000))],
            vec![txt("caf\u{e9}".into())],
            // 5 000 address records: each fine, together past 65 535 octets.
            vec![Record::new(owner(), Ttl::MINUTE, RData::A(Ipv4Addr::LOCALHOST)); 5_000],
        ];
        let telemetry = Telemetry::new();
        let mut net = Network::new(LatencyModel::constant(10.0));
        net.set_telemetry(telemetry.clone());
        let mut rng = SimRng::seed_from(9);
        let now = SimTime::from_secs(30);
        for (i, answers) in bad_answers.into_iter().enumerate() {
            let server = addr(1 + i as u8);
            net.register(
                server,
                Region::Eu,
                Rc::new(RefCell::new(Canned { answers })),
            );
            for transport in [Transport::Udp, Transport::Tcp] {
                let out =
                    net.exchange_with(Region::Eu, 0, server, &query(), now, &mut rng, transport);
                assert!(out.response().is_none(), "case {i} over {transport:?}");
                assert_eq!(out.elapsed(), net.query_timeout);
            }
            assert_eq!(net.queries_received(server), 2, "the server did answer");
        }
        assert_eq!(telemetry.counter_value("net_unencodable", &[]), 6);
        // A query that cannot be encoded never reaches the server.
        let mut bad_query = query();
        bad_query.additionals.push(txt("\u{fc}ber".into()));
        let out = net.exchange(Region::Eu, 0, addr(1), &bad_query, now, &mut rng);
        assert!(out.response().is_none());
        assert_eq!(net.queries_received(addr(1)), 2);
        assert_eq!(telemetry.counter_value("net_unencodable", &[]), 7);
        assert_eq!(
            telemetry.with_timeseries(|ts| ts.counter_total("net_unencodable")),
            7,
            "counted on the simulated clock"
        );
    }

    #[test]
    fn small_responses_pass_udp_untouched() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(7);
        let out = net.exchange(Region::Eu, 0, addr(1), &query(), SimTime::ZERO, &mut rng);
        assert!(!out.response().unwrap().header.truncated);
    }

    #[test]
    fn distinct_sources_deduplicates_tags() {
        let mut net = Network::new(LatencyModel::constant(5.0));
        let svc = Rc::new(RefCell::new(Fixed {
            answer: Ipv4Addr::LOCALHOST,
        }));
        net.register(addr(1), Region::Eu, svc);
        let mut rng = SimRng::seed_from(5);
        for tag in [1u64, 2, 2, 3, 3, 3] {
            net.exchange(Region::Eu, tag, addr(1), &query(), SimTime::ZERO, &mut rng);
        }
        assert_eq!(net.distinct_sources(addr(1)), 3);
        assert_eq!(net.queries_received(addr(1)), 6);
    }
}
