//! The authoritative server: zones behind a query interface.

use crate::zone::{Walk, Zone};
use dnsttl_netsim::{ClientId, DnsService, SimTime};
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::{Members, Message, Name, Rcode};
use std::sync::Arc;

/// One logged query, as a passive capture (ENTRADA-style) would record
/// it: who asked what, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedQuery {
    /// Arrival time.
    pub at: SimTime,
    /// Querying client (resolver) identity.
    pub client: ClientId,
    /// Queried name.
    pub qname: Name,
}

/// An authoritative DNS server holding one or more zones.
///
/// Implements [`DnsService`], so it can be registered with the network
/// fabric under one or more addresses (the paper's `.nl` has four NS
/// hosts; experiments register the same server state under each).
pub struct AuthoritativeServer {
    /// Human-readable identity, e.g. `"ns1.dns.nl"`.
    pub name: String,
    /// Each zone with its origin's label count, which `best_zone`
    /// ranks by on every query. A zone is shared: servers built from
    /// one `Arc<Zone>` (every cell of a Zipf campaign) hold one copy.
    zones: Vec<(usize, Arc<Zone>)>,
    /// Queries logged since the last [`Self::drain_log`]; `None` when
    /// logging is off.
    log: Option<Vec<LoggedQuery>>,
    queries_answered: u64,
    /// Round-robin answer rotation (DNS-based load balancing, §6.1 of
    /// the paper: "each arriving DNS request provides an opportunity
    /// to adjust load"). Each response rotates multi-record answer
    /// sets by one position. `None` when off; when on, the turns of the
    /// set last rotated, `[k]` its members rotated left by `k` and `[0]`
    /// the zone's own block, so answering that set again copies nothing.
    rotations: Option<Vec<Members>>,
    telemetry: Telemetry,
    /// Arrival time of the previous query, for the interarrival
    /// sketch (how the paper's §3.4 classifies resolver behaviour).
    last_query_at: Option<SimTime>,
}

impl AuthoritativeServer {
    /// A server with no zones (add them with [`Self::add_zone`]).
    pub fn new(name: impl Into<String>) -> AuthoritativeServer {
        AuthoritativeServer {
            name: name.into(),
            zones: Vec::new(),
            log: None,
            queries_answered: 0,
            rotations: None,
            telemetry: Telemetry::disabled(),
            last_query_at: None,
        }
    }

    /// Attaches a telemetry handle; per-server query/response counters
    /// and the interarrival sketch land in it. The default handle is
    /// disabled (no-op).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Enables round-robin rotation of multi-record answers — the
    /// server side of DNS-based load balancing.
    pub fn enable_rotation(&mut self) {
        self.rotations.get_or_insert_with(Vec::new);
    }

    /// Adds a zone this server is authoritative for: an owned `Zone`,
    /// or an `Arc<Zone>` other servers hold too.
    pub fn add_zone(&mut self, zone: impl Into<Arc<Zone>>) -> &mut Self {
        let zone = zone.into();
        self.zones.push((zone.origin().label_count(), zone));
        self
    }

    /// Builder-style variant of [`Self::add_zone`].
    pub fn with_zone(mut self, zone: impl Into<Arc<Zone>>) -> AuthoritativeServer {
        self.add_zone(zone);
        self
    }

    /// Enables passive query logging (off by default: most experiments
    /// only need it on specific servers). The log holds what arrived
    /// since the last [`Self::drain_log`].
    pub fn enable_logging(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Takes the queries logged since the last drain, in arrival order
    /// (none when logging is off). The paper's §3.4 classifies `.nl`
    /// resolvers from exactly this data.
    pub fn drain_log(&mut self) -> impl Iterator<Item = LoggedQuery> + '_ {
        self.log.iter_mut().flat_map(|log| log.drain(..))
    }

    /// Mutable access to a zone by origin, for renumbering mid-run.
    /// Copy-on-write: a zone other servers share is copied first, so
    /// they keep answering from the old one; a zone this server holds
    /// alone is changed in place.
    pub fn zone_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        let (_, zone) = self.zones.iter_mut().find(|(_, z)| z.origin() == origin)?;
        Some(Arc::make_mut(zone))
    }

    /// Shared access to a zone by origin.
    pub fn zone(&self, origin: &Name) -> Option<&Zone> {
        let (_, zone) = self.zones.iter().find(|(_, z)| z.origin() == origin)?;
        Some(zone)
    }

    /// Records one response on the per-server, per-outcome counter.
    fn note_response(&self, outcome: &str) {
        self.telemetry.count_with(
            "auth_responses",
            &[("server", &self.name), ("outcome", outcome)],
            1,
        );
    }

    /// Picks the zone with the longest origin matching `qname`.
    ///
    /// A server authoritative for both a parent and its child (the root
    /// *and* `.cl`, say) must answer from the deepest applicable zone.
    fn best_zone(&self, qname: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|(_, z)| qname.is_subdomain_of(z.origin()))
            .max_by_key(|(depth, _)| *depth)
            .map(|(_, z)| &**z)
    }
}

impl DnsService for AuthoritativeServer {
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message {
        let mut response = Message::default();
        self.respond_into(query, client, now, &mut response);
        response
    }

    /// Fills `response` from the zone walk in place, so a recycled
    /// message is answered without allocating.
    fn respond_into(
        &mut self,
        query: &Message,
        client: ClientId,
        now: SimTime,
        response: &mut Message,
    ) {
        self.queries_answered += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .count_with("auth_queries", &[("server", &self.name)], 1);
            if let Some(prev) = self.last_query_at {
                self.telemetry.sketch_with(
                    "auth_interarrival_ms",
                    &[("server", &self.name)],
                    now.since(prev).as_millis(),
                );
            }
            self.last_query_at = Some(now);
        }
        response.reuse_as_response_to(query);
        let Some(question) = &query.question else {
            response.header.rcode = Rcode::FormErr;
            self.note_response("formerr");
            return;
        };
        if let Some(log) = &mut self.log {
            log.push(LoggedQuery {
                at: now,
                client,
                qname: question.qname.clone(),
            });
        }
        let Some(zone) = self.best_zone(&question.qname) else {
            response.header.rcode = Rcode::Refused;
            self.note_response("refused");
            return;
        };
        let outcome = match zone.walk(&question.qname, question.qtype, response) {
            Walk::Answer { sets } => {
                response.header.authoritative = true;
                // Rotation turns the members of the set of the asked
                // type (the chain's last): the RRSIGs covering it sign
                // the set in any order. Validating resolvers need
                // them; others ignore them.
                let answer = &mut response.answers[sets - 1];
                if let Some(turns) = self.rotations.as_mut().filter(|_| answer.len() > 1) {
                    if !turns
                        .first()
                        .is_some_and(|zone| zone.ptr_eq(&answer.rdatas))
                    {
                        let turn = |k| {
                            let mut members = answer.rdatas.to_vec();
                            members.rotate_left(k);
                            Members::from(members)
                        };
                        let others = (1..answer.len()).map(turn);
                        *turns = std::iter::once(answer.rdatas.clone())
                            .chain(others)
                            .collect();
                    }
                    let k = (self.queries_answered % answer.len() as u64) as usize;
                    answer.rdatas = turns[k].clone();
                }
                "answer"
            }
            Walk::Referral { .. } => {
                // Referrals are NOT authoritative answers: the records
                // land in authority/additional, and resolvers assign
                // them lower credibility (RFC 2181 §5.4.1).
                response.header.authoritative = false;
                "referral"
            }
            Walk::NoData => {
                response.header.authoritative = true;
                "nodata"
            }
            Walk::NxDomain => {
                response.header.authoritative = true;
                response.header.rcode = Rcode::NxDomain;
                "nxdomain"
            }
        };
        self.note_response(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneBuilder;
    use dnsttl_netsim::Region;
    use dnsttl_wire::{RecordType, Ttl};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn client(tag: u64) -> ClientId {
        ClientId {
            region: Region::Eu,
            tag,
        }
    }

    fn root_zone() -> Zone {
        ZoneBuilder::new(".")
            .ns("cl", "a.nic.cl", Ttl::TWO_DAYS)
            .a("a.nic.cl", "190.124.27.10", Ttl::TWO_DAYS)
            .build()
    }

    fn root_and_cl_server() -> AuthoritativeServer {
        AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone())
    }

    #[test]
    fn referral_response_shape() {
        let mut srv = root_and_cl_server();
        let q = Message::iterative_query(1, n("www.example.cl"), RecordType::A);
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        assert!(!r.header.authoritative);
        assert!(r.is_referral());
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
        assert_eq!(r.header.id, 1);
    }

    #[test]
    fn authoritative_answer_sets_aa() {
        let mut srv = AuthoritativeServer::new("a.nic.cl").with_zone(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
                .build(),
        );
        let q = Message::iterative_query(2, n("a.nic.cl"), RecordType::A);
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        assert!(r.header.authoritative);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].ttl.as_secs(), 43_200);
    }

    #[test]
    fn refuses_out_of_zone_queries() {
        let mut srv = AuthoritativeServer::new("a.nic.cl").with_zone(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .build(),
        );
        let q = Message::iterative_query(3, n("example.org"), RecordType::A);
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn nxdomain_with_soa() {
        let mut srv = AuthoritativeServer::new("a.nic.cl").with_zone(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .build(),
        );
        let q = Message::iterative_query(4, n("missing.cl"), RecordType::A);
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.authorities[0].rtype, RecordType::SOA);
    }

    #[test]
    fn picks_deepest_zone_when_serving_parent_and_child() {
        let mut srv = root_and_cl_server();
        srv.add_zone(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
                .build(),
        );
        let q = Message::iterative_query(5, n("a.nic.cl"), RecordType::A);
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        // Must come from the child zone (AA, child TTL), not root glue.
        assert!(r.header.authoritative);
        assert_eq!(r.answers[0].ttl.as_secs(), 43_200);
    }

    #[test]
    fn picks_deepest_of_three_nested_zones_whatever_the_add_order() {
        let cl = ZoneBuilder::new("cl")
            .ns("cl", "a.nic.cl", Ttl::HOUR)
            .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
            .ns("example.cl", "ns.example.cl", Ttl::from_secs(7_200))
            .a("ns.example.cl", "203.0.113.53", Ttl::from_secs(7_200))
            .build();
        let example = ZoneBuilder::new("example.cl")
            .ns("example.cl", "ns.example.cl", Ttl::MINUTE)
            .a("ns.example.cl", "203.0.113.53", Ttl::MINUTE)
            .build();
        // Deepest zone added first, in the middle, and last.
        let mut srv = AuthoritativeServer::new("all-in-one").with_zone(example);
        srv.add_zone(root_zone());
        srv.add_zone(cl);
        let mut ask = |qname: &str| {
            let q = Message::iterative_query(9, n(qname), RecordType::A);
            srv.handle_query(&q, client(1), SimTime::ZERO)
        };
        // example.cl answers for itself, not cl's or the root's referral.
        let r = ask("ns.example.cl");
        assert!(r.header.authoritative);
        assert_eq!(r.answers[0].ttl, Ttl::MINUTE);
        // cl answers below itself, and refers nothing to itself.
        let r = ask("a.nic.cl");
        assert!(r.header.authoritative);
        assert_eq!(r.answers[0].ttl.as_secs(), 43_200);
        // Only the root serves names outside cl.
        let r = ask("www.example.org");
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities[0].name, Name::root());
    }

    #[test]
    fn logging_records_client_and_time() {
        let mut srv = root_and_cl_server();
        srv.enable_logging();
        let q = Message::iterative_query(6, n("cl"), RecordType::NS);
        srv.handle_query(&q, client(77), SimTime::from_secs(5));
        srv.handle_query(&q, client(78), SimTime::from_secs(9));
        let log: Vec<LoggedQuery> = srv.drain_log().collect();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].client.tag, 77);
        assert_eq!(log[1].at, SimTime::from_secs(9));
        assert_eq!(srv.drain_log().count(), 0, "a drain empties the log");
    }

    #[test]
    fn logging_disabled_by_default() {
        let mut srv = root_and_cl_server();
        let q = Message::iterative_query(7, n("cl"), RecordType::NS);
        srv.handle_query(&q, client(1), SimTime::ZERO);
        assert_eq!(srv.drain_log().count(), 0);
    }

    #[test]
    fn rotation_round_robins_multi_record_answers() {
        let mut srv = AuthoritativeServer::new("lb").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .a("www.example", "203.0.113.1", Ttl::MINUTE)
                .a("www.example", "203.0.113.2", Ttl::MINUTE)
                .a("www.example", "203.0.113.3", Ttl::MINUTE)
                .build(),
        );
        srv.enable_rotation();
        let q = Message::iterative_query(1, n("www.example"), RecordType::A);
        let firsts: Vec<String> = (0..6)
            .map(|_| {
                let r = srv.handle_query(&q, client(1), SimTime::ZERO);
                r.answers[0].rdatas[0].to_string()
            })
            .collect();
        // All three backends appear in first position across a cycle.
        let mut distinct = firsts.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "firsts: {firsts:?}");
        // Without rotation the first answer is stable.
        let mut plain = AuthoritativeServer::new("plain").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .a("www.example", "203.0.113.1", Ttl::MINUTE)
                .a("www.example", "203.0.113.2", Ttl::MINUTE)
                .build(),
        );
        let a1 = plain.handle_query(&q, client(1), SimTime::ZERO).answers[0].rdatas[0].to_string();
        let a2 = plain.handle_query(&q, client(1), SimTime::ZERO).answers[0].rdatas[0].to_string();
        assert_eq!(a1, a2);
    }

    #[test]
    fn renumbering_a_shared_zone_leaves_the_other_server_alone() {
        let cl = Arc::new(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
                .build(),
        );
        let mut renumbered = AuthoritativeServer::new("a.nic.cl").with_zone(Arc::clone(&cl));
        let mut other = AuthoritativeServer::new("b.nic.cl").with_zone(Arc::clone(&cl));
        let q = Message::iterative_query(1, n("a.nic.cl"), RecordType::A);
        let before = other.handle_query(&q, client(1), SimTime::ZERO);
        renumbered.zone_mut(&n("cl")).unwrap().replace_address(
            &n("a.nic.cl"),
            "198.51.100.7".parse().unwrap(),
            Ttl::HOUR,
        );
        let moved = renumbered.handle_query(&q, client(1), SimTime::ZERO);
        assert_eq!(moved.answers[0].rdatas[0].to_string(), "198.51.100.7");
        assert_eq!(other.handle_query(&q, client(1), SimTime::ZERO), before);
        assert_eq!(
            cl.soa().serial,
            1,
            "the shared zone was copied, not changed"
        );
        // The copy is the renumbered server's own now: a second change
        // lands in place, and the zone the others share is untouched.
        let copy: *const Zone = renumbered.zone(&n("cl")).unwrap();
        renumbered.zone_mut(&n("cl")).unwrap().replace_address(
            &n("a.nic.cl"),
            "198.51.100.8".parse().unwrap(),
            Ttl::HOUR,
        );
        assert!(std::ptr::eq(copy, renumbered.zone(&n("cl")).unwrap()));
        assert_eq!(Arc::strong_count(&cl), 2);
    }

    #[test]
    fn missing_question_is_formerr() {
        let mut srv = root_and_cl_server();
        let mut q = Message::iterative_query(8, n("cl"), RecordType::NS);
        q.question = None;
        let r = srv.handle_query(&q, client(1), SimTime::ZERO);
        assert_eq!(r.header.rcode, Rcode::FormErr);
    }
}
