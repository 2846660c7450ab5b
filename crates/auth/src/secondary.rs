//! Secondary (slave) authoritative servers.
//!
//! Real zones are served by several servers that synchronise from a
//! primary via zone transfer, polling at the SOA `refresh` interval.
//! That adds a propagation delay the paper's renumbering experiments
//! sidestep (their VMs changed instantly): after an operator edits the
//! primary, a resolver may still fetch the *old* data from a
//! not-yet-refreshed secondary, extending the effective change latency
//! beyond the TTL by up to `refresh`.
//!
//! [`SecondaryServer`] wraps its own copy of a zone and re-transfers it
//! from the primary whenever the refresh interval has elapsed and the
//! primary's SOA serial moved on — a deliberately simple IXFR-less
//! model of RFC 1034 §4.3.5 maintenance.

use crate::server::AuthoritativeServer;
use dnsttl_netsim::{ClientId, DnsService, SimDuration, SimTime};
use dnsttl_telemetry::{EventKind, Telemetry};
use dnsttl_wire::{Message, Name};
use std::cell::RefCell;
use std::rc::Rc;

/// A secondary authoritative server for one zone.
pub struct SecondaryServer {
    /// Human-readable identity, e.g. `"ns2.dns.nl"`.
    pub name: String,
    primary: Rc<RefCell<AuthoritativeServer>>,
    origin: Name,
    refresh: SimDuration,
    inner: AuthoritativeServer,
    last_check: Option<SimTime>,
    transfers: u64,
    telemetry: Telemetry,
}

impl SecondaryServer {
    /// Creates a secondary that serves `origin`, transferring from
    /// `primary` at most every `refresh`. The first transfer happens
    /// eagerly so the secondary never serves an empty zone.
    ///
    /// # Panics
    /// Panics if the primary does not hold `origin` — a secondary for
    /// a zone its primary does not serve is a configuration error.
    pub fn new(
        name: impl Into<String>,
        primary: Rc<RefCell<AuthoritativeServer>>,
        origin: Name,
        refresh: SimDuration,
    ) -> SecondaryServer {
        let name = name.into();
        let zone = primary
            .borrow()
            .zone(&origin)
            .cloned()
            .unwrap_or_else(|| panic!("primary does not serve {origin}"));
        let inner = AuthoritativeServer::new(name.clone()).with_zone(zone);
        SecondaryServer {
            name,
            primary,
            origin,
            refresh,
            inner,
            last_check: None,
            transfers: 1,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; zone-transfer events and counters
    /// land in it. The default handle is disabled (no-op).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The serial of the copy currently being served.
    pub(crate) fn serving_serial(&self) -> u32 {
        self.inner
            .zone(&self.origin)
            .map(|z| z.soa().serial)
            .unwrap_or(0)
    }

    /// Checks the primary if the refresh interval has elapsed,
    /// transferring the zone when its serial advanced.
    pub(crate) fn maybe_refresh(&mut self, now: SimTime) {
        let due = match self.last_check {
            None => true,
            Some(at) => now.since(at) >= self.refresh,
        };
        if !due {
            return;
        }
        self.last_check = Some(now);
        let primary = self.primary.borrow();
        let Some(zone) = primary.zone(&self.origin) else {
            return;
        };
        if zone.soa().serial != self.serving_serial() {
            let serial = zone.soa().serial;
            let fresh = zone.clone();
            drop(primary);
            // Replace the inner server's copy wholesale (AXFR-style).
            self.inner = AuthoritativeServer::new(self.name.clone()).with_zone(fresh);
            self.inner.set_telemetry(self.telemetry.clone());
            self.transfers += 1;
            self.telemetry
                .count_with("auth_zone_transfers", &[("server", &self.name)], 1);
            self.telemetry
                .event(now.as_millis(), EventKind::ZoneTransfer, |f| {
                    f.push("server", self.name.as_str());
                    f.push("zone", self.origin.to_string());
                    f.push("serial", serial);
                });
        }
    }
}

impl DnsService for SecondaryServer {
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message {
        self.maybe_refresh(now);
        self.inner.handle_query(query, client, now)
    }

    fn respond_into(
        &mut self,
        query: &Message,
        client: ClientId,
        now: SimTime,
        response: &mut Message,
    ) {
        self.maybe_refresh(now);
        self.inner.respond_into(query, client, now, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneBuilder;
    use dnsttl_netsim::Region;
    use dnsttl_wire::{RData, RecordType, Ttl};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn client() -> ClientId {
        ClientId {
            region: Region::Eu,
            tag: 1,
        }
    }

    fn primary() -> Rc<RefCell<AuthoritativeServer>> {
        Rc::new(RefCell::new(
            AuthoritativeServer::new("ns1.example").with_zone(
                ZoneBuilder::new("example")
                    .ns("example", "ns1.example", Ttl::HOUR)
                    .a("www.example", "203.0.113.1", Ttl::HOUR)
                    .build(),
            ),
        ))
    }

    fn query_www(server: &mut SecondaryServer, at: SimTime) -> RData {
        let q = Message::iterative_query(1, n("www.example"), RecordType::A);
        let r = server.handle_query(&q, client(), at);
        r.answers[0].rdatas[0].clone()
    }

    #[test]
    fn initial_transfer_serves_the_zone() {
        let p = primary();
        let mut s =
            SecondaryServer::new("ns2.example", p, n("example"), SimDuration::from_secs(900));
        assert_eq!(s.transfers, 1);
        assert_eq!(
            query_www(&mut s, SimTime::ZERO),
            RData::A("203.0.113.1".parse().unwrap())
        );
    }

    #[test]
    fn changes_propagate_only_after_refresh() {
        let p = primary();
        let refresh = SimDuration::from_secs(900);
        let mut s = SecondaryServer::new("ns2.example", p.clone(), n("example"), refresh);
        // Warm the refresh timer.
        query_www(&mut s, SimTime::ZERO);

        // Renumber on the primary (bumps the serial).
        p.borrow_mut()
            .zone_mut(&n("example"))
            .unwrap()
            .replace_address(
                &n("www.example"),
                "198.51.100.9".parse().unwrap(),
                Ttl::HOUR,
            );

        // Before the refresh interval: the secondary still serves the
        // old data — the propagation window the paper's instant-sync
        // VMs do not have.
        assert_eq!(
            query_www(&mut s, SimTime::from_secs(600)),
            RData::A("203.0.113.1".parse().unwrap())
        );
        // After the interval: transferred and serving the new address.
        assert_eq!(
            query_www(&mut s, SimTime::from_secs(901)),
            RData::A("198.51.100.9".parse().unwrap())
        );
        assert_eq!(s.transfers, 2);
    }

    #[test]
    fn unchanged_serial_does_not_retransfer() {
        let p = primary();
        let mut s =
            SecondaryServer::new("ns2.example", p, n("example"), SimDuration::from_secs(10));
        for t in [0u64, 20, 40, 60] {
            query_www(&mut s, SimTime::from_secs(t));
        }
        assert_eq!(s.transfers, 1, "no serial change ⇒ no transfers");
    }

    #[test]
    #[should_panic(expected = "does not serve")]
    fn secondary_for_unserved_zone_panics() {
        let p = primary();
        SecondaryServer::new("bad", p, n("other"), SimDuration::from_secs(10));
    }

    #[test]
    fn serial_tracking() {
        let p = primary();
        let mut s = SecondaryServer::new(
            "ns2.example",
            p.clone(),
            n("example"),
            SimDuration::from_secs(1),
        );
        let initial = s.serving_serial();
        p.borrow_mut()
            .zone_mut(&n("example"))
            .unwrap()
            .replace_address(
                &n("www.example"),
                "198.51.100.9".parse().unwrap(),
                Ttl::HOUR,
            );
        s.maybe_refresh(SimTime::from_secs(5));
        s.maybe_refresh(SimTime::from_secs(10));
        assert_eq!(s.serving_serial(), initial + 1);
    }
}
