//! Fixtures shared by the root test binaries: the two-level world the
//! fan-out checks run a probe population on, and the timing wheel's
//! tape. Each binary that declares `mod common;` compiles all of it and
//! uses a part.

#![allow(dead_code)]

use dnsttl::atlas::{partition, ZipfCampaignConfig};
use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::netsim::{LatencyModel, Network, Region, SimRng, TimingWheel};
use dnsttl::resolver::RootHint;
use dnsttl::wire::{Name, Ttl};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

/// A root delegating `example` to one child server, `www.example`
/// published with `child_ttl`, plus the root hints a population needs
/// to walk it.
pub fn two_level_network(child_ttl: Ttl) -> (Network, Vec<RootHint>) {
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

/// The timing wheel on the traffic it serves: the fire schedule of one
/// cell of the full-scale Zipf campaign (`ZipfCampaignConfig::large(200_000)`),
/// which is what each Zipf cell's SoA sweep feeds its wheel. The cell's
/// probes start at seeded uniform offsets within the first base
/// interval; a pop before the campaign horizon re-arms its probe
/// `cfg.diurnal.interval_ms` later, a pop past it drops the probe.
///
/// The intervals are computed once, by the sweep's re-arm rule on a
/// `BTreeSet`, so each replay pays only for the structure under test.
pub struct WheelTape {
    starts: Vec<u64>,
    intervals: Vec<u64>,
    end_ms: u64,
}

impl WheelTape {
    /// The tape of cell 0 at `seed`.
    pub fn zipf_cell(seed: u64) -> WheelTape {
        let cfg = ZipfCampaignConfig::large(200_000);
        let timers = partition(cfg.probes, cfg.cells)[0];
        let base_ms = cfg.frequency.as_millis().max(1);
        let end_ms = cfg.duration.as_millis();
        let mut rng = SimRng::seed_from(seed ^ 0x57EE1);
        let starts: Vec<u64> = (0..timers).map(|_| rng.below(base_ms)).collect();
        let mut intervals = Vec::new();
        let mut set: BTreeSet<(u64, u32)> = (0..).zip(&starts).map(|(k, &t)| (t, k)).collect();
        while let Some((t, k)) = set.pop_first() {
            if t < end_ms {
                let interval = cfg.diurnal.interval_ms(base_ms, t);
                intervals.push(interval);
                set.insert((t + interval, k));
            }
        }
        WheelTape {
            starts,
            intervals,
            end_ms,
        }
    }

    /// Timers armed at the start.
    pub fn timers(&self) -> usize {
        self.starts.len()
    }

    /// Pops before the horizon, each re-arming its timer.
    pub fn rearms(&self) -> usize {
        self.intervals.len()
    }

    /// Replays the tape on a [`TimingWheel`]: the digest of its pop
    /// sequence and the cascades the wheel ran.
    pub fn replay_wheel(&self) -> (u64, u64) {
        let mut wheel = TimingWheel::new();
        for (k, &t) in (0..).zip(&self.starts) {
            wheel.insert(t, k);
        }
        let (mut next, mut digest) = (self.intervals.iter(), 0);
        while let Some((t, k)) = wheel.pop_first() {
            digest = mix(digest, t, k);
            if t < self.end_ms {
                wheel.insert(t + next.next().expect("one interval per re-arm"), k);
            }
        }
        (digest, wheel.cascades())
    }

    /// Replays the tape on the `BTreeSet` the wheel replaced: the
    /// digest of its pop sequence.
    pub fn replay_btree(&self) -> u64 {
        let mut set: BTreeSet<(u64, u32)> = (0..).zip(&self.starts).map(|(k, &t)| (t, k)).collect();
        let (mut next, mut digest) = (self.intervals.iter(), 0);
        while let Some((t, k)) = set.pop_first() {
            digest = mix(digest, t, k);
            if t < self.end_ms {
                set.insert((t + next.next().expect("one interval per re-arm"), k));
            }
        }
        digest
    }
}

/// One step of a replay's pop digest. Not FNV-1a: one multiply per
/// (time, timer) word, compared only with the other replay's in the
/// same process, so nothing pins its values.
fn mix(digest: u64, t: u64, k: u32) -> u64 {
    (digest ^ (t << 32 | u64::from(k))).wrapping_mul(0x100_0000_01B3)
}
