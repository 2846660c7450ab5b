//! The query replay: a reference run's rows re-driven through
//! `RecursiveResolver::resolve` against a same-shape world whose servers
//! are wrapped in this file's own `DnsService`, which spans
//! `handle_query` and captures `(query, response)` pairs.
//!
//! The worlds mirror `dnsttl_atlas::scale::zipf_world` (private) and
//! `dnsttl_experiments::worlds::uy_world` (hands out no service
//! handles). A replay that does not reproduce every row's `cache_hit`
//! flag fails the run, so a drifted mirror cannot go unnoticed.

use crate::span::{Layer, SharedRecorder};
use dnsttl_atlas::{Dataset, Population, PopulationConfig, ZipfCampaignConfig, ZipfDataset};
use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_core::ResolverPolicy;
use dnsttl_experiments::worlds::{addrs, root_hints};
use dnsttl_netsim::{
    shard_seed, ClientId, DnsService, LatencyModel, Network, Region, SimRng, SimTime,
};
use dnsttl_resolver::{RecursiveResolver, RootHint};
use dnsttl_wire::{Message, Name, RecordType, Ttl};
use std::cell::RefCell;
use std::net::IpAddr;
use std::rc::Rc;
use std::time::Instant;

/// Most `(query, response)` pairs a tap keeps.
const CAPTURE_CAP: usize = 16_384;

/// One exchange as the authoritative saw it.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The server that answered.
    pub server: IpAddr,
    /// Simulated time of the exchange.
    pub at: SimTime,
    /// The decoded query the server received.
    pub query: Message,
    /// The response it produced, before encoding.
    pub response: Message,
}

/// Counts every `handle_query` and keeps every `every`-th pair.
#[derive(Debug, Default)]
pub struct Tap {
    /// Queries the wrapped servers handled.
    pub handled: u64,
    /// Keep one pair in this many; 0 keeps none.
    pub every: u64,
    /// The pairs kept.
    pub pairs: Vec<Captured>,
}

/// The tap as the driver and the wrapped services share it.
pub type SharedTap = Rc<RefCell<Tap>>;

/// The benchmark's own `DnsService`: the wrapped server's
/// `handle_query` inside a span, then the count and the capture
/// outside it.
struct Spanned<S> {
    inner: S,
    addr: IpAddr,
    rec: SharedRecorder,
    tap: SharedTap,
}

impl<S: DnsService> DnsService for Spanned<S> {
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message {
        let id = self.rec.borrow_mut().open("auth.handle_query", Layer::Auth);
        let response = self.inner.handle_query(query, client, now);
        if let Some(id) = id {
            self.rec.borrow_mut().close(id);
        }
        let mut tap = self.tap.borrow_mut();
        tap.handled += 1;
        if tap.every != 0 && tap.handled.is_multiple_of(tap.every) && tap.pairs.len() < CAPTURE_CAP
        {
            tap.pairs.push(Captured {
                server: self.addr,
                at: now,
                query: query.clone(),
                response: response.clone(),
            });
        }
        response
    }
}

/// Where wrapped servers report to.
#[derive(Clone)]
pub struct Probes {
    /// Span store.
    pub rec: SharedRecorder,
    /// Query counter and pair capture.
    pub tap: SharedTap,
}

impl Probes {
    fn wrap(
        &self,
        addr: IpAddr,
        server: AuthoritativeServer,
    ) -> Rc<RefCell<Spanned<AuthoritativeServer>>> {
        Rc::new(RefCell::new(Spanned {
            inner: server,
            addr,
            rec: self.rec.clone(),
            tap: self.tap.clone(),
        }))
    }
}

/// Mirror of `dnsttl_atlas::scale::zipf_world`: a root delegating `zipf`
/// to a child zone holding one `A` record per universe name.
fn zipf_world(names: usize, record_ttl: Ttl, probes: &Probes) -> (Network, Vec<RootHint>) {
    let root_addr: IpAddr = "198.41.0.4".parse().expect("static");
    let child_addr: IpAddr = "192.0.2.53".parse().expect("static");
    let root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("zipf", "ns.zipf", Ttl::TWO_DAYS)
            .a("ns.zipf", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    let mut child_zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR).a(
        "ns.zipf",
        "192.0.2.53",
        Ttl::HOUR,
    );
    for k in 0..names {
        let addr = format!("10.{}.{}.{}", (k >> 16) & 255, (k >> 8) & 255, k & 255);
        child_zone = child_zone.a(&format!("r{k}.zipf"), &addr, record_ttl);
    }
    let child = AuthoritativeServer::new("ns.zipf").with_zone(child_zone.build());
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, probes.wrap(root_addr, root));
    net.register(child_addr, Region::Eu, probes.wrap(child_addr, child));
    let roots = vec![RootHint {
        ns_name: Name::parse("root").expect("static"),
        addr: root_addr,
    }];
    (net, roots)
}

/// Mirror of `dnsttl_experiments::worlds::uy_world`.
fn uy_world(child_ns_ttl: Ttl, child_a_ttl: Ttl, probes: &Probes) -> (Network, Vec<RootHint>) {
    let mut net = Network::new(LatencyModel::internet());
    let root_zone = ZoneBuilder::new(".")
        .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
        .ns("uy", "b.nic.uy", Ttl::TWO_DAYS)
        .ns("uy", "c.nic.uy", Ttl::TWO_DAYS)
        .a("a.nic.uy", "200.40.241.1", Ttl::TWO_DAYS)
        .a("b.nic.uy", "200.40.241.2", Ttl::TWO_DAYS)
        .a("c.nic.uy", "204.61.216.40", Ttl::TWO_DAYS)
        .build();
    let root = AuthoritativeServer::new("k.root-servers.net").with_zone(root_zone);
    net.register(addrs::ROOT, Region::Eu, probes.wrap(addrs::ROOT, root));
    let uy = |server: &str| {
        AuthoritativeServer::new(server).with_zone(
            ZoneBuilder::new("uy")
                .ns("uy", "a.nic.uy", child_ns_ttl)
                .ns("uy", "b.nic.uy", child_ns_ttl)
                .ns("uy", "c.nic.uy", child_ns_ttl)
                .a("a.nic.uy", "200.40.241.1", child_a_ttl)
                .a("b.nic.uy", "200.40.241.2", child_a_ttl)
                .a("c.nic.uy", "204.61.216.40", child_a_ttl)
                .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
                .build(),
        )
    };
    net.register(
        addrs::UY_A,
        Region::Sa,
        probes.wrap(addrs::UY_A, uy("a.nic.uy")),
    );
    net.register(
        addrs::UY_B,
        Region::Sa,
        probes.wrap(addrs::UY_B, uy("b.nic.uy")),
    );
    net.register_anycast(
        addrs::UY_C,
        &[Region::Eu, Region::Na, Region::As, Region::Sa],
        probes.wrap(addrs::UY_C, uy("c.nic.uy")),
    );
    (net, root_hints())
}

/// One row of a replay tape.
#[derive(Debug, Clone, Copy)]
pub struct TapeRow {
    /// Simulated time of the client question.
    pub at_ms: u64,
    /// Index into the segment's resolvers.
    pub resolver: u32,
    /// Index into the tape's names.
    pub name: u32,
    /// The `cache_hit` flag the reference run recorded.
    pub hit: bool,
}

/// How a segment's world and resolvers are built.
#[derive(Debug, Clone)]
pub enum SegmentWorld {
    /// One Zipf cell, as `run_zipf_cell` builds it.
    ZipfCell {
        /// The campaign.
        cfg: ZipfCampaignConfig,
        /// `shard_seed(run_seed, cell)`.
        seed: u64,
        /// The cell's first global probe index (part of resolver labels).
        probe_base: u32,
    },
    /// One fig10 phase, as `uy_latency::measure` builds it.
    UyPhase {
        /// Child NS TTL.
        ns_ttl: Ttl,
        /// Child A TTL.
        a_ttl: Ttl,
        /// `cfg.seed_for(tag)`.
        seed: u64,
        /// Probe population.
        probes: usize,
    },
}

impl SegmentWorld {
    /// Builds the wrapped world and its resolvers, consuming the RNG in
    /// the same order as the library does.
    pub fn build(&self, probes: &Probes) -> (Network, Vec<RecursiveResolver>) {
        match self {
            SegmentWorld::ZipfCell {
                cfg,
                seed,
                probe_base,
            } => {
                let (net, roots) = zipf_world(cfg.names.max(1), cfg.record_ttl, probes);
                let mut rng = SimRng::seed_from(*seed);
                let resolvers = (0..cfg.resolvers_per_cell.max(1))
                    .map(|i| {
                        RecursiveResolver::new(
                            format!("zipf-{probe_base}-{i}"),
                            ResolverPolicy::default(),
                            Region::Eu,
                            i as u64,
                            roots.clone(),
                            rng.fork(1_000_000 + i as u64),
                        )
                    })
                    .collect();
                (net, resolvers)
            }
            SegmentWorld::UyPhase {
                ns_ttl,
                a_ttl,
                seed,
                probes: population,
            } => {
                let (net, roots) = uy_world(*ns_ttl, *a_ttl, probes);
                let mut rng = SimRng::seed_from(*seed);
                let pop =
                    Population::build(&PopulationConfig::small(*population), &roots, &mut rng);
                (net, pop.resolvers)
            }
        }
    }
}

/// A stretch of the tape that runs against one world.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The world.
    pub world: SegmentWorld,
    /// The rows, in the reference run's order.
    pub rows: Vec<TapeRow>,
}

/// A whole replay: what the reference run asked, of whom, and when.
#[derive(Debug, Clone)]
pub struct Tape {
    /// The question names rows index into.
    pub names: Vec<Name>,
    /// The question type.
    pub qtype: RecordType,
    /// The segments, in order.
    pub segments: Vec<Segment>,
}

impl Tape {
    /// Rows on the tape.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.rows.len()).sum()
    }

    /// True when the tape holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tape of a Zipf campaign: one segment per cell. Merged rows
    /// carry global resolver indices, `resolvers_per_cell` per cell.
    pub fn of_zipf(cfg: &ZipfCampaignConfig, run_seed: u64, dataset: &ZipfDataset) -> Tape {
        let per_cell = cfg.resolvers_per_cell.max(1) as u32;
        let sizes = dnsttl_atlas::partition(cfg.probes, cfg.cells);
        assert!(
            sizes.iter().all(|&n| n > 0),
            "every cell holds probes, so resolver indices map to cells"
        );
        let bases = dnsttl_atlas::partition_bases(&sizes);
        let mut segments: Vec<Segment> = (0..cfg.cells)
            .map(|cell| Segment {
                world: SegmentWorld::ZipfCell {
                    cfg: cfg.clone(),
                    seed: shard_seed(run_seed, cell as u64),
                    probe_base: bases[cell] as u32,
                },
                rows: Vec::new(),
            })
            .collect();
        for r in dataset.rows() {
            segments[(r.resolver / per_cell) as usize]
                .rows
                .push(TapeRow {
                    at_ms: r.at_ms,
                    resolver: r.resolver % per_cell,
                    name: r.rank,
                    hit: r.cache_hit,
                });
        }
        Tape {
            names: (0..cfg.names.max(1))
                .map(|k| Name::parse(&format!("r{k}.zipf")).expect("static name shape"))
                .collect(),
            qtype: RecordType::A,
            segments,
        }
    }

    /// Appends one fig10 phase to a tape of `NS uy` questions.
    pub fn push_uy_phase(&mut self, world: SegmentWorld, dataset: &Dataset) {
        let rows = dataset
            .results()
            .iter()
            .map(|r| TapeRow {
                at_ms: r.at.as_millis(),
                resolver: r.resolver_idx as u32,
                name: 0,
                hit: r.cache_hit,
            })
            .collect();
        self.segments.push(Segment { world, rows });
    }

    /// An empty tape of `NS uy` questions.
    pub fn of_uy() -> Tape {
        Tape {
            names: vec![Name::parse("uy").expect("static")],
            qtype: RecordType::NS,
            segments: Vec::new(),
        }
    }
}

/// What one pass over the tape measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Host nanoseconds in the row loops (world construction excluded).
    pub loop_ns: u64,
    /// Upstream queries the resolvers sent (`outcome.upstream_queries`).
    pub upstream: u64,
    /// Rows whose `cache_hit` differed from the reference run's.
    pub mismatches: u64,
}

/// Replays the tape once. Each resolve runs inside a
/// `resolver.resolve_hit` or `resolver.resolve_miss` span when the
/// recorder is on.
pub fn replay(tape: &Tape, probes: &Probes) -> PassStats {
    let mut stats = PassStats::default();
    for segment in &tape.segments {
        let (mut net, mut resolvers) = segment.world.build(probes);
        let started = Instant::now();
        for row in &segment.rows {
            let name = if row.hit {
                "resolver.resolve_hit"
            } else {
                "resolver.resolve_miss"
            };
            let id = probes.rec.borrow_mut().open(name, Layer::Resolver);
            // The answer is dropped inside the span: freeing what a
            // resolve allocated is part of what the resolve cost.
            let (upstream, hit) = {
                let outcome = resolvers[row.resolver as usize].resolve(
                    &tape.names[row.name as usize],
                    tape.qtype,
                    SimTime::from_millis(row.at_ms),
                    &mut net,
                );
                (outcome.upstream_queries, outcome.cache_hit)
            };
            if let Some(id) = id {
                probes.rec.borrow_mut().close(id);
            }
            stats.upstream += u64::from(upstream);
            stats.mismatches += u64::from(hit != row.hit);
        }
        stats.loop_ns += started.elapsed().as_nanos() as u64;
    }
    stats
}
