//! The population scale path: Zipf/diurnal campaigns over
//! struct-of-arrays probe state.
//!
//! The classic measurement engine ([`crate::run_measurement`]) keeps
//! per-probe state in heap-allocated `Probe` structs and drives the
//! schedule through the netsim event queue — fine at the paper's ~9k
//! probes, but at 10^5–10^6 probes the pointer chasing dominates. This
//! module flattens the hot per-probe state (next-fire time, popularity
//! rank, resolver binding, per-probe counters) into cell-local
//! [`ProbeFrame`] arrays and replaces the event queue with a
//! **hierarchical timing-wheel sweep**:
//!
//! * fires execute in canonical `(fire_time_ms, probe_idx)` order —
//!   the wheel drains each slot bucket by full-key minimum, so the
//!   execution order is a pure function of probe state, independent of
//!   memory layout;
//! * schedules and reschedules are O(1) bucket pushes instead of
//!   O(log n) heap sifts, and the wheel's slot buckets are reused for
//!   the whole sweep — steady-state advancement allocates nothing;
//! * probes rescheduled past the campaign horizon pop once more and
//!   drop, exactly as in the oracle.
//!
//! That first point is what the differential harness leans on: a
//! retained pointer-based oracle ([`ZipfEngine::Oracle`]) drives the
//! *same* per-fire routine through `OracleHeap` (a plain `BinaryHeap`,
//! used by the oracle and nothing else) keyed by the same
//! `(fire_time_ms, probe_idx)` tuple, and `tests/soa_equivalence.rs`
//! proves the two engines produce bit-identical datasets, per-probe
//! counters, cache statistics, and telemetry.
//!
//! Campaigns run on the cell engine in [`crate::shard`]:
//! [`fan_out`] schedules the cells and owns their telemetry handles
//! and heartbeat. A [`ZipfDataset`] keeps each cell's rows in the
//! vector the cell wrote, so a campaign holds every row once, and
//! [`ZipfDataset::digest`] streams their time order through
//! [`merge_by_time`]. A campaign builds its `zipf` zone once; each
//! cell builds its own servers, network and resolvers over that one
//! read-only zone, and its own RNG from `shard_seed(run_seed,
//! cell_id)`, so any power-of-two cell count is valid and the worker
//! count never touches the output. The **cell count, unlike the worker
//! count, is part of the experiment's identity** — changing it
//! repartitions probes and reseeds cells.

use crate::population::{DiurnalCurve, ZipfSampler};
use crate::shard::{fan_out, merge_by_time, partition, partition_bases, FanOut, ShardProfile};
use dnsttl_auth::{Zone, ZoneBuilder};
use dnsttl_netsim::{shard_seed, LatencyModel, Network, Region, SimDuration, SimRng, TimingWheel};
use dnsttl_resolver::{CacheStats, Labels, RecursiveResolver, RootHint};
use dnsttl_telemetry::{MetricKey, Telemetry};
use dnsttl_wire::{fnv1a, Name, RData, Rcode, Record, RecordType, Ttl, FNV_OFFSET};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;
use std::iter::Flatten;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Campaign-level counters, keyed once so the hot loop never hashes
/// metric names.
const ZIPF_QUERIES: MetricKey = MetricKey::new("zipf_queries_total");
const ZIPF_HITS: MetricKey = MetricKey::new("zipf_cache_hits_total");

/// The pointer-based campaign oracle's scheduler ([`run_oracle`]): a
/// min-heap over the canonical `(time, index)` key, drained in exact
/// key order, so the timing-wheel production sweep has a heap-ordered
/// comparison point — deliberately *not* the netsim client driver
/// `drive` (whose ties break by schedule order, which would diverge
/// from the canonical order on reschedules) and deliberately not the
/// wheel itself (an oracle must not share the implementation it
/// checks).
struct OracleHeap<K: Ord> {
    heap: BinaryHeap<Reverse<K>>,
}

impl<K: Ord> OracleHeap<K> {
    fn push(&mut self, key: K) {
        self.heap.push(Reverse(key));
    }

    fn pop(&mut self) -> Option<K> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

impl<K: Ord> FromIterator<K> for OracleHeap<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> OracleHeap<K> {
        OracleHeap {
            heap: iter.into_iter().map(Reverse).collect(),
        }
    }
}

/// Configuration for one Zipf/diurnal population campaign.
#[derive(Debug, Clone)]
pub struct ZipfCampaignConfig {
    /// Total probes across all cells (the scale knob: 10^5–10^6).
    pub probes: usize,
    /// Size of the queried-name universe (`r0.zipf` … `rN-1.zipf`).
    pub names: usize,
    /// Zipf exponent of name popularity (≈1.0 for web-like traffic).
    pub exponent: f64,
    /// Recursive resolver caches per cell; probes bind to one at build.
    pub resolvers_per_cell: usize,
    /// Base inter-query interval (the paper's measurement frequency).
    pub frequency: SimDuration,
    /// Campaign duration in simulated time.
    pub duration: SimDuration,
    /// Diurnal load curve warping each probe's interval.
    pub diurnal: DiurnalCurve,
    /// TTL of the authoritative `A` records being measured.
    pub record_ttl: Ttl,
    /// Logical cell count — **must be a power of two** (validated by
    /// [`run_zipf_campaign`]). Part of the experiment's identity.
    pub cells: usize,
}

impl ZipfCampaignConfig {
    /// A small campaign for tests: `probes` probes over a short day.
    pub fn small(probes: usize) -> ZipfCampaignConfig {
        ZipfCampaignConfig {
            probes,
            names: (probes / 4).clamp(64, 2_048),
            exponent: 1.0,
            resolvers_per_cell: 4,
            frequency: SimDuration::from_secs(600),
            duration: SimDuration::from_hours(6),
            diurnal: DiurnalCurve::new(0.6, 14.0),
            // The paper's modal A-record TTL: longer than any warped
            // polling interval, so repeat queries hit even in sparse
            // test populations.
            record_ttl: Ttl::HOUR,
            cells: crate::shard::LOGICAL_SHARDS,
        }
    }

    /// The large-scale configuration the benchmark's Zipf workloads run:
    /// enough cells (64) to saturate an 8-worker fan-out with headroom.
    pub fn large(probes: usize) -> ZipfCampaignConfig {
        ZipfCampaignConfig {
            probes,
            names: 2_048,
            exponent: 1.1,
            resolvers_per_cell: 4,
            frequency: SimDuration::from_secs(600),
            duration: SimDuration::from_hours(2),
            diurnal: DiurnalCurve::new(0.6, 14.0),
            record_ttl: Ttl::from_secs(300),
            cells: 64,
        }
    }

    /// Errors unless the cell count is a nonzero power of two. The
    /// partition arithmetic works for any count, but restricting the
    /// knob keeps the space of experiment identities enumerable (16,
    /// 64, 256, …) instead of continuous.
    pub(crate) fn validate_cells(&self) -> Result<(), String> {
        if self.cells == 0 || !self.cells.is_power_of_two() {
            return Err(format!(
                "cell count must be a power of two, got {}",
                self.cells
            ));
        }
        Ok(())
    }
}

/// Which inner-loop engine drives a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfEngine {
    /// The production path: flattened struct-of-arrays probe state
    /// swept by a timing wheel.
    Soa,
    /// The differential oracle: one boxed struct per probe behind a
    /// binary heap — the layout the SoA path replaced, retained so the
    /// equivalence claim stays executable.
    Oracle,
}

/// One query result row, compact enough to hold millions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfRow {
    /// Fire time in simulated milliseconds.
    pub at_ms: u64,
    /// Global probe index (cell-local index + the cell's probe base).
    pub probe: u32,
    /// Popularity rank of the queried name.
    pub rank: u32,
    /// Global resolver index (rebased at merge).
    pub resolver: u32,
    /// Client-observed RTT: probe→resolver link plus resolver work.
    pub rtt_ms: u32,
    /// True when the resolver answered from cache.
    pub cache_hit: bool,
    /// True when the response was a usable NOERROR answer.
    pub ok: bool,
}

/// A campaign dataset: one run of rows per non-empty cell, in cell
/// order, each run in the fire order its cell wrote it. No row is
/// held twice: merging cells moves their runs, and the canonical
/// `(at_ms, cell)` order is streamed by [`ZipfDataset::digest`]
/// through [`merge_by_time`] rather than stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZipfDataset {
    runs: Vec<Vec<ZipfRow>>,
}

impl ZipfDataset {
    /// Every row, cell by cell. Rows of one cell come out in fire
    /// order, but the view is not in time order across cells: only
    /// [`ZipfDataset::digest`] walks the time order.
    pub fn rows(&self) -> Rows<'_> {
        Rows { runs: &self.runs }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// True when no queries fired.
    pub fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    /// Fraction of queries answered from cache.
    pub fn hit_rate(&self) -> f64 {
        let rows = self.len();
        if rows == 0 {
            return 0.0;
        }
        let hits: usize = self
            .runs
            .iter()
            .map(|run| run.iter().filter(|r| r.cache_hit).count())
            .sum();
        hits as f64 / rows as f64
    }

    /// FNV-1a over every row in canonical `(at_ms, cell)` order: a
    /// cheap order-sensitive fingerprint. It streams the cells' runs
    /// through [`merge_by_time`] and hashes as it goes, so it copies
    /// no row. Digest equality across worker counts (or engines)
    /// certifies the identical row sequence.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        for r in self.time_order() {
            mix(r.at_ms);
            mix(r.probe as u64);
            mix(r.rank as u64);
            mix(r.resolver as u64);
            mix(r.rtt_ms as u64);
            mix(u64::from(r.cache_hit) << 1 | u64::from(r.ok));
        }
        h
    }

    /// Every row in canonical `(at_ms, cell)` order, streamed from the
    /// runs.
    fn time_order(&self) -> impl Iterator<Item = &ZipfRow> {
        merge_by_time(self.runs.iter().map(|run| run.iter()), |r| r.at_ms).map(|(_, r)| r)
    }

    /// Merges per-cell datasets into one, parameterized by however
    /// many parts the caller produced. Each part's resolver indices are
    /// rebased in place by its `resolver_base` (probe indices are
    /// already global) and its runs move into the merged dataset in
    /// part order, so no row is copied. Part order is what breaks
    /// ties in [`ZipfDataset::digest`]'s time order: simultaneous fires
    /// in different cells come out in cell order — the same total
    /// order a single-cell run of the concatenated population would
    /// produce.
    pub fn merge_cells(parts: Vec<(ZipfDataset, u32)>) -> ZipfDataset {
        let mut runs = Vec::with_capacity(parts.len());
        for (part, base) in parts {
            for mut run in part.runs {
                for r in &mut run {
                    r.resolver += base;
                }
                runs.push(run);
            }
        }
        ZipfDataset { runs }
    }
}

/// One cell's dataset: the rows it wrote, which must be in time order
/// (fire order), kept in that vector.
impl From<Vec<ZipfRow>> for ZipfDataset {
    fn from(rows: Vec<ZipfRow>) -> ZipfDataset {
        let runs = if rows.is_empty() {
            Vec::new()
        } else {
            vec![rows]
        };
        ZipfDataset { runs }
    }
}

/// A borrowed view of a [`ZipfDataset`]'s rows, cell by cell: each
/// cell's rows in fire order, the cells in cell order. It is not the
/// time order across cells; only [`ZipfDataset::digest`] gives that.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    runs: &'a [Vec<ZipfRow>],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// True when the view holds no row.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(Vec::is_empty)
    }

    /// Every row, cell by cell.
    pub fn iter(&self) -> Flatten<std::slice::Iter<'a, Vec<ZipfRow>>> {
        self.runs.iter().flatten()
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a ZipfRow;
    type IntoIter = Flatten<std::slice::Iter<'a, Vec<ZipfRow>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Cell-local probe state, flattened into struct-of-arrays buffers:
/// the per-cell inner loop reads each array linearly instead of
/// chasing one heap allocation per probe.
#[derive(Debug, Clone, Default)]
pub struct ProbeFrame {
    /// First fire time per probe, in simulated ms: the sweeps seed
    /// their schedules from it.
    pub next_fire_ms: Vec<u64>,
    /// Popularity rank per probe (index into the name universe).
    pub rank: Vec<u32>,
    /// Cell-local resolver binding per probe (fixed at build).
    pub resolver: Vec<u32>,
    /// Probe→resolver link RTT per probe, in ms.
    pub link_rtt_ms: Vec<u32>,
    /// Queries issued per probe.
    pub queries: Vec<u32>,
    /// Cache hits observed per probe.
    pub hits: Vec<u32>,
}

impl ProbeFrame {
    /// Draws `probes` probes' static state and initial phases from
    /// `rng`. Both engines share this routine, so their RNG
    /// consumption is identical by construction.
    pub fn build(
        cfg: &ZipfCampaignConfig,
        sampler: &ZipfSampler,
        probes: usize,
        rng: &mut SimRng,
    ) -> ProbeFrame {
        let base_ms = cfg.frequency.as_millis().max(1);
        let resolvers = cfg.resolvers_per_cell.max(1) as u64;
        let mut frame = ProbeFrame {
            next_fire_ms: Vec::with_capacity(probes),
            rank: Vec::with_capacity(probes),
            resolver: Vec::with_capacity(probes),
            link_rtt_ms: Vec::with_capacity(probes),
            queries: vec![0; probes],
            hits: vec![0; probes],
        };
        for _ in 0..probes {
            frame.rank.push(sampler.sample(rng) as u32);
            frame.resolver.push(rng.below(resolvers) as u32);
            // LAN/ISP link: 1–8 ms, same band as Population::build.
            frame.link_rtt_ms.push(1 + rng.below(8) as u32);
            frame.next_fire_ms.push(rng.below(base_ms));
        }
        frame
    }

    /// Number of probes in the frame.
    pub fn len(&self) -> usize {
        self.next_fire_ms.len()
    }

    /// True when the frame holds no probes.
    pub fn is_empty(&self) -> bool {
        self.next_fire_ms.is_empty()
    }
}

/// What one cell returns to the coordinator: plain data only (the
/// world's `Rc`-backed handles never cross the thread boundary).
#[derive(Debug, Default)]
pub struct ZipfCellOut {
    /// Rows in fire order; probe indices global, resolver indices
    /// cell-local until [`ZipfDataset::merge_cells`] rebases them.
    pub dataset: ZipfDataset,
    /// Queries issued per cell-local probe.
    pub queries: Vec<u32>,
    /// Cache hits per cell-local probe.
    pub hits: Vec<u32>,
    /// Summed cache statistics over the cell's resolvers.
    pub cache: CacheStats,
    /// Resolver caches the cell instantiated.
    pub resolvers: usize,
}

/// The merged campaign outcome.
#[derive(Debug, Default)]
pub struct ZipfOutcome {
    /// All rows with global indices, one run per cell.
    pub dataset: ZipfDataset,
    /// Queries per probe, global probe order.
    pub queries_per_probe: Vec<u32>,
    /// Cache hits per probe, global probe order.
    pub hits_per_probe: Vec<u32>,
    /// Summed cache statistics across every cell's resolvers.
    pub cache: CacheStats,
    /// Total resolver caches across cells.
    pub resolvers: usize,
}

/// Runtime options orthogonal to the experiment's identity: none of
/// these may change a single output byte (`tests/shard_equivalence.rs`
/// holds the worker knob to that; telemetry only adds observability
/// artifacts).
#[derive(Debug, Clone)]
pub struct ZipfRunOpts {
    /// Worker threads for the cell fan-out (throughput only).
    pub workers: usize,
    /// Inner-loop engine (the oracle exists for differential tests).
    pub engine: ZipfEngine,
    /// The handle the campaign reports into: each cell records into
    /// one shaped like it, absorbed here in cell order. Disabled by
    /// default.
    pub telemetry: Telemetry,
    /// Label of the stderr heartbeat for long campaigns; `None` is
    /// silent.
    pub progress: Option<&'static str>,
}

impl Default for ZipfRunOpts {
    fn default() -> ZipfRunOpts {
        ZipfRunOpts {
            workers: 1,
            engine: ZipfEngine::Soa,
            telemetry: Telemetry::disabled(),
            progress: None,
        }
    }
}

/// The `zipf` zone every cell of a campaign serves: one `A` record per
/// universe name. The owners are the campaign's own `names`, so a
/// probe's question and the record it finds share one buffer. No cell
/// changes it, so a campaign builds it once and its cells share it.
fn zipf_zone(names: &[Name], record_ttl: Ttl) -> Arc<Zone> {
    let mut zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR).a(
        "ns.zipf",
        "192.0.2.53",
        Ttl::HOUR,
    );
    for (k, name) in names.iter().enumerate() {
        let addr = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        zone = zone.record(Record::new(name.clone(), record_ttl, RData::A(addr)));
    }
    Arc::new(zone.build())
}

/// Builds one cell's authoritative world over the shared `zipf` zone:
/// a root of its own delegating `zipf` to a child server, and the
/// network they sit on. A cell's servers, like its resolvers, are its
/// own; only the read-only zone is not.
fn zipf_world(zone: &Arc<Zone>) -> (Network, Arc<[RootHint]>) {
    use dnsttl_auth::AuthoritativeServer;
    use std::cell::RefCell;
    use std::net::IpAddr;
    use std::rc::Rc;

    let root_addr: IpAddr = "198.41.0.4".parse().expect("static");
    let child_addr: IpAddr = "192.0.2.53".parse().expect("static");
    let root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("zipf", "ns.zipf", Ttl::TWO_DAYS)
            .a("ns.zipf", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    let child = AuthoritativeServer::new("ns.zipf").with_zone(Arc::clone(zone));
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
    let roots = Arc::from([RootHint {
        ns_name: Name::parse("root").expect("static"),
        addr: root_addr,
    }]);
    (net, roots)
}

/// Executes one fire: resolve the probe's name, record the row, bump
/// campaign counters. Both engines call this with identical arguments
/// in identical order, so per-query behaviour is engine-invariant by
/// construction. Returns whether the resolver answered from cache.
#[allow(clippy::too_many_arguments)]
fn fire_one(
    t_ms: u64,
    global_probe: u32,
    rank: u32,
    resolver_local: u32,
    link_rtt_ms: u32,
    names: &[Name],
    resolvers: &mut [RecursiveResolver],
    net: &mut Network,
    telemetry: &Telemetry,
    out: &mut Vec<ZipfRow>,
) -> bool {
    let qname = &names[rank as usize];
    let now = dnsttl_netsim::SimTime::from_millis(t_ms);
    let verdict =
        resolvers[resolver_local as usize].resolve_verdict(qname, RecordType::A, now, net);
    let ok = verdict.rcode == Rcode::NoError && verdict.answers > 0;
    let row = ZipfRow {
        at_ms: t_ms,
        probe: global_probe,
        rank,
        resolver: resolver_local,
        rtt_ms: link_rtt_ms + verdict.elapsed.as_millis() as u32,
        cache_hit: verdict.cache_hit,
        ok,
    };
    out.push(row);
    telemetry.count_keyed_at(&ZIPF_QUERIES, 1, t_ms);
    if verdict.cache_hit {
        telemetry.count_keyed_at(&ZIPF_HITS, 1, t_ms);
    }
    verdict.cache_hit
}

/// Runs one cell end to end with the chosen engine, over a `zipf` zone
/// built for it alone: [`run_zipf_campaign`] builds that zone once and
/// runs every cell over it through the same routine.
///
/// The RNG stream is `shard_seed`-derived by the caller; world
/// construction, resolver forks, and frame build consume it in a fixed
/// order shared by both engines.
#[allow(clippy::too_many_arguments)]
pub fn run_zipf_cell(
    cfg: &ZipfCampaignConfig,
    sampler: &ZipfSampler,
    names: &[Name],
    cell_probes: usize,
    probe_base: u32,
    seed: u64,
    engine: ZipfEngine,
    telemetry: &Telemetry,
) -> ZipfCellOut {
    let zone = zipf_zone(names, cfg.record_ttl);
    zipf_cell(
        cfg,
        sampler,
        names,
        &zone,
        cell_probes,
        probe_base,
        seed,
        engine,
        telemetry,
    )
}

/// Runs one cell over the campaign's shared `zone`, which serves
/// `names`.
#[allow(clippy::too_many_arguments)]
fn zipf_cell(
    cfg: &ZipfCampaignConfig,
    sampler: &ZipfSampler,
    names: &[Name],
    zone: &Arc<Zone>,
    cell_probes: usize,
    probe_base: u32,
    seed: u64,
    engine: ZipfEngine,
    telemetry: &Telemetry,
) -> ZipfCellOut {
    if cell_probes == 0 {
        // Nothing to simulate: skip world construction entirely so an
        // oversized cell count doesn't pay for empty worlds. Zero
        // resolvers keeps the merge rebase exact.
        return ZipfCellOut::default();
    }
    let (mut net, roots) = zipf_world(zone);
    let mut rng = SimRng::seed_from(seed);
    let policy = Arc::new(dnsttl_core::ResolverPolicy::default());
    let mut labels = Labels::default();
    let mut resolvers: Vec<RecursiveResolver> = (0..cfg.resolvers_per_cell.max(1))
        .map(|i| {
            RecursiveResolver::new(
                labels.format(format_args!("zipf-{probe_base}-{i}")),
                policy.clone(),
                Region::Eu,
                i as u64,
                roots.clone(),
                rng.fork(1_000_000 + i as u64),
            )
        })
        .collect();
    let mut frame = ProbeFrame::build(cfg, sampler, cell_probes, &mut rng);

    let mut rows = Vec::new();
    let base_ms = cfg.frequency.as_millis().max(1);
    let end_ms = cfg.duration.as_millis();
    match engine {
        ZipfEngine::Soa => {
            run_soa_sweep(
                cfg,
                &mut frame,
                probe_base,
                names,
                &mut resolvers,
                &mut net,
                telemetry,
                &mut rows,
                base_ms,
                end_ms,
            );
        }
        ZipfEngine::Oracle => {
            run_oracle(
                cfg,
                &mut frame,
                probe_base,
                names,
                &mut resolvers,
                &mut net,
                telemetry,
                &mut rows,
                base_ms,
                end_ms,
            );
        }
    }

    let mut cache = CacheStats::default();
    for r in &resolvers {
        cache.absorb(&r.cache().stats());
    }
    ZipfCellOut {
        dataset: ZipfDataset::from(rows),
        queries: frame.queries,
        hits: frame.hits,
        cache,
        resolvers: resolvers.len(),
    }
}

/// The production inner loop: a hierarchical timing wheel over the SoA
/// frame. The frame's initial fire times seed the wheel once; every pop
/// yields the globally earliest `(fire_time_ms, probe_idx)` pair — the
/// exact order the oracle's heap produces, because the wheel drains
/// each bucket by full-key minimum — and each fire reschedules itself
/// with one O(1) bucket push. Probes whose next fire crosses the
/// campaign horizon pop once more and drop without rescheduling,
/// mirroring the oracle. The wheel's slot buckets persist across the
/// whole sweep, so steady-state advancement allocates nothing.
#[allow(clippy::too_many_arguments)]
fn run_soa_sweep(
    cfg: &ZipfCampaignConfig,
    frame: &mut ProbeFrame,
    probe_base: u32,
    names: &[Name],
    resolvers: &mut [RecursiveResolver],
    net: &mut Network,
    telemetry: &Telemetry,
    rows: &mut Vec<ZipfRow>,
    base_ms: u64,
    end_ms: u64,
) {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    for (i, &t) in frame.next_fire_ms.iter().enumerate() {
        wheel.insert(t, i as u32);
    }
    while let Some((t, i)) = wheel.pop_first() {
        if t >= end_ms {
            continue; // past the horizon: drop without rescheduling
        }
        let idx = i as usize;
        let hit = fire_one(
            t,
            probe_base + i,
            frame.rank[idx],
            frame.resolver[idx],
            frame.link_rtt_ms[idx],
            names,
            resolvers,
            net,
            telemetry,
            rows,
        );
        frame.queries[idx] += 1;
        frame.hits[idx] += u32::from(hit);
        let next = t + cfg.diurnal.interval_ms(base_ms, t);
        debug_assert!(next > t, "warped intervals are always positive");
        wheel.insert(next, i);
    }
}

/// The pointer-based oracle: one boxed struct per probe (the layout
/// the SoA frame replaced) behind an [`OracleHeap`], keyed by
/// the canonical `(fire_time_ms, probe_idx)` tuple the wheel sweep
/// must reproduce.
#[allow(clippy::too_many_arguments)]
fn run_oracle(
    cfg: &ZipfCampaignConfig,
    frame: &mut ProbeFrame,
    probe_base: u32,
    names: &[Name],
    resolvers: &mut [RecursiveResolver],
    net: &mut Network,
    telemetry: &Telemetry,
    rows: &mut Vec<ZipfRow>,
    base_ms: u64,
    end_ms: u64,
) {
    struct OracleProbe {
        rank: u32,
        resolver: u32,
        link_rtt_ms: u32,
        queries: u32,
        hits: u32,
    }
    let mut probes: Vec<Box<OracleProbe>> = (0..frame.len())
        .map(|i| {
            Box::new(OracleProbe {
                rank: frame.rank[i],
                resolver: frame.resolver[i],
                link_rtt_ms: frame.link_rtt_ms[i],
                queries: 0,
                hits: 0,
            })
        })
        .collect();
    let mut heap: OracleHeap<(u64, u32)> = frame
        .next_fire_ms
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();
    while let Some((t, i)) = heap.pop() {
        if t >= end_ms {
            continue; // past the horizon: drop without rescheduling
        }
        let p = &mut probes[i as usize];
        let hit = fire_one(
            t,
            probe_base + i,
            p.rank,
            p.resolver,
            p.link_rtt_ms,
            names,
            resolvers,
            net,
            telemetry,
            rows,
        );
        p.queries += 1;
        p.hits += u32::from(hit);
        heap.push((t + cfg.diurnal.interval_ms(base_ms, t), i));
    }
    for (i, p) in probes.iter().enumerate() {
        frame.queries[i] = p.queries;
        frame.hits[i] = p.hits;
    }
}

/// Runs a full campaign: partitions probes over `cfg.cells` logical
/// cells, executes them on `opts.workers` threads, and merges every
/// output in fixed cell order. Byte-identical for any worker count.
///
/// # Panics
/// Panics when `cfg.cells` is not a power of two — CLI layers validate
/// first (`ZipfCampaignConfig::validate_cells`).
pub fn run_zipf_campaign(
    cfg: &ZipfCampaignConfig,
    run_seed: u64,
    opts: &ZipfRunOpts,
) -> ZipfOutcome {
    run_zipf_campaign_profiled(cfg, run_seed, opts).0
}

/// [`run_zipf_campaign`] plus the wall-clock [`ShardProfile`] of the
/// fan-out (the benchmark's attribution; never enters deterministic
/// artifacts).
pub fn run_zipf_campaign_profiled(
    cfg: &ZipfCampaignConfig,
    run_seed: u64,
    opts: &ZipfRunOpts,
) -> (ZipfOutcome, ShardProfile) {
    cfg.validate_cells().expect("validated by CLI layers");
    let sampler = ZipfSampler::new(cfg.names.max(1), cfg.exponent);
    let mut text = String::new();
    let names: Vec<Name> = (0..cfg.names.max(1))
        .map(|k| {
            text.clear();
            write!(text, "r{k}.zipf").expect("a String takes every write");
            Name::parse(&text).expect("static name shape")
        })
        .collect();
    let zone = zipf_zone(&names, cfg.record_ttl);
    let sizes = partition(cfg.probes, cfg.cells);
    let bases = partition_bases(&sizes);

    let plan = FanOut {
        workers: opts.workers,
        cells: cfg.cells,
        progress: opts.progress,
    };
    let engine = opts.engine;
    let (cell_outs, profile) = fan_out(&plan, &opts.telemetry, |cell, telemetry| {
        let out = zipf_cell(
            cfg,
            &sampler,
            &names,
            &zone,
            sizes[cell],
            bases[cell] as u32,
            shard_seed(run_seed, cell as u64),
            engine,
            telemetry,
        );
        let progress = (cfg.duration.as_millis(), out.dataset.len() as u64);
        (out, progress)
    });

    let mut outcome = ZipfOutcome::default();
    let mut ds_parts = Vec::with_capacity(cell_outs.len());
    for out in cell_outs {
        ds_parts.push((out.dataset, outcome.resolvers as u32));
        outcome.resolvers += out.resolvers;
        outcome.queries_per_probe.extend_from_slice(&out.queries);
        outcome.hits_per_probe.extend_from_slice(&out.hits);
        outcome.cache.absorb(&out.cache);
    }
    outcome.dataset = ZipfDataset::merge_cells(ds_parts);
    (outcome, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ZipfCampaignConfig {
        let mut cfg = ZipfCampaignConfig::small(96);
        cfg.cells = 4;
        cfg.duration = SimDuration::from_hours(1);
        cfg
    }

    #[test]
    fn a_name_asked_in_other_case_is_answered_from_the_cache() {
        use dnsttl_netsim::SimTime;
        use dnsttl_wire::{Message, RData};
        let names: Vec<Name> = (0..8)
            .map(|k| Name::parse(&format!("r{k}.zipf")).unwrap())
            .collect();
        let (mut net, roots) = zipf_world(&zipf_zone(&names, Ttl::HOUR));
        let policy = dnsttl_core::ResolverPolicy::default();
        let rng = SimRng::seed_from(3);
        let mut resolver = RecursiveResolver::new("case", policy, Region::Eu, 0, roots, rng);
        let stored = resolver.resolve(&names[7], RecordType::A, SimTime::from_secs(1), &mut net);
        assert!(!stored.cache_hit);
        // A separate buffer in other case: the cache's probe falls back
        // to folding case and finds the entry `r7.zipf` stored.
        let upper = Name::parse("R7.ZIPF").unwrap();
        let again = resolver.resolve(&upper, RecordType::A, SimTime::from_secs(2), &mut net);
        assert!(again.cache_hit);
        let addrs =
            |m: &Message| -> Vec<RData> { m.sectioned_records().map(|(_, r)| r.rdata).collect() };
        assert_eq!(addrs(&stored.answer), [RData::A([10, 0, 0, 7].into())]);
        assert_eq!(addrs(&again.answer), addrs(&stored.answer));
    }

    #[test]
    fn campaign_is_deterministic_and_merges_all_probes() {
        let cfg = tiny_cfg();
        let a = run_zipf_campaign(&cfg, 7, &ZipfRunOpts::default());
        let b = run_zipf_campaign(&cfg, 7, &ZipfRunOpts::default());
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.queries_per_probe.len(), cfg.probes);
        assert_eq!(a.dataset.digest(), b.dataset.digest());
        assert!(!a.dataset.is_empty());
        let total: u64 = a.queries_per_probe.iter().map(|&q| q as u64).sum();
        assert_eq!(total, a.dataset.len() as u64);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let cfg = tiny_cfg();
        let seq = run_zipf_campaign(&cfg, 11, &ZipfRunOpts::default());
        for workers in [2, 4, 8] {
            let par = run_zipf_campaign(
                &cfg,
                11,
                &ZipfRunOpts {
                    workers,
                    ..ZipfRunOpts::default()
                },
            );
            assert_eq!(seq.dataset, par.dataset, "workers={workers}");
            assert_eq!(seq.queries_per_probe, par.queries_per_probe);
            assert_eq!(seq.cache, par.cache);
        }
    }

    #[test]
    fn cell_count_is_part_of_identity() {
        let cfg16 = tiny_cfg();
        let mut cfg8 = tiny_cfg();
        cfg8.cells = 8;
        let a = run_zipf_campaign(&cfg16, 5, &ZipfRunOpts::default());
        let b = run_zipf_campaign(&cfg8, 5, &ZipfRunOpts::default());
        assert_ne!(
            a.dataset.digest(),
            b.dataset.digest(),
            "repartitioning must reseed cells"
        );
    }

    #[test]
    fn non_power_of_two_cells_rejected() {
        let mut cfg = tiny_cfg();
        cfg.cells = 12;
        assert!(cfg.validate_cells().is_err());
        cfg.cells = 64;
        assert!(cfg.validate_cells().is_ok());
    }

    #[test]
    fn merge_handles_empty_and_unbalanced_parts() {
        let row = |at_ms: u64, probe: u32, resolver: u32| ZipfRow {
            at_ms,
            probe,
            rank: 0,
            resolver,
            rtt_ms: 1,
            cache_hit: false,
            ok: true,
        };
        let a = ZipfDataset::from(vec![row(5, 0, 0), row(9, 1, 1)]);
        let b = ZipfDataset::default();
        let c = ZipfDataset::from(vec![row(5, 2, 0)]);
        let merged = ZipfDataset::merge_cells(vec![(a, 0), (b, 4), (c, 6)]);
        assert_eq!(merged.len(), 3);
        let got: Vec<(u64, u32, u32)> = merged
            .time_order()
            .map(|r| (r.at_ms, r.probe, r.resolver))
            .collect();
        // Tie at t=5 lands in part (cell) order; resolvers rebased.
        assert_eq!(got, vec![(5, 0, 0), (5, 2, 6), (9, 1, 1)]);
    }

    #[test]
    fn streamed_order_matches_a_stable_sort_of_the_concatenated_cells() {
        // The outside model: concatenate every cell's rebased rows,
        // sort them stably by time, hash them. Cells share a narrow
        // time range, so ties across cells are everywhere, and some
        // cells are empty.
        let mut rng = SimRng::seed_from(0x5eed);
        for k in [1usize, 2, 3, 4, 64] {
            for _ in 0..3 {
                let mut parts = Vec::with_capacity(k);
                let mut model = Vec::new();
                let mut probe = 0u32;
                let mut resolver_base = 0u32;
                for _ in 0..k {
                    let len = if rng.chance(0.2) {
                        0
                    } else {
                        rng.below(5_001) as usize
                    };
                    let mut at_ms = rng.below(4);
                    let mut rows = Vec::with_capacity(len);
                    for _ in 0..len {
                        at_ms += rng.below(3);
                        rows.push(ZipfRow {
                            at_ms,
                            probe,
                            rank: rng.below(1_000) as u32,
                            resolver: rng.below(8) as u32,
                            rtt_ms: rng.below(400) as u32,
                            cache_hit: rng.chance(0.5),
                            ok: rng.chance(0.9),
                        });
                        probe += 1;
                    }
                    model.extend(rows.iter().map(|r| ZipfRow {
                        resolver: r.resolver + resolver_base,
                        ..*r
                    }));
                    parts.push((ZipfDataset::from(rows), resolver_base));
                    resolver_base += 8;
                }
                let merged = ZipfDataset::merge_cells(parts);

                let mut by_probe: Vec<ZipfRow> = merged.rows().iter().copied().collect();
                by_probe.sort_by_key(|r| r.probe);
                assert_eq!(by_probe, model, "k={k}: every row exactly once, rebased");
                assert_eq!(merged.len(), model.len());

                model.sort_by_key(|r| r.at_ms);
                let mut h = FNV_OFFSET;
                let mut mix = |v: u64| h = fnv1a(h, &v.to_le_bytes());
                for r in &model {
                    mix(r.at_ms);
                    mix(r.probe as u64);
                    mix(r.rank as u64);
                    mix(r.resolver as u64);
                    mix(r.rtt_ms as u64);
                    mix(u64::from(r.cache_hit) << 1 | u64::from(r.ok));
                }
                assert_eq!(merged.digest(), h, "k={k}: digest of the time order");
            }
        }
    }
}
