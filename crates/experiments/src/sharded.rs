//! The measurement-campaign engine, unsharded or sharded.
//!
//! Without `--shards` a campaign builds one global population and
//! drives one event queue. With it, the campaign is partitioned into
//! `cfg.cells` logical cells (default: the classic 16, tunable as a
//! power of two via `--cells`), each run as a self-contained
//! simulation (its own world, population, resolver caches, and RNG
//! stream derived via [`shard_seed`]), and the per-cell datasets and
//! telemetry are merged back together in fixed cell order.
//!
//! The determinism contract (DESIGN.md §10): the cell partition and all
//! per-cell seeds depend only on the run seed and the cell id, never on
//! the worker count or thread scheduling. `--shards 1` runs the cells
//! inline on the calling thread and is the reference oracle;
//! `tests/shard_equivalence.rs` asserts that every worker count
//! reproduces its output byte for byte.
//!
//! Sharding changes the experiment relative to the unsharded run in one
//! deliberate way: resolver caches are shared within a cell, not across
//! the whole population, so shared-cache effects (Figures 1–2 bands,
//! cache-hit rates) are computed per cell and merged. Cells are large
//! enough that the paper's qualitative findings survive — the
//! experiment tests assert the same bands for both.

use crate::config::ExpConfig;
use crate::worlds;
use dnsttl_atlas::{
    partition, partition_bases, run_cells, run_measurement, Dataset, MeasurementSpec, Population,
    PopulationConfig, ProgressSink,
};
use dnsttl_netsim::{shard_seed, Network, SimRng};
use dnsttl_resolver::RootHint;
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::Ttl;
use std::net::IpAddr;

/// A recipe for building one experiment world.
///
/// Cells construct their own `Network` inside their worker thread (the
/// simulator's service handles are deliberately not `Send`), so the
/// sharded engine passes this plain-data description instead of a
/// built world.
#[derive(Debug, Clone, Copy)]
pub enum WorldSpec {
    /// `.uy` with the given child NS / child A TTLs ([`worlds::uy_world`]).
    Uy {
        /// Child-side `.uy` NS TTL.
        ns_ttl: Ttl,
        /// Child-side `a.nic.uy` A TTL.
        a_ttl: Ttl,
    },
    /// `google.co` ([`worlds::google_co_world`]).
    GoogleCo,
    /// The §6.2 controlled test zone ([`worlds::controlled_world`]);
    /// exposes the test server's address for authoritative-side counts.
    Controlled {
        /// TTL of the test AAAA record.
        aaaa_ttl: Ttl,
        /// Serve the zone from an anycast set instead of one unicast site.
        anycast: bool,
    },
}

impl WorldSpec {
    /// Builds the world; the third element is the authoritative test
    /// address to count queries against, when the experiment has one.
    pub fn build(self) -> (Network, Vec<RootHint>, Option<IpAddr>) {
        match self {
            WorldSpec::Uy { ns_ttl, a_ttl } => {
                let (net, roots) = worlds::uy_world(ns_ttl, a_ttl);
                (net, roots, None)
            }
            WorldSpec::GoogleCo => {
                let (net, roots) = worlds::google_co_world();
                (net, roots, None)
            }
            WorldSpec::Controlled { aaaa_ttl, anycast } => {
                let (net, roots, addr) = worlds::controlled_world(aaaa_ttl, anycast);
                (net, roots, Some(addr))
            }
        }
    }
}

/// The merged result of a sharded measurement campaign.
pub struct ShardedOutcome {
    /// All cells' results, rebased and re-ordered by simulation time.
    pub dataset: Dataset,
    /// Total probes across cells.
    pub probes: usize,
    /// Total vantage points across cells.
    pub vps: usize,
    /// Queries the authoritative test address received, summed over
    /// cells (cells own disjoint resolvers, so the sum is exact).
    pub auth_queries: u64,
    /// Distinct resolver sources at the test address, summed over cells.
    pub auth_sources: usize,
}

/// What a cell sends back to the coordinator: plain data only.
struct CellOut {
    dataset: Dataset,
    probes: usize,
    resolvers: usize,
    vps: usize,
    auth_queries: u64,
    auth_sources: usize,
}

/// Runs `cells` independent jobs on `workers` threads, each against its
/// own telemetry handle configured like `cfg.telemetry`, and folds the
/// drained per-cell telemetry into `cfg.telemetry` in cell order — so
/// metrics, traces, and manifests are worker-count-invariant.
///
/// A job returns its result plus `(sim-time frontier in ms, events
/// processed)` for the `--progress` heartbeat, which goes to stderr
/// only: the deterministic artifacts never see the wall clock behind
/// it.
pub fn fan_out<T: Send>(
    cfg: &ExpConfig,
    workers: usize,
    cells: usize,
    tag: &str,
    job: impl Fn(usize, &Telemetry) -> (T, (u64, u64)) + Sync,
) -> Vec<T> {
    let enabled = cfg.telemetry.is_enabled();
    let (ts_bucket_ms, ts_span_cap) = (cfg.ts_bucket_ms, cfg.ts_span_cap);
    let progress = cfg
        .progress_ms
        .map(|ms| ProgressSink::new(tag, workers, cells, ms));
    let (outs, parts): (Vec<T>, Vec<_>) = run_cells(workers, cells, |cell| {
        let telemetry = if enabled {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        telemetry.configure_timeseries(ts_bucket_ms, ts_span_cap);
        let (out, (frontier_ms, events)) = job(cell, &telemetry);
        if let Some(sink) = &progress {
            sink.cell_finished(frontier_ms, events);
        }
        (out, telemetry.take_parts())
    })
    .into_iter()
    .unzip();
    if enabled {
        cfg.telemetry.absorb_shards(parts);
    }
    outs
}

/// Builds one world, populates it with `probes` probes numbered from
/// `probe_id_base`, and runs `spec` against it — the whole campaign
/// when unsharded, one cell of it otherwise.
fn measure(
    world: WorldSpec,
    spec: &MeasurementSpec,
    telemetry: &Telemetry,
    seed: u64,
    probes: usize,
    probe_id_base: u32,
) -> CellOut {
    let (mut net, roots, test_addr) = world.build();
    net.set_telemetry(telemetry.clone());
    let mut rng = SimRng::seed_from(seed);
    let mut pop_cfg = PopulationConfig::small(probes);
    pop_cfg.probe_id_base = probe_id_base;
    let mut pop = Population::build(&pop_cfg, &roots, &mut rng);
    pop.set_telemetry(telemetry);
    let dataset = run_measurement(spec, &mut pop, &mut net, &mut rng);
    CellOut {
        dataset,
        probes: pop.probe_count(),
        resolvers: pop.resolvers.len(),
        vps: pop.vp_count(),
        auth_queries: test_addr.map_or(0, |a| net.queries_received(a)),
        auth_sources: test_addr.map_or(0, |a| net.distinct_sources(a)),
    }
}

/// Runs one measurement campaign under the seed `cfg.seed_for(tag)`.
///
/// Without `cfg.shards` the whole population shares one world and one
/// event queue. With it, the campaign is split over `cfg.cells` logical
/// cells (default: the classic 16) on that many worker threads, each
/// cell deriving its own stream with [`shard_seed`], and the results
/// are merged in cell order. The cell count, unlike the worker count,
/// is part of the experiment's identity (different partitions,
/// different per-cell seeds).
pub fn measurement_campaign(
    cfg: &ExpConfig,
    tag: &str,
    world: WorldSpec,
    spec: &MeasurementSpec,
) -> ShardedOutcome {
    let run_seed = cfg.seed_for(tag);
    let Some(workers) = cfg.shards else {
        let whole = measure(world, spec, &cfg.telemetry, run_seed, cfg.probes, 0);
        crate::flightdeck::record_latency_quantiles(&cfg.telemetry, tag, &whole.dataset);
        return ShardedOutcome {
            dataset: whole.dataset,
            probes: whole.probes,
            vps: whole.vps,
            auth_queries: whole.auth_queries,
            auth_sources: whole.auth_sources,
        };
    };
    let cell_count = cfg.cells.unwrap_or(dnsttl_atlas::LOGICAL_SHARDS).max(1);
    let sizes = partition(cfg.probes, cell_count);
    let bases = partition_bases(&sizes);
    let cells = fan_out(cfg, workers, cell_count, tag, |cell, telemetry| {
        let seed = shard_seed(run_seed, cell as u64);
        let out = measure(
            world,
            spec,
            telemetry,
            seed,
            sizes[cell],
            bases[cell] as u32,
        );
        let rows = out.dataset.results();
        let frontier = rows.iter().map(|r| r.at.as_millis()).max();
        let progress = (frontier.unwrap_or(0), rows.len() as u64);
        (out, progress)
    });

    let mut dataset_parts = Vec::with_capacity(cells.len());
    let mut outcome = ShardedOutcome {
        dataset: Dataset::new(),
        probes: 0,
        vps: 0,
        auth_queries: 0,
        auth_sources: 0,
    };
    let mut resolver_base = 0;
    for (cell, out) in cells.into_iter().enumerate() {
        dataset_parts.push((out.dataset, bases[cell], resolver_base));
        resolver_base += out.resolvers;
        outcome.probes += out.probes;
        outcome.vps += out.vps;
        outcome.auth_queries += out.auth_queries;
        outcome.auth_sources += out.auth_sources;
    }
    outcome.dataset = Dataset::merge_shards(dataset_parts);
    // Record latency quantiles over the *merged* dataset, never per
    // cell: the sketches then depend only on the dataset rows and stay
    // byte-identical across worker counts.
    crate::flightdeck::record_latency_quantiles(&cfg.telemetry, tag, &outcome.dataset);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_atlas::QueryName;
    use dnsttl_wire::{Name, RecordType};

    fn uy_spec() -> MeasurementSpec {
        MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").expect("static")),
            RecordType::NS,
            1,
        )
    }

    fn run_with(workers: usize, seed: u64) -> ShardedOutcome {
        run_with_cells(workers, seed, None)
    }

    fn run_with_cells(workers: usize, seed: u64, cells: Option<usize>) -> ShardedOutcome {
        let cfg = ExpConfig {
            seed,
            probes: 160,
            shards: Some(workers),
            cells,
            ..ExpConfig::quick()
        };
        let world = WorldSpec::Uy {
            ns_ttl: Ttl::from_secs(300),
            a_ttl: Ttl::from_secs(120),
        };
        measurement_campaign(&cfg, "sharded-test", world, &uy_spec())
    }

    type Row = (u64, u32, usize, usize, Option<u64>, u64, bool);

    fn fingerprint(o: &ShardedOutcome) -> Vec<Row> {
        o.dataset
            .results()
            .iter()
            .map(|r| {
                (
                    r.at.as_millis(),
                    r.probe_id,
                    r.probe_idx,
                    r.resolver_idx,
                    r.ttl,
                    r.rtt_ms,
                    r.valid,
                )
            })
            .collect()
    }

    #[test]
    fn outcome_is_worker_count_invariant() {
        let one = run_with(1, 42);
        for workers in [2, 5, 8] {
            let many = run_with(workers, 42);
            assert_eq!(fingerprint(&one), fingerprint(&many), "workers={workers}");
            assert_eq!(one.probes, many.probes);
            assert_eq!(one.vps, many.vps);
        }
    }

    #[test]
    fn outcome_is_worker_count_invariant_at_a_nondefault_cell_count() {
        // Satellite regression for the merge/absorb audit: nothing in
        // `Dataset::merge_shards` or `Telemetry::absorb_shards` may
        // assume the classic 16-cell layout. 64 cells over 160 probes
        // also exercises the uneven-partition path (cells of 3 and 2).
        let one = run_with_cells(1, 42, Some(64));
        for workers in [4, 8] {
            let many = run_with_cells(workers, 42, Some(64));
            assert_eq!(fingerprint(&one), fingerprint(&many), "workers={workers}");
            assert_eq!(one.probes, many.probes);
        }
        // And the cell count itself is identity-changing.
        let classic = run_with(1, 42);
        assert_ne!(fingerprint(&one), fingerprint(&classic));
    }

    #[test]
    fn different_seeds_give_different_outcomes() {
        let a = run_with(4, 1);
        let b = run_with(4, 2);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn probe_ids_are_globally_unique_across_cells() {
        let o = run_with(4, 42);
        assert_eq!(o.probes, 160);
        let mut ids: Vec<u32> = o.dataset.results().iter().map(|r| r.probe_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), o.probes, "every probe reported, ids distinct");
    }
}
