//! The measurement-campaign entry point on the cell engine.
//!
//! A campaign runs on the cell engine in `dnsttl_atlas::shard`:
//! `population_campaign` partitions it into `cfg.cells` logical cells
//! (default: the classic 16, tunable as a power of two via `--cells`),
//! each run as a self-contained simulation (its own world, population,
//! resolver caches, and RNG stream derived via `shard_seed`), and
//! merges the per-cell datasets back together in fixed cell order. The
//! Zipf campaign on the same engine is the one that shares anything:
//! it builds its `zipf` zone once, and each cell's own servers and
//! network serve that one read-only zone.
//! `--shards N` only picks how many worker threads run the cells;
//! without it they run on one. What is left here is the part that
//! needs `ExpConfig` and the worlds: [`WorldSpec`] and the mapping from
//! a config to a [`FanOut`] that reports into the module's handle.
//!
//! The determinism contract (DESIGN.md §10): the cell partition and all
//! per-cell seeds depend only on the run seed and the cell id, never on
//! the worker count or thread scheduling. One worker runs the cells
//! inline on the calling thread and is the reference oracle;
//! `tests/shard_equivalence.rs` asserts that every worker count
//! reproduces its output byte for byte.
//!
//! Resolver caches are shared within a cell, not across the whole
//! population, so shared-cache effects (Figures 1–2 bands, cache-hit
//! rates) are computed per cell and merged. Two modules still run one
//! global population: fig10 (`uy_latency`) without `--shards`, and
//! bailiwick (fig5–8, `bailiwick_exp`) always, whatever `--shards`
//! says, because its renumbering hook acts on the one network every
//! VP shares.

use crate::config::ExpConfig;
use crate::worlds;
pub use dnsttl_atlas::ShardedOutcome;
use dnsttl_atlas::{population_campaign, FanOut, MeasurementSpec};
use dnsttl_netsim::Network;
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
    /// The §6.2 controlled test zone (`worlds::controlled_world`);
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

/// The fan-out `cfg` asks for: `cfg.shards` worker threads (default:
/// one) over `cells` cells and the `--progress` heartbeat under `tag`.
fn plan<'a>(cfg: &ExpConfig, cells: usize, tag: &'a str) -> FanOut<'a> {
    FanOut {
        workers: cfg.shards.unwrap_or(1),
        cells,
        progress: cfg.progress.then_some(tag),
    }
}

/// The logical cell count of a population campaign: `--cells`, or the
/// classic 16.
pub(crate) fn cell_count(cfg: &ExpConfig) -> usize {
    cfg.cells.unwrap_or(dnsttl_atlas::LOGICAL_SHARDS).max(1)
}

/// Runs `cells` independent jobs on `cfg.shards` threads (default:
/// one), each against its own telemetry handle, which
/// `dnsttl_atlas::fan_out` shapes like `cfg.telemetry` and absorbs into
/// it in cell order — so metrics, traces, and manifests are
/// worker-count-invariant.
///
/// A job returns its result plus `(sim-time frontier in ms, events
/// processed)` for the `--progress` heartbeat.
pub fn fan_out<T: Send>(
    cfg: &ExpConfig,
    cells: usize,
    tag: &str,
    job: impl Fn(usize, &Telemetry) -> (T, (u64, u64)) + Sync,
) -> Vec<T> {
    dnsttl_atlas::fan_out(&plan(cfg, cells, tag), &cfg.telemetry, job).0
}

/// Runs one measurement campaign under the seed `cfg.seed_for(tag)`,
/// split over [`cell_count`] logical cells on `cfg.shards` worker
/// threads (default: one). The cell count, unlike the worker count, is
/// part of the experiment's identity (different partitions, different
/// per-cell seeds).
pub(crate) fn measurement_campaign(
    cfg: &ExpConfig,
    tag: &str,
    world: WorldSpec,
    spec: &MeasurementSpec,
) -> ShardedOutcome {
    let fan = plan(cfg, cell_count(cfg), tag);
    let outcome = population_campaign(
        &fan,
        &cfg.telemetry,
        cfg.seed_for(tag),
        cfg.probes,
        spec,
        || world.build(),
    );
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
