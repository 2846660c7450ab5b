//! `shared-cache` — hit rate and latency vs TTL when many clients
//! share one resolver's cache instead of partitioned per-group caches.
//!
//! The paper's §5.3/§6.2 latency results all flow through one
//! mechanism: a cached answer is free, a miss pays upstream RTTs. How
//! often a query hits depends not only on the TTL but on *how many
//! clients fill the same cache* — a large shared resolver population
//! amortises one miss across everyone (the paper's "resolver
//! centricity" observation from the other side of the cache). This
//! experiment measures that directly:
//!
//! * **partitioned** — clients are split into `GROUPS` groups, each
//!   with its own resolver. Every group pays its own cold misses.
//! * **shared** — the same clients, same per-client query streams, one
//!   resolver for all of them. One miss fills the cache for the whole
//!   population.
//!
//! Every resolver runs the default policy on the one cache a resolver
//! has; client query streams are forked per client *index*, so the two
//! topologies replay byte-identical workloads and only how many
//! clients fill one cache differs. Both axes sweep TTL ∈ {60 s, 1 h,
//! 1 day}.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::worlds::{self, name};
use dnsttl_analysis::{CsvWriter, Table};
use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{drive, LatencyModel, Network, Region, SimDuration, SimRng, SimTime};
use dnsttl_resolver::RecursiveResolver;
use dnsttl_wire::{Rcode, RecordType, Ttl};

/// Names published under `pool.example`, queried with a harmonic
/// (Zipf-like) popularity profile.
const POOL: usize = 24;
/// Resolver groups in the partitioned topology.
const GROUPS: usize = 8;
/// How often each client re-resolves a pool name.
const QUERY_GAP_S: u64 = 120;
/// Simulated horizon per cell.
const HORIZON_S: u64 = 4_800;

/// One (TTL, topology) cell's accounting.
#[derive(Debug, Clone, Copy, Default)]
struct CellResult {
    queries: u64,
    hits: u64,
    upstream: u64,
    elapsed_ms: u64,
    conserved: bool,
}

impl CellResult {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.queries.max(1) as f64
    }

    fn mean_latency_ms(&self) -> f64 {
        self.elapsed_ms as f64 / self.queries.max(1) as f64
    }
}

fn pool_world(ttl: Ttl) -> Network {
    let mut zone = ZoneBuilder::new("example")
        .ns("example", "ns.example", ttl)
        .a("ns.example", "192.0.2.53", ttl);
    for i in 0..POOL {
        zone = zone.a(
            &format!("p{i:02}.pool.example"),
            &format!("203.0.113.{}", i + 1),
            ttl,
        );
    }
    let child = AuthoritativeServer::new("ns.example").with_zone(zone.build());
    worlds::example_world(LatencyModel::constant(5.0), child)
}

/// Replays one cell: `clients` clients querying harmonic-popularity
/// pool names for [`HORIZON_S`], through either one resolver for all
/// of them or [`GROUPS`] partitioned resolvers. The per-client RNG
/// streams depend only on the client index, so both topologies see
/// identical workloads.
fn simulate_topology(
    telemetry: &dnsttl_telemetry::Telemetry,
    seed: u64,
    clients: usize,
    ttl: Ttl,
    shared: bool,
) -> CellResult {
    let mut net = pool_world(ttl);
    net.set_telemetry(telemetry.clone());
    let roots = worlds::root_hints();
    let resolver_count = if shared { 1 } else { GROUPS };
    // Resolver and client streams are separate: forking advances the
    // parent, and the two topologies create different resolver counts,
    // so sharing one parent would desynchronise the client workloads.
    let mut resolver_rng = SimRng::seed_from(seed ^ 0x5EED_0001);
    let mut client_rng = SimRng::seed_from(seed ^ 0x5EED_0002);
    let mut resolvers: Vec<RecursiveResolver> = (0..resolver_count)
        .map(|g| {
            let mut resolver = RecursiveResolver::new(
                format!("{}{g}", if shared { "shared" } else { "part" }),
                ResolverPolicy::default(),
                Region::Eu,
                g as u64,
                roots.clone(),
                resolver_rng.fork(g as u64),
            );
            resolver.set_telemetry(telemetry.clone());
            resolver
        })
        .collect();

    // Harmonic popularity: name j drawn with weight 1/(j+1).
    let weights: Vec<f64> = (0..POOL).map(|j| 1.0 / (j + 1) as f64).collect();
    let mut client_rngs: Vec<SimRng> = (0..clients).map(|i| client_rng.fork(i as u64)).collect();

    // Phase offsets also come from the *client* stream so both
    // topologies schedule identical query instants.
    let gap = SimDuration::from_secs(QUERY_GAP_S);
    let starts: Vec<SimTime> = client_rngs
        .iter_mut()
        .map(|rng| SimTime::from_millis(rng.below(gap.as_millis())))
        .collect();
    let mut cell = CellResult::default();
    drive(starts, SimTime::from_secs(HORIZON_S), |now, client| {
        let name_idx = client_rngs[client].weighted_index(&weights);
        let qname = name(&format!("p{name_idx:02}.pool.example"));
        let resolver = if shared { 0 } else { client % GROUPS };
        let out = resolvers[resolver].resolve_verdict(&qname, RecordType::A, now, &mut net);
        debug_assert_eq!(out.rcode, Rcode::NoError);
        cell.queries += 1;
        cell.hits += out.cache_hit as u64;
        cell.upstream += out.upstream_queries as u64;
        cell.elapsed_ms += out.elapsed.as_millis();
        gap
    });

    // §8 conservation over every cache the topology used.
    cell.conserved = resolvers.iter().all(|r| {
        let stats = r.cache().stats();
        stats.inserts == stats.removals() + r.cache().len() as u64
    });
    cell
}

/// Runs the shared-vs-partitioned matrix and renders the report.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let ttls = [60u32, 3_600, 86_400];
    let clients = (cfg.probes / 20).max(2 * GROUPS);

    let mut report = Report::new(
        "shared-cache",
        "hit rate and latency vs TTL: one shared cache vs partitioned caches",
    );
    report.push(format!(
        "{clients} clients, {POOL} pool names (harmonic popularity), \
         {GROUPS} partitions vs 1 resolver for all clients, \
         horizon {HORIZON_S}s, query gap {QUERY_GAP_S}s"
    ));

    // The 3×2 matrix: independent deterministic cells, so the cell
    // engine just spreads them over workers — byte-identical output for
    // every worker count.
    let matrix: Vec<(u32, bool)> = ttls
        .iter()
        .flat_map(|&ttl| [(ttl, false), (ttl, true)])
        .collect();
    // The seed deliberately ignores the topology: both cells of a TTL
    // row replay the same client streams.
    let seed = cfg.seed_for("shared-cache");
    let results: Vec<CellResult> =
        crate::sharded::fan_out(cfg, matrix.len(), "shared-cache", |cell, telemetry| {
            let (ttl, shared) = matrix[cell];
            let result = simulate_topology(
                telemetry,
                seed ^ ttl as u64,
                clients,
                Ttl::from_secs(ttl),
                shared,
            );
            let progress = (HORIZON_S * 1_000, result.queries);
            (result, progress)
        });

    let mut table = Table::new(vec![
        "TTL",
        "backend",
        "queries",
        "hit rate",
        "mean latency",
        "upstream",
    ]);
    let mut conserved_everywhere = true;
    for (&(ttl, shared), cell) in matrix.iter().zip(&results) {
        let backend = if shared { "shared" } else { "partitioned" };
        table.row(vec![
            format!("{ttl}s"),
            backend.into(),
            cell.queries.to_string(),
            format!("{:.3}", cell.hit_rate()),
            format!("{:.2}ms", cell.mean_latency_ms()),
            cell.upstream.to_string(),
        ]);
        report.metric(&format!("hit_rate_ttl_{ttl}_{backend}"), cell.hit_rate());
        report.metric(
            &format!("mean_latency_ms_ttl_{ttl}_{backend}"),
            cell.mean_latency_ms(),
        );
        conserved_everywhere &= cell.conserved;
    }
    report.push(table.render());
    report.metric(
        "ledger_conserved",
        if conserved_everywhere { 1.0 } else { 0.0 },
    );

    report.push(
        "one shared cache amortises each miss across the whole client population:\n\
         the shared resolver's hit rate dominates the partitioned one at every TTL,\n\
         and the gap is the same mechanism behind the paper's §5.3 latency win.",
    );

    report.write(cfg, "shared_cache_hit_rate.csv", || {
        let mut w = CsvWriter::new(&[
            "ttl_s",
            "backend",
            "clients",
            "queries",
            "hits",
            "hit_rate",
            "mean_latency_ms",
            "upstream_queries",
        ]);
        for (&(ttl, shared), cell) in matrix.iter().zip(&results) {
            w.row(&[
                ttl.to_string(),
                if shared { "shared" } else { "partitioned" }.into(),
                clients.to_string(),
                cell.queries.to_string(),
                cell.hits.to_string(),
                format!("{:.6}", cell.hit_rate()),
                format!("{:.6}", cell.mean_latency_ms()),
                cell.upstream.to_string(),
            ]);
        }
        w.finish()
    });

    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_backend_dominates_partitioned_hit_rate() {
        let cfg = ExpConfig::quick();
        let reports = run(&cfg);
        let r = &reports[0];
        for ttl in [60u32, 3_600, 86_400] {
            let shared = r.get(&format!("hit_rate_ttl_{ttl}_shared"));
            let part = r.get(&format!("hit_rate_ttl_{ttl}_partitioned"));
            assert!(
                shared > part,
                "ttl={ttl}: shared {shared:.3} should beat partitioned {part:.3}"
            );
            let lat_shared = r.get(&format!("mean_latency_ms_ttl_{ttl}_shared"));
            let lat_part = r.get(&format!("mean_latency_ms_ttl_{ttl}_partitioned"));
            assert!(
                lat_shared < lat_part,
                "ttl={ttl}: shared latency {lat_shared:.2} should undercut {lat_part:.2}"
            );
        }
        assert_eq!(r.get("ledger_conserved"), 1.0);
    }

    #[test]
    fn sharded_engine_matches_sequential_cells() {
        let base = ExpConfig::quick();
        let sharded = ExpConfig {
            shards: Some(3),
            ..ExpConfig::quick()
        };
        let a = run(&base);
        let b = run(&sharded);
        for ttl in [60u32, 3_600, 86_400] {
            for backend in ["shared", "partitioned"] {
                let key = format!("hit_rate_ttl_{ttl}_{backend}");
                assert_eq!(a[0].get(&key), b[0].get(&key), "{key}");
            }
        }
    }
}
