//! `resilience` — user-visible failure rate vs TTL under scripted
//! faults (paper §6.2, the dnsttl-chaos tentpole).
//!
//! The paper's closing argument is that long TTLs are a resilience
//! mechanism: during the 2016 Dyn DDoS, "users of Twitter could still
//! reach the site if its DNS records were cached". This module
//! reproduces it as a measurable curve on the scripted [`FaultPlan`]
//! machinery, so the exact outage script is plain data — journalled
//! into the run manifest, replayable byte-for-byte from the same seed,
//! and shared with `sdig --fault-plan`. The `ext-ddos` extension runs
//! the same simulation over internet latencies.
//!
//! Design: a population of clients each re-resolves one cached name
//! every two minutes. A one-hour hard outage of the only authoritative
//! server is scripted 45 minutes in. The failure rate (answers with
//! rcode ≠ NoError during the outage) is measured along two axes:
//!
//! * **TTL** — 60 s / 3600 s / 86400 s. A 60 s TTL drains caches almost
//!   immediately, a 1-day TTL carries every client through untouched.
//! * **serve-stale** — off (RFC-faithful expiry) vs on (RFC 8767 with
//!   the hardened-profile failure caching and server backoff). With
//!   stale answers allowed, even a 60 s TTL bridges the outage.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::sharded;
use crate::worlds::{self, name};
use dnsttl_analysis::{CsvWriter, Table};
use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{drive, FaultPlan, LatencyModel, Region, SimDuration, SimRng, SimTime};
use dnsttl_resolver::{Labels, RecursiveResolver, RootHint};
use dnsttl_wire::{Rcode, RecordType, Ttl};
use std::sync::Arc;

/// When the scripted outage starts (45 simulated minutes in — long
/// enough for every client to have the name cached).
const OUTAGE_START_S: u64 = 2_700;
/// How long the authoritative server stays dark.
const OUTAGE_SECS: u64 = 3_600;
/// How often each client re-resolves the name.
const QUERY_GAP_S: u64 = 120;

/// The scripted fault plan every cell of the matrix runs under: a hard
/// one-hour outage of the sole authoritative server. Public so tests
/// and `repro` can journal the identical script.
pub(crate) fn outage_plan() -> FaultPlan {
    FaultPlan::new().outage(
        worlds::addrs::EXAMPLE,
        SimTime::from_secs(OUTAGE_START_S),
        SimTime::from_secs(OUTAGE_START_S + OUTAGE_SECS),
    )
}

/// One cell of the matrix: failure rate during the outage for a client
/// population resolving a name published at `ttl`, under `policy`.
pub(crate) struct CellResult {
    pub(crate) queries: u64,
    pub(crate) failures: u64,
}

impl CellResult {
    fn rate(&self) -> f64 {
        self.failures as f64 / self.queries.max(1) as f64
    }
}

/// Splits the client population into [`sharded::cell_count`] logical
/// cells, each with its own network, outage script and RNG stream, and
/// sums their outage accounting. The fault plan is plain data, so
/// every cell evaluates an identical script.
fn run_cell(cfg: &ExpConfig, ttl: Ttl, policy: ResolverPolicy, seed_tag: &str) -> CellResult {
    let clients = (cfg.probes / 20).max(20);
    let seed = cfg.seed_for(seed_tag) ^ ttl.as_secs() as u64;
    let cell_count = sharded::cell_count(cfg);
    let sizes = dnsttl_atlas::partition(clients, cell_count);
    let bases = dnsttl_atlas::partition_bases(&sizes);
    let cells = sharded::fan_out(cfg, cell_count, seed_tag, |cell, telemetry| {
        let result = simulate_clients(
            telemetry,
            LatencyModel::constant(5.0),
            dnsttl_netsim::shard_seed(seed, cell as u64),
            sizes[cell],
            bases[cell],
            ttl,
            &policy,
        );
        // The scripted outage ends the cell's clock; queries are the
        // cell's event count.
        let end = SimTime::from_secs(OUTAGE_START_S + OUTAGE_SECS);
        let progress = (end.as_millis(), result.queries);
        (result, progress)
    });
    CellResult {
        queries: cells.iter().map(|c| c.queries).sum(),
        failures: cells.iter().map(|c| c.failures).sum(),
    }
}

/// Simulates `clients` clients (globally numbered from `client_base`)
/// re-resolving the test name through the scripted outage over
/// `latency`. Every cell of `resilience` runs this function, and so
/// does `ext-ddos`, with one population of all its clients.
pub(crate) fn simulate_clients(
    telemetry: &dnsttl_telemetry::Telemetry,
    latency: LatencyModel,
    seed: u64,
    clients: usize,
    client_base: usize,
    ttl: Ttl,
    policy: &ResolverPolicy,
) -> CellResult {
    // `resilience` passes a constant latency and no background loss:
    // the only failure mode is the scripted outage, so the curve
    // isolates the TTL effect.
    let child = AuthoritativeServer::new("ns.example").with_zone(
        ZoneBuilder::new("example")
            .ns("example", "ns.example", ttl)
            .a("ns.example", "192.0.2.53", ttl)
            .a("www.example", "203.0.113.1", ttl)
            .build(),
    );
    let mut net = worlds::example_world(latency, child).with_faults(outage_plan());
    net.set_telemetry(telemetry.clone());
    let roots: Arc<[RootHint]> = worlds::root_hints().into();
    let policy = Arc::new(policy.clone());
    let mut labels = Labels::default();

    let mut rng = SimRng::seed_from(seed);
    let mut resolvers: Vec<RecursiveResolver> = (0..clients)
        .map(|i| {
            let global = client_base + i;
            RecursiveResolver::new(
                labels.format(format_args!("c{global}")),
                policy.clone(),
                Region::ALL[rng.weighted_index(&Region::atlas_weights())],
                global as u64,
                roots.clone(),
                rng.fork(global as u64),
            )
        })
        .collect();

    let query_gap = SimDuration::from_secs(QUERY_GAP_S);
    let outage =
        SimTime::from_secs(OUTAGE_START_S)..SimTime::from_secs(OUTAGE_START_S + OUTAGE_SECS);
    let starts = (0..clients).map(|_| SimTime::from_millis(rng.below(query_gap.as_millis())));
    let mut cell = CellResult {
        queries: 0,
        failures: 0,
    };
    let qname = name("www.example");
    drive(
        starts,
        outage.end + SimDuration::from_secs(600),
        |now, client| {
            let out = resolvers[client].resolve_verdict(&qname, RecordType::A, now, &mut net);
            if outage.contains(&now) {
                cell.queries += 1;
                cell.failures += (out.rcode != Rcode::NoError) as u64;
            }
            query_gap
        },
    );
    cell
}

/// Runs the failure-rate-vs-TTL matrix and renders the report.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let ttls = [60u32, 3_600, 86_400];
    let plan = outage_plan();

    let mut report = Report::new(
        "resilience",
        "User-visible failure rate vs TTL under a scripted 1 h authoritative outage (§6.2)",
    );
    report.push(format!(
        "fault plan: {} — outage of 192.0.2.53 over [{}s, {}s)",
        plan.summary(),
        OUTAGE_START_S,
        OUTAGE_START_S + OUTAGE_SECS
    ));

    let mut table = Table::new(vec![
        "TTL",
        "serve-stale",
        "queries in outage",
        "failures",
        "failure rate",
    ]);
    let mut rows: Vec<(u32, bool, CellResult)> = Vec::new();
    for ttl in ttls {
        for stale in [false, true] {
            let policy = if stale {
                ResolverPolicy::hardened()
            } else {
                ResolverPolicy::default()
            };
            let tag = if stale {
                "resilience-stale"
            } else {
                "resilience"
            };
            let cell = run_cell(cfg, Ttl::from_secs(ttl), policy, tag);
            let stale_label = if stale { "on" } else { "off" };
            table.row(vec![
                format!("{ttl}s"),
                stale_label.into(),
                cell.queries.to_string(),
                cell.failures.to_string(),
                format!("{:.3}", cell.rate()),
            ]);
            report.metric(
                &format!("failrate_ttl_{ttl}_stale_{stale_label}"),
                cell.rate(),
            );
            rows.push((ttl, stale, cell));
        }
    }
    report.push(table.render());
    report.push(
        "paper §6.2: longer TTLs keep users online through authoritative outages\n\
         (the Dyn-attack argument); RFC 8767 serve-stale extends that protection\n\
         to short TTLs by bridging the outage with stale answers.",
    );

    report.write(cfg, "resilience_failure_rate.csv", || {
        let mut w = CsvWriter::new(&[
            "ttl_s",
            "serve_stale",
            "queries",
            "failures",
            "failure_rate",
        ]);
        for (ttl, stale, cell) in &rows {
            w.row(&[
                ttl.to_string(),
                if *stale { "on" } else { "off" }.into(),
                cell.queries.to_string(),
                cell.failures.to_string(),
                format!("{:.6}", cell.rate()),
            ]);
        }
        w.finish()
    });
    // Journal the exact outage script next to the CSVs.
    report.write(cfg, "resilience_fault_plan.txt", || plan.to_text());

    vec![report]
}
