//! The four workloads, and one repetition of each through the public
//! entry points.

use dnsttl_atlas::{run_zipf_campaign, ZipfCampaignConfig, ZipfOutcome, ZipfRunOpts};
use dnsttl_experiments::{uy_latency, ExpConfig, Report};
use dnsttl_netsim::SimDuration;
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::Ttl;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["zipf_miss", "zipf_hit", "zipf_fanout", "repro_fig10"];

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `dnsttl_atlas::run_zipf_campaign` on `workers` threads.
    Zipf {
        /// The campaign.
        cfg: ZipfCampaignConfig,
        /// Worker threads of the timed repetitions.
        workers: usize,
    },
    /// `dnsttl_experiments::uy_latency::run` with telemetry enabled.
    Fig10 {
        /// Atlas-style probe population.
        probes: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Cells per Zipf campaign. Every cell builds its own 2 048-name world,
/// about 4 ms each: at four cells that is 5 % (`zipf_miss`) to 10 %
/// (`zipf_hit`) of a repetition, as it is at production scale, while the
/// 64 cells of `ZipfCampaignConfig::large` would make these probe counts
/// a benchmark of zone construction. Four is also the fewest that gives
/// two workers two cells each.
const CELLS: usize = 4;

/// A Zipf campaign. The full-scale probe counts keep every cell's row
/// count a few percent under a power of two (15.8 k, 64.0 k, 30.0 k): a
/// row vector doubles when it crosses one, and a count that straddled
/// the boundary from seed to seed moved `peak_heap_mb` by 5 %.
fn zipf(probes: usize, ttl_s: u32, hours: u64) -> ZipfCampaignConfig {
    let mut cfg = ZipfCampaignConfig::large(probes);
    cfg.record_ttl = Ttl::from_secs(ttl_s);
    cfg.duration = SimDuration::from_hours(hours);
    cfg.cells = CELLS;
    cfg
}

impl Workload {
    /// The workload called `name`; `smoke` shrinks it to well under a
    /// second per repetition (for `cargo test`, never for numbers).
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        // Full scale: one repetition is about a second on the host the
        // bounds were sized on.
        let scale = |full: usize, small: usize| if smoke { small } else { full };
        let (name, kind) = match name {
            // TTL 60 s ≪ 600 s polling: two queries in three walk
            // resolver → exchange → codec ×4 → authoritative, and a miss
            // costs ~50 hits, so the exchange path is all of the time.
            "zipf_miss" => (
                NAMES[0],
                Kind::Zipf {
                    cfg: zipf(scale(6_000, 1_000), 60, if smoke { 1 } else { 4 }),
                    workers: 1,
                },
            ),
            // TTL one day: the exchange path idles; cache get, resolver
            // control flow, the wheel sweep and the row store do the work.
            "zipf_hit" => (
                NAMES[1],
                Kind::Zipf {
                    cfg: zipf(scale(15_000, 1_000), 86_400, if smoke { 12 } else { 6 }),
                    workers: 1,
                },
            ),
            // Mixed hit rate through run_cells + merge_cells on two threads.
            "zipf_fanout" => (
                NAMES[2],
                Kind::Zipf {
                    cfg: zipf(scale(22_000, 1_000), 300, if smoke { 1 } else { 2 }),
                    workers: 2,
                },
            ),
            // The paper path on the other engine, telemetry on.
            "repro_fig10" => (
                NAMES[3],
                Kind::Fig10 {
                    probes: scale(800, 120),
                },
            ),
            _ => return None,
        };
        Some(Workload { name, kind })
    }

    /// Threads a timed repetition uses (and so the calibration slice).
    pub fn workers(&self) -> usize {
        match &self.kind {
            Kind::Zipf { workers, .. } => *workers,
            Kind::Fig10 { .. } => 1,
        }
    }

    /// Runs one repetition on `workers` threads. Only this call is
    /// timed; [`Raw::summarise`] (digests, counts) runs off the clock.
    pub fn run(&self, seed: u64, workers: usize) -> Raw {
        self.simulate(seed, workers).render()
    }

    /// The first step of [`Workload::run`]: the campaign, through the
    /// entry point.
    pub fn simulate(&self, seed: u64, workers: usize) -> Simulated {
        match &self.kind {
            Kind::Zipf { cfg, .. } => {
                let opts = ZipfRunOpts {
                    workers,
                    ..ZipfRunOpts::default()
                };
                Simulated::Zipf(run_zipf_campaign(cfg, seed, &opts))
            }
            Kind::Fig10 { probes } => {
                let telemetry = fig10_telemetry(true);
                let reports = uy_latency::run(&fig10_config(seed, *probes, &telemetry));
                Simulated::Fig10 { reports, telemetry }
            }
        }
    }
}

/// A repetition's campaign, before what it recorded is rendered.
pub enum Simulated {
    /// A Zipf campaign's merged outcome: nothing is left to render.
    Zipf(ZipfOutcome),
    /// fig10's reports and the telemetry handle the run recorded into.
    Fig10 {
        /// `fig10a` and `fig10b`.
        reports: Vec<Report>,
        /// The handle the run recorded into.
        telemetry: Telemetry,
    },
}

impl Simulated {
    /// The second step of [`Workload::run`]: renders what `repro fig10`
    /// writes to its run directory.
    pub fn render(self) -> Raw {
        match self {
            Simulated::Zipf(outcome) => Raw::Zipf(outcome),
            Simulated::Fig10 { reports, telemetry } => {
                let exports = [
                    telemetry.trace_jsonl(),
                    telemetry.timeseries_jsonl(),
                    telemetry.prometheus_text(),
                ];
                Raw::Fig10 {
                    reports,
                    telemetry,
                    exports,
                }
            }
        }
    }
}

/// A fresh telemetry handle configured as `repro fig10` configures it.
pub fn fig10_telemetry(enabled: bool) -> Telemetry {
    if !enabled {
        return Telemetry::disabled();
    }
    let defaults = ExpConfig::default();
    let telemetry = Telemetry::new();
    telemetry.configure_timeseries(defaults.ts_bucket_ms, defaults.ts_span_cap);
    telemetry
}

/// The experiment configuration of the fig10 workload.
pub fn fig10_config(seed: u64, probes: usize, telemetry: &Telemetry) -> ExpConfig {
    ExpConfig {
        seed,
        probes,
        out_dir: None,
        telemetry: telemetry.clone(),
        ..ExpConfig::default()
    }
}

/// A repetition's outputs, as the entry point returned them.
pub enum Raw {
    /// A Zipf campaign's merged outcome.
    Zipf(ZipfOutcome),
    /// fig10's reports, its telemetry handle, and the rendered exports.
    Fig10 {
        /// `fig10a` and `fig10b`.
        reports: Vec<Report>,
        /// The handle the run recorded into.
        telemetry: Telemetry,
        /// `trace_jsonl`, `timeseries_jsonl`, `prometheus_text`.
        exports: [String; 3],
    },
}

/// What a repetition did, in simulated terms. Two repetitions of one
/// workload and seed must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct RepSummary {
    /// Client queries simulated.
    pub queries: u64,
    /// Queries whose simulated outcome was a failure (Zipf: rows with
    /// `ok == false`; fig10: `resolver_servfails`).
    pub sim_failed: u64,
    /// Order-sensitive fingerprint of everything the repetition output.
    pub digest: u64,
    /// Simulated statistics, by name.
    pub sim: Vec<(&'static str, f64)>,
}

impl RepSummary {
    /// A simulated statistic by name.
    pub fn sim(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no simulated statistic {name}"))
    }
}

/// FNV-1a, the fingerprint `ZipfDataset::digest` also uses.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

impl Raw {
    /// Counts, digest and simulated statistics of the repetition.
    pub fn summarise(&self) -> RepSummary {
        match self {
            Raw::Zipf(out) => RepSummary {
                queries: out.dataset.len() as u64,
                sim_failed: out.dataset.rows().iter().filter(|r| !r.ok).count() as u64,
                digest: out.dataset.digest(),
                sim: vec![("sim.hit_rate", out.dataset.hit_rate())],
            },
            Raw::Fig10 {
                reports,
                telemetry,
                exports,
            } => {
                let counter = |name: &str| telemetry.counter_value(name, &[]);
                let queries = counter("resolver_client_queries");
                let mut digest = 0xcbf2_9ce4_8422_2325;
                for r in reports {
                    fnv1a(&mut digest, r.render().as_bytes());
                }
                for e in exports {
                    fnv1a(&mut digest, e.as_bytes());
                }
                let per_query = |n: u64| n as f64 / queries.max(1) as f64;
                RepSummary {
                    queries,
                    sim_failed: counter("resolver_servfails"),
                    digest,
                    sim: vec![
                        ("sim.hit_rate", per_query(counter("resolver_cache_hits"))),
                        (
                            "sim.upstream_per_query",
                            per_query(counter("resolver_upstream_queries")),
                        ),
                        ("sim.median_before_ms", reports[0].get("median_before_ms")),
                        ("sim.median_after_ms", reports[0].get("median_after_ms")),
                    ],
                }
            }
        }
    }
}

/// The correctness gates on a repetition's simulated outcome. Returns
/// the first violated gate.
pub fn check_gates(workload: &str, s: &RepSummary) -> Result<(), String> {
    if s.queries == 0 {
        return Err("no queries simulated".into());
    }
    let failed_share = s.sim_failed as f64 / s.queries as f64;
    if failed_share > 0.01 {
        return Err(format!("{failed_share:.4} of simulated queries failed"));
    }
    let hit = s.sim("sim.hit_rate");
    match workload {
        "zipf_miss" if hit >= 0.40 => Err(format!("hit rate {hit:.3} is not miss-heavy (< 0.40)")),
        "zipf_hit" if hit <= 0.90 => Err(format!("hit rate {hit:.3} is not hit-heavy (> 0.90)")),
        "repro_fig10" => {
            let (before, after) = (s.sim("sim.median_before_ms"), s.sim("sim.median_after_ms"));
            if after < before / 2.0 {
                Ok(())
            } else {
                Err(format!(
                    "median after the TTL change ({after} ms) is not under half of before ({before} ms)"
                ))
            }
        }
        _ => Ok(()),
    }
}
