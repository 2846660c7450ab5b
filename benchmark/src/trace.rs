//! The traced run: where a workload's host time goes, layer by layer,
//! measured from outside the crates. Never mixed with the timed run.
//!
//! Three parts, all through public APIs:
//!
//! * **(a)** the campaign decomposed exactly as the library does it, one
//!   span per step, and required to reproduce the reference output;
//! * **(b)** the query replay of [`crate::replay`], once without and once
//!   with spans, required to reproduce every row's `cache_hit` flag;
//! * **(c)** the layer kernels of [`crate::kernels`] on what a capture
//!   pass of (b) kept.
//!
//! The host's speed drifts by tens of percent over a minute, so parts
//! measured a few seconds apart do not add up. The three parts therefore
//! run back to back in **rounds**, for as long as `--seconds` allows;
//! every metric is computed within a round and reported as the median
//! over rounds. A timing's value in a round is its p50 (the report
//! lines add the last round's tail percentile and `n`); `share.*` are
//! built from means, because means add up.

use crate::host::timed;
use crate::kernels;
use crate::output::{Metric, RunResult};
use crate::replay::{replay, Captured, Probes, SegmentWorld, Tap, Tape};
use crate::span::{span, write_jsonl, Layer, Recorder, Span};
use crate::stats::{median, Timing};
use crate::workloads::{
    check_gates, fig10_config, fig10_telemetry, Kind, Raw, RepSummary, Workload,
};
use dnsttl_analysis::Ecdf;
use dnsttl_atlas::{
    partition, partition_bases, run_measurement, run_zipf_campaign, run_zipf_campaign_profiled,
    run_zipf_cell, Dataset, DiurnalCurve, MeasurementSpec, Population, PopulationConfig, QueryName,
    ZipfCampaignConfig, ZipfDataset, ZipfEngine, ZipfRow, ZipfRunOpts, ZipfSampler,
};
use dnsttl_experiments::sharded::WorldSpec;
use dnsttl_experiments::{flightdeck, uy_latency};
use dnsttl_netsim::{shard_seed, SimDuration, SimRng};
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::{Name, RecordType, Ttl};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Pairs the capture pass aims to keep for the kernels.
const CAPTURE_TARGET: u64 = 8_192;
/// Seconds kept back from `--seconds` for the write-out.
const RESERVE_S: f64 = 1.0;

/// One campaign decomposed as the library runs it.
struct Campaign {
    /// One top-level span per step; together they are the campaign.
    spans: Vec<Span>,
    /// Host ns that are the harness's own: world, frame and population
    /// construction and the merge.
    atlas_ns: f64,
    /// Host ns telemetry added (fig10: this campaign minus the same
    /// campaign through the entry point on a disabled handle).
    telemetry_ns: f64,
    /// Host ns in `dnsttl-analysis`.
    analysis_ns: f64,
    /// The engine-specific metrics, already named.
    metrics: Vec<Metric>,
}

/// What every round replays and feeds to the kernels, taken once from
/// the reference output.
struct Inputs {
    /// The reference rows, as a replay tape.
    tape: Tape,
    /// Fire times per timer, for the wheel kernel.
    fires: Vec<Vec<u64>>,
    /// `(time, name index)` keys of one resolver, for the cache kernel.
    cache_keys: Vec<(u64, u32)>,
    /// TTL of the records those keys stand for.
    cache_ttl: Ttl,
    /// The diurnal curve, the base interval and one cell's rows, for the
    /// sweep-step kernel (Zipf campaigns only).
    sweep: Option<(DiurnalCurve, u64, Vec<ZipfRow>)>,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

fn total_ns(spans: &[Span], name: &str) -> f64 {
    durations_ns(spans, name).iter().sum()
}

fn one_worker() -> ZipfRunOpts {
    ZipfRunOpts {
        workers: 1,
        ..ZipfRunOpts::default()
    }
}

/// Part (a) for a Zipf campaign: `ZipfSampler::new`, `run_zipf_cell` per
/// cell, `ZipfDataset::merge_cells`, as `run_zipf_campaign` does them;
/// then the same campaign with nothing to simulate, which is what the
/// worlds and frames cost.
fn campaign_zipf(
    cfg: &ZipfCampaignConfig,
    seed: u64,
    reference_digest: u64,
    probes: &Probes,
) -> Result<Campaign, String> {
    let rec = &probes.rec;
    let off = Telemetry::disabled();
    let sizes = partition(cfg.probes, cfg.cells);
    let bases = partition_bases(&sizes);

    rec.borrow_mut().set_on(true);
    let sampler = span(rec, "atlas.zipf_sampler_new", Layer::Atlas, || {
        ZipfSampler::new(cfg.names.max(1), cfg.exponent)
    });
    let names: Vec<Name> = span(rec, "atlas.names", Layer::Atlas, || {
        (0..cfg.names.max(1))
            .map(|k| Name::parse(&format!("r{k}.zipf")).expect("static name shape"))
            .collect()
    });
    let mut parts = Vec::with_capacity(cfg.cells);
    let mut resolver_base = 0u32;
    for cell in 0..cfg.cells {
        let out = span(rec, "atlas.run_zipf_cell", Layer::Atlas, || {
            run_zipf_cell(
                cfg,
                &sampler,
                &names,
                sizes[cell],
                bases[cell] as u32,
                shard_seed(seed, cell as u64),
                ZipfEngine::Soa,
                &off,
            )
        });
        parts.push((out.dataset, resolver_base));
        resolver_base += out.resolvers as u32;
    }
    let merged = span(rec, "atlas.merge_cells", Layer::Atlas, || {
        ZipfDataset::merge_cells(parts)
    });
    rec.borrow_mut().set_on(false);
    let spans = rec.borrow_mut().take();
    if merged.digest() != reference_digest {
        return Err("part (a): the decomposed campaign's digest differs from the reference".into());
    }
    drop(merged);

    let mut empty = cfg.clone();
    empty.duration = SimDuration::from_secs(1);
    let fixed_ns = timed(|| black_box(run_zipf_campaign(&empty, seed, &one_worker())))
        .1
        .wall_s
        * 1e9;

    let cells = durations_ns(&spans, "atlas.run_zipf_cell");
    let merge_ns = total_ns(&spans, "atlas.merge_cells");
    Ok(Campaign {
        atlas_ns: fixed_ns + merge_ns,
        telemetry_ns: 0.0,
        analysis_ns: 0.0,
        metrics: vec![
            Metric::new("atlas.fixed_ms", ms(fixed_ns), "ms"),
            Metric::new("atlas.cell_ms_p50", ms(Timing::of(&cells).p50), "ms"),
            Metric::new(
                "atlas.cell_ms_max",
                ms(cells.iter().copied().fold(0.0, f64::max)),
                "ms",
            ),
            Metric::new("atlas.merge_cells_ms", ms(merge_ns), "ms"),
            Metric::new(
                "atlas.row_bytes",
                std::mem::size_of::<ZipfRow>() as f64,
                "B",
            ),
        ],
        spans,
    })
}

/// The replay tape and the kernel inputs of a Zipf campaign. Kernel
/// inputs come from cell 0: its rows, its probes' fire times, and the
/// keys its first resolver saw.
fn inputs_zipf(cfg: &ZipfCampaignConfig, seed: u64, dataset: &ZipfDataset) -> Inputs {
    let per_cell = cfg.resolvers_per_cell.max(1) as u32;
    let cell0: Vec<ZipfRow> = dataset
        .rows()
        .iter()
        .filter(|r| r.resolver / per_cell == 0)
        .copied()
        .collect();
    let mut fires = vec![Vec::new(); partition(cfg.probes, cfg.cells)[0]];
    for r in &cell0 {
        fires[r.probe as usize].push(r.at_ms);
    }
    Inputs {
        tape: Tape::of_zipf(cfg, seed, dataset),
        fires,
        cache_keys: cell0
            .iter()
            .filter(|r| r.resolver == 0)
            .map(|r| (r.at_ms, r.rank))
            .collect(),
        cache_ttl: cfg.record_ttl,
        sweep: Some((cfg.diurnal, cfg.frequency.as_millis().max(1), cell0)),
    }
}

/// The fan-out as the workload runs it: the digest on `workers` threads
/// against the reference on one, and how busy the threads were.
fn fanout_zipf(
    cfg: &ZipfCampaignConfig,
    workers: usize,
    seed: u64,
    reference_digest: u64,
) -> Result<Vec<Metric>, String> {
    let opts = ZipfRunOpts {
        workers,
        ..ZipfRunOpts::default()
    };
    let (outcome, profile) = run_zipf_campaign_profiled(cfg, seed, &opts);
    if outcome.dataset.digest() != reference_digest {
        return Err(format!(
            "the digest on {workers} workers differs from the reference on one"
        ));
    }
    Ok(vec![
        Metric::new("atlas.fanout_utilization", profile.utilization(), "ratio"),
        Metric::new("atlas.fanout_imbalance", profile.imbalance(), "ratio"),
    ])
}

/// The two phases of fig10, as `uy_latency::run` names and seeds them.
const FIG10_PHASES: [(&str, Ttl, Ttl); 2] = [
    ("fig10-before", Ttl::from_secs(300), Ttl::from_secs(120)),
    ("fig10-after", Ttl::DAY, Ttl::DAY),
];

/// Part (a) for fig10: `WorldSpec::Uy.build`, `Population::build`,
/// `run_measurement`, `Ecdf`, as `uy_latency::run` does them, on an
/// enabled telemetry handle; then the entry point on a disabled handle,
/// for what telemetry costs. Also returns each phase's dataset.
fn campaign_fig10(
    population: usize,
    seed: u64,
    reference: &RepSummary,
    reference_exports: &[String; 3],
    probes: &Probes,
) -> Result<(Campaign, Vec<Dataset>), String> {
    let rec = &probes.rec;
    let telemetry = fig10_telemetry(true);
    let cfg = fig10_config(seed, population, &telemetry);
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("uy").expect("static")),
        RecordType::NS,
        2,
    );
    let mut medians = Vec::new();
    let mut datasets = Vec::new();

    rec.borrow_mut().set_on(true);
    for (tag, ns_ttl, a_ttl) in FIG10_PHASES {
        let (mut net, roots, _) = span(rec, "experiments.world_build", Layer::Atlas, || {
            WorldSpec::Uy { ns_ttl, a_ttl }.build()
        });
        net.set_telemetry(telemetry.clone());
        let mut rng = SimRng::seed_from(cfg.seed_for(tag));
        let mut pop = span(rec, "atlas.population_build", Layer::Atlas, || {
            Population::build(&PopulationConfig::small(population), &roots, &mut rng)
        });
        pop.set_telemetry(&telemetry);
        let dataset = span(rec, "atlas.run_measurement", Layer::Atlas, || {
            run_measurement(&spec, &mut pop, &mut net, &mut rng)
        });
        span(
            rec,
            "telemetry.record_latency_quantiles",
            Layer::Telemetry,
            || flightdeck::record_latency_quantiles(&telemetry, tag, &dataset),
        );
        medians.push(span(rec, "analysis.ecdf", Layer::Analysis, || {
            let ecdf = Ecdf::from_u64(dataset.rtts_ms());
            for q in [0.75, 0.95, 0.99] {
                black_box(ecdf.quantile(q));
            }
            ecdf.median()
        }));
        datasets.push(dataset);
    }
    let exports = span(rec, "telemetry.export", Layer::Telemetry, || {
        [
            telemetry.trace_jsonl(),
            telemetry.timeseries_jsonl(),
            telemetry.prometheus_text(),
        ]
    });
    rec.borrow_mut().set_on(false);
    let spans = rec.borrow_mut().take();

    let expected = [
        reference.sim("sim.median_before_ms"),
        reference.sim("sim.median_after_ms"),
    ];
    if medians != expected {
        return Err(format!(
            "part (a): decomposed medians {medians:?} differ from the report's {expected:?}"
        ));
    }
    if exports != *reference_exports {
        return Err(
            "part (a): the decomposed run's telemetry exports differ from the reference".into(),
        );
    }
    drop((exports, telemetry));

    let off = fig10_config(seed, population, &fig10_telemetry(false));
    let off_ns = timed(|| black_box(uy_latency::run(&off))).1.wall_s * 1e9;
    let campaign_ns: f64 = spans.iter().map(|s| s.duration_ns() as f64).sum();

    let world_ns = total_ns(&spans, "experiments.world_build");
    let population_ns = total_ns(&spans, "atlas.population_build");
    let analysis_ns = total_ns(&spans, "analysis.ecdf");
    let campaign = Campaign {
        atlas_ns: world_ns + population_ns,
        telemetry_ns: campaign_ns - off_ns,
        analysis_ns,
        metrics: vec![
            Metric::new("atlas.population_build_ms", ms(population_ns), "ms"),
            Metric::new(
                "atlas.run_measurement_ms",
                ms(total_ns(&spans, "atlas.run_measurement")),
                "ms",
            ),
            Metric::new("experiments.world_build_ms", ms(world_ns), "ms"),
            Metric::new(
                "telemetry.export_ms",
                ms(total_ns(&spans, "telemetry.export")),
                "ms",
            ),
            Metric::new(
                "telemetry.overhead_share",
                (campaign_ns - off_ns) / campaign_ns,
                "ratio",
            ),
            Metric::new("analysis.ecdf_ms", ms(analysis_ns), "ms"),
        ],
        spans,
    };
    Ok((campaign, datasets))
}

/// The replay tape and the kernel inputs of fig10. Kernel inputs come
/// from the first phase: one timer per vantage point, and the keys the
/// busiest resolver saw.
fn inputs_fig10(population: usize, seed: u64, datasets: &[Dataset]) -> Inputs {
    let cfg = fig10_config(seed, population, &Telemetry::disabled());
    let mut tape = Tape::of_uy();
    for ((tag, ns_ttl, a_ttl), dataset) in FIG10_PHASES.into_iter().zip(datasets) {
        tape.push_uy_phase(
            SegmentWorld::UyPhase {
                ns_ttl,
                a_ttl,
                seed: cfg.seed_for(tag),
                probes: population,
            },
            dataset,
        );
    }
    let first = datasets[0].results();
    let mut fires: Vec<Vec<u64>> = Vec::new();
    let mut timer_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut per_resolver: HashMap<usize, usize> = HashMap::new();
    for r in first {
        let next = timer_of.len();
        let k = *timer_of.entry((r.probe_idx, r.vp_slot)).or_insert(next);
        if k == fires.len() {
            fires.push(Vec::new());
        }
        fires[k].push(r.at.as_millis());
        *per_resolver.entry(r.resolver_idx).or_default() += 1;
    }
    let busiest = per_resolver
        .iter()
        .max_by_key(|(idx, n)| (**n, std::cmp::Reverse(**idx)))
        .map(|(idx, _)| *idx);
    Inputs {
        tape,
        fires,
        cache_keys: first
            .iter()
            .filter(|r| Some(r.resolver_idx) == busiest)
            .map(|r| (r.at.as_millis(), 0))
            .collect(),
        cache_ttl: Ttl::from_secs(300),
        sweep: None,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A metric that
/// does not apply to a workload (no fan-out in fig10, no telemetry in
/// the Zipf campaigns) reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_exchange", "B"),
    ("auth.handle_query_ns", "ns"),
    ("auth.queries_per_query", "count"),
    ("netsim.exchange_ns", "ns"),
    ("netsim.exchange_self_ns", "ns"),
    ("netsim.exchanges_per_query", "count"),
    ("netsim.wheel_op_ns", "ns"),
    ("resolver.resolve_hit_ns", "ns"),
    ("resolver.resolve_miss_ns", "ns"),
    ("resolver.self_ns_per_query", "ns"),
    ("cache.get_ns", "ns"),
    ("cache.store_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.expiries", "count"),
    ("atlas.fixed_ms", "ms"),
    ("atlas.cell_ms_p50", "ms"),
    ("atlas.cell_ms_max", "ms"),
    ("atlas.merge_cells_ms", "ms"),
    ("atlas.sweep_step_ns", "ns"),
    ("atlas.row_bytes", "B"),
    ("atlas.fanout_utilization", "ratio"),
    ("atlas.fanout_imbalance", "ratio"),
    ("atlas.population_build_ms", "ms"),
    ("atlas.run_measurement_ms", "ms"),
    ("experiments.world_build_ms", "ms"),
    ("telemetry.count_keyed_ns", "ns"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.overhead_share", "ratio"),
    ("analysis.ecdf_ms", "ms"),
    ("share.wire", "ratio"),
    ("share.auth", "ratio"),
    ("share.netsim", "ratio"),
    ("share.resolver", "ratio"),
    ("share.atlas", "ratio"),
    ("share.telemetry", "ratio"),
    ("share.analysis", "ratio"),
    ("share.unattributed", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Names of every per-layer metric, for the smoke test.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|(name, _)| *name).collect()
}

/// Where `trace-<workload>.jsonl` goes: next to the executable, which is
/// inside the build directory and so inside the checkout and ignored.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.with_file_name(format!("trace-{workload}.jsonl"))
}

/// What one round measured.
struct Round {
    /// Host ns the decomposed campaign took.
    campaign_ns: f64,
    /// This round's value of every metric a round measures.
    metrics: Vec<Metric>,
    /// The timings behind the `*_ns` metrics, for the report lines.
    timings: Vec<(&'static str, Timing)>,
    /// Parts (a), (b) and the exchange kernel's spans, for `trace.jsonl`.
    spans: [Vec<Span>; 3],
}

/// One round: the decomposed campaign, a replay pass without spans and
/// one with, and the kernels, back to back.
fn round(
    campaign: Campaign,
    inputs: &Inputs,
    pairs: &[Captured],
    probes: &Probes,
) -> Result<Round, String> {
    let queries = inputs.tape.len() as f64;
    let campaign_ns: f64 = campaign.spans.iter().map(|s| s.duration_ns() as f64).sum();

    // (b) What the campaign's resolves cost is what a pass without
    // spans takes; the pass with spans splits that time.
    let plain = replay(&inputs.tape, probes);
    probes.rec.borrow_mut().set_on(true);
    let spanned = replay(&inputs.tape, probes);
    probes.rec.borrow_mut().set_on(false);
    let replay_spans = probes.rec.borrow_mut().take();
    if plain.mismatches + spanned.mismatches != 0 {
        return Err("part (b): a replay pass differs from the reference in cache_hit".into());
    }

    // (c) The kernels.
    let wire = kernels::wire(pairs);
    let exchange = kernels::exchange(&inputs.tape.segments[0].world, pairs, probes);
    let wheel = kernels::wheel(&inputs.fires);
    let sweep_step = inputs
        .sweep
        .as_ref()
        .map_or_else(Timing::default, |(curve, base_ms, rows)| {
            kernels::sweep_step(curve, *base_ms, rows)
        });
    let keys: Vec<(u64, &Name)> = inputs
        .cache_keys
        .iter()
        .map(|&(at, name)| (at, &inputs.tape.names[name as usize]))
        .collect();
    let cache = kernels::cache(&keys, inputs.cache_ttl);
    let telemetry = kernels::telemetry();

    // The accounting, in host ns of one campaign.
    let hit = Timing::of(&durations_ns(&replay_spans, "resolver.resolve_hit"));
    let miss = Timing::of(&durations_ns(&replay_spans, "resolver.resolve_miss"));
    let handle = Timing::of(&durations_ns(&replay_spans, "auth.handle_query"));
    let handled = handle.n as f64;
    let resolve_ns = plain.loop_ns as f64;
    let auth_ns = handle.mean * handled;
    let codec_mean = 2.0 * wire.encode.mean + 2.0 * wire.decode.mean;
    let exchange_self_mean = (exchange.without_auth.mean - codec_mean).max(0.0);
    let exchange_self_p50 =
        (exchange.without_auth.p50 - 2.0 * wire.encode.p50 - 2.0 * wire.decode.p50).max(0.0);
    let wire_ns = handled * codec_mean;
    let netsim_exchange_ns = handled * exchange_self_mean;
    let resolver_ns = resolve_ns - auth_ns - wire_ns - netsim_exchange_ns;
    let attributed = [
        ("share.wire", wire_ns),
        ("share.auth", auth_ns),
        ("share.netsim", netsim_exchange_ns + queries * wheel.mean),
        ("share.resolver", resolver_ns),
        ("share.atlas", campaign.atlas_ns + queries * sweep_step.mean),
        ("share.telemetry", campaign.telemetry_ns),
        ("share.analysis", campaign.analysis_ns),
    ];
    let span_count = campaign.spans.len() + replay_spans.len() + exchange.spans.len();

    let mut metrics = vec![
        Metric::new("wire.encode_ns", wire.encode.p50, "ns"),
        Metric::new("wire.decode_ns", wire.decode.p50, "ns"),
        Metric::new("wire.bytes_per_exchange", wire.bytes_per_exchange, "B"),
        Metric::new("auth.handle_query_ns", handle.p50, "ns"),
        Metric::new("auth.queries_per_query", handled / queries, "count"),
        Metric::new("netsim.exchange_ns", exchange.exchange.p50, "ns"),
        Metric::new("netsim.exchange_self_ns", exchange_self_p50, "ns"),
        Metric::new(
            "netsim.exchanges_per_query",
            spanned.upstream as f64 / queries,
            "count",
        ),
        Metric::new("netsim.wheel_op_ns", wheel.p50, "ns"),
        Metric::new("resolver.resolve_hit_ns", hit.p50, "ns"),
        Metric::new("resolver.resolve_miss_ns", miss.p50, "ns"),
        Metric::new("resolver.self_ns_per_query", resolver_ns / queries, "ns"),
        Metric::new("cache.get_ns", cache.get.p50, "ns"),
        Metric::new("cache.store_ns", cache.store.p50, "ns"),
        Metric::new("cache.hit_ratio", cache.hit_ratio, "ratio"),
        Metric::new("cache.evictions", cache.evictions as f64, "count"),
        Metric::new("cache.expiries", cache.expiries as f64, "count"),
        Metric::new("atlas.sweep_step_ns", sweep_step.p50, "ns"),
        Metric::new("telemetry.count_keyed_ns", telemetry.count_keyed.p50, "ns"),
        Metric::new("telemetry.span_ns", telemetry.span.p50, "ns"),
        Metric::new(
            "trace.overhead_share",
            spanned.loop_ns as f64 / plain.loop_ns as f64 - 1.0,
            "ratio",
        ),
        Metric::new("trace.spans", span_count as f64, "count"),
    ];
    metrics.extend(
        attributed
            .iter()
            .map(|(name, ns)| Metric::new(name, ns / campaign_ns, "ratio")),
    );
    metrics.extend(campaign.metrics);
    Ok(Round {
        campaign_ns,
        metrics,
        timings: vec![
            ("wire.encode", wire.encode),
            ("wire.decode", wire.decode),
            ("auth.handle_query", handle),
            ("netsim.exchange", exchange.exchange),
            ("netsim.exchange less auth", exchange.without_auth),
            ("netsim.wheel_op", wheel),
            ("resolver.resolve_hit", hit),
            ("resolver.resolve_miss", miss),
            ("cache.get", cache.get),
            ("cache.store", cache.store),
            ("atlas.sweep_step", sweep_step),
            ("telemetry.count_keyed", telemetry.count_keyed),
            ("telemetry.span", telemetry.span),
        ],
        spans: [campaign.spans, replay_spans, exchange.spans],
    })
}

/// Runs the traced mode and prints its report; the returned result is
/// the line to print last.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let probes = Probes {
        rec: Recorder::shared(),
        tap: Rc::new(RefCell::new(Tap::default())),
    };

    // The reference: one repetition through the entry point, untraced.
    // Then part (a) once off the books: it warms the heap, and for fig10
    // it is where the rows to replay come from.
    let raw = workload.run(seed, 1);
    let reference = raw.summarise();
    if let Err(gate) = check_gates(workload.name, &reference) {
        return fail(gate);
    }
    let campaign = |probes: &Probes| match (&workload.kind, &raw) {
        (Kind::Zipf { cfg, .. }, Raw::Zipf(_)) => {
            campaign_zipf(cfg, seed, reference.digest, probes).map(|c| (c, Vec::new()))
        }
        (Kind::Fig10 { probes: population }, Raw::Fig10 { exports, .. }) => {
            campaign_fig10(*population, seed, &reference, exports, probes)
        }
        _ => unreachable!("a workload's repetition is of its own kind"),
    };
    let datasets = match campaign(&probes) {
        Ok((_, datasets)) => datasets,
        Err(problem) => return fail(problem),
    };
    let (inputs, once) = match (&workload.kind, &raw) {
        (Kind::Zipf { cfg, workers }, Raw::Zipf(outcome)) => {
            match fanout_zipf(cfg, *workers, seed, reference.digest) {
                Ok(fanout) => (inputs_zipf(cfg, seed, &outcome.dataset), fanout),
                Err(problem) => return fail(problem),
            }
        }
        (Kind::Fig10 { probes: population }, _) => {
            (inputs_fig10(*population, seed, &datasets), Vec::new())
        }
        _ => unreachable!("a workload's repetition is of its own kind"),
    };
    drop(datasets);
    let queries = inputs.tape.len() as u64;

    // (b) The capture pass: spans on, one pair in `every` kept.
    let misses = inputs
        .tape
        .segments
        .iter()
        .flat_map(|s| &s.rows)
        .filter(|r| !r.hit)
        .count() as u64;
    probes.tap.borrow_mut().every = (misses / CAPTURE_TARGET).max(1);
    probes.rec.borrow_mut().set_on(true);
    let capture = replay(&inputs.tape, &probes);
    probes.rec.borrow_mut().set_on(false);
    probes.rec.borrow_mut().take();
    let pairs = {
        let mut tap = probes.tap.borrow_mut();
        tap.every = 0;
        std::mem::take(&mut tap.pairs)
    };
    if capture.mismatches != 0 {
        return fail(format!(
            "part (b): {} of {} replayed rows differ from the reference in cache_hit",
            capture.mismatches, queries
        ));
    }

    // Rounds, for as long as `--seconds` allows; at least one.
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round_started = Instant::now();
        match campaign(&probes).and_then(|(c, _)| round(c, &inputs, &pairs, &probes)) {
            Ok(r) => rounds.push(r),
            Err(problem) => return fail(problem),
        }
        let round_s = round_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s + RESERVE_S > seconds {
            break;
        }
    }
    drop(raw);

    // Every metric is the median of its values over the rounds; what no
    // round measures on this workload reads 0. What is unattributed is
    // what the medians of the other shares leave of the campaign.
    let over_rounds = |name: &str| -> Option<f64> {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == name))
            .map(|m| m.value)
            .collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = once
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .or_else(|| over_rounds(name))
                .unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect();
    let attributed: f64 = metrics
        .iter()
        .filter(|m| m.name.starts_with("share.") && m.name != "share.unattributed")
        .map(|m| m.value)
        .sum();
    for m in &mut metrics {
        if m.name == "share.unattributed" {
            m.value = 1.0 - attributed;
        }
    }

    let last = rounds.last().expect("at least one round ran");
    let path = trace_path(workload.name);
    if let Err(e) = write_jsonl(&path, &[&last.spans[0], &last.spans[1], &last.spans[2]]) {
        return fail(format!("cannot write {}: {e}", path.display()));
    }

    println!("workload {} seed {seed} traced, one thread", workload.name);
    println!("ops_attempted {}", reference.queries);
    println!("ops_failed {}", reference.sim_failed);
    println!("sim_digest {:#018x}", reference.digest);
    for (name, value) in &reference.sim {
        println!("{name} {value:.4}  (simulated)");
    }
    let campaign_ms = ms(median(
        &rounds.iter().map(|r| r.campaign_ns).collect::<Vec<_>>(),
    ));
    println!(
        "{} rounds of: the campaign decomposed ({campaign_ms:.1} ms, {:.1} ns/query), {queries} queries \
         replayed without and with spans, the kernels on {} captured exchanges",
        rounds.len(),
        campaign_ms * 1e6 / queries as f64,
        pairs.len()
    );
    for (label, t) in &last.timings {
        println!(
            "{label:<28} p50 {:>10.1} ns  p{} {:>10.1} ns  mean {:>10.1} ns  n {}  (last round)",
            t.p50, t.tail_pct, t.tail, t.mean, t.n
        );
    }
    for m in &metrics {
        println!("{:<30} {:.6} {}", m.name, m.value, m.unit);
    }
    println!("spans of the last round written to {}", path.display());

    RunResult {
        correct: true,
        // The reference, the warming campaign and the capture pass, then
        // a campaign and two replay passes per round.
        attempted: queries * (3 + 3 * rounds.len() as u64),
        failed: reference.sim_failed * (3 + 3 * rounds.len() as u64),
        metrics,
    }
}

fn fail(problem: String) -> RunResult {
    RunResult::failed(&[problem])
}
