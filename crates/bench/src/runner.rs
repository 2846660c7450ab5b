//! Headless paired-gate runner — `repro bench`.
//!
//! Two instruments measure this workspace and each number has one
//! owner. `benchmark/` (its own package, `BENCHMARK.json`) owns every
//! cross-commit number: absolute per-query and per-layer costs, by its
//! parent/change pairing rule. This module owns only
//! comparisons whose two sides sit in the *same* report: each scenario
//! is an interleaved pair (or a gate input), timed on one host in one
//! run, so a ratio read off the report means the same thing on any
//! machine. Nothing here is compared against a report from another
//! host or another commit.
//!
//! The report (`BENCH_report.json`) is JSON Lines with two sections:
//!
//! 1. a **deterministic** section — the header plus `counter` lines
//!    derived purely from simulation state (op counts, merged-dataset
//!    digests). Same seed ⇒ byte-identical, which a `tests/` case
//!    enforces;
//! 2. a **timings** section, opened by the `{"kind":"timings"}` marker —
//!    wall-clock medians per pair side, the only non-reproducible part.
//!
//! [`BenchReport::check_gates`] gates CI on the fresh report: every
//! row of the gate table must hold, and every verdict is reported even
//! when an earlier one failed.

use crate::bench_world;
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimRng, TimingWheel};
use dnsttl_telemetry::{ObjectWriter, Telemetry, Value};
use dnsttl_wire::{Name, RecordType, Ttl};
use std::time::Instant;

/// Schema identifier stamped on the report header line.
pub(crate) const BENCH_SCHEMA: &str = "dnsttl-bench-report/1";

/// Marker line separating the deterministic section from wall-clock
/// timings inside the rendered report.
pub const TIMINGS_MARKER: &str = "{\"kind\":\"timings\"}";

/// Jitter every gate allows around its required ratio (0.05 = 5%).
/// Small on purpose: both sides of a gate are interleaved medians from
/// one run, and the worker cap in `fan_out` means an 8-worker
/// request can never schedule more threads than cores, so the only
/// legitimate gap left is timer noise.
const FANOUT_TOLERANCE: f64 = 0.05;

/// Speedup the timing wheel must hold over its in-report `BTreeSet`
/// reference in the `wheel_churn` scenario. The gate catches a wheel
/// that silently degrades to tree-like behaviour. Ten consecutive
/// quick-mode runs on a shared two-core VM read 2.15–2.36x, so the
/// margin over timer noise is thin: rerun before believing a FAILED.
const WHEEL_IMPROVEMENT_FACTOR: f64 = 2.0;

/// Probes in the full-scale `zipf_population` campaign (a tenth at
/// quick scale). `wheel_churn` replays one cell of it in both modes.
const ZIPF_POPULATION_PROBES: usize = 200_000;

/// What a warm hit on a fully enabled handle (trace, registry, series,
/// ledger) may cost relative to the same hit on a disabled one, in the
/// `resolve_telemetry` pair: the `BENCH_report.json` ratio it was set
/// from (444 / 202 ns = 2.20x) rounded up to one decimal. A budget for
/// the record path, not a target — lowering it is ROADMAP's telemetry
/// item.
///
/// Counting the cache's transactions instead of tracing them took ten
/// consecutive quick-mode runs on a shared two-core VM to 1.97–2.07x
/// in nine and 2.47x in one (both rows slowed: 274 / 677 ns), so the
/// factor did not drop to 2.1: ten runs in a row did not pass there.
///
/// It was 2.7 until the record path stopped looking up what it already
/// knew: one address memo in front of the intern tables and the series
/// maps, shared strings pushed by reference, sketches counted in a flat
/// vector. That took the enabled hit from 480 to 444 ns while the
/// disabled one read 202 against 183 ns (the host was in a slow stretch:
/// `wheel_churn` read 11 % slower in the same report): 2.62x became
/// 2.20x, and quick-mode runs side by side read 2.13–2.18x against the
/// parent's 2.48–2.50x.
///
/// Before that, interning shared strings and finding labelled series
/// by address took the enabled hit from 511 to 480 ns and not cloning the
/// resolver's label for a closure that never runs took the disabled
/// one from 192 to 183 ns: 2.66x became 2.62x, which still rounds up
/// to 2.7, so the factor stays where it was (it only ever moves down).
///
/// It was 2.4 (500 / 210 ns) until the cache's tables stopped paying
/// SipHash: that took the disabled hit from 210 to 192 ns and the
/// enabled one from 500 to 511 ns in the committed reports — 212 → 188
/// and 505 → 492 ns side by side on one host — so what the observer
/// adds stayed near 300 ns (293 → 304; the enabled path's expiry probe
/// now hashes once where it peeked at an index) while the base it is
/// divided by shrank. A higher factor here is a cheaper hit, not a
/// dearer observer.
const TELEMETRY_OVERHEAD_FACTOR: f64 = 2.2;

/// Timing row carrying the measuring host's core count, so the speedup
/// gate asks for what that host could physically deliver.
const HOST_CORES_ROW: &str = "zipf_population_host_cores";

/// One in-report paired gate: the ratio of two timing rows of the same
/// report, held to a bound.
struct Gate {
    /// Name printed on the verdict line.
    name: &'static str,
    /// The gate measures `median(numerator) / median(denominator)`.
    numerator: &'static str,
    denominator: &'static str,
    /// The ratio the report must show; an `Err` names a missing input.
    required: fn(&BenchReport) -> Result<f64, String>,
    /// `true`: the ratio must reach `required`; `false`: it must not
    /// exceed it. Either way [`FANOUT_TOLERANCE`] absorbs timer noise.
    at_least: bool,
}

/// The gates `repro bench --check` enforces.
const GATES: [Gate; 4] = [
    // The 8-worker sharded run must not lose to its own sequential
    // oracle: a fan-out slower than w1 is pure overhead.
    Gate {
        name: "fanout",
        numerator: "sharded_population_w8",
        denominator: "sharded_population_w1",
        required: |_| Ok(1.0),
        at_least: false,
    },
    // The scale campaign must actually *beat* the sequential oracle,
    // by `clamp(cores / 2, 1, 4)` — 4x on an 8-core (or wider) runner,
    // 2x on 4 cores, and plain parity on a 1-core host where
    // `fan_out` clamps every request to one worker.
    Gate {
        name: "speedup",
        numerator: "zipf_population_w1",
        denominator: "zipf_population_w8",
        required: |report| {
            let cores = report.median_of(HOST_CORES_ROW)?.max(1);
            Ok((cores as f64 / 2.0).clamp(1.0, 4.0))
        },
        at_least: true,
    },
    // The timing wheel must keep beating the `BTreeSet` it replaced on
    // the same pop-and-re-arm tape.
    Gate {
        name: "wheel",
        numerator: "wheel_churn_btree",
        denominator: "wheel_churn",
        required: |_| Ok(WHEEL_IMPROVEMENT_FACTOR),
        at_least: true,
    },
    // Telemetry-on must stay within its budget over telemetry-off on
    // the same warm hit. Both sides run interleaved on one thread, so
    // unlike `fanout` and `speedup` a busy second core cannot move it.
    Gate {
        name: "telemetry",
        numerator: "resolve_telemetry_on",
        denominator: "resolve_telemetry_off",
        required: |_| Ok(TELEMETRY_OVERHEAD_FACTOR),
        at_least: false,
    },
];

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Seed for every simulation-side RNG in the suite.
    pub seed: u64,
    /// Quick mode shrinks iteration counts ~10x for CI smoke runs.
    pub quick: bool,
    /// Population multiplier for the heavyweight scale scenarios
    /// (1.0 for real runs). Unit tests shrink it so the whole suite
    /// stays runnable in debug builds; every row is still produced,
    /// the workloads are just smaller.
    pub pop_scale: f64,
}

impl BenchConfig {
    /// CI-scale configuration.
    pub fn quick(seed: u64) -> BenchConfig {
        BenchConfig {
            seed,
            quick: true,
            pop_scale: 1.0,
        }
    }

    /// Full-scale configuration.
    pub fn full(seed: u64) -> BenchConfig {
        BenchConfig {
            seed,
            quick: false,
            pop_scale: 1.0,
        }
    }

    fn iters(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(3)
        } else {
            full
        }
    }
}

/// One deterministic measurement: a named metric within a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Scenario that produced the value.
    pub scenario: String,
    /// Metric name within the scenario.
    pub metric: String,
    /// The value (integers render exactly; see `fmt_f64`).
    pub value: f64,
}

/// One wall-clock measurement: the median of `iters` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Scenario name (matches a `Counter::scenario` where applicable).
    pub scenario: String,
    /// Median duration in nanoseconds.
    pub median_ns: u64,
    /// Number of iterations the median was taken over.
    pub iters: u64,
}

/// The paired-suite report.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Seed the suite ran with.
    pub seed: u64,
    /// Whether quick mode was active.
    pub quick: bool,
    /// Deterministic counters, in emission order.
    pub counters: Vec<Counter>,
    /// Wall-clock medians, in emission order.
    pub timings: Vec<Timing>,
}

impl BenchReport {
    /// Renders the report as schema-versioned JSON Lines. Everything
    /// before [`TIMINGS_MARKER`] is deterministic for a given seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut header = ObjectWriter::new();
        header
            .field("schema", &Value::Str(BENCH_SCHEMA.to_owned()))
            .field("seed", &Value::U64(self.seed))
            .field(
                "mode",
                &Value::Str(if self.quick { "quick" } else { "full" }.to_owned()),
            )
            .field("counters", &Value::U64(self.counters.len() as u64))
            .field("timings", &Value::U64(self.timings.len() as u64));
        out.push_str(&header.finish());
        out.push('\n');
        for c in &self.counters {
            let mut w = ObjectWriter::new();
            w.field("kind", &Value::Str("counter".to_owned()))
                .field("scenario", &Value::Str(c.scenario.clone()))
                .field("metric", &Value::Str(c.metric.clone()))
                .field("value", &Value::F64(c.value));
            out.push_str(&w.finish());
            out.push('\n');
        }
        out.push_str(TIMINGS_MARKER);
        out.push('\n');
        for t in &self.timings {
            let mut w = ObjectWriter::new();
            w.field("kind", &Value::Str("timing".to_owned()))
                .field("scenario", &Value::Str(t.scenario.clone()))
                .field("median_ns", &Value::U64(t.median_ns))
                .field("iters", &Value::U64(t.iters));
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Returns the deterministic prefix of a rendered report — the part
    /// before [`TIMINGS_MARKER`] — for byte-level comparisons.
    pub fn deterministic_portion(rendered: &str) -> &str {
        match rendered.find(TIMINGS_MARKER) {
            Some(idx) => &rendered[..idx],
            None => rendered,
        }
    }

    /// Checks every row of the gate table against this report and
    /// returns one verdict line per gate, in table order: `Ok` for a
    /// gate that holds, `Err` for one that does not. All gates are
    /// always evaluated, so two simultaneous regressions are both
    /// reported.
    pub fn check_gates(&self) -> Vec<Result<String, String>> {
        GATES.iter().map(|gate| self.check(gate)).collect()
    }

    /// The one gate check: find two rows, divide, compare, format.
    /// Both rows must be present — a suite that silently dropped one
    /// would otherwise pass vacuously.
    fn check(&self, gate: &Gate) -> Result<String, String> {
        let fail = |why: String| format!("gate {}: {why}: FAILED", gate.name);
        let num = self.median_of(gate.numerator).map_err(fail)?;
        let den = self.median_of(gate.denominator).map_err(fail)?;
        if den == 0 {
            return Err(fail(format!("{} median is zero", gate.denominator)));
        }
        let required = (gate.required)(self).map_err(fail)?;
        let ratio = num as f64 / den as f64;
        let (op, ok) = if gate.at_least {
            (">=", ratio >= required * (1.0 - FANOUT_TOLERANCE))
        } else {
            ("<=", ratio <= required * (1.0 + FANOUT_TOLERANCE))
        };
        let line = format!(
            "gate {}: {} / {} = {ratio:.2}x, required {op} {required:.2}x ({:.0}% tolerance)",
            gate.name,
            gate.numerator,
            gate.denominator,
            FANOUT_TOLERANCE * 100.0
        );
        if ok {
            Ok(format!("{line}: ok"))
        } else {
            Err(format!("{line}: FAILED"))
        }
    }

    fn median_of(&self, scenario: &str) -> Result<u64, String> {
        self.timings
            .iter()
            .find(|t| t.scenario == scenario)
            .map(|t| t.median_ns)
            .ok_or_else(|| format!("missing timing row {scenario}"))
    }

    /// Human-readable one-line-per-scenario summary for terminal output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench report: seed={} mode={} ({} counters, {} timings)\n",
            self.seed,
            if self.quick { "quick" } else { "full" },
            self.counters.len(),
            self.timings.len()
        ));
        for t in &self.timings {
            out.push_str(&format!(
                "  {:<28} median {:>12} ns over {} iters\n",
                t.scenario, t.median_ns, t.iters
            ));
        }
        out
    }
}

/// Medians of two alternatives measured as interleaved pairs: each
/// iteration times both closures back to back, alternating which one
/// goes first. Slow machine drift (frequency scaling, a noisy
/// co-tenant) then lands evenly on both sides instead of biasing
/// whichever alternative happened to be measured in the later block —
/// the paired design is what makes ratio comparisons (telemetry
/// on/off, worker fan-out) meaningful on a busy host.
fn median_ns_paired(iters: u64, mut a: impl FnMut(), mut b: impl FnMut()) -> (u64, u64) {
    let mut sa = Vec::with_capacity(iters as usize);
    let mut sb = Vec::with_capacity(iters as usize);
    for i in 0..iters {
        let a_first = i % 2 == 0;
        if a_first {
            let t = Instant::now();
            a();
            sa.push(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        b();
        sb.push(t.elapsed().as_nanos() as u64);
        if !a_first {
            let t = Instant::now();
            a();
            sa.push(t.elapsed().as_nanos() as u64);
        }
    }
    sa.sort_unstable();
    sb.sort_unstable();
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

fn counter(counters: &mut Vec<Counter>, scenario: &str, metric: &str, value: f64) {
    counters.push(Counter {
        scenario: scenario.to_owned(),
        metric: metric.to_owned(),
        value,
    });
}

/// Runs the paired suite and returns the report.
pub fn run(config: BenchConfig) -> BenchReport {
    let mut report = BenchReport {
        seed: config.seed,
        quick: config.quick,
        ..BenchReport::default()
    };

    wheel_churn(&config, &mut report);
    resolve_telemetry(&config, &mut report);
    sharded_population(&config, &mut report);
    zipf_population(&config, &mut report);

    report
}

/// The sharded engine under the bench clock: one probe population
/// partitioned over the fixed logical shard cells, merged back into a
/// single dataset. The workload is run once per worker count (1 and 8)
/// and the merged-dataset digests must match — the paired timing rows
/// feed the `fanout` gate, while the digest counters keep the
/// equivalence claim checkable even on a single-core CI runner.
fn sharded_population(config: &BenchConfig, report: &mut BenchReport) {
    use dnsttl_atlas::{
        population_campaign, Dataset, FanOut, MeasurementSpec, QueryName, LOGICAL_SHARDS,
    };

    let probes = if config.quick { 320 } else { 1_600 };
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("www.example").expect("static")),
        RecordType::A,
        2,
    );
    // The engine `repro --shards` runs, on the bench's two-level world.
    let run_with = |workers: usize| -> Dataset {
        let plan = FanOut::new(workers, LOGICAL_SHARDS);
        let world = || {
            let (net, roots) = crate::two_level_network(Ttl::from_secs(300));
            (net, roots, None)
        };
        population_campaign(&plan, config.seed, probes, &spec, world)
            .0
            .dataset
    };

    let reference = run_with(1);
    let digest = reference.digest();
    counter(
        &mut report.counters,
        "sharded_population",
        "probes",
        probes as f64,
    );
    counter(
        &mut report.counters,
        "sharded_population",
        "results",
        reference.len() as f64,
    );
    counter(
        &mut report.counters,
        "sharded_population",
        "valid_results",
        reference.valid_count() as f64,
    );
    // A u64 digest split into two exactly-representable f64 halves.
    counter(
        &mut report.counters,
        "sharded_population",
        "digest_hi",
        (digest >> 32) as f64,
    );
    counter(
        &mut report.counters,
        "sharded_population",
        "digest_lo",
        (digest & 0xFFFF_FFFF) as f64,
    );
    // Each sample is a full multi-shard simulation (tens of ms), so
    // even quick mode needs enough samples for the median to shrug
    // off a noise burst that lands inside one sample.
    let iters = config.iters(30).max(9);
    let (med_w1, med_w8) = median_ns_paired(
        iters,
        || {
            let ds = run_with(1);
            assert_eq!(ds.digest(), digest, "workers=1 re-run diverged");
        },
        || {
            let ds = run_with(8);
            assert_eq!(
                ds.digest(),
                digest,
                "workers=8 merged dataset diverged from the sequential oracle"
            );
        },
    );
    report.timings.push(Timing {
        scenario: "sharded_population_w1".to_owned(),
        median_ns: med_w1,
        iters,
    });
    report.timings.push(Timing {
        scenario: "sharded_population_w8".to_owned(),
        median_ns: med_w8,
        iters,
    });
}

/// The struct-of-arrays Zipf campaign at scale: 10^4–10^5 probes (2×10^4
/// quick, 2×10^5 full) drawn from a seeded Zipf popularity sampler,
/// fired on a diurnal schedule over 64 cells. Three claims are pinned:
///
/// * **engine equivalence** — the SoA sweep and the pointer-chasing
///   oracle produce digest-identical datasets (the differential suite
///   in `crates/atlas/tests/soa_equivalence.rs` checks this at row
///   granularity; here it guards the bench workload itself);
/// * **worker invariance** — w1 and w8 digests match, so the speedup
///   rows below compare identical work;
/// * **real speedup** — the `speedup` gate holds w8 against w1 scaled
///   to the measuring host's core count, recorded in the
///   `zipf_population_host_cores` row.
fn zipf_population(config: &BenchConfig, report: &mut BenchReport) {
    use dnsttl_atlas::{run_zipf_campaign, ZipfCampaignConfig, ZipfEngine, ZipfRunOpts};

    let base = if config.quick {
        ZIPF_POPULATION_PROBES / 10
    } else {
        ZIPF_POPULATION_PROBES
    };
    let probes = ((base as f64 * config.pop_scale).round() as usize).max(256);
    let cfg = ZipfCampaignConfig::large(probes);
    let opts = |workers: usize, engine: ZipfEngine| ZipfRunOpts {
        workers,
        engine,
        ..ZipfRunOpts::default()
    };

    let reference = run_zipf_campaign(&cfg, config.seed, &opts(1, ZipfEngine::Soa));
    let digest = reference.dataset.digest();
    let oracle = run_zipf_campaign(&cfg, config.seed, &opts(1, ZipfEngine::Oracle));
    assert_eq!(
        oracle.dataset.digest(),
        digest,
        "oracle engine diverged from the SoA sweep"
    );

    counter(
        &mut report.counters,
        "zipf_population",
        "probes",
        probes as f64,
    );
    counter(
        &mut report.counters,
        "zipf_population",
        "cells",
        cfg.cells as f64,
    );
    counter(
        &mut report.counters,
        "zipf_population",
        "results",
        reference.dataset.len() as f64,
    );
    counter(
        &mut report.counters,
        "zipf_population",
        "hit_rate_x1e6",
        (reference.dataset.hit_rate() * 1e6).round(),
    );
    counter(
        &mut report.counters,
        "zipf_population",
        "digest_hi",
        (digest >> 32) as f64,
    );
    counter(
        &mut report.counters,
        "zipf_population",
        "digest_lo",
        (digest & 0xFFFF_FFFF) as f64,
    );

    // Campaigns are hundreds of milliseconds each, so a handful of
    // interleaved pairs is enough for a stable median.
    let iters = config.iters(9).max(3);
    let (med_w1, med_w8) = median_ns_paired(
        iters,
        || {
            let out = run_zipf_campaign(&cfg, config.seed, &opts(1, ZipfEngine::Soa));
            assert_eq!(out.dataset.digest(), digest, "workers=1 re-run diverged");
        },
        || {
            let out = run_zipf_campaign(&cfg, config.seed, &opts(8, ZipfEngine::Soa));
            assert_eq!(
                out.dataset.digest(),
                digest,
                "workers=8 merged dataset diverged from the sequential oracle"
            );
        },
    );
    report.timings.push(Timing {
        scenario: "zipf_population_w1".to_owned(),
        median_ns: med_w1,
        iters,
    });
    report.timings.push(Timing {
        scenario: "zipf_population_w8".to_owned(),
        median_ns: med_w8,
        iters,
    });

    // The host's physical parallelism rides inside the report so the
    // `speedup` gate can scale its requirement to it, and so a reader
    // of a committed report knows how many cores the ratio was
    // measured on.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    report.timings.push(Timing {
        scenario: HOST_CORES_ROW.to_owned(),
        median_ns: cores,
        iters: 1,
    });
}

/// The timing wheel on the traffic it serves, isolated from everything
/// around it: the fire schedule of one cell of the full-scale
/// `zipf_population` campaign, which is what each Zipf cell's SoA sweep
/// feeds its wheel. The cell's probes start at uniform offsets within
/// the first base interval; a pop before the campaign horizon re-arms
/// its probe `cfg.diurnal.interval_ms` later, a pop past it drops the
/// probe. The intervals are computed once, outside the timed loops, and
/// the tape is replayed on the [`TimingWheel`] and on the `BTreeSet` the
/// wheel replaced, so both replays pay only for the structure under
/// test. The paired medians feed the `wheel` gate: the wheel must beat
/// its own in-report reference by [`WHEEL_IMPROVEMENT_FACTOR`], on
/// whatever host ran the suite.
fn wheel_churn(config: &BenchConfig, report: &mut BenchReport) {
    use dnsttl_atlas::{partition, ZipfCampaignConfig};
    use std::collections::BTreeSet;

    let cfg = ZipfCampaignConfig::large(ZIPF_POPULATION_PROBES);
    let timers = partition(cfg.probes, cfg.cells)[0];
    let base_ms = cfg.frequency.as_millis().max(1);
    let end_ms = cfg.duration.as_millis();
    let mut rng = SimRng::seed_from(config.seed ^ 0x57EE1);
    let starts: Vec<u64> = (0..timers).map(|_| rng.below(base_ms)).collect();

    // The sweep's own re-arm rule, run once on the reference set; the
    // replays read its intervals back in pop order.
    let mut intervals = Vec::new();
    let mut set: BTreeSet<(u64, u32)> = (0..).zip(&starts).map(|(k, &t)| (t, k)).collect();
    while let Some((t, k)) = set.pop_first() {
        if t < end_ms {
            let interval = cfg.diurnal.interval_ms(base_ms, t);
            intervals.push(interval);
            set.insert((t + interval, k));
        }
    }

    // Each replay returns a digest of its pop sequence.
    let mix = |digest: u64, t: u64, k: u32| {
        (digest ^ (t << 32 | u64::from(k))).wrapping_mul(0x100_0000_01B3)
    };
    let replay_wheel = || -> (u64, u64) {
        let mut wheel = TimingWheel::new();
        for (k, &t) in (0..).zip(&starts) {
            wheel.insert(t, k);
        }
        let (mut next, mut digest) = (intervals.iter(), 0);
        while let Some((t, k)) = wheel.pop_first() {
            digest = mix(digest, t, k);
            if t < end_ms {
                wheel.insert(t + next.next().expect("one interval per re-arm"), k);
            }
        }
        (digest, wheel.cascades())
    };
    let replay_btree = || -> u64 {
        let mut set: BTreeSet<(u64, u32)> = (0..).zip(&starts).map(|(k, &t)| (t, k)).collect();
        let (mut next, mut digest) = (intervals.iter(), 0);
        while let Some((t, k)) = set.pop_first() {
            digest = mix(digest, t, k);
            if t < end_ms {
                set.insert((t + next.next().expect("one interval per re-arm"), k));
            }
        }
        digest
    };

    let (digest, cascades) = replay_wheel();
    assert_eq!(
        replay_btree(),
        digest,
        "the replays popped different timers"
    );
    counter(&mut report.counters, "wheel_churn", "timers", timers as f64);
    counter(
        &mut report.counters,
        "wheel_churn",
        "rearms",
        intervals.len() as f64,
    );
    counter(
        &mut report.counters,
        "wheel_churn",
        "cascades",
        cascades as f64,
    );

    // A replay is about a millisecond, so quick mode can afford enough
    // pairs for the median to shrug off a noise burst.
    let timing_iters = config.iters(30).max(15);
    let (wheel_ns, btree_ns) = median_ns_paired(
        timing_iters,
        || assert_eq!(replay_wheel().0, digest),
        || assert_eq!(replay_btree(), digest),
    );
    report.timings.push(Timing {
        scenario: "wheel_churn".to_owned(),
        median_ns: wheel_ns,
        iters: timing_iters,
    });
    report.timings.push(Timing {
        scenario: "wheel_churn_btree".to_owned(),
        median_ns: btree_ns,
        iters: timing_iters,
    });
}

/// The telemetry-overhead pair: identical warm (cache-hit) workloads,
/// one resolver holding a disabled handle (the default), one fully
/// enabled with the ledger. The on/off ratio is held to
/// [`TELEMETRY_OVERHEAD_FACTOR`] by the `telemetry` gate.
fn resolve_telemetry(config: &BenchConfig, report: &mut BenchReport) {
    let iters_tel = config.iters(5_000);
    let mut plain = bench_world(Ttl::TWO_DAYS, ResolverPolicy::default());
    plain.resolve_at(0);
    let mut traced = bench_world(Ttl::TWO_DAYS, ResolverPolicy::default());
    traced.resolver.set_telemetry(Telemetry::new());
    traced.resolver.enable_cache_ledger();
    traced.resolve_at(0);
    let (med_disabled, med_enabled) = median_ns_paired(
        iters_tel,
        || assert_eq!(plain.resolve_at(2), 0),
        || assert_eq!(traced.resolve_at(2), 0),
    );
    report.timings.push(Timing {
        scenario: "resolve_telemetry_off".to_owned(),
        median_ns: med_disabled,
        iters: iters_tel,
    });
    report.timings.push(Timing {
        scenario: "resolve_telemetry_on".to_owned(),
        median_ns: med_enabled,
        iters: iters_tel,
    });
    counter(
        &mut report.counters,
        "resolve_telemetry_on",
        "cache_hits",
        traced.resolver.cache().stats().hits as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        // Below quick scale: unit tests only need the plumbing.
        BenchConfig {
            seed: 11,
            quick: true,
            pop_scale: 0.02,
        }
    }

    fn report_of(rows: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            timings: rows
                .iter()
                .map(|&(scenario, median_ns)| Timing {
                    scenario: scenario.into(),
                    median_ns,
                    iters: 1,
                })
                .collect(),
            ..BenchReport::default()
        }
    }

    fn gate(name: &str) -> &'static Gate {
        GATES
            .iter()
            .find(|g| g.name == name)
            .expect("gate in the table")
    }

    #[test]
    fn deterministic_portion_excludes_timings() {
        let report = BenchReport {
            seed: 1,
            quick: true,
            ..report_of(&[("x", 5)])
        };
        let text = report.render();
        let det = BenchReport::deterministic_portion(&text);
        assert!(!det.contains("median_ns"));
        assert!(text.contains("median_ns"));
    }

    #[test]
    fn fanout_gate_flags_slow_multiworker_runs() {
        let with = |w1: u64, w8: u64| {
            report_of(&[("sharded_population_w1", w1), ("sharded_population_w8", w8)])
        };
        assert!(with(100, 103).check(gate("fanout")).is_ok());
        let failed = with(100, 120).check(gate("fanout")).unwrap_err();
        assert!(failed.contains("= 1.20x, required <= 1.00x"), "{failed}");
        assert!(failed.ends_with("FAILED"), "{failed}");
        // Missing rows are a failure, not a vacuous pass.
        let missing = BenchReport::default().check(gate("fanout")).unwrap_err();
        assert!(missing.contains("missing timing row"), "{missing}");
    }

    #[test]
    fn telemetry_gate_flags_an_enabled_path_over_its_budget() {
        let with = |off: u64, on: u64| {
            report_of(&[("resolve_telemetry_off", off), ("resolve_telemetry_on", on)])
        };
        // 1.9x is inside the 2.2x budget; 2.5x is not.
        assert!(with(100, 190).check(gate("telemetry")).is_ok());
        let failed = with(100, 250).check(gate("telemetry")).unwrap_err();
        assert!(failed.contains("= 2.50x, required <= 2.20x"), "{failed}");
        assert!(failed.ends_with("FAILED"), "{failed}");
        // The tolerance absorbs timer noise right at the bar, and ends
        // where it says: 2.2 x 1.05 = 2.31.
        assert!(with(100, 220).check(gate("telemetry")).is_ok());
        assert!(with(100, 231).check(gate("telemetry")).is_ok());
        assert!(with(100, 232).check(gate("telemetry")).is_err());
        // Missing rows are a failure, not a vacuous pass.
        let missing = BenchReport::default().check(gate("telemetry")).unwrap_err();
        assert!(missing.contains("missing timing row"), "{missing}");
    }

    #[test]
    fn speedup_gate_scales_its_requirement_to_the_host_cores() {
        let with = |w1: u64, w8: u64, cores: u64| {
            report_of(&[
                ("zipf_population_w1", w1),
                ("zipf_population_w8", w8),
                (HOST_CORES_ROW, cores),
            ])
        };
        let speedup = gate("speedup");
        // 8 cores: 4x required — 4.2x passes, 3.0x fails.
        assert!(with(4_200, 1_000, 8).check(speedup).is_ok());
        let failed = with(3_000, 1_000, 8).check(speedup).unwrap_err();
        assert!(failed.contains("= 3.00x, required >= 4.00x"), "{failed}");
        // 4 cores: 2x required.
        assert!(with(2_100, 1_000, 4).check(speedup).is_ok());
        assert!(with(1_500, 1_000, 4).check(speedup).is_err());
        // 16 cores: the requirement stays capped at 4x (only 8 workers run).
        assert!(with(4_200, 1_000, 16).check(speedup).is_ok());
        // 1 core: the worker cap makes w8 sequential — parity is enough,
        // and the tolerance absorbs timer noise either way.
        assert!(with(1_000, 1_020, 1).check(speedup).is_ok());
        assert!(with(1_000, 1_300, 1).check(speedup).is_err());
        // Missing rows — the host-cores row included — are a failure,
        // not a vacuous pass.
        assert!(BenchReport::default().check(speedup).is_err());
        let no_cores = report_of(&[("zipf_population_w1", 4_200), ("zipf_population_w8", 1_000)]);
        let missing = no_cores.check(speedup).unwrap_err();
        assert!(missing.contains(HOST_CORES_ROW), "{missing}");
    }

    #[test]
    fn improvement_gate_requires_wheel_to_beat_its_reference() {
        let with = |wheel: u64, btree: u64| {
            report_of(&[("wheel_churn", wheel), ("wheel_churn_btree", btree)])
        };
        // 2.1x clears the 2x bar; 1.5x does not.
        assert!(with(100, 210).check(gate("wheel")).is_ok());
        let failed = with(100, 150).check(gate("wheel")).unwrap_err();
        assert!(failed.contains("= 1.50x, required >= 2.00x"), "{failed}");
        // The tolerance absorbs timer noise right at the bar.
        assert!(with(100, 195).check(gate("wheel")).is_ok());
        // Missing rows are a failure, not a vacuous pass.
        assert!(BenchReport::default().check(gate("wheel")).is_err());
    }

    #[test]
    fn two_failing_gates_are_both_reported() {
        // Fan-out and the wheel regress in the same run; the speedup
        // and telemetry gates hold. A reader must see all four verdicts.
        let report = report_of(&[
            ("wheel_churn", 100),
            ("wheel_churn_btree", 150),
            ("resolve_telemetry_off", 100),
            ("resolve_telemetry_on", 200),
            ("sharded_population_w1", 100),
            ("sharded_population_w8", 120),
            ("zipf_population_w1", 2_100),
            ("zipf_population_w8", 1_000),
            (HOST_CORES_ROW, 4),
        ]);
        let verdicts = report.check_gates();
        let names: Vec<(&str, bool)> = verdicts
            .iter()
            .map(|v| {
                let (Ok(line) | Err(line)) = v;
                let name = line.strip_prefix("gate ").and_then(|l| l.split(':').next());
                (name.expect("verdict names its gate"), v.is_ok())
            })
            .collect();
        assert_eq!(
            names,
            [
                ("fanout", false),
                ("speedup", true),
                ("wheel", false),
                ("telemetry", true)
            ],
            "{verdicts:?}"
        );
    }

    #[test]
    fn suite_runs_and_deterministic_portion_is_stable() {
        let a = run(tiny());
        let b = run(tiny());
        assert_eq!(
            BenchReport::deterministic_portion(&a.render()),
            BenchReport::deterministic_portion(&b.render()),
            "same seed must give a byte-identical deterministic section"
        );
        // Exactly the nine rows that are one side of an in-report pair
        // or a gate input: a re-added unpaired scenario fails here.
        let rows: Vec<&str> = a.timings.iter().map(|t| t.scenario.as_str()).collect();
        assert_eq!(
            rows,
            [
                "wheel_churn",
                "wheel_churn_btree",
                "resolve_telemetry_off",
                "resolve_telemetry_on",
                "sharded_population_w1",
                "sharded_population_w8",
                "zipf_population_w1",
                "zipf_population_w8",
                HOST_CORES_ROW,
            ]
        );
        // Each paired scenario publishes the digest (or op counts) that
        // certify both sides did identical work.
        let has = |scenario: &str, metric: &str| {
            a.counters
                .iter()
                .any(|c| c.scenario == scenario && c.metric == metric)
        };
        assert!(has("sharded_population", "digest_lo"));
        assert!(has("zipf_population", "digest_lo"));
        assert!(has("wheel_churn", "cascades"));
        assert!(a
            .counters
            .iter()
            .any(|c| c.scenario == "wheel_churn" && c.metric == "rearms" && c.value > 0.0));
    }
}
