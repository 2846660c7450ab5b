//! Differential harness for the two Zipf campaign engines.
//!
//! The struct-of-arrays sweep (`ZipfEngine::Soa`) is the fast path; the
//! pointer-based heap engine (`ZipfEngine::Oracle`) is the retained
//! reference implementation. Both must produce **bit-identical**
//! output — datasets row for row, per-probe counters, merged cache
//! statistics, and the telemetry artifacts (sim-time series and
//! Prometheus text) — for any seed, worker count, and cell count.
//! Shared `ProbeFrame::build` and `fire_one` make that true by
//! construction; this suite is what keeps it true.

use dnsttl_atlas::{ZipfCampaignConfig, ZipfEngine, ZipfOutcome, ZipfRunOpts};
use dnsttl_netsim::SimDuration;
use dnsttl_telemetry::Telemetry;

fn campaign(cells: usize) -> ZipfCampaignConfig {
    let mut cfg = ZipfCampaignConfig::small(240);
    cfg.cells = cells;
    cfg
}

/// Runs the campaign reporting into a fresh enabled handle; returns
/// the outcome and the handle's two deterministic artifacts.
fn run(
    cfg: &ZipfCampaignConfig,
    seed: u64,
    engine: ZipfEngine,
    workers: usize,
) -> (ZipfOutcome, (String, String)) {
    let opts = ZipfRunOpts {
        workers,
        engine,
        telemetry: Telemetry::new(),
        ..ZipfRunOpts::default()
    };
    let outcome = dnsttl_atlas::run_zipf_campaign(cfg, seed, &opts);
    let artifacts = (
        opts.telemetry.timeseries_jsonl(),
        opts.telemetry.prometheus_text(),
    );
    (outcome, artifacts)
}

fn assert_bit_identical(cfg: &ZipfCampaignConfig, seed: u64, label: &str) {
    let (soa, (soa_ts, soa_prom)) = run(cfg, seed, ZipfEngine::Soa, 1);
    let (oracle, (oracle_ts, oracle_prom)) = run(cfg, seed, ZipfEngine::Oracle, 1);

    // Row-level equality first (the digest alone would hide where a
    // divergence starts); then the digest, which the worker-invariance
    // checks compare.
    assert_eq!(
        soa.dataset.rows().len(),
        oracle.dataset.rows().len(),
        "{label}: row counts"
    );
    for (i, (a, b)) in soa
        .dataset
        .rows()
        .iter()
        .zip(oracle.dataset.rows())
        .enumerate()
    {
        assert_eq!(a, b, "{label}: first divergent row at index {i}");
    }
    assert_eq!(soa.dataset.digest(), oracle.dataset.digest(), "{label}");

    // Per-probe accounting and the summed cache ledger.
    assert_eq!(soa.queries_per_probe, oracle.queries_per_probe, "{label}");
    assert_eq!(soa.hits_per_probe, oracle.hits_per_probe, "{label}");
    assert_eq!(soa.cache, oracle.cache, "{label}: cache stats");
    assert_eq!(soa.resolvers, oracle.resolvers, "{label}");

    // Telemetry: both engines must emit the same counters at the same
    // simulated instants, so the rendered artifacts match byte for
    // byte.
    assert_eq!(soa_ts, oracle_ts, "{label}: timeseries bytes");
    assert_eq!(soa_prom, oracle_prom, "{label}: prometheus bytes");
    assert!(
        soa_ts.contains("zipf_queries_total"),
        "{label}: the comparison must not pass on empty telemetry"
    );
}

#[test]
fn engines_agree_bit_for_bit_across_seeds() {
    let cfg = campaign(16);
    for seed in [42, 0xDEAD_BEEF] {
        assert_bit_identical(&cfg, seed, &format!("seed {seed}"));
    }
}

#[test]
fn engines_agree_at_nondefault_cell_counts() {
    for cells in [4, 64] {
        let cfg = campaign(cells);
        assert_bit_identical(&cfg, 7, &format!("cells {cells}"));
    }
}

#[test]
fn engines_agree_with_a_flat_curve_and_heavy_skew() {
    // Degenerate corners: no diurnal warping (window == base interval)
    // and a near-single-name universe (maximum cache sharing).
    let mut cfg = campaign(8);
    cfg.diurnal = dnsttl_atlas::DiurnalCurve::flat();
    cfg.exponent = 2.5;
    assert_bit_identical(&cfg, 99, "flat+skew");
}

#[test]
fn engines_agree_above_the_linear_sweep_cutoff() {
    // Small frames take a linear min-scan; frames past the cutoff run
    // the hierarchical timing wheel. 600 probes over 4 cells puts 150
    // probes in each cell — comfortably past the 128-probe cutoff — so
    // this case pins the wheel path itself against the oracle.
    let mut cfg = ZipfCampaignConfig::small(600);
    cfg.cells = 4;
    assert_bit_identical(&cfg, 23, "wheel-sized cells");
}

#[test]
fn engines_agree_where_reschedules_tie() {
    // 250 probes a cell over twelve hours: here two probes are
    // rescheduled onto one instant, so the sweep must break the tie by
    // probe index, as the oracle's `(fire_time_ms, probe_idx)` key
    // does. A sweep that breaks it in schedule order passes every
    // smaller case above and fails this one.
    let mut cfg = ZipfCampaignConfig::large(1_000);
    cfg.cells = 4;
    cfg.duration = SimDuration::from_hours(12);
    for seed in [42, 1337] {
        assert_bit_identical(&cfg, seed, &format!("tied reschedules, seed {seed}"));
    }
}

#[test]
fn oracle_is_worker_count_invariant_too() {
    // The differential suite leans on the 1-worker oracle; make sure
    // the oracle itself is scheduling-independent before trusting it.
    let cfg = campaign(16);
    let (one, _) = run(&cfg, 42, ZipfEngine::Oracle, 1);
    let (eight, _) = run(&cfg, 42, ZipfEngine::Oracle, 8);
    assert_eq!(one.dataset.digest(), eight.dataset.digest());
    assert_eq!(one.cache, eight.cache);
}
