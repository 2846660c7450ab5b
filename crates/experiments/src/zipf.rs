//! The `zipf-population` scale campaign.
//!
//! The paper's §5–6 conclusions are claims about *aggregate cache
//! behaviour under realistic query populations*; *Modeling and
//! Predicting DNS Server Load* gives the calibration target — Zipf
//! name popularity with diurnal load curves. This module drives the
//! struct-of-arrays scale engine (`dnsttl_atlas::scale`) over that
//! workload: every probe binds to a cell-local resolver and a Zipf
//! rank at build, then fires on a diurnally-warped schedule for a full
//! simulated day.
//!
//! Outputs: rank-popularity and hourly load-curve CSVs, a metrics map
//! (hit rate, head concentration, peak/trough ratio, latency
//! quantiles), and the campaign's sim-time query/hit series absorbed
//! into the module telemetry — all byte-identical for every worker
//! count, which `tests/shard_equivalence.rs` pins across cell counts
//! {16, 64, 256}.

use crate::config::ExpConfig;
use crate::report::Report;
use dnsttl_analysis::CsvWriter;
use dnsttl_atlas::{run_zipf_campaign, ZipfCampaignConfig, ZipfEngine, ZipfOutcome, ZipfRunOpts};
use dnsttl_netsim::SimDuration;

/// Default cell count for the scale campaign: wide enough to keep an
/// 8-worker fan-out saturated with cells to steal (64 cells / 8
/// workers = 8 cells per worker of dynamic slack).
pub(crate) const DEFAULT_CELLS: usize = 64;

/// The campaign this module runs for a given config: `cfg.probes`
/// probes over one simulated day, so the diurnal curve completes a
/// full cycle.
pub(crate) fn campaign_for(cfg: &ExpConfig) -> ZipfCampaignConfig {
    let mut campaign = ZipfCampaignConfig::small(cfg.probes.max(1));
    campaign.cells = cfg.cells.unwrap_or(DEFAULT_CELLS);
    campaign.duration = SimDuration::from_hours(24);
    campaign
}

/// Runs the campaign and renders the report.
///
/// # Panics
/// Panics when the configured cell count is not a power of two — the
/// `repro` CLI validates `--cells` before calling in.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let campaign = campaign_for(cfg);
    let opts = ZipfRunOpts {
        workers: cfg.shards.unwrap_or(1),
        engine: ZipfEngine::Soa,
        telemetry: cfg.telemetry.clone(),
        progress: cfg.progress.then_some("zipf-population"),
    };
    let outcome = run_zipf_campaign(&campaign, cfg.seed_for("zipf-population"), &opts);
    vec![render(cfg, &campaign, &outcome)]
}

fn render(cfg: &ExpConfig, campaign: &ZipfCampaignConfig, outcome: &ZipfOutcome) -> Report {
    let mut report = Report::new(
        "zipf-population",
        "Zipf/diurnal population campaign at scale (§5–6 calibration)",
    );
    // Every aggregate below is a sum or a quantile, so the rows are
    // read cell by cell, as the dataset holds them.
    let rows = outcome.dataset.rows();
    let queries = rows.len() as u64;

    // Rank-popularity histogram: queries and hits per rank.
    let mut per_rank = vec![(0u64, 0u64); campaign.names];
    // Hourly load curve over the simulated day.
    let mut per_hour = vec![(0u64, 0u64); 24];
    let mut ok = 0u64;
    let mut rtts: Vec<u32> = Vec::with_capacity(rows.len());
    for r in rows {
        let cell = &mut per_rank[r.rank as usize];
        cell.0 += 1;
        cell.1 += u64::from(r.cache_hit);
        let hour = ((r.at_ms / 3_600_000) % 24) as usize;
        per_hour[hour].0 += 1;
        per_hour[hour].1 += u64::from(r.cache_hit);
        ok += u64::from(r.ok);
        rtts.push(r.rtt_ms);
    }
    rtts.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if rtts.is_empty() {
            return 0.0;
        }
        let idx = ((rtts.len() - 1) as f64 * q).round() as usize;
        rtts[idx] as f64
    };

    // Head concentration: share of traffic on the most popular 1% of
    // names (at least one name) — the signature of Zipf skew.
    let head = (campaign.names / 100).max(1);
    let head_queries: u64 = per_rank.iter().take(head).map(|(q, _)| q).sum();
    // Diurnal signature: busiest over quietest hour.
    let peak = per_hour.iter().map(|(q, _)| *q).max().unwrap_or(0);
    let trough = per_hour.iter().map(|(q, _)| *q).min().unwrap_or(0);

    report.push(format!(
        "{} probes over {} cells fired {} queries at {} names (Zipf s={:.2})",
        campaign.probes, campaign.cells, queries, campaign.names, campaign.exponent,
    ));
    report.push(format!(
        "cache hit rate {:.3}; top-{} names carry {:.1}% of queries; peak/trough load {:.2}x",
        outcome.dataset.hit_rate(),
        head,
        head_queries as f64 / queries.max(1) as f64 * 100.0,
        peak as f64 / trough.max(1) as f64,
    ));
    report.metric("probes", campaign.probes as f64);
    report.metric("cells", campaign.cells as f64);
    report.metric("names", campaign.names as f64);
    report.metric("queries", queries as f64);
    report.metric("ok_fraction", ok as f64 / queries.max(1) as f64);
    report.metric("hit_rate", outcome.dataset.hit_rate());
    report.metric(
        "head_share_top1pct",
        head_queries as f64 / queries.max(1) as f64,
    );
    report.metric("peak_trough_ratio", peak as f64 / trough.max(1) as f64);
    report.metric("latency_p50_ms", quantile(0.5));
    report.metric("latency_p99_ms", quantile(0.99));
    report.metric("resolvers", outcome.resolvers as f64);
    report.metric("cache_inserts", outcome.cache.inserts as f64);
    // The ledger conservation law, summed across every cell's caches.
    report.metric(
        "cache_live_entries",
        (outcome.cache.inserts - outcome.cache.removals()) as f64,
    );

    report.write(cfg, "zipf_rank_popularity.csv", || {
        let mut w = CsvWriter::new(&["rank", "queries", "cache_hits"]);
        for (rank, (q, h)) in per_rank.iter().enumerate() {
            if *q > 0 {
                w.row(&[format!("{rank}"), format!("{q}"), format!("{h}")]);
            }
        }
        w.finish()
    });
    report.write(cfg, "zipf_load_curve.csv", || {
        let mut w = CsvWriter::new(&["hour", "queries", "cache_hits"]);
        for (hour, (q, h)) in per_hour.iter().enumerate() {
            w.row(&[format!("{hour}"), format!("{q}"), format!("{h}")]);
        }
        w.finish()
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> ExpConfig {
        ExpConfig {
            seed,
            probes: 320,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn campaign_shows_zipf_head_and_diurnal_swing() {
        let reports = run(&quick_cfg(42));
        let r = &reports[0];
        // Skewed popularity: the top 1% of names carry far more than
        // 1% of the traffic.
        assert!(r.get("head_share_top1pct") > 0.05, "{}", r.render());
        // A 0.6-amplitude sinusoid must leave a visible peak/trough.
        assert!(r.get("peak_trough_ratio") > 1.5, "{}", r.render());
        // Shared caches at Zipf skew: hits dominate.
        assert!(r.get("hit_rate") > 0.5, "{}", r.render());
        assert_eq!(r.get("ok_fraction"), 1.0, "{}", r.render());
    }

    #[test]
    fn defaults_use_the_wide_cell_layout() {
        assert_eq!(campaign_for(&quick_cfg(1)).cells, DEFAULT_CELLS);
        let pinned = ExpConfig {
            cells: Some(16),
            ..quick_cfg(1)
        };
        assert_eq!(campaign_for(&pinned).cells, 16);
    }

    #[test]
    fn conservation_holds_across_cells() {
        let reports = run(&quick_cfg(7));
        let r = &reports[0];
        // inserts − removals == live entries ≥ 0 per cell, so the
        // summed accounting must stay non-negative and bounded by
        // inserts.
        let live = r.get("cache_live_entries");
        assert!(
            live >= 0.0 && live <= r.get("cache_inserts"),
            "{}",
            r.render()
        );
    }
}
