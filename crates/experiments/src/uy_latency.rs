//! §5.3 / Figure 10: the `.uy` natural experiment.
//!
//! Uruguay's ccTLD raised its child NS TTL from 300 s to 86 400 s on
//! 2019-03-04 after the authors shared early results. The same Atlas
//! measurement (NS `.uy` every 600 s for two hours) run before and
//! after shows the cache doing its job: with the short TTL most VP
//! queries miss and pay a trip to the authoritatives; with the long
//! TTL the recursive answers directly.

use crate::config::ExpConfig;
use crate::flightdeck;
use crate::report::Report;
use crate::sharded::{self, WorldSpec};
use dnsttl_analysis::{ascii_cdf_multi, CsvWriter, Ecdf, Table};
use dnsttl_atlas::{measure_population, Dataset, MeasurementSpec, QueryName};
use dnsttl_netsim::Region;
use dnsttl_wire::{Name, RecordType, Ttl};

fn measure(cfg: &ExpConfig, tag: &str, child_ns: Ttl, child_a: Ttl) -> Dataset {
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("uy").expect("static")),
        RecordType::NS,
        2,
    );
    let world = WorldSpec::Uy {
        ns_ttl: child_ns,
        a_ttl: child_a,
    };
    if cfg.shards.is_some() {
        return sharded::measurement_campaign(cfg, tag, world, &spec).dataset;
    }
    // Without `--shards`, fig10 alone still runs one global population
    // over one event queue: `benchmark/src/trace.rs` replays this run
    // call by call, so fig10 moves onto the cells only after that
    // replay does (ROADMAP item 3(i)).
    let outcome = measure_population(
        || world.build(),
        &spec,
        &cfg.telemetry,
        cfg.seed_for(tag),
        cfg.probes,
        0,
    );
    flightdeck::record_latency_quantiles(&cfg.telemetry, tag, &outcome.dataset);
    outcome.dataset
}

/// Runs the before/after comparison; returns fig10a and fig10b.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    // Before: NS 300 s / A 120 s. After: both one day (§5.3).
    let before = measure(
        cfg,
        "fig10-before",
        Ttl::from_secs(300),
        Ttl::from_secs(120),
    );
    let after = measure(cfg, "fig10-after", Ttl::DAY, Ttl::DAY);

    let before_ecdf = Ecdf::from_u64(before.rtts_ms());
    let after_ecdf = Ecdf::from_u64(after.rtts_ms());

    let mut fig10a = Report::new(
        "fig10a",
        "RTT of NS .uy queries before (TTL 300 s) and after (TTL 86400 s)",
    );
    fig10a.push(ascii_cdf_multi(
        &[
            ("TTL 300s (before)", &before_ecdf),
            ("TTL 86400s (after)", &after_ecdf),
        ],
        64,
        14,
    ));
    let mut t = Table::new(vec![
        "quantile",
        "before (ms)",
        "after (ms)",
        "paper before",
        "paper after",
    ]);
    for (q, pb, pa) in [
        (0.50, "28.7", "8"),
        (0.75, "183", "21"),
        (0.95, "450", "200"),
        (0.99, "1375", "678"),
    ] {
        t.row(vec![
            format!("p{:.0}", q * 100.0),
            format!("{:.1}", before_ecdf.quantile(q)),
            format!("{:.1}", after_ecdf.quantile(q)),
            pb.into(),
            pa.into(),
        ]);
    }
    fig10a.push(t.render());
    fig10a.push(
        "shape check: the long-TTL curve must sit left of (below) the short-TTL curve\n\
         at every quantile, with the biggest relative gain at the median.",
    );
    fig10a.metric("median_before_ms", before_ecdf.median());
    fig10a.metric("median_after_ms", after_ecdf.median());
    fig10a.metric("p75_before_ms", before_ecdf.quantile(0.75));
    fig10a.metric("p75_after_ms", after_ecdf.quantile(0.75));
    fig10a.metric(
        "cache_hit_rate_before",
        before.valid().filter(|r| r.cache_hit).count() as f64 / before.valid_count().max(1) as f64,
    );
    fig10a.metric(
        "cache_hit_rate_after",
        after.valid().filter(|r| r.cache_hit).count() as f64 / after.valid_count().max(1) as f64,
    );
    fig10a.write(cfg, "fig10a_uy_rtt_cdf.csv", || {
        let mut w = CsvWriter::new(&["phase", "rtt_ms", "cdf"]);
        for (phase, e) in [("before", &before_ecdf), ("after", &after_ecdf)] {
            for (x, y) in e.points() {
                w.row(&[phase.into(), format!("{x}"), format!("{y}")]);
            }
        }
        w.finish()
    });

    // ----- Figure 10b: per-region quantiles -----
    let mut fig10b = Report::new("fig10b", "RTT quantiles per region, before vs after");
    let mut t = Table::new(vec![
        "region",
        "p25 before",
        "p50 before",
        "p75 before",
        "p25 after",
        "p50 after",
        "p75 after",
    ]);
    let mut all_regions_improved = true;
    for region in Region::ALL {
        let b = Ecdf::from_u64(before.rtts_ms_in(region));
        let a = Ecdf::from_u64(after.rtts_ms_in(region));
        if b.is_empty() || a.is_empty() {
            continue;
        }
        all_regions_improved &= a.median() <= b.median();
        t.row(vec![
            region.to_string(),
            format!("{:.0}", b.quantile(0.25)),
            format!("{:.0}", b.median()),
            format!("{:.0}", b.quantile(0.75)),
            format!("{:.0}", a.quantile(0.25)),
            format!("{:.0}", a.median()),
            format!("{:.0}", a.quantile(0.75)),
        ]);
        fig10b.metric(&format!("median_before_{region}"), b.median());
        fig10b.metric(&format!("median_after_{region}"), a.median());
    }
    fig10b.push(t.render());
    fig10b.push("paper: all regions observe latency reduction after the TTL change.");
    fig10b.metric("all_regions_improved", all_regions_improved as u8 as f64);
    fig10b.write(cfg, "fig10b_uy_rtt_by_region.csv", || {
        let mut w = CsvWriter::new(&["region", "phase", "p25", "p50", "p75"]);
        for region in Region::ALL {
            for (phase, ds) in [("before", &before), ("after", &after)] {
                let e = Ecdf::from_u64(ds.rtts_ms_in(region));
                if e.is_empty() {
                    continue;
                }
                w.row(&[
                    region.to_string(),
                    phase.into(),
                    format!("{:.1}", e.quantile(0.25)),
                    format!("{:.1}", e.median()),
                    format!("{:.1}", e.quantile(0.75)),
                ]);
            }
        }
        w.finish()
    });

    vec![fig10a, fig10b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_ttl_cuts_latency_everywhere() {
        let reports = run(&ExpConfig::quick());
        let fig10a = &reports[0];
        // The headline: long TTLs slash the median.
        assert!(
            fig10a.get("median_after_ms") < fig10a.get("median_before_ms") / 2.0,
            "before {} after {}",
            fig10a.get("median_before_ms"),
            fig10a.get("median_after_ms")
        );
        assert!(fig10a.get("p75_after_ms") < fig10a.get("p75_before_ms"));
        // Mechanism: the cache-hit rate explains it.
        assert!(fig10a.get("cache_hit_rate_after") > fig10a.get("cache_hit_rate_before") + 0.3);

        let fig10b = &reports[1];
        assert_eq!(fig10b.get("all_regions_improved"), 1.0);
    }

    #[test]
    fn latency_gain_survives_sharding() {
        let cfg = ExpConfig {
            shards: Some(2),
            ..ExpConfig::quick()
        };
        let reports = run(&cfg);
        let fig10a = &reports[0];
        assert!(
            fig10a.get("median_after_ms") < fig10a.get("median_before_ms") / 2.0,
            "before {} after {}",
            fig10a.get("median_before_ms"),
            fig10a.get("median_after_ms")
        );
    }
}
