//! §6.2: the controlled TTL experiments — Table 10 and Figure 11.
//!
//! Five campaigns against a test zone (`mapache-de-madrid.co`):
//!
//! * unique per-probe names × TTL {60 s, 86 400 s} — every VP fills its
//!   own cache entry;
//! * one shared name × TTL {60 s, 86 400 s} — VPs warm each other's
//!   shared caches;
//! * one shared name × TTL 60 s served via a global **anycast** set —
//!   the Route53 comparison.
//!
//! The paper's findings to reproduce: long TTLs cut authoritative
//! query volume by roughly three quarters; long TTLs beat short TTLs
//! on median latency by ~5×; and caching beats anycast at the median
//! while anycast only compresses the tail.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::sharded::{self, WorldSpec};
use dnsttl_analysis::{ascii_cdf_multi, CsvWriter, Ecdf, Table};
use dnsttl_atlas::{Dataset, MeasurementSpec, QueryName};
use dnsttl_netsim::SimDuration;
use dnsttl_wire::{Name, RecordType, Ttl};

struct Campaign {
    label: &'static str,
    dataset: Dataset,
    auth_queries: u64,
    auth_sources: usize,
    vps: usize,
}

fn campaign(
    cfg: &ExpConfig,
    tag: &str,
    label: &'static str,
    ttl: Ttl,
    anycast: bool,
    unique_names: bool,
) -> Campaign {
    let query = if unique_names {
        QueryName::PerProbe {
            suffix: Name::parse("mapache-de-madrid.co").expect("static"),
        }
    } else {
        QueryName::Fixed(Name::parse("1.mapache-de-madrid.co").expect("static"))
    };
    let spec = MeasurementSpec {
        query,
        qtype: RecordType::AAAA,
        frequency: SimDuration::from_secs(600),
        duration: SimDuration::from_mins(65),
    };
    let world = WorldSpec::Controlled {
        aaaa_ttl: ttl,
        anycast,
    };
    let out = sharded::measurement_campaign(cfg, tag, world, &spec);
    Campaign {
        label,
        dataset: out.dataset,
        auth_queries: out.auth_queries,
        auth_sources: out.auth_sources,
        vps: out.vps,
    }
}

/// Runs the five campaigns; returns table10, fig11a, fig11b.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let ttl60_u = campaign(cfg, "ttl60-u", "TTL60-u", Ttl::MINUTE, false, true);
    let ttl86400_u = campaign(cfg, "ttl86400-u", "TTL86400-u", Ttl::DAY, false, true);
    let ttl60_s = campaign(cfg, "ttl60-s", "TTL60-s", Ttl::MINUTE, false, false);
    let ttl86400_s = campaign(cfg, "ttl86400-s", "TTL86400-s", Ttl::DAY, false, false);
    let anycast = campaign(
        cfg,
        "ttl60-anycast",
        "TTL60-s-anycast",
        Ttl::MINUTE,
        true,
        false,
    );

    let campaigns = [&ttl60_u, &ttl86400_u, &ttl60_s, &ttl86400_s, &anycast];

    // ----- Table 10 -----
    let mut table10 = Report::new(
        "table10",
        "Controlled TTL experiments: client and authoritative view",
    );
    let mut t = Table::new(vec![
        "",
        "TTL60-u",
        "TTL86400-u",
        "TTL60-s",
        "TTL86400-s",
        "TTL60-anycast",
    ]);
    type Cell = Box<dyn Fn(&Campaign) -> String>;
    let rows: [(&str, Cell); 7] = [
        ("Frequency", Box::new(|_| "600s".into())),
        ("Duration", Box::new(|_| "65min".into())),
        ("VPs", Box::new(|c| c.vps.to_string())),
        (
            "Queries (client)",
            Box::new(|c| c.dataset.len().to_string()),
        ),
        (
            "Responses (val.)",
            Box::new(|c| c.dataset.valid_count().to_string()),
        ),
        (
            "Querying IPs (auth)",
            Box::new(|c| c.auth_sources.to_string()),
        ),
        ("Queries (auth)", Box::new(|c| c.auth_queries.to_string())),
    ];
    for (label, f) in &rows {
        t.row(
            std::iter::once(label.to_string())
                .chain(campaigns.iter().map(|c| f(c)))
                .collect(),
        );
    }
    table10.push(t.render());
    let reduction_u = 1.0 - ttl86400_u.auth_queries as f64 / ttl60_u.auth_queries.max(1) as f64;
    let reduction_s = 1.0 - ttl86400_s.auth_queries as f64 / ttl60_s.auth_queries.max(1) as f64;
    table10.push(format!(
        "authoritative query reduction from TTL 60 → 86400: unique {:.1}%  shared {:.1}%  (paper ≈77%)",
        reduction_u * 100.0,
        reduction_s * 100.0
    ));
    table10.metric("auth_queries_ttl60_u", ttl60_u.auth_queries as f64);
    table10.metric("auth_queries_ttl86400_u", ttl86400_u.auth_queries as f64);
    table10.metric("reduction_unique", reduction_u);
    table10.metric("reduction_shared", reduction_s);

    // ----- Figure 11a: unique names -----
    let e60u = Ecdf::from_u64(ttl60_u.dataset.rtts_ms());
    let e86u = Ecdf::from_u64(ttl86400_u.dataset.rtts_ms());
    let mut fig11a = Report::new("fig11a", "Client latency, unique query names");
    fig11a.push(ascii_cdf_multi(
        &[("TTL 60s", &e60u), ("TTL 86400s", &e86u)],
        64,
        14,
    ));
    fig11a.push(format!(
        "median: TTL60 {:.1} ms vs TTL86400 {:.1} ms  (paper: 49.28 vs 9.68 ms)",
        e60u.median(),
        e86u.median()
    ));
    fig11a.metric("median_ttl60_u", e60u.median());
    fig11a.metric("median_ttl86400_u", e86u.median());

    // ----- Figure 11b: shared name + anycast -----
    let e60s = Ecdf::from_u64(ttl60_s.dataset.rtts_ms());
    let e86s = Ecdf::from_u64(ttl86400_s.dataset.rtts_ms());
    let eany = Ecdf::from_u64(anycast.dataset.rtts_ms());
    let mut fig11b = Report::new("fig11b", "Client latency, shared query name, with anycast");
    fig11b.push(ascii_cdf_multi(
        &[
            ("TTL 60s unicast", &e60s),
            ("TTL 86400s unicast", &e86s),
            ("TTL 60s anycast", &eany),
        ],
        64,
        14,
    ));
    let mut t = Table::new(vec![
        "series",
        "p50 (ms)",
        "p75 (ms)",
        "p95 (ms)",
        "paper p50",
    ]);
    for (label, e, paper) in [
        ("TTL60-s", &e60s, "35.59"),
        ("TTL86400-s", &e86s, "7.38"),
        ("TTL60-anycast", &eany, "29.95"),
    ] {
        t.row(vec![
            label.into(),
            format!("{:.1}", e.median()),
            format!("{:.1}", e.quantile(0.75)),
            format!("{:.1}", e.quantile(0.95)),
            paper.into(),
        ]);
    }
    fig11b.push(t.render());
    fig11b.push(
        "shape checks — caching beats anycast at the median; anycast beats short-TTL\n\
         unicast in the tail (paper §6.2: \"caching is far better than anycast at\n\
         reducing latency\" at the median, anycast \"helps a great deal in the tail\").",
    );
    fig11b.metric("median_ttl60_s", e60s.median());
    fig11b.metric("median_ttl86400_s", e86s.median());
    fig11b.metric("median_anycast", eany.median());
    fig11b.metric("p95_ttl60_s", e60s.quantile(0.95));
    fig11b.metric("p95_anycast", eany.quantile(0.95));

    fig11a.write(cfg, "fig11_latency_cdfs.csv", || {
        let mut w = CsvWriter::new(&["series", "rtt_ms", "cdf"]);
        for (series, e) in [
            ("ttl60-u", &e60u),
            ("ttl86400-u", &e86u),
            ("ttl60-s", &e60s),
            ("ttl86400-s", &e86s),
            ("ttl60-anycast", &eany),
        ] {
            for (x, y) in e.points() {
                w.row(&[series.into(), format!("{x}"), format!("{y}")]);
            }
        }
        w.finish()
    });
    table10.write(cfg, "table10_auth_counts.csv", || {
        let mut w = CsvWriter::new(&["campaign", "client_queries", "auth_queries", "auth_sources"]);
        for c in campaigns {
            w.row(&[
                c.label.into(),
                c.dataset.len().to_string(),
                c.auth_queries.to_string(),
                c.auth_sources.to_string(),
            ]);
        }
        w.finish()
    });

    vec![table10, fig11a, fig11b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlled_experiments_reproduce_table10_and_fig11() {
        let reports = run(&ExpConfig::quick());
        let by_id = |id: &str| reports.iter().find(|r| r.id == id).unwrap();

        let table10 = by_id("table10");
        // Paper: ~77% authoritative traffic reduction. Accept the band.
        assert!(
            table10.get("reduction_unique") > 0.55,
            "unique reduction {}",
            table10.get("reduction_unique")
        );
        assert!(
            table10.get("reduction_shared") > 0.55,
            "shared reduction {}",
            table10.get("reduction_shared")
        );

        let fig11a = by_id("fig11a");
        // Long TTLs beat short TTLs by a wide margin at the median.
        assert!(
            fig11a.get("median_ttl86400_u") * 2.0 < fig11a.get("median_ttl60_u"),
            "60s {} vs 86400s {}",
            fig11a.get("median_ttl60_u"),
            fig11a.get("median_ttl86400_u")
        );

        let fig11b = by_id("fig11b");
        // Caching beats anycast at the median…
        assert!(fig11b.get("median_ttl86400_s") < fig11b.get("median_anycast"));
        // …anycast beats short-TTL unicast at the median and in the tail.
        assert!(fig11b.get("median_anycast") <= fig11b.get("median_ttl60_s"));
        assert!(fig11b.get("p95_anycast") < fig11b.get("p95_ttl60_s"));
    }
}
