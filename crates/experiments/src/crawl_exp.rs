//! §5.1: TTLs in the wild — Table 5, Figure 9, Tables 6–9.

use crate::artifacts::write_csv;
use crate::config::ExpConfig;
use crate::report::Report;
use dnsttl_analysis::{ascii_cdf_log, CsvWriter, Table};
use dnsttl_crawl::{
    crawler::{self, CRAWLED_TYPES},
    ContentCategory, CrawledDomain, ListKind, ListSpec,
};
use dnsttl_netsim::SimRng;
use dnsttl_wire::RecordType;

fn generate_all(cfg: &ExpConfig) -> Vec<(ListKind, Vec<CrawledDomain>)> {
    ListKind::ALL
        .iter()
        .map(|&kind| {
            let mut rng = SimRng::seed_from(cfg.seed_for(&format!("crawl-{}", kind.name())));
            let spec = ListSpec::scaled(kind, cfg.crawl_scale);
            (kind, spec.generate(&mut rng))
        })
        .collect()
}

/// Runs the crawl experiments; returns table5, fig9, table6, table7,
/// table8, table9.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let populations = generate_all(cfg);
    let summaries: Vec<_> = populations
        .iter()
        .map(|(kind, domains)| crawler::summarize(*kind, domains))
        .collect();

    let mut reports = Vec::new();
    let headers: Vec<&str> = std::iter::once("")
        .chain(ListKind::ALL.iter().map(|k| k.name()))
        .collect();

    // ----- Table 5 -----
    let mut table5 = Report::new(
        "table5",
        "Datasets and RR counts (child authoritative) — scaled",
    );
    let mut t = Table::new(headers.clone());
    t.row(
        std::iter::once("format".to_owned())
            .chain(ListKind::ALL.iter().map(|k| k.format().to_owned()))
            .collect(),
    );
    t.row(
        std::iter::once("domains".to_owned())
            .chain(summaries.iter().map(|s| s.domains.to_string()))
            .collect(),
    );
    t.row(
        std::iter::once("responsive".to_owned())
            .chain(summaries.iter().map(|s| s.responsive.to_string()))
            .collect(),
    );
    t.row(
        std::iter::once("ratio".to_owned())
            .chain(
                summaries
                    .iter()
                    .map(|s| format!("{:.2}", s.responsive as f64 / s.domains.max(1) as f64)),
            )
            .collect(),
    );
    for rtype in CRAWLED_TYPES {
        t.row(
            std::iter::once(rtype.to_string())
                .chain(summaries.iter().map(|s| {
                    s.per_type
                        .iter()
                        .find(|p| p.rtype == rtype)
                        .map(|p| p.total.to_string())
                        .unwrap_or_default()
                }))
                .collect(),
        );
        t.row(
            std::iter::once("  unique".to_string())
                .chain(summaries.iter().map(|s| {
                    s.per_type
                        .iter()
                        .find(|p| p.rtype == rtype)
                        .map(|p| p.unique.to_string())
                        .unwrap_or_default()
                }))
                .collect(),
        );
        t.row(
            std::iter::once("  ratio".to_string())
                .chain(summaries.iter().map(|s| {
                    s.per_type
                        .iter()
                        .find(|p| p.rtype == rtype)
                        .map(|p| format!("{:.2}", p.ratio()))
                        .unwrap_or_default()
                }))
                .collect(),
        );
    }
    table5.push(t.render());
    let alexa = &summaries[0];
    let nl = &summaries[3];
    let alexa_ns_ratio = alexa
        .per_type
        .iter()
        .find(|p| p.rtype == RecordType::NS)
        .unwrap()
        .ratio();
    let nl_ns_ratio = nl
        .per_type
        .iter()
        .find(|p| p.rtype == RecordType::NS)
        .unwrap()
        .ratio();
    table5.metric(
        "alexa_responsive_ratio",
        alexa.responsive as f64 / alexa.domains as f64,
    );
    table5.metric("alexa_ns_ratio", alexa_ns_ratio);
    table5.metric("nl_ns_ratio", nl_ns_ratio);
    reports.push(table5);

    // ----- Figure 9 -----
    let mut fig9 = Report::new("fig9", "CDF of TTLs per record type, for each list");
    for rtype in [
        RecordType::NS,
        RecordType::A,
        RecordType::AAAA,
        RecordType::MX,
        RecordType::DNSKEY,
    ] {
        let ecdfs: Vec<(ListKind, dnsttl_analysis::Ecdf)> = populations
            .iter()
            .map(|(k, d)| (*k, crawler::ttl_ecdf(d, rtype)))
            .filter(|(_, e)| !e.is_empty())
            .collect();
        let series: Vec<(&str, &dnsttl_analysis::Ecdf)> =
            ecdfs.iter().map(|(k, e)| (k.name(), e)).collect();
        fig9.push(format!("--- {rtype} ---"));
        fig9.push(ascii_cdf_log(&series, 64, 10));
        for (k, e) in &ecdfs {
            fig9.push(format!("  {:<9} {}", k.name(), e.summary()));
        }
        if let Some(dir) = &cfg.out_dir {
            let mut w = CsvWriter::new(
                dir.join(format!(
                    "fig9_{}_ttl_cdf.csv",
                    rtype.to_string().to_lowercase()
                )),
                &["list", "ttl_s", "cdf"],
            );
            for (k, e) in &ecdfs {
                for (x, y) in e.points() {
                    w.row(&[k.name().into(), format!("{x}"), format!("{y}")]);
                }
            }
            write_csv(w);
        }
    }
    // Shape metrics.
    let root_ns = crawler::ttl_ecdf(&populations[4].1, RecordType::NS);
    let umb_ns = crawler::ttl_ecdf(&populations[2].1, RecordType::NS);
    let alexa_ns = crawler::ttl_ecdf(&populations[0].1, RecordType::NS);
    let alexa_a = crawler::ttl_ecdf(&populations[0].1, RecordType::A);
    fig9.metric("root_ns_day_or_more", 1.0 - root_ns.fraction_leq(86_399.0));
    fig9.metric("umbrella_ns_under_minute", umb_ns.fraction_leq(60.0));
    fig9.metric("alexa_ns_median", alexa_ns.median());
    fig9.metric("alexa_a_median", alexa_a.median());
    reports.push(fig9);

    // ----- Table 6 -----
    let nl_domains = &populations[3].1;
    let mut table6 = Report::new("table6", ".nl classified domains by DMap category");
    let mut t = Table::new(vec!["Category", "count", "share"]);
    let classified: Vec<&CrawledDomain> =
        nl_domains.iter().filter(|d| d.category.is_some()).collect();
    for cat in ContentCategory::ALL {
        let n = classified
            .iter()
            .filter(|d| d.category == Some(cat))
            .count();
        t.row(vec![
            cat.label().to_owned(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / classified.len().max(1) as f64),
        ]);
        table6.metric(&format!("count_{}", cat.label()), n as f64);
    }
    t.row(vec![
        "Total".into(),
        classified.len().to_string(),
        "100%".into(),
    ]);
    table6.push(t.render());
    reports.push(table6);

    // ----- Table 7 -----
    let mut table7 = Report::new(
        "table7",
        "Median TTL values (hours) for .nl domains by category",
    );
    let mut t = Table::new(vec!["", "Ecommerce", "Parking", "Placeholder"]);
    for rtype in [
        RecordType::NS,
        RecordType::A,
        RecordType::AAAA,
        RecordType::MX,
        RecordType::DNSKEY,
    ] {
        let cell = |cat| {
            crawler::median_ttl_hours(nl_domains, rtype, cat)
                .map(|h| format!("{h:.1}"))
                .unwrap_or_else(|| "–".into())
        };
        t.row(vec![
            rtype.to_string(),
            cell(ContentCategory::Ecommerce),
            cell(ContentCategory::Parking),
            cell(ContentCategory::Placeholder),
        ]);
    }
    table7.push(t.render());
    table7.metric(
        "parking_ns_hours",
        crawler::median_ttl_hours(nl_domains, RecordType::NS, ContentCategory::Parking)
            .unwrap_or(0.0),
    );
    table7.metric(
        "ecommerce_ns_hours",
        crawler::median_ttl_hours(nl_domains, RecordType::NS, ContentCategory::Ecommerce)
            .unwrap_or(0.0),
    );
    reports.push(table7);

    // ----- Table 8 -----
    let mut table8 = Report::new("table8", "Domains with TTL=0 s, per record type");
    let mut t = Table::new(headers.clone());
    for rtype in CRAWLED_TYPES {
        t.row(
            std::iter::once(rtype.to_string())
                .chain(summaries.iter().map(|s| {
                    s.per_type
                        .iter()
                        .find(|p| p.rtype == rtype)
                        .map(|p| p.ttl_zero_domains.to_string())
                        .unwrap_or_default()
                }))
                .collect(),
        );
    }
    table8.push(t.render());
    table8.push("TTL 0 disables caching entirely; the paper recommends against it (§5.1.2).");
    let total_zero: usize = summaries
        .iter()
        .flat_map(|s| s.per_type.iter())
        .map(|p| p.ttl_zero_domains)
        .sum();
    let total_domains: usize = summaries.iter().map(|s| s.domains).sum();
    table8.metric("total_ttl_zero", total_zero as f64);
    table8.metric(
        "ttl_zero_fraction",
        total_zero as f64 / total_domains.max(1) as f64,
    );
    reports.push(table8);

    // ----- Table 9 -----
    let mut table9 = Report::new("table9", "Bailiwick distribution in the wild");
    let mut t = Table::new(headers);
    type Cell = Box<dyn Fn(&dnsttl_crawl::CrawlSummary) -> String>;
    let rows: [(&str, Cell); 7] = [
        ("responsive", Box::new(|s| s.responsive.to_string())),
        ("CNAME", Box::new(|s| s.cname_on_ns.to_string())),
        ("SOA", Box::new(|s| s.soa_on_ns.to_string())),
        ("respond NS", Box::new(|s| s.responds_ns.to_string())),
        ("Out only", Box::new(|s| s.out_only.to_string())),
        (
            "percent out",
            Box::new(|s| {
                format!(
                    "{:.1}",
                    100.0 * s.out_only as f64 / s.responds_ns.max(1) as f64
                )
            }),
        ),
        (
            "In only / Mixed",
            Box::new(|s| format!("{} / {}", s.in_only, s.mixed)),
        ),
    ];
    for (label, f) in &rows {
        t.row(
            std::iter::once(label.to_string())
                .chain(summaries.iter().map(f))
                .collect(),
        );
    }
    table9.push(t.render());
    let alexa_out = summaries[0].out_only as f64 / summaries[0].responds_ns.max(1) as f64;
    let root_out = summaries[4].out_only as f64 / summaries[4].responds_ns.max(1) as f64;
    table9.metric("alexa_percent_out", alexa_out);
    table9.metric("root_percent_out", root_out);
    reports.push(table9);

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_tables_match_paper_shapes() {
        let reports = run(&ExpConfig::quick());
        let by_id = |id: &str| reports.iter().find(|r| r.id == id).unwrap();

        let table5 = by_id("table5");
        assert!(table5.get("alexa_responsive_ratio") > 0.97);
        assert!(table5.get("nl_ns_ratio") > table5.get("alexa_ns_ratio"));

        let fig9 = by_id("fig9");
        assert!(fig9.get("root_ns_day_or_more") > 0.7);
        assert!(fig9.get("umbrella_ns_under_minute") > 0.15);
        assert!(fig9.get("alexa_a_median") <= fig9.get("alexa_ns_median"));

        let table7 = by_id("table7");
        assert!(table7.get("parking_ns_hours") >= 24.0);
        assert!(table7.get("ecommerce_ns_hours") <= 8.0);

        let table8 = by_id("table8");
        assert!(table8.get("total_ttl_zero") > 0.0);
        assert!(table8.get("ttl_zero_fraction") < 0.05);

        let table9 = by_id("table9");
        assert!(table9.get("alexa_percent_out") > 0.9);
        assert!((0.35..0.65).contains(&table9.get("root_percent_out")));
    }
}
