//! §5.1: TTLs in the wild — Table 5, Figure 9, Tables 6–9.

use crate::config::ExpConfig;
use crate::report::Report;
use dnsttl_analysis::{ascii_cdf_log, CsvWriter, Ecdf, Table};
use dnsttl_crawl::{crawler::CRAWLED_TYPES, ContentCategory, CrawlSummary, ListKind, ListSpec};
use dnsttl_netsim::SimRng;
use dnsttl_wire::RecordType;

/// The types whose TTLs Figure 9 and Table 7 chart: all but CNAME.
const TTL_TYPES: [RecordType; 5] = [
    RecordType::NS,
    RecordType::A,
    RecordType::AAAA,
    RecordType::MX,
    RecordType::DNSKEY,
];

/// Crawls every list in turn, folding each domain into its list's
/// summary as it is generated.
fn crawl_all(cfg: &ExpConfig) -> Vec<CrawlSummary> {
    ListKind::ALL
        .iter()
        .map(|&kind| {
            let mut rng = SimRng::seed_from(cfg.seed_for(&format!("crawl-{}", kind.name())));
            let mut summary = CrawlSummary::new(kind);
            ListSpec::scaled(kind, cfg.crawl_scale).for_each(&mut rng, |d| summary.add(d));
            summary.finish()
        })
        .collect()
}

/// Runs the crawl experiments; returns table5, fig9, table6, table7,
/// table8, table9.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let summaries = crawl_all(cfg);

    let mut reports = Vec::new();
    let headers: Vec<&str> = std::iter::once("")
        .chain(ListKind::ALL.iter().map(|k| k.name()))
        .collect();
    // A row of a per-list table: `label`, then `cell` of each list.
    let row = |label: &str, cell: &dyn Fn(&CrawlSummary) -> String| -> Vec<String> {
        std::iter::once(label.to_owned())
            .chain(summaries.iter().map(cell))
            .collect()
    };

    // ----- Table 5 -----
    let mut table5 = Report::new(
        "table5",
        "Datasets and RR counts (child authoritative) — scaled",
    );
    let mut t = Table::new(headers.clone());
    t.row(row("format", &|s| s.kind.format().to_owned()));
    t.row(row("domains", &|s| s.domains.to_string()));
    t.row(row("responsive", &|s| s.responsive.to_string()));
    t.row(row("ratio", &|s| {
        format!("{:.2}", s.responsive as f64 / s.domains.max(1) as f64)
    }));
    for (i, rtype) in CRAWLED_TYPES.iter().enumerate() {
        t.row(row(&rtype.to_string(), &|s| {
            s.per_type[i].total.to_string()
        }));
        t.row(row("  unique", &|s| s.per_type[i].unique.to_string()));
        t.row(row("  ratio", &|s| format!("{:.2}", s.per_type[i].ratio())));
    }
    table5.push(t.render());
    let alexa = &summaries[0];
    let nl = &summaries[3];
    // `per_type[0]` is NS, the first of `CRAWLED_TYPES`.
    table5.metric(
        "alexa_responsive_ratio",
        alexa.responsive as f64 / alexa.domains as f64,
    );
    table5.metric("alexa_ns_ratio", alexa.per_type[0].ratio());
    table5.metric("nl_ns_ratio", nl.per_type[0].ratio());
    reports.push(table5);

    // ----- Figure 9 -----
    let mut fig9 = Report::new("fig9", "CDF of TTLs per record type, for each list");
    for rtype in TTL_TYPES {
        let ecdfs: Vec<(ListKind, Ecdf)> = summaries
            .iter()
            .map(|s| (s.kind, s.ttl_ecdf(rtype)))
            .filter(|(_, e)| !e.is_empty())
            .collect();
        let series: Vec<(&str, &Ecdf)> = ecdfs.iter().map(|(k, e)| (k.name(), e)).collect();
        fig9.push(format!("--- {rtype} ---"));
        fig9.push(ascii_cdf_log(&series, 64, 10));
        for (k, e) in &ecdfs {
            fig9.push(format!("  {:<9} {}", k.name(), e.summary()));
        }
        let file = format!("fig9_{}_ttl_cdf.csv", rtype.to_string().to_lowercase());
        fig9.write(cfg, &file, || {
            let mut w = CsvWriter::new(&["list", "ttl_s", "cdf"]);
            for (k, e) in &ecdfs {
                for (x, y) in e.points() {
                    w.row(&[k.name().into(), format!("{x}"), format!("{y}")]);
                }
            }
            w.finish()
        });
    }
    // Shape metrics.
    let root_ns = summaries[4].ttl_ecdf(RecordType::NS);
    let umb_ns = summaries[2].ttl_ecdf(RecordType::NS);
    let alexa_ns = alexa.ttl_ecdf(RecordType::NS);
    let alexa_a = alexa.ttl_ecdf(RecordType::A);
    fig9.metric("root_ns_day_or_more", 1.0 - root_ns.fraction_leq(86_399.0));
    fig9.metric("umbrella_ns_under_minute", umb_ns.fraction_leq(60.0));
    fig9.metric("alexa_ns_median", alexa_ns.median());
    fig9.metric("alexa_a_median", alexa_a.median());
    reports.push(fig9);

    // ----- Table 6 -----
    let mut table6 = Report::new("table6", ".nl classified domains by DMap category");
    let mut t = Table::new(vec!["Category", "count", "share"]);
    let classified: usize = nl.categories.iter().sum();
    for (cat, &n) in ContentCategory::ALL.iter().zip(&nl.categories) {
        t.row(vec![
            cat.label().to_owned(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / classified.max(1) as f64),
        ]);
        table6.metric(&format!("count_{}", cat.label()), n as f64);
    }
    t.row(vec!["Total".into(), classified.to_string(), "100%".into()]);
    table6.push(t.render());
    reports.push(table6);

    // ----- Table 7 -----
    let mut table7 = Report::new(
        "table7",
        "Median TTL values (hours) for .nl domains by category",
    );
    let mut t = Table::new(vec!["", "Ecommerce", "Parking", "Placeholder"]);
    for rtype in TTL_TYPES {
        let cell = |cat| {
            nl.median_ttl_hours(rtype, cat)
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
        nl.median_ttl_hours(RecordType::NS, ContentCategory::Parking)
            .unwrap_or(0.0),
    );
    table7.metric(
        "ecommerce_ns_hours",
        nl.median_ttl_hours(RecordType::NS, ContentCategory::Ecommerce)
            .unwrap_or(0.0),
    );
    reports.push(table7);

    // ----- Table 8 -----
    let mut table8 = Report::new("table8", "Domains with TTL=0 s, per record type");
    let mut t = Table::new(headers.clone());
    for (i, rtype) in CRAWLED_TYPES.iter().enumerate() {
        t.row(row(&rtype.to_string(), &|s| {
            s.per_type[i].ttl_zero_domains.to_string()
        }));
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
    t.row(row("responsive", &|s| s.responsive.to_string()));
    t.row(row("CNAME", &|s| s.cname_on_ns.to_string()));
    t.row(row("SOA", &|s| s.soa_on_ns.to_string()));
    t.row(row("respond NS", &|s| s.responds_ns.to_string()));
    t.row(row("Out only", &|s| s.out_only.to_string()));
    t.row(row("percent out", &|s| {
        let out = 100.0 * s.out_only as f64 / s.responds_ns.max(1) as f64;
        format!("{out:.1}")
    }));
    t.row(row("In only / Mixed", &|s| {
        format!("{} / {}", s.in_only, s.mixed)
    }));
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
