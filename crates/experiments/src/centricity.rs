//! Figures 1–2 and Table 2: resolver centricity seen from Atlas VPs.
//!
//! * **Figure 1** — CDFs of observed TTLs for `.uy` NS (child 300 s vs
//!   parent 172 800 s) and `a.nic.uy` A (child 120 s): most responses
//!   sit at or below the child's TTL (child-centric majority), with a
//!   parent-centric minority up at day-plus values.
//! * **Figure 2** — `google.co` NS (parent 900 s vs child 345 600 s):
//!   most answers exceed the parent's 900 s; a visible band sits at
//!   Google Public DNS's 21 599 s cap; a small group at exactly the
//!   parent value.
//! * **Table 2** — the per-experiment probe/VP/query accounting.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::sharded::{self, WorldSpec};
use dnsttl_analysis::{ascii_cdf_log, BehaviorCensus, CsvWriter, Ecdf, Table};
use dnsttl_atlas::{Dataset, MeasurementSpec, QueryName};
use dnsttl_wire::{Name, RecordType};

struct Campaign {
    dataset: Dataset,
    vps: usize,
    probes: usize,
}

fn campaign(
    cfg: &ExpConfig,
    tag: &str,
    world: WorldSpec,
    qname: &str,
    qtype: RecordType,
    hours: u64,
) -> Campaign {
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse(qname).expect("static name")),
        qtype,
        hours,
    );
    let out = sharded::measurement_campaign(cfg, tag, world, &spec);
    Campaign {
        dataset: out.dataset,
        vps: out.vps,
        probes: out.probes,
    }
}

/// Runs the centricity experiments; returns reports for fig1, fig2 and
/// table2.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    // Figure 1 inputs: .uy before the change (§3.2 values).
    let uy_before = WorldSpec::Uy {
        ns_ttl: dnsttl_wire::Ttl::from_secs(300),
        a_ttl: dnsttl_wire::Ttl::from_secs(120),
    };
    let uy_ns = campaign(cfg, "fig1-ns", uy_before, "uy", RecordType::NS, 2);
    let uy_a = campaign(cfg, "fig1-a", uy_before, "a.nic.uy", RecordType::A, 3);
    // Figure 2 input: google.co.
    let gco = campaign(
        cfg,
        "fig2",
        WorldSpec::GoogleCo,
        "google.co",
        RecordType::NS,
        1,
    );

    let mut reports = Vec::new();

    // ----- Figure 1 -----
    let mut fig1 = Report::new("fig1", "TTLs from VPs for .uy-NS and a.nic.uy-A queries");
    let ns_ttls = Ecdf::from_u64(uy_ns.dataset.ttls());
    let a_ttls = Ecdf::from_u64(uy_a.dataset.ttls());
    fig1.push(ascii_cdf_log(
        &[(".uy NS", &ns_ttls), ("a.nic.uy A", &a_ttls)],
        64,
        12,
    ));
    fig1.push(format!(".uy NS observed TTLs: {}", ns_ttls.summary()));
    fig1.push(format!("a.nic.uy A observed TTLs: {}", a_ttls.summary()));
    let ns_child = ns_ttls.fraction_leq(300.0);
    let a_child = a_ttls.fraction_leq(120.0);
    let ns_full_parent = 1.0 - ns_ttls.fraction_leq(172_799.0);
    fig1.push(format!(
        "child-centric share: NS≤300s {:.1}%  A≤120s {:.1}%  (paper: 90% / 88%)",
        ns_child * 100.0,
        a_child * 100.0
    ));
    fig1.metric("frac_ns_child", ns_child);
    fig1.metric("frac_a_child", a_child);
    fig1.metric("frac_ns_full_parent", ns_full_parent);

    // Per-VP behaviour census (the paper's manual attribution of CDF
    // regions to resolver behaviours, automated).
    let mut series: Vec<Vec<u64>> = Vec::new();
    for (_vp, results) in uy_ns.dataset.by_vp() {
        series.push(
            results
                .iter()
                .filter(|r| r.valid)
                .filter_map(|r| r.ttl)
                .collect(),
        );
    }
    let census = BehaviorCensus::take(series.iter().map(|v| v.as_slice()), 300, 172_800);
    let mut t = Table::new(vec!["behaviour", "VPs", "share"]);
    let classified = (census.total() - census.unknown).max(1);
    let mut census_row = |label: &str, n: usize| {
        t.row(vec![
            label.into(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / classified as f64),
        ]);
    };
    census_row("child-centric", census.child_centric);
    census_row("parent-centric (aging)", census.parent_centric);
    census_row("pinned full TTL (RFC 7706 mirror)", census.pinned);
    census_row("TTL-capped", census.capped.len());
    census_row("mixed (fragmented backends)", census.mixed);
    fig1.push("per-VP behaviour census (.uy NS):");
    fig1.push(t.render());
    fig1.metric("census_child_fraction", census.child_fraction());
    fig1.metric("census_pinned", census.pinned as f64);
    fig1.metric("census_mixed", census.mixed as f64);
    fig1.write(cfg, "fig1_uy_ttl_cdf.csv", || {
        let mut w = CsvWriter::new(&["series", "ttl_s", "cdf"]);
        for (series, e) in [("uy-ns", &ns_ttls), ("a.nic.uy-a", &a_ttls)] {
            for (x, y) in e.points() {
                w.row(&[series.into(), format!("{x}"), format!("{y}")]);
            }
        }
        w.finish()
    });
    reports.push(fig1);

    // ----- Figure 2 -----
    let mut fig2 = Report::new("fig2", "TTLs from VPs for google.co-NS queries");
    let g_ttls = Ecdf::from_u64(gco.dataset.ttls());
    fig2.push(ascii_cdf_log(&[("google.co NS", &g_ttls)], 64, 12));
    fig2.push(format!("google.co NS observed TTLs: {}", g_ttls.summary()));
    let above_parent = 1.0 - g_ttls.fraction_leq(900.0);
    // The cap band: 21 599 s minus up to one experiment-hour of aging.
    let at_cap = g_ttls.fraction_leq(21_599.0) - g_ttls.fraction_leq(17_998.0);
    let at_parent = g_ttls.fraction_leq(900.0) - g_ttls.fraction_leq(899.0);
    fig2.push(format!(
        "above parent 900s: {:.1}% (paper ~70%+15%)  capped band @21599s: {:.1}% (paper ~15%)  exactly 900s: {:.1}% (paper ~9%)",
        above_parent * 100.0,
        at_cap * 100.0,
        at_parent * 100.0
    ));
    fig2.metric("frac_above_parent", above_parent);
    fig2.metric("frac_cap_band", at_cap);
    fig2.metric("frac_at_parent", at_parent);
    fig2.write(cfg, "fig2_googleco_ttl_cdf.csv", || {
        let mut w = CsvWriter::new(&["ttl_s", "cdf"]);
        for (x, y) in g_ttls.points() {
            w.row_display(&[x, y]);
        }
        w.finish()
    });
    reports.push(fig2);

    // ----- Table 2 -----
    let mut table2 = Report::new("table2", "Resolver centricity experiments");
    let mut t = Table::new(vec!["", ".uy-NS", "a.nic.uy-A", "google.co-NS"]);
    let row = |label: &str, f: &dyn Fn(&Campaign) -> String, cs: &[&Campaign]| -> Vec<String> {
        let mut cells = vec![label.to_owned()];
        cells.extend(cs.iter().map(|c| f(c)));
        cells
    };
    let campaigns = [&uy_ns, &uy_a, &gco];
    t.row(row("TTL Parent", &|_| "172800 / 900".into(), &[]));
    t.row(row("Probes", &|c| c.probes.to_string(), &campaigns));
    t.row(row("VPs", &|c| c.vps.to_string(), &campaigns));
    t.row(row("Queries", &|c| c.dataset.len().to_string(), &campaigns));
    t.row(row(
        "Responses (valid)",
        &|c| c.dataset.valid_count().to_string(),
        &campaigns,
    ));
    t.row(row(
        "Responses (disc.)",
        &|c| c.dataset.discarded_count().to_string(),
        &campaigns,
    ));
    table2.push(t.render());
    table2.metric("uy_ns_queries", uy_ns.dataset.len() as f64);
    table2.metric("uy_ns_valid", uy_ns.dataset.valid_count() as f64);
    table2.metric("uy_ns_vps", uy_ns.vps as f64);
    table2.metric(
        "discard_fraction",
        uy_ns.dataset.discarded_count() as f64 / uy_ns.dataset.len().max(1) as f64,
    );
    reports.push(table2);

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centricity_shapes_match_paper() {
        let reports = run(&ExpConfig::quick());
        let fig1 = &reports[0];
        // Paper: 90% of .uy-NS ≤ 300 s, 88% of a.nic.uy-A ≤ 120 s.
        assert!(
            fig1.get("frac_ns_child") > 0.75,
            "{}",
            fig1.get("frac_ns_child")
        );
        assert!(
            fig1.get("frac_a_child") > 0.75,
            "{}",
            fig1.get("frac_a_child")
        );
        // A parent-centric minority exists but is a minority.
        assert!(fig1.get("frac_ns_child") < 0.99);
        // ~2.9% show the full parent TTL (local-root mirrors).
        assert!(fig1.get("frac_ns_full_parent") > 0.0);
        assert!(fig1.get("frac_ns_full_parent") < 0.2);

        let fig2 = &reports[1];
        // Paper: ~85% above the parent's 900 s (70% child + 15% capped).
        assert!(fig2.get("frac_above_parent") > 0.7);
        // The 21599 s capping band exists.
        assert!(fig2.get("frac_cap_band") > 0.02);
        // Some answers sit exactly at the parent's 900 s.
        assert!(fig2.get("frac_at_parent") > 0.0);

        let table2 = &reports[2];
        assert!(table2.get("uy_ns_queries") > 0.0);
        assert!(table2.get("discard_fraction") < 0.2);
    }
}
