//! §4: the renumbering experiments — Figure 5 (setup), Figures 6–8
//! (time series and matched-VP behaviour), Tables 3–4 (accounting and
//! sticky classification).
//!
//! Both configurations renumber the sub-zone's name server nine minutes
//! into a four-hour campaign of per-probe AAAA queries and watch which
//! answers (old VM vs new VM) each vantage point receives:
//!
//! * **in-bailiwick** (Figure 6): the server's address is glue in the
//!   parent; when the NS RRset expires at 60 min, re-fetched referrals
//!   carry the new glue, so the still-valid 7200 s A record dies with
//!   its NS — most VPs switch at the one-hour mark;
//! * **out-of-bailiwick** (Figure 7): the address was fetched from the
//!   host's own zone and is trusted for its full 7200 s — VPs keep the
//!   old server until the two-hour mark, and parent-centric resolvers
//!   (OpenDNS-style, trusting `.com`'s 2-day glue) hang on far longer,
//!   forming Table 4's sticky population.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::worlds::{self, CachetestWorld};
use dnsttl_analysis::{ascii_cdf_multi, CsvWriter, Ecdf, Table, TimeSeries};
use dnsttl_atlas::{
    run_measurement_with_hooks, Dataset, Hook, MeasurementSpec, Population, PopulationConfig,
    QueryName,
};
use dnsttl_netsim::{SimRng, SimTime};
use dnsttl_telemetry::EventKind;
use dnsttl_wire::{Name, RecordType};
use std::sync::{Arc, LazyLock};

/// When the renumbering happens (the paper's t = 9 min).
const RENUMBER_AT: SimTime = SimTime::from_secs(9 * 60);
/// Campaign length (4 h).
const HOURS: u64 = 4;

struct RunOutput {
    dataset: Dataset,
    vps: usize,
    probes: usize,
    resolvers: usize,
    timeouts: u64,
}

fn run_config(cfg: &ExpConfig, out_of_bailiwick: bool) -> RunOutput {
    let CachetestWorld {
        mut net,
        roots,
        parent,
        com,
        ..
    } = worlds::cachetest_world(out_of_bailiwick);
    net.set_telemetry(cfg.telemetry.clone());

    // The same population seed for both configurations, so Figure 8
    // can match VPs across them (the paper compares the same probes).
    let mut pop_rng = SimRng::seed_from(cfg.seed_for("bailiwick-pop"));
    let mut pop = Population::build(&PopulationConfig::small(cfg.probes), &roots, &mut pop_rng);
    pop.set_telemetry(&cfg.telemetry);
    let mut rng = SimRng::seed_from(cfg.seed_for(if out_of_bailiwick {
        "bailiwick-out"
    } else {
        "bailiwick-in"
    }));

    let spec = MeasurementSpec::every_600s(
        QueryName::PerProbe {
            suffix: Name::parse("sub.cachetest.net").expect("static name"),
        },
        RecordType::AAAA,
        HOURS,
    );

    let telemetry = cfg.telemetry.clone();
    let (zone, host, bailiwick) = if out_of_bailiwick {
        ("com", "ns1.zurrundedu.com", "out")
    } else {
        ("cachetest.net", "ns1.sub.cachetest.net", "in")
    };
    let renumber = Box::new(move |_: &mut dnsttl_netsim::Network| {
        worlds::renumber(&parent, com.as_deref());
        telemetry.count("experiment_renumbers", 1);
        telemetry.event(RENUMBER_AT.as_millis(), EventKind::Renumber, |f| {
            f.push("zone", zone);
            f.push("host", host);
            f.push("new_addr", worlds::addrs::SUB_NEW.to_string());
            f.push("bailiwick", bailiwick);
        });
    });

    let dataset = run_measurement_with_hooks(
        &spec,
        &mut pop,
        &mut net,
        &mut rng,
        vec![Hook {
            at: RENUMBER_AT,
            action: renumber,
        }],
    );
    let timeouts: u64 = pop.resolvers.iter().map(|r| r.stats().timeouts).sum();
    crate::flightdeck::record_latency_quantiles(
        &cfg.telemetry,
        if out_of_bailiwick {
            "bailiwick-out"
        } else {
            "bailiwick-in"
        },
        &dataset,
    );
    RunOutput {
        vps: pop.vp_count(),
        probes: pop.probe_count(),
        resolvers: dataset.distinct_resolvers(),
        dataset,
        timeouts,
    }
}

fn is_new(answers: &[Arc<str>]) -> bool {
    static MARKER: LazyLock<String> = LazyLock::new(|| worlds::NEW_MARKER.to_string());
    answers.iter().any(|a| **a == **MARKER)
}

fn is_old(answers: &[Arc<str>]) -> bool {
    static MARKER: LazyLock<String> = LazyLock::new(|| worlds::OLD_MARKER.to_string());
    answers.iter().any(|a| **a == **MARKER)
}

/// Fraction of valid answers in `[from, to)` minutes that came from the
/// new server.
fn new_fraction(ds: &Dataset, from_min: u64, to_min: u64) -> f64 {
    let (mut new, mut total) = (0usize, 0usize);
    for r in ds.valid() {
        let min = r.at.as_secs() / 60;
        if min >= from_min && min < to_min {
            total += 1;
            new += is_new(&r.answers) as usize;
        }
    }
    if total == 0 {
        0.0
    } else {
        new as f64 / total as f64
    }
}

/// Sticky VPs: answered in the first round and *never* returned a
/// new-server answer, all the way past both TTL horizons (the paper's
/// "always contact the same authoritative name server, even when TTLs
/// expire").
fn sticky_vps(ds: &Dataset) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (vp, results) in ds.by_vp() {
        let mut valid = results.iter().filter(|r| r.valid);
        let Some(first) = valid.next() else { continue };
        if first.at.as_secs() >= 600 {
            continue; // did not answer in the first round
        }
        let saw_new = results.iter().any(|r| r.valid && is_new(&r.answers));
        let answered_late = results
            .iter()
            .any(|r| r.valid && r.at.as_secs() >= (HOURS * 3_600).saturating_sub(1_800));
        if !saw_new && answered_late {
            out.push(vp);
        }
    }
    out
}

fn timeseries(ds: &Dataset) -> TimeSeries {
    let mut ts = TimeSeries::new(600);
    for r in ds.valid() {
        if is_new(&r.answers) {
            ts.record(r.at.as_secs(), "new");
        } else if is_old(&r.answers) {
            ts.record(r.at.as_secs(), "old");
        }
    }
    ts
}

fn dump_timeseries(report: &mut Report, cfg: &ExpConfig, file: &str, ts: &TimeSeries) {
    report.write(cfg, file, || {
        let mut w = CsvWriter::new(&["t_s", "old", "new"]);
        let old = ts.series("old");
        let new = ts.series("new");
        for (i, (t, o)) in old.iter().enumerate() {
            let n = new.get(i).map(|(_, n)| *n).unwrap_or(0);
            w.row_display(&[*t, *o, n]);
        }
        w.finish()
    });
}

/// Runs both configurations; returns fig5, fig6, fig7, fig8, table3,
/// table4.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let input = run_config(cfg, false);
    let output = run_config(cfg, true);

    let mut reports = Vec::new();

    // ----- Figure 5: the experiment setup -----
    let mut fig5 = Report::new("fig5", "TTLs and domains for the bailiwick experiments");
    fig5.push(
        r#"
.                 (root)
└── net                         NS a.gtld-servers.net     172800s
    └── cachetest.net           NS ns1.cachetest.net      172800s (glue 172800s)
        │                        child zone TTLs: 3600s
        └── sub.cachetest.net
            in-bailiwick:       NS ns1.sub.cachetest.net  3600s
                                 glue A                   7200s   (renumbered at t=9min)
            out-of-bailiwick:   NS ns1.zurrundedu.com     3600s   (no glue here;
                                 A from zurrundedu.com    7200s    .com glue 172800s)
            AAAA PROBEID.sub.cachetest.net                60s
"#,
    );
    fig5.metric("renumber_at_s", RENUMBER_AT.as_secs() as f64);
    reports.push(fig5);

    // ----- Figure 6: in-bailiwick time series -----
    let ts_in = timeseries(&input.dataset);
    let mut fig6 = Report::new("fig6", "Timeseries of answers, in-bailiwick renumbering");
    fig6.push(ts_in.render());
    let in_before = new_fraction(&input.dataset, 0, 9);
    let in_mid = new_fraction(&input.dataset, 15, 59);
    let in_after_ns = new_fraction(&input.dataset, 65, 119);
    let in_after_all = new_fraction(&input.dataset, 125, 240);
    fig6.push(format!(
        "new-server share: t<9min {:.1}%  9-60min {:.1}%  60-120min {:.1}%  >120min {:.1}%",
        in_before * 100.0,
        in_mid * 100.0,
        in_after_ns * 100.0,
        in_after_all * 100.0
    ));
    fig6.push("paper: ~90% of first-round resolvers switch at the 1-hour NS expiry.");
    fig6.metric("new_before_renumber", in_before);
    fig6.metric("new_9_60", in_mid);
    fig6.metric("new_60_120", in_after_ns);
    fig6.metric("new_after_120", in_after_all);
    dump_timeseries(&mut fig6, cfg, "fig6_inbailiwick_timeseries.csv", &ts_in);
    reports.push(fig6);

    // ----- Figure 7: out-of-bailiwick time series -----
    let ts_out = timeseries(&output.dataset);
    let mut fig7 = Report::new(
        "fig7",
        "Timeseries of answers, out-of-bailiwick renumbering",
    );
    fig7.push(ts_out.render());
    let out_mid = new_fraction(&output.dataset, 15, 59);
    let out_after_ns = new_fraction(&output.dataset, 65, 119);
    let out_after_all = new_fraction(&output.dataset, 125, 240);
    fig7.push(format!(
        "new-server share: 9-60min {:.1}%  60-120min {:.1}%  >120min {:.1}%",
        out_mid * 100.0,
        out_after_ns * 100.0,
        out_after_all * 100.0
    ));
    fig7.push(
        "paper: cached A records are trusted to their full 7200 s; the switch happens at 2 h.",
    );
    fig7.metric("new_9_60", out_mid);
    fig7.metric("new_60_120", out_after_ns);
    fig7.metric("new_after_120", out_after_all);
    dump_timeseries(&mut fig7, cfg, "fig7_outbailiwick_timeseries.csv", &ts_out);
    reports.push(fig7);

    // ----- Figure 8 + Table 4: sticky VPs and matched behaviour -----
    let sticky_in = sticky_vps(&input.dataset);
    let sticky_out = sticky_vps(&output.dataset);

    let in_by_vp = input.dataset.by_vp();
    let mut ratios = Vec::new();
    for vp in &sticky_out {
        if let Some(results) = in_by_vp.get(vp) {
            let valid: Vec<_> = results.iter().filter(|r| r.valid).collect();
            // Only results after the renumber can possibly be "new".
            let late: Vec<_> = valid
                .iter()
                .filter(|r| r.at.as_secs() > RENUMBER_AT.as_secs())
                .collect();
            if late.is_empty() {
                continue;
            }
            let new = late.iter().filter(|r| is_new(&r.answers)).count();
            ratios.push(new as f64 / late.len() as f64);
        }
    }
    let mut fig8 = Report::new(
        "fig8",
        "Responses from the new server, in-bailiwick, for VPs sticky out-of-bailiwick",
    );
    let ratio_ecdf = Ecdf::new(ratios.clone());
    if !ratio_ecdf.is_empty() {
        fig8.push(ascii_cdf_multi(
            &[("new-server ratio", &ratio_ecdf)],
            64,
            10,
        ));
        fig8.push(format!(
            "matched VPs: {}  median ratio {:.2}",
            ratios.len(),
            ratio_ecdf.median()
        ));
    }
    fig8.push("paper: VPs sticky out-of-bailiwick mostly behave normally in-bailiwick.");
    fig8.metric("matched_vps", ratios.len() as f64);
    fig8.metric(
        "median_new_ratio",
        if ratio_ecdf.is_empty() {
            0.0
        } else {
            ratio_ecdf.median()
        },
    );
    reports.push(fig8);

    // ----- Table 3 -----
    let mut table3 = Report::new("table3", "Bailiwick experiment accounting");
    let mut t = Table::new(vec!["", "in-bailiwick", "out-of-bailiwick"]);
    type Cell = Box<dyn Fn(&RunOutput) -> String>;
    let pairs: [(&str, Cell); 8] = [
        ("Frequency", Box::new(|_| "600 s".into())),
        ("Duration", Box::new(|_| format!("{HOURS}h"))),
        ("Probes", Box::new(|r| r.probes.to_string())),
        ("VPs", Box::new(|r| r.vps.to_string())),
        ("Queries", Box::new(|r| r.dataset.len().to_string())),
        ("Queries (timeout)", Box::new(|r| r.timeouts.to_string())),
        (
            "Responses (val.)",
            Box::new(|r| r.dataset.valid_count().to_string()),
        ),
        (
            "Resolvers (backends)",
            Box::new(|r| r.resolvers.to_string()),
        ),
    ];
    for (label, f) in &pairs {
        t.row(vec![label.to_string(), f(&input), f(&output)]);
    }
    table3.push(t.render());
    table3.metric("in_queries", input.dataset.len() as f64);
    table3.metric("out_queries", output.dataset.len() as f64);
    table3.metric("in_valid", input.dataset.valid_count() as f64);
    reports.push(table3);

    let mut table4 = Report::new("table4", "Sticky resolver classification");
    let mut t = Table::new(vec!["", "in-bailiwick", "out-of-bailiwick"]);
    t.row(vec![
        "Sticky VPs".into(),
        sticky_in.len().to_string(),
        sticky_out.len().to_string(),
    ]);
    t.row(vec![
        "VPs total".into(),
        input.vps.to_string(),
        output.vps.to_string(),
    ]);
    table4.push(t.render());
    table4.push("paper: 196 sticky VPs in-bailiwick vs 1642 out-of-bailiwick — the out-of-\nbailiwick configuration manufactures stickiness via parent-centric glue trust.");
    table4.metric("sticky_in", sticky_in.len() as f64);
    table4.metric("sticky_out", sticky_out.len() as f64);
    reports.push(table4);

    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bailiwick_contrast_reproduces() {
        let reports = run(&ExpConfig::quick());
        let by_id = |id: &str| reports.iter().find(|r| r.id == id).unwrap();

        let fig6 = by_id("fig6");
        // Nobody sees the new server before the renumbering.
        assert_eq!(fig6.get("new_before_renumber"), 0.0);
        // In-bailiwick: the NS expiry at 1 h drags the A record with it.
        assert!(fig6.get("new_60_120") > 0.6, "{}", fig6.get("new_60_120"));
        assert!(
            fig6.get("new_after_120") > 0.8,
            "{}",
            fig6.get("new_after_120")
        );

        let fig7 = by_id("fig7");
        // Out-of-bailiwick: the cached address survives the NS expiry…
        assert!(
            fig7.get("new_60_120") < fig6.get("new_60_120") - 0.25,
            "out {} vs in {}",
            fig7.get("new_60_120"),
            fig6.get("new_60_120")
        );
        // …and most (but not all — sticky parent-centric resolvers
        // remain) switch after the 2-hour address expiry.
        assert!(fig7.get("new_after_120") > 0.5);

        let table4 = by_id("table4");
        // The paper's Table 4: far more sticky VPs out-of-bailiwick.
        assert!(
            table4.get("sticky_out") > table4.get("sticky_in"),
            "sticky in={} out={}",
            table4.get("sticky_in"),
            table4.get("sticky_out")
        );

        let fig8 = by_id("fig8");
        // Sticky-out VPs behave normally in-bailiwick.
        if fig8.get("matched_vps") > 3.0 {
            assert!(
                fig8.get("median_new_ratio") > 0.5,
                "{}",
                fig8.get("median_new_ratio")
            );
        }
    }
}
