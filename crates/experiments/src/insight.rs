//! Cache forensics: rebuilding Tables 3–4's effective-lifetime claims
//! from the provenance ledger alone.
//!
//! The §4 renumbering experiments observed, from *outside* the
//! resolver, that an in-bailiwick NS host switches address when the NS
//! record expires (≈3600 s — the address record's lifetime is coupled
//! to the NS TTL) while an out-of-bailiwick host survives for its
//! address record's full TTL (≈7200 s), and a parent-centric resolver
//! holds the registry's 2-day glue copy (§4.4's OpenDNS). This module
//! re-derives all three numbers from *inside* the resolver: the cache's
//! provenance ledger records when each record entered, from which
//! server, at which credibility, and — crucially — how long it resided
//! before being overwritten or expiring. The attribution tables printed
//! here are what `repro cache-report` shows.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::worlds::{self, CachetestWorld, NEW_MARKER};
use dnsttl_analysis::{Ecdf, Table};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{Region, SimRng, SimTime};
use dnsttl_resolver::{CacheSnapshot, RecursiveResolver};
use dnsttl_wire::{Name, RData, RecordType};

/// When the experiment renumbers the sub zone (§4: nine minutes in).
const RENUMBER_AT_S: u64 = 540;
/// Probe cadence (§4: ten minutes).
const PROBE_EVERY_S: u64 = 600;

/// One scenario's outcome.
struct ScenarioRun {
    label: &'static str,
    ns_host: &'static str,
    /// First probe time (s) that returned the renumbered marker.
    switch_s: Option<u64>,
    /// Longest residency (s) of the NS host's A record before a
    /// removal — the record's *effective* lifetime in cache.
    ns_a_residency_s: Option<u64>,
    /// The A record's original (published) TTL as the ledger saw it.
    ns_a_original_ttl_s: Option<u64>,
    /// Cache hit rate over the probe series.
    hit_rate: f64,
    /// Attribution rows: (rtype, origin, bailiwick, inserts, serves,
    /// serves/insert, median residency s).
    cells: Vec<(String, String, String, u64, u64, f64, f64)>,
    /// Snapshot just before the renumber propagated.
    snap_before: CacheSnapshot,
    /// Snapshot after the switch (or at the horizon).
    snap_after: CacheSnapshot,
}

fn run_scenario(
    cfg: &ExpConfig,
    label: &'static str,
    out_of_bailiwick: bool,
    policy: ResolverPolicy,
    horizon_s: u64,
) -> ScenarioRun {
    let mut world: CachetestWorld = worlds::cachetest_world(out_of_bailiwick);

    let mut resolver = RecursiveResolver::new(
        label,
        policy,
        Region::Eu,
        1,
        world.roots.clone(),
        SimRng::seed_from(cfg.seed_for(label)),
    );
    resolver.set_telemetry(cfg.telemetry.clone());
    resolver.enable_cache_ledger();

    let ns_host = if out_of_bailiwick {
        "ns1.zurrundedu.com"
    } else {
        "ns1.sub.cachetest.net"
    };
    let qname = Name::parse("p1.sub.cachetest.net").expect("static");

    let mut switch_s = None;
    let mut renumbered = false;
    let mut snap_before = None;
    let mut t = 0u64;
    while t <= horizon_s {
        if !renumbered && t > RENUMBER_AT_S {
            world.renumber();
            snap_before = Some(resolver.cache().snapshot(SimTime::from_secs(t)));
            renumbered = true;
        }
        let out = resolver.resolve(
            &qname,
            RecordType::AAAA,
            SimTime::from_secs(t),
            &mut world.net,
        );
        let new_vm = out
            .answer
            .answers
            .iter()
            .flat_map(|set| set.rdatas.iter())
            .any(|rd| *rd == RData::Aaaa(NEW_MARKER));
        if new_vm && switch_s.is_none() {
            switch_s = Some(t);
            break;
        }
        t += PROBE_EVERY_S;
    }
    let end = switch_s.unwrap_or(horizon_s);
    let snap_after = resolver.cache().snapshot(SimTime::from_secs(end));

    let (ns_a_residency_s, ns_a_original_ttl_s, cells) = resolver
        .cache()
        .with_ledger(|ledger| {
            let ns_host = worlds::name(ns_host);
            let mut residency = None;
            let mut original = None;
            for rec in ledger.records() {
                if rec.rtype == RecordType::A && rec.name == ns_host {
                    original = Some(u64::from(rec.provenance.original_ttl.as_secs()));
                    if let Some(res) = rec.residency_ms {
                        let res_s = res / 1_000;
                        if residency.is_none_or(|r| res_s > r) {
                            residency = Some(res_s);
                        }
                    }
                }
            }
            let cells = ledger
                .cells()
                .map(|(k, c)| {
                    let res = Ecdf::from_u64(c.residency_ms.iter().map(|&ms| ms / 1_000));
                    (
                        k.rtype.to_string(),
                        k.origin.as_str().to_string(),
                        k.bailiwick.as_str().to_string(),
                        c.inserts,
                        c.serves,
                        c.serves_per_insert(),
                        if res.is_empty() { 0.0 } else { res.median() },
                    )
                })
                .collect();
            (residency, original, cells)
        })
        .expect("ledger enabled");

    let stats = resolver.stats();
    let hit_rate = if stats.client_queries > 0 {
        stats.cache_hits as f64 / stats.client_queries as f64
    } else {
        0.0
    };

    ScenarioRun {
        label,
        ns_host,
        switch_s,
        ns_a_residency_s,
        ns_a_original_ttl_s,
        hit_rate,
        cells,
        snap_before: snap_before.unwrap_or_else(|| resolver.cache().snapshot(SimTime::ZERO)),
        snap_after,
    }
}

/// Runs the forensics scenarios and renders the attribution report.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let scenarios = [
        (
            "in-bailiwick/child",
            false,
            ResolverPolicy::default(),
            10_800,
        ),
        (
            "out-of-bailiwick/child",
            true,
            ResolverPolicy::default(),
            10_800,
        ),
        (
            "out-of-bailiwick/parent",
            true,
            ResolverPolicy::parent_centric(),
            190_000,
        ),
    ];
    let runs: Vec<ScenarioRun> = scenarios
        .iter()
        .map(|(label, oob, policy, horizon)| {
            run_scenario(cfg, label, *oob, policy.clone(), *horizon)
        })
        .collect();

    let mut report = Report::new(
        "cache-report",
        "Cache forensics — Tables 3–4 effective lifetimes from the provenance ledger",
    );

    // Table A: the switch attribution. The ledger's residency column is
    // the *effective* lifetime; comparing it with the published TTL
    // shows the NS coupling (§4.2) without any external probing.
    let mut switch_table = Table::new(vec![
        "scenario",
        "ns host",
        "switch (s)",
        "A residency (s)",
        "A published TTL (s)",
        "lifetime",
    ]);
    for run in &runs {
        let residency = run.ns_a_residency_s.unwrap_or(0);
        let original = run.ns_a_original_ttl_s.unwrap_or(0);
        let verdict = if residency == 0 {
            "n/a".to_owned()
        } else if residency < original {
            "NS-coupled".to_owned()
        } else {
            "full TTL".to_owned()
        };
        switch_table.row(vec![
            run.label.to_owned(),
            run.ns_host.to_owned(),
            run.switch_s.map_or("none".to_owned(), |s| s.to_string()),
            residency.to_string(),
            original.to_string(),
            verdict,
        ]);
    }
    report.push("switch attribution (renumber at t=540 s, probes every 600 s):");
    report.push(switch_table.render());

    // Table B: full attribution cells for each scenario.
    for run in &runs {
        let mut t = Table::new(vec![
            "type",
            "origin",
            "bailiwick",
            "inserts",
            "serves",
            "serves/insert",
            "median residency (s)",
        ]);
        for (rtype, origin, bw, inserts, serves, spi, med) in &run.cells {
            t.row(vec![
                rtype.clone(),
                origin.clone(),
                bw.clone(),
                inserts.to_string(),
                serves.to_string(),
                format!("{spi:.2}"),
                format!("{med:.0}"),
            ]);
        }
        report.push(format!(
            "cache attribution — {} (hit rate {:.2}):",
            run.label, run.hit_rate
        ));
        report.push(t.render());
    }

    // The snapshot diff around the in-bailiwick switch: the glue A's
    // fingerprint change is the renumber, visible in cache state.
    let in_run = &runs[0];
    let diff = in_run.snap_before.diff(&in_run.snap_after);
    report.push(format!(
        "snapshot diff, {} (t={} s -> t={} s):",
        in_run.label,
        in_run.snap_before.at_ms / 1_000,
        in_run.snap_after.at_ms / 1_000
    ));
    report.push(diff.render());

    for run in &runs {
        let tag = run.label.replace(['/', '-'], "_");
        if let Some(s) = run.switch_s {
            report.metric(&format!("{tag}_switch_s"), s as f64);
        }
        if let Some(r) = run.ns_a_residency_s {
            report.metric(&format!("{tag}_ns_a_residency_s"), r as f64);
        }
        if let Some(o) = run.ns_a_original_ttl_s {
            report.metric(&format!("{tag}_ns_a_ttl_s"), o as f64);
        }
        report.metric(&format!("{tag}_hit_rate"), run.hit_rate);
    }

    // Artifacts: snapshots and the diff, for `repro cache-report --diff`.
    report.write(cfg, "insight_snapshot_before.jsonl", || {
        in_run.snap_before.to_jsonl()
    });
    report.write(cfg, "insight_snapshot_after.jsonl", || {
        in_run.snap_after.to_jsonl()
    });
    report.write(cfg, "insight_diff.txt", || diff.render());

    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reproduces_tables_3_and_4_lifetimes() {
        let cfg = ExpConfig::quick();
        let reports = run(&cfg);
        let r = &reports[0];

        // In bailiwick: the address switches when the NS record
        // expires (≈3600 s), and the ledger shows the A record's
        // effective lifetime was cut short of its 7200 s TTL.
        let in_switch = r.get("in_bailiwick_child_switch_s");
        assert!(
            (3_600.0..=4_200.0).contains(&in_switch),
            "in-bailiwick switch at NS expiry, got {in_switch}"
        );
        let in_res = r.get("in_bailiwick_child_ns_a_residency_s");
        let in_ttl = r.get("in_bailiwick_child_ns_a_ttl_s");
        assert!(
            in_res < in_ttl,
            "in-bailiwick glue is NS-coupled: residency {in_res} < published {in_ttl}"
        );

        // Out of bailiwick: the address survives its full 7200 s TTL.
        let out_switch = r.get("out_of_bailiwick_child_switch_s");
        assert!(
            (7_200.0..=7_800.0).contains(&out_switch),
            "out-of-bailiwick switch at full A TTL, got {out_switch}"
        );
        let out_res = r.get("out_of_bailiwick_child_ns_a_residency_s");
        let out_ttl = r.get("out_of_bailiwick_child_ns_a_ttl_s");
        assert!(
            out_res + 600.0 >= out_ttl,
            "out-of-bailiwick address lives its full TTL: {out_res} vs {out_ttl}"
        );

        // Parent-centric: the registry's 2-day glue copy (§4.4).
        let parent_switch = r.get("out_of_bailiwick_parent_switch_s");
        assert!(
            parent_switch >= 172_200.0,
            "parent-centric holds the registry glue ~2 days, got {parent_switch}"
        );
    }
}
