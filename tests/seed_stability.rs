//! Seed robustness: the paper's qualitative findings must hold for
//! *any* seed, not just the default 42 — otherwise the reproduction
//! would be an artifact of one random world.
//!
//! Ordering audit (sharded-engine PR): these assertions read scalar
//! report values only, so they are immune to row ordering; the
//! collections feeding them (`Dataset::by_vp`, `analysis::ArrivalFold`)
//! are BTreeMap-backed and emit in key order. Worker-count invariance
//! of the same pipelines is asserted separately in
//! `tests/shard_equivalence.rs`.

use dnsttl::experiments::{centricity, controlled, uy_latency, ExpConfig};

fn cfg(seed: u64) -> ExpConfig {
    ExpConfig {
        seed,
        ..ExpConfig::quick()
    }
}

#[test]
fn centricity_majority_holds_across_seeds() {
    for seed in [1, 7, 1234] {
        let reports = centricity::run(&cfg(seed));
        let fig1 = reports.iter().find(|r| r.id == "fig1").unwrap();
        let child = fig1.get("frac_ns_child");
        assert!(
            (0.7..0.99).contains(&child),
            "seed {seed}: child-centric fraction {child}"
        );
    }
}

#[test]
fn caching_beats_short_ttls_across_seeds() {
    for seed in [1, 7] {
        let reports = controlled::run(&cfg(seed));
        let fig11a = reports.iter().find(|r| r.id == "fig11a").unwrap();
        assert!(
            fig11a.get("median_ttl86400_u") < fig11a.get("median_ttl60_u"),
            "seed {seed}: long TTLs must win the median"
        );
        let table10 = reports.iter().find(|r| r.id == "table10").unwrap();
        assert!(
            table10.get("reduction_unique") > 0.5,
            "seed {seed}: reduction {}",
            table10.get("reduction_unique")
        );
    }
}

#[test]
fn uy_improvement_holds_across_seeds() {
    for seed in [3, 99] {
        let reports = uy_latency::run(&cfg(seed));
        let fig10a = reports.iter().find(|r| r.id == "fig10a").unwrap();
        assert!(
            fig10a.get("median_after_ms") < fig10a.get("median_before_ms"),
            "seed {seed}: after {} !< before {}",
            fig10a.get("median_after_ms"),
            fig10a.get("median_before_ms")
        );
    }
}
