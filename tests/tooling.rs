//! Integration of the operator-facing tooling: master-file parsing →
//! linting → migration planning → behaviour classification, through
//! the public facade.

use dnsttl::analysis::{classify_ttl_series, BehaviorCensus, TtlBehavior};
use dnsttl::auth::{parse_records, parse_zone, render_zone};
use dnsttl::core::{
    lint_zone, plan_migration, Bailiwick, LintContext, MigrationSpec, ParentInfo, PolicyMix,
    PublishedTtls, ResolverPolicy,
};
use dnsttl::wire::{Name, Ttl};

const UY_2019: &str = r#"
$ORIGIN uy.
$TTL 300
@           IN NS a.nic.uy.
            IN NS b.nic.uy.
a.nic.uy.   120 IN A 200.40.241.1
b.nic.uy.   120 IN A 200.40.241.2
"#;

#[test]
fn lint_flags_the_papers_uy_findings_from_a_zone_file() {
    let origin = Name::parse("uy").unwrap();
    let records = parse_records(UY_2019, Some(&origin)).unwrap();
    let findings = lint_zone(
        &origin,
        &records,
        &ParentInfo {
            ns_ttl: Some(Ttl::TWO_DAYS),
            glue_ttl: Some(Ttl::TWO_DAYS),
        },
        LintContext::default(),
    );
    let codes: Vec<_> = findings.iter().map(|f| f.code).collect();
    assert!(codes.contains(&"ns-ttl-short"), "{codes:?}");
    assert!(codes.contains(&"parent-child-ttl-mismatch"), "{codes:?}");
}

#[test]
fn fixed_zone_passes_the_lint() {
    let fixed = UY_2019
        .replace("$TTL 300", "$TTL 86400")
        .replace("120 IN A", "86400 IN A");
    let origin = Name::parse("uy").unwrap();
    let records = parse_records(&fixed, Some(&origin)).unwrap();
    let findings = lint_zone(
        &origin,
        &records,
        &ParentInfo {
            ns_ttl: Some(Ttl::DAY),
            glue_ttl: Some(Ttl::DAY),
        },
        LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn migration_plan_respects_the_population_worst_case() {
    // An all-child-centric population drains in the child TTL; the
    // paper population includes parent-centric resolvers riding the
    // 2-day glue.
    let uniform = plan_migration(&MigrationSpec {
        current: PublishedTtls::uy_before(),
        bailiwick: Bailiwick::In,
        transition_ttl: Ttl::from_secs(300),
        population: PolicyMix::uniform(ResolverPolicy::default()),
        can_update_parent: true,
    });
    let mixed = plan_migration(&MigrationSpec {
        current: PublishedTtls::uy_before(),
        bailiwick: Bailiwick::In,
        transition_ttl: Ttl::from_secs(300),
        population: PolicyMix::paper_population(),
        can_update_parent: true,
    });
    assert!(uniform.worst_effective_ttl < mixed.worst_effective_ttl);
    assert_eq!(mixed.worst_effective_ttl, Ttl::TWO_DAYS);
}

#[test]
fn zone_round_trips_through_render_and_parse() {
    let zone = parse_zone("uy", UY_2019).unwrap();
    let rendered = render_zone(&zone);
    let back = parse_zone("uy", &rendered).unwrap();
    let apex = Name::parse("uy").unwrap();
    assert_eq!(
        zone.get(&apex, dnsttl::wire::RecordType::NS).len(),
        back.get(&apex, dnsttl::wire::RecordType::NS).len()
    );
}

#[test]
fn cache_forensics_snapshot_and_ledger_through_the_facade() {
    use dnsttl::core::ResolverPolicy as Policy;
    use dnsttl::netsim::SimTime;
    use dnsttl::resolver::{
        cache::Cache, BailiwickClass, CacheSnapshot, Credibility, StoreContext,
    };
    use dnsttl::wire::{RData, RRset, RecordType};

    let policy = Policy::default();
    let mut cache = Cache::new();
    cache.enable_ledger();
    let rrset = RRset {
        name: Name::parse("www.example").unwrap(),
        rtype: RecordType::A,
        ttl: Ttl::from_secs(600),
        rdatas: vec![RData::A("203.0.113.7".parse().unwrap())],
    };
    let ctx = StoreContext {
        txn: 77,
        server: Some("192.0.2.53".parse().unwrap()),
        bailiwick: BailiwickClass::In,
    };
    cache.store_with(
        rrset.clone(),
        Credibility::AuthAnswer,
        SimTime::ZERO,
        &policy,
        false,
        ctx,
    );

    // Snapshot round-trips through the JSONL codec with provenance.
    let before = cache.snapshot(SimTime::ZERO);
    let back = CacheSnapshot::parse_jsonl(&before.to_jsonl()).unwrap();
    assert_eq!(back.len(), 1);
    assert_eq!(back.entries[0].txn, 77);
    assert_eq!(back.entries[0].origin, "child");

    // A renumber shows up as a changed fingerprint in the diff.
    let renumbered = RRset {
        rdatas: vec![RData::A("203.0.113.8".parse().unwrap())],
        ..rrset
    };
    cache.store_with(
        renumbered,
        Credibility::AuthAnswer,
        SimTime::from_secs(60),
        &policy,
        false,
        ctx,
    );
    let diff = before.diff(&cache.snapshot(SimTime::from_secs(60)));
    assert_eq!(diff.changed.len(), 1);
    assert!(diff.render().contains("www.example."));

    // The ledger journal serialises to JSONL and parses back losslessly.
    let jsonl = cache
        .with_ledger(|l| l.journal().to_jsonl())
        .expect("ledger enabled");
    let records = dnsttl::telemetry::Journal::parse_jsonl(&jsonl).unwrap();
    assert_eq!(records.len(), 3, "insert + overwrite + re-insert: {jsonl}");
    assert_eq!(records[1].op, dnsttl::telemetry::CacheOp::Overwrite);
    assert_eq!(records[1].residency_ms, Some(60_000));
    assert_eq!(records[2].op, dnsttl::telemetry::CacheOp::Insert);
    assert_ne!(
        records[2].fingerprint, records[1].fingerprint,
        "renumber changed the rdata"
    );
}

#[test]
fn bench_report_header_counts_its_lines_and_gates_find_their_rows() {
    let report = dnsttl::bench::runner::run(dnsttl::bench::BenchConfig {
        seed: 3,
        quick: true,
        // Report shape only — shrink the zipf population so the suite
        // stays debug-runnable.
        pop_scale: 0.02,
    });
    let text = report.render();
    let (above, below) = text
        .split_once(dnsttl::bench::TIMINGS_MARKER)
        .expect("timings marker present");
    let mut above = above.lines();
    let header = above.next().expect("header line");
    let counters = above.count();
    let timings = below.lines().filter(|l| !l.is_empty()).count();
    assert_eq!(
        header,
        format!(
            "{{\"schema\":\"dnsttl-bench-report/1\",\"seed\":3,\"mode\":\"quick\",\
             \"counters\":{counters},\"timings\":{timings}}}"
        )
    );
    // Debug-build timings at this scale may fail a ratio; what the
    // suite owes the gates is every row they read.
    for verdict in report.check_gates() {
        let (Ok(line) | Err(line)) = verdict;
        assert!(!line.contains("missing timing row"), "{line}");
    }
}

#[test]
fn bench_population_scenarios_reproduce_the_digests_pinned_before_the_shared_engine() {
    // `sharded_population` used to gate a private copy of the cell
    // loop; it now calls `dnsttl_atlas::population_campaign`, the engine
    // `repro --shards` runs. These are the values the last commit with
    // the private copy printed for `repro bench --quick --seed 42`, so
    // the move — and any later change to the engine or the merge — is
    // held to the identical row sequence.
    let report = dnsttl::bench::runner::run(dnsttl::bench::BenchConfig::quick(42));
    let value = |scenario: &str, metric: &str| {
        report
            .counters
            .iter()
            .find(|c| c.scenario == scenario && c.metric == metric)
            .unwrap_or_else(|| panic!("no counter {scenario}/{metric}"))
            .value
    };
    for (scenario, metric, pinned) in [
        ("sharded_population", "results", 6_156.0),
        ("sharded_population", "valid_results", 6_144.0),
        ("sharded_population", "digest_hi", 1_469_452_638.0),
        ("sharded_population", "digest_lo", 18_526_468.0),
        ("zipf_population", "results", 108_966.0),
        ("zipf_population", "digest_hi", 3_451_486_222.0),
        ("zipf_population", "digest_lo", 2_243_215_305.0),
    ] {
        assert_eq!(value(scenario, metric), pinned, "{scenario}/{metric}");
    }
}

#[test]
fn classifier_matches_known_behaviours() {
    // Series shaped like the paper's Figure 1 regions.
    assert_eq!(
        classify_ttl_series(&[300, 298, 300, 150], 300, 172_800),
        TtlBehavior::ChildCentric
    );
    assert_eq!(
        classify_ttl_series(&[172_800, 172_800], 300, 172_800),
        TtlBehavior::PinnedFullTtl
    );
    let census = BehaviorCensus::take(
        [
            &[300u64, 290][..],
            &[172_800, 172_800][..],
            &[21_599, 21_599][..],
        ],
        300,
        172_800,
    );
    assert_eq!(census.child_centric, 1);
    assert_eq!(census.pinned, 1);
    assert_eq!(census.capped, vec![21_599]);
}
