//! Removal-cause accounting under a randomized workload.
//!
//! The provenance ledger's claim is that every entry leaving the cache
//! is attributed to exactly one cause — overwrite, expiry, explicit
//! invalidation, or a phase clear. This suite hammers a cache with a
//! seeded random mixture of stores, reads, purges and invalidations,
//! then checks the conservation law
//! `inserts − removals == live entries` and that the removal causes
//! sum to total removals — i.e. no removal path escapes attribution.
//!
//! Beside it: the two removal-cause pins for a zone invalidation
//! meeting expired residents, and the pinned tape — what a `Cache`
//! answered, journalled, traced and held over 20 000 seeded steps at
//! the commit before its core, its accounting sink and its front became
//! one struct.

use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimRng, SimTime};
use dnsttl_resolver::{BailiwickClass, Cache, CacheStats, CachedAnswer, Credibility, StoreContext};
use dnsttl_telemetry::CacheOp;
use dnsttl_wire::{Name, RData, RRset, RecordType, Ttl};

fn rrset(host: u64, ttl: u32, data: u8) -> RRset {
    let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
    RRset {
        name,
        rtype: RecordType::A,
        ttl: Ttl::from_secs(ttl),
        rdatas: vec![RData::A(std::net::Ipv4Addr::new(
            10,
            0,
            (host % 250) as u8,
            data,
        ))],
    }
}

fn check_conservation(stats: &CacheStats, len: usize, context: &str) {
    assert_eq!(
        stats.inserts,
        stats.removals() + len as u64,
        "{context}: inserts ({}) must equal removals ({}) + live entries ({len}); \
         causes: overwrites={} expiries={} invalidations={} clears={}",
        stats.inserts,
        stats.removals(),
        stats.overwrites,
        stats.expiries,
        stats.invalidations,
        stats.clears,
    );
}

#[test]
fn randomized_workload_conserves_entries_across_causes() {
    let policy = ResolverPolicy::default();
    let mut rng = SimRng::seed_from(0xC0FFEE);
    let mut cache = Cache::new();
    cache.enable_ledger();
    let mut now = SimTime::ZERO;

    for step in 0..20_000u64 {
        now += dnsttl_netsim::SimDuration::from_secs(rng.below(40));
        match rng.below(100) {
            // Mostly stores: random key from 256, random TTL, two
            // possible data values so refreshes and overwrites both
            // occur.
            0..=69 => {
                let host = rng.below(256);
                let ttl = 1 + rng.below(600) as u32;
                let data = if rng.chance(0.5) { 1 } else { 2 };
                let rank = if rng.chance(0.5) {
                    Credibility::AuthAnswer
                } else {
                    Credibility::ReferralAdditional
                };
                let ctx = StoreContext {
                    txn: step + 1,
                    server: Some("198.51.100.7".parse().unwrap()),
                    bailiwick: if rng.chance(0.5) {
                        BailiwickClass::In
                    } else {
                        BailiwickClass::Out
                    },
                };
                cache.store_with(rrset(host, ttl, data), rank, now, &policy, false, ctx);
            }
            // Reads (hits and misses — neither may disturb residency).
            70..=89 => {
                let host = rng.below(256);
                let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                let _ = cache.get(&name, RecordType::A, now);
            }
            // Occasional purge sweeps: expiry removals.
            90..=95 => cache.purge_expired(now),
            // Renumber-style invalidations.
            _ => {
                let host = rng.below(256);
                let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                cache.invalidate(&name, RecordType::A, now);
            }
        }
        if step % 4_096 == 0 {
            check_conservation(&cache.stats(), cache.len(), &format!("step {step}"));
        }
    }

    let stats = cache.stats();
    check_conservation(&stats, cache.len(), "final");
    // The workload must actually exercise every cause.
    assert!(stats.inserts > 1_000, "workload too small: {stats:?}");
    assert!(stats.refreshes > 0, "no refreshes occurred: {stats:?}");
    assert!(stats.overwrites > 0, "no overwrites occurred: {stats:?}");
    assert!(stats.expiries > 0, "no expiries occurred: {stats:?}");
    assert!(
        stats.invalidations > 0,
        "no invalidations occurred: {stats:?}"
    );
    assert!(stats.hits > 0, "no hits occurred: {stats:?}");

    // A final clear attributes every survivor.
    let live = cache.len() as u64;
    cache.clear();
    let stats = cache.stats();
    assert_eq!(stats.clears, live);
    check_conservation(&stats, 0, "after clear");

    // The ledger journal agrees with the scalar stats for every cause
    // it records (the journal is bounded, so compare via totals only
    // if nothing was dropped).
    cache
        .with_ledger(|ledger| {
            if ledger.journal().dropped() == 0 {
                let mut by_op = std::collections::BTreeMap::new();
                for rec in ledger.journal().records() {
                    *by_op.entry(rec.op).or_insert(0u64) += 1;
                }
                assert_eq!(
                    by_op.get(&CacheOp::Overwrite).copied().unwrap_or(0),
                    stats.overwrites
                );
                assert_eq!(
                    by_op.get(&CacheOp::Expire).copied().unwrap_or(0),
                    stats.expiries
                );
                assert_eq!(
                    by_op.get(&CacheOp::Invalidate).copied().unwrap_or(0),
                    stats.invalidations
                );
                assert_eq!(
                    by_op.get(&CacheOp::Insert).copied().unwrap_or(0),
                    stats.inserts
                );
                assert_eq!(
                    by_op.get(&CacheOp::Refresh).copied().unwrap_or(0),
                    stats.refreshes
                );
            }
            // Per-cell aggregation conserves too: cell inserts sum to
            // stats.inserts.
            let cell_inserts: u64 = ledger.cells().map(|(_, c)| c.inserts).sum();
            assert_eq!(cell_inserts, stats.inserts);
            // Every removal with a residency sample: samples ≤ removals
            // (clears don't journal).
            let samples: usize = ledger.cells().map(|(_, c)| c.residency_ms.len()).sum();
            assert_eq!(
                samples as u64,
                stats.overwrites + stats.expiries + stats.invalidations
            );
        })
        .expect("ledger enabled");
}

/// The sharded engine's accounting claim: conservation holds on the
/// *merged* ledger, not just per shard. Each shard runs the randomized
/// workload against its own cache (seeded via `shard_seed`, as the
/// sharded engine does), the per-shard stats are folded together with
/// `CacheStats::absorb`, and the law must hold for the totals with the
/// summed live-entry count.
#[test]
fn merged_multi_shard_ledger_conserves_entries() {
    let policy = ResolverPolicy::default();
    let run_shard = |seed: u64| -> (CacheStats, usize) {
        let mut rng = SimRng::seed_from(seed);
        let mut cache = Cache::new();
        cache.enable_ledger();
        let mut now = SimTime::ZERO;
        for step in 0..4_000u64 {
            now += dnsttl_netsim::SimDuration::from_secs(rng.below(40));
            match rng.below(100) {
                0..=69 => {
                    let host = rng.below(128);
                    let ttl = 1 + rng.below(600) as u32;
                    let data = if rng.chance(0.5) { 1 } else { 2 };
                    let ctx = StoreContext {
                        txn: step + 1,
                        server: Some("198.51.100.7".parse().unwrap()),
                        bailiwick: BailiwickClass::In,
                    };
                    cache.store_with(
                        rrset(host, ttl, data),
                        Credibility::AuthAnswer,
                        now,
                        &policy,
                        false,
                        ctx,
                    );
                }
                70..=89 => {
                    let host = rng.below(128);
                    let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                    let _ = cache.get(&name, RecordType::A, now);
                }
                90..=95 => cache.purge_expired(now),
                _ => {
                    let host = rng.below(128);
                    let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                    cache.invalidate(&name, RecordType::A, now);
                }
            }
        }
        check_conservation(&cache.stats(), cache.len(), &format!("shard seed {seed}"));
        (cache.stats(), cache.len())
    };

    let run_seed = 0xD15C0;
    let mut merged = CacheStats::default();
    let mut live = 0usize;
    for shard in 0..8u64 {
        let (stats, len) = run_shard(dnsttl_netsim::shard_seed(run_seed, shard));
        merged.absorb(&stats);
        live += len;
    }
    check_conservation(&merged, live, "merged 8-shard ledger");
    // The merge must not lose any cause bucket.
    assert!(
        merged.inserts > 1_000,
        "merged workload too small: {merged:?}"
    );
    assert!(
        merged.overwrites > 0 && merged.expiries > 0 && merged.invalidations > 0,
        "{merged:?}"
    );

    // Worker-order independence: absorbing the same shard stats in
    // reverse order gives the same totals (field sums commute).
    let stats: Vec<(CacheStats, usize)> = (0..8u64)
        .map(|s| run_shard(dnsttl_netsim::shard_seed(run_seed, s)))
        .collect();
    let mut reversed = CacheStats::default();
    for (s, _) in stats.iter().rev() {
        reversed.absorb(s);
    }
    assert_eq!(reversed, merged);
}

#[test]
fn same_seed_workloads_produce_identical_journals() {
    let run = |seed: u64| -> String {
        let policy = ResolverPolicy::default();
        let mut rng = SimRng::seed_from(seed);
        let mut cache = Cache::new();
        cache.enable_ledger();
        let mut now = SimTime::ZERO;
        for step in 0..2_000u64 {
            now += dnsttl_netsim::SimDuration::from_secs(rng.below(30));
            if rng.chance(0.8) {
                let host = rng.below(64);
                let ctx = StoreContext {
                    txn: step,
                    server: Some("203.0.113.9".parse().unwrap()),
                    bailiwick: BailiwickClass::In,
                };
                cache.store_with(
                    rrset(host, 1 + rng.below(120) as u32, 1),
                    Credibility::AuthAnswer,
                    now,
                    &policy,
                    false,
                    ctx,
                );
            } else {
                cache.purge_expired(now);
            }
        }
        cache.with_ledger(|l| l.journal().to_jsonl()).unwrap()
    };
    // Byte-identical across reruns: purge order must not depend on
    // HashMap iteration order.
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

/// 64 entries under `workload.example`, stored at time zero with a
/// 60 s TTL: every one expired-but-resident ten minutes later.
fn filled_with_expired_residents() -> Cache {
    let policy = ResolverPolicy::default();
    let mut cache = Cache::new();
    for host in 0..64 {
        cache.store(
            rrset(host, 60, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy,
            false,
        );
    }
    cache
}

/// Every resident entry leaving the cache is attributed to exactly one
/// cause, and an expired-but-resident entry is still resident: a zone
/// invalidation that removes it counts an *invalidation*, never an
/// expiry.
#[test]
fn invalidate_zone_on_expired_residents_counts_invalidations() {
    let mut cache = filled_with_expired_residents();
    let apex = Name::parse("workload.example").unwrap();
    assert_eq!(cache.invalidate_zone(&apex, SimTime::from_secs(600)), 64);
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 64);
    assert_eq!(stats.expiries, 0, "expiry drift");
    check_conservation(
        &stats,
        cache.len(),
        "zone invalidation of expired residents",
    );
    assert!(cache.is_empty());
}

/// Only `purge_expired` (or replacement of the expired key) turns an
/// expired resident into an *expiry*: a purge sweep claims all 64, and
/// the zone invalidation that follows finds nothing.
#[test]
fn purge_before_invalidate_zone_counts_expiries() {
    let mut cache = filled_with_expired_residents();
    let apex = Name::parse("workload.example").unwrap();
    let later = SimTime::from_secs(600);
    cache.purge_expired(later);
    assert_eq!(cache.invalidate_zone(&apex, later), 0);
    let stats = cache.stats();
    assert_eq!(stats.expiries, 64);
    assert_eq!(stats.invalidations, 0, "invalidation drift");
    check_conservation(&stats, cache.len(), "purge before zone invalidation");
}

// The pinned tape: what a `Cache` answered, journalled, traced and held
// at the last commit where its accounting went through a sink trait
// shared with a concurrent model — all but the trace, re-pinned when
// the cache stopped tracing its transactions.

const TAPE_STEPS: u64 = 20_000;
const TAPE_SEEDS: [u64; 4] = [3, 17, 2024, 4242];

/// Names with case variety, so the canonical-order tie-break of the
/// purge actually fires.
fn name_pool() -> Vec<Name> {
    (0..96)
        .map(|i| {
            let s = match i % 4 {
                0 => format!("h{i:02}.pool.example"),
                1 => format!("H{i:02}.Pool.Example"),
                2 => format!("deep.h{i:02}.sub.example"),
                _ => format!("h{i:02}.other-zone.test"),
            };
            Name::parse(&s).unwrap()
        })
        .collect()
}

/// A served answer in canonical text.
fn describe(answer: Option<CachedAnswer>) -> String {
    match answer {
        None => "miss".to_string(),
        Some(a) => format!(
            "{}|{:?}|{}|{}|{}",
            a.rrset.ttl.as_secs(),
            a.rank,
            a.stale,
            a.rrset
                .rdatas
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(","),
            a.provenance.effective_ttl.as_secs(),
        ),
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Drives one seeded tape — mostly stores and reads, plus serve-stale
/// reads, failure caching and invalidations, one line of transcript a
/// step — and digests everything the cache produced. After the
/// snapshot the tape ends with the operations its mix lacks: a purge,
/// a zone invalidation and a negative store read back.
fn run_tape(seed: u64, names: &[Name]) -> String {
    let policy = ResolverPolicy::default();
    let mut cache = Cache::new();
    cache.enable_ledger();
    let telemetry = dnsttl_telemetry::Telemetry::new();
    cache.set_telemetry(telemetry.clone());

    let mut rng = SimRng::seed_from(0xC0CC_0000 ^ seed);
    let ttls = [30u32, 60, 60, 300, 300, 3_600];
    let max_stale = Ttl::from_secs(3_600);
    let mut now = SimTime::ZERO;
    let mut answers = String::new();
    for step in 0..TAPE_STEPS {
        if rng.below(5) == 0 {
            now += dnsttl_netsim::SimDuration::from_secs(1 + rng.below(90));
        }
        let name = &names[rng.below(names.len() as u64) as usize];
        let rtype = [RecordType::A, RecordType::NS][rng.below(2) as usize];
        match rng.below(100) {
            0..=44 => {
                let ttl = ttls[rng.below(ttls.len() as u64) as usize];
                let data = rng.below(4) as u8 + 1;
                let rank = if rng.chance(0.7) {
                    Credibility::AuthAnswer
                } else {
                    Credibility::ReferralAdditional
                };
                let rdata = match rtype {
                    RecordType::A => RData::A(std::net::Ipv4Addr::new(192, 0, 2, data)),
                    _ => RData::Ns(Name::parse(&format!("ns{data}.example")).unwrap()),
                };
                let set = RRset {
                    name: name.clone(),
                    rtype,
                    ttl: Ttl::from_secs(ttl),
                    rdatas: vec![rdata],
                };
                let ctx = StoreContext {
                    txn: step + 1,
                    server: Some("198.51.100.7".parse().unwrap()),
                    bailiwick: BailiwickClass::In,
                };
                cache.store_with(set, rank, now, &policy, false, ctx);
            }
            45..=74 => answers.push_str(&describe(cache.get(name, rtype, now))),
            75..=84 => answers.push_str(&describe(cache.get_stale(name, rtype, now, max_stale))),
            85..=89 => cache.store_failure(name.clone(), rtype, Ttl::from_secs(30), now),
            90..=94 => answers.push_str(&format!("{:?}", cache.get_negative(name, rtype, now))),
            _ => answers.push_str(&format!("{}", cache.invalidate(name, rtype, now))),
        }
        answers.push('\n');
    }
    let snapshot = cache.snapshot(now).to_jsonl();
    cache.purge_expired(now);
    let apex = Name::parse("sub.example").unwrap();
    answers.push_str(&format!("{}\n", cache.invalidate_zone(&apex, now)));
    let (nx, soa_ttl) = (dnsttl_wire::Rcode::NxDomain, Ttl::from_secs(300));
    cache.store_negative(
        names[0].clone(),
        RecordType::NS,
        nx,
        soa_ttl,
        Ttl::HOUR,
        now,
        &policy,
    );
    let negative = cache.get_negative(&names[0], RecordType::NS, now);
    answers.push_str(&format!("{negative:?}\n"));

    let stats = cache.stats();
    assert!(stats.hits > 1_000 && stats.stale_hits > 100, "{stats:?}");
    assert!(
        stats.expiries > 100 && stats.invalidations > 100,
        "{stats:?}"
    );
    check_conservation(&stats, cache.len(), &format!("seed {seed} tape"));
    let ledger = cache
        .with_ledger(|l| {
            assert_eq!(l.journal().dropped(), 0, "journal wrapped");
            l.journal().to_jsonl()
        })
        .expect("ledger enabled");
    // The cache traces nothing: it counts each transaction's kind,
    // one count per transaction the stats and the ledger saw.
    let neg_caches = cache
        .with_ledger(|l| l.cells().map(|(_, cell)| cell.neg_caches).sum::<u64>())
        .expect("ledger enabled");
    let mut counted = vec![
        ("cache_expired_drop", stats.expiries),
        ("cache_insert", stats.inserts),
        ("cache_invalidate", stats.invalidations),
        ("cache_overwrite", stats.overwrites),
        ("cache_refresh", stats.refreshes),
        ("cache_serve", stats.hits),
        ("cache_stale_serve", stats.stale_hits),
        ("neg_cache", neg_caches),
    ];
    counted.retain(|&(_, n)| n > 0);
    telemetry.with_tracer(|t| {
        assert_eq!(t.kind_counts().collect::<Vec<_>>(), counted);
        assert_eq!(t.total_recorded(), 0, "a cache transaction was traced");
    });
    format!(
        "seed {seed} unbounded: answers {:016x} ledger {:016x} trace {:016x} \
         snapshot {:016x} stats {:016x}",
        fnv1a(&answers),
        fnv1a(&ledger),
        fnv1a(&telemetry.trace_jsonl()),
        fnv1a(&snapshot),
        fnv1a(&format!("{stats:?}")),
    )
}

/// [`run_tape`]'s rows as this test printed them at the commit before
/// `Cache` absorbed its core and its accounting sink. The `trace`
/// column is the one that moved since: a cache counts its transactions
/// instead of tracing them, so every trace is empty and digests to the
/// FNV-1a offset basis.
const PINNED_TAPES: [&str; 4] = [
    "seed 3 unbounded: answers a75ae35af8bef9c4 ledger 64b52f24d9879400 trace cbf29ce484222325 snapshot 346631f287ddc0ef stats 52a9258ca928619a",
    "seed 17 unbounded: answers 6e584cf636387642 ledger f54744147a356ae6 trace cbf29ce484222325 snapshot 7c68b5273b6585a7 stats 456544be59ce1748",
    "seed 2024 unbounded: answers 98f36ad823f2ba4c ledger 7d8e1851fa49df12 trace cbf29ce484222325 snapshot 8e79170861f1a1d9 stats 274da7ad0a5262b1",
    "seed 4242 unbounded: answers 871a0e7dd914aca0 ledger 113c5cfcb0aed937 trace cbf29ce484222325 snapshot 22b4f4e1f653f3a5 stats 08a6141691378062",
];

/// Every answer, ledger line, snapshot line and counter a `Cache`
/// produces on a 20 000-step seeded tape is what it was before the
/// fold: direct accounting journals what the sink journalled. The
/// trace it leaves is empty.
#[test]
fn seeded_tapes_reproduce_the_digests_pinned_before_the_fold() {
    let names = name_pool();
    let rows: Vec<String> = TAPE_SEEDS
        .iter()
        .map(|&seed| run_tape(seed, &names))
        .collect();
    assert_eq!(rows, PINNED_TAPES, "\n{}\n", rows.join("\n"));
}
