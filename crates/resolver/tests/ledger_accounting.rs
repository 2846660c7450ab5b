//! Removal-cause accounting under a randomized workload.
//!
//! The provenance ledger's claim is that every entry leaving the cache
//! is attributed to exactly one cause — overwrite, expiry, or a flush's
//! clear. This suite hammers a cache with a seeded random mixture of
//! stores and reads, then checks the conservation law
//! `inserts − removals == live entries` and that the removal causes
//! sum to total removals — i.e. no removal path escapes attribution.
//!
//! Beside it: the removal-cause pin for expired residents, and the
//! pinned tape — what a `Cache` answered, journalled, traced and held
//! over 20 000 seeded steps.

use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimRng, SimTime};
use dnsttl_resolver::{
    BailiwickClass, Cache, CacheOp, CacheStats, CachedAnswer, Credibility, StoreContext,
};
use dnsttl_wire::{Name, RData, RRset, RecordType, Ttl};

fn rrset(host: u64, ttl: u32, data: u8) -> RRset {
    let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
    let addr = std::net::Ipv4Addr::new(10, 0, (host % 250) as u8, data);
    RRset::new(name, RecordType::A, Ttl::from_secs(ttl), RData::A(addr))
}

fn check_conservation(stats: &CacheStats, len: usize, context: &str) {
    assert_eq!(
        stats.inserts,
        stats.removals() + len as u64,
        "{context}: inserts ({}) must equal removals ({}) + live entries ({len}); \
         causes: overwrites={} expiries={} clears={}",
        stats.inserts,
        stats.removals(),
        stats.overwrites,
        stats.expiries,
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
            _ => {
                let host = rng.below(256);
                let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                let _ = cache.get(&name, RecordType::A, now);
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
            if ledger.dropped() == 0 {
                let mut by_op = std::collections::BTreeMap::new();
                for rec in ledger.records() {
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
            assert_eq!(samples as u64, stats.overwrites + stats.expiries);
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
                _ => {
                    let host = rng.below(128);
                    let name = Name::parse(&format!("h{host}.workload.example")).unwrap();
                    let _ = cache.get(&name, RecordType::A, now);
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
    assert!(merged.overwrites > 0 && merged.expiries > 0, "{merged:?}");

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

/// An expired-but-resident entry is still resident: it leaves by the
/// store that replaces it (an *expiry*) or by a flush (a *clear*),
/// never twice and never unattributed.
#[test]
fn expired_residents_leave_by_replacement_or_clear() {
    let policy = ResolverPolicy::default();
    let mut cache = filled_with_expired_residents();
    let later = SimTime::from_secs(600);
    for host in 0..32 {
        cache.store(
            rrset(host, 60, 1),
            Credibility::AuthAnswer,
            later,
            &policy,
            false,
        );
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.expiries, stats.refreshes, stats.inserts),
        (32, 0, 96)
    );
    check_conservation(&stats, cache.len(), "replaced expired residents");
    cache.clear();
    let stats = cache.stats();
    assert_eq!((stats.expiries, stats.clears), (32, 64));
    check_conservation(&stats, cache.len(), "flushed the rest");
    assert!(cache.is_empty());
}

// The pinned tape: what a `Cache` answered, journalled, traced and held
// at commit 772e60d, the last with purge and invalidation paths, on a
// tape that uses neither.

const TAPE_STEPS: u64 = 20_000;
const TAPE_SEEDS: [u64; 4] = [3, 17, 2024, 4242];

/// Names with case variety across three zones.
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
/// reads, failure caching and negative reads, one line of transcript a
/// step — and digests everything the cache produced but its counters,
/// which it returns beside the digests. After the snapshot the tape
/// ends with a negative store read back.
fn run_tape(seed: u64, names: &[Name]) -> (String, CacheStats) {
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
                let set = RRset::new(name.clone(), rtype, Ttl::from_secs(ttl), rdata);
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
            _ => answers.push_str(&format!("{:?}", cache.get_negative(name, rtype, now))),
        }
        answers.push('\n');
    }
    let snapshot = cache.snapshot(now).to_jsonl();
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
    assert!(stats.expiries > 100, "{stats:?}");
    check_conservation(&stats, cache.len(), &format!("seed {seed} tape"));
    let ledger: String = cache
        .with_ledger(|l| {
            assert_eq!(l.dropped(), 0, "journal wrapped");
            l.records().map(|r| r.to_line() + "\n").collect()
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
    let row = format!(
        "seed {seed} unbounded: answers {:016x} ledger {:016x} trace {:016x} \
         snapshot {:016x}",
        fnv1a(&answers),
        fnv1a(&ledger),
        fnv1a(&telemetry.trace_jsonl()),
        fnv1a(&snapshot),
    );
    (row, stats)
}

/// [`run_tape`]'s rows as this test printed them at commit 772e60d. A
/// cache counts its transactions instead of tracing them, so every
/// trace is empty and digests to the FNV-1a offset basis.
const PINNED_TAPES: [&str; 4] = [
    "seed 3 unbounded: answers 4dab316176006989 ledger c0618dad95f85e61 trace cbf29ce484222325 snapshot 9fff47aef86ffd7b",
    "seed 17 unbounded: answers 2123c41581450eaa ledger efc0e8c5d53a81e6 trace cbf29ce484222325 snapshot 89bfff399e1faea5",
    "seed 2024 unbounded: answers a34c88295583d0d8 ledger d3452595614e5990 trace cbf29ce484222325 snapshot 42b054dbdd122592",
    "seed 4242 unbounded: answers 0c9dce00e2398ee3 ledger f9fac542b9ced033 trace cbf29ce484222325 snapshot 9f72aabccc4dab58",
];

/// Each tape's counters, by value. They are the counters pinned at
/// commit 772e60d, there as the FNV-1a of one `name=value` line per
/// tape (517f67f397ab2fa6, 5f51bc9e52614009, bc5efe93f7a97bfb,
/// 65b3ef12d50af7af), which these values reproduce.
const PINNED_STATS: [CacheStats; 4] = [
    tape_stats([8501, 246, 745, 7564, 1058, 1086, 296]),
    tape_stats([8431, 240, 716, 7523, 1129, 1068, 299]),
    tape_stats([8430, 261, 741, 7497, 1030, 1009, 277]),
    tape_stats([8418, 220, 735, 7491, 1067, 991, 298]),
];

/// A tape's counters from `[inserts, refreshes, overwrites, expiries,
/// hits, stale_hits, rejected_stores]`; a tape never clears.
const fn tape_stats(c: [u64; 7]) -> CacheStats {
    CacheStats {
        inserts: c[0],
        refreshes: c[1],
        overwrites: c[2],
        expiries: c[3],
        evictions: 0,
        clears: 0,
        hits: c[4],
        stale_hits: c[5],
        rejected_stores: c[6],
    }
}

/// Every answer, ledger line, snapshot line and counter a `Cache`
/// produces on a 20 000-step seeded tape is what it was before the
/// purge and invalidation paths went. The trace it leaves is empty.
#[test]
fn seeded_tapes_reproduce_the_digests_pinned_before_the_fold() {
    let names = name_pool();
    let (rows, stats): (Vec<String>, Vec<CacheStats>) = TAPE_SEEDS
        .iter()
        .map(|&seed| run_tape(seed, &names))
        .unzip();
    assert_eq!(rows, PINNED_TAPES, "\n{}\n", rows.join("\n"));
    assert_eq!(stats, PINNED_STATS);
}
