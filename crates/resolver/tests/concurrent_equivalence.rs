//! Differential harness: the concurrent shared-cache backend against
//! the sequential oracle.
//!
//! [`SharedCache`] routes every key to one of S mutex-guarded segments
//! by the interned name's case-folded hash, and each segment runs the
//! *same* `CacheCore` state machine the sequential [`Cache`] runs. That
//! gives a composable oracle: a shared cache with S segments of
//! capacity `ceil(C/S)` must behave exactly like S independent
//! sequential caches of capacity `ceil(C/S)` fed each segment's
//! subsequence of the workload. This suite replays identical seeded
//! 20k-step workloads through both and asserts:
//!
//! * **served answers** — every get / get_stale / get_negative returns
//!   the same answer (TTL, rank, staleness, data) from both engines;
//! * **victim sequences** — per segment, the shared backend evicts the
//!   identical victim sequence the oracle does. The tie-break is the
//!   documented core order: victim = unpinned entry minimising
//!   `(expires_at, canonical name order, type code)` within the
//!   segment;
//! * **ledgers** — each segment's replayed op journal is byte-identical
//!   JSONL to the oracle cache's journal, and the summed stats obey
//!   `inserts == removals + live`;
//! * **threads** — under free-running threads owning disjoint segment
//!   sets ({1, 2, 8} threads), per-segment op subsequences are
//!   preserved, so every one of the above still holds exactly,
//!   whatever the cross-segment interleaving. With threads racing on
//!   *overlapping* keys the answers become schedule-dependent, but the
//!   conservation law and journal/stats agreement must survive.
//! * **noise** — on an unbounded cache, free-running threads working
//!   *other* names that hash into the same segments never change what
//!   a scripted stream is answered with.

use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimDuration, SimRng, SimTime};
use dnsttl_resolver::{
    BailiwickClass, Cache, CachedAnswer, Credibility, SharedCache, StoreContext,
};
use dnsttl_telemetry::CacheOp;
use dnsttl_wire::{Name, RData, RRset, RecordType, Ttl};

const SEGMENTS: usize = 8;
const CAPACITY: usize = 64;
const STEPS: usize = 20_000;
const SEEDS: [u64; 4] = [3, 17, 2024, 4242];
const THREADS: [usize; 3] = [1, 2, 8];
const MAX_STALE: Ttl = Ttl::from_secs(3_600);

/// One pre-generated workload step. Time is baked into the op, so the
/// same op sequence can be replayed in any execution order.
#[derive(Debug, Clone)]
enum Op {
    Store {
        name: Name,
        rtype: RecordType,
        ttl: u32,
        data: u8,
        rank: Credibility,
        txn: u64,
    },
    Get {
        name: Name,
        rtype: RecordType,
    },
    GetStale {
        name: Name,
        rtype: RecordType,
    },
    StoreFailure {
        name: Name,
        rtype: RecordType,
        ttl: u32,
    },
    GetNegative {
        name: Name,
        rtype: RecordType,
    },
    Invalidate {
        name: Name,
        rtype: RecordType,
    },
}

impl Op {
    fn name(&self) -> &Name {
        match self {
            Op::Store { name, .. }
            | Op::Get { name, .. }
            | Op::GetStale { name, .. }
            | Op::StoreFailure { name, .. }
            | Op::GetNegative { name, .. }
            | Op::Invalidate { name, .. } => name,
        }
    }
}

fn rrset(name: &Name, rtype: RecordType, ttl: u32, data: u8) -> RRset {
    let rdata = match rtype {
        RecordType::A => RData::A(std::net::Ipv4Addr::new(192, 0, 2, data)),
        RecordType::NS => RData::Ns(Name::parse(&format!("ns{data}.example")).unwrap()),
        other => panic!("workload does not use {other:?}"),
    };
    RRset {
        name: name.clone(),
        rtype,
        ttl: Ttl::from_secs(ttl),
        rdatas: vec![rdata],
    }
}

/// A canonical description of a served answer, for equality checks
/// across engines.
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

/// The seeded op stream: mostly stores and reads over a name pool with
/// case variety (the canonical-order tie-break must actually fire),
/// plus serve-stale reads, failure caching, and invalidations. Each op
/// carries its own timestamp.
fn generate_workload(seed: u64, names: &[Name]) -> Vec<(SimTime, Op)> {
    let mut rng = SimRng::seed_from(0xC0CC_0000 ^ seed);
    let rtypes = [RecordType::A, RecordType::NS];
    let ttls = [30u32, 60, 60, 300, 300, 3_600];
    let mut now = SimTime::ZERO;
    let mut ops = Vec::with_capacity(STEPS);
    for step in 0..STEPS {
        if rng.below(5) == 0 {
            now += SimDuration::from_secs(1 + rng.below(90));
        }
        let name = names[rng.below(names.len() as u64) as usize].clone();
        let rtype = rtypes[rng.below(2) as usize];
        let op = match rng.below(100) {
            0..=44 => Op::Store {
                name,
                rtype,
                ttl: ttls[rng.below(ttls.len() as u64) as usize],
                data: rng.below(4) as u8 + 1,
                rank: if rng.chance(0.7) {
                    Credibility::AuthAnswer
                } else {
                    Credibility::ReferralAdditional
                },
                txn: step as u64 + 1,
            },
            45..=74 => Op::Get { name, rtype },
            75..=84 => Op::GetStale { name, rtype },
            85..=89 => Op::StoreFailure {
                name,
                rtype,
                ttl: 30,
            },
            90..=94 => Op::GetNegative { name, rtype },
            _ => Op::Invalidate { name, rtype },
        };
        ops.push((now, op));
    }
    ops
}

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

/// Applies one op to any engine through closures, returning the
/// canonical answer string for read ops (empty for writes).
fn apply_shared(cache: &SharedCache, now: SimTime, op: &Op, policy: &ResolverPolicy) -> String {
    match op {
        Op::Store {
            name,
            rtype,
            ttl,
            data,
            rank,
            txn,
        } => {
            let ctx = StoreContext {
                txn: *txn,
                server: Some("198.51.100.7".parse().unwrap()),
                bailiwick: BailiwickClass::In,
            };
            cache.store_with(
                rrset(name, *rtype, *ttl, *data),
                *rank,
                now,
                policy,
                false,
                ctx,
            );
            String::new()
        }
        Op::Get { name, rtype } => describe(cache.get(name, *rtype, now)),
        Op::GetStale { name, rtype } => describe(cache.get_stale(name, *rtype, now, MAX_STALE)),
        Op::StoreFailure { name, rtype, ttl } => {
            cache.store_failure(name.clone(), *rtype, Ttl::from_secs(*ttl), now);
            String::new()
        }
        Op::GetNegative { name, rtype } => {
            format!("{:?}", cache.get_negative(name, *rtype, now))
        }
        Op::Invalidate { name, rtype } => format!("{}", cache.invalidate(name, *rtype, now)),
    }
}

fn apply_sequential(cache: &mut Cache, now: SimTime, op: &Op, policy: &ResolverPolicy) -> String {
    match op {
        Op::Store {
            name,
            rtype,
            ttl,
            data,
            rank,
            txn,
        } => {
            let ctx = StoreContext {
                txn: *txn,
                server: Some("198.51.100.7".parse().unwrap()),
                bailiwick: BailiwickClass::In,
            };
            cache.store_with(
                rrset(name, *rtype, *ttl, *data),
                *rank,
                now,
                policy,
                false,
                ctx,
            );
            String::new()
        }
        Op::Get { name, rtype } => describe(cache.get(name, *rtype, now)),
        Op::GetStale { name, rtype } => describe(cache.get_stale(name, *rtype, now, MAX_STALE)),
        Op::StoreFailure { name, rtype, ttl } => {
            cache.store_failure(name.clone(), *rtype, Ttl::from_secs(*ttl), now);
            String::new()
        }
        Op::GetNegative { name, rtype } => {
            format!("{:?}", cache.get_negative(name, *rtype, now))
        }
        Op::Invalidate { name, rtype } => format!("{}", cache.invalidate(name, *rtype, now)),
    }
}

/// The composable oracle: one sequential cache per segment, fed that
/// segment's op subsequence in order. Returns the caches plus the
/// per-op answers.
fn run_oracle(
    workload: &[(SimTime, Op)],
    route: impl Fn(&Name) -> usize,
    policy: &ResolverPolicy,
) -> (Vec<Cache>, Vec<String>) {
    let per_segment = CAPACITY.div_ceil(SEGMENTS);
    let mut caches: Vec<Cache> = (0..SEGMENTS)
        .map(|_| {
            let mut c = Cache::with_capacity(per_segment);
            c.enable_ledger();
            c
        })
        .collect();
    let mut answers = Vec::with_capacity(workload.len());
    for (now, op) in workload {
        let seg = route(op.name());
        answers.push(apply_sequential(&mut caches[seg], *now, op, policy));
    }
    (caches, answers)
}

/// Full-state agreement between the shared backend and its per-segment
/// oracle: victim sequences (via byte-identical per-segment journals),
/// stats sums, conservation, and final presence under the read API.
fn assert_engines_agree(shared: &SharedCache, oracle: &[Cache], names: &[Name], ctx: &str) {
    assert_eq!(shared.ledger_dropped(), 0, "{ctx}: op log wrapped; grow it");
    let mut oracle_stats = dnsttl_resolver::CacheStats::default();
    let mut oracle_live = 0usize;
    for (seg, cache) in oracle.iter().enumerate() {
        let seq_journal = cache
            .with_ledger(|l| {
                assert_eq!(l.journal().dropped(), 0, "{ctx}: oracle journal wrapped");
                l.journal().to_jsonl()
            })
            .expect("oracle ledger enabled");
        let shared_journal = shared
            .segment_ledger(seg)
            .expect("shared ledger enabled")
            .journal()
            .to_jsonl();
        assert_eq!(
            shared_journal, seq_journal,
            "{ctx}: segment {seg} journal diverged from the sequential oracle"
        );
        assert_eq!(
            shared.segment_stats(seg),
            cache.stats(),
            "{ctx}: segment {seg} stats diverged"
        );
        assert_eq!(
            shared.segment_len(seg),
            cache.len(),
            "{ctx}: segment {seg} live-entry count diverged"
        );
        oracle_stats.absorb(&cache.stats());
        oracle_live += cache.len();
    }
    let stats = shared.stats();
    assert_eq!(stats, oracle_stats, "{ctx}: summed stats diverged");
    assert_eq!(
        stats.inserts,
        stats.removals() + oracle_live as u64,
        "{ctx}: conservation law violated"
    );
    assert!(
        stats.evictions > 0,
        "{ctx}: workload never filled a segment — not a useful run"
    );

    // Final presence through the public read API, at a probe time past
    // the workload (both engines see the same clock).
    let probe = SimTime::from_secs(1 << 30);
    for name in names {
        for rtype in [RecordType::A, RecordType::NS] {
            let seg = shared.segment_of(name);
            let in_shared = shared.expired_since(name, rtype, probe).is_some()
                || shared.get(name, rtype, probe).is_some();
            let in_oracle = oracle[seg].expired_since(name, rtype, probe).is_some()
                || oracle[seg].get(name, rtype, probe).is_some();
            assert_eq!(
                in_shared, in_oracle,
                "{ctx}: presence of ({name}, {rtype:?}) diverged"
            );
        }
    }
}

/// Part A: deterministic schedule. One thread drives the shared
/// backend through the whole op stream; every single answer must match
/// the oracle's, step by step.
#[test]
fn deterministic_schedule_matches_oracle_answer_for_answer() {
    let policy = ResolverPolicy::default();
    let names = name_pool();
    for seed in SEEDS {
        let workload = generate_workload(seed, &names);
        let shared = SharedCache::with_capacity(SEGMENTS, CAPACITY);
        shared.enable_ledger();
        let (oracle, oracle_answers) = run_oracle(&workload, |n| shared.segment_of(n), &policy);

        for (step, (now, op)) in workload.iter().enumerate() {
            let got = apply_shared(&shared, *now, op, &policy);
            assert_eq!(
                got, oracle_answers[step],
                "seed {seed} step {step}: answers diverged on {op:?}"
            );
        }
        assert_engines_agree(&shared, &oracle, &names, &format!("seed {seed}"));
    }
}

/// Part B: free-running threads over disjoint segment sets. Thread `t`
/// owns segments `s` with `s % threads == t` and replays its segments'
/// op subsequences in order, with no cross-thread synchronisation
/// beyond the segment locks. Per-segment orders are preserved, so the
/// final state, every per-segment victim sequence, every journal, and
/// every answer must still equal the oracle's exactly — for 1, 2, and
/// 8 threads.
#[test]
fn free_running_disjoint_threads_match_oracle() {
    let policy = ResolverPolicy::default();
    let names = name_pool();
    for seed in SEEDS {
        let workload = generate_workload(seed, &names);
        for threads in THREADS {
            let shared = SharedCache::with_capacity(SEGMENTS, CAPACITY);
            shared.enable_ledger();
            let (oracle, oracle_answers) = run_oracle(&workload, |n| shared.segment_of(n), &policy);

            let mut answers: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let shared = &shared;
                        let workload = &workload;
                        let policy = &policy;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for (step, (now, op)) in workload.iter().enumerate() {
                                if shared.segment_of(op.name()) % threads != t {
                                    continue;
                                }
                                out.push((step, apply_shared(shared, *now, op, policy)));
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            let mut merged: Vec<(usize, String)> = answers.drain(..).flatten().collect();
            merged.sort_by_key(|(step, _)| *step);
            assert_eq!(merged.len(), workload.len(), "seed {seed}: ops lost");
            for (step, got) in merged {
                assert_eq!(
                    got, oracle_answers[step],
                    "seed {seed} threads {threads} step {step}: answers diverged"
                );
            }
            assert_engines_agree(
                &shared,
                &oracle,
                &names,
                &format!("seed {seed} threads {threads}"),
            );
        }
    }
}

/// Part C: threads racing on *overlapping* keys. Individual answers
/// are schedule-dependent now, but the invariants must not be: the
/// conservation law holds on the summed stats, the op journal agrees
/// with the counters for every cause, and no op is double-counted.
#[test]
fn racing_threads_preserve_conservation_and_journal_agreement() {
    let policy = ResolverPolicy::default();
    let names = name_pool();
    for seed in SEEDS {
        let shared = SharedCache::with_capacity(SEGMENTS, CAPACITY);
        shared.enable_ledger();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let shared = &shared;
                let names = &names;
                let policy = &policy;
                scope.spawn(move || {
                    // Same name pool for every thread — real contention.
                    let workload = generate_workload(seed ^ (t << 32), names);
                    for (now, op) in workload.iter().take(STEPS / 4) {
                        apply_shared(shared, *now, op, policy);
                    }
                });
            }
        });
        assert_eq!(shared.ledger_dropped(), 0, "seed {seed}: op log wrapped");
        let stats = shared.stats();
        assert_eq!(
            stats.inserts,
            stats.removals() + shared.len() as u64,
            "seed {seed}: conservation law violated under contention"
        );
        assert!(
            stats.hits > 0 && stats.evictions > 0,
            "seed {seed}: {stats:?}"
        );
        shared
            .with_ledger(|ledger| {
                let mut by_op = std::collections::BTreeMap::new();
                for rec in ledger.journal().records() {
                    *by_op.entry(rec.op).or_insert(0u64) += 1;
                }
                for (op, want) in [
                    (CacheOp::Insert, stats.inserts),
                    (CacheOp::Refresh, stats.refreshes),
                    (CacheOp::Overwrite, stats.overwrites),
                    (CacheOp::Expire, stats.expiries),
                    (CacheOp::Evict, stats.evictions),
                    (CacheOp::Invalidate, stats.invalidations),
                ] {
                    assert_eq!(
                        by_op.get(&op).copied().unwrap_or(0),
                        want,
                        "seed {seed}: journal {op:?} count disagrees with stats"
                    );
                }
            })
            .expect("ledger enabled");
    }
}

/// Part D: contention on other keys is outcome-invisible. One thread
/// replays the scripted tape on an unbounded cache, once quiet and
/// once while 4 free-running threads store, read, stale-read,
/// failure-cache and invalidate `*.noise.example` names in the same
/// segments. Every scripted answer must be the same, and the combined
/// op stream must still conserve after the join.
#[test]
fn noise_threads_on_other_names_never_change_scripted_answers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const NOISE_THREADS: u64 = 4;
    let policy = ResolverPolicy::default();
    let names = name_pool();
    let noise_names: Vec<Name> = (0..64)
        .map(|i| Name::parse(&format!("n{i}.noise.example")).unwrap())
        .collect();
    let probe = SharedCache::new(SEGMENTS);
    assert!(
        (0..SEGMENTS).all(|s| noise_names.iter().any(|n| probe.segment_of(n) == s)),
        "the noise must reach every segment the script uses"
    );
    for seed in SEEDS {
        let workload = generate_workload(seed, &names);
        let run = |noise: bool| {
            let shared = SharedCache::new(SEGMENTS);
            let noise_threads = if noise { NOISE_THREADS } else { 0 };
            let stop = AtomicBool::new(false);
            // The script starts only once every noise thread is
            // running, and they run until it is done.
            let start = std::sync::Barrier::new(noise_threads as usize + 1);
            let answers: Vec<String> = std::thread::scope(|scope| {
                for t in 0..noise_threads {
                    let (shared, stop, start, policy, noise_names) =
                        (&shared, &stop, &start, &policy, &noise_names);
                    scope.spawn(move || {
                        let tape = generate_workload(seed ^ ((t + 1) << 32), noise_names);
                        start.wait();
                        loop {
                            for (now, op) in &tape {
                                apply_shared(shared, *now, op, policy);
                            }
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    });
                }
                start.wait();
                let answers = workload
                    .iter()
                    .map(|(now, op)| apply_shared(&shared, *now, op, &policy))
                    .collect();
                stop.store(true, Ordering::Relaxed);
                answers
            });
            let stats = shared.stats();
            assert_eq!(
                stats.inserts,
                stats.removals() + shared.len() as u64,
                "seed {seed} noise={noise}: conservation violated"
            );
            (answers, stats)
        };
        let (quiet, quiet_stats) = run(false);
        let (noisy, noisy_stats) = run(true);
        assert!(
            noisy_stats.inserts > quiet_stats.inserts && noisy_stats.hits > quiet_stats.hits,
            "seed {seed}: the noise threads did no work"
        );
        for (step, (q, n)) in quiet.iter().zip(&noisy).enumerate() {
            assert_eq!(
                q, n,
                "seed {seed} step {step}: noise changed the answer to {:?}",
                workload[step].1
            );
        }
    }
}
