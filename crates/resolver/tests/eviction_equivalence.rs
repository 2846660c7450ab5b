//! Differential harness for the expiry-indexed eviction path.
//!
//! The cache's victim selection used to be a linear scan over the whole
//! entry table; it is now an ordered-index pop (`BTreeSet::pop_first`).
//! This test retains the linear scan as a *shadow oracle* and drives
//! both through 20k-step seeded workloads of stores, clock advances,
//! purges and invalidations, asserting that
//!
//! * the indexed cache evicts the **identical victim sequence** the
//!   linear scan selects — same keys, same order, for every seed — and
//! * after the full workload the surviving key set matches the oracle's
//!   exactly.
//!
//! The oracle implements the victim spec directly: the unpinned entry
//! minimising `(expires_at, name, rtype code)` under canonical `Name`
//! order. Any divergence in the incremental index maintenance
//! (store/refresh moving an expiry, invalidation dropping one, purge
//! popping a prefix) shows up as a sequence mismatch here.

use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimDuration, SimRng, SimTime};
use dnsttl_resolver::{Cache, Credibility};
use dnsttl_telemetry::CacheOp;
use dnsttl_wire::{Name, RData, RRset, RecordType, Ttl};

const CAPACITY: usize = 32;
const STEPS: usize = 20_000;
const SEEDS: u64 = 4;

/// Shadow cache entry: just enough state to replay victim selection.
#[derive(Debug, Clone)]
struct ShadowEntry {
    name: Name,
    rtype: RecordType,
    expires_at: SimTime,
    pinned: bool,
}

/// The retained linear-scan model of the bounded cache.
#[derive(Debug, Default)]
struct Oracle {
    entries: Vec<ShadowEntry>,
    evicted: Vec<(String, String)>,
}

impl Oracle {
    fn position(&self, name: &Name, rtype: RecordType) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.name == *name && e.rtype == rtype)
    }

    /// The old victim search, verbatim in spirit: scan every entry,
    /// keep the unpinned minimum by `(expires_at, name, type code)`.
    fn linear_scan_victim(&self) -> Option<usize> {
        let mut best: Option<(usize, (SimTime, Name, u16))> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.pinned {
                continue;
            }
            let key = (e.expires_at, e.name.clone(), e.rtype.code());
            if best.as_ref().map(|(_, b)| key < *b).unwrap_or(true) {
                best = Some((i, key));
            }
        }
        best.map(|(i, _)| i)
    }

    fn store(&mut self, name: &Name, rtype: RecordType, ttl: u32, now: SimTime, pinned: bool) {
        let expires_at = now + SimDuration::from_secs(ttl as u64);
        if let Some(i) = self.position(name, rtype) {
            self.entries[i].expires_at = expires_at;
            self.entries[i].pinned = pinned;
            return;
        }
        if self.entries.len() >= CAPACITY {
            if let Some(victim) = self.linear_scan_victim() {
                let v = self.entries.remove(victim);
                self.evicted.push((v.name.to_string(), v.rtype.to_string()));
            }
        }
        self.entries.push(ShadowEntry {
            name: name.clone(),
            rtype,
            expires_at,
            pinned,
        });
    }

    fn invalidate(&mut self, name: &Name, rtype: RecordType) {
        if let Some(i) = self.position(name, rtype) {
            self.entries.remove(i);
        }
    }

    fn purge_expired(&mut self, now: SimTime) {
        self.entries.retain(|e| e.pinned || e.expires_at > now);
    }
}

fn rrset(name: &Name, rtype: RecordType, ttl: u32, variant: u8) -> RRset {
    let rdata = match rtype {
        RecordType::A => RData::A(std::net::Ipv4Addr::new(192, 0, 2, variant)),
        RecordType::NS => {
            RData::Ns(Name::parse(&format!("ns{variant}.example")).expect("valid ns host"))
        }
        other => panic!("workload does not use {other:?}"),
    };
    RRset {
        name: name.clone(),
        rtype,
        ttl: Ttl::from_secs(ttl),
        rdatas: vec![rdata],
    }
}

/// A name pool with depth and case variety so the canonical-order
/// tie-break actually gets exercised (equal expiry is common: TTLs
/// are drawn from a small set and the clock moves in whole steps).
fn name_pool() -> Vec<Name> {
    (0..48)
        .map(|i| {
            let s = match i % 4 {
                0 => format!("h{i:02}.example"),
                1 => format!("H{i:02}.Example"),
                2 => format!("deep.h{i:02}.sub.example"),
                _ => format!("h{i:02}.other-zone.test"),
            };
            Name::parse(&s).expect("pool name is valid")
        })
        .collect()
}

const TTLS: [u32; 6] = [30, 60, 60, 300, 300, 3_600];

#[test]
fn indexed_eviction_matches_linear_scan_oracle() {
    let policy = ResolverPolicy::default();
    let names = name_pool();
    let rtypes = [RecordType::A, RecordType::NS];
    let ttls = TTLS;

    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xE71C_7000 + seed);
        let mut cache = Cache::with_capacity(CAPACITY);
        cache.enable_ledger();
        let mut oracle = Oracle::default();
        let mut now = SimTime::ZERO;

        for step in 0..STEPS {
            match rng.below(10) {
                0..=5 => {
                    let name = &names[rng.below(names.len() as u64) as usize];
                    let rtype = rtypes[rng.below(2) as usize];
                    let ttl = ttls[rng.below(ttls.len() as u64) as usize];
                    let variant = rng.below(4) as u8 + 1;
                    // A small pinned population that must never be
                    // selected by either victim search.
                    let pinned = rng.below(40) == 0;
                    cache.store(
                        rrset(name, rtype, ttl, variant),
                        Credibility::AuthAnswer,
                        now,
                        &policy,
                        pinned,
                    );
                    oracle.store(name, rtype, ttl, now, pinned);
                }
                6..=7 => {
                    now += SimDuration::from_secs(1 + rng.below(90));
                }
                8 => {
                    cache.purge_expired(now);
                    oracle.purge_expired(now);
                }
                _ => {
                    let name = &names[rng.below(names.len() as u64) as usize];
                    let rtype = rtypes[rng.below(2) as usize];
                    cache.invalidate(name, rtype, now);
                    oracle.invalidate(name, rtype);
                }
            }
            assert_eq!(
                cache.len(),
                oracle.entries.len(),
                "seed {seed} step {step}: live entry counts diverged"
            );
        }

        // The ledger journal is the cache's own record of who was
        // evicted, in order. It must not have wrapped, or the
        // comparison below would silently skip early victims.
        let (evicts, dropped) = cache
            .with_ledger(|l| {
                let evicts: Vec<(String, String)> = l
                    .journal()
                    .records()
                    .filter(|r| r.op == CacheOp::Evict)
                    .map(|r| (r.name.to_string(), r.rtype.to_string()))
                    .collect();
                (evicts, l.journal().dropped())
            })
            .expect("ledger enabled");
        assert_eq!(dropped, 0, "seed {seed}: journal wrapped; grow it");
        assert_eq!(
            cache.evictions(),
            oracle.evicted.len() as u64,
            "seed {seed}: eviction counts diverged"
        );
        assert!(
            !oracle.evicted.is_empty(),
            "seed {seed}: workload never filled the cache — not a useful run"
        );
        assert_eq!(
            evicts, oracle.evicted,
            "seed {seed}: indexed eviction picked a different victim sequence \
             than the linear-scan oracle"
        );

        // Full surviving-key-set equivalence, probed through the public
        // read API: an entry is present iff it serves fresh or reports
        // an expiry age (pinned entries always serve).
        for name in &names {
            for rtype in rtypes {
                let in_cache = cache.get(name, rtype, now).is_some()
                    || cache.expired_since(name, rtype, now).is_some();
                let in_oracle = oracle.position(name, rtype).is_some();
                assert_eq!(
                    in_cache, in_oracle,
                    "seed {seed}: presence of ({name}, {rtype:?}) diverged"
                );
            }
        }
    }
}

/// An unbounded cache keeps no expiry index; a bounded one does. With
/// the bound above the tape's working set (48 names × 2 types) nothing
/// is ever evicted, so the index may change nothing anyone can see:
/// every answer served, the counters, the snapshot and the ledger —
/// whose purge lines come out of a table scan on one side and would
/// come out of index order on the other — are the same bytes.
#[test]
fn an_index_less_cache_is_the_indexed_cache_observably() {
    use Credibility::*;
    let policy = ResolverPolicy::default();
    let names = name_pool();
    let zones = ["example", "sub.example", "other-zone.test"].map(|z| Name::parse(z).unwrap());
    let rtypes = [RecordType::A, RecordType::NS];
    let ranks = [
        ReferralAdditional,
        ReferralAuthority,
        AuthAuthority,
        AuthAnswer,
    ];

    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x1DE7_1E55 + seed);
        let mut caches = [Cache::new(), Cache::with_capacity(4 * CAPACITY)];
        for cache in &mut caches {
            cache.enable_ledger();
        }
        let mut now = SimTime::ZERO;

        for step in 0..STEPS {
            let name = &names[rng.below(names.len() as u64) as usize];
            let rtype = rtypes[rng.below(2) as usize];
            match rng.below(1_000) {
                0..=399 => {
                    let ttl = TTLS[rng.below(TTLS.len() as u64) as usize];
                    let set = rrset(name, rtype, ttl, rng.below(4) as u8 + 1);
                    let rank = ranks[rng.below(4) as usize];
                    let pinned = rng.below(40) == 0;
                    for cache in &mut caches {
                        cache.store(set.clone(), rank, now, &policy, pinned);
                    }
                }
                400..=549 => now += SimDuration::from_secs(1 + rng.below(20)),
                550..=799 => {
                    let [a, b] = caches
                        .each_ref()
                        .map(|c| c.get(name, rtype, now).map(|h| (h.rrset, h.rank)));
                    assert_eq!(a, b, "seed {seed} step {step}: fresh answer");
                }
                800..=874 => {
                    let [a, b] = caches.each_ref().map(|c| {
                        c.get_stale(name, rtype, now, Ttl::from_secs(600))
                            .map(|h| (h.rrset, h.stale))
                    });
                    assert_eq!(a, b, "seed {seed} step {step}: stale answer");
                    let [a, b] = caches.each_ref().map(|c| c.expired_since(name, rtype, now));
                    assert_eq!(a, b, "seed {seed} step {step}: expiry age");
                }
                875..=924 => {
                    for cache in &mut caches {
                        cache.purge_expired(now);
                    }
                }
                925..=984 => {
                    let [a, b] = caches.each_mut().map(|c| c.invalidate(name, rtype, now));
                    assert_eq!(a, b, "seed {seed} step {step}: invalidate");
                }
                985..=996 => {
                    let zone = &zones[rng.below(3) as usize];
                    let [a, b] = caches.each_mut().map(|c| c.invalidate_zone(zone, now));
                    assert_eq!(a, b, "seed {seed} step {step}: invalidate_zone");
                }
                _ => {
                    for cache in &mut caches {
                        cache.clear();
                    }
                }
            }
        }

        let [unbounded, bounded] = &caches;
        let stats = unbounded.stats();
        assert_eq!(stats, bounded.stats(), "seed {seed}");
        assert_eq!((unbounded.evictions(), bounded.evictions()), (0, 0));
        assert!(
            stats.hits > 500
                && stats.stale_hits > 20
                && stats.expiries > 500
                && stats.invalidations > 500
                && stats.clears > 0,
            "seed {seed}: the tape reaches every kind of transaction: {stats:?}"
        );
        assert_eq!(
            unbounded.snapshot(now).to_jsonl(),
            bounded.snapshot(now).to_jsonl(),
            "seed {seed}"
        );
        let ledger = |c: &Cache| c.with_ledger(|l| l.journal().to_jsonl()).unwrap();
        assert!(ledger(unbounded).lines().count() > 5_000, "seed {seed}");
        assert_eq!(ledger(unbounded), ledger(bounded), "seed {seed}");
    }
}
