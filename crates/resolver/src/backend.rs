//! [`CacheEngine`]: the cache a resolver holds, and the one place the
//! cache surface is dispatched over its two implementations — the
//! sequential reference ([`Cache`]) and the concurrent segment-locked
//! backend ([`SharedCache`]).
//!
//! An enum, not a `dyn` object: `with_ledger` is generic, and enum
//! dispatch keeps the sequential hot path free of vtable calls. It
//! carries exactly the methods the resolver, the experiments, and the
//! bench harnesses call; differential suites drive `Cache` and
//! `SharedCache` directly.

use dnsttl_core::{CacheBackendChoice, ResolverPolicy};
use dnsttl_netsim::{SimDuration, SimTime};
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::name::NameKey;
use dnsttl_wire::{Name, RRset, Rcode, RecordType, Ttl};
use std::sync::Arc;

use crate::cache::{Cache, CachedAnswer, Credibility, Entry};
use crate::ledger::{CacheStats, Ledger, StoreContext};
use crate::shared::SharedCache;
use crate::snapshot::CacheSnapshot;

/// The cache a resolver holds: either the single-threaded
/// expiry-indexed oracle or the concurrent segment-locked backend,
/// picked by [`ResolverPolicy::cache_backend`]. Enum (not `dyn`)
/// dispatch — the sequential arm stays a direct call.
// One engine lives per resolver (never in collections), so the size
// skew between variants is irrelevant; boxing the sequential arm would
// put a pointer chase on the hot path instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CacheEngine {
    /// The sequential oracle: single-threaded, telemetry-wired.
    Sequential(Cache),
    /// The concurrent backend behind an `Arc` so client threads can
    /// hold the same cache the resolver serves from.
    Shared(Arc<SharedCache>),
}

impl CacheEngine {
    /// Builds the backend a policy asks for, honouring
    /// `cache_capacity` and `cache_segments`.
    pub fn from_policy(policy: &ResolverPolicy) -> CacheEngine {
        match policy.cache_backend {
            CacheBackendChoice::Sequential => {
                CacheEngine::Sequential(match policy.cache_capacity {
                    Some(capacity) => Cache::with_capacity(capacity),
                    None => Cache::new(),
                })
            }
            CacheBackendChoice::Shared => {
                CacheEngine::Shared(Arc::new(SharedCache::from_policy(policy)))
            }
        }
    }

    /// A cloneable handle to the shared backend, if that's the active
    /// backend — this is how client threads join the cache.
    pub fn shared(&self) -> Option<Arc<SharedCache>> {
        match self {
            CacheEngine::Sequential(_) => None,
            CacheEngine::Shared(cache) => Some(Arc::clone(cache)),
        }
    }

    /// Routes typed transaction events into `telemetry`. The shared
    /// backend journals through its own lock-free op log instead (the
    /// telemetry handle is single-threaded), so this is a no-op there.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let CacheEngine::Sequential(cache) = self {
            cache.set_telemetry(telemetry);
        }
    }

    /// See [`Cache::store`].
    pub fn store(
        &mut self,
        rrset: RRset,
        rank: Credibility,
        now: SimTime,
        policy: &ResolverPolicy,
        pinned: bool,
    ) {
        self.store_with(rrset, rank, now, policy, pinned, StoreContext::default());
    }

    /// See [`Cache::store_with`].
    pub fn store_with(
        &mut self,
        rrset: RRset,
        rank: Credibility,
        now: SimTime,
        policy: &ResolverPolicy,
        pinned: bool,
        ctx: StoreContext,
    ) {
        match self {
            CacheEngine::Sequential(c) => c.store_with(rrset, rank, now, policy, pinned, ctx),
            CacheEngine::Shared(c) => c.store_with(rrset, rank, now, policy, pinned, ctx),
        }
    }

    /// See [`Cache::get`].
    pub fn get(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        match self {
            CacheEngine::Sequential(c) => c.get(name, rtype, now),
            CacheEngine::Shared(c) => c.get(name, rtype, now),
        }
    }

    /// [`CacheEngine::get`] without the clone: `f` reads the fresh
    /// entry in place and must not re-enter the cache (see
    /// [`Cache::read`], [`SharedCache::read`]).
    pub(crate) fn read<T>(
        &self,
        name: &dyn NameKey,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(&Entry, Ttl) -> T,
    ) -> Option<T> {
        match self {
            CacheEngine::Sequential(c) => c.read(name, rtype, now, f),
            CacheEngine::Shared(c) => c.read(name, rtype, now, f),
        }
    }

    /// See [`Cache::get_stale`].
    pub fn get_stale(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        max_stale: Ttl,
    ) -> Option<CachedAnswer> {
        match self {
            CacheEngine::Sequential(c) => c.get_stale(name, rtype, now, max_stale),
            CacheEngine::Shared(c) => c.get_stale(name, rtype, now, max_stale),
        }
    }

    /// See [`Cache::store_negative`].
    #[allow(clippy::too_many_arguments)]
    pub fn store_negative(
        &mut self,
        name: Name,
        rtype: RecordType,
        rcode: Rcode,
        soa_minimum: Ttl,
        soa_ttl: Ttl,
        now: SimTime,
        policy: &ResolverPolicy,
    ) {
        match self {
            CacheEngine::Sequential(c) => {
                c.store_negative(name, rtype, rcode, soa_minimum, soa_ttl, now, policy)
            }
            CacheEngine::Shared(c) => {
                c.store_negative(name, rtype, rcode, soa_minimum, soa_ttl, now, policy)
            }
        }
    }

    /// See [`Cache::store_failure`].
    pub fn store_failure(&mut self, name: Name, rtype: RecordType, ttl: Ttl, now: SimTime) {
        match self {
            CacheEngine::Sequential(c) => c.store_failure(name, rtype, ttl, now),
            CacheEngine::Shared(c) => c.store_failure(name, rtype, ttl, now),
        }
    }

    /// See [`Cache::get_negative`].
    pub fn get_negative(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Rcode> {
        match self {
            CacheEngine::Sequential(c) => c.get_negative(name, rtype, now),
            CacheEngine::Shared(c) => c.get_negative(name, rtype, now),
        }
    }

    /// See [`Cache::purge_expired`].
    pub fn purge_expired(&mut self, now: SimTime) {
        match self {
            CacheEngine::Sequential(c) => c.purge_expired(now),
            CacheEngine::Shared(c) => c.purge_expired(now),
        }
    }

    /// See [`Cache::expired_since`].
    pub fn expired_since(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<SimDuration> {
        match self {
            CacheEngine::Sequential(c) => c.expired_since(name, rtype, now),
            CacheEngine::Shared(c) => c.expired_since(name, rtype, now),
        }
    }

    /// See [`Cache::freshness`].
    pub fn freshness(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<f64> {
        match self {
            CacheEngine::Sequential(c) => c.freshness(name, rtype, now),
            CacheEngine::Shared(c) => c.freshness(name, rtype, now),
        }
    }

    /// Number of positive entries (fresh and expired).
    pub fn len(&self) -> usize {
        match self {
            CacheEngine::Sequential(c) => c.len(),
            CacheEngine::Shared(c) => c.len(),
        }
    }

    /// True if the cache holds no positive entries.
    pub fn is_empty(&self) -> bool {
        match self {
            CacheEngine::Sequential(c) => c.is_empty(),
            CacheEngine::Shared(c) => c.is_empty(),
        }
    }

    /// The always-on transaction counts.
    pub fn stats(&self) -> CacheStats {
        match self {
            CacheEngine::Sequential(c) => c.stats(),
            CacheEngine::Shared(c) => c.stats(),
        }
    }

    /// Turns on op journalling for the active backend.
    pub fn enable_ledger(&mut self) {
        match self {
            CacheEngine::Sequential(c) => c.enable_ledger(),
            CacheEngine::Shared(c) => c.enable_ledger(),
        }
    }

    /// Runs `f` against the (possibly replayed) ledger, if enabled.
    pub fn with_ledger<T>(&self, f: impl FnOnce(&Ledger) -> T) -> Option<T> {
        match self {
            CacheEngine::Sequential(c) => c.with_ledger(f),
            CacheEngine::Shared(c) => c.with_ledger(f),
        }
    }

    /// See [`Cache::clear`].
    pub fn clear(&mut self) {
        match self {
            CacheEngine::Sequential(c) => c.clear(),
            CacheEngine::Shared(c) => c.clear(),
        }
    }

    /// Deterministic sorted dump of positive contents.
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot {
        match self {
            CacheEngine::Sequential(c) => c.snapshot(now),
            CacheEngine::Shared(c) => c.snapshot(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_wire::RData;

    fn policy_with(backend: CacheBackendChoice) -> ResolverPolicy {
        ResolverPolicy {
            cache_backend: backend,
            cache_capacity: Some(32),
            ..ResolverPolicy::default()
        }
    }

    fn a_rrset(name: &str, ttl: u32) -> RRset {
        RRset {
            name: Name::parse(name).unwrap(),
            rtype: RecordType::A,
            ttl: Ttl::from_secs(ttl),
            rdatas: vec![RData::A(std::net::Ipv4Addr::new(192, 0, 2, 1))],
        }
    }

    #[test]
    fn from_policy_picks_the_backend() {
        let seq = CacheEngine::from_policy(&policy_with(CacheBackendChoice::Sequential));
        assert!(matches!(seq, CacheEngine::Sequential(_)));
        assert!(seq.shared().is_none());

        let shared = CacheEngine::from_policy(&policy_with(CacheBackendChoice::Shared));
        let handle = shared.shared().expect("shared handle");
        assert_eq!(handle.segment_count(), 8);
    }

    #[test]
    fn engine_surface_matches_across_backends() {
        let mut policy = policy_with(CacheBackendChoice::Shared);
        let mut shared = CacheEngine::from_policy(&policy);
        policy.cache_backend = CacheBackendChoice::Sequential;
        let mut seq = CacheEngine::from_policy(&policy);

        for engine in [&mut seq, &mut shared] {
            engine.enable_ledger();
            engine.store(
                a_rrset("host.example", 120),
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy,
                false,
            );
            assert!(engine
                .get(
                    &Name::parse("host.example").unwrap(),
                    RecordType::A,
                    SimTime::from_secs(60)
                )
                .is_some());
            engine.purge_expired(SimTime::from_secs(600));
            assert_eq!(engine.len(), 0);
            let stats = engine.stats();
            assert_eq!(stats.inserts, stats.removals());
            assert_eq!(
                engine.with_ledger(|l| l.journal().records().count()),
                Some(3)
            );
        }
        assert_eq!(
            seq.snapshot(SimTime::from_secs(600)).to_jsonl(),
            shared.snapshot(SimTime::from_secs(600)).to_jsonl()
        );
    }

    /// `get` is the borrowed read plus a clone, on both engines: a
    /// seeded tape of stores, clock steps and lookups driven through
    /// `get` on one cache and through `read` on its twin returns the
    /// same TTL, rank, data and provenance at every step and leaves
    /// the same counters and the same ledger, line for line.
    #[test]
    fn borrowed_read_is_get_without_the_clone() {
        use Credibility::*;
        for backend in [CacheBackendChoice::Sequential, CacheBackendChoice::Shared] {
            let policy = ResolverPolicy {
                cache_capacity: Some(24),
                ..policy_with(backend)
            };
            let mut via_get = CacheEngine::from_policy(&policy);
            let mut via_read = CacheEngine::from_policy(&policy);
            via_get.enable_ledger();
            via_read.enable_ledger();
            let mut rng = dnsttl_netsim::SimRng::seed_from(0x0B04_40ED);
            let mut now = SimTime::ZERO;
            for _ in 0..4_000 {
                let name = Name::parse(&format!("h{}.example", rng.below(40))).unwrap();
                match rng.below(5) {
                    0 => now += SimDuration::from_secs(rng.below(120)),
                    1 | 2 => {
                        let rrset = RRset {
                            name,
                            rtype: RecordType::A,
                            ttl: Ttl::from_secs(30 + rng.below(600) as u32),
                            rdatas: vec![RData::A(std::net::Ipv4Addr::new(
                                192,
                                0,
                                2,
                                rng.below(3) as u8,
                            ))],
                        };
                        let rank = [
                            ReferralAdditional,
                            ReferralAuthority,
                            AuthAuthority,
                            AuthAnswer,
                        ][rng.below(4) as usize];
                        let pinned = rng.below(16) == 0;
                        for engine in [&mut via_get, &mut via_read] {
                            engine.store(rrset.clone(), rank, now, &policy, pinned);
                        }
                    }
                    _ => {
                        let got = via_get
                            .get(&name, RecordType::A, now)
                            .map(|a| (a.rrset.ttl, a.rank, a.rrset.rdatas, a.provenance));
                        let read = via_read.read(&name, RecordType::A, now, |e, ttl| {
                            (ttl, e.rank, e.rrset.rdatas.clone(), e.provenance)
                        });
                        assert_eq!(got, read, "{backend:?} at {now:?}");
                    }
                }
            }
            let stats = via_get.stats();
            assert_eq!(stats, via_read.stats(), "{backend:?}");
            assert!(
                stats.hits > 100 && stats.expiries > 0 && stats.evictions > 0,
                "the tape reaches hits, expiries and evictions: {stats:?}"
            );
            let lines = |engine: &CacheEngine| engine.with_ledger(|l| l.journal().to_jsonl());
            assert!(lines(&via_get).is_some_and(|text| text.lines().count() > 1_000));
            assert_eq!(lines(&via_get), lines(&via_read), "{backend:?}");
        }
    }
}
