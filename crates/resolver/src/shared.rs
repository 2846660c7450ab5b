//! The concurrent model of the cache: sharded-lock segments over the
//! same [`CacheCore`] state machine the resolver's
//! [`Cache`](crate::Cache) runs.
//!
//! The paper's open-resolver populations (Google DNS, OpenDNS) share
//! one cache across many client threads. [`SharedCache`] models that
//! topology: a power-of-two array of mutex-guarded segments, each a
//! [`CacheCore`] with its own stats (and, when the cache is bounded, its
//! own expiry index), with keys routed by the interned [`Name`]'s
//! precomputed case-folded hash.
//!
//! It is not a resolver backend. A
//! [`RecursiveResolver`](crate::RecursiveResolver) holds a `Cache`:
//! inside a cell the determinism contract runs every resolver on one
//! thread, and how many clients fill a cache — the thing the paper's
//! hit rates turn on — does not depend on how the cache is locked
//! (DESIGN.md §14). `SharedCache` is driven directly: by the
//! differential suites that hold it to `Cache` per segment, and by
//! `repro shared-cache`'s contention arm.
//!
//! # Determinism and the proof strategy
//!
//! Segments are fully independent: an operation touches exactly one
//! segment (except `purge_expired`, `invalidate_zone`, `clear`, and
//! whole-cache reads, which visit segments one at a time *in index
//! order*). Two consequences the differential harness
//! (`tests/concurrent_equivalence.rs`) builds on:
//!
//! * a single-threaded replay of a workload through a `SharedCache` is
//!   byte-equivalent, per segment, to replaying each segment's
//!   subsequence through a sequential [`Cache`] of the segment's
//!   capacity — same answers, same victim sequence, same ledger;
//! * threads that own disjoint segment sets commute: free-running
//!   execution reaches the same final state, per-segment victim
//!   sequence, and summed stats as the sequential replay, whatever the
//!   interleaving.
//!
//! The eviction tie-break, per segment, is the documented core order:
//! `(expires_at, canonical name order, type code)`.
//!
//! # Ledger ops under concurrency
//!
//! The `Rc`-based telemetry handle cannot cross threads, so the shared
//! cache journals through its own lock-free append: a preallocated
//! slot array claimed by an atomic reservation index ([`OpLog`]).
//! Appends happen while the owning segment's lock is held, so each
//! segment's ops appear in the log in true operation order; the §8
//! conservation law (`inserts == removals + live`) holds per segment
//! and therefore for the summed [`CacheStats`].

use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{SimDuration, SimTime};
use dnsttl_telemetry::CacheOp;
use dnsttl_wire::name::NameKey;
use dnsttl_wire::{Name, RRset, Rcode, RecordType, Ttl};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::cache::{CacheCore, CachedAnswer, Credibility, OpSink};
use crate::ledger::{CacheStats, Ledger, Provenance, StoreContext};
use crate::snapshot::CacheSnapshot;

/// Default op-log capacity: matches the telemetry journal's default so
/// a replayed ledger never drops lines the log kept.
pub const DEFAULT_OP_LOG_CAPACITY: usize = dnsttl_telemetry::DEFAULT_JOURNAL_CAPACITY;

/// One journalled cache transaction, as captured under a segment lock.
#[derive(Debug, Clone)]
struct SharedOp {
    now: SimTime,
    segment: u32,
    op: CacheOp,
    name: Name,
    rtype: RecordType,
    ttl: Ttl,
    rank: Credibility,
    prov: Provenance,
    residency_ms: Option<u64>,
    fingerprint: u64,
}

/// Lock-free append-only op journal: slots are claimed by a relaxed
/// `fetch_add` on the reservation index and published through
/// `OnceLock::set`, so appends never block each other and never block
/// a reader. Overflow increments `dropped` instead of wrapping — the
/// doctor-style checks assert `dropped == 0` before trusting a replay.
#[derive(Debug)]
struct OpLog {
    slots: Box<[OnceLock<SharedOp>]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl OpLog {
    fn with_capacity(capacity: usize) -> OpLog {
        let slots: Vec<OnceLock<SharedOp>> =
            (0..capacity.max(1)).map(|_| OnceLock::new()).collect();
        OpLog {
            slots: slots.into_boxed_slice(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn append(&self, op: SharedOp) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Each index is claimed exactly once, so the set cannot race.
        let _ = self.slots[idx].set(op);
    }

    fn len(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.slots.len())
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Recorded ops in append order. Slots still being written by a
    /// racing thread read as absent and are skipped — quiesced callers
    /// (joined threads) always see every op.
    fn iter(&self) -> impl Iterator<Item = &SharedOp> {
        self.slots[..self.len()].iter().filter_map(OnceLock::get)
    }
}

/// The [`OpSink`] a segment operation runs under: the segment's own
/// stats (borrowed through its lock) plus the shared lock-free log.
struct SharedSink<'a> {
    stats: &'a mut CacheStats,
    log: Option<&'a OpLog>,
    segment: u32,
}

impl OpSink for SharedSink<'_> {
    fn stats(&mut self) -> &mut CacheStats {
        self.stats
    }

    fn note(
        &mut self,
        now: SimTime,
        op: CacheOp,
        rrset: &RRset,
        rank: Credibility,
        prov: Provenance,
        residency_ms: Option<u64>,
        fingerprint: u64,
    ) {
        let Some(log) = self.log else { return };
        log.append(SharedOp {
            now,
            segment: self.segment,
            op,
            name: rrset.name.clone(),
            rtype: rrset.rtype,
            ttl: rrset.ttl,
            rank,
            prov,
            residency_ms,
            fingerprint,
        });
    }
}

/// One locked shard: a sequential core plus its always-on counters.
#[derive(Debug)]
struct Segment {
    core: CacheCore,
    stats: CacheStats,
}

/// A concurrent, segment-locked cache sharing the sequential engine's
/// replacement/expiry/eviction logic verbatim. All methods take
/// `&self`; locking is internal and per segment, so threads contend
/// only when they touch names hashing to the same shard.
#[derive(Debug)]
pub struct SharedCache {
    segments: Box<[Mutex<Segment>]>,
    /// `segment_count − 1`; the count is a power of two, so the hash
    /// masks straight into an index.
    mask: u64,
    /// Allocated on `enable_ledger`; absent = journalling off.
    log: OnceLock<OpLog>,
}

impl SharedCache {
    /// An unbounded shared cache with `segments` lock shards (rounded
    /// up to a power of two, clamped to `[1, 256]`).
    pub fn new(segments: usize) -> SharedCache {
        SharedCache::build(segments, None)
    }

    /// A shared cache bounded to ~`capacity` positive entries total,
    /// split evenly across segments (each shard gets
    /// `ceil(capacity / segments)`, minimum 1).
    pub fn with_capacity(segments: usize, capacity: usize) -> SharedCache {
        SharedCache::build(segments, Some(capacity))
    }

    fn build(segments: usize, capacity: Option<usize>) -> SharedCache {
        let count = segments.clamp(1, 256).next_power_of_two();
        let per_segment = capacity.map(|c| c.max(1).div_ceil(count));
        let segments: Vec<Mutex<Segment>> = (0..count)
            .map(|_| {
                Mutex::new(Segment {
                    core: CacheCore::new(per_segment),
                    stats: CacheStats::default(),
                })
            })
            .collect();
        SharedCache {
            segments: segments.into_boxed_slice(),
            mask: (count - 1) as u64,
            log: OnceLock::new(),
        }
    }

    /// Number of lock segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment a name's keys live in: the interned name's
    /// precomputed case-folded FNV-1a hash, masked. Public so
    /// differential harnesses can compose a per-segment oracle with
    /// the same routing.
    pub fn segment_of(&self, name: &Name) -> usize {
        (name.folded_hash() & self.mask) as usize
    }

    fn lock(&self, index: usize) -> MutexGuard<'_, Segment> {
        self.segments[index]
            .lock()
            .expect("cache segment lock poisoned")
    }

    fn lock_for(&self, name: &dyn NameKey) -> (MutexGuard<'_, Segment>, u32) {
        // As `segment_of`, for any borrowed form of the name.
        let idx = (name.folded_hash() & self.mask) as usize;
        (self.lock(idx), idx as u32)
    }

    /// Turns on the op journal: every transaction from here on is
    /// appended to the lock-free log and replayable as a [`Ledger`].
    /// `&self` on purpose — threads hold the cache behind an `Arc`.
    pub fn enable_ledger(&self) {
        self.log
            .get_or_init(|| OpLog::with_capacity(DEFAULT_OP_LOG_CAPACITY));
    }

    /// Ops that overflowed the journal (0 unless the log filled up).
    pub fn ledger_dropped(&self) -> u64 {
        self.log.get().map(OpLog::dropped).unwrap_or(0)
    }

    /// Replays the op log into a [`Ledger`] and runs `f` against it,
    /// if journalling is on. Op order is global append order: exact
    /// per segment; across segments it is whatever interleaving
    /// actually executed (deterministic only for deterministic
    /// schedules). Call with threads quiesced for a complete view.
    pub fn with_ledger<T>(&self, f: impl FnOnce(&Ledger) -> T) -> Option<T> {
        let log = self.log.get()?;
        let ledger = self.replay(log, None);
        Some(f(&ledger))
    }

    /// The replayed ledger for one segment's ops only — per-segment
    /// order is true operation order, so this is byte-comparable
    /// against a sequential oracle driven with the same subsequence.
    pub fn segment_ledger(&self, segment: usize) -> Option<Ledger> {
        let log = self.log.get()?;
        Some(self.replay(log, Some(segment as u32)))
    }

    fn replay(&self, log: &OpLog, segment: Option<u32>) -> Ledger {
        let mut ledger = Ledger::with_journal_capacity(DEFAULT_OP_LOG_CAPACITY);
        for op in log.iter() {
            if segment.is_some_and(|s| s != op.segment) {
                continue;
            }
            // A shell RRset carries everything a ledger record reads:
            // the shared name buffer, the type, and the effective TTL.
            let shell = RRset {
                name: op.name.clone(),
                rtype: op.rtype,
                ttl: op.ttl,
                rdatas: vec![],
            };
            ledger.record(
                op.now,
                op.op,
                &shell,
                op.rank,
                &op.prov,
                op.residency_ms,
                op.fingerprint,
            );
        }
        ledger
    }

    fn sink<'a>(stats: &'a mut CacheStats, log: Option<&'a OpLog>, segment: u32) -> SharedSink<'a> {
        SharedSink {
            stats,
            log,
            segment,
        }
    }

    /// See [`crate::Cache::store`].
    pub fn store(
        &self,
        rrset: RRset,
        rank: Credibility,
        now: SimTime,
        policy: &ResolverPolicy,
        pinned: bool,
    ) {
        self.store_with(rrset, rank, now, policy, pinned, StoreContext::default());
    }

    /// See [`crate::Cache::store_with`].
    pub fn store_with(
        &self,
        rrset: RRset,
        rank: Credibility,
        now: SimTime,
        policy: &ResolverPolicy,
        pinned: bool,
        ctx: StoreContext,
    ) {
        let (mut seg, idx) = self.lock_for(&rrset.name);
        let Segment { core, stats } = &mut *seg;
        let mut sink = SharedCache::sink(stats, self.log.get(), idx);
        core.store_with(rrset, rank, now, policy, pinned, ctx, &mut sink);
    }

    /// See [`crate::Cache::get`].
    pub fn get(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        let (mut seg, idx) = self.lock_for(name);
        let Segment { core, stats } = &mut *seg;
        let mut sink = SharedCache::sink(stats, self.log.get(), idx);
        core.get(name, rtype, now, &mut sink)
    }

    /// See [`crate::Cache::get_stale`].
    pub fn get_stale(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        max_stale: Ttl,
    ) -> Option<CachedAnswer> {
        let (mut seg, idx) = self.lock_for(name);
        let Segment { core, stats } = &mut *seg;
        let mut sink = SharedCache::sink(stats, self.log.get(), idx);
        core.get_stale(name, rtype, now, max_stale, &mut sink)
    }

    /// See [`crate::Cache::store_negative`].
    #[allow(clippy::too_many_arguments)]
    pub fn store_negative(
        &self,
        name: Name,
        rtype: RecordType,
        rcode: Rcode,
        soa_minimum: Ttl,
        soa_ttl: Ttl,
        now: SimTime,
        policy: &ResolverPolicy,
    ) {
        let (mut seg, _) = self.lock_for(&name);
        seg.core
            .store_negative(name, rtype, rcode, soa_minimum, soa_ttl, now, policy);
    }

    /// See [`crate::Cache::store_failure`].
    pub fn store_failure(&self, name: Name, rtype: RecordType, ttl: Ttl, now: SimTime) {
        let (mut seg, idx) = self.lock_for(&name);
        let Segment { core, stats } = &mut *seg;
        let mut sink = SharedCache::sink(stats, self.log.get(), idx);
        core.store_failure(name, rtype, ttl, now, &mut sink);
    }

    /// See [`crate::Cache::get_negative`].
    pub fn get_negative(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Rcode> {
        let (seg, _) = self.lock_for(name);
        seg.core.get_negative(name, rtype, now)
    }

    /// See [`crate::Cache::invalidate`].
    pub fn invalidate(&self, name: &Name, rtype: RecordType, now: SimTime) -> bool {
        let (mut seg, idx) = self.lock_for(name);
        let Segment { core, stats } = &mut *seg;
        let mut sink = SharedCache::sink(stats, self.log.get(), idx);
        core.invalidate(name, rtype, now, &mut sink)
    }

    /// See [`crate::Cache::invalidate_zone`]. Segments are visited one
    /// at a time in index order; within each segment victims die in
    /// canonical name order under that segment's lock. Each victim is
    /// counted exactly once (as an invalidation) even when an expiry
    /// purge races on another thread: whichever side takes the segment
    /// lock first removes the entry, and the loser no longer sees it.
    pub fn invalidate_zone(&self, apex: &Name, now: SimTime) -> usize {
        let mut total = 0;
        for idx in 0..self.segments.len() {
            let mut seg = self.lock(idx);
            let Segment { core, stats } = &mut *seg;
            let mut sink = SharedCache::sink(stats, self.log.get(), idx as u32);
            total += core.invalidate_zone(apex, now, &mut sink);
        }
        total
    }

    /// See [`crate::Cache::purge_expired`]. Per-segment, in index
    /// order, each under its own lock — the removal-cause audit mirror
    /// of [`SharedCache::invalidate_zone`].
    pub fn purge_expired(&self, now: SimTime) {
        for idx in 0..self.segments.len() {
            let mut seg = self.lock(idx);
            let Segment { core, stats } = &mut *seg;
            let mut sink = SharedCache::sink(stats, self.log.get(), idx as u32);
            core.purge_expired(now, &mut sink);
        }
    }

    /// See [`crate::Cache::expired_since`].
    pub fn expired_since(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<SimDuration> {
        let (seg, _) = self.lock_for(name);
        seg.core.expired_since(name, rtype, now)
    }

    /// See [`crate::Cache::freshness`].
    pub fn freshness(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<f64> {
        let (seg, _) = self.lock_for(name);
        seg.core.freshness(name, rtype, now)
    }

    /// Number of positive entries across all segments.
    pub fn len(&self) -> usize {
        (0..self.segments.len())
            .map(|i| self.lock(i).core.len())
            .sum()
    }

    /// True if no segment holds a positive entry.
    pub fn is_empty(&self) -> bool {
        (0..self.segments.len()).all(|i| self.lock(i).core.is_empty())
    }

    /// Summed per-segment counters. Each segment's counts obey the §8
    /// conservation law under its own lock, so the sums do too —
    /// whatever the thread interleaving was.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.segments.len() {
            total.absorb(&self.lock(i).stats);
        }
        total
    }

    /// One segment's counters (differential harnesses).
    pub fn segment_stats(&self, segment: usize) -> CacheStats {
        self.lock(segment).stats
    }

    /// One segment's positive-entry count (differential harnesses).
    pub fn segment_len(&self, segment: usize) -> usize {
        self.lock(segment).core.len()
    }

    /// See [`crate::Cache::clear`].
    pub fn clear(&self) {
        for idx in 0..self.segments.len() {
            let mut seg = self.lock(idx);
            let Segment { core, stats } = &mut *seg;
            let mut sink = SharedCache::sink(stats, self.log.get(), idx as u32);
            core.clear(&mut sink);
        }
    }

    /// Freezes the positive contents of every segment into one
    /// deterministic sorted dump — same format and sort order as the
    /// sequential engine's [`crate::Cache::snapshot`].
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot {
        let mut entries = Vec::new();
        for idx in 0..self.segments.len() {
            let seg = self.lock(idx);
            entries.extend(crate::snapshot::snapshot_entries(
                seg.core.iter_entries(),
                now,
            ));
        }
        entries.sort_by_key(|a| a.key());
        CacheSnapshot {
            at_ms: now.as_millis(),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_wire::RData;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a_rrset(name: &str, ttl: u32, last: u8) -> RRset {
        RRset {
            name: n(name),
            rtype: RecordType::A,
            ttl: Ttl::from_secs(ttl),
            rdatas: vec![RData::A(std::net::Ipv4Addr::new(192, 0, 2, last))],
        }
    }

    #[test]
    fn segment_count_rounds_to_power_of_two() {
        assert_eq!(SharedCache::new(1).segment_count(), 1);
        assert_eq!(SharedCache::new(3).segment_count(), 4);
        assert_eq!(SharedCache::new(8).segment_count(), 8);
        assert_eq!(SharedCache::new(300).segment_count(), 256);
        assert_eq!(SharedCache::new(0).segment_count(), 1);
    }

    #[test]
    fn routing_is_case_insensitive_and_stable() {
        let c = SharedCache::new(8);
        assert_eq!(c.segment_of(&n("A.Nic.UY")), c.segment_of(&n("a.nic.uy")));
    }

    #[test]
    fn store_get_round_trip_across_segments() {
        let c = SharedCache::new(8);
        let policy = ResolverPolicy::default();
        for i in 0..64u8 {
            c.store(
                a_rrset(&format!("w{i}.pool.example"), 300, i),
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy,
                false,
            );
        }
        assert_eq!(c.len(), 64);
        for i in 0..64u8 {
            let got = c
                .get(
                    &n(&format!("w{i}.pool.example")),
                    RecordType::A,
                    SimTime::from_secs(100),
                )
                .expect("stored entry");
            assert_eq!(got.rrset.ttl.as_secs(), 200);
        }
        assert_eq!(c.stats().hits, 64);
        assert_eq!(c.stats().inserts, 64);
    }

    #[test]
    fn ledger_replay_conserves_and_counts() {
        let c = SharedCache::with_capacity(4, 16);
        c.enable_ledger();
        let policy = ResolverPolicy::default();
        for i in 0..40u8 {
            c.store(
                a_rrset(&format!("w{i}.pool.example"), 60 + i as u32, i),
                Credibility::AuthAnswer,
                SimTime::from_secs(i as u64),
                &policy,
                false,
            );
        }
        c.purge_expired(SimTime::from_secs(600));
        let stats = c.stats();
        assert_eq!(stats.inserts, stats.removals() + c.len() as u64);
        assert_eq!(c.ledger_dropped(), 0);
        let (inserts, expiries, evictions) = c
            .with_ledger(|l| {
                let mut i = 0;
                let mut x = 0;
                let mut v = 0;
                for r in l.journal().records() {
                    match r.op {
                        CacheOp::Insert => i += 1,
                        CacheOp::Expire => x += 1,
                        CacheOp::Evict => v += 1,
                        _ => {}
                    }
                }
                (i, x, v)
            })
            .expect("ledger on");
        assert_eq!(inserts, stats.inserts);
        assert_eq!(expiries, stats.expiries);
        assert_eq!(evictions, stats.evictions);
    }

    #[test]
    fn snapshot_matches_sequential_format() {
        let shared = SharedCache::new(4);
        let mut seq = crate::Cache::new();
        let policy = ResolverPolicy::default();
        for i in 0..12u8 {
            let rr = a_rrset(&format!("w{i}.pool.example"), 300, i);
            shared.store(
                rr.clone(),
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy,
                false,
            );
            seq.store(rr, Credibility::AuthAnswer, SimTime::ZERO, &policy, false);
        }
        let at = SimTime::from_secs(30);
        assert_eq!(shared.snapshot(at).to_jsonl(), seq.snapshot(at).to_jsonl());
    }
}
