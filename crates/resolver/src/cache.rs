//! The resolver cache: credibility-ranked, TTL-expiring, stale-capable.
//!
//! RFC 2181 §5.4.1 ranks DNS data by where it arrived: the answer
//! section of an authoritative response is worth more than the authority
//! section of a referral, which is worth more than glue from the
//! additional section. A cache must never let lower-ranked data replace
//! fresh higher-ranked data. The paper's parent-vs-child question is a
//! question about this ranking: *child-centric* resolvers apply it as
//! written; *parent-centric* resolvers in effect pin referral data above
//! the child's authoritative answers.
//!
//! # Structure
//!
//! One struct, [`Cache`]: an entry table and a negative table probed by
//! one cheap hash of a word the name already carries. Entries live by
//! their TTL alone, as the paper's caches do: nothing bounds the table's
//! size, so nothing is ever evicted and no expiry index is kept — reads
//! check freshness, and [`Cache::purge_expired`] drops what has lapsed.
//! Every transaction is accounted where it happens, by one function:
//! the always-on [`CacheStats`] counters, the opt-in provenance ledger
//! and the `Rc`-based telemetry handle that counts transaction kinds
//! sit together behind a `RefCell`, so the `&self` read path can record
//! serves. A cache belongs to one resolver on one thread (DESIGN.md
//! §14).

use dnsttl_core::{Centricity, ResolverPolicy};
use dnsttl_netsim::{SimDuration, SimTime};
use dnsttl_telemetry::{CacheOp, EventKind, Telemetry};
use dnsttl_wire::name::NameKey;
use dnsttl_wire::{Name, RRset, Rcode, RecordType, Ttl};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::ledger::{CacheStats, Ledger, Provenance, RecordOrigin, StoreContext};

/// Trustworthiness of cached data, descending (RFC 2181 §5.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Credibility {
    /// Glue / additional-section data from a referral. Lowest.
    ReferralAdditional,
    /// NS records from the authority section of a referral.
    ReferralAuthority,
    /// Data from the authority section of an authoritative answer.
    AuthAuthority,
    /// Data from the answer section of an authoritative (AA) answer.
    AuthAnswer,
}

/// One positive cache entry.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) rrset: RRset,
    pub(crate) stored_at: SimTime,
    pub(crate) expires_at: SimTime,
    pub(crate) rank: Credibility,
    /// True for entries a local-root (RFC 7706) resolver treats as a
    /// mirrored copy: served at full TTL, never expiring.
    pub(crate) pinned: bool,
    /// Where the entry came from (installing transaction, server,
    /// origin, bailiwick, published vs effective TTL).
    pub(crate) provenance: Provenance,
    /// TTL-excluded fingerprint of the RRset data — refresh vs
    /// overwrite detection, and the snapshot diff anchor.
    pub(crate) fingerprint: u64,
}

impl Entry {
    /// Servable as a fresh answer at `now`: pinned, or inside its TTL.
    fn is_fresh(&self, now: SimTime) -> bool {
        self.pinned || self.expires_at > now
    }

    /// The entry as handed out, carrying `ttl`.
    fn answer(&self, ttl: Ttl, stale: bool) -> CachedAnswer {
        CachedAnswer {
            rrset: RRset {
                ttl,
                ..self.rrset.clone()
            },
            rank: self.rank,
            stale,
            provenance: self.provenance,
        }
    }
}

/// One negative cache entry (RFC 2308).
#[derive(Debug, Clone)]
struct NegEntry {
    rcode: Rcode,
    expires_at: SimTime,
}

/// The lookup key of the entry and negative tables. Both are keyed on
/// an owned `(Name, RecordType)`, which borrows as `dyn TableKey`, so
/// `map.get(&Probe(name, rtype) as &dyn TableKey)` clones no name and
/// takes a borrowed [`NameSuffix`](dnsttl_wire::name::NameSuffix) as
/// readily as a `Name`.
trait TableKey {
    fn name(&self) -> &dyn NameKey;
    fn rtype(&self) -> RecordType;
}

impl TableKey for (Name, RecordType) {
    fn name(&self) -> &dyn NameKey {
        &self.0
    }
    fn rtype(&self) -> RecordType {
        self.1
    }
}

/// A borrowed `(name, type)` probe; see [`TableKey`].
struct Probe<'a>(&'a dyn NameKey, RecordType);

impl TableKey for Probe<'_> {
    fn name(&self) -> &dyn NameKey {
        self.0
    }
    fn rtype(&self) -> RecordType {
        self.1
    }
}

impl<'a> Borrow<dyn TableKey + 'a> for (Name, RecordType) {
    fn borrow(&self) -> &(dyn TableKey + 'a) {
        self
    }
}

// `Borrow` requires the borrowed form to compare and hash exactly as
// the owned tuple does: the derived tuple impls compare and hash the
// name, then the type, and `dyn NameKey` follows `Name`'s own rules.
impl PartialEq for dyn TableKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rtype() == other.rtype() && self.name() == other.name()
    }
}

impl Eq for dyn TableKey + '_ {}

impl Hash for dyn TableKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state);
        self.rtype().hash(state);
    }
}

/// The entry and negative tables: keyed on `(Name, RecordType)`, hashed
/// by [`KeyHasher`].
type KeyTable<V> = HashMap<(Name, RecordType), V, BuildHasherDefault<KeyHasher>>;

/// The hasher of a [`KeyTable`]. A key writes two words — the 64-bit
/// case-folded FNV-1a a `Name` (or a borrowed suffix of one) already
/// carries, then the type's discriminant — and each is folded in by one
/// rotate-xor-multiply, so a probe never rescans the name and pays no
/// SipHash rounds for it. The multiply is what hashbrown needs on top
/// of FNV: it takes the bucket from the low bits and the control byte
/// from the top seven, and the product carries every bit of the name
/// hash into the top ones.
///
/// Unkeyed, so not collision-resistant against chosen keys: the keys
/// are the simulator's own zones and campaigns, not an attacker's. As
/// a side effect a table's iteration order no longer differs between
/// runs (nothing may depend on it either way: every consumer sorts).
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for KeyHasher {
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    /// Whatever width the type's derived `Hash` writes.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cached RRset as handed to a client or to the iteration logic:
/// TTLs already decremented by the entry's age.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The RRset with remaining (decremented) TTL.
    pub rrset: RRset,
    /// Rank the data was stored under.
    pub rank: Credibility,
    /// True if the entry had expired and was served stale.
    pub stale: bool,
    /// Why this entry is in the cache: installing transaction, source
    /// server, parent/child origin, bailiwick class, published vs
    /// effective TTL.
    pub provenance: Provenance,
}

/// Where every transaction is accounted: the always-on counters, the
/// opt-in provenance ledger and the telemetry handle that counts each
/// transaction's kind. Behind a `RefCell` so the `&self` read path
/// ([`Cache::get`]) can record serves; a cache is single-threaded, so
/// the borrow is never contended.
#[derive(Debug, Default)]
struct CacheMeta {
    stats: CacheStats,
    ledger: Option<Box<Ledger>>,
    telemetry: Telemetry,
}

impl CacheMeta {
    /// Accounts one transaction on `e`: counts it, journals the ledger
    /// line if the ledger is on (every op but an install carries how
    /// long the entry had been resident), and counts its kind in the
    /// telemetry's event totals. The trace gets no row: it records
    /// queries, and a run that wants each transaction's provenance
    /// enables the ledger.
    fn record(&mut self, now: SimTime, op: CacheOp, e: &Entry) {
        match op {
            CacheOp::Insert => self.stats.inserts += 1,
            CacheOp::Refresh => self.stats.refreshes += 1,
            CacheOp::Overwrite => self.stats.overwrites += 1,
            CacheOp::Serve => self.stats.hits += 1,
            CacheOp::Expire => self.stats.expiries += 1,
            CacheOp::Invalidate => self.stats.invalidations += 1,
            CacheOp::StaleServe => self.stats.stale_hits += 1,
            // Failure caching holds no positive entry: no counter.
            CacheOp::NegCache => {}
        }
        if let Some(ledger) = self.ledger.as_mut() {
            let installs = matches!(op, CacheOp::Insert | CacheOp::Refresh | CacheOp::NegCache);
            let residency_ms = (!installs).then(|| now.since(e.stored_at).as_millis());
            ledger.record(
                now,
                op,
                &e.rrset,
                e.rank,
                &e.provenance,
                residency_ms,
                e.fingerprint,
            );
        }
        self.telemetry.count_event(event_kind(op));
    }
}

/// The cache proper — the one a resolver holds.
///
/// ```
/// use dnsttl_resolver::{Cache, Credibility};
/// use dnsttl_core::ResolverPolicy;
/// use dnsttl_netsim::SimTime;
/// use dnsttl_wire::{Name, RData, RRset, RecordType, Ttl};
///
/// let policy = ResolverPolicy::default();
/// let mut cache = Cache::new();
/// let name = Name::parse("a.nic.uy").unwrap();
/// let rrset = RRset {
///     name: name.clone(),
///     rtype: RecordType::A,
///     ttl: Ttl::from_secs(120),
///     rdatas: vec![RData::A("200.40.241.1".parse().unwrap())],
/// };
/// cache.store(rrset, Credibility::AuthAnswer, SimTime::ZERO, &policy, false);
/// // 50 s later the remaining TTL is 70 s…
/// let got = cache.get(&name, RecordType::A, SimTime::from_secs(50)).unwrap();
/// assert_eq!(got.rrset.ttl.as_secs(), 70);
/// // …and at 120 s it is gone.
/// assert!(cache.get(&name, RecordType::A, SimTime::from_secs(120)).is_none());
/// ```
#[derive(Debug, Default)]
pub struct Cache {
    entries: KeyTable<Entry>,
    negatives: KeyTable<NegEntry>,
    /// Stats (always), provenance ledger (opt-in), telemetry handle.
    meta: RefCell<CacheMeta>,
}

impl Cache {
    /// An empty cache.
    pub fn new() -> Cache {
        Cache::default()
    }

    /// [`Cache::new`]: no policy field shapes the table any more. Kept
    /// for `benchmark/`, which builds its stand-alone cache through it,
    /// until ROADMAP item 3(ii) moves that package off it.
    pub fn from_policy(_policy: &ResolverPolicy) -> Cache {
        Cache::new()
    }

    /// Counts the cache's transactions, by kind, into `telemetry`'s
    /// event totals (the manifest's `event_counts`). No transaction is
    /// traced; the ledger ([`Cache::enable_ledger`]) journals each one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.meta.get_mut().telemetry = telemetry;
    }

    /// Turns on the provenance ledger: every transaction from here on
    /// is journalled and aggregated per attribution cell. Off by
    /// default — the always-on path keeps only [`CacheStats`].
    pub fn enable_ledger(&mut self) {
        let meta = self.meta.get_mut();
        if meta.ledger.is_none() {
            meta.ledger = Some(Box::new(Ledger::new()));
        }
    }

    /// Runs `f` against the ledger, if enabled.
    pub fn with_ledger<T>(&self, f: impl FnOnce(&Ledger) -> T) -> Option<T> {
        self.meta.borrow().ledger.as_deref().map(f)
    }

    /// The always-on transaction counts.
    pub fn stats(&self) -> CacheStats {
        self.meta.borrow().stats
    }

    /// Iterates the positive entries (snapshot builders).
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Stores an RRset under `rank`, applying the policy's TTL clamp and
    /// replacement rules. `pinned` marks RFC 7706 mirrored data.
    ///
    /// Replacement rules (the crux of §3 and §4.2 of the paper):
    ///
    /// * expired entries are always replaced;
    /// * fresh entries are replaced by data of **equal or higher** rank
    ///   (RFC 2181 §5.4.1) — this is how re-fetched referral glue
    ///   carries a renumbered address into the cache at NS-expiry time,
    ///   producing the coupled NS/A lifetimes of §4.2;
    /// * a policy with `link_inbailiwick_glue = false` keeps fresh glue
    ///   instead of replacing it with *equal*-ranked glue — the minority
    ///   "trust my cache" behaviour visible as the slow-decaying old
    ///   server bars in Figure 6;
    /// * a **parent-centric** policy refuses to replace fresh
    ///   referral-ranked data with the child's authoritative data —
    ///   the referral is its truth (§3.2's 10%).
    ///
    /// Zero-TTL RRsets are not cached at all (§5.1.2: TTL 0 "undermines
    /// caching"), and any same-key negative entry is invalidated.
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

    /// [`Cache::store`] with provenance: the installing transaction id,
    /// the responding server, and the bailiwick class the resolution
    /// loop computed against the queried zone. Each accepted store is
    /// classified as an *insert* (key empty, or old entry removed with
    /// its own cause), a *refresh* (identical data — only the clock
    /// restarts; §4.2's NS-coupled glue refresh), or an *overwrite*
    /// (different data — e.g. a renumbering becoming visible).
    pub fn store_with(
        &mut self,
        rrset: RRset,
        rank: Credibility,
        now: SimTime,
        policy: &ResolverPolicy,
        pinned: bool,
        ctx: StoreContext,
    ) {
        let key = (rrset.name.clone(), rrset.rtype);
        // Empty unless something failed: answer before hashing.
        if !self.negatives.is_empty() {
            self.negatives.remove(&key);
        }
        let original_ttl = rrset.ttl;
        let ttl = policy.clamp_ttl(rrset.ttl);
        if ttl.is_zero() {
            self.meta.get_mut().stats.rejected_stores += 1;
            return;
        }
        let origin = if ctx.txn == 0 && ctx.server.is_none() {
            RecordOrigin::Seed
        } else {
            RecordOrigin::from_rank(rank)
        };
        let incoming = Entry {
            fingerprint: rrset.fingerprint(),
            rrset: RRset { ttl, ..rrset },
            stored_at: now,
            expires_at: now + ttl_span(ttl),
            rank,
            pinned,
            provenance: Provenance {
                txn: ctx.txn,
                server: ctx.server,
                origin,
                bailiwick: ctx.bailiwick,
                original_ttl,
                effective_ttl: ttl,
            },
        };
        let mut refresh = false;
        // One probe finds the entry this store replaces and the slot
        // it writes.
        let slot = self.entries.entry(key);
        if let hash_map::Entry::Occupied(occupied) = &slot {
            let existing = occupied.get();
            // Removal cause for the entry currently under the key.
            let displaced = if existing.is_fresh(now) {
                let rejected = existing.rank > rank // lower rank never displaces higher
                    || (policy.centricity == Centricity::ParentCentric
                        && existing.rank <= Credibility::ReferralAuthority
                        && rank >= Credibility::AuthAuthority) // referral data wins
                    || (!policy.link_inbailiwick_glue
                        && existing.rank == Credibility::ReferralAdditional
                        && rank == Credibility::ReferralAdditional); // keep cached glue
                if rejected {
                    self.meta.get_mut().stats.rejected_stores += 1;
                    return;
                }
                refresh = existing.fingerprint == incoming.fingerprint;
                (!refresh).then_some(CacheOp::Overwrite)
            } else {
                // Past its TTL: whatever replaces it, the old entry
                // died of expiry.
                Some(CacheOp::Expire)
            };
            // Journalled from the table, before the insert below
            // replaces it: the ledger reads `Expire`/`Overwrite` first.
            if let Some(cause) = displaced {
                self.meta.get_mut().record(now, cause, existing);
            }
        }
        let op = if refresh {
            CacheOp::Refresh
        } else {
            CacheOp::Insert
        };
        self.meta.get_mut().record(now, op, &incoming);
        slot.insert_entry(incoming);
    }

    /// Removes the entry under `(name, rtype)`, attributing the
    /// removal to an explicit invalidation — what an operator's cache
    /// flush after a renumbering does. Returns true if present.
    pub fn invalidate(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> bool {
        let Some(e) = self.entries.remove(&Probe(name, rtype) as &dyn TableKey) else {
            return false;
        };
        self.meta.get_mut().record(now, CacheOp::Invalidate, &e);
        true
    }

    /// Invalidates every positive entry at or below `apex` (the
    /// `rndc flushtree` analogue). Returns how many entries died.
    pub fn invalidate_zone(&mut self, apex: &Name, now: SimTime) -> usize {
        let mut victims: Vec<(Name, RecordType)> = self
            .entries
            .keys()
            .filter(|(n, _)| n.is_subdomain_of(apex))
            .cloned()
            .collect();
        // Deterministic ledger order regardless of HashMap layout —
        // canonical name order directly, no string formatting.
        victims.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.code().cmp(&b.1.code())));
        for (name, rtype) in &victims {
            self.invalidate(name, *rtype, now);
        }
        victims.len()
    }

    /// Counts the hit on a fresh entry, journals the serve and returns
    /// the entry's age-decremented TTL (its full TTL when pinned).
    fn serve(&self, e: &Entry, now: SimTime) -> Ttl {
        self.meta.borrow_mut().record(now, CacheOp::Serve, e);
        if e.pinned {
            e.rrset.ttl
        } else {
            let age = now.secs_since(e.stored_at) as u32;
            e.rrset.ttl.saturating_sub_secs(age)
        }
    }

    /// Fetches a fresh entry, decrementing TTLs by age. Pinned entries
    /// are served at full TTL (an RFC 7706 mirror is always fresh).
    pub fn get(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<CachedAnswer> {
        self.read(name, rtype, now, |e, ttl| e.answer(ttl, false))
    }

    /// [`Cache::get`] without the clone, the borrowed read every
    /// positive lookup goes through: finds the fresh entry under
    /// `(name, rtype)`, counts the hit, journals the serve, and hands
    /// `f` the entry in place together with its age-decremented TTL —
    /// nothing is cloned unless `f` clones it.
    pub(crate) fn read<T>(
        &self,
        name: &dyn NameKey,
        rtype: RecordType,
        now: SimTime,
        f: impl FnOnce(&Entry, Ttl) -> T,
    ) -> Option<T> {
        let e = self.entries.get(&Probe(name, rtype) as &dyn TableKey)?;
        if !e.is_fresh(now) {
            return None;
        }
        let ttl = self.serve(e, now);
        Some(f(e, ttl))
    }

    /// If an entry exists for `(name, rtype)` but is past its TTL (and
    /// not pinned), returns how long ago it expired. This is the
    /// telemetry probe distinguishing an *expiry* (the resolver held
    /// the data and lost it to the TTL — the refetches of Figure 6)
    /// from a plain miss (never cached).
    pub fn expired_since(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
    ) -> Option<SimDuration> {
        let e = self.entries.get(&Probe(name, rtype) as &dyn TableKey)?;
        if e.is_fresh(now) {
            return None;
        }
        Some(now.since(e.expires_at))
    }

    /// Remaining lifetime of a fresh entry as a fraction of its
    /// original TTL (1.0 = just stored, →0.0 = about to expire).
    /// Pinned entries are always 1.0; absent/expired entries are None.
    /// Prefetching resolvers use this to decide when to refresh ahead.
    pub(crate) fn freshness(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<f64> {
        let e = self.entries.get(&Probe(name, rtype) as &dyn TableKey)?;
        if e.pinned {
            return Some(1.0);
        }
        if e.expires_at <= now {
            return None;
        }
        let total = e.rrset.ttl.as_secs() as f64;
        if total == 0.0 {
            return None;
        }
        let remaining = e.expires_at.since(now).as_secs_f64();
        Some((remaining / total).clamp(0.0, 1.0))
    }

    /// Fetches an entry even if expired, for serve-stale: the entry must
    /// not be older than `expires_at + max_stale`. Stale answers carry a
    /// short 30 s TTL, per draft-ietf-dnsop-serve-stale.
    pub fn get_stale(
        &self,
        name: &Name,
        rtype: RecordType,
        now: SimTime,
        max_stale: Ttl,
    ) -> Option<CachedAnswer> {
        let e = self.entries.get(&Probe(name, rtype) as &dyn TableKey)?;
        if e.is_fresh(now) {
            let ttl = self.serve(e, now);
            return Some(e.answer(ttl, false));
        }
        let staleness = now.secs_since(e.expires_at);
        if staleness > max_stale.as_secs() as u64 {
            return None;
        }
        self.meta.borrow_mut().record(now, CacheOp::StaleServe, e);
        Some(e.answer(Ttl::from_secs(30), true))
    }

    /// Stores a negative answer (NXDOMAIN or NODATA) bounded by the SOA
    /// `minimum` / SOA TTL pair per RFC 2308.
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
        let ttl = policy.clamp_ttl(soa_minimum.min(soa_ttl));
        if ttl.is_zero() {
            return;
        }
        self.negatives.insert(
            (name, rtype),
            NegEntry {
                rcode,
                expires_at: now + ttl_span(ttl),
            },
        );
    }

    /// Caches an *upstream failure* (SERVFAIL / every server dead) for
    /// `ttl`, per RFC 2308 §7: subsequent queries for the key are
    /// answered from this entry instead of hammering dead servers —
    /// RFC 8767's "failure recheck timer". Journalled as a
    /// [`CacheOp::NegCache`] transaction so provenance forensics see
    /// the outage response, even though no RRset is held.
    pub fn store_failure(&mut self, name: Name, rtype: RecordType, ttl: Ttl, now: SimTime) {
        if ttl.is_zero() {
            return;
        }
        // RFC 2308 §7: failures must not be cached for longer than
        // five minutes.
        let ttl = ttl.min(Ttl::from_secs(300));
        let expires_at = now + ttl_span(ttl);
        // What the journal shows in place of the RRset nobody holds.
        let shell = Entry {
            rrset: RRset {
                name: name.clone(),
                rtype,
                ttl,
                rdatas: vec![],
            },
            stored_at: now,
            expires_at,
            rank: Credibility::AuthAuthority,
            pinned: false,
            provenance: Provenance {
                original_ttl: ttl,
                effective_ttl: ttl,
                ..Provenance::default()
            },
            fingerprint: 0,
        };
        self.meta.get_mut().record(now, CacheOp::NegCache, &shell);
        self.negatives.insert(
            (name, rtype),
            NegEntry {
                rcode: Rcode::ServFail,
                expires_at,
            },
        );
    }

    /// Fresh negative entry for the key, if any.
    pub fn get_negative(&self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Rcode> {
        // Resolvers ask this first on every question, and the table is
        // empty unless something failed: answer before hashing.
        if self.negatives.is_empty() {
            return None;
        }
        let e = self.negatives.get(&Probe(name, rtype) as &dyn TableKey)?;
        (e.expires_at > now).then_some(e.rcode)
    }

    /// Number of positive entries (fresh and expired).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no positive entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops expired, unpinned entries. Not required for correctness
    /// (reads check freshness) but keeps long simulations lean. Each
    /// drop is a ledger `expire` transaction, and the drops must come in
    /// `(expires_at, Name::cmp, type code)` order: the expired entries
    /// are found by a scan of the table, whose order means nothing, so
    /// they are sorted first.
    pub fn purge_expired(&mut self, now: SimTime) {
        let mut expired: Vec<(SimTime, Name, RecordType)> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.is_fresh(now))
            .map(|((name, rtype), e)| (e.expires_at, name.clone(), *rtype))
            .collect();
        expired.sort_unstable_by(|a, b| (a.0, &a.1, a.2.code()).cmp(&(b.0, &b.1, b.2.code())));
        for (_, name, rtype) in expired {
            let e = self
                .entries
                .remove(&(name, rtype))
                .expect("key just seen in the table");
            self.meta.get_mut().record(now, CacheOp::Expire, &e);
        }
        self.negatives.retain(|_, e| e.expires_at > now);
    }

    /// Removes every entry (used between experiment phases). Counted
    /// as `clears` in the stats; no per-entry ledger records — a phase
    /// boundary is not a cache event the paper cares about.
    pub fn clear(&mut self) {
        self.meta.get_mut().stats.clears += self.entries.len() as u64;
        self.entries.clear();
        self.negatives.clear();
    }
}

/// The event kind a ledger op is counted under.
pub(crate) fn event_kind(op: CacheOp) -> EventKind {
    match op {
        CacheOp::Insert => EventKind::CacheInsert,
        CacheOp::Refresh => EventKind::CacheRefresh,
        CacheOp::Overwrite => EventKind::CacheOverwrite,
        CacheOp::Serve => EventKind::CacheServe,
        CacheOp::Expire => EventKind::CacheExpiredDrop,
        CacheOp::Invalidate => EventKind::CacheInvalidate,
        CacheOp::StaleServe => EventKind::CacheStaleServe,
        CacheOp::NegCache => EventKind::NegCache,
    }
}

/// TTL seconds as a simulated duration.
fn ttl_span(ttl: Ttl) -> dnsttl_netsim::SimDuration {
    dnsttl_netsim::SimDuration::from_secs(ttl.as_secs() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_wire::RData;
    use std::hash::BuildHasher;

    fn policy() -> ResolverPolicy {
        ResolverPolicy::default()
    }

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
    fn ttl_decrements_with_age() {
        let mut c = Cache::new();
        c.store(
            a_rrset("x.example", 300, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        let got = c
            .get(&n("x.example"), RecordType::A, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(got.rrset.ttl.as_secs(), 200);
    }

    #[test]
    fn expired_entries_are_not_served() {
        let mut c = Cache::new();
        c.store(
            a_rrset("x.example", 300, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        assert!(c
            .get(&n("x.example"), RecordType::A, SimTime::from_secs(300))
            .is_none());
        assert!(c
            .get(&n("x.example"), RecordType::A, SimTime::from_secs(299))
            .is_some());
    }

    #[test]
    fn lower_rank_cannot_displace_fresh_higher_rank() {
        let mut c = Cache::new();
        c.store(
            a_rrset("ns.example", 3600, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("ns.example", 172800, 2),
            Credibility::ReferralAdditional,
            SimTime::from_secs(10),
            &policy(),
            false,
        );
        let got = c
            .get(&n("ns.example"), RecordType::A, SimTime::from_secs(20))
            .unwrap();
        assert_eq!(got.rank, Credibility::AuthAnswer);
        assert_eq!(got.rrset.rdatas, a_rrset("ns.example", 0, 1).rdatas);
    }

    #[test]
    fn equal_rank_replaces_and_refreshes() {
        // Re-fetched glue replaces cached glue — the mechanism behind
        // §4.2's NS/A lifetime coupling.
        let mut c = Cache::new();
        c.store(
            a_rrset("ns.example", 7200, 1),
            Credibility::ReferralAdditional,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("ns.example", 7200, 2),
            Credibility::ReferralAdditional,
            SimTime::from_secs(3600),
            &policy(),
            false,
        );
        let got = c
            .get(&n("ns.example"), RecordType::A, SimTime::from_secs(3700))
            .unwrap();
        assert_eq!(got.rrset.rdatas, a_rrset("ns.example", 0, 2).rdatas);
        assert_eq!(got.rrset.ttl.as_secs(), 7100);
    }

    #[test]
    fn unlinked_policy_keeps_old_glue_until_expiry() {
        let p = ResolverPolicy {
            link_inbailiwick_glue: false,
            ..ResolverPolicy::default()
        };
        let mut c = Cache::new();
        c.store(
            a_rrset("ns.example", 7200, 1),
            Credibility::ReferralAdditional,
            SimTime::ZERO,
            &p,
            false,
        );
        c.store(
            a_rrset("ns.example", 7200, 2),
            Credibility::ReferralAdditional,
            SimTime::from_secs(3600),
            &p,
            false,
        );
        // Old glue still served…
        let got = c
            .get(&n("ns.example"), RecordType::A, SimTime::from_secs(3700))
            .unwrap();
        assert_eq!(got.rrset.rdatas, a_rrset("ns.example", 0, 1).rdatas);
        // …until it expires; a later store succeeds.
        c.store(
            a_rrset("ns.example", 7200, 2),
            Credibility::ReferralAdditional,
            SimTime::from_secs(7300),
            &p,
            false,
        );
        let got = c
            .get(&n("ns.example"), RecordType::A, SimTime::from_secs(7400))
            .unwrap();
        assert_eq!(got.rrset.rdatas, a_rrset("ns.example", 0, 2).rdatas);
    }

    #[test]
    fn parent_centric_refuses_child_overwrite() {
        let p = ResolverPolicy::parent_centric();
        let mut c = Cache::new();
        c.store(
            a_rrset("a.nic.uy", 172800, 1),
            Credibility::ReferralAdditional,
            SimTime::ZERO,
            &p,
            false,
        );
        c.store(
            a_rrset("a.nic.uy", 120, 2),
            Credibility::AuthAnswer,
            SimTime::from_secs(5),
            &p,
            false,
        );
        let got = c
            .get(&n("a.nic.uy"), RecordType::A, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(got.rank, Credibility::ReferralAdditional);
        assert_eq!(got.rrset.ttl.as_secs(), 172_790);
    }

    #[test]
    fn child_centric_overwrites_glue_with_answer() {
        let mut c = Cache::new();
        c.store(
            a_rrset("a.nic.uy", 172800, 1),
            Credibility::ReferralAdditional,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("a.nic.uy", 120, 2),
            Credibility::AuthAnswer,
            SimTime::from_secs(5),
            &policy(),
            false,
        );
        let got = c
            .get(&n("a.nic.uy"), RecordType::A, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(got.rank, Credibility::AuthAnswer);
        assert_eq!(got.rrset.ttl.as_secs(), 115);
    }

    #[test]
    fn pinned_entries_never_age() {
        let mut c = Cache::new();
        c.store(
            a_rrset("uy", 172800, 1),
            Credibility::ReferralAuthority,
            SimTime::ZERO,
            &policy(),
            true,
        );
        let got = c
            .get(&n("uy"), RecordType::A, SimTime::from_secs(1_000_000))
            .unwrap();
        assert_eq!(got.rrset.ttl.as_secs(), 172_800);
    }

    #[test]
    fn ttl_cap_applies_at_store_time() {
        let p = ResolverPolicy::google_like();
        let mut c = Cache::new();
        c.store(
            a_rrset("google.co", 345_600, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &p,
            false,
        );
        let got = c
            .get(&n("google.co"), RecordType::A, SimTime::ZERO)
            .unwrap();
        assert_eq!(got.rrset.ttl.as_secs(), 21_599);
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let mut c = Cache::new();
        c.store(
            a_rrset("x.example", 0, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        assert!(c
            .get(&n("x.example"), RecordType::A, SimTime::ZERO)
            .is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn stale_service_within_window() {
        let mut c = Cache::new();
        c.store(
            a_rrset("x.example", 60, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        // Expired at 60 s; stale window one day.
        let got = c
            .get_stale(
                &n("x.example"),
                RecordType::A,
                SimTime::from_secs(600),
                Ttl::DAY,
            )
            .unwrap();
        assert!(got.stale);
        assert_eq!(got.rrset.ttl.as_secs(), 30);
        // Beyond the stale window: gone.
        assert!(c
            .get_stale(
                &n("x.example"),
                RecordType::A,
                SimTime::from_secs(90_000),
                Ttl::DAY
            )
            .is_none());
    }

    #[test]
    fn freshness_tracks_remaining_fraction() {
        let mut c = Cache::new();
        c.store(
            a_rrset("x.example", 1000, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        let f0 = c
            .freshness(&n("x.example"), RecordType::A, SimTime::ZERO)
            .unwrap();
        assert!((f0 - 1.0).abs() < 1e-9);
        let f_mid = c
            .freshness(&n("x.example"), RecordType::A, SimTime::from_secs(500))
            .unwrap();
        assert!((f_mid - 0.5).abs() < 1e-9);
        let f_late = c
            .freshness(&n("x.example"), RecordType::A, SimTime::from_secs(950))
            .unwrap();
        assert!(f_late < 0.1);
        assert!(c
            .freshness(&n("x.example"), RecordType::A, SimTime::from_secs(1_000))
            .is_none());
        assert!(c
            .freshness(&n("y.example"), RecordType::A, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn pinned_entries_are_always_fresh() {
        let mut c = Cache::new();
        c.store(
            a_rrset("uy", 300, 1),
            Credibility::ReferralAuthority,
            SimTime::ZERO,
            &policy(),
            true,
        );
        let f = c
            .freshness(&n("uy"), RecordType::A, SimTime::from_secs(1_000_000))
            .unwrap();
        assert_eq!(f, 1.0);
    }

    #[test]
    fn negative_caching_round_trip() {
        let mut c = Cache::new();
        c.store_negative(
            n("missing.example"),
            RecordType::A,
            Rcode::NxDomain,
            Ttl::from_secs(300),
            Ttl::HOUR,
            SimTime::ZERO,
            &policy(),
        );
        assert_eq!(
            c.get_negative(
                &n("missing.example"),
                RecordType::A,
                SimTime::from_secs(100)
            ),
            Some(Rcode::NxDomain)
        );
        // Bounded by min(SOA minimum, SOA TTL) = 300 s.
        assert_eq!(
            c.get_negative(
                &n("missing.example"),
                RecordType::A,
                SimTime::from_secs(300)
            ),
            None
        );
    }

    #[test]
    fn positive_store_clears_negative() {
        let mut c = Cache::new();
        c.store_negative(
            n("x.example"),
            RecordType::A,
            Rcode::NxDomain,
            Ttl::HOUR,
            Ttl::HOUR,
            SimTime::ZERO,
            &policy(),
        );
        c.store(
            a_rrset("x.example", 60, 1),
            Credibility::AuthAnswer,
            SimTime::from_secs(10),
            &policy(),
            false,
        );
        assert_eq!(
            c.get_negative(&n("x.example"), RecordType::A, SimTime::from_secs(11)),
            None
        );
        assert!(c
            .get(&n("x.example"), RecordType::A, SimTime::from_secs(11))
            .is_some());
    }

    #[test]
    fn purge_drops_expired_keeps_pinned() {
        let mut c = Cache::new();
        c.store(
            a_rrset("a.example", 60, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("b.example", 60, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            true,
        );
        c.purge_expired(SimTime::from_secs(120));
        assert_eq!(c.len(), 1);
        assert!(c
            .get(&n("b.example"), RecordType::A, SimTime::from_secs(120))
            .is_some());
    }

    /// Seeded property test: across random insert / time-advance /
    /// stale-query sequences, an answer's effective age never exceeds
    /// its original TTL + max-stale, and the fresh/stale/gone regimes
    /// match a shadow model exactly.
    #[test]
    fn stale_serving_never_exceeds_ttl_plus_max_stale() {
        let max_stale = Ttl::from_secs(300);
        for seed in 0..16u64 {
            let mut rng = dnsttl_netsim::SimRng::seed_from(0xC4A0_5000 + seed);
            let mut c = Cache::new();
            let mut now = SimTime::ZERO;
            // Shadow model: when the single tracked name was last
            // stored, and with what TTL.
            let mut shadow: Option<(SimTime, u64)> = None;
            for _ in 0..400 {
                match rng.below(3) {
                    0 => {
                        let ttl = 60 + rng.below(540) as u32;
                        c.store(
                            a_rrset("p.example", ttl, 1),
                            Credibility::AuthAnswer,
                            now,
                            &policy(),
                            false,
                        );
                        shadow = Some((now, ttl as u64));
                    }
                    1 => {
                        now += SimDuration::from_secs(1 + rng.below(200));
                    }
                    _ => {
                        let got = c.get_stale(&n("p.example"), RecordType::A, now, max_stale);
                        match shadow {
                            None => assert!(got.is_none(), "seed {seed}: answer before insert"),
                            Some((stored, ttl)) => {
                                let age = now.secs_since(stored);
                                if let Some(ans) = &got {
                                    assert!(
                                        age <= ttl + max_stale.as_secs() as u64,
                                        "seed {seed}: served at age {age}s, ttl {ttl}s \
                                         + max-stale {}s exceeded",
                                        max_stale.as_secs()
                                    );
                                    assert_eq!(ans.stale, age >= ttl, "seed {seed}: regime");
                                }
                                if age < ttl {
                                    assert!(got.is_some(), "seed {seed}: fresh entry unserved");
                                } else if age > ttl + max_stale.as_secs() as u64 {
                                    assert!(got.is_none(), "seed {seed}: over-stale served");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Seeded property test: however stale an entry has become, a
    /// successful refresh (re-store) always resets staleness — the next
    /// lookup is fresh with the full new TTL.
    #[test]
    fn refresh_always_resets_staleness() {
        let max_stale = Ttl::DAY;
        for seed in 0..16u64 {
            let mut rng = dnsttl_netsim::SimRng::seed_from(0x5EED_0000 + seed);
            let mut c = Cache::new();
            let ttl = 60 + rng.below(540) as u32;
            c.store(
                a_rrset("r.example", ttl, 1),
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy(),
                false,
            );
            // Let it go stale by a random margin inside the window.
            let stale_by = 1 + rng.below(max_stale.as_secs() as u64 - ttl as u64);
            let when = SimTime::from_secs(ttl as u64 + stale_by);
            let before = c
                .get_stale(&n("r.example"), RecordType::A, when, max_stale)
                .expect("inside max-stale window");
            assert!(before.stale, "seed {seed}: expected a stale answer");
            assert_eq!(before.rrset.ttl.as_secs(), 30, "stale answers carry 30 s");
            // Refresh with new data at the same instant.
            let new_ttl = 60 + rng.below(540) as u32;
            c.store(
                a_rrset("r.example", new_ttl, 2),
                Credibility::AuthAnswer,
                when,
                &policy(),
                false,
            );
            let after = c
                .get_stale(&n("r.example"), RecordType::A, when, max_stale)
                .expect("just refreshed");
            assert!(!after.stale, "seed {seed}: refresh must reset staleness");
            assert_eq!(after.rrset.ttl.as_secs(), new_ttl, "full TTL after refresh");
            assert_eq!(after.rrset.rdatas, a_rrset("r.example", 0, 2).rdatas);
        }
    }

    #[test]
    fn failure_caching_is_capped_at_five_minutes() {
        let mut c = Cache::new();
        c.enable_ledger();
        c.store_failure(n("down.example"), RecordType::A, Ttl::HOUR, SimTime::ZERO);
        // RFC 2308 §7: upstream-failure entries live at most 5 minutes.
        assert_eq!(
            c.get_negative(&n("down.example"), RecordType::A, SimTime::from_secs(299)),
            Some(Rcode::ServFail)
        );
        assert_eq!(
            c.get_negative(&n("down.example"), RecordType::A, SimTime::from_secs(300)),
            None
        );
        let neg_caches = c
            .with_ledger(|l| l.cells().map(|(_, cell)| cell.neg_caches).sum::<u64>())
            .unwrap();
        assert_eq!(neg_caches, 1);
    }

    #[test]
    fn a_borrowed_probe_finds_what_the_owned_key_finds() {
        use RecordType::{A, NS, TXT};
        // Suffixes of the probed name in other spellings, and near
        // misses: a sibling, a name that merely ends alike, a label
        // boundary in the wrong place.
        let stored = [
            ("WWW.example.org", A),
            ("www.example.org", TXT),
            ("EXAMPLE.org", NS),
            ("example.ORG", A),
            ("org", NS),
            (".", NS),
            ("w.example.org", A),
            ("xample.org", NS),
            ("wwwexample.org", A),
        ];
        let table: KeyTable<usize> = stored
            .iter()
            .enumerate()
            .map(|(i, (owner, t))| ((n(owner), *t), i))
            .collect();
        assert_eq!(table.len(), stored.len());
        let name = n("Www.Example.Org");
        let mut found = 0;
        let hasher = table.hasher();
        for suffix in name.suffixes() {
            for t in RecordType::concrete() {
                // `Borrow`'s contract, under the tables' own hasher.
                assert_eq!(
                    hasher.hash_one(&Probe(&suffix, t) as &dyn TableKey),
                    hasher.hash_one((suffix.to_name(), t)),
                    "{} {t:?}",
                    suffix.as_str()
                );
                let borrowed = table.get(&Probe(&suffix, t) as &dyn TableKey);
                assert_eq!(borrowed, table.get(&(suffix.to_name(), t)));
                if let Some(&i) = borrowed {
                    found += 1;
                    assert_eq!(stored[i].1, t, "an entry of another type");
                    assert_eq!(n(stored[i].0), suffix.to_name(), "another name");
                }
            }
        }
        assert_eq!(found, 6, "every stored suffix, none of the near misses");

        // Through the cache: the read hands back the entry as stored,
        // its owner spelled as the response spelled it.
        let mut c = Cache::new();
        c.store(
            a_rrset("Example.ORG", 300, 1),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy(),
            false,
        );
        let owners: Vec<Option<Name>> = name
            .suffixes()
            .map(|s| c.read(&s, A, SimTime::from_secs(1), |e, _| e.rrset.name.clone()))
            .collect();
        assert_eq!(owners, [None, Some(n("example.org")), None, None]);
        assert_eq!(owners[1].as_ref().unwrap().as_str(), "Example.ORG.");
        assert_eq!(c.stats().hits, 1);
    }

    /// hashbrown takes a key's bucket from the low bits of its hash
    /// and its control byte from the top seven. Over the Zipf
    /// campaigns' keys, [`KeyHasher`] loads neither more unevenly than
    /// SipHash does — the fullest bucket and the fullest control-byte
    /// group stay within a quarter (and one key) of SipHash's. Measured:
    /// 8 keys against SipHash's 8 (mean 1.5), 71 against 62 (mean 48).
    #[test]
    fn the_key_hasher_spreads_like_siphash() {
        use std::collections::hash_map::DefaultHasher;
        let keys: Vec<(Name, RecordType)> = (0..2_048)
            .flat_map(|k| {
                [RecordType::A, RecordType::AAAA, RecordType::NS]
                    .map(|t| (n(&format!("r{k}.zipf")), t))
            })
            .collect();
        // (fullest of 4 096 low-bit buckets, fullest of 128 top-7-bit groups)
        fn fullest<B: BuildHasher>(build: &B, keys: &[(Name, RecordType)]) -> (usize, usize) {
            let (mut buckets, mut groups) = (vec![0usize; 4_096], vec![0usize; 128]);
            for key in keys {
                let h = build.hash_one(key);
                buckets[(h & 4_095) as usize] += 1;
                groups[(h >> 57) as usize] += 1;
            }
            (
                buckets.into_iter().max().unwrap(),
                groups.into_iter().max().unwrap(),
            )
        }
        // `DefaultHasher::new()` is SipHash under a fixed key.
        let build = BuildHasherDefault::<KeyHasher>::default();
        let sip = fullest(&BuildHasherDefault::<DefaultHasher>::default(), &keys);
        let ours = fullest(&build, &keys);
        assert!(
            ours.0 <= sip.0 + sip.0 / 4 + 1 && ours.1 <= sip.1 + sip.1 / 4 + 1,
            "fullest (bucket, group): {ours:?}, SipHash {sip:?}"
        );
        // And the type is hashed: one name's three keys are three hashes.
        let of_one_name: std::collections::BTreeSet<u64> =
            keys[..3].iter().map(|key| build.hash_one(key)).collect();
        assert_eq!(of_one_name.len(), 3);
    }

    /// A purge finds its victims by scanning the table, whose order
    /// means nothing; it must journal them in `(expires_at, Name::cmp,
    /// type code)` order, which is how a timing wheel holding the same
    /// keys drains them.
    #[test]
    fn purge_drops_in_the_order_an_expiry_index_drains() {
        let owners = ["b.example", "A.example", "z.a.example", "example", "B.test"];
        let mut c = Cache::new();
        c.enable_ledger();
        let mut wheel = dnsttl_netsim::TimingWheel::new();
        let mut rng = dnsttl_netsim::SimRng::seed_from(0x9E46_E000);
        for (i, owner) in owners.iter().cycle().take(30).enumerate() {
            // Few distinct expiries, so most ties fall to the name and
            // the type; one entry in six is pinned.
            let ttl = [60, 60, 120, 300][rng.below(4) as usize];
            let rtype = [RecordType::A, RecordType::NS, RecordType::TXT][i % 3];
            let set = RRset {
                rtype,
                ..a_rrset(owner, ttl, 1)
            };
            let pinned = i % 6 == 5;
            c.store(
                set,
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy(),
                pinned,
            );
        }
        for e in c.iter_entries().filter(|e| !e.pinned) {
            let tie = (e.rrset.name.clone(), e.rrset.rtype.code());
            wheel.insert(e.expires_at.as_millis(), tie);
        }
        let now = SimTime::from_secs(120);
        let mut drained = Vec::new();
        while wheel.peek().is_some_and(|(t, _)| t <= now.as_millis()) {
            let (_, (name, code)) = wheel.pop_first().unwrap();
            let rtype = RecordType::from_code(code).unwrap();
            drained.push((name.to_string(), rtype.to_string()));
        }
        assert!(drained.len() >= 5 && !wheel.is_empty(), "{drained:?}");
        c.purge_expired(now);
        let journalled: Vec<(String, String)> = c
            .with_ledger(|l| {
                l.journal()
                    .records()
                    .filter(|r| r.op == CacheOp::Expire)
                    .map(|r| (r.name.to_string(), r.rtype.to_string()))
                    .collect()
            })
            .unwrap();
        assert_eq!(journalled, drained);
        let pinned = c.iter_entries().filter(|e| e.pinned).count();
        assert!(pinned > 0);
        assert_eq!(c.len(), wheel.len() + pinned);
    }

    /// `expired_since` reads the entry table and nothing else: on
    /// pinned, fresh, expired and absent keys it says what a scan of
    /// the snapshot says.
    #[test]
    fn expired_since_agrees_with_a_brute_force_scan() {
        let mut c = Cache::new();
        let auth = Credibility::AuthAnswer;
        c.store(
            a_rrset("pinned.example", 60, 1),
            auth,
            SimTime::ZERO,
            &policy(),
            true,
        );
        c.store(
            a_rrset("fresh.example", 3_600, 2),
            auth,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("expired.example", 60, 3),
            auth,
            SimTime::ZERO,
            &policy(),
            false,
        );
        c.store(
            a_rrset("Edge.example", 600, 4),
            auth,
            SimTime::ZERO,
            &policy(),
            false,
        );
        for now in [0, 59, 60, 61, 600, 601, 3_599, 3_600, 100_000].map(SimTime::from_secs) {
            for owner in ["pinned", "fresh", "expired", "edge", "absent"] {
                let name = n(&format!("{owner}.example"));
                let scanned = c
                    .iter_entries()
                    .find(|e| e.rrset.name == name && e.rrset.rtype == RecordType::A)
                    .filter(|e| !e.pinned && e.expires_at <= now)
                    .map(|e| now.since(e.expires_at));
                assert_eq!(
                    c.expired_since(&name, RecordType::A, now),
                    scanned,
                    "{owner} at {now:?}"
                );
                assert_eq!(c.expired_since(&name, RecordType::NS, now), None);
            }
        }
        // The shapes the loop is meant to have met.
        let at = SimTime::from_secs(90);
        let expired_for = |c: &Cache, owner: &str| c.expired_since(&n(owner), RecordType::A, at);
        assert_eq!(expired_for(&c, "pinned.example"), None);
        assert_eq!(expired_for(&c, "fresh.example"), None);
        assert_eq!(expired_for(&c, "absent.example"), None);
        assert_eq!(
            expired_for(&c, "expired.example"),
            Some(SimDuration::from_secs(30))
        );
    }

    /// `get` is the borrowed read plus a clone: a seeded tape of
    /// stores, clock steps and lookups driven through `get` on one
    /// cache and through `read` on its twin returns the same TTL,
    /// rank, data and provenance at every step and leaves the same
    /// counters and the same ledger, line for line.
    #[test]
    fn borrowed_read_is_get_without_the_clone() {
        use Credibility::*;
        let policy = policy();
        let mut via_get = Cache::new();
        let mut via_read = Cache::new();
        via_get.enable_ledger();
        via_read.enable_ledger();
        let mut rng = dnsttl_netsim::SimRng::seed_from(0x0B04_40ED);
        let mut now = SimTime::ZERO;
        for _ in 0..4_000 {
            let host = format!("h{}.example", rng.below(40));
            match rng.below(5) {
                0 => now += SimDuration::from_secs(rng.below(120)),
                1 | 2 => {
                    let rrset = a_rrset(&host, 30 + rng.below(600) as u32, rng.below(3) as u8);
                    let rank = [
                        ReferralAdditional,
                        ReferralAuthority,
                        AuthAuthority,
                        AuthAnswer,
                    ][rng.below(4) as usize];
                    let pinned = rng.below(16) == 0;
                    for cache in [&mut via_get, &mut via_read] {
                        cache.store(rrset.clone(), rank, now, &policy, pinned);
                    }
                }
                _ => {
                    let name = n(&host);
                    let got = via_get
                        .get(&name, RecordType::A, now)
                        .map(|a| (a.rrset.ttl, a.rank, a.rrset.rdatas, a.provenance));
                    let read = via_read.read(&name, RecordType::A, now, |e, ttl| {
                        (ttl, e.rank, e.rrset.rdatas.clone(), e.provenance)
                    });
                    assert_eq!(got, read, "at {now:?}");
                }
            }
        }
        let stats = via_get.stats();
        assert_eq!(stats, via_read.stats());
        assert!(
            stats.hits > 100 && stats.expiries > 0 && stats.overwrites > 0,
            "the tape reaches hits, expiries and overwrites: {stats:?}"
        );
        let lines = |cache: &Cache| cache.with_ledger(|l| l.journal().to_jsonl());
        assert!(lines(&via_get).is_some_and(|text| text.lines().count() > 1_000));
        assert_eq!(lines(&via_get), lines(&via_read));
    }
}
