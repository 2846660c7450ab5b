//! Cache provenance: where a cached record came from, and the ledger
//! that journals every cache transaction and aggregates per-cell
//! residency statistics.
//!
//! The paper's central question — which published TTL *actually*
//! governs an entry's residency (Tables 3–4, Figures 5–8) — is a
//! question about provenance: did the entry come from the parent's
//! referral or the child's authoritative answer, and was it in or out
//! of the responding server's bailiwick? This module carries that
//! answer on every entry and aggregates it per
//! `(record type, origin, bailiwick)` cell, so the effective-lifetime
//! claims can be audited from cache state alone.
//!
//! It also owns the ledger's line format: one [`LedgerRecord`] per
//! transaction — insert, refresh, overwrite, serve, expiry, stale serve,
//! failure caching — in the spirit of dnstap's per-message framing, but
//! for cache state, written by [`LedgerRecord::to_line`] as one compact
//! JSON object (short keys, hex fingerprints, no optional-field noise).

use std::collections::{BTreeMap, VecDeque};
use std::net::IpAddr;

use dnsttl_telemetry::{ObjectWriter, Value};
use dnsttl_wire::{Name, RecordType, Ttl};

use crate::cache::Credibility;

/// What a ledger record describes. Every journalled removal carries
/// exactly one cause, so `expire + overwrite` counts sum to total
/// journalled removals — the conservation law the accounting tests
/// enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheOp {
    /// A fresh RRset entered the cache under a previously-empty key.
    Insert,
    /// A re-store found identical data already cached: only the clock
    /// restarted. (The paper's "TTL refresh" — §4.2.)
    Refresh,
    /// A re-store replaced an entry with *different* data; the old
    /// entry's residency ends here.
    Overwrite,
    /// A cached entry answered a client query.
    Serve,
    /// An entry was removed because its effective TTL had passed.
    Expire,
    /// An *expired* entry answered a client query past its TTL because
    /// every authoritative server was unreachable (RFC 8767
    /// serve-stale). Not a removal: the entry stays resident until its
    /// stale window also lapses.
    StaleServe,
    /// An upstream failure (SERVFAIL / all-servers-dead) was negatively
    /// cached per RFC 2308 §7, shielding the servers from retry storms.
    /// Tracked in the ledger because it shapes what clients observe,
    /// but it never holds an RRset, so it is not a residency event.
    NegCache,
}

impl CacheOp {
    /// The stable token written to ledger lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOp::Insert => "insert",
            CacheOp::Refresh => "refresh",
            CacheOp::Overwrite => "overwrite",
            CacheOp::Serve => "serve",
            CacheOp::Expire => "expire",
            CacheOp::StaleServe => "stale_serve",
            CacheOp::NegCache => "neg_cache",
        }
    }

    /// Whether this op ends an entry's residency in the cache.
    /// (`Overwrite` both ends one residency and starts another.)
    pub(crate) fn is_removal(&self) -> bool {
        matches!(self, CacheOp::Overwrite | CacheOp::Expire)
    }
}

/// Which side of the zone cut installed a record: the parent's
/// referral (authority NS + additional glue) or the child's
/// authoritative response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RecordOrigin {
    /// Referral data: the parent's truth.
    Parent,
    /// Authoritative (AA) data: the child's truth.
    Child,
    /// Pre-seeded data (root hints, manual stores) with no response
    /// behind it.
    #[default]
    Seed,
}

impl RecordOrigin {
    /// The RFC 2181 rank ladder splits exactly at the zone cut:
    /// referral-ranked data is the parent speaking, authoritative
    /// ranks are the child.
    pub(crate) fn from_rank(rank: Credibility) -> RecordOrigin {
        match rank {
            Credibility::ReferralAdditional | Credibility::ReferralAuthority => {
                RecordOrigin::Parent
            }
            Credibility::AuthAuthority | Credibility::AuthAnswer => RecordOrigin::Child,
        }
    }

    /// Stable ledger token.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecordOrigin::Parent => "parent",
            RecordOrigin::Child => "child",
            RecordOrigin::Seed => "seed",
        }
    }
}

/// Whether a record's owner name lies inside the zone the responding
/// server was answering for (§4.2: in-bailiwick glue is refreshed with
/// the NS RRset, coupling its lifetime to the NS TTL; out-of-bailiwick
/// addresses live out their own full TTL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BailiwickClass {
    /// Owner name is at/below the responding zone's cut.
    In,
    /// Owner name is outside the responding zone.
    Out,
    /// Not applicable (seeded data, no responding zone).
    #[default]
    Unknown,
}

impl BailiwickClass {
    /// Stable ledger token.
    pub fn as_str(&self) -> &'static str {
        match self {
            BailiwickClass::In => "in",
            BailiwickClass::Out => "out",
            BailiwickClass::Unknown => "none",
        }
    }
}

/// Everything the cache knows about how an entry got there. Carried on
/// each entry and returned with every [`crate::CachedAnswer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// DNS message id of the query whose response installed the entry
    /// (0 for seeded data).
    pub txn: u64,
    /// The server whose response installed the entry.
    pub server: Option<IpAddr>,
    /// Parent vs child origin.
    pub origin: RecordOrigin,
    /// Bailiwick class relative to the responding zone.
    pub bailiwick: BailiwickClass,
    /// TTL as published in the installing response.
    pub original_ttl: Ttl,
    /// TTL after resolver policy (its cap) — what the
    /// entry actually lives by.
    pub effective_ttl: Ttl,
}

impl Default for Provenance {
    fn default() -> Provenance {
        Provenance {
            txn: 0,
            server: None,
            origin: RecordOrigin::Seed,
            bailiwick: BailiwickClass::Unknown,
            original_ttl: Ttl::from_secs(0),
            effective_ttl: Ttl::from_secs(0),
        }
    }
}

/// Per-store context handed to [`crate::Cache::store_with`] by the
/// resolution loop: the response's message id, the server it came
/// from, and the bailiwick class computed against the queried zone.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreContext {
    /// DNS message id of the installing query.
    pub txn: u64,
    /// Responding server.
    pub server: Option<IpAddr>,
    /// Bailiwick class of the stored RRset.
    pub bailiwick: BailiwickClass,
}

/// Always-on scalar cache accounting. Cheap enough to maintain on the
/// telemetry-disabled path; the full journal only runs when the ledger
/// is enabled.
///
/// The counts obey a conservation law the accounting tests enforce:
/// every entry creation is an `insert`, every entry destruction is
/// exactly one of `overwrite`/`expiry`/`clear`, and a
/// `refresh` is neither (same data, clock restarted) —
/// so `inserts − removals() == len()` at all times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries created (key previously empty, or old entry removed).
    pub inserts: u64,
    /// Re-stores of identical data: only the clock restarted.
    pub refreshes: u64,
    /// Entries destroyed because different data replaced them.
    pub overwrites: u64,
    /// Entries destroyed because their TTL had passed: a store
    /// replaced an already-expired entry.
    pub expiries: u64,
    /// Always 0: a cache is bounded by TTL alone and evicts nothing.
    /// Kept for `benchmark/`, which reports it as `cache.evictions`,
    /// until ROADMAP item 3(ii) moves that package off it.
    pub evictions: u64,
    /// Entries destroyed by [`crate::Cache::clear`].
    pub clears: u64,
    /// Fresh entries served.
    pub hits: u64,
    /// Expired entries served under serve-stale.
    pub stale_hits: u64,
    /// Stores refused by the replacement rules or the zero-TTL rule.
    pub rejected_stores: u64,
}

impl CacheStats {
    /// Total entries destroyed, by any cause.
    pub fn removals(&self) -> u64 {
        self.overwrites + self.expiries + self.clears
    }

    /// Folds another cache's counters into this one. Sharded runs use
    /// this to merge per-shard accounting: every field is a sum, so the
    /// conservation law (`inserts − removals() == live entries`) holds
    /// for the merged totals exactly when it holds per shard.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.inserts += other.inserts;
        self.refreshes += other.refreshes;
        self.overwrites += other.overwrites;
        self.expiries += other.expiries;
        self.clears += other.clears;
        self.hits += other.hits;
        self.stale_hits += other.stale_hits;
        self.rejected_stores += other.rejected_stores;
    }
}

/// An attribution cell: one `(record type, origin, bailiwick)` bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LedgerKey {
    /// Record type of the cached RRset.
    pub rtype: RecordType,
    /// Parent vs child origin.
    pub origin: RecordOrigin,
    /// Bailiwick class.
    pub bailiwick: BailiwickClass,
}

/// Aggregated counts and residency samples for one attribution cell.
#[derive(Debug, Clone, Default)]
pub struct LedgerCell {
    /// Entries created.
    pub inserts: u64,
    /// Same-data re-stores.
    pub refreshes: u64,
    /// Entries destroyed by different data.
    pub overwrites: u64,
    /// Fresh serves.
    pub serves: u64,
    /// TTL deaths.
    pub expiries: u64,
    /// Serve-stale answers: expired entries served past TTL while the
    /// authoritatives were unreachable (RFC 8767).
    pub stale_serves: u64,
    /// Upstream failures negatively cached (RFC 2308 §7).
    pub neg_caches: u64,
    /// Residency at death, milliseconds — one sample per removal.
    /// Feeding these to an ECDF reproduces the effective-lifetime
    /// distributions of Figures 5–8.
    pub residency_ms: Vec<u64>,
}

impl LedgerCell {
    fn apply(&mut self, op: CacheOp, residency_ms: Option<u64>) {
        match op {
            CacheOp::Insert => self.inserts += 1,
            CacheOp::Refresh => self.refreshes += 1,
            CacheOp::Overwrite => self.overwrites += 1,
            CacheOp::Serve => self.serves += 1,
            CacheOp::Expire => self.expiries += 1,
            CacheOp::StaleServe => self.stale_serves += 1,
            CacheOp::NegCache => self.neg_caches += 1,
        }
        if op.is_removal() {
            if let Some(res) = residency_ms {
                self.residency_ms.push(res);
            }
        }
    }

    /// Serves per lifetime: the cell's hit-to-install ratio.
    pub fn serves_per_insert(&self) -> f64 {
        if self.inserts == 0 {
            return 0.0;
        }
        self.serves as f64 / self.inserts as f64
    }
}

/// One cache transaction: the entry it touched, as the ledger keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Simulation time of the transaction, milliseconds.
    pub t_ms: u64,
    /// The transaction kind.
    pub op: CacheOp,
    /// Owner name of the cached RRset.
    pub name: Name,
    /// Record type of the cached RRset.
    pub rtype: RecordType,
    /// Credibility rank the entry was stored under.
    pub rank: Credibility,
    /// The entry's provenance: installing transaction and server,
    /// origin, bailiwick, published and effective TTL.
    pub provenance: Provenance,
    /// For every op but an install: how long the entry had been
    /// resident at transaction time, milliseconds.
    pub residency_ms: Option<u64>,
    /// TTL-excluded FNV-1a fingerprint of the RRset data.
    pub fingerprint: u64,
}

impl LedgerRecord {
    /// The record as one compact JSON line (no newline). Keys, in
    /// order: `t` (sim ms), `op`, `n` (owner name), `ty` (record type),
    /// `tx` (installing transaction id), `sv` (source server, omitted
    /// if unknown), `or` (origin), `bw` (bailiwick class), `rk`
    /// (credibility rank), `ot`/`et` (original/effective TTL seconds),
    /// `res` (residency ms, omitted on installs), `fp` (16-hex-digit
    /// fingerprint).
    pub fn to_line(&self) -> String {
        let p = &self.provenance;
        let mut w = ObjectWriter::new();
        w.field("t", &Value::U64(self.t_ms))
            .field("op", &Value::Static(self.op.as_str()))
            .field("n", &Value::Shared(self.name.shared().clone()))
            .field("ty", &Value::Static(self.rtype.as_str()))
            .field("tx", &Value::U64(p.txn));
        if let Some(server) = p.server {
            w.field("sv", &Value::Addr(server));
        }
        w.field("or", &Value::Static(p.origin.as_str()))
            .field("bw", &Value::Static(p.bailiwick.as_str()))
            .field("rk", &Value::Static(self.rank.as_str()))
            .field("ot", &Value::U64(p.original_ttl.as_secs().into()))
            .field("et", &Value::U64(p.effective_ttl.as_secs().into()));
        if let Some(res) = self.residency_ms {
            w.field("res", &Value::U64(res));
        }
        // Hex, not a JSON number: u64 fingerprints exceed f64's exact
        // integer range, which is what JSON readers parse numbers into.
        w.field("fp", &Value::Hex64(self.fingerprint));
        w.finish()
    }
}

/// How many records the journal keeps — generous for the paper-scale
/// runs while bounding a pathological run.
const JOURNAL_CAPACITY: usize = 1 << 17;

/// The full provenance ledger: a bounded journal of every transaction
/// plus per-cell aggregation. Opt-in via
/// [`crate::Cache::enable_ledger`]; the always-on path keeps only
/// [`CacheStats`].
#[derive(Debug)]
pub struct Ledger {
    /// Records, oldest first. Like the trace ring: when full, the
    /// oldest record is dropped and counted, so recent history always
    /// survives.
    journal: VecDeque<LedgerRecord>,
    dropped: u64,
    cells: BTreeMap<LedgerKey, LedgerCell>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger {
            journal: VecDeque::new(),
            dropped: 0,
            cells: BTreeMap::new(),
        }
    }

    /// Journals one transaction and counts it in its cell.
    pub(crate) fn record(&mut self, rec: LedgerRecord) {
        let key = LedgerKey {
            rtype: rec.rtype,
            origin: rec.provenance.origin,
            bailiwick: rec.provenance.bailiwick,
        };
        self.cells
            .entry(key)
            .or_default()
            .apply(rec.op, rec.residency_ms);
        if self.journal.len() == JOURNAL_CAPACITY {
            self.journal.pop_front();
            self.dropped += 1;
        }
        self.journal.push_back(rec);
    }

    /// The journalled records, oldest first.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &LedgerRecord> {
        self.journal.iter()
    }

    /// Records dropped because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records ever journalled (kept + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.journal.len() as u64 + self.dropped
    }

    /// Attribution cells in deterministic order.
    pub fn cells(&self) -> impl Iterator<Item = (&LedgerKey, &LedgerCell)> {
        self.cells.iter()
    }
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(op: CacheOp, t_ms: u64) -> LedgerRecord {
        LedgerRecord {
            t_ms,
            op,
            name: Name::parse("ns1.sub.cachetest.net").unwrap(),
            rtype: RecordType::A,
            rank: Credibility::AuthAnswer,
            provenance: Provenance {
                txn: 7,
                server: Some("192.0.2.53".parse().unwrap()),
                origin: RecordOrigin::Child,
                bailiwick: BailiwickClass::In,
                original_ttl: Ttl::from_secs(7200),
                effective_ttl: Ttl::from_secs(3600),
            },
            residency_ms: op.is_removal().then_some(3_600_000),
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn lines_keep_their_pinned_bytes() {
        // The first line is the one pinned while the record's fields
        // were strings.
        let mut rec = sample(CacheOp::Expire, 42_000);
        assert_eq!(
            rec.to_line(),
            r#"{"t":42000,"op":"expire","n":"ns1.sub.cachetest.net.","ty":"A","tx":7,"sv":"192.0.2.53","or":"child","bw":"in","rk":"auth_answer","ot":7200,"et":3600,"res":3600000,"fp":"deadbeefcafef00d"}"#
        );
        rec.provenance = Provenance::default();
        rec.rank = Credibility::ReferralAdditional;
        rec.residency_ms = None;
        rec.fingerprint = u64::MAX - 1; // not representable in f64
        assert_eq!(
            rec.to_line(),
            r#"{"t":42000,"op":"expire","n":"ns1.sub.cachetest.net.","ty":"A","tx":0,"or":"seed","bw":"none","rk":"referral_additional","ot":0,"et":0,"fp":"fffffffffffffffe"}"#
        );
    }

    #[test]
    fn the_journal_keeps_the_newest_records_and_counts_the_rest() {
        let mut ledger = Ledger::new();
        let total = JOURNAL_CAPACITY as u64 + 3;
        for t in 0..total {
            ledger.record(sample(CacheOp::Serve, t));
        }
        assert_eq!(ledger.records().len(), JOURNAL_CAPACITY);
        assert_eq!(ledger.records().next().unwrap().t_ms, 3);
        assert_eq!((ledger.dropped(), ledger.total_recorded()), (3, total));
        // The cells count every record, dropped or kept.
        let (_, cell) = ledger.cells().next().unwrap();
        assert_eq!(cell.serves, total);
    }

    #[test]
    fn origin_splits_at_the_zone_cut() {
        assert_eq!(
            RecordOrigin::from_rank(Credibility::ReferralAdditional),
            RecordOrigin::Parent
        );
        assert_eq!(
            RecordOrigin::from_rank(Credibility::ReferralAuthority),
            RecordOrigin::Parent
        );
        assert_eq!(
            RecordOrigin::from_rank(Credibility::AuthAuthority),
            RecordOrigin::Child
        );
        assert_eq!(
            RecordOrigin::from_rank(Credibility::AuthAnswer),
            RecordOrigin::Child
        );
    }

    #[test]
    fn stats_conservation_arithmetic() {
        let stats = CacheStats {
            inserts: 10,
            overwrites: 2,
            expiries: 3,
            clears: 1,
            ..CacheStats::default()
        };
        assert_eq!(stats.removals(), 6);
    }
}
