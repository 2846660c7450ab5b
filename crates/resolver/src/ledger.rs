//! Cache provenance: where a cached record came from, and the
//! attribution ledger that aggregates per-cell residency statistics.
//!
//! The paper's central question — which published TTL *actually*
//! governs an entry's residency (Tables 3–4, Figures 5–8) — is a
//! question about provenance: did the entry come from the parent's
//! referral or the child's authoritative answer, and was it in or out
//! of the responding server's bailiwick? This module carries that
//! answer on every entry and aggregates it per
//! `(record type, origin, bailiwick)` cell, so the effective-lifetime
//! claims can be audited from cache state alone.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::IpAddr;

use dnsttl_netsim::SimTime;
use dnsttl_telemetry::{CacheOp, Journal, LedgerRecord};
use dnsttl_wire::{RRset, RecordType, Ttl};

use crate::cache::Credibility;

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
    /// TTL after resolver policy (caps, floors, clamps) — what the
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
/// exactly one of `overwrite`/`expiry`/`invalidation`/`clear`, and a
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
    /// Entries destroyed because their TTL had passed (purge, or
    /// replacement of an already-expired entry).
    pub expiries: u64,
    /// Always 0: a cache is bounded by TTL alone and evicts nothing.
    /// Kept for `benchmark/`, which reports it as `cache.evictions`,
    /// until ROADMAP item 3(ii) moves that package off it.
    pub evictions: u64,
    /// Entries destroyed by explicit invalidation.
    pub invalidations: u64,
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
        self.overwrites + self.expiries + self.invalidations + self.clears
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
        self.invalidations += other.invalidations;
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
    /// Explicit deaths.
    pub invalidations: u64,
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
            CacheOp::Invalidate => self.invalidations += 1,
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

/// The full provenance ledger: a bounded journal of every transaction
/// plus per-cell aggregation. Opt-in via
/// [`crate::Cache::enable_ledger`]; the always-on path keeps only
/// [`CacheStats`].
#[derive(Debug)]
pub struct Ledger {
    journal: Journal,
    cells: BTreeMap<LedgerKey, LedgerCell>,
}

impl Ledger {
    /// An empty ledger with the default journal capacity.
    pub fn new() -> Ledger {
        Ledger {
            journal: Journal::default(),
            cells: BTreeMap::new(),
        }
    }

    /// Records one transaction into the journal and its cell.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        now: SimTime,
        op: CacheOp,
        rrset: &RRset,
        rank: Credibility,
        prov: &Provenance,
        residency_ms: Option<u64>,
        fingerprint: u64,
    ) {
        let key = LedgerKey {
            rtype: rrset.rtype,
            origin: prov.origin,
            bailiwick: prov.bailiwick,
        };
        self.cells.entry(key).or_default().apply(op, residency_ms);
        // Every field below is either shared (the name buffer), borrowed
        // from a `'static` mnemonic table, or plain data — recording a
        // transaction allocates nothing beyond the journal slot.
        self.journal.push(LedgerRecord {
            t_ms: now.as_millis(),
            op,
            name: rrset.name.shared().clone(),
            rtype: Cow::Borrowed(rrset.rtype.as_str()),
            txn: prov.txn,
            server: prov.server,
            origin: Cow::Borrowed(prov.origin.as_str()),
            bailiwick: Cow::Borrowed(prov.bailiwick.as_str()),
            rank: Cow::Borrowed(rank_token(rank)),
            original_ttl: prov.original_ttl.as_secs(),
            effective_ttl: prov.effective_ttl.as_secs(),
            residency_ms,
            fingerprint,
        });
    }

    /// The transaction journal, oldest first.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Attribution cells in deterministic order.
    pub fn cells(&self) -> impl Iterator<Item = (&LedgerKey, &LedgerCell)> {
        self.cells.iter()
    }

    /// One cell, if it has seen any transaction.
    pub fn cell(&self, key: &LedgerKey) -> Option<&LedgerCell> {
        self.cells.get(key)
    }
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger::new()
    }
}

/// The stable token a credibility rank gets in ledger lines and
/// snapshots.
pub(crate) fn rank_token(rank: Credibility) -> &'static str {
    match rank {
        Credibility::ReferralAdditional => "referral_additional",
        Credibility::ReferralAuthority => "referral_authority",
        Credibility::AuthAuthority => "auth_authority",
        Credibility::AuthAnswer => "auth_answer",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            invalidations: 1,
            clears: 1,
            ..CacheStats::default()
        };
        assert_eq!(stats.removals(), 7);
    }
}
