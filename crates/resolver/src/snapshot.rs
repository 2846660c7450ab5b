//! Deterministic cache snapshots and snapshot diffs — the forensics
//! half of the provenance ledger.
//!
//! A snapshot is the cache's positive contents at one simulated
//! instant, sorted by `(owner name, record type)` so the same cache
//! state always renders to the same bytes. Diffing two snapshots shows
//! exactly what a window of simulated time did to the cache — which
//! entries appeared, which died, and which changed *data* (same key,
//! different fingerprint: the signature of a renumbering becoming
//! visible, §4.2/Tables 3–4).

use dnsttl_netsim::SimTime;
use dnsttl_telemetry::{flat_get, parse_flat_object, JsonScalar, ObjectWriter, Value};
use dnsttl_wire::Ttl;

use crate::cache::Cache;

/// The schema tag written on every snapshot header line.
pub(crate) const SNAPSHOT_SCHEMA: &str = "dnsttl-cache-snapshot/1";

/// One cache entry, frozen: strings only, so snapshots survive a trip
/// through a file and can be diffed without the resolver loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Owner name (presentation form).
    pub name: String,
    /// Record type mnemonic.
    pub rtype: String,
    /// Credibility rank token.
    pub rank: String,
    /// RFC 7706 mirrored entry (never expires)?
    pub pinned: bool,
    /// When the entry was stored, simulated ms.
    pub stored_at_ms: u64,
    /// When it expires, simulated ms.
    pub expires_at_ms: u64,
    /// TTL remaining at snapshot time, seconds (0 when expired, full
    /// TTL when pinned).
    pub remaining_ttl_s: u32,
    /// TTL as published in the installing response.
    pub original_ttl_s: u32,
    /// TTL after resolver policy — what the entry lives by.
    pub effective_ttl_s: u32,
    /// Parent/child/seed origin token.
    pub origin: String,
    /// Bailiwick class token.
    pub bailiwick: String,
    /// Installing transaction (DNS message) id.
    pub txn: u64,
    /// Installing server (empty for seeded data).
    pub server: String,
    /// TTL-excluded RRset fingerprint.
    pub fingerprint: u64,
    /// Member data, sorted, joined with `|`.
    pub rdatas: String,
}

impl SnapshotEntry {
    pub(crate) fn key(&self) -> (String, String) {
        (self.name.clone(), self.rtype.clone())
    }

    /// One human-readable dump line.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} {} rem={}s/{}s rank={} origin={} bw={} txn={} fp={:016x}",
            self.name,
            self.rtype,
            self.remaining_ttl_s,
            self.effective_ttl_s,
            self.rank,
            self.origin,
            self.bailiwick,
            self.txn,
            self.fingerprint,
        );
        if self.pinned {
            line.push_str(" pinned");
        }
        if !self.server.is_empty() {
            line.push_str(" sv=");
            line.push_str(&self.server);
        }
        line.push_str(" rd=");
        line.push_str(&self.rdatas);
        line
    }

    fn to_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field("n", &Value::Str(self.name.clone()));
        w.field("ty", &Value::Str(self.rtype.clone()));
        w.field("rk", &Value::Str(self.rank.clone()));
        w.field("pin", &Value::Bool(self.pinned));
        w.field("st", &Value::U64(self.stored_at_ms));
        w.field("ex", &Value::U64(self.expires_at_ms));
        w.field("rem", &Value::U64(self.remaining_ttl_s as u64));
        w.field("ot", &Value::U64(self.original_ttl_s as u64));
        w.field("et", &Value::U64(self.effective_ttl_s as u64));
        w.field("or", &Value::Str(self.origin.clone()));
        w.field("bw", &Value::Str(self.bailiwick.clone()));
        w.field("tx", &Value::U64(self.txn));
        if !self.server.is_empty() {
            w.field("sv", &Value::Str(self.server.clone()));
        }
        w.field("fp", &Value::Str(format!("{:016x}", self.fingerprint)));
        w.field("rd", &Value::Str(self.rdatas.clone()));
        w.finish()
    }

    fn parse_line(line: &str) -> Result<SnapshotEntry, String> {
        let fields = parse_flat_object(line)?;
        let str_field = |key: &str| -> Result<String, String> {
            flat_get(&fields, key)
                .and_then(JsonScalar::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?} in {line:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            flat_get(&fields, key)
                .and_then(JsonScalar::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?} in {line:?}"))
        };
        let fp_hex = str_field("fp")?;
        Ok(SnapshotEntry {
            name: str_field("n")?,
            rtype: str_field("ty")?,
            rank: str_field("rk")?,
            pinned: matches!(flat_get(&fields, "pin"), Some(JsonScalar::Bool(true))),
            stored_at_ms: u64_field("st")?,
            expires_at_ms: u64_field("ex")?,
            remaining_ttl_s: u64_field("rem")? as u32,
            original_ttl_s: u64_field("ot")? as u32,
            effective_ttl_s: u64_field("et")? as u32,
            origin: str_field("or")?,
            bailiwick: str_field("bw")?,
            txn: u64_field("tx")?,
            server: str_field("sv").unwrap_or_default(),
            fingerprint: u64::from_str_radix(&fp_hex, 16)
                .map_err(|_| format!("bad fingerprint {fp_hex:?}"))?,
            rdatas: str_field("rd")?,
        })
    }
}

/// A full positive-cache dump at one instant, sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Snapshot time, simulated ms.
    pub at_ms: u64,
    /// Entries sorted by `(name, rtype)`.
    pub entries: Vec<SnapshotEntry>,
}

impl CacheSnapshot {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Human-readable sorted dump (`sdig --cache-dump` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            ";; cache snapshot @ {} ms — {} entr{}\n",
            self.at_ms,
            self.entries.len(),
            if self.entries.len() == 1 { "y" } else { "ies" },
        );
        for e in &self.entries {
            out.push_str(";; ");
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Machine form: a schema header line, then one line per entry.
    pub fn to_jsonl(&self) -> String {
        let mut header = ObjectWriter::new();
        header.field("schema", &Value::Str(SNAPSHOT_SCHEMA.to_string()));
        header.field("at_ms", &Value::U64(self.at_ms));
        header.field("entries", &Value::U64(self.entries.len() as u64));
        let mut out = header.finish();
        out.push('\n');
        for e in &self.entries {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// Parses [`CacheSnapshot::to_jsonl`] output.
    pub fn parse_jsonl(text: &str) -> Result<CacheSnapshot, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty snapshot")?;
        let header = parse_flat_object(header_line)?;
        let schema = flat_get(&header, "schema")
            .and_then(JsonScalar::as_str)
            .ok_or("missing schema field")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!("unknown snapshot schema {schema:?}"));
        }
        let at_ms = flat_get(&header, "at_ms")
            .and_then(JsonScalar::as_u64)
            .ok_or("missing at_ms")?;
        let declared = flat_get(&header, "entries")
            .and_then(JsonScalar::as_u64)
            .ok_or("missing entries count")?;
        let entries: Vec<SnapshotEntry> = lines
            .map(SnapshotEntry::parse_line)
            .collect::<Result<_, _>>()?;
        if entries.len() as u64 != declared {
            return Err(format!(
                "snapshot declares {declared} entries, found {}",
                entries.len()
            ));
        }
        Ok(CacheSnapshot { at_ms, entries })
    }

    /// What changed between `self` (before) and `after`.
    pub fn diff(&self, after: &CacheSnapshot) -> SnapshotDiff {
        let before_keys: std::collections::BTreeMap<(String, String), &SnapshotEntry> =
            self.entries.iter().map(|e| (e.key(), e)).collect();
        let after_keys: std::collections::BTreeMap<(String, String), &SnapshotEntry> =
            after.entries.iter().map(|e| (e.key(), e)).collect();
        let mut diff = SnapshotDiff::default();
        for (key, b) in &before_keys {
            match after_keys.get(key) {
                None => diff.removed.push((*b).clone()),
                Some(a) if a.fingerprint != b.fingerprint => {
                    diff.changed.push(((*b).clone(), (*a).clone()));
                }
                Some(a) if a.stored_at_ms != b.stored_at_ms => {
                    diff.refreshed.push(((*b).clone(), (*a).clone()));
                }
                Some(_) => {}
            }
        }
        for (key, a) in &after_keys {
            if !before_keys.contains_key(key) {
                diff.added.push((*a).clone());
            }
        }
        diff
    }
}

/// The structural difference between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDiff {
    /// Keys present only in the later snapshot.
    pub added: Vec<SnapshotEntry>,
    /// Keys present only in the earlier snapshot.
    pub removed: Vec<SnapshotEntry>,
    /// Same key, different data fingerprint — an overwrite landed
    /// between the snapshots (before, after).
    pub changed: Vec<(SnapshotEntry, SnapshotEntry)>,
    /// Same key and data, newer store time — a TTL refresh landed
    /// (before, after).
    pub refreshed: Vec<(SnapshotEntry, SnapshotEntry)>,
}

impl SnapshotDiff {
    /// True when the snapshots describe identical cache states.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.changed.is_empty()
            && self.refreshed.is_empty()
    }

    /// Human-readable unified-style diff.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return ";; snapshots identical\n".to_string();
        }
        let mut out = String::new();
        for e in &self.removed {
            out.push_str("- ");
            out.push_str(&e.render());
            out.push('\n');
        }
        for e in &self.added {
            out.push_str("+ ");
            out.push_str(&e.render());
            out.push('\n');
        }
        for (b, a) in &self.changed {
            out.push_str("~ ");
            out.push_str(&b.render());
            out.push('\n');
            out.push_str("~>");
            out.push(' ');
            out.push_str(&a.render());
            out.push('\n');
        }
        for (b, a) in &self.refreshed {
            out.push_str(&format!(
                "r {} {} refreshed at {} ms (was {} ms)\n",
                a.name, a.rtype, a.stored_at_ms, b.stored_at_ms
            ));
        }
        out
    }
}

impl Cache {
    /// Freezes the positive cache into a deterministic sorted dump.
    /// Remaining TTLs are computed at `now`; expired-but-resident
    /// entries show 0 remaining.
    pub fn snapshot(&self, now: SimTime) -> CacheSnapshot {
        let mut entries: Vec<SnapshotEntry> = self
            .iter_entries()
            .map(|((name, rtype), e)| {
                let remaining = if e.pinned {
                    e.ttl
                } else if e.expires_at <= now {
                    Ttl::from_secs(0)
                } else {
                    let age = now.secs_since(e.stored_at) as u32;
                    e.ttl.saturating_sub_secs(age)
                };
                let mut datas: Vec<String> = e.members().iter().map(|rd| rd.to_string()).collect();
                datas.sort();
                let provenance = e.provenance();
                SnapshotEntry {
                    name: name.to_string(),
                    rtype: rtype.to_string(),
                    rank: e.rank.as_str().to_string(),
                    pinned: e.pinned,
                    stored_at_ms: e.stored_at.as_millis(),
                    expires_at_ms: e.expires_at.as_millis(),
                    remaining_ttl_s: remaining.as_secs(),
                    original_ttl_s: provenance.original_ttl.as_secs(),
                    effective_ttl_s: provenance.effective_ttl.as_secs(),
                    origin: provenance.origin.as_str().to_string(),
                    bailiwick: provenance.bailiwick.as_str().to_string(),
                    txn: provenance.txn,
                    server: (provenance.server)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                    fingerprint: e.fingerprint,
                    rdatas: datas.join("|"),
                }
            })
            .collect();
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
    use crate::cache::Credibility;
    use crate::ledger::{BailiwickClass, StoreContext};
    use dnsttl_core::ResolverPolicy;
    use dnsttl_wire::{Name, RData, RRset, RecordType};

    fn a_rrset(name: &str, ttl: u32, last: u8) -> RRset {
        RRset::new(
            Name::parse(name).unwrap(),
            RecordType::A,
            Ttl::from_secs(ttl),
            RData::A(std::net::Ipv4Addr::new(192, 0, 2, last)),
        )
    }

    fn ctx(txn: u64) -> StoreContext {
        StoreContext {
            txn,
            server: Some("198.51.100.1".parse().unwrap()),
            bailiwick: BailiwickClass::In,
        }
    }

    fn populated() -> Cache {
        let policy = ResolverPolicy::default();
        let mut c = Cache::new();
        c.store_with(
            a_rrset("b.example", 300, 2),
            Credibility::AuthAnswer,
            SimTime::ZERO,
            &policy,
            false,
            ctx(1),
        );
        c.store_with(
            a_rrset("a.example", 600, 1),
            Credibility::ReferralAdditional,
            SimTime::from_secs(10),
            &policy,
            false,
            ctx(2),
        );
        c
    }

    #[test]
    fn snapshot_is_sorted_and_ages_ttls() {
        let c = populated();
        let snap = c.snapshot(SimTime::from_secs(100));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.entries[0].name, "a.example.");
        assert_eq!(snap.entries[1].name, "b.example.");
        assert_eq!(snap.entries[0].remaining_ttl_s, 510);
        assert_eq!(snap.entries[1].remaining_ttl_s, 200);
        assert_eq!(snap.entries[0].origin, "parent");
        assert_eq!(snap.entries[1].origin, "child");
        assert_eq!(snap.entries[1].txn, 1);
    }

    #[test]
    fn snapshot_round_trips_through_jsonl() {
        let c = populated();
        let snap = c.snapshot(SimTime::from_secs(42));
        let text = snap.to_jsonl();
        let back = CacheSnapshot::parse_jsonl(&text).unwrap();
        assert_eq!(back, snap);
        // Byte-identical re-render: the format is deterministic.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn diff_classifies_added_removed_changed_refreshed() {
        let policy = ResolverPolicy::default();
        let mut c = populated();
        let before = c.snapshot(SimTime::from_secs(20));
        // a.example changes data (overwrite), b.example refreshes,
        // c.example appears.
        c.store_with(
            a_rrset("a.example", 600, 9),
            Credibility::AuthAnswer,
            SimTime::from_secs(30),
            &policy,
            false,
            ctx(3),
        );
        c.store_with(
            a_rrset("b.example", 300, 2),
            Credibility::AuthAnswer,
            SimTime::from_secs(30),
            &policy,
            false,
            ctx(4),
        );
        c.store_with(
            a_rrset("c.example", 60, 3),
            Credibility::AuthAnswer,
            SimTime::from_secs(30),
            &policy,
            false,
            ctx(5),
        );
        let after = c.snapshot(SimTime::from_secs(31));
        let diff = before.diff(&after);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.added[0].name, "c.example.");
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].1.rdatas, "192.0.2.9");
        assert_eq!(diff.refreshed.len(), 1);
        assert!(diff.removed.is_empty());
        assert!(!diff.render().is_empty());
        // Self-diff is empty.
        assert!(after.diff(&after).is_empty());
    }
}
