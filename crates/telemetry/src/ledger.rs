//! The cache provenance ledger codec.
//!
//! The resolver cache emits one [`LedgerRecord`] per cache transaction
//! — insert, refresh, overwrite, serve, expiry, stale serve — in the
//! spirit of dnstap's per-message framing, but for cache state. This
//! module owns the *codec*: a compact JSONL line format (short keys,
//! hex fingerprints, no optional-field noise) with a strict parser, so
//! ledgers survive a round trip through a file and downstream tools
//! (`repro cache-report`, the bench runner) can re-aggregate them
//! without the resolver in the loop.
//!
//! The telemetry crate knows nothing about DNS types, so records carry
//! names, record types, credibility ranks and origins as plain
//! strings; `dnsttl-resolver` is responsible for rendering them
//! consistently.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::json::{self, flat_get, parse_flat_object, JsonScalar, Value};

/// What a ledger record describes. Every journalled removal carries
/// exactly one cause, so `expire + overwrite` counts sum to total
/// journalled removals — the conservation law the resolver's
/// accounting tests enforce.
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

    /// Parses a ledger-line token.
    pub fn parse(s: &str) -> Option<CacheOp> {
        Some(match s {
            "insert" => CacheOp::Insert,
            "refresh" => CacheOp::Refresh,
            "overwrite" => CacheOp::Overwrite,
            "serve" => CacheOp::Serve,
            "expire" => CacheOp::Expire,
            "stale_serve" => CacheOp::StaleServe,
            "neg_cache" => CacheOp::NegCache,
            _ => return None,
        })
    }

    /// Whether this op ends an entry's residency in the cache.
    /// (`Overwrite` both ends one residency and starts another.)
    pub fn is_removal(&self) -> bool {
        matches!(self, CacheOp::Overwrite | CacheOp::Expire)
    }

    /// All ops, in codec order.
    pub const ALL: [CacheOp; 7] = [
        CacheOp::Insert,
        CacheOp::Refresh,
        CacheOp::Overwrite,
        CacheOp::Serve,
        CacheOp::Expire,
        CacheOp::StaleServe,
        CacheOp::NegCache,
    ];
}

impl std::fmt::Display for CacheOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One cache transaction, as written to the ledger.
///
/// Compact line keys: `t` (sim ms), `op`, `n` (owner name), `ty`
/// (record type), `tx` (installing transaction id), `sv` (source
/// server), `or` (parent/child origin), `bw` (bailiwick class), `rk`
/// (credibility rank), `ot`/`et` (original/effective TTL seconds),
/// `res` (residency ms, removal + serve ops), `fp` (16-hex-digit
/// RRset fingerprint, TTL-excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Simulation time of the transaction, milliseconds.
    pub t_ms: u64,
    /// The transaction kind.
    pub op: CacheOp,
    /// Owner name of the cached RRset (presentation form). `Arc<str>`
    /// so the hot path shares the name's buffer instead of copying it
    /// once per transaction.
    pub name: Arc<str>,
    /// Record type mnemonic (`A`, `NS`, …). `Cow` so the recorder
    /// borrows the `'static` mnemonic table and only the parser
    /// allocates.
    pub rtype: Cow<'static, str>,
    /// Id of the resolution transaction that installed the entry.
    pub txn: u64,
    /// The server the installing response came from (`None` if unknown,
    /// e.g. a pre-seeded root hint). Stored as the address, rendered
    /// lazily by the codec.
    pub server: Option<std::net::IpAddr>,
    /// `parent`, `child`, or `none` — which side of the zone cut the
    /// installing record came from.
    pub origin: Cow<'static, str>,
    /// `in`, `out`, or `none` — bailiwick class relative to the
    /// responding zone.
    pub bailiwick: Cow<'static, str>,
    /// Credibility rank token (RFC 2181 §5.4.1 ladder).
    pub rank: Cow<'static, str>,
    /// TTL as published in the installing response, seconds.
    pub original_ttl: u32,
    /// TTL after resolver policy (caps/coupling), seconds.
    pub effective_ttl: u32,
    /// For removal and serve ops: how long the entry had been resident
    /// at transaction time, milliseconds.
    pub residency_ms: Option<u64>,
    /// TTL-excluded FNV-1a fingerprint of the RRset data.
    pub fingerprint: u64,
}

impl LedgerRecord {
    /// Appends the record to `out` as one compact JSON object (no
    /// newline). Strings are written where they lie, so a line costs
    /// nothing beyond the buffer it lands in.
    fn write_line(&self, out: &mut String) {
        fn text(out: &mut String, key: &str, s: &str) {
            out.push(',');
            json::push_key(out, key);
            json::push_string(out, s);
        }
        fn scalar(out: &mut String, key: &str, value: Value) {
            out.push(',');
            json::push_key(out, key);
            json::write_value(out, &value);
        }
        out.push_str("{\"t\":");
        json::push_u64(out, self.t_ms);
        text(out, "op", self.op.as_str());
        text(out, "n", &self.name);
        text(out, "ty", &self.rtype);
        scalar(out, "tx", Value::U64(self.txn));
        if let Some(server) = self.server {
            scalar(out, "sv", Value::Addr(server));
        }
        text(out, "or", &self.origin);
        text(out, "bw", &self.bailiwick);
        text(out, "rk", &self.rank);
        scalar(out, "ot", Value::U64(self.original_ttl as u64));
        scalar(out, "et", Value::U64(self.effective_ttl as u64));
        if let Some(res) = self.residency_ms {
            scalar(out, "res", Value::U64(res));
        }
        // Hex, not a JSON number: u64 fingerprints exceed f64's exact
        // integer range, and the parser reads numbers through f64.
        scalar(out, "fp", Value::Hex64(self.fingerprint));
        out.push('}');
    }

    /// Renders the record as one compact JSON line (no newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    /// Parses one ledger line. Strict: unknown ops and malformed
    /// fields are errors, missing optional fields are not.
    pub fn parse_line(line: &str) -> Result<LedgerRecord, String> {
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
        let op_token = str_field("op")?;
        let fp_hex = str_field("fp")?;
        let server = match flat_get(&fields, "sv").and_then(JsonScalar::as_str) {
            Some(s) => Some(
                s.parse()
                    .map_err(|_| format!("bad server address {s:?} in {line:?}"))?,
            ),
            None => None,
        };
        Ok(LedgerRecord {
            t_ms: u64_field("t")?,
            op: CacheOp::parse(&op_token).ok_or_else(|| format!("unknown op {op_token:?}"))?,
            name: str_field("n")?.into(),
            rtype: str_field("ty")?.into(),
            txn: u64_field("tx")?,
            server,
            origin: str_field("or")?.into(),
            bailiwick: str_field("bw")?.into(),
            rank: str_field("rk")?.into(),
            original_ttl: u64_field("ot")? as u32,
            effective_ttl: u64_field("et")? as u32,
            residency_ms: flat_get(&fields, "res").and_then(JsonScalar::as_u64),
            fingerprint: u64::from_str_radix(&fp_hex, 16)
                .map_err(|_| format!("bad fingerprint {fp_hex:?}"))?,
        })
    }
}

/// Default journal capacity — generous for the paper-scale runs while
/// bounding a pathological run.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 17;

/// A bounded, ordered buffer of ledger records. Like the trace ring:
/// when full, the oldest records are dropped and counted, so recent
/// history always survives.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    ring: VecDeque<LedgerRecord>,
    dropped: u64,
    total: u64,
}

impl Journal {
    /// A journal with the given capacity (min 1).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            total: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, rec: LedgerRecord) {
        self.total += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &LedgerRecord> {
        self.ring.iter()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever pushed (buffered + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Renders buffered records as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.ring.iter() {
            rec.write_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL ledger back into records (blank lines skipped).
    pub fn parse_jsonl(text: &str) -> Result<Vec<LedgerRecord>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(LedgerRecord::parse_line)
            .collect()
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(op: CacheOp, t_ms: u64) -> LedgerRecord {
        LedgerRecord {
            t_ms,
            op,
            name: "ns1.sub.cachetest.net.".into(),
            rtype: Cow::Borrowed("A"),
            txn: 7,
            server: Some("192.0.2.53".parse().unwrap()),
            origin: Cow::Borrowed("child"),
            bailiwick: Cow::Borrowed("in"),
            rank: Cow::Borrowed("auth_answer"),
            original_ttl: 7200,
            effective_ttl: 3600,
            residency_ms: op.is_removal().then_some(3_600_000),
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn record_round_trips_through_line_codec() {
        for op in CacheOp::ALL {
            let rec = sample(op, 42_000);
            let line = rec.to_line();
            assert_eq!(LedgerRecord::parse_line(&line).unwrap(), rec);
        }
    }

    #[test]
    fn fingerprints_survive_beyond_f64_precision() {
        let mut rec = sample(CacheOp::Insert, 0);
        rec.fingerprint = u64::MAX - 1; // not representable in f64
        let back = LedgerRecord::parse_line(&rec.to_line()).unwrap();
        assert_eq!(back.fingerprint, u64::MAX - 1);
    }

    #[test]
    fn missing_server_is_omitted_and_parses_back_none() {
        let mut rec = sample(CacheOp::Insert, 5);
        rec.server = None;
        let line = rec.to_line();
        assert!(!line.contains("\"sv\""));
        assert_eq!(LedgerRecord::parse_line(&line).unwrap().server, None);
    }

    #[test]
    fn journal_ring_bounds_and_counts() {
        let mut j = Journal::with_capacity(2);
        for i in 0..5 {
            j.push(sample(CacheOp::Serve, i));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.total_recorded(), 5);
        assert_eq!(j.records().next().unwrap().t_ms, 3);
        let parsed = Journal::parse_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].t_ms, 4);
    }

    #[test]
    fn lines_keep_their_pinned_bytes() {
        // Expected strings are the pre-streaming writer's output.
        let mut rec = sample(CacheOp::Expire, 42_000);
        assert_eq!(
            rec.to_line(),
            r#"{"t":42000,"op":"expire","n":"ns1.sub.cachetest.net.","ty":"A","tx":7,"sv":"192.0.2.53","or":"child","bw":"in","rk":"auth_answer","ot":7200,"et":3600,"res":3600000,"fp":"deadbeefcafef00d"}"#
        );
        rec.server = None;
        rec.residency_ms = None;
        rec.rtype = Cow::Owned("TY\"PE".to_string());
        rec.fingerprint = 0;
        assert_eq!(
            rec.to_line(),
            r#"{"t":42000,"op":"expire","n":"ns1.sub.cachetest.net.","ty":"TY\"PE","tx":7,"or":"child","bw":"in","rk":"auth_answer","ot":7200,"et":3600,"fp":"0000000000000000"}"#
        );
        // The journal export is the same writer, a line per record.
        let mut j = Journal::with_capacity(2);
        j.push(rec.clone());
        j.push(sample(CacheOp::Serve, 1));
        let expected = format!(
            "{}\n{}\n",
            rec.to_line(),
            sample(CacheOp::Serve, 1).to_line()
        );
        assert_eq!(j.to_jsonl(), expected);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(LedgerRecord::parse_line("{}").is_err());
        assert!(LedgerRecord::parse_line(r#"{"t":1,"op":"teleport"}"#).is_err());
    }
}
