//! The metrics registry: counters, gauges, and quantile sketches.
//!
//! Three metric kinds, one of them a distribution: every latency, TTL
//! and interarrival series is a [`QuantileSketch`], exported as a
//! Prometheus `summary`. Counters and sketches are recorded either by
//! borrowed name and labels or through a `const` [`MetricKey`]; gauges
//! only through a key.
//!
//! Everything here is plain `u64`/`f64` cells behind a [`Registry`] —
//! the simulator is single-threaded and deterministic, so there are no
//! atomics and no locks. Metrics are keyed by name plus an ordered
//! label set, stored in `BTreeMap`s so every export (Prometheus text,
//! dashboard) lists series in a stable order.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::json::fmt_f64;
use crate::memo::AddrMemo;
use crate::sketch::QuantileSketch;

/// The quantiles every sketch family exports, with their Prometheus
/// label values. Shared by the text exposition, the dashboard, and the
/// bench report so "p999" means the same thing everywhere.
pub(crate) const SKETCH_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// FNV-1a over the byte stream `name, 0xFF, k₁, 0, v₁, 0, …` with the
/// label pairs in sorted order — the interning key shared by the
/// [`MetricId`] path (shard merge) and the borrowed path, so both
/// address the same bucket.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

#[inline]
const fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

#[inline]
const fn fnv_str(mut h: u64, s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        h = fnv_step(h, bytes[i]);
        i += 1;
    }
    h
}

/// A handle for an *unlabelled* metric series.
///
/// Hot call sites that bump the same counter on every simulated query
/// keep the key in a `const`, so the name it carries is one literal:
/// the registry finds the series by where that literal lives (its
/// address memo) and a name compare — no hash, no label sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKey {
    name: &'static str,
}

impl MetricKey {
    /// Builds the key for the unlabelled series `name`. Usable in
    /// `const` position.
    pub const fn new(name: &'static str) -> MetricKey {
        MetricKey { name }
    }

    /// The metric name this key addresses.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Hasher for the interning fast map: the keys are already FNV-mixed
/// 64-bit hashes, so re-hashing them through SipHash per metric op
/// would only burn cycles. `write_u64` passes the key through.
#[derive(Debug, Default, Clone, Copy)]
struct PrehashedId(u64);

impl std::hash::Hasher for PrehashedId {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fast map keys are u64");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type PrehashedMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<PrehashedId>>;

/// Escapes a label value per the Prometheus text exposition format.
///
/// The exposition format recognises exactly three escapes inside label
/// values — `\\`, `\"` and `\n` — unlike JSON, which also escapes tabs,
/// carriage returns and other control characters. Reusing the JSON
/// escaper here would emit sequences like `\t` that Prometheus parsers
/// reject, so label values get their own escaper.
fn escape_prometheus_label_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A metric series identifier: a name plus its label pairs.
///
/// Labels are sorted on construction, so two call sites that disagree
/// on label order still address the same series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `resolver_cache_hits`.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Whether this is the series `name` with `labels`, given which
    /// borrowed label (`nth(j)`) would be its `j`-th in sorted order.
    fn matches(&self, name: &str, labels: &[(&str, &str)], nth: impl Fn(usize) -> usize) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self.labels.iter().enumerate().all(|(j, (k, v))| {
                let borrowed = labels.get(nth(j));
                borrowed.is_some_and(|(bk, bv)| bk == k && bv == v)
            })
    }

    /// Renders `name{k="v",...}` (or just `name` without labels).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.name);
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                escape_prometheus_label_into(&mut out, v);
                out.push('"');
            }
            out.push('}');
        }
        out
    }
}

/// Most label sets on the hot path have 1–3 pairs; anything beyond this
/// falls back to the allocating [`MetricId`] path.
const MAX_FAST_LABELS: usize = 8;

/// Mixes one more word — an address or a length — into a hash of
/// where strings live: a rotate and a multiply, all such a key needs
/// (the trace's pointer-keyed tables hash with it too).
#[inline]
pub(crate) fn mix(h: u64, word: usize) -> u64 {
    (h.rotate_left(32) ^ word as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// *Where* a borrowed series key lives, as an [`AddrMemo`] key, without
/// reading a byte of it: an unlabelled name's address and length, or
/// for a labelled key a hash of the address and length of its name and
/// of each label string, and the label count. A call site hands in the
/// same strings every time (literals, a server's name, a region's), so
/// this finds the series it found last time for a few multiplies, where
/// [`hash_borrowed`] sorts the labels and walks 20–60 bytes.
#[inline]
fn whereabouts(name: &str, labels: &[(&str, &str)]) -> (usize, usize) {
    if labels.is_empty() {
        return (name.as_ptr() as usize, name.len());
    }
    let mut h = mix(mix(0, name.as_ptr() as usize), name.len());
    for (k, v) in labels {
        h = mix(mix(h, k.as_ptr() as usize), k.len());
        h = mix(mix(h, v.as_ptr() as usize), v.len());
    }
    (h as usize, labels.len())
}

/// One remembered answer of a [`SeriesMap`] lookup.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    slot: u32,
    /// Which borrowed label was the series' `j`-th sorted one, four
    /// bits each ([`MAX_FAST_LABELS`] is 8).
    order: u32,
}

/// Interned storage for one metric kind.
///
/// Series are append-only slots. `ordered` gives deterministic
/// export/iteration order (canonical `MetricId` ordering, exactly what
/// the old `BTreeMap` storage produced); `fast` maps the FNV hash of a
/// *borrowed* `(name, sorted labels)` key to candidate slots so the hot
/// path can find an existing series without building a `MetricId` — no
/// `String` allocation after a series' first touch; `memo` remembers
/// where a borrowed key led, by its [`whereabouts`], and is believed
/// only after the series it names has been compared with the key.
#[derive(Debug, Default)]
struct SeriesMap<T> {
    ids: Vec<MetricId>,
    values: Vec<T>,
    ordered: BTreeMap<MetricId, usize>,
    fast: PrehashedMap<Vec<usize>>,
    memo: AddrMemo<MemoEntry>,
}

/// The interning hash of an already-sorted `MetricId`.
fn hash_id(id: &MetricId) -> u64 {
    let mut h = fnv_step(fnv_str(FNV_OFFSET, &id.name), 0xFF);
    for (k, v) in &id.labels {
        h = fnv_step(fnv_str(h, k), 0);
        h = fnv_step(fnv_str(h, v), 0);
    }
    h
}

/// The same hash computed from borrowed labels visited in `order`.
fn hash_borrowed(name: &str, labels: &[(&str, &str)], order: &[usize]) -> u64 {
    let mut h = fnv_step(fnv_str(FNV_OFFSET, name), 0xFF);
    for &i in order {
        let (k, v) = labels[i];
        h = fnv_step(fnv_str(h, k), 0);
        h = fnv_step(fnv_str(h, v), 0);
    }
    h
}

impl<T: Default> SeriesMap<T> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn keys(&self) -> impl Iterator<Item = &MetricId> {
        self.ordered.keys()
    }

    fn get(&self, id: &MetricId) -> Option<&T> {
        self.ordered.get(id).map(|&s| &self.values[s])
    }

    fn iter(&self) -> impl Iterator<Item = (&MetricId, &T)> {
        self.ordered.iter().map(|(id, &s)| (id, &self.values[s]))
    }

    fn insert_new(&mut self, id: MetricId, hash: u64) -> usize {
        let slot = self.ids.len();
        self.ordered.insert(id.clone(), slot);
        self.ids.push(id);
        self.values.push(T::default());
        self.fast.entry(hash).or_default().push(slot);
        slot
    }

    /// Slot for `id`, interning it on first sight.
    fn slot_of(&mut self, id: MetricId) -> usize {
        if let Some(&s) = self.ordered.get(&id) {
            return s;
        }
        let hash = hash_id(&id);
        self.insert_new(id, hash)
    }

    /// Slot for a borrowed key — the allocation-free hot path. Falls
    /// back to [`SeriesMap::slot_of`] only on first sight of a series
    /// (or for oversized label sets).
    ///
    /// The memo is consulted first, and believed only after the series
    /// it names has been compared with the key byte for byte: an
    /// address says nothing about content once a `String` has been
    /// freed and another allocated in its place. The compare is a
    /// `memcmp` per string; the sort and the FNV walk it saves are not.
    #[inline]
    fn slot_fast(&mut self, name: &str, labels: &[(&str, &str)]) -> usize {
        if labels.len() > MAX_FAST_LABELS {
            return self.slot_of(MetricId::new(name, labels));
        }
        let at = whereabouts(name, labels);
        match self.remembered(name, labels, at) {
            Some(slot) => slot,
            None => self.slot_fast_missed(name, labels, at),
        }
    }

    #[cold]
    #[inline(never)]
    fn slot_fast_missed(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        at: (usize, usize),
    ) -> usize {
        // Sort label *indices* on the stack; the pairs stay borrowed.
        let mut order = [0usize; MAX_FAST_LABELS];
        for (i, o) in order.iter_mut().enumerate().take(labels.len()) {
            *o = i;
        }
        let order = &mut order[..labels.len()];
        order.sort_unstable_by(|&a, &b| labels[a].cmp(&labels[b]));
        let hash = hash_borrowed(name, labels, order);
        let known = self.fast.get(&hash).and_then(|slots| {
            let mut slots = slots.iter().copied();
            slots.find(|&s| self.ids[s].matches(name, labels, |j| order[j]))
        });
        let slot = known.unwrap_or_else(|| self.insert_new(MetricId::new(name, labels), hash));
        self.remember(at, slot, order);
        slot
    }

    /// The slot the memo holds for a key found at `at`, once the series
    /// in it has been compared with the key.
    #[inline]
    fn remembered(&self, name: &str, labels: &[(&str, &str)], at: (usize, usize)) -> Option<usize> {
        let memo = self.memo.get(at.0, at.1)?;
        let nth = |j| (memo.order >> (4 * j)) as usize & 0xf;
        let id = self.ids.get(memo.slot as usize)?;
        id.matches(name, labels, nth).then_some(memo.slot as usize)
    }

    /// Notes that the key found at `at` led to `slot`, its `j`-th
    /// sorted label being borrowed label `order[j]`.
    fn remember(&mut self, at: (usize, usize), slot: usize, order: &[usize]) {
        let memo = MemoEntry {
            slot: slot as u32,
            order: (order.iter().rev()).fold(0, |packed, &i| packed << 4 | i as u32),
        };
        self.memo.insert(at.0, at.1, memo);
    }

    fn value_mut(&mut self, slot: usize) -> &mut T {
        &mut self.values[slot]
    }
}

/// The registry holding every metric series of a run.
#[derive(Debug, Default)]
pub struct Registry {
    counters: SeriesMap<u64>,
    gauges: SeriesMap<f64>,
    sketches: SeriesMap<QuantileSketch>,
}

/// Help text for the known metric families; unknown families get a
/// generated fallback so every `# TYPE` in the exposition is preceded
/// by a `# HELP`.
fn help_for(name: &str) -> &'static str {
    match name {
        "resolver_client_queries" => "Client queries received by the recursive resolver",
        "resolver_cache_hits" => "Client queries answered entirely from cache",
        "resolver_cache_misses" => "Client queries not answered entirely from cache",
        "resolver_cache_expiries" => "Cache entries found but past their TTL at lookup",
        "resolver_cache_entries" => "Current number of cached RRsets",
        "resolver_stale_answers" => "Answers served from expired entries (RFC 8767)",
        "resolver_servfails" => "Resolutions that failed with SERVFAIL",
        "resolver_failure_caches" => "Upstream failures negatively cached (RFC 2308)",
        "resolver_prefetches" => "Near-expiry cache entries refreshed ahead of demand",
        "resolver_validations" => "DNSSEC validations attempted",
        "resolver_validation_failures" => "DNSSEC validations that failed",
        "resolver_tcp_fallbacks" => "Truncated UDP responses retried over TCP",
        "resolver_upstream_queries" => "Queries sent to authoritative servers",
        "resolver_timeouts" => "Upstream exchanges that timed out",
        "resolver_backoff_skips" => "Candidate servers skipped while in backoff",
        "resolver_fault_flushes" => "Scripted cache flush faults applied",
        "resolver_latency_quantiles_ms" => {
            "Resolution latency quantile sketch in milliseconds (1.6% relative error)"
        }
        "resolver_answer_ttl_s" => "TTLs of answers returned to clients, in seconds",
        "resolution_latency_ms" => {
            "Per-scenario resolution latency quantile sketch in milliseconds"
        }
        "resolution_latency_by_ttl_ms" => {
            "Resolution latency quantile sketch bucketed by answer TTL band"
        }
        "atlas_measurements_valid" => "Atlas-style measurements accepted as valid",
        "atlas_measurements_discarded" => "Atlas-style measurements discarded, by reason",
        "zipf_queries_total" => "Client queries issued by the Zipf population sweep",
        "zipf_cache_hits_total" => "Zipf population queries answered from cache",
        "auth_queries" => "Queries arriving at authoritative servers",
        "auth_responses" => "Responses sent by authoritative servers, by outcome",
        "auth_interarrival_ms" => {
            "Gap between consecutive queries at an authoritative server, in milliseconds"
        }
        "auth_zone_transfers" => "Zone transfers applied to secondary servers",
        "net_packets_sent" => "Packets injected into the simulated network",
        "net_packets_lost" => "Packets dropped by the loss model",
        "net_responses" => "Responses delivered by the simulated network",
        "net_rtt_ms" => "Sampled round-trip time of answered exchanges, in milliseconds",
        "net_anycast_catchment" => "Exchanges to anycast addresses, by client region and site",
        "net_unencodable" => "Exchanges dropped because the codec could not encode a message",
        "net_unknown_address" => "Packets sent to addresses with no server",
        "net_fault_outage" => "Packets dropped by a scripted outage fault",
        "net_fault_degraded_drop" => "Packets dropped by a scripted degradation fault",
        "net_fault_blackout" => "Packets dropped by a scripted blackout fault",
        "trace_dropped_events" => "Trace events evicted from the bounded ring, by kind",
        "experiment_renumbers" => "Authoritative renumbering events scripted by experiments",
        _ => "Simulator metric (see DESIGN.md)",
    }
}

/// Writes the `# HELP`/`# TYPE` family header when `name` differs from
/// the previously emitted family, tracking it in `last`.
fn family_header(out: &mut String, last: &mut Option<String>, name: &str, mtype: &str) {
    if last.as_deref() != Some(name) {
        let _ = writeln!(out, "# HELP {} {}", name, help_for(name));
        let _ = writeln!(out, "# TYPE {} {}", name, mtype);
        *last = Some(name.to_string());
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to a counter addressed by borrowed name/labels —
    /// allocation-free once the series exists.
    pub(crate) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let slot = self.counters.slot_fast(name, labels);
        *self.counters.value_mut(slot) += delta;
    }

    /// Adds `delta` to the unlabelled counter behind a key.
    pub(crate) fn counter_add_keyed(&mut self, key: &MetricKey, delta: u64) {
        let slot = self.counters.slot_fast(key.name, &[]);
        *self.counters.value_mut(slot) += delta;
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, id: &MetricId) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sets the unlabelled gauge behind a key.
    pub(crate) fn gauge_set_keyed(&mut self, key: &MetricKey, value: f64) {
        let slot = self.gauges.slot_fast(key.name, &[]);
        *self.gauges.value_mut(slot) = value;
    }

    /// Records an observation into the quantile sketch addressed by
    /// borrowed name/labels, creating it if needed.
    pub(crate) fn sketch_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let slot = self.sketches.slot_fast(name, labels);
        self.sketches.value_mut(slot).observe(value);
    }

    /// Records an observation into the unlabelled sketch behind a key.
    pub(crate) fn sketch_observe_keyed(&mut self, key: &MetricKey, value: u64) {
        let slot = self.sketches.slot_fast(key.name, &[]);
        self.sketches.value_mut(slot).observe(value);
    }

    /// Iterates counters in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricId, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    #[cfg(test)]
    /// Iterates quantile sketches in deterministic order.
    pub(crate) fn sketches(&self) -> impl Iterator<Item = (&MetricId, &QuantileSketch)> {
        self.sketches.iter()
    }

    /// Merges another registry into this one (summing counters and
    /// sketches; `other`'s gauges win on key collisions). Sketch
    /// merging adds bucket counts, so repeated pairwise merges are
    /// associative — shard order cannot change the merged quantiles.
    pub(crate) fn merge(&mut self, other: &Registry) {
        for (id, v) in other.counters.iter() {
            let slot = self.counters.slot_of(id.clone());
            *self.counters.value_mut(slot) += v;
        }
        for (id, v) in other.gauges.iter() {
            let slot = self.gauges.slot_of(id.clone());
            *self.gauges.value_mut(slot) = *v;
        }
        for (id, s) in other.sketches.iter() {
            let slot = self.sketches.slot_of(id.clone());
            self.sketches.value_mut(slot).merge(s);
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (counters and gauges as-is; quantile sketches as
    /// summaries: `quantile`-labelled samples plus `_sum` and
    /// `_count`). Every metric family gets exactly one `# HELP`/`# TYPE`
    /// header: series are already sorted by name, so a header is
    /// emitted whenever the family name changes.
    pub(crate) fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last = None;
        for (id, v) in self.counters.iter() {
            family_header(&mut out, &mut last, &id.name, "counter");
            let _ = writeln!(out, "{} {}", id.render(), v);
        }
        let mut last = None;
        for (id, v) in self.gauges.iter() {
            family_header(&mut out, &mut last, &id.name, "gauge");
            let mut val = String::new();
            fmt_f64(&mut val, *v);
            let _ = writeln!(out, "{} {}", id.render(), val);
        }
        let mut last = None;
        for (id, s) in self.sketches.iter() {
            family_header(&mut out, &mut last, &id.name, "summary");
            for (q, label) in SKETCH_QUANTILES {
                let Some(v) = s.quantile(q) else { continue };
                let mut with_q = id.clone();
                with_q
                    .labels
                    .push(("quantile".to_string(), label.to_string()));
                let _ = writeln!(out, "{} {}", with_q.render(), v);
            }
            let mut sum_id = id.clone();
            sum_id.name = format!("{}_sum", id.name);
            let _ = writeln!(out, "{} {}", sum_id.render(), s.sum());
            let mut count_id = id.clone();
            count_id.name = format!("{}_count", id.name);
            let _ = writeln!(out, "{} {}", count_id.render(), s.count());
        }
        out
    }

    /// Renders a compact ASCII dashboard: counters and gauges as a
    /// table, sketches as one line of summary quantiles each.
    pub(crate) fn to_dashboard(&self) -> String {
        let mut out = String::new();
        if self.counters.len() + self.gauges.len() > 0 {
            let _ = writeln!(out, "── counters ─────────────────────────────────────────");
            let width = self
                .counters
                .keys()
                .chain(self.gauges.keys())
                .map(|id| id.render().len())
                .max()
                .unwrap_or(0);
            for (id, v) in self.counters.iter() {
                let _ = writeln!(out, "  {:<width$}  {:>12}", id.render(), v);
            }
            for (id, v) in self.gauges.iter() {
                let mut val = String::new();
                fmt_f64(&mut val, *v);
                let _ = writeln!(out, "  {:<width$}  {:>12}", id.render(), val);
            }
        }
        for (id, s) in self.sketches.iter() {
            let _ = writeln!(out, "── {} (sketch)", id.render());
            let (Some(min), Some(max)) = (s.min(), s.max()) else {
                let _ = writeln!(out, "  (empty)");
                continue;
            };
            let _ = writeln!(
                out,
                "  n={} min={} p50={} p90={} p99={} p999={} max={}",
                s.count(),
                min,
                s.quantile(0.5).unwrap_or(0),
                s.quantile(0.9).unwrap_or(0),
                s.quantile(0.99).unwrap_or(0),
                s.quantile(0.999).unwrap_or(0),
                max,
            );
        }
        out
    }
}

/// Drops `old` and allocates copies of `new` (the same length) until
/// the allocator hands back `old`'s address; `None` if it never does.
#[cfg(test)]
pub(crate) fn reallocated_at(old: String, new: &str) -> Option<String> {
    assert_eq!(old.len(), new.len());
    let addr = old.as_ptr();
    drop(old);
    let mut elsewhere = Vec::new();
    for _ in 0..1_000 {
        let candidate = new.to_string();
        if candidate.as_ptr() == addr {
            return Some(candidate);
        }
        elsewhere.push(candidate); // held, so the next try lands somewhere new
    }
    eprintln!("skipped: the allocator never reused the freed address");
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_matches_the_golden_exposition() {
        const ENTRIES: MetricKey = MetricKey::new("resolver_cache_entries");
        const LATENCY: MetricKey = MetricKey::new("resolver_latency_quantiles_ms");
        let mut r = Registry::new();
        r.counter_add_keyed(&MetricKey::new("resolver_client_queries"), 4);
        r.counter_add("auth_queries", &[("server", "b")], 1);
        r.counter_add("auth_queries", &[("server", "a")], 3);
        r.gauge_set_keyed(&ENTRIES, 2.0);
        r.gauge_set_keyed(&ENTRIES, 7.5);
        for v in [3, 10, 10, 250] {
            r.sketch_observe_keyed(&LATENCY, v);
        }
        r.sketch_observe("undocumented_ms", &[("k", "v")], 5);
        let golden = "\
# HELP auth_queries Queries arriving at authoritative servers
# TYPE auth_queries counter
auth_queries{server=\"a\"} 3
auth_queries{server=\"b\"} 1
# HELP resolver_client_queries Client queries received by the recursive resolver
# TYPE resolver_client_queries counter
resolver_client_queries 4
# HELP resolver_cache_entries Current number of cached RRsets
# TYPE resolver_cache_entries gauge
resolver_cache_entries 7.5
# HELP resolver_latency_quantiles_ms Resolution latency quantile sketch in milliseconds (1.6% relative error)
# TYPE resolver_latency_quantiles_ms summary
resolver_latency_quantiles_ms{quantile=\"0.5\"} 10
resolver_latency_quantiles_ms{quantile=\"0.9\"} 249
resolver_latency_quantiles_ms{quantile=\"0.99\"} 249
resolver_latency_quantiles_ms{quantile=\"0.999\"} 249
resolver_latency_quantiles_ms_sum 273
resolver_latency_quantiles_ms_count 4
# HELP undocumented_ms Simulator metric (see DESIGN.md)
# TYPE undocumented_ms summary
undocumented_ms{k=\"v\",quantile=\"0.5\"} 5
undocumented_ms{k=\"v\",quantile=\"0.9\"} 5
undocumented_ms{k=\"v\",quantile=\"0.99\"} 5
undocumented_ms{k=\"v\",quantile=\"0.999\"} 5
undocumented_ms_sum{k=\"v\"} 5
undocumented_ms_count{k=\"v\"} 1
";
        assert_eq!(r.to_prometheus_text(), golden);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut r = Registry::new();
        r.counter_add("q", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("q", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter(&MetricId::new("q", &[("a", "1"), ("b", "2")])), 2);
    }

    #[test]
    fn a_reused_address_does_not_alias_a_series() {
        // The memo is keyed by where a name and its labels live. A heap
        // string freed and another allocated in its place has the same
        // key and other bytes: it must find its own series.
        let mut r = Registry::new();
        let name = String::from("alias_probe_one");
        r.counter_add(&name, &[], 1);
        if let Some(other) = reallocated_at(name, "alias_probe_two") {
            r.counter_add(&other, &[], 1);
            assert_eq!(r.counter(&MetricId::new("alias_probe_one", &[])), 1);
            assert_eq!(r.counter(&MetricId::new("alias_probe_two", &[])), 1);
        }
        let (family, key) = ("alias_probe", "region");
        let value = String::from("region-a");
        r.sketch_observe(family, &[(key, &value)], 7);
        if let Some(other) = reallocated_at(value, "region-b") {
            r.sketch_observe(family, &[(key, &other)], 9);
            let counts: Vec<(String, u64)> = r
                .sketches()
                .map(|(id, s)| (id.render(), s.count()))
                .collect();
            assert_eq!(
                counts,
                vec![
                    ("alias_probe{region=\"region-a\"}".to_string(), 1),
                    ("alias_probe{region=\"region-b\"}".to_string(), 1)
                ]
            );
        }
    }

    #[test]
    fn one_series_has_one_slot_however_it_is_reached() {
        let mut m: SeriesMap<u64> = SeriesMap::default();
        let keyed = m.slot_of(MetricId::new("plain", &[]));
        assert_eq!(m.slot_fast("plain", &[]), keyed);
        assert_eq!(m.slot_fast("plain", &[]), keyed); // from the memo
        assert_eq!(m.slot_of(MetricId::new("plain", &[])), keyed);
        let labelled = m.slot_fast("q", &[("b", "2"), ("a", "1")]);
        assert_ne!(labelled, keyed);
        assert_eq!(m.slot_fast("q", &[("b", "2"), ("a", "1")]), labelled); // from the memo
        assert_eq!(m.slot_fast("q", &[("a", "1"), ("b", "2")]), labelled);
        assert_eq!(
            m.slot_of(MetricId::new("q", &[("a", "1"), ("b", "2")])),
            labelled
        );
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn a_metric_key_and_its_name_share_one_slot_and_one_memo_entry() {
        let mut r = Registry::new();
        let remembered = |r: &Registry, name: &str| {
            let slot = r.counters.remembered(name, &[], whereabouts(name, &[]));
            slot.expect("the memo holds the series")
        };
        let keyed: &'static str = "keyed_first_total";
        r.counter_add_keyed(&MetricKey::new(keyed), 2);
        let slot = remembered(&r, keyed);
        r.counter_add(keyed, &[], 3);
        assert_eq!(remembered(&r, keyed), slot);
        let named: &'static str = "named_first_total";
        r.counter_add(named, &[], 1);
        let slot = remembered(&r, named);
        r.counter_add_keyed(&MetricKey::new(named), 1);
        assert_eq!(remembered(&r, named), slot);
        let counters: Vec<(String, u64)> = r.counters().map(|(id, v)| (id.render(), v)).collect();
        assert_eq!(
            counters,
            vec![
                ("keyed_first_total".into(), 5),
                ("named_first_total".into(), 2)
            ]
        );
    }

    #[test]
    fn hostile_label_values_are_escaped_per_exposition_format() {
        let mut r = Registry::new();
        r.counter_add("q", &[("zone", "evil\"zone\\with\nnewline\tand tab")], 1);
        let text = r.to_prometheus_text();
        // `"` → `\"`, `\` → `\\`, newline → `\n`; a raw tab stays raw —
        // the exposition format has no `\t` escape.
        assert!(text.contains("q{zone=\"evil\\\"zone\\\\with\\nnewline\tand tab\"} 1"));
        assert!(!text.contains("\\t"));
        assert!(!text.contains("\\u"));
    }

    #[test]
    fn prometheus_text_is_stable() {
        let mut r = Registry::new();
        r.counter_add("b_metric", &[], 2);
        r.counter_add("a_metric", &[("k", "v")], 1);
        r.sketch_observe("lat", &[], 5);
        let text = r.to_prometheus_text();
        let again = r.to_prometheus_text();
        assert_eq!(text, again);
        // BTreeMap ordering: a_metric before b_metric.
        assert!(text.find("a_metric").unwrap() < text.find("b_metric").unwrap());
        assert!(text.contains("lat{quantile=\"0.5\"} 5"));
        assert!(text.contains("lat_sum 5"));
    }

    #[test]
    fn exposition_has_one_help_and_type_header_per_family() {
        let mut r = Registry::new();
        // Two series of the same counter family, plus a gauge and two
        // sketch families.
        r.counter_add("q", &[("scenario", "a")], 1);
        r.counter_add("q", &[("scenario", "b")], 2);
        r.gauge_set_keyed(&MetricKey::new("resolver_cache_entries"), 7.0);
        r.sketch_observe("resolver_answer_ttl_s", &[], 12);
        r.sketch_observe("resolution_latency_ms", &[], 40);
        let text = r.to_prometheus_text();

        // Every # TYPE is preceded by a matching # HELP, exactly once
        // per family, with a valid exposition type.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap();
                let ty = parts.next().unwrap();
                assert!(
                    matches!(ty, "counter" | "gauge" | "summary"),
                    "bad type line: {line}"
                );
                let help = lines[i - 1];
                assert!(
                    help.starts_with(&format!("# HELP {family} ")),
                    "# TYPE {family} not preceded by its # HELP (got: {help})"
                );
            }
        }
        assert_eq!(text.matches("# TYPE q counter").count(), 1);
        assert_eq!(text.matches("# HELP q ").count(), 1);

        // Non-comment lines all belong to a declared family.
        let declared: Vec<String> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|rest| rest.split(' ').next().unwrap().to_string())
            .collect();
        for line in lines.iter().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                declared.contains(&family.to_string()),
                "series {name} has no # TYPE header"
            );
        }
    }

    #[test]
    fn sketches_export_as_summaries_and_merge() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for v in 0..500u64 {
            a.sketch_observe("resolution_latency_ms", &[("scenario", "x")], v);
            b.sketch_observe("resolution_latency_ms", &[("scenario", "x")], v + 500);
        }
        a.merge(&b);
        let (_, s) = a.sketches().next().expect("merged sketch");
        assert_eq!(s.count(), 1000);
        let text = a.to_prometheus_text();
        assert!(text.contains("# TYPE resolution_latency_ms summary"));
        assert!(text.contains("resolution_latency_ms{scenario=\"x\",quantile=\"0.999\"}"));
        assert!(text.contains("resolution_latency_ms_count{scenario=\"x\"} 1000"));
        // p50 of 0..1000 is ~500, within the 1.6% bound.
        let p50 = s.quantile(0.5).unwrap() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50 {p50}");
    }
}
