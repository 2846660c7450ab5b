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
//! label set. A series' slot holds its total and, once a `_at` record
//! has touched it, its sim-time buckets (see the `timeseries` module);
//! one sorted slot list per kind gives every export (Prometheus text,
//! dashboard, time-series JSONL) a stable order.

use std::cmp::Ordering;
use std::fmt::Write as _;

use crate::json::fmt_f64;
use crate::memo::AddrMemo;
use crate::sketch::QuantileSketch;
use crate::timeseries::{
    dense_lines, BucketSeries, BucketValue, GaugeBucket, DEFAULT_TS_BUCKET_MS, DEFAULT_TS_SPAN_CAP,
};

/// The quantiles every sketch family exports, with their Prometheus
/// label values. Shared by the text exposition and the dashboard so
/// "p999" means the same thing everywhere.
pub(crate) const SKETCH_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// A handle for an *unlabelled* metric series.
///
/// Hot call sites that bump the same counter on every simulated query
/// keep the key in a `const`, so the name it carries is one literal:
/// the registry finds the series by where that literal lives (its
/// address memo) and a name compare — no hash, no label sort — and a
/// `_at` record finds the total and its sim-time buckets in that one
/// slot.
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

    /// How this id orders against the series `name` with `labels`, the
    /// borrowed label `nth(j)` being its `j`-th in sorted order: the
    /// derived order of `MetricId`, without building one.
    fn cmp_borrowed(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        nth: impl Fn(usize) -> usize,
    ) -> Ordering {
        let mine = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let theirs = (0..labels.len()).map(|j| labels[nth(j)]);
        self.name.as_str().cmp(name).then_with(|| mine.cmp(theirs))
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
/// a miss sorts the labels and binary-searches the slot list.
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

/// Interned storage for one metric kind: each series' total `T` and,
/// once a `_at` record has touched it, its sim-time buckets of `B`.
///
/// Series are append-only slots. `sorted` lists the slots in
/// `MetricId` order — the export order, and what a first touch is
/// binary-searched in. `memo` remembers where a borrowed key led, by
/// its [`whereabouts`], and is believed only after the series it names
/// has been compared with the key; no `String` is allocated after a
/// series' first touch.
#[derive(Debug)]
struct SeriesMap<T, B> {
    ids: Vec<MetricId>,
    values: Vec<T>,
    series: Vec<Option<BucketSeries<B>>>,
    sorted: Vec<u32>,
    memo: AddrMemo<MemoEntry>,
}

impl<T, B> Default for SeriesMap<T, B> {
    fn default() -> SeriesMap<T, B> {
        SeriesMap {
            ids: Vec::new(),
            values: Vec::new(),
            series: Vec::new(),
            sorted: Vec::new(),
            memo: AddrMemo::default(),
        }
    }
}

impl<T: Default, B: BucketValue> SeriesMap<T, B> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Where `id` is, or would go, in `sorted`.
    fn search(&self, id: &MetricId) -> Result<usize, usize> {
        (self.sorted).binary_search_by(|&s| self.ids[s as usize].cmp(id))
    }

    fn get(&self, id: &MetricId) -> Option<&T> {
        Some(&self.values[self.sorted[self.search(id).ok()?] as usize])
    }

    /// Every series in `MetricId` order, with its slot.
    fn slots(&self) -> impl Iterator<Item = (usize, &MetricId)> {
        (self.sorted.iter()).map(|&s| (s as usize, &self.ids[s as usize]))
    }

    fn iter(&self) -> impl Iterator<Item = (&MetricId, &T)> {
        self.slots().map(|(s, id)| (id, &self.values[s]))
    }

    /// A new slot for `id`, at position `at` of `sorted`.
    fn insert_at(&mut self, at: usize, id: MetricId) -> usize {
        let slot = self.ids.len();
        self.ids.push(id);
        self.values.push(T::default());
        self.series.push(None);
        self.sorted.insert(at, slot as u32);
        slot
    }

    /// Slot for `id`, interning it on first sight.
    fn slot_of(&mut self, id: &MetricId) -> usize {
        match self.search(id) {
            Ok(at) => self.sorted[at] as usize,
            Err(at) => self.insert_at(at, id.clone()),
        }
    }

    /// Slot for a borrowed key — the allocation-free hot path. Falls
    /// back to [`SeriesMap::slot_of`] only for oversized label sets.
    ///
    /// The memo is consulted first, and believed only after the series
    /// it names has been compared with the key byte for byte: an
    /// address says nothing about content once a `String` has been
    /// freed and another allocated in its place. The compare is a
    /// `memcmp` per string; the sort and the search it saves are not.
    #[inline]
    fn slot_fast(&mut self, name: &str, labels: &[(&str, &str)]) -> usize {
        if labels.len() > MAX_FAST_LABELS {
            return self.slot_of(&MetricId::new(name, labels));
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
        let found = self
            .sorted
            .binary_search_by(|&s| self.ids[s as usize].cmp_borrowed(name, labels, |j| order[j]));
        let slot = match found {
            Ok(pos) => self.sorted[pos] as usize,
            Err(pos) => self.insert_at(pos, MetricId::new(name, labels)),
        };
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

    /// The total and the sim-time series of the unlabelled series
    /// `name`, the series started at `width_ms` on its first record.
    #[inline]
    fn timed(&mut self, name: &str, width_ms: u64) -> (&mut T, &mut BucketSeries<B>) {
        let slot = self.slot_fast(name, &[]);
        let series = self.series[slot].get_or_insert_with(|| BucketSeries::new(width_ms));
        (&mut self.values[slot], series)
    }

    /// Folds every series of `other` into `self`: its total by `fold`,
    /// its buckets as [`BucketSeries::merge`] does, a series new here
    /// starting at the finer of its width and `hint`.
    fn merge(&mut self, other: &SeriesMap<T, B>, hint: u64, cap: usize, fold: impl Fn(&mut T, &T)) {
        for (from, id) in other.slots() {
            let slot = self.slot_of(id);
            fold(&mut self.values[slot], &other.values[from]);
            if let Some(buckets) = &other.series[from] {
                let width = buckets.width_ms.min(hint);
                let into = self.series[slot].get_or_insert_with(|| BucketSeries::new(width));
                into.merge(buckets, cap);
            }
        }
    }

    /// Writes the dense JSONL lines of every series that has sim-time
    /// buckets, in `MetricId` order.
    fn timeseries_lines(&self, out: &mut String) {
        for (slot, id) in self.slots() {
            if let Some(series) = &self.series[slot] {
                dense_lines(out, &id.name, series);
            }
        }
    }
}

/// The registry holding every metric series of a run, with the initial
/// bucket width and span cap its sim-time series start at.
#[derive(Debug)]
pub struct Registry {
    counters: SeriesMap<u64, u64>,
    gauges: SeriesMap<f64, GaugeBucket>,
    sketches: SeriesMap<QuantileSketch, QuantileSketch>,
    width_hint_ms: u64,
    span_cap: usize,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::with_config(DEFAULT_TS_BUCKET_MS, DEFAULT_TS_SPAN_CAP)
    }
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

    /// An empty registry whose sim-time series start `width_ms` wide
    /// and coarsen past `span_cap` buckets. Every registry that takes
    /// part in one shard merge must use the same initial width, or
    /// bucket boundaries will not nest.
    fn with_config(width_ms: u64, span_cap: usize) -> Registry {
        Registry {
            counters: SeriesMap::default(),
            gauges: SeriesMap::default(),
            sketches: SeriesMap::default(),
            width_hint_ms: width_ms.max(1),
            span_cap: span_cap.max(1),
        }
    }

    /// Re-configures the initial width and cap. New series start at
    /// the new width; existing series keep theirs, so call this before
    /// recording anything.
    pub(crate) fn configure_timeseries(&mut self, width_ms: u64, span_cap: usize) {
        self.width_hint_ms = width_ms.max(1);
        self.span_cap = span_cap.max(1);
    }

    /// The initial width and cap, as `configure_timeseries` set them.
    pub(crate) fn timeseries_config(&self) -> (u64, usize) {
        (self.width_hint_ms, self.span_cap)
    }

    /// Everything recorded so far, leaving `self` empty with the same
    /// configuration.
    pub(crate) fn take(&mut self) -> Registry {
        let fresh = Registry::with_config(self.width_hint_ms, self.span_cap);
        std::mem::replace(self, fresh)
    }

    /// Adds `delta` to a counter addressed by borrowed name/labels —
    /// allocation-free once the series exists.
    pub(crate) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let slot = self.counters.slot_fast(name, labels);
        self.counters.values[slot] += delta;
    }

    /// Adds `delta` to the unlabelled counter `name` and to its
    /// sim-time series in the bucket holding `t_ms`. One call for both
    /// keeps them conserved by construction: the sum of a counter's
    /// bucket deltas always equals its total (the `repro doctor`
    /// invariant).
    pub(crate) fn counter_add_at(&mut self, name: &str, delta: u64, t_ms: u64) {
        let (total, series) = self.counters.timed(name, self.width_hint_ms);
        *total += delta;
        series.record(t_ms, self.span_cap, |v| *v += delta);
    }

    /// Reads a counter (zero if never touched).
    pub(crate) fn counter(&self, id: &MetricId) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sets the unlabelled gauge `name` and samples it into its
    /// sim-time series bucket at `t_ms`.
    pub(crate) fn gauge_set_at(&mut self, name: &str, value: f64, t_ms: u64) {
        let (total, series) = self.gauges.timed(name, self.width_hint_ms);
        *total = value;
        series.record(t_ms, self.span_cap, |g| g.observe(value));
    }

    /// Records an observation into the quantile sketch addressed by
    /// borrowed name/labels, creating it if needed.
    pub(crate) fn sketch_observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let slot = self.sketches.slot_fast(name, labels);
        self.sketches.values[slot].observe(value);
    }

    /// Records an observation into the unlabelled sketch `name` and
    /// into the per-bucket sketch for sim-time `t_ms`.
    pub(crate) fn sketch_observe_at(&mut self, name: &str, value: u64, t_ms: u64) {
        let (total, series) = self.sketches.timed(name, self.width_hint_ms);
        total.observe(value);
        series.record(t_ms, self.span_cap, |s| s.observe(value));
    }

    #[cfg(test)]
    /// Iterates quantile sketches in deterministic order.
    pub(crate) fn sketches(&self) -> impl Iterator<Item = (&MetricId, &QuantileSketch)> {
        self.sketches.iter()
    }

    /// Merges another registry into this one: counters and sketches
    /// sum, `other`'s gauges win on key collisions, and sim-time series
    /// fold bucket by bucket. Sketch merging adds bucket counts, so
    /// repeated pairwise merges are associative — shard order cannot
    /// change the merged quantiles — and the series fold is
    /// associative and commutative (see the `timeseries` module).
    pub(crate) fn merge(&mut self, other: &Registry) {
        let (hint, cap) = (self.width_hint_ms, self.span_cap);
        self.counters
            .merge(&other.counters, hint, cap, |into, v| *into += v);
        self.gauges
            .merge(&other.gauges, hint, cap, |into, v| *into = *v);
        self.sketches
            .merge(&other.sketches, hint, cap, |into, s| into.merge(s));
    }

    /// The dense, gap-free JSONL export of every sim-time series: one
    /// line per bucket between a series' first and last occupied bucket
    /// (missing buckets export as zero), counters first, then gauges,
    /// then sketches, each in name order. Purely a function of the
    /// recorded sim-time observations — never wall clock — so the
    /// artifact is byte-identical across worker counts.
    pub(crate) fn to_timeseries_jsonl(&self) -> String {
        let mut out = String::new();
        self.counters.timeseries_lines(&mut out);
        self.gauges.timeseries_lines(&mut out);
        self.sketches.timeseries_lines(&mut out);
        out
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
                .iter()
                .map(|(id, _)| id)
                .chain(self.gauges.iter().map(|(id, _)| id))
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
    use std::collections::BTreeMap;

    #[test]
    fn prometheus_text_matches_the_golden_exposition() {
        const ENTRIES: MetricKey = MetricKey::new("resolver_cache_entries");
        const LATENCY: MetricKey = MetricKey::new("resolver_latency_quantiles_ms");
        let mut r = Registry::new();
        r.counter_add_at(MetricKey::new("resolver_client_queries").name(), 4, 0);
        r.counter_add("auth_queries", &[("server", "b")], 1);
        r.counter_add("auth_queries", &[("server", "a")], 3);
        r.gauge_set_at(ENTRIES.name(), 2.0, 0);
        r.gauge_set_at(ENTRIES.name(), 7.5, 60_000);
        for v in [3, 10, 10, 250] {
            r.sketch_observe(LATENCY.name(), &[], v);
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
        let mut m: SeriesMap<u64, u64> = SeriesMap::default();
        let keyed = m.slot_of(&MetricId::new("plain", &[]));
        assert_eq!(m.slot_fast("plain", &[]), keyed);
        assert_eq!(m.slot_fast("plain", &[]), keyed); // from the memo
        assert_eq!(m.slot_of(&MetricId::new("plain", &[])), keyed);
        let labelled = m.slot_fast("q", &[("b", "2"), ("a", "1")]);
        assert_ne!(labelled, keyed);
        assert_eq!(m.slot_fast("q", &[("b", "2"), ("a", "1")]), labelled); // from the memo
        assert_eq!(m.slot_fast("q", &[("a", "1"), ("b", "2")]), labelled);
        assert_eq!(
            m.slot_of(&MetricId::new("q", &[("a", "1"), ("b", "2")])),
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
        r.counter_add_at(MetricKey::new(keyed).name(), 2, 0);
        let slot = remembered(&r, keyed);
        r.counter_add(keyed, &[], 3);
        assert_eq!(remembered(&r, keyed), slot);
        let named: &'static str = "named_first_total";
        r.counter_add(named, &[], 1);
        let slot = remembered(&r, named);
        r.counter_add_at(MetricKey::new(named).name(), 1, 0);
        assert_eq!(remembered(&r, named), slot);
        let counters: Vec<(String, u64)> =
            r.counters.iter().map(|(id, v)| (id.render(), *v)).collect();
        assert_eq!(
            counters,
            vec![
                ("keyed_first_total".into(), 5),
                ("named_first_total".into(), 2)
            ]
        );
    }

    /// A seeded xorshift, so the property tests below replay exactly.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// The stack sort the miss path does: which borrowed label is the
    /// `j`-th in sorted order.
    fn sorted_order(labels: &[(&str, &str)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..labels.len()).collect();
        order.sort_unstable_by(|&a, &b| labels[a].cmp(&labels[b]));
        order
    }

    #[test]
    fn cmp_borrowed_agrees_with_the_derived_order() {
        // Names and label strings drawn from pools of prefixes of one
        // another, so ties, prefixes and equal keys are common.
        const NAMES: [&str; 5] = ["q", "q_", "qa", "q_total", ""];
        const KEYS: [&str; 4] = ["a", "ab", "b", "server"];
        const VALUES: [&str; 4] = ["", "1", "10", "2"];
        let mut state = 0x5eed_u64;
        let draw = |state: &mut u64| {
            let name = NAMES[(xorshift(state) % 5) as usize];
            let labels: Vec<(&str, &str)> = (0..xorshift(state) % 4)
                .map(|_| {
                    let k = KEYS[(xorshift(state) % 4) as usize];
                    (k, VALUES[(xorshift(state) % 4) as usize])
                })
                .collect();
            (name, labels)
        };
        for _ in 0..20_000 {
            let (name, labels) = draw(&mut state);
            let id = MetricId::new(name, &labels);
            let (other_name, mut other) = draw(&mut state);
            // Half the time, the same label set handed in another order.
            if xorshift(&mut state).is_multiple_of(2) {
                other = labels.clone();
                other.reverse();
            }
            let order = sorted_order(&other);
            let expected = id.cmp(&MetricId::new(other_name, &other));
            let got = id.cmp_borrowed(other_name, &other, |j| order[j]);
            assert_eq!(got, expected, "{id:?} vs {other_name:?} {other:?}");
        }
    }

    #[test]
    fn many_labelled_series_agree_with_a_btreemap_model() {
        // 3 000 series, three times the memo's slots, so memo
        // collisions are certain and the sorted list does the finding.
        const FAMILIES: usize = 60;
        let series: Vec<(String, Vec<(String, String)>)> = (0..3_000)
            .map(|i| {
                let name = format!("family_{}", i % FAMILIES);
                let labels = if i < FAMILIES {
                    Vec::new()
                } else {
                    let shard = (i / FAMILIES).to_string();
                    vec![
                        ("shard".into(), shard),
                        ("region".into(), format!("r{}", i % 7)),
                    ]
                };
                (name, labels)
            })
            .collect();
        let mut r = Registry::new();
        r.configure_timeseries(1_000, 1_024);
        let mut totals: BTreeMap<MetricId, u64> = BTreeMap::new();
        let mut buckets: BTreeMap<&str, BTreeMap<u64, u64>> = BTreeMap::new();
        let mut state = 42u64;
        for _ in 0..30_000 {
            let (name, labels) = &series[(xorshift(&mut state) % 3_000) as usize];
            let delta = 1 + xorshift(&mut state) % 5;
            let mut labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            if xorshift(&mut state).is_multiple_of(2) {
                labels.reverse();
            }
            if labels.is_empty() {
                let t_ms = xorshift(&mut state) % 100_000;
                r.counter_add_at(name, delta, t_ms);
                *buckets
                    .entry(name)
                    .or_default()
                    .entry(t_ms / 1_000)
                    .or_default() += delta;
            } else {
                r.counter_add(name, &labels, delta);
            }
            *totals.entry(MetricId::new(name, &labels)).or_default() += delta;
        }
        for (id, total) in &totals {
            assert_eq!(r.counter(id), *total, "{}", id.render());
        }
        let samples: Vec<String> = totals
            .iter()
            .map(|(id, v)| format!("{} {v}", id.render()))
            .collect();
        let text = r.to_prometheus_text();
        let exported: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(exported, samples);
        let mut jsonl = String::new();
        for (name, buckets) in &buckets {
            let (first, last) = (
                buckets.keys().next().unwrap(),
                buckets.keys().last().unwrap(),
            );
            for idx in *first..=*last {
                let value = buckets.get(&idx).copied().unwrap_or(0);
                let t_ms = idx * 1_000;
                jsonl.push_str(&format!(
                    "{{\"series\":\"{name}\",\"kind\":\"counter\",\"t_ms\":{t_ms},\"width_ms\":1000,\"value\":{value}}}\n"
                ));
            }
        }
        assert_eq!(r.to_timeseries_jsonl(), jsonl);
        // The merge path finds each series by its id and agrees too.
        let mut merged = Registry::new();
        merged.configure_timeseries(1_000, 1_024);
        merged.merge(&r);
        assert_eq!(merged.to_prometheus_text(), text);
        assert_eq!(merged.to_timeseries_jsonl(), jsonl);
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
        r.gauge_set_at(MetricKey::new("resolver_cache_entries").name(), 7.0, 0);
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
