//! Deterministic, shard-mergeable sim-time series.
//!
//! The paper's core results are *time-resolved* — cache hit rate,
//! upstream load, and staleness all evolve over a run — so the
//! registry's end-of-run counters are not enough. This module buckets
//! observations by **sim-time** into fixed-width windows: counter
//! deltas, gauge samples, and per-bucket latency sketches. Buckets are
//! keyed by `t_ms / width_ms`, so the layout depends only on simulated
//! time, never on wall clock or worker count.
//!
//! # Bounded memory: span-capped coarsening
//!
//! Each series starts at a configurable bucket width (default
//! [`DEFAULT_TS_BUCKET_MS`]) and is allowed a maximum *span* — the
//! dense bucket count `last_index - first_index + 1` — of
//! [`DEFAULT_TS_SPAN_CAP`]. Whenever the span exceeds the cap the
//! series coarsens: bucket width doubles and every bucket at index `i`
//! folds into index `i / 2`. Million-probe campaigns therefore hold at
//! most `cap` buckets per series no matter how long the simulated
//! clock runs, and the JSONL export (dense, gap-free) stays bounded
//! too.
//!
//! # Why the merge is associative and commutative
//!
//! Shard merge must be byte-identical for every worker count, so the
//! cap-triggered coarsening must not depend on merge order. It does
//! not, by this argument:
//!
//! * All widths are `initial << k`, so any two series in a merge tree
//!   differ by a power-of-two factor and buckets nest exactly.
//! * The span at width `initial << k` is
//!   `(last >> k) - (first >> k) + 1`, a nonincreasing function of `k`
//!   determined only by the *extremes* of the observation set. The set
//!   of acceptable `k` (span ≤ cap) is therefore upward closed.
//! * Any intermediate union in a merge tree is a subset of the final
//!   union, so its extremes are inside the final extremes and its
//!   required width never exceeds the final required width. Hence the
//!   final width is the same for every grouping, and each final bucket
//!   is the fold of the same preimage set — and counter addition,
//!   gauge-bucket addition, and sketch merge are themselves
//!   associative and commutative.
//!
//! Gauge samples are aggregated in fixed-point milli-units (`i64`,
//! value × 1000) rather than `f64` sums, so gauge merging is exact
//! integer arithmetic with no floating-point reassociation hazard.

use crate::json;
use crate::memo::AddrMemo;
use crate::sketch::QuantileSketch;

/// Default sim-time bucket width: one simulated minute.
pub const DEFAULT_TS_BUCKET_MS: u64 = 60_000;

/// Default span cap: a series coarsens (width ×2) whenever its dense
/// bucket span exceeds this many buckets.
pub const DEFAULT_TS_SPAN_CAP: usize = 256;

/// Fixed-point scale for gauge aggregation: values are stored as
/// `round(value * 1000)` so merging stays pure integer arithmetic.
const GAUGE_MILLI: f64 = 1000.0;

/// Aggregate of the gauge samples that landed in one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GaugeBucket {
    /// Number of samples in the bucket.
    pub count: u64,
    /// Sum of samples in milli-units (value × 1000, rounded).
    pub sum_milli: i64,
    /// Smallest sample in milli-units.
    pub min_milli: i64,
    /// Largest sample in milli-units.
    pub max_milli: i64,
}

impl Default for GaugeBucket {
    fn default() -> GaugeBucket {
        GaugeBucket {
            count: 0,
            sum_milli: 0,
            min_milli: i64::MAX,
            max_milli: i64::MIN,
        }
    }
}

impl GaugeBucket {
    fn observe(&mut self, value: f64) {
        let milli = (value * GAUGE_MILLI).round() as i64;
        self.count += 1;
        self.sum_milli = self.sum_milli.saturating_add(milli);
        self.min_milli = self.min_milli.min(milli);
        self.max_milli = self.max_milli.max(milli);
    }

    /// Mean of the bucket's samples, back in gauge units.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_milli as f64 / GAUGE_MILLI / self.count as f64
    }
}

/// One bucketed series: a width plus sparse buckets keyed by
/// `t_ms / width_ms`, kept sorted by that index. Sim time runs forward,
/// so a record lands in the last bucket or opens a new last one, and
/// the span the cap is held to is read off the two ends.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BucketSeries<T> {
    width_ms: u64,
    buckets: Vec<(u64, T)>,
}

impl<T: BucketValue> BucketSeries<T> {
    fn new(width_ms: u64) -> BucketSeries<T> {
        BucketSeries {
            width_ms: width_ms.max(1),
            buckets: Vec::new(),
        }
    }

    /// Indices of the first and last occupied bucket.
    fn ends(&self) -> Option<(u64, u64)> {
        Some((self.buckets.first()?.0, self.buckets.last()?.0))
    }

    /// Dense bucket count between the first and last occupied bucket.
    fn span(&self) -> usize {
        self.ends()
            .map_or(0, |(first, last)| (last - first + 1) as usize)
    }

    #[cfg(test)]
    fn get(&self, idx: u64) -> Option<&T> {
        let at = self.buckets.binary_search_by_key(&idx, |(i, _)| *i).ok()?;
        Some(&self.buckets[at].1)
    }

    /// Bucket `idx`, opened empty if it is not there: the last bucket
    /// first, a search only for a record that arrives out of order.
    fn bucket_mut(&mut self, idx: u64) -> &mut T {
        let at = match self.buckets.last() {
            Some((last, _)) if *last == idx => self.buckets.len() - 1,
            Some((last, _)) if *last > idx => {
                let found = self.buckets.binary_search_by_key(&idx, |(i, _)| *i);
                found.unwrap_or_else(|at| {
                    self.buckets.insert(at, (idx, T::empty()));
                    at
                })
            }
            _ => {
                self.buckets.push((idx, T::empty()));
                self.buckets.len() - 1
            }
        };
        &mut self.buckets[at].1
    }

    /// Doubles the bucket width, folding index `i` into `i / 2`.
    fn coarsen(&mut self) {
        self.width_ms = self.width_ms.saturating_mul(2);
        let old = std::mem::take(&mut self.buckets);
        for (idx, value) in old {
            self.bucket_mut(idx / 2).absorb(&value);
        }
    }

    /// Coarsens until the dense span fits under `cap`.
    fn enforce_cap(&mut self, cap: usize) {
        while self.span() > cap.max(1) {
            self.coarsen();
        }
    }

    fn record(&mut self, t_ms: u64, cap: usize, f: impl FnOnce(&mut T)) {
        f(self.bucket_mut(t_ms / self.width_ms));
        self.enforce_cap(cap);
    }

    /// Adds every bucket of `other`, normalising both sides to the
    /// coarser of the two widths first. Widths are always the initial
    /// width times a power of two, so buckets nest exactly.
    fn merge(&mut self, other: &BucketSeries<T>, cap: usize) {
        while self.width_ms < other.width_ms {
            self.coarsen();
        }
        for (idx, value) in &other.buckets {
            // Map the (possibly finer) source index into our width.
            let t_lo = idx * other.width_ms;
            self.bucket_mut(t_lo / self.width_ms).absorb(value);
        }
        self.enforce_cap(cap);
    }
}

/// A bucket payload that can start empty and fold in a sibling.
trait BucketValue {
    fn empty() -> Self;
    fn absorb(&mut self, other: &Self);
}

impl BucketValue for u64 {
    fn empty() -> u64 {
        0
    }
    fn absorb(&mut self, other: &u64) {
        *self += *other;
    }
}

impl BucketValue for GaugeBucket {
    fn empty() -> GaugeBucket {
        GaugeBucket::default()
    }
    fn absorb(&mut self, other: &GaugeBucket) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_milli = self.sum_milli.saturating_add(other.sum_milli);
        self.min_milli = self.min_milli.min(other.min_milli);
        self.max_milli = self.max_milli.max(other.max_milli);
    }
}

impl BucketValue for QuantileSketch {
    fn empty() -> QuantileSketch {
        QuantileSketch::new()
    }
    fn absorb(&mut self, other: &QuantileSketch) {
        self.merge(other);
    }
}

/// The series of one kind, sorted by name (the export order), behind a
/// memo of where a name led — keyed, like the registry's, by the
/// *address* of the name a call site hands in and believed only once
/// the name there has been compared.
#[derive(Debug, Clone)]
struct SeriesSet<T> {
    series: Vec<(String, BucketSeries<T>)>,
    /// A name's address and length to its position in `series`.
    memo: AddrMemo<u32>,
}

impl<T: BucketValue> SeriesSet<T> {
    fn new() -> SeriesSet<T> {
        SeriesSet {
            series: Vec::new(),
            memo: AddrMemo::default(),
        }
    }

    fn get(&self, name: &str) -> Option<&BucketSeries<T>> {
        let found = self.series.binary_search_by(|(n, _)| n.as_str().cmp(name));
        Some(&self.series[found.ok()?].1)
    }

    /// Series `name`, started at `width_ms` on first sight. Every
    /// `_at` sample on the telemetry-on path lands here; only a new
    /// series allocates its key.
    #[inline]
    fn series_mut(&mut self, name: &str, width_ms: u64) -> &mut BucketSeries<T> {
        let known = self.memo.get(name.as_ptr() as usize, name.len());
        let known =
            known.filter(|&at| self.series.get(at as usize).is_some_and(|(n, _)| n == name));
        let at = match known {
            Some(at) => at as usize,
            None => self.position_missed(name, width_ms),
        };
        &mut self.series[at].1
    }

    #[cold]
    #[inline(never)]
    fn position_missed(&mut self, name: &str, width_ms: u64) -> usize {
        let found = self.series.binary_search_by(|(n, _)| n.as_str().cmp(name));
        let at = found.unwrap_or_else(|at| {
            let new = (name.to_string(), BucketSeries::new(width_ms));
            self.series.insert(at, new);
            at
        });
        self.memo
            .insert(name.as_ptr() as usize, name.len(), at as u32);
        at
    }
}

/// The memo is a cache of `series`, not part of the value.
impl<T: PartialEq> PartialEq for SeriesSet<T> {
    fn eq(&self, other: &SeriesSet<T>) -> bool {
        self.series == other.series
    }
}

/// The per-`Telemetry` store of sim-time series, one [`BucketSeries`]
/// per metric name per kind. Counter, gauge, and sketch namespaces are
/// separate, mirroring [`crate::Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesStore {
    width_hint_ms: u64,
    span_cap: usize,
    counters: SeriesSet<u64>,
    gauges: SeriesSet<GaugeBucket>,
    sketches: SeriesSet<QuantileSketch>,
}

impl Default for TimeSeriesStore {
    fn default() -> TimeSeriesStore {
        TimeSeriesStore::new()
    }
}

impl TimeSeriesStore {
    /// An empty store with the default bucket width and span cap.
    pub fn new() -> TimeSeriesStore {
        TimeSeriesStore::with_config(DEFAULT_TS_BUCKET_MS, DEFAULT_TS_SPAN_CAP)
    }

    /// An empty store with an explicit initial bucket width and span
    /// cap. Every store that participates in one shard merge must use
    /// the same initial width, or bucket boundaries will not nest.
    pub(crate) fn with_config(width_ms: u64, span_cap: usize) -> TimeSeriesStore {
        TimeSeriesStore {
            width_hint_ms: width_ms.max(1),
            span_cap: span_cap.max(1),
            counters: SeriesSet::new(),
            gauges: SeriesSet::new(),
            sketches: SeriesSet::new(),
        }
    }

    /// Re-configures the initial width and cap. New series start at
    /// the new width; existing series keep theirs, so call this before
    /// recording anything.
    pub(crate) fn set_config(&mut self, width_ms: u64, span_cap: usize) {
        self.width_hint_ms = width_ms.max(1);
        self.span_cap = span_cap.max(1);
    }

    /// The configured initial bucket width.
    pub(crate) fn width_hint_ms(&self) -> u64 {
        self.width_hint_ms
    }

    /// The configured span cap.
    pub fn span_cap(&self) -> usize {
        self.span_cap
    }

    /// True when no series holds any bucket.
    pub fn is_empty(&self) -> bool {
        self.counters.series.is_empty()
            && self.gauges.series.is_empty()
            && self.sketches.series.is_empty()
    }

    /// Adds `delta` to the counter series `name` in the bucket holding
    /// sim-time `t_ms`.
    pub fn count(&mut self, name: &str, delta: u64, t_ms: u64) {
        let series = self.counters.series_mut(name, self.width_hint_ms);
        series.record(t_ms, self.span_cap, |v| *v += delta);
    }

    /// Records a gauge sample into the bucket holding sim-time `t_ms`.
    pub(crate) fn gauge(&mut self, name: &str, value: f64, t_ms: u64) {
        let series = self.gauges.series_mut(name, self.width_hint_ms);
        series.record(t_ms, self.span_cap, |g| g.observe(value));
    }

    /// Records a latency-style observation into the per-bucket sketch
    /// for sim-time `t_ms`.
    pub fn sketch(&mut self, name: &str, value: u64, t_ms: u64) {
        let series = self.sketches.series_mut(name, self.width_hint_ms);
        series.record(t_ms, self.span_cap, |s| s.observe(value));
    }

    /// Sum of all bucket deltas for counter series `name` — must equal
    /// the registry's final counter (the doctor's conservation check).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map(|s| s.buckets.iter().map(|(_, v)| v).sum())
            .unwrap_or(0)
    }

    #[cfg(test)]
    /// The counter series `name` as `(width_ms, dense (t_ms, delta)
    /// points)` — gap-free from the first to the last occupied bucket.
    pub(crate) fn counter_series(&self, name: &str) -> Option<(u64, Vec<(u64, u64)>)> {
        let s = self.counters.get(name)?;
        let (first, last) = s.ends()?;
        let points = (first..=last)
            .map(|idx| (idx * s.width_ms, s.get(idx).copied().unwrap_or(0)))
            .collect();
        Some((s.width_ms, points))
    }

    /// Folds every series of `other` into `self`. Associative and
    /// commutative (see the module docs), so shard stores can arrive
    /// in any grouping and the merged store is identical.
    pub(crate) fn merge(&mut self, other: &TimeSeriesStore) {
        fn fold<T: BucketValue>(
            into: &mut SeriesSet<T>,
            from: &SeriesSet<T>,
            hint: u64,
            cap: usize,
        ) {
            for (name, series) in &from.series {
                let width = series.width_ms.min(hint);
                into.series_mut(name, width).merge(series, cap);
            }
        }
        let (hint, cap) = (self.width_hint_ms, self.span_cap);
        fold(&mut self.counters, &other.counters, hint, cap);
        fold(&mut self.gauges, &other.gauges, hint, cap);
        fold(&mut self.sketches, &other.sketches, hint, cap);
    }

    /// The dense, gap-free JSONL export: one line per bucket between
    /// each series' first and last occupied bucket (missing buckets
    /// export as zero), counters first, then gauges, then sketches,
    /// each in name order. Purely a function of the recorded sim-time
    /// observations — never wall clock — so the artifact is
    /// byte-identical across worker counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.counters.series {
            dense_lines(&mut out, name, "counter", series, |out, v: &u64| {
                member_u64(out, "value", *v);
            });
        }
        for (name, series) in &self.gauges.series {
            dense_lines(&mut out, name, "gauge", series, |out, g: &GaugeBucket| {
                member_u64(out, "count", g.count);
                if g.count > 0 {
                    member_f64(out, "min", g.min_milli as f64 / GAUGE_MILLI);
                    member_f64(out, "max", g.max_milli as f64 / GAUGE_MILLI);
                    member_f64(out, "mean", g.mean());
                }
            });
        }
        for (name, series) in &self.sketches.series {
            dense_lines(
                &mut out,
                name,
                "sketch",
                series,
                |out, s: &QuantileSketch| {
                    member_u64(out, "count", s.count());
                    if s.count() > 0 {
                        member_u64(out, "sum", s.sum());
                        for (q, label) in crate::registry::SKETCH_QUANTILES {
                            member_u64(out, quantile_key(label), s.quantile(q).unwrap_or(0));
                        }
                    }
                },
            );
        }
        out
    }
}

/// Appends `,"key":v`.
fn member_u64(out: &mut String, key: &str, v: u64) {
    json::push_member_fragment(out, key);
    json::push_u64(out, v);
}

/// Appends `,"key":v`, the float rendered as every export renders one.
fn member_f64(out: &mut String, key: &str, v: f64) {
    json::push_member_fragment(out, key);
    json::fmt_f64(out, v);
}

/// Maps a [`SKETCH_QUANTILES`](crate::registry::SKETCH_QUANTILES)
/// label ("0.5") to its JSONL field name ("p50").
fn quantile_key(label: &str) -> &'static str {
    match label {
        "0.5" => "p50",
        "0.9" => "p90",
        "0.99" => "p99",
        _ => "p999",
    }
}

/// Writes the dense JSONL lines for one series: what every line opens
/// with — the series' name, escaped, and its kind — is rendered once,
/// and each line is that plus its numbers, straight into `out`.
fn dense_lines<T: BucketValue>(
    out: &mut String,
    name: &str,
    kind: &'static str,
    series: &BucketSeries<T>,
    payload: impl Fn(&mut String, &T),
) {
    let Some((first, last)) = series.ends() else {
        return;
    };
    let mut head = String::from("{\"series\":");
    json::push_string(&mut head, name);
    json::push_member_fragment(&mut head, "kind");
    json::push_string(&mut head, kind);
    json::push_member_fragment(&mut head, "t_ms");
    let zero = T::empty();
    let mut occupied = series.buckets.iter().peekable();
    for idx in first..=last {
        let bucket = occupied.next_if(|(i, _)| *i == idx);
        out.push_str(&head);
        json::push_u64(out, idx * series.width_ms);
        member_u64(out, "width_ms", series.width_ms);
        payload(out, bucket.map_or(&zero, |(_, value)| value));
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic xorshift the netsim crate uses, inlined so
    /// the property tests stay seeded without a cross-crate
    /// dev-dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A random shard store driven by a seed: a few counter, gauge,
    /// and sketch series over a few hours of sim-time.
    fn random_store(state: &mut u64, width_ms: u64, cap: usize) -> TimeSeriesStore {
        let mut ts = TimeSeriesStore::with_config(width_ms, cap);
        let names = ["hits", "misses", "stale"];
        for _ in 0..(xorshift(state) % 300 + 50) {
            let t = xorshift(state) % 10_800_000; // three sim-hours
            match xorshift(state) % 3 {
                0 => ts.count(
                    names[(xorshift(state) % 3) as usize],
                    1 + xorshift(state) % 5,
                    t,
                ),
                1 => ts.gauge("cache_entries", (xorshift(state) % 5_000) as f64, t),
                _ => ts.sketch("latency_ms", xorshift(state) % 800, t),
            }
        }
        ts
    }

    #[test]
    fn buckets_by_sim_time_and_conserves_counts() {
        let mut ts = TimeSeriesStore::with_config(60_000, 256);
        ts.count("q", 2, 0);
        ts.count("q", 3, 59_999);
        ts.count("q", 5, 60_000);
        ts.count("q", 1, 200_000);
        assert_eq!(ts.counter_total("q"), 11);
        let (width, points) = ts.counter_series("q").unwrap();
        assert_eq!(width, 60_000);
        // Dense, gap-free: buckets 0..=3 present, bucket 2 zero.
        assert_eq!(
            points,
            vec![(0, 5), (60_000, 5), (120_000, 0), (180_000, 1)]
        );
    }

    #[test]
    fn the_series_memo_is_believed_only_after_a_name_compare() {
        let mut ts = TimeSeriesStore::with_config(1_000, 256);
        // A freed name's address, reused by another name.
        let name = String::from("series_one");
        ts.count(&name, 1, 0);
        if let Some(other) = crate::registry::reallocated_at(name, "series_two") {
            ts.count(&other, 2, 0);
            assert_eq!(ts.counter_total("series_one"), 1);
            assert_eq!(ts.counter_total("series_two"), 2);
        }
        // A remembered position, shifted by a series that sorts first.
        let (m, z, a) = ("m", "z", "a");
        ts.count(m, 1, 0);
        ts.count(z, 10, 0);
        ts.count(a, 100, 0);
        ts.count(m, 1, 0);
        ts.count(z, 10, 0);
        assert_eq!(ts.counter_total("a"), 100);
        assert_eq!(ts.counter_total("m"), 2);
        assert_eq!(ts.counter_total("z"), 20);
    }

    #[test]
    fn span_cap_triggers_coarsening_and_conserves_totals() {
        let mut ts = TimeSeriesStore::with_config(1_000, 8);
        for i in 0..100u64 {
            ts.count("q", 1, i * 1_000);
        }
        assert_eq!(ts.counter_total("q"), 100);
        let (width, points) = ts.counter_series("q").unwrap();
        // 100 one-second buckets under a cap of 8 → width must have
        // doubled until the span fits: 16 s wide, 7 buckets.
        assert_eq!(width, 16_000);
        assert!(points.len() <= 8, "span {} exceeds cap", points.len());
        assert_eq!(points.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn coarsening_twice_equals_coarsening_once_at_double_width() {
        // The downsampling law, tested both directly on a series and
        // observationally through the store export.
        for seed in [3u64, 17, 2024] {
            let mut state = seed | 1;
            let events: Vec<(u64, u64)> = (0..400)
                .map(|_| {
                    (
                        xorshift(&mut state) % 3_600_000,
                        1 + xorshift(&mut state) % 4,
                    )
                })
                .collect();

            // Directly: coarsen twice from width w ≡ coarsen once
            // from width 2w.
            let mut twice: BucketSeries<u64> = BucketSeries::new(1_000);
            let mut once: BucketSeries<u64> = BucketSeries::new(2_000);
            for &(t, d) in &events {
                twice.record(t, usize::MAX, |v| *v += d);
                once.record(t, usize::MAX, |v| *v += d);
            }
            twice.coarsen();
            twice.coarsen();
            once.coarsen();
            assert_eq!(twice, once, "seed {seed}: downsampling law violated");

            // Observationally: stores starting at w, 2w, and 4w all
            // forced (by cap) to end at the same width export
            // identically.
            let cap = 64;
            let mut a = TimeSeriesStore::with_config(1_000, cap);
            let mut b = TimeSeriesStore::with_config(2_000, cap);
            let mut c = TimeSeriesStore::with_config(4_000, cap);
            for &(t, d) in &events {
                a.count("q", d, t);
                b.count("q", d, t);
                c.count("q", d, t);
            }
            let (wa, _) = a.counter_series("q").unwrap();
            let (wb, _) = b.counter_series("q").unwrap();
            if wa == wb {
                assert_eq!(a.to_jsonl(), b.to_jsonl(), "seed {seed}: a vs b");
            }
            let (wc, _) = c.counter_series("q").unwrap();
            if wa == wc {
                assert_eq!(a.to_jsonl(), c.to_jsonl(), "seed {seed}: a vs c");
            }
            // All three must conserve the total regardless of width.
            assert_eq!(a.counter_total("q"), b.counter_total("q"));
            assert_eq!(a.counter_total("q"), c.counter_total("q"));
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Seeded property test over random shard groupings, mirroring
        // the sketch's merge law: any order and any grouping must
        // produce the identical store (structural equality and
        // identical JSONL export).
        for seed in [3u64, 17, 2024] {
            let mut state = seed | 1;
            let shards: Vec<TimeSeriesStore> = (0..8)
                .map(|_| random_store(&mut state, 60_000, 32))
                .collect();

            // Left fold: ((a ⊕ b) ⊕ c) ⊕ …
            let mut left = TimeSeriesStore::with_config(60_000, 32);
            for s in &shards {
                left.merge(s);
            }
            // Right fold: a ⊕ (b ⊕ (c ⊕ …))
            let mut right = TimeSeriesStore::with_config(60_000, 32);
            for s in shards.iter().rev() {
                right.merge(s);
            }
            assert_eq!(left, right, "seed {seed}: merge not commutative");
            assert_eq!(
                left.to_jsonl(),
                right.to_jsonl(),
                "seed {seed}: export differs"
            );

            // Random pairing: merge pairs first, then combine.
            let mut paired = TimeSeriesStore::with_config(60_000, 32);
            for pair in shards.chunks(2) {
                let mut p = TimeSeriesStore::with_config(60_000, 32);
                for s in pair {
                    p.merge(s);
                }
                paired.merge(&p);
            }
            assert_eq!(left, paired, "seed {seed}: merge not associative");
        }
    }

    #[test]
    fn merge_normalises_widths_from_both_sides() {
        // A coarse series absorbing a fine one, and vice versa, must
        // agree: merging is symmetric up to which handle holds it.
        let mut fine = TimeSeriesStore::with_config(1_000, usize::MAX >> 1);
        let mut coarse = TimeSeriesStore::with_config(1_000, usize::MAX >> 1);
        for i in 0..50u64 {
            fine.count("q", 1, i * 1_000);
        }
        for i in 0..3u64 {
            coarse.count("q", 7, i * 1_000);
        }
        // Force the coarse store wider by capping it.
        coarse.set_config(1_000, 2);
        coarse.count("q", 0, 49_000);

        let mut ab = TimeSeriesStore::with_config(1_000, 64);
        ab.merge(&fine);
        ab.merge(&coarse);
        let mut ba = TimeSeriesStore::with_config(1_000, 64);
        ba.merge(&coarse);
        ba.merge(&fine);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_total("q"), 50 + 21);
    }

    #[test]
    fn jsonl_export_is_dense_and_typed() {
        let mut ts = TimeSeriesStore::with_config(1_000, 256);
        ts.count("q", 4, 500);
        ts.count("q", 2, 2_500);
        ts.gauge("g", 1.5, 0);
        ts.sketch("lat", 120, 0);
        let out = ts.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "3 dense counter + 1 gauge + 1 sketch");
        assert!(lines[0].contains("\"series\":\"q\""));
        assert!(lines[0].contains("\"kind\":\"counter\""));
        assert!(lines[0].contains("\"t_ms\":0"));
        assert!(lines[0].contains("\"value\":4"));
        assert!(
            lines[1].contains("\"value\":0"),
            "gap bucket must export as zero"
        );
        assert!(lines[3].contains("\"kind\":\"gauge\""));
        assert!(lines[3].contains("\"mean\":1.5"));
        assert!(lines[4].contains("\"kind\":\"sketch\""));
        assert!(lines[4].contains("\"p50\":"));
        assert!(!out.is_empty() && !ts.is_empty());
        assert!(TimeSeriesStore::new().to_jsonl().is_empty());
    }
}
