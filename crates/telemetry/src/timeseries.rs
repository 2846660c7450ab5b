//! Deterministic, shard-mergeable sim-time series.
//!
//! The paper's core results are *time-resolved* — cache hit rate,
//! upstream load, and staleness all evolve over a run — so the
//! registry's end-of-run totals are not enough. A `_at` record also
//! buckets its observation by **sim-time** into fixed-width windows,
//! kept in the registry slot next to the series' total: counter
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
    pub(crate) fn observe(&mut self, value: f64) {
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
pub(crate) struct BucketSeries<T> {
    pub(crate) width_ms: u64,
    buckets: Vec<(u64, T)>,
}

impl<T: BucketValue> BucketSeries<T> {
    pub(crate) fn new(width_ms: u64) -> BucketSeries<T> {
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

    pub(crate) fn record(&mut self, t_ms: u64, cap: usize, f: impl FnOnce(&mut T)) {
        f(self.bucket_mut(t_ms / self.width_ms));
        self.enforce_cap(cap);
    }

    /// Adds every bucket of `other`, normalising both sides to the
    /// coarser of the two widths first. Widths are always the initial
    /// width times a power of two, so buckets nest exactly.
    pub(crate) fn merge(&mut self, other: &BucketSeries<T>, cap: usize) {
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

/// A bucket payload that can start empty, fold in a sibling, and
/// render its numbers for the JSONL export as series `kind` `KIND`.
pub(crate) trait BucketValue {
    const KIND: &'static str;
    fn empty() -> Self;
    fn absorb(&mut self, other: &Self);
    /// Appends the bucket's `,"key":value` members.
    fn payload(&self, out: &mut String);
}

impl BucketValue for u64 {
    const KIND: &'static str = "counter";
    fn empty() -> u64 {
        0
    }
    fn absorb(&mut self, other: &u64) {
        *self += *other;
    }
    fn payload(&self, out: &mut String) {
        member_u64(out, "value", *self);
    }
}

impl BucketValue for GaugeBucket {
    const KIND: &'static str = "gauge";
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
    fn payload(&self, out: &mut String) {
        member_u64(out, "count", self.count);
        if self.count > 0 {
            member_f64(out, "min", self.min_milli as f64 / GAUGE_MILLI);
            member_f64(out, "max", self.max_milli as f64 / GAUGE_MILLI);
            member_f64(out, "mean", self.mean());
        }
    }
}

impl BucketValue for QuantileSketch {
    const KIND: &'static str = "sketch";
    fn empty() -> QuantileSketch {
        QuantileSketch::new()
    }
    fn absorb(&mut self, other: &QuantileSketch) {
        self.merge(other);
    }
    fn payload(&self, out: &mut String) {
        member_u64(out, "count", self.count());
        if self.count() > 0 {
            member_u64(out, "sum", self.sum());
            for (q, label) in crate::registry::SKETCH_QUANTILES {
                member_u64(out, quantile_key(label), self.quantile(q).unwrap_or(0));
            }
        }
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
pub(crate) fn dense_lines<T: BucketValue>(out: &mut String, name: &str, series: &BucketSeries<T>) {
    let Some((first, last)) = series.ends() else {
        return;
    };
    let mut head = String::from("{\"series\":");
    json::push_string(&mut head, name);
    json::push_member_fragment(&mut head, "kind");
    json::push_string(&mut head, T::KIND);
    json::push_member_fragment(&mut head, "t_ms");
    let zero = T::empty();
    let mut occupied = series.buckets.iter().peekable();
    for idx in first..=last {
        let bucket = occupied.next_if(|(i, _)| *i == idx);
        out.push_str(&head);
        json::push_u64(out, idx * series.width_ms);
        member_u64(out, "width_ms", series.width_ms);
        bucket.map_or(&zero, |(_, value)| value).payload(out);
        out.push_str("}\n");
    }
}

/// The sum of the `value` fields of counter series `name`'s lines in a
/// JSONL export: the series' total, read back from what was exported.
#[cfg(test)]
pub(crate) fn series_total(jsonl: &str, name: &str) -> u64 {
    let mut total = 0;
    for line in jsonl.lines() {
        let fields = json::parse_flat_object(line).expect("an export line is a flat object");
        let field = |key| json::flat_get(&fields, key).expect("every line has the field");
        if field("series").as_str() == Some(name) && field("kind").as_str() == Some("counter") {
            total += field("value")
                .as_u64()
                .expect("a counter bucket holds a count");
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{reallocated_at, Registry};
    use crate::{MetricKey, Telemetry, TelemetryParts};

    const Q: MetricKey = MetricKey::new("q");

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

    /// A handle whose series start `width_ms` wide under `cap`.
    fn telemetry(width_ms: u64, cap: usize) -> Telemetry {
        let t = Telemetry::new();
        t.configure_timeseries(width_ms, cap);
        t
    }

    /// A random shard driven by a seed: a few counter, gauge, and
    /// sketch series over a few hours of sim-time.
    fn random_shard(state: &mut u64, width_ms: u64, cap: usize) -> TelemetryParts {
        const NAMES: [MetricKey; 3] = [
            MetricKey::new("hits"),
            MetricKey::new("misses"),
            MetricKey::new("stale"),
        ];
        let t = telemetry(width_ms, cap);
        for _ in 0..(xorshift(state) % 300 + 50) {
            let at = xorshift(state) % 10_800_000; // three sim-hours
            match xorshift(state) % 3 {
                0 => t.count_keyed_at(
                    &NAMES[(xorshift(state) % 3) as usize],
                    1 + xorshift(state) % 5,
                    at,
                ),
                1 => t.gauge_keyed_at(
                    &MetricKey::new("cache_entries"),
                    (xorshift(state) % 5_000) as f64,
                    at,
                ),
                _ => t.sketch_keyed_at(&MetricKey::new("latency_ms"), xorshift(state) % 800, at),
            }
        }
        t.take_parts()
    }

    /// The counter series `name` as `(width_ms, dense (t_ms, delta)
    /// points)` — gap-free from the first to the last occupied bucket —
    /// read back from the JSONL export.
    fn counter_series(t: &Telemetry, name: &str) -> Option<(u64, Vec<(u64, u64)>)> {
        let mut width = None;
        let mut points = Vec::new();
        for line in t.timeseries_jsonl().lines() {
            let fields = json::parse_flat_object(line).unwrap();
            let field = |key| json::flat_get(&fields, key).unwrap();
            if field("series").as_str() == Some(name) && field("kind").as_str() == Some("counter") {
                width = field("width_ms").as_u64();
                points.push((
                    field("t_ms").as_u64().unwrap(),
                    field("value").as_u64().unwrap(),
                ));
            }
        }
        Some((width?, points))
    }

    fn counter_total(t: &Telemetry, name: &str) -> u64 {
        series_total(&t.timeseries_jsonl(), name)
    }

    #[test]
    fn buckets_by_sim_time_and_conserves_counts() {
        let t = telemetry(60_000, 256);
        t.count_keyed_at(&Q, 2, 0);
        t.count_keyed_at(&Q, 3, 59_999);
        t.count_keyed_at(&Q, 5, 60_000);
        t.count_keyed_at(&Q, 1, 200_000);
        assert_eq!(counter_total(&t, "q"), 11);
        assert_eq!(t.counter_value("q", &[]), 11);
        let (width, points) = counter_series(&t, "q").unwrap();
        assert_eq!(width, 60_000);
        // Dense, gap-free: buckets 0..=3 present, bucket 2 zero.
        assert_eq!(
            points,
            vec![(0, 5), (60_000, 5), (120_000, 0), (180_000, 1)]
        );
    }

    #[test]
    fn the_series_memo_is_believed_only_after_a_name_compare() {
        let mut r = Registry::new();
        r.configure_timeseries(1_000, 256);
        // A freed name's address, reused by another name.
        let name = String::from("series_one");
        r.counter_add_at(&name, 1, 0);
        if let Some(other) = reallocated_at(name, "series_two") {
            r.counter_add_at(&other, 2, 0);
            let jsonl = r.to_timeseries_jsonl();
            assert_eq!(series_total(&jsonl, "series_one"), 1);
            assert_eq!(series_total(&jsonl, "series_two"), 2);
        }
        // A remembered slot, moved down the sorted list by a series that
        // sorts first.
        let (m, z, a) = ("m", "z", "a");
        r.counter_add_at(m, 1, 0);
        r.counter_add_at(z, 10, 0);
        r.counter_add_at(a, 100, 0);
        r.counter_add_at(m, 1, 0);
        r.counter_add_at(z, 10, 0);
        let jsonl = r.to_timeseries_jsonl();
        assert_eq!(series_total(&jsonl, "a"), 100);
        assert_eq!(series_total(&jsonl, "m"), 2);
        assert_eq!(series_total(&jsonl, "z"), 20);
    }

    #[test]
    fn span_cap_triggers_coarsening_and_conserves_totals() {
        let t = telemetry(1_000, 8);
        for i in 0..100u64 {
            t.count_keyed_at(&Q, 1, i * 1_000);
        }
        assert_eq!(counter_total(&t, "q"), 100);
        let (width, points) = counter_series(&t, "q").unwrap();
        // 100 one-second buckets under a cap of 8 → width must have
        // doubled until the span fits: 16 s wide, 7 buckets.
        assert_eq!(width, 16_000);
        assert!(points.len() <= 8, "span {} exceeds cap", points.len());
        assert_eq!(points.iter().map(|(_, v)| v).sum::<u64>(), 100);
    }

    #[test]
    fn coarsening_twice_equals_coarsening_once_at_double_width() {
        // The downsampling law, tested both directly on a series and
        // observationally through the export.
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

            // Observationally: handles starting at w, 2w, and 4w all
            // forced (by cap) to end at the same width export
            // identically.
            let cap = 64;
            let a = telemetry(1_000, cap);
            let b = telemetry(2_000, cap);
            let c = telemetry(4_000, cap);
            for &(t, d) in &events {
                a.count_keyed_at(&Q, d, t);
                b.count_keyed_at(&Q, d, t);
                c.count_keyed_at(&Q, d, t);
            }
            let (wa, _) = counter_series(&a, "q").unwrap();
            let (wb, _) = counter_series(&b, "q").unwrap();
            if wa == wb {
                assert_eq!(
                    a.timeseries_jsonl(),
                    b.timeseries_jsonl(),
                    "seed {seed}: a vs b"
                );
            }
            let (wc, _) = counter_series(&c, "q").unwrap();
            if wa == wc {
                assert_eq!(
                    a.timeseries_jsonl(),
                    c.timeseries_jsonl(),
                    "seed {seed}: a vs c"
                );
            }
            // All three must conserve the total regardless of width.
            assert_eq!(counter_total(&a, "q"), counter_total(&b, "q"));
            assert_eq!(counter_total(&a, "q"), counter_total(&c, "q"));
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Seeded property test over random shard groupings, mirroring
        // the sketch's merge law: any order and any grouping must
        // produce the identical JSONL export.
        for seed in [3u64, 17, 2024] {
            let shards = || {
                let mut state = seed | 1;
                (0..8)
                    .map(|_| random_shard(&mut state, 60_000, 32))
                    .collect::<Vec<_>>()
            };

            // Left fold: ((a ⊕ b) ⊕ c) ⊕ …
            let left = telemetry(60_000, 32);
            left.absorb_shards(shards());
            // Right fold: a ⊕ (b ⊕ (c ⊕ …))
            let right = telemetry(60_000, 32);
            right.absorb_shards(shards().into_iter().rev().collect());
            assert_eq!(
                left.timeseries_jsonl(),
                right.timeseries_jsonl(),
                "seed {seed}: merge not commutative"
            );

            // Random pairing: merge pairs first, then combine.
            let mut pairs = Vec::new();
            let mut shards = shards().into_iter();
            while let (Some(a), b) = (shards.next(), shards.next()) {
                let p = telemetry(60_000, 32);
                p.absorb_shards([a].into_iter().chain(b).collect());
                pairs.push(p.take_parts());
            }
            let paired = telemetry(60_000, 32);
            paired.absorb_shards(pairs);
            assert_eq!(
                left.timeseries_jsonl(),
                paired.timeseries_jsonl(),
                "seed {seed}: merge not associative"
            );
        }
    }

    #[test]
    fn merge_normalises_widths_from_both_sides() {
        // A coarse series absorbing a fine one, and vice versa, must
        // agree: merging is symmetric up to which handle holds it.
        let fine = || {
            let t = telemetry(1_000, usize::MAX >> 1);
            for i in 0..50u64 {
                t.count_keyed_at(&Q, 1, i * 1_000);
            }
            t.take_parts()
        };
        let coarse = || {
            let t = telemetry(1_000, usize::MAX >> 1);
            for i in 0..3u64 {
                t.count_keyed_at(&Q, 7, i * 1_000);
            }
            // Force the coarse series wider by capping it.
            t.configure_timeseries(1_000, 2);
            t.count_keyed_at(&Q, 0, 49_000);
            t.take_parts()
        };
        let ab = telemetry(1_000, 64);
        ab.absorb_shards(vec![fine(), coarse()]);
        let ba = telemetry(1_000, 64);
        ba.absorb_shards(vec![coarse(), fine()]);
        assert_eq!(ab.timeseries_jsonl(), ba.timeseries_jsonl());
        assert_eq!(counter_total(&ab, "q"), 50 + 21);
    }

    #[test]
    fn jsonl_export_is_dense_and_typed() {
        let t = telemetry(1_000, 256);
        t.count_keyed_at(&Q, 4, 500);
        t.count_keyed_at(&Q, 2, 2_500);
        t.gauge_keyed_at(&MetricKey::new("g"), 1.5, 0);
        t.sketch_keyed_at(&MetricKey::new("lat"), 120, 0);
        // Totals alone have no series to export.
        t.count("plain", 1);
        t.sketch_with("lat", &[("k", "v")], 5);
        let out = t.timeseries_jsonl();
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
        assert!(Telemetry::new().timeseries_jsonl().is_empty());
    }
}
