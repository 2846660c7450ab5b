//! Deterministic mergeable quantile sketches.
//!
//! The paper's core results are latency *distributions* vs TTL, so the
//! registry needs tail quantiles (p99/p999) that survive the sharded
//! engine's merge without losing the determinism contract. This is a
//! DDSketch-style relative-error sketch with one crucial difference:
//! bucket indexing is pure integer log-linear arithmetic (the same
//! HdrHistogram trick), never `f64::ln`, so a value maps to the same
//! bucket on every platform and the merged sketch is byte-identical
//! for any worker count.
//!
//! Layout: values below `2^SUB_BITS` are exact (one bucket per value);
//! above that, each power-of-two range `[2^e, 2^(e+1))` splits into
//! `2^SUB_BITS` equal sub-buckets addressed by the top `SUB_BITS`
//! mantissa bits. A bucket's representative value is its midpoint, so
//! the worst-case relative error is half a sub-bucket:
//! `2^-(SUB_BITS+1)` ≈ 1.6 % for `SUB_BITS = 5`.
//!
//! Merging adds bucket counts — associative and commutative by
//! construction — which is exactly what `Telemetry::absorb_shards`
//! needs: shard sketches can arrive in any grouping and the result is
//! identical.

/// Sub-bucket resolution: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets.
pub(crate) const SKETCH_SUB_BITS: u32 = 5;

#[cfg(test)]
/// Worst-case relative error of a reported quantile: half a
/// sub-bucket, `2^-(SKETCH_SUB_BITS+1)`.
pub(crate) const SKETCH_RELATIVE_ERROR: f64 = 1.0 / (1 << (SKETCH_SUB_BITS + 1)) as f64;

const SUB: u32 = SKETCH_SUB_BITS;

/// A mergeable log-linear quantile sketch over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Bucket counts, dense from the lowest occupied bucket (`lo`, by
    /// [`QuantileSketch::bucket_index`]) to the highest, so both ends
    /// are non-zero and two sketches of the same observations hold the
    /// same vector. Position order is value order, which is what the
    /// quantile walk needs; an observation is an index, not a search.
    counts: Vec<u64>,
    /// The bucket `counts[0]` counts; 0 while the sketch is empty.
    lo: u32,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            counts: Vec::new(),
            lo: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Widens `counts` with empty buckets until it spans `lo..=hi`.
    #[cold]
    #[inline(never)]
    fn cover(&mut self, lo: u32, hi: u32) {
        if self.counts.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let below = (self.lo - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, below));
            self.lo = lo;
        }
        let len = (hi - self.lo + 1) as usize;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
    }

    /// The count of bucket `index`, the span widened to reach it.
    #[inline]
    fn slot(&mut self, index: u32) -> &mut u64 {
        let at = index.wrapping_sub(self.lo) as usize;
        if at >= self.counts.len() {
            self.cover(index, index);
            return &mut self.counts[(index - self.lo) as usize];
        }
        &mut self.counts[at]
    }

    /// The bucket index for `value` — pure integer arithmetic.
    ///
    /// Values below `2^SUB` map to themselves (exact). Otherwise, with
    /// `e = floor(log2 value)`, the index is the sub-bucket count of
    /// all smaller ranges plus the top `SUB` mantissa bits. The two
    /// regions are continuous: for `value` in `[2^SUB, 2^(SUB+1))` the
    /// formula yields `value` itself.
    pub(crate) fn bucket_index(value: u64) -> u32 {
        if value < (1 << SUB) {
            return value as u32;
        }
        let e = 63 - value.leading_zeros();
        let mantissa = ((value >> (e - SUB)) & ((1 << SUB) - 1)) as u32;
        ((e - SUB + 1) << SUB) + mantissa
    }

    /// The midpoint of bucket `index` — the value a quantile in this
    /// bucket reports.
    pub(crate) fn representative(index: u32) -> u64 {
        if index < (1 << SUB) {
            return index as u64;
        }
        let e = (index >> SUB) + SUB - 1;
        let mantissa = (index & ((1 << SUB) - 1)) as u64;
        let width = 1u64 << (e - SUB);
        let lo = (1u64 << e) + mantissa * width;
        lo + (width - 1) / 2
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, value: u64) {
        *self.slot(Self::bucket_index(value)) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Quantile `q` in `0.0..=1.0`: the representative value of the
    /// bucket holding the `ceil(q·count)`-th observation, clamped to
    /// the exact tracked `[min, max]`. Within the relative-error bound
    /// of the true quantile; exact at q=0 and q=1.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &n) in (self.lo..).zip(&self.counts) {
            seen += n;
            if seen >= rank {
                return Some(Self::representative(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds every observation of `other` into `self`. Bucket counts
    /// add, so merging is associative and commutative: any grouping of
    /// shard sketches produces the identical merged sketch.
    pub(crate) fn merge(&mut self, other: &QuantileSketch) {
        if !other.counts.is_empty() {
            self.cover(other.lo, other.lo + other.counts.len() as u32 - 1);
            let from = (other.lo - self.lo) as usize;
            for (mine, theirs) in self.counts[from..].iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The deterministic xorshift the netsim crate uses, inlined so the
    /// property tests stay seeded without a cross-crate dev-dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn indexing_is_continuous_and_monotonic() {
        // Exact region, boundary, and the first split range.
        let mut last = None;
        for v in 0..4096u64 {
            let idx = QuantileSketch::bucket_index(v);
            if let Some(prev) = last {
                assert!(idx >= prev, "index not monotonic at {v}");
            }
            last = Some(idx);
        }
        // Values below 2^SUB are exact.
        for v in 0..(1u64 << SUB) {
            assert_eq!(QuantileSketch::bucket_index(v), v as u32);
            assert_eq!(QuantileSketch::representative(v as u32), v);
        }
        // The boundary range [2^SUB, 2^(SUB+1)) is still exact.
        for v in (1u64 << SUB)..(1u64 << (SUB + 1)) {
            assert_eq!(QuantileSketch::bucket_index(v) as u64, v);
        }
        // No panic at the extremes.
        QuantileSketch::bucket_index(u64::MAX);
        QuantileSketch::representative(QuantileSketch::bucket_index(u64::MAX));
    }

    #[test]
    fn representative_is_within_relative_error() {
        let mut state = 0x5eed_cafe_u64 | 1;
        for _ in 0..20_000 {
            let v = xorshift(&mut state) >> (xorshift(&mut state) % 50);
            let rep = QuantileSketch::representative(QuantileSketch::bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / (v as f64).max(1.0);
            assert!(
                err <= SKETCH_RELATIVE_ERROR + 1e-12,
                "value {v}: representative {rep} off by {err}"
            );
        }
    }

    #[test]
    fn quantiles_are_within_bound_of_exact() {
        let mut state = 2024u64;
        let mut s = QuantileSketch::new();
        let mut values: Vec<u64> = Vec::new();
        for _ in 0..5_000 {
            let v = xorshift(&mut state) % 1_000_000;
            s.observe(v);
            values.push(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact =
                values[(((q * values.len() as f64).ceil() as usize) - 1).min(values.len() - 1)];
            let approx = s.quantile(q).unwrap();
            let err = (approx as f64 - exact as f64).abs() / (exact as f64).max(1.0);
            // The rank itself is exact; only the value is bucketed.
            assert!(
                err <= SKETCH_RELATIVE_ERROR + 1e-12,
                "q={q}: sketch {approx} vs exact {exact} (err {err})"
            );
        }
        assert_eq!(s.quantile(0.0), Some(values[0]));
        assert_eq!(s.quantile(1.0), Some(*values.last().unwrap()));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // Seeded property test over random shard groupings: any order
        // and any grouping of merges must produce the identical sketch
        // (structural equality — same buckets, count, sum, min, max).
        for seed in [3u64, 17, 2024] {
            let mut state = seed | 1;
            let shards: Vec<QuantileSketch> = (0..8)
                .map(|_| {
                    let mut s = QuantileSketch::new();
                    for _ in 0..(xorshift(&mut state) % 200) {
                        s.observe(xorshift(&mut state) % 100_000);
                    }
                    s
                })
                .collect();

            // Left fold: ((a ⊕ b) ⊕ c) ⊕ …
            let mut left = QuantileSketch::new();
            for s in &shards {
                left.merge(s);
            }
            // Right fold: a ⊕ (b ⊕ (c ⊕ …))
            let mut right = QuantileSketch::new();
            for s in shards.iter().rev() {
                right.merge(s);
            }
            assert_eq!(left, right, "seed {seed}: merge not commutative");

            // Random pairing: merge pairs first, then combine.
            let mut paired = QuantileSketch::new();
            for pair in shards.chunks(2) {
                let mut p = QuantileSketch::new();
                for s in pair {
                    p.merge(s);
                }
                paired.merge(&p);
            }
            assert_eq!(left, paired, "seed {seed}: merge not associative");
        }
    }

    /// The sketch as it was before its counts went flat: sparse counts
    /// in a tree, the quantile walk over the tree. The reference model
    /// the flat layout is checked against.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Reference {
        buckets: BTreeMap<u32, u64>,
        count: u64,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    }

    impl Reference {
        fn observe(&mut self, value: u64) {
            *self
                .buckets
                .entry(QuantileSketch::bucket_index(value))
                .or_insert(0) += 1;
            self.count += 1;
            self.sum = self.sum.saturating_add(value);
            self.min = Some(self.min.map_or(value, |m| m.min(value)));
            self.max = Some(self.max.map_or(value, |m| m.max(value)));
        }

        fn merge(&mut self, other: &Reference) {
            for (&idx, &n) in &other.buckets {
                *self.buckets.entry(idx).or_insert(0) += n;
            }
            self.count += other.count;
            self.sum = self.sum.saturating_add(other.sum);
            self.min = self.min.into_iter().chain(other.min).min();
            self.max = self.max.into_iter().chain(other.max).max();
        }

        fn quantile(&self, q: f64) -> Option<u64> {
            let (min, max) = (self.min?, self.max?);
            if q <= 0.0 {
                return Some(min);
            }
            if q >= 1.0 {
                return Some(max);
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0;
            for (&idx, &n) in &self.buckets {
                seen += n;
                if seen >= rank {
                    return Some(QuantileSketch::representative(idx).clamp(min, max));
                }
            }
            Some(max)
        }
    }

    /// The values at the edges of the index arithmetic: zero, the ends
    /// of the exact region and of the first split range, the top.
    const EDGES: [u64; 6] = [0, 31, 32, 63, 64, u64::MAX];

    /// A seeded value: an edge one time in four, otherwise a random
    /// value of a random magnitude.
    fn value(state: &mut u64) -> u64 {
        let r = xorshift(state);
        if r.is_multiple_of(4) {
            EDGES[(r >> 8) as usize % EDGES.len()]
        } else {
            xorshift(state) >> (r % 64)
        }
    }

    /// Asserts that `s` reports what the reference model does.
    fn assert_agrees(s: &QuantileSketch, r: &Reference, context: &str) {
        assert_eq!((s.count(), s.sum()), (r.count, r.sum), "{context}");
        assert_eq!((s.min(), s.max()), (r.min, r.max), "{context}");
        let qs = crate::registry::SKETCH_QUANTILES.iter().map(|&(q, _)| q);
        for q in qs.chain([0.0, 0.001, 0.25, 0.75, 1.0]) {
            assert_eq!(s.quantile(q), r.quantile(q), "{context}: q={q}");
        }
    }

    #[test]
    fn flat_counts_agree_with_the_tree_they_replaced() {
        for seed in [3u64, 17, 2024, 0x9e37_79b9_7f4a_7c15] {
            let mut state = seed | 1;
            // Shards of seeded streams, each checked as it stands.
            let shards: Vec<(QuantileSketch, Reference)> = (0..12)
                .map(|_| {
                    let (mut s, mut r) = (QuantileSketch::new(), Reference::default());
                    for _ in 0..xorshift(&mut state) % 300 {
                        let v = value(&mut state);
                        s.observe(v);
                        r.observe(v);
                    }
                    assert_agrees(&s, &r, &format!("seed {seed}: stream"));
                    (s, r)
                })
                .collect();
            // Merged in random groupings: pick two parts, merge one into
            // the other, until one is left.
            let mut parts = shards.clone();
            while parts.len() > 1 {
                let i = xorshift(&mut state) as usize % parts.len();
                let (s, r) = parts.swap_remove(i);
                let j = xorshift(&mut state) as usize % parts.len();
                parts[j].0.merge(&s);
                parts[j].1.merge(&r);
                assert_agrees(&parts[j].0, &parts[j].1, &format!("seed {seed}: merge"));
            }
            let (merged, reference) = parts.pop().unwrap();
            let mut folded = QuantileSketch::new();
            shards.iter().for_each(|(s, _)| folded.merge(s));
            assert_eq!(merged, folded, "seed {seed}: grouping changed the merge");
            assert_agrees(&merged, &reference, &format!("seed {seed}: merged"));
        }
    }

    #[test]
    fn sketches_are_equal_exactly_when_their_reference_models_are() {
        // Short streams over the edge values: equal models come up often,
        // from different orders and from merges of different splits.
        let mut state = 0x5eed_u64;
        let mut made: Vec<(QuantileSketch, Reference)> = Vec::new();
        for _ in 0..400 {
            let (mut s, mut r) = (QuantileSketch::new(), Reference::default());
            for _ in 0..xorshift(&mut state) % 4 {
                let v = EDGES[xorshift(&mut state) as usize % 5];
                if xorshift(&mut state).is_multiple_of(3) {
                    let (mut one, mut one_ref) = (QuantileSketch::new(), Reference::default());
                    one.observe(v);
                    one_ref.observe(v);
                    s.merge(&one);
                    r.merge(&one_ref);
                } else {
                    s.observe(v);
                    r.observe(v);
                }
            }
            made.push((s, r));
        }
        let mut equal_pairs = 0;
        for (a, ra) in &made {
            for (b, rb) in &made {
                assert_eq!(a == b, ra == rb, "{a:?} vs {b:?}");
                equal_pairs += (ra == rb) as usize;
            }
        }
        assert!(
            equal_pairs > 2 * made.len(),
            "only {equal_pairs} equal pairs"
        );
    }

    #[test]
    fn a_sketch_of_values_below_2_16_stays_under_its_byte_bound() {
        // Every value below 2^16 falls in one of 384 buckets, so the
        // flat counts are at most 384 words; growth may leave the
        // vector up to twice that.
        let buckets = QuantileSketch::bucket_index(u16::MAX as u64) as usize + 1;
        assert_eq!(buckets, 384);
        let bound = 2 * buckets * std::mem::size_of::<u64>();
        let mut state = 42u64;
        let mut s = QuantileSketch::new();
        for _ in 0..200_000 {
            s.observe(xorshift(&mut state) >> (48 + xorshift(&mut state) % 16));
            s.observe(u16::MAX as u64 - xorshift(&mut state) % 64);
        }
        let bytes = s.counts.capacity() * std::mem::size_of::<u64>();
        assert!(bytes <= bound, "{bytes} bytes of counts, bound {bound}");
        assert_eq!(s.counts.len(), buckets);
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        let mut merged = QuantileSketch::new();
        merged.merge(&s);
        assert_eq!(merged, QuantileSketch::new());
    }
}
