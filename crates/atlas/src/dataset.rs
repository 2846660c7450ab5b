//! Measurement result datasets.

use crate::shard::merge_by_time;
use dnsttl_netsim::{Region, SimTime};
use dnsttl_wire::{fnv1a, Name, Rcode, FNV_OFFSET};
use std::sync::Arc;

/// One query's outcome as the measurement platform records it.
#[derive(Debug, Clone)]
pub struct MeasurementResult {
    /// When the VP fired.
    pub at: SimTime,
    /// Atlas-style probe identifier.
    pub probe_id: u32,
    /// Index of the probe in the population.
    pub probe_idx: usize,
    /// Which of the probe's resolver slots fired (identifies the VP
    /// together with `probe_idx`).
    pub vp_slot: usize,
    /// Index of the concrete resolver backend that served the query
    /// (public services spread queries over several backends).
    pub resolver_idx: usize,
    /// Probe region (self-reported geolocation in the paper).
    pub region: Region,
    /// The name queried.
    pub qname: Name,
    /// Response code seen by the probe.
    pub rcode: Rcode,
    /// TTL of the first answer record, if any — the quantity behind
    /// Figures 1, 2 and 9.
    pub ttl: Option<u64>,
    /// Each answer record's data in presentation form (addresses),
    /// used to tell the original from the renumbered server in Figures
    /// 6–8. An `NS` or `CNAME` answer shares the name's own buffer (a
    /// reference count, not a copy); any other type is rendered once.
    /// Rows with the same answers share one list.
    pub answers: Arc<[Arc<str>]>,
    /// Client-observed round-trip in ms (probe→resolver link plus the
    /// resolver's upstream work) — the quantity behind Figures 10–11.
    pub rtt_ms: u64,
    /// True when the resolver answered fully from cache.
    pub cache_hit: bool,
    /// False for hijacked probes or non-NOERROR/empty responses; the
    /// paper's "discarded" rows.
    pub valid: bool,
    /// True when the resolver gave up (SERVFAIL after timeouts).
    pub timed_out: bool,
}

/// An append-only collection of measurement results with the
/// valid/discard accounting the paper reports per experiment.
#[derive(Debug, Default)]
pub struct Dataset {
    results: Vec<MeasurementResult>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// An empty dataset pre-sized for `n` results, so a measurement
    /// loop with a known query volume never re-grows the buffer.
    pub fn with_capacity(n: usize) -> Dataset {
        Dataset {
            results: Vec::with_capacity(n),
        }
    }

    /// Appends one result.
    pub fn push(&mut self, r: MeasurementResult) {
        self.results.push(r);
    }

    /// All results in arrival order.
    pub fn results(&self) -> &[MeasurementResult] {
        &self.results
    }

    /// Total queries issued.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when no queries were recorded.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Valid responses only (the denominators in the paper's CDFs).
    pub fn valid(&self) -> impl Iterator<Item = &MeasurementResult> {
        self.results.iter().filter(|r| r.valid)
    }

    /// Count of valid responses.
    pub fn valid_count(&self) -> usize {
        self.valid().count()
    }

    /// Count of discarded (invalid) responses.
    pub fn discarded_count(&self) -> usize {
        self.len() - self.valid_count()
    }

    /// Observed TTLs of valid responses.
    pub fn ttls(&self) -> Vec<u64> {
        self.valid().filter_map(|r| r.ttl).collect()
    }

    /// Observed RTTs (ms) of valid responses.
    pub fn rtts_ms(&self) -> Vec<u64> {
        self.valid().map(|r| r.rtt_ms).collect()
    }

    /// Observed RTTs (ms) of valid responses from one region.
    pub fn rtts_ms_in(&self, region: Region) -> Vec<u64> {
        self.valid()
            .filter(|r| r.region == region)
            .map(|r| r.rtt_ms)
            .collect()
    }

    /// Distinct resolvers seen.
    pub fn distinct_resolvers(&self) -> usize {
        let mut ids: Vec<usize> = self.results.iter().map(|r| r.resolver_idx).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Per-VP iterator over result indices, for behavioural
    /// classification (sticky detection in Table 4). The key is
    /// (probe index, resolver slot). Ordered so that iteration feeds
    /// downstream aggregation in a deterministic key order.
    pub fn by_vp(&self) -> std::collections::BTreeMap<(usize, usize), Vec<&MeasurementResult>> {
        let mut map: std::collections::BTreeMap<(usize, usize), Vec<&MeasurementResult>> =
            std::collections::BTreeMap::new();
        for r in &self.results {
            map.entry((r.probe_idx, r.vp_slot)).or_default().push(r);
        }
        map
    }

    /// FNV-1a over every row in order: a cheap order-sensitive
    /// fingerprint, so digest equality across worker counts certifies
    /// that the merge produced the identical row sequence.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.results {
            h = fnv1a(h, &r.at.as_millis().to_le_bytes());
            h = fnv1a(h, &r.probe_id.to_le_bytes());
            h = fnv1a(h, &(r.probe_idx as u64).to_le_bytes());
            h = fnv1a(h, &(r.resolver_idx as u64).to_le_bytes());
            h = fnv1a(h, format!("{:?}", r.rcode).as_bytes());
            h = fnv1a(h, &r.ttl.unwrap_or(u64::MAX).to_le_bytes());
            for a in r.answers.iter() {
                h = fnv1a(h, a.as_bytes());
            }
        }
        h
    }

    /// Merges per-shard datasets into one global dataset.
    ///
    /// Each element is `(dataset, probe_base, resolver_base)`: the
    /// shard's results plus the global index offsets of its first probe
    /// and first resolver. Probe/resolver indices are rebased so VPs
    /// stay distinct across shards, and results are re-ordered by
    /// simulation time by [`merge_by_time`] — ties keep shard order,
    /// then within-shard arrival order — so the merged dataset is
    /// identical no matter how many workers produced the parts.
    pub fn merge_shards(parts: Vec<(Dataset, usize, usize)>) -> Dataset {
        let (lists, bases): (Vec<_>, Vec<_>) = parts
            .into_iter()
            .map(|(part, probe_base, resolver_base)| {
                (part.results.into_iter(), (probe_base, resolver_base))
            })
            .unzip();
        let results = merge_by_time(lists, |r| r.at)
            .map(|(part, mut r)| {
                r.probe_idx += bases[part].0;
                r.resolver_idx += bases[part].1;
                r
            })
            .collect();
        Dataset { results }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(probe: u32, valid: bool, ttl: Option<u64>, rtt: u64) -> MeasurementResult {
        MeasurementResult {
            at: SimTime::ZERO,
            probe_id: probe,
            probe_idx: probe as usize,
            vp_slot: 0,
            resolver_idx: 0,
            region: Region::Eu,
            qname: Name::parse("uy").unwrap(),
            rcode: Rcode::NoError,
            ttl,
            answers: Arc::from([]),
            rtt_ms: rtt,
            cache_hit: false,
            valid,
            timed_out: false,
        }
    }

    #[test]
    fn accounting_splits_valid_and_discarded() {
        let mut ds = Dataset::new();
        ds.push(result(1, true, Some(300), 20));
        ds.push(result(1, true, Some(290), 5));
        ds.push(result(2, false, None, 0));
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.valid_count(), 2);
        assert_eq!(ds.discarded_count(), 1);
        assert_eq!(ds.ttls(), vec![300, 290]);
        assert_eq!(ds.rtts_ms(), vec![20, 5]);
    }

    #[test]
    fn merge_shards_rebases_indices_and_orders_by_time() {
        let at = |ms| SimTime::from_millis(ms);
        let mut shard0 = Dataset::new();
        let mut r = result(1, true, Some(10), 1);
        r.at = at(100);
        shard0.push(r);
        let mut r = result(1, true, Some(20), 1);
        r.at = at(300);
        shard0.push(r);
        let mut shard1 = Dataset::new();
        let mut r = result(2, true, Some(30), 1);
        r.at = at(100); // ties with shard 0's first result
        r.probe_idx = 0;
        r.resolver_idx = 0;
        shard1.push(r);
        let mut r = result(2, true, Some(40), 1);
        r.at = at(200);
        r.probe_idx = 0;
        r.resolver_idx = 0;
        shard1.push(r);

        let merged = Dataset::merge_shards(vec![(shard0, 0, 0), (shard1, 5, 7)]);
        assert_eq!(
            merged.ttls(),
            vec![10, 30, 40, 20],
            "time order, shard order on ties"
        );
        let idx: Vec<(usize, usize)> = merged
            .results()
            .iter()
            .map(|r| (r.probe_idx, r.resolver_idx))
            .collect();
        assert_eq!(idx, vec![(1, 0), (5, 7), (5, 7), (1, 0)]);
    }

    #[test]
    fn merge_shards_is_cell_count_agnostic() {
        // Regression for the tunable-cell-count audit: the merge is
        // parameterized purely by the parts vector, so a 64-cell
        // layout — empty cells included — must behave exactly like the
        // classic 16. Each occupied cell emits two results; times are
        // chosen so cells tie pairwise and the merged order must fall
        // back to part order.
        let at = |ms| SimTime::from_millis(ms);
        let mut parts = Vec::new();
        let mut resolver_base = 0;
        for cell in 0..64usize {
            let mut ds = Dataset::new();
            if cell % 4 != 3 {
                // Two results per occupied cell; ties across cells at
                // t = (cell / 2) ms.
                for k in 0..2u64 {
                    let mut r = result(cell as u32, true, Some(cell as u64), 1);
                    r.at = at((cell as u64 / 2) + 100 * k);
                    r.probe_idx = 0;
                    r.resolver_idx = 0;
                    ds.push(r);
                }
            }
            parts.push((ds, cell * 3, resolver_base));
            resolver_base += 2;
        }
        let merged = Dataset::merge_shards(parts);
        assert_eq!(merged.len(), 96, "48 occupied cells x 2 results");
        // Global order: non-decreasing time, part order on ties.
        let mut last = (SimTime::ZERO, 0usize);
        for r in merged.results() {
            let key = (r.at, r.probe_idx);
            assert!(key >= last, "order violated at probe_idx {}", r.probe_idx);
            last = key;
        }
        // Rebase: every result carries its cell's probe base, so all
        // probe indices are distinct multiples of 3.
        let mut idx: Vec<usize> = merged.results().iter().map(|r| r.probe_idx).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 48);
        assert!(idx.iter().all(|i| i % 3 == 0));
    }

    #[test]
    fn by_vp_groups_results() {
        let mut ds = Dataset::new();
        ds.push(result(1, true, Some(1), 1));
        ds.push(result(1, true, Some(2), 1));
        ds.push(result(2, true, Some(3), 1));
        let groups = ds.by_vp();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&(1, 0)].len(), 2);
    }
}
