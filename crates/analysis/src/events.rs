//! Event-stream analysis: per-key arrival counts and interarrivals.
//!
//! §3.4 of the paper classifies 205k `.nl` resolvers by grouping
//! authoritative-side query logs into (resolver, query-name) streams and
//! examining per-group query counts (Figure 3) and minimum interarrival
//! times (Figure 4). [`ArrivalFold`] reduces each stream to those
//! numbers as its arrivals come in, so no capture is kept.

use std::collections::BTreeMap;

/// Interarrivals below this are retransmissions (the paper's 2 s
/// filter; the filtered "curves are essentially identical").
const RETRANSMISSION_S: u64 = 2;

/// One key's arrival stream, reduced to what Figures 3 and 4 plot.
#[derive(Debug, Default)]
pub struct ArrivalStats {
    /// Arrivals.
    pub count: u64,
    /// Arrivals less those within 2 s of the previous one.
    pub filtered: u64,
    /// The minimum interarrival of 2 s or more, if any.
    pub min_gap: Option<u64>,
    /// The latest arrival folded.
    last: u64,
}

/// Per-key [`ArrivalStats`], exact whatever order arrivals come in
/// above the watermark: each is held until [`Self::settle`] makes it
/// final, then folded in time order.
#[derive(Debug)]
pub struct ArrivalFold<K> {
    groups: BTreeMap<K, ArrivalStats>,
    /// Arrivals not below the watermark, which a later one may precede.
    pending: Vec<(u64, K)>,
    watermark: u64,
}

impl<K> Default for ArrivalFold<K> {
    fn default() -> ArrivalFold<K> {
        ArrivalFold {
            groups: BTreeMap::new(),
            pending: Vec::new(),
            watermark: 0,
        }
    }
}

impl<K: Ord> ArrivalFold<K> {
    /// Records an arrival of `key` at `at`, not below the watermark.
    pub fn add(&mut self, key: K, at: u64) {
        debug_assert!(at >= self.watermark, "arrival {at} below the watermark");
        self.pending.push((at, key));
    }

    /// Promises that no later arrival is below `watermark` (which never
    /// decreases) and folds every held arrival below it, in time order.
    pub fn settle(&mut self, watermark: u64) {
        debug_assert!(watermark >= self.watermark, "the watermark went back");
        self.watermark = watermark;
        self.pending.sort_by_key(|&(at, _)| at);
        let done = self.pending.partition_point(|&(at, _)| at < watermark);
        for (at, key) in self.pending.drain(..done) {
            let g = self.groups.entry(key).or_default();
            match at - g.last {
                _ if g.count == 0 => g.filtered = 1,
                gap if gap >= RETRANSMISSION_S => {
                    g.filtered += 1;
                    g.min_gap = Some(g.min_gap.map_or(gap, |m| m.min(gap)));
                }
                _ => {}
            }
            g.count += 1;
            g.last = at;
        }
    }

    /// Folds what is still held and returns each key's statistics, in
    /// key order.
    pub fn finish(mut self) -> BTreeMap<K, ArrivalStats> {
        self.settle(u64::MAX);
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold<K: Ord>(arrivals: impl IntoIterator<Item = (K, u64)>) -> BTreeMap<K, ArrivalStats> {
        let mut f = ArrivalFold::default();
        for (k, t) in arrivals {
            f.add(k, t);
        }
        f.finish()
    }

    fn of(s: &ArrivalStats) -> (u64, u64, Option<u64>) {
        (s.count, s.filtered, s.min_gap)
    }

    #[test]
    fn grouping_sorts_within_key() {
        // Out of order within "a": folded as 10, 20, 30.
        let groups = fold(vec![("a", 30u64), ("b", 5), ("a", 10), ("a", 20)]);
        assert_eq!(of(&groups["a"]), (3, 3, Some(10)));
        assert_eq!(of(&groups["b"]), (1, 1, None));
    }

    #[test]
    fn grouping_iterates_in_key_order() {
        let groups = fold(vec![("z", 1u64), ("a", 2), ("m", 3), ("a", 4)]);
        let keys: Vec<&str> = groups.keys().copied().collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn interarrival_differences() {
        assert_eq!(of(&fold([(0, 10), (0, 20), (0, 45)])[&0]), (3, 3, Some(10)));
        assert_eq!(of(&fold([(0, 7)])[&0]), (1, 1, None));
        assert!(fold::<u8>([]).is_empty());
    }

    #[test]
    fn min_interarrival_with_retransmission_filter() {
        // A 1 s gap is a retransmission; the real revisit is 3600 s.
        let groups = fold([(0, 3_601), (0, 0), (0, 1)]);
        assert_eq!(of(&groups[&0]), (3, 2, Some(3_600)));
    }

    /// SplitMix64: a seeded stream for the model test.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The fold against sorting each key's whole stream and scanning
    /// it, over streams shuffled within windows behind a watermark that
    /// steps up (or stays) between windows: ties, gaps of 0–3 s, single
    /// arrivals and empty draws included.
    #[test]
    fn the_fold_matches_a_sort_then_scan_whatever_the_arrival_order() {
        let mut rng = Mix(42);
        for _ in 0..500 {
            let mut events: Vec<(u64, u64)> = Vec::new();
            for key in 0..rng.below(7) {
                let mut t = rng.below(20);
                for _ in 0..=rng.below(8) {
                    events.push((t, key));
                    t += match rng.below(6) {
                        g @ 0..=3 => g,
                        _ => 4 + rng.below(5_000),
                    };
                }
            }
            events.sort_unstable();

            // The reference: each key's sorted times, scanned.
            let mut times: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(t, key) in &events {
                times.entry(key).or_default().push(t);
            }
            let expected: BTreeMap<u64, (u64, u64, Option<u64>)> = times
                .iter()
                .map(|(&key, ts)| {
                    let gaps = || ts.windows(2).map(|w| w[1] - w[0]).filter(|&g| g >= 2);
                    (
                        key,
                        (ts.len() as u64, 1 + gaps().count() as u64, gaps().min()),
                    )
                })
                .collect();

            // Deliver window by window, each shuffled; between windows
            // the watermark moves anywhere up to the earliest arrival
            // still to come.
            let mut f = ArrivalFold::default();
            let mut watermark = 0;
            let mut rest = &events[..];
            while !rest.is_empty() {
                let take = (1 + rng.below(6) as usize).min(rest.len());
                let mut window = rest[..take].to_vec();
                rest = &rest[take..];
                for i in (1..window.len()).rev() {
                    window.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for (t, key) in window {
                    f.add(key, t);
                }
                let next = rest.first().map_or(watermark + 10, |&(t, _)| t);
                watermark += rng.below(next - watermark + 1);
                f.settle(watermark);
            }
            let got: BTreeMap<u64, (u64, u64, Option<u64>)> =
                f.finish().iter().map(|(&k, s)| (k, of(s))).collect();
            assert_eq!(got, expected, "events {events:?}");
        }
    }
}
