//! Event-stream analysis: grouping and interarrival times.
//!
//! §3.4 of the paper classifies 205k `.nl` resolvers by grouping
//! authoritative-side query logs into (resolver, query-name) streams and
//! examining per-group query counts (Figure 3) and minimum interarrival
//! times (Figure 4). These helpers implement that pipeline generically.

use std::collections::BTreeMap;

/// Groups `(key, time)` events into per-key sorted time lists.
///
/// Returns an ordered map so that iterating the groups feeds downstream
/// emission (CSV rows, counters) in key order — consumers must never
/// inherit hash-map iteration order, which would vary run to run and
/// break byte-identical output.
pub fn group_by<K: Ord + Clone>(
    events: impl IntoIterator<Item = (K, u64)>,
) -> BTreeMap<K, Vec<u64>> {
    let mut groups: BTreeMap<K, Vec<u64>> = BTreeMap::new();
    for (k, t) in events {
        groups.entry(k).or_default().push(t);
    }
    for times in groups.values_mut() {
        times.sort_unstable();
    }
    groups
}

/// Successive differences of a sorted time list.
pub(crate) fn interarrivals(times: &[u64]) -> Vec<u64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// The minimum interarrival of a sorted time list, optionally ignoring
/// gaps below `dedup_floor` (the paper filters sub-2 s interarrivals as
/// retransmissions; the filtering "curves are essentially identical").
pub fn min_interarrival(times: &[u64], dedup_floor: u64) -> Option<u64> {
    interarrivals(times)
        .into_iter()
        .filter(|&d| d >= dedup_floor)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_sorts_within_key() {
        let groups = group_by(vec![("a", 30u64), ("b", 5), ("a", 10), ("a", 20)]);
        assert_eq!(groups["a"], vec![10, 20, 30]);
        assert_eq!(groups["b"], vec![5]);
    }

    #[test]
    fn grouping_iterates_in_key_order() {
        let groups = group_by(vec![("z", 1u64), ("a", 2), ("m", 3), ("a", 4)]);
        let keys: Vec<&str> = groups.keys().copied().collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn interarrival_differences() {
        assert_eq!(interarrivals(&[10, 20, 45]), vec![10, 25]);
        assert!(interarrivals(&[7]).is_empty());
        assert!(interarrivals(&[]).is_empty());
    }

    #[test]
    fn min_interarrival_with_retransmission_filter() {
        // A 1 s gap is a retransmission; the real revisit is 3600 s.
        let times = [0, 1, 3_601];
        assert_eq!(min_interarrival(&times, 0), Some(1));
        assert_eq!(min_interarrival(&times, 2), Some(3_600));
        assert_eq!(min_interarrival(&[42], 0), None);
    }
}
