//! The client driver.
//!
//! Every simulated population — Atlas vantage points, passive `.nl`
//! demand, the client experiments — is a set of clients that each ask,
//! then wait a gap, then ask again. [`drive`] runs that rule for all of
//! them on one [`TimingWheel`]: asks fire in time order, and asks due
//! at the same instant fire in the order they were scheduled (a
//! sequence number breaks ties). Determinism here is what lets two runs
//! of an experiment with the same seed produce identical output.

use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// Drives a client population to `end`: client `i` asks first at the
/// `i`-th of `starts`, then again `ask(now, i)` after each of its asks.
///
/// Clients are first scheduled in index order, asks due at one instant
/// run in the order they were scheduled (a re-arm onto an occupied
/// instant runs after the asks already due there), and an ask due at
/// or after `end` never runs. A client that returns a gap reaching
/// `end` — `SimDuration::from_millis(u64::MAX)` always does — asks no
/// more.
///
/// ```
/// use dnsttl_netsim::{drive, SimDuration, SimTime};
/// let mut asks = Vec::new();
/// drive(
///     [SimTime::from_secs(10), SimTime::from_secs(5), SimTime::from_secs(10)],
///     SimTime::from_secs(30),
///     |now, client| {
///         asks.push((now.as_secs(), client));
///         SimDuration::from_secs(20)
///     },
/// );
/// assert_eq!(asks, [(5, 1), (10, 0), (10, 2), (25, 1)]);
/// ```
pub fn drive(
    starts: impl IntoIterator<Item = SimTime>,
    end: SimTime,
    mut ask: impl FnMut(SimTime, usize) -> SimDuration,
) {
    let mut wheel = TimingWheel::new();
    for (client, at) in starts.into_iter().enumerate() {
        wheel.insert(at.as_millis(), (client as u64, client));
    }
    let mut seq = wheel.len() as u64;
    while let Some((at, (_, client))) = wheel.pop_first().filter(|&(at, _)| at < end.as_millis()) {
        let gap = ask(SimTime::from_millis(at), client);
        wheel.insert(at.saturating_add(gap.as_millis()), (seq, client));
        seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ask `drive` makes, as `(time in ms, client)`, when client
    /// `i`'s successive gaps are `gaps[i]`; it asks no more once they
    /// run out.
    fn asks(starts: &[u64], end: u64, gaps: &[&[u64]]) -> Vec<(u64, usize)> {
        let mut left: Vec<std::slice::Iter<u64>> = gaps.iter().map(|g| g.iter()).collect();
        let mut out = Vec::new();
        drive(
            starts.iter().map(|&ms| SimTime::from_millis(ms)),
            SimTime::from_millis(end),
            |now, client| {
                out.push((now.as_millis(), client));
                SimDuration::from_millis(left[client].next().copied().unwrap_or(u64::MAX))
            },
        );
        out
    }

    /// The gaps of a client that asks once.
    const ONCE: &[u64] = &[];

    #[test]
    fn asks_run_in_time_order() {
        assert_eq!(
            asks(&[30, 10, 20], 100, &[ONCE; 3]),
            [(10, 1), (20, 2), (30, 0)]
        );
    }

    #[test]
    fn ties_run_in_schedule_order() {
        let order: Vec<usize> = asks(&[5; 100], 100, &[ONCE; 100])
            .into_iter()
            .map(|(_, client)| client)
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_periodic_client_re_arms_until_the_end() {
        // A probe every 600 s for 40 minutes: the ask due at 2 400 s
        // is at the end and never runs.
        let at: Vec<u64> = asks(&[0], 2_400_000, &[&[600_000; 10]])
            .into_iter()
            .map(|(ms, _)| ms)
            .collect();
        assert_eq!(at, [0, 600_000, 1_200_000, 1_800_000]);
    }

    #[test]
    fn a_re_arm_onto_an_occupied_instant_runs_after_the_asks_due_there() {
        // Clients 1 and 2 start at 20 ms; client 0 re-arms onto it from
        // 10 ms, then client 3 from 15 ms.
        assert_eq!(
            asks(&[10, 20, 20, 15], 100, &[&[10], &[], &[], &[5]]),
            [(10, 0), (15, 3), (20, 1), (20, 2), (20, 0), (20, 3)]
        );
    }

    #[test]
    fn nothing_runs_at_or_after_the_end() {
        // Starts at and past the end never run, nor does a re-arm onto
        // it; a re-arm one millisecond short of it does, after the
        // start already due there.
        assert_eq!(
            asks(&[50, 100, 99, 200], 100, &[&[49, 1], &[], &[1], &[]]),
            [(50, 0), (99, 2), (99, 0)]
        );
        assert!(asks(&[0, 10], 0, &[&[1], &[1]]).is_empty());
    }

    #[test]
    fn drain_is_the_stable_sort_of_time_then_schedule_order() {
        // Adversarial times — dense ties, scattered far futures, and
        // `u64::MAX`-adjacent sentinels that park in the wheel's
        // overflow bucket — where every 5th client re-arms once, so
        // later schedules land far past the wheel's advanced base. The
        // asks must be the canonical sort of (time, schedule index),
        // and nothing at `u64::MAX` (the end) runs.
        let n = 3_072;
        let starts: Vec<u64> = (0..n)
            .map(|i| match i % 5 {
                0 => 1_000,
                1 => (i as u64) * 37 % 2_000,
                2 => 1 << 33,
                3 => (i as u64) * 7_919 % 600_000,
                _ => u64::MAX - (i as u64 % 3),
            })
            .collect();
        const REARM: u64 = 1 << 40;
        let gaps: Vec<&[u64]> = (0..n)
            .map(|i| if i % 5 == 0 { &[REARM][..] } else { &[] })
            .collect();
        // Schedule index: the starts in client order, then each re-arm
        // in the order its first ask ran.
        let mut expected: Vec<(u64, usize, usize)> = (0..n)
            .filter(|&i| starts[i] < u64::MAX)
            .map(|i| (starts[i], i, i))
            .collect();
        expected.sort();
        let rearms: Vec<(u64, usize, usize)> = expected
            .iter()
            .filter(|&&(_, _, i)| i % 5 == 0)
            .enumerate()
            .map(|(k, &(ms, _, i))| (ms + REARM, n + k, i))
            .collect();
        expected.extend(rearms);
        expected.sort();
        let expected: Vec<(u64, usize)> = expected.iter().map(|&(ms, _, i)| (ms, i)).collect();
        assert_eq!(asks(&starts, u64::MAX, &gaps), expected);
    }
}
