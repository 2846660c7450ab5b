//! Discrete-event queue.
//!
//! A thin, deterministic priority queue: events fire in time order, and
//! events scheduled for the same instant fire in the order they were
//! scheduled (a sequence number breaks ties). Determinism here is what
//! lets two runs of an experiment with the same seed produce identical
//! output.
//!
//! The queue is a [`TimingWheel`] keyed by fire time with the schedule
//! sequence number as the tie key: O(1) schedules, amortized-O(1) pops,
//! drained in exact minimum-`(at_ms, seq)` order by the wheel's
//! full-key bucket scans. The wheel is the workspace's only
//! time-ordered structure (DESIGN.md §16 records the sizing that
//! retired the small-queue binary heap).

use crate::time::SimTime;
use crate::wheel::TimingWheel;
use std::cmp::Ordering;

/// A pending event ordered by its schedule sequence number: the wheel
/// keys by fire time first, so the tie key only needs to encode
/// insertion order (which also spares `E` from needing `Ord`).
struct Scheduled<E> {
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.seq.cmp(&other.seq)
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use dnsttl_netsim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "b");
/// q.schedule(SimTime::from_secs(5), "a");
/// q.schedule(SimTime::from_secs(10), "c");
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    wheel: TimingWheel<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            wheel: TimingWheel::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(at.as_millis(), Scheduled { seq, event });
    }

    /// Removes and returns the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel
            .pop_first()
            .map(|(ms, s)| (SimTime::from_millis(ms), s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // A periodic schedule that re-arms itself, like a probe.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, "tick");
        let mut fired = Vec::new();
        while let Some((at, e)) = q.pop() {
            fired.push(at);
            if fired.len() < 5 {
                q.schedule(at + SimDuration::from_secs(600), e);
            }
        }
        assert_eq!(fired.len(), 5);
        assert_eq!(fired[4], SimTime::from_secs(2_400));
    }

    #[test]
    fn late_schedules_behind_popped_time_still_fire_first() {
        // Popping a far-future event advances the wheel base; a
        // subsequent earlier schedule must still pop before later ones.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(600), "far");
        assert!(q.pop().is_some());
        q.schedule(SimTime::from_secs(900), "later");
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(900), "later")));
    }

    #[test]
    fn drain_is_the_stable_sort_of_time_then_schedule_order() {
        // Adversarial times — dense ties, scattered far futures, and
        // `u64::MAX`-adjacent sentinels that park in the wheel's
        // overflow bucket — with some events popped mid-fill, so later
        // schedules land both ahead of and behind the wheel's advanced
        // base. The drained order must equal the canonical sort of
        // (time, schedule index).
        let n = 3_072;
        let mut expected: Vec<(u64, usize)> = Vec::with_capacity(n);
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, usize)> = Vec::new();
        for i in 0..n {
            let ms = match i % 5 {
                0 => 1_000,
                1 => (i as u64) * 37 % 2_000,
                2 => 1 << 33,
                3 => (i as u64) * 7_919 % 600_000,
                _ => u64::MAX - (i as u64 % 3),
            };
            expected.push((ms, i));
            q.schedule(SimTime::from_millis(ms), i);
            if i == 512 {
                for _ in 0..64 {
                    let (at, e) = q.pop().expect("events pending");
                    popped.push((at.as_millis(), e));
                }
            }
        }
        while let Some((at, e)) = q.pop() {
            popped.push((at.as_millis(), e));
        }
        // Each drain follows canonical order within itself…
        assert!(popped[..64].is_sorted(), "mid-fill drain is sorted");
        assert!(popped[64..].is_sorted(), "final drain is sorted");
        // …and together they are exactly the scheduled events.
        popped.sort();
        expected.sort();
        assert_eq!(popped, expected, "no event lost or duplicated");
    }
}
