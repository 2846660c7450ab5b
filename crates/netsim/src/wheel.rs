//! Deterministic hierarchical timing wheel.
//!
//! Two hot paths in this workspace are time-keyed — the client driver
//! ([`crate::drive`]), which every client population runs through, and
//! the Zipf campaign's probe fire schedule — and both were paying
//! O(log n) comparator costs on `BTreeSet`/`BinaryHeap`. This module replaces those ordered
//! collections with a hashed hierarchical timing wheel in the style of
//! Varghese & Lauck: timers are bucketed into power-of-two slot arrays
//! whose granularity coarsens by level, so an insert is O(1) bucket
//! placement and a pop is an amortized O(1) cascade. Both consumers
//! only schedule and pop the earliest timer; nothing cancels one.
//!
//! # Layout
//!
//! Four levels of 256 slots each cover `SimTime` milliseconds:
//!
//! | level | slot width | level span |
//! |-------|------------|------------|
//! | 0     | 1 ms       | 256 ms     |
//! | 1     | 256 ms     | ~65.5 s    |
//! | 2     | ~65.5 s    | ~4.66 h    |
//! | 3     | ~4.66 h    | ~49.7 days |
//!
//! Timers beyond the combined 2³² ms span — including `u64::MAX`
//! sentinels — park in an overflow bucket and are re-distributed when the
//! wheel's base advances far enough, so the full `u64` range is legal.
//!
//! # Determinism
//!
//! The wheel is *not* allowed to change anything observable: the
//! campaign oracle and `tests/wheel_oracle.rs` diff against retained
//! `BinaryHeap`/`BTreeSet` implementations. Slot vectors are
//! deliberately unsorted (pushes are O(1)); every peek/pop selects the
//! minimum `(time, tie)` entry of the earliest occupied bucket by a
//! full lexicographic scan, which reproduces the exact `(at_ms, seq)` /
//! `(fire_time_ms, probe_idx)` drain order of the ordered structures it
//! replaces.
//! Bucket ranges are disjoint and monotone across levels (lower level ⇒
//! earlier window), so "earliest occupied bucket" is well-defined, and
//! entries whose time is already behind the wheel's base clamp into the
//! front bucket while keeping their true key for comparisons.

use std::fmt;
use std::mem;

/// Log₂ of the number of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level (power of two so placement is shift-and-mask).
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of cascading levels.
const LEVELS: usize = 4;
/// Bits of millisecond range the in-level slots cover (beyond: overflow).
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// u64 words per occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// Coarse buckets at or below this size are popped in place instead of
/// cascaded. Draining a k-entry bucket by repeated min-scans costs
/// ~k²/2 comparisons while a cascade moves every entry once but pays a
/// re-bin (placement + push + occupancy update) per entry plus the base
/// advance — the crossover sits around a dozen entries. Below it,
/// scanning wins *and* the wheel skips the cascade's bucket traffic
/// entirely, which matters because sparse simulation schedules
/// otherwise cascade once per pop just to move one or two timers.
const CASCADE_THRESHOLD: usize = 16;

/// One wheel level: an occupancy bitmap plus unsorted slot buckets.
struct Level<T> {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Pending entries, `(true_fire_ms, tie)`, unsorted within a slot.
    slots: Box<[Vec<(u64, T)>]>,
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            occupied: [0; WORDS],
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// Index of the earliest occupied slot, if any.
    fn first_slot(&self) -> Option<usize> {
        self.occupied
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    fn set(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn unset(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }
}

/// Where an entry with a given fire time lives relative to the base.
enum Placement {
    /// `(level, slot)` within the wheel.
    Slot(usize, usize),
    /// Beyond the wheel span: overflow bucket.
    Overflow,
}

/// A deterministic hierarchical timing wheel over millisecond timestamps.
///
/// Entries are `(fire_at_ms, tie)` pairs; `tie: Ord` breaks same-instant
/// ties, and pops drain in exact `(fire_at_ms, tie)` lexicographic order
/// — bit-identical to a `BTreeSet<(u64, T)>`, which is how the oracle
/// suite in `tests/wheel_oracle.rs` verifies it.
///
/// ```
/// use dnsttl_netsim::TimingWheel;
/// let mut w = TimingWheel::new();
/// w.insert(10_000, "b");
/// w.insert(5_000, "a");
/// w.insert(10_000, "c");
/// assert_eq!(w.pop_first(), Some((5_000, "a")));
/// assert_eq!(w.pop_first(), Some((10_000, "b")));
/// assert_eq!(w.pop_first(), Some((10_000, "c")));
/// assert_eq!(w.pop_first(), None);
/// ```
pub struct TimingWheel<T> {
    /// Slot levels, allocated on the first in-span insert. A fresh
    /// wheel is a handful of machine words, so a wheel that never sees
    /// a timer — a queue built per cell "just in case" — costs nothing
    /// to construct: the ~25 KiB of slot headers is only paid by wheels
    /// that actually hold entries.
    levels: Option<Box<[Level<T>; LEVELS]>>,
    /// Entries further than the wheel span from `base`.
    overflow: Vec<(u64, T)>,
    /// Wheel anchor: no stored entry's *effective* time precedes it.
    /// Advances only during cascades, never backwards.
    base: u64,
    /// Total entries across levels and overflow.
    len: usize,
    /// Slots re-binned by cascades since construction (telemetry).
    cascades: u64,
    /// Empty buffers of buckets that cascades drained. A bucket with no
    /// buffer takes one from here before it allocates, so the buffers
    /// in use follow the occupied buckets, not every slot the wheel's
    /// base has ever passed. Their capacities add up to
    /// `spare_capacity`, which never exceeds `len`: a buffer that would
    /// take the spares past the live entry count is freed instead, and
    /// a pop that leaves them above it frees spares until they fit.
    spare: Vec<Vec<(u64, T)>>,
    /// Total capacity of the `spare` buffers, in entries.
    spare_capacity: usize,
}

impl<T: Ord> TimingWheel<T> {
    /// An empty wheel anchored at t = 0.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            levels: None,
            overflow: Vec::new(),
            base: 0,
            len: 0,
            cascades: 0,
            spare: Vec::new(),
            spare_capacity: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slot re-distributions performed so far.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Bucket placement for an effective time (`when >= self.base`).
    fn placement(&self, when: u64) -> Placement {
        let masked = (self.base ^ when) | (SLOTS as u64 - 1);
        let significant = 63 - masked.leading_zeros();
        if significant >= WHEEL_BITS {
            return Placement::Overflow;
        }
        let level = (significant / SLOT_BITS) as usize;
        let slot = (when >> (level as u32 * SLOT_BITS)) as usize & (SLOTS - 1);
        Placement::Slot(level, slot)
    }

    /// Schedules `tie` to fire at `at_ms`. O(1).
    ///
    /// Times already behind the wheel base (possible after a pop
    /// advanced it) clamp into the front bucket but keep their true
    /// `at_ms` for ordering, so they still drain first.
    pub fn insert(&mut self, at_ms: u64, tie: T) {
        let when = at_ms.max(self.base);
        match self.placement(when) {
            Placement::Slot(level, slot) => {
                let levels = self.levels.get_or_insert_with(new_levels);
                let bucket = &mut levels[level].slots[slot];
                if bucket.capacity() == 0 {
                    if let Some(buffer) = self.spare.pop() {
                        self.spare_capacity -= buffer.capacity();
                        *bucket = buffer;
                    }
                }
                bucket.push((at_ms, tie));
                levels[level].set(slot);
            }
            Placement::Overflow => self.overflow.push((at_ms, tie)),
        }
        self.len += 1;
    }

    /// The earliest entry without cascading. O(front bucket size),
    /// correct regardless of wheel state. Nothing on a hot path peeks:
    /// both consumers pop, and the differential suites read this to
    /// compare the wheel with its reference at every step.
    pub fn peek(&self) -> Option<(u64, &T)> {
        if let Some(levels) = self.levels.as_deref() {
            for level in levels.iter() {
                if let Some(slot) = level.first_slot() {
                    return bucket_min(&level.slots[slot]);
                }
            }
        }
        bucket_min(&self.overflow)
    }

    /// Removes and returns the earliest entry. Amortized O(1).
    pub fn pop_first(&mut self) -> Option<(u64, T)> {
        self.cascade();
        let entry = self.pop_front_bucket_min()?;
        self.len -= 1;
        while self.spare_capacity > self.len {
            let freed = self.spare.pop().expect("spare capacity implies a spare");
            self.spare_capacity -= freed.capacity();
        }
        Some(entry)
    }

    /// Keeps an emptied buffer for the next bucket that needs one, if
    /// the spares stay within the live entry count; frees it otherwise.
    fn keep_spare(&mut self, buffer: Vec<(u64, T)>) {
        if self.spare_capacity + buffer.capacity() <= self.len {
            self.spare_capacity += buffer.capacity();
            self.spare.push(buffer);
        }
    }

    /// Removes the minimum entry of the earliest occupied bucket
    /// (callers fix `len`): one scan of that bucket.
    fn pop_front_bucket_min(&mut self) -> Option<(u64, T)> {
        for level in self.levels.as_deref_mut().into_iter().flatten() {
            let Some(slot) = level.first_slot() else {
                continue;
            };
            let bucket = &mut level.slots[slot];
            let entry = bucket.swap_remove(bucket_min_pos(bucket)?);
            if bucket.is_empty() {
                level.unset(slot);
            }
            return Some(entry);
        }
        let pos = bucket_min_pos(&self.overflow)?;
        Some(self.overflow.swap_remove(pos))
    }

    /// Re-bins the front of the wheel until the earliest occupied
    /// bucket is cheap to scan: level 0, or any coarse bucket holding
    /// at most [`CASCADE_THRESHOLD`] entries (popped in place).
    ///
    /// Each re-binned entry lands at a strictly lower level, so the
    /// total cascade work is amortized O(1) per entry over its lifetime.
    /// The base only ever moves to the nominal start of the *first*
    /// occupied bucket, which keeps `placement` consistent for every
    /// entry that stays put (their differing-bit level is unchanged),
    /// and never moves while level 0 is occupied — so clamped
    /// behind-base entries keep their front-slot placement too.
    fn cascade(&mut self) {
        loop {
            if self.len == 0 {
                return;
            }
            let front = self.levels.as_deref().and_then(|levels| {
                levels
                    .iter()
                    .enumerate()
                    .find_map(|(l, lev)| lev.first_slot().map(|s| (l, s)))
            });
            if let Some((level, slot)) = front {
                let levels = self.levels.as_deref_mut().expect("front came from levels");
                if level == 0 || levels[level].slots[slot].len() <= CASCADE_THRESHOLD {
                    return;
                }
                let shift = level as u32 * SLOT_BITS;
                let span_mask = (1u64 << (shift + SLOT_BITS)) - 1;
                let slot_start = (self.base & !span_mask) | ((slot as u64) << shift);
                debug_assert!(slot_start >= self.base);
                self.base = slot_start;
                // Every entry lands at a lower level, never back in
                // this slot, so the bucket's own buffer is the drain
                // buffer; emptied, it goes to the spare list for the
                // next bucket that needs one, if the list has room.
                let mut bucket = mem::take(&mut levels[level].slots[slot]);
                levels[level].unset(slot);
                self.len -= bucket.len();
                self.cascades += 1;
                for (t, tie) in bucket.drain(..) {
                    self.insert(t, tie);
                }
                self.keep_spare(bucket);
            } else {
                // Only the overflow bucket is occupied: re-anchor at its
                // earliest time and re-distribute. Entries still beyond
                // the span go straight back to overflow, so each entry
                // is re-scanned at most once per ~49-day base advance.
                let min_t = self
                    .overflow
                    .iter()
                    .map(|(t, _)| *t)
                    .min()
                    .expect("len > 0 with empty levels implies overflow entries");
                self.base = min_t.max(self.base);
                let fresh = self.spare.pop().unwrap_or_default();
                self.spare_capacity -= fresh.capacity();
                let mut pending = mem::replace(&mut self.overflow, fresh);
                self.len -= pending.len();
                self.cascades += 1;
                for (t, tie) in pending.drain(..) {
                    self.insert(t, tie);
                }
                self.keep_spare(pending);
                // The minimum is now inside the wheel levels; loop once
                // more in case its bucket still needs splitting.
            }
        }
    }
}

impl<T: Ord> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("base", &self.base)
            .field("cascades", &self.cascades)
            .finish_non_exhaustive()
    }
}

/// A full set of empty levels ([`TimingWheel::levels`] allocates these
/// lazily).
fn new_levels<T>() -> Box<[Level<T>; LEVELS]> {
    Box::new([Level::new(), Level::new(), Level::new(), Level::new()])
}

/// Minimum entry of an unsorted bucket by full `(time, tie)` order.
fn bucket_min<T: Ord>(bucket: &[(u64, T)]) -> Option<(u64, &T)> {
    bucket.iter().min_by(|a, b| a.cmp(b)).map(|(t, k)| (*t, k))
}

/// Position of the minimum entry of an unsorted bucket (the first of
/// equal minima).
fn bucket_min_pos<T: Ord>(bucket: &[(u64, T)]) -> Option<usize> {
    let mut iter = bucket.iter().enumerate();
    let (mut pos, mut min) = iter.next()?;
    for (i, e) in iter {
        if e < min {
            min = e;
            pos = i;
        }
    }
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_tie_order() {
        let mut w = TimingWheel::new();
        w.insert(50, 2u32);
        w.insert(50, 1);
        w.insert(7, 9);
        w.insert(1_000_000, 0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.pop_first(), Some((7, 9)));
        assert_eq!(w.pop_first(), Some((50, 1)));
        assert_eq!(w.pop_first(), Some((50, 2)));
        assert_eq!(w.pop_first(), Some((1_000_000, 0)));
        assert_eq!(w.pop_first(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_leaves_the_drain_order_alone() {
        let mut w = TimingWheel::new();
        for t in [900_000u64, 3, 70_000, 3] {
            w.insert(t, t as u32);
        }
        assert_eq!(w.peek(), Some((3, &3u32)));
        let mut order = Vec::new();
        while let Some(e) = w.pop_first() {
            order.push(e);
        }
        assert_eq!(
            order,
            [(3, 3), (3, 3), (70_000, 70_000), (900_000, 900_000)]
        );
    }

    #[test]
    fn far_future_and_max_times_round_trip_through_overflow() {
        let mut w = TimingWheel::new();
        w.insert(u64::MAX, 1u8);
        w.insert(u64::MAX - 1, 2);
        w.insert((1 << 40) + 17, 3);
        w.insert(5, 4);
        assert_eq!(w.pop_first(), Some((5, 4)));
        assert_eq!(w.pop_first(), Some(((1 << 40) + 17, 3)));
        assert_eq!(w.pop_first(), Some((u64::MAX - 1, 2)));
        assert_eq!(w.pop_first(), Some((u64::MAX, 1)));
        assert_eq!(w.pop_first(), None);
    }

    #[test]
    fn inserts_behind_the_base_still_drain_first() {
        let mut w = TimingWheel::new();
        w.insert(500_000, 1u32);
        // Popping a far entry advances the base past 500k ms.
        w.insert(400_000, 0);
        assert_eq!(w.pop_first(), Some((400_000, 0)));
        // A "late" insert behind the base clamps but keeps its true key.
        w.insert(10, 7);
        w.insert(10, 6);
        assert_eq!(w.peek(), Some((10, &6u32)));
        assert_eq!(w.pop_first(), Some((10, 6)));
        assert_eq!(w.pop_first(), Some((10, 7)));
        assert_eq!(w.pop_first(), Some((500_000, 1)));
    }

    #[test]
    fn a_drained_bucket_lends_its_buffer_to_the_next() {
        let mut w = TimingWheel::new();
        // 20 timers in one level-1 slot: the first pop cascades it. 20
        // more, far off, keep the live count above the drained buffer's
        // capacity, so the spare list may keep it.
        for tie in 0..20u32 {
            w.insert(1_000, tie);
            w.insert(1 << 40, tie);
        }
        assert_eq!(w.pop_first(), Some((1_000, 0)));
        assert_eq!(w.cascades(), 1);
        assert_eq!(w.spare.len(), 1);
        let lent = w.spare[0].capacity();
        assert!(lent >= 20);
        // A level-2 slot never used before takes that buffer.
        w.insert(10_000_000, 99);
        assert!(w.spare.is_empty());
        let levels = w.levels.as_deref().expect("levels exist");
        let slot = (10_000_000 >> 16) & (SLOTS - 1);
        assert_eq!(levels[2].slots[slot].capacity(), lent);
    }

    #[test]
    fn a_drained_buffer_larger_than_the_live_count_is_freed() {
        let mut w = TimingWheel::new();
        // The 20 timers of one level-1 slot are all there is: once the
        // cascade has re-binned them, the buffer that held them is
        // larger than the 19 left, so no spare keeps it.
        for tie in 0..20u32 {
            w.insert(1_000, tie);
        }
        assert_eq!(w.pop_first(), Some((1_000, 0)));
        assert_eq!(w.cascades(), 1);
        assert!(w.spare.is_empty());
        assert_eq!(w.spare_capacity, 0);
    }

    #[test]
    fn draining_a_crowded_schedule_keeps_the_spares_within_the_live_count() {
        let mut w = TimingWheel::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // 5 000 clients over two days, each re-arming a few hours on,
        // as `drive` runs them; then the schedule drains.
        for tie in 0..5_000u32 {
            w.insert(next() % 200_000_000, tie);
        }
        let (mut pops, mut most_kept) = (0, 0);
        while let Some((at, tie)) = w.pop_first() {
            if pops < 50_000 {
                w.insert(at + next() % 20_000_000, tie);
            }
            pops += 1;
            let kept: usize = w.spare.iter().map(Vec::capacity).sum();
            assert_eq!(kept, w.spare_capacity);
            assert!(
                kept <= w.len(),
                "after {pops} pops the spares hold {kept} entries' room, {} live",
                w.len()
            );
            most_kept = most_kept.max(kept);
        }
        assert!(w.cascades() > 100, "{} cascades", w.cascades());
        assert!(most_kept > 0, "no drained buffer was ever kept");
        assert!(w.spare.is_empty());
    }

    #[test]
    fn zero_delay_timers_fire_in_tie_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.insert(0, i);
        }
        for i in 0..100u32 {
            assert_eq!(w.pop_first(), Some((0, i)));
        }
    }
}
