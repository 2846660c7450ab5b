//! Differential oracle suite for the hierarchical timing wheel.
//!
//! The wheel replaces `BTreeSet`/`BinaryHeap` structures on paths whose
//! determinism the whole reproduction depends on, so it is proven the
//! same way every other swap in this repo is: drive 20k random
//! insert/pop/advance steps per seed against a retained
//! `BTreeSet<(u64, u64)>` oracle and require identical answers at every
//! step — pop order including same-instant tie-breaks, peeks and
//! lengths. The time distribution is deliberately spiky:
//! zero-delay timers, near-term millisecond churn, far-future times that
//! must cascade down through every level, and `u64::MAX` sentinels that
//! exercise the overflow bucket.
//!
//! A cascade hands the buffer of the bucket it drains to the next
//! bucket that needs one, so the renewal schedules below run for
//! several level-2 rotations (2²⁴ ms, about 4.66 h each): every slot
//! comes round again, and the buffers it then fills were other
//! buckets' before.

use dnsttl_netsim::{SimRng, TimingWheel};
use std::collections::BTreeSet;

const STEPS: usize = 20_000;
const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0xDEC0DE, 42];

/// Draws a fire time from a spiky multi-modal distribution around `now`.
fn draw_time(rng: &mut SimRng, now: u64) -> u64 {
    match rng.below(100) {
        // Zero-delay: fire exactly at the current cursor.
        0..=9 => now,
        // Near-term millisecond churn (level 0/1 territory).
        10..=54 => now.saturating_add(rng.below(4_096)),
        // Mid-range: minutes to hours (level 2/3, cascade fodder).
        55..=84 => now.saturating_add(rng.below(1 << 24)),
        // Far future: beyond the 2^32 ms wheel span (overflow bucket).
        85..=97 => now.saturating_add((1 << 33) + rng.below(1 << 40)),
        // Sentinels at and near the top of the u64 range.
        _ => u64::MAX - rng.below(4),
    }
}

/// One scripted step mirrored onto both structures.
fn step(
    rng: &mut SimRng,
    now: &mut u64,
    wheel: &mut TimingWheel<u64>,
    oracle: &mut BTreeSet<(u64, u64)>,
    next_tie: &mut u64,
) {
    match rng.below(100) {
        // Insert (the common op; ties share a time ~1/8 of the time).
        0..=59 => {
            let t = if rng.below(8) == 0 {
                oracle
                    .iter()
                    .next()
                    .map(|(t, _)| *t)
                    .unwrap_or_else(|| draw_time(rng, *now))
            } else {
                draw_time(rng, *now)
            };
            let tie = *next_tie;
            *next_tie += 1;
            // (t, tie) is unique because ties are unique, so the set
            // oracle and the multiset wheel agree.
            wheel.insert(t, tie);
            assert!(oracle.insert((t, tie)));
        }
        // Pop the minimum once.
        60..=79 => {
            let expect = oracle.pop_first();
            let got = wheel.pop_first();
            assert_eq!(got, expect);
            if let Some((t, _)) = got {
                *now = (*now).max(t);
            }
        }
        // Advance: drain everything due by a deadline, in order.
        _ => {
            *now = now.saturating_add(rng.below(1 << 20));
            loop {
                let due = wheel.peek().is_some_and(|(t, _)| t <= *now);
                let oracle_due = oracle.first().map(|(t, _)| *t).is_some_and(|t| t <= *now);
                assert_eq!(due, oracle_due, "due-now disagreement at t={now}");
                if !due {
                    break;
                }
                assert_eq!(wheel.pop_first(), oracle.pop_first());
            }
        }
    }
}

#[test]
fn wheel_matches_btree_oracle_across_seeds() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from(seed);
        let mut wheel = TimingWheel::new();
        let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut now = 0u64;
        let mut next_tie = 0u64;
        for i in 0..STEPS {
            step(&mut rng, &mut now, &mut wheel, &mut oracle, &mut next_tie);
            assert_eq!(wheel.len(), oracle.len(), "seed {seed:#x} step {i}");
            assert_eq!(
                wheel.peek().map(|(t, k)| (t, *k)),
                oracle.first().copied(),
                "seed {seed:#x} step {i}"
            );
        }
        // Full drain must replay the oracle's order exactly.
        while let Some(expect) = oracle.pop_first() {
            assert_eq!(wheel.pop_first(), Some(expect), "seed {seed:#x} drain");
        }
        assert!(wheel.is_empty());
        assert!(wheel.cascades() > 0, "workload never exercised a cascade");
    }
}

#[test]
fn same_instant_ties_drain_in_tie_order_after_deep_cascade() {
    let mut wheel = TimingWheel::new();
    // Everything lands in one far-future level-3 slot, then cascades.
    let t = 1u64 << 31;
    for tie in (0..512u64).rev() {
        wheel.insert(t, tie);
    }
    wheel.insert(t + 1, 1_000);
    for tie in 0..512u64 {
        assert_eq!(wheel.pop_first(), Some((t, tie)));
    }
    assert_eq!(wheel.pop_first(), Some((t + 1, 1_000)));
}

#[test]
fn max_simtime_entries_survive_full_drain() {
    let mut wheel = TimingWheel::new();
    let mut oracle = BTreeSet::new();
    for tie in 0..64u64 {
        let t = u64::MAX - (tie % 3);
        wheel.insert(t, tie);
        oracle.insert((t, tie));
    }
    wheel.insert(0, 999);
    oracle.insert((0, 999));
    while let Some(expect) = oracle.pop_first() {
        assert_eq!(wheel.pop_first(), Some(expect));
    }
    assert!(wheel.is_empty());
}

/// One level-2 rotation: 256 slots of 2¹⁶ ms.
const LEVEL2_SPAN_MS: u64 = 1 << 24;

/// A renewal schedule, the shape both of the wheel's consumers run:
/// `timers` timers each re-armed when it pops, at a gap drawn from
/// `gap`, until simulated time passes `rotations` level-2 rotations.
/// Every pop and every length is checked against the oracle.
fn renewal_trajectory(seed: u64, timers: u64, rotations: u64, gap: fn(&mut SimRng) -> u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel = TimingWheel::new();
    let mut oracle: BTreeSet<(u64, u64)> = BTreeSet::new();
    for timer in 0..timers {
        let first_gap = gap(&mut rng);
        let t = rng.below(first_gap + 1);
        wheel.insert(t, timer);
        oracle.insert((t, timer));
    }
    let end = rotations * LEVEL2_SPAN_MS;
    let mut pops = 0u64;
    loop {
        let expect = oracle.pop_first().expect("every pop re-arms its timer");
        assert_eq!(wheel.pop_first(), Some(expect), "seed {seed:#x} pop {pops}");
        pops += 1;
        let (t, timer) = expect;
        if t >= end {
            break;
        }
        let next = t + 1 + gap(&mut rng);
        wheel.insert(next, timer);
        oracle.insert((next, timer));
        assert_eq!(wheel.len(), oracle.len(), "seed {seed:#x} pop {pops}");
    }
    assert!(
        wheel.cascades() > rotations,
        "seed {seed:#x}: too few cascades"
    );
    while let Some(expect) = oracle.pop_first() {
        assert_eq!(wheel.pop_first(), Some(expect), "seed {seed:#x} drain");
    }
    assert!(wheel.is_empty());
}

#[test]
fn probe_schedules_agree_with_the_oracle_across_level_two_rotations() {
    // The Zipf sweep's shape: polling gaps up to ten minutes, with a
    // tail of hour-long ones that park in level 2 and cascade down.
    fn gap(rng: &mut SimRng) -> u64 {
        if rng.below(16) == 0 {
            rng.below(3 * 3_600_000)
        } else {
            rng.below(600_000)
        }
    }
    for seed in SEEDS {
        renewal_trajectory(seed, 512, 3, gap);
    }
}

#[test]
fn crowded_buckets_agree_with_the_oracle_across_level_two_rotations() {
    // Few distinct gaps, so buckets fill past the cascade threshold and
    // every rotation drains and refills them.
    fn gap(rng: &mut SimRng) -> u64 {
        [65_536, 262_144, 4_194_304][rng.below(3) as usize]
    }
    for seed in SEEDS {
        renewal_trajectory(seed, 256, 4, gap);
    }
}
