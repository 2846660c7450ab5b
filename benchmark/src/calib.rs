//! The calibration slice: a fixed, seeded kernel that calls nothing from
//! `crates/`, run next to every timed repetition so a slow minute on a
//! shared host cancels out of the ratio.
//!
//! The kernel mixes what the simulator's hot paths are made of — hash-map
//! probes over a few megabytes of boxed values, ordered-map timer churn,
//! and small heap allocations with formatting — so that what slows a
//! campaign on a shared host slows the kernel about as much. Sizing runs
//! interleaved candidate kernels with each workload: this mix tracked all
//! of them best, while adding random touches over a 32 MB working set or
//! a pure ALU loop tracked them two to three times worse (README,
//! "Calibration"). It is deterministic: the same operation sequence every
//! time, checked by its checksum.

use crate::host::{timed, Elapsed};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Seconds one slice takes on the host the bounds were sized on. A
/// calibrated time is `t / t_calib × CALIB_REF_S`, so it reads in
/// seconds of that host.
pub const CALIB_REF_S: f64 = 0.1;

/// Operations per slice at full scale (≈ `CALIB_REF_S` here).
const FULL_OPS: usize = 160_000;

/// A reusable calibration slice.
pub struct Calibrator {
    threads: usize,
    ops: usize,
    checksum: Option<u64>,
}

impl Calibrator {
    /// A calibrator that runs the kernel on `threads` threads at once
    /// (the workload's worker count). `smoke` shrinks it ~20×.
    pub fn new(threads: usize, smoke: bool) -> Calibrator {
        Calibrator {
            threads: threads.max(1),
            ops: if smoke { FULL_OPS / 20 } else { FULL_OPS },
            checksum: None,
        }
    }

    /// Runs one slice and returns its host time, CPU seconds divided by
    /// the thread count so that both clocks read ≈ [`CALIB_REF_S`].
    ///
    /// # Panics
    /// Panics if the kernel's checksum differs from the first slice's:
    /// the kernel did different work, so the ratio would be meaningless.
    pub fn slice(&mut self) -> Elapsed {
        let ops = self.ops;
        let (sum, mut elapsed) = timed(|| {
            if self.threads == 1 {
                kernel(ops)
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..self.threads)
                        .map(|_| s.spawn(move || kernel(ops)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("calibration kernel does not panic"))
                        .fold(0u64, u64::wrapping_add)
                })
            }
        });
        elapsed.cpu_s /= self.threads as f64;
        let sum = black_box(sum);
        assert_eq!(
            *self.checksum.get_or_insert(sum),
            sum,
            "calibration kernel is deterministic"
        );
        elapsed
    }
}

/// xorshift64*: a fixed-seed generator private to the kernel.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

type FixedState = BuildHasherDefault<DefaultHasher>;

fn kernel(ops: usize) -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    // SipHash, as std maps use, with a fixed key so the probe sequence
    // repeats between processes.
    let mut map: HashMap<u64, Box<[u8; 48]>, FixedState> = HashMap::default();
    let mut timers: BTreeMap<(u64, u32), u32> = BTreeMap::new();
    let mut names: Vec<String> = vec![String::new(); 1024];
    for i in 0..ops {
        let r = next(&mut rng);
        // Hash-map lookups with insert-on-miss and occasional removal.
        let key = r & 0xFFFF;
        match map.get(&key) {
            Some(b) => acc = acc.wrapping_add(b[0] as u64),
            None => {
                map.insert(key, Box::new([r as u8; 48]));
            }
        }
        if r & 0x700 == 0 {
            map.remove(&(key ^ 1));
        }
        // A timer queue: schedule ahead, fire the earliest.
        let now = i as u64;
        timers.insert((now + (r >> 40) % 4096, i as u32), i as u32);
        if timers.len() > 2048 {
            let (k, _) = timers.pop_first().expect("non-empty");
            acc ^= k.0;
        }
        // Small allocations with formatting, as names and rows are built.
        let slot = (r >> 20) as usize & 1023;
        names[slot] = format!("r{}.zipf", r & 0xFFF);
        acc = acc.wrapping_add(names[slot].len() as u64);
    }
    acc
}
