//! Host-side clocks and memory readings.
//!
//! Everything here is *host* time or *host* memory — never simulated
//! time. CPU time comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`,
//! which sums every thread of the process (exited workers included) at
//! nanosecond resolution; `/proc/self/stat`'s `utime+stime` counts the
//! same thing in 10 ms ticks, which is 4 % of one calibration slice.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds this process has consumed on all of its threads.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the 64-bit Linux
    // layout, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on both host clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ns: u64,
}

/// Host time between two [`Stamp`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// Host time since this stamp.
    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: (process_cpu_ns() - self.cpu_ns) as f64 / 1e9,
        }
    }
}

/// Times `f` on both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let start = Stamp::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Hardware threads the host offers this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
