//! A counting wrapper around the system allocator.
//!
//! Counting is gated by one relaxed flag that is on only during a
//! reference repetition, so timed repetitions pay a single predictable
//! branch per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// All of these are statistics: they publish no other data, so every
// access is `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The benchmark binary's `#[global_allocator]`.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// High-water mark of live bytes, relative to the region's start.
    pub peak_live_bytes: u64,
}

/// Runs `f` with counting on and returns what it allocated. Memory that
/// was live before the region and is freed inside it lowers the live
/// count below zero; the peak is therefore relative to the start.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let counts = AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, counts)
}
