//! Every `repro` module's heap, pinned the way the digest table pins
//! its bytes.
//!
//! Each of the twelve modules runs in process at smoke scale (`repro
//! --smoke --seed 42`, one worker, telemetry on as `repro` runs it, no
//! out-dir, so the simulation and its telemetry but no file rendering)
//! under a counting allocator, and its peak live bytes and allocation
//! count must match its row of `tests/data/heap_table.txt`. With one
//! worker the cell engine runs every cell on the calling thread, so
//! both numbers are a function of the program and the seed alone
//! (ROADMAP item 17). The table has one pair of columns per build
//! profile: debug builds encode and decode every exchanged message,
//! which release builds skip. A change that moves a row re-pins it and
//! states the old and new numbers; the failure prints the table to
//! commit.
//!
//! The test is the only one in its binary, so nothing else allocates
//! while it counts.

use dnsttl::experiments::artifacts::{module_of, run_module, ARTIFACTS};
use dnsttl::experiments::ExpConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated less bytes freed since counting started: negative
/// while a module frees what an earlier one left.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` live bytes, raising the peak if it is passed.
fn live(delta: i64) {
    let now = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(now, Relaxed);
}

/// The system allocator, counting every call and the live bytes while
/// counting is on.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            live(layout.size() as i64);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            live(-(layout.size() as i64));
        }
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            live(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The committed table: `module debug_peak debug_allocs release_peak
/// release_allocs`, one row per module in `repro`'s order.
const TABLE: &str = include_str!("data/heap_table.txt");

/// One module's run: its peak live bytes and its allocator calls.
fn measure(module: &str) -> (i64, u64) {
    let cfg = ExpConfig {
        seed: 42,
        ..ExpConfig::quick()
    };
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    drop(run_module(module, &cfg));
    ON.store(false, Relaxed);
    (PEAK.load(Relaxed), ALLOCS.load(Relaxed))
}

#[test]
fn every_module_keeps_its_pinned_heap() {
    let mut modules: Vec<&str> = ARTIFACTS
        .iter()
        .filter_map(|(id, _)| module_of(id))
        .collect();
    modules.dedup();
    assert_eq!(modules.len(), 12, "{modules:?}");
    let debug = cfg!(debug_assertions);
    let mut moved = Vec::new();
    let mut table =
        String::from("# module debug_peak_bytes debug_allocs release_peak_bytes release_allocs\n");
    let pinned: Vec<Vec<&str>> = TABLE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    for module in modules {
        let (peak, allocs) = measure(module);
        let row = pinned.iter().find(|row| row[0] == module);
        let mut cols: Vec<String> = match row {
            Some(row) => row[1..].iter().map(|c| c.to_string()).collect(),
            None => vec!["0".into(); 4],
        };
        let at = if debug { 0 } else { 2 };
        let was = (cols[at].clone(), cols[at + 1].clone());
        cols[at] = peak.to_string();
        cols[at + 1] = allocs.to_string();
        if (cols[at].as_str(), cols[at + 1].as_str()) != (was.0.as_str(), was.1.as_str()) {
            moved.push(format!(
                "{module}: peak {} -> {peak} bytes, {} -> {allocs} allocations",
                was.0, was.1
            ));
        }
        table.push_str(&format!("{module} {}\n", cols.join(" ")));
    }
    assert!(
        moved.is_empty(),
        "{} build: rows moved:\n{}\n\ntable to commit (the other profile's columns as pinned):\n{table}",
        if debug { "debug" } else { "release" },
        moved.join("\n")
    );
}
