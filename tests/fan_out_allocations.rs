//! What fanning a campaign's cells out over worker threads adds, counted
//! exactly.
//!
//! A cell is a self-contained simulation, so eight workers do the same
//! work as one: the same digest, and the same allocations but for what
//! each extra thread costs to start, what the fan-out costs once and
//! what each cell costs to hand back. Timings cannot say that on a shared host (two threads cost each
//! Zipf cell about a quarter more CPU, on every commit), so the check is
//! on the allocator: every thread's calls and requested bytes, counted
//! process-wide, since the workers are threads the cell engine spawns.
//! The test is the only one in its binary, so nothing else allocates
//! while it counts.

mod common;

use dnsttl::atlas::{
    population_campaign, run_zipf_campaign, FanOut, MeasurementSpec, QueryName, ZipfCampaignConfig,
    ZipfRunOpts, LOGICAL_SHARDS,
};
use dnsttl::telemetry::Telemetry;
use dnsttl::wire::{Name, RecordType, Ttl};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every thread's calls, the bytes they
/// ask for and the bytes they give back while counting is on.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What fanning out over `t` threads asks of the allocator beyond the
/// inline run, read on both campaigns, debug and release alike, with
/// the host's core cap lifted in a throwaway build so every count from
/// two to eight ran (the counts follow the thread count, not the
/// cores):
///
/// | threads | capture calls / bytes | `--nocapture` calls / bytes |
/// |---|---|---|
/// | 2 | 12 / 568 | 8 / 424 |
/// | 3 | 17 / 848 | 11 / 632 |
/// | 4 | 22 / 1 128 | 14 / 840 |
/// | 5 | 29 / 1 664 | 19 / 1 304 |
/// | 6 | 34 / 1 944 | 22 / 1 512 |
/// | 7 | 39 / 2 224 | 25 / 1 720 |
/// | 8 | 44 / 2 504 | 28 / 1 928 |
///
/// A scoped spawn is three calls and 208 bytes (the thread's handle,
/// its result packet, its boxed closure), and two calls and 72 bytes
/// more where the thread inherits the harness's output capture: five
/// and 280 a thread. The per-thread bound adds one call and 40 bytes
/// of headroom for another toolchain's `std`.
const PER_THREAD_ALLOCS: u64 = 6;
const PER_THREAD_BYTES: u64 = 320;

/// What a fan-out costs once, whatever its thread count: the scope's
/// state and its handle vector (two calls, 8 bytes), and from the
/// fifth thread on the profile's `worker_busy` and `worker_idle`
/// outgrowing their first four slots (two reallocations to 128 bytes).
const PER_FAN_OUT_ALLOCS: u64 = 4;
const PER_FAN_OUT_BYTES: u64 = 264;

/// What handing one cell's result back from a worker costs beyond the
/// inline run: measured 0 calls and 0 bytes. A result moves through
/// its slot either way; a cell that allocates on a worker what it does
/// not allocate inline fails here.
const PER_CELL_ALLOCS: u64 = 0;
const PER_CELL_BYTES: u64 = 0;

/// What a run asked of the allocator.
struct Cost {
    allocs: u64,
    bytes: u64,
    /// Requested bytes not given back by the time `f`'s result was
    /// dropped.
    kept: i64,
    digest: u64,
}

/// Runs `f` with counting on, drops its result, and returns its digest
/// and what it cost.
fn cost<T>(f: impl FnOnce() -> T, digest: impl Fn(&T) -> u64) -> Cost {
    for counter in [&ALLOCS, &BYTES, &FREED] {
        counter.store(0, Relaxed);
    }
    ON.store(true, Relaxed);
    let out = f();
    let digest = digest(&out);
    drop(out);
    ON.store(false, Relaxed);
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    Cost {
        allocs,
        bytes,
        kept: bytes as i64 - FREED.load(Relaxed) as i64,
        digest,
    }
}

#[test]
fn eight_workers_allocate_what_one_does_plus_their_threads_and_cells() {
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("www.example").expect("static")),
        RecordType::A,
        2,
    );
    let population = |workers: usize| {
        cost(
            || {
                let world = || {
                    let (net, roots) = common::two_level_network(Ttl::from_secs(300));
                    (net, roots, None)
                };
                let plan = FanOut::new(workers, LOGICAL_SHARDS);
                population_campaign(&plan, &Telemetry::disabled(), 42, 320, &spec, world)
            },
            |out| out.dataset.digest(),
        )
    };
    let zipf_cfg = ZipfCampaignConfig::large(20_000);
    let zipf = |workers: usize| {
        cost(
            || {
                let opts = ZipfRunOpts {
                    workers,
                    ..ZipfRunOpts::default()
                };
                run_zipf_campaign(&zipf_cfg, 42, &opts)
            },
            |out| out.dataset.digest(),
        )
    };
    // Once uncounted, so what the process builds on first use (24
    // bytes it keeps) lands outside the counts.
    population(8);

    for (name, run, cells) in [
        (
            "population",
            &population as &dyn Fn(usize) -> Cost,
            LOGICAL_SHARDS,
        ),
        ("zipf", &zipf, zipf_cfg.cells),
    ] {
        let (one, eight) = (run(1), run(8));
        let threads = FanOut::new(8, cells).threads() as u64;
        let cells = cells as u64;
        assert_eq!(
            eight.digest, one.digest,
            "{name}: worker count moved the rows"
        );
        // Everything a run asks for it gives back: a cell, a worker or
        // a merge that keeps a buffer past the run is a leak.
        assert_eq!(one.kept, 0, "{name}: one worker kept {} bytes", one.kept);
        assert_eq!(
            eight.kept, 0,
            "{name}: eight workers kept {} bytes",
            eight.kept
        );
        let (allocs, bytes) = (
            PER_THREAD_ALLOCS * threads + PER_FAN_OUT_ALLOCS + PER_CELL_ALLOCS * cells,
            PER_THREAD_BYTES * threads + PER_FAN_OUT_BYTES + PER_CELL_BYTES * cells,
        );
        assert!(
            eight.allocs <= one.allocs + allocs && eight.bytes <= one.bytes + bytes,
            "{name}: {threads} threads over {cells} cells asked for {} calls and {} bytes, \
             one worker {} and {}: at most {allocs} calls and {bytes} bytes more",
            eight.allocs,
            eight.bytes,
            one.allocs,
            one.bytes,
        );
    }
}
