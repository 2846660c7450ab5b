//! The sharded execution harness.
//!
//! A sharded run partitions a population into [`LOGICAL_SHARDS`]
//! fixed-size cells. Each cell is a self-contained simulation — its own
//! `Network`, resolver caches, and RNG stream seeded from
//! `shard_seed(run_seed, cell_id)` — so cells can execute in any order
//! on any number of worker threads and still produce identical output.
//! The worker count is purely a throughput knob: it is **not** part of
//! the experiment's identity, which is what the differential harness
//! (`tests/shard_equivalence.rs`) enforces byte-for-byte.
//!
//! The simulator's service handles are `Rc`-backed and therefore not
//! `Send`; [`run_cells`] works around that by constructing each cell's
//! world *inside* its worker thread and returning only plain-data
//! results (datasets, drained telemetry parts, counters) to the
//! coordinating thread, which merges them in fixed cell order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock profile of one sharded fan-out: where the parallel time
/// actually went, so a flat w8-over-w1 speedup can be attributed to
/// imbalance, merge cost, or contention instead of guessed at.
///
/// Everything here is wall-clock and therefore **must never enter a
/// deterministic artifact** (DESIGN.md §10). Callers route it to stderr
/// and to the bench report's timings section only.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Per-cell busy time: how long `job(cell)` ran, in cell order.
    pub cell_busy: Vec<Duration>,
    /// Cells processed by each worker thread, in worker order.
    pub worker_cells: Vec<u64>,
    /// Total busy time per worker thread.
    pub worker_busy: Vec<Duration>,
    /// Idle time per worker: the span between the worker finishing its
    /// last cell and the slowest worker finishing (join-wait skew).
    pub worker_idle: Vec<Duration>,
}

impl ShardProfile {
    /// Max-over-mean cell cost: 1.0 means perfectly uniform cells; the
    /// higher the ratio, the more one straggler cell bounds the whole
    /// fan-out's wall-clock.
    pub fn imbalance(&self) -> f64 {
        if self.cell_busy.is_empty() {
            return 1.0;
        }
        let max = self.cell_busy.iter().max().copied().unwrap_or_default();
        let total: Duration = self.cell_busy.iter().sum();
        let mean = total.as_secs_f64() / self.cell_busy.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        max.as_secs_f64() / mean
    }

    /// Mean worker utilization: busy time over (busy + idle), in
    /// `0.0..=1.0`. 1.0 when idle time was not observable (inline run).
    pub fn utilization(&self) -> f64 {
        let busy: Duration = self.worker_busy.iter().sum();
        let idle: Duration = self.worker_idle.iter().sum();
        let denom = (busy + idle).as_secs_f64();
        if denom <= 0.0 {
            return 1.0;
        }
        busy.as_secs_f64() / denom
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        let busiest = self
            .cell_busy
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| **d)
            .map(|(i, d)| format!("cell {} at {:.1}ms", i, d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "n/a".to_string());
        format!(
            "workers={} cells={} imbalance={:.2} utilization={:.0}% busiest {}",
            self.worker_cells.len(),
            self.cell_busy.len(),
            self.imbalance(),
            self.utilization() * 100.0,
            busiest,
        )
    }
}

/// Default number of logical cells a sharded run is partitioned into.
///
/// Independent of the worker-thread count (`--shards N` picks workers,
/// not cells): results depend only on the cell partition, so a laptop
/// run with one worker and a 16-core run with eight workers replay the
/// exact same cells and merge to the same bytes.
///
/// The count is a *tunable* power of two (`--cells` /
/// `ExpConfig::cells`), but tunable means **identity-changing**:
/// repartitioning moves probes between cells and reseeds their RNG
/// streams, so outputs are only comparable at a fixed cell count. This
/// default is deliberately host-independent — scale campaigns that want
/// to saturate wider machines opt into 64 or 256 cells explicitly.
pub const LOGICAL_SHARDS: usize = 16;

/// Splits `total` items into `cells` contiguous partition sizes.
///
/// The first `total % cells` cells get one extra item, so sizes differ
/// by at most one and the mapping from item to cell is deterministic.
pub fn partition(total: usize, cells: usize) -> Vec<usize> {
    let cells = cells.max(1);
    let base = total / cells;
    let extra = total % cells;
    (0..cells).map(|i| base + usize::from(i < extra)).collect()
}

/// Prefix sums of a partition: the global index where each cell starts.
pub fn partition_bases(sizes: &[usize]) -> Vec<usize> {
    let mut bases = Vec::with_capacity(sizes.len());
    let mut acc = 0;
    for size in sizes {
        bases.push(acc);
        acc += size;
    }
    bases
}

/// Runs `job(cell)` for every cell on `workers` scoped threads and
/// returns the results in cell order.
///
/// Workers pull cell indices from a shared counter, so scheduling is
/// dynamic, but results land in per-cell slots: the returned vector is
/// always `[job(0), job(1), …]` regardless of which worker ran what.
/// With one worker (or one cell) the jobs run inline on the calling
/// thread — the sequential reference the differential harness compares
/// multi-worker runs against.
///
/// The requested worker count is capped at the machine's available
/// parallelism: cells are CPU-bound with no blocking I/O, so threads
/// beyond the core count only add scheduling overhead (on a one-core
/// host, `--shards 8` used to run *slower* than the sequential oracle).
/// Output is unaffected — the worker count is not part of the
/// experiment's identity.
pub fn run_cells<T, F>(workers: usize, cells: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_cells_profiled(workers, cells, job).0
}

/// [`run_cells`] plus a wall-clock [`ShardProfile`]: per-cell busy
/// time, per-worker cells-processed/busy/idle, and the derived
/// imbalance and utilization figures.
///
/// The profile is measurement-only — the results vector is identical to
/// what [`run_cells`] returns, and the clock reads (two per cell) are
/// noise next to a cell's simulation work. Profiles go to stderr and
/// to the benchmark's `atlas.fanout_*` / `atlas.cell_ms_*` metrics,
/// never into deterministic artifacts.
pub fn run_cells_profiled<T, F>(workers: usize, cells: usize, job: F) -> (Vec<T>, ShardProfile)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = workers.min(hw);
    if workers <= 1 || cells <= 1 {
        let mut profile = ShardProfile::default();
        let results: Vec<T> = (0..cells)
            .map(|cell| {
                let start = Instant::now();
                let result = job(cell);
                profile.cell_busy.push(start.elapsed());
                result
            })
            .collect();
        profile.worker_cells = vec![cells as u64];
        profile.worker_busy = vec![profile.cell_busy.iter().sum()];
        profile.worker_idle = vec![Duration::ZERO];
        return (results, profile);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let spawned = workers.min(cells);
    // (cells processed, busy time, finish instant) per worker thread.
    let worker_stats: Vec<Mutex<(u64, Duration, Option<Instant>)>> = (0..spawned)
        .map(|_| Mutex::new((0, Duration::ZERO, None)))
        .collect();
    std::thread::scope(|scope| {
        for stats in &worker_stats {
            scope.spawn(|| {
                let mut processed = 0u64;
                let mut busy = Duration::ZERO;
                loop {
                    let cell = next.fetch_add(1, Ordering::Relaxed);
                    if cell >= cells {
                        break;
                    }
                    let start = Instant::now();
                    let result = job(cell);
                    let elapsed = start.elapsed();
                    processed += 1;
                    busy += elapsed;
                    *slots[cell].lock().expect("no other use of this slot") =
                        Some((result, elapsed));
                }
                *stats.lock().expect("worker stats slot") = (processed, busy, Some(Instant::now()));
            });
        }
    });
    let mut profile = ShardProfile::default();
    let results = slots
        .into_iter()
        .map(|slot| {
            let (result, busy) = slot
                .into_inner()
                .expect("workers joined")
                .expect("every cell index below `cells` was claimed and completed");
            profile.cell_busy.push(busy);
            result
        })
        .collect();
    let stats: Vec<(u64, Duration, Option<Instant>)> = worker_stats
        .into_iter()
        .map(|m| m.into_inner().expect("workers joined"))
        .collect();
    let last_finish = stats.iter().filter_map(|(_, _, at)| *at).max();
    for (processed, busy, finished_at) in stats {
        profile.worker_cells.push(processed);
        profile.worker_busy.push(busy);
        let idle = match (finished_at, last_finish) {
            (Some(at), Some(last)) => last.duration_since(at),
            _ => Duration::ZERO,
        };
        profile.worker_idle.push(idle);
    }
    (results, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_spreads_remainder_over_leading_cells() {
        assert_eq!(partition(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(partition(3, 16).iter().sum::<usize>(), 3);
        assert_eq!(partition(0, 4), vec![0, 0, 0, 0]);
        assert_eq!(partition(5, 1), vec![5]);
        assert_eq!(partition_bases(&[3, 3, 2, 2]), vec![0, 3, 6, 8]);
    }

    #[test]
    fn results_are_in_cell_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..LOGICAL_SHARDS).map(|c| c * c).collect();
        for workers in [1, 2, 4, 8, 32] {
            let got = run_cells(workers, LOGICAL_SHARDS, |cell| cell * cell);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn profile_accounts_for_every_cell_and_worker() {
        for workers in [1, 4] {
            let (results, profile) = run_cells_profiled(workers, 8, |cell| cell + 1);
            assert_eq!(results, (1..=8).collect::<Vec<_>>());
            assert_eq!(profile.cell_busy.len(), 8);
            assert_eq!(profile.worker_cells.iter().sum::<u64>(), 8);
            assert_eq!(profile.worker_cells.len(), profile.worker_busy.len());
            assert_eq!(profile.worker_cells.len(), profile.worker_idle.len());
            assert!(profile.imbalance() >= 1.0 || profile.imbalance() == 1.0);
            let u = profile.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
            assert!(!profile.summary().is_empty());
        }
    }

    #[test]
    fn cells_run_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        run_cells(4, 8, |cell| counts[cell].fetch_add(1, Ordering::SeqCst));
        for (cell, count) in counts.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "cell {cell}");
        }
    }
}
