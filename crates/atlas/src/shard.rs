//! The cell engine: the one place a campaign is cut into cells, fanned
//! out over worker threads, and merged back by simulation time.
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
//! Three decisions of that contract (DESIGN.md §10) live here and
//! nowhere else:
//!
//! * [`fan_out`] — the only code that builds a per-cell `Telemetry`
//!   handle (shaped like the handle it is given), ticks the
//!   `--progress` heartbeat, drains the cells' handles
//!   (`Telemetry::take_parts`) and absorbs them into the given one in
//!   cell order. The paper experiments and the Zipf scale campaign
//!   schedule their cells through it.
//! * [`population_campaign`] — the population cell loop: partition the
//!   probes, seed each cell, run [`measure_population`] in it, rebase
//!   and sum.
//! * [`merge_by_time`] — the one k-way merge by `(sim time, part
//!   index)`, a lazy iterator. `Dataset::merge_shards` collects it into
//!   a merged dataset; a `ZipfDataset` keeps its cells' rows as runs
//!   and only `ZipfDataset::digest` streams them through it.
//!
//! The simulator's service handles are `Rc`-backed and therefore not
//! `Send`; cells construct their world *inside* their worker thread and
//! return only plain-data results (datasets, drained telemetry parts,
//! counters) to the coordinating thread, which merges them in fixed
//! cell order.

use crate::dataset::Dataset;
use crate::measurement::{run_measurement, MeasurementSpec};
use crate::population::{Population, PopulationConfig};
use crate::progress::ProgressSink;
use dnsttl_netsim::{shard_seed, Network, SimRng};
use dnsttl_resolver::RootHint;
use dnsttl_telemetry::Telemetry;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock profile of one sharded fan-out: where the parallel time
/// actually went, so a flat w8-over-w1 speedup can be attributed to
/// imbalance, merge cost, or contention instead of guessed at.
///
/// Everything here is wall-clock and therefore **must never enter a
/// deterministic artifact** (DESIGN.md §10). Callers route it to stderr
/// and to the benchmark's `atlas.fanout_*` and `atlas.cell_ms_*` metrics
/// only.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Per-cell busy time: how long `job(cell)` ran, in cell order.
    pub cell_busy: Vec<Duration>,
    /// Total busy time per worker thread, in worker order.
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
/// returns the results in cell order, plus a wall-clock
/// [`ShardProfile`]: per-cell busy time, per-worker busy and idle.
///
/// Workers pull cell indices from a shared counter, so scheduling is
/// dynamic, but results land in per-cell slots: the returned vector is
/// always `[job(0), job(1), …]` regardless of which worker ran what.
/// With one worker the jobs run inline on the calling thread — the
/// sequential reference the differential harness compares multi-worker
/// runs against. Output is unaffected by `workers`: the worker count
/// is not part of the experiment's identity.
///
/// The profile is measurement-only: the clock reads (two per cell) are
/// noise next to a cell's simulation work. Profiles go to stderr and
/// to the benchmark's `atlas.fanout_*` / `atlas.cell_ms_*` metrics,
/// never into deterministic artifacts.
fn run_cells<T, F>(workers: usize, cells: usize, job: F) -> (Vec<T>, ShardProfile)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    // One worker: claim cells until none are left, then report the
    // time spent in jobs and when the last one finished.
    let work = || {
        let mut busy = Duration::ZERO;
        loop {
            let cell = next.fetch_add(1, Ordering::Relaxed);
            if cell >= cells {
                return (busy, Instant::now());
            }
            let start = Instant::now();
            let result = job(cell);
            let elapsed = start.elapsed();
            busy += elapsed;
            *slots[cell].lock().expect("no other use of this slot") = Some((result, elapsed));
        }
    };
    let stats: Vec<(Duration, Instant)> = if workers <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
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
    // Idle is join-wait skew: how long before the slowest worker each
    // one ran out of cells.
    let last_finish = stats.iter().map(|&(_, at)| at).max();
    for (busy, finished_at) in stats {
        profile.worker_busy.push(busy);
        profile
            .worker_idle
            .push(last_finish.map_or(Duration::ZERO, |last| last.duration_since(finished_at)));
    }
    (results, profile)
}

/// Everything about a fan-out that is not the job itself. None of it
/// may change an output byte: the worker count and the heartbeat are
/// throughput and stderr only.
#[derive(Debug, Clone, Copy)]
pub struct FanOut<'a> {
    /// Worker threads requested (`--shards`); [`fan_out`] caps them at
    /// the host's cores.
    pub workers: usize,
    /// Logical cells to run — unlike `workers`, part of the
    /// experiment's identity.
    pub cells: usize,
    /// Label of the stderr heartbeat (`--progress`); `None` is silent.
    pub progress: Option<&'a str>,
}

impl<'a> FanOut<'a> {
    /// A silent fan-out.
    pub fn new(workers: usize, cells: usize) -> FanOut<'a> {
        FanOut {
            workers,
            cells,
            progress: None,
        }
    }

    /// Threads this fan-out runs: the request capped at the machine's
    /// available parallelism — cells are CPU-bound with no blocking
    /// I/O, so threads beyond the core count only add scheduling
    /// overhead (on a one-core host, `--shards 8` used to run *slower*
    /// than the sequential oracle) — and at the cell count.
    pub fn threads(&self) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.workers.min(hw).min(self.cells).max(1)
    }

    /// The heartbeat sink, counting the threads that run rather than
    /// the threads that were asked for.
    fn heartbeat(&self) -> Option<ProgressSink> {
        self.progress
            .map(|label| ProgressSink::new(label, self.threads(), self.cells))
    }
}

/// Runs `plan.cells` independent jobs on `plan.workers` threads (capped
/// at the host's cores), each against a telemetry handle of its own,
/// and returns the results in cell order and the wall-clock profile.
///
/// Each cell's handle is built like `telemetry`: enabled only if it is,
/// its sim-time series the same width and cap, so their buckets nest
/// when they merge. The drained cells are absorbed into `telemetry` in
/// cell order, which makes the merged exports worker-count-invariant.
///
/// A job returns its result plus `(sim-time frontier in ms, events
/// processed)` for the heartbeat, which goes to stderr only: the
/// deterministic artifacts never see the wall clock behind it, nor the
/// [`ShardProfile`].
pub fn fan_out<T, F>(plan: &FanOut<'_>, telemetry: &Telemetry, job: F) -> (Vec<T>, ShardProfile)
where
    T: Send,
    F: Fn(usize, &Telemetry) -> (T, (u64, u64)) + Sync,
{
    let series = telemetry.timeseries_config();
    let progress = plan.heartbeat();
    let (cells, profile) = run_cells(plan.threads(), plan.cells, |cell| {
        let cell_telemetry = match series {
            Some((width_ms, span_cap)) => {
                let enabled = Telemetry::new();
                enabled.configure_timeseries(width_ms, span_cap);
                enabled
            }
            None => Telemetry::disabled(),
        };
        let (out, (frontier_ms, events)) = job(cell, &cell_telemetry);
        if let Some(sink) = &progress {
            sink.cell_finished(frontier_ms, events);
        }
        (out, series.map(|_| cell_telemetry.take_parts()))
    });
    let (outs, parts): (Vec<T>, Vec<_>) = cells.into_iter().unzip();
    telemetry.absorb_shards(parts.into_iter().flatten().collect());
    (outs, profile)
}

/// Streams the rows of per-cell parts in `(at(row), part index)`
/// order, yielding each as `(part index, row)`.
///
/// Each part must be sorted by `at` already (every engine emits rows in
/// fire order; a `debug_assert!` checks every step), so this is a lazy
/// heap-based k-way merge: simultaneous rows of different parts come
/// out in part order and rows of one part keep their order — exactly
/// the stable sort by `at` of the concatenated parts, in O(n log k).
/// Nothing depends on how many parts there are. The parts are any
/// iterators: `Dataset::merge_shards` moves its rows through it,
/// `ZipfDataset::digest` borrows them and hashes as it goes.
pub fn merge_by_time<I, K, F>(parts: impl IntoIterator<Item = I>, at: F) -> MergeByTime<I, K, F>
where
    I: Iterator,
    K: Ord + Copy,
    F: Fn(&I::Item) -> K,
{
    let mut parts: Vec<_> = parts.into_iter().map(Iterator::peekable).collect();
    let heap = parts
        .iter_mut()
        .enumerate()
        .filter_map(|(idx, part)| part.peek().map(|row| Reverse((at(row), idx))))
        .collect();
    MergeByTime { parts, heap, at }
}

/// The iterator [`merge_by_time`] returns: one peeked head per part
/// and a min-heap of the heads' `(key, part index)`.
pub struct MergeByTime<I: Iterator, K, F> {
    parts: Vec<Peekable<I>>,
    heap: BinaryHeap<Reverse<(K, usize)>>,
    at: F,
}

impl<I, K, F> Iterator for MergeByTime<I, K, F>
where
    I: Iterator,
    K: Ord + Copy,
    F: Fn(&I::Item) -> K,
{
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let mut head = self.heap.peek_mut()?;
        let (key, idx) = head.0;
        let part = &mut self.parts[idx];
        let row = part.next().expect("a queued part has a head");
        match part.peek() {
            Some(next) => {
                let next_key = (self.at)(next);
                debug_assert!(next_key >= key, "every part is in time order");
                head.0 .0 = next_key;
            }
            None => {
                PeekMut::pop(head);
            }
        }
        Some((idx, row))
    }

    /// At least the parts' rows, so `collect` sizes a merged vector
    /// once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.parts.iter().map(|part| part.size_hint().0).sum(), None)
    }
}

/// What one population measurement produced: the whole campaign when
/// unsharded, one cell of it, or the merge of all cells.
#[derive(Debug, Default)]
pub struct ShardedOutcome {
    /// The results — of all cells, rebased and re-ordered by simulation
    /// time, once merged.
    pub dataset: Dataset,
    /// Probes measured.
    pub probes: usize,
    /// Resolver caches built.
    pub resolvers: usize,
    /// Vantage points measured.
    pub vps: usize,
    /// Queries the authoritative test address received (cells own
    /// disjoint resolvers, so summing over cells is exact).
    pub auth_queries: u64,
    /// Distinct resolver sources at the test address.
    pub auth_sources: usize,
}

/// Builds one world, populates it with `probes` probes numbered from
/// `probe_id_base`, and runs `spec` against it — the whole campaign
/// when unsharded, one cell of it otherwise. `world` returns the
/// network, its root hints and, when the experiment has one, the
/// authoritative test address to count queries against.
pub fn measure_population(
    world: impl FnOnce() -> (Network, Vec<RootHint>, Option<IpAddr>),
    spec: &MeasurementSpec,
    telemetry: &Telemetry,
    seed: u64,
    probes: usize,
    probe_id_base: u32,
) -> ShardedOutcome {
    let (mut net, roots, test_addr) = world();
    net.set_telemetry(telemetry.clone());
    let mut rng = SimRng::seed_from(seed);
    let mut pop_cfg = PopulationConfig::small(probes);
    pop_cfg.probe_id_base = probe_id_base;
    let mut pop = Population::build(&pop_cfg, &roots, &mut rng);
    pop.set_telemetry(telemetry);
    let dataset = run_measurement(spec, &mut pop, &mut net, &mut rng);
    ShardedOutcome {
        dataset,
        probes: pop.probe_count(),
        resolvers: pop.resolvers.len(),
        vps: pop.vp_count(),
        auth_queries: test_addr.map_or(0, |a| net.queries_received(a)),
        auth_sources: test_addr.map_or(0, |a| net.distinct_sources(a)),
    }
}

/// Runs one population campaign of `probes` probes over `plan.cells`
/// cells: cell `c` gets its share of the [`partition`], the stream
/// `shard_seed(run_seed, c)` and a world of its own from `world`, and
/// the per-cell outcomes are rebased, summed and merged in cell order.
/// The cell count, unlike the worker count, is part of the campaign's
/// identity (different partitions, different per-cell seeds).
///
/// The cells report into `telemetry` through [`fan_out`].
pub fn population_campaign(
    plan: &FanOut<'_>,
    telemetry: &Telemetry,
    run_seed: u64,
    probes: usize,
    spec: &MeasurementSpec,
    world: impl Fn() -> (Network, Vec<RootHint>, Option<IpAddr>) + Sync,
) -> ShardedOutcome {
    let sizes = partition(probes, plan.cells);
    let bases = partition_bases(&sizes);
    let (cells, _) = fan_out(plan, telemetry, |cell, telemetry| {
        let seed = shard_seed(run_seed, cell as u64);
        let out = measure_population(
            &world,
            spec,
            telemetry,
            seed,
            sizes[cell],
            bases[cell] as u32,
        );
        let rows = out.dataset.results();
        let frontier = rows.iter().map(|r| r.at.as_millis()).max();
        let progress = (frontier.unwrap_or(0), rows.len() as u64);
        (out, progress)
    });

    let mut dataset_parts = Vec::with_capacity(cells.len());
    let mut outcome = ShardedOutcome::default();
    for (cell, out) in cells.into_iter().enumerate() {
        dataset_parts.push((out.dataset, bases[cell], outcome.resolvers));
        outcome.probes += out.probes;
        outcome.resolvers += out.resolvers;
        outcome.vps += out.vps;
        outcome.auth_queries += out.auth_queries;
        outcome.auth_sources += out.auth_sources;
    }
    outcome.dataset = Dataset::merge_shards(dataset_parts);
    outcome
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
            let (got, _) = run_cells(workers, LOGICAL_SHARDS, |cell| cell * cell);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn profile_accounts_for_every_cell_and_worker() {
        for workers in [1, 4] {
            let (results, profile) = run_cells(workers, 8, |cell| cell + 1);
            assert_eq!(results, (1..=8).collect::<Vec<_>>());
            assert_eq!(profile.cell_busy.len(), 8);
            assert_eq!(profile.worker_busy.len(), workers);
            assert_eq!(profile.worker_idle.len(), workers);
            assert!(profile.imbalance() >= 1.0);
            let u = profile.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
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

    #[test]
    fn heartbeat_counts_the_threads_that_run_not_the_threads_asked_for() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(FanOut::new(hw * 8, 64).threads(), hw, "capped at the cores");
        assert_eq!(FanOut::new(8, 1).threads(), 1, "capped at the cells");
        assert_eq!(FanOut::new(0, 16).threads(), 1);
        let plan = FanOut {
            progress: Some("test"),
            ..FanOut::new(hw * 8, 64)
        };
        let sink = plan.heartbeat().expect("progress was asked for");
        // 1 000 events in one second, shared by the threads that ran.
        assert_eq!(sink.events_per_worker_s(1_000, 1_000), 1_000.0 / hw as f64);
        assert!(FanOut::new(4, 16).heartbeat().is_none());
    }
}
