//! Live progress for long sharded campaigns.
//!
//! A [`ProgressSink`] is built by [`fan_out`](crate::fan_out) — after
//! the worker cap, so it knows how many threads really run — and
//! shared by reference with the cell closures: each cell reports its
//! sim-time frontier and event count as it completes, and the sink
//! prints a heartbeat line to **stderr** at most once per
//! [`INTERVAL_MS`] (plus once at the end).
//!
//! Heartbeats are wall-clock-driven and therefore nondeterministic —
//! which is fine, because they exist only on stderr and never enter
//! any artifact. Everything deterministic (CSV, JSONL, manifests)
//! stays byte-identical whether progress reporting is on or off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall-clock milliseconds between two heartbeat lines.
const INTERVAL_MS: u64 = 2_000;

/// Shared progress accumulator with rate-limited stderr heartbeats.
#[derive(Debug)]
pub(crate) struct ProgressSink {
    label: String,
    workers: usize,
    cells_total: usize,
    started: Instant,
    cells_done: AtomicU64,
    events: AtomicU64,
    frontier_ms: AtomicU64,
    last_print_ms: AtomicU64,
}

impl ProgressSink {
    /// A sink for a campaign of `cells_total` cells on `workers`
    /// workers, printing at most one line per [`INTERVAL_MS`] of wall
    /// clock.
    pub(crate) fn new(label: &str, workers: usize, cells_total: usize) -> ProgressSink {
        ProgressSink {
            label: label.to_string(),
            workers: workers.max(1),
            cells_total: cells_total.max(1),
            started: Instant::now(),
            cells_done: AtomicU64::new(0),
            events: AtomicU64::new(0),
            frontier_ms: AtomicU64::new(0),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// Throughput per worker thread: `events` over `elapsed_ms` of
    /// wall clock, divided by the threads the sink was built for.
    pub(crate) fn events_per_worker_s(&self, events: u64, elapsed_ms: u64) -> f64 {
        events as f64 / (elapsed_ms.max(1) as f64 / 1000.0) / self.workers as f64
    }

    /// Reports one completed cell: the furthest simulated time the
    /// cell reached and how many events (queries, results) it
    /// processed. Prints a heartbeat when one is due.
    pub(crate) fn cell_finished(&self, frontier_ms: u64, events: u64) {
        let done = self.cells_done.fetch_add(1, Ordering::Relaxed) + 1;
        let total_events = self.events.fetch_add(events, Ordering::Relaxed) + events;
        self.frontier_ms.fetch_max(frontier_ms, Ordering::Relaxed);
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        let finished = done as usize >= self.cells_total;
        if !finished && elapsed_ms.saturating_sub(last) < INTERVAL_MS {
            return;
        }
        // One printer per due interval: whoever wins the CAS prints.
        if self
            .last_print_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let per_worker = self.events_per_worker_s(total_events, elapsed_ms);
        eprintln!(
            "[heartbeat {}] cells {}/{} · sim-frontier {}s · {:.0} events/s/worker ({} workers)",
            self.label,
            done,
            self.cells_total,
            self.frontier_ms.load(Ordering::Relaxed) / 1000,
            per_worker,
            self.workers,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_threads() {
        let sink = std::sync::Arc::new(ProgressSink::new("test", 4, 8));
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let sink = std::sync::Arc::clone(&sink);
                scope.spawn(move || sink.cell_finished(i * 1_000, 10));
            }
        });
        assert_eq!(sink.cells_done.load(Ordering::Relaxed), 8);
        assert_eq!(sink.events.load(Ordering::Relaxed), 80);
        assert_eq!(sink.frontier_ms.load(Ordering::Relaxed), 7_000);
    }
}
