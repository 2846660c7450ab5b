//! Observability for the dnsttl workspace: a metrics registry, a
//! simulation-time trace layer, and run manifests.
//!
//! The simulator is single-threaded and deterministic, so this crate
//! deliberately has **no atomics, no locks, and no dependencies**:
//! metrics are counters, gauges and quantile sketches (the one
//! distribution type) behind a [`Registry`], traces are a
//! bounded ring of [`TraceEvent`]s, and every export (Prometheus text,
//! JSON Lines, manifests) is byte-stable for a given sequence of calls.
//! Wall-clock time never enters any exported artifact.
//!
//! The crate knows no DNS type. What a layer records about its own
//! objects — the cache ledger's records, say, which `dnsttl-resolver`
//! owns — it writes itself, through [`ObjectWriter`].
//!
//! The entry point is [`Telemetry`]: a cheaply cloneable handle
//! (`Rc`-backed) that the simulation threads through the resolver, the
//! authoritative servers, the network, and the measurement platform.
//! A disabled handle ([`Telemetry::disabled`]) owns nothing: no
//! registry, no tracer, no allocation. Every recording call on it
//! returns at once, so instrumented code pays nothing when
//! observability is off, and every export reads as a fresh handle's.
//!
//! Each kind of thing is recorded one way. Unlabelled, per-query
//! series go through a `const` [`MetricKey`] and land in one registry
//! slot as a total *and* its sim-time buckets:
//! [`Telemetry::count_keyed_at`], [`Telemetry::gauge_keyed_at`],
//! [`Telemetry::sketch_keyed_at`] — or, for a per-query distribution
//! that has no sim-time series, as a total alone:
//! [`Telemetry::sketch_keyed`]. Labelled or occasional series go by
//! borrowed name, totals only: [`Telemetry::count`],
//! [`Telemetry::count_with`], [`Telemetry::sketch_with`].
//!
//! ```
//! use dnsttl_telemetry::{EventKind, Telemetry};
//!
//! let tel = Telemetry::new();
//! tel.count("resolver_cache_hits", 1);
//! tel.sketch_with("resolver_answer_ttl_s", &[], 300);
//! let span = tel.span_start(1_000, |_, f| f.push("qname", "example."));
//! tel.span_event(span, 1_012, EventKind::Referral, |f| f.push("zone", "example."));
//! tel.span_end(span, 1_023, |f| f.push("rcode", "NOERROR"));
//!
//! assert!(tel.prometheus_text().contains("resolver_cache_hits 1"));
//! assert_eq!(tel.trace_jsonl().lines().count(), 3);
//! ```

mod block_queue;
mod json;
mod manifest;
mod memo;
mod registry;
mod sketch;
mod timeseries;
mod trace;

pub use json::{flat_get, parse_flat_object, JsonScalar, ObjectWriter, Value};
pub use manifest::RunManifest;
pub use registry::{MetricId, MetricKey, Registry};
pub use sketch::QuantileSketch;
pub use timeseries::{DEFAULT_TS_BUCKET_MS, DEFAULT_TS_SPAN_CAP};
use trace::DEFAULT_TRACE_CAPACITY;
pub use trace::{EventKind, FieldSink, SpanId, TraceEvent, Tracer};

use std::cell::RefCell;
use std::rc::Rc;

struct Inner {
    registry: RefCell<Registry>,
    tracer: RefCell<Tracer>,
}

/// The plain-data halves of a [`Telemetry`] handle: what a shard
/// worker hands back to the coordinating thread for a deterministic
/// merge. Both parts are `Send` (the `Rc`-backed handle itself is
/// not).
#[derive(Debug)]
pub struct TelemetryParts {
    pub registry: Registry,
    pub tracer: Tracer,
}

/// The cloneable observability handle threaded through the simulator.
///
/// Clones share one registry and one tracer. All recording methods are
/// `&self` (interior mutability), so a handle can be stored alongside
/// the `Rc<RefCell<…>>` service handles the simulator already uses.
/// The default is the disabled handle, which owns nothing.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
}

impl Telemetry {
    /// An enabled handle with the default trace capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring holds `capacity` events.
    pub(crate) fn with_trace_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Rc::new(Inner {
                registry: RefCell::new(Registry::new()),
                tracer: RefCell::new(Tracer::with_capacity(capacity)),
            })),
        }
    }

    /// A disabled handle: it owns nothing and allocates nothing, every
    /// recording call returns immediately, and every export reads as a
    /// fresh [`Telemetry::new`]'s. This is the default for
    /// instrumented components.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the registry and the tracer; a disabled handle shows
    /// a fresh pair, so its exports are a new handle's, byte for byte.
    fn read<T>(&self, f: impl FnOnce(&Registry, &Tracer) -> T) -> T {
        match &self.inner {
            Some(inner) => f(&inner.registry.borrow(), &inner.tracer.borrow()),
            None => Telemetry::new().read(f),
        }
    }

    // ── metrics ─────────────────────────────────────────────────────

    /// Adds `delta` to the unlabelled counter `name`.
    ///
    /// The by-name recorders take the registry's borrowed path: no
    /// `MetricId` (and hence no `String`) is built once a series
    /// exists, so per-event cost is a memo probe and a name compare.
    pub fn count(&self, name: &str, delta: u64) {
        self.count_with(name, &[], delta);
    }

    /// Adds `delta` to the counter `name` with `labels`.
    pub fn count_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.borrow_mut().counter_add(name, labels, delta);
        }
    }

    /// Records `value` into the quantile sketch `name` with `labels`.
    pub fn sketch_with(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .sketch_observe(name, labels, value);
        }
    }

    // ── sim-time series ─────────────────────────────────────────────

    /// Sets the initial bucket width and span cap of the sim-time
    /// series. Call before recording: existing series keep the width
    /// they started with. Every handle feeding one shard merge must use
    /// the same width so bucket boundaries nest.
    pub fn configure_timeseries(&self, width_ms: u64, span_cap: usize) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .configure_timeseries(width_ms, span_cap);
        }
    }

    /// The initial bucket width and span cap new sim-time series start
    /// at, as [`Telemetry::configure_timeseries`] last set them; `None`
    /// for a disabled handle. Plain data, so a fan-out can read it on
    /// its own thread and build every cell's handle the same shape.
    pub fn timeseries_config(&self) -> Option<(u64, usize)> {
        let inner = self.inner.as_ref()?;
        Some(inner.registry.borrow().timeseries_config())
    }

    /// Adds `delta` to the unlabelled counter behind a
    /// [`MetricKey`] — hot sites keep the key in a `const` — and to
    /// the counter's sim-time series in the bucket holding `t_ms`.
    /// Both live in one registry slot, so they are conserved by
    /// construction: the sum of a counter's bucket deltas always
    /// equals its total (the `repro doctor` invariant).
    pub fn count_keyed_at(&self, key: &MetricKey, delta: u64, t_ms: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .counter_add_at(key.name(), delta, t_ms);
        }
    }

    /// Sets the unlabelled gauge behind a [`MetricKey`] and
    /// samples it into its sim-time series bucket at `t_ms`.
    pub fn gauge_keyed_at(&self, key: &MetricKey, value: f64, t_ms: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .gauge_set_at(key.name(), value, t_ms);
        }
    }

    /// Records `value` into the unlabelled quantile sketch behind a
    /// [`MetricKey`] and into the per-bucket sketch for the
    /// bucket holding `t_ms`.
    pub fn sketch_keyed_at(&self, key: &MetricKey, value: u64, t_ms: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .sketch_observe_at(key.name(), value, t_ms);
        }
    }

    /// Records `value` into the unlabelled quantile sketch behind a
    /// [`MetricKey`], registry only: for a distribution
    /// observed per answer that has no sim-time series.
    pub fn sketch_keyed(&self, key: &MetricKey, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .borrow_mut()
                .sketch_observe(key.name(), &[], value);
        }
    }

    /// The sim-time series as dense JSON Lines (the
    /// `<module>_timeseries.jsonl` artifact).
    pub fn timeseries_jsonl(&self) -> String {
        self.read(|registry, _| registry.to_timeseries_jsonl())
    }

    /// Reads a counter's current value (zero when untouched/disabled).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.read(|registry, _| registry.counter(&MetricId::new(name, labels)))
    }

    // ── tracing ─────────────────────────────────────────────────────

    /// Opens a span at simulation time `t_ms`. The closure receives the
    /// fresh [`SpanId`] and a [`FieldSink`] for the start event's
    /// fields; it only runs when recording is enabled. Disabled handles
    /// return a dummy id that later calls ignore.
    pub fn span_start(&self, t_ms: u64, fields: impl FnOnce(SpanId, &mut FieldSink)) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(u64::MAX);
        };
        let mut tracer = inner.tracer.borrow_mut();
        let span = tracer.new_span();
        tracer.record(t_ms, EventKind::SpanStart, Some(span), |sink| {
            fields(span, sink)
        });
        span
    }

    /// Opens a span caused by `parent` — the out-of-bailiwick NS
    /// address lookup a client query triggers. The start event carries
    /// the parent id, which makes the flat trace a walkable causal tree
    /// (`sdig --explain`, `repro flame`).
    pub fn child_span_start(
        &self,
        parent: SpanId,
        t_ms: u64,
        fields: impl FnOnce(SpanId, &mut FieldSink),
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(u64::MAX);
        };
        let mut tracer = inner.tracer.borrow_mut();
        let span = tracer.new_span();
        // A parent recorded by a disabled handle (the dummy id) must
        // not leak into the trace as a dangling reference.
        let parent = (parent != SpanId(u64::MAX)).then_some(parent);
        tracer.record_caused(t_ms, EventKind::SpanStart, Some(span), parent, |sink| {
            fields(span, sink)
        });
        span
    }

    /// Closes `span` at simulation time `t_ms`.
    pub fn span_end(&self, span: SpanId, t_ms: u64, fields: impl FnOnce(&mut FieldSink)) {
        self.span_event(span, t_ms, EventKind::SpanEnd, fields);
    }

    /// Records an event inside `span`. The fields closure only runs
    /// when recording is enabled, so call sites pay nothing otherwise.
    pub fn span_event(
        &self,
        span: SpanId,
        t_ms: u64,
        kind: EventKind,
        fields: impl FnOnce(&mut FieldSink),
    ) {
        if let Some(inner) = &self.inner {
            inner
                .tracer
                .borrow_mut()
                .record(t_ms, kind, Some(span), fields);
        }
    }

    /// Records a span-less event at simulation time `t_ms`.
    pub fn event(&self, t_ms: u64, kind: EventKind, fields: impl FnOnce(&mut FieldSink)) {
        if let Some(inner) = &self.inner {
            inner.tracer.borrow_mut().record(t_ms, kind, None, fields);
        }
    }

    /// Counts one `kind` event in the per-kind totals (the manifest's
    /// `event_counts`) without tracing it: no sequence number, no ring
    /// slot, no fields. For what is counted but never read row by row —
    /// the cache's transactions, whose rows the ledger keeps.
    #[inline]
    pub fn count_event(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.tracer.borrow_mut().count(kind);
        }
    }

    // ── sharded runs ────────────────────────────────────────────────

    /// Drains this handle's registry and tracer, leaving both empty
    /// (the registry keeps its sim-time series configuration, the
    /// tracer its ring capacity). A disabled handle hands back a fresh
    /// handle's empty parts.
    ///
    /// Used by shard worker threads: a shard records into its own
    /// `Telemetry`, then hands the plain-data [`TelemetryParts`] (all
    /// `Send`, the handle itself is not) back to the coordinating
    /// thread for a deterministic merge via
    /// [`Telemetry::absorb_shards`].
    pub fn take_parts(&self) -> TelemetryParts {
        let Some(inner) = &self.inner else {
            return Telemetry::new().take_parts();
        };
        let fresh_tracer = Tracer::with_capacity(inner.tracer.borrow().capacity());
        TelemetryParts {
            registry: inner.registry.borrow_mut().take(),
            tracer: inner.tracer.replace(fresh_tracer),
        }
    }

    /// Merges per-shard registries (their sim-time series with them)
    /// and tracers into this handle; a disabled handle drops them.
    ///
    /// `parts` must be in logical-shard order (shard 0 first) — the
    /// order is part of the determinism contract: registries merge
    /// sequentially (counters and sketches sum; a later shard's
    /// gauges win) and trace events interleave by
    /// `(t_ms, shard index, seq)`, so the merged exports are identical
    /// for any worker-thread count. The sim-time series fold is
    /// associative and commutative (see the `timeseries` module), so
    /// it is order-insensitive by construction.
    pub fn absorb_shards(&self, parts: Vec<TelemetryParts>) {
        let Some(inner) = &self.inner else { return };
        let mut tracers = Vec::with_capacity(parts.len());
        {
            let mut registry = inner.registry.borrow_mut();
            for shard in parts {
                registry.merge(&shard.registry);
                tracers.push(shard.tracer);
            }
        }
        inner.tracer.borrow_mut().absorb(tracers);
    }

    // ── exports ─────────────────────────────────────────────────────

    /// All metrics in the Prometheus text exposition format, plus the
    /// trace ring's drop accounting (total and per evicted kind) so
    /// silent trace loss is visible to scrapers and to `repro doctor`.
    /// Rendered from the tracer on the fly — never written back into
    /// the registry — so repeated exports cannot double-count.
    pub fn prometheus_text(&self) -> String {
        self.read(|registry, tracer| {
            let mut out = registry.to_prometheus_text();
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "# HELP trace_dropped_total Trace events evicted from the bounded ring"
            );
            let _ = writeln!(out, "# TYPE trace_dropped_total counter");
            let _ = writeln!(out, "trace_dropped_total {}", tracer.dropped());
            let mut emitted_family = false;
            for (kind, n) in tracer.dropped_counts() {
                if !emitted_family {
                    let _ = writeln!(
                        out,
                        "# HELP trace_dropped_events Trace events evicted from the bounded ring, by kind"
                    );
                    let _ = writeln!(out, "# TYPE trace_dropped_events counter");
                    emitted_family = true;
                }
                let _ = writeln!(out, "trace_dropped_events{{kind=\"{kind}\"}} {n}");
            }
            out
        })
    }

    /// An ASCII dashboard of all metrics.
    pub fn dashboard(&self) -> String {
        self.read(|registry, _| registry.to_dashboard())
    }

    /// The buffered trace as JSON Lines.
    pub fn trace_jsonl(&self) -> String {
        self.read(|_, tracer| tracer.to_jsonl())
    }

    /// Runs `f` with read access to the tracer.
    pub fn with_tracer<T>(&self, f: impl FnOnce(&Tracer) -> T) -> T {
        self.read(|_, tracer| f(tracer))
    }

    /// Total events traced (including ones the ring later dropped);
    /// events only [`Telemetry::count_event`]ed are not among them.
    pub fn events_recorded(&self) -> u64 {
        self.read(|_, tracer| tracer.total_recorded())
    }

    /// Copies trace statistics (per-kind totals, drop counts) into a
    /// manifest.
    pub fn fill_manifest(&self, manifest: &mut RunManifest) {
        self.read(|_, tracer| {
            manifest.event_counts = tracer
                .kind_counts()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            manifest.trace_dropped = tracer.dropped();
            manifest.trace_dropped_by_kind = tracer
                .dropped_counts()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        })
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("events", &self.events_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::series_total;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        a.count("q", 1);
        b.count("q", 2);
        assert_eq!(a.counter_value("q", &[]), 3);
    }

    #[test]
    fn disabled_records_nothing_and_skips_field_closures() {
        let t = Telemetry::disabled();
        t.count("q", 1);
        let span = t.span_start(0, |_, _| panic!("must not run when disabled"));
        t.span_event(span, 1, EventKind::Referral, |_| {
            panic!("must not run when disabled")
        });
        assert_eq!(t.counter_value("q", &[]), 0);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.trace_jsonl().is_empty());
    }

    #[test]
    fn manifest_gets_event_counts() {
        let t = Telemetry::new();
        t.event(5, EventKind::CacheExpiry, |_| {});
        t.event(9, EventKind::CacheExpiry, |_| {});
        let mut m = RunManifest::new("test", 7);
        t.fill_manifest(&mut m);
        assert_eq!(m.event_counts, vec![("cache_expiry".to_string(), 2)]);
    }

    #[test]
    fn shard_parts_round_trip_through_take_and_absorb() {
        let shard_work = |shard: u64| {
            let t = Telemetry::new();
            t.count("q", shard + 1);
            t.sketch_with("lat_ms", &[], shard * 10);
            let span = t.span_start(shard, |_, _| {});
            t.span_end(span, shard + 5, |_| {});
            t.take_parts()
        };
        let merged = Telemetry::new();
        merged.count("q", 100); // pre-existing sequential activity
        merged.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        assert_eq!(merged.counter_value("q", &[]), 100 + 1 + 2 + 3);
        assert_eq!(merged.events_recorded(), 6);
        // The merged trace is byte-stable regardless of how shards ran.
        let again = Telemetry::new();
        again.count("q", 100);
        again.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        assert_eq!(merged.trace_jsonl(), again.trace_jsonl());
        assert_eq!(merged.prometheus_text(), again.prometheus_text());
    }

    #[test]
    fn absorb_shards_is_cell_count_agnostic() {
        // Regression for the tunable-cell-count audit: nothing in the
        // merge may assume the classic 16-cell layout. 64 parts —
        // including empty ones from cells that held no probes — must
        // fold exactly like any other count.
        const Q: MetricKey = MetricKey::new("q");
        let shard_work = |shard: u64| {
            let t = Telemetry::new();
            t.configure_timeseries(1_000, 256);
            if !shard.is_multiple_of(3) {
                t.count_keyed_at(&Q, shard, shard * 500);
            }
            t.take_parts()
        };
        let merged = Telemetry::new();
        merged.configure_timeseries(1_000, 256);
        merged.absorb_shards((0..64).map(shard_work).collect());
        let expected: u64 = (0..64u64).filter(|s| s % 3 != 0).sum();
        assert_eq!(merged.counter_value("q", &[]), expected);
        assert_eq!(series_total(&merged.timeseries_jsonl(), "q"), expected);
        // Byte-identical on a second identical merge.
        let again = Telemetry::new();
        again.configure_timeseries(1_000, 256);
        again.absorb_shards((0..64).map(shard_work).collect());
        assert_eq!(merged.timeseries_jsonl(), again.timeseries_jsonl());
        assert_eq!(merged.prometheus_text(), again.prometheus_text());
    }

    #[test]
    fn take_parts_leaves_the_handle_empty() {
        let t = Telemetry::new();
        t.count("q", 3);
        t.event(1, EventKind::Timeout, |_| {});
        const Q: MetricKey = MetricKey::new("q");
        t.count_keyed_at(&Q, 5, 1_000);
        let parts = t.take_parts();
        assert_eq!(parts.registry.counter(&MetricId::new("q", &[])), 8);
        assert_eq!(parts.tracer.len(), 1);
        assert_eq!(series_total(&parts.registry.to_timeseries_jsonl(), "q"), 5);
        assert_eq!(t.counter_value("q", &[]), 0);
        assert!(t.trace_jsonl().is_empty());
        assert!(t.timeseries_jsonl().is_empty());
    }

    #[test]
    fn take_parts_keeps_the_ring_capacity() {
        let t = Telemetry::with_trace_capacity(4);
        t.event(0, EventKind::Timeout, |_| {});
        assert_eq!(t.take_parts().tracer.len(), 1);
        for i in 0..10 {
            t.event(i, EventKind::Timeout, |_| {});
        }
        // Drops are counted at 4, not at the default 2^18.
        t.with_tracer(|tracer| {
            assert_eq!(tracer.capacity(), 4);
            assert_eq!((tracer.len(), tracer.dropped()), (4, 6));
        });
    }

    #[test]
    fn timeseries_merges_through_absorb_shards_and_conserves() {
        const Q: MetricKey = MetricKey::new("q");
        const LAT: MetricKey = MetricKey::new("lat_ms");
        let shard_work = |shard: u64| {
            let t = Telemetry::new();
            t.configure_timeseries(1_000, 256);
            for i in 0..20u64 {
                t.count_keyed_at(&Q, 1, shard * 10_000 + i * 500);
                t.sketch_keyed_at(&LAT, shard * 10 + i, i * 500);
            }
            t.gauge_keyed_at(&MetricKey::new("entries"), shard as f64, shard * 1_000);
            t.take_parts()
        };
        let merged = Telemetry::new();
        merged.configure_timeseries(1_000, 256);
        merged.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        // Conservation: bucket deltas sum to the registry counter.
        assert_eq!(merged.counter_value("q", &[]), 60);
        assert_eq!(series_total(&merged.timeseries_jsonl(), "q"), 60);
        // Byte-identical regardless of how shards ran.
        let again = Telemetry::new();
        again.configure_timeseries(1_000, 256);
        again.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        assert_eq!(merged.timeseries_jsonl(), again.timeseries_jsonl());
        assert!(merged.timeseries_jsonl().contains("\"kind\":\"sketch\""));
    }

    #[test]
    fn child_spans_record_parent_links() {
        let t = Telemetry::new();
        let root = t.span_start(100, |_, f| f.push("qname", "example."));
        let child = t.child_span_start(root, 110, |_, f| f.push("cause", "ns_lookup"));
        t.span_end(child, 120, |_| {});
        t.span_end(root, 130, |_| {});
        let jsonl = t.trace_jsonl();
        assert!(jsonl.contains("\"span\":1,\"parent\":0"));
        // Disabled parents must not leak the dummy id into the trace.
        let dummy = Telemetry::disabled().span_start(0, |_, _| {});
        let t = Telemetry::new();
        t.child_span_start(dummy, 5, |_, _| {});
        assert!(!t.trace_jsonl().contains("parent"));
    }

    #[test]
    fn a_disabled_handle_owns_nothing_and_exports_as_a_fresh_one() {
        assert_eq!(std::mem::size_of::<Telemetry>(), 8);
        const Q: MetricKey = MetricKey::new("q");
        let shard = Telemetry::new();
        shard.configure_timeseries(1_000, 256);
        shard.count_keyed_at(&Q, 4, 1_500);
        shard.event(7, EventKind::Timeout, |f| f.push("i", 1u64));
        let parts = shard.take_parts();
        assert_eq!(parts.tracer.len(), 1);

        let d = Telemetry::disabled();
        assert!(!d.is_enabled());
        d.configure_timeseries(5, 1);
        d.count("q", 1);
        d.count_keyed_at(&Q, 2, 3_000);
        d.gauge_keyed_at(&MetricKey::new("g"), 1.5, 3_000);
        d.sketch_keyed(&MetricKey::new("s"), 9);
        d.sketch_keyed_at(&MetricKey::new("s"), 9, 3_000);
        d.count_event(EventKind::Timeout);
        d.event(1, EventKind::Timeout, |_| {});
        let span = d.span_start(2, |_, _| {});
        d.span_end(span, 3, |_| {});
        d.absorb_shards(vec![parts]);
        let drained = d.take_parts();

        let fresh = Telemetry::new();
        let fresh_parts = fresh.take_parts();
        assert_eq!(drained.tracer.capacity(), fresh_parts.tracer.capacity());
        assert_eq!(drained.tracer.to_jsonl(), fresh_parts.tracer.to_jsonl());
        assert_eq!(
            drained.registry.to_prometheus_text(),
            fresh_parts.registry.to_prometheus_text()
        );
        assert_eq!(d.prometheus_text(), fresh.prometheus_text());
        assert_eq!(d.dashboard(), fresh.dashboard());
        assert_eq!(d.trace_jsonl(), fresh.trace_jsonl());
        assert_eq!(d.timeseries_jsonl(), fresh.timeseries_jsonl());
        assert_eq!(d.events_recorded(), 0);
        assert_eq!(d.counter_value("q", &[]), 0);
        d.with_tracer(|t| assert_eq!(t.capacity(), DEFAULT_TRACE_CAPACITY));
        let (mut m, mut n) = (RunManifest::new("x", 1), RunManifest::new("x", 1));
        d.fill_manifest(&mut m);
        fresh.fill_manifest(&mut n);
        assert_eq!(m.to_json(), n.to_json());
    }

    #[test]
    fn sketches_merge_through_absorb_shards() {
        let shard_work = |shard: u64| {
            let t = Telemetry::new();
            for i in 0..100u64 {
                t.sketch_with(
                    "resolution_latency_ms",
                    &[("scenario", "s")],
                    shard * 100 + i,
                );
            }
            t.take_parts()
        };
        let merged = Telemetry::new();
        merged.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        let other = Telemetry::new();
        other.absorb_shards(vec![shard_work(0), shard_work(1), shard_work(2)]);
        assert_eq!(merged.prometheus_text(), other.prometheus_text());
        let text = merged.prometheus_text();
        assert!(text.contains("# TYPE resolution_latency_ms summary"));
        assert!(text.contains("resolution_latency_ms_count{scenario=\"s\"} 300"));
        assert!(text.contains("quantile=\"0.999\""));
    }

    #[test]
    fn prometheus_text_reports_drop_accounting() {
        let t = Telemetry::with_trace_capacity(2);
        let text = t.prometheus_text();
        assert!(text.contains("trace_dropped_total 0"));
        assert!(!text.contains("trace_dropped_events{"));
        for i in 0..5 {
            t.event(i, EventKind::Timeout, |_| {});
        }
        let text = t.prometheus_text();
        assert!(text.contains("trace_dropped_total 3"));
        assert!(text.contains("trace_dropped_events{kind=\"timeout\"} 3"));
        // Exporting twice never double-counts.
        assert_eq!(text, t.prometheus_text());
    }

    #[test]
    fn identical_call_sequences_export_identically() {
        let run = || {
            let t = Telemetry::new();
            for i in 0..100u64 {
                t.count_with("q", &[("policy", "default")], 1);
                t.sketch_with("lat_ms", &[], i * 7 % 256);
                t.event(i, EventKind::Timeout, |f| f.push("i", i));
            }
            (t.prometheus_text(), t.trace_jsonl())
        };
        assert_eq!(run(), run());
    }
}
