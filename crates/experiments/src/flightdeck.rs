//! The flight recorder: causal span trees, per-scenario latency
//! quantiles, and run-directory auditing.
//!
//! `crates/telemetry` records a flat stream of trace events; this
//! module turns it into walkable structure (DESIGN.md §12):
//!
//! * [`SpanForest`] — parent/child span trees reconstructed from a
//!   trace (in-process or from a `*_trace.jsonl` file), rendered as an
//!   ASCII tree by `sdig --explain` and as collapsed-stack lines
//!   (flamegraph.pl / inferno compatible) by `repro flame`;
//! * [`record_latency_quantiles`] — folds a measurement [`Dataset`]
//!   into per-scenario and per-TTL-band quantile sketches, the numbers
//!   the paper's §5–§6 latency claims are stated in;
//! * [`doctor_dir`] — the `repro doctor` audit: manifest/seed
//!   consistency, trace-ring drop counters, span-tree well-formedness,
//!   and cache conservation across a run directory.

use crate::artifacts::{run_files, RunFile};
use dnsttl_atlas::Dataset;
use dnsttl_telemetry::{flat_get, parse_flat_object, JsonScalar, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

// ───────────────────────── quantile recording ──────────────────────

/// The TTL bands the per-TTL quantile sketches are keyed by: fine
/// where the paper's TTL arguments live (seconds to an hour), coarse
/// above. `None` (no answer / no TTL observed) gets its own band.
pub(crate) fn ttl_band(ttl: Option<u64>) -> &'static str {
    match ttl {
        None => "none",
        Some(0) => "0",
        Some(1..=60) => "1-60",
        Some(61..=300) => "61-300",
        Some(301..=3600) => "301-3600",
        Some(3601..=86400) => "3601-86400",
        Some(_) => ">86400",
    }
}

/// Records every valid measurement of `dataset` into the scenario's
/// quantile sketches: `resolution_latency_ms{scenario=…}` and
/// `resolution_latency_by_ttl_ms{scenario=…,ttl_band=…}`.
///
/// Called on the *merged* dataset (after `Dataset::merge_shards`), so
/// the sketch contents depend only on the dataset rows — byte-identical
/// for any worker count by construction.
pub fn record_latency_quantiles(telemetry: &Telemetry, scenario: &str, dataset: &Dataset) {
    if !telemetry.is_enabled() {
        return;
    }
    for r in dataset.valid() {
        telemetry.sketch_with("resolution_latency_ms", &[("scenario", scenario)], r.rtt_ms);
        telemetry.sketch_with(
            "resolution_latency_by_ttl_ms",
            &[("scenario", scenario), ("ttl_band", ttl_band(r.ttl))],
            r.rtt_ms,
        );
    }
}

// ───────────────────────── span forest ─────────────────────────────

/// One parsed trace line, the common shape behind in-process tracers
/// and `*_trace.jsonl` files.
#[derive(Debug, Clone)]
pub struct TraceLine {
    /// Simulation time in milliseconds.
    pub t_ms: u64,
    /// Monotonic sequence number.
    pub seq: u64,
    /// Event kind string (`span_start`, `cache_hit`, …).
    pub event: String,
    /// The span the event belongs to, if any.
    pub span: Option<u64>,
    /// Causal parent span (on `span_start` of child resolutions).
    pub parent: Option<u64>,
    /// Remaining fields, rendered to strings in line order.
    pub fields: Vec<(String, String)>,
}

fn scalar_to_string(v: &JsonScalar) -> String {
    match v {
        JsonScalar::Str(s) => s.clone(),
        JsonScalar::Num(n) => {
            if *n == n.trunc() && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonScalar::Bool(b) => b.to_string(),
        JsonScalar::Null => "null".to_string(),
    }
}

/// Parses one trace JSONL line into a [`TraceLine`].
pub(crate) fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let fields = parse_flat_object(line)?;
    let t_ms = flat_get(&fields, "t_ms")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing t_ms in {line:?}"))?;
    let seq = flat_get(&fields, "seq")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing seq in {line:?}"))?;
    let event = flat_get(&fields, "event")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("missing event in {line:?}"))?
        .to_string();
    let span = flat_get(&fields, "span").and_then(|v| v.as_u64());
    let parent = flat_get(&fields, "parent").and_then(|v| v.as_u64());
    let rest = fields
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "t_ms" | "seq" | "event" | "span" | "parent"))
        .map(|(k, v)| (k.clone(), scalar_to_string(v)))
        .collect();
    Ok(TraceLine {
        t_ms,
        seq,
        event,
        span,
        parent,
        fields: rest,
    })
}

/// Parses a whole trace JSONL export.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceLine>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| parse_trace_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id from the trace.
    pub id: u64,
    /// Causal parent, if this span was triggered by another.
    pub parent: Option<u64>,
    /// Start time (the `span_start` event's `t_ms`).
    pub start_ms: u64,
    /// End time (the `span_end` event's `t_ms`; `start_ms` if missing).
    pub end_ms: u64,
    /// Whether a `span_end` was seen.
    pub ended: bool,
    /// Flame-frame label, e.g. `resolve:example.:A` or
    /// `ns_lookup:a.nic.cl:A` — `cause` (default `resolve`), qname,
    /// qtype joined with `:` (no spaces or semicolons, so frames stay
    /// collapsed-stack clean).
    pub frame: String,
    /// `span_start` fields (resolver, qname, …), for the tree header.
    pub start_fields: Vec<(String, String)>,
    /// `span_end` fields (rcode, cache_hit, …), for the tree header.
    pub end_fields: Vec<(String, String)>,
    /// Mid-span events: `(t_ms, seq, rendered text)`.
    pub events: Vec<(u64, u64, String)>,
    /// Child span ids, in start order.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// Span duration in sim-milliseconds.
    pub(crate) fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// A trace's spans, linked into causal trees.
#[derive(Debug, Default)]
pub struct SpanForest {
    /// Every span seen, keyed by id.
    pub nodes: BTreeMap<u64, SpanNode>,
    /// Spans with no (known) parent, in start order.
    pub roots: Vec<u64>,
    /// Structural problems found while building: duplicate starts,
    /// events on unknown spans, parents that never started. Empty for
    /// a well-formed, drop-free trace.
    pub issues: Vec<String>,
}

fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Builds the span forest from parsed trace lines, in trace order.
///
/// Every `span_start` is taken before any other line. A sharded run's
/// merged trace is ordered by `t_ms`, and the events of a resolution
/// carry the time it began while a child span's start carries the
/// latency spent before it, so a child's referral can come before the
/// start of the span it belongs to.
pub fn build_span_forest(lines: &[TraceLine]) -> SpanForest {
    let mut forest = SpanForest::default();
    let (starts, rest): (Vec<&TraceLine>, Vec<&TraceLine>) = lines
        .iter()
        .filter(|line| line.span.is_some())
        .partition(|line| line.event == "span_start");
    for line in starts {
        let Some(span) = line.span else { continue };
        if forest.nodes.contains_key(&span) {
            forest.issues.push(format!(
                "span {span}: second span_start at seq {}",
                line.seq
            ));
            continue;
        }
        let cause = field(&line.fields, "cause").unwrap_or("resolve");
        let mut frame = String::from(cause);
        for key in ["qname", "qtype"] {
            if let Some(v) = field(&line.fields, key) {
                frame.push(':');
                // Frames must stay collapsed-stack clean.
                frame.extend(v.chars().map(|c| {
                    if c == ';' || c.is_whitespace() {
                        '_'
                    } else {
                        c
                    }
                }));
            }
        }
        if let Some(parent) = line.parent {
            match forest.nodes.get_mut(&parent) {
                Some(p) => p.children.push(span),
                None => forest.issues.push(format!(
                    "span {span}: parent {parent} never started (orphan)"
                )),
            }
        }
        forest.nodes.insert(
            span,
            SpanNode {
                id: span,
                parent: line.parent,
                start_ms: line.t_ms,
                end_ms: line.t_ms,
                ended: false,
                frame,
                start_fields: line.fields.clone(),
                end_fields: Vec::new(),
                events: Vec::new(),
                children: Vec::new(),
            },
        );
        if line.parent.is_none() || !forest.nodes.contains_key(&line.parent.unwrap()) {
            forest.roots.push(span);
        }
    }
    for line in rest {
        let Some(span) = line.span else { continue };
        match line.event.as_str() {
            "span_end" => match forest.nodes.get_mut(&span) {
                Some(node) => {
                    if node.ended {
                        forest
                            .issues
                            .push(format!("span {span}: second span_end at seq {}", line.seq));
                    }
                    node.ended = true;
                    node.end_ms = node.end_ms.max(line.t_ms);
                    node.end_fields = line.fields.clone();
                }
                None => forest.issues.push(format!(
                    "span_end for unknown span {span} at seq {}",
                    line.seq
                )),
            },
            other => match forest.nodes.get_mut(&span) {
                Some(node) => {
                    let mut text = other.to_string();
                    for (k, v) in &line.fields {
                        let _ = write!(text, " {k}={v}");
                    }
                    node.events.push((line.t_ms, line.seq, text));
                }
                None => forest.issues.push(format!(
                    "{} on unknown span {span} at seq {}",
                    other, line.seq
                )),
            },
        }
    }
    forest
}

/// Checks span-tree well-formedness: every span ended at or after its
/// start, and every child's sim-time interval nests within its
/// parent's. Returns human-readable violations (empty = well-formed).
/// Build-time issues ([`SpanForest::issues`]) are included.
pub(crate) fn well_formedness_issues(forest: &SpanForest) -> Vec<String> {
    let mut issues = forest.issues.clone();
    for node in forest.nodes.values() {
        if !node.ended {
            issues.push(format!("span {}: never ended", node.id));
        }
        if node.end_ms < node.start_ms {
            issues.push(format!(
                "span {}: ends at {} before start {}",
                node.id, node.end_ms, node.start_ms
            ));
        }
        for &child in &node.children {
            let Some(c) = forest.nodes.get(&child) else {
                issues.push(format!("span {}: missing child {child}", node.id));
                continue;
            };
            if c.start_ms < node.start_ms || (c.ended && c.end_ms > node.end_ms) {
                issues.push(format!(
                    "span {child} [{}..{}] not nested within parent {} [{}..{}]",
                    c.start_ms, c.end_ms, node.id, node.start_ms, node.end_ms
                ));
            }
        }
    }
    issues
}

// ───────────────────────── renderings ──────────────────────────────

fn render_header(node: &SpanNode) -> String {
    let mut out = format!(
        "span {} {} [{}..{} ms]",
        node.id, node.frame, node.start_ms, node.end_ms
    );
    for key in [
        "rcode",
        "cache_hit",
        "stale",
        "upstream_queries",
        "elapsed_ms",
    ] {
        if let Some(v) = field(&node.end_fields, key) {
            let _ = write!(out, " {key}={v}");
        }
    }
    out
}

fn render_subtree(forest: &SpanForest, id: u64, prefix: &str, out: &mut String) {
    let Some(node) = forest.nodes.get(&id) else {
        return;
    };
    // Interleave mid-span events and child spans by (t_ms, seq): the
    // tree reads as a timeline of what the resolution actually did.
    enum Item<'a> {
        Event(&'a str),
        Child(u64),
    }
    let mut items: Vec<(u64, u64, Item)> = node
        .events
        .iter()
        .map(|(t, s, text)| (*t, *s, Item::Event(text.as_str())))
        .collect();
    for &child in &node.children {
        if let Some(c) = forest.nodes.get(&child) {
            // Children sort by their start event's position.
            items.push((c.start_ms, u64::MAX, Item::Child(child)));
        }
    }
    items.sort_by_key(|(t, s, _)| (*t, *s));
    let n = items.len();
    for (i, (t, _, item)) in items.into_iter().enumerate() {
        let last = i + 1 == n;
        let (tee, bar) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        match item {
            Item::Event(text) => {
                let _ = writeln!(out, "{prefix}{tee}@{t} {text}");
            }
            Item::Child(child) => {
                let header = render_header(&forest.nodes[&child]);
                let _ = writeln!(out, "{prefix}{tee}{header}");
                render_subtree(forest, child, &format!("{prefix}{bar}"), out);
            }
        }
    }
}

/// Renders the whole forest as an ASCII causal tree (`sdig --explain`).
pub fn render_tree(forest: &SpanForest) -> String {
    let mut out = String::new();
    for &root in &forest.roots {
        let _ = writeln!(out, "{}", render_header(&forest.nodes[&root]));
        render_subtree(forest, root, "", &mut out);
    }
    out
}

/// Folds the forest into collapsed-stack lines (`frame;frame weight`),
/// flamegraph.pl / inferno compatible. The weight is *self* sim-time in
/// milliseconds: a span's duration minus its children's durations
/// (clamped at zero), so stacking the lines reproduces total sim-time
/// without double-counting. Identical stacks aggregate; zero-weight
/// stacks are dropped.
pub fn collapsed_stacks(forest: &SpanForest) -> Vec<String> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    fn walk(
        forest: &SpanForest,
        id: u64,
        stack: &mut Vec<String>,
        totals: &mut BTreeMap<String, u64>,
    ) {
        let Some(node) = forest.nodes.get(&id) else {
            return;
        };
        stack.push(node.frame.clone());
        let child_total: u64 = node
            .children
            .iter()
            .filter_map(|c| forest.nodes.get(c))
            .map(|c| c.duration_ms())
            .sum();
        let self_ms = node.duration_ms().saturating_sub(child_total);
        if self_ms > 0 {
            *totals.entry(stack.join(";")).or_insert(0) += self_ms;
        }
        for &child in &node.children {
            walk(forest, child, stack, totals);
        }
        stack.pop();
    }
    for &root in &forest.roots {
        let mut stack = Vec::new();
        walk(forest, root, &mut stack, &mut totals);
    }
    totals
        .into_iter()
        .map(|(stack, ms)| format!("{stack} {ms}"))
        .collect()
}

// ───────────────────────── repro doctor ────────────────────────────

/// Extracts `"key":<u64>` from (possibly nested) JSON text by direct
/// scan — the manifest format is nested, which the strict flat parser
/// rejects, and a doctor must not trust the writer it is auditing
/// anyway.
pub(crate) fn scan_u64_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts the string items of `"key":[ … ]`.
pub(crate) fn scan_str_array(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":[");
    let Some(start) = text.find(&pat).map(|i| i + pat.len()) else {
        return Vec::new();
    };
    let Some(end) = text[start..].find(']').map(|i| start + i) else {
        return Vec::new();
    };
    text[start..end]
        .split(',')
        .filter_map(|item| {
            let item = item.trim();
            item.strip_prefix('"')?
                .strip_suffix('"')
                .map(str::to_string)
        })
        .collect()
}

/// Extracts the flat object under `"key":{ … }` and parses it.
fn scan_flat_object(text: &str, key: &str) -> Vec<(String, JsonScalar)> {
    let pat = format!("\"{key}\":{{");
    let Some(start) = text.find(&pat).map(|i| i + pat.len() - 1) else {
        return Vec::new();
    };
    let Some(end) = text[start..].find('}').map(|i| start + i + 1) else {
        return Vec::new();
    };
    parse_flat_object(&text[start..end]).unwrap_or_default()
}

/// The outcome of one `repro doctor` audit.
#[derive(Debug, Default)]
pub struct DoctorReport {
    /// Checks that passed, as `module: what` lines.
    pub passed: Vec<String>,
    /// Failures; non-empty means the run directory is unhealthy and
    /// `repro doctor` exits nonzero.
    pub failures: Vec<String>,
}

impl DoctorReport {
    fn ok(&mut self, line: impl Into<String>) {
        self.passed.push(line.into());
    }
    fn fail(&mut self, line: impl Into<String>) {
        self.failures.push(line.into());
    }

    /// Renders the audit, pass lines first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.passed {
            let _ = writeln!(out, "ok:   {line}");
        }
        for line in &self.failures {
            let _ = writeln!(out, "FAIL: {line}");
        }
        let _ = writeln!(
            out,
            "{} checks passed, {} failed",
            self.passed.len(),
            self.failures.len()
        );
        out
    }
}

/// Audits one run directory: every `<module>_manifest.json` and its
/// `<module>_trace.jsonl` and `<module>_timeseries.jsonl`.
///
/// Checks, per module: the manifest carries a seed consistent with
/// every other manifest in the directory; every artifact it lists
/// exists; the trace ring dropped nothing (`trace_dropped == 0`); the
/// event counts satisfy cache conservation (entries removed never
/// exceed entries inserted); the trace parses line by line, is
/// correctly ordered, and its span trees are well-formed.
pub fn doctor_dir(dir: &Path) -> DoctorReport {
    let mut report = DoctorReport::default();
    let manifests = match run_files(dir, RunFile::Manifest) {
        Ok(manifests) => manifests,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };
    if manifests.is_empty() {
        let suffix = RunFile::Manifest.suffix();
        report.fail(format!("no *_{suffix} found in {}", dir.display()));
        return report;
    }

    let mut seeds: Vec<(String, u64)> = Vec::new();
    for (module, path) in &manifests {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                report.fail(format!("{module}: cannot read manifest: {e}"));
                continue;
            }
        };

        match scan_u64_field(&text, "seed") {
            Some(seed) => seeds.push((module.clone(), seed)),
            None => report.fail(format!("{module}: manifest has no seed")),
        }

        let dropped = scan_u64_field(&text, "trace_dropped");
        match dropped {
            Some(0) => report.ok(format!("{module}: trace ring dropped nothing")),
            Some(n) => report.fail(format!("{module}: trace ring dropped {n} events")),
            None => report.fail(format!("{module}: manifest has no trace_dropped")),
        }

        let artifacts = scan_str_array(&text, "artifacts");
        let mut missing = 0;
        for artifact in &artifacts {
            if !dir.join(artifact).exists() {
                report.fail(format!("{module}: listed artifact {artifact} is missing"));
                missing += 1;
            }
        }
        if missing == 0 {
            report.ok(format!(
                "{module}: all {} listed artifacts exist",
                artifacts.len()
            ));
        }

        // Cache conservation: every TTL drop removes an entry some
        // insert created, so removals can never exceed inserts.
        let events = scan_flat_object(&text, "event_counts");
        let count = |key: &str| flat_get(&events, key).and_then(|v| v.as_u64()).unwrap_or(0);
        let inserts = count("cache_insert");
        let removals = count("cache_expired_drop");
        if removals <= inserts {
            report.ok(format!(
                "{module}: cache conservation holds ({inserts} inserts >= {removals} removals)"
            ));
        } else {
            report.fail(format!(
                "{module}: cache conservation violated ({removals} removals > {inserts} inserts)"
            ));
        }

        // The paired trace, when present.
        let trace_path = dir.join(RunFile::Trace.name(module));
        if trace_path.exists() {
            audit_trace(module, &trace_path, dropped == Some(0), &mut report);
        }

        // The paired sim-time series, when present.
        let ts_path = dir.join(RunFile::Timeseries.name(module));
        if ts_path.exists() {
            let prom_path = dir.join(RunFile::Metrics.name(module));
            audit_timeseries(module, &ts_path, &prom_path, &mut report);
        }
    }

    if let Some(((first_m, first_s), rest)) = seeds.split_first() {
        let mismatched: Vec<&(String, u64)> = rest.iter().filter(|(_, s)| s != first_s).collect();
        if mismatched.is_empty() {
            report.ok(format!(
                "all {} manifests agree on seed {first_s}",
                seeds.len()
            ));
        } else {
            for (m, s) in mismatched {
                report.fail(format!(
                    "seed mismatch: {m} has {s}, {first_m} has {first_s}"
                ));
            }
        }
    }

    report
}

/// Audits a `<module>_timeseries.jsonl`: per (series, kind) the bucket
/// boundaries must be strictly increasing, gap-free (each bucket starts
/// exactly one width after the previous), and constant-width; and every
/// counter series must conserve — the sum of its per-bucket deltas
/// equals the final registry value in `<module>_metrics.prom`.
fn audit_timeseries(module: &str, path: &Path, prom_path: &Path, report: &mut DoctorReport) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            report.fail(format!("{module}: cannot read timeseries: {e}"));
            return;
        }
    };
    let lines = match crate::timeline::parse_timeseries_jsonl(&text) {
        Ok(lines) => lines,
        Err(e) => {
            report.fail(format!("{module}: unparseable timeseries: {e}"));
            return;
        }
    };
    report.ok(format!(
        "{module}: timeseries parses ({} buckets)",
        lines.len()
    ));

    let mut groups: std::collections::BTreeMap<(&str, &str), Vec<&crate::timeline::TsLine>> =
        std::collections::BTreeMap::new();
    for line in &lines {
        groups
            .entry((line.series.as_str(), line.kind.as_str()))
            .or_default()
            .push(line);
    }
    let mut shape_issues = 0usize;
    let mut counter_sums: Vec<(&str, u64)> = Vec::new();
    for ((series, kind), group) in &groups {
        let width = group[0].width_ms;
        let constant_width = group.iter().all(|l| l.width_ms == width);
        let gap_free = group.windows(2).all(|w| w[1].t_ms == w[0].t_ms + width);
        if !constant_width || !gap_free || width == 0 {
            report.fail(format!(
                "{module}: timeseries {series} ({kind}) has gaps, unordered buckets, or varying width"
            ));
            shape_issues += 1;
        }
        if *kind == "counter" {
            let sum: f64 = group.iter().map(|l| l.headline()).sum();
            counter_sums.push((series, sum as u64));
        }
    }
    if shape_issues == 0 {
        report.ok(format!(
            "{module}: {} series monotone, gap-free, constant-width",
            groups.len()
        ));
    }

    // Conservation against the final registry: the time series is the
    // same counters resolved over sim time, so the bucket deltas must
    // sum back to the number the registry reports at the end.
    if counter_sums.is_empty() {
        return;
    }
    let prom = match std::fs::read_to_string(prom_path) {
        Ok(t) => t,
        Err(e) => {
            let suffix = RunFile::Metrics.suffix();
            report.fail(format!(
                "{module}: timeseries has counters but {suffix} is unreadable: {e}"
            ));
            return;
        }
    };
    let finals: BTreeMap<String, f64> = crate::rundiff::prom_samples(&prom)
        .into_iter()
        .filter(|(key, _)| !key.contains('{'))
        .collect();
    let mut bad = 0usize;
    for (series, sum) in &counter_sums {
        match finals.get(*series) {
            Some(v) if (*v - *sum as f64).abs() < 0.5 => {}
            Some(v) => {
                report.fail(format!(
                    "{module}: counter {series} bucket deltas sum to {sum} but the final registry says {v}"
                ));
                bad += 1;
            }
            None => {
                report.fail(format!(
                    "{module}: counter {series} has a time series but no final registry sample"
                ));
                bad += 1;
            }
        }
    }
    if bad == 0 {
        report.ok(format!(
            "{module}: {} counter series conserve (bucket sums match final registry)",
            counter_sums.len()
        ));
    }
}

fn audit_trace(module: &str, path: &Path, drop_free: bool, report: &mut DoctorReport) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            report.fail(format!("{module}: cannot read trace: {e}"));
            return;
        }
    };
    let lines = match parse_trace_jsonl(&text) {
        Ok(lines) => lines,
        Err(e) => {
            report.fail(format!("{module}: unparseable trace: {e}"));
            return;
        }
    };
    report.ok(format!("{module}: trace parses ({} events)", lines.len()));

    // `t_ms` legitimately restarts when one module runs several
    // campaigns back to back; the tracer's hard guarantee is that
    // sequence numbers strictly increase across the whole stream.
    let ordered = lines.windows(2).all(|w| w[0].seq < w[1].seq);
    if ordered {
        report.ok(format!("{module}: trace seq strictly increasing"));
    } else {
        report.fail(format!("{module}: trace seq out of order"));
    }

    // Span-tree structure is only auditable when the ring dropped
    // nothing — eviction legitimately amputates old spans.
    if drop_free {
        let forest = build_span_forest(&lines);
        let issues = well_formedness_issues(&forest);
        if issues.is_empty() {
            report.ok(format!(
                "{module}: span trees well-formed ({} spans, {} roots)",
                forest.nodes.len(),
                forest.roots.len()
            ));
        } else {
            for issue in issues.iter().take(10) {
                report.fail(format!("{module}: {issue}"));
            }
            if issues.len() > 10 {
                report.fail(format!(
                    "{module}: …and {} more span-tree issues",
                    issues.len() - 10
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str) -> Vec<TraceLine> {
        parse_trace_jsonl(text.trim()).expect("parse test trace")
    }

    const WELL_FORMED: &str = r#"
{"t_ms":100,"seq":0,"event":"span_start","span":0,"qname":"example.","qtype":"A"}
{"t_ms":105,"seq":1,"event":"cache_miss","span":0,"qname":"example."}
{"t_ms":110,"seq":2,"event":"span_start","span":1,"parent":0,"cause":"ns_lookup","qname":"ns.example.","qtype":"A"}
{"t_ms":130,"seq":3,"event":"span_end","span":1,"elapsed_ms":20}
{"t_ms":160,"seq":4,"event":"span_end","span":0,"rcode":"NOERROR","elapsed_ms":60}
"#;

    #[test]
    fn forest_builds_and_is_well_formed() {
        let forest = build_span_forest(&lines(WELL_FORMED));
        assert_eq!(forest.roots, vec![0]);
        assert_eq!(forest.nodes[&0].children, vec![1]);
        assert_eq!(forest.nodes[&1].parent, Some(0));
        assert!(well_formedness_issues(&forest).is_empty());
        let tree = render_tree(&forest);
        assert!(tree.contains("span 0 resolve:example.:A"), "{tree}");
        assert!(tree.contains("└─ span 1 ns_lookup:ns.example.:A"), "{tree}");
        assert!(tree.contains("├─ @105 cache_miss qname=example."), "{tree}");
    }

    #[test]
    fn collapsed_stacks_use_self_time() {
        let forest = build_span_forest(&lines(WELL_FORMED));
        let stacks = collapsed_stacks(&forest);
        // Root span: 60ms total, child took 20 → 40 self.
        assert_eq!(
            stacks,
            vec![
                "resolve:example.:A 40".to_string(),
                "resolve:example.:A;ns_lookup:ns.example.:A 20".to_string(),
            ]
        );
    }

    #[test]
    fn a_time_ordered_merge_keeps_events_on_their_spans() {
        // As a sharded merge orders it: the child's referral carries the
        // resolution's start time, its span_start the 40 ms spent first.
        let merged = r#"
{"t_ms":100,"seq":0,"event":"span_start","span":0,"qname":"example.","qtype":"A"}
{"t_ms":100,"seq":1,"event":"referral","span":1,"zone":".","cut":"net."}
{"t_ms":140,"seq":2,"event":"span_start","span":1,"parent":0,"cause":"ns_lookup","qname":"ns.example.net.","qtype":"A"}
{"t_ms":170,"seq":3,"event":"span_end","span":1,"elapsed_ms":30}
{"t_ms":190,"seq":4,"event":"span_end","span":0,"rcode":"NOERROR","elapsed_ms":90}
"#;
        let forest = build_span_forest(&lines(merged));
        assert_eq!(well_formedness_issues(&forest), Vec::<String>::new());
        assert_eq!(forest.nodes[&0].children, vec![1]);
        assert_eq!(forest.nodes[&1].events.len(), 1);
    }

    #[test]
    fn violations_are_reported() {
        let bad = r#"
{"t_ms":100,"seq":0,"event":"span_start","span":0,"qname":"a."}
{"t_ms":90,"seq":1,"event":"span_start","span":1,"parent":7,"qname":"b."}
{"t_ms":95,"seq":2,"event":"span_end","span":1}
{"t_ms":120,"seq":3,"event":"cache_hit","span":9}
"#;
        let forest = build_span_forest(&lines(bad));
        let issues = well_formedness_issues(&forest);
        assert!(issues.iter().any(|i| i.contains("parent 7 never started")));
        assert!(issues.iter().any(|i| i.contains("unknown span 9")));
        assert!(issues.iter().any(|i| i.contains("span 0: never ended")));
    }

    #[test]
    fn ttl_bands_cover_the_paper_ranges() {
        assert_eq!(ttl_band(None), "none");
        assert_eq!(ttl_band(Some(0)), "0");
        assert_eq!(ttl_band(Some(60)), "1-60");
        assert_eq!(ttl_band(Some(300)), "61-300");
        assert_eq!(ttl_band(Some(3600)), "301-3600");
        assert_eq!(ttl_band(Some(86400)), "3601-86400");
        assert_eq!(ttl_band(Some(172800)), ">86400");
    }

    #[test]
    fn doctor_flags_drops_and_missing_artifacts() {
        let dir = std::env::temp_dir().join(format!("dnsttl-doctor-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = RunFile::Trace.name("m");
        std::fs::write(
            dir.join(RunFile::Manifest.name("m")),
            format!(
                r#"{{"experiment":"m","seed":42,"event_counts":{{"cache_insert":5,"cache_expired_drop":1}},"trace_dropped":0,"artifacts":["{trace}"]}}"#
            ),
        )
        .unwrap();
        std::fs::write(dir.join(trace), WELL_FORMED.trim_start()).unwrap();
        let report = doctor_dir(&dir);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.render().contains("span trees well-formed"));

        // Now a second manifest with a different seed and a drop.
        std::fs::write(
            dir.join(RunFile::Manifest.name("n")),
            r#"{"experiment":"n","seed":7,"event_counts":{},"trace_dropped":3,"artifacts":["gone.csv"]}"#,
        )
        .unwrap();
        let report = doctor_dir(&dir);
        assert!(report.failures.iter().any(|f| f.contains("dropped 3")));
        assert!(report.failures.iter().any(|f| f.contains("gone.csv")));
        assert!(report.failures.iter().any(|f| f.contains("seed mismatch")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_checks_timeseries_shape_and_conservation() {
        let dir = std::env::temp_dir().join(format!("dnsttl-doctor-ts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(RunFile::Manifest.name("m")),
            r#"{"experiment":"m","seed":42,"event_counts":{},"trace_dropped":0,"artifacts":[]}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join(RunFile::Timeseries.name("m")),
            concat!(
                r#"{"series":"q","kind":"counter","t_ms":0,"width_ms":60000,"value":3}"#,
                "\n",
                r#"{"series":"q","kind":"counter","t_ms":60000,"width_ms":60000,"value":4}"#,
                "\n",
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join(RunFile::Metrics.name("m")),
            "# TYPE q counter\nq 7\n",
        )
        .unwrap();
        let report = doctor_dir(&dir);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report
            .passed
            .iter()
            .any(|p| p.contains("counter series conserve")));

        // A final registry value the buckets cannot reach is drift.
        std::fs::write(
            dir.join(RunFile::Metrics.name("m")),
            "# TYPE q counter\nq 9\n",
        )
        .unwrap();
        let report = doctor_dir(&dir);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("bucket deltas sum to 7")));

        // A gap in the bucket boundaries is a shape failure.
        std::fs::write(
            dir.join(RunFile::Timeseries.name("m")),
            concat!(
                r#"{"series":"q","kind":"counter","t_ms":0,"width_ms":60000,"value":3}"#,
                "\n",
                r#"{"series":"q","kind":"counter","t_ms":180000,"width_ms":60000,"value":4}"#,
                "\n",
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join(RunFile::Metrics.name("m")),
            "# TYPE q counter\nq 7\n",
        )
        .unwrap();
        let report = doctor_dir(&dir);
        assert!(report.failures.iter().any(|f| f.contains("has gaps")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
