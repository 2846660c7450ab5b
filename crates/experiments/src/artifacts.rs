//! What one `repro` module run writes to its run directory, how that
//! directory is laid out, and the digest lines that pin those bytes.
//!
//! `repro` runs every module through [`run_module`]: the files the
//! module writes through `Report::write` (its CSVs, snapshots, a
//! fault plan) plus the four [`RunFile`]s — `<module>_trace.jsonl`,
//! `<module>_timeseries.jsonl`, `<module>_metrics.prom` and
//! `<module>_manifest.json`, which lists every other file of the
//! module. Readers of a run directory (`repro doctor`, `diff`,
//! `timeline`, `flame`) find its files through [`run_files`]. The
//! committed table `tests/data/artifact_digests.txt` holds
//! [`digest_lines`] for the smoke set, so a change to any byte of any
//! artifact shows up as a reviewed diff of that file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use dnsttl_telemetry::{RunManifest, Telemetry};
use dnsttl_wire::{fnv1a, FNV_OFFSET};

use crate::{
    bailiwick_exp, centricity, controlled, crawl_exp, extensions, insight, passive_nl, resilience,
    shared_cache, table1, uy_latency, zipf, ExpConfig, Report,
};

/// Every artifact id `repro` knows, with what it regenerates.
pub const ARTIFACTS: &[(&str, &str)] = &[
    ("table1", "a.nic.cl TTLs in parent and child (§3.1)"),
    ("fig1", "TTL CDFs for .uy-NS / a.nic.uy-A (§3.2)"),
    ("fig2", "TTL CDF for google.co-NS (§3.3)"),
    ("table2", "centricity experiment accounting (§3.2–3.3)"),
    ("fig3", "queries per resolver/qname, .nl passive (§3.4)"),
    ("fig4", "min interarrival per resolver/qname (§3.4)"),
    ("fig5", "bailiwick experiment setup (§4.1)"),
    ("fig6", "in-bailiwick renumbering timeseries (§4.2)"),
    ("fig7", "out-of-bailiwick renumbering timeseries (§4.3)"),
    ("fig8", "matched sticky-VP behaviour (§4.5)"),
    ("table3", "bailiwick experiment accounting (§4)"),
    ("table4", "sticky resolver classification (§4.4)"),
    ("table5", "crawl datasets and RR counts (§5.1)"),
    ("fig9", "TTL CDFs per record type per list (§5.1)"),
    ("table6", ".nl DMap content categories (§5.1.1)"),
    ("table7", "median TTL by content category (§5.1.1)"),
    ("table8", "TTL=0 domains (§5.1.2)"),
    ("table9", "bailiwick in the wild (§5.1.3)"),
    ("fig10", ".uy latency before/after TTL change (§5.3)"),
    ("table10", "controlled TTL experiments (§6.2)"),
    ("fig11", "latency CDFs, controlled + anycast (§6.2)"),
    (
        "ext-offline",
        "child authoritatives offline (§4.4, extension)",
    ),
    (
        "ext-dnssec",
        "DNSSEC validation vs centricity (§2, extension)",
    ),
    ("ext-ddos", "TTL vs DDoS survival (§6.1, extension)"),
    ("ext-hitrate", "analytic cache model validation (extension)"),
    (
        "ext-loadbalance",
        "DNS load-balancing agility vs TTL (§6.1, extension)",
    ),
    (
        "ext-negttl",
        "negative-caching TTL vs typo load (RFC 2308, extension)",
    ),
    (
        "ext-secondary",
        "renumbering propagation via secondaries (extension)",
    ),
    (
        "cache-report",
        "cache forensics: Tables 3–4 lifetimes from the provenance ledger",
    ),
    (
        "resilience",
        "failure rate vs TTL under a scripted 1 h outage (§6.2, chaos)",
    ),
    (
        "shared-cache",
        "hit rate and latency vs TTL: one shared cache vs partitioned caches",
    ),
    (
        "zipf-population",
        "Zipf/diurnal population campaign at scale (§5–6 calibration)",
    ),
];

/// Which experiment module regenerates an artifact id (`fig6` →
/// `bailiwick`); `None` for an unknown id. Artifacts sharing a module
/// are produced by one run.
pub fn module_of(id: &str) -> Option<&'static str> {
    Some(match id {
        "table1" => "table1",
        "fig1" | "fig2" | "table2" => "centricity",
        "fig3" | "fig4" => "passive_nl",
        "fig5" | "fig6" | "fig7" | "fig8" | "table3" | "table4" => "bailiwick",
        "table5" | "fig9" | "table6" | "table7" | "table8" | "table9" => "crawl",
        "fig10" | "fig10a" | "fig10b" => "uy_latency",
        "table10" | "fig11" | "fig11a" | "fig11b" => "controlled",
        "ext-offline" | "ext-dnssec" | "ext-ddos" | "ext-hitrate" | "ext-loadbalance"
        | "ext-negttl" | "ext-secondary" => "extensions",
        "cache-report" => "insight",
        "resilience" => "resilience",
        "shared-cache" => "shared_cache",
        "zipf-population" => "zipf",
        _ => return None,
    })
}

fn produce(module: &str, cfg: &ExpConfig) -> Vec<Report> {
    match module {
        "table1" => vec![table1::run(cfg)],
        "centricity" => centricity::run(cfg),
        "passive_nl" => passive_nl::run(cfg),
        "bailiwick" => bailiwick_exp::run(cfg),
        "crawl" => crawl_exp::run(cfg),
        "uy_latency" => uy_latency::run(cfg),
        "controlled" => controlled::run(cfg),
        "extensions" => extensions::run(cfg),
        "insight" => insight::run(cfg),
        "resilience" => resilience::run(cfg),
        "shared_cache" => shared_cache::run(cfg),
        "zipf" => zipf::run(cfg),
        other => panic!("unknown experiment module {other:?}"),
    }
}

/// Runs one module (a [`module_of`] name) on its own enabled telemetry
/// handle — so traces and metrics are per module and same-seed reruns
/// stay byte-identical — and, when `cfg.out_dir` is set, writes its
/// observability files next to its CSVs. Returns the reports and the
/// handle the run recorded into.
///
/// # Panics
/// On a module name [`module_of`] never returns.
pub fn run_module(module: &str, cfg: &ExpConfig) -> (Vec<Report>, Telemetry) {
    let telemetry = Telemetry::new();
    telemetry.configure_timeseries(cfg.ts_bucket_ms, cfg.ts_span_cap);
    let module_cfg = ExpConfig {
        telemetry: telemetry.clone(),
        ..cfg.clone()
    };
    let reports = produce(module, &module_cfg);
    write_observability(module, cfg, &telemetry, &reports);
    (reports, telemetry)
}

/// Set once an artifact write of this process failed, so `repro` does
/// not claim that its run directory holds the run.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

/// True when an artifact write of this process failed.
pub fn write_failed() -> bool {
    WRITE_FAILED.load(Ordering::Relaxed)
}

/// Writes one artifact file, creating its directory; a failure goes to
/// stderr and to [`write_failed`].
fn write_artifact(path: &Path, bytes: &str) {
    let written = match path.parent() {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
    .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        WRITE_FAILED.store(true, Ordering::Relaxed);
    }
}

impl Report {
    /// Writes `name` under `cfg.out_dir` with the text `contents`
    /// returns and lists it among this report's artifacts, which the
    /// module's manifest names. Without an out-dir it does nothing:
    /// `contents` never runs and nothing is allocated.
    pub(crate) fn write(&mut self, cfg: &ExpConfig, name: &str, contents: impl FnOnce() -> String) {
        let Some(dir) = &cfg.out_dir else { return };
        write_artifact(&dir.join(name), &contents());
        self.artifacts.push(name.to_owned());
    }
}

/// The four files [`run_module`] writes for every module next to the
/// files the module writes itself, each named `<module>_<suffix>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFile {
    /// The provenance record, listing every other file of the module.
    Manifest,
    /// The sim-time trace, one event per line.
    Trace,
    /// Counters per sim-time bucket.
    Timeseries,
    /// The final registry as Prometheus text.
    Metrics,
}

impl RunFile {
    /// What follows `<module>_` in the file's name.
    pub fn suffix(self) -> &'static str {
        match self {
            RunFile::Manifest => "manifest.json",
            RunFile::Trace => "trace.jsonl",
            RunFile::Timeseries => "timeseries.jsonl",
            RunFile::Metrics => "metrics.prom",
        }
    }

    /// The file's name for `module`.
    pub fn name(self, module: &str) -> String {
        format!("{module}_{}", self.suffix())
    }
}

/// Every `kind` file in run directory `dir` as `(module, path)`, sorted
/// by file name; `Err` names a directory that cannot be read.
pub fn run_files(dir: &Path, kind: RunFile) -> Result<Vec<(String, PathBuf)>, String> {
    let files = sorted_files(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    Ok(files
        .into_iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let module = name.strip_suffix(kind.suffix())?.strip_suffix('_')?;
            Some((module.to_owned(), path))
        })
        .collect())
}

/// The paths of every entry of `dir`, sorted.
fn sorted_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<Vec<_>, _>>()?;
    files.sort();
    Ok(files)
}

/// Writes the four [`RunFile`]s next to the module's own files. Wall
/// time stays out: manifests and traces must be byte-identical across
/// same-seed reruns.
fn write_observability(module: &str, cfg: &ExpConfig, telemetry: &Telemetry, reports: &[Report]) {
    let Some(dir) = &cfg.out_dir else { return };
    let write = |name: &str, text: String| write_artifact(&dir.join(name), &text);
    let trace_name = RunFile::Trace.name(module);
    write(&trace_name, telemetry.trace_jsonl());
    // The time-resolved twin of the metrics: counters per sim-time
    // bucket, plus the final registry as Prometheus text so `repro
    // diff` and the doctor's conservation check can compare them.
    let ts_name = RunFile::Timeseries.name(module);
    write(&ts_name, telemetry.timeseries_jsonl());
    let prom_name = RunFile::Metrics.name(module);
    write(&prom_name, telemetry.prometheus_text());

    let mut manifest = RunManifest::new(module, cfg.seed);
    manifest.sim_duration_ms =
        telemetry.with_tracer(|t| t.events().map(|e| e.t_ms).max().unwrap_or(0));
    manifest
        .world_note("probes", cfg.probes as u64)
        .world_note("crawl_scale", cfg.crawl_scale)
        .world_note("nl_resolvers", cfg.nl_resolvers as u64)
        .world_note("nl_hours", cfg.nl_hours);
    manifest.policy("mix", "paper_population");
    telemetry.fill_manifest(&mut manifest);
    manifest.artifact(&trace_name);
    manifest.artifact(&ts_name);
    manifest.artifact(&prom_name);
    for report in reports {
        for artifact in &report.artifacts {
            manifest.artifact(artifact);
        }
    }
    let ids: Vec<String> = reports.iter().map(|r| r.id.clone()).collect();
    manifest.note("reports", ids.join(","));
    write(&RunFile::Manifest.name(module), manifest.to_json());
}

/// One line per file in `dir`, sorted by file name:
/// `<run> <module> <file> <bytes> <fnv1a64 as 16 hex digits>` — the
/// rows of `tests/data/artifact_digests.txt`. `run` and `module` are
/// labels copied into each line.
pub fn digest_lines(run: &str, module: &str, dir: &Path) -> std::io::Result<Vec<String>> {
    sorted_files(dir)?
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path)?;
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let (len, digest) = (bytes.len(), fnv1a(FNV_OFFSET, &bytes));
            Ok(format!("{run} {module} {name} {len} {digest:016x}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_artifact_id_maps_to_a_module() {
        for (id, _) in ARTIFACTS {
            assert!(module_of(id).is_some(), "{id}");
        }
        assert_eq!(module_of("fig99"), None);
    }
}
