//! `repro diff` — structured comparison of two run directories.
//!
//! The standing regression tool for determinism-sensitive changes:
//! given two `repro` run directories, compare their manifests (module
//! set, artifact lists, seeds), every Prometheus sample (counters,
//! gauges, and sketch quantiles all surface there),
//! and every sim-time series bucket — with per-metric relative
//! tolerances — and produce a machine-readable JSON verdict
//! (`dnsttl-diff/1`). Zero drift exits 0; any drift exits nonzero and
//! names the drifted metrics.
//!
//! Two same-seed runs of any module must diff clean at the default
//! zero tolerance: every compared artifact is deterministic by
//! construction (DESIGN.md §10). Tolerances exist for *intentional*
//! changes — e.g. comparing across a cache-policy PR where counters
//! are expected to move a little.

use crate::artifacts::{run_files, RunFile};
use crate::flightdeck::{scan_str_array, scan_u64_field};
use crate::timeline::{parse_timeseries_jsonl, TsLine};
use dnsttl_telemetry::{ObjectWriter, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Tolerances for numeric comparisons: a relative default plus
/// per-metric overrides (`metric=pct` pairs, most specific wins by
/// exact series name).
#[derive(Debug, Clone, Default)]
pub struct DiffConfig {
    /// Relative tolerance applied to every numeric comparison without
    /// a per-metric override: `|a-b| / max(|a|,|b|)` must not exceed
    /// it. Zero (the default) means exact.
    pub default_tolerance: f64,
    /// Per-metric overrides, by exact series/sample name.
    pub per_metric: Vec<(String, f64)>,
}

impl DiffConfig {
    fn tolerance_for(&self, metric: &str) -> f64 {
        self.per_metric
            .iter()
            .find(|(name, _)| name == metric)
            .map(|(_, t)| *t)
            .unwrap_or(self.default_tolerance)
    }
}

/// One drifted comparison.
#[derive(Debug, Clone)]
pub struct Drift {
    /// What layer drifted: `module`, `artifact`, `metric`,
    /// `timeseries`.
    pub layer: &'static str,
    /// The drifted key (module, artifact path, sample name, or
    /// `module/series@t_ms field`).
    pub key: String,
    /// Value in run A (`None` = absent).
    pub a: Option<f64>,
    /// Value in run B (`None` = absent).
    pub b: Option<f64>,
    /// Relative delta that tripped, where applicable.
    pub delta: f64,
    /// The tolerance that was exceeded.
    pub tolerance: f64,
}

impl Drift {
    fn render(&self) -> String {
        match (self.a, self.b) {
            (Some(a), Some(b)) => format!(
                "{} {}: {} vs {} ({:+.2}% > {:.2}% tolerance)",
                self.layer,
                self.key,
                trim_num(a),
                trim_num(b),
                self.delta * 100.0 * if b >= a { 1.0 } else { -1.0 },
                self.tolerance * 100.0,
            ),
            (Some(_), None) => format!("{} {}: present only in run A", self.layer, self.key),
            (None, Some(_)) => format!("{} {}: present only in run B", self.layer, self.key),
            (None, None) => format!("{} {}: differs", self.layer, self.key),
        }
    }
}

/// The comparison outcome: drift list plus context notes.
#[derive(Debug, Default)]
pub struct DiffVerdict {
    /// Everything that exceeded its tolerance, in comparison order.
    pub drift: Vec<Drift>,
    /// Non-failing observations (seed mismatches, skipped files).
    pub notes: Vec<String>,
    /// How many individual comparisons ran.
    pub compared: usize,
}

impl DiffVerdict {
    /// Whether the two runs agree within tolerances.
    pub fn clean(&self) -> bool {
        self.drift.is_empty()
    }

    /// The machine-readable verdict: one `dnsttl-diff/1` JSON object.
    pub fn to_json(&self, run_a: &str, run_b: &str) -> String {
        let mut w = ObjectWriter::new();
        w.field("schema", &Value::Static("dnsttl-diff/1"));
        w.field("run_a", &Value::Str(run_a.to_string()));
        w.field("run_b", &Value::Str(run_b.to_string()));
        w.field("compared", &Value::U64(self.compared as u64));
        w.field("drift_count", &Value::U64(self.drift.len() as u64));
        w.field("clean", &Value::Bool(self.clean()));
        let mut drift_json = String::from("[");
        for (i, d) in self.drift.iter().enumerate() {
            if i > 0 {
                drift_json.push(',');
            }
            let mut dw = ObjectWriter::new();
            dw.field("layer", &Value::Static(d.layer));
            dw.field("key", &Value::Str(d.key.clone()));
            match d.a {
                Some(a) => dw.field("a", &Value::F64(a)),
                None => dw.field_raw("a", "null"),
            };
            match d.b {
                Some(b) => dw.field("b", &Value::F64(b)),
                None => dw.field_raw("b", "null"),
            };
            dw.field("delta", &Value::F64(d.delta));
            dw.field("tolerance", &Value::F64(d.tolerance));
            drift_json.push_str(&dw.finish());
        }
        drift_json.push(']');
        w.field_raw("drift", &drift_json);
        w.field_str_array("notes", &self.notes);
        w.finish()
    }

    /// Human-readable summary for stderr.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        if self.clean() {
            let _ = writeln!(out, "runs agree: {} comparisons, zero drift", self.compared);
        } else {
            let _ = writeln!(
                out,
                "{} of {} comparisons drifted:",
                self.drift.len(),
                self.compared
            );
            for d in &self.drift {
                let _ = writeln!(out, "  {}", d.render());
            }
        }
        out
    }
}

fn trim_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The text of every `kind` file in `dir`, by module.
fn read_run_files(dir: &Path, kind: RunFile) -> Result<BTreeMap<String, String>, String> {
    run_files(dir, kind)?
        .into_iter()
        .map(|(module, path)| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok((module, text))
        })
        .collect()
}

/// Parses the sample lines of a Prometheus text exposition:
/// `name{labels} value` → `(full sample key, value)`. Comment and
/// blank lines are skipped.
pub(crate) fn prom_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// The bare metric family of a prom sample key (`name{labels}` →
/// `name`), used for per-metric tolerance lookup.
fn family(sample_key: &str) -> &str {
    sample_key.split('{').next().unwrap_or(sample_key)
}

/// Compares two maps of numeric values, pushing drift per key.
fn compare_numeric(
    verdict: &mut DiffVerdict,
    cfg: &DiffConfig,
    layer: &'static str,
    scope: &str,
    a: &[(String, f64)],
    b: &[(String, f64)],
    tolerance_name: impl Fn(&str) -> String,
) {
    let bm: BTreeMap<&str, f64> = b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let am: BTreeMap<&str, f64> = a.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (key, &va) in &am {
        verdict.compared += 1;
        let scoped = if scope.is_empty() {
            key.to_string()
        } else {
            format!("{scope}/{key}")
        };
        match bm.get(key) {
            None => verdict.drift.push(Drift {
                layer,
                key: scoped,
                a: Some(va),
                b: None,
                delta: f64::INFINITY,
                tolerance: 0.0,
            }),
            Some(&vb) => {
                let tol = cfg.tolerance_for(&tolerance_name(key));
                let delta = rel_delta(va, vb);
                if delta > tol {
                    verdict.drift.push(Drift {
                        layer,
                        key: scoped,
                        a: Some(va),
                        b: Some(vb),
                        delta,
                        tolerance: tol,
                    });
                }
            }
        }
    }
    for (key, &vb) in &bm {
        if !am.contains_key(key) {
            verdict.compared += 1;
            let scoped = if scope.is_empty() {
                key.to_string()
            } else {
                format!("{scope}/{key}")
            };
            verdict.drift.push(Drift {
                layer,
                key: scoped,
                a: None,
                b: Some(vb),
                delta: f64::INFINITY,
                tolerance: 0.0,
            });
        }
    }
}

fn rel_delta(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Flattens time-series lines to `(series@t_ms field, value)` samples.
fn ts_samples(lines: &[TsLine]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in lines {
        for (field, value) in &line.values {
            out.push((format!("{}@{} {field}", line.series, line.t_ms), *value));
        }
        out.push((
            format!("{}@{} width_ms", line.series, line.t_ms),
            line.width_ms as f64,
        ));
    }
    out
}

/// Compares run directories `a` and `b`. Errors only on unreadable
/// inputs — comparison mismatches land in the verdict, not in `Err`.
pub fn diff_dirs(a: &Path, b: &Path, cfg: &DiffConfig) -> Result<DiffVerdict, String> {
    let mut verdict = DiffVerdict::default();

    // 1. Module sets and manifests.
    let man_a = read_run_files(a, RunFile::Manifest)?;
    let man_b = read_run_files(b, RunFile::Manifest)?;
    if man_a.is_empty() && man_b.is_empty() {
        return Err(format!(
            "neither {} nor {} contains *_{} — are these repro run dirs?",
            a.display(),
            b.display(),
            RunFile::Manifest.suffix()
        ));
    }
    for module in man_a.keys().chain(man_b.keys()) {
        let (in_a, in_b) = (man_a.contains_key(module), man_b.contains_key(module));
        if in_a && in_b {
            continue;
        }
        verdict.compared += 1;
        verdict.drift.push(Drift {
            layer: "module",
            key: module.clone(),
            a: in_a.then_some(1.0),
            b: in_b.then_some(1.0),
            delta: f64::INFINITY,
            tolerance: 0.0,
        });
    }
    for (module, text_a) in &man_a {
        let Some(text_b) = man_b.get(module) else {
            continue;
        };
        verdict.compared += 1;
        let (seed_a, seed_b) = (
            scan_u64_field(text_a, "seed"),
            scan_u64_field(text_b, "seed"),
        );
        if seed_a != seed_b {
            // Different seeds are a legitimate comparison (that is how
            // you ask "what changed?"), so a mismatch is a note — the
            // per-metric drift below names what actually moved.
            verdict.notes.push(format!(
                "{module}: seeds differ (A {:?} vs B {:?})",
                seed_a, seed_b
            ));
        }
        let arts_a = scan_str_array(text_a, "artifacts");
        let arts_b = scan_str_array(text_b, "artifacts");
        for artifact in arts_a.iter().filter(|x| !arts_b.contains(x)) {
            verdict.compared += 1;
            verdict.drift.push(Drift {
                layer: "artifact",
                key: format!("{module}/{artifact}"),
                a: Some(1.0),
                b: None,
                delta: f64::INFINITY,
                tolerance: 0.0,
            });
        }
        for artifact in arts_b.iter().filter(|x| !arts_a.contains(x)) {
            verdict.compared += 1;
            verdict.drift.push(Drift {
                layer: "artifact",
                key: format!("{module}/{artifact}"),
                a: None,
                b: Some(1.0),
                delta: f64::INFINITY,
                tolerance: 0.0,
            });
        }
    }

    // 2. Every Prometheus sample: counters, gauges, and sketch
    // quantiles all live here.
    let prom_a = read_run_files(a, RunFile::Metrics)?;
    let prom_b = read_run_files(b, RunFile::Metrics)?;
    for (module, text_a) in &prom_a {
        let Some(text_b) = prom_b.get(module) else {
            verdict.notes.push(format!("{module}: no metrics in run B"));
            continue;
        };
        compare_numeric(
            &mut verdict,
            cfg,
            "metric",
            module,
            &prom_samples(text_a),
            &prom_samples(text_b),
            |key| family(key).to_string(),
        );
    }

    // 3. Every time-series bucket.
    let ts_a = read_run_files(a, RunFile::Timeseries)?;
    let ts_b = read_run_files(b, RunFile::Timeseries)?;
    for (module, text_a) in &ts_a {
        let Some(text_b) = ts_b.get(module) else {
            verdict
                .notes
                .push(format!("{module}: no timeseries in run B"));
            continue;
        };
        let lines_a = parse_timeseries_jsonl(text_a).map_err(|e| format!("{module} (A): {e}"))?;
        let lines_b = parse_timeseries_jsonl(text_b).map_err(|e| format!("{module} (B): {e}"))?;
        compare_numeric(
            &mut verdict,
            cfg,
            "timeseries",
            module,
            &ts_samples(&lines_a),
            &ts_samples(&lines_b),
            |key| key.split('@').next().unwrap_or(key).to_string(),
        );
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_run(dir: &Path, seed: u64, hits: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let trace = RunFile::Trace.name("mod");
        std::fs::write(
            dir.join(RunFile::Manifest.name("mod")),
            format!(
                "{{\"schema\":\"x\",\"module\":\"mod\",\"seed\":{seed},\"artifacts\":[\"{trace}\"]}}"
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join(RunFile::Metrics.name("mod")),
            format!("# TYPE resolver_cache_hits counter\nresolver_cache_hits {hits}\n"),
        )
        .unwrap();
        std::fs::write(
            dir.join(RunFile::Timeseries.name("mod")),
            format!(
                "{{\"series\":\"resolver_cache_hits\",\"kind\":\"counter\",\"t_ms\":0,\"width_ms\":60000,\"value\":{hits}}}\n"
            ),
        )
        .unwrap();
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ttl-diff-{tag}-{}", std::process::id()))
    }

    #[test]
    fn identical_runs_diff_clean() {
        let (a, b) = (tmp("ca"), tmp("cb"));
        write_run(&a, 42, 10);
        write_run(&b, 42, 10);
        let v = diff_dirs(&a, &b, &DiffConfig::default()).unwrap();
        assert!(v.clean(), "{:?}", v.drift);
        assert!(v.compared >= 3);
        let json = v.to_json("a", "b");
        assert!(json.contains("\"schema\":\"dnsttl-diff/1\""));
        assert!(json.contains("\"clean\":true"));
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn drifted_counter_is_named_and_tolerances_apply() {
        let (a, b) = (tmp("da"), tmp("db"));
        write_run(&a, 42, 100);
        write_run(&b, 43, 110);
        let v = diff_dirs(&a, &b, &DiffConfig::default()).unwrap();
        assert!(!v.clean());
        assert!(v
            .drift
            .iter()
            .any(|d| d.layer == "metric" && d.key.contains("resolver_cache_hits")));
        assert!(v
            .drift
            .iter()
            .any(|d| d.layer == "timeseries" && d.key.contains("resolver_cache_hits@0")));
        assert!(v.notes.iter().any(|n| n.contains("seeds differ")));
        // A 10% drift passes under a 15% tolerance.
        let lax = DiffConfig {
            default_tolerance: 0.15,
            per_metric: Vec::new(),
        };
        let v = diff_dirs(&a, &b, &lax).unwrap();
        assert!(v.clean(), "{:?}", v.drift);
        // …and under a per-metric override scoped to just this family.
        let scoped = DiffConfig {
            default_tolerance: 0.0,
            per_metric: vec![("resolver_cache_hits".into(), 0.15)],
        };
        let v = diff_dirs(&a, &b, &scoped).unwrap();
        assert!(v.clean(), "{:?}", v.drift);
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn missing_artifact_is_drift() {
        let (a, b) = (tmp("ma"), tmp("mb"));
        write_run(&a, 42, 10);
        write_run(&b, 42, 10);
        std::fs::write(
            b.join(RunFile::Manifest.name("mod")),
            "{\"schema\":\"x\",\"module\":\"mod\",\"seed\":42,\"artifacts\":[]}",
        )
        .unwrap();
        let v = diff_dirs(&a, &b, &DiffConfig::default()).unwrap();
        assert!(v.drift.iter().any(|d| d.layer == "artifact"));
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}
