//! `repro timeline` — render a run directory's sim-time series.
//!
//! Reads every `<module>_timeseries.jsonl` a `repro` run wrote, emits
//! one combined `timeline.csv` (module, series, kind, t_ms, width_ms,
//! value) for external plotting, and prints ASCII sparklines to the
//! terminal — including two derived curves that retell the paper's
//! TTL-vs-load story over time:
//!
//! * **hit_rate** — `resolver_cache_hits / resolver_client_queries`
//!   per bucket (climbs as caches warm, collapses after flush faults);
//! * **upstream_qps** — `resolver_upstream_queries / bucket seconds`
//!   (the load the paper argues longer TTLs suppress).

use crate::artifacts::{run_files, RunFile};
use dnsttl_analysis::CsvWriter;
use dnsttl_telemetry::{flat_get, parse_flat_object};
use std::collections::BTreeMap;
use std::path::Path;

/// One parsed `*_timeseries.jsonl` line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TsLine {
    /// Series (metric) name.
    pub series: String,
    /// `counter`, `gauge`, or `sketch`.
    pub kind: String,
    /// Bucket start, sim-time milliseconds.
    pub t_ms: u64,
    /// Bucket width, milliseconds.
    pub width_ms: u64,
    /// Every numeric payload field (`value`, `count`, `mean`, `p99`,
    /// …) in file order.
    pub values: Vec<(String, f64)>,
}

impl TsLine {
    /// The line's headline number: `value` for counters, `mean` for
    /// gauges, `p99` for sketches (falling back to `count`).
    pub(crate) fn headline(&self) -> f64 {
        for key in ["value", "mean", "p99", "count"] {
            if let Some((_, v)) = self.values.iter().find(|(k, _)| k == key) {
                return *v;
            }
        }
        0.0
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Parses a `*_timeseries.jsonl` artifact.
pub(crate) fn parse_timeseries_jsonl(text: &str) -> Result<Vec<TsLine>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_flat_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let need_str = |key: &str| {
            flat_get(&fields, key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: missing {key}", i + 1))
        };
        let need_u64 = |key: &str| {
            flat_get(&fields, key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {}: missing {key}", i + 1))
        };
        let values = fields
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "series" | "kind" | "t_ms" | "width_ms"))
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        out.push(TsLine {
            series: need_str("series")?,
            kind: need_str("kind")?,
            t_ms: need_u64("t_ms")?,
            width_ms: need_u64("width_ms")?,
            values,
        });
    }
    Ok(out)
}

/// Renders `values` as a unicode-block sparkline, scaled to the
/// series' own min..max (a flat series renders as all-low blocks).
pub(crate) fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let range = (max - min).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let step = (((v - min) / range) * 7.0).round() as usize;
            BLOCKS[step.min(7)]
        })
        .collect()
}

/// The derived curves for one module: dense `(t_ms, hit_rate,
/// upstream_qps)` rows wherever the constituent series have buckets.
pub(crate) fn derived_curves(lines: &[TsLine]) -> Vec<(u64, f64, f64)> {
    let pick = |name: &str| -> BTreeMap<u64, (u64, f64)> {
        lines
            .iter()
            .filter(|l| l.series == name && l.kind == "counter")
            .map(|l| (l.t_ms, (l.width_ms, l.get("value").unwrap_or(0.0))))
            .collect()
    };
    let queries = pick("resolver_client_queries");
    let hits = pick("resolver_cache_hits");
    let upstream = pick("resolver_upstream_queries");
    let mut t_all: Vec<u64> = queries.keys().chain(upstream.keys()).copied().collect();
    t_all.sort_unstable();
    t_all.dedup();
    t_all
        .into_iter()
        .map(|t| {
            let (qw, q) = queries.get(&t).copied().unwrap_or((0, 0.0));
            let h = hits.get(&t).map(|&(_, v)| v).unwrap_or(0.0);
            let (uw, u) = upstream.get(&t).copied().unwrap_or((qw, 0.0));
            let hit_rate = if q > 0.0 { h / q } else { 0.0 };
            let secs = (uw.max(1) as f64) / 1000.0;
            (t, hit_rate, u / secs)
        })
        .collect()
}

/// All `*_timeseries.jsonl` files under `dir`, as `(module, lines)`
/// in name order.
pub(crate) fn load_dir(dir: &Path) -> Result<Vec<(String, Vec<TsLine>)>, String> {
    let files = run_files(dir, RunFile::Timeseries)?;
    if files.is_empty() {
        let suffix = RunFile::Timeseries.suffix();
        return Err(format!("no *_{suffix} in {}", dir.display()));
    }
    let mut out = Vec::new();
    for (module, path) in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let lines =
            parse_timeseries_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((module, lines));
    }
    Ok(out)
}

/// Renders the whole run directory: writes `timeline.csv` under `dir`
/// and returns the sparkline text for stdout.
pub fn render_dir(dir: &Path) -> Result<String, String> {
    let modules = load_dir(dir)?;
    let mut csv = CsvWriter::new(&["module", "series", "kind", "t_ms", "width_ms", "value"]);
    let mut out = String::new();
    use std::fmt::Write as _;
    for (module, lines) in &modules {
        if lines.is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {module} ==");
        // Group into per-series vectors, keeping file (export) order.
        let mut order: Vec<(String, String)> = Vec::new();
        let mut grouped: BTreeMap<(String, String), Vec<&TsLine>> = BTreeMap::new();
        for line in lines {
            let key = (line.series.clone(), line.kind.clone());
            if !grouped.contains_key(&key) {
                order.push(key.clone());
            }
            grouped.entry(key).or_default().push(line);
        }
        for key in &order {
            let series = &grouped[key];
            for line in series {
                csv.row(&[
                    module.clone(),
                    line.series.clone(),
                    line.kind.clone(),
                    line.t_ms.to_string(),
                    line.width_ms.to_string(),
                    format_value(line.headline()),
                ]);
            }
            let values: Vec<f64> = series.iter().map(|l| l.headline()).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let _ = writeln!(
                out,
                "  {:<34} {} [{} .. {}]",
                format!("{} ({})", key.0, key.1),
                sparkline(&values),
                format_value(lo),
                format_value(hi),
            );
        }
        let curves = derived_curves(lines);
        if !curves.is_empty() {
            let hit: Vec<f64> = curves.iter().map(|&(_, h, _)| h).collect();
            let qps: Vec<f64> = curves.iter().map(|&(_, _, q)| q).collect();
            for (t, h, q) in &curves {
                csv.row(&[
                    module.clone(),
                    "hit_rate".into(),
                    "derived".into(),
                    t.to_string(),
                    String::new(),
                    format_value(*h),
                ]);
                csv.row(&[
                    module.clone(),
                    "upstream_qps".into(),
                    "derived".into(),
                    t.to_string(),
                    String::new(),
                    format_value(*q),
                ]);
            }
            let span = |v: &[f64]| {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                (format_value(lo), format_value(hi))
            };
            let (hlo, hhi) = span(&hit);
            let (qlo, qhi) = span(&qps);
            let _ = writeln!(
                out,
                "  {:<34} {} [{hlo} .. {hhi}]",
                "hit_rate (derived)",
                sparkline(&hit)
            );
            let _ = writeln!(
                out,
                "  {:<34} {} [{qlo} .. {qhi}]",
                "upstream_qps (derived)",
                sparkline(&qps)
            );
        }
    }
    std::fs::write(dir.join("timeline.csv"), csv.finish())
        .map_err(|e| format!("cannot write timeline.csv: {e}"))?;
    Ok(out)
}

/// Compact numeric formatting for CSV cells and sparkline ranges:
/// integers render bare, fractions keep three decimals.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"series\":\"resolver_client_queries\",\"kind\":\"counter\",\"t_ms\":0,\"width_ms\":60000,\"value\":10}\n",
        "{\"series\":\"resolver_client_queries\",\"kind\":\"counter\",\"t_ms\":60000,\"width_ms\":60000,\"value\":20}\n",
        "{\"series\":\"resolver_cache_hits\",\"kind\":\"counter\",\"t_ms\":0,\"width_ms\":60000,\"value\":5}\n",
        "{\"series\":\"resolver_cache_hits\",\"kind\":\"counter\",\"t_ms\":60000,\"width_ms\":60000,\"value\":18}\n",
        "{\"series\":\"resolver_upstream_queries\",\"kind\":\"counter\",\"t_ms\":0,\"width_ms\":60000,\"value\":6}\n",
        "{\"series\":\"lat\",\"kind\":\"sketch\",\"t_ms\":0,\"width_ms\":60000,\"count\":3,\"sum\":90,\"p50\":30,\"p90\":40,\"p99\":41,\"p999\":41}\n",
    );

    #[test]
    fn parses_and_derives_curves() {
        let lines = parse_timeseries_jsonl(SAMPLE).unwrap();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0].headline(), 10.0);
        assert_eq!(lines[5].get("p99"), Some(41.0));
        let curves = derived_curves(&lines);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].0, 0);
        assert!((curves[0].1 - 0.5).abs() < 1e-9, "hit rate 5/10");
        assert!((curves[0].2 - 0.1).abs() < 1e-9, "6 upstream / 60 s");
        assert!((curves[1].1 - 0.9).abs() < 1e-9, "hit rate 18/20");
        assert_eq!(curves[1].2, 0.0, "no upstream bucket at 60 s");
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]).chars().count(), 3);
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn render_dir_writes_csv_and_sparklines() {
        let dir = std::env::temp_dir().join(format!("ttl-timeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(RunFile::Timeseries.name("mod")), SAMPLE).unwrap();
        let out = render_dir(&dir).unwrap();
        assert!(out.contains("== mod =="));
        assert!(out.contains("hit_rate (derived)"));
        let csv = std::fs::read_to_string(dir.join("timeline.csv")).unwrap();
        assert!(csv.starts_with("module,series,kind,t_ms,width_ms,value"));
        assert!(csv.contains("mod,hit_rate,derived,0,,0.5"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
