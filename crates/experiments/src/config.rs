//! Experiment configuration.

use dnsttl_telemetry::{Telemetry, DEFAULT_TS_BUCKET_MS, DEFAULT_TS_SPAN_CAP};
use std::path::PathBuf;

/// Shared knobs for all experiments.
///
/// Defaults run every experiment in seconds-to-a-minute each at
/// reduced-but-faithful scale; [`ExpConfig::paper_scale`] matches the
/// paper's populations (minutes per experiment); [`ExpConfig::quick`]
/// is for unit/integration tests.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Master seed; every experiment forks its own stream from it.
    pub seed: u64,
    /// Atlas-style probe population (paper: ~9 000).
    pub probes: usize,
    /// Fraction of the full list sizes used by the §5 crawls.
    pub crawl_scale: f64,
    /// Resolver population for the passive `.nl` study (paper: 205k
    /// resolver IPs).
    pub nl_resolvers: usize,
    /// Observation window for the passive `.nl` study, hours
    /// (paper: 48).
    pub nl_hours: u64,
    /// Where to write CSV series; `None` disables file output.
    pub out_dir: Option<PathBuf>,
    /// Worker threads for the cell engine (`--shards`). Campaigns run
    /// on their fixed logical cells whatever this is, on `n` workers or
    /// on one for `None`, and output is byte-identical for every `n`
    /// (see DESIGN.md §10). For fig10 only, `None` means the legacy
    /// engine: one global population on one event queue.
    pub shards: Option<usize>,
    /// Logical cell count for cell campaigns — a power of two
    /// (`--cells`). Unlike `shards` (a pure throughput knob), the cell
    /// count **is part of the experiment's identity**: it fixes the
    /// probe partition and the per-cell RNG streams, so outputs are
    /// only comparable at a fixed cell count. `None` keeps each
    /// module's default — the classic 16-cell layout for the paper
    /// experiments, 64 for the scale campaigns (enough cells to
    /// saturate an 8-worker fan-out with headroom). Both defaults are
    /// host-independent, so a default run is reproducible anywhere.
    pub cells: Option<usize>,
    /// Observability handle experiments attach to the worlds they
    /// build. Disabled by default; `repro` swaps in an enabled handle
    /// per module to collect metrics, traces, and manifests.
    pub telemetry: Telemetry,
    /// Initial sim-time series bucket width (milliseconds) of the
    /// module handle `run_module` builds. The cell engine gives every
    /// cell's handle the shape of the handle it reports into, so shard
    /// merges see nesting bucket boundaries.
    pub ts_bucket_ms: u64,
    /// Span cap for sim-time series: a series coarsens (bucket width
    /// ×2) whenever its dense bucket span would exceed this.
    pub ts_span_cap: usize,
    /// Live campaign progress (`--progress`): off (default) is silent;
    /// on prints a heartbeat line to stderr every two wall-clock
    /// seconds as campaigns complete cells. Never enters any
    /// artifact, so determinism is untouched.
    pub progress: bool,
}

impl Default for ExpConfig {
    fn default() -> ExpConfig {
        ExpConfig {
            seed: 42,
            probes: 3_000,
            crawl_scale: 0.02,
            nl_resolvers: 6_000,
            nl_hours: 48,
            out_dir: Some(PathBuf::from("target/experiments")),
            shards: None,
            cells: None,
            telemetry: Telemetry::disabled(),
            ts_bucket_ms: DEFAULT_TS_BUCKET_MS,
            ts_span_cap: DEFAULT_TS_SPAN_CAP,
            progress: false,
        }
    }
}

impl ExpConfig {
    /// Paper-scale populations (slow; use `--release`).
    pub fn paper_scale() -> ExpConfig {
        ExpConfig {
            probes: 9_000,
            crawl_scale: 1.0,
            nl_resolvers: 205_000,
            ..ExpConfig::default()
        }
    }

    /// Tiny populations for tests.
    pub fn quick() -> ExpConfig {
        ExpConfig {
            probes: 400,
            crawl_scale: 0.005,
            nl_resolvers: 800,
            nl_hours: 24,
            out_dir: None,
            ..ExpConfig::default()
        }
    }

    /// The seed for a named sub-experiment, derived deterministically.
    pub fn seed_for(&self, tag: &str) -> u64 {
        dnsttl_wire::fnv1a(self.seed ^ 0x9E37_79B9_7F4A_7C15, tag.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_by_tag_but_are_stable() {
        let cfg = ExpConfig::default();
        assert_ne!(cfg.seed_for("fig1"), cfg.seed_for("fig2"));
        assert_eq!(cfg.seed_for("fig1"), cfg.seed_for("fig1"));
        let other = ExpConfig {
            seed: 43,
            ..ExpConfig::default()
        };
        assert_ne!(cfg.seed_for("fig1"), other.seed_for("fig1"));
    }

    #[test]
    fn default_cells_defer_to_module_defaults() {
        assert_eq!(ExpConfig::default().cells, None);
        assert_eq!(ExpConfig::quick().cells, None);
    }

    #[test]
    fn quick_is_smaller_than_default() {
        let q = ExpConfig::quick();
        let d = ExpConfig::default();
        assert!(q.probes < d.probes);
        assert!(q.out_dir.is_none());
    }
}
