//! Run manifests: the provenance record written next to every
//! experiment's CSVs.
//!
//! A manifest captures everything needed to re-run and audit an
//! experiment: the seed, the policy mix and world configuration, the
//! simulated duration, per-event-kind totals, and the workspace crate
//! versions. Wall-clock time is deliberately **not** part of the file —
//! same-seed reruns must produce byte-identical manifests — so callers
//! report wall time on stderr instead.

use crate::json::{ObjectWriter, Value};

/// Builder/record for one run's provenance.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Experiment identifier, e.g. `fig6` or `sdig`.
    pub experiment: String,
    /// The RNG seed the run was started from.
    pub seed: u64,
    /// Simulated duration of the run, in milliseconds.
    pub sim_duration_ms: u64,
    /// Human-readable world configuration notes (zone counts, regions,
    /// loss rates, …), in insertion order.
    pub world: Vec<(String, Value)>,
    /// The resolver policy mix (policy name → share or description).
    pub policies: Vec<(String, Value)>,
    /// Per-event-kind totals from the tracer.
    pub event_counts: Vec<(String, u64)>,
    /// Trace events dropped by the bounded ring.
    pub trace_dropped: u64,
    /// Drop totals split by the kind of the evicted event (empty when
    /// nothing was dropped).
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// Every file the run wrote besides the manifest itself: CSVs,
    /// snapshots, the trace, time series and metrics.
    pub artifacts: Vec<String>,
    /// Extra experiment-specific fields, in insertion order.
    pub extra: Vec<(String, Value)>,
}

impl RunManifest {
    /// A manifest for `experiment` seeded with `seed`.
    pub fn new(experiment: &str, seed: u64) -> RunManifest {
        RunManifest {
            experiment: experiment.to_string(),
            seed,
            ..RunManifest::default()
        }
    }

    /// Adds a world-configuration note.
    pub fn world_note(&mut self, key: &str, value: impl Into<Value>) -> &mut RunManifest {
        self.world.push((key.to_string(), value.into()));
        self
    }

    /// Adds a policy-mix entry.
    pub fn policy(&mut self, name: &str, value: impl Into<Value>) -> &mut RunManifest {
        self.policies.push((name.to_string(), value.into()));
        self
    }

    /// Adds an experiment-specific field.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) -> &mut RunManifest {
        self.extra.push((key.to_string(), value.into()));
        self
    }

    /// Records an artifact path.
    pub fn artifact(&mut self, path: impl Into<String>) -> &mut RunManifest {
        self.artifacts.push(path.into());
        self
    }

    /// The workspace crates and their (shared) version, for the
    /// `versions` block.
    pub(crate) fn workspace_versions() -> Vec<(String, String)> {
        let version = env!("CARGO_PKG_VERSION").to_string();
        [
            "dnsttl-wire",
            "dnsttl-core",
            "dnsttl-netsim",
            "dnsttl-auth",
            "dnsttl-resolver",
            "dnsttl-atlas",
            "dnsttl-analysis",
            "dnsttl-crawl",
            "dnsttl-experiments",
            "dnsttl-telemetry",
        ]
        .iter()
        .map(|name| (name.to_string(), version.clone()))
        .collect()
    }

    /// Renders the manifest as deterministic, lightly indented JSON.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field("experiment", &Value::Str(self.experiment.clone()));
        w.field("seed", &Value::U64(self.seed));
        w.field("sim_duration_ms", &Value::U64(self.sim_duration_ms));

        let mut world = ObjectWriter::new();
        for (k, v) in &self.world {
            world.field(k, v);
        }
        w.field_raw("world", &world.finish());

        let mut policies = ObjectWriter::new();
        for (k, v) in &self.policies {
            policies.field(k, v);
        }
        w.field_raw("policies", &policies.finish());

        let mut events = ObjectWriter::new();
        for (k, v) in &self.event_counts {
            events.field(k, &Value::U64(*v));
        }
        w.field_raw("event_counts", &events.finish());
        w.field("trace_dropped", &Value::U64(self.trace_dropped));
        if !self.trace_dropped_by_kind.is_empty() {
            let mut drops = ObjectWriter::new();
            for (k, v) in &self.trace_dropped_by_kind {
                drops.field(k, &Value::U64(*v));
            }
            w.field_raw("trace_dropped_by_kind", &drops.finish());
        }

        w.field_str_array("artifacts", &self.artifacts);

        let mut versions = ObjectWriter::new();
        for (name, v) in Self::workspace_versions() {
            versions.field(&name, &Value::Str(v));
        }
        w.field_raw("versions", &versions.finish());

        for (k, v) in &self.extra {
            w.field(k, v);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_deterministic_and_excludes_wall_time() {
        let mut m = RunManifest::new("fig6", 42);
        m.sim_duration_ms = 3_600_000;
        m.world_note("zones", 12u64)
            .policy("default", 0.75)
            .note("renumber_at_s", 540u64)
            .artifact("fig6.csv");
        m.event_counts.push(("cache_expiry".to_string(), 99));
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"experiment\":\"fig6\""));
        assert!(a.contains("\"seed\":42"));
        assert!(a.contains("\"cache_expiry\":99"));
        assert!(a.contains("\"fig6.csv\""));
        assert!(!a.contains("wall"));
    }
}
