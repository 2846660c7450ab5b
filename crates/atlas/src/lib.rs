//! # dnsttl-atlas — a RIPE-Atlas-style measurement platform
//!
//! The paper's active experiments all have the same geometry: ~9k
//! probes scattered across six continents, each with one or more
//! recursive resolvers, issue the same DNS question every few hundred
//! seconds for a few hours, and record the response's TTL, contents,
//! and round-trip time. A *vantage point* (VP) is a (probe, resolver)
//! pair — the unit all of the paper's CDFs are drawn over.
//!
//! This crate reproduces that geometry over the simulated network:
//!
//! * [`Population`] — probes with Atlas-like regional skew, local
//!   resolvers, and shared public-resolver infrastructure (many probes
//!   behind the same Google-/OpenDNS-style cache, which is how cache
//!   sharing and TTL decrementation become visible in Figures 1–2);
//! * [`MeasurementSpec`] — a periodic query schedule, with fixed or
//!   per-probe (`PROBEID.…`) query names and a configurable duration,
//!   mirroring the parameters in the paper's Table 2 / Table 3;
//! * [`run_measurement`] — drives the schedule through the event queue
//!   and collects a [`Dataset`] of per-query results, with the same
//!   valid/discard bookkeeping the paper reports (hijacked or broken
//!   probes are simulated and discarded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod measurement;
pub mod population;
mod progress;
pub mod scale;
pub mod shard;

pub use dataset::{Dataset, MeasurementResult};
pub use measurement::{
    run_measurement, run_measurement_with_hooks, Hook, MeasurementSpec, QueryName,
};
pub use population::{
    DiurnalCurve, Population, PopulationConfig, Probe, ResolverRef, Slots, ZipfSampler,
};
pub use scale::{
    run_zipf_campaign, run_zipf_campaign_profiled, run_zipf_cell, ProbeFrame, Rows,
    ZipfCampaignConfig, ZipfCellOut, ZipfDataset, ZipfEngine, ZipfOutcome, ZipfRow, ZipfRunOpts,
};
pub use shard::{
    fan_out, measure_population, merge_by_time, partition, partition_bases, population_campaign,
    FanOut, MergeByTime, ShardProfile, ShardedOutcome, LOGICAL_SHARDS,
};
