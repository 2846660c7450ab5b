//! # dnsttl — *Cache Me If You Can: Effects of DNS Time-to-Live*, as a library
//!
//! A full reproduction of the IMC 2019 paper by Moura, Heidemann,
//! Schmidt and Hardaker, built as a deterministic simulation of the DNS
//! ecosystem. The workspace contains everything the paper's experiments
//! need, implemented from scratch:
//!
//! * [`wire`] — the DNS data model and RFC 1035 wire codec;
//! * [`auth`] — authoritative servers: zones, delegations, glue,
//!   referrals, renumbering, passive query logs;
//! * [`resolver`] — a recursive resolver whose cache implements the
//!   full policy space the paper observes in the wild (parent/child
//!   centricity, TTL caps, bailiwick-coupled lifetimes, serve-stale,
//!   RFC 7706 local root, stickiness);
//! * [`netsim`] — the deterministic clock / RTT / anycast substrate;
//! * [`atlas`] — a RIPE-Atlas-style measurement platform;
//! * [`analysis`] — ECDFs, interarrivals, tables, plots;
//! * [`crawl`] — calibrated synthetic top-lists and the §5 TTL crawler;
//! * [`core`] — the paper's contribution distilled into an analytic
//!   model: effective TTLs, cache-hit/latency trade-offs, and the §6
//!   operator recommendations;
//! * [`experiments`] — one module per table and figure;
//! * [`telemetry`] — metrics, simulation-time tracing and run manifests
//!   (the cache ledger belongs to the resolver).
//!
//! What the simulator costs is checked as counts by the tests under
//! `tests/` (allocations per question, per fan-out, per traced hit) and
//! timed across commits by the separate `benchmark/` package.
//!
//! ## Quickstart
//!
//! ```
//! use dnsttl::core::{effective_ttl, Bailiwick, PublishedTtls, ResolverPolicy};
//!
//! // .uy in early 2019: the root said two days, the child said 300 s.
//! let eff = effective_ttl(
//!     &ResolverPolicy::default(),
//!     &PublishedTtls::uy_before(),
//!     Bailiwick::In,
//! );
//! assert_eq!(eff.ns.as_secs(), 300); // child-centric resolvers obey the child
//! ```
//!
//! See `examples/` for end-to-end simulations and the `repro` binary
//! (in `dnsttl-experiments`) for the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dnsttl_analysis as analysis;
pub use dnsttl_atlas as atlas;
pub use dnsttl_auth as auth;
pub use dnsttl_core as core;
pub use dnsttl_crawl as crawl;
pub use dnsttl_experiments as experiments;
pub use dnsttl_netsim as netsim;
pub use dnsttl_resolver as resolver;
pub use dnsttl_telemetry as telemetry;
pub use dnsttl_wire as wire;
