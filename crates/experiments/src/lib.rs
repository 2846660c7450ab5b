//! # dnsttl-experiments — the paper's evaluation, regenerated
//!
//! One module per artifact of *Cache Me If You Can* (IMC 2019):
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`table1`] | Table 1 — `a.nic.cl` TTLs at parent and child |
//! | [`centricity`] | Figures 1–2 and Table 2 — resolver centricity from Atlas VPs |
//! | [`passive_nl`] | Figures 3–4 — passive `.nl` resolver classification |
//! | [`bailiwick_exp`] | Figure 5–8, Tables 3–4 — in/out-of-bailiwick renumbering |
//! | [`crawl_exp`] | Table 5, Figure 9, Tables 6–9 — TTLs in the wild |
//! | [`uy_latency`] | Figure 10 — `.uy` before/after the TTL change |
//! | [`controlled`] | Table 10, Figure 11 — controlled TTL & anycast latency |
//! | [`extensions`] | beyond the figures: §4.4 offline-child, §2 DNSSEC centricity, §6.1 DDoS survival, analytic-model validation |
//! | [`insight`] | cache forensics: Tables 3–4's effective lifetimes re-derived from the provenance ledger (`repro cache-report`) |
//! | [`shared_cache`] | hit rate and latency vs TTL for one resolver for all clients vs partitioned resolvers (`repro shared-cache`) |
//!
//! Each `run(&ExpConfig)` returns a [`Report`]: printable text (tables
//! and ASCII CDFs), a machine-readable metric map used by the test
//! suite to assert the paper's qualitative findings, and optional CSV
//! dumps under `target/experiments/`.
//!
//! The `repro` binary runs any subset: `repro fig1 table10`, or
//! `repro all`, each module through [`artifacts::run_module`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod bailiwick_exp;
pub mod centricity;
pub mod config;
pub mod controlled;
pub mod crawl_exp;
pub mod extensions;
pub mod flightdeck;
pub mod insight;
pub mod passive_nl;
pub mod report;
pub mod resilience;
pub mod rundiff;
pub mod sharded;
pub mod shared_cache;
pub mod table1;
pub mod timeline;
pub mod uy_latency;
pub mod worlds;
pub mod zipf;

pub use config::ExpConfig;
pub use report::Report;
