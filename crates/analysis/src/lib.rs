//! # dnsttl-analysis — measurement analysis toolkit
//!
//! The paper's evaluation artifacts are distributions and time series:
//! CDFs of observed TTLs (Figures 1, 2, 9), CDFs of query counts and
//! interarrival times (Figures 3, 4), renumbering time series
//! (Figures 6, 7), latency CDFs and per-region quantile plots
//! (Figures 10, 11), and many count tables. This crate provides the
//! numeric and presentation machinery to produce all of them:
//!
//! * [`Ecdf`] — empirical CDFs with exact quantiles;
//! * [`ArrivalFold`] — per-key arrival counts and minimum interarrivals,
//!   folded as arrivals come in (the §3.4 passive-resolver
//!   classification);
//! * [`TimeSeries`] — binned categorical counts over simulated time;
//! * [`classify_ttl_series`] — per-VP behaviour attribution
//!   (child-/parent-centric, TTL capping, RFC 7706 mirrors);
//! * [`Table`] — monospace tables shaped like the paper's;
//! * [`ascii_cdf_multi`] / [`ascii_cdf_log`] — terminal CDF plots for
//!   quick visual comparison;
//! * [`CsvWriter`] — dataset export for external plotting.
//!
//! Everything here is deterministic and free of I/O except the explicit
//! CSV writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod classify;
pub mod csv;
pub mod ecdf;
pub mod events;
pub mod table;
pub mod timeseries;

pub use chart::{ascii_cdf_log, ascii_cdf_multi};
pub use classify::{classify_ttl_series, BehaviorCensus, TtlBehavior};
pub use csv::CsvWriter;
pub use ecdf::Ecdf;
pub use events::{ArrivalFold, ArrivalStats};
pub use table::Table;
pub use timeseries::TimeSeries;
