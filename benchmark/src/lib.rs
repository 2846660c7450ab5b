//! A calibrated, count-anchored end-to-end benchmark for the dnsttl
//! simulator, with layer attribution measured from outside the crates.
//!
//! See `README.md` for the method, the workloads and the metric tables.
//! All times here are **host** time; every `sim.*` value is simulated.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod host;
pub mod kernels;
pub mod output;
pub mod replay;
pub mod selfcheck;
pub mod span;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
