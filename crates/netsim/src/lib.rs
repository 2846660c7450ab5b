//! # dnsttl-netsim — deterministic discrete-event network substrate
//!
//! The reproduced paper measures the live Internet: RIPE Atlas probes in
//! six continents querying authoritative servers in Frankfurt, with and
//! without anycast. This crate replaces that testbed with a fully
//! deterministic simulation:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution simulated
//!   clock (no wall-clock reads anywhere in the workspace);
//! * [`drive`] — the one client driver: every client population asks
//!   in time order, ties in schedule order, so runs are bit-for-bit
//!   reproducible;
//! * [`TimingWheel`] — the hierarchical timing wheel backing the client
//!   driver and the Zipf campaign's sweep: O(1) inserts, amortized-O(1)
//!   pops, deterministic `(time, tie)` drain order;
//! * [`SimRng`] — a seedable xoshiro256** generator with the
//!   distribution helpers the latency model needs (uniform, normal,
//!   log-normal, Zipf);
//! * [`Region`] and [`LatencyModel`] — per-region-pair RTT distributions
//!   calibrated so that intra-region medians sit near 10–30 ms and
//!   inter-continental paths near 100–300 ms, matching the magnitudes in
//!   the paper's Figures 10–11;
//! * [`Network`] — the message fabric: unicast and anycast service
//!   addresses, per-exchange RTT sampling, loss, scripted faults
//!   ([`FaultPlan`]), and server registration.
//!
//! The fabric is synchronous-by-exchange: a resolver asks the network to
//! perform one query/response exchange and receives the response plus the
//! sampled RTT. The schedule is [`drive`]'s: a client's ask is a plain
//! closure that resolves and returns the gap to its next ask, so the
//! resolver logic stays testable without callback plumbing — the same
//! sans-I/O approach smoltcp takes for TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod latency;
pub mod network;
pub mod rng;
pub mod time;
pub mod wheel;

pub use event::drive;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use latency::{LatencyModel, Region};
pub use network::{
    ClientId, DnsService, ExchangeOutcome, Network, ServiceAddr, ServiceHandle, Transport,
};
pub use rng::{shard_seed, SimRng};
pub use time::{SimDuration, SimTime};
pub use wheel::TimingWheel;
