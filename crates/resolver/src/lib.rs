//! # dnsttl-resolver — a policy-parameterised recursive resolver
//!
//! The recursive resolver is where every question in the paper gets
//! decided: which TTL wins when parent and child disagree, how long a
//! name server's address survives in cache, and what latency a client
//! sees. This crate implements a complete iterative resolver whose
//! behaviour is a function of a [`ResolverPolicy`](dnsttl_core::ResolverPolicy):
//!
//! * **credibility-ranked cache** ([`cache`]) per RFC 2181 §5.4.1 —
//!   authoritative answers outrank referral authority data, which
//!   outranks glue; parent-centric policies invert the child's
//!   precedence;
//! * **iterative resolution** ([`resolver`]) from root hints, with
//!   referral chasing, CNAME chains, out-of-bailiwick server-address
//!   sub-resolution, retries, and lame-delegation handling;
//! * **negative caching** per RFC 2308 (SOA-bounded);
//! * the paper's observed behaviours as policy: TTL capping (Figure 2's
//!   21 599 s step), serve-stale, RFC 7706 local root (answers with the
//!   parent's full TTL, §3.2's OpenDNS observation), sticky server
//!   choice (§4.4), and in-bailiwick glue replacement (§4.2's coupled
//!   NS/A lifetimes).
//!
//! The resolver talks to authoritative servers through the
//! [`Network`](dnsttl_netsim::Network) fabric and accounts every
//! exchange's RTT, so experiments can measure client-observed latency
//! distributions (the paper's Figures 10–11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod ledger;
pub mod resolver;
pub mod snapshot;

pub use cache::{Cache, CachedAnswer, Credibility};
pub use ledger::{
    BailiwickClass, CacheOp, CacheStats, Ledger, LedgerCell, LedgerKey, LedgerRecord, Provenance,
    RecordOrigin, StoreContext,
};
pub use resolver::ResolutionVerdict;
pub use resolver::{Labels, RecursiveResolver, ResolutionOutcome, ResolverStats, RootHint};
pub use snapshot::{CacheSnapshot, SnapshotDiff, SnapshotEntry};

/// The name `benchmark/src/kernels.rs` imports for the cache a resolver
/// holds. That is [`Cache`] itself; the alias is kept for `benchmark/`
/// until ROADMAP item 3(ii) spells it `Cache` there, and goes then.
pub type CacheEngine = Cache;
