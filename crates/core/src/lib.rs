//! # dnsttl-core — the effective-TTL model
//!
//! The central insight of *Cache Me If You Can* (IMC 2019) is that the
//! TTL a zone owner writes in a zone file is **not** the cache lifetime
//! clients experience. The *effective TTL* emerges from the interaction
//! of:
//!
//! 1. **where** the record is served from (parent glue vs child
//!    authoritative data),
//! 2. **which** copy a resolver prefers ([`Centricity`]),
//! 3. **resolver policy** — caps, serve-stale, stickiness
//!    ([`ResolverPolicy`]),
//! 4. **bailiwick coupling** — in-bailiwick server addresses expire with
//!    their covering NS records ([`Bailiwick`], §4 of the paper).
//!
//! This crate models that interaction analytically:
//!
//! * [`ResolverPolicy`] — the policy space observed in the wild, with
//!   named profiles for the behaviours the paper identifies (BIND-like
//!   child-centric resolvers, Google-style TTL capping, OpenDNS-style
//!   parent-centric root mirroring);
//! * [`EffectiveTtl`] and [`effective_ttl`] — compute the cache lifetime
//!   a given resolver policy yields for a record published with
//!   different parent/child TTLs;
//! * [`hit_rate`] and friends — the Jung-et-al-style analytic cache
//!   model that converts TTLs and query rates into hit ratios, latency
//!   expectations, and authoritative query volumes (the quantities in
//!   the paper's Table 10 and Figure 11);
//! * [`recommend()`](recommend::recommend) — the operator guidance of §6 as an executable
//!   decision procedure.
//!
//! The simulation crates (`dnsttl-resolver`, `dnsttl-atlas`) *implement*
//! these policies mechanically; this crate states them declaratively so
//! that experiments can compare "what the model predicts" with "what the
//! simulated population did".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effective;
pub mod lint;
pub mod migration;
pub mod policy;
pub mod recommend;
pub mod tradeoff;

pub use effective::{effective_ttl, Bailiwick, EffectiveTtl, PublishedTtls};
pub use lint::{lint_zone, LintContext, LintFinding, ParentInfo, Severity};
pub use migration::{plan_migration, MigrationPlan, MigrationSpec, MigrationStep};
pub use policy::{Centricity, PolicyMix, ResolverPolicy};
pub use recommend::{recommend, TtlRecommendation, ZoneProfile};
pub use tradeoff::{authoritative_load, expected_latency_ms, hit_rate};
