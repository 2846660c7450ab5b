//! Effective-TTL computation.
//!
//! "Which TTLs matter?" (§2 of the paper) answered as a function: given
//! the TTLs published in the parent and child and a resolver policy,
//! what cache lifetime does each kind of record actually get?

use crate::policy::{Centricity, ResolverPolicy};
use dnsttl_wire::Ttl;

/// Whether a zone's name servers are named inside or outside the zone
/// they serve (RFC 8499 "in bailiwick").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bailiwick {
    /// `ns1.example.org` serving `example.org`: glue records required;
    /// NS and address lifetimes are *coupled* in most resolvers (§4.2).
    In,
    /// `ns1.example.com` serving `example.org`: addresses fetched
    /// separately from the server's own zone and cached independently
    /// for their full TTL (§4.3).
    Out,
}

/// The TTLs a zone owner (and its parent) publish for a delegation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishedTtls {
    /// NS TTL in the parent zone (the delegation / glue TTL — 172 800 s
    /// for anything delegated from the root).
    pub parent_ns: Ttl,
    /// NS TTL in the child zone's own authoritative data.
    pub child_ns: Ttl,
    /// Address (A/AAAA) TTL for the name server host, as published by
    /// whoever owns that host's zone (the parent's glue for
    /// in-bailiwick, the host's own zone when out of bailiwick).
    pub parent_addr: Ttl,
    /// Address TTL in the child/host zone.
    pub child_addr: Ttl,
}

impl PublishedTtls {
    /// The `.uy` configuration before the paper's intervention (§3.2):
    /// root glue at 2 days, child NS at 300 s, child address at 120 s.
    pub fn uy_before() -> PublishedTtls {
        PublishedTtls {
            parent_ns: Ttl::TWO_DAYS,
            child_ns: Ttl::from_secs(300),
            parent_addr: Ttl::TWO_DAYS,
            child_addr: Ttl::from_secs(120),
        }
    }
}

/// The cache lifetimes a resolver policy actually yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectiveTtl {
    /// Effective lifetime of the NS RRset in this resolver's cache.
    pub ns: Ttl,
    /// Effective lifetime of the name server's address record.
    pub addr: Ttl,
    /// True when the address's lifetime was shortened by NS-expiry
    /// coupling rather than by its own TTL.
    pub addr_coupled_to_ns: bool,
}

/// Computes the effective TTLs for one (resolver policy, zone
/// configuration) pair.
///
/// The rules condensed from the paper:
///
/// * a **child-centric** resolver uses the child's NS/address TTLs once
///   it has heard from the child (RFC 2181 §5.4.1 ranking);
/// * a **parent-centric** resolver keeps the referral's TTLs;
/// * a policy cap clamps whatever was chosen;
/// * **in-bailiwick** server addresses live at most as long as the NS
///   RRset when the policy links them (`link_inbailiwick_glue`) —
///   "in-domain servers have tied NS and A record cache times in
///   practice" (§4.2);
/// * **out-of-bailiwick** addresses always get their own full lifetime
///   (§4.3).
///
/// ```
/// use dnsttl_core::{effective_ttl, Bailiwick, PublishedTtls, ResolverPolicy};
/// // .uy before the change, seen by a default (child-centric) resolver:
/// let eff = effective_ttl(&ResolverPolicy::default(), &PublishedTtls::uy_before(), Bailiwick::In);
/// assert_eq!(eff.ns.as_secs(), 300);    // child NS TTL wins
/// assert_eq!(eff.addr.as_secs(), 120);  // shorter than NS, kept
/// ```
pub fn effective_ttl(
    policy: &ResolverPolicy,
    published: &PublishedTtls,
    bailiwick: Bailiwick,
) -> EffectiveTtl {
    let (ns_raw, addr_raw) = match policy.centricity {
        Centricity::ChildCentric => (published.child_ns, published.child_addr),
        Centricity::ParentCentric => (published.parent_ns, published.parent_addr),
    };
    let ns = policy.clamp_ttl(ns_raw);
    let mut addr = policy.clamp_ttl(addr_raw);
    let mut coupled = false;
    if bailiwick == Bailiwick::In && policy.link_inbailiwick_glue && addr > ns {
        addr = ns;
        coupled = true;
    }
    EffectiveTtl {
        ns,
        addr,
        addr_coupled_to_ns: coupled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ResolverPolicy;

    #[test]
    fn child_centric_uses_child_ttls() {
        let eff = effective_ttl(
            &ResolverPolicy::default(),
            &PublishedTtls::uy_before(),
            Bailiwick::In,
        );
        assert_eq!(eff.ns.as_secs(), 300);
        assert_eq!(eff.addr.as_secs(), 120);
        assert!(!eff.addr_coupled_to_ns);
    }

    #[test]
    fn parent_centric_uses_parent_ttls() {
        let eff = effective_ttl(
            &ResolverPolicy::parent_centric(),
            &PublishedTtls::uy_before(),
            Bailiwick::In,
        );
        assert_eq!(eff.ns, Ttl::TWO_DAYS);
        assert_eq!(eff.addr, Ttl::TWO_DAYS);
    }

    #[test]
    fn in_bailiwick_couples_long_addr_to_short_ns() {
        // The §4.2 setup: NS 3600 s, A 7200 s, in bailiwick. Effective
        // address lifetime collapses to the NS's 3600 s.
        let published = PublishedTtls {
            parent_ns: Ttl::HOUR,
            child_ns: Ttl::HOUR,
            parent_addr: Ttl::from_secs(7_200),
            child_addr: Ttl::from_secs(7_200),
        };
        let eff = effective_ttl(&ResolverPolicy::default(), &published, Bailiwick::In);
        assert_eq!(eff.addr, Ttl::HOUR);
        assert!(eff.addr_coupled_to_ns);
    }

    #[test]
    fn out_of_bailiwick_keeps_full_addr_lifetime() {
        // The §4.3 setup: same TTLs, server outside the zone. The
        // address keeps its full 7200 s.
        let published = PublishedTtls {
            parent_ns: Ttl::HOUR,
            child_ns: Ttl::HOUR,
            parent_addr: Ttl::from_secs(7_200),
            child_addr: Ttl::from_secs(7_200),
        };
        let eff = effective_ttl(&ResolverPolicy::default(), &published, Bailiwick::Out);
        assert_eq!(eff.addr.as_secs(), 7_200);
        assert!(!eff.addr_coupled_to_ns);
    }

    #[test]
    fn unlinked_policy_keeps_addr_even_in_bailiwick() {
        let policy = ResolverPolicy {
            link_inbailiwick_glue: false,
            ..ResolverPolicy::default()
        };
        let published = PublishedTtls {
            parent_ns: Ttl::HOUR,
            child_ns: Ttl::HOUR,
            parent_addr: Ttl::from_secs(7_200),
            child_addr: Ttl::from_secs(7_200),
        };
        let eff = effective_ttl(&policy, &published, Bailiwick::In);
        assert_eq!(eff.addr.as_secs(), 7_200);
    }

    #[test]
    fn capping_clamps_long_child_ttls() {
        // google.co: parent 900 s, child 345600 s; a Google-like
        // resolver caps the child value at 21599 s (Figure 2's step).
        let published = PublishedTtls {
            parent_ns: Ttl::from_secs(900),
            child_ns: Ttl::from_secs(345_600),
            parent_addr: Ttl::from_secs(900),
            child_addr: Ttl::from_secs(345_600),
        };
        let eff = effective_ttl(&ResolverPolicy::google_like(), &published, Bailiwick::Out);
        assert_eq!(eff.ns.as_secs(), 21_599);
    }

    #[test]
    fn coupling_never_lengthens_addr() {
        // NS longer than address: coupling must not extend the address.
        let published = PublishedTtls {
            parent_ns: Ttl::DAY,
            child_ns: Ttl::DAY,
            parent_addr: Ttl::HOUR,
            child_addr: Ttl::HOUR,
        };
        let eff = effective_ttl(&ResolverPolicy::default(), &published, Bailiwick::In);
        assert_eq!(eff.addr, Ttl::HOUR);
        assert!(!eff.addr_coupled_to_ns);
    }
}
