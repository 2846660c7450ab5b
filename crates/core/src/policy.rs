//! The resolver policy space.
//!
//! §3 and §4 of the paper show that "the resolver population" is really
//! a mixture of policies: most resolvers are child-centric, a sizable
//! minority is parent-centric (some deliberately, via RFC 7706 root
//! mirroring), some cap TTLs, some serve stale data, and some stick to a
//! server long past its TTL. [`ResolverPolicy`] names every knob, and
//! [`PolicyMix`] expresses a weighted population of them.

use dnsttl_wire::Ttl;

/// Which copy of a record (and thus which TTL) a resolver prefers when
/// the parent's glue and the child's authoritative data disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Centricity {
    /// Prefers the child zone's authoritative records (RFC 2181 §5.4.1
    /// ranking). ~90% of queries in the paper's `.uy` experiment (§3.2).
    ChildCentric,
    /// Uses the parent's referral data without re-fetching from the
    /// child. ~10% of queries in §3.2; OpenDNS behaves this way for
    /// out-of-bailiwick NS (§4.4).
    ParentCentric,
}

/// A complete description of one resolver implementation's caching
/// behaviour — every behaviour the paper observes in the wild, as a
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverPolicy {
    /// Parent- or child-centric TTL preference.
    pub centricity: Centricity,
    /// Cap applied to every cached TTL. Google Public DNS caps at
    /// 21 599 s (§3.3); BIND defaults to one week.
    pub ttl_cap: Option<Ttl>,
    /// Floor applied to every cached TTL (some resolvers refuse to
    /// cache for less than tens of seconds, limiting CDN agility, §6.1).
    pub ttl_floor: Option<Ttl>,
    /// If true, a still-valid cached address record for an
    /// **in-bailiwick** name server is discarded when its covering NS
    /// record expires — the dominant behaviour in §4.2.
    pub link_inbailiwick_glue: bool,
    /// Serve-stale: maximum extra lifetime (RFC 8767's `max-stale`)
    /// during which expired records are served when all authoritative
    /// servers are unreachable. A refresh is always attempted first;
    /// stale data only bridges failures.
    pub serve_stale: Option<Ttl>,
    /// RFC 2308 §7 / RFC 8767 §5 failure caching: when resolution fails
    /// with every server dead, cache the failure for this long (capped
    /// at 5 minutes per RFC 2308) and answer follow-up queries from it
    /// — stale data if serve-stale allows, SERVFAIL otherwise — instead
    /// of re-hammering dead servers on every client query.
    pub upstream_failure_ttl: Option<Ttl>,
    /// Exponential backoff on dead servers: after a server times out
    /// on every retry, skip it for `base × 2^(consecutive failures − 1)`
    /// seconds (capped at 64× base). `None` disables the memory — every
    /// resolution probes every candidate again.
    pub server_backoff: Option<Ttl>,
    /// RFC 7706 / LocalRoot: the resolver mirrors the root zone locally
    /// and never queries the roots; root-zone data (including TLD glue)
    /// behaves parent-centrically with full parent TTLs.
    pub local_root: bool,
    /// Sticky: keeps using a responsive server it has already chosen,
    /// re-resolving only on failure (§4.4's "sticky resolvers").
    pub sticky: bool,
    /// How many times a query to an unresponsive server is retried
    /// before trying the next server / giving up.
    pub retries: u8,
    /// DNSSEC validation: answers from signed zones must carry a
    /// verifiable RRSIG or the resolver returns SERVFAIL (bogus).
    /// Validation makes a resolver structurally child-centric for
    /// answers — glue is never signed (§2 of the paper).
    pub validate_dnssec: bool,
    /// Prefetch (Pappas et al., the paper's \[40\]): when a cache hit
    /// finds less than ~10% of the original TTL remaining, refresh the
    /// entry in the background so the next client never pays the miss.
    pub prefetch: bool,
    /// QNAME minimisation (RFC 7816): send parents only the next label
    /// (as an NS query) instead of the full question. Privacy-driven,
    /// with a caching side effect: intermediate NS sets get cached at
    /// answer rank.
    pub qname_minimization: bool,
}

impl Default for ResolverPolicy {
    /// The RFC-faithful modern default: child-centric, one-week cap,
    /// glue-linking, no serve-stale, not sticky.
    fn default() -> ResolverPolicy {
        ResolverPolicy {
            centricity: Centricity::ChildCentric,
            ttl_cap: Some(Ttl::from_secs(604_800)),
            ttl_floor: None,
            link_inbailiwick_glue: true,
            serve_stale: None,
            upstream_failure_ttl: None,
            server_backoff: None,
            local_root: false,
            sticky: false,
            retries: 2,
            validate_dnssec: false,
            prefetch: false,
            qname_minimization: false,
        }
    }
}

impl ResolverPolicy {
    /// BIND-like: child-centric, one-week maximum cache time (§3.4
    /// mentions BIND's default max-cache-ttl).
    pub(crate) fn bind_like() -> ResolverPolicy {
        ResolverPolicy::default()
    }

    /// Unbound-like: child-centric, one-day cap, glue-linked.
    pub(crate) fn unbound_like() -> ResolverPolicy {
        ResolverPolicy {
            ttl_cap: Some(Ttl::DAY),
            ..ResolverPolicy::default()
        }
    }

    /// Google-Public-DNS-like: child-centric but caps TTLs at 21 599 s —
    /// the step visible in the paper's Figure 2.
    pub fn google_like() -> ResolverPolicy {
        ResolverPolicy {
            ttl_cap: Some(Ttl::from_secs(21_599)),
            ..ResolverPolicy::default()
        }
    }

    /// OpenDNS-like: parent-centric (trusts delegation data without
    /// re-fetching from the child; §4.4 demonstrates this by taking the
    /// child offline), effectively mirroring the root.
    pub fn opendns_like() -> ResolverPolicy {
        ResolverPolicy {
            centricity: Centricity::ParentCentric,
            local_root: true,
            ..ResolverPolicy::default()
        }
    }

    /// A plainly parent-centric resolver (older/simpler software that
    /// reuses referral data for its full TTL).
    pub fn parent_centric() -> ResolverPolicy {
        ResolverPolicy {
            centricity: Centricity::ParentCentric,
            ..ResolverPolicy::default()
        }
    }

    /// A sticky resolver: child-centric but clings to responsive
    /// servers past TTL expiry (§4.4, Table 4).
    pub fn sticky() -> ResolverPolicy {
        ResolverPolicy {
            sticky: true,
            ..ResolverPolicy::default()
        }
    }

    /// A serve-stale resolver (answers from expired cache while the
    /// authoritatives are down, per draft-ietf-dnsop-serve-stale).
    pub fn serve_stale_like() -> ResolverPolicy {
        ResolverPolicy {
            serve_stale: Some(Ttl::DAY),
            ..ResolverPolicy::default()
        }
    }

    /// A fully hardened resolver, the RFC 8767 + RFC 2308 §7 resilience
    /// stack: one-day serve-stale, 30 s failure caching (RFC 8767's
    /// recommended failure recheck interval), and exponential backoff
    /// on dead servers starting at 1 s.
    pub fn hardened() -> ResolverPolicy {
        ResolverPolicy {
            serve_stale: Some(Ttl::DAY),
            upstream_failure_ttl: Some(Ttl::from_secs(30)),
            server_backoff: Some(Ttl::from_secs(1)),
            ..ResolverPolicy::default()
        }
    }

    /// A DNSSEC-validating resolver: child-centric by necessity, and
    /// strict about signatures (bogus data becomes SERVFAIL).
    pub fn validating() -> ResolverPolicy {
        ResolverPolicy {
            validate_dnssec: true,
            ..ResolverPolicy::default()
        }
    }

    /// A prefetching resolver (refresh-ahead on nearly-expired
    /// entries), after Pappas et al.'s resilience proposals.
    pub fn prefetching() -> ResolverPolicy {
        ResolverPolicy {
            prefetch: true,
            ..ResolverPolicy::default()
        }
    }

    /// A QNAME-minimising resolver (RFC 7816): parents never see the
    /// full question.
    pub fn minimizing() -> ResolverPolicy {
        ResolverPolicy {
            qname_minimization: true,
            ..ResolverPolicy::default()
        }
    }

    /// Applies this policy's cap and floor to a received TTL.
    pub fn clamp_ttl(&self, ttl: Ttl) -> Ttl {
        let mut t = ttl;
        if let Some(cap) = self.ttl_cap {
            t = t.min(cap);
        }
        if let Some(floor) = self.ttl_floor {
            t = t.max(floor);
        }
        t
    }
}

/// A weighted mixture of resolver policies — the simulated population.
///
/// The default mixture is calibrated to the paper's observations:
/// roughly 90% child-centric behaviour in §3.2, a parent-centric
/// minority including RFC 7706 users, ~15% TTL capping visible in §3.3,
/// and the small sticky population of Table 4.
#[derive(Debug, Clone)]
pub struct PolicyMix {
    entries: Vec<(f64, ResolverPolicy)>,
}

impl PolicyMix {
    /// Builds a mixture from `(weight, policy)` pairs.
    ///
    /// # Panics
    /// Panics if no entry is given or any weight is negative.
    pub fn new(entries: Vec<(f64, ResolverPolicy)>) -> PolicyMix {
        assert!(!entries.is_empty(), "policy mix needs at least one entry");
        assert!(
            entries.iter().all(|(w, _)| *w >= 0.0),
            "negative weight in policy mix"
        );
        PolicyMix { entries }
    }

    /// The calibrated default population (see type-level docs).
    pub fn paper_population() -> PolicyMix {
        PolicyMix::new(vec![
            (0.62, ResolverPolicy::bind_like()),
            (0.10, ResolverPolicy::unbound_like()),
            (0.15, ResolverPolicy::google_like()),
            (0.055, ResolverPolicy::opendns_like()),
            (0.045, ResolverPolicy::parent_centric()),
            (0.03, ResolverPolicy::sticky()),
        ])
    }

    /// An all-child-centric population (controlled-experiment baseline).
    pub fn uniform(policy: ResolverPolicy) -> PolicyMix {
        PolicyMix::new(vec![(1.0, policy)])
    }

    /// The `(weight, policy)` entries.
    pub fn entries(&self) -> &[(f64, ResolverPolicy)] {
        &self.entries
    }

    /// Weights as a vector (for use with a weighted-index sampler).
    pub fn weights(&self) -> Vec<f64> {
        self.entries.iter().map(|(w, _)| *w).collect()
    }

    /// The policy at `index`.
    pub fn policy(&self, index: usize) -> &ResolverPolicy {
        &self.entries[index].1
    }

    /// Fraction of the population weight that is child-centric.
    pub(crate) fn child_centric_fraction(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|(w, _)| w).sum();
        let child: f64 = self
            .entries
            .iter()
            .filter(|(_, p)| p.centricity == Centricity::ChildCentric)
            .map(|(w, _)| w)
            .sum();
        child / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_child_centric_and_linked() {
        let p = ResolverPolicy::default();
        assert_eq!(p.centricity, Centricity::ChildCentric);
        assert!(p.link_inbailiwick_glue);
        assert!(!p.sticky);
    }

    #[test]
    fn google_profile_caps_at_21599() {
        let p = ResolverPolicy::google_like();
        assert_eq!(p.clamp_ttl(Ttl::from_secs(345_600)).as_secs(), 21_599);
        assert_eq!(p.clamp_ttl(Ttl::from_secs(900)).as_secs(), 900);
    }

    #[test]
    fn floor_raises_small_ttls() {
        let p = ResolverPolicy {
            ttl_floor: Some(Ttl::MINUTE),
            ..ResolverPolicy::default()
        };
        assert_eq!(p.clamp_ttl(Ttl::from_secs(5)).as_secs(), 60);
        assert_eq!(p.clamp_ttl(Ttl::HOUR), Ttl::HOUR);
    }

    #[test]
    fn opendns_profile_is_parent_centric_with_local_root() {
        let p = ResolverPolicy::opendns_like();
        assert_eq!(p.centricity, Centricity::ParentCentric);
        assert!(p.local_root);
    }

    #[test]
    fn paper_population_is_mostly_child_centric() {
        let mix = PolicyMix::paper_population();
        let f = mix.child_centric_fraction();
        assert!((0.85..0.95).contains(&f), "child-centric fraction {f}");
    }

    #[test]
    fn uniform_mix_has_single_entry() {
        let mix = PolicyMix::uniform(ResolverPolicy::default());
        assert_eq!(mix.entries().len(), 1);
        assert_eq!(mix.child_centric_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_panics() {
        PolicyMix::new(vec![]);
    }
}
