//! Migration planning: §6.1's "when deployments are planned in
//! advance… TTLs can be lowered 'just-before' a major operational
//! change, and raised again once accomplished" — as an executable
//! timeline.
//!
//! The subtlety the paper spends §3 and §4 establishing is that the
//! *configured* TTL is a lower bound on reality: parent-centric
//! resolvers ride the parent's copy, in-bailiwick addresses are pinned
//! to their NS RRset, and caps cut everything short. A safe plan
//! must wait out the **worst** effective TTL across the resolver
//! population, not the zone file's number.

use crate::effective::{effective_ttl, Bailiwick, PublishedTtls};
use crate::policy::PolicyMix;
use dnsttl_wire::Ttl;

/// One step of a migration timeline, in seconds relative to "now".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationStep {
    /// Offset from plan start, seconds.
    pub at_secs: u64,
    /// What the operator does at this moment.
    pub action: String,
}

/// A complete migration plan for renumbering / re-hosting a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Ordered steps.
    pub steps: Vec<MigrationStep>,
    /// The worst-case effective TTL the plan waits out before the
    /// change (drives the lead time).
    pub worst_effective_ttl: Ttl,
    /// The worst-case drain time after the change (old records still
    /// being served somewhere).
    pub drain_ttl: Ttl,
    /// Caveats the operator must know (parent copies, coupling, …).
    pub caveats: Vec<String>,
}

impl MigrationPlan {
    /// Total wall-clock length of the plan.
    pub fn duration_secs(&self) -> u64 {
        self.steps.last().map(|s| s.at_secs).unwrap_or(0)
    }
}

/// Inputs to the planner.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// TTLs currently published for the records being changed.
    pub current: PublishedTtls,
    /// Where the zone's servers sit relative to the zone.
    pub bailiwick: Bailiwick,
    /// The transition TTL used during the migration window (the paper
    /// suggests minutes; 300 s is a common choice).
    pub transition_ttl: Ttl,
    /// The resolver population to plan against.
    pub population: PolicyMix,
    /// Whether the operator can update the parent's copy (registrars
    /// without EPP TTL support cannot — §6.3 notes EPP has no TTL
    /// field).
    pub can_update_parent: bool,
}

impl Default for MigrationSpec {
    fn default() -> MigrationSpec {
        MigrationSpec {
            current: PublishedTtls {
                parent_ns: Ttl::TWO_DAYS,
                child_ns: Ttl::DAY,
                parent_addr: Ttl::TWO_DAYS,
                child_addr: Ttl::DAY,
            },
            bailiwick: Bailiwick::In,
            transition_ttl: Ttl::from_secs(300),
            population: PolicyMix::paper_population(),
            can_update_parent: true,
        }
    }
}

/// The worst-case (longest) effective TTL any policy in the population
/// gives the address record under `published`.
pub(crate) fn worst_effective_addr_ttl(
    population: &PolicyMix,
    published: &PublishedTtls,
    bailiwick: Bailiwick,
) -> Ttl {
    population
        .entries()
        .iter()
        .filter(|(w, _)| *w > 0.0)
        .map(|(_, policy)| effective_ttl(policy, published, bailiwick).addr)
        .max()
        .unwrap_or(published.child_addr)
}

/// Builds the §6.1 timeline:
///
/// 1. **t = 0** — lower the TTLs (child, and parent where possible) to
///    the transition value;
/// 2. **wait** the worst-case *old* effective TTL: only then has every
///    conformant cache picked up the low TTL;
/// 3. **switch** the service;
/// 4. **wait** the worst-case *transition* effective TTL for the old
///    address to drain;
/// 5. **restore** long TTLs.
pub fn plan_migration(spec: &MigrationSpec) -> MigrationPlan {
    let mut caveats = Vec::new();

    // Phase 2 wait: worst effective TTL under the OLD publication.
    let worst_old = worst_effective_addr_ttl(&spec.population, &spec.current, spec.bailiwick);

    // During the window, what is effectively published?
    let transition = if spec.can_update_parent {
        PublishedTtls {
            parent_ns: spec.transition_ttl,
            child_ns: spec.transition_ttl,
            parent_addr: spec.transition_ttl,
            child_addr: spec.transition_ttl,
        }
    } else {
        // Parent copy stays long: parent-centric resolvers will not see
        // the low TTL at all.
        PublishedTtls {
            parent_ns: spec.current.parent_ns,
            parent_addr: spec.current.parent_addr,
            child_ns: spec.transition_ttl,
            child_addr: spec.transition_ttl,
        }
    };
    let worst_transition = worst_effective_addr_ttl(&spec.population, &transition, spec.bailiwick);

    if !spec.can_update_parent {
        caveats.push(format!(
            "the parent's copy cannot be updated (EPP carries no TTL field, §6.3): \
             parent-centric resolvers keep the old address for up to {} after the switch",
            spec.current.parent_addr
        ));
    }
    if spec.bailiwick == Bailiwick::In && spec.current.child_addr > spec.current.child_ns {
        caveats.push(format!(
            "in-bailiwick server: the address's effective TTL is already capped by the \
             NS RRset's {} (§4.2) — the configured {} never applied",
            spec.current.child_ns, spec.current.child_addr
        ));
    }
    let child_frac = spec.population.child_centric_fraction();
    if child_frac < 1.0 {
        caveats.push(format!(
            "{:.0}% of the population is parent-centric: keep parent and child copies \
             identical (§3)",
            (1.0 - child_frac) * 100.0
        ));
    }

    let t_lower = 0u64;
    let t_switch = worst_old.as_secs() as u64;
    let t_restore = t_switch + worst_transition.as_secs() as u64;

    let steps = vec![
        MigrationStep {
            at_secs: t_lower,
            action: format!(
                "lower TTLs to {} in the child zone{}",
                spec.transition_ttl,
                if spec.can_update_parent {
                    " and the parent's copy"
                } else {
                    " (parent copy unchanged!)"
                }
            ),
        },
        MigrationStep {
            at_secs: t_switch,
            action: format!(
                "old TTLs have drained everywhere (worst case {worst_old}); \
                 switch the service to the new address"
            ),
        },
        MigrationStep {
            at_secs: t_restore,
            action: format!(
                "transition TTLs have drained (worst case {worst_transition}); \
                 restore long TTLs and decommission the old address"
            ),
        },
    ];

    MigrationPlan {
        steps,
        worst_effective_ttl: worst_old,
        drain_ttl: worst_transition,
        caveats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ResolverPolicy;

    #[test]
    fn default_plan_has_three_phases_in_order() {
        let plan = plan_migration(&MigrationSpec::default());
        assert_eq!(plan.steps.len(), 3);
        assert!(plan.steps.windows(2).all(|w| w[0].at_secs < w[1].at_secs));
        // With 2-day parent copies and parent-centric resolvers in the
        // mix, the lead time is the parent's 2 days.
        assert_eq!(plan.worst_effective_ttl, Ttl::TWO_DAYS);
        assert_eq!(plan.duration_secs(), plan.steps[2].at_secs);
    }

    #[test]
    fn all_child_centric_population_waits_only_child_ttl() {
        let spec = MigrationSpec {
            population: PolicyMix::uniform(ResolverPolicy::default()),
            ..MigrationSpec::default()
        };
        let plan = plan_migration(&spec);
        // Child addr TTL 1 day, in-bailiwick coupled to NS 1 day.
        assert_eq!(plan.worst_effective_ttl, Ttl::DAY);
    }

    #[test]
    fn immutable_parent_extends_the_drain() {
        let spec = MigrationSpec {
            can_update_parent: false,
            ..MigrationSpec::default()
        };
        let plan = plan_migration(&spec);
        // Parent-centric resolvers ride the parent's 2-day copy right
        // through the transition window.
        assert_eq!(plan.drain_ttl, Ttl::TWO_DAYS);
        assert!(plan.caveats.iter().any(|c| c.contains("EPP")));
    }

    #[test]
    fn mutable_parent_shrinks_the_drain_to_transition_ttl() {
        let plan = plan_migration(&MigrationSpec::default());
        assert_eq!(plan.drain_ttl, Ttl::from_secs(300));
    }

    #[test]
    fn in_bailiwick_coupling_caveat_fires() {
        let spec = MigrationSpec {
            current: PublishedTtls {
                parent_ns: Ttl::TWO_DAYS,
                child_ns: Ttl::HOUR,
                parent_addr: Ttl::TWO_DAYS,
                child_addr: Ttl::from_secs(7_200),
            },
            ..MigrationSpec::default()
        };
        let plan = plan_migration(&spec);
        assert!(plan.caveats.iter().any(|c| c.contains("§4.2")));
    }

    #[test]
    fn worst_effective_ignores_zero_weight_entries() {
        let mix = PolicyMix::new(vec![
            (1.0, ResolverPolicy::default()),
            (0.0, ResolverPolicy::parent_centric()),
        ]);
        let worst = worst_effective_addr_ttl(&mix, &PublishedTtls::uy_before(), Bailiwick::In);
        // The zero-weight parent-centric entry must not drive the plan.
        assert_eq!(worst.as_secs(), 120);
    }

    #[test]
    fn caps_shorten_the_worst_case() {
        // A population that is 100% Google-like caps everything at
        // 21599 s, so even 2-day publications drain in ~6 h.
        let mix = PolicyMix::uniform(ResolverPolicy::google_like());
        let worst =
            worst_effective_addr_ttl(&mix, &MigrationSpec::default().current, Bailiwick::Out);
        assert_eq!(worst.as_secs(), 21_599);
    }
}
