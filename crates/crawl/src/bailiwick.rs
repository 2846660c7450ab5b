//! Bailiwick classification of NS sets (Table 9).

#[cfg(test)]
use dnsttl_wire::Name;

/// How a domain's name servers relate to the domain itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BailiwickClass {
    /// Every NS target is outside the domain (the overwhelming case for
    /// popular lists: >90% in Table 9).
    OutOnly,
    /// Every NS target is inside the domain (requires glue).
    InOnly,
    /// Some in, some out.
    Mixed,
}

impl BailiwickClass {
    /// Classifies from counts of in- and out-of-bailiwick servers.
    ///
    /// # Panics
    /// Panics when both counts are zero — an empty NS set has no
    /// bailiwick.
    pub(crate) fn from_counts(in_count: usize, out_count: usize) -> BailiwickClass {
        match (in_count, out_count) {
            (0, 0) => panic!("empty NS set has no bailiwick class"),
            (_, 0) => BailiwickClass::InOnly,
            (0, _) => BailiwickClass::OutOnly,
            _ => BailiwickClass::Mixed,
        }
    }

    /// Classifies a domain's NS target names directly.
    #[cfg(test)]
    pub(crate) fn classify(domain: &Name, ns_targets: &[Name]) -> Option<BailiwickClass> {
        if ns_targets.is_empty() {
            return None;
        }
        let in_count = ns_targets
            .iter()
            .filter(|t| t.is_subdomain_of(domain))
            .count();
        Some(BailiwickClass::from_counts(
            in_count,
            ns_targets.len() - in_count,
        ))
    }

    /// Table 9 row label.
    pub fn label(self) -> &'static str {
        match self {
            BailiwickClass::OutOnly => "Out only",
            BailiwickClass::InOnly => "In only",
            BailiwickClass::Mixed => "Mixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn classify_by_names() {
        let domain = n("example.org");
        assert_eq!(
            BailiwickClass::classify(&domain, &[n("ns1.example.org"), n("ns2.example.org")]),
            Some(BailiwickClass::InOnly)
        );
        assert_eq!(
            BailiwickClass::classify(&domain, &[n("ns1.hoster.net")]),
            Some(BailiwickClass::OutOnly)
        );
        assert_eq!(
            BailiwickClass::classify(&domain, &[n("ns1.example.org"), n("ns1.hoster.net")]),
            Some(BailiwickClass::Mixed)
        );
        assert_eq!(BailiwickClass::classify(&domain, &[]), None);
    }

    #[test]
    fn suffix_collision_is_out() {
        let domain = n("example.org");
        assert_eq!(
            BailiwickClass::classify(&domain, &[n("ns1.notexample.org")]),
            Some(BailiwickClass::OutOnly)
        );
    }

    #[test]
    #[should_panic(expected = "empty NS set")]
    fn empty_counts_panic() {
        BailiwickClass::from_counts(0, 0);
    }
}
