//! Crawl summarisation: the numbers behind Tables 5–9 and Figure 9.

use crate::bailiwick::BailiwickClass;
use crate::content::ContentCategory;
use crate::lists::{CrawledDomain, ListKind, RecordValue};
use dnsttl_analysis::Ecdf;
use dnsttl_wire::RecordType;
use std::collections::{BTreeMap, HashSet};

/// Per-record-type totals for one list (the NS/A/AAAA/… blocks of
/// Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordTypeSummary {
    /// Record type summarised.
    pub rtype: RecordType,
    /// Total records of this type observed.
    pub total: usize,
    /// Distinct record values (Table 5 "unique").
    pub unique: usize,
    /// Domains with at least one TTL-0 record of this type (Table 8).
    pub ttl_zero_domains: usize,
}

impl RecordTypeSummary {
    /// Table 5's "ratio" row: total / unique (sharing level).
    pub fn ratio(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.total as f64 / self.unique as f64
        }
    }
}

/// The record types Table 5 reports.
pub const CRAWLED_TYPES: [RecordType; 6] = [
    RecordType::NS,
    RecordType::A,
    RecordType::AAAA,
    RecordType::MX,
    RecordType::DNSKEY,
    RecordType::CNAME,
];

/// A full crawl summary for one list, folded one domain at a time:
/// [`CrawlSummary::add`] each domain as it is generated, then
/// [`CrawlSummary::finish`].
#[derive(Debug, Clone)]
pub struct CrawlSummary {
    /// Which list.
    pub kind: ListKind,
    /// Total domains attempted.
    pub domains: usize,
    /// Domains that answered at least one query.
    pub responsive: usize,
    /// Per-type record totals, in [`CRAWLED_TYPES`] order.
    pub per_type: [RecordTypeSummary; CRAWLED_TYPES.len()],
    /// Table 9: domains answering NS with CNAME.
    pub cname_on_ns: usize,
    /// Table 9: domains answering NS with SOA.
    pub soa_on_ns: usize,
    /// Table 9: domains with usable NS answers.
    pub responds_ns: usize,
    /// Table 9: bailiwick split (out-only, in-only, mixed).
    pub out_only: usize,
    /// In-bailiwick-only NS sets.
    pub in_only: usize,
    /// Mixed NS sets.
    pub mixed: usize,
    /// Table 6: domains per content category, in
    /// [`ContentCategory::ALL`] order.
    pub categories: [usize; ContentCategory::ALL.len()],
    /// Records per (type, TTL, content category): the samples of
    /// Figure 9 and Table 7, in TTL order within a type.
    ttls: BTreeMap<(RecordType, u32, Option<ContentCategory>), usize>,
    /// Distinct values per type, until `finish` counts them.
    distinct: [HashSet<RecordValue>; CRAWLED_TYPES.len()],
}

impl CrawlSummary {
    /// An empty summary of `kind`.
    pub fn new(kind: ListKind) -> CrawlSummary {
        CrawlSummary {
            kind,
            domains: 0,
            responsive: 0,
            per_type: CRAWLED_TYPES.map(|rtype| RecordTypeSummary {
                rtype,
                total: 0,
                unique: 0,
                ttl_zero_domains: 0,
            }),
            cname_on_ns: 0,
            soa_on_ns: 0,
            responds_ns: 0,
            out_only: 0,
            in_only: 0,
            mixed: 0,
            categories: [0; ContentCategory::ALL.len()],
            ttls: BTreeMap::new(),
            distinct: Default::default(),
        }
    }

    /// Folds one crawled domain in.
    pub fn add(&mut self, d: &CrawledDomain) {
        self.domains += 1;
        self.responsive += d.responsive as usize;
        self.cname_on_ns += d.cname_on_ns as usize;
        self.soa_on_ns += d.soa_on_ns as usize;
        match d.bailiwick {
            Some(BailiwickClass::OutOnly) => self.out_only += 1,
            Some(BailiwickClass::InOnly) => self.in_only += 1,
            Some(BailiwickClass::Mixed) => self.mixed += 1,
            None => {}
        }
        if let Some(c) = d.category {
            self.categories[ContentCategory::ALL.iter().position(|&x| x == c).unwrap()] += 1;
        }
        let mut ttl_zero = [false; CRAWLED_TYPES.len()];
        for r in &d.records {
            let t = CRAWLED_TYPES.iter().position(|&t| t == r.rtype).unwrap();
            self.per_type[t].total += 1;
            ttl_zero[t] |= r.ttl == 0;
            self.distinct[t].insert(r.value);
            *self.ttls.entry((r.rtype, r.ttl, d.category)).or_default() += 1;
        }
        for (p, zero) in self.per_type.iter_mut().zip(ttl_zero) {
            p.ttl_zero_domains += zero as usize;
        }
    }

    /// Counts the distinct values into `per_type` and frees their sets.
    pub fn finish(mut self) -> CrawlSummary {
        for (p, values) in self
            .per_type
            .iter_mut()
            .zip(std::mem::take(&mut self.distinct))
        {
            p.unique = values.len();
        }
        self.responds_ns = self.out_only + self.in_only + self.mixed;
        self
    }

    /// TTL ECDF of one record type (Figure 9 series).
    pub fn ttl_ecdf(&self, rtype: RecordType) -> Ecdf {
        self.ecdf(|t, _| t == rtype)
    }

    /// Median TTL (hours) of one record type within a content category —
    /// Table 7's cells.
    pub fn median_ttl_hours(&self, rtype: RecordType, category: ContentCategory) -> Option<f64> {
        let e = self.ecdf(|t, c| t == rtype && c == Some(category));
        (!e.is_empty()).then(|| e.median() / 3_600.0)
    }

    /// The ECDF of the TTLs counted under the types and categories
    /// `keep` selects. The samples come out sorted, so sorting them
    /// touches no scratch memory.
    fn ecdf(&self, keep: impl Fn(RecordType, Option<ContentCategory>) -> bool) -> Ecdf {
        let counts = || {
            self.ttls
                .iter()
                .filter(|(&(t, _, c), _)| keep(t, c))
                .map(|(&(_, ttl, _), &n)| (ttl, n))
        };
        let mut samples = Vec::with_capacity(counts().map(|(_, n)| n).sum());
        for (ttl, n) in counts() {
            samples.extend(std::iter::repeat_n(f64::from(ttl), n));
        }
        Ecdf::new(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::ListSpec;
    use dnsttl_netsim::SimRng;

    fn crawl(kind: ListKind, size: usize) -> CrawlSummary {
        let mut rng = SimRng::seed_from(7);
        let mut summary = CrawlSummary::new(kind);
        ListSpec { kind, size }.for_each(&mut rng, |d| summary.add(d));
        summary.finish()
    }

    #[test]
    fn summary_accounting_is_consistent() {
        let mut rng = SimRng::seed_from(7);
        let mut s = CrawlSummary::new(ListKind::Alexa);
        let mut responsive = 0;
        ListSpec {
            kind: ListKind::Alexa,
            size: 8_000,
        }
        .for_each(&mut rng, |d| {
            responsive += d.responsive as usize;
            s.add(d);
        });
        let s = s.finish();
        assert_eq!(s.domains, 8_000);
        assert_eq!(s.responsive, responsive);
        assert_eq!(s.responds_ns, s.out_only + s.in_only + s.mixed);
        assert!(s.responds_ns <= s.responsive);
    }

    #[test]
    fn ns_sharing_ratio_is_high() {
        let s = crawl(ListKind::Nl, 30_000);
        let [ns, a, ..] = &s.per_type;
        assert_eq!((ns.rtype, a.rtype), (RecordType::NS, RecordType::A));
        // Paper: 190 at full scale; scaled-down pools preserve heavy
        // sharing (ratio well above A records').
        assert!(
            ns.ratio() > a.ratio(),
            "ns {} vs a {}",
            ns.ratio(),
            a.ratio()
        );
        assert!(ns.ratio() > 3.0);
    }

    #[test]
    fn ttl_zero_exists_but_rare() {
        let s = crawl(ListKind::Alexa, 30_000);
        let ns = &s.per_type[0];
        assert_eq!(ns.rtype, RecordType::NS);
        assert!(ns.ttl_zero_domains > 0, "Table 8 expects some TTL-0 NS");
        assert!((ns.ttl_zero_domains as f64) < 0.02 * 30_000.0);
    }

    #[test]
    fn figure9_shapes_hold() {
        let alexa = crawl(ListKind::Alexa, 20_000);
        let root = crawl(ListKind::Root, 1_562);
        let umbrella = crawl(ListKind::Umbrella, 20_000);

        // Root NS: ~80% at 1–2 days.
        let root_ns = root.ttl_ecdf(RecordType::NS);
        let long = 1.0 - root_ns.fraction_leq(86_399.0);
        assert!((0.7..0.95).contains(&long), "root long NS fraction {long}");

        // Umbrella NS: ~25% under a minute.
        let umb_ns = umbrella.ttl_ecdf(RecordType::NS);
        let sub_min = umb_ns.fraction_leq(60.0);
        assert!(
            (0.18..0.35).contains(&sub_min),
            "umbrella sub-minute {sub_min}"
        );

        // A records are shorter than NS records (medians).
        let alexa_ns = alexa.ttl_ecdf(RecordType::NS);
        let alexa_a = alexa.ttl_ecdf(RecordType::A);
        assert!(alexa_a.median() <= alexa_ns.median());
        assert_eq!(alexa_ns.len(), alexa.per_type[0].total);
    }

    #[test]
    fn table7_parking_has_day_long_ns() {
        let nl = crawl(ListKind::Nl, 30_000);
        let parking = nl
            .median_ttl_hours(RecordType::NS, ContentCategory::Parking)
            .unwrap();
        let ecommerce = nl
            .median_ttl_hours(RecordType::NS, ContentCategory::Ecommerce)
            .unwrap();
        assert!(parking >= 24.0, "parking median {parking}h");
        assert!(
            (1.0..=8.0).contains(&ecommerce),
            "ecommerce median {ecommerce}h"
        );
        assert_eq!(nl.categories.iter().sum::<usize>(), nl.responsive);
    }

    #[test]
    fn cname_counts_flow_to_summary() {
        let s = crawl(ListKind::Umbrella, 10_000);
        assert!(s.cname_on_ns > 3_000, "cname_on_ns {}", s.cname_on_ns);
        let cname = &s.per_type[5];
        assert_eq!(cname.rtype, RecordType::CNAME);
        assert_eq!(cname.total, s.cname_on_ns);
    }
}
