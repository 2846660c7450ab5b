//! Zones: the unit of authority.
//!
//! A [`Zone`] owns every record between its origin and its delegation
//! cuts. Names *at or below* a cut (other than the cut's NS records and
//! glue) belong to the child zone; queries for them produce referrals.

use dnsttl_wire::name::NameKey;
use dnsttl_wire::{Message, Name, RData, Record, RecordType, SoaData, Ttl};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// What [`Zone::walk`] found; its records are in the sections it filled.
pub(crate) enum Walk<'z> {
    /// The zone answers: the answer section holds the `records` that
    /// answer (possibly preceded by a CNAME chain), then the RRSIGs
    /// covering them; NS/MX targets' addresses are additionals.
    Answer {
        /// How many of the answer records precede the RRSIGs.
        records: usize,
    },
    /// A delegation at `cut`: its NS records (parent-side TTLs) in the
    /// authority section, glue in the additional section.
    Referral {
        /// The delegated zone's apex.
        cut: &'z Name,
    },
    /// The name exists without the type: the SOA is the authority.
    NoData,
    /// The name does not exist: the SOA is the authority.
    NxDomain,
    /// The name is not within this zone; nothing was written.
    NotInZone,
}

/// Result of looking a name up in one zone.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneLookup {
    /// The zone is authoritative for the name and has matching records.
    Answer {
        /// Matching records (possibly preceded by a CNAME chain).
        records: Vec<Record>,
        /// Additional-section addresses for NS/MX targets in this zone.
        additionals: Vec<Record>,
        /// RRSIGs at the query name covering a type in `records`
        /// (signed zones only; RFC 4035 §3.1.1).
        signatures: Vec<Record>,
    },
    /// The name is at or below a delegation cut: here are the NS records
    /// (parent-side TTL!) and whatever glue this zone holds.
    Referral {
        /// The delegated zone's apex.
        cut: Name,
        /// NS records at the cut, with this (parent) zone's TTLs.
        ns_records: Vec<Record>,
        /// Glue A/AAAA records for in-bailiwick server names.
        glue: Vec<Record>,
    },
    /// The name exists but has no records of the requested type.
    NoData {
        /// Zone SOA for negative caching.
        soa: Record,
    },
    /// The name does not exist in this zone.
    NxDomain {
        /// Zone SOA for negative caching.
        soa: Record,
    },
    /// The name is not within this zone at all.
    NotInZone,
}

/// Everything the zone holds at one owner name.
#[derive(Debug, Clone, Default)]
struct Node {
    /// The RRsets here, sorted by type: a handful at most, so a scan
    /// beats a map, and [`Zone::iter`] shows them in this order.
    rrsets: Vec<(RecordType, Vec<Record>)>,
    /// An NS RRset below the apex: a delegation cut.
    is_cut: bool,
}

impl Node {
    fn slot(&self, rtype: RecordType) -> Result<usize, usize> {
        self.rrsets.binary_search_by_key(&rtype, |(t, _)| *t)
    }

    fn get(&self, rtype: RecordType) -> &[Record] {
        self.slot(rtype).map_or(&[], |i| &self.rrsets[i].1)
    }
}

/// The RRset of `rtype` in a node that may not exist.
fn rrset(node: Option<&Node>, rtype: RecordType) -> &[Record] {
    node.map_or(&[], |node| node.get(rtype))
}

/// One zone of the namespace, with its records and delegations.
///
/// Records are stored per owner name and type. NS RRsets at names other
/// than the origin mark delegation cuts; A/AAAA records stored at or
/// below a cut are *glue*, served only in referrals' additional section.
///
/// The index is a hash map from owner name to its `Node`, so a query costs
/// one probe however large the zone is; canonical order exists only
/// where it is observable ([`Zone::iter`], [`Zone::names`]) and is
/// sorted there.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: SoaData,
    soa_ttl: Ttl,
    nodes: HashMap<Name, Node>,
    /// For each name from the origin down that has owner names strictly
    /// below it, how many: such a name without a node of its own is an
    /// empty non-terminal.
    owners_below: HashMap<Name, usize>,
    /// Nodes with `is_cut` set; zero lets a lookup skip the cut walk.
    cuts: usize,
    /// Nodes holding an RRSIG RRset; zero means the zone is unsigned.
    signed_nodes: usize,
}

impl Zone {
    /// Creates an empty zone with a default SOA.
    pub fn new(origin: Name) -> Zone {
        let soa = SoaData {
            mname: origin.clone(),
            rname: Name::parse("hostmaster.invalid").expect("static name"),
            serial: 1,
            refresh: 7_200,
            retry: 3_600,
            expire: 1_209_600,
            minimum: 300,
        };
        Zone {
            origin,
            soa,
            soa_ttl: Ttl::HOUR,
            nodes: HashMap::new(),
            owners_below: HashMap::new(),
            cuts: 0,
            signed_nodes: 0,
        }
    }

    /// The zone apex.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The SOA data (negative-caching TTL lives in `minimum`).
    pub fn soa(&self) -> &SoaData {
        &self.soa
    }

    /// Sets the negative-caching TTL (SOA `minimum`).
    pub(crate) fn set_negative_ttl(&mut self, ttl: Ttl) {
        self.soa.minimum = ttl.as_secs();
    }

    /// The SOA as a servable record at the apex.
    pub fn soa_record(&self) -> Record {
        Record::new(
            self.origin.clone(),
            self.soa_ttl,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Adds a record. The owner must be at or below the origin.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone — zone files with records
    /// out of zone are configuration errors, caught at build time.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        if !self.nodes.contains_key(&record.name) {
            self.count_owner(&record.name, true);
        }
        let rtype = record.record_type();
        let below_apex = record.name != self.origin;
        let node = self.nodes.entry(record.name.clone()).or_default();
        let slot = node.slot(rtype).unwrap_or_else(|at| {
            node.rrsets.insert(at, (rtype, Vec::new()));
            if rtype == RecordType::NS && below_apex {
                node.is_cut = true;
                self.cuts += 1;
            }
            if rtype == RecordType::RRSIG {
                self.signed_nodes += 1;
            }
            at
        });
        node.rrsets[slot].1.push(record);
    }

    /// Removes all records of `rtype` at `name`, returning how many were
    /// removed.
    pub fn remove(&mut self, name: &Name, rtype: RecordType) -> usize {
        let Some(node) = self.nodes.get_mut(name) else {
            return 0;
        };
        let Ok(slot) = node.slot(rtype) else {
            return 0;
        };
        let (_, removed) = node.rrsets.remove(slot);
        if rtype == RecordType::NS && node.is_cut {
            node.is_cut = false;
            self.cuts -= 1;
        }
        if rtype == RecordType::RRSIG {
            self.signed_nodes -= 1;
        }
        if node.rrsets.is_empty() {
            self.nodes.remove(name);
            self.count_owner(name, false);
        }
        removed.len()
    }

    /// Counts a new owner name into (or a vanished one out of)
    /// `owners_below` at each of its ancestors up to the origin.
    fn count_owner(&mut self, owner: &Name, added: bool) {
        // `owner` is in the zone, so its suffixes at least as long as
        // the origin are exactly its ancestors from the origin down.
        let floor = self.origin.as_str().len();
        let ancestors = owner.suffixes().skip(1);
        for ancestor in ancestors.take_while(|a| a.as_str().len() >= floor) {
            let key = &ancestor as &dyn NameKey;
            match (self.owners_below.get_mut(key), added) {
                (Some(n), true) => *n += 1,
                (None, true) => {
                    self.owners_below.insert(ancestor.to_name(), 1);
                }
                (Some(n), false) if *n > 1 => *n -= 1,
                (_, false) => {
                    self.owners_below.remove(key);
                }
            }
        }
    }

    /// Replaces the A record(s) at `name` with a single new address,
    /// preserving the TTL of the previous RRset (or using `fallback_ttl`
    /// if none existed), and bumps the SOA serial.
    ///
    /// This is the paper's §4 *renumbering* operation: the name server
    /// keeps its name but moves to a new VM.
    pub fn replace_address(&mut self, name: &Name, new_addr: Ipv4Addr, fallback_ttl: Ttl) {
        self.replace_rrset(name, RData::A(new_addr), fallback_ttl);
    }

    /// IPv6 variant of [`Zone::replace_address`].
    pub fn replace_address_v6(&mut self, name: &Name, new_addr: Ipv6Addr, fallback_ttl: Ttl) {
        self.replace_rrset(name, RData::Aaaa(new_addr), fallback_ttl);
    }

    fn replace_rrset(&mut self, name: &Name, rdata: RData, fallback_ttl: Ttl) {
        let rtype = rdata.record_type();
        let ttl = self
            .get(name, rtype)
            .first()
            .map_or(fallback_ttl, |r| r.ttl);
        self.remove(name, rtype);
        self.add(Record::new(name.clone(), ttl, rdata));
        self.soa.serial += 1;
    }

    /// Records of `rtype` at exactly `name`, as stored.
    pub fn get(&self, name: &Name, rtype: RecordType) -> &[Record] {
        rrset(self.nodes.get(name), rtype)
    }

    /// The nodes in RFC 4034 §6.1 canonical owner order. The hash index
    /// has no order of its own, so the cold paths that show one (zone
    /// rendering, signing) sort here, on demand.
    fn nodes_in_order(&self) -> Vec<(&Name, &Node)> {
        let mut nodes: Vec<_> = self.nodes.iter().collect();
        nodes.sort_unstable_by_key(|&(name, _)| name);
        nodes
    }

    /// Iterates over all records in the zone: owners in canonical
    /// order, each owner's RRsets by type.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.nodes_in_order()
            .into_iter()
            .flat_map(|(_, node)| node.rrsets.iter().flat_map(|(_, records)| records))
    }

    /// Owner names present in the zone (including glue owners), in
    /// canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes_in_order().into_iter().map(|(name, _)| name)
    }

    /// Fetches the node at `qname`, and the closest-to-the-apex
    /// delegation cut strictly below the origin at or above `qname` (a
    /// zone cannot see past its first cut).
    fn locate(&self, qname: &Name) -> (Option<&Node>, Option<(&Name, &Node)>) {
        let own = self.nodes.get_key_value(qname);
        let mut cut = None;
        if self.cuts > 0 {
            // `qname` is in the zone, so its suffixes longer than the
            // origin are its ancestors strictly below the apex. They
            // come deepest first: the last cut seen is the highest.
            let floor = self.origin.as_str().len();
            cut = own.filter(|(_, node)| node.is_cut);
            let ancestors = qname.suffixes().skip(1);
            for ancestor in ancestors.take_while(|a| a.as_str().len() > floor) {
                let hit = self.nodes.get_key_value(&ancestor as &dyn NameKey);
                cut = hit.filter(|(_, node)| node.is_cut).or(cut);
            }
        }
        (own.map(|(_, node)| node), cut)
    }

    /// Addresses (A/AAAA) this zone holds for `target`, used to populate
    /// glue and additional sections.
    fn addresses_for(&self, target: &Name, out: &mut Vec<Record>) {
        if let Some(node) = self.nodes.get(target) {
            out.extend_from_slice(node.get(RecordType::A));
            out.extend_from_slice(node.get(RecordType::AAAA));
        }
    }

    /// Looks up `qname`/`qtype` following RFC 1034 §4.3.2: `Zone::walk`
    /// into sections of its own, handed back as owned values.
    pub fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneLookup {
        let mut out = Message::default();
        match self.walk(qname, qtype, &mut out) {
            Walk::Answer { records } => ZoneLookup::Answer {
                signatures: out.answers.split_off(records),
                records: out.answers,
                additionals: out.additionals,
            },
            Walk::Referral { cut } => ZoneLookup::Referral {
                cut: cut.clone(),
                ns_records: out.authorities,
                glue: out.additionals,
            },
            Walk::NoData => ZoneLookup::NoData {
                soa: out.authorities.pop().expect("the walk wrote the SOA"),
            },
            Walk::NxDomain => ZoneLookup::NxDomain {
                soa: out.authorities.pop().expect("the walk wrote the SOA"),
            },
            Walk::NotInZone => ZoneLookup::NotInZone,
        }
    }

    /// The one RFC 1034 §4.3.2 walk: appends what the zone serves for
    /// `qname`/`qtype` to `out`'s three sections and says what it was.
    /// The authoritative fills its response with it in place;
    /// [`Zone::lookup`] is the same walk into vectors of its own.
    pub(crate) fn walk(&self, qname: &Name, qtype: RecordType, out: &mut Message) -> Walk<'_> {
        if !qname.is_subdomain_of(&self.origin) {
            return Walk::NotInZone;
        }
        let (node, cut) = self.locate(qname);

        // Step: delegation cut above or at the qname → referral, unless
        // the question is for the cut's NS records from the parent side
        // (still a referral per RFC 1034: the parent is not
        // authoritative below the cut).
        if let Some((cut, cut_node)) = cut {
            let ns_records = cut_node.get(RecordType::NS);
            out.authorities.extend_from_slice(ns_records);
            for ns in ns_records {
                if let RData::Ns(target) = &ns.rdata {
                    // Glue is served for targets inside this zone's
                    // namespace (typically in-bailiwick of the cut).
                    if target.is_subdomain_of(&self.origin) {
                        self.addresses_for(target, &mut out.additionals);
                    }
                }
            }
            return Walk::Referral { cut };
        }

        // Exact-name processing.
        let start = out.answers.len();
        let direct = rrset(node, qtype);
        if !direct.is_empty() {
            out.answers.extend_from_slice(direct);
            for r in direct {
                if let Some(target) = r.rdata.target_name() {
                    if r.record_type() != RecordType::CNAME {
                        self.addresses_for(target, &mut out.additionals);
                    }
                }
            }
            self.sign(node, &mut out.answers, start);
            return Walk::Answer {
                records: direct.len(),
            };
        }

        // CNAME at the name (and the query was not for CNAME itself)?
        // Chase the chain iteratively with a hop bound: zones can
        // contain CNAME loops (misconfiguration), and a server must
        // answer with the partial chain rather than recurse forever.
        if qtype != RecordType::CNAME {
            if let Some(first) = rrset(node, RecordType::CNAME).first() {
                out.answers.push(first.clone());
                let mut cursor = first;
                for _ in 0..8 {
                    let RData::Cname(target) = &cursor.rdata else {
                        break;
                    };
                    // The chain's owners are the names chased so far.
                    if out.answers[start..].iter().any(|r| r.name == *target) {
                        break; // loop: stop chasing, serve what we have
                    }
                    let at_target = self.nodes.get(target);
                    let direct = rrset(at_target, qtype);
                    if !direct.is_empty() {
                        out.answers.extend_from_slice(direct);
                        break;
                    }
                    match rrset(at_target, RecordType::CNAME).first() {
                        Some(next) => {
                            out.answers.push(next.clone());
                            cursor = next;
                        }
                        None => break,
                    }
                }
                let records = out.answers.len() - start;
                self.sign(node, &mut out.answers, start);
                return Walk::Answer { records };
            }
        }

        // The name exists if it owns records or is an empty
        // non-terminal (an ancestor of an owner name).
        out.authorities.push(self.soa_record());
        if node.is_some() || self.owners_below.contains_key(qname) {
            Walk::NoData
        } else {
            Walk::NxDomain
        }
    }

    /// Appends the RRSIGs in the query name's node that cover a type in
    /// `answers[start..]`; nothing to scan in an unsigned zone.
    fn sign(&self, node: Option<&Node>, answers: &mut Vec<Record>, start: usize) {
        let Some(node) = node.filter(|_| self.signed_nodes > 0) else {
            return;
        };
        let end = answers.len();
        for sig in node.get(RecordType::RRSIG) {
            if let RData::Rrsig { type_covered, .. } = &sig.rdata {
                let covered = &answers[start..end];
                if covered.iter().any(|r| r.record_type() == *type_covered) {
                    answers.push(sig.clone());
                }
            }
        }
    }
}

/// Fluent zone construction for experiments and tests.
///
/// ```
/// use dnsttl_auth::ZoneBuilder;
/// use dnsttl_wire::Ttl;
/// let zone = ZoneBuilder::new("uy")
///     .ns("uy", "a.nic.uy", Ttl::from_secs(300))
///     .a("a.nic.uy", "200.40.241.1", Ttl::from_secs(120))
///     .build();
/// assert_eq!(zone.origin().to_string(), "uy.");
/// ```
pub struct ZoneBuilder {
    zone: Zone,
}

impl ZoneBuilder {
    /// Starts a zone at `origin` (presentation format).
    ///
    /// # Panics
    /// Panics on a malformed origin — builder misuse is a programming
    /// error in experiment setup.
    pub fn new(origin: &str) -> ZoneBuilder {
        ZoneBuilder {
            zone: Zone::new(Name::parse(origin).expect("valid origin")),
        }
    }

    fn name(s: &str) -> Name {
        Name::parse(s).expect("valid name in zone builder")
    }

    /// Adds an NS record: `owner NS target`.
    pub fn ns(mut self, owner: &str, target: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Ns(Self::name(target)),
        ));
        self
    }

    /// Adds an A record.
    pub fn a(mut self, owner: &str, addr: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::A(addr.parse().expect("valid IPv4")),
        ));
        self
    }

    /// Adds an AAAA record.
    pub fn aaaa(mut self, owner: &str, addr: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Aaaa(addr.parse().expect("valid IPv6")),
        ));
        self
    }

    /// Adds a CNAME record.
    pub fn cname(mut self, owner: &str, target: &str, ttl: Ttl) -> ZoneBuilder {
        self.zone.add(Record::new(
            Self::name(owner),
            ttl,
            RData::Cname(Self::name(target)),
        ));
        self
    }

    /// Sets the negative-caching TTL.
    pub fn negative_ttl(mut self, ttl: Ttl) -> ZoneBuilder {
        self.zone.set_negative_ttl(ttl);
        self
    }

    /// Adds an arbitrary record.
    pub fn record(mut self, record: Record) -> ZoneBuilder {
        self.zone.add(record);
        self
    }

    /// Finishes the zone.
    pub fn build(self) -> Zone {
        self.zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// The root zone from the paper's Table 1: delegates .cl with
    /// two-day NS and glue TTLs.
    fn root_zone() -> Zone {
        ZoneBuilder::new(".")
            .ns("cl", "a.nic.cl", Ttl::TWO_DAYS)
            .a("a.nic.cl", "190.124.27.10", Ttl::TWO_DAYS)
            .aaaa("a.nic.cl", "2001:1398:1::300", Ttl::TWO_DAYS)
            .build()
    }

    /// The .cl child zone: same records, its own (shorter) TTLs.
    fn cl_zone() -> Zone {
        ZoneBuilder::new("cl")
            .ns("cl", "a.nic.cl", Ttl::HOUR)
            .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
            .a("www.example.cl", "203.0.113.80", Ttl::HOUR)
            .ns("example.cl", "ns.example.cl", Ttl::from_secs(7_200))
            .a("ns.example.cl", "203.0.113.53", Ttl::from_secs(7_200))
            .build()
    }

    #[test]
    fn referral_at_delegation_carries_parent_ttl_and_glue() {
        let root = root_zone();
        match root.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Referral {
                cut,
                ns_records,
                glue,
            } => {
                assert_eq!(cut, n("cl"));
                assert_eq!(ns_records.len(), 1);
                assert_eq!(ns_records[0].ttl, Ttl::TWO_DAYS);
                // Glue: both A and AAAA of a.nic.cl.
                assert_eq!(glue.len(), 2);
                assert!(glue.iter().all(|g| g.name == n("a.nic.cl")));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn ns_query_at_cut_is_also_a_referral_from_parent() {
        // The parent is not authoritative for the cut's NS set; it
        // serves it as a referral (no AA) — which is why parent-side
        // TTLs reach resolvers at all.
        let root = root_zone();
        assert!(matches!(
            root.lookup(&n("cl"), RecordType::NS),
            ZoneLookup::Referral { .. }
        ));
    }

    #[test]
    fn child_answers_its_apex_ns_authoritatively() {
        let cl = cl_zone();
        match cl.lookup(&n("cl"), RecordType::NS) {
            ZoneLookup::Answer {
                records,
                additionals,
                ..
            } => {
                assert_eq!(records[0].ttl, Ttl::HOUR); // child's own TTL
                                                       // Additional carries the in-zone address of the NS host
                                                       // with the child's A TTL (43200 s, Table 1 row 2).
                assert_eq!(additionals.len(), 1);
                assert_eq!(additionals[0].ttl.as_secs(), 43_200);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn direct_a_query_gets_child_ttl() {
        let cl = cl_zone();
        match cl.lookup(&n("a.nic.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records[0].ttl.as_secs(), 43_200);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn delegation_below_child_origin_refers() {
        let cl = cl_zone();
        match cl.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Referral { cut, glue, .. } => {
                assert_eq!(cut, n("example.cl"));
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].name, n("ns.example.cl"));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_and_nodata_carry_soa() {
        let cl = cl_zone();
        match cl.lookup(&n("nonexistent.cl"), RecordType::A) {
            ZoneLookup::NxDomain { soa } => {
                assert_eq!(soa.record_type(), RecordType::SOA);
            }
            other => panic!("expected NXDOMAIN, got {other:?}"),
        }
        // a.nic.cl exists but has no MX.
        assert!(matches!(
            cl.lookup(&n("a.nic.cl"), RecordType::MX),
            ZoneLookup::NoData { .. }
        ));
    }

    #[test]
    fn empty_non_terminal_is_nodata_not_nxdomain() {
        let cl = cl_zone();
        // "example.cl" exists (it has NS), and "www.example.cl" exists
        // below the cut; but "nic.cl" exists only as an empty
        // non-terminal above a.nic.cl.
        assert!(matches!(
            cl.lookup(&n("nic.cl"), RecordType::A),
            ZoneLookup::NoData { .. }
        ));
    }

    #[test]
    fn out_of_zone_query_is_rejected() {
        let cl = cl_zone();
        assert_eq!(
            cl.lookup(&n("example.org"), RecordType::A),
            ZoneLookup::NotInZone
        );
    }

    #[test]
    fn cname_is_chased_within_zone() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("www.example.cl", "web.example.cl", Ttl::HOUR)
            .a("web.example.cl", "203.0.113.80", Ttl::HOUR)
            .build();
        match zone.lookup(&n("www.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].record_type(), RecordType::CNAME);
                assert_eq!(records[1].record_type(), RecordType::A);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn cname_loop_in_zone_terminates() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "a.example.cl", Ttl::HOUR)
            .build();
        // Must not recurse forever; serves the partial chain.
        match zone.lookup(&n("a.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert!(!records.is_empty());
                assert!(records.iter().all(|r| r.record_type() == RecordType::CNAME));
            }
            other => panic!("expected partial CNAME answer, got {other:?}"),
        }
    }

    #[test]
    fn long_cname_chain_is_followed_to_the_address() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "c.example.cl", Ttl::HOUR)
            .cname("c.example.cl", "d.example.cl", Ttl::HOUR)
            .a("d.example.cl", "203.0.113.4", Ttl::HOUR)
            .build();
        match zone.lookup(&n("a.example.cl"), RecordType::A) {
            ZoneLookup::Answer { records, .. } => {
                assert_eq!(records.len(), 4, "3 CNAMEs + final A");
                assert_eq!(records.last().unwrap().record_type(), RecordType::A);
            }
            other => panic!("expected chain answer, got {other:?}"),
        }
    }

    #[test]
    fn renumber_preserves_ttl_and_bumps_serial() {
        let mut zone = cl_zone();
        let before_serial = zone.soa().serial;
        zone.replace_address(&n("a.nic.cl"), "198.51.100.99".parse().unwrap(), Ttl::HOUR);
        let recs = zone.get(&n("a.nic.cl"), RecordType::A);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ttl.as_secs(), 43_200, "TTL preserved");
        assert_eq!(recs[0].rdata, RData::A("198.51.100.99".parse().unwrap()));
        assert_eq!(zone.soa().serial, before_serial + 1);
    }

    #[test]
    fn remove_cleans_up_empty_names() {
        let mut zone = cl_zone();
        assert_eq!(zone.remove(&n("www.example.cl"), RecordType::A), 1);
        assert_eq!(zone.remove(&n("www.example.cl"), RecordType::A), 0);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_out_of_zone_record_panics() {
        let mut zone = Zone::new(n("example.cl"));
        zone.add(Record::new(
            n("example.org"),
            Ttl::HOUR,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
    }
}
