//! Zones: the unit of authority.
//!
//! A [`Zone`] owns every record between its origin and its delegation
//! cuts. Names *at or below* a cut (other than the cut's NS records and
//! glue) belong to the child zone; queries for them produce referrals.

use dnsttl_wire::name::NameKey;
use dnsttl_wire::{Class, Members, Message, Name, RData, RRset, Record, RecordType, SoaData, Ttl};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// What [`Zone::walk`] found; its sets are in the sections it filled.
#[derive(Debug, PartialEq)]
pub(crate) enum Walk<'z> {
    /// The zone answers: the answer section holds the `sets` that
    /// answer (a CNAME chain, if any, then the set of the asked type at
    /// its end), then the RRSIGs covering them; NS/MX targets'
    /// addresses are additionals.
    Answer {
        /// How many of the answer sets precede the RRSIGs.
        sets: usize,
    },
    /// A delegation at `cut`: its NS set (parent-side TTL) in the
    /// authority section, glue in the additional section.
    Referral {
        /// The delegated zone's apex.
        cut: &'z Name,
    },
    /// The name exists without the type: the SOA is the authority.
    NoData,
    /// The name does not exist: the SOA is the authority.
    NxDomain,
}

/// One RRset as its node holds it: everything but the owner name,
/// which is the node's key.
#[derive(Debug, Clone)]
struct Stored {
    rtype: RecordType,
    class: Class,
    ttl: Ttl,
    rdatas: Members,
}

impl Stored {
    /// The type an RRSIG set's signatures cover. A node keeps one RRSIG
    /// set per covered type, since each carries its covered set's TTL
    /// (RFC 4034 §3); `None` for any other type.
    fn covers(&self) -> Option<RecordType> {
        match self.rdatas.first() {
            Some(RData::Rrsig(sig)) => Some(sig.type_covered),
            _ => None,
        }
    }

    /// Where the set sorts in its node: by type, RRSIGs by the type
    /// they cover.
    fn key(&self) -> (RecordType, Option<RecordType>) {
        (self.rtype, self.covers())
    }

    /// Takes `more`'s members after its own, in a new block (a message
    /// or cache holding the old one keeps it), at the smaller TTL (RFC
    /// 2181 §5.2).
    fn absorb(&mut self, more: &Stored) {
        let mut members = self.rdatas.to_vec();
        members.extend(more.rdatas.iter().cloned());
        self.rdatas = members.into();
        self.ttl = self.ttl.min(more.ttl);
    }

    /// The set at `owner`, sharing its members.
    fn at(&self, owner: &Name) -> RRset {
        RRset {
            name: owner.clone(),
            class: self.class,
            rtype: self.rtype,
            ttl: self.ttl,
            rdatas: self.rdatas.clone(),
        }
    }
}

/// Everything the zone holds at one owner name.
#[derive(Debug, Clone)]
struct Node {
    sets: Sets,
    /// An NS RRset below the apex: a delegation cut.
    is_cut: bool,
}

/// A node's sets, sorted by [`Stored::key`]: most owners hold one set,
/// which sits in the node itself, so such an owner costs no block.
#[derive(Debug, Clone)]
enum Sets {
    One(Stored),
    Many(Vec<Stored>),
}

impl Node {
    fn sets(&self) -> &[Stored] {
        match &self.sets {
            Sets::One(only) => std::slice::from_ref(only),
            Sets::Many(all) => all,
        }
    }

    /// The set of `rtype` here (the first RRSIG set, for `RRSIG`).
    fn get(&self, rtype: RecordType) -> Option<&Stored> {
        self.sets().iter().find(|s| s.rtype == rtype)
    }

    /// The RRSIG sets here, one per covered type.
    fn signatures(&self) -> impl Iterator<Item = &Stored> {
        self.sets().iter().filter(|s| s.rtype == RecordType::RRSIG)
    }

    /// Adds `new`'s members to the set they belong to, or `new` as a
    /// set of its own; true when it started a set.
    fn add(&mut self, new: Stored) -> bool {
        let sets = match &mut self.sets {
            Sets::One(only) => std::slice::from_mut(only),
            Sets::Many(all) => all.as_mut_slice(),
        };
        if let Some(held) = sets.iter_mut().find(|s| s.key() == new.key()) {
            held.absorb(&new);
            return false;
        }
        let mut sets = match std::mem::replace(&mut self.sets, Sets::Many(Vec::new())) {
            Sets::One(only) => vec![only],
            Sets::Many(all) => all,
        };
        let at = sets.partition_point(|s| s.key() <= new.key());
        sets.insert(at, new);
        self.sets = Sets::Many(sets);
        true
    }

    /// Removes every set of `rtype`, returning how many records they held.
    fn remove(&mut self, rtype: RecordType) -> usize {
        let removed = self
            .sets()
            .iter()
            .filter(|s| s.rtype == rtype)
            .map(|s| s.rdatas.len())
            .sum();
        match &mut self.sets {
            Sets::One(only) if only.rtype == rtype => self.sets = Sets::Many(Vec::new()),
            Sets::One(_) => {}
            Sets::Many(all) => all.retain(|s| s.rtype != rtype),
        }
        removed
    }
}

/// The set of `rtype` at `owner` in a node that may not exist. For
/// `RRSIG` that is every signature there, as one set.
fn set_of(owner: &Name, node: Option<&Node>, rtype: RecordType) -> Option<RRset> {
    let node = node?;
    match rtype {
        RecordType::RRSIG => signature_set(owner, node.signatures()),
        _ => node.get(rtype).map(|s| s.at(owner)),
    }
}

/// The RRSIG set at `owner` made of `sigs`, one stored set per covered
/// type: shared when there is one, merged at the smallest TTL when
/// there are more (one set per owner and type, as on the wire).
fn signature_set<'z>(owner: &Name, mut sigs: impl Iterator<Item = &'z Stored>) -> Option<RRset> {
    let mut set = sigs.next()?.clone();
    sigs.for_each(|more| set.absorb(more));
    Some(set.at(owner))
}

/// A CNAME set as a walk serves it: its first target only (a zone may
/// hold more, which RFC 2181 §10.1 forbids).
fn first_alias(cname: &Stored, owner: &Name) -> RRset {
    let mut set = cname.at(owner);
    if set.len() > 1 {
        set.rdatas = Members::from(cname.rdatas[0].clone());
    }
    set
}

/// One zone of the namespace, with its RRsets and delegations.
///
/// RRsets are stored per owner name and type. NS RRsets at names other
/// than the origin mark delegation cuts; A/AAAA records stored at or
/// below a cut are *glue*, served only in referrals' additional section.
/// An SOA record added at the origin becomes the zone's SOA instead
/// ([`Zone::soa_rrset`]). An owner whose leftmost label is `*` is a
/// wildcard (RFC 4592), answering for the names below its parent that
/// the zone lacks.
///
/// The index is a hash map from owner name to its `Node`, so a query costs
/// one probe however large the zone is; canonical order exists only
/// where it is observable ([`Zone::iter`], [`Zone::names`]) and is
/// sorted there. A set's members are allocated once, here, and shared
/// by every response that carries the set and every cache that keeps it.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    /// Shared with every SOA set [`Zone::soa_rrset`] hands out, so a
    /// negative answer copies no SOA data.
    soa: Arc<SoaData>,
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
    /// Owners with a `*` label; zero means no wildcard name exists, so
    /// a lookup skips the wildcard step.
    wildcards: usize,
}

// Campaign cells on worker threads share one zone behind an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Zone>();
};

impl Zone {
    /// Creates an empty zone with a default SOA.
    pub fn new(origin: Name) -> Zone {
        let soa = Arc::new(SoaData {
            mname: origin.clone(),
            rname: Name::parse("hostmaster.invalid").expect("static name"),
            serial: 1,
            refresh: 7_200,
            retry: 3_600,
            expire: 1_209_600,
            minimum: 300,
        });
        Zone {
            origin,
            soa,
            soa_ttl: Ttl::HOUR,
            nodes: HashMap::new(),
            owners_below: HashMap::new(),
            cuts: 0,
            signed_nodes: 0,
            wildcards: 0,
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
        Arc::make_mut(&mut self.soa).minimum = ttl.as_secs();
    }

    /// The SOA as a servable set at the apex: the zone's own SOA data,
    /// shared, so building it allocates nothing. An SOA record added at
    /// the origin replaces it, data and TTL.
    pub fn soa_rrset(&self) -> RRset {
        RRset::new(
            self.origin.clone(),
            RecordType::SOA,
            self.soa_ttl,
            RData::Soa(self.soa.clone()),
        )
    }

    /// Adds a record to the RRset of its owner and type (of the type it
    /// covers, for an RRSIG), which takes the smaller TTL if they
    /// differ. The owner must be at or below the origin. An SOA at the
    /// origin becomes the zone's SOA instead of a stored record.
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
        if let RData::Soa(soa) = &record.rdata {
            if record.name == self.origin {
                self.soa = Arc::clone(soa);
                self.soa_ttl = record.ttl;
                return;
            }
        }
        if !self.nodes.contains_key(&record.name) {
            self.count_owner(&record.name, true);
        }
        let below_apex = record.name != self.origin;
        let Record {
            name,
            class,
            ttl,
            rdata,
        } = record;
        let rtype = rdata.record_type();
        let stored = Stored {
            rtype,
            class,
            ttl,
            rdatas: Members::from(rdata),
        };
        let (node, started) = match self.nodes.entry(name) {
            Entry::Vacant(slot) => {
                let node = Node {
                    sets: Sets::One(stored),
                    is_cut: false,
                };
                (slot.insert(node), true)
            }
            Entry::Occupied(slot) => {
                let node = slot.into_mut();
                let started = node.add(stored);
                (node, started)
            }
        };
        if started && rtype == RecordType::NS && below_apex {
            node.is_cut = true;
            self.cuts += 1;
        }
        if started && rtype == RecordType::RRSIG && node.signatures().count() == 1 {
            self.signed_nodes += 1;
        }
    }

    /// Removes all records of `rtype` at `name`, returning how many were
    /// removed.
    pub fn remove(&mut self, name: &Name, rtype: RecordType) -> usize {
        let Some(node) = self.nodes.get_mut(name) else {
            return 0;
        };
        let removed = node.remove(rtype);
        if removed == 0 {
            return 0;
        }
        if rtype == RecordType::NS && node.is_cut {
            node.is_cut = false;
            self.cuts -= 1;
        }
        if rtype == RecordType::RRSIG {
            self.signed_nodes -= 1;
        }
        if node.sets().is_empty() {
            self.nodes.remove(name);
            self.count_owner(name, false);
        }
        removed
    }

    /// Counts a new owner name into (or a vanished one out of)
    /// `owners_below` at each of its ancestors up to the origin, and
    /// into `wildcards` if it has a `*` label.
    fn count_owner(&mut self, owner: &Name, added: bool) {
        let star = usize::from(owner.labels().any(|label| label == "*"));
        match added {
            true => self.wildcards += star,
            false => self.wildcards -= star,
        }
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
    /// keeps its name but moves to a new VM. The new set is a new
    /// block: a cache holding the old one keeps the old address.
    pub fn replace_address(&mut self, name: &Name, new_addr: Ipv4Addr, fallback_ttl: Ttl) {
        self.replace_rrset(name, RData::A(new_addr), fallback_ttl);
    }

    /// IPv6 variant of [`Zone::replace_address`].
    pub fn replace_address_v6(&mut self, name: &Name, new_addr: Ipv6Addr, fallback_ttl: Ttl) {
        self.replace_rrset(name, RData::Aaaa(new_addr), fallback_ttl);
    }

    fn replace_rrset(&mut self, name: &Name, rdata: RData, fallback_ttl: Ttl) {
        let rtype = rdata.record_type();
        let ttl = self.get(name, rtype).map_or(fallback_ttl, |set| set.ttl);
        self.remove(name, rtype);
        self.add(Record::new(name.clone(), ttl, rdata));
        Arc::make_mut(&mut self.soa).serial += 1;
    }

    /// The RRset of `rtype` at exactly `name`, sharing the zone's
    /// members. For `RRSIG`, every signature there as one set.
    pub fn get(&self, name: &Name, rtype: RecordType) -> Option<RRset> {
        let (owner, node) = self.nodes.get_key_value(name)?;
        set_of(owner, Some(node), rtype)
    }

    /// The nodes in RFC 4034 §6.1 canonical owner order. The hash index
    /// has no order of its own, so the cold paths that show one (zone
    /// rendering, signing) sort here, on demand.
    fn nodes_in_order(&self) -> Vec<(&Name, &Node)> {
        let mut nodes: Vec<_> = self.nodes.iter().collect();
        nodes.sort_unstable_by_key(|&(name, _)| name);
        nodes
    }

    /// Iterates over all RRsets in the zone, sharing their members:
    /// owners in canonical order, each owner's sets by type, and one
    /// RRSIG set per covered type.
    pub fn iter(&self) -> impl Iterator<Item = RRset> + '_ {
        self.nodes_in_order()
            .into_iter()
            .flat_map(|(owner, node)| node.sets().iter().map(move |s| s.at(owner)))
    }

    /// Owner names present in the zone (including glue owners), in
    /// canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes_in_order().into_iter().map(|(name, _)| name)
    }

    /// Fetches the node at `qname` with its key, and the
    /// closest-to-the-apex delegation cut strictly below the origin at
    /// or above `qname` (a zone cannot see past its first cut).
    #[allow(clippy::type_complexity)]
    fn locate(&self, qname: &Name) -> (Option<(&Name, &Node)>, Option<(&Name, &Node)>) {
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
        (own, cut)
    }

    /// Addresses (A/AAAA) this zone holds for `target`, used to populate
    /// glue and additional sections; a set the section already holds
    /// (two NS or MX targets naming one host) is not added twice.
    fn addresses_for(&self, target: &Name, out: &mut Vec<RRset>) {
        let Some((owner, node)) = self.nodes.get_key_value(target) else {
            return;
        };
        for rtype in [RecordType::A, RecordType::AAAA] {
            if let Some(set) = node.get(rtype) {
                if !out
                    .iter()
                    .any(|held| held.rtype == rtype && held.name == *owner)
                {
                    out.push(set.at(owner));
                }
            }
        }
    }

    /// The one RFC 1034 §4.3.2 walk, with RFC 4592 wildcards: appends
    /// what the zone serves for `qname`, a name at or below the origin,
    /// to `out`'s three sections, cloning the zone's sets, and says what
    /// it was. The authoritative fills its response with it in place.
    pub(crate) fn walk(&self, qname: &Name, qtype: RecordType, out: &mut Message) -> Walk<'_> {
        debug_assert!(qname.is_subdomain_of(&self.origin));
        let (found, cut) = self.locate(qname);

        // Step: delegation cut above or at the qname → referral, unless
        // the question is for the cut's NS records from the parent side
        // (still a referral per RFC 1034: the parent is not
        // authoritative below the cut).
        if let Some((cut, cut_node)) = cut {
            if let Some(ns) = cut_node.get(RecordType::NS) {
                out.authorities.push(ns.at(cut));
                for rd in ns.rdatas.iter() {
                    if let RData::Ns(target) = rd {
                        // Glue is served for targets inside this zone's
                        // namespace (typically in-bailiwick of the cut).
                        if target.is_subdomain_of(&self.origin) {
                            self.addresses_for(target, &mut out.additionals);
                        }
                    }
                }
            }
            return Walk::Referral { cut };
        }

        // The zone's SOA answers at the apex.
        let start = out.answers.len();
        let mut node = found.map(|(_, node)| node);
        if qtype == RecordType::SOA && *qname == self.origin {
            out.answers.push(self.soa_rrset());
            self.sign(&self.origin, node, &mut out.answers, start);
            return Walk::Answer { sets: 1 };
        }

        // The name exists if it owns records, is the apex or is an empty
        // non-terminal (an ancestor of an owner name). One that does
        // not is read at its wildcard, if it has one, with the query
        // name, spelled as asked, as the owner of what it serves.
        let mut owner = found.map_or(qname, |(key, _)| key);
        let mut exists =
            node.is_some() || *qname == self.origin || self.owners_below.contains_key(qname);
        if !exists && self.wildcards > 0 {
            if let Some(source) = self.source_of_synthesis(qname) {
                (node, exists, owner) = (source, true, qname);
            }
        }

        // Exact-name processing.
        if let Some(direct) = set_of(owner, node, qtype) {
            if qtype != RecordType::CNAME {
                for target in direct.rdatas.iter().filter_map(RData::target_name) {
                    self.addresses_for(target, &mut out.additionals);
                }
            }
            out.answers.push(direct);
            self.sign(owner, node, &mut out.answers, start);
            return Walk::Answer { sets: 1 };
        }

        // CNAME at the name (and the query was not for CNAME itself)?
        // Chase the chain iteratively with a hop bound: zones can
        // contain CNAME loops (misconfiguration), and a server must
        // answer with the partial chain rather than recurse forever.
        // Targets are read as stored: the chase synthesises nothing.
        if qtype != RecordType::CNAME {
            if let Some(cname) = node.and_then(|n| n.get(RecordType::CNAME)) {
                out.answers.push(first_alias(cname, owner));
                let mut cursor = &cname.rdatas[0];
                for _ in 0..8 {
                    let RData::Cname(target) = cursor else {
                        break;
                    };
                    // The chain's owners are the names chased so far.
                    if out.answers[start..].iter().any(|s| s.name == *target) {
                        break; // loop: stop chasing, serve what we have
                    }
                    let Some((key, at_target)) = self.nodes.get_key_value(target) else {
                        break;
                    };
                    if let Some(direct) = set_of(key, Some(at_target), qtype) {
                        out.answers.push(direct);
                        break;
                    }
                    match at_target.get(RecordType::CNAME) {
                        Some(next) => {
                            out.answers.push(first_alias(next, key));
                            cursor = &next.rdatas[0];
                        }
                        None => break,
                    }
                }
                let sets = out.answers.len() - start;
                self.sign(owner, node, &mut out.answers, start);
                return Walk::Answer { sets };
            }
        }

        let start = out.authorities.len();
        out.authorities.push(self.soa_rrset());
        let apex = self.nodes.get(&self.origin);
        self.sign(&self.origin, apex, &mut out.authorities, start);
        if exists {
            Walk::NoData
        } else {
            Walk::NxDomain
        }
    }

    /// The source of synthesis for `qname`, a name the zone lacks: the
    /// wildcard below its closest encloser (its deepest ancestor that
    /// exists), if that exists; `Some(None)` if it owns nothing.
    fn source_of_synthesis(&self, qname: &Name) -> Option<Option<&Node>> {
        let floor = self.origin.as_str().len();
        let ancestors = qname.suffixes().skip(1);
        for ancestor in ancestors.take_while(|a| a.as_str().len() >= floor) {
            // An owner with no names below is a leaf: no wildcard.
            if self.owners_below.contains_key(&ancestor as &dyn NameKey) {
                let wildcard = ancestor.wildcard()?;
                let key = &wildcard as &dyn NameKey;
                let node = self.nodes.get(key);
                let exists = node.is_some() || self.owners_below.contains_key(key);
                return exists.then_some(node);
            }
            if self.nodes.contains_key(&ancestor as &dyn NameKey) {
                return None;
            }
        }
        None
    }

    /// Appends, at `owner`, the RRSIGs in `node` that cover a type in
    /// `section[start..]`, as one set; nothing to scan in an unsigned
    /// zone.
    fn sign(&self, owner: &Name, node: Option<&Node>, section: &mut Vec<RRset>, start: usize) {
        let Some(node) = node.filter(|_| self.signed_nodes > 0) else {
            return;
        };
        let served = &section[start..];
        let covering = node.signatures().filter(|sig| {
            sig.covers()
                .is_some_and(|t| served.iter().any(|s| s.rtype == t))
        });
        if let Some(sigs) = signature_set(owner, covering) {
            section.push(sigs);
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
    use crate::AuthoritativeServer;
    use dnsttl_netsim::{ClientId, DnsService, Region, SimTime};
    use dnsttl_wire::Rcode;

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

    /// The walk of `qname`/`qtype` into a fresh message, with what it
    /// said it was.
    fn ask(zone: &Zone, qname: &str, qtype: RecordType) -> (String, Message) {
        let mut out = Message::default();
        let walk = format!("{:?}", zone.walk(&n(qname), qtype, &mut out));
        (walk, out)
    }

    #[test]
    fn referral_at_delegation_carries_parent_ttl_and_glue() {
        let root = root_zone();
        let mut out = Message::default();
        let walk = root.walk(&n("www.example.cl"), RecordType::A, &mut out);
        assert_eq!(walk, Walk::Referral { cut: &n("cl") });
        assert!(out.answers.is_empty());
        assert_eq!(out.authorities.len(), 1);
        assert_eq!(out.authorities[0].ttl, Ttl::TWO_DAYS);
        // Glue: both A and AAAA of a.nic.cl.
        assert_eq!(out.additionals.len(), 2);
        assert!(out.additionals.iter().all(|g| g.name == n("a.nic.cl")));
    }

    #[test]
    fn ns_query_at_cut_is_also_a_referral_from_parent() {
        // The parent is not authoritative for the cut's NS set; it
        // serves it as a referral (no AA) — which is why parent-side
        // TTLs reach resolvers at all.
        let (walk, _) = ask(&root_zone(), "cl", RecordType::NS);
        assert_eq!(walk, "Referral { cut: Name(\"cl.\") }");
    }

    #[test]
    fn child_answers_its_apex_ns_authoritatively() {
        let (walk, out) = ask(&cl_zone(), "cl", RecordType::NS);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers[0].ttl, Ttl::HOUR); // child's own TTL
                                                   // Additional carries the in-zone address of the NS host with
                                                   // the child's A TTL (43200 s, Table 1 row 2).
        assert_eq!(out.additionals.len(), 1);
        assert_eq!(out.additionals[0].ttl.as_secs(), 43_200);
    }

    #[test]
    fn direct_a_query_gets_child_ttl() {
        let (walk, out) = ask(&cl_zone(), "a.nic.cl", RecordType::A);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers[0].ttl.as_secs(), 43_200);
    }

    #[test]
    fn delegation_below_child_origin_refers() {
        let (walk, out) = ask(&cl_zone(), "www.example.cl", RecordType::A);
        assert_eq!(walk, "Referral { cut: Name(\"example.cl.\") }");
        assert_eq!(out.additionals.len(), 1);
        assert_eq!(out.additionals[0].name, n("ns.example.cl"));
    }

    #[test]
    fn nxdomain_and_nodata_carry_soa() {
        let cl = cl_zone();
        let (walk, out) = ask(&cl, "nonexistent.cl", RecordType::A);
        assert_eq!(walk, "NxDomain");
        assert_eq!(out.authorities, [cl.soa_rrset()]);
        // a.nic.cl exists but has no MX.
        let (walk, out) = ask(&cl, "a.nic.cl", RecordType::MX);
        assert_eq!(walk, "NoData");
        assert_eq!(out.authorities, [cl.soa_rrset()]);
    }

    #[test]
    fn empty_non_terminal_is_nodata_not_nxdomain() {
        // "example.cl" exists (it has NS), and "www.example.cl" exists
        // below the cut; but "nic.cl" exists only as an empty
        // non-terminal above a.nic.cl.
        let (walk, _) = ask(&cl_zone(), "nic.cl", RecordType::A);
        assert_eq!(walk, "NoData");
    }

    #[test]
    fn out_of_zone_query_is_rejected() {
        // The server walks only the zones that hold the name.
        let mut srv = AuthoritativeServer::new("a.nic.cl").with_zone(cl_zone());
        let query = Message::iterative_query(1, n("example.org"), RecordType::A);
        let client = ClientId {
            region: Region::Eu,
            tag: 1,
        };
        let response = srv.handle_query(&query, client, SimTime::ZERO);
        assert_eq!(response.header.rcode, Rcode::Refused);
        assert!(response.answers.is_empty() && response.authorities.is_empty());
    }

    #[test]
    fn cname_is_chased_within_zone() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("www.example.cl", "web.example.cl", Ttl::HOUR)
            .a("web.example.cl", "203.0.113.80", Ttl::HOUR)
            .build();
        let (walk, out) = ask(&zone, "www.example.cl", RecordType::A);
        assert_eq!(walk, "Answer { sets: 2 }");
        assert_eq!(out.answers[0].rtype, RecordType::CNAME);
        assert_eq!(out.answers[1].rtype, RecordType::A);
    }

    #[test]
    fn cname_loop_in_zone_terminates() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "a.example.cl", Ttl::HOUR)
            .build();
        // Must not recurse forever; serves the partial chain.
        let (walk, out) = ask(&zone, "a.example.cl", RecordType::A);
        assert_eq!(walk, "Answer { sets: 2 }");
        assert!(out.answers.iter().all(|r| r.rtype == RecordType::CNAME));
    }

    #[test]
    fn long_cname_chain_is_followed_to_the_address() {
        let zone = ZoneBuilder::new("example.cl")
            .cname("a.example.cl", "b.example.cl", Ttl::HOUR)
            .cname("b.example.cl", "c.example.cl", Ttl::HOUR)
            .cname("c.example.cl", "d.example.cl", Ttl::HOUR)
            .a("d.example.cl", "203.0.113.4", Ttl::HOUR)
            .build();
        let (walk, out) = ask(&zone, "a.example.cl", RecordType::A);
        assert_eq!(walk, "Answer { sets: 4 }", "3 CNAMEs + final A");
        assert_eq!(out.answers[3].rtype, RecordType::A);
    }

    /// A §4-style experiment zone: apex NS and SOA, the NS host's
    /// address, and a wildcard AAAA for every probe's name.
    fn wildcard_zone() -> Zone {
        let soa = SoaData {
            mname: n("ns1.sub.cachetest.net"),
            rname: n("hostmaster.invalid"),
            serial: 1,
            refresh: 7_200,
            retry: 3_600,
            expire: 1_209_600,
            minimum: 60,
        };
        ZoneBuilder::new("sub.cachetest.net")
            .ns("sub.cachetest.net", "ns1.sub.cachetest.net", Ttl::HOUR)
            .a(
                "ns1.sub.cachetest.net",
                "18.184.0.20",
                Ttl::from_secs(7_200),
            )
            .aaaa("*.sub.cachetest.net", "2001:db8::1", Ttl::MINUTE)
            .record(Record::new(
                n("sub.cachetest.net"),
                Ttl::MINUTE,
                RData::Soa(Arc::new(soa)),
            ))
            .build()
    }

    #[test]
    fn a_wildcard_answers_one_and_two_labels_below_its_encloser() {
        let zone = wildcard_zone();
        for qname in ["p1.sub.cachetest.net", "A.b.SUB.cachetest.net"] {
            let (walk, out) = ask(&zone, qname, RecordType::AAAA);
            assert_eq!(walk, "Answer { sets: 1 }", "{qname}");
            // The owner is the query name, spelled as asked.
            assert_eq!(out.answers[0].name.as_str(), format!("{qname}."));
            assert_eq!(out.answers[0].ttl, Ttl::MINUTE);
            assert_eq!(out.answers[0].rdatas[0].to_string(), "2001:db8::1");
            assert!(out.authorities.is_empty() && out.additionals.is_empty());
        }
        // The wildcard owner itself is an exact match.
        let (_, out) = ask(&zone, "*.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(out.answers[0].name.as_str(), "*.sub.cachetest.net.");
    }

    #[test]
    fn a_wildcard_gives_any_other_type_nodata_with_the_soa() {
        let zone = wildcard_zone();
        for qtype in [RecordType::A, RecordType::TXT, RecordType::NS] {
            let (walk, out) = ask(&zone, "p1.sub.cachetest.net", qtype);
            assert_eq!(walk, "NoData", "{qtype}");
            assert_eq!(out.authorities, [zone.soa_rrset()]);
            assert_eq!(out.authorities[0].ttl, Ttl::MINUTE);
        }
    }

    #[test]
    fn a_wildcard_does_not_answer_for_a_name_that_exists() {
        let zone = wildcard_zone();
        // An owner: its own data or NODATA, never the wildcard's.
        let (walk, out) = ask(&zone, "ns1.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "NoData");
        assert!(out.answers.is_empty());
        // Below an owner that has no wildcard of its own: NXDOMAIN.
        let (walk, _) = ask(&zone, "x.ns1.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "NxDomain");
        // An empty non-terminal exists too.
        let mut zone = zone;
        zone.add(Record::new(
            n("a.b.sub.cachetest.net"),
            Ttl::HOUR,
            RData::Txt("t".into()),
        ));
        let (walk, _) = ask(&zone, "b.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "NoData");
        // Below it the closest encloser is `b`, which has no wildcard.
        let (walk, _) = ask(&zone, "x.b.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "NxDomain");
    }

    #[test]
    fn a_cut_takes_precedence_over_a_wildcard() {
        let zone = ZoneBuilder::new("cachetest.net")
            .aaaa("*.cachetest.net", "2001:db8::1", Ttl::MINUTE)
            .ns("sub.cachetest.net", "ns1.sub.cachetest.net", Ttl::HOUR)
            .build();
        let (walk, out) = ask(&zone, "p1.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "Referral { cut: Name(\"sub.cachetest.net.\") }");
        assert!(out.answers.is_empty());
        let (walk, _) = ask(&zone, "p1.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "Answer { sets: 1 }");
    }

    #[test]
    fn a_star_inside_a_label_is_no_wildcard() {
        let zone = ZoneBuilder::new("example")
            .a("a*b.example", "192.0.2.1", Ttl::HOUR)
            .a("x.*y.example", "192.0.2.2", Ttl::HOUR)
            .build();
        assert_eq!(zone.wildcards, 0);
        for qname in ["c.example", "q.*y.example"] {
            let (walk, _) = ask(&zone, qname, RecordType::A);
            assert_eq!(walk, "NxDomain", "{qname}");
        }
        let (walk, _) = ask(&zone, "a*b.example", RecordType::A);
        assert_eq!(walk, "Answer { sets: 1 }");
    }

    #[test]
    fn a_wildcard_with_names_below_it_answers_nodata() {
        // `*.example` owns nothing but `x.*.example` does: the
        // wildcard exists, as an empty non-terminal (RFC 4592 §2.2.2).
        let mut zone = ZoneBuilder::new("example")
            .a("x.*.example", "192.0.2.1", Ttl::HOUR)
            .build();
        let (walk, out) = ask(&zone, "q.example", RecordType::A);
        assert_eq!(walk, "NoData");
        assert_eq!(out.authorities, [zone.soa_rrset()]);
        // Remove the one owner and no wildcard is left to count.
        zone.remove(&n("x.*.example"), RecordType::A);
        assert_eq!(zone.wildcards, 0);
        let (walk, _) = ask(&zone, "q.example", RecordType::A);
        assert_eq!(walk, "NxDomain");
    }

    #[test]
    fn a_wildcard_owner_round_trips_through_a_zone_file() {
        let text = crate::render_zone(&wildcard_zone());
        assert!(text.contains("\n*.sub.cachetest.net. 60 IN AAAA 2001:db8::1\n"));
        let zone = crate::parse_zone("sub.cachetest.net", &text).unwrap();
        assert_eq!(crate::render_zone(&zone), text);
        let (walk, out) = ask(&zone, "p7.sub.cachetest.net", RecordType::AAAA);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers[0].name, n("p7.sub.cachetest.net"));
    }

    #[test]
    fn a_wildcard_cname_is_chased_from_the_query_name() {
        let zone = ZoneBuilder::new("example")
            .cname("*.example", "web.example", Ttl::HOUR)
            .a("web.example", "192.0.2.80", Ttl::HOUR)
            .build();
        let (walk, out) = ask(&zone, "Shop.example", RecordType::A);
        assert_eq!(walk, "Answer { sets: 2 }");
        assert_eq!(out.answers[0].name.as_str(), "Shop.example.");
        assert_eq!(out.answers[1].name, n("web.example"));
    }

    #[test]
    fn an_apex_soa_record_is_the_zone_soa_and_answers_soa() {
        let zone = wildcard_zone();
        assert_eq!(zone.soa().minimum, 60);
        assert_eq!(zone.soa().mname, n("ns1.sub.cachetest.net"));
        // Stored once: not among the records.
        assert!(zone.iter().all(|s| s.rtype != RecordType::SOA));
        let (walk, out) = ask(&zone, "SUB.cachetest.net", RecordType::SOA);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers, [zone.soa_rrset()]);
        // A zone without one answers with its default SOA.
        let (walk, out) = ask(&cl_zone(), "cl", RecordType::SOA);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers[0].rtype, RecordType::SOA);
    }

    #[test]
    fn renumber_preserves_ttl_and_bumps_serial() {
        let mut zone = cl_zone();
        let before_serial = zone.soa().serial;
        zone.replace_address(&n("a.nic.cl"), "198.51.100.99".parse().unwrap(), Ttl::HOUR);
        let set = zone.get(&n("a.nic.cl"), RecordType::A).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.ttl.as_secs(), 43_200, "TTL preserved");
        assert_eq!(set.rdatas[0], RData::A("198.51.100.99".parse().unwrap()));
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

    #[test]
    fn a_set_is_stored_once_and_shared_by_every_answer() {
        let zone = ZoneBuilder::new("uy")
            .ns("uy", "a.nic.uy", Ttl::from_secs(300))
            .ns("uy", "b.nic.uy", Ttl::from_secs(120))
            .ns("uy", "c.nic.uy", Ttl::from_secs(300))
            .build();
        let (_, first) = ask(&zone, "uy", RecordType::NS);
        let (_, second) = ask(&zone, "UY", RecordType::NS);
        let stored = zone.get(&n("uy"), RecordType::NS).unwrap();
        // Three members in the order added, at the smallest TTL.
        assert_eq!(stored.len(), 3);
        assert_eq!(stored.ttl.as_secs(), 120);
        assert!(first.answers[0].rdatas.ptr_eq(&stored.rdatas));
        assert!(second.answers[0].rdatas.ptr_eq(&stored.rdatas));
        // A change is a new block: the answers keep what they were given.
        let mut changed = zone.clone();
        changed.add(Record::new(n("uy"), Ttl::HOUR, RData::Ns(n("d.nic.uy"))));
        let grown = changed.get(&n("uy"), RecordType::NS).unwrap();
        assert_eq!(grown.len(), 4);
        assert!(!grown.rdatas.ptr_eq(&stored.rdatas));
        assert_eq!(first.answers[0].len(), 3);
        let mut renumbered = cl_zone();
        let held = renumbered.get(&n("a.nic.cl"), RecordType::A).unwrap();
        renumbered.replace_address(&n("a.nic.cl"), "198.51.100.9".parse().unwrap(), Ttl::HOUR);
        assert_eq!(held.rdatas[0], RData::A("190.124.27.10".parse().unwrap()));
    }

    /// `wildcard_zone` signed: every set, its SOA included.
    fn signed_zone() -> Zone {
        let mut zone = wildcard_zone();
        crate::sign_zone(&mut zone);
        zone
    }

    /// The signature over `set` in `section`, verified.
    fn verified(section: &[RRset], set: &RRset) -> bool {
        let sigs = section
            .iter()
            .find(|s| s.rtype == RecordType::RRSIG && s.name == set.name);
        sigs.is_some_and(|sigs| {
            sigs.rdatas
                .iter()
                .any(|sig| crate::verify_rrset(&set.name, set.rtype, &set.rdatas, sig))
        })
    }

    #[test]
    fn a_signed_zone_signs_its_soa_in_answers_and_denials() {
        let zone = signed_zone();
        let soa = zone.soa_rrset();
        let (walk, out) = ask(&zone, "sub.cachetest.net", RecordType::SOA);
        assert_eq!(walk, "Answer { sets: 1 }");
        assert_eq!(out.answers[0], soa);
        assert!(verified(&out.answers, &soa), "{out:?}");
        // NXDOMAIN (below a name that exists, with no wildcard) and
        // NODATA carry the SOA's signature in the authority section.
        for (qname, qtype, outcome) in [
            ("x.ns1.sub.cachetest.net", RecordType::A, "NxDomain"),
            ("ns1.sub.cachetest.net", RecordType::TXT, "NoData"),
        ] {
            let (walk, out) = ask(&zone, qname, qtype);
            assert_eq!(walk, outcome);
            assert_eq!(out.authorities[0], soa);
            assert_eq!(out.authorities.len(), 2, "{out:?}");
            assert!(verified(&out.authorities, &soa), "{out:?}");
        }
        // An answer carries only the signature over what it answers.
        let (_, out) = ask(&zone, "ns1.sub.cachetest.net", RecordType::A);
        assert_eq!(out.answers.len(), 2);
        assert!(verified(&out.answers, &out.answers[0]));
        assert_eq!(out.answers[1].len(), 1);
    }

    #[test]
    fn an_empty_apex_answers_nodata_for_every_type() {
        // The apex owns nothing; a name below it does.
        let zone = ZoneBuilder::new("example")
            .a("www.example", "192.0.2.1", Ttl::HOUR)
            .build();
        for qtype in [RecordType::A, RecordType::NS, RecordType::TXT] {
            let (walk, out) = ask(&zone, "EXAMPLE", qtype);
            assert_eq!(walk, "NoData", "{qtype}");
            assert_eq!(out.authorities, [zone.soa_rrset()]);
        }
        // A zone that holds nothing at all has its apex too.
        let empty = Zone::new(n("example"));
        let (walk, _) = ask(&empty, "example", RecordType::A);
        assert_eq!(walk, "NoData");
        let (walk, _) = ask(&empty, "www.example", RecordType::A);
        assert_eq!(walk, "NxDomain");
    }
}
