//! Resource records and RRsets.

use crate::{Name, RData, RecordType, Ttl, WireError};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// DNS class. Only `IN` matters in practice; `CH`/`HS` are kept so the
/// codec can round-trip real-world oddities (version.bind queries etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Class {
    /// The Internet class.
    #[default]
    In,
    /// Chaosnet (used for server identification queries).
    Ch,
    /// Hesiod.
    Hs,
}

impl Class {
    /// The IANA class code.
    pub fn code(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Ch => 3,
            Class::Hs => 4,
        }
    }

    /// Looks up a class by IANA code.
    pub(crate) fn from_code(code: u16) -> Result<Class, WireError> {
        Ok(match code {
            1 => Class::In,
            3 => Class::Ch,
            4 => Class::Hs,
            other => return Err(WireError::UnknownClass(other)),
        })
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Class::In => "IN",
            Class::Ch => "CH",
            Class::Hs => "HS",
        })
    }
}

/// A single resource record: owner name, class, TTL, and typed data.
///
/// ```
/// use dnsttl_wire::{Name, RData, Record, Ttl};
/// let rr = Record::new(
///     Name::parse("a.nic.uy").unwrap(),
///     Ttl::from_secs(120),
///     RData::A("164.73.128.5".parse().unwrap()),
/// );
/// assert_eq!(rr.ttl.as_secs(), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name of the record.
    pub name: Name,
    /// Record class (almost always `IN`).
    pub class: Class,
    /// Time-to-live governing how long caches may reuse this record.
    pub ttl: Ttl,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Creates an `IN`-class record.
    pub fn new(name: Name, ttl: Ttl, rdata: RData) -> Record {
        Record {
            name,
            class: Class::In,
            ttl,
            rdata,
        }
    }

    /// The record's type, derived from its data.
    pub fn record_type(&self) -> RecordType {
        self.rdata.record_type()
    }

    /// A stable 64-bit fingerprint of the record's identity and data —
    /// everything except the TTL.
    ///
    /// Two records with the same owner, class, type and data always
    /// fingerprint identically, whatever their TTLs: caches use this to
    /// distinguish a *refresh* (same data re-learned, clock restarts)
    /// from an *overwrite* (different data — e.g. an authoritative
    /// renumbering becoming visible). FNV-1a over the canonical
    /// presentation form; stable across runs and platforms, not
    /// collision-resistant against adversaries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(
            FNV_OFFSET,
            self.name.to_string().to_ascii_lowercase().as_bytes(),
        );
        h = fnv1a(h, &self.class.code().to_be_bytes());
        h = fnv1a(h, &self.record_type().code().to_be_bytes());
        fnv1a(h, self.rdata.to_string().as_bytes())
    }
}

/// The FNV-1a-64 offset basis: the hash of no bytes, where a fresh
/// [`fnv1a`] starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 of `bytes`, continued from the hash `h`: the one digest
/// behind record fingerprints, dataset digests and the artifact digest
/// table. Stable across runs and platforms, not collision-resistant.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, b))
}

/// One FNV-1a-64 step: `byte` folded into the hash `h`. [`fnv1a`] and
/// `Name`'s case-folded hash both take it, so the prime is spelled once.
pub(crate) fn fnv1a_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl.as_secs(),
            self.class,
            self.record_type(),
            self.rdata
        )
    }
}

/// The data of an RRset's members, in the set's order: one member held
/// inline, two or more in one shared block of exactly their number.
///
/// Most sets are one address, so most sets need no block at all; a
/// larger one (a zone's NS set) is allocated once, where the zone
/// stores it, and every message, cache and answer that holds the set
/// afterwards shares that block: cloning `Members` never copies a
/// member. It reads as a slice.
///
/// ```
/// use dnsttl_wire::{Members, RData};
/// let one = Members::from(RData::A("192.0.2.1".parse().unwrap()));
/// let ns = |s: &str| RData::Ns(s.parse().unwrap());
/// let two = Members::from(vec![ns("a.nic.uy"), ns("b.nic.uy")]);
/// let shared = two.clone();
/// assert!(shared.ptr_eq(&two));
/// assert_eq!((one.len(), two.len()), (1, 2));
/// ```
#[derive(Clone)]
pub struct Members(Held);

#[derive(Clone)]
enum Held {
    One(RData),
    Many(Arc<[RData]>),
}

impl Members {
    /// True when `self` and `other` share one block: a clone of the
    /// same set. Always false for a lone member, which is not shared.
    pub fn ptr_eq(&self, other: &Members) -> bool {
        match (&self.0, &other.0) {
            (Held::Many(a), Held::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Takes every member out of `run`, leaving its buffer for reuse: a
    /// lone one inline, more into one block of exactly their number.
    pub(crate) fn drained(run: &mut Vec<RData>) -> Members {
        match run.len() {
            1 => Members(Held::One(run.pop().expect("one member"))),
            _ => Members(Held::Many(run.drain(..).collect())),
        }
    }
}

impl Default for Members {
    /// No member; takes no block.
    fn default() -> Members {
        Members(Held::Many(Arc::default()))
    }
}

impl std::ops::Deref for Members {
    type Target = [RData];

    fn deref(&self) -> &[RData] {
        match &self.0 {
            Held::One(only) => std::slice::from_ref(only),
            Held::Many(all) => all,
        }
    }
}

impl From<RData> for Members {
    fn from(only: RData) -> Members {
        Members(Held::One(only))
    }
}

impl From<Vec<RData>> for Members {
    /// A lone member moves inline; more move into one block.
    fn from(mut rdatas: Vec<RData>) -> Members {
        Members::drained(&mut rdatas)
    }
}

impl PartialEq for Members {
    fn eq(&self, other: &Members) -> bool {
        **self == **other
    }
}

impl Eq for Members {}

impl fmt::Debug for Members {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A set of records sharing owner name, class, and type: the unit a
/// zone stores, a message section carries and a cache keeps.
///
/// RFC 2181 §5.2 requires all records of an RRset to share one TTL; the
/// constructor normalises differing TTLs to the minimum, as resolvers do.
#[derive(Clone, PartialEq, Eq)]
pub struct RRset {
    /// Owner name shared by every record in the set.
    pub name: Name,
    /// Class shared by every record in the set (almost always `IN`).
    pub class: Class,
    /// Type shared by every record in the set.
    pub rtype: RecordType,
    /// The common TTL (minimum of the members' TTLs).
    pub ttl: Ttl,
    /// The member records' data; cloning the set shares them.
    pub rdatas: Members,
}

impl RRset {
    /// An `IN`-class set of `rdatas` at `name`, all of `rtype`.
    pub fn new(name: Name, rtype: RecordType, ttl: Ttl, rdatas: impl Into<Members>) -> RRset {
        RRset {
            name,
            class: Class::In,
            rtype,
            ttl,
            rdatas: rdatas.into(),
        }
    }

    /// Assembles an RRset from records, which must share name, class
    /// and type.
    ///
    /// Returns `None` for an empty slice or on mixed names/types.
    pub fn from_records(records: &[Record]) -> Option<RRset> {
        let first = records.first()?;
        let rtype = first.record_type();
        let mut ttl = first.ttl;
        for r in records {
            if r.name != first.name || r.record_type() != rtype || r.class != first.class {
                return None;
            }
            ttl = ttl.min(r.ttl); // RFC 2181 §5.2: differing TTLs → minimum
        }
        let rdatas = match records {
            [only] => Members::from(only.rdata.clone()),
            _ => Members(Held::Many(
                records.iter().map(|r| r.rdata.clone()).collect(),
            )),
        };
        Some(RRset {
            name: first.name.clone(),
            class: first.class,
            rtype,
            ttl,
            rdatas,
        })
    }

    /// Number of records in the set.
    pub fn len(&self) -> usize {
        self.rdatas.len()
    }

    /// True if the set contains no records (never produced by
    /// [`RRset::from_records`], but reachable by manual construction).
    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }

    /// The members as records, each at the set's owner, class and TTL:
    /// the per-record view of tools that print or inspect records.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.rdatas.iter().map(|rdata| Record {
            name: self.name.clone(),
            class: self.class,
            ttl: self.ttl,
            rdata: rdata.clone(),
        })
    }

    /// A stable, TTL-excluded, member-order-insensitive fingerprint of
    /// the whole set.
    ///
    /// The member data are rendered to canonical presentation form,
    /// sorted, and hashed in that order, so `{a, b}` and `{b, a}`
    /// fingerprint identically — RRset semantics are set semantics.
    /// See [`Record::fingerprint`] for what caches use this for.
    ///
    /// Caches call this on every store that changes an entry's data, so
    /// the shapes they store go through neither an allocation nor
    /// `core::fmt`: the name part — FNV-1a from the offset basis over
    /// the case-folded presentation form — is the hash every [`Name`]
    /// already carries; a one-member set needs no sorting, so its bytes
    /// go straight into the hash (`FnvWriter::member`); and a set whose
    /// members are all names (a zone's `NS` set) sorts the borrowed
    /// strings. Any other multi-member set renders each member to sort
    /// it. Every path hashes the bytes `RData`'s `Display` prints, so
    /// the value is the one traces and ledgers have always exported.
    pub fn fingerprint(&self) -> u64 {
        let members = &self.rdatas[..];
        let mut w = FnvWriter(fnv1a(
            self.name.folded_hash(),
            &self.rtype.code().to_be_bytes(),
        ));
        if let [only] = members {
            w.member(only);
        } else if members.iter().all(|rd| name_member(rd).is_some()) {
            // Sorted on the stack: a root's thirteen fit, and only a
            // longer set asks for a vector.
            const INLINE: usize = 13;
            let mut inline = [""; INLINE];
            let mut spilled = Vec::new();
            let names: &mut [&str] = if members.len() <= INLINE {
                for (slot, n) in inline
                    .iter_mut()
                    .zip(members.iter().filter_map(name_member))
                {
                    *slot = n;
                }
                &mut inline[..members.len()]
            } else {
                spilled.extend(members.iter().filter_map(name_member));
                &mut spilled
            };
            names.sort_unstable();
            for n in names {
                w.text(n);
            }
        } else {
            let mut datas: Vec<String> = members.iter().map(|rd| rd.to_string()).collect();
            datas.sort();
            for d in &datas {
                w.text(d);
            }
        }
        w.0
    }
}

impl fmt::Debug for RRset {
    /// The fields, the class only when it is not `IN`: almost every set
    /// is, and traces and pinned transcripts print sets this way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("RRset");
        d.field("name", &self.name);
        if self.class != Class::In {
            d.field("class", &self.class);
        }
        d.field("rtype", &self.rtype)
            .field("ttl", &self.ttl)
            .field("rdatas", &self.rdatas)
            .finish()
    }
}

/// The name an `NS` or `CNAME` member holds, as
/// [`RRset::fingerprint`] sorts it.
fn name_member(rd: &RData) -> Option<&str> {
    match rd {
        RData::Ns(n) | RData::Cname(n) => Some(n.as_str()),
        _ => None,
    }
}

/// A running FNV-1a hash over the presentation form of an RRset's
/// members.
struct FnvWriter(u64);

impl FnvWriter {
    /// One member's text followed by a NUL: no concatenation aliasing.
    fn text(&mut self, member: impl AsRef<[u8]>) {
        self.0 = fnv1a(fnv1a(self.0, member.as_ref()), b"\0");
    }

    /// One member, as [`FnvWriter::text`] of its `Display` form. The
    /// types a resolver caches by the thousand are spelled out — an
    /// address as its dotted quad, a name as the buffer it already
    /// holds; the rest stream through `Display`, which needs no
    /// intermediate `String` either.
    fn member(&mut self, rd: &RData) {
        match rd {
            RData::A(addr) => {
                // "255.255.255.255" is the longest it gets.
                let mut quad = [0u8; 15];
                let mut len = 0;
                for (i, octet) in addr.octets().into_iter().enumerate() {
                    if i > 0 {
                        quad[len] = b'.';
                        len += 1;
                    }
                    for place in [100, 10] {
                        if octet >= place {
                            quad[len] = b'0' + octet / place % 10;
                            len += 1;
                        }
                    }
                    quad[len] = b'0' + octet % 10;
                    len += 1;
                }
                self.text(&quad[..len]);
            }
            RData::Ns(n) | RData::Cname(n) => self.text(n.as_str()),
            // Neither the writer nor `RData`'s `Display` can fail.
            other => {
                let _ = write!(self, "{other}\0");
            }
        }
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrsigData;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a(owner: &str, ttl: u32, addr: [u8; 4]) -> Record {
        Record::new(
            name(owner),
            Ttl::from_secs(ttl),
            RData::A(Ipv4Addr::from(addr)),
        )
    }

    #[test]
    fn class_codes_round_trip() {
        for c in [Class::In, Class::Ch, Class::Hs] {
            assert_eq!(Class::from_code(c.code()).unwrap(), c);
        }
        assert!(Class::from_code(2).is_err());
    }

    #[test]
    fn record_display_is_zonefile_like() {
        let rr = a("a.nic.uy", 120, [164, 73, 128, 5]);
        assert_eq!(rr.to_string(), "a.nic.uy. 120 IN A 164.73.128.5");
    }

    #[test]
    fn rrset_normalises_ttl_to_minimum() {
        let set = RRset::from_records(&[
            a("ns.example", 3600, [1, 1, 1, 1]),
            a("ns.example", 300, [2, 2, 2, 2]),
        ])
        .unwrap();
        assert_eq!(set.ttl.as_secs(), 300);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn fingerprints_ignore_ttl_but_see_data() {
        let rr = a("x.example", 300, [1, 2, 3, 4]);
        let aged = a("x.example", 17, [1, 2, 3, 4]);
        assert_eq!(rr.fingerprint(), aged.fingerprint());
        let other = a("x.example", 300, [1, 2, 3, 5]);
        assert_ne!(rr.fingerprint(), other.fingerprint());
        let other_name = a("y.example", 300, [1, 2, 3, 4]);
        assert_ne!(rr.fingerprint(), other_name.fingerprint());
    }

    #[test]
    fn rrset_fingerprint_is_order_insensitive_and_ttl_free() {
        let fwd = RRset::from_records(&[
            a("ns.example", 3600, [1, 1, 1, 1]),
            a("ns.example", 3600, [2, 2, 2, 2]),
        ])
        .unwrap();
        let rev = RRset::from_records(&[
            a("ns.example", 60, [2, 2, 2, 2]),
            a("ns.example", 60, [1, 1, 1, 1]),
        ])
        .unwrap();
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        let grown = RRset::from_records(&[
            a("ns.example", 3600, [1, 1, 1, 1]),
            a("ns.example", 3600, [2, 2, 2, 2]),
            a("ns.example", 3600, [3, 3, 3, 3]),
        ])
        .unwrap();
        assert_ne!(fwd.fingerprint(), grown.fingerprint());
        // A single record's set fingerprint differs from the record
        // fingerprint (different domains), but both are stable.
        let single = RRset::from_records(&[a("ns.example", 5, [1, 1, 1, 1])]).unwrap();
        assert_eq!(single.fingerprint(), single.clone().fingerprint());
    }

    /// The allocating definition [`RRset::fingerprint`] had before it
    /// streamed: traces and ledgers print these values, so the
    /// streaming form must reproduce them bit for bit.
    fn reference_fingerprint(set: &RRset) -> u64 {
        let mut h = fnv1a(
            FNV_OFFSET,
            set.name.to_string().to_ascii_lowercase().as_bytes(),
        );
        h = fnv1a(h, &set.rtype.code().to_be_bytes());
        let mut datas: Vec<String> = set.rdatas.iter().map(|rd| rd.to_string()).collect();
        datas.sort();
        for d in &datas {
            h = fnv1a(h, d.as_bytes());
            h = fnv1a(h, b"\x00");
        }
        h
    }

    #[test]
    fn rrset_fingerprint_equals_the_allocating_definition() {
        let host = name("NS1.Example.ORG");
        let variants = vec![
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            RData::Ns(host.clone()),
            RData::Cname(host.clone()),
            RData::Soa(Arc::new(crate::SoaData {
                mname: host.clone(),
                rname: name("hostmaster.example.org"),
                serial: 2019,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            })),
            RData::Mx {
                preference: 10,
                exchange: host.clone(),
            },
            RData::Txt("v=spf1 \"quoted\" -all".to_owned()),
            RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: vec![1, 2, 3],
            },
            RData::Rrsig(Arc::new(RrsigData {
                type_covered: RecordType::A,
                algorithm: 13,
                original_ttl: 300,
                signer: host.clone(),
                signature: vec![9; 8],
            })),
            RData::Opt(vec![0; 4]),
        ];
        // Mixed-case and folded owners are one fingerprint class.
        for owner in ["A.Nic.UY", "a.nic.uy", "."] {
            for rd in &variants {
                let set = RRset::new(name(owner), rd.record_type(), Ttl::HOUR, rd.clone());
                assert_eq!(set.fingerprint(), reference_fingerprint(&set), "{set:?}");
                assert_eq!(
                    set.fingerprint(),
                    RRset {
                        name: name(&owner.to_ascii_lowercase()),
                        ..set.clone()
                    }
                    .fingerprint()
                );
            }
        }
        let three = [
            a("Ns.Example", 60, [10, 0, 0, 2]),
            a("ns.example", 60, [9, 0, 0, 1]),
            a("ns.example", 60, [10, 0, 0, 1]),
        ];
        let fwd = RRset::from_records(&three).unwrap();
        let mut reversed = three.clone();
        reversed.reverse();
        let rev = RRset::from_records(&reversed).unwrap();
        assert_eq!(fwd.fingerprint(), reference_fingerprint(&fwd));
        assert_eq!(rev.fingerprint(), reference_fingerprint(&rev));
        assert_eq!(fwd.fingerprint(), rev.fingerprint());
        // NS sets sorted on the stack, at its bound, and past it.
        for members in [2, 13, 14, 20] {
            let mut rdatas: Vec<RData> = (0..members)
                .map(|k| RData::Ns(name(&format!("NS{}.example", (k * 11) % members))))
                .collect();
            let mut set = RRset::new(name("example"), RecordType::NS, Ttl::HOUR, rdatas.clone());
            assert_eq!(set.fingerprint(), reference_fingerprint(&set), "{members}");
            rdatas.reverse();
            let forward = set.fingerprint();
            set.rdatas = rdatas.into();
            assert_eq!(set.fingerprint(), forward, "{members} reversed");
        }
        // The empty set (manual construction only) keeps its value too.
        let empty = RRset {
            rdatas: Members::default(),
            ..fwd.clone()
        };
        assert_eq!(empty.fingerprint(), reference_fingerprint(&empty));
    }

    /// One labelled set per shape [`RRset::fingerprint`] tells apart.
    fn golden_sets() -> Vec<(&'static str, RRset)> {
        let host = name("NS1.Example.ORG");
        let v4 = |o: [u8; 4]| RData::A(Ipv4Addr::from(o));
        let ns = |s: &str| RData::Ns(name(s));
        let set = |owner: &str, rdatas: Vec<RData>| {
            RRset::new(name(owner), rdatas[0].record_type(), Ttl::HOUR, rdatas)
        };
        vec![
            ("a", set("a.nic.uy", vec![v4([192, 0, 2, 1])])),
            (
                "a octets 0/9/10/99",
                set("a.nic.uy", vec![v4([0, 9, 10, 99])]),
            ),
            (
                "a octets 100/255",
                set("a.nic.uy", vec![v4([100, 255, 0, 9])]),
            ),
            ("a at the root", set(".", vec![v4([255, 255, 255, 255])])),
            (
                "aaaa",
                set(
                    "a.nic.uy",
                    vec![RData::Aaaa("2001:db8::1".parse().unwrap())],
                ),
            ),
            ("ns", set("uy", vec![ns("a.nic.uy")])),
            (
                "ns, mixed-case target",
                set("uy", vec![RData::Ns(host.clone())]),
            ),
            (
                "cname",
                set("www.example.org", vec![RData::Cname(host.clone())]),
            ),
            (
                "soa",
                set(
                    "example.org",
                    vec![RData::Soa(Arc::new(crate::SoaData {
                        mname: host.clone(),
                        rname: name("hostmaster.example.org"),
                        serial: 2019,
                        refresh: 7200,
                        retry: 900,
                        expire: 1_209_600,
                        minimum: 300,
                    }))],
                ),
            ),
            (
                "mx",
                set(
                    "example.org",
                    vec![RData::Mx {
                        preference: 10,
                        exchange: host.clone(),
                    }],
                ),
            ),
            (
                "txt with a quote and a non-ASCII byte",
                set(
                    "example.org",
                    vec![RData::Txt("v=spf1 \"caf\u{e9}\" -all".to_owned())],
                ),
            ),
            (
                "dnskey",
                set(
                    "example.org",
                    vec![RData::Dnskey {
                        flags: 257,
                        protocol: 3,
                        algorithm: 13,
                        key: vec![1, 2, 3],
                    }],
                ),
            ),
            (
                "rrsig",
                set(
                    "example.org",
                    vec![RData::Rrsig(Arc::new(RrsigData {
                        type_covered: RecordType::A,
                        algorithm: 13,
                        original_ttl: 300,
                        signer: host.clone(),
                        signature: vec![9; 8],
                    }))],
                ),
            ),
            ("opt", set(".", vec![RData::Opt(vec![0; 4])])),
            (
                "mixed-case owner",
                set("A.Nic.UY", vec![v4([192, 0, 2, 1])]),
            ),
            (
                "3 ns",
                set("uy", vec![ns("c.nic.uy"), ns("A.nic.uy"), ns("b.nic.uy")]),
            ),
            (
                "3 ns, another order",
                set("uy", vec![ns("b.nic.uy"), ns("c.nic.uy"), ns("A.nic.uy")]),
            ),
            (
                "3 a",
                set(
                    "ns.example",
                    vec![v4([10, 0, 0, 2]), v4([9, 0, 0, 1]), v4([10, 0, 0, 1])],
                ),
            ),
            (
                "3 a, another order",
                set(
                    "ns.example",
                    vec![v4([9, 0, 0, 1]), v4([10, 0, 0, 1]), v4([10, 0, 0, 2])],
                ),
            ),
            (
                "ns + cname",
                RRset {
                    rtype: RecordType::NS,
                    ..set("uy", vec![ns("b.nic.uy"), RData::Cname(name("a.nic.uy"))])
                },
            ),
            (
                "cname + ns",
                RRset {
                    rtype: RecordType::NS,
                    ..set("uy", vec![RData::Cname(name("a.nic.uy")), ns("b.nic.uy")])
                },
            ),
            (
                "a + aaaa",
                set(
                    "ns.example",
                    vec![
                        v4([10, 0, 0, 2]),
                        RData::Aaaa("2001:db8::1".parse().unwrap()),
                    ],
                ),
            ),
            (
                "aaaa + a",
                RRset {
                    rtype: RecordType::A,
                    ..set(
                        "ns.example",
                        vec![
                            RData::Aaaa("2001:db8::1".parse().unwrap()),
                            v4([10, 0, 0, 2]),
                        ],
                    )
                },
            ),
        ]
    }

    /// [`golden_sets`] as the commit before the fingerprint stopped
    /// going through `core::fmt` printed them (`158c128`): `fp` is on
    /// every ledger line and trace event, so these may never move.
    const GOLDEN_FINGERPRINTS: [(&str, u64); 23] = [
        ("a", 0xd1caa727b6ec8974),
        ("a octets 0/9/10/99", 0xdd7a8bb44e585d51),
        ("a octets 100/255", 0x4c040ee8706afc6b),
        ("a at the root", 0x1ef756c682c766cc),
        ("aaaa", 0x7ab9e584cb6c4d06),
        ("ns", 0x852e68066a0075da),
        ("ns, mixed-case target", 0x7ecbe5bfd6badcb3),
        ("cname", 0xd2a9c40ca1ba9707),
        ("soa", 0xa96f3b0f2aba2cfc),
        ("mx", 0xd25f2a10f07f50a5),
        ("txt with a quote and a non-ASCII byte", 0xe2277563cf21799c),
        ("dnskey", 0x74d8f438e8421f4b),
        ("rrsig", 0x76018350a279ccdf),
        ("opt", 0xb1a729af82e2fc1f),
        ("mixed-case owner", 0xd1caa727b6ec8974),
        ("3 ns", 0x80321edba0ddfd7b),
        ("3 ns, another order", 0x80321edba0ddfd7b),
        ("3 a", 0x7fb7da79f8526782),
        ("3 a, another order", 0x7fb7da79f8526782),
        ("ns + cname", 0xa7b8dce10246f80e),
        ("cname + ns", 0xa7b8dce10246f80e),
        ("a + aaaa", 0xa0677a81a2ccdd32),
        ("aaaa + a", 0xa0677a81a2ccdd32),
    ];

    #[test]
    fn fingerprints_keep_their_pinned_values() {
        let sets = golden_sets();
        assert_eq!(sets.len(), GOLDEN_FINGERPRINTS.len());
        for ((label, set), (pinned_label, pinned)) in sets.iter().zip(GOLDEN_FINGERPRINTS) {
            assert_eq!(*label, pinned_label);
            assert_eq!(
                set.fingerprint(),
                pinned,
                "{label}: {:#018x}",
                set.fingerprint()
            );
            assert_eq!(set.fingerprint(), reference_fingerprint(set), "{label}");
        }
    }

    #[test]
    fn rrset_rejects_mixed_members() {
        assert!(RRset::from_records(&[]).is_none());
        let mixed_name = [
            a("a.example", 60, [1, 1, 1, 1]),
            a("b.example", 60, [1, 1, 1, 2]),
        ];
        assert!(RRset::from_records(&mixed_name).is_none());
        let mixed_type = [
            a("a.example", 60, [1, 1, 1, 1]),
            Record::new(
                name("a.example"),
                Ttl::MINUTE,
                RData::Ns(name("ns.example")),
            ),
        ];
        assert!(RRset::from_records(&mixed_type).is_none());
    }
}
