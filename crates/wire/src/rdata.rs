//! Record types and typed record data.
//!
//! The paper crawls NS, A, AAAA, MX, DNSKEY and CNAME records (Table 5)
//! and reasons about SOA (negative caching) and RRSIG (DNSSEC forces
//! child-side fetches, §2). All of those are represented here as typed
//! variants; anything else can be carried opaquely.

use crate::{Name, WireError};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// DNS record type codes (RFC 1035 §3.2.2 and successors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// Authoritative name server.
    NS,
    /// Canonical name alias.
    CNAME,
    /// Start of authority.
    SOA,
    /// Mail exchange.
    MX,
    /// Free-form text.
    TXT,
    /// IPv6 address.
    AAAA,
    /// DNSSEC public key.
    DNSKEY,
    /// DNSSEC signature.
    RRSIG,
    /// EDNS(0) pseudo-record.
    OPT,
}

impl RecordType {
    /// The IANA type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::NS => 2,
            RecordType::CNAME => 5,
            RecordType::SOA => 6,
            RecordType::MX => 15,
            RecordType::TXT => 16,
            RecordType::AAAA => 28,
            RecordType::DNSKEY => 48,
            RecordType::RRSIG => 46,
            RecordType::OPT => 41,
        }
    }

    /// Looks up a type by IANA code.
    pub(crate) fn from_code(code: u16) -> Result<RecordType, WireError> {
        Ok(match code {
            1 => RecordType::A,
            2 => RecordType::NS,
            5 => RecordType::CNAME,
            6 => RecordType::SOA,
            15 => RecordType::MX,
            16 => RecordType::TXT,
            28 => RecordType::AAAA,
            48 => RecordType::DNSKEY,
            46 => RecordType::RRSIG,
            41 => RecordType::OPT,
            other => return Err(WireError::UnknownType(other)),
        })
    }

    /// All concrete (non-pseudo) types, in crawl order. This is the set
    /// Table 5 of the paper reports, plus RRSIG.
    pub fn concrete() -> [RecordType; 9] {
        [
            RecordType::NS,
            RecordType::A,
            RecordType::AAAA,
            RecordType::MX,
            RecordType::DNSKEY,
            RecordType::CNAME,
            RecordType::SOA,
            RecordType::TXT,
            RecordType::RRSIG,
        ]
    }
}

impl RecordType {
    /// The mnemonic as a static string — the allocation-free spelling
    /// of `to_string()` for telemetry labels and trace fields.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecordType::A => "A",
            RecordType::NS => "NS",
            RecordType::CNAME => "CNAME",
            RecordType::SOA => "SOA",
            RecordType::MX => "MX",
            RecordType::TXT => "TXT",
            RecordType::AAAA => "AAAA",
            RecordType::DNSKEY => "DNSKEY",
            RecordType::RRSIG => "RRSIG",
            RecordType::OPT => "OPT",
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// SOA record contents (RFC 1035 §3.3.13).
///
/// The `minimum` field doubles as the negative-caching TTL bound
/// (RFC 2308 §4), which the resolver crate honours.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary name server for the zone.
    pub mname: Name,
    /// Mailbox of the person responsible.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry bound for secondaries, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds (RFC 2308).
    pub minimum: u32,
}

/// RRSIG record contents (RFC 4034 §3), simplified: enough structure
/// for the TTL interactions that matter here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RrsigData {
    /// Type of the RRset covered by this signature.
    pub type_covered: RecordType,
    /// Signing algorithm number.
    pub algorithm: u8,
    /// Original TTL of the covered RRset — DNSSEC pins the TTL the
    /// *child* zone published, which is why validating resolvers are
    /// necessarily child-centric (§2 of the paper).
    pub original_ttl: u32,
    /// Name of the zone that signed.
    pub signer: Name,
    /// Signature bytes.
    pub signature: Vec<u8>,
}

/// Typed record data.
///
/// 32 bytes: the two variants larger than that, [`RData::Soa`] and
/// [`RData::Rrsig`], hold their data behind an `Arc`, so cloning any
/// record still allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name server host name.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Start of authority. Shared: the variant is a pointer, so it
    /// leaves every `RData` at the 32 bytes an `Mx` needs, and a zone's
    /// SOA goes into each negative answer without a copy.
    Soa(Arc<SoaData>),
    /// Mail exchange: preference and exchanger host.
    Mx {
        /// Preference value; lower is preferred.
        preference: u16,
        /// Host name of the mail exchanger.
        exchange: Name,
    },
    /// Text record.
    Txt(String),
    /// DNSSEC key (flags, protocol, algorithm, opaque key bytes).
    Dnskey {
        /// Key flags field (256 = ZSK, 257 = KSK).
        flags: u16,
        /// Always 3 for DNSSEC.
        protocol: u8,
        /// Signing algorithm number.
        algorithm: u8,
        /// Public key bytes.
        key: Vec<u8>,
    },
    /// DNSSEC signature over an RRset, shared like [`RData::Soa`].
    Rrsig(Arc<RrsigData>),
    /// Opaque EDNS(0) pseudo-record payload.
    Opt(Vec<u8>),
}

impl RData {
    /// The record type this data belongs to.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::AAAA,
            RData::Ns(_) => RecordType::NS,
            RData::Cname(_) => RecordType::CNAME,
            RData::Soa(_) => RecordType::SOA,
            RData::Mx { .. } => RecordType::MX,
            RData::Txt(_) => RecordType::TXT,
            RData::Dnskey { .. } => RecordType::DNSKEY,
            RData::Rrsig(_) => RecordType::RRSIG,
            RData::Opt(_) => RecordType::OPT,
        }
    }

    /// For record data that points at another name (NS, CNAME, MX),
    /// the pointed-at name. Resolvers chase these to find server
    /// addresses; whether the target is in or out of bailiwick is the
    /// crux of §4 of the paper.
    pub fn target_name(&self) -> Option<&Name> {
        match self {
            RData::Ns(n) | RData::Cname(n) => Some(n),
            RData::Mx { exchange, .. } => Some(exchange),
            _ => None,
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(t) => write!(f, "{t:?}"),
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => write!(f, "{flags} {protocol} {algorithm} ({} bytes)", key.len()),
            RData::Rrsig(sig) => write!(
                f,
                "{} {} {} {}",
                sig.type_covered, sig.algorithm, sig.original_ttl, sig.signer
            ),
            RData::Opt(b) => write!(f, "OPT ({} bytes)", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_round_trip() {
        for t in RecordType::concrete() {
            assert_eq!(RecordType::from_code(t.code()).unwrap(), t);
        }
        assert_eq!(RecordType::from_code(41).unwrap(), RecordType::OPT);
        assert!(matches!(
            RecordType::from_code(99),
            Err(WireError::UnknownType(99))
        ));
    }

    #[test]
    fn rdata_knows_its_type() {
        let name = Name::parse("ns1.example.org").unwrap();
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).record_type(), RecordType::A);
        assert_eq!(RData::Ns(name.clone()).record_type(), RecordType::NS);
        assert_eq!(
            RData::Mx {
                preference: 10,
                exchange: name.clone()
            }
            .record_type(),
            RecordType::MX
        );
    }

    #[test]
    fn target_name_extraction() {
        let host = Name::parse("ns1.example.org").unwrap();
        assert_eq!(RData::Ns(host.clone()).target_name(), Some(&host));
        assert_eq!(RData::Cname(host.clone()).target_name(), Some(&host));
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).target_name(), None);
    }
}
