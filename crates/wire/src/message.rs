//! DNS messages.
//!
//! A message's four sections carry different levels of trust, and that
//! difference is the engine of the paper's §3: the same `a.nic.cl` A
//! record appears as *additional* data (glue) in a root referral and as
//! an *answer* with the AA bit set at the child — with different TTLs.
//! Which one a resolver believes determines the effective TTL.

use crate::record::Class;
use crate::{Name, RRset, Record, RecordType};
use std::fmt;

/// Message opcode (RFC 1035 §4.1.1). Only `Query` is exercised here;
/// `Notify` and `Update` exist for zone-maintenance realism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// A standard query.
    #[default]
    Query,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
}

impl Opcode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Notify => 4,
            Opcode::Update => 5,
        }
    }

    /// Decode from wire code, defaulting unknown opcodes to `Query`
    /// (they are rejected at a higher layer with `NotImp`).
    pub(crate) fn from_code(code: u8) -> Opcode {
        match code {
            4 => Opcode::Notify,
            5 => Opcode::Update,
            _ => Opcode::Query,
        }
    }
}

/// Response code (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure — what resolvers return when all authoritative
    /// servers for a zone are unreachable (§4.4 of the paper observes
    /// exactly this when the child servers are taken offline).
    ServFail,
    /// Name does not exist (authoritative denial).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
}

impl Rcode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    /// Decode from wire code; unknown codes map to `ServFail`, the
    /// conservative interpretation for a cache.
    pub(crate) fn from_code(code: u8) -> Rcode {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => Rcode::ServFail,
        }
    }
}

impl Rcode {
    /// The mnemonic as a static string — the allocation-free spelling
    /// of `to_string()` for telemetry labels and trace fields.
    pub fn as_str(&self) -> &'static str {
        match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Message header: ID plus flag bits (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction identifier echoed by responses.
    pub id: u16,
    /// True for responses (QR bit).
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative Answer. Records under this bit outrank glue in a
    /// resolver's cache (RFC 2181 §5.4.1) — the bit child-centricity
    /// hinges on.
    pub authoritative: bool,
    /// Truncation bit (response did not fit).
    pub truncated: bool,
    /// Recursion Desired, set by stub resolvers.
    pub recursion_desired: bool,
    /// Recursion Available, set by recursive resolvers.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
}

/// The question being asked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Name being queried.
    pub qname: Name,
    /// Record type being queried.
    pub qtype: RecordType,
    /// Class (virtually always `IN`).
    pub qclass: Class,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Question {
        Question {
            qname,
            qtype,
            qclass: Class::In,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// Identifies one of the three record-bearing response sections.
///
/// The paper's Table 1 annotates each record with the section it arrived
/// in ("Auth.", "Ans.", "Add.") because resolvers assign them different
/// credibility; this enum is how that bookkeeping flows through the
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// The answer section.
    Answer,
    /// The authority section (NS records of a referral, or SOA of a
    /// negative answer).
    Authority,
    /// The additional section (glue addresses and other hints).
    Additional,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Answer => "answer",
            Section::Authority => "authority",
            Section::Additional => "additional",
        })
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Message {
    /// Header with flags.
    pub header: Header,
    /// The question. Every query and every response to one carries
    /// exactly one; `None` is QDCOUNT 0, which an authoritative answers
    /// with FORMERR. QDCOUNT above one does not decode.
    pub question: Option<Question>,
    /// The answer section's RRsets.
    pub answers: Vec<RRset>,
    /// The authority section's RRsets.
    pub authorities: Vec<RRset>,
    /// The additional section's RRsets.
    pub additionals: Vec<RRset>,
}

impl Message {
    /// Builds a recursive-desired query for `qname`/`qtype`.
    pub fn query(id: u16, qname: Name, qtype: RecordType) -> Message {
        Message {
            header: Header {
                id,
                response: false,
                recursion_desired: true,
                ..Header::default()
            },
            question: Some(Question::new(qname, qtype)),
            ..Message::default()
        }
    }

    /// Builds an iterative (non-RD) query, as a recursive resolver sends
    /// to authoritative servers.
    pub fn iterative_query(id: u16, qname: Name, qtype: RecordType) -> Message {
        let mut m = Message::query(id, qname, qtype);
        m.header.recursion_desired = false;
        m
    }

    /// Starts a response to `query`, echoing ID and question.
    pub fn response_to(query: &Message) -> Message {
        let mut response = Message::default();
        response.reuse_as_response_to(query);
        response
    }

    /// Turns this message, whatever it held, into
    /// [`Message::response_to`]`(query)`, keeping the three sections'
    /// capacity: a recycled response is filled without allocating.
    pub fn reuse_as_response_to(&mut self, query: &Message) {
        // Destructured, so a new field cannot be left stale.
        let Message {
            header,
            question,
            answers,
            authorities,
            additionals,
        } = self;
        *header = Header {
            id: query.header.id,
            response: true,
            opcode: query.header.opcode,
            recursion_desired: query.header.recursion_desired,
            ..Header::default()
        };
        question.clone_from(&query.question);
        answers.clear();
        authorities.clear();
        additionals.clear();
    }

    /// Iterates `(section, record)` over all three response sections,
    /// each set's members in order, as the wire carries them: the one
    /// flattened view, for readers that want records rather than sets.
    pub fn sectioned_records(&self) -> impl Iterator<Item = (Section, Record)> + '_ {
        let sections = [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ];
        sections.into_iter().flat_map(|(section, sets)| {
            sets.iter()
                .flat_map(move |set| set.records().map(move |r| (section, r)))
        })
    }

    /// True if this response is a referral: no answers, NS records in
    /// the authority section, NOERROR.
    pub fn is_referral(&self) -> bool {
        self.header.response
            && self.header.rcode == Rcode::NoError
            && self.answers.is_empty()
            && self.authorities.iter().any(|s| s.rtype == RecordType::NS)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} aa={} rd={} ra={}",
            self.header.id,
            if self.header.response {
                "response"
            } else {
                "query"
            },
            self.header.rcode,
            self.header.authoritative,
            self.header.recursion_desired,
            self.header.recursion_available,
        )?;
        if let Some(q) = &self.question {
            writeln!(f, ";; question: {q}")?;
        }
        for (section, r) in self.sectioned_records() {
            writeln!(f, ";; {section}: {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RData, Ttl};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_sets_rd_and_question() {
        let q = Message::query(42, name("example.org"), RecordType::A);
        assert!(q.header.recursion_desired);
        assert!(!q.header.response);
        assert_eq!(q.question.as_ref().unwrap().qtype, RecordType::A);
        let iq = Message::iterative_query(42, name("example.org"), RecordType::A);
        assert!(!iq.header.recursion_desired);
    }

    #[test]
    fn response_echoes_id_and_question() {
        let q = Message::query(7, name("uy"), RecordType::NS);
        let r = Message::response_to(&q);
        assert_eq!(r.header.id, 7);
        assert!(r.header.response);
        assert_eq!(r.question, q.question);
    }

    #[test]
    fn referral_detection() {
        let q = Message::query(1, name("example.uy"), RecordType::A);
        let mut r = Message::response_to(&q);
        assert!(!r.is_referral());
        r.authorities.push(RRset::new(
            name("uy"),
            RecordType::NS,
            Ttl::TWO_DAYS,
            RData::Ns(name("a.nic.uy")),
        ));
        assert!(r.is_referral());
        // An actual answer means it is not a referral.
        r.answers.push(RRset::new(
            name("example.uy"),
            RecordType::A,
            Ttl::HOUR,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        assert!(!r.is_referral());
    }

    #[test]
    fn sectioned_records_covers_all_sections() {
        let mut m = Message::default();
        m.answers.push(RRset::new(
            name("a.example"),
            RecordType::A,
            Ttl::HOUR,
            vec![RData::A(Ipv4Addr::LOCALHOST), RData::A(Ipv4Addr::BROADCAST)],
        ));
        m.authorities.push(RRset::new(
            name("example"),
            RecordType::NS,
            Ttl::HOUR,
            RData::Ns(name("a.example")),
        ));
        m.additionals.push(RRset::new(
            name("a.example"),
            RecordType::A,
            Ttl::HOUR,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let sections: Vec<(Section, RData)> =
            m.sectioned_records().map(|(s, r)| (s, r.rdata)).collect();
        assert_eq!(
            sections,
            [
                (Section::Answer, RData::A(Ipv4Addr::LOCALHOST)),
                (Section::Answer, RData::A(Ipv4Addr::BROADCAST)),
                (Section::Authority, RData::Ns(name("a.example"))),
                (Section::Additional, RData::A(Ipv4Addr::new(192, 0, 2, 1))),
            ]
        );
    }

    #[test]
    fn rcode_round_trip() {
        for r in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            assert_eq!(Rcode::from_code(r.code()), r);
        }
        assert_eq!(Rcode::from_code(200), Rcode::ServFail);
    }
}
