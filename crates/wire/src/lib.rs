//! # dnsttl-wire — DNS data model and wire format
//!
//! This crate is the protocol substrate for the `dnsttl` workspace, the
//! reproduction of *Cache Me If You Can: Effects of DNS Time-to-Live*
//! (IMC 2019). It provides the pieces of the DNS that every other crate
//! builds on:
//!
//! * [`Name`] — domain names with label semantics, case-insensitive
//!   comparison, and the ancestry operations ([`Name::is_subdomain_of`])
//!   that bailiwick rules are built from;
//! * [`Ttl`] — a time-to-live newtype enforcing the RFC 2181 §8 31-bit
//!   bound, with saturating arithmetic used by caches counting TTLs down;
//! * [`RData`] / [`RecordType`] — typed record data for the record types
//!   the paper crawls (A, AAAA, NS, CNAME, SOA, MX, TXT, DNSKEY) plus the
//!   supporting types (RRSIG, OPT) a security-aware resolver encounters;
//! * [`Record`] and [`RRset`] — resource records and TTL-coherent sets;
//! * [`Message`] — full DNS messages: header flags (QR/AA/TC/RD/RA),
//!   response codes, and the four sections whose differing trust levels
//!   (answer vs authority vs additional) drive the paper's findings;
//! * [`codec`] — RFC 1035 wire-format encoding and decoding, including
//!   name compression, [`encoded_len`], the size of that encoding
//!   without the bytes, and [`fits`], whether that size is within a
//!   limit, mostly without the compression walk: simulated servers and
//!   resolvers hand each other [`Message`]s that are known to be legal
//!   DNS packets that fit (or not) in a UDP payload, and only tools that
//!   need octets pay for them.
//!
//! Everything here is plain data with no I/O, in the spirit of sans-I/O
//! protocol stacks: deterministic, easily property-tested, and usable from
//! both the discrete-event simulator and ordinary unit tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod dnssec;
pub mod message;
pub mod name;
pub mod rdata;
pub mod record;
pub mod ttl;

mod error;

pub use codec::{decode_message, encode_message, encoded_len, fits};
pub use dnssec::{sign_rrset, verify_rrset};
pub use error::WireError;
pub use message::{Header, Message, Opcode, Question, Rcode, Section};
pub use name::Name;
pub use rdata::{RData, RecordType, RrsigData, SoaData};
pub use record::{fnv1a, Class, Members, RRset, Record, FNV_OFFSET};
pub use ttl::Ttl;
