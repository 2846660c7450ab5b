//! RFC 1035 wire-format encoding and decoding.
//!
//! The encoder performs standard name compression (back-pointers to
//! earlier occurrences); the decoder accepts compression anywhere a name
//! may appear and rejects forward pointers and pointer loops.
//! [`encoded_len`] is the encoder run without a buffer; [`fits`], all the
//! simulator's exchange path asks, runs it only for a message whose
//! uncompressed length is over the limit. Round-trip fidelity, and that
//! both agree with the bytes, are enforced by property tests in `tests/`
//! of this crate.

use crate::message::{Header, Message, Opcode, Question, Rcode};
use crate::name::{NameKey, NameSuffix, ReprBuf};
use crate::rdata::{RData, RecordType, RrsigData, SoaData};
use crate::record::{Class, Members, RRset, Record};
use crate::{Name, Ttl, WireError};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Upper bound on an encoded message (TCP-framed DNS limit).
pub(crate) const MAX_MESSAGE_LEN: usize = 65_535;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Where the traversal puts its octets. [`encode_message`] writes them
/// into a `Vec<u8>`; [`encoded_len`] only counts them. Everything that
/// decides *which* octets — header, sections, rdata, compression — is in
/// [`Writer`], once, so the two cannot disagree.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    /// Octets written so far: the offset of the next one.
    fn pos(&self) -> usize;
    /// Fills in a 16-bit field written earlier as a placeholder.
    fn patch_u16(&mut self, at: usize, v: u16);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn pos(&self) -> usize {
        self.len()
    }

    fn patch_u16(&mut self, at: usize, v: u16) {
        self[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
}

/// The sink of [`encoded_len`]: a length and no bytes.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn pos(&self) -> usize {
        self.0
    }

    fn patch_u16(&mut self, _at: usize, _v: u16) {}
}

/// One earlier occurrence of a name suffix: the borrowed spelling, its
/// case-folded hash, and the offset a pointer to it carries.
#[derive(Clone, Copy)]
struct Slot<'m> {
    /// Dot-terminated, so never empty for a real entry; `""` marks a
    /// free slot.
    suffix: &'m str,
    hash: u64,
    offset: u16,
}

const FREE: Slot<'static> = Slot {
    suffix: "",
    hash: 0,
    offset: 0,
};

/// Slots held inline: room for the 24 suffixes of a 13-server referral
/// with glue before the table moves to the heap.
const INLINE_SLOTS: usize = 32;

/// The name-compression table: suffix → offset of its first occurrence
/// in the message, for suffixes first written below `0x3FFF`.
///
/// Keys are borrowed slices of the message's own names, matched
/// case-insensitively. Open addressing with linear probing over a
/// power-of-two slot array that starts on the stack and moves to the
/// heap, doubling, when three quarters full — an ordinary message never
/// allocates. Lookup-only (never iterated for output): pointer targets
/// depend on encounter order in the message, so the bytes are
/// deterministic.
struct NameTable<'m> {
    inline: [Slot<'m>; INLINE_SLOTS],
    /// Replaces `inline` once non-empty.
    heap: Vec<Slot<'m>>,
    len: usize,
}

impl<'m> NameTable<'m> {
    fn new() -> NameTable<'m> {
        NameTable {
            inline: [FREE; INLINE_SLOTS],
            heap: Vec::new(),
            len: 0,
        }
    }

    fn slots(&mut self) -> &mut [Slot<'m>] {
        if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        }
    }

    /// The slot holding `suffix`, or the free slot where it belongs.
    fn probe(slots: &[Slot<'m>], suffix: &str, hash: u64) -> usize {
        let mask = slots.len() - 1;
        let mut i = (hash ^ (hash >> 32)) as usize & mask;
        loop {
            let s = &slots[i];
            if s.suffix.is_empty()
                || (s.hash == hash && (s.suffix == suffix || s.suffix.eq_ignore_ascii_case(suffix)))
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The offset of an earlier occurrence of `suffix`. Failing that,
    /// `here` — where the caller is about to write it — becomes that
    /// occurrence for later names, if a 14-bit pointer can reach it.
    fn prior_or_register(&mut self, suffix: NameSuffix<'m>, here: usize) -> Option<u16> {
        if (self.len + 1) * 4 > self.slots().len() * 3 {
            self.grow();
        }
        let (suffix, hash) = (suffix.as_str(), suffix.folded_hash());
        let slots = self.slots();
        let at = Self::probe(slots, suffix, hash);
        if !slots[at].suffix.is_empty() {
            return Some(slots[at].offset);
        }
        if here < 0x3FFF {
            slots[at] = Slot {
                suffix,
                hash,
                offset: here as u16,
            };
            self.len += 1;
        }
        None
    }

    /// Doubles the slot array, on the heap from here on.
    fn grow(&mut self) {
        let old = self.slots();
        let mut grown = vec![FREE; old.len() * 2];
        for s in old.iter().filter(|s| !s.suffix.is_empty()) {
            let at = Self::probe(&grown, s.suffix, s.hash);
            grown[at] = *s;
        }
        self.heap = grown;
    }
}

/// The codec's one walk over a message, generic in where the octets go.
struct Writer<'m, S> {
    out: S,
    names: NameTable<'m>,
}

impl<'m, S: Sink> Writer<'m, S> {
    fn new(out: S) -> Writer<'m, S> {
        Writer {
            out,
            names: NameTable::new(),
        }
    }

    fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }

    fn u16(&mut self, v: u16) {
        self.out.put(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.put(&v.to_be_bytes());
    }

    /// One label: its length octet, then its bytes.
    fn label(&mut self, label: &str) {
        self.u8(label.len() as u8);
        self.out.put(label.as_bytes());
    }

    /// Writes `name`, compressing against previously written names.
    ///
    /// For each suffix of the name we either emit a pointer to a prior
    /// occurrence or emit the label and remember the offset (offsets must
    /// fit in 14 bits to be pointer targets).
    fn name(&mut self, name: &'m Name) {
        for suffix in name.suffixes() {
            let label = suffix.label();
            if label.is_empty() {
                break; // the root: only the terminator is left
            }
            if let Some(prior) = self.names.prior_or_register(suffix, self.out.pos()) {
                self.u16(0xC000 | prior);
                return;
            }
            self.label(label);
        }
        self.u8(0); // root terminator
    }

    fn question(&mut self, q: &'m Question) {
        self.name(&q.qname);
        self.u16(q.qtype.code());
        self.u16(q.qclass.code());
    }

    /// An RRset: one record per member, in the set's order, each at
    /// the set's owner, class and TTL.
    fn rrset(&mut self, set: &'m RRset) -> Result<(), WireError> {
        for rd in set.rdatas.iter() {
            self.name(&set.name);
            self.u16(rd.record_type().code());
            self.u16(set.class.code());
            self.u32(set.ttl.as_secs());
            // Reserve RDLENGTH, fill in after writing RDATA.
            let len_pos = self.out.pos();
            self.u16(0);
            let start = self.out.pos();
            self.rdata(rd)?;
            let rdlen = self.out.pos() - start;
            let field = u16::try_from(rdlen).map_err(|_| WireError::RdataTooLong(rdlen))?;
            self.out.patch_u16(len_pos, field);
        }
        Ok(())
    }

    fn rdata(&mut self, rd: &'m RData) -> Result<(), WireError> {
        match rd {
            RData::A(addr) => self.out.put(&addr.octets()),
            RData::Aaaa(addr) => self.out.put(&addr.octets()),
            // Compression inside RDATA is legal for NS/CNAME/SOA/MX
            // (RFC 1035 §4.1.4 allows it for these "well-known" types).
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Soa(soa) => {
                self.name(&soa.mname);
                self.name(&soa.rname);
                self.u32(soa.serial);
                self.u32(soa.refresh);
                self.u32(soa.retry);
                self.u32(soa.expire);
                self.u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.u16(*preference);
                self.name(exchange);
            }
            RData::Txt(t) => {
                // The decoder reads each octet as one char, so only
                // ASCII text comes back as it went in.
                if let Some(c) = t.chars().find(|c| !c.is_ascii()) {
                    return Err(WireError::InvalidCharacter(c));
                }
                // Character-strings of at most 255 bytes each.
                for chunk in t.as_bytes().chunks(255) {
                    self.u8(chunk.len() as u8);
                    self.out.put(chunk);
                }
                if t.is_empty() {
                    self.u8(0);
                }
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => {
                self.u16(*flags);
                self.u8(*protocol);
                self.u8(*algorithm);
                self.out.put(key);
            }
            RData::Rrsig(sig) => {
                self.u16(sig.type_covered.code());
                self.u8(sig.algorithm);
                self.u32(sig.original_ttl);
                // Signer name must NOT be compressed (RFC 4034 §3.1.7);
                // we emit it label by label without registering offsets.
                for label in sig.signer.labels() {
                    self.label(label);
                }
                self.u8(0);
                self.out.put(&sig.signature);
            }
            RData::Opt(bytes) => self.out.put(bytes),
        }
        Ok(())
    }

    fn message(&mut self, msg: &'m Message) -> Result<(), WireError> {
        let h = &msg.header;
        self.u16(h.id);
        let mut flags: u16 = 0;
        if h.response {
            flags |= 1 << 15;
        }
        flags |= (h.opcode.code() as u16) << 11;
        if h.authoritative {
            flags |= 1 << 10;
        }
        if h.truncated {
            flags |= 1 << 9;
        }
        if h.recursion_desired {
            flags |= 1 << 8;
        }
        if h.recursion_available {
            flags |= 1 << 7;
        }
        flags |= h.rcode.code() as u16;
        self.u16(flags);
        let sections = [&msg.answers, &msg.authorities, &msg.additionals];
        self.u16(u16::from(msg.question.is_some()));
        for sets in sections {
            let count = sets.iter().map(RRset::len).sum();
            self.u16(u16::try_from(count).map_err(|_| WireError::TooManyRecords(count))?);
        }
        if let Some(q) = &msg.question {
            self.question(q);
        }
        for set in sections.into_iter().flatten() {
            self.rrset(set)?;
        }
        if self.out.pos() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLarge(self.out.pos()));
        }
        Ok(())
    }
}

/// Encodes a message to wire format: each section's sets in order,
/// each set as its members in order.
///
/// `Ok(bytes)` means [`decode_message`] turns `bytes` back into a
/// message equal to `msg` when no section holds two sets of one owner,
/// type and class (the decoder would merge them) or a member of another
/// type than its set's; a message with no encoding at all (a record's
/// data or a section's count past 16 bits, non-ASCII text, more than
/// `MAX_MESSAGE_LEN` octets) is an error.
pub fn encode_message(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new(Vec::with_capacity(512));
    w.message(msg)?;
    Ok(w.out)
}

/// The length [`encode_message`] would produce, without producing it:
/// the same traversal and the same compression decisions, counting
/// octets instead of writing them. `Ok(n)` exactly when
/// `encode_message(msg)` is `Ok` of `n` bytes, and the same error
/// otherwise. An ordinary message costs no allocation.
pub fn encoded_len(msg: &Message) -> Result<usize, WireError> {
    let mut w = Writer::new(Count(0));
    w.message(msg)?;
    Ok(w.out.0)
}

/// Whether `msg` encodes to at most `limit` octets: `Ok(true)` exactly
/// when [`encoded_len`] is `Ok(n)` with `n <= limit`, `Ok(false)` when
/// `n > limit`, and `encoded_len`'s error otherwise. Only a message whose
/// uncompressed length is over the limit, or over `MAX_MESSAGE_LEN`
/// (past which every other error lies), takes the compression walk.
pub fn fits(msg: &Message, limit: usize) -> Result<bool, WireError> {
    match plain_len(msg) {
        Some(bound) if bound <= limit.min(MAX_MESSAGE_LEN) => Ok(true),
        _ => encoded_len(msg).map(|n| n <= limit),
    }
}

/// The length of `msg` with every name written in full: never below
/// [`encoded_len`], since a compression pointer's two octets replace at
/// least a label and the terminator. `None` for text the codec rejects.
fn plain_len(msg: &Message) -> Option<usize> {
    let mut len = 12 + msg.question.as_ref().map_or(0, |q| q.qname.wire_len() + 4);
    let sets = [&msg.answers, &msg.authorities, &msg.additionals];
    for (set, rdata) in sets
        .into_iter()
        .flatten()
        .flat_map(|s| s.rdatas.iter().map(move |rd| (s, rd)))
    {
        len += set.name.wire_len() + 10;
        len += match rdata {
            RData::A(_) => 4,
            RData::Aaaa(_) => 16,
            RData::Ns(n) | RData::Cname(n) => n.wire_len(),
            RData::Soa(soa) => soa.mname.wire_len() + soa.rname.wire_len() + 20,
            RData::Mx { exchange, .. } => 2 + exchange.wire_len(),
            // One length octet per 255-byte chunk, and one for "".
            RData::Txt(t) if t.is_ascii() => t.len() + t.len().div_ceil(255).max(1),
            RData::Txt(_) => return None,
            RData::Dnskey { key, .. } => 4 + key.len(),
            RData::Rrsig(sig) => 7 + sig.signer.wire_len() + sig.signature.len(),
            RData::Opt(bytes) => bytes.len(),
        };
    }
    Some(len)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated {
            expected: what,
            at: self.pos,
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let hi = self.u8(what)? as u16;
        let lo = self.u8(what)? as u16;
        Ok(hi << 8 | lo)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let hi = self.u16(what)? as u32;
        let lo = self.u16(what)? as u32;
        Ok(hi << 16 | lo)
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos + n;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated {
            expected: what,
            at: self.pos,
        })?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a possibly-compressed name starting at the current offset.
    ///
    /// Pointers must point strictly backwards, which also bounds the
    /// number of jumps and rules out loops.
    fn name(&mut self) -> Result<Name, WireError> {
        let mut repr = ReprBuf::new();
        let mut pos = self.pos;
        let mut followed_pointer = false;
        let mut end_after_first_pointer = self.pos;
        let mut min_ptr_target = usize::MAX;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated {
                expected: "name label length",
                at: pos,
            })? as usize;
            if len & 0xC0 == 0xC0 {
                let lo = *self.buf.get(pos + 1).ok_or(WireError::Truncated {
                    expected: "compression pointer",
                    at: pos + 1,
                })? as usize;
                let target = (len & 0x3F) << 8 | lo;
                if target >= pos || target >= min_ptr_target {
                    return Err(WireError::BadCompressionPointer(pos));
                }
                min_ptr_target = target;
                if !followed_pointer {
                    end_after_first_pointer = pos + 2;
                    followed_pointer = true;
                }
                pos = target;
            } else if len == 0 {
                pos += 1;
                break;
            } else {
                if len > crate::name::MAX_LABEL_LEN {
                    return Err(WireError::LabelTooLong(len));
                }
                let bytes = self
                    .buf
                    .get(pos + 1..pos + 1 + len)
                    .ok_or(WireError::Truncated {
                        expected: "name label",
                        at: pos + 1,
                    })?;
                // Labels live in a text buffer, so only ASCII bytes
                // survive an encode round-trip unchanged, and a dot
                // inside a label would blur the label boundaries in
                // presentation form; reject both rather than accept a
                // name we cannot re-encode faithfully.
                if let Some(&b) = bytes.iter().find(|&&b| !b.is_ascii() || b == b'.') {
                    return Err(WireError::InvalidCharacter(b as char));
                }
                repr.push(std::str::from_utf8(bytes).expect("checked ASCII"));
                repr.push(".");
                pos += 1 + len;
            }
        }
        self.pos = if followed_pointer {
            end_after_first_pointer
        } else {
            pos
        };
        repr.finish()
    }

    fn question(&mut self) -> Result<Question, WireError> {
        let qname = self.name()?;
        let qtype = RecordType::from_code(self.u16("qtype")?)?;
        let qclass = Class::from_code(self.u16("qclass")?)?;
        Ok(Question {
            qname,
            qtype,
            qclass,
        })
    }

    fn record(&mut self) -> Result<Record, WireError> {
        let name = self.name()?;
        let rtype = RecordType::from_code(self.u16("rtype")?)?;
        let class = Class::from_code(self.u16("class")?)?;
        let ttl = Ttl::from_wire(self.u32("ttl")?);
        let rdlen = self.u16("rdlength")? as usize;
        let rdata_end = self.pos + rdlen;
        if rdata_end > self.buf.len() {
            return Err(WireError::Truncated {
                expected: "rdata",
                at: self.pos,
            });
        }
        let rdata_start = self.pos;
        let rdata = self.rdata(rtype, rdlen)?;
        if self.pos != rdata_end {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed: self.pos - rdata_start,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }

    /// Reads a section of `count` records into RRsets, in order of
    /// first appearance: a record joins the set of an earlier one with
    /// its owner (compared case-insensitively), type and class, and the
    /// set keeps its first record's spelling and the minimum of its
    /// members' TTLs (RFC 2181 §5.2).
    ///
    /// A set's members gather in `run` while its records run on
    /// together, as the encoder writes them, and move into one block
    /// when the run ends; a lone member goes straight into its set.
    fn section(
        &mut self,
        count: u16,
        sets: &mut Vec<RRset>,
        run: &mut Vec<RData>,
    ) -> Result<(), WireError> {
        let first = sets.len();
        // The set whose members are in `run`.
        let mut open: Option<usize> = None;
        for _ in 0..count {
            let r = self.record()?;
            let rtype = r.record_type();
            let same = |s: &RRset| s.rtype == rtype && s.class == r.class && s.name == r.name;
            let Some(i) = sets[first..].iter().position(same).map(|i| first + i) else {
                close(sets, &mut open, run);
                sets.push(RRset {
                    name: r.name,
                    class: r.class,
                    rtype,
                    ttl: r.ttl,
                    rdatas: Members::from(r.rdata),
                });
                continue;
            };
            if open != Some(i) {
                // A new run, or a set interleaved with another: its
                // members so far start the run.
                close(sets, &mut open, run);
                run.extend(sets[i].rdatas.iter().cloned());
                open = Some(i);
            }
            run.push(r.rdata);
            sets[i].ttl = sets[i].ttl.min(r.ttl);
        }
        close(sets, &mut open, run);
        Ok(())
    }

    fn rdata(&mut self, rtype: RecordType, rdlen: usize) -> Result<RData, WireError> {
        Ok(match rtype {
            RecordType::A => {
                let o = self.bytes(4, "A rdata")?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::AAAA => {
                let o = self.bytes(16, "AAAA rdata")?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::NS => RData::Ns(self.name()?),
            RecordType::CNAME => RData::Cname(self.name()?),
            RecordType::SOA => RData::Soa(Arc::new(SoaData {
                mname: self.name()?,
                rname: self.name()?,
                serial: self.u32("SOA serial")?,
                refresh: self.u32("SOA refresh")?,
                retry: self.u32("SOA retry")?,
                expire: self.u32("SOA expire")?,
                minimum: self.u32("SOA minimum")?,
            })),
            RecordType::MX => RData::Mx {
                preference: self.u16("MX preference")?,
                exchange: self.name()?,
            },
            RecordType::TXT => {
                let end = self.pos + rdlen;
                let mut text = String::new();
                while self.pos < end {
                    let n = self.u8("TXT length")? as usize;
                    let chunk = self.bytes(n, "TXT chunk")?;
                    // Same ASCII restriction as name labels: a `String`
                    // re-encodes non-ASCII chars as multi-byte UTF-8,
                    // which would change the wire form.
                    if let Some(&b) = chunk.iter().find(|b| !b.is_ascii()) {
                        return Err(WireError::InvalidCharacter(b as char));
                    }
                    text.extend(chunk.iter().map(|&b| b as char));
                }
                RData::Txt(text)
            }
            RecordType::DNSKEY => {
                let flags = self.u16("DNSKEY flags")?;
                let protocol = self.u8("DNSKEY protocol")?;
                let algorithm = self.u8("DNSKEY algorithm")?;
                let key_len = rdlen.checked_sub(4).ok_or(WireError::Truncated {
                    expected: "DNSKEY key",
                    at: self.pos,
                })?;
                let key = self.bytes(key_len, "DNSKEY key")?.to_vec();
                RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    key,
                }
            }
            RecordType::RRSIG => {
                let start = self.pos;
                let type_covered = RecordType::from_code(self.u16("RRSIG covered")?)?;
                let algorithm = self.u8("RRSIG algorithm")?;
                let original_ttl = self.u32("RRSIG original ttl")?;
                let signer = self.name()?;
                let consumed = self.pos - start;
                let sig_len = rdlen.checked_sub(consumed).ok_or(WireError::Truncated {
                    expected: "RRSIG signature",
                    at: self.pos,
                })?;
                let signature = self.bytes(sig_len, "RRSIG signature")?.to_vec();
                RData::Rrsig(Arc::new(RrsigData {
                    type_covered,
                    algorithm,
                    original_ttl,
                    signer,
                    signature,
                }))
            }
            RecordType::OPT => RData::Opt(self.bytes(rdlen, "OPT rdata")?.to_vec()),
        })
    }
}

/// Decodes a wire-format message.
pub fn decode_message(buf: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder { buf, pos: 0 };
    let id = d.u16("header id")?;
    let flags = d.u16("header flags")?;
    let header = Header {
        id,
        response: flags & (1 << 15) != 0,
        opcode: Opcode::from_code(((flags >> 11) & 0xF) as u8),
        authoritative: flags & (1 << 10) != 0,
        truncated: flags & (1 << 9) != 0,
        recursion_desired: flags & (1 << 8) != 0,
        recursion_available: flags & (1 << 7) != 0,
        rcode: Rcode::from_code((flags & 0xF) as u8),
    };
    let qd = d.u16("qdcount")?;
    if qd > 1 {
        return Err(WireError::TooManyQuestions(qd));
    }
    let an = d.u16("ancount")?;
    let ns = d.u16("nscount")?;
    let ar = d.u16("arcount")?;
    let mut msg = Message {
        header,
        ..Message::default()
    };
    if qd == 1 {
        msg.question = Some(d.question()?);
    }
    let mut run = Vec::new();
    d.section(an, &mut msg.answers, &mut run)?;
    d.section(ns, &mut msg.authorities, &mut run)?;
    d.section(ar, &mut msg.additionals, &mut run)?;
    Ok(msg)
}

/// Moves the members gathered in `run` into the set `open` names, if
/// any, as one block.
fn close(sets: &mut [RRset], open: &mut Option<usize>, run: &mut Vec<RData>) {
    if let Some(i) = open.take() {
        sets[i].rdatas = Members::drained(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use std::collections::HashMap;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// A one-member set.
    fn set(owner: Name, ttl: Ttl, rdata: RData) -> RRset {
        RRset::new(owner, rdata.record_type(), ttl, rdata)
    }

    fn sample_message() -> Message {
        let q = Message::iterative_query(0x1234, name("example.cl"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.header.rcode = Rcode::NoError;
        r.authorities
            .push(set(name("cl"), Ttl::TWO_DAYS, RData::Ns(name("a.nic.cl"))));
        r.additionals.push(set(
            name("a.nic.cl"),
            Ttl::TWO_DAYS,
            RData::A("190.124.27.10".parse().unwrap()),
        ));
        r.additionals.push(set(
            name("a.nic.cl"),
            Ttl::TWO_DAYS,
            RData::Aaaa("2001:1398:1::300".parse().unwrap()),
        ));
        r
    }

    #[test]
    fn round_trip_referral() {
        let m = sample_message();
        let wire = encode_message(&m).unwrap();
        let back = decode_message(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let m = sample_message();
        let wire = encode_message(&m).unwrap();
        // "a.nic.cl" appears three times; compression should keep the
        // packet comfortably under the uncompressed size.
        let uncompressed: usize = 12
            + m.question.as_ref().map_or(0, |q| q.qname.wire_len() + 4)
            + m.sectioned_records()
                .map(|(_, r)| r.name.wire_len() + 10 + 16)
                .sum::<usize>();
        assert!(
            wire.len() < uncompressed,
            "{} !< {}",
            wire.len(),
            uncompressed
        );
    }

    #[test]
    fn decodes_all_rdata_types() {
        let mut m = Message::default();
        m.answers.push(set(
            name("k.example"),
            Ttl::HOUR,
            RData::Dnskey {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                key: vec![1, 2, 3, 4],
            },
        ));
        m.answers.push(set(
            name("example"),
            Ttl::HOUR,
            RData::Soa(Arc::new(SoaData {
                mname: name("ns1.example"),
                rname: name("hostmaster.example"),
                serial: 2019031501,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            })),
        ));
        m.answers.push(set(
            name("example"),
            Ttl::HOUR,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example"),
            },
        ));
        m.answers.push(set(
            name("example"),
            Ttl::HOUR,
            RData::Txt("v=spf1 -all".into()),
        ));
        m.answers.push(set(
            name("example"),
            Ttl::HOUR,
            RData::Rrsig(Arc::new(RrsigData {
                type_covered: RecordType::NS,
                algorithm: 13,
                original_ttl: 3600,
                signer: name("example"),
                signature: vec![9; 64],
            })),
        ));
        let wire = encode_message(&m).unwrap();
        assert_eq!(decode_message(&wire).unwrap(), m);
    }

    #[test]
    fn rejects_truncated_packet() {
        let wire = encode_message(&sample_message()).unwrap();
        for cut in [0, 5, 11, wire.len() / 2, wire.len() - 1] {
            assert!(decode_message(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_pointer_loops() {
        // Header (12 bytes) + a question whose name is a self-pointer.
        let mut buf = vec![0u8; 12];
        buf[5] = 1; // qdcount = 1
        buf.extend_from_slice(&[0xC0, 12]); // pointer to itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadCompressionPointer(_))
        ));
    }

    #[test]
    fn rejects_a_second_question() {
        // Header (12 bytes) with qdcount = 2, then two well-formed
        // `example. IN A` questions.
        let mut buf = vec![0u8; 12];
        buf[5] = 2;
        for _ in 0..2 {
            buf.extend_from_slice(b"\x07example\x00");
            buf.extend_from_slice(&[0, 1, 0, 1]);
        }
        assert_eq!(decode_message(&buf), Err(WireError::TooManyQuestions(2)));
        // The same header with one question decodes.
        buf[5] = 1;
        let one = decode_message(&buf[..12 + 13]).unwrap();
        assert_eq!(
            one.question,
            Some(Question::new(name("example"), RecordType::A))
        );
    }

    #[test]
    fn ttl_high_bit_decodes_as_zero() {
        let mut m = Message::default();
        m.answers.push(set(
            name("x.example"),
            Ttl::HOUR,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
        let mut wire = encode_message(&m).unwrap();
        // Patch the TTL field (name len 10 + type 2 + class 2 after the
        // 12-byte header) to have the top bit set.
        let ttl_off = 12 + name("x.example").wire_len() + 4;
        wire[ttl_off] = 0x80;
        let back = decode_message(&wire).unwrap();
        assert_eq!(back.answers[0].ttl, Ttl::ZERO);
    }

    #[test]
    fn empty_txt_round_trips() {
        let mut m = Message::default();
        m.answers.push(set(
            name("t.example"),
            Ttl::MINUTE,
            RData::Txt(String::new()),
        ));
        let wire = encode_message(&m).unwrap();
        assert_eq!(decode_message(&wire).unwrap(), m);
    }

    /// A message whose answer section holds `records` as they are, one
    /// set each, so the encoder writes them in their order.
    fn encoded_section(records: &[Record]) -> Vec<u8> {
        let m = Message {
            answers: records
                .iter()
                .map(|r| RRset::from_records(std::slice::from_ref(r)).unwrap())
                .collect(),
            ..Message::default()
        };
        encode_message(&m).unwrap()
    }

    fn rec(owner: &str, ttl: u32, rdata: RData) -> Record {
        Record::new(name(owner), Ttl::from_secs(ttl), rdata)
    }

    #[test]
    fn decoding_merges_an_interleaved_section_into_sets() {
        let x1 = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let x2 = RData::A(Ipv4Addr::new(192, 0, 2, 2));
        let y = RData::Ns(name("ns.example"));
        let section = [
            rec("x.example", 30, x1.clone()),
            rec("example", 3600, y.clone()),
            rec("X.example", 10, x2.clone()),
        ];
        let sets = decode_message(&encoded_section(&section)).unwrap().answers;
        let expected = [
            RRset::new(
                name("x.example"),
                RecordType::A,
                Ttl::from_secs(10),
                vec![x1, x2],
            ),
            RRset::new(name("example"), RecordType::NS, Ttl::HOUR, y),
        ];
        assert_eq!(sets, expected);
        // The set is spelled as its first record was.
        assert_eq!(sets[0].name.as_str(), "x.example.");
        // Re-encoding writes the members together, at the set's TTL.
        let again = decode_message(
            &encode_message(&Message {
                answers: sets.clone(),
                ..Message::default()
            })
            .unwrap(),
        )
        .unwrap();
        assert_eq!(again.answers, sets);
    }

    /// The map-based grouping of a resolver's section, the reference
    /// the decoder's must agree with.
    fn grouped_by_map(records: &[Record]) -> Vec<RRset> {
        let mut order: Vec<(Name, RecordType)> = Vec::new();
        let mut groups: HashMap<(Name, RecordType), Vec<Record>> = HashMap::new();
        for r in records {
            let key = (r.name.clone(), r.record_type());
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(r.clone());
        }
        order
            .into_iter()
            .filter_map(|key| RRset::from_records(&groups[&key]))
            .collect()
    }

    #[test]
    fn decoding_groups_as_the_map_based_grouping_does() {
        let owners = ["a.example", "A.Example", "b.example", "example"];
        let mut state = 0x6_0A_B5_u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..500 {
            let section: Vec<Record> = (0..below(9))
                .map(|_| {
                    let owner = owners[below(owners.len() as u64) as usize];
                    let rdata = match below(3) {
                        0 => RData::A(Ipv4Addr::new(192, 0, 2, below(4) as u8)),
                        1 => RData::Ns(name(owners[below(owners.len() as u64) as usize])),
                        _ => RData::Txt(format!("t{}", below(4))),
                    };
                    rec(owner, 1 + below(600) as u32, rdata)
                })
                .collect();
            let sets = decode_message(&encoded_section(&section)).unwrap().answers;
            let reference = grouped_by_map(&section);
            // `Name` equality folds case; the spelling is not compared,
            // because compression writes a later spelling of a name as
            // a pointer to the first.
            assert_eq!(sets, reference, "{section:?}");
        }
    }
}
