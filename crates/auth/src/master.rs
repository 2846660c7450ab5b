//! Master-file (zone file) parsing, RFC 1035 §5.
//!
//! Enough of the master format to express every zone in this workspace
//! and any realistic operator zone: `$ORIGIN`, `$TTL`, relative and
//! absolute owner names, `@`, owner inheritance (blank owner = previous
//! owner), per-record TTLs, comments, and the record types the crate
//! models. Class is optional and must be `IN` when present.
//!
//! ```text
//! $ORIGIN uy.
//! $TTL 300
//! @          IN NS  a.nic.uy.
//!            IN NS  b.nic.uy.
//! a.nic.uy.  120 IN A 200.40.241.1
//! b.nic.uy.  120    A 200.40.241.2
//! www.gub    3600   A 200.40.30.1      ; relative to $ORIGIN
//! ```

use crate::zone::Zone;
use dnsttl_wire::{Name, RData, Record, RecordType, SoaData, Ttl, WireError};
use std::fmt;
use std::sync::Arc;

/// Errors from master-file parsing, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// What went wrong.
    pub kind: MasterErrorKind,
}

/// The kinds of master-file errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterErrorKind {
    /// A directive was malformed (`$TTL x`, `$ORIGIN name`).
    BadDirective(String),
    /// A record line had too few fields.
    TooFewFields,
    /// The record type is not supported.
    UnknownType(String),
    /// The record data did not parse.
    BadRdata(String),
    /// A name failed validation.
    BadName(WireError),
    /// A TTL failed validation.
    BadTtl(String),
    /// No `$ORIGIN` and no absolute owner to anchor relative names.
    NoOrigin,
    /// A record with no owner appeared before any owner was set.
    NoPreviousOwner,
    /// A record's owner is not at or below the zone's origin.
    OutOfZone {
        /// The offending owner name.
        owner: Name,
        /// The origin of the zone being parsed.
        origin: Name,
    },
    /// An SOA record after the zone's first.
    SecondSoa,
    /// An SOA record whose owner is not the zone's origin.
    SoaBelowApex(Name),
}

impl fmt::Display for MasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            MasterErrorKind::BadDirective(d) => write!(f, "malformed directive {d:?}"),
            MasterErrorKind::TooFewFields => write!(f, "record line has too few fields"),
            MasterErrorKind::UnknownType(t) => write!(f, "unsupported record type {t:?}"),
            MasterErrorKind::BadRdata(r) => write!(f, "malformed record data: {r}"),
            MasterErrorKind::BadName(e) => write!(f, "bad name: {e}"),
            MasterErrorKind::BadTtl(t) => write!(f, "bad TTL {t:?}"),
            MasterErrorKind::NoOrigin => write!(f, "relative name used before $ORIGIN"),
            MasterErrorKind::NoPreviousOwner => write!(f, "blank owner with no previous owner"),
            MasterErrorKind::OutOfZone { owner, origin } => {
                write!(f, "owner {owner} is outside zone {origin}")
            }
            MasterErrorKind::SecondSoa => write!(f, "a second SOA record"),
            MasterErrorKind::SoaBelowApex(owner) => write!(f, "SOA at {owner}, below the apex"),
        }
    }
}

impl std::error::Error for MasterError {}

fn err(line: usize, kind: MasterErrorKind) -> MasterError {
    MasterError { line, kind }
}

/// Strips a trailing `;`-comment, ignoring semicolons inside quoted
/// strings (TXT rdata may legitimately contain them).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Resolves a possibly-relative name against the origin.
fn resolve_name(token: &str, origin: Option<&Name>, line: usize) -> Result<Name, MasterError> {
    if token == "@" {
        return origin
            .cloned()
            .ok_or_else(|| err(line, MasterErrorKind::NoOrigin));
    }
    if token.ends_with('.') {
        return Name::parse(token).map_err(|e| err(line, MasterErrorKind::BadName(e)));
    }
    let origin = origin.ok_or_else(|| err(line, MasterErrorKind::NoOrigin))?;
    let absolute = if origin.is_root() {
        format!("{token}.")
    } else {
        format!("{token}.{origin}")
    };
    Name::parse(&absolute).map_err(|e| err(line, MasterErrorKind::BadName(e)))
}

fn parse_ttl(token: &str, line: usize) -> Result<Ttl, MasterError> {
    // Plain seconds or BIND-style unit suffixes (1h30m etc.).
    let mut total: u64 = 0;
    let mut digits = String::new();
    for c in token.chars() {
        if c.is_ascii_digit() {
            digits.push(c);
        } else {
            let mult = match c.to_ascii_lowercase() {
                's' => 1,
                'm' => 60,
                'h' => 3_600,
                'd' => 86_400,
                'w' => 604_800,
                _ => return Err(err(line, MasterErrorKind::BadTtl(token.into()))),
            };
            let value: u64 = digits
                .parse()
                .map_err(|_| err(line, MasterErrorKind::BadTtl(token.into())))?;
            total += value * mult;
            digits.clear();
        }
    }
    if !digits.is_empty() {
        total += digits
            .parse::<u64>()
            .map_err(|_| err(line, MasterErrorKind::BadTtl(token.into())))?;
    }
    Ttl::try_from_secs(total as i64).map_err(|_| err(line, MasterErrorKind::BadTtl(token.into())))
}

fn is_ttl_token(token: &str) -> bool {
    token
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(false)
        && token
            .chars()
            .all(|c| c.is_ascii_digit() || "smhdwSMHDW".contains(c))
}

/// Parses master-file text into records.
///
/// `default_origin` anchors relative names until a `$ORIGIN` directive
/// overrides it.
pub fn parse_records(
    text: &str,
    default_origin: Option<&Name>,
) -> Result<Vec<Record>, MasterError> {
    let numbered = parse_numbered_records(text, default_origin)?;
    Ok(numbered.into_iter().map(|(_, record)| record).collect())
}

/// [`parse_records`], with each record's 1-based source line.
fn parse_numbered_records(
    text: &str,
    default_origin: Option<&Name>,
) -> Result<Vec<(usize, Record)>, MasterError> {
    let mut origin: Option<Name> = default_origin.cloned();
    let mut default_ttl: Option<Ttl> = None;
    let mut previous_owner: Option<Name> = None;
    let mut records = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line);
        if line.trim().is_empty() {
            continue;
        }
        let starts_blank = line.starts_with(' ') || line.starts_with('\t');
        // Tokens with byte offsets, so TXT rdata can recover the raw
        // remainder of the line (quoted strings keep their spaces).
        let tokens: Vec<(usize, &str)> = line
            .split_whitespace()
            .map(|token| (token.as_ptr() as usize - line.as_ptr() as usize, token))
            .collect();
        let mut fields: Vec<&str> = tokens.iter().map(|(_, t)| *t).collect();

        // Directives.
        if fields[0].starts_with('$') {
            match fields[0].to_ascii_uppercase().as_str() {
                "$ORIGIN" if fields.len() == 2 => {
                    origin = Some(
                        Name::parse(fields[1])
                            .map_err(|e| err(line_no, MasterErrorKind::BadName(e)))?,
                    );
                }
                "$TTL" if fields.len() == 2 => {
                    default_ttl = Some(parse_ttl(fields[1], line_no)?);
                }
                other => {
                    return Err(err(line_no, MasterErrorKind::BadDirective(other.into())));
                }
            }
            continue;
        }

        // Owner: first field unless the line starts with whitespace.
        let owner = if starts_blank {
            previous_owner
                .clone()
                .ok_or_else(|| err(line_no, MasterErrorKind::NoPreviousOwner))?
        } else {
            let token = fields.remove(0);
            resolve_name(token, origin.as_ref(), line_no)?
        };
        previous_owner = Some(owner.clone());

        // Optional TTL and/or class, in either order.
        let mut ttl: Option<Ttl> = None;
        loop {
            let Some(&next) = fields.first() else {
                return Err(err(line_no, MasterErrorKind::TooFewFields));
            };
            if next.eq_ignore_ascii_case("IN") {
                fields.remove(0);
            } else if ttl.is_none() && is_ttl_token(next) {
                ttl = Some(parse_ttl(next, line_no)?);
                fields.remove(0);
            } else {
                break;
            }
        }
        let ttl = ttl
            .or(default_ttl)
            .ok_or_else(|| err(line_no, MasterErrorKind::BadTtl("missing".into())))?;

        if fields.is_empty() {
            return Err(err(line_no, MasterErrorKind::TooFewFields));
        }
        let rtype_token = fields.remove(0);
        // Raw rdata text: everything after the rtype token on the line.
        let consumed = tokens.len() - fields.len();
        let raw_rdata = tokens
            .get(consumed - 1)
            .map(|(off, tok)| line[off + tok.len()..].trim())
            .unwrap_or("");
        let rdata = parse_rdata(rtype_token, &fields, raw_rdata, origin.as_ref(), line_no)?;
        records.push((line_no, Record::new(owner, ttl, rdata)));
    }
    Ok(records)
}

/// `fields[i]` parsed as a `T`; a field that does not parse is
/// malformed record data.
fn parsed<T: std::str::FromStr>(fields: &[&str], i: usize, line: usize) -> Result<T, MasterError> {
    let bad = || err(line, MasterErrorKind::BadRdata(fields[i].into()));
    fields[i].parse().map_err(|_| bad())
}

fn parse_rdata(
    rtype: &str,
    fields: &[&str],
    raw_rdata: &str,
    origin: Option<&Name>,
    line: usize,
) -> Result<RData, MasterError> {
    let need = |n: usize| -> Result<(), MasterError> {
        if fields.len() < n {
            Err(err(line, MasterErrorKind::TooFewFields))
        } else {
            Ok(())
        }
    };
    match rtype.to_ascii_uppercase().as_str() {
        "A" => {
            need(1)?;
            parsed(fields, 0, line).map(RData::A)
        }
        "AAAA" => {
            need(1)?;
            parsed(fields, 0, line).map(RData::Aaaa)
        }
        "NS" => {
            need(1)?;
            Ok(RData::Ns(resolve_name(fields[0], origin, line)?))
        }
        "CNAME" => {
            need(1)?;
            Ok(RData::Cname(resolve_name(fields[0], origin, line)?))
        }
        "MX" => {
            need(2)?;
            Ok(RData::Mx {
                preference: parsed(fields, 0, line)?,
                exchange: resolve_name(fields[1], origin, line)?,
            })
        }
        "TXT" => {
            // Quoted strings keep interior whitespace exactly; bare
            // text is taken as-is.
            let content = raw_rdata.trim();
            let content =
                if content.len() >= 2 && content.starts_with('"') && content.ends_with('"') {
                    &content[1..content.len() - 1]
                } else {
                    content
                };
            Ok(RData::Txt(content.to_owned()))
        }
        "SOA" => {
            need(7)?;
            Ok(RData::Soa(Arc::new(SoaData {
                mname: resolve_name(fields[0], origin, line)?,
                rname: resolve_name(fields[1], origin, line)?,
                serial: parsed(fields, 2, line)?,
                refresh: parsed(fields, 3, line)?,
                retry: parsed(fields, 4, line)?,
                expire: parsed(fields, 5, line)?,
                minimum: parsed(fields, 6, line)?,
            })))
        }
        "DNSKEY" => {
            need(4)?;
            Ok(RData::Dnskey {
                flags: parsed(fields, 0, line)?,
                protocol: parsed(fields, 1, line)?,
                algorithm: parsed(fields, 2, line)?,
                key: fields[3].as_bytes().to_vec(),
            })
        }
        other => {
            let known = RecordType::concrete()
                .iter()
                .any(|t| t.to_string().eq_ignore_ascii_case(other));
            if known {
                Err(err(line, MasterErrorKind::BadRdata(other.into())))
            } else {
                Err(err(line, MasterErrorKind::UnknownType(other.into())))
            }
        }
    }
}

/// Renders records as master-file text (absolute names, explicit
/// per-record TTLs, `IN` class). RRSIG and OPT records are emitted as
/// comments — they are synthesised, not configured, and the parser
/// deliberately rejects them as input.
///
/// `parse_records(render_records(rs), None)` round-trips every
/// renderable record; a property test in this module holds the parser
/// and renderer to that.
pub fn render_records(records: &[Record]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in records {
        let ttl = r.ttl.as_secs();
        let name = &r.name;
        match &r.rdata {
            RData::A(a) => {
                let _ = writeln!(out, "{name} {ttl} IN A {a}");
            }
            RData::Aaaa(a) => {
                let _ = writeln!(out, "{name} {ttl} IN AAAA {a}");
            }
            RData::Ns(t) => {
                let _ = writeln!(out, "{name} {ttl} IN NS {t}");
            }
            RData::Cname(t) => {
                let _ = writeln!(out, "{name} {ttl} IN CNAME {t}");
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                let _ = writeln!(out, "{name} {ttl} IN MX {preference} {exchange}");
            }
            RData::Txt(t) => {
                let _ = writeln!(out, "{name} {ttl} IN TXT \"{t}\"");
            }
            RData::Soa(soa) => {
                let _ = writeln!(
                    out,
                    "{name} {ttl} IN SOA {} {} {} {} {} {} {}",
                    soa.mname,
                    soa.rname,
                    soa.serial,
                    soa.refresh,
                    soa.retry,
                    soa.expire,
                    soa.minimum
                );
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => match std::str::from_utf8(key) {
                Ok(key_str) if !key_str.is_empty() && !key_str.contains(char::is_whitespace) => {
                    let _ = writeln!(
                        out,
                        "{name} {ttl} IN DNSKEY {flags} {protocol} {algorithm} {key_str}"
                    );
                }
                _ => {
                    let _ = writeln!(out, "; {name} {ttl} IN DNSKEY (binary key omitted)");
                }
            },
            RData::Rrsig(_) | RData::Opt(_) => {
                let _ = writeln!(
                    out,
                    "; {name} {ttl} IN {} (synthesised, not rendered)",
                    r.record_type()
                );
            }
        }
    }
    out
}

/// Renders a whole zone, SOA first, as master-file text.
pub fn render_zone(zone: &Zone) -> String {
    let mut records: Vec<Record> = zone.soa_rrset().records().collect();
    for set in zone.iter() {
        records.extend(set.records());
    }
    format!("$ORIGIN {}\n{}", zone.origin(), render_records(&records))
}

/// Parses a whole zone: origin plus master-file text. Records outside
/// the origin are rejected by [`Zone::add`]'s invariant, surfaced here
/// as an error instead of a panic. The file's SOA, if it has one,
/// becomes the zone's; one below the apex or a second one is an error.
pub fn parse_zone(origin: &str, text: &str) -> Result<Zone, MasterError> {
    let origin_name = Name::parse(origin).map_err(|e| err(0, MasterErrorKind::BadName(e)))?;
    let records = parse_numbered_records(text, Some(&origin_name))?;
    let mut zone = Zone::new(origin_name.clone());
    let mut soa_seen = false;
    for (line, record) in records {
        if !record.name.is_subdomain_of(&origin_name) {
            let (owner, origin) = (record.name, origin_name);
            return Err(err(line, MasterErrorKind::OutOfZone { owner, origin }));
        }
        if record.record_type() == RecordType::SOA {
            if record.name != origin_name {
                return Err(err(line, MasterErrorKind::SoaBelowApex(record.name)));
            }
            if soa_seen {
                return Err(err(line, MasterErrorKind::SecondSoa));
            }
            soa_seen = true;
        }
        zone.add(record);
    }
    Ok(zone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuthoritativeServer;
    use dnsttl_netsim::{ClientId, DnsService, Region, SimTime};
    use dnsttl_wire::Message;

    const UY_ZONE: &str = r#"
; the .uy zone as of 2019-02-14
$ORIGIN uy.
$TTL 300
@           IN NS   a.nic.uy.
            IN NS   b.nic.uy.
a.nic.uy.   120 IN A 200.40.241.1
b.nic.uy.   120    A 200.40.241.2
www.gub     3600   A 200.40.30.1
"#;

    #[test]
    fn parses_the_uy_zone() {
        let zone = parse_zone("uy", UY_ZONE).unwrap();
        let apex = Name::parse("uy").unwrap();
        let ns = zone.get(&apex, RecordType::NS).unwrap();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns.ttl.as_secs(), 300, "default TTL applies");
        let a = zone.get(&Name::parse("a.nic.uy").unwrap(), RecordType::A);
        assert_eq!(a.unwrap().ttl.as_secs(), 120, "explicit TTL wins");
        // Relative name resolved against $ORIGIN.
        let www = zone.get(&Name::parse("www.gub.uy").unwrap(), RecordType::A);
        assert_eq!(www.unwrap().len(), 1);
    }

    #[test]
    fn blank_owner_inherits_previous() {
        let records = parse_records(
            "$ORIGIN example.\n$TTL 60\nhost A 192.0.2.1\n     A 192.0.2.2\n",
            None,
        )
        .unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, records[1].name);
    }

    #[test]
    fn ttl_unit_suffixes() {
        let records =
            parse_records("$ORIGIN e.\nx 1h30m A 192.0.2.1\ny 2d A 192.0.2.2\n", None).unwrap();
        assert_eq!(records[0].ttl.as_secs(), 5_400);
        assert_eq!(records[1].ttl.as_secs(), 172_800);
    }

    #[test]
    fn soa_and_mx_and_txt_parse() {
        let text = r#"
$ORIGIN example.
$TTL 3600
@ SOA ns1 hostmaster 2019030501 7200 3600 1209600 300
@ MX 10 mail
@ TXT "v=spf1 -all"
"#;
        let records = parse_records(text, None).unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0].rdata, RData::Soa(_)));
        assert!(matches!(records[1].rdata, RData::Mx { preference: 10, .. }));
        assert_eq!(records[2].rdata, RData::Txt("v=spf1 -all".into()));
    }

    #[test]
    fn soa_minimum_becomes_negative_ttl() {
        let zone = parse_zone(
            "example",
            "@ 3600 SOA ns1.example. host.example. 1 2 3 4 42\n",
        )
        .unwrap();
        assert_eq!(zone.soa().minimum, 42);
        assert_eq!(zone.soa_rrset().ttl, Ttl::HOUR);
    }

    #[test]
    fn a_second_soa_is_an_error_that_names_its_line() {
        let text =
            "$TTL 60\n@ SOA ns1 host 1 2 3 4 5\n\nwww A 192.0.2.1\n@ SOA ns1 host 2 2 3 4 5\n";
        let e = parse_zone("example", text).unwrap_err();
        assert_eq!(e, err(5, MasterErrorKind::SecondSoa));
        assert_eq!(e.to_string(), "line 5: a second SOA record");
    }

    #[test]
    fn an_soa_below_the_apex_is_an_error_that_names_its_line() {
        let text = "$TTL 60\nwww A 192.0.2.1\nsub SOA ns1 host 1 2 3 4 5\n";
        let e = parse_zone("example", text).unwrap_err();
        let owner = Name::parse("sub.example").unwrap();
        assert_eq!(e, err(3, MasterErrorKind::SoaBelowApex(owner)));
        assert_eq!(e.to_string(), "line 3: SOA at sub.example., below the apex");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_records("$ORIGIN e.\nx BOGUS 192.0.2.1\n", None).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(
            e.kind,
            MasterErrorKind::BadTtl(_) | MasterErrorKind::UnknownType(_)
        ));

        let e = parse_records("x A 192.0.2.1\n", None).unwrap_err();
        assert!(matches!(e.kind, MasterErrorKind::NoOrigin));

        let e = parse_records("$ORIGIN e.\n$TTL 60\nx A\n", None).unwrap_err();
        assert_eq!(e.kind, MasterErrorKind::TooFewFields);

        let e = parse_records("$BOGUS foo\n", None).unwrap_err();
        assert!(matches!(e.kind, MasterErrorKind::BadDirective(_)));
    }

    #[test]
    fn a_line_split_by_unicode_whitespace_parses() {
        // A no-break space (U+00A0, bytes C2 A0) separates fields like
        // any other whitespace, and no token ends inside a character.
        let records = parse_records("$ORIGIN e.\nx\u{a0}60 A 192.0.2.1\n", None).unwrap();
        assert_eq!(records[0].name, Name::parse("x.e").unwrap());
        let e = parse_records("$ORIGIN e.\n$TTL 60\nx TXT\u{a0}é\u{a0}\n", None).unwrap();
        assert_eq!(e[0].rdata, RData::Txt("é".into()));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let records = parse_records(
            "; top comment\n\n$ORIGIN e.\n$TTL 60\nx A 192.0.2.1 ; trailing\n",
            None,
        )
        .unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn parsed_zone_answers_queries() {
        let zone = parse_zone("uy", UY_ZONE).unwrap();
        let mut server = AuthoritativeServer::new("a.nic.uy").with_zone(zone);
        let query = Message::iterative_query(1, Name::parse("a.nic.uy").unwrap(), RecordType::A);
        let client = ClientId {
            region: Region::Sa,
            tag: 1,
        };
        let response = server.handle_query(&query, client, SimTime::ZERO);
        assert!(response.header.authoritative);
        assert_eq!(response.answers.len(), 1);
        assert_eq!(response.answers[0].ttl.as_secs(), 120);
    }

    #[test]
    fn rejects_missing_default_ttl() {
        let e = parse_records("$ORIGIN e.\nx A 192.0.2.1\n", None).unwrap_err();
        assert!(matches!(e.kind, MasterErrorKind::BadTtl(_)));
    }
}
