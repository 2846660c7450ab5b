//! A tiny, deterministic JSON writer.
//!
//! The build environment is offline, so the workspace carries no serde;
//! everything telemetry exports (trace lines, manifests, metric
//! snapshots) goes through this module instead. Output is canonical in
//! the sense that the same inputs always produce the same bytes: field
//! order is insertion order, floats are rendered with a fixed rule, and
//! there is no whitespace outside strings.

use std::fmt::Write as _;

/// A JSON-serialisable scalar used in trace fields and manifests.
///
/// The three string variants render identically and compare equal by
/// content; they differ only in ownership. `Shared` and `Static` exist
/// for the resolver hot path, which emits the same qname/qtype/rcode
/// strings on every event — `Shared` bumps a refcount (e.g. a `Name`'s
/// internal buffer) and `Static` copies a pointer, where `Str` would
/// allocate.
#[derive(Debug, Clone)]
pub enum Value {
    /// An owned string (escaped on output).
    Str(String),
    /// A reference-counted shared string — clone is a refcount bump.
    Shared(std::sync::Arc<str>),
    /// A `'static` string literal — clone is free.
    Static(&'static str),
    /// A `u64` rendered as a 16-digit zero-padded hex *string* — what a
    /// fingerprint field looks like on the wire — but stored as the raw
    /// integer so the hot path never formats. Hex keeps fingerprints
    /// out of JSON numbers, whose readers go through `f64` and would
    /// lose the high bits.
    Hex64(u64),
    /// An IP address, rendered as its display *string* lazily at export
    /// time instead of allocating per event.
    Addr(std::net::IpAddr),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered via `fmt_f64`.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Wraps a `'static` literal without allocating. This is a named
    /// constructor rather than a `From<&'static str>` impl because the
    /// blanket `From<&str>` (which must keep allocating for borrowed
    /// strings) would conflict with it.
    pub fn literal(s: &'static str) -> Value {
        Value::Static(s)
    }

    /// The string payload, if any variant of one.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Shared(s) => Some(s),
            Value::Static(s) => Some(s),
            _ => None,
        }
    }
}

/// String variants compare by content regardless of ownership flavour.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Hex64(a), Value::Hex64(b)) => a == b,
            (Value::Addr(a), Value::Addr(b)) => a == b,
            _ => match (self.as_text(), other.as_text()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<std::sync::Arc<str>> for Value {
    fn from(s: std::sync::Arc<str>) -> Value {
        Value::Shared(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<std::net::IpAddr> for Value {
    fn from(a: std::net::IpAddr) -> Value {
        Value::Addr(a)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Human-readable rendering (strings unquoted) — for walkthrough
/// output, not JSON; use `write_value` for serialisation.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Shared(s) => f.write_str(s),
            Value::Static(s) => f.write_str(s),
            Value::Hex64(v) => write!(f, "{v:016x}"),
            Value::Addr(a) => write!(f, "{a}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => {
                let mut s = String::new();
                fmt_f64(&mut s, *v);
                f.write_str(&s)
            }
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Escapes `s` into `out` as the body of a JSON string (no quotes).
/// Every byte that needs an escape is ASCII, so the scan runs over
/// bytes and each clean run between two escapes is copied in one
/// `push_str` (any `i` it stops at is a `char` boundary).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00", // followed by the byte's two hex digits
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        out.push_str(escape);
        if escape.len() == 4 {
            out.push(HEX_DIGITS[(b >> 4) as usize] as char);
            out.push(HEX_DIGITS[(b & 0xf) as usize] as char);
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
}

/// Appends `"s"`, escaped.
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `"name":` — one member's key. The streaming writers (trace
/// events, [`ObjectWriter`]) put the `{` and the `,` around it themselves.
pub(crate) fn push_key(out: &mut String, name: &str) {
    push_string(out, name);
    out.push(':');
}

/// Appends `,"name":` — a member key with its leading comma, escaped.
/// The trace's intern tables render each distinct string through this
/// once, at intern time, and the export copies the bytes: the whole
/// fragment as a field's key, the fragment less its first and last byte
/// (`"name"`) as a string value.
pub(crate) fn push_member_fragment(buf: &mut String, name: &str) {
    buf.push(',');
    push_key(buf, name);
}

/// `"000102…99"`: the two decimal digits of every number below 100.
const DEC_PAIRS: &str = "0001020304050607080910111213141516171819\
                         2021222324252627282930313233343536373839\
                         4041424344454647484950515253545556575859\
                         6061626364656667686970717273747576777879\
                         8081828384858687888990919293949596979899";

/// `"000102…ff"`: the two lower-case hex digits of every byte.
const HEX_PAIRS: &str = {
    const BYTES: [u8; 512] = {
        let mut pairs = [0u8; 512];
        let mut b = 0;
        while b < 256 {
            pairs[2 * b] = HEX_DIGITS[b >> 4];
            pairs[2 * b + 1] = HEX_DIGITS[b & 0xf];
            b += 1;
        }
        pairs
    };
    match std::str::from_utf8(&BYTES) {
        Ok(pairs) => pairs,
        Err(_) => panic!("hex digits are ASCII"),
    }
};

/// Appends `v` in decimal, two digits at a time out of [`DEC_PAIRS`]:
/// the pieces are `&'static str` already, so nothing is rendered into a
/// stack buffer and re-validated as UTF-8, and nothing goes through
/// `core::fmt` (the trace export writes three to ten of these a line).
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    // Base-100 limbs, least significant first; u64::MAX has ten.
    let mut limbs = [0u8; 10];
    let mut n = 0;
    loop {
        limbs[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
        if v == 0 {
            break;
        }
    }
    // The leading limb drops its zero; the rest keep both digits.
    let top = limbs[n - 1] as usize;
    out.push_str(&DEC_PAIRS[2 * top + (top < 10) as usize..2 * top + 2]);
    for &limb in limbs[..n - 1].iter().rev() {
        out.push_str(&DEC_PAIRS[2 * limb as usize..2 * limb as usize + 2]);
    }
}

/// Appends `v` as a quoted 16-digit zero-padded lower-case hex string.
pub(crate) fn push_hex64(out: &mut String, v: u64) {
    out.push('"');
    for byte in v.to_be_bytes() {
        out.push_str(&HEX_PAIRS[2 * byte as usize..2 * byte as usize + 2]);
    }
    out.push('"');
}

/// Appends an IPv4 address as a quoted dotted quad.
pub(crate) fn push_ipv4(out: &mut String, addr: std::net::Ipv4Addr) {
    let mut lead = '"';
    for octet in addr.octets() {
        out.push(lead);
        push_u64(out, octet as u64);
        lead = '.';
    }
    out.push('"');
}

/// Renders a float deterministically: integers without a fraction get a
/// trailing `.0`, everything else uses the shortest round-trip form
/// Rust's formatter produces. NaN and infinities (not valid JSON)
/// become `null`.
pub(crate) fn fmt_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{:.1}", v);
    } else {
        let _ = write!(out, "{}", v);
    }
}

/// Appends `value` to `out` as a JSON value.
pub(crate) fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Str(s) => push_string(out, s),
        Value::Shared(s) => push_string(out, s),
        Value::Static(s) => push_string(out, s),
        // Nothing to escape in hex digits or an address's display form.
        Value::Hex64(v) => push_hex64(out, *v),
        Value::Addr(std::net::IpAddr::V4(a)) => push_ipv4(out, *a),
        Value::Addr(a) => {
            let _ = write!(out, "\"{a}\"");
        }
        Value::U64(v) => push_u64(out, *v),
        Value::I64(v) => {
            if *v < 0 {
                out.push('-');
            }
            push_u64(out, v.unsigned_abs());
        }
        Value::F64(v) => fmt_f64(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
    }
}

/// An in-progress JSON object, appended field by field in call order.
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// Opens a new object (`{`).
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_key(&mut self.buf, name);
    }

    /// Appends `"name":<value>`.
    pub fn field(&mut self, name: &str, value: &Value) -> &mut ObjectWriter {
        self.key(name);
        write_value(&mut self.buf, value);
        self
    }

    /// Appends a raw pre-rendered JSON fragment as the value of `name`.
    pub fn field_raw(&mut self, name: &str, json: &str) -> &mut ObjectWriter {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Appends an array of strings.
    pub fn field_str_array(&mut self, name: &str, items: &[String]) -> &mut ObjectWriter {
        self.key(name);
        self.buf.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_string(&mut self.buf, item);
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> ObjectWriter {
        ObjectWriter::new()
    }
}

/// A scalar read back from a flat JSON object. Numbers are kept as the
/// raw text plus a parsed `f64` so callers can choose integer or float
/// interpretation without loss.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A string, unescaped.
    Str(String),
    /// A number; the raw source text is preserved alongside its value.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl JsonScalar {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonScalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonScalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload truncated to `u64`, if this is a
    /// non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonScalar::Num(v) if *v >= 0.0 && *v == v.trunc() => Some(*v as u64),
            _ => None,
        }
    }
}

/// Parses one *flat* JSON object — scalars only, no nesting — as
/// produced by [`ObjectWriter`]. Returns the fields in source order.
/// This is the read half of the workspace's serde substitute: trace
/// and time-series lines are flat objects.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let err = |what: &str, at: usize| format!("{what} at byte {at} in {s:?}");
    let mut out = Vec::new();

    fn skip_ws(it: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(it.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            it.next();
        }
    }

    fn parse_string(
        it: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        let mut buf = String::new();
        loop {
            match it.next() {
                Some((_, '"')) => return Ok(buf),
                Some((at, '\\')) => match it.next() {
                    Some((_, '"')) => buf.push('"'),
                    Some((_, '\\')) => buf.push('\\'),
                    Some((_, '/')) => buf.push('/'),
                    Some((_, 'n')) => buf.push('\n'),
                    Some((_, 'r')) => buf.push('\r'),
                    Some((_, 't')) => buf.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = it
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            code = code * 16
                                + h.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {h:?}"))?;
                        }
                        buf.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?} at byte {at}")),
                },
                Some((_, c)) => buf.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(err("expected '{'", 0)),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Ok(out);
    }
    loop {
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, '"')) => {}
            Some((at, _)) => return Err(err("expected key", at)),
            None => return Err(err("expected key", s.len())),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            Some((at, _)) => return Err(err("expected ':'", at)),
            None => return Err(err("expected ':'", s.len())),
        }
        skip_ws(&mut chars);
        let value = match chars.peek().copied() {
            Some((_, '"')) => {
                chars.next();
                JsonScalar::Str(parse_string(&mut chars)?)
            }
            Some((at, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = at;
                while matches!(
                    chars.peek(),
                    Some((_, c)) if c.is_ascii_digit()
                        || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    let (i, c) = chars.next().unwrap();
                    end = i + c.len_utf8();
                }
                let raw = &s[at..end];
                JsonScalar::Num(raw.parse::<f64>().map_err(|_| err("bad number", at))?)
            }
            Some((at, 't' | 'f' | 'n')) => {
                let rest = &s[at..];
                let (word, v) = if rest.starts_with("true") {
                    ("true", JsonScalar::Bool(true))
                } else if rest.starts_with("false") {
                    ("false", JsonScalar::Bool(false))
                } else if rest.starts_with("null") {
                    ("null", JsonScalar::Null)
                } else {
                    return Err(err("bad literal", at));
                };
                for _ in 0..word.len() {
                    chars.next();
                }
                v
            }
            Some((at, _)) => return Err(err("unsupported value (nested?)", at)),
            None => return Err(err("expected value", s.len())),
        };
        out.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            Some((at, _)) => return Err(err("expected ',' or '}'", at)),
            None => return Err(err("unterminated object", s.len())),
        }
    }
    Ok(out)
}

/// Convenience lookup over [`parse_flat_object`] output.
pub fn flat_get<'a>(fields: &'a [(String, JsonScalar)], key: &str) -> Option<&'a JsonScalar> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn the_number_writers_agree_with_core_fmt() {
        let mut edges = vec![0u64, u64::MAX];
        for k in 0..20 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1, p.wrapping_mul(0x9e37_79b9_7f4a_7c15)]);
        }
        for v in edges {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
            s.clear();
            push_hex64(&mut s, v);
            assert_eq!(s, format!("\"{v:016x}\""));
            s.clear();
            let addr = std::net::Ipv4Addr::from(v as u32);
            push_ipv4(&mut s, addr);
            assert_eq!(s, format!("\"{addr}\""));
        }
    }

    #[test]
    fn floats_are_deterministic() {
        let mut s = String::new();
        fmt_f64(&mut s, 3.0);
        s.push(' ');
        fmt_f64(&mut s, 0.25);
        s.push(' ');
        fmt_f64(&mut s, f64::NAN);
        assert_eq!(s, "3.0 0.25 null");
    }

    #[test]
    fn object_writer_builds_in_order() {
        let mut w = ObjectWriter::new();
        w.field("b", &Value::U64(2))
            .field("a", &Value::Str("x".into()))
            .field_str_array("list", &["p".into(), "q".into()]);
        assert_eq!(w.finish(), r#"{"b":2,"a":"x","list":["p","q"]}"#);
    }

    #[test]
    fn flat_parser_round_trips_writer_output() {
        let mut w = ObjectWriter::new();
        w.field("name", &Value::Str("a\"b\\c\nd".into()))
            .field("count", &Value::U64(42))
            .field("ratio", &Value::F64(0.25))
            .field("neg", &Value::I64(-7))
            .field("ok", &Value::Bool(true));
        let line = w.finish();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields.len(), 5);
        assert_eq!(
            flat_get(&fields, "name").unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
        assert_eq!(flat_get(&fields, "count").unwrap().as_u64(), Some(42));
        assert_eq!(flat_get(&fields, "ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(flat_get(&fields, "neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(flat_get(&fields, "ok"), Some(&JsonScalar::Bool(true)));
    }

    #[test]
    fn flat_parser_handles_empty_and_rejects_nesting() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1"#).is_err());
        let fields = parse_flat_object(" {\"u\":\"\\u0041\"} ").unwrap();
        assert_eq!(flat_get(&fields, "u").unwrap().as_str(), Some("A"));
    }
}
