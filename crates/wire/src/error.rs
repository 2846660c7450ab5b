use std::fmt;

/// Errors produced while building, encoding, or decoding DNS data.
///
/// The decoder is strict: malformed packets are rejected with a specific
/// variant rather than silently truncated, because the resolver's cache
/// poisoning defenses (bailiwick checks) depend on knowing exactly what a
/// packet contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A label exceeded the 63-octet limit of RFC 1035 §2.3.4.
    LabelTooLong(usize),
    /// A name exceeded the 255-octet limit of RFC 1035 §2.3.4.
    NameTooLong(usize),
    /// A label was empty in a position where that is not allowed.
    EmptyLabel,
    /// An invalid character appeared in a presentation-format name.
    InvalidCharacter(char),
    /// A TTL exceeded the 2^31 - 1 bound of RFC 2181 §8.
    TtlOutOfRange(i64),
    /// The packet ended before a complete field could be read.
    Truncated {
        /// What the decoder was trying to read.
        expected: &'static str,
        /// Byte offset at which the packet ran out.
        at: usize,
    },
    /// A compression pointer pointed forward or formed a loop.
    BadCompressionPointer(usize),
    /// An unknown or unsupported record type code was encountered where a
    /// typed representation was required.
    UnknownType(u16),
    /// An unknown class code.
    UnknownClass(u16),
    /// RDATA length did not match the parsed content.
    RdataLengthMismatch {
        /// Length declared in the RDLENGTH field.
        declared: usize,
        /// Length actually consumed by the parser.
        consumed: usize,
    },
    /// The message would exceed the 64 KiB wire-format size bound.
    MessageTooLarge(usize),
    /// One record's RDATA would exceed the 16-bit RDLENGTH field.
    RdataTooLong(usize),
    /// A section holds more entries than its 16-bit count field can say.
    TooManyRecords(usize),
    /// A header's QDCOUNT above one: a message carries one question.
    TooManyQuestions(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63-octet limit"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255-octet limit"),
            WireError::EmptyLabel => write!(f, "empty label inside a name"),
            WireError::InvalidCharacter(c) => write!(f, "invalid character {c:?} in name"),
            WireError::TtlOutOfRange(v) => write!(f, "TTL {v} outside [0, 2^31-1] (RFC 2181 §8)"),
            WireError::Truncated { expected, at } => {
                write!(
                    f,
                    "packet truncated at offset {at} while reading {expected}"
                )
            }
            WireError::BadCompressionPointer(off) => {
                write!(f, "invalid compression pointer at offset {off}")
            }
            WireError::UnknownType(t) => write!(f, "unknown record type code {t}"),
            WireError::UnknownClass(c) => write!(f, "unknown class code {c}"),
            WireError::RdataLengthMismatch { declared, consumed } => write!(
                f,
                "RDATA length mismatch: declared {declared}, consumed {consumed}"
            ),
            WireError::MessageTooLarge(n) => {
                write!(f, "encoded message of {n} octets exceeds 64 KiB")
            }
            WireError::RdataTooLong(n) => {
                write!(f, "RDATA of {n} octets exceeds the 65535 of RDLENGTH")
            }
            WireError::TooManyRecords(n) => {
                write!(f, "section of {n} entries exceeds its 16-bit count")
            }
            WireError::TooManyQuestions(n) => {
                write!(f, "QDCOUNT {n}: a message carries at most one question")
            }
        }
    }
}

impl std::error::Error for WireError {}
