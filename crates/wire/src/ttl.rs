//! Time-to-live values.
//!
//! TTLs are the protagonist of the reproduced paper: every cache decision
//! in the workspace flows through this type. [`Ttl`] wraps a second count
//! and enforces the RFC 2181 §8 rule that TTLs are unsigned 31-bit values
//! (the top bit must be zero; values with it set are treated as 0).

use crate::WireError;
use std::fmt;
use std::time::Duration;

/// A DNS time-to-live, in seconds.
///
/// Per RFC 2181 §8 a TTL occupies 31 bits: valid values are
/// `0 ..= 2^31 - 1`. A TTL of zero is legal and means "do not cache"
/// (the paper's Table 8 counts such records in the wild).
///
/// ```
/// use dnsttl_wire::Ttl;
/// let day = Ttl::from_secs(86_400);
/// assert_eq!(day.as_secs(), 86_400);
/// assert_eq!(Ttl::HOUR.saturating_sub_secs(7_200), Ttl::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ttl(u32);

impl Ttl {
    /// Largest representable TTL, `2^31 - 1` seconds (about 68 years).
    pub const MAX: Ttl = Ttl((1 << 31) - 1);
    /// TTL of zero: the record must not be reused from cache.
    pub const ZERO: Ttl = Ttl(0);
    /// One minute.
    pub const MINUTE: Ttl = Ttl(60);
    /// One hour — the `.nl` child A-record TTL in §3.4.
    pub const HOUR: Ttl = Ttl(3_600);
    /// One day — the TTL `.uy` moved to in §5.3.
    pub const DAY: Ttl = Ttl(86_400);
    /// Two days — the root zone glue TTL seen throughout the paper.
    pub const TWO_DAYS: Ttl = Ttl(172_800);

    /// Builds a TTL from seconds, saturating at [`Ttl::MAX`].
    ///
    /// Use [`Ttl::try_from_secs`] when out-of-range input should be an
    /// error instead (e.g. when validating a zone file).
    pub const fn from_secs(secs: u32) -> Ttl {
        if secs > Ttl::MAX.0 {
            Ttl::MAX
        } else {
            Ttl(secs)
        }
    }

    /// Builds a TTL, rejecting values outside `0 ..= 2^31 - 1`.
    pub fn try_from_secs(secs: i64) -> Result<Ttl, WireError> {
        if (0..=Ttl::MAX.0 as i64).contains(&secs) {
            Ok(Ttl(secs as u32))
        } else {
            Err(WireError::TtlOutOfRange(secs))
        }
    }

    /// Interprets a raw wire-format 32-bit TTL field.
    ///
    /// RFC 2181 §8: values with the most significant bit set "should be
    /// treated as if the entire value received were zero".
    pub(crate) const fn from_wire(raw: u32) -> Ttl {
        if raw > Ttl::MAX.0 {
            Ttl::ZERO
        } else {
            Ttl(raw)
        }
    }

    /// The TTL in whole seconds.
    pub const fn as_secs(self) -> u32 {
        self.0
    }

    /// The TTL as a [`Duration`].
    pub(crate) const fn as_duration(self) -> Duration {
        Duration::from_secs(self.0 as u64)
    }

    /// True if this record may not be served from cache at all.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Counts the TTL down by `secs`, stopping at zero.
    ///
    /// This is what a cache does when handing out a cached record: the
    /// client sees the *remaining* lifetime, which is how the paper's
    /// Atlas vantage points distinguish fresh fetches (full TTL) from
    /// cache hits (decremented TTL).
    pub const fn saturating_sub_secs(self, secs: u32) -> Ttl {
        Ttl(self.0.saturating_sub(secs))
    }

    /// Caps the TTL at `cap`, as TTL-capping resolvers do (§3.3 observes
    /// Google Public DNS capping at 21 599 s).
    pub fn min(self, cap: Ttl) -> Ttl {
        Ttl(self.0.min(cap.0))
    }

    /// Raises the TTL to at least `floor`, as minimum-TTL resolvers do.
    pub fn max(self, floor: Ttl) -> Ttl {
        Ttl(self.0.max(floor.0))
    }
}

impl fmt::Display for Ttl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl From<Ttl> for Duration {
    fn from(t: Ttl) -> Duration {
        t.as_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(Ttl::MINUTE.as_secs(), 60);
        assert_eq!(Ttl::HOUR.as_secs(), 3_600);
        assert_eq!(Ttl::DAY.as_secs(), 86_400);
        assert_eq!(Ttl::TWO_DAYS.as_secs(), 172_800);
        assert_eq!(Ttl::MAX.as_secs(), 2_147_483_647);
    }

    #[test]
    fn from_secs_saturates() {
        assert_eq!(Ttl::from_secs(u32::MAX), Ttl::MAX);
        assert_eq!(Ttl::from_secs(5).as_secs(), 5);
    }

    #[test]
    fn try_from_secs_rejects_out_of_range() {
        assert!(Ttl::try_from_secs(-1).is_err());
        assert!(Ttl::try_from_secs(1 << 31).is_err());
        assert_eq!(Ttl::try_from_secs(0).unwrap(), Ttl::ZERO);
        assert_eq!(Ttl::try_from_secs((1 << 31) - 1).unwrap(), Ttl::MAX);
    }

    #[test]
    fn wire_high_bit_means_zero() {
        assert_eq!(Ttl::from_wire(0x8000_0000), Ttl::ZERO);
        assert_eq!(Ttl::from_wire(0xFFFF_FFFF), Ttl::ZERO);
        assert_eq!(Ttl::from_wire(300).as_secs(), 300);
    }

    #[test]
    fn countdown_saturates_at_zero() {
        let t = Ttl::from_secs(100);
        assert_eq!(t.saturating_sub_secs(40).as_secs(), 60);
        assert_eq!(t.saturating_sub_secs(100), Ttl::ZERO);
        assert_eq!(t.saturating_sub_secs(1_000), Ttl::ZERO);
    }

    #[test]
    fn cap_and_floor() {
        let t = Ttl::from_secs(345_600); // google.co child NS TTL
        let capped = t.min(Ttl::from_secs(21_599));
        assert_eq!(capped.as_secs(), 21_599);
        assert_eq!(Ttl::from_secs(10).max(Ttl::MINUTE).as_secs(), 60);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Ttl::from_secs(300).to_string(), "300s");
    }
}
