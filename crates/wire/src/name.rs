//! Domain names.
//!
//! Names carry the structure the paper's questions hang on: parent/child
//! relationships at delegation boundaries and bailiwick membership
//! ("is `ns1.example.org` *inside* the zone `example.org`?"). The type
//! here keeps labels in their original case but compares and hashes
//! case-insensitively, as RFC 1035 §2.3.3 requires.
//!
//! # Representation
//!
//! A `Name` is a single shared byte buffer: the presentation form with a
//! trailing dot (`"a.nic.uy."`, root `"."`) behind an `Arc<str>`, plus a
//! precomputed case-folded FNV-1a hash. Labels never contain `.` (the
//! parser and the wire decoder both reject it), so label boundaries are
//! exactly the dots and every label view is a subslice — no per-label
//! `String`s. The consequences the resolver hot path depends on:
//!
//! * `Clone` is a reference-count bump (names are cache keys, ledger
//!   fields and trace fields; the resolve path used to deep-copy a
//!   `Vec<String>` dozens of times per query);
//! * `Eq` is a hash compare, then a byte compare (which settles on the
//!   pointer for clones sharing a buffer), and only for buffers whose
//!   bytes differ one `eq_ignore_ascii_case` — no allocation, no
//!   per-label pointer chasing;
//! * `Hash` writes the cached 64-bit value — map lookups do not rescan
//!   the name;
//! * `Ord` is the RFC 4034 §6.1 canonical order, computed label-wise
//!   from the root downward over borrowed subslices;
//! * every ancestor is a subslice too: [`Name::suffixes`] walks them as
//!   borrowed [`NameSuffix`]es, and a map keyed on `Name` can be probed
//!   with one through [`NameKey`] — no ancestor `Name` is built.

use crate::record::fnv1a_step;
use crate::{WireError, FNV_OFFSET};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Maximum length of a single label, RFC 1035 §2.3.4.
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name in wire format, RFC 1035 §2.3.4.
pub(crate) const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name.
///
/// Internally a shared presentation-form buffer (labels in their
/// original case, dot-terminated); the root is `"."`. Comparison,
/// ordering, and hashing are case-insensitive and allocation-free, and
/// clones share the buffer.
///
/// ```
/// use dnsttl_wire::Name;
/// let ns = Name::parse("ns1.CacheTest.net").unwrap();
/// let zone = Name::parse("cachetest.net").unwrap();
/// assert!(ns.is_subdomain_of(&zone));      // in bailiwick
/// assert_eq!(ns, Name::parse("NS1.cachetest.NET").unwrap());
/// ```
#[derive(Clone)]
pub struct Name {
    /// Presentation form with a trailing dot, original case.
    repr: Arc<str>,
    /// FNV-1a over the ASCII-lowercased `repr` bytes, fixed at
    /// construction (names are immutable).
    hash: u64,
}

/// FNV-1a over case-folded bytes — the cached `Name::hash` value.
fn folded_fnv(repr: &str) -> u64 {
    let bytes = repr.as_bytes().iter();
    bytes.fold(FNV_OFFSET, |h, b| fnv1a_step(h, b.to_ascii_lowercase()))
}

impl Name {
    /// The root name (`.`). Shares one global buffer.
    pub fn root() -> Name {
        static ROOT: OnceLock<Arc<str>> = OnceLock::new();
        let repr = ROOT.get_or_init(|| Arc::from(".")).clone();
        let hash = folded_fnv(".");
        Name { repr, hash }
    }

    /// Builds a name from an already-validated dot-terminated buffer:
    /// the one allocation a name costs.
    fn from_valid_repr(repr: &str) -> Name {
        Name {
            repr: Arc::from(repr),
            hash: folded_fnv(repr),
        }
    }

    /// Parses a presentation-format name such as `"a.nic.uy"` or `"."`.
    ///
    /// A single trailing dot is accepted and ignored; empty interior
    /// labels, over-long labels, and over-long names are rejected. Allowed
    /// characters are letters, digits, `-`, `_` and `*` (the last two for
    /// SRV-style owners and wildcards).
    pub fn parse(s: &str) -> Result<Name, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        for label in s.split('.') {
            if label.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            if let Some(c) = label
                .chars()
                .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '*')))
            {
                return Err(WireError::InvalidCharacter(c));
            }
        }
        let mut repr = ReprBuf::new();
        repr.push(s);
        repr.push(".");
        repr.finish()
    }

    /// Builds a name from raw labels, most-specific first.
    ///
    /// Labels must be non-empty ASCII without dots and at most
    /// `MAX_LABEL_LEN` bytes. This is deliberately more permissive than
    /// [`Name::parse`] (any non-dot ASCII byte is allowed): it is the
    /// entry point for labels decoded from wire format, where RFC 1035
    /// imposes no alphabet.
    pub fn from_labels<I, S>(labels: I) -> Result<Name, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut repr = ReprBuf::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            if let Some(c) = l.chars().find(|&c| !c.is_ascii() || c == '.') {
                return Err(WireError::InvalidCharacter(c));
            }
            repr.push(l);
            repr.push(".");
        }
        repr.finish()
    }

    /// The presentation form with its trailing dot (`"a.nic.uy."`,
    /// `"."` for the root). Borrowed, original case.
    pub fn as_str(&self) -> &str {
        &self.repr
    }

    /// The shared presentation buffer, borrowed: what a telemetry field
    /// takes by reference, and what a consumer that keeps the name as a
    /// string clones (a reference count, not a copy).
    pub fn shared(&self) -> &Arc<str> {
        &self.repr
    }

    /// The precomputed case-folded FNV-1a hash of this name — the same
    /// value `Hash` writes, so consumers fold it in without rescanning
    /// the buffer; equal names (case-insensitively) carry equal words.
    pub(crate) fn folded_hash(&self) -> u64 {
        self.hash
    }

    /// The labels of this name, most-specific first, as borrowed slices.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        let body = &self.repr[..self.repr.len() - 1];
        body.split('.').filter(|l| !l.is_empty())
    }

    /// The labels from the root downward (`a.nic.uy` → `uy`, `nic`,
    /// `a`) — the iteration order of canonical comparison.
    fn labels_root_down(&self) -> impl Iterator<Item = &str> {
        let body = &self.repr[..self.repr.len() - 1];
        body.rsplit('.').filter(|l| !l.is_empty())
    }

    /// Number of labels; the root has zero.
    pub fn label_count(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.repr.as_bytes().iter().filter(|&&b| b == b'.').count()
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.repr.len() == 1
    }

    /// Length of the name in uncompressed wire format (labels plus length
    /// octets plus the terminating zero octet).
    pub(crate) fn wire_len(&self) -> usize {
        if self.is_root() {
            1
        } else {
            // Each dot stands for a length octet; +1 for the terminator.
            self.repr.len() + 1
        }
    }

    /// The name with the leftmost label removed; `None` for the root.
    ///
    /// `a.nic.uy` → `nic.uy` → `uy` → `.` → `None`.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        let cut = self.repr.find('.').expect("non-root names contain a dot");
        let rest = &self.repr[cut + 1..];
        if rest.is_empty() {
            Some(Name::root())
        } else {
            Some(Name::from_valid_repr(rest))
        }
    }

    /// Prepends `label`, producing a child of this name.
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        if label.is_empty() {
            return Err(WireError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        if let Some(c) = label.chars().find(|&c| !c.is_ascii() || c == '.') {
            return Err(WireError::InvalidCharacter(c));
        }
        let mut repr = ReprBuf::new();
        repr.push(label);
        repr.push(".");
        if !self.is_root() {
            repr.push(&self.repr);
        }
        repr.finish()
    }

    /// True if `self` equals `zone` or sits below it in the tree.
    ///
    /// This is the *bailiwick* test: a server name is in bailiwick of the
    /// zone it serves exactly when `server.is_subdomain_of(zone)`
    /// (RFC 8499). Every name is a subdomain of the root.
    ///
    /// With the flat representation this is one case-folded suffix
    /// compare plus a label-boundary check — no label walk.
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        if zone.is_root() {
            return true;
        }
        let s = self.repr.as_bytes();
        let z = zone.repr.as_bytes();
        if z.len() > s.len() {
            return false;
        }
        let tail = &s[s.len() - z.len()..];
        tail.eq_ignore_ascii_case(z) && (s.len() == z.len() || s[s.len() - z.len() - 1] == b'.')
    }

    /// True if `self` is *strictly* below `zone`.
    pub fn is_strict_subdomain_of(&self, zone: &Name) -> bool {
        self.repr.len() > zone.repr.len() && self.is_subdomain_of(zone)
    }

    /// This name and each of its ancestors up to the root, deepest
    /// first, borrowed from this name's buffer.
    ///
    /// For `a.nic.uy`: `a.nic.uy.`, `nic.uy.`, `uy.`, `.`. Resolvers
    /// walk this chain when hunting for the deepest cached delegation;
    /// no `Name` is built per step.
    pub fn suffixes(&self) -> Suffixes<'_> {
        Suffixes {
            rest: Some(&self.repr),
            own_hash: Some(self.hash),
        }
    }

    /// A canonical lowercase key for use in maps and codecs: the
    /// presentation form lowercased (`"a.nic.uy."`, root `"."`).
    pub fn canonical(&self) -> String {
        self.repr.to_ascii_lowercase()
    }
}

/// A name's dot-terminated presentation form under construction, on
/// the stack, so that building a [`Name`] allocates only its shared
/// buffer. Bytes past [`MAX_NAME_LEN`] are not kept, but `len` goes on
/// counting them, so an over-long name reports its full length.
/// Callers push only validated ASCII labels and their dots.
pub(crate) struct ReprBuf {
    bytes: [u8; MAX_NAME_LEN],
    len: usize,
}

impl ReprBuf {
    /// An empty buffer: finished as is, the root.
    pub(crate) fn new() -> ReprBuf {
        ReprBuf {
            bytes: [0; MAX_NAME_LEN],
            len: 0,
        }
    }

    /// Appends `text`, or only counts it once the name is too long.
    pub(crate) fn push(&mut self, text: &str) {
        let end = self.len + text.len();
        if let Some(dst) = self.bytes.get_mut(self.len..end) {
            dst.copy_from_slice(text.as_bytes());
        }
        self.len = end;
    }

    /// The name, checked against the wire limit: one length octet per
    /// label plus the terminator is the presentation length plus one.
    pub(crate) fn finish(self) -> Result<Name, WireError> {
        if self.len == 0 {
            return Ok(Name::root());
        }
        if self.len + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(self.len + 1));
        }
        Ok(Name::from_valid_repr(self.as_str()))
    }

    /// The bytes pushed so far, when they all fit.
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("labels are ASCII")
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // The cached case-folded hash screens out almost every mismatch
        // before the buffer compare runs; equal bytes (or one shared
        // buffer, which `Arc`'s `==` checks first) skip the case fold.
        // Dots are label boundaries in both buffers, so whole-buffer
        // equality is label-wise equality.
        self.hash == other.hash
            && (self.repr == other.repr || self.repr.eq_ignore_ascii_case(&other.repr))
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A borrowed suffix of a [`Name`] on a label boundary (`nic.uy.` inside
/// `a.nic.uy.`), with its case-folded hash: everything a `Name` is except
/// the owned buffer.
#[derive(Debug, Clone, Copy)]
pub struct NameSuffix<'a> {
    repr: &'a str,
    hash: u64,
    /// Length of the leftmost label; zero for the root.
    label_len: usize,
}

impl<'a> NameSuffix<'a> {
    /// The presentation form with its trailing dot, as [`Name::as_str`].
    pub fn as_str(&self) -> &'a str {
        self.repr
    }

    /// The leftmost label (`nic` of `nic.uy.`); empty for the root.
    pub fn label(&self) -> &'a str {
        &self.repr[..self.label_len]
    }

    /// Copies the suffix into an owned [`Name`].
    pub fn to_name(&self) -> Name {
        Name {
            repr: Arc::from(self.repr),
            hash: self.hash,
        }
    }

    /// The wildcard name just below this suffix (`*.nic.uy.` for
    /// `nic.uy.`) as a map key on the stack, so a map keyed on [`Name`]
    /// finds that owner without building one; `None` if over-long.
    pub fn wildcard(&self) -> Option<WildcardKey> {
        let mut repr = ReprBuf::new();
        repr.push("*.");
        repr.push(self.repr.strip_prefix('.').unwrap_or(self.repr));
        (repr.len < MAX_NAME_LEN).then(|| WildcardKey(folded_fnv(repr.as_str()), repr))
    }
}

/// A wildcard name built by [`NameSuffix::wildcard`]: its folded hash
/// and its bytes, hashed and compared as the equal [`Name`] would be.
pub struct WildcardKey(u64, ReprBuf);

/// Iterator behind [`Name::suffixes`].
#[derive(Debug, Clone)]
pub struct Suffixes<'a> {
    rest: Option<&'a str>,
    /// The cached hash of the whole name, spent on the first item.
    own_hash: Option<u64>,
}

impl<'a> Iterator for Suffixes<'a> {
    type Item = NameSuffix<'a>;

    fn next(&mut self) -> Option<NameSuffix<'a>> {
        let repr = self.rest?;
        // Labels are short: a byte loop beats `str::find`'s searcher.
        let label_len = repr
            .bytes()
            .position(|b| b == b'.')
            .expect("names are dot-terminated");
        self.rest = (repr.len() > 1).then(|| match &repr[label_len + 1..] {
            "" => ".",
            parent => parent,
        });
        let hash = self.own_hash.take().unwrap_or_else(|| folded_fnv(repr));
        Some(NameSuffix {
            repr,
            hash,
            label_len,
        })
    }
}

/// The lookup key of a map keyed on [`Name`]: the case-folded hash that
/// `Hash` writes and the buffer that `Eq` compares. `Name` borrows as
/// `dyn NameKey`, so `HashMap<Name, V>::get` accepts a [`NameSuffix`]
/// (`map.get(&suffix as &dyn NameKey)`) and finds the entry an equal
/// `Name` would.
pub trait NameKey {
    /// FNV-1a over the ASCII-lowercased presentation form.
    fn folded_hash(&self) -> u64;
    /// The dot-terminated presentation form.
    fn repr(&self) -> &str;
}

impl NameKey for Name {
    fn folded_hash(&self) -> u64 {
        self.hash
    }
    fn repr(&self) -> &str {
        &self.repr
    }
}

impl NameKey for NameSuffix<'_> {
    fn folded_hash(&self) -> u64 {
        self.hash
    }
    fn repr(&self) -> &str {
        self.repr
    }
}

impl NameKey for WildcardKey {
    fn folded_hash(&self) -> u64 {
        self.0
    }
    fn repr(&self) -> &str {
        self.1.as_str()
    }
}

impl<'a> std::borrow::Borrow<dyn NameKey + 'a> for Name {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

// Same rules as `Name`'s own `Eq` and `Hash`, as `Borrow` requires.
impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.folded_hash() == other.folded_hash()
            && (self.repr() == other.repr() || self.repr().eq_ignore_ascii_case(other.repr()))
    }
}

impl Eq for dyn NameKey + '_ {}

impl std::hash::Hash for dyn NameKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.folded_hash());
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences
    /// from the root downward, case-insensitively.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        for (la, lb) in self.labels_root_down().zip(other.labels_root_down()) {
            let ord = la
                .bytes()
                .map(|c| c.to_ascii_lowercase())
                .cmp(lb.bytes().map(|c| c.to_ascii_lowercase()));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.label_count().cmp(&other.label_count())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:?})", &*self.repr)
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["uy", "a.nic.uy", "ns1.sub.cachetest.net", "google.co"] {
            assert_eq!(n(s).to_string(), format!("{s}."));
        }
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("."), Name::root());
        assert_eq!(n("nl."), n("nl"));
    }

    #[test]
    fn rejects_malformed_names() {
        assert_eq!(Name::parse("a..b"), Err(WireError::EmptyLabel));
        assert!(matches!(
            Name::parse(&"x".repeat(64)),
            Err(WireError::LabelTooLong(64))
        ));
        assert!(matches!(
            Name::parse("bad domain.example"),
            Err(WireError::InvalidCharacter(' '))
        ));
        let long = vec!["abcdefgh"; 32].join("."); // 32*9 + 1 > 255
        assert!(matches!(Name::parse(&long), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn an_over_long_name_reports_its_full_length() {
        // The stack buffer keeps 255 bytes but counts every one pushed.
        let label = "x".repeat(63);
        let five = Name::from_labels([label.as_str(); 5]);
        assert_eq!(five, Err(WireError::NameTooLong(5 * 64 + 1)));
        let three = Name::from_labels([label.as_str(); 3]).unwrap();
        assert_eq!(three.child(&label), Err(WireError::NameTooLong(4 * 64 + 1)));
        let longest = Name::from_labels([&label[..61], &label, &label, &label]).unwrap();
        assert_eq!(longest.wire_len(), MAX_NAME_LEN);
    }

    #[test]
    fn from_labels_rejects_dots_and_non_ascii() {
        assert_eq!(
            Name::from_labels(["a.b"]),
            Err(WireError::InvalidCharacter('.'))
        );
        assert_eq!(
            Name::from_labels(["café"]),
            Err(WireError::InvalidCharacter('é'))
        );
        // Wire-permissive: odd ASCII is allowed through this entry point.
        let odd = Name::from_labels(["a b!", "example"]).unwrap();
        assert_eq!(odd.label_count(), 2);
        assert_eq!(odd.labels().next(), Some("a b!"));
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("A.NIC.UY"), n("a.nic.uy"));
        let mut set = HashSet::new();
        set.insert(n("Example.ORG"));
        assert!(set.contains(&n("example.org")));
    }

    #[test]
    fn equality_is_the_same_whether_bytes_or_only_case_agree() {
        let a = n("r7.zipf");
        let cases = [
            (a.clone(), true),      // the same buffer
            (n("r7.zipf"), true),   // equal bytes, separate buffers
            (n("R7.ZIPF"), true),   // different case, separate buffers
            (n("r8.zipf"), false),  // different bytes
            (n("r7.zipf2"), false), // different length
        ];
        assert!(std::ptr::eq(a.as_str(), cases[0].0.as_str()));
        assert!(!std::ptr::eq(a.as_str(), cases[1].0.as_str()));
        for (b, equal) in &cases {
            assert_eq!(a == *b, *equal, "{a} == {b}");
            assert_eq!(
                (&a as &dyn NameKey) == (b as &dyn NameKey),
                *equal,
                "{a} == {b} as keys"
            );
        }
    }

    #[test]
    fn label_boundaries_matter_for_equality() {
        assert_ne!(
            Name::from_labels(["ab", "c"]).unwrap(),
            Name::from_labels(["a", "bc"]).unwrap()
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = n("deep.label.chain.example");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
    }

    #[test]
    fn parent_walk_terminates_at_root() {
        let mut cur = Some(n("a.nic.uy"));
        let mut seen = Vec::new();
        while let Some(c) = cur {
            seen.push(c.to_string());
            cur = c.parent();
        }
        assert_eq!(seen, ["a.nic.uy.", "nic.uy.", "uy.", "."]);
    }

    #[test]
    fn bailiwick_checks() {
        let zone = n("cachetest.net");
        assert!(n("ns1.cachetest.net").is_subdomain_of(&zone));
        assert!(n("ns1.sub.cachetest.net").is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_strict_subdomain_of(&zone));
        assert!(!n("ns1.zurrundedu.com").is_subdomain_of(&zone));
        // Suffix coincidence is not subdomain-ness.
        assert!(!n("evilcachetest.net").is_subdomain_of(&zone));
        assert!(n("anything.example").is_subdomain_of(&Name::root()));
        // Case-insensitive across the boundary.
        assert!(n("NS1.CACHETEST.NET").is_subdomain_of(&zone));
    }

    #[test]
    fn suffixes_walk_up_to_the_root_with_name_hashes() {
        let name = n("A.Nic.uy");
        let chain: Vec<&str> = name.suffixes().map(|s| s.as_str()).collect();
        assert_eq!(chain, ["A.Nic.uy.", "Nic.uy.", "uy.", "."]);
        // Each suffix is the name the parent walk reaches at that step,
        // hash included.
        let mut ancestor = Some(name.clone());
        for suffix in name.suffixes() {
            let expected = ancestor.expect("parent walk is as long as the suffix walk");
            assert_eq!(suffix.to_name(), expected);
            assert_eq!(NameKey::folded_hash(&suffix), expected.folded_hash());
            ancestor = expected.parent();
        }
        assert!(ancestor.is_none());
        assert_eq!(Name::root().suffixes().count(), 1);
    }

    #[test]
    fn a_suffix_finds_the_entry_an_equal_name_would() {
        use std::collections::HashMap;
        let mut map: HashMap<Name, u8> = HashMap::new();
        map.insert(n("nic.UY"), 1);
        map.insert(Name::root(), 0);
        let name = n("a.NIC.uy");
        let found: Vec<Option<&u8>> = name
            .suffixes()
            .map(|s| map.get(&s as &dyn NameKey))
            .collect();
        assert_eq!(found, [None, Some(&1), None, Some(&0)]);
        // Label boundaries still matter: `ic.uy.` is no suffix of it.
        assert!(!map.contains_key(&n("ic.uy") as &dyn NameKey));
    }

    #[test]
    fn a_wildcard_key_finds_the_wildcard_owner_in_any_case() {
        use std::collections::HashMap;
        let mut map: HashMap<Name, u8> = HashMap::new();
        map.insert(n("*.nic.UY"), 1);
        map.insert(n("*"), 0);
        map.insert(n("a*b.uy"), 2);
        let name = n("x.a.NIC.uy");
        let found: Vec<Option<&u8>> = name
            .suffixes()
            .map(|s| map.get(&s.wildcard().unwrap() as &dyn NameKey))
            .collect();
        assert_eq!(found, [None, None, Some(&1), None, Some(&0)]);
        // A label that holds a `*` among other bytes is no wildcard.
        let uy = n("q.uy");
        let star_uy = uy.suffixes().nth(1).unwrap().wildcard().unwrap();
        assert_eq!(map.get(&star_uy as &dyn NameKey), None);
        // No key for a wildcard longer than a name may be.
        let long = n(&[
            "a".repeat(63),
            "b".repeat(63),
            "c".repeat(63),
            "d".repeat(61),
        ]
        .join("."));
        assert_eq!(long.as_str().len(), 254);
        assert!(long.suffixes().next().unwrap().wildcard().is_none());
        assert!(long.suffixes().nth(1).unwrap().wildcard().is_some());
    }

    #[test]
    fn child_builds_and_validates() {
        let zone = n("cachetest.net");
        assert_eq!(zone.child("ns1").unwrap(), n("ns1.cachetest.net"));
        assert!(zone.child("").is_err());
        assert!(zone.child("a.b").is_err());
        assert_eq!(Name::root().child("uy").unwrap(), n("uy"));
    }

    #[test]
    fn canonical_ordering_is_hierarchical() {
        let mut v = [
            n("b.example"),
            n("a.example"),
            n("example"),
            n("z.a.example"),
        ];
        v.sort();
        let strs: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(
            strs,
            ["example.", "a.example.", "z.a.example.", "b.example."]
        );
    }

    #[test]
    fn ordering_is_case_insensitive() {
        assert_eq!(
            n("A.Example").cmp(&n("a.example")),
            std::cmp::Ordering::Equal
        );
        assert!(n("a.example") < n("B.example"));
    }

    #[test]
    fn wire_len_counts_length_octets_and_terminator() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(n("uy").wire_len(), 4); // 1 len + 2 + root 1
        assert_eq!(n("a.nic.uy").wire_len(), 10);
    }

    #[test]
    fn labels_iterate_both_ways() {
        let name = n("a.nic.uy");
        let fwd: Vec<&str> = name.labels().collect();
        assert_eq!(fwd, ["a", "nic", "uy"]);
        let rev: Vec<&str> = name.labels().rev().collect();
        assert_eq!(rev, ["uy", "nic", "a"]);
        assert_eq!(Name::root().labels().count(), 0);
    }
}
