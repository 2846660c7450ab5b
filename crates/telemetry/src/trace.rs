//! The simulation-time trace layer.
//!
//! Traces are flat streams of [`TraceEvent`]s keyed by simulation time
//! (milliseconds since simulation start — the workspace's `SimTime`
//! unit). A *span* groups the events of one recursive resolution: span
//! start/end are themselves events, and any event may carry the span id
//! it belongs to. Events land in a bounded ring — when full, the oldest
//! events are dropped and counted, so a long run's trace stays at a
//! predictable size with the most recent history intact.
//!
//! Storage is packed: an event is a 32-byte [`EventSlot`], a field a
//! 16-byte [`FieldSlot`]. A string is kept once — a `'static` one and a
//! shared one each as an id into a grow-only table that also holds the
//! bytes the export writes for it — and only what neither a table nor a
//! `u64` can hold (owned strings, IPv6 addresses) spills into a side
//! arena that eviction drains in step. [`TraceEvent`] is the unpacked
//! view readers get.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use crate::block_queue::BlockQueue;
use crate::json::{self, Value};
use crate::memo::AddrMemo;

/// What happened. The variants are the simulator's recorded moments;
/// the discriminant is the kind's index into the tracer's per-kind
/// totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A recursive resolution began (opens a span).
    SpanStart,
    /// A recursive resolution finished (closes a span).
    SpanEnd,
    /// A cached entry was present but past its TTL.
    CacheExpiry,
    /// A stale entry was served (serve-stale policy).
    CacheStale,
    /// An authoritative server delegated to a child zone.
    Referral,
    /// A query was retried against another candidate server.
    Retry,
    /// A query timed out.
    Timeout,
    /// A truncated UDP response forced a TCP retry.
    TcFallback,
    /// Resolution failed with SERVFAIL.
    ServFail,
    /// An authoritative server was renumbered mid-run.
    Renumber,
    /// A zone was transferred/replaced on a server.
    ZoneTransfer,
    /// The network dropped a packet.
    PacketLoss,
    /// DNSSEC validation failed.
    ValidationFailure,
    /// An Atlas-style measurement was discarded as invalid.
    Discard,
    /// A fresh RRset entered the cache (dnstap-style ledger event).
    CacheInsert,
    /// A cached RRset was re-stored with identical data (TTL refresh).
    CacheRefresh,
    /// A cached RRset was replaced by one with different data.
    CacheOverwrite,
    /// A cached entry was served to a client (ledger-level hit).
    CacheServe,
    /// A cached entry was removed because its TTL had passed.
    CacheExpiredDrop,
    /// An expired cached entry answered a client past its TTL
    /// (RFC 8767 serve-stale; ledger-level counterpart of
    /// [`EventKind::CacheStale`]).
    CacheStaleServe,
    /// An upstream failure was negatively cached (RFC 2308 §7).
    NegCache,
    /// A candidate server was skipped because it is in exponential
    /// backoff after repeated failures.
    Backoff,
    /// A scripted fault (outage, degradation, blackout) affected an
    /// exchange or a cache flush fired.
    Fault,
}

impl EventKind {
    /// The stable string written to JSONL exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::CacheExpiry => "cache_expiry",
            EventKind::CacheStale => "cache_stale",
            EventKind::Referral => "referral",
            EventKind::Retry => "retry",
            EventKind::Timeout => "timeout",
            EventKind::TcFallback => "tc_fallback",
            EventKind::ServFail => "servfail",
            EventKind::Renumber => "renumber",
            EventKind::ZoneTransfer => "zone_transfer",
            EventKind::PacketLoss => "packet_loss",
            EventKind::ValidationFailure => "validation_failure",
            EventKind::Discard => "discard",
            EventKind::CacheInsert => "cache_insert",
            EventKind::CacheRefresh => "cache_refresh",
            EventKind::CacheOverwrite => "cache_overwrite",
            EventKind::CacheServe => "cache_serve",
            EventKind::CacheExpiredDrop => "cache_expired_drop",
            EventKind::CacheStaleServe => "cache_stale_serve",
            EventKind::NegCache => "neg_cache",
            EventKind::Backoff => "backoff",
            EventKind::Fault => "fault",
        }
    }

    /// Dense index, used by the tracer's array-backed per-kind totals
    /// so the event hot path increments a slot instead of walking a
    /// string-keyed map.
    fn index(self) -> usize {
        self as usize
    }

    /// Number of variants (the per-kind array length).
    const COUNT: usize = 23;

    /// All variants, in [`EventKind::index`] order.
    const INDEXED: [EventKind; EventKind::COUNT] = [
        EventKind::SpanStart,
        EventKind::SpanEnd,
        EventKind::CacheExpiry,
        EventKind::CacheStale,
        EventKind::Referral,
        EventKind::Retry,
        EventKind::Timeout,
        EventKind::TcFallback,
        EventKind::ServFail,
        EventKind::Renumber,
        EventKind::ZoneTransfer,
        EventKind::PacketLoss,
        EventKind::ValidationFailure,
        EventKind::Discard,
        EventKind::CacheInsert,
        EventKind::CacheRefresh,
        EventKind::CacheOverwrite,
        EventKind::CacheServe,
        EventKind::CacheExpiredDrop,
        EventKind::CacheStaleServe,
        EventKind::NegCache,
        EventKind::Backoff,
        EventKind::Fault,
    ];
}

/// Identifies one span (one recursive resolution) within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One trace record, as [`Tracer::events`] yields it: a by-value view
/// unpacked from the ring. Its fields stay in the tracer's arena (see
/// [`Tracer::fields_of`]).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Simulation time in milliseconds.
    pub t_ms: u64,
    /// Monotonic sequence number (total order across equal timestamps).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The span this event belongs to, if any.
    pub span: Option<SpanId>,
    /// For a [`EventKind::SpanStart`]: the span that caused this one
    /// (e.g. the client resolution that triggered an out-of-bailiwick
    /// NS address lookup). `None` for root spans
    /// and for non-start events. Parent/child links make the flat
    /// event stream a walkable causal tree.
    pub parent: Option<SpanId>,
    /// Logical arena offset of this event's first field.
    fields_start: u64,
    /// Number of fields.
    fields_len: u16,
}

/// An event as the ring stores it. `seq` is stored, not derived from
/// the ring position: [`Tracer::absorb`] skips the numbers its shards'
/// evicted events used, so a ring can hold a gap. Where the event's
/// fields start is derived instead — the arena is FIFO in ring order,
/// so it is the sum of the `fields_len` before it.
#[derive(Debug, Clone, Copy)]
struct EventSlot {
    t_ms: u64,
    seq: u64,
    /// The span id; meaningful only with `has_span`. A flag rather than
    /// a sentinel because every `u64` is a recordable id (a disabled
    /// handle's dummy span is `u64::MAX`).
    span: u64,
    /// Arena slots this event owns, a leading [`Tag::Parent`] included.
    fields_len: u16,
    /// How many of them are [`Tag::Spilled`], so that eviction releases
    /// the event's storage without reading its slots back.
    spills: u16,
    kind: EventKind,
    has_span: bool,
}

/// What a [`FieldSlot`]'s payload holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// [`StaticTable`] id of a `Value::Static`.
    Static,
    /// [`SharedTable`] id of a `Value::Shared`.
    SharedId,
    /// Logical index of a [`Spill`] in the side arena.
    Spilled,
    Hex64,
    U64,
    /// The `i64`'s bits.
    I64,
    /// The `f64`'s bits.
    F64,
    Bool,
    /// The IPv4 address as a `u32`.
    V4,
    /// Not a field: the event's causal parent span id. Only ever the
    /// first slot of an event, and only on the rare child span start,
    /// so the ring slot does not carry eight bytes for it.
    Parent,
}

/// One stored field: 16 bytes against the 48 of a `(&str, Value)`.
#[derive(Debug, Clone, Copy)]
struct FieldSlot {
    payload: u64,
    /// [`StaticTable`] id of the field name.
    key: u16,
    tag: Tag,
}

/// A field value that no table holds and a `u64` cannot.
#[derive(Debug, Clone)]
enum Spill {
    /// A shared string handed in after the [`SharedTable`] filled up —
    /// the only way one gets here.
    Shared(Arc<str>),
    Str(String),
    V6(Ipv6Addr),
}

impl Spill {
    /// Bytes the value takes in an export, before escaping (an upper
    /// bound for an address).
    fn rendered_len(&self) -> usize {
        match self {
            Spill::Shared(s) => s.len(),
            Spill::Str(s) => s.len(),
            Spill::V6(_) => 39,
        }
    }
}

/// Mixes the two words of a string's whereabouts (address, length) —
/// all the [`StaticTable`] and [`SharedTable`] indexes ever hash. The
/// keys are addresses of the program's own literals and allocations,
/// so SipHash's flood resistance buys nothing.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the tables' keys are usize pairs");
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = crate::registry::mix(self.0, n);
    }
}

/// What the export writes for each interned string, rendered once at
/// intern time: `,"name":` per id, end to end in one grow-only buffer.
/// A field's key is the whole fragment and a string value is the
/// fragment less its first and last byte, so an exported line copies
/// bytes it would otherwise escape again on every occurrence.
#[derive(Debug, Default)]
struct Fragments {
    buf: String,
    /// Where id `i`'s fragment starts; it ends where the next starts.
    starts: Vec<usize>,
}

impl Fragments {
    fn push(&mut self, s: &str) {
        self.starts.push(self.buf.len());
        json::push_member_fragment(&mut self.buf, s);
    }

    /// `,"name":` for id `i`.
    fn key(&self, i: usize) -> Option<&str> {
        let start = *self.starts.get(i)?;
        let end = self.starts.get(i + 1).copied().unwrap_or(self.buf.len());
        Some(&self.buf[start..end])
    }

    /// `"name"` for id `i`.
    fn value(&self, i: usize) -> Option<&str> {
        self.key(i).map(|key| &key[1..key.len() - 1])
    }
}

/// Grow-only intern table for `'static` strings — field names and
/// `Value::Static` payloads — matched by pointer
/// identity, so a lookup never reads the string. It is bounded by the
/// program's literals, and empty (no allocation) until first used.
#[derive(Debug, Default)]
struct StaticTable {
    strs: Vec<&'static str>,
    ids: HashMap<(usize, usize), u16, BuildHasherDefault<AddrHasher>>,
    /// In front of `ids`; a hit is believed, as an address in `ids` is.
    memo: AddrMemo<u16>,
    rendered: Fragments,
}

impl StaticTable {
    /// Ids `0..MAX_LEN` name table entries; the one id past them is
    /// what an overflowing string is given.
    const MAX_LEN: usize = u16::MAX as usize;
    const OVERFLOW_ID: u16 = u16::MAX;
    const OVERFLOW_STR: &'static str = "<static-table-full>";
    const OVERFLOW_KEY: &'static str = ",\"<static-table-full>\":";

    /// The id of `s`, interning it on first sight. Ids are narrowed to
    /// `u16`: a string past the 65 535th distinct one fails loudly in
    /// debug builds, and in release builds *saturates* — it is stored
    /// as [`StaticTable::OVERFLOW_ID`] and exported as
    /// [`StaticTable::OVERFLOW_STR`], never as another string's id.
    #[inline]
    fn intern(&mut self, s: &'static str) -> u16 {
        match self.memo.get(s.as_ptr() as usize, s.len()) {
            Some(id) => id,
            None => self.intern_missed(s),
        }
    }

    #[cold]
    #[inline(never)]
    fn intern_missed(&mut self, s: &'static str) -> u16 {
        let key = (s.as_ptr() as usize, s.len());
        let id = match self.ids.get(&key) {
            Some(&id) => id,
            None if self.strs.len() == Self::MAX_LEN => {
                debug_assert!(false, "more than {} distinct static strings", Self::MAX_LEN);
                return Self::OVERFLOW_ID;
            }
            None => {
                let id = self.strs.len() as u16;
                self.strs.push(s);
                self.rendered.push(s);
                self.ids.insert(key, id);
                id
            }
        };
        self.memo.insert(key.0, key.1, id);
        id
    }

    fn get(&self, id: u16) -> &'static str {
        self.strs
            .get(id as usize)
            .copied()
            .unwrap_or(Self::OVERFLOW_STR)
    }

    /// `,"name":` for `id`, as the export writes a field's key.
    fn key_json(&self, id: u16) -> &str {
        self.rendered.key(id as usize).unwrap_or(Self::OVERFLOW_KEY)
    }

    /// `"name"` for `id`, as the export writes a string value.
    fn value_json(&self, id: u16) -> &str {
        let full = &Self::OVERFLOW_KEY[1..Self::OVERFLOW_KEY.len() - 1];
        self.rendered.value(id as usize).unwrap_or(full)
    }
}

/// Grow-only intern table for `Value::Shared` strings — the qnames and
/// resolver labels a run hands in again on every event — matched by the
/// allocation they point at. The table keeps one strong reference per
/// distinct allocation (so an address cannot be reused while its id is
/// live) and its rendered `"…"`; a field slot carries the id. Empty, and
/// unallocated, until first used.
#[derive(Debug, Default)]
struct SharedTable {
    strs: Vec<Arc<str>>,
    ids: HashMap<(usize, usize), u32, BuildHasherDefault<AddrHasher>>,
    /// In front of `ids`. It only ever names an allocation `strs`
    /// holds, so a hit is believed.
    memo: AddrMemo<u32>,
    rendered: Fragments,
}

impl SharedTable {
    /// The most strings the table takes. A run that hands in more
    /// distinct allocations than this (a crawl naming a million
    /// domains) loses nothing: the rest travel with their events as
    /// [`Spill::Shared`] and leave with them. So what the table keeps
    /// alive for the life of the tracer is bounded — 65 536 strings,
    /// as many rendered copies and some fifty bytes of index each: a
    /// few MB of typical qnames, 40 MB if every one were a 255-byte
    /// name — and the ring's "tens of MB on a pathological run" holds.
    const MAX_LEN: usize = 1 << 16;

    /// The id of the allocation `s` points at, interned on first sight;
    /// `None` once the table is full.
    #[inline]
    fn intern(&mut self, s: &Arc<str>) -> Option<u32> {
        match self.memo.get(s.as_ptr() as usize, s.len()) {
            Some(id) => Some(id),
            None => self.intern_missed(s),
        }
    }

    #[cold]
    #[inline(never)]
    fn intern_missed(&mut self, s: &Arc<str>) -> Option<u32> {
        let key = (s.as_ptr() as usize, s.len());
        let id = match self.ids.get(&key) {
            Some(&id) => id,
            None if self.strs.len() == Self::MAX_LEN => return None,
            None => {
                let id = self.strs.len() as u32;
                self.strs.push(s.clone());
                self.rendered.push(s);
                self.ids.insert(key, id);
                id
            }
        };
        self.memo.insert(key.0, key.1, id);
        Some(id)
    }

    fn get(&self, id: u64) -> &Arc<str> {
        &self.strs[id as usize]
    }

    /// `"…"` for `id`, as the export writes it.
    fn value_json(&self, id: u64) -> &str {
        let value = self.rendered.value(id as usize);
        value.expect("a stored id is one the table handed out")
    }
}

/// Field storage for every buffered event. Events, their field slots
/// and the spills those slots point at are all FIFO, so evicting the
/// oldest event reclaims its storage from the two fronts — steady
/// state records allocate nothing beyond a spilled value's own buffer.
#[derive(Debug, Default)]
struct Arena {
    fields: BlockQueue<FieldSlot>,
    /// Logical offset of `fields.front()`: views address their fields
    /// as `fields_start - fields_base` so eviction never rewrites them.
    fields_base: u64,
    spills: BlockQueue<Spill>,
    /// Logical index of `spills.front()`, the same way.
    spills_base: u64,
    statics: StaticTable,
    shared: SharedTable,
}

impl Arena {
    fn push(&mut self, key: u16, tag: Tag, payload: u64) {
        self.fields.push_back(FieldSlot { payload, key, tag });
    }

    fn push_spill(&mut self, key: u16, spill: Spill) {
        let at = self.spilled();
        self.spills.push_back(spill);
        self.push(key, Tag::Spilled, at);
    }

    /// A shared string is stored as its table id; past the table's
    /// bound it spills, whole, like an owned one.
    fn push_shared(&mut self, key: u16, s: &Arc<str>) {
        match self.shared.intern(s) {
            Some(id) => self.push(key, Tag::SharedId, id as u64),
            None => self.push_spill(key, Spill::Shared(s.clone())),
        }
    }

    /// Values spilled so far; the next one's logical index.
    fn spilled(&self) -> u64 {
        self.spills_base + self.spills.len() as u64
    }

    /// Drops the oldest event's `fields` slots and the `spills` of
    /// them that spilled.
    fn release_front(&mut self, fields: u16, spills: u16) {
        if spills > 0 {
            self.spills.release_front(spills as usize);
            self.spills_base += spills as u64;
        }
        self.fields.release_front(fields as usize);
        self.fields_base += fields as u64;
    }

    fn spill(&self, slot: &FieldSlot) -> &Spill {
        let spill = self.spills.get((slot.payload - self.spills_base) as usize);
        spill.expect("a spilled slot's value is buffered as long as the slot")
    }

    /// Rebuilds the `Value` that was pushed (strings are cloned; the
    /// export borrows them instead).
    fn value_of(&self, slot: &FieldSlot) -> Value {
        match slot.tag {
            Tag::Static => Value::Static(self.statics.get(slot.payload as u16)),
            Tag::SharedId => Value::Shared(self.shared.get(slot.payload).clone()),
            Tag::Spilled => match self.spill(slot) {
                Spill::Shared(s) => Value::Shared(s.clone()),
                Spill::Str(s) => Value::Str(s.clone()),
                Spill::V6(a) => Value::Addr(IpAddr::V6(*a)),
            },
            Tag::Hex64 => Value::Hex64(slot.payload),
            // `Parent` never gets here: views start past it.
            Tag::U64 | Tag::Parent => Value::U64(slot.payload),
            Tag::I64 => Value::I64(slot.payload as i64),
            Tag::F64 => Value::F64(f64::from_bits(slot.payload)),
            Tag::Bool => Value::Bool(slot.payload != 0),
            Tag::V4 => Value::Addr(IpAddr::V4(Ipv4Addr::from(slot.payload as u32))),
        }
    }
}

/// The write handle a field closure receives: appends key/value pairs
/// to the event being recorded, straight into the tracer's arena.
pub struct FieldSink<'a> {
    arena: &'a mut Arena,
    pushed: u16,
}

impl FieldSink<'_> {
    /// Counts one more field and interns its key; `None` when the event
    /// is full (see [`FieldSink::push`]).
    #[inline]
    fn admit(&mut self, key: &'static str) -> Option<u16> {
        if self.pushed == u16::MAX {
            debug_assert!(false, "more than {} fields on one event", u16::MAX);
            return None;
        }
        self.pushed += 1;
        Some(self.arena.statics.intern(key))
    }

    /// Appends one field to the event under construction.
    ///
    /// An event's slot count is narrowed to `u16`: a push past the
    /// 65 535th fails loudly in debug builds and is *refused* in
    /// release builds — the event keeps the fields it already has.
    pub fn push(&mut self, key: &'static str, value: impl Into<Value>) {
        let Some(key) = self.admit(key) else { return };
        match value.into() {
            Value::Static(s) => {
                let id = self.arena.statics.intern(s);
                self.arena.push(key, Tag::Static, id as u64);
            }
            Value::Shared(s) => self.arena.push_shared(key, &s),
            Value::Str(s) => self.arena.push_spill(key, Spill::Str(s)),
            Value::Addr(IpAddr::V6(a)) => self.arena.push_spill(key, Spill::V6(a)),
            Value::Addr(IpAddr::V4(a)) => self.arena.push(key, Tag::V4, u32::from(a) as u64),
            Value::Hex64(v) => self.arena.push(key, Tag::Hex64, v),
            Value::U64(v) => self.arena.push(key, Tag::U64, v),
            Value::I64(v) => self.arena.push(key, Tag::I64, v as u64),
            Value::F64(v) => self.arena.push(key, Tag::F64, v.to_bits()),
            Value::Bool(v) => self.arena.push(key, Tag::Bool, v as u64),
        }
    }

    /// Appends a shared string by reference: exported as
    /// `push(key, value.clone())` would be, without the clone, so a
    /// string the trace already holds costs no reference-count
    /// operation. Refused like [`FieldSink::push`] on a full event.
    pub fn push_shared(&mut self, key: &'static str, value: &Arc<str>) {
        if let Some(key) = self.admit(key) {
            self.arena.push_shared(key, value);
        }
    }
}

/// Appends `"text"`, escaped: what the export does for a string no table
/// rendered ahead of time.
fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    json::escape_into(out, text);
    out.push('"');
}

/// Default ring capacity: enough for every event of the paper-scale
/// experiments while bounding a pathological run to tens of MB.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// The bounded event ring plus span bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    ring: BlockQueue<EventSlot>,
    arena: Arena,
    next_seq: u64,
    next_span: u64,
    dropped: u64,
    /// Totals per kind, indexed by [`EventKind::index`], so the record
    /// hot path is an array increment, not a map walk.
    per_kind: [u64; EventKind::COUNT],
    /// Ring-eviction totals, split by the kind of the evicted event so
    /// drop loss is attributable.
    dropped_per_kind: [u64; EventKind::COUNT],
}

impl Tracer {
    /// A tracer with the given ring capacity (min 1). Allocates
    /// nothing: the ring, the arena and the tables grow on first use.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            capacity: capacity.max(1),
            ring: BlockQueue::default(),
            arena: Arena::default(),
            next_seq: 0,
            next_span: 0,
            dropped: 0,
            per_kind: [0; EventKind::COUNT],
            dropped_per_kind: [0; EventKind::COUNT],
        }
    }

    /// The ring capacity this tracer was built with.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates a fresh span id.
    pub fn new_span(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }

    /// Drops the oldest event, reclaims its arena fields, and charges
    /// the loss to the evicted event's kind.
    fn evict_oldest(&mut self) {
        if let Some(&slot) = self.ring.get(0) {
            self.ring.release_front(1);
            self.arena.release_front(slot.fields_len, slot.spills);
            self.dropped += 1;
            self.dropped_per_kind[slot.kind.index()] += 1;
        }
    }

    /// Counts a `kind` event in [`Tracer::kind_counts`] without
    /// recording it: it takes no sequence number and no ring slot.
    pub fn count(&mut self, kind: EventKind) {
        self.per_kind[kind.index()] += 1;
    }

    /// Records an event; evicts the oldest if the ring is full. The
    /// closure receives a [`FieldSink`] and pushes the event's fields
    /// directly into the tracer's arena.
    pub fn record(
        &mut self,
        t_ms: u64,
        kind: EventKind,
        span: Option<SpanId>,
        fill: impl FnOnce(&mut FieldSink),
    ) {
        self.record_caused(t_ms, kind, span, None, fill);
    }

    /// [`Tracer::record`] with a causal parent: used for span-start
    /// events of child resolutions so the flat stream carries the tree.
    pub fn record_caused(
        &mut self,
        t_ms: u64,
        kind: EventKind,
        span: Option<SpanId>,
        parent: Option<SpanId>,
        fill: impl FnOnce(&mut FieldSink),
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.count(kind);
        if self.ring.len() == self.capacity {
            self.evict_oldest();
        }
        let spilled_before = self.arena.spilled();
        let mut sink = FieldSink {
            arena: &mut self.arena,
            pushed: 0,
        };
        if let Some(SpanId(id)) = parent {
            sink.arena.push(0, Tag::Parent, id);
            sink.pushed = 1;
        }
        fill(&mut sink);
        let fields_len = sink.pushed;
        self.ring.push_back(EventSlot {
            t_ms,
            seq,
            span: span.map_or(0, |SpanId(id)| id),
            fields_len,
            spills: (self.arena.spilled() - spilled_before) as u16,
            kind,
            has_span: span.is_some(),
        });
    }

    /// Unpacks the ring slot whose arena slots start at physical index
    /// `at`.
    fn view(&self, slot: &EventSlot, at: usize) -> TraceEvent {
        let parent = match self.arena.fields.get(at) {
            Some(first) if slot.fields_len > 0 && first.tag == Tag::Parent => {
                Some(SpanId(first.payload))
            }
            _ => None,
        };
        let lead = parent.is_some() as u16;
        TraceEvent {
            t_ms: slot.t_ms,
            seq: slot.seq,
            kind: slot.kind,
            span: slot.has_span.then_some(SpanId(slot.span)),
            parent,
            fields_start: self.arena.fields_base + (at as u64) + lead as u64,
            fields_len: slot.fields_len - lead,
        }
    }

    /// The arena slots of a buffered event's fields.
    fn slots_of(&self, ev: &TraceEvent) -> impl Iterator<Item = &FieldSlot> {
        let start = (ev.fields_start - self.arena.fields_base) as usize;
        self.arena
            .fields
            .range(start..start + ev.fields_len as usize)
    }

    /// The fields of a buffered event, in insertion order. `ev` must
    /// come from this tracer's [`Tracer::events`].
    pub fn fields_of<'a>(
        &'a self,
        ev: &TraceEvent,
    ) -> impl Iterator<Item = (&'static str, Value)> + 'a {
        self.slots_of(ev)
            .map(|slot| (self.arena.statics.get(slot.key), self.arena.value_of(slot)))
    }

    /// Appends one buffered event to `out` as a JSON object (no
    /// trailing newline) — the one writer behind every trace export.
    /// Keys and interned strings are copied from the fragments their
    /// tables rendered; only an owned string is escaped here.
    fn write_event(&self, out: &mut String, ev: &TraceEvent) {
        let arena = &self.arena;
        out.push_str("{\"t_ms\":");
        json::push_u64(out, ev.t_ms);
        out.push_str(",\"seq\":");
        json::push_u64(out, ev.seq);
        // The kind names are this file's own; none needs an escape
        // (`kind_names_need_no_escape`).
        out.push_str(",\"event\":\"");
        out.push_str(ev.kind.as_str());
        out.push('"');
        if let Some(SpanId(id)) = ev.span {
            out.push_str(",\"span\":");
            json::push_u64(out, id);
        }
        if let Some(SpanId(id)) = ev.parent {
            out.push_str(",\"parent\":");
            json::push_u64(out, id);
        }
        for slot in self.slots_of(ev) {
            out.push_str(arena.statics.key_json(slot.key));
            match slot.tag {
                Tag::Static => out.push_str(arena.statics.value_json(slot.payload as u16)),
                Tag::SharedId => out.push_str(arena.shared.value_json(slot.payload)),
                // `Parent` never gets here: views start past it.
                Tag::U64 | Tag::Parent => json::push_u64(out, slot.payload),
                Tag::Bool => out.push_str(if slot.payload != 0 { "true" } else { "false" }),
                Tag::Hex64 => json::push_hex64(out, slot.payload),
                Tag::V4 => json::push_ipv4(out, Ipv4Addr::from(slot.payload as u32)),
                Tag::I64 | Tag::F64 => json::write_value(out, &arena.value_of(slot)),
                Tag::Spilled => match arena.spill(slot) {
                    Spill::V6(a) => json::write_value(out, &Value::Addr(IpAddr::V6(*a))),
                    Spill::Shared(text) => push_escaped(out, text),
                    Spill::Str(text) => push_escaped(out, text),
                },
            }
        }
        out.push('}');
    }

    /// Renders one buffered event as a JSON line (no trailing newline).
    pub fn event_json(&self, ev: &TraceEvent) -> String {
        let mut out = String::new();
        self.write_event(&mut out, ev);
        out
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut at = 0;
        self.ring.iter().map(move |slot| {
            let ev = self.view(slot, at);
            at += slot.fields_len as usize;
            ev
        })
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Eviction totals split by the kind of the evicted event, sorted
    /// by kind name; only kinds that actually lost events appear.
    pub fn dropped_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut counts: Vec<(&'static str, u64)> = EventKind::INDEXED
            .iter()
            .zip(self.dropped_per_kind.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(kind, &n)| (kind.as_str(), n))
            .collect();
        counts.sort_unstable();
        counts.into_iter()
    }

    /// Total events ever recorded (buffered + dropped); events only
    /// [`Tracer::count`]ed are not among them.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Per-kind event totals (counting dropped and [`Tracer::count`]-only
    /// events too), sorted by kind name — the same deterministic order
    /// the old string-keyed storage produced. Built on demand; this is
    /// an export path.
    pub fn kind_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut counts: Vec<(&'static str, u64)> = EventKind::INDEXED
            .iter()
            .zip(self.per_kind.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(kind, &n)| (kind.as_str(), n))
            .collect();
        counts.sort_unstable();
        counts.into_iter()
    }

    /// Merges per-shard tracers into this one, deterministically.
    ///
    /// Shard events are interleaved by `(t_ms, shard index, shard seq)`
    /// — the merge ordering key of the sharded engine's determinism
    /// contract — then re-sequenced into this tracer's stream. Span ids
    /// allocated independently by each shard are remapped to fresh
    /// global ids in merged-stream order, so the merged trace is
    /// identical no matter how many worker threads produced the shards.
    /// Per-kind totals and drop counts carry over; the ring capacity
    /// still applies to the merged stream.
    pub fn absorb(&mut self, shards: Vec<Tracer>) {
        for shard in &shards {
            for (total, n) in self.per_kind.iter_mut().zip(shard.per_kind.iter()) {
                *total += n;
            }
            self.dropped += shard.dropped;
            for (total, n) in self
                .dropped_per_kind
                .iter_mut()
                .zip(shard.dropped_per_kind.iter())
            {
                *total += n;
            }
        }
        // Shard-local span ids are dense (0..next_span), so the remap
        // table is a flat per-shard Vec instead of a keyed map — one
        // index per event rather than a tree walk.
        let mut span_maps: Vec<Vec<Option<SpanId>>> = shards
            .iter()
            .map(|s| vec![None; s.next_span as usize])
            .collect();
        let mut remap_span = |next_span: &mut u64, shard_idx: usize, old: u64| {
            let mapped = span_maps[shard_idx][old as usize].get_or_insert_with(|| {
                let id = SpanId(*next_span);
                *next_span += 1;
                id
            });
            mapped.0
        };
        // Static-table ids are shard-local too; these tables are dense
        // and as small as the program's literals, so each is translated
        // once up front.
        let static_maps: Vec<Vec<u16>> = shards
            .iter()
            .map(|shard| {
                let strs = shard.arena.statics.strs.iter();
                strs.map(|s| self.arena.statics.intern(s)).collect()
            })
            .collect();
        let total: usize = shards.iter().map(|s| s.ring.len()).sum();
        // (shard, ring slot, physical index of its first arena slot)
        let mut events: Vec<(usize, EventSlot, usize)> = Vec::with_capacity(total);
        for (shard_idx, shard) in shards.iter().enumerate() {
            // Events dropped inside the shard still consumed sequence
            // numbers there; account for them so `total_recorded`
            // remains the true event count after the merge.
            self.next_seq += shard.dropped;
            let mut at = 0;
            for slot in shard.ring.iter() {
                events.push((shard_idx, *slot, at));
                at += slot.fields_len as usize;
            }
        }
        events.sort_by_key(|(shard_idx, slot, _)| (slot.t_ms, *shard_idx, slot.seq));
        for (shard_idx, mut slot, at) in events {
            if slot.has_span {
                slot.span = remap_span(&mut self.next_span, shard_idx, slot.span);
            }
            // An id past the shard's table is its overflow id.
            let map_static = |id: u16| {
                let mapped = static_maps[shard_idx].get(id as usize);
                mapped.copied().unwrap_or(StaticTable::OVERFLOW_ID)
            };
            slot.seq = self.next_seq;
            self.next_seq += 1;
            if self.ring.len() == self.capacity {
                self.evict_oldest();
            }
            // Re-home the event's fields from the shard arena into this
            // tracer's arena.
            let from = &shards[shard_idx].arena;
            let spilled_before = self.arena.spilled();
            for field in from.fields.range(at..at + slot.fields_len as usize) {
                let key = map_static(field.key);
                match field.tag {
                    // Parent links are remapped through the same table
                    // as span ids so the causal tree survives the
                    // merge. A parent always starts at or before its
                    // child, so its id is normally mapped already; the
                    // insert fallback covers a parent whose events were
                    // all evicted from the shard ring.
                    Tag::Parent => {
                        let id = remap_span(&mut self.next_span, shard_idx, field.payload);
                        self.arena.push(0, Tag::Parent, id);
                    }
                    Tag::Static => {
                        let id = map_static(field.payload as u16);
                        self.arena.push(key, Tag::Static, id as u64);
                    }
                    // Ids of the shared table are shard-local as well; the
                    // string is interned again here, by its allocation.
                    Tag::SharedId => self.arena.push_shared(key, from.shared.get(field.payload)),
                    Tag::Spilled => self.arena.push_spill(key, from.spill(field).clone()),
                    tag => self.arena.push(key, tag, field.payload),
                }
            }
            // Recounted: a shared string spills here if this table is
            // full, whatever it did in the shard.
            slot.spills = (self.arena.spilled() - spilled_before) as u16;
            self.ring.push_back(slot);
        }
    }

    /// Renders all buffered events as JSON Lines (one event per line,
    /// trailing newline included when non-empty) into one buffer.
    pub fn to_jsonl(&self) -> String {
        // Sized up front so the buffer is allocated once, not doubled
        // into place: a line's fixed part, a key and a value per field,
        // and the spilled strings' own bytes. 64 and 22 bytes are the
        // largest means over the smoke fig1, fig6, fig10, table10,
        // resilience, shared-cache and cache-report traces (44–63 and
        // 16.6–22.0), rounded up: `repro --probes 800 fig10` reserves
        // 12.9 MB for the 10.9 MB it writes, where growing by doubling
        // holds 16.8 MB for no faster an export. Adding the lengths up
        // exactly is a pass over ring and arena that costs a fifth of
        // what the export itself does.
        let spilled: usize = self.arena.spills.iter().map(Spill::rendered_len).sum();
        let mut out =
            String::with_capacity(self.ring.len() * 64 + self.arena.fields.len() * 22 + spilled);
        for ev in self.events() {
            self.write_event(&mut out, &ev);
            out.push('\n');
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record(i, EventKind::Timeout, None, |_| {});
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.total_recorded(), 5);
        let first = t.events().next().unwrap();
        assert_eq!(first.t_ms, 2); // oldest two evicted
        assert_eq!(t.kind_counts().next(), Some(("timeout", 5)));
    }

    #[test]
    fn counted_events_join_the_totals_and_nothing_else() {
        let mut shard = Tracer::with_capacity(2);
        shard.record(0, EventKind::Timeout, None, |_| {});
        for _ in 0..3 {
            shard.count(EventKind::CacheServe);
        }
        shard.count(EventKind::CacheExpiredDrop);
        shard.record(1, EventKind::Timeout, None, |_| {});
        // No ring slot, no sequence number, no drop.
        assert_eq!(
            (shard.len(), shard.total_recorded(), shard.dropped()),
            (2, 2, 0)
        );
        let seqs: Vec<u64> = shard.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
        // The sharded sum carries them like any other total.
        let mut merged = Tracer::with_capacity(8);
        merged.absorb(vec![shard]);
        assert_eq!(
            merged.kind_counts().collect::<Vec<_>>(),
            vec![
                ("cache_expired_drop", 1),
                ("cache_serve", 3),
                ("timeout", 2)
            ]
        );
        assert_eq!(merged.total_recorded(), 2);
    }

    #[test]
    fn span_ids_are_sequential() {
        let mut t = Tracer::with_capacity(8);
        assert_eq!(t.new_span(), SpanId(0));
        assert_eq!(t.new_span(), SpanId(1));
    }

    #[test]
    fn absorb_merges_by_time_then_shard_and_remaps_spans() {
        let mut shard0 = Tracer::with_capacity(8);
        let s0 = shard0.new_span();
        shard0.record(10, EventKind::SpanStart, Some(s0), |_| {});
        shard0.record(30, EventKind::SpanEnd, Some(s0), |_| {});
        let mut shard1 = Tracer::with_capacity(8);
        let s1 = shard1.new_span();
        shard1.record(10, EventKind::SpanStart, Some(s1), |_| {});
        shard1.record(20, EventKind::Referral, Some(s1), |_| {});

        let mut merged = Tracer::with_capacity(16);
        merged.absorb(vec![shard0, shard1]);
        let events: Vec<(u64, u64, Option<SpanId>)> =
            merged.events().map(|e| (e.t_ms, e.seq, e.span)).collect();
        // Interleaved by (t_ms, shard, seq); seq reassigned contiguously;
        // the two shard-local span 0s became distinct global ids.
        assert_eq!(
            events,
            vec![
                (10, 0, Some(SpanId(0))), // shard 0 span
                (10, 1, Some(SpanId(1))), // shard 1 span
                (20, 2, Some(SpanId(1))),
                (30, 3, Some(SpanId(0))),
            ]
        );
        assert_eq!(merged.total_recorded(), 4);
        assert_eq!(
            merged.kind_counts().collect::<Vec<_>>(),
            vec![("referral", 1), ("span_end", 1), ("span_start", 2)]
        );
    }

    #[test]
    fn absorb_is_worker_order_independent_and_carries_drops() {
        let make_shard = |base: u64| {
            let mut t = Tracer::with_capacity(2);
            for i in 0..4u64 {
                t.record(base + i, EventKind::Timeout, None, |_| {});
            }
            t // 2 buffered, 2 dropped
        };
        let mut a = Tracer::with_capacity(16);
        a.absorb(vec![make_shard(100), make_shard(200)]);
        let mut b = Tracer::with_capacity(16);
        b.absorb(vec![make_shard(100), make_shard(200)]);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.dropped(), 4);
        assert_eq!(a.total_recorded(), 8);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn drops_are_counted_per_kind() {
        let mut t = Tracer::with_capacity(2);
        t.record(0, EventKind::Referral, None, |_| {});
        t.record(1, EventKind::Timeout, None, |_| {});
        t.record(2, EventKind::Timeout, None, |_| {});
        t.record(3, EventKind::Timeout, None, |_| {});
        // Evicted: the referral at t=0, then the timeout at t=1.
        assert_eq!(t.dropped(), 2);
        assert_eq!(
            t.dropped_counts().collect::<Vec<_>>(),
            vec![("referral", 1), ("timeout", 1)]
        );
        // Absorb carries the split totals over.
        let mut merged = Tracer::with_capacity(8);
        merged.absorb(vec![t]);
        assert_eq!(
            merged.dropped_counts().collect::<Vec<_>>(),
            vec![("referral", 1), ("timeout", 1)]
        );
    }

    #[test]
    fn parent_links_survive_merge_remap() {
        let mut shard = Tracer::with_capacity(8);
        let root = shard.new_span();
        let child = shard.new_span();
        shard.record(10, EventKind::SpanStart, Some(root), |_| {});
        shard.record_caused(12, EventKind::SpanStart, Some(child), Some(root), |_| {});
        shard.record(14, EventKind::SpanEnd, Some(child), |_| {});
        shard.record(20, EventKind::SpanEnd, Some(root), |_| {});

        let mut merged = Tracer::with_capacity(16);
        merged.absorb(vec![shard]);
        let evs: Vec<(Option<SpanId>, Option<SpanId>)> =
            merged.events().map(|e| (e.span, e.parent)).collect();
        assert_eq!(
            evs,
            vec![
                (Some(SpanId(0)), None),
                (Some(SpanId(1)), Some(SpanId(0))),
                (Some(SpanId(1)), None),
                (Some(SpanId(0)), None),
            ]
        );
        let child_start = merged.events().nth(1).unwrap();
        assert!(merged.event_json(&child_start).contains("\"parent\":0"));
    }

    #[test]
    fn slots_keep_their_packed_size() {
        assert_eq!(std::mem::size_of::<FieldSlot>(), 16);
        assert!(std::mem::size_of::<EventSlot>() <= 32);
    }

    /// Runs `f` and says whether it panicked — the debug half of the
    /// two narrowing tests below.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn a_field_past_the_slot_count_fails_loudly_or_is_refused() {
        let mut t = Tracer::with_capacity(4);
        let fill = |t: &mut Tracer, n: u64| {
            t.record(0, EventKind::Timeout, None, |f| {
                (0..n).for_each(|i| f.push("i", i))
            })
        };
        fill(&mut t, u16::MAX as u64); // exactly full is fine
        assert_eq!(t.fields_of(&t.events().next().unwrap()).count(), 65_535);
        if cfg!(debug_assertions) {
            assert!(panics(|| fill(&mut t, u16::MAX as u64 + 1)));
        } else {
            fill(&mut t, u16::MAX as u64 + 3);
            t.record(1, EventKind::Timeout, None, |f| f.push("after", true));
            let evs: Vec<TraceEvent> = t.events().collect();
            // The over-full event kept its first 65 535 fields, and the
            // event after it still finds its own.
            assert_eq!(t.fields_of(&evs[1]).last(), Some(("i", Value::U64(65_534))));
            assert!(t.event_json(&evs[2]).ends_with(",\"after\":true}"));
        }
    }

    #[test]
    fn a_string_past_the_static_table_fails_loudly_or_saturates() {
        // 65 536 one-byte substrings of one leaked buffer: equal
        // content, distinct addresses, so distinct table entries.
        let pool: &'static str = Box::leak("k".repeat(StaticTable::MAX_LEN + 1).into_boxed_str());
        let mut t = Tracer::with_capacity(4);
        t.record(0, EventKind::Timeout, None, |f| {
            for i in 0..3 {
                f.push(&pool[i..i + 1], Value::Static(&pool[i..i + 1]));
            }
        });
        // Each string is interned once, whichever role it plays.
        assert_eq!(t.arena.statics.strs.len(), 3);
        for i in 3..StaticTable::MAX_LEN {
            assert_eq!(t.arena.statics.intern(&pool[i..i + 1]), i as u16);
        }
        let last = &pool[StaticTable::MAX_LEN..];
        if cfg!(debug_assertions) {
            assert!(panics(|| {
                t.arena.statics.intern(last);
            }));
        } else {
            t.record(1, EventKind::Timeout, None, |f| {
                f.push(last, Value::Static(last))
            });
            assert_eq!(
                t.to_jsonl().lines().nth(1).unwrap(),
                r#"{"t_ms":1,"seq":1,"event":"timeout","<static-table-full>":"<static-table-full>"}"#
            );
            // A string that did fit is still itself.
            assert_eq!(t.arena.statics.intern(&pool[7..8]), 7);
        }
    }

    #[test]
    fn statics_that_share_a_memo_slot_keep_their_own_text() {
        // More distinct literals than the memo has slots: many share
        // one, so a lookup often misses and goes to the table behind.
        let strs: Vec<&'static str> = (0..3_000)
            .map(|i| &*Box::leak(format!("s{i}").into_boxed_str()))
            .collect();
        let mut t = Tracer::with_capacity(2 * strs.len());
        let record = |t: &mut Tracer, order: &mut dyn Iterator<Item = usize>| {
            for i in order {
                t.record(i as u64, EventKind::Timeout, None, |f| {
                    f.push(strs[i], Value::Static(strs[(i + 1) % strs.len()]))
                });
            }
        };
        record(&mut t, &mut (0..strs.len()));
        record(&mut t, &mut (0..strs.len()).rev().step_by(7));
        assert_eq!(t.arena.statics.strs.len(), strs.len());
        for (ev, line) in t.events().zip(t.to_jsonl().lines()) {
            let i = ev.t_ms as usize;
            let field = format!(",\"s{i}\":\"s{}\"}}", (i + 1) % strs.len());
            assert!(line.ends_with(&field), "{line}");
        }
    }

    #[test]
    fn a_shared_string_dropped_by_its_callers_exports_as_itself() {
        let mut t = Tracer::with_capacity(4_096);
        let gone: Arc<str> = Arc::from("gone.example.");
        t.record(0, EventKind::CacheServe, None, |f| {
            f.push_shared("qname", &gone)
        });
        drop(gone);
        // The table's reference pins the address: a fresh string of the
        // same length cannot be handed it and mistaken for it.
        for i in 1..2_000u64 {
            let fresh: Arc<str> = Arc::from(format!("{:04}.example.", i % 10_000).as_str());
            t.record(i, EventKind::CacheServe, None, |f| {
                f.push_shared("qname", &fresh)
            });
        }
        let jsonl = t.to_jsonl();
        let mut lines = jsonl.lines();
        assert!(lines
            .next()
            .unwrap()
            .ends_with(",\"qname\":\"gone.example.\"}"));
        for (i, line) in (1..).zip(lines) {
            assert!(
                line.ends_with(&format!(",\"qname\":\"{i:04}.example.\"}}")),
                "{line}"
            );
        }
    }

    #[test]
    fn indexed_lists_every_kind_at_its_index() {
        for (i, kind) in EventKind::INDEXED.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn kind_names_need_no_escape() {
        // `write_event` copies them between two quotes as they are.
        for kind in EventKind::INDEXED {
            let mut escaped = String::new();
            json::escape_into(&mut escaped, kind.as_str());
            assert_eq!(escaped, kind.as_str());
        }
    }

    #[test]
    fn jsonl_lines_are_valid_and_ordered() {
        let mut t = Tracer::with_capacity(8);
        let span = t.new_span();
        t.record(10, EventKind::SpanStart, Some(span), |f| {
            f.push("qname", "example.")
        });
        t.record(15, EventKind::Referral, Some(span), |_| {});
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t_ms":10,"seq":0,"event":"span_start","span":0,"qname":"example."}"#
        );
        assert!(lines[1].contains("\"event\":\"referral\""));
    }
}
