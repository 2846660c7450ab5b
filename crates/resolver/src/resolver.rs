//! The iterative resolution engine.
//!
//! [`RecursiveResolver::resolve`] answers one client question the way a
//! production recursive does: consult the cache (with the centricity
//! rules deciding which ranks of cached data may answer a client),
//! otherwise walk the delegation tree from the deepest cached zone cut,
//! chasing referrals and CNAMEs, resolving out-of-bailiwick server
//! addresses with sub-queries, retrying and failing over between
//! servers, and accounting the RTT of every exchange.

use crate::cache::{Cache, Credibility};
use crate::ledger::{BailiwickClass, StoreContext};
use dnsttl_core::{Centricity, ResolverPolicy};
use dnsttl_netsim::{ExchangeOutcome, Network, Region, SimDuration, SimRng, SimTime, Transport};
use dnsttl_telemetry::{EventKind, MetricKey, SpanId, Telemetry, Value};
use dnsttl_wire::{Header, Members, Message, Name, Question, RData, RRset, Rcode, RecordType, Ttl};
use std::collections::HashMap;
use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

/// Maximum referral-chasing iterations per query.
const MAX_ITERATIONS: usize = 16;
/// Maximum recursion depth for server-address sub-resolutions and
/// CNAME chains.
const MAX_DEPTH: usize = 6;
/// How many times a query to an unresponsive server is retried before
/// trying the next server / giving up.
const RETRIES: u8 = 2;

/// A root hint: the name and address of a root server, compiled into
/// every resolver (never expires).
#[derive(Debug, Clone)]
pub struct RootHint {
    /// Root server host name (e.g. `k.root-servers.net`).
    pub ns_name: Name,
    /// Its address on the simulated network.
    pub addr: IpAddr,
}

/// Counters a resolver keeps about its own behaviour.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client questions received.
    pub client_queries: u64,
    /// Questions answered entirely from cache.
    pub cache_hits: u64,
    /// Queries sent to authoritative servers.
    pub upstream_queries: u64,
    /// Exchanges that timed out.
    pub timeouts: u64,
    /// Questions that ended in SERVFAIL.
    pub servfails: u64,
    /// Questions answered from stale cache entries.
    pub stale_answers: u64,
    /// RRsets that passed DNSSEC validation.
    pub validations: u64,
    /// Responses rejected as bogus (signature present but invalid).
    pub validation_failures: u64,
    /// Truncated UDP responses retried over TCP.
    pub tcp_fallbacks: u64,
    /// Candidate servers skipped because they were in exponential
    /// backoff after repeated failures.
    pub backoff_skips: u64,
    /// Upstream failures cached per RFC 2308 §7 (and answered from the
    /// failure cache without re-probing dead servers).
    pub failure_caches: u64,
}

/// What one client question cost and produced.
#[derive(Debug, Clone)]
pub struct ResolutionOutcome {
    /// The response message handed to the client (RA set; TTLs are the
    /// decremented cache views, which is exactly what the paper's Atlas
    /// vantage points record).
    pub answer: Message,
    /// Resolver-side time spent: the sum of all upstream exchange RTTs
    /// and timeouts. Zero-ish for cache hits.
    pub elapsed: SimDuration,
    /// True when no upstream query was needed.
    pub cache_hit: bool,
    /// True when the answer came from an expired entry (serve-stale).
    pub served_stale: bool,
    /// Upstream queries sent for this question.
    pub upstream_queries: u32,
}

/// A [`ResolutionOutcome`] without the answer message: what
/// [`RecursiveResolver::resolve_verdict`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolutionVerdict {
    /// The answer's response code.
    pub rcode: Rcode,
    /// How many records the answer section's sets hold.
    pub answers: usize,
    /// Resolver-side time spent.
    pub elapsed: SimDuration,
    /// True when no upstream query was needed.
    pub cache_hit: bool,
    /// True when the answer came from an expired entry (serve-stale).
    pub served_stale: bool,
    /// Upstream queries sent for this question.
    pub upstream_queries: u32,
}

/// Where one resolution writes its answer. Every path that answers
/// (cache, fresh response, CNAME chain, serve-stale) appends a set here.
struct Answer<'m> {
    kept: Kept<'m>,
    /// Records appended so far: the sets' members.
    len: usize,
}

/// What an [`Answer`] keeps of the sets appended to it.
enum Kept<'m> {
    /// The sets, in a buffer the caller lends and reads afterwards.
    Sets(&'m mut Vec<RRset>),
    /// Only their records' TTLs, for the answer-TTL sketch of a caller
    /// that reads no record while telemetry is on.
    Ttls(AnswerTtls),
    /// Only their record count.
    Count,
}

/// How much an [`Answer`] held at one point, to go back to.
#[derive(Clone, Copy, Default)]
struct Mark {
    sets: usize,
    records: usize,
}

impl<'m> Answer<'m> {
    /// An answer whose sets land in `buf`, emptied first.
    fn sets(buf: &'m mut Vec<RRset>) -> Answer<'m> {
        buf.clear();
        Answer {
            kept: Kept::Sets(buf),
            len: 0,
        }
    }

    /// An answer that builds no record: it counts them and, when
    /// `ttls` is set, keeps their TTLs.
    fn counted(ttls: bool) -> Answer<'m> {
        let kept = if ttls {
            Kept::Ttls(AnswerTtls::new(Ttl::ZERO))
        } else {
            Kept::Count
        };
        Answer { kept, len: 0 }
    }

    /// Appends the set `rtype` at `owner` with `ttl`, sharing `members`.
    fn push(&mut self, owner: &Name, rtype: RecordType, ttl: Ttl, members: &Members) {
        self.len += members.len();
        match &mut self.kept {
            Kept::Sets(sets) => sets.push(RRset::new(owner.clone(), rtype, ttl, members.clone())),
            Kept::Ttls(ttls) => members.iter().for_each(|_| ttls.push(ttl)),
            Kept::Count => {}
        }
    }

    /// What the answer holds now.
    fn mark(&self) -> Mark {
        let sets = match &self.kept {
            Kept::Sets(sets) => sets.len(),
            Kept::Ttls(_) | Kept::Count => 0,
        };
        Mark {
            sets,
            records: self.len,
        }
    }

    /// Drops every set appended since `mark` was taken.
    fn truncate(&mut self, mark: Mark) {
        self.len = self.len.min(mark.records);
        match &mut self.kept {
            Kept::Sets(sets) => sets.truncate(mark.sets),
            Kept::Ttls(ttls) => ttls.truncate(mark.records),
            Kept::Count => {}
        }
    }

    /// The kept records' TTLs, in order.
    fn ttls(&self) -> impl Iterator<Item = Ttl> + '_ {
        let (sets, ttls): (&[RRset], &[Ttl]) = match &self.kept {
            Kept::Sets(sets) => (sets, &[]),
            Kept::Ttls(ttls) => (&[], ttls),
            Kept::Count => (&[], &[]),
        };
        let set_ttls = sets
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.ttl, s.len()));
        set_ttls.chain(ttls.iter().copied())
    }
}

/// Per-server exponential-backoff state (the "dead server" memory of
/// BIND/Unbound): after a server times out on every retry, it is
/// skipped for a growing interval instead of being re-probed by every
/// client question.
#[derive(Debug, Clone, Copy)]
struct BackoffState {
    /// Consecutive all-retries-failed episodes.
    failures: u32,
    /// Do not contact the server again before this instant.
    until: SimTime,
}

/// Values in the order they were pushed: inline up to `N`, on the heap
/// past it, so a short list asks the allocator for nothing and no long
/// one is cut short.
struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// Every value once there are more than `N`; empty until then.
    spilled: Vec<T>,
}

/// A zone's server addresses, in the order they are tried: a miss asks
/// the allocator for none of them. Inline up to the root's thirteen; no
/// NS set a world builds has more.
type Candidates = InlineVec<IpAddr, 13>;

/// An answer's TTLs, kept for the answer-TTL sketch by a resolution
/// that builds no record.
type AnswerTtls = InlineVec<Ttl, 16>;

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// How many values are held without a heap block.
    #[cfg(test)]
    const INLINE: usize = N;

    /// An empty list; `blank` fills the unused inline slots.
    fn new(blank: T) -> InlineVec<T, N> {
        InlineVec {
            len: 0,
            inline: [blank; N],
            spilled: Vec::new(),
        }
    }

    fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            if self.spilled.is_empty() {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(value);
        }
        self.len += 1;
    }

    /// `Vec::insert(0, value)`: the others move back one place.
    fn push_front(&mut self, value: T) {
        self.push(value);
        self.rotate_right(1);
    }

    /// Drops every value after the first `len`.
    fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if self.len > N {
            self.spilled.truncate(len);
            if len <= N {
                self.inline[..len].copy_from_slice(&self.spilled);
                self.spilled.clear();
            }
        }
        self.len = len;
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled
        }
    }
}

impl FromIterator<IpAddr> for Candidates {
    fn from_iter<I: IntoIterator<Item = IpAddr>>(addrs: I) -> Candidates {
        let mut candidates = Candidates::new(IpAddr::from([0, 0, 0, 0]));
        addrs.into_iter().for_each(|addr| candidates.push(addr));
        candidates
    }
}

/// Per-question bookkeeping threaded through recursion.
struct Ctx {
    elapsed: SimDuration,
    upstream: u32,
    /// Names currently being resolved, to break sub-resolution cycles:
    /// a stack of at most `MAX_DEPTH` entries, pushed only by the
    /// out-of-bailiwick NS chase, so its height is the depth of the
    /// sub-resolution under way.
    in_flight: Vec<(Name, RecordType)>,
    /// The telemetry span covering this client question.
    span: SpanId,
}

/// Result of the internal resolution routine.
enum Resolved {
    /// The [`Answer`] holds the records answering the question (CNAME
    /// chain included); `stale` says whether they came from stale cache.
    Answer { stale: bool },
    /// A cached or fresh negative result.
    Negative(Rcode),
    /// Resolution failed (lame delegations, timeouts, depth exhausted).
    Fail,
}

/// Labels for a population of resolvers, formatted through one reused
/// buffer, so a label costs one block: its shared copy.
#[derive(Debug, Default)]
pub struct Labels(String);

impl Labels {
    /// `args` formatted, as a resolver label.
    pub fn format(&mut self, args: fmt::Arguments<'_>) -> Arc<str> {
        self.0.clear();
        fmt::Write::write_fmt(&mut self.0, args).expect("a String takes any text");
        Arc::from(self.0.as_str())
    }
}

/// A recursive resolver with one cache and one policy.
///
/// A population builds hundreds of thousands of these (`passive_nl`
/// 205 k), so what an idle one holds is kept to its label: the root
/// hints and the policy are shared with every resolver built from the
/// same values, and the sticky and backoff tables take no block until
/// a policy that uses them writes one.
pub struct RecursiveResolver {
    /// Diagnostic label, e.g. `"resolver-193"`. Shared so per-query
    /// trace events attach it without allocating.
    pub label: Arc<str>,
    policy: Arc<ResolverPolicy>,
    region: Region,
    tag: u64,
    cache: Cache,
    roots: Arc<[RootHint]>,
    rng: SimRng,
    /// Sticky and backoff state; `None` until the first write.
    memory: Option<Box<ServerMemory>>,
    stats: ResolverStats,
    telemetry: Telemetry,
    next_id: u16,
}

/// What a resolver remembers about the servers it talked to. Both
/// tables are lookup-only: never iterated, so `HashMap` order cannot
/// leak into resolution output.
#[derive(Default)]
struct ServerMemory {
    /// Zone apex → server address that answered for it last
    /// (sticky-resolver state, §4.4).
    sticky_server: HashMap<Name, IpAddr>,
    /// Server address → backoff state (only populated when the policy
    /// enables `server_backoff`).
    backoff: HashMap<IpAddr, BackoffState>,
}

impl RecursiveResolver {
    /// Creates a resolver.
    ///
    /// * `label` names it in traces and ledgers;
    /// * `policy` and `roots` (the compiled-in root hints) are shared:
    ///   a population passes one `Arc` of each to every resolver
    ///   built from the same values, and a `ResolverPolicy` or a
    ///   `Vec<RootHint>` is wrapped for this resolver alone;
    /// * `tag` identifies this resolver as a traffic source (its
    ///   simulated source address);
    /// * `rng` drives server selection rotation.
    pub fn new(
        label: impl Into<Arc<str>>,
        policy: impl Into<Arc<ResolverPolicy>>,
        region: Region,
        tag: u64,
        roots: impl Into<Arc<[RootHint]>>,
        rng: SimRng,
    ) -> RecursiveResolver {
        RecursiveResolver {
            label: label.into(),
            policy: policy.into(),
            region,
            tag,
            cache: Cache::new(),
            roots: roots.into(),
            rng,
            memory: None,
            stats: ResolverStats::default(),
            telemetry: Telemetry::disabled(),
            next_id: 1,
        }
    }

    /// Attaches a telemetry handle; events and metrics from this
    /// resolver — and its cache's per-kind transaction counts — land in
    /// it. The default handle is disabled (no-op).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.cache.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The policy this resolver runs.
    pub fn policy(&self) -> &ResolverPolicy {
        &self.policy
    }

    /// Read access to the cache (tests and analyses).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Turns on the cache's provenance ledger (see
    /// [`crate::Cache::enable_ledger`]).
    pub fn enable_cache_ledger(&mut self) {
        self.cache.enable_ledger();
    }

    /// Drops all cached state (between experiment phases).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        if let Some(memory) = &mut self.memory {
            memory.sticky_server.clear();
        }
    }

    /// Applies a scheduled cache-flush fault
    /// ([`FaultKind::Flush`](dnsttl_netsim::FaultKind::Flush)): wipes
    /// positive, negative, sticky and backoff state the way an operator
    /// `rndc flush` or a resolver restart would, and journals the event.
    pub fn apply_flush(&mut self, now: SimTime) {
        let label = &self.label;
        self.telemetry
            .event(now.as_millis(), EventKind::Fault, |f| {
                f.push("fault", Value::literal("flush"));
                f.push_shared("resolver", label);
            });
        self.telemetry
            .count_keyed_at(&metrics::FAULT_FLUSHES, 1, now.as_millis());
        self.cache.clear();
        self.memory = None;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &ResolverStats {
        &self.stats
    }

    fn next_msg_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Answers one client question.
    pub fn resolve(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
    ) -> ResolutionOutcome {
        let mut answer = Message::default();
        let verdict = self.resolve_into(qname, qtype, now, net, &mut answer);
        ResolutionOutcome {
            answer,
            elapsed: verdict.elapsed,
            cache_hit: verdict.cache_hit,
            served_stale: verdict.served_stale,
            upstream_queries: verdict.upstream_queries,
        }
    }

    /// Answers one client question as [`resolve`](Self::resolve) does,
    /// writing the client message over `answer`, whatever it held. The
    /// answer section keeps its capacity, so a caller that reuses one
    /// message takes a warm hit without allocating.
    pub fn resolve_into(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
        answer: &mut Message,
    ) -> ResolutionVerdict {
        // Destructured, so a new field cannot be left stale.
        let Message {
            header,
            question,
            answers,
            authorities,
            additionals,
        } = answer;
        authorities.clear();
        additionals.clear();
        let (id, verdict) =
            self.answer_question(qname, qtype, now, net, &mut Answer::sets(answers));
        *header = Header {
            id,
            response: true,
            recursion_desired: true,
            recursion_available: true,
            rcode: verdict.rcode,
            ..Header::default()
        };
        *question = Some(Question::new(qname.clone(), qtype));
        verdict
    }

    /// Answers one client question as [`resolve`](Self::resolve) does,
    /// for a caller that reads only how it ended: no record is built.
    /// With telemetry on, the answer's TTLs are kept inline for the
    /// answer-TTL sketch.
    pub fn resolve_verdict(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
    ) -> ResolutionVerdict {
        let mut counted = Answer::counted(self.telemetry.is_enabled());
        self.answer_question(qname, qtype, now, net, &mut counted).1
    }

    /// The routine behind every entry point; returns the message id it took.
    fn answer_question(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
        answer: &mut Answer,
    ) -> (u16, ResolutionVerdict) {
        bump(
            &mut self.stats.client_queries,
            &self.telemetry,
            &metrics::CLIENT_QUERIES,
            now.as_millis(),
        );
        let span = {
            // Pushed by reference: the trace interns the label once and
            // no query touches its reference count.
            let label = &self.label;
            self.telemetry.span_start(now.as_millis(), |_, f| {
                f.push_shared("resolver", label);
                f.push_shared("qname", qname.shared());
                f.push("qtype", Value::literal(qtype.as_str()));
            })
        };
        // Expiry probe: the entry was cached and the TTL ran out — this
        // question is a *refetch*, the event Figure 6 bins by age.
        if self.telemetry.is_enabled() {
            if let Some(expired_for) = self.cache.expired_since(qname, qtype, now) {
                self.telemetry
                    .span_event(span, now.as_millis(), EventKind::CacheExpiry, |f| {
                        f.push_shared("qname", qname.shared());
                        f.push("qtype", Value::literal(qtype.as_str()));
                        f.push("expired_for_ms", expired_for.as_millis());
                    });
                self.telemetry
                    .count_keyed_at(&metrics::CACHE_EXPIRIES, 1, now.as_millis());
            }
        }
        let mut ctx = Ctx {
            elapsed: SimDuration::ZERO,
            upstream: 0,
            in_flight: Vec::new(),
            span,
        };
        let resolved = self.resolve_inner(qname, qtype, now, net, &mut ctx, answer);

        // RFC 2308 §7 / RFC 8767 §5: a resolution that ended in failure
        // or had to fall back to stale data means the authoritatives
        // are unreachable — cache that fact so follow-up queries inside
        // the recheck window answer immediately (stale or SERVFAIL)
        // instead of re-probing dead servers.
        if let Some(failure_ttl) = self.policy.upstream_failure_ttl {
            let upstream_dead = matches!(
                &resolved,
                Resolved::Fail | Resolved::Answer { stale: true, .. }
            );
            // `ctx.elapsed > 0` ⇔ servers were actually probed this
            // question (timeouts count toward elapsed but not toward
            // `ctx.upstream`); answers straight from the failure cache
            // must not refresh the failure TTL forever.
            if upstream_dead && ctx.elapsed > SimDuration::ZERO {
                self.cache
                    .store_failure(qname.clone(), qtype, failure_ttl, now);
                bump(
                    &mut self.stats.failure_caches,
                    &self.telemetry,
                    &metrics::FAILURE_CACHES,
                    now.as_millis(),
                );
            }
        }

        // Taken whether or not a message is built, so ids never shift.
        let id = self.next_msg_id();
        let mut served_stale = false;
        let rcode = match resolved {
            Resolved::Answer { stale } => {
                served_stale = stale;
                if stale {
                    bump(
                        &mut self.stats.stale_answers,
                        &self.telemetry,
                        &metrics::STALE_ANSWERS,
                        now.as_millis(),
                    );
                    self.telemetry
                        .span_event(span, now.as_millis(), EventKind::CacheStale, |f| {
                            f.push_shared("qname", qname.shared());
                        });
                }
                Rcode::NoError
            }
            // No record answers a negative or failed question, not even a chain.
            Resolved::Negative(rcode) => {
                answer.truncate(Mark::default());
                rcode
            }
            Resolved::Fail => {
                answer.truncate(Mark::default());
                bump(
                    &mut self.stats.servfails,
                    &self.telemetry,
                    &metrics::SERVFAILS,
                    now.as_millis(),
                );
                self.telemetry
                    .span_event(span, now.as_millis(), EventKind::ServFail, |f| {
                        f.push_shared("qname", qname.shared());
                    });
                Rcode::ServFail
            }
        };
        let cache_hit = ctx.upstream == 0 && rcode != Rcode::ServFail;
        if cache_hit {
            bump(
                &mut self.stats.cache_hits,
                &self.telemetry,
                &metrics::CACHE_HITS,
                now.as_millis(),
            );
        }
        if self.telemetry.is_enabled() {
            // The hit/miss verdict travels as the `cache_hit` field on
            // span_end (below) rather than as a separate span event —
            // one arena record fewer on the warm hot path.
            // One latency observation per client query, bucketed at
            // query start time, so the timeline shows the latency
            // distribution of the queries *issued* in a window.
            self.telemetry.sketch_keyed_at(
                &metrics::LATENCY_SKETCH_MS,
                ctx.elapsed.as_millis(),
                now.as_millis(),
            );
            for ttl in answer.ttls() {
                // Registry only: answer TTLs have no sim-time series.
                self.telemetry
                    .sketch_keyed(&metrics::ANSWER_TTL_S, ttl.as_secs() as u64);
            }
            if !cache_hit {
                // The hit counter has a registry-and-series twin; a
                // misses series makes the timeline hit-rate curve a
                // pure per-bucket ratio without needing totals.
                self.telemetry
                    .count_keyed_at(&metrics::CACHE_MISSES, 1, now.as_millis());
                // A warm hit cannot change the entry count (inserts
                // only happen on the upstream path), so the gauge only
                // needs refreshing on misses.
                self.telemetry.gauge_keyed_at(
                    &metrics::CACHE_ENTRIES,
                    self.cache.len() as f64,
                    now.as_millis(),
                );
            }
        }
        self.telemetry
            .span_end(span, (now + ctx.elapsed).as_millis(), |f| {
                f.push("rcode", Value::literal(rcode.as_str()));
                f.push("cache_hit", cache_hit);
                f.push("stale", served_stale);
                f.push("upstream_queries", ctx.upstream as u64);
                f.push("elapsed_ms", ctx.elapsed.as_millis());
            });
        let verdict = ResolutionVerdict {
            rcode,
            answers: answer.len,
            elapsed: ctx.elapsed,
            cache_hit,
            served_stale,
            upstream_queries: ctx.upstream,
        };
        (id, verdict)
    }

    // -----------------------------------------------------------------
    // Internal resolution
    // -----------------------------------------------------------------

    /// Resolves `qname` into `answer`, which arrives empty: the CNAME
    /// chain followed so far, then the records that end it.
    fn resolve_inner(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
        ctx: &mut Ctx,
        answer: &mut Answer,
    ) -> Resolved {
        if ctx.in_flight.len() > MAX_DEPTH {
            return Resolved::Fail;
        }
        if let Some(rcode) = self.cache.get_negative(qname, qtype, now) {
            if rcode == Rcode::ServFail {
                // A cached upstream failure (RFC 2308 §7): answer
                // without touching the dead servers — stale data if
                // serve-stale allows, SERVFAIL otherwise.
                return self.fail_or_stale(qname, qtype, now, answer);
            }
            return Resolved::Negative(rcode);
        }

        let mut current = qname.clone();
        for _ in 0..MAX_ITERATIONS {
            // The cache may hold the answer — from an earlier question,
            // or since the previous referral (parent-centric resolvers
            // answer NS questions straight from referral data).
            if self.answer_from_cache(&current, qtype, now, answer) {
                return Resolved::Answer { stale: false };
            }

            let Some((zone, candidates)) = self.server_candidates(&current, now, net, ctx) else {
                return self.fail_or_stale(qname, qtype, now, answer);
            };

            let Some((response, from_root, server)) =
                self.query_candidates(&zone, &candidates, &current, qtype, now, net, ctx)
            else {
                return self.fail_or_stale(qname, qtype, now, answer);
            };

            // What the response decides, then the one point that hands
            // it back to the network: `None` goes round the loop again.
            let settled = 'settled: {
                // Cache everything the response taught us, with ranks by
                // section and AA status, and provenance from this exchange.
                self.ingest(&response, now, from_root, &zone, server);

                // The cut a referral delegates to, found once: the event
                // below and the lame-delegation check both read it.
                let referral_cut = referral_cut(&response);
                if let Some(cut) = referral_cut {
                    self.telemetry.span_event(
                        ctx.span,
                        now.as_millis(),
                        EventKind::Referral,
                        |f| {
                            f.push_shared("zone", zone.shared());
                            f.push_shared("cut", cut.shared());
                        },
                    );
                }

                if response.header.rcode == Rcode::NxDomain {
                    self.cache_negative_from(&response, &current, qtype, now);
                    break 'settled Some(Resolved::Negative(Rcode::NxDomain));
                }

                if response.header.authoritative && !response.answers.is_empty() {
                    // CNAME? chase within the loop.
                    let direct = response
                        .answers
                        .iter()
                        .find(|s| s.name == current && s.rtype == qtype);
                    if let Some(direct) = direct {
                        if self.policy.validate_dnssec
                            && !self.validate_answer(&current, qtype, direct, &response, now)
                        {
                            self.telemetry.span_event(
                                ctx.span,
                                now.as_millis(),
                                EventKind::ValidationFailure,
                                |f| f.push_shared("qname", current.shared()),
                            );
                            break 'settled Some(Resolved::Fail); // bogus data ⇒ SERVFAIL
                        }
                        // Prefer the cache view (clamped, coherent TTLs);
                        // fall back to the response's set for uncacheable TTL-0.
                        if !self.answer_from_cache(&current, qtype, now, answer) {
                            let ttl = self.policy.clamp_ttl(direct.ttl);
                            answer.push(&direct.name, qtype, ttl, &direct.rdatas);
                        }
                        break 'settled Some(Resolved::Answer { stale: false });
                    }
                    if qtype != RecordType::CNAME {
                        let cname = response
                            .answers
                            .iter()
                            .find(|s| s.name == current && s.rtype == RecordType::CNAME);
                        if let Some((cname, first)) =
                            cname.and_then(|s| Some((s, s.rdatas.first()?)))
                        {
                            let ttl = self.policy.clamp_ttl(cname.ttl);
                            // The first alias only, as one set.
                            let alias = Members::from(first.clone());
                            answer.push(&cname.name, RecordType::CNAME, ttl, &alias);
                            if answer.len > MAX_DEPTH {
                                break 'settled Some(Resolved::Fail);
                            }
                            if let RData::Cname(target) = first {
                                current = target.clone();
                                break 'settled None;
                            }
                        }
                    }
                    // Authoritative answer that does not answer the
                    // question (misconfigured server): give up.
                    break 'settled Some(Resolved::Fail);
                }

                if let Some(cut) = referral_cut {
                    // Lame referral: the cut must be deeper than the zone
                    // we asked, or we would loop forever.
                    if !cut.is_strict_subdomain_of(&zone) && *cut != current {
                        break 'settled Some(Resolved::Fail);
                    }
                    break 'settled None;
                }

                if response.header.authoritative && response.answers.is_empty() {
                    // NODATA.
                    self.cache_negative_from(&response, &current, qtype, now);
                    break 'settled Some(Resolved::Negative(Rcode::NoError));
                }

                // Anything else (REFUSED, FORMERR from every server…).
                Some(Resolved::Fail)
            };
            net.recycle(response);
            if let Some(resolved) = settled {
                return resolved;
            }
        }
        Resolved::Fail
    }

    /// DNSSEC validation of a direct answer: if the response carries an
    /// RRSIG covering the answered type, it must verify (RFC 4035 §5).
    /// Absence of a signature means an unsigned (insecure) zone, which
    /// a validator accepts — there is no DS chain in the simulation.
    fn validate_answer(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        direct: &RRset,
        response: &Message,
        now: SimTime,
    ) -> bool {
        let sigs = response
            .answers
            .iter()
            .find(|s| s.name == *qname && s.rtype == RecordType::RRSIG);
        let sig = sigs.and_then(|sigs| {
            sigs.rdatas
                .iter()
                .find(|rd| matches!(rd, RData::Rrsig(sig) if sig.type_covered == qtype))
        });
        let Some(sig) = sig else {
            return true; // insecure zone
        };
        if dnsttl_wire::verify_rrset(qname, qtype, &direct.rdatas, sig) {
            bump(
                &mut self.stats.validations,
                &self.telemetry,
                &metrics::VALIDATIONS,
                now.as_millis(),
            );
            true
        } else {
            bump(
                &mut self.stats.validation_failures,
                &self.telemetry,
                &metrics::VALIDATION_FAILURES,
                now.as_millis(),
            );
            false
        }
    }

    /// When every server failed: serve stale, if policy allows, for `qname`.
    fn fail_or_stale(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        answer: &mut Answer,
    ) -> Resolved {
        if let Some(window) = self.policy.serve_stale {
            if let Some(hit) = self.cache.get_stale(qname, qtype, now, window) {
                let set = &hit.rrset;
                answer.truncate(Mark::default());
                answer.push(&set.name, set.rtype, set.ttl, &set.rdatas);
                return Resolved::Answer { stale: hit.stale };
            }
        }
        Resolved::Fail
    }

    /// Can the cache answer this question for a *client*? If so, the
    /// answer's records are pushed onto `answer` and the result is
    /// true; otherwise `answer` is left as it was.
    ///
    /// Child-centric resolvers only answer from answer-ranked data —
    /// they re-query the child for anything learned via referrals.
    /// Parent-centric resolvers happily answer from referral data, which
    /// is how the paper's §3.2 sees 172 800 s TTLs for `.uy` NS.
    /// CNAME chains are followed through the cache.
    fn answer_from_cache(
        &self,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        answer: &mut Answer,
    ) -> bool {
        let min_rank = if self.policy.validate_dnssec {
            // A validator can only answer with data it could verify:
            // glue and referral data are unsigned, so only
            // answer-ranked entries qualify (§2: DNSSEC forces
            // child-centric behaviour).
            Credibility::AuthAnswer
        } else {
            match self.policy.centricity {
                Centricity::ChildCentric => Credibility::AuthAnswer,
                Centricity::ParentCentric => Credibility::ReferralAdditional,
            }
        };
        let start = answer.mark();
        // Reads one entry in place. If its rank qualifies, its set goes
        // onto `answer` at the cache's decremented TTL, sharing the
        // entry's members, and the result is `Some` — of the alias
        // target, for a CNAME set.
        let mut serve = |name: &Name, rtype: RecordType| {
            self.cache
                .read(name, rtype, now, |owner, e, ttl| {
                    if e.rank < min_rank {
                        return None;
                    }
                    answer.push(owner, rtype, ttl, e.shared_members());
                    Some(match e.members().first() {
                        Some(RData::Cname(target)) => Some(target.clone()),
                        _ => None,
                    })
                })
                .flatten()
        };
        let mut alias: Option<Name> = None;
        for _ in 0..=MAX_DEPTH {
            let current = alias.as_ref().unwrap_or(qname);
            if serve(current, qtype).is_some() {
                return true;
            }
            if qtype != RecordType::CNAME {
                if let Some(Some(target)) = serve(current, RecordType::CNAME) {
                    alias = Some(target);
                    continue;
                }
            }
            break;
        }
        answer.truncate(start);
        false
    }

    /// Finds the deepest zone with usable name servers for `name`.
    ///
    /// Returns the zone apex and its servers' addresses. Walks from the
    /// name toward the root; zones whose servers have no resolvable
    /// address are skipped (their parent will re-supply glue). Root
    /// hints are the backstop.
    fn server_candidates(
        &mut self,
        name: &Name,
        now: SimTime,
        net: &mut Network,
        ctx: &mut Ctx,
    ) -> Option<(Name, Candidates)> {
        // Deepest first; the root (the one suffix without a label) is
        // the hints' job.
        for suffix in name.suffixes().take_while(|s| !s.label().is_empty()) {
            // The zone is the cached owner name. Its NS targets'
            // addresses are read while the entry is, in target order
            // (the order the ledger records their serves in). Only the
            // cold path, where none has one, takes the targets out of
            // the entry, because resolving them leaves the cache.
            let Some((zone, mut candidates, ns_targets)) =
                self.cache.read(&suffix, RecordType::NS, now, |zone, e, _| {
                    let targets = e.members().iter().filter_map(|rd| match rd {
                        RData::Ns(n) => Some(n),
                        _ => None,
                    });
                    let candidates: Candidates = targets
                        .clone()
                        .filter_map(|t| self.cached_address(t, now))
                        .collect();
                    let cold: Vec<Name> = if candidates.is_empty() {
                        targets.cloned().collect()
                    } else {
                        Vec::new()
                    };
                    (zone.clone(), candidates, cold)
                })
            else {
                continue;
            };
            if candidates.is_empty() && ctx.in_flight.len() < MAX_DEPTH {
                // Out-of-bailiwick servers: resolve their addresses via
                // separate queries (in-bailiwick targets would need this
                // zone itself — skip them, the parent's glue covers it).
                for target in &ns_targets {
                    if target.is_subdomain_of(&zone) {
                        continue;
                    }
                    let key = (target.clone(), RecordType::A);
                    if ctx.in_flight.contains(&key) {
                        continue;
                    }
                    ctx.in_flight.push(key);
                    // The address lookup is a separate resolution the
                    // client query caused: give it a child span so the
                    // causal tree shows the NS chase as its own branch.
                    let parent_span = ctx.span;
                    let elapsed_before = ctx.elapsed.as_millis();
                    let sub_span = self.telemetry.child_span_start(
                        parent_span,
                        (now + ctx.elapsed).as_millis(),
                        |_, f| {
                            f.push("cause", Value::literal("ns_lookup"));
                            f.push_shared("qname", target.shared());
                            f.push("qtype", Value::literal(RecordType::A.as_str()));
                        },
                    );
                    ctx.span = sub_span;
                    // The addresses are read, so this answer keeps its sets.
                    let mut found = Vec::new();
                    let sub = self.resolve_inner(
                        target,
                        RecordType::A,
                        now,
                        net,
                        ctx,
                        &mut Answer::sets(&mut found),
                    );
                    ctx.span = parent_span;
                    self.telemetry
                        .span_end(sub_span, (now + ctx.elapsed).as_millis(), |f| {
                            f.push("elapsed_ms", ctx.elapsed.as_millis() - elapsed_before);
                        });
                    ctx.in_flight.pop();
                    if let Resolved::Answer { .. } = sub {
                        for rd in found.iter().flat_map(|set| set.rdatas.iter()) {
                            if let RData::A(a) = rd {
                                candidates.push(IpAddr::V4(*a));
                            }
                        }
                    }
                    if !candidates.is_empty() {
                        break;
                    }
                }
            }
            if !candidates.is_empty() {
                self.order_candidates(&zone, &mut candidates);
                return Some((zone, candidates));
            }
        }
        // Root hints.
        let mut candidates: Candidates = self.roots.iter().map(|h| h.addr).collect();
        if candidates.is_empty() {
            return None;
        }
        let root = Name::root();
        self.order_candidates(&root, &mut candidates);
        Some((root, candidates))
    }

    /// A cached address for a server name, any rank (glue is fine for
    /// iteration — RFC 2181's ranking constrains answers to clients,
    /// not the resolver's own navigation).
    fn cached_address(&self, target: &Name, now: SimTime) -> Option<IpAddr> {
        [RecordType::A, RecordType::AAAA]
            .into_iter()
            .find_map(|rtype| {
                self.cache
                    .read(target, rtype, now, |_, e, _| {
                        e.members().iter().find_map(|rd| match rd {
                            RData::A(a) => Some(IpAddr::V4(*a)),
                            RData::Aaaa(a) => Some(IpAddr::V6(*a)),
                            _ => None,
                        })
                    })
                    .flatten()
            })
    }

    /// Rotates candidates (resolvers rotate across authoritatives,
    /// paper §3.4 / [37]); sticky resolvers pin their remembered server
    /// to the front instead.
    fn order_candidates(&mut self, zone: &Name, candidates: &mut Candidates) {
        self.rng.shuffle(candidates);
        if self.policy.sticky {
            let sticky = self.memory.as_ref().and_then(|m| m.sticky_server.get(zone));
            if let Some(&addr) = sticky {
                if let Some(pos) = candidates.iter().position(|a| *a == addr) {
                    candidates.swap(0, pos);
                } else {
                    // The sticky address may no longer be in the NS set
                    // (renumbered); stay loyal to it anyway.
                    candidates.push_front(addr);
                }
            }
        }
    }

    /// Queries candidates in order with retries; returns the first
    /// useful response and whether it came from a root server.
    #[allow(clippy::too_many_arguments)]
    fn query_candidates(
        &mut self,
        zone: &Name,
        candidates: &[IpAddr],
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
        net: &mut Network,
        ctx: &mut Ctx,
    ) -> Option<(Message, bool, IpAddr)> {
        let from_root = zone.is_root();
        for addr in candidates {
            if self.in_backoff(*addr, now, ctx) {
                continue;
            }
            let mut responded = false;
            for attempt in 0..=RETRIES {
                if attempt > 0 {
                    self.telemetry
                        .span_event(ctx.span, now.as_millis(), EventKind::Retry, |f| {
                            f.push("server", *addr);
                            f.push("attempt", attempt as u64);
                        });
                }
                let query = Message::iterative_query(self.next_msg_id(), qname.clone(), qtype);
                let mut outcome =
                    net.exchange(self.region, self.tag, *addr, &query, now, &mut self.rng);
                ctx.elapsed = ctx.elapsed + outcome.elapsed();
                // RFC 1035 §4.2.1: a truncated UDP response is retried
                // over TCP (extra handshake RTT, counted above).
                if let ExchangeOutcome::Response { message, .. } = &mut outcome {
                    if message.header.truncated {
                        net.recycle(std::mem::take(message));
                        bump(
                            &mut self.stats.tcp_fallbacks,
                            &self.telemetry,
                            &metrics::TCP_FALLBACKS,
                            now.as_millis(),
                        );
                        self.telemetry.span_event(
                            ctx.span,
                            now.as_millis(),
                            EventKind::TcFallback,
                            |f| f.push("server", *addr),
                        );
                        ctx.upstream += 1;
                        bump(
                            &mut self.stats.upstream_queries,
                            &self.telemetry,
                            &metrics::UPSTREAM_QUERIES,
                            now.as_millis(),
                        );
                        let retry =
                            Message::iterative_query(self.next_msg_id(), qname.clone(), qtype);
                        outcome = net.exchange_with(
                            self.region,
                            self.tag,
                            *addr,
                            &retry,
                            now,
                            &mut self.rng,
                            Transport::Tcp,
                        );
                        ctx.elapsed = ctx.elapsed + outcome.elapsed();
                    }
                }
                match outcome {
                    ExchangeOutcome::Response { message, .. } => {
                        responded = true;
                        // Empty under the default policy: skip the hash.
                        if let Some(memory) = &mut self.memory {
                            if !memory.backoff.is_empty() {
                                memory.backoff.remove(addr);
                            }
                        }
                        ctx.upstream += 1;
                        bump(
                            &mut self.stats.upstream_queries,
                            &self.telemetry,
                            &metrics::UPSTREAM_QUERIES,
                            now.as_millis(),
                        );
                        match message.header.rcode {
                            Rcode::NoError | Rcode::NxDomain => {
                                if self.policy.sticky {
                                    let memory = self.memory.get_or_insert_with(Box::default);
                                    memory.sticky_server.insert(zone.clone(), *addr);
                                }
                                return Some((message, from_root, *addr));
                            }
                            // REFUSED / SERVFAIL / …: try the next server.
                            _ => {
                                net.recycle(message);
                                break;
                            }
                        }
                    }
                    ExchangeOutcome::Timeout { .. } => {
                        bump(
                            &mut self.stats.timeouts,
                            &self.telemetry,
                            &metrics::TIMEOUTS,
                            now.as_millis(),
                        );
                        self.telemetry.span_event(
                            ctx.span,
                            now.as_millis(),
                            EventKind::Timeout,
                            |f| f.push("server", *addr),
                        );
                        // Retry the same server up to `RETRIES` times.
                    }
                }
            }
            if !responded {
                self.record_server_failure(*addr, now);
            }
        }
        None
    }

    /// Whether `addr` is inside its exponential-backoff window; the
    /// skip is journalled so a trace shows which servers a resolution
    /// declined to probe.
    fn in_backoff(&mut self, addr: IpAddr, now: SimTime, ctx: &Ctx) -> bool {
        if self.policy.server_backoff.is_none() {
            return false;
        }
        let Some(b) = self.memory.as_ref().and_then(|m| m.backoff.get(&addr)) else {
            return false;
        };
        if now >= b.until {
            return false;
        }
        let until_ms = b.until.as_millis();
        bump(
            &mut self.stats.backoff_skips,
            &self.telemetry,
            &metrics::BACKOFF_SKIPS,
            now.as_millis(),
        );
        self.telemetry
            .span_event(ctx.span, now.as_millis(), EventKind::Backoff, |f| {
                f.push("server", addr);
                f.push("until_ms", until_ms);
            });
        true
    }

    /// Marks `addr` dead for an exponentially growing interval (base ×
    /// 2^(failures−1), capped at 64× base) after it timed out on every
    /// retry of one exchange episode.
    fn record_server_failure(&mut self, addr: IpAddr, now: SimTime) {
        let Some(base) = self.policy.server_backoff else {
            return;
        };
        let memory = self.memory.get_or_insert_with(Box::default);
        let entry = memory.backoff.entry(addr).or_insert(BackoffState {
            failures: 0,
            until: SimTime::ZERO,
        });
        entry.failures = entry.failures.saturating_add(1);
        let exponent = (entry.failures - 1).min(6);
        let delay = SimDuration::from_secs(base.as_secs() as u64).saturating_mul(1 << exponent);
        entry.until = now + delay;
    }

    /// Stores every RRset of a response into the cache with the rank
    /// its section and the AA bit dictate, carrying provenance: the
    /// response's message id as the installing transaction, the
    /// responding `server`, and each RRset's bailiwick class relative
    /// to `zone` (the cut the server was answering for — owner names
    /// under it are in-bailiwick, everything else is the
    /// out-of-bailiwick data of §4.2). `from_root` pins data for
    /// RFC 7706 local-root policies.
    fn ingest(
        &mut self,
        response: &Message,
        now: SimTime,
        from_root: bool,
        zone: &Name,
        server: IpAddr,
    ) {
        let pinned = from_root && self.policy.local_root;
        let aa = response.header.authoritative;
        let txn = response.header.id as u64;
        let sections = [
            (
                &response.answers,
                if aa {
                    Credibility::AuthAnswer
                } else {
                    Credibility::ReferralAuthority
                },
            ),
            (
                &response.authorities,
                if aa {
                    Credibility::AuthAuthority
                } else {
                    Credibility::ReferralAuthority
                },
            ),
            (&response.additionals, Credibility::ReferralAdditional),
        ];
        if self.cache.is_empty() {
            let sections = sections.map(|(sets, _)| sets.as_slice());
            self.cache.reserve(first_store_keys(sections, &self.policy));
        }
        for (sets, rank) in sections {
            for set in sets {
                if set.rtype == RecordType::SOA {
                    continue; // negative-caching SOAs are handled separately
                }
                let bailiwick = if set.name.is_subdomain_of(zone) {
                    BailiwickClass::In
                } else {
                    BailiwickClass::Out
                };
                self.cache.store_set(
                    set,
                    rank,
                    now,
                    &self.policy,
                    pinned,
                    StoreContext {
                        txn,
                        server: Some(server),
                        bailiwick,
                    },
                );
            }
        }
    }

    /// Extracts the SOA from a negative response and populates the
    /// negative cache.
    fn cache_negative_from(
        &mut self,
        response: &Message,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) {
        let Some(soa) = response
            .authorities
            .iter()
            .find(|s| s.rtype == RecordType::SOA)
        else {
            return;
        };
        let Some(RData::Soa(data)) = soa.rdatas.first() else {
            return;
        };
        let rcode = response.header.rcode;
        self.cache.store_negative(
            qname.clone(),
            qtype,
            rcode,
            Ttl::from_secs(data.minimum),
            soa.ttl,
            now,
            &self.policy,
        );
    }
}

/// The distinct keys a store of `sections` into an empty cache inserts
/// (not the SOA, nor a set whose TTL clamps to zero), so the first
/// response sizes the table in one step: the bucket count growing one
/// insert at a time would reach, without the blocks it would pass
/// through. Once per cache, so kept out of line.
#[cold]
fn first_store_keys(sections: [&[RRset]; 3], policy: &ResolverPolicy) -> usize {
    let sets = || {
        sections
            .into_iter()
            .flatten()
            .filter(|set| set.rtype != RecordType::SOA && !policy.clamp_ttl(set.ttl).is_zero())
    };
    sets()
        .enumerate()
        .filter(|(i, set)| {
            !sets()
                .take(*i)
                .any(|seen| seen.rtype == set.rtype && seen.name == set.name)
        })
        .count()
}

/// Increments a [`ResolverStats`] cell and mirrors it onto the metrics
/// registry and the sim-time series (bucketed at `t_ms`): the struct
/// stays the zero-cost compatibility view, the registry is the
/// exported series, and the time series resolves the same counter over
/// simulated time.
fn bump(field: &mut u64, telemetry: &Telemetry, metric: &MetricKey, t_ms: u64) {
    *field += 1;
    telemetry.count_keyed_at(metric, 1, t_ms);
}

/// Pre-hashed keys for every resolver series, so the per-query path
/// never re-hashes their names. All but the answer-TTL sketch, which is
/// registry-only, also have a sim-time series.
mod metrics {
    use dnsttl_telemetry::MetricKey;

    pub(crate) const FAULT_FLUSHES: MetricKey = MetricKey::new("resolver_fault_flushes");
    pub(crate) const CLIENT_QUERIES: MetricKey = MetricKey::new("resolver_client_queries");
    pub(crate) const CACHE_EXPIRIES: MetricKey = MetricKey::new("resolver_cache_expiries");
    pub(crate) const FAILURE_CACHES: MetricKey = MetricKey::new("resolver_failure_caches");
    pub(crate) const STALE_ANSWERS: MetricKey = MetricKey::new("resolver_stale_answers");
    pub(crate) const SERVFAILS: MetricKey = MetricKey::new("resolver_servfails");
    pub(crate) const CACHE_HITS: MetricKey = MetricKey::new("resolver_cache_hits");
    pub(crate) const CACHE_MISSES: MetricKey = MetricKey::new("resolver_cache_misses");
    pub(crate) const LATENCY_SKETCH_MS: MetricKey = MetricKey::new("resolver_latency_quantiles_ms");
    pub(crate) const ANSWER_TTL_S: MetricKey = MetricKey::new("resolver_answer_ttl_s");
    pub(crate) const CACHE_ENTRIES: MetricKey = MetricKey::new("resolver_cache_entries");
    pub(crate) const VALIDATIONS: MetricKey = MetricKey::new("resolver_validations");
    pub(crate) const VALIDATION_FAILURES: MetricKey =
        MetricKey::new("resolver_validation_failures");
    pub(crate) const TCP_FALLBACKS: MetricKey = MetricKey::new("resolver_tcp_fallbacks");
    pub(crate) const UPSTREAM_QUERIES: MetricKey = MetricKey::new("resolver_upstream_queries");
    pub(crate) const TIMEOUTS: MetricKey = MetricKey::new("resolver_timeouts");
    pub(crate) const BACKOFF_SKIPS: MetricKey = MetricKey::new("resolver_backoff_skips");
}

/// The zone cut a referral delegates to — the owner of its
/// authority-section NS set — or `None` when `response` is not a
/// referral ([`Message::is_referral`]).
fn referral_cut(response: &Message) -> Option<&Name> {
    if !response.is_referral() {
        return None;
    }
    response
        .authorities
        .iter()
        .find(|s| s.rtype == RecordType::NS)
        .map(|s| &s.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
    use dnsttl_netsim::{FaultPlan, LatencyModel, ServiceHandle};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    #[test]
    fn candidates_spill_past_the_inline_count_and_keep_vec_order() {
        // Inline, at the boundary and spilled: the same slice a vector
        // holds after the same pushes, the same shuffle and a front insert.
        for count in [0, 1, Candidates::INLINE, Candidates::INLINE + 1, 40] {
            let addrs = (0..count as u8).map(ip);
            let (mut inline, mut vec): (Candidates, Vec<IpAddr>) =
                (addrs.clone().collect(), addrs.collect());
            assert_eq!(&inline[..], &vec[..], "{count} collected");
            SimRng::seed_from(7).shuffle(&mut inline);
            SimRng::seed_from(7).shuffle(&mut vec);
            inline.push_front(ip(200));
            vec.insert(0, ip(200));
            assert_eq!(
                &inline[..],
                &vec[..],
                "{count} shuffled, then a front insert"
            );
            // Cut back to inline length (or below), then grown again.
            for keep in [0, count / 2, Candidates::INLINE] {
                let (mut inline, mut vec) =
                    (inline.iter().copied().collect::<Candidates>(), vec.clone());
                inline.truncate(keep);
                vec.truncate(keep);
                for addr in [ip(201), ip(202)] {
                    inline.push(addr);
                    vec.push(addr);
                }
                assert_eq!(&inline[..], &vec[..], "{count} cut to {keep}, then grown");
            }
        }
    }

    /// Builds the paper's Table 1 world: a root delegating `.cl` with
    /// two-day glue, and `a.nic.cl` authoritative for `.cl` with
    /// 3600 s NS / 43200 s A TTLs.
    fn build_cl_world() -> (Network, Vec<RootHint>) {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("k.root-servers.net").with_zone(
            ZoneBuilder::new(".")
                .ns("cl", "a.nic.cl", Ttl::TWO_DAYS)
                .a("a.nic.cl", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("a.nic.cl").with_zone(
            ZoneBuilder::new("cl")
                .ns("cl", "a.nic.cl", Ttl::HOUR)
                .a("a.nic.cl", "198.51.100.2", Ttl::from_secs(43_200))
                .a("www.example.cl", "203.0.113.80", Ttl::from_secs(600))
                .build(),
        );
        let root: ServiceHandle = Rc::new(RefCell::new(root));
        let child: ServiceHandle = Rc::new(RefCell::new(child));
        net.register(ip(1), Region::Eu, root);
        net.register(ip(2), Region::Eu, child);
        let hints = vec![RootHint {
            ns_name: n("k.root-servers.net"),
            addr: ip(1),
        }];
        (net, hints)
    }

    fn resolver(policy: ResolverPolicy, hints: Vec<RootHint>) -> RecursiveResolver {
        RecursiveResolver::new("test", policy, Region::Eu, 7, hints, SimRng::seed_from(1))
    }

    /// Takes `servers` down for the rest of the run.
    fn take_down(net: &mut Network, servers: &[IpAddr]) {
        let forever = SimTime::from_millis(u64::MAX);
        let plan = servers.iter().fold(FaultPlan::new(), |plan, &server| {
            plan.outage(server, SimTime::ZERO, forever)
        });
        net.set_faults(plan);
    }

    #[test]
    fn full_iteration_resolves_leaf_a_record() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("www.example.cl"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(out.answer.answers.len(), 1);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 600);
        assert!(!out.cache_hit);
        // Two upstream queries: root referral + child answer.
        assert_eq!(out.upstream_queries, 2);
        assert_eq!(out.elapsed, SimDuration::from_millis(20));
    }

    #[test]
    fn second_query_is_a_cache_hit_with_decremented_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        r.resolve(&n("www.example.cl"), RecordType::A, SimTime::ZERO, &mut net);
        let out = r.resolve(
            &n("www.example.cl"),
            RecordType::A,
            SimTime::from_secs(100),
            &mut net,
        );
        assert!(out.cache_hit);
        assert_eq!(out.upstream_queries, 0);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 500);
        assert_eq!(out.elapsed, SimDuration::ZERO);
    }

    #[test]
    fn child_centric_ns_query_returns_child_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("cl"), RecordType::NS, SimTime::ZERO, &mut net);
        // Child-centric: must have queried a.nic.cl and gotten 3600 s.
        assert_eq!(out.answer.answers[0].ttl, Ttl::HOUR);
    }

    #[test]
    fn parent_centric_ns_query_returns_parent_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::parent_centric(), hints);
        let out = r.resolve(&n("cl"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl, Ttl::TWO_DAYS);
        // Only the root was queried; the child never saw us.
        assert_eq!(out.upstream_queries, 1);
    }

    #[test]
    fn parent_centric_address_query_returns_glue_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::parent_centric(), hints);
        let out = r.resolve(&n("a.nic.cl"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl, Ttl::TWO_DAYS);
    }

    #[test]
    fn child_centric_address_query_returns_child_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("a.nic.cl"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 43_200);
    }

    #[test]
    fn nxdomain_is_negatively_cached() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("missing.cl"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NxDomain);
        let out2 = r.resolve(
            &n("missing.cl"),
            RecordType::A,
            SimTime::from_secs(10),
            &mut net,
        );
        assert_eq!(out2.answer.header.rcode, Rcode::NxDomain);
        assert!(out2.cache_hit);
    }

    #[test]
    fn ttl_cap_flows_through_to_client_answer() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::google_like(), hints);
        let out = r.resolve(&n("a.nic.cl"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 21_599);
    }

    #[test]
    fn servfail_when_child_offline_for_child_centric() {
        let (mut net, hints) = build_cl_world();
        take_down(&mut net, &[ip(2)]);
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("cl"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::ServFail);
        assert!(out.elapsed >= net.query_timeout, "timeouts must cost time");
    }

    #[test]
    fn parent_centric_survives_child_offline() {
        // The paper's zurrundedu-offline observation (§4.4): OpenDNS
        // (parent-centric) answers NS queries with the child dead.
        let (mut net, hints) = build_cl_world();
        take_down(&mut net, &[ip(2)]);
        let mut r = resolver(ResolverPolicy::parent_centric(), hints);
        let out = r.resolve(&n("cl"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
    }

    #[test]
    fn serve_stale_bridges_outage() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::serve_stale_like(), hints);
        r.resolve(&n("www.example.cl"), RecordType::A, SimTime::ZERO, &mut net);
        // The record expires at 600 s; kill every server and ask again.
        take_down(&mut net, &[ip(1), ip(2)]);
        let out = r.resolve(
            &n("www.example.cl"),
            RecordType::A,
            SimTime::from_secs(700),
            &mut net,
        );
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert!(out.served_stale);
        assert_eq!(out.answer.answers[0].ttl.as_secs(), 30);
    }

    #[test]
    fn local_root_pins_tld_data_at_full_ttl() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::opendns_like(), hints);
        let out = r.resolve(&n("cl"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.answers[0].ttl, Ttl::TWO_DAYS);
        // Much later, still the *full* parent TTL: the mirrored root
        // zone never decays (§3.2 sees constant 172800 s from OpenDNS).
        let out = r.resolve(
            &n("cl"),
            RecordType::NS,
            SimTime::from_secs(400_000),
            &mut net,
        );
        assert_eq!(out.answer.answers[0].ttl, Ttl::TWO_DAYS);
    }

    #[test]
    fn cname_chain_is_followed_and_returned() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .cname("www.example", "web.example", Ttl::HOUR)
                .a("web.example", "203.0.113.80", Ttl::HOUR)
                .build(),
        );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(child)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("www.example"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        let types: Vec<RecordType> = out.answer.answers.iter().map(|s| s.rtype).collect();
        assert!(types.contains(&RecordType::CNAME));
        assert!(types.contains(&RecordType::A));
    }

    #[test]
    fn out_of_bailiwick_server_address_is_sub_resolved() {
        // example.org served by ns1.example.com: resolving anything in
        // example.org first requires resolving ns1.example.com.
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("org", "ns.org", Ttl::TWO_DAYS)
                .a("ns.org", "198.51.100.2", Ttl::TWO_DAYS)
                .ns("com", "ns.com", Ttl::TWO_DAYS)
                .a("ns.com", "198.51.100.3", Ttl::TWO_DAYS)
                .build(),
        );
        let org = AuthoritativeServer::new("ns.org").with_zone(
            ZoneBuilder::new("org")
                .ns("org", "ns.org", Ttl::DAY)
                .ns("example.org", "ns1.example.com", Ttl::HOUR)
                .build(),
        );
        let com = AuthoritativeServer::new("ns.com").with_zone(
            ZoneBuilder::new("com")
                .ns("com", "ns.com", Ttl::DAY)
                .ns("example.com", "ns1.example.com", Ttl::HOUR)
                .a("ns1.example.com", "198.51.100.4", Ttl::from_secs(7_200))
                .build(),
        );
        let excom = AuthoritativeServer::new("ns1.example.com")
            .with_zone(
                ZoneBuilder::new("example.com")
                    .ns("example.com", "ns1.example.com", Ttl::HOUR)
                    .a("ns1.example.com", "198.51.100.4", Ttl::from_secs(7_200))
                    .build(),
            )
            .with_zone(
                ZoneBuilder::new("example.org")
                    .ns("example.org", "ns1.example.com", Ttl::HOUR)
                    .a("www.example.org", "203.0.113.80", Ttl::HOUR)
                    .build(),
            );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(org)));
        net.register(ip(3), Region::Eu, Rc::new(RefCell::new(com)));
        net.register(ip(4), Region::Eu, Rc::new(RefCell::new(excom)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(
            &n("www.example.org"),
            RecordType::A,
            SimTime::ZERO,
            &mut net,
        );
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(
            out.answer.answers[0].rdatas[0],
            RData::A("203.0.113.80".parse().unwrap())
        );
        // Root, org (referral), then the glue chase (root hit from
        // cache, com referral, example.com answer), then example.org.
        assert!(out.upstream_queries >= 4, "took {}", out.upstream_queries);
    }

    /// A middlebox that rewrites A answers while forwarding to a real
    /// server — the tampering a validator must catch.
    struct Tamperer {
        inner: AuthoritativeServer,
    }

    impl dnsttl_netsim::DnsService for Tamperer {
        fn handle_query(
            &mut self,
            query: &Message,
            client: dnsttl_netsim::ClientId,
            now: SimTime,
        ) -> Message {
            let mut response =
                dnsttl_netsim::DnsService::handle_query(&mut self.inner, query, client, now);
            for set in &mut response.answers {
                if set.rtype == RecordType::A {
                    // hijack
                    let forged = vec![RData::A(Ipv4Addr::new(6, 6, 6, 6)); set.len()];
                    set.rdatas = forged.into();
                }
            }
            response
        }
    }

    fn build_signed_world(tamper: bool) -> (Network, Vec<RootHint>) {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
                .a("a.nic.uy", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let mut uy_zone = ZoneBuilder::new("uy")
            .ns("uy", "a.nic.uy", Ttl::from_secs(300))
            .a("a.nic.uy", "198.51.100.2", Ttl::from_secs(120))
            .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
            .build();
        dnsttl_auth::sign_zone(&mut uy_zone);
        let child = AuthoritativeServer::new("a.nic.uy").with_zone(uy_zone);
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        if tamper {
            net.register(
                ip(2),
                Region::Eu,
                Rc::new(RefCell::new(Tamperer { inner: child })),
            );
        } else {
            net.register(ip(2), Region::Eu, Rc::new(RefCell::new(child)));
        }
        (
            net,
            vec![RootHint {
                ns_name: n("root"),
                addr: ip(1),
            }],
        )
    }

    #[test]
    fn validator_accepts_signed_answers() {
        let (mut net, hints) = build_signed_world(false);
        let mut r = resolver(ResolverPolicy::validating(), hints);
        let out = r.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert!(r.stats().validations > 0);
        assert_eq!(r.stats().validation_failures, 0);
    }

    #[test]
    fn validator_rejects_tampered_answers() {
        let (mut net, hints) = build_signed_world(true);
        let mut r = resolver(ResolverPolicy::validating(), hints);
        let out = r.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::ServFail, "bogus ⇒ SERVFAIL");
        assert!(r.stats().validation_failures > 0);
    }

    #[test]
    fn non_validator_swallows_tampered_answers() {
        // The contrast: without validation the hijack succeeds.
        let (mut net, hints) = build_signed_world(true);
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(
            out.answer.answers[0].rdatas[0],
            RData::A(Ipv4Addr::new(6, 6, 6, 6))
        );
    }

    #[test]
    fn validator_is_structurally_child_centric() {
        // Even a parent-centric-configured validator must fetch the
        // child's (signed) data to answer: it sees the child TTL.
        let (mut net, hints) = build_signed_world(false);
        let policy = ResolverPolicy {
            validate_dnssec: true,
            ..ResolverPolicy::parent_centric()
        };
        let mut r = resolver(policy, hints);
        let out = r.resolve(&n("uy"), RecordType::NS, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(
            out.answer.answers[0].ttl.as_secs(),
            300,
            "child TTL, not 172800"
        );
    }

    #[test]
    fn cname_loops_terminate_with_failure() {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .cname("a.example", "b.example", Ttl::HOUR)
                .cname("b.example", "a.example", Ttl::HOUR)
                .build(),
        );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(child)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("a.example"), RecordType::A, SimTime::ZERO, &mut net);
        // Must terminate (bounded chain) and report failure, not spin.
        assert_eq!(out.answer.header.rcode, Rcode::ServFail);
    }

    #[test]
    fn lame_delegation_fails_cleanly() {
        // The child's server answers with a referral back to the same
        // cut instead of an answer — a lame delegation. The resolver
        // must not loop.
        struct Lame;
        impl dnsttl_netsim::DnsService for Lame {
            fn handle_query(
                &mut self,
                query: &Message,
                _client: dnsttl_netsim::ClientId,
                _now: SimTime,
            ) -> Message {
                let mut r = Message::response_to(query);
                r.header.authoritative = false;
                r.authorities.push(RRset::new(
                    n("example"),
                    RecordType::NS,
                    Ttl::HOUR,
                    RData::Ns(n("ns.example")),
                ));
                r
            }
        }
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(Lame)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("www.example"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::ServFail);
        assert!(out.upstream_queries <= 8, "bounded work on lameness");
    }

    #[test]
    fn truncated_responses_fall_back_to_tcp() {
        // A zone answering with 40 address records cannot fit in a
        // 512-octet UDP response; the resolver must complete over TCP.
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("big", "ns.big", Ttl::TWO_DAYS)
                .a("ns.big", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let mut big_zone = ZoneBuilder::new("big").ns("big", "ns.big", Ttl::HOUR);
        for i in 0..40u8 {
            big_zone = big_zone.a("www.big", &format!("203.0.113.{i}"), Ttl::HOUR);
        }
        let big = AuthoritativeServer::new("ns.big").with_zone(big_zone.build());
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(big)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        let out = r.resolve(&n("www.big"), RecordType::A, SimTime::ZERO, &mut net);
        assert_eq!(out.answer.header.rcode, Rcode::NoError);
        assert_eq!(out.answer.answers[0].len(), 40);
        assert!(r.stats().tcp_fallbacks >= 1);
        // Latency accounting: root referral (10) + truncated UDP try
        // (10) + TCP retry with handshake (2 × 10) = 40 ms.
        assert_eq!(out.elapsed, SimDuration::from_millis(40));
    }

    #[test]
    fn stats_accumulate() {
        let (mut net, hints) = build_cl_world();
        let mut r = resolver(ResolverPolicy::default(), hints);
        r.resolve(&n("www.example.cl"), RecordType::A, SimTime::ZERO, &mut net);
        r.resolve(
            &n("www.example.cl"),
            RecordType::A,
            SimTime::from_secs(1),
            &mut net,
        );
        let s = r.stats();
        assert_eq!(s.client_queries, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.upstream_queries, 2);
        assert_eq!(s.servfails, 0);
    }

    #[test]
    fn referral_without_a_usable_cut_is_a_counted_servfail() {
        // A hostile or broken child answers every question with a
        // referral-shaped response (NOERROR, no answers, AA clear)
        // whose authority section names no cut the walk can descend
        // to: nothing at all, glue without an NS, an NS owned by a
        // sibling, an NS owned by the root. Each must end as one
        // SERVFAIL — never a panic, never a loop.
        struct NoCut(Option<RRset>);
        impl dnsttl_netsim::DnsService for NoCut {
            fn handle_query(
                &mut self,
                query: &Message,
                _client: dnsttl_netsim::ClientId,
                _now: SimTime,
            ) -> Message {
                let mut r = Message::response_to(query);
                r.header.authoritative = false;
                r.authorities.extend(self.0.clone());
                r
            }
        }
        let ns = |owner: &str| {
            RRset::new(
                n(owner),
                RecordType::NS,
                Ttl::HOUR,
                RData::Ns(n("ns.elsewhere")),
            )
        };
        let glue_only = RRset::new(
            n("ns.example"),
            RecordType::A,
            Ttl::HOUR,
            RData::A(Ipv4Addr::new(198, 51, 100, 2)),
        );
        for authority in [None, Some(glue_only), Some(ns("elsewhere")), Some(ns("."))] {
            let mut net = Network::new(LatencyModel::constant(10.0));
            let root = AuthoritativeServer::new("root").with_zone(
                ZoneBuilder::new(".")
                    .ns("example", "ns.example", Ttl::TWO_DAYS)
                    .a("ns.example", "198.51.100.2", Ttl::TWO_DAYS)
                    .build(),
            );
            net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
            net.register(
                ip(2),
                Region::Eu,
                Rc::new(RefCell::new(NoCut(authority.clone()))),
            );
            let hints = vec![RootHint {
                ns_name: n("root"),
                addr: ip(1),
            }];
            let mut r = resolver(ResolverPolicy::default(), hints);
            let out = r.resolve(&n("www.example"), RecordType::A, SimTime::ZERO, &mut net);
            assert_eq!(out.answer.header.rcode, Rcode::ServFail, "{authority:?}");
            assert_eq!(r.stats().servfails, 1, "{authority:?}");
            assert_eq!(out.upstream_queries, 2, "root, then the cut-less child");
        }
    }

    #[test]
    fn the_cache_is_consulted_once_before_going_upstream() {
        // Two questions the cache can serve from but not answer: `www`
        // is a long-lived alias for `web`, whose address is short-lived
        // (at t = 120 s the head of the chain is cached and its target
        // is not), and `ns` is held as referral glue, which a
        // child-centric resolver may navigate by but not hand a client.
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("ns.example", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::HOUR)
                .a("ns.example", "198.51.100.2", Ttl::HOUR)
                .cname("www.example", "web.example", Ttl::HOUR)
                .a("web.example", "203.0.113.80", Ttl::MINUTE)
                .build(),
        );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Eu, Rc::new(RefCell::new(child)));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        let mut r = resolver(ResolverPolicy::default(), hints);
        r.enable_cache_ledger();
        r.resolve(&n("www.example"), RecordType::A, SimTime::ZERO, &mut net);
        let serves = |r: &RecursiveResolver, name: &str, rtype: RecordType| {
            let name = n(name);
            r.cache()
                .with_ledger(|l| {
                    l.records()
                        .filter(|rec| {
                            rec.op == crate::CacheOp::Serve
                                && rec.name == name
                                && rec.rtype == rtype
                        })
                        .count()
                })
                .expect("ledger on")
        };
        let later = SimTime::from_secs(120);

        let before = (
            serves(&r, "www.example", RecordType::CNAME),
            r.cache().stats().hits,
        );
        let out = r.resolve(&n("www.example"), RecordType::A, later, &mut net);
        assert_eq!(out.answer.answers.len(), 2, "alias + refetched address");
        assert_eq!(out.upstream_queries, 1);
        assert_eq!(serves(&r, "www.example", RecordType::CNAME) - before.0, 1);
        // The whole question costs four hits: the alias, the zone's NS
        // and its glue on the way upstream, the refetched address on
        // the way back.
        assert_eq!(r.cache().stats().hits - before.1, 4);

        let before = serves(&r, "ns.example", RecordType::A);
        let out = r.resolve(&n("ns.example"), RecordType::A, later, &mut net);
        assert_eq!(out.upstream_queries, 1, "glue does not answer a client");
        // The consult, the address lookup for the walk, the answer.
        assert_eq!(serves(&r, "ns.example", RecordType::A) - before, 3);
    }

    /// A world with one of every way a question ends: `example` holds a
    /// CNAME chain, a short-lived address, an alias into `.org` that
    /// ends in NXDOMAIN and one into `dead`; `example.org` is served
    /// from out of bailiwick; `www.big` needs TCP; `dead` goes down at
    /// 200 s for good.
    fn build_tape_world() -> (Network, Vec<RootHint>) {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let mut root = ZoneBuilder::new(".");
        for (zone, last) in [
            ("example", 2),
            ("org", 3),
            ("com", 4),
            ("big", 5),
            ("dead", 6),
        ] {
            let server = format!("ns.{zone}");
            root = root.ns(zone, &server, Ttl::TWO_DAYS).a(
                &server,
                &format!("198.51.100.{last}"),
                Ttl::TWO_DAYS,
            );
        }
        let example = ZoneBuilder::new("example")
            .ns("example", "ns.example", Ttl::HOUR)
            .a("ns.example", "198.51.100.2", Ttl::HOUR)
            .cname("www.example", "web.example", Ttl::HOUR)
            .a("web.example", "203.0.113.80", Ttl::MINUTE)
            .cname("x.example", "nope.org", Ttl::HOUR)
            .cname("alias.example", "www.dead", Ttl::HOUR);
        let org = ZoneBuilder::new("org").ns("org", "ns.org", Ttl::DAY).ns(
            "example.org",
            "ns1.example.com",
            Ttl::HOUR,
        );
        let com = ZoneBuilder::new("com")
            .ns("com", "ns.com", Ttl::DAY)
            .ns("example.com", "ns1.example.com", Ttl::HOUR)
            .a("ns1.example.com", "198.51.100.7", Ttl::from_secs(7_200));
        let excom = AuthoritativeServer::new("ns1.example.com")
            .with_zone(
                ZoneBuilder::new("example.com")
                    .ns("example.com", "ns1.example.com", Ttl::HOUR)
                    .a("ns1.example.com", "198.51.100.7", Ttl::from_secs(7_200))
                    .build(),
            )
            .with_zone(
                ZoneBuilder::new("example.org")
                    .ns("example.org", "ns1.example.com", Ttl::HOUR)
                    .a("www.example.org", "203.0.113.81", Ttl::HOUR)
                    .build(),
            );
        let mut big = ZoneBuilder::new("big").ns("big", "ns.big", Ttl::HOUR);
        for i in 0..40u8 {
            big = big.a("www.big", &format!("203.0.113.{i}"), Ttl::HOUR);
        }
        let dead = ZoneBuilder::new("dead").ns("dead", "ns.dead", Ttl::HOUR).a(
            "www.dead",
            "203.0.113.99",
            Ttl::MINUTE,
        );
        let servers = [
            (1, AuthoritativeServer::new("root").with_zone(root.build())),
            (
                2,
                AuthoritativeServer::new("ns.example").with_zone(example.build()),
            ),
            (3, AuthoritativeServer::new("ns.org").with_zone(org.build())),
            (4, AuthoritativeServer::new("ns.com").with_zone(com.build())),
            (5, AuthoritativeServer::new("ns.big").with_zone(big.build())),
            (
                6,
                AuthoritativeServer::new("ns.dead").with_zone(dead.build()),
            ),
            (7, excom),
        ];
        for (last, server) in servers {
            net.register(ip(last), Region::Eu, Rc::new(RefCell::new(server)));
        }
        let forever = SimTime::from_millis(u64::MAX);
        net.set_faults(FaultPlan::new().outage(ip(6), SimTime::from_secs(200), forever));
        let hints = vec![RootHint {
            ns_name: n("root"),
            addr: ip(1),
        }];
        (net, hints)
    }

    /// The verdict an outcome implies.
    fn implied(out: &ResolutionOutcome) -> ResolutionVerdict {
        ResolutionVerdict {
            rcode: out.answer.header.rcode,
            answers: out.answer.answers.iter().map(RRset::len).sum(),
            elapsed: out.elapsed,
            cache_hit: out.cache_hit,
            served_stale: out.served_stale,
            upstream_queries: out.upstream_queries,
        }
    }

    #[test]
    fn the_counted_path_resolves_as_the_materialising_one() {
        use RecordType::{A, AAAA};
        let tape: &[(u64, &str, RecordType)] = &[
            (0, "www.example", A),      // a fresh CNAME chain
            (10, "www.example", A),     // the chain from cache
            (10, "web.example", A),     // a warm hit
            (20, "missing.example", A), // NXDOMAIN
            (25, "missing.example", A), // NXDOMAIN from cache
            (30, "web.example", AAAA),  // NODATA
            (40, "x.example", A),       // a chain ending in NXDOMAIN
            (50, "www.example.org", A), // the out-of-bailiwick NS chase
            (60, "www.big", A),         // truncated over UDP, then TCP
            (70, "web.example", A),     // a TTL-expired miss
            (140, "www.example", A),    // cached alias, expired target
            (150, "www.dead", A),       // cached before the outage
            (300, "www.dead", A),       // expired, its server down
            (305, "www.dead", A),       // again: failure cache, backoff
            (340, "alias.example", A),  // a chain into the dead zone
            (341, "www.dead", A),       // its server in backoff
            (400, "www.dead", A),
        ];
        let policies = [
            ResolverPolicy::default(),
            ResolverPolicy::parent_centric(),
            ResolverPolicy::google_like(),
            ResolverPolicy::serve_stale_like(),
            ResolverPolicy::hardened(),
        ];
        for policy in policies {
            for traced in [false, true] {
                // Through `resolve` (`None`), `resolve_verdict` (`Some(false)`)
                // or `resolve_into` one reused message (`Some(true)`); the
                // messages the first and last hand back.
                let run = |counted: Option<bool>| {
                    let (mut net, hints) = build_tape_world();
                    let mut r = resolver(policy.clone(), hints);
                    r.enable_cache_ledger();
                    if traced {
                        r.set_telemetry(Telemetry::new());
                    }
                    let mut reused = Message::default();
                    let mut messages = Vec::new();
                    let verdicts: Vec<ResolutionVerdict> = tape
                        .iter()
                        .map(|&(at, name, qtype)| {
                            let now = SimTime::from_secs(at);
                            match counted {
                                None => {
                                    let out = r.resolve(&n(name), qtype, now, &mut net);
                                    messages.push(out.answer.clone());
                                    implied(&out)
                                }
                                Some(false) => r.resolve_verdict(&n(name), qtype, now, &mut net),
                                Some(true) => {
                                    let verdict =
                                        r.resolve_into(&n(name), qtype, now, &mut net, &mut reused);
                                    messages.push(reused.clone());
                                    verdict
                                }
                            }
                        })
                        .collect();
                    (r, verdicts, messages)
                };
                let (full, want, messages) = run(None);
                let (counted, got, _) = run(Some(false));
                let (_, into, reused) = run(Some(true));
                let label = format!("{policy:?}, traced {traced}");
                for (step, (want, got)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(got, want, "{label}: step {step} {:?}", tape[step]);
                    assert_eq!(&into[step], want, "{label}: step {step} into");
                    assert_eq!(reused[step], messages[step], "{label}: step {step} message");
                }
                assert_eq!(counted.stats(), full.stats(), "{label}");
                assert_eq!(counted.cache().stats(), full.cache().stats(), "{label}");
                assert_eq!(counted.next_id, full.next_id, "{label}");
                let ledger = |r: &RecursiveResolver| {
                    r.cache()
                        .with_ledger(|l| l.records().cloned().collect::<Vec<_>>())
                };
                assert_eq!(ledger(&counted), ledger(&full), "{label}");
                let (t, u) = (counted.telemetry(), full.telemetry());
                assert_eq!(t.prometheus_text(), u.prometheus_text(), "{label}");
                assert_eq!(t.trace_jsonl(), u.trace_jsonl(), "{label}");

                // The tape reaches every way a question ends.
                let s = full.stats();
                let rcodes: Vec<Rcode> = want.iter().map(|v| v.rcode).collect();
                assert!(rcodes.contains(&Rcode::NxDomain), "{label}");
                assert!(want
                    .iter()
                    .any(|v| v.rcode == Rcode::NoError && v.answers == 0));
                assert!(want.iter().any(|v| v.answers == 40), "{label}");
                assert!(s.cache_hits > 0 && s.tcp_fallbacks > 0, "{label}");
                assert!(rcodes.contains(&Rcode::ServFail), "{label}");
                // A negative or failed answer holds no record, even after
                // a partial CNAME chain (`x.example`, `alias.example`).
                assert!(
                    want.iter()
                        .all(|v| v.rcode == Rcode::NoError || v.answers == 0),
                    "{label}"
                );
                assert_eq!(s.stale_answers > 0, policy.serve_stale.is_some(), "{label}");
                if policy.server_backoff.is_some() {
                    assert!(s.backoff_skips > 0 && s.failure_caches > 0, "{label}");
                }
                if traced {
                    assert!(t.prometheus_text().contains("resolver_answer_ttl_s"));
                }
            }
        }
    }
}
