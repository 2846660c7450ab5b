//! The resolver's per-question allocation budget, counted exactly.
//!
//! Timings on a shared host drift by tens of percent; allocation
//! counts repeat to the unit, so they are the regression gate for the
//! "read the cache in place" work (DESIGN.md §11, "Resolver loop") that
//! a timing can never be, and for the telemetry-on path (DESIGN.md §8,
//! "Traces"): what a traced hit adds and what the trace export costs.
//! It also holds the Zipf campaign's merge to copying no row
//! (DESIGN.md §10, "Fan-out and merge"), an idle resolver to its
//! label (DESIGN.md §8, "Handle") and a population to one allocation
//! per resolver (DESIGN.md §15, "A resolver costs what it holds").
//! Only the counting thread's allocations are counted: the test
//! harness's main thread allocates the first time it waits for a
//! result, which can land inside a counted region.

use dnsttl::atlas::{
    run_measurement, run_zipf_campaign, MeasurementSpec, Population, PopulationConfig, QueryName,
    ZipfCampaignConfig, ZipfDataset, ZipfRow, ZipfRunOpts,
};
use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::core::ResolverPolicy;
use dnsttl::experiments::worlds::{addrs, cachetest_world};
use dnsttl::netsim::{
    drive, ClientId, DnsService, ExchangeOutcome, LatencyModel, Network, Region, SimDuration,
    SimRng, SimTime,
};
use dnsttl::resolver::{Cache, Credibility, Labels, RecursiveResolver, RootHint};
use dnsttl::telemetry::{EventKind, Telemetry, Value};
use dnsttl::wire::{Message, Name, RData, RRset, Rcode, RecordType, Ttl};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;

thread_local! {
    /// Set on the thread whose allocations are being counted. A
    /// `const`-initialised `Cell` needs no allocation and no lazy
    /// registration, so reading it from inside the allocator is safe.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// The counted thread's allocator calls and requested bytes, kept
    /// per thread (and `const`-initialised, like `ON`) so tests that
    /// count at the same time do not add to each other's totals.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Adds one allocator call asking for `bytes` more bytes, when the
/// calling thread is being counted.
fn count(bytes: usize) {
    if ON.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + bytes as u64));
    }
}

/// Bytes the counting thread has asked for since counting started.
fn bytes_so_far() -> u64 {
    BYTES.with(Cell::get)
}

/// The system allocator, counting the calls the counted thread makes
/// and the bytes they ask for (the shape of `benchmark/src/alloc.rs`,
/// which this package cannot import).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: the bytes a `realloc` asks for beyond what it had.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how many times it called the allocator.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// Runs `f` and returns how many bytes it asked the allocator for.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, _) = allocations(f);
    (out, bytes_so_far())
}

const NAMES: usize = 64;
const RECORD_TTL_S: u32 = 60;

/// Trace JSONL bytes that 1 000 traced warm hits over the 64 names
/// export: their 2 000 span starts and ends, about 125 bytes each.
const TRACED_HIT_BYTES: usize = 250_840;

/// Cache ledger line bytes of those hits' 1 000 `serve` records, about
/// 165 bytes each. A line carries the entry's store time and
/// transaction id, and release builds run the expired-miss checks
/// before the hits, which store every entry again later.
const LEDGERED_HIT_BYTES: usize = if cfg!(debug_assertions) {
    167_001
} else {
    164_840
};

/// The Zipf campaigns' world (`atlas/src/scale.rs`): a root delegating
/// `zipf` to one child server holding an `A` record per name.
fn zipf_shaped_world() -> (Network, Vec<RootHint>, Vec<Name>) {
    let root_addr: IpAddr = "198.41.0.4".parse().unwrap();
    let child_addr: IpAddr = "192.0.2.53".parse().unwrap();
    let root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("zipf", "ns.zipf", Ttl::TWO_DAYS)
            .a("ns.zipf", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    let mut zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR).a(
        "ns.zipf",
        "192.0.2.53",
        Ttl::HOUR,
    );
    let mut names = Vec::with_capacity(NAMES);
    for k in 0..NAMES {
        let owner = format!("r{k}.zipf");
        zone = zone.a(&owner, &format!("10.0.0.{k}"), Ttl::from_secs(RECORD_TTL_S));
        names.push(Name::parse(&owner).unwrap());
    }
    let child = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
    let hints = vec![RootHint {
        ns_name: Name::parse("root").unwrap(),
        addr: root_addr,
    }];
    (net, hints, names)
}

/// A root delegating `tri` to three name servers with glue, and the
/// child answering an `A` record per name: the root's referral carries
/// four keys, the NS set and three addresses.
fn three_server_world() -> (Network, Vec<RootHint>, Vec<Name>) {
    let root_addr: IpAddr = "198.41.0.4".parse().unwrap();
    let child_addr: IpAddr = "192.0.2.53".parse().unwrap();
    let mut root = ZoneBuilder::new(".");
    let mut child = ZoneBuilder::new("tri");
    for server in ["a.ns.tri", "b.ns.tri", "c.ns.tri"] {
        root = (root.ns("tri", server, Ttl::TWO_DAYS)).a(server, "192.0.2.53", Ttl::TWO_DAYS);
        child = (child.ns("tri", server, Ttl::DAY)).a(server, "192.0.2.53", Ttl::DAY);
    }
    let mut names = Vec::with_capacity(NAMES);
    for k in 0..NAMES {
        let owner = format!("r{k}.tri");
        child = child.a(&owner, &format!("10.0.1.{k}"), Ttl::DAY);
        names.push(Name::parse(&owner).unwrap());
    }
    let mut net = Network::new(LatencyModel::constant(5.0));
    let root = AuthoritativeServer::new("root").with_zone(root.build());
    let child = AuthoritativeServer::new("ns.tri").with_zone(child.build());
    net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
    let hints = vec![RootHint {
        ns_name: Name::parse("root").unwrap(),
        addr: root_addr,
    }];
    (net, hints, names)
}

#[test]
fn a_question_stays_inside_its_allocation_budget() {
    let (mut net, hints, names) = zipf_shaped_world();
    // What a resolver costs to have: built, and every name fetched
    // once. Its cache is unbounded, so it is an entry table and no
    // expiry index — a timing wheel's 4 × 256 empty slot headers are
    // 24 576 bytes, asked for by the first store.
    let mut after_first = 0;
    let (mut resolver, bytes) = bytes_requested(|| {
        let mut resolver = RecursiveResolver::new(
            "budget",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            hints,
            SimRng::seed_from(42),
        );
        for (k, name) in names.iter().enumerate() {
            let out = resolver.resolve(name, RecordType::A, SimTime::ZERO, &mut net);
            assert_eq!(out.answer.header.rcode, Rcode::NoError);
            assert!(!out.cache_hit);
            if k == 0 {
                after_first = bytes_so_far();
            }
        }
        resolver
    });
    // Release builds only, as the miss budget below. Measured: 1 700
    // bytes up to the first answer (the walk down from the root, three
    // stores into a table sized by the first referral, the network's
    // recycled response growing its sections) and 49 900 for all 64
    // names, temporaries and the table's doublings included; each
    // bound leaves a quarter of headroom (1 754 and 49 954 while the
    // resolver copied its label and root hints; 2 890 and 76 162 while
    // each entry kept its own vector and an `RData` was 80 bytes;
    // 5 103 and 89 715 while every exchange built its own response and
    // candidate list). One wheel would put either over its bound.
    if !cfg!(debug_assertions) {
        assert!(after_first < 2_125, "first answer: {after_first} bytes");
        assert!(bytes < 62_375, "all {NAMES} names: {bytes} bytes");
    }
    // Warm-up: every name served once, so tables and vectors have
    // reached their working size.
    for name in &names {
        let out = resolver.resolve(name, RecordType::A, SimTime::from_secs(1), &mut net);
        assert!(out.cache_hit);
    }

    // A warm hit: the answer message's records; its question is
    // inline. Measured: 1 for every name.
    for name in &names {
        let (out, allocs) =
            allocations(|| resolver.resolve(name, RecordType::A, SimTime::from_secs(2), &mut net));
        assert!(out.cache_hit);
        assert_eq!(allocs, 1, "warm hit for {name}");
    }

    // The same hit into a message the caller reuses: its answer section
    // kept its capacity from the first, so nothing is allocated. This
    // is the probe loop's path (`run_measurement`). Measured: 0 for
    // every name.
    let mut reused = Message::default();
    resolver.resolve_into(
        &names[0],
        RecordType::A,
        SimTime::from_secs(2),
        &mut net,
        &mut reused,
    );
    for name in &names {
        let (verdict, allocs) = allocations(|| {
            resolver.resolve_into(
                name,
                RecordType::A,
                SimTime::from_secs(2),
                &mut net,
                &mut reused,
            )
        });
        assert!(verdict.cache_hit && verdict.answers == 1);
        assert_eq!(reused.answers.len(), 1);
        assert_eq!(allocs, 0, "warm hit into a reused message for {name}");
    }

    // The same hit for a caller that reads only the verdict: no message
    // and no record is built. Measured: 0 for every name.
    for name in &names {
        let (verdict, allocs) = allocations(|| {
            resolver.resolve_verdict(name, RecordType::A, SimTime::from_secs(2), &mut net)
        });
        assert!(verdict.cache_hit && verdict.answers == 1);
        assert_eq!(allocs, 0, "counted warm hit for {name}");
    }

    // A TTL-expired miss: one exchange with the child (the delegation
    // is still cached), its response ingested, the answer rebuilt from
    // the cache. Release builds only — in debug builds the exchange
    // path's `debug_assert!` encodes and decodes every message.
    // Measured: 1 for every name, the client answer's records, which
    // are handed on. The candidate addresses are inline; the child
    // fills the network's recycled response, whose sections kept their
    // capacity from the warm-up, and the resolver hands it back.
    // Questions are inline, the NS targets' addresses are read in place
    // and the sets are read from the response where they lie. The store
    // allocates nothing: the refetched data is the data the expired
    // entry holds, so it keeps its members, and there is no index to
    // grow.
    #[cfg(not(debug_assertions))]
    for name in &names {
        let later = SimTime::from_secs(2 + RECORD_TTL_S as u64);
        let (out, allocs) = allocations(|| resolver.resolve(name, RecordType::A, later, &mut net));
        assert!(!out.cache_hit);
        assert_eq!(out.upstream_queries, 1);
        assert_eq!(allocs, 1, "expired miss for {name}");
    }
    // Counted, the client answer's records are not built. Measured: 0
    // for every name.
    #[cfg(not(debug_assertions))]
    for name in &names {
        let later = SimTime::from_secs(4 + 2 * RECORD_TTL_S as u64);
        let (verdict, allocs) =
            allocations(|| resolver.resolve_verdict(name, RecordType::A, later, &mut net));
        assert!(!verdict.cache_hit);
        assert_eq!(verdict.upstream_queries, 1);
        assert_eq!(allocs, 0, "counted expired miss for {name}");
    }
    // Past the root's two-day delegation the `zipf` NS set and its glue
    // have expired too: a miss is a referral from the root, then the
    // answer from the child, both in the one recycled message. It
    // allocates only for entries new to the cache whose data must be
    // copied onto the heap (a set of two or more); here there are no
    // new entries, since each of its three stores replaces an expired
    // entry with the same data. Measured: 0.
    #[cfg(not(debug_assertions))]
    {
        let past_delegation = SimTime::from_secs(2 * 86_400 + 3_600);
        let before = resolver.cache().stats();
        let (verdict, allocs) = allocations(|| {
            resolver.resolve_verdict(&names[0], RecordType::A, past_delegation, &mut net)
        });
        let after = resolver.cache().stats();
        assert!(!verdict.cache_hit);
        assert_eq!(verdict.upstream_queries, 2, "a referral, then the answer");
        assert_eq!(after.expiries - before.expiries, 3, "NS, glue and answer");
        let new_entries = (after.inserts - before.inserts) - (after.expiries - before.expiries);
        assert_eq!(allocs, new_entries, "expired-delegation miss");
    }

    // ── the enabled path ────────────────────────────────────────────
    // A disabled handle owns nothing: no registry, no tracer, no `Rc`
    // (every resolver and every cache starts with one). It was a
    // 1 272-byte block while it held an empty registry and tracer.
    let (off, allocs) = allocations(Telemetry::disabled);
    assert_eq!(allocs, 0, "Telemetry::disabled() allocated {allocs} times");
    assert_eq!(bytes_so_far(), 0, "a disabled handle asked for bytes");
    drop(off);

    // 1 000 warm hits, telemetry off and then on, through each entry
    // point. The enabled handle is warmed first, so its metric series
    // exist.
    let hits = |resolver: &mut RecursiveResolver, net: &mut Network, counted: bool| {
        for name in names.iter().cycle().take(1_000) {
            let now = SimTime::from_secs(2);
            let hit = if counted {
                resolver
                    .resolve_verdict(name, RecordType::A, now, net)
                    .cache_hit
            } else {
                resolver.resolve(name, RecordType::A, now, net).cache_hit
            };
            assert!(hit);
        }
    };
    let ((), hits_off) = allocations(|| hits(&mut resolver, &mut net, false));
    let ((), counted_off) = allocations(|| hits(&mut resolver, &mut net, true));
    assert_eq!(counted_off, 0, "1 000 counted hits allocated");
    let telemetry = Telemetry::new();
    resolver.set_telemetry(telemetry.clone());
    hits(&mut resolver, &mut net, false);
    let (before, exported) = (telemetry.events_recorded(), telemetry.trace_jsonl().len());
    let ((), hits_on) = allocations(|| hits(&mut resolver, &mut net, false));
    // Measured: 2 000 events — a hit's span start and end; its cache
    // serve is counted, not traced (3 000 while it was) — and 3
    // allocations more than with telemetry off (6 while serves were
    // traced): the ring and its field slots growing into their next
    // blocks. A hit's qname and its resolver's label are table ids,
    // neither copied nor counted. Events, exported bytes and
    // allocations per traced hit are what the observer costs, counted:
    // a hit that writes a field twice fails the byte count.
    assert_eq!(telemetry.events_recorded() - before, 2_000);
    assert!(
        hits_on <= hits_off + 3,
        "1 000 traced hits allocated {hits_on} times, {hits_off} untraced"
    );
    let hit_bytes = telemetry.trace_jsonl().len() - exported;
    assert_eq!(hit_bytes, TRACED_HIT_BYTES, "1 000 traced hits exported");
    // Counted, a traced hit records the same events and builds no
    // record: the answer-TTL sketch reads the TTLs it keeps inline, so
    // it adds only what the trace adds to the untraced counted hits
    // (0). Measured: 3 — the same ring and field-slot blocks, where it
    // was 1 003 while the counted path kept each answer's records for
    // the sketch. A new handle, warmed as the one above, puts the
    // counted hits at the same ring positions.
    let telemetry = Telemetry::new();
    resolver.set_telemetry(telemetry.clone());
    hits(&mut resolver, &mut net, true);
    let before = telemetry.events_recorded();
    let ((), counted_on) = allocations(|| hits(&mut resolver, &mut net, true));
    assert_eq!(telemetry.events_recorded() - before, 2_000);
    assert!(
        counted_on <= counted_off + 3,
        "1 000 counted traced hits allocated {counted_on} times, {counted_off} untraced"
    );

    // Fully observed — trace and cache ledger — as a resolver under
    // `sdig --trace` runs: each hit adds one `serve` record to the
    // ledger and nothing to the trace.
    resolver.enable_cache_ledger();
    let telemetry = Telemetry::new();
    resolver.set_telemetry(telemetry.clone());
    hits(&mut resolver, &mut net, false);
    let (before, exported) = (telemetry.events_recorded(), telemetry.trace_jsonl().len());
    let journalled = |resolver: &RecursiveResolver| -> (u64, usize) {
        resolver
            .cache()
            .with_ledger(|l| {
                (
                    l.total_recorded(),
                    l.records().map(|r| r.to_line().len()).sum(),
                )
            })
            .expect("ledger enabled")
    };
    let (records, lines) = journalled(&resolver);
    hits(&mut resolver, &mut net, false);
    assert_eq!(telemetry.events_recorded() - before, 2_000);
    assert_eq!(telemetry.trace_jsonl().len() - exported, TRACED_HIT_BYTES);
    let (records_after, lines_after) = journalled(&resolver);
    assert_eq!(
        records_after - records,
        1_000,
        "ledger records of 1 000 hits"
    );
    assert_eq!(
        lines_after - lines,
        LEDGERED_HIT_BYTES,
        "ledger lines of 1 000 hits"
    );

    // The export: one buffer, however many events it renders.
    let traced = |events: u64| {
        let t = Telemetry::new();
        let qname: Arc<str> = Arc::from("r7.zipf.");
        for i in 0..events {
            t.event(i, EventKind::CacheServe, |f| {
                f.push("n", qname.clone());
                f.push("ty", Value::literal("A"));
                f.push("tx", i);
                f.push("sv", "192.0.2.53".parse::<IpAddr>().unwrap());
                f.push("fp", Value::Hex64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            });
        }
        // The trace holds the name once — the table's reference —
        // however many events carry it.
        assert_eq!(Arc::strong_count(&qname), 2);
        t
    };
    for events in [1_000, 10_000] {
        let t = traced(events);
        let (jsonl, allocs) = allocations(|| t.trace_jsonl());
        assert_eq!(jsonl.lines().count() as u64, events);
        // Measured: 1, the pre-sized buffer (as before the export
        // copied fragments).
        assert!(
            allocs <= 4,
            "exporting {events} events allocated {allocs} times"
        );
    }
}

#[test]
fn a_cached_set_goes_to_the_heap_only_past_one_member() {
    // Straight into a cache: data that replaces what a key holds is
    // taken in, a lone address into the entry's own slot and a
    // three-member NS set by sharing the block the set already has.
    // Measured: 0 for the 64 addresses and 0 for the NS set (64 and 1
    // while every entry kept a vector, 0 and 1 while the cache copied
    // a set's members into a block of its own).
    let policy = ResolverPolicy::default();
    let (_, _, names) = zipf_shaped_world();
    let address = |name: &Name, last: u8| {
        RRset::new(
            name.clone(),
            RecordType::A,
            Ttl::from_secs(RECORD_TTL_S),
            RData::A([10, 0, 0, last].into()),
        )
    };
    let servers = |names: [&str; 3]| {
        RRset::new(
            Name::parse("zipf").unwrap(),
            RecordType::NS,
            Ttl::HOUR,
            names.map(|n| RData::Ns(Name::parse(n).unwrap())).to_vec(),
        )
    };
    let mut cache = Cache::new();
    let rank = Credibility::AuthAnswer;
    for name in &names {
        cache.store(address(name, 1), rank, SimTime::ZERO, &policy, false);
    }
    cache.store(
        servers(["a.zipf", "b.zipf", "c.zipf"]),
        rank,
        SimTime::ZERO,
        &policy,
        false,
    );
    let renumbered: Vec<RRset> = names.iter().map(|name| address(name, 2)).collect();
    let now = SimTime::from_secs(1);
    let ((), allocs) = allocations(|| {
        for set in renumbered {
            cache.store(set, rank, now, &policy, false);
        }
    });
    assert_eq!(allocs, 0, "{NAMES} renumbered addresses allocated");
    let moved = servers(["d.zipf", "e.zipf", "f.zipf"]);
    let ((), allocs) = allocations(|| cache.store(moved, rank, now, &policy, false));
    assert_eq!(allocs, 0, "a new three-member NS set");
    assert_eq!(cache.stats().overwrites, NAMES as u64 + 1);

    // Through a resolver, whose stores share each set of the response
    // that carried it. A root delegating `tri` to three name servers
    // with glue, and the child answering an `A` record per name: a
    // cold miss stores a three-member NS set (the zone's block, shared)
    // and four one-member `A` sets (none), a miss below the cached
    // delegation one `A` set (none). The cache is flushed after a
    // first pass, so its table has room for every key. Release builds
    // only, as the other miss budgets. Measured: 0 and 0 (5 and 1
    // while every entry kept a vector, 1 and 0 while the resolver
    // copied a response's multi-member sets).
    let (mut net, hints, names) = three_server_world();
    let mut resolver = RecursiveResolver::new(
        "sets",
        ResolverPolicy::default(),
        Region::Eu,
        1,
        hints,
        SimRng::seed_from(42),
    );
    let misses = |resolver: &mut RecursiveResolver, net: &mut Network| {
        names
            .iter()
            .map(|name| {
                let (verdict, allocs) = allocations(|| {
                    resolver.resolve_verdict(name, RecordType::A, SimTime::ZERO, net)
                });
                assert!(!verdict.cache_hit && verdict.answers == 1);
                (verdict.upstream_queries, allocs)
            })
            .collect::<Vec<_>>()
    };
    misses(&mut resolver, &mut net);
    resolver.clear_cache();
    let counted = misses(&mut resolver, &mut net);
    assert_eq!(counted[0].0, 2, "a referral, then the answer");
    assert!(counted[1..].iter().all(|&(queries, _)| queries == 1));
    if !cfg!(debug_assertions) {
        assert_eq!(
            counted[0].1, 0,
            "a cold miss through a three-server referral"
        );
        for (name, &(_, allocs)) in names.iter().zip(&counted).skip(1) {
            assert_eq!(allocs, 0, "a miss for {name} below the cached delegation");
        }
    }
}

#[test]
fn cold_resolvers_share_the_ns_set_of_one_referral() {
    // Sixteen resolvers each ask a name under `tri` with a cold cache:
    // each takes the root's referral to three servers and stores its
    // NS set. The set's members are the block the root zone allocated,
    // carried by the response and shared by every cache, so no
    // resolver allocates for them. A first pass grows each cache's
    // table and a flush empties it, so the count is of a cold miss
    // alone. Release builds only, as the other miss budgets. Measured:
    // 0 per resolver (1 while every resolver copied the set's members
    // out of the response).
    const RESOLVERS: u64 = 16;
    let (mut net, hints, names) = three_server_world();
    let hints: Arc<[RootHint]> = hints.into();
    let mut resolvers: Vec<RecursiveResolver> = (0..RESOLVERS)
        .map(|k| {
            let label = format!("cold-{k}");
            let rng = SimRng::seed_from(k);
            RecursiveResolver::new(
                label,
                ResolverPolicy::default(),
                Region::Eu,
                k,
                hints.clone(),
                rng,
            )
        })
        .collect();
    let ask = |r: &mut RecursiveResolver, net: &mut Network| {
        r.resolve_verdict(&names[0], RecordType::A, SimTime::ZERO, net)
    };
    for resolver in &mut resolvers {
        ask(resolver, &mut net);
        resolver.clear_cache();
    }
    let per_resolver: Vec<u64> = resolvers
        .iter_mut()
        .map(|resolver| {
            let (verdict, allocs) = allocations(|| ask(resolver, &mut net));
            assert_eq!((verdict.upstream_queries, verdict.answers), (2, 1));
            allocs
        })
        .collect();
    let tri = Name::parse("tri").unwrap();
    let held: Vec<RRset> = resolvers
        .iter()
        .map(|r| {
            r.cache()
                .get(&tri, RecordType::NS, SimTime::ZERO)
                .expect("cached")
                .rrset
        })
        .collect();
    assert!(
        held.iter()
            .all(|set| set.len() == 3 && set.rdatas.ptr_eq(&held[0].rdatas)),
        "one block in every cache: {held:?}"
    );
    if !cfg!(debug_assertions) {
        assert_eq!(per_resolver, [0; RESOLVERS as usize]);
    }
}

#[test]
fn a_negative_answer_shares_its_zone_soa() {
    // NXDOMAIN and NODATA carry the zone's SOA in their authority
    // section. The zone holds its SOA data behind an `Arc` and its
    // record hands out another reference, so an answer written into a
    // message that kept its capacity allocates nothing. Measured: 0
    // for each (it would be one block per answer if each SOA record
    // boxed a copy of the data).
    let mut server = AuthoritativeServer::new("ns.zipf").with_zone(
        ZoneBuilder::new("zipf")
            .ns("zipf", "ns.zipf", Ttl::HOUR)
            .a("ns.zipf", "192.0.2.53", Ttl::HOUR)
            .build(),
    );
    let client = ClientId {
        region: Region::Eu,
        tag: 7,
    };
    let mut response = Message::default();
    for (qname, qtype, rcode) in [
        ("absent.zipf", RecordType::A, Rcode::NxDomain),
        ("ns.zipf", RecordType::AAAA, Rcode::NoError),
    ] {
        let query = Message::query(1, Name::parse(qname).unwrap(), qtype);
        server.respond_into(&query, client, SimTime::ZERO, &mut response);
        let ((), allocs) =
            allocations(|| server.respond_into(&query, client, SimTime::ZERO, &mut response));
        assert_eq!(response.header.rcode, rcode, "{qname} {qtype}");
        assert!(response.answers.is_empty());
        assert_eq!(response.authorities.len(), 1);
        assert_eq!(response.authorities[0].rtype, RecordType::SOA);
        assert_eq!(allocs, 0, "{rcode:?} for {qname} {qtype}");
    }

    // A §4 cachetest VM, reached through its world's network, answers
    // NODATA for a type it does not serve, with the SOA data it built
    // once: two answers hold the same data, and the second, into the
    // recycled message, allocates nothing. Release builds only for the
    // count, as the miss budgets: in debug builds an exchange
    // round-trips every message through the codec. Measured: 0 (one
    // block per answer while each boxed a new copy of the data).
    let mut world = cachetest_world(false);
    let query = Message::query(
        1,
        Name::parse("x.sub.cachetest.net").unwrap(),
        RecordType::TXT,
    );
    let mut rng = SimRng::seed_from(7);
    let mut ask = |net: &mut Network| loop {
        let sent = net.exchange(
            Region::Eu,
            7,
            addrs::SUB_OLD,
            &query,
            SimTime::ZERO,
            &mut rng,
        );
        // The world's links drop packets: ask until one is answered.
        if let ExchangeOutcome::Response { message, .. } = sent {
            return message;
        }
    };
    let soa_of = |m: &Message| match &m.authorities[..] {
        [set] => match &set.rdatas[..] {
            [RData::Soa(data)] => Arc::clone(data),
            other => panic!("an SOA, not {other:?}"),
        },
        other => panic!("one authority set, not {other:?}"),
    };
    let first = ask(&mut world.net);
    assert_eq!(first.header.rcode, Rcode::NoError);
    assert!(first.answers.is_empty());
    let held = soa_of(&first);
    world.net.recycle(first);
    let (second, allocs) = allocations(|| ask(&mut world.net));
    assert!(
        Arc::ptr_eq(&held, &soa_of(&second)),
        "each NODATA from the VM carries a new copy of its SOA data"
    );
    if !cfg!(debug_assertions) {
        assert_eq!(allocs, 0, "NODATA from the cachetest VM");
    }
}

#[test]
fn a_warm_probe_loop_allocates_nothing_per_query() {
    // `run_measurement` over a `.uy`-shaped world whose every TTL is a
    // day, for one hour and then for two from the same seed: the second
    // hour is warm hits only. Each answer lands in the one message the
    // loop reuses and each row shares a stored answer list (the child's
    // two servers, or the root's one for a parent-centric cache), so that
    // hour adds no allocation of its own. What it does add is the event
    // wheel's, whose timers reach slots the first hour never used: a
    // bare `drive` over the same start times counts those. The two runs
    // also differ in the size of the dataset's one pre-sized buffer, not
    // in its count. Measured: 0 more than the wheel's 7 (two per query
    // more while each answer was a new message and each row a new list).
    // The wheel's hour was 260 while each bucket allocated its own
    // buffer the first time its slot came round; a bucket now takes the
    // buffer of one a cascade drained.
    let campaign = |hours: u64| {
        let root_addr: IpAddr = "198.41.0.4".parse().unwrap();
        let child_addr: IpAddr = "192.0.2.53".parse().unwrap();
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
                .a("a.nic.uy", "192.0.2.53", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("a.nic.uy").with_zone(
            ZoneBuilder::new("uy")
                .ns("uy", "a.nic.uy", Ttl::DAY)
                .ns("uy", "b.nic.uy", Ttl::DAY)
                .a("a.nic.uy", "192.0.2.53", Ttl::DAY)
                .a("b.nic.uy", "192.0.2.53", Ttl::DAY)
                .build(),
        );
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        net.register(child_addr, Region::Sa, Rc::new(RefCell::new(child)));
        let hints = vec![RootHint {
            ns_name: Name::parse("root").unwrap(),
            addr: root_addr,
        }];
        let mut rng = SimRng::seed_from(42);
        let mut population = Population::build(&PopulationConfig::small(200), &hints, &mut rng);
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            hours,
        );
        // The start times the campaign draws first, one per vantage
        // point (a probe's resolver slot), through the same schedule.
        let mut phases = rng.clone();
        let vps: usize = population.probes.iter().map(|p| p.resolvers.len()).sum();
        let starts: Vec<SimTime> = (0..vps)
            .map(|_| SimTime::from_millis(phases.below(spec.frequency.as_millis())))
            .collect();
        let ((), wheel) =
            allocations(|| drive(starts, SimTime::ZERO + spec.duration, |_, _| spec.frequency));
        let (dataset, allocs) =
            allocations(|| run_measurement(&spec, &mut population, &mut net, &mut rng));
        (dataset, allocs, wheel)
    };
    let (one, one_hour, one_hour_wheel) = campaign(1);
    let (two, two_hours, two_hours_wheel) = campaign(2);
    assert_eq!(two.len(), 2 * one.len());
    let second_hour = &two.results()[one.len()..];
    assert!(second_hour.iter().all(|r| r.cache_hit && r.valid));
    let wheel = two_hours_wheel - one_hour_wheel;
    assert!(
        wheel <= 64,
        "the wheel's second hour allocated {wheel} times"
    );
    assert_eq!(
        two_hours - one_hour,
        wheel,
        "{} warm queries added {} allocations, the wheel {wheel}",
        second_hour.len(),
        two_hours - one_hour,
    );
}

#[test]
fn an_idle_resolver_holds_little_more_than_its_label_and_root_hints() {
    // `passive_nl` builds all 205 k `.nl` resolvers before the first
    // demand, so what an idle one asks for is multiplied 205 k times.
    // Built as it builds them: one shared copy of the root hints and of
    // each policy, every label formatted through one buffer, a forked
    // generator; no telemetry attached. Measured: 1 002 allocations and
    // 31 936 bytes for 1 000 — each label's shared copy, and the
    // buffer's first two blocks. It was 3 allocations and 94 bytes
    // each while every resolver formatted its label into a `String`
    // and copied it, and copied the root hints; 5 and 2 638 while it
    // also held two disabled telemetry handles, each an empty registry
    // and tracer.
    const RESOLVERS: usize = 1_000;
    let (_, hints, _) = zipf_shaped_world();
    let roots: Arc<[RootHint]> = hints.into();
    let policy = Arc::new(ResolverPolicy::default());
    let mut labels = Labels::default();
    let mut rng = SimRng::seed_from(42);
    let mut resolvers = Vec::with_capacity(RESOLVERS);
    let ((), allocs) = allocations(|| {
        for i in 0..RESOLVERS {
            resolvers.push(RecursiveResolver::new(
                labels.format(format_args!("nl-res-{i}")),
                policy.clone(),
                Region::Eu,
                i as u64,
                roots.clone(),
                rng.fork(i as u64),
            ));
        }
    });
    let bytes = bytes_so_far();
    assert_eq!(resolvers.len(), RESOLVERS);
    assert!(
        allocs <= RESOLVERS as u64 + 2,
        "{RESOLVERS} idle resolvers allocated {allocs} times"
    );
    assert!(
        bytes <= 34 * RESOLVERS as u64,
        "{RESOLVERS} idle resolvers asked for {bytes} bytes"
    );
}

#[test]
fn a_population_allocates_once_per_resolver_and_never_per_probe() {
    // `Population::build` over 1 000 probes: every resolver shares the
    // root hints and its policy and formats its label through one
    // buffer, and a probe's resolver slots and link RTTs sit inline.
    // What is left is a label per resolver and a constant: the shared
    // values, the growing resolver list, the probe list, one backend
    // list per public service. Measured: 1 366 resolvers, 1 397
    // allocations. It was 3 per resolver (the label twice, the root
    // hints) and 2 per probe (its two slot vectors).
    const PROBES: usize = 1_000;
    let (mut net, hints, names) = three_server_world();
    let mut rng = SimRng::seed_from(42);
    let (mut population, allocs) =
        allocations(|| Population::build(&PopulationConfig::small(PROBES), &hints, &mut rng));
    let resolvers = population.resolvers.len() as u64;
    assert!(
        allocs <= resolvers + 64,
        "{PROBES} probes and {resolvers} resolvers allocated {allocs} times"
    );

    // A cold resolver's first referral, from the root, stores four keys
    // (the `tri` NS set and three addresses): its entry table is sized
    // for them in one step, where growing one insert at a time took a
    // block for four buckets and then one for eight. The difference
    // from the same question asked again after a flush — the table
    // kept its size, everything else is the same — is that one block.
    // Another resolver warms the network's recycled message first.
    // Measured: 2 and then 1 in release builds (the NS set's block
    // both times), 23 and 22 in debug builds, whose exchanges
    // round-trip every message through the codec.
    let ask = |resolver: &mut RecursiveResolver, net: &mut Network| {
        let (verdict, allocs) =
            allocations(|| resolver.resolve_verdict(&names[0], RecordType::A, SimTime::ZERO, net));
        assert!(!verdict.cache_hit && verdict.answers == 1);
        assert_eq!(verdict.upstream_queries, 2, "a referral, then the answer");
        allocs
    };
    let plain = |r: &RecursiveResolver| !r.policy().sticky;
    let mut locals = population.resolvers.iter_mut().filter(|r| plain(r));
    let warm = locals.next().expect("a resolver without sticky state");
    ask(warm, &mut net);
    let cold = locals.next().expect("a second one");
    assert!(cold.cache().is_empty());
    let first = ask(cold, &mut net);
    cold.clear_cache();
    let again = ask(cold, &mut net);
    assert_eq!(first - again, 1, "the table's growths on a first referral");
}

#[test]
fn a_zipf_cell_costs_the_same_whatever_the_name_count() {
    // A campaign builds its `zipf` zone once and every cell serves that
    // one: what a cell allocates (its root zone, servers, network,
    // resolvers, frame and wheel) does not grow with the names. One
    // probe a cell and a campaign that lasts no time: every cell builds
    // its world and nothing fires. Everything the campaign builds once
    // cancels in the difference between 16 cells and 4. Measured: 516
    // for the 12 more cells over either name count (570 while every
    // resolver copied its label and root hints), where it was 2 442
    // over 64 names and 50 118 over 2 048 while every cell built its
    // own zone (two allocations per owner: its node's RRset list and
    // the RRset).
    let extra_cells = |names: usize| {
        let campaign = |cells: usize| {
            let cfg = ZipfCampaignConfig {
                probes: cells,
                names,
                cells,
                duration: SimDuration::ZERO,
                ..ZipfCampaignConfig::small(cells)
            };
            let (outcome, allocs) =
                allocations(|| run_zipf_campaign(&cfg, 42, &ZipfRunOpts::default()));
            assert_eq!(outcome.resolvers, cells * cfg.resolvers_per_cell);
            assert!(outcome.dataset.is_empty());
            allocs
        };
        campaign(16) - campaign(4)
    };
    let (few, many) = (extra_cells(64), extra_cells(2_048));
    assert_eq!(
        few, many,
        "12 more cells allocated {few} times over 64 names, {many} over 2 048"
    );
}

#[test]
fn merging_zipf_cells_copies_no_row() {
    // Four cells of 10 000 rows each, as `run_zipf_campaign` hands them
    // over. The merge rebases their resolvers in place and keeps every
    // cell's vector: what it asks for is the list of runs, not the
    // 1.28 MB a merged copy of the rows would take.
    let parts: Vec<(ZipfDataset, u32)> = (0..4u32)
        .map(|cell| {
            let rows: Vec<ZipfRow> = (0..10_000u32)
                .map(|i| ZipfRow {
                    at_ms: u64::from(i) * 7 + u64::from(cell),
                    probe: cell * 10_000 + i,
                    rank: i % 64,
                    resolver: i % 4,
                    rtt_ms: 20,
                    cache_hit: i % 3 != 0,
                    ok: true,
                })
                .collect();
            (ZipfDataset::from(rows), cell * 4)
        })
        .collect();
    let (merged, bytes) = bytes_requested(|| ZipfDataset::merge_cells(parts));
    assert_eq!(merged.len(), 40_000);
    assert!(
        bytes < 1_024,
        "merging 4 x 10 000 rows asked for {bytes} bytes"
    );
}
