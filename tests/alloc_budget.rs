//! The resolver's per-question allocation budget, counted exactly.
//!
//! Timings on a shared host drift by tens of percent; allocation
//! counts repeat to the unit, so they are the regression gate for the
//! "read the cache in place" work (DESIGN.md §11, "Resolver loop") that
//! a timing can never be, and for the telemetry-on path (DESIGN.md §8,
//! "Traces"): what a traced hit adds and what the trace export costs.
//! It also holds the Zipf campaign's merge to copying no row
//! (DESIGN.md §10, "Fan-out and merge") and an idle resolver to its
//! label and root hints (DESIGN.md §8, "Handle").
//! Only the counting thread's allocations are counted: the test
//! harness's main thread allocates the first time it waits for a
//! result, which can land inside a counted region.

use dnsttl::atlas::{
    run_measurement, MeasurementSpec, Population, PopulationConfig, QueryName, ZipfDataset, ZipfRow,
};
use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::core::ResolverPolicy;
use dnsttl::netsim::{drive, LatencyModel, Network, Region, SimRng, SimTime};
use dnsttl::resolver::{RecursiveResolver, RootHint};
use dnsttl::telemetry::{EventKind, Telemetry, Value};
use dnsttl::wire::{Message, Name, Rcode, RecordType, Ttl};
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
    // Release builds only, as the miss budget below. Measured: 2 890
    // bytes up to the first answer (the resolver, the walk down from
    // the root, three stores into a new table, the network's recycled
    // response growing its sections) and 76 162 for all 64 names,
    // temporaries included — about 500 a miss and the table's
    // doublings (5 103 and 89 715 while every exchange built its own
    // response and candidate list). The bounds leave 150 % and 29 %
    // headroom; one wheel would put either over its bound.
    if !cfg!(debug_assertions) {
        assert!(after_first < 7_327, "first answer: {after_first} bytes");
        assert!(bytes < 98_130, "all {NAMES} names: {bytes} bytes");
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
    // entry holds, so it keeps its vector, and there is no index to
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
    // allocates only for entries new to the cache, whose data must be
    // copied in; here there are none, since each of its three stores
    // replaces an expired entry with the same data. Measured: 0.
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
    let before = telemetry.events_recorded();
    let ((), hits_on) = allocations(|| hits(&mut resolver, &mut net, false));
    // Measured: 3 000 events and 6 allocations more than with telemetry
    // off — the next 4 096-item blocks of the ring and of the field
    // slots, and the vectors that file the full ones (it was 3 while
    // the ring, the field slots and the spilled strings each doubled
    // once); a hit's qname and its resolver's label are table ids,
    // neither copied nor counted.
    // Measured: 2 000 events — a hit's span start and end; its cache
    // serve is counted, not traced (3 000 while it was) — and 3
    // allocations more than with telemetry off (6 while serves were
    // traced): the ring and its field slots growing into their next
    // blocks. A hit's qname and its resolver's label are table ids,
    // neither copied nor counted. Events per hit is the deterministic
    // proxy for the `telemetry` bench gate's ratio.
    assert_eq!(telemetry.events_recorded() - before, 2_000);
    assert!(
        hits_on <= hits_off + 3,
        "1 000 traced hits allocated {hits_on} times, {hits_off} untraced"
    );
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
    // in its count. Measured: 0 more than the wheel's 260 (two per query
    // more while each answer was a new message and each row a new list).
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
    // Built as it builds them: a formatted label, one root hint, a
    // forked generator; no telemetry attached. Measured: 3 allocations
    // and 94 bytes each — the label, its shared copy and the root
    // hints — where two disabled telemetry handles, each an empty
    // registry and tracer, made it 5 and 2 638.
    const RESOLVERS: usize = 1_000;
    let (_, hints, _) = zipf_shaped_world();
    let mut rng = SimRng::seed_from(42);
    let mut resolvers = Vec::with_capacity(RESOLVERS);
    let ((), allocs) = allocations(|| {
        for i in 0..RESOLVERS {
            resolvers.push(RecursiveResolver::new(
                format!("nl-res-{i}"),
                ResolverPolicy::default(),
                Region::Eu,
                i as u64,
                hints.clone(),
                rng.fork(i as u64),
            ));
        }
    });
    let bytes = bytes_so_far();
    assert_eq!(resolvers.len(), RESOLVERS);
    assert!(
        allocs <= 3 * RESOLVERS as u64,
        "{RESOLVERS} idle resolvers allocated {allocs} times"
    );
    assert!(
        bytes <= 128 * RESOLVERS as u64,
        "{RESOLVERS} idle resolvers asked for {bytes} bytes"
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
