//! Hot-path micro-benchmarks for the structures the churn profile is
//! dominated by: `Name` comparison/hashing (cache keys, expiry-index
//! ordering) and bounded-cache eviction at realistic capacities.
//!
//! `name_compare`/`name_hash` run on deep names (six labels, mixed
//! case) because that is where the old per-label `Vec<String>`
//! representation paid one allocation per label per operation; the
//! compact representation must make both allocation-free.
//! `cache_evict` stores a rolling working set twice the cache capacity,
//! so every store past warm-up evicts — the worst case the expiry index
//! turns from an O(n) scan into an O(log n) pop.
//!
//! The `wheel_*`/`expiry_pop` benches isolate the timing wheel itself
//! against the `BTreeSet` it replaced, at the same entry counts as
//! `cache_evict`: `wheel_insert` is one steady-state schedule+cancel
//! pair, `expiry_pop` a pop-and-reschedule cycle over TTL-shaped
//! near-term times, and `wheel_cascade` the same cycle over times
//! spread so wide that nearly every pop re-bins a coarse slot.
//!
//! `zone_lookup/*` is the authoritative side of a cache miss:
//! `Zone::lookup` for an answer, a referral and an NXDOMAIN in zones of
//! 64, 2 048 and 32 768 owner names. The zone index is a hash map, so
//! each row should read the same at every size.
//!
//! `exchange/*` is the layer between them: one `Network::exchange_with`
//! against an authoritative of the Zipf campaigns' shape (2 048 `A`
//! names under `zipf`), for an answer that fits UDP, one that UDP
//! truncates, and the same one carried whole over TCP. The exchange
//! passes messages by reference and asks the codec only for their
//! lengths, so these rows are `handle_query` plus two length passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{LatencyModel, Network, Region, SimRng, SimTime, TimingWheel, Transport};
use dnsttl_resolver::{Cache, Credibility};
use dnsttl_wire::{Message, Name, RData, RRset, RecordType, Ttl};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::net::IpAddr;
use std::rc::Rc;

/// Deep, mixed-case names: equality and order must case-fold every
/// label, so these are the expensive comparisons, not `uy.` vs `uy.`.
fn deep_names() -> Vec<Name> {
    (0..64)
        .map(|i| {
            Name::parse(&format!("host{i:03}.Rack7.Pod-B.dc2.Example-Cloud.net"))
                .expect("valid deep name")
        })
        .collect()
}

fn name_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    let names = deep_names();
    let near_equal = Name::parse("HOST000.rack7.pod-b.DC2.example-cloud.net").unwrap();

    group.bench_function(BenchmarkId::from_parameter("name_compare"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 63;
            black_box(names[i].cmp(&names[(i + 17) & 63]))
        })
    });
    group.bench_function(BenchmarkId::from_parameter("name_eq_folded"), |b| {
        // Same name, different case: the worst equality case — the hash
        // filter matches and every byte must be folded and compared.
        b.iter(|| black_box(names[0] == near_equal))
    });
    group.bench_function(BenchmarkId::from_parameter("name_hash"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 63;
            let mut h = DefaultHasher::new();
            names[i].hash(&mut h);
            black_box(h.finish())
        })
    });
    group.finish();
}

fn a_rrset(name: &Name, ttl: u32, last: u8) -> RRset {
    RRset {
        name: name.clone(),
        rtype: RecordType::A,
        ttl: Ttl::from_secs(ttl),
        rdatas: vec![RData::A(std::net::Ipv4Addr::new(192, 0, 2, last))],
    }
}

/// Sustained eviction churn: the working set is twice the capacity, so
/// once warm every store displaces the soonest-to-expire entry.
fn cache_evict(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    let policy = ResolverPolicy::default();
    for capacity in [512usize, 4_096, 32_768] {
        let names: Vec<Name> = (0..capacity * 2)
            .map(|i| Name::parse(&format!("w{i:06}.churn.example")).expect("valid"))
            .collect();
        let mut cache = Cache::with_capacity(capacity);
        // Warm to capacity so the measured loop is pure evict+insert.
        for (i, name) in names.iter().take(capacity).enumerate() {
            cache.store(
                a_rrset(name, 60 + (i % 540) as u32, 1),
                Credibility::AuthAnswer,
                SimTime::ZERO,
                &policy,
                false,
            );
        }
        let mut i = capacity;
        let mut t = 0u64;
        group.bench_function(BenchmarkId::new("cache_evict", capacity), |b| {
            b.iter(|| {
                i = (i + 1) % names.len();
                t += 1;
                cache.store(
                    a_rrset(&names[i], 60 + (i % 540) as u32, 1),
                    Credibility::AuthAnswer,
                    SimTime::from_millis(t),
                    &policy,
                    false,
                );
                black_box(cache.evictions())
            })
        });
    }
    group.finish();
}

/// Timing-wheel primitives vs the `BTreeSet` index they replaced, at
/// the same sizes `cache_evict` runs. Ties are unique indices so the
/// set baseline holds exactly the same entries as the wheel.
fn wheel_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    for n in [512usize, 4_096, 32_768] {
        let mut rng = SimRng::seed_from(0x57EE1 + n as u64);
        // TTL-shaped near-term expiries: 1 ms – 300 s, the cache_churn
        // band, landing in wheel levels 0–2.
        let near: Vec<u64> = (0..n).map(|_| 1 + rng.below(300_000)).collect();
        // Wide spread over ~4.6 h so steady-state pops keep crossing
        // coarse-slot boundaries and re-binning (the cascade worst
        // case).
        let far: Vec<u64> = (0..n).map(|_| rng.below(1 << 24)).collect();

        // One O(1) schedule+cancel pair against a full index.
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        for (i, &t) in near.iter().enumerate() {
            wheel.insert(t, i as u32);
        }
        let mut k = 0usize;
        group.bench_function(BenchmarkId::new("wheel_insert", n), |b| {
            b.iter(|| {
                k = (k + 1) % n;
                wheel.insert(near[k], u32::MAX);
                black_box(wheel.cancel(near[k], &u32::MAX))
            })
        });
        let mut btree: BTreeSet<(u64, u32)> = near
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        group.bench_function(BenchmarkId::new("btree_insert", n), |b| {
            b.iter(|| {
                k = (k + 1) % n;
                btree.insert((near[k], u32::MAX));
                black_box(btree.remove(&(near[k], u32::MAX)))
            })
        });

        // Steady-state expiry: pop the minimum, reschedule one TTL out.
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        for (i, &t) in near.iter().enumerate() {
            wheel.insert(t, i as u32);
        }
        group.bench_function(BenchmarkId::new("expiry_pop", n), |b| {
            b.iter(|| {
                let (t, i) = wheel.pop_first().expect("pop cycle keeps size fixed");
                wheel.insert(t + 300_000, i);
                black_box(t)
            })
        });
        let mut btree: BTreeSet<(u64, u32)> = near
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        group.bench_function(BenchmarkId::new("btree_expiry_pop", n), |b| {
            b.iter(|| {
                let (t, i) = btree.pop_first().expect("pop cycle keeps size fixed");
                btree.insert((t + 300_000, i));
                black_box(t)
            })
        });

        // Cascade-heavy pops: sparse far-future times re-bin coarse
        // slots on nearly every base advance.
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        for (i, &t) in far.iter().enumerate() {
            wheel.insert(t, i as u32);
        }
        group.bench_function(BenchmarkId::new("wheel_cascade", n), |b| {
            b.iter(|| {
                let (t, i) = wheel.pop_first().expect("pop cycle keeps size fixed");
                wheel.insert(t + (1 << 24), i);
                black_box(t)
            })
        });
        let mut btree: BTreeSet<(u64, u32)> = far
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        group.bench_function(BenchmarkId::new("btree_cascade", n), |b| {
            b.iter(|| {
                let (t, i) = btree.pop_first().expect("pop cycle keeps size fixed");
                btree.insert((t + (1 << 24), i));
                black_box(t)
            })
        });
    }
    group.finish();
}

/// One zone per size: `names` hosts two labels below the apex and one
/// delegation with glue, so every lookup also pays the cut walk.
fn zone_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("zone_lookup");
    for names in [64usize, 2_048, 32_768] {
        let mut zone = ZoneBuilder::new("example")
            .ns("example", "ns.example", Ttl::HOUR)
            .a("ns.example", "192.0.2.53", Ttl::HOUR)
            .ns("sub.example", "ns.sub.example", Ttl::HOUR)
            .a("ns.sub.example", "192.0.2.54", Ttl::HOUR);
        for i in 0..names {
            zone = zone.a(&format!("h{i}.pool.example"), "192.0.2.1", Ttl::MINUTE);
        }
        let zone = zone.build();
        let parse = |s: String| Name::parse(&s).expect("valid");
        let queries = |prefix: &str, suffix: &str| -> Vec<Name> {
            (0..64)
                .map(|i| parse(format!("{prefix}{}.{suffix}", i * names / 64)))
                .collect()
        };
        let cases = [
            ("answer", queries("h", "pool.example")),
            ("referral", queries("www", "sub.example")),
            ("nxdomain", queries("nope", "pool.example")),
        ];
        for (case, qnames) in &cases {
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new(*case, names), |b| {
                b.iter(|| {
                    i = (i + 1) & 63;
                    black_box(zone.lookup(&qnames[i], RecordType::A))
                })
            });
        }
    }
    group.finish();
}

/// The child server of `dnsttl_atlas`'s Zipf world, plus one owner
/// (`big.zipf`) whose 40 addresses outgrow a UDP payload.
fn exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    let mut zone = ZoneBuilder::new("zipf").ns("zipf", "ns.zipf", Ttl::HOUR).a(
        "ns.zipf",
        "192.0.2.53",
        Ttl::HOUR,
    );
    for k in 0..2_048 {
        zone = zone.a(&format!("r{k}.zipf"), "10.0.0.1", Ttl::MINUTE);
    }
    for i in 0..40 {
        zone = zone.a("big.zipf", &format!("203.0.113.{i}"), Ttl::MINUTE);
    }
    let server = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
    let addr: IpAddr = "192.0.2.53".parse().expect("static");
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(addr, Region::Eu, Rc::new(RefCell::new(server)));
    let query = |name: String| {
        Message::iterative_query(7, Name::parse(&name).expect("valid"), RecordType::A)
    };
    let small: Vec<Message> = (0..64)
        .map(|i| query(format!("r{}.zipf", i * 32)))
        .collect();
    let big = vec![query("big.zipf".into())];
    let cases = [
        ("udp", &small, Transport::Udp),
        ("udp_truncated", &big, Transport::Udp),
        ("tcp", &big, Transport::Tcp),
    ];
    let mut rng = SimRng::seed_from(5);
    for (case, queries, transport) in cases {
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(case), |b| {
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(net.exchange_with(
                    Region::Eu,
                    0,
                    addr,
                    &queries[i],
                    SimTime::ZERO,
                    &mut rng,
                    transport,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    name_ops,
    cache_evict,
    wheel_ops,
    zone_lookup,
    exchange
);
criterion_main!(benches);
