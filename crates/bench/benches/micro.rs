//! Component micro-benchmarks: wire codec, names, cache, zone lookup,
//! and single resolutions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dnsttl_auth::ZoneBuilder;
use dnsttl_bench::{bench_world, sample_referral};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::SimTime;
use dnsttl_resolver::{Cache, Credibility};
use dnsttl_wire::{
    decode_message, encode_message, encoded_len, Name, RData, RRset, RecordType, Ttl,
};
use std::hint::black_box;

fn wire_codec(c: &mut Criterion) {
    let msg = sample_referral();
    let wire = encode_message(&msg).unwrap();
    c.bench_function("wire/encode_referral", |b| {
        b.iter(|| encode_message(black_box(&msg)).unwrap())
    });
    c.bench_function("wire/decode_referral", |b| {
        b.iter(|| decode_message(black_box(&wire)).unwrap())
    });
    c.bench_function("wire/encoded_len_referral", |b| {
        b.iter(|| encoded_len(black_box(&msg)).unwrap())
    });
    c.bench_function("wire/name_parse", |b| {
        b.iter(|| Name::parse(black_box("ns1.sub.cachetest.net")).unwrap())
    });
    let a = Name::parse("ns1.sub.cachetest.net").unwrap();
    let zone = Name::parse("cachetest.net").unwrap();
    c.bench_function("wire/bailiwick_check", |b| {
        b.iter(|| black_box(&a).is_subdomain_of(black_box(&zone)))
    });
}

fn cache_ops(c: &mut Criterion) {
    let policy = ResolverPolicy::default();
    let rrset = RRset {
        name: Name::parse("a.nic.uy").unwrap(),
        rtype: RecordType::A,
        ttl: Ttl::from_secs(120),
        rdatas: vec![RData::A("200.40.241.1".parse().unwrap())],
    };
    c.bench_function("cache/store", |b| {
        b.iter_batched(
            Cache::new,
            |mut cache| {
                cache.store(
                    black_box(rrset.clone()),
                    Credibility::AuthAnswer,
                    SimTime::ZERO,
                    &policy,
                    false,
                )
            },
            BatchSize::SmallInput,
        )
    });
    let mut cache = Cache::new();
    cache.store(
        rrset.clone(),
        Credibility::AuthAnswer,
        SimTime::ZERO,
        &policy,
        false,
    );
    c.bench_function("cache/get_fresh", |b| {
        b.iter(|| {
            cache.get(
                black_box(&rrset.name),
                RecordType::A,
                SimTime::from_secs(30),
            )
        })
    });
}

fn zone_lookup(c: &mut Criterion) {
    let zone = ZoneBuilder::new("cl")
        .ns("cl", "a.nic.cl", Ttl::HOUR)
        .a("a.nic.cl", "190.124.27.10", Ttl::from_secs(43_200))
        .ns("example.cl", "ns.example.cl", Ttl::from_secs(7_200))
        .a("ns.example.cl", "203.0.113.53", Ttl::from_secs(7_200))
        .build();
    let apex = Name::parse("cl").unwrap();
    let below_cut = Name::parse("www.example.cl").unwrap();
    c.bench_function("zone/lookup_answer", |b| {
        b.iter(|| zone.lookup(black_box(&apex), RecordType::NS))
    });
    c.bench_function("zone/lookup_referral", |b| {
        b.iter(|| zone.lookup(black_box(&below_cut), RecordType::A))
    });
}

fn resolution(c: &mut Criterion) {
    c.bench_function("resolver/cold_resolution", |b| {
        b.iter_batched(
            || bench_world(Ttl::HOUR, ResolverPolicy::default()),
            |mut w| w.resolve_at(0),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("resolver/warm_resolution", |b| {
        let mut w = bench_world(Ttl::HOUR, ResolverPolicy::default());
        w.resolve_at(0);
        b.iter(|| w.resolve_at(10))
    });
}

fn master_file(c: &mut Criterion) {
    let zone_text = r#"
$ORIGIN uy.
$TTL 300
@           IN NS   a.nic.uy.
            IN NS   b.nic.uy.
a.nic.uy.   120 IN A 200.40.241.1
b.nic.uy.   120    A 200.40.241.2
www.gub     3600   A 200.40.30.1
@           3600 IN MX 10 mail.gub.uy.
mail.gub    3600   A 200.40.30.2
@           3600 IN TXT "v=spf1 -all"
"#;
    c.bench_function("master/parse_zone", |b| {
        b.iter(|| dnsttl_auth::parse_zone("uy", black_box(zone_text)).unwrap())
    });
    let zone = dnsttl_auth::parse_zone("uy", zone_text).unwrap();
    c.bench_function("master/render_zone", |b| {
        b.iter(|| dnsttl_auth::render_zone(black_box(&zone)))
    });
}

fn dnssec(c: &mut Criterion) {
    let zone = ZoneBuilder::new("uy")
        .ns("uy", "a.nic.uy", Ttl::from_secs(300))
        .a("a.nic.uy", "200.40.241.1", Ttl::from_secs(120))
        .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
        .build();
    c.bench_function("dnssec/sign_zone", |b| {
        b.iter_batched(
            || zone.clone(),
            |mut z| dnsttl_auth::sign_zone(&mut z),
            BatchSize::SmallInput,
        )
    });
    let mut signed = zone.clone();
    dnsttl_auth::sign_zone(&mut signed);
    let owner = Name::parse("a.nic.uy").unwrap();
    let a = signed.get(&owner, RecordType::A);
    let rdatas: Vec<RData> = a.iter().map(|r| r.rdata.clone()).collect();
    let sig = signed.get(&owner, RecordType::RRSIG)[0].clone();
    c.bench_function("dnssec/verify_rrset", |b| {
        b.iter(|| {
            assert!(dnsttl_wire::verify_rrset(
                black_box(&owner),
                RecordType::A,
                black_box(&rdatas),
                black_box(&sig)
            ))
        })
    });
}

criterion_group!(
    benches,
    wire_codec,
    cache_ops,
    zone_lookup,
    resolution,
    master_file,
    dnssec
);
criterion_main!(benches);
