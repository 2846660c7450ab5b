//! Telemetry overhead: the same resolver workload with a disabled
//! handle (the default for every instrumented component) vs an enabled
//! one. The disabled path is a branch-and-return with the field
//! closures never run, so `resolve/disabled` should sit within ~5% of
//! the pre-instrumentation baseline; `resolve/enabled` shows the real
//! cost of full tracing and metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnsttl_core::ResolverPolicy;
use dnsttl_experiments::worlds;
use dnsttl_netsim::{Region, SimRng, SimTime};
use dnsttl_resolver::RecursiveResolver;
use dnsttl_telemetry::{EventKind, Telemetry};
use dnsttl_wire::{Name, RecordType, Ttl};
use std::hint::black_box;

/// Resolutions against the `.uy` world, stepped 10 min apart so every
/// query does real cache maintenance (the 300 s/120 s TTLs expire
/// between queries).
fn resolve_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    for (label, telemetry) in [
        ("resolve/disabled", Telemetry::disabled()),
        ("resolve/enabled", Telemetry::new()),
    ] {
        let (mut net, roots) = worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
        net.set_telemetry(telemetry.clone());
        let mut resolver = RecursiveResolver::new(
            "bench",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            roots,
            SimRng::seed_from(1),
        );
        resolver.set_telemetry(telemetry.clone());
        let qname = Name::parse("uy").unwrap();
        let mut t_ms = 0u64;
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                t_ms += 600_000;
                black_box(resolver.resolve(
                    &qname,
                    RecordType::NS,
                    SimTime::from_millis(t_ms),
                    &mut net,
                ))
            })
        });
    }
    group.finish();
}

/// Raw recording primitives, for attributing any regression seen above.
fn primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");
    let enabled = Telemetry::new();
    let disabled = Telemetry::disabled();
    group.bench_function(BenchmarkId::from_parameter("count/disabled"), |b| {
        b.iter(|| disabled.count(black_box("resolver_cache_hits"), 1))
    });
    group.bench_function(BenchmarkId::from_parameter("count/enabled"), |b| {
        b.iter(|| enabled.count(black_box("resolver_cache_hits"), 1))
    });
    group.bench_function(BenchmarkId::from_parameter("sketch/enabled"), |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(37) & 0xFFFF;
            enabled.sketch_with(black_box("resolver_answer_ttl_s"), &[], v)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("event/enabled"), |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            enabled.event(t, EventKind::CacheHit, |f| {
                f.push("qname", "uy.");
                f.push("t", t);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, resolve_workload, primitives);
criterion_main!(benches);
