//! Layer kernels: each layer's public functions timed on the inputs the
//! replay captured, so a change to one layer shows in that layer's own
//! number before it shows end to end.

use crate::replay::{Captured, Probes, SegmentWorld};
use crate::span::{self_times_ns, span, Layer, Span};
use crate::stats::{median, Timing};
use dnsttl_atlas::{DiurnalCurve, ZipfRow};
use dnsttl_core::ResolverPolicy;
use dnsttl_netsim::{Region, SimRng, SimTime, TimingWheel};
use dnsttl_resolver::{CacheEngine, Credibility};
use dnsttl_telemetry::{MetricKey, Telemetry};
use dnsttl_wire::{decode_message, encode_message, Name, RData, RRset, Record, RecordType, Ttl};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Host nanoseconds `f` takes per item, one sample per batch of
/// `batch` items, so that the two clock reads are amortised.
fn per_item_ns<T>(items: &[T], batch: usize, mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .chunks(batch)
        .map(|chunk| {
            let started = Instant::now();
            for item in chunk {
                f(item);
            }
            started.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect()
}

/// What reading the clock twice costs: subtracted from kernels that
/// must time single operations.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            let started = Instant::now();
            black_box(started).elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// `encode_message` / `decode_message` over the captured pairs.
pub struct WireKernel {
    /// Per message (queries and responses alike).
    pub encode: Timing,
    /// Per message.
    pub decode: Timing,
    /// Mean encoded octets of a query plus its response.
    pub bytes_per_exchange: f64,
}

/// Runs the wire kernel.
pub fn wire(pairs: &[Captured]) -> WireKernel {
    let encode = per_item_ns(pairs, 32, |p| {
        black_box(encode_message(black_box(&p.query)).expect("captured query encodes"));
        black_box(encode_message(black_box(&p.response)).expect("captured response encodes"));
    });
    let wires: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|p| {
            (
                encode_message(&p.query).expect("captured query encodes"),
                encode_message(&p.response).expect("captured response encodes"),
            )
        })
        .collect();
    let decode = per_item_ns(&wires, 32, |(q, r)| {
        black_box(decode_message(black_box(q)).expect("encoded query decodes"));
        black_box(decode_message(black_box(r)).expect("encoded response decodes"));
    });
    // Each item above is two messages.
    let halve = |v: Vec<f64>| Timing::of(&v.iter().map(|x| x / 2.0).collect::<Vec<_>>());
    let octets: usize = wires.iter().map(|(q, r)| q.len() + r.len()).sum();
    WireKernel {
        encode: halve(encode),
        decode: halve(decode),
        bytes_per_exchange: octets as f64 / wires.len().max(1) as f64,
    }
}

/// `Network::exchange` over the captured queries.
pub struct ExchangeKernel {
    /// The whole exchange.
    pub exchange: Timing,
    /// The exchange minus the `handle_query` inside it (codec included).
    pub without_auth: Timing,
    /// The spans recorded, for `trace.jsonl`.
    pub spans: Vec<Span>,
}

/// Replays the captured queries through `Network::exchange` on a fresh
/// wrapped world, each inside a `netsim.exchange` span.
pub fn exchange(world: &SegmentWorld, pairs: &[Captured], probes: &Probes) -> ExchangeKernel {
    let (mut net, _resolvers) = world.build(probes);
    let mut rng = SimRng::seed_from(0x5eed);
    probes.rec.borrow_mut().set_on(true);
    for p in pairs {
        span(&probes.rec, "netsim.exchange", Layer::Netsim, || {
            black_box(net.exchange(Region::Eu, 0, p.server, &p.query, p.at, &mut rng));
        });
    }
    probes.rec.borrow_mut().set_on(false);
    let spans = probes.rec.borrow_mut().take();
    let own = self_times_ns(&spans);
    let pick = |values: &dyn Fn(usize) -> u64| -> Vec<f64> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "netsim.exchange")
            .map(|(i, _)| values(i) as f64)
            .collect()
    };
    ExchangeKernel {
        exchange: Timing::of(&pick(&|i| spans[i].duration_ns())),
        without_auth: Timing::of(&pick(&|i| own[i])),
        spans,
    }
}

/// `TimingWheel` insert + pop over a fire-time tape: `fires[k]` is the
/// ascending fire times of timer `k`. Every timer is scheduled once up
/// front and rescheduled when it pops, as the campaign sweep does.
pub fn wheel(fires: &[Vec<u64>]) -> Timing {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut cursor = vec![0usize; fires.len()];
    for (k, times) in fires.iter().enumerate() {
        if let Some(&t) = times.first() {
            wheel.insert(t, k as u32);
        }
    }
    let total: usize = fires.iter().map(Vec::len).sum();
    let pops: Vec<()> = vec![(); total];
    let samples = per_item_ns(&pops, 256, |()| {
        let (_, k) = wheel.pop_first().expect("one entry per unfired time");
        let k = k as usize;
        cursor[k] += 1;
        if let Some(&next) = fires[k].get(cursor[k]) {
            wheel.insert(next, k as u32);
        }
    });
    assert!(wheel.is_empty(), "the tape drains the wheel exactly");
    Timing::of(&samples)
}

/// What the campaign sweep does for each query besides the resolve and
/// the wheel: warps the probe's next interval by the diurnal curve and
/// appends the result row. `ZipfDataset` has no public append, so the
/// rows go to a `Vec<ZipfRow>`, which is what it holds.
pub fn sweep_step(curve: &DiurnalCurve, base_ms: u64, rows: &[ZipfRow]) -> Timing {
    let mut store: Vec<ZipfRow> = Vec::new();
    let samples = per_item_ns(rows, 256, |row| {
        black_box(curve.interval_ms(base_ms, black_box(row.at_ms)));
        store.push(*row);
    });
    black_box(store);
    Timing::of(&samples)
}

/// A stand-alone cache driven by a key tape.
pub struct CacheKernel {
    /// `get`.
    pub get: Timing,
    /// `store` (after each miss).
    pub store: Timing,
    /// Gets that found a fresh entry.
    pub hit_ratio: f64,
    /// `CacheStats::evictions`.
    pub evictions: u64,
    /// `CacheStats::expiries`.
    pub expiries: u64,
}

/// Drives the default policy's cache with `(time, name)` keys: a `get`,
/// and on a miss a `store` of a one-record `A` RRset with `ttl`. Single
/// operations are timed, less the cost of reading the clock.
pub fn cache(keys: &[(u64, &Name)], ttl: Ttl) -> CacheKernel {
    let policy = ResolverPolicy::default();
    let mut cache = CacheEngine::from_policy(&policy);
    let clock = timer_overhead_ns();
    let (mut gets, mut stores) = (Vec::with_capacity(keys.len()), Vec::new());
    let mut hits = 0u64;
    for &(at_ms, name) in keys {
        let now = SimTime::from_millis(at_ms);
        let started = Instant::now();
        let found = black_box(cache.get(name, RecordType::A, now)).is_some();
        gets.push((started.elapsed().as_nanos() as f64 - clock).max(0.0));
        if found {
            hits += 1;
            continue;
        }
        let record = Record::new(name.clone(), ttl, RData::A(Ipv4Addr::new(10, 0, 0, 1)));
        let rrset = RRset::from_records(&[record]).expect("one record is an RRset");
        let started = Instant::now();
        cache.store(rrset, Credibility::AuthAnswer, now, &policy, false);
        stores.push((started.elapsed().as_nanos() as f64 - clock).max(0.0));
    }
    let stats = cache.stats();
    CacheKernel {
        get: Timing::of(&gets),
        store: Timing::of(&stores),
        hit_ratio: hits as f64 / keys.len().max(1) as f64,
        evictions: stats.evictions,
        expiries: stats.expiries,
    }
}

/// The two telemetry calls on the query path, on an enabled handle.
pub struct TelemetryKernel {
    /// `count_keyed_at`.
    pub count_keyed: Timing,
    /// `span_start` + `span_end`.
    pub span: Timing,
}

/// Runs the telemetry kernel.
pub fn telemetry() -> TelemetryKernel {
    const KEY: MetricKey = MetricKey::new("benchmark_kernel_total");
    let handle = Telemetry::new();
    let ticks: Vec<u64> = (0..65_536).collect();
    let count_keyed = per_item_ns(&ticks, 256, |&t| handle.count_keyed_at(&KEY, 1, t));
    let span = per_item_ns(&ticks, 256, |&t| {
        let id = handle.span_start(t, |_, fields| fields.push("tick", t));
        handle.span_end(id, t, |_| {});
    });
    TelemetryKernel {
        count_keyed: Timing::of(&count_keyed),
        span: Timing::of(&span),
    }
}
