//! Thin tier-1 cases for the four seams whose full proof suites live
//! at crate level (`cargo test --workspace`): the client driver's ask
//! order (`netsim/src/event.rs`, `netsim/tests/wheel_oracle.rs`), the
//! SoA-vs-oracle campaign engines (`atlas/tests/soa_equivalence.rs`), the resolver's cache
//! against pinned tapes (`resolver/tests/ledger_accounting.rs`), the
//! authoritative zone
//! index (`auth/tests/zone_model.rs`), the codec identity the exchange
//! path relies on without performing it
//! (`wire/tests/codec_properties.rs`), the shape of the metrics
//! exposition (`telemetry/src/registry.rs`), the cell engine's merge
//! and fan-out (`atlas/src/shard.rs`, `tests/shard_equivalence.rs`), and
//! the artifact bytes of one smoke module
//! (`experiments/tests/artifact_digests.rs`), and the resolver's two
//! entry points (`resolver/src/resolver.rs`).

use dnsttl::atlas::{
    fan_out, merge_by_time, population_campaign, run_measurement, run_zipf_campaign, Dataset,
    FanOut, MeasurementResult, MeasurementSpec, Population, PopulationConfig, QueryName,
    ZipfCampaignConfig, ZipfEngine, ZipfRow, ZipfRunOpts, ZipfSampler,
};
use dnsttl::auth::{AuthoritativeServer, ZoneBuilder};
use dnsttl::core::ResolverPolicy;
use dnsttl::experiments::artifacts::{digest_lines, run_module};
use dnsttl::experiments::worlds::{addrs, root_hints, uy_world};
use dnsttl::experiments::ExpConfig;
use dnsttl::netsim::{
    drive, ClientId, DnsService, LatencyModel, Network, Region, SimDuration, SimRng, SimTime,
};
use dnsttl::resolver::{
    Cache, CacheStats, Credibility, RecursiveResolver, ResolutionVerdict, RootHint,
};
use dnsttl::telemetry::Telemetry;
use dnsttl::wire::{
    decode_message, encode_message, encoded_len, Message, Name, RData, RRset, Rcode, RecordType,
    Ttl,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

#[test]
fn event_queue_drains_in_stable_time_order() {
    // Dense ties, scattered near futures, beyond-wheel-span times, and
    // `u64::MAX`-adjacent sentinels, each a client that asks once: the
    // asks must be the stable sort by time (ties in schedule order),
    // less the starts at `u64::MAX`, the end.
    let n = 3_200usize;
    let mut rng = SimRng::seed_from(0x5EA4_0001);
    let starts: Vec<u64> = (0..n)
        .map(|_| match rng.below(4) {
            0 => 600_000,
            1 => rng.below(7_200_000),
            2 => (1 << 33) + rng.below(3),
            _ => u64::MAX - rng.below(2),
        })
        .collect();
    let mut expected: Vec<(u64, usize)> = starts
        .iter()
        .enumerate()
        .filter(|&(_, &ms)| ms < u64::MAX)
        .map(|(i, &ms)| (ms, i))
        .collect();
    expected.sort();
    let mut asked = Vec::with_capacity(n);
    drive(
        starts.iter().map(|&ms| SimTime::from_millis(ms)),
        SimTime::from_millis(u64::MAX),
        |now, client| {
            asked.push((now.as_millis(), client));
            SimDuration::from_millis(u64::MAX)
        },
    );
    assert_eq!(asked, expected);
}

#[test]
fn zipf_soa_sweep_matches_the_heap_oracle_at_small_and_large_cells() {
    // ~40 and ~150 probes per cell: the SoA sweep schedules both
    // through the timing wheel and must reproduce the pointer-based
    // heap oracle row for row.
    for probes in [160, 600] {
        let mut cfg = ZipfCampaignConfig::small(probes);
        cfg.cells = 4;
        cfg.duration = SimDuration::from_hours(2);
        let run = |engine| {
            let opts = ZipfRunOpts {
                engine,
                ..ZipfRunOpts::default()
            };
            run_zipf_campaign(&cfg, 17, &opts)
        };
        let soa = run(ZipfEngine::Soa);
        let oracle = run(ZipfEngine::Oracle);
        assert!(!soa.dataset.is_empty(), "probes={probes}");
        assert_eq!(
            soa.dataset.digest(),
            oracle.dataset.digest(),
            "probes={probes}"
        );
        assert_eq!(soa.queries_per_probe, oracle.queries_per_probe);
        assert_eq!(soa.cache, oracle.cache, "probes={probes}");
    }
}

fn a_rrset(name: &Name, ttl: u32, last: u8) -> RRset {
    RRset::new(
        name.clone(),
        RecordType::A,
        Ttl::from_secs(ttl),
        RData::A(std::net::Ipv4Addr::new(192, 0, 2, last)),
    )
}

/// FNV-1a-64, the digest the pinned cache tapes are compared by.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn sequential_and_shared_engines_agree_on_a_seeded_tape() {
    // What the cache answers at every step, and the counters and
    // snapshot it ends with, as pinned at commit 772e60d. On a mismatch
    // compare the printed tuples.
    let policy = ResolverPolicy::default();
    let mut cache = Cache::new();
    let names: Vec<Name> = (0..40)
        .map(|i| Name::parse(&format!("w{i}.pool.example")).unwrap())
        .collect();
    let mut rng = SimRng::seed_from(0x5EA4_0002);
    let mut now = SimTime::ZERO;
    let mut answers = String::new();
    for step in 0..200 {
        let name = &names[rng.below(names.len() as u64) as usize];
        match rng.below(5) {
            0 | 1 => {
                let rrset = a_rrset(name, 30 + rng.below(300) as u32, rng.below(4) as u8);
                cache.store(rrset, Credibility::AuthAnswer, now, &policy, false);
            }
            2 => {
                let fresh = cache.get(name, RecordType::A, now).map(|h| h.rrset);
                answers.push_str(&format!("{step}: {fresh:?}\n"));
            }
            3 => {
                let stale = cache.get_stale(name, RecordType::A, now, Ttl::HOUR);
                let stale = stale.map(|h| (h.rrset, h.stale));
                answers.push_str(&format!("{step}: {stale:?}\n"));
            }
            _ => now += SimDuration::from_secs(1 + rng.below(120)),
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (
            fnv1a(&answers),
            fnv1a(&cache.snapshot(now).to_jsonl()),
            stats
        ),
        (
            0x70a4ffcb220a12f3,
            0xbf18650efa4bdc1a,
            CacheStats {
                inserts: 82,
                refreshes: 6,
                overwrites: 14,
                expiries: 34,
                hits: 11,
                stale_hits: 23,
                ..CacheStats::default()
            }
        )
    );
    assert!(stats.hits > 0 && stats.inserts > 0);
}

#[test]
fn an_unbounded_cache_agrees_with_a_roomy_bounded_one() {
    // The answers and expiry ages, the counters, the snapshot and the
    // ledger, as pinned at commit 772e60d. On a mismatch compare the
    // printed tuples.
    let policy = ResolverPolicy::default();
    let mut cache = Cache::new();
    cache.enable_ledger();
    let names: Vec<Name> = (0..40)
        .map(|i| Name::parse(&format!("W{i}.pool.example")).unwrap())
        .collect();
    let mut rng = SimRng::seed_from(0x5EA4_0022);
    let mut now = SimTime::ZERO;
    let mut transcript = String::new();
    for step in 0..400 {
        let name = &names[rng.below(names.len() as u64) as usize];
        match rng.below(8) {
            0..=2 => {
                let rrset = a_rrset(name, [30, 60, 300][rng.below(3) as usize], 1);
                cache.store(rrset, Credibility::AuthAnswer, now, &policy, false);
            }
            3..=5 => {
                let answer = cache
                    .get_stale(name, RecordType::A, now, Ttl::MINUTE)
                    .map(|h| (h.rrset, h.stale));
                let age = cache.expired_since(name, RecordType::A, now);
                transcript.push_str(&format!("{step}: {answer:?} {age:?}\n"));
            }
            _ => now += SimDuration::from_secs(1 + rng.below(60)),
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.stale_hits > 0 && stats.expiries > 20);
    let ledger: String = cache
        .with_ledger(|l| l.records().map(|r| r.to_line() + "\n").collect())
        .unwrap();
    assert_eq!(
        (
            fnv1a(&transcript),
            fnv1a(&cache.snapshot(now).to_jsonl()),
            fnv1a(&ledger),
            stats
        ),
        (
            0x50bbf2c97e58341e,
            0xe42aa8cbdd7b3033,
            0x4bec987f9c6096cf,
            CacheStats {
                inserts: 115,
                refreshes: 22,
                expiries: 77,
                hits: 17,
                stale_hits: 7,
                ..CacheStats::default()
            }
        ),
        "transcript, snapshot, ledger, stats"
    );
}

#[test]
fn authoritative_index_answers_on_the_zipf_world_shape() {
    // The Zipf campaign's world: a root delegating `zipf`, and a child
    // of 2 050 owner names. The server's host sits one label deeper
    // here so the child also has an empty non-terminal (`nic.zipf`).
    let mut root = AuthoritativeServer::new("root").with_zone(
        ZoneBuilder::new(".")
            .ns("zipf", "ns.nic.zipf", Ttl::TWO_DAYS)
            .a("ns.nic.zipf", "192.0.2.53", Ttl::TWO_DAYS)
            .build(),
    );
    let mut zone = ZoneBuilder::new("zipf")
        .ns("zipf", "ns.nic.zipf", Ttl::HOUR)
        .a("ns.nic.zipf", "192.0.2.53", Ttl::HOUR);
    for k in 0..2_048 {
        let addr = format!("10.0.{}.{}", k >> 8, k & 255);
        zone = zone.a(&format!("r{k}.zipf"), &addr, Ttl::MINUTE);
    }
    let zone = zone.build();
    assert_eq!(zone.names().count(), 2_050);
    let mut child = AuthoritativeServer::new("ns.nic.zipf").with_zone(zone);

    let ask = |srv: &mut AuthoritativeServer, qname: &str| {
        let client = ClientId {
            region: Region::Eu,
            tag: 1,
        };
        let qname = Name::parse(qname).unwrap();
        let query = Message::iterative_query(7, qname, RecordType::A);
        srv.handle_query(&query, client, SimTime::ZERO)
    };

    let answer = ask(&mut child, "r1234.zipf");
    assert!(answer.header.authoritative);
    let addr = RData::A(std::net::Ipv4Addr::new(10, 0, 4, 210));
    assert_eq!(answer.answers.len(), 1);
    assert_eq!(answer.answers[0].rdatas[..], [addr]);
    assert_eq!(ask(&mut child, "R1234.ZipF").answers, answer.answers);

    let missing = ask(&mut child, "r2048.zipf");
    assert_eq!(missing.header.rcode, Rcode::NxDomain);
    assert_eq!(missing.authorities[0].rtype, RecordType::SOA);

    let empty_non_terminal = ask(&mut child, "nic.zipf");
    assert_eq!(empty_non_terminal.header.rcode, Rcode::NoError);
    assert!(empty_non_terminal.header.authoritative && empty_non_terminal.answers.is_empty());
    assert_eq!(empty_non_terminal.authorities[0].rtype, RecordType::SOA);

    let referral = ask(&mut root, "r1234.zipf");
    assert!(referral.is_referral() && !referral.header.authoritative);
    assert_eq!(referral.authorities[0].ttl, Ttl::TWO_DAYS);
    assert_eq!(referral.additionals.len(), 1, "glue for ns.nic.zipf");

    assert_eq!(ask(&mut child, "r1.example").header.rcode, Rcode::Refused);
}

/// Wraps a server and puts every message that crosses it through the
/// real codec: `Network::exchange_with` hands messages over by
/// reference on the promise that encoding and decoding them would have
/// changed nothing, and that `encoded_len` is the length of the bytes.
struct RoundTrip<S> {
    inner: S,
    seen: Rc<Cell<usize>>,
}

fn assert_round_trips(msg: &Message) {
    let wire = encode_message(msg).expect("campaign messages encode");
    assert_eq!(encoded_len(msg), Ok(wire.len()), "{msg:?}");
    assert_eq!(decode_message(&wire).as_ref(), Ok(msg));
}

impl<S: DnsService> DnsService for RoundTrip<S> {
    fn handle_query(&mut self, query: &Message, client: ClientId, now: SimTime) -> Message {
        assert_round_trips(query);
        let response = self.inner.handle_query(query, client, now);
        assert_round_trips(&response);
        self.seen.set(self.seen.get() + 1);
        response
    }
}

#[test]
fn a_zipf_campaign_exchanges_only_messages_the_codec_round_trips() {
    // The Zipf campaigns' world and traffic at small scale: 8 resolvers
    // polling 128 names every 600 s for two hours at TTL 60 s, so most
    // queries walk root → child.
    let seen = Rc::new(Cell::new(0));
    let wrap = |server: AuthoritativeServer| {
        Rc::new(RefCell::new(RoundTrip {
            inner: server,
            seen: seen.clone(),
        }))
    };
    let root_addr = "198.41.0.4".parse().unwrap();
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
    let names: Vec<Name> = (0..128)
        .map(|k| Name::parse(&format!("r{k}.zipf")).unwrap())
        .collect();
    for (k, name) in names.iter().enumerate() {
        zone = zone.a(name.as_str(), &format!("10.0.0.{k}"), Ttl::MINUTE);
    }
    let child = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
    let mut net = Network::new(LatencyModel::constant(5.0));
    net.register(root_addr, Region::Eu, wrap(root));
    net.register("192.0.2.53".parse().unwrap(), Region::Eu, wrap(child));
    let roots = vec![RootHint {
        ns_name: Name::parse("root").unwrap(),
        addr: root_addr,
    }];

    let mut rng = SimRng::seed_from(0x5EA4_0005);
    let mut resolvers: Vec<RecursiveResolver> = (0..8)
        .map(|i| {
            RecursiveResolver::new(
                format!("zipf-{i}"),
                ResolverPolicy::default(),
                Region::Eu,
                i,
                roots.clone(),
                rng.fork(i),
            )
        })
        .collect();
    let sampler = ZipfSampler::new(names.len(), 1.1);
    let mut answered = 0;
    for round in 0..12u64 {
        for (i, resolver) in resolvers.iter_mut().enumerate() {
            for probe in 0..4u64 {
                let now = SimTime::from_secs(round * 600 + i as u64 * 7 + probe);
                let qname = &names[sampler.sample(&mut rng)];
                let out = resolver.resolve(qname, RecordType::A, now, &mut net);
                assert_eq!(out.answer.header.rcode, Rcode::NoError);
                answered += usize::from(!out.answer.answers.is_empty());
            }
        }
    }
    assert_eq!(answered, 12 * 8 * 4);
    assert!(seen.get() > answered / 2, "a miss-heavy campaign");
}

#[test]
fn the_counted_and_materialising_resolutions_agree_on_the_zipf_world() {
    // The Zipf world at TTL 60 s, polled by two resolvers from one seed:
    // one answers every question through `resolve`, the other through
    // `resolve_verdict`, as the Zipf sweep does. Hits, expired misses
    // and cold misses must end alike, leave the same counters and export
    // the same telemetry (`resolver/src/resolver.rs` holds the tape of
    // every other way a question ends).
    let names: Vec<Name> = (0..64)
        .map(|k| Name::parse(&format!("r{k}.zipf")).unwrap())
        .collect();
    let run = |counted: bool| {
        let root_addr = "198.41.0.4".parse().unwrap();
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
        for (k, name) in names.iter().enumerate() {
            zone = zone.a(name.as_str(), &format!("10.0.0.{k}"), Ttl::MINUTE);
        }
        let child = AuthoritativeServer::new("ns.zipf").with_zone(zone.build());
        let mut net = Network::new(LatencyModel::constant(5.0));
        net.register(root_addr, Region::Eu, Rc::new(RefCell::new(root)));
        let child_addr = "192.0.2.53".parse().unwrap();
        net.register(child_addr, Region::Eu, Rc::new(RefCell::new(child)));
        let roots = vec![RootHint {
            ns_name: Name::parse("root").unwrap(),
            addr: root_addr,
        }];
        let mut resolver = RecursiveResolver::new(
            "zipf-0",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            roots,
            SimRng::seed_from(0x5EA4_0006),
        );
        resolver.set_telemetry(Telemetry::new());
        let sampler = ZipfSampler::new(names.len(), 1.1);
        let mut rng = SimRng::seed_from(0x5EA4_0007);
        let verdicts: Vec<ResolutionVerdict> = (0..600u64)
            .map(|i| {
                let qname = &names[sampler.sample(&mut rng)];
                let now = SimTime::from_secs(i * 7);
                if counted {
                    return resolver.resolve_verdict(qname, RecordType::A, now, &mut net);
                }
                let out = resolver.resolve(qname, RecordType::A, now, &mut net);
                ResolutionVerdict {
                    rcode: out.answer.header.rcode,
                    answers: out.answer.answers.len(),
                    elapsed: out.elapsed,
                    cache_hit: out.cache_hit,
                    served_stale: out.served_stale,
                    upstream_queries: out.upstream_queries,
                }
            })
            .collect();
        (resolver, verdicts)
    };
    let (full, want) = run(false);
    let (counted, got) = run(true);
    assert_eq!(got, want);
    let hits = want.iter().filter(|v| v.cache_hit).count();
    assert!(hits > 100 && hits < 500, "{hits} hits of 600");
    assert!(want
        .iter()
        .all(|v| v.rcode == Rcode::NoError && v.answers == 1));
    assert_eq!(counted.stats(), full.stats());
    assert_eq!(counted.cache().stats(), full.cache().stats());
    let (t, u) = (counted.telemetry(), full.telemetry());
    assert_eq!(t.prometheus_text(), u.prometheus_text());
    assert_eq!(t.trace_jsonl(), u.trace_jsonl());
}

#[test]
fn a_uy_latency_run_is_unchanged_by_servers_that_round_trip_every_message() {
    // Figure 10's measurement (`NS uy` every 600 s for two hours) at
    // TTL 300 s / 120 s, once on `uy_world` as `repro fig10` builds it
    // and once on a copy of it whose servers are wrapped.
    let (ns_ttl, a_ttl) = (Ttl::from_secs(300), Ttl::from_secs(120));
    let seen = Rc::new(Cell::new(0));
    let wrapped_world = || {
        let wrap = |host: &str, zone| {
            Rc::new(RefCell::new(RoundTrip {
                inner: AuthoritativeServer::new(host).with_zone(zone),
                seen: seen.clone(),
            }))
        };
        let delegation = |zone: ZoneBuilder, ns: Ttl, a: Ttl| {
            zone.ns("uy", "a.nic.uy", ns)
                .ns("uy", "b.nic.uy", ns)
                .ns("uy", "c.nic.uy", ns)
                .a("a.nic.uy", "200.40.241.1", a)
                .a("b.nic.uy", "200.40.241.2", a)
                .a("c.nic.uy", "204.61.216.40", a)
        };
        let uy_zone = || {
            delegation(ZoneBuilder::new("uy"), ns_ttl, a_ttl)
                .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
                .build()
        };
        let root_zone = delegation(ZoneBuilder::new("."), Ttl::TWO_DAYS, Ttl::TWO_DAYS).build();
        let mut net = Network::new(LatencyModel::internet());
        net.register(
            addrs::ROOT,
            Region::Eu,
            wrap("k.root-servers.net", root_zone),
        );
        net.register(addrs::UY_A, Region::Sa, wrap("a.nic.uy", uy_zone()));
        net.register(addrs::UY_B, Region::Sa, wrap("b.nic.uy", uy_zone()));
        net.register_anycast(
            addrs::UY_C,
            &[Region::Eu, Region::Na, Region::As, Region::Sa],
            wrap("c.nic.uy", uy_zone()),
        );
        (net, root_hints())
    };
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("uy").unwrap()),
        RecordType::NS,
        2,
    );
    let run = |(mut net, roots): (Network, Vec<RootHint>)| {
        let mut rng = SimRng::seed_from(0x5EA4_0006);
        let mut pop = Population::build(&PopulationConfig::small(120), &roots, &mut rng);
        let dataset = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        assert!(dataset.valid_count() > 1_000);
        format!("{:?}", dataset.results())
    };
    let plain = run(uy_world(ns_ttl, a_ttl));
    assert_eq!(seen.get(), 0);
    let wrapped = run(wrapped_world());
    assert!(seen.get() > 1_000, "the wrapped servers did the answering");
    assert!(plain == wrapped, "row for row the same dataset");
}

#[test]
fn a_uy_latency_run_exports_one_latency_sample_per_client_query_and_no_histograms() {
    let telemetry = Telemetry::new();
    let (mut net, roots) = uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
    net.set_telemetry(telemetry.clone());
    let mut rng = SimRng::seed_from(0x5EA4_0007);
    let mut pop = Population::build(&PopulationConfig::small(120), &roots, &mut rng);
    pop.set_telemetry(&telemetry);
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("uy").unwrap()),
        RecordType::NS,
        2,
    );
    run_measurement(&spec, &mut pop, &mut net, &mut rng);

    let text = telemetry.prometheus_text();
    let queries = telemetry.counter_value("resolver_client_queries", &[]);
    assert!(queries > 1_000);
    assert!(
        text.contains(&format!(
            "\nresolver_latency_quantiles_ms_count {queries}\n"
        )),
        "one latency observation per client query"
    );
    for line in text.lines().filter(|l| l.starts_with('#')) {
        assert!(!line.ends_with(" histogram"), "{line}");
        assert!(
            !line.ends_with("Simulator metric (see DESIGN.md)"),
            "{line}"
        );
    }
}

#[test]
fn the_one_merge_orders_both_row_types_by_time_then_part() {
    // Zipf rows through the merge itself: a tie at t=5 across three
    // parts, an empty part, unbalanced lengths, resolvers rebased.
    let zrow = |at_ms: u64, probe: u32, resolver: u32| ZipfRow {
        at_ms,
        probe,
        rank: 0,
        resolver,
        rtt_ms: 1,
        cache_hit: false,
        ok: true,
    };
    let parts = vec![
        vec![zrow(5, 0, 0), zrow(9, 1, 1)],
        vec![],
        vec![zrow(5, 2, 0), zrow(5, 3, 1), zrow(7, 4, 0)],
        vec![zrow(5, 5, 0)],
    ];
    let bases = [0u32, 4, 6, 8];
    let got: Vec<(u64, u32, u32)> =
        merge_by_time(parts.into_iter().map(Vec::into_iter), |r| r.at_ms)
            .map(|(part, r)| (r.at_ms, r.probe, r.resolver + bases[part]))
            .collect();
    assert_eq!(
        got,
        [
            (5, 0, 0),
            (5, 2, 6),
            (5, 3, 7),
            (5, 5, 8),
            (7, 4, 6),
            (9, 1, 1)
        ],
        "time order; part order, then arrival order, on ties"
    );

    // Measurement rows through `Dataset::merge_shards`, which is that
    // merge plus a probe/resolver rebase: same order rule.
    let mrow = |at_ms: u64, probe_id: u32| MeasurementResult {
        at: SimTime::from_millis(at_ms),
        probe_id,
        probe_idx: 0,
        vp_slot: 0,
        resolver_idx: 0,
        region: Region::Eu,
        qname: Name::parse("uy").unwrap(),
        rcode: Rcode::NoError,
        ttl: Some(at_ms),
        answers: Vec::new().into(),
        rtt_ms: 1,
        cache_hit: false,
        valid: true,
        timed_out: false,
    };
    let dataset = |rows: &[(u64, u32)]| {
        let mut ds = Dataset::new();
        for &(at_ms, probe_id) in rows {
            ds.push(mrow(at_ms, probe_id));
        }
        ds
    };
    let merged = Dataset::merge_shards(vec![
        (dataset(&[(100, 1), (300, 2)]), 0, 0),
        (dataset(&[]), 2, 3),
        (dataset(&[(100, 3), (100, 4), (200, 5)]), 2, 3),
    ]);
    let got: Vec<(u32, usize, usize)> = merged
        .results()
        .iter()
        .map(|r| (r.probe_id, r.probe_idx, r.resolver_idx))
        .collect();
    assert_eq!(got, [(1, 0, 0), (3, 2, 3), (4, 2, 3), (5, 2, 3), (2, 0, 0)]);
}

#[test]
fn a_resilience_smoke_run_writes_the_pinned_artifact_bytes() {
    // `repro --smoke --seed 42 resilience`, in process: every file of
    // the run directory — CSVs, fault plan, trace, time series, metrics
    // and manifest — must match its row in the committed digest table.
    let dir = std::env::temp_dir().join(format!("dnsttl-seam-resilience-{}", std::process::id()));
    let cfg = ExpConfig {
        seed: 42,
        out_dir: Some(dir.clone()),
        ..ExpConfig::quick()
    };
    run_module("resilience", &cfg);
    let got = digest_lines("unsharded", "resilience", &dir).expect("run directory readable");
    let _ = std::fs::remove_dir_all(&dir);
    // The `<stdout>` row pins what `repro` printed, which an in-process
    // run does not print.
    let pinned: Vec<&str> = include_str!("data/artifact_digests.txt")
        .lines()
        .filter(|l| l.starts_with("unsharded resilience ") && !l.contains(" <stdout> "))
        .collect();
    assert_eq!(got, pinned, "resilience artifacts moved");
}

#[test]
fn the_population_engine_is_worker_count_invariant_rows_and_telemetry() {
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("uy").unwrap()),
        RecordType::NS,
        1,
    );
    let world = || {
        let (net, roots) = uy_world(Ttl::from_secs(300), Ttl::from_secs(120));
        (net, roots, None)
    };
    for cells in [16, 64] {
        let run = |workers: usize, telemetry: Telemetry| {
            let plan = FanOut::new(workers, cells);
            let outcome = population_campaign(&plan, &telemetry, 0x5EA4_0008, 160, &spec, world);
            (outcome, telemetry)
        };
        let (one, one_t) = run(1, Telemetry::new());
        let (four, four_t) = run(4, Telemetry::new());
        assert_eq!(one.probes, 160);
        assert!(one.dataset.len() > 160, "cells={cells}");
        assert_eq!(one.dataset.digest(), four.dataset.digest(), "cells={cells}");
        assert_eq!(one.resolvers, four.resolvers);
        assert_eq!(one_t.prometheus_text(), four_t.prometheus_text());
        assert_eq!(one_t.trace_jsonl(), four_t.trace_jsonl());
        assert_eq!(one_t.timeseries_jsonl(), four_t.timeseries_jsonl());
        assert!(one_t.events_recorded() > 0, "the cells were observed");

        // Telemetry off: the same rows.
        let (off, _) = run(4, Telemetry::disabled());
        assert_eq!(off.dataset.digest(), one.dataset.digest(), "cells={cells}");
    }
    // The fan-out itself, without a population: results in cell order,
    // each cell absorbed into an enabled handle exactly once, and
    // nothing recorded into a disabled one.
    let count_cells = |cell: usize, telemetry: &Telemetry| {
        telemetry.count("cells_total", 1);
        (cell, (0, 1))
    };
    let on = Telemetry::new();
    let (outs, profile) = fan_out(&FanOut::new(4, 8), &on, count_cells);
    assert_eq!(outs, (0..8).collect::<Vec<_>>());
    assert_eq!(on.counter_value("cells_total", &[]), 8, "each cell once");
    assert_eq!(profile.cell_busy.len(), 8);
    let off = Telemetry::disabled();
    let (outs, _) = fan_out(&FanOut::new(4, 8), &off, count_cells);
    assert_eq!(outs, (0..8).collect::<Vec<_>>());
    assert_eq!(off.counter_value("cells_total", &[]), 0);
}
