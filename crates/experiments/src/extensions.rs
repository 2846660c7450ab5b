//! Extension experiments: claims the paper makes in prose (or leans on
//! from companion work) that the full simulation can test directly.
//!
//! * `offline_child` — §4.4's `zurrundedu-offline` measurement: with
//!   the child's authoritative servers dead, parent-centric resolvers
//!   (OpenDNS-style) keep answering from delegation data while
//!   child-centric resolvers SERVFAIL.
//! * `dnssec_centricity` — §2's claim that DNSSEC validation forces
//!   child-centric behaviour, plus the flip side: validators turn
//!   cache-poisoning-style tampering into SERVFAIL where plain
//!   resolvers swallow it.
//! * `ddos_resilience` — §6.1 "longer caching is more robust to DDoS
//!   attacks on DNS": survival of client queries through an
//!   authoritative outage as a function of TTL, with and without
//!   serve-stale (the paper's \[36\] in miniature).
//! * `hitrate_validation` — the Jung-et-al analytic cache model
//!   (`dnsttl_core::hit_rate`) validated against the simulated cache,
//!   including the ~70% hit-rate band Moura et al. 2018 report for
//!   TTLs of 1800–86400 s.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::resilience;
use crate::worlds::{self, name, CachetestWorld};
use dnsttl_analysis::{ascii_cdf_multi, Ecdf, Table};
use dnsttl_auth::{sign_zone, AuthoritativeServer, ZoneBuilder};
use dnsttl_core::{hit_rate, PolicyMix, ResolverPolicy};
use dnsttl_netsim::{
    drive, FaultPlan, LatencyModel, Network, Region, SimDuration, SimRng, SimTime,
};
use dnsttl_resolver::{Labels, RecursiveResolver, RootHint};
use dnsttl_telemetry::Telemetry;
use dnsttl_wire::{RData, Rcode, RecordType, Ttl};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// `count` default-policy resolvers in Europe named `{prefix}-{i}`,
/// each on its own fork of `rng`.
fn eu_clients(prefix: &str, count: usize, rng: &mut SimRng) -> Vec<RecursiveResolver> {
    let policy = Arc::new(ResolverPolicy::default());
    let roots: Arc<[RootHint]> = worlds::root_hints().into();
    let mut labels = Labels::default();
    (0..count)
        .map(|i| {
            RecursiveResolver::new(
                labels.format(format_args!("{prefix}-{i}")),
                policy.clone(),
                Region::Eu,
                i as u64,
                roots.clone(),
                rng.fork(i as u64),
            )
        })
        .collect()
}

/// Runs all extension experiments.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    vec![
        offline_child(cfg),
        dnssec_centricity(cfg),
        ddos_resilience(cfg),
        hitrate_validation(cfg),
        load_balancing_agility(cfg),
        negative_ttl_load(cfg),
        secondary_propagation(cfg),
    ]
}

// ---------------------------------------------------------------------
// ext-offline: §4.4's zurrundedu-offline
// ---------------------------------------------------------------------

/// Queries `NS zurrundedu.com` from a mixed resolver population while
/// the child's authoritative servers are offline. The paper: "VPs that
/// employ OpenDNS receive a valid answer, while most others either
/// time out or receive SERVFAIL".
pub(crate) fn offline_child(cfg: &ExpConfig) -> Report {
    let CachetestWorld { mut net, roots, .. } = worlds::cachetest_world(true);
    let roots: Arc<[RootHint]> = roots.into();
    // Kill the child's servers for the whole run; .com (the parent)
    // stays up.
    let forever = SimTime::from_millis(u64::MAX);
    net.set_faults(
        FaultPlan::new()
            .outage(worlds::addrs::SUB_OLD, SimTime::ZERO, forever)
            .outage(worlds::addrs::SUB_NEW, SimTime::ZERO, forever),
    );

    let mut rng = SimRng::seed_from(cfg.seed_for("ext-offline"));
    let mix = PolicyMix::paper_population();
    let weights = mix.weights();
    let count = (cfg.probes / 4).max(50);

    let mut answered_parentish = 0usize;
    let mut total_parentish = 0usize;
    let mut answered_childish = 0usize;
    let mut total_childish = 0usize;
    let mut labels = Labels::default();
    for i in 0..count {
        let policy = mix.policy(rng.weighted_index(&weights)).clone();
        let parentish = policy.centricity == dnsttl_core::Centricity::ParentCentric;
        let mut r = RecursiveResolver::new(
            labels.format(format_args!("off-{i}")),
            policy,
            Region::ALL[rng.weighted_index(&Region::atlas_weights())],
            i as u64,
            roots.clone(),
            rng.fork(i as u64),
        );
        let out = r.resolve(
            &name("zurrundedu.com"),
            RecordType::NS,
            SimTime::ZERO,
            &mut net,
        );
        let ok = out.answer.header.rcode == Rcode::NoError;
        if parentish {
            total_parentish += 1;
            answered_parentish += ok as usize;
        } else {
            total_childish += 1;
            answered_childish += ok as usize;
        }
    }

    let mut report = Report::new(
        "ext-offline",
        "Child authoritatives offline (§4.4's zurrundedu-offline)",
    );
    let frac_parent = answered_parentish as f64 / total_parentish.max(1) as f64;
    let frac_child = answered_childish as f64 / total_childish.max(1) as f64;
    let mut t = Table::new(vec!["resolver kind", "resolvers", "answered", "rate"]);
    t.row(vec![
        "parent-centric (OpenDNS-like)".into(),
        total_parentish.to_string(),
        answered_parentish.to_string(),
        format!("{:.1}%", frac_parent * 100.0),
    ]);
    t.row(vec![
        "child-centric".into(),
        total_childish.to_string(),
        answered_childish.to_string(),
        format!("{:.1}%", frac_child * 100.0),
    ]);
    report.push(t.render());
    report.push(
        "paper §4.4: with the child offline, OpenDNS VPs \"receive a valid answer, while\n\
         most others either time out or receive SERVFAIL\".",
    );
    report.metric("parent_centric_answer_rate", frac_parent);
    report.metric("child_centric_answer_rate", frac_child);
    report
}

// ---------------------------------------------------------------------
// ext-dnssec: validation forces child-centricity, and catches tampering
// ---------------------------------------------------------------------

fn signed_uy_world() -> (Network, Vec<RootHint>, Rc<RefCell<AuthoritativeServer>>) {
    let mut net = Network::new(LatencyModel::internet());
    let root = AuthoritativeServer::new("k.root-servers.net").with_zone(
        ZoneBuilder::new(".")
            .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
            .a("a.nic.uy", "200.40.241.1", Ttl::TWO_DAYS)
            .build(),
    );
    let mut uy_zone = ZoneBuilder::new("uy")
        .ns("uy", "a.nic.uy", Ttl::from_secs(300))
        .a("a.nic.uy", "200.40.241.1", Ttl::from_secs(120))
        .a("www.gub.uy", "200.40.30.1", Ttl::HOUR)
        .build();
    sign_zone(&mut uy_zone);
    let child = Rc::new(RefCell::new(
        AuthoritativeServer::new("a.nic.uy").with_zone(uy_zone),
    ));
    net.register(worlds::addrs::ROOT, Region::Eu, Rc::new(RefCell::new(root)));
    net.register(worlds::addrs::UY_A, Region::Sa, child.clone());
    (net, worlds::root_hints(), child)
}

/// Measures observed `NS .uy` TTLs for validating vs parent-centric
/// resolvers over a signed `.uy`, then injects an unsigned record
/// change (tampering) and measures who notices.
pub(crate) fn dnssec_centricity(cfg: &ExpConfig) -> Report {
    let (mut net, roots, child) = signed_uy_world();
    let roots: Arc<[RootHint]> = roots.into();
    let mut rng = SimRng::seed_from(cfg.seed_for("ext-dnssec"));
    let count = (cfg.probes / 8).max(30);

    let run_group = |policy: ResolverPolicy, net: &mut Network, rng: &mut SimRng| -> Vec<u64> {
        let policy = Arc::new(policy);
        let mut labels = Labels::default();
        (0..count)
            .map(|i| {
                let mut r = RecursiveResolver::new(
                    labels.format(format_args!("g-{i}")),
                    policy.clone(),
                    Region::ALL[rng.weighted_index(&Region::atlas_weights())],
                    i as u64,
                    roots.clone(),
                    rng.fork(7_000 + i as u64),
                );
                let out = r.resolve(&name("uy"), RecordType::NS, SimTime::ZERO, net);
                out.answer
                    .answers
                    .iter()
                    .find(|set| set.rtype == RecordType::NS)
                    .map(|set| set.ttl.as_secs() as u64)
                    .unwrap_or(0)
            })
            .collect()
    };

    let validating_ttls = run_group(ResolverPolicy::validating(), &mut net, &mut rng);
    let parentish_ttls = run_group(ResolverPolicy::parent_centric(), &mut net, &mut rng);

    let frac_validating_child = validating_ttls.iter().filter(|&&t| t <= 300).count() as f64
        / validating_ttls.len().max(1) as f64;
    let frac_parentish_parent = parentish_ttls.iter().filter(|&&t| t > 86_400).count() as f64
        / parentish_ttls.len().max(1) as f64;

    // Tamper: rewrite www.gub.uy's address without re-signing.
    {
        let mut child = child.borrow_mut();
        let zone = child.zone_mut(&name("uy")).expect("uy zone");
        zone.replace_address(&name("www.gub.uy"), "6.6.6.6".parse().unwrap(), Ttl::HOUR);
    }
    let mut probe = |policy: ResolverPolicy, tag: u64| -> (Rcode, Option<RData>) {
        let mut r = RecursiveResolver::new(
            "tamper-probe",
            policy,
            Region::Eu,
            tag,
            roots.clone(),
            rng.fork(tag),
        );
        let out = r.resolve(&name("www.gub.uy"), RecordType::A, SimTime::ZERO, &mut net);
        (
            out.answer.header.rcode,
            out.answer
                .answers
                .first()
                .and_then(|set| set.rdatas.first().cloned()),
        )
    };
    let (validator_rcode, _) = probe(ResolverPolicy::validating(), 90_001);
    let (plain_rcode, plain_answer) = probe(ResolverPolicy::default(), 90_002);

    let mut report = Report::new(
        "ext-dnssec",
        "DNSSEC validation forces child-centricity and catches tampering",
    );
    let mut t = Table::new(vec!["resolver", "observed NS .uy TTL", "expected"]);
    t.row(vec![
        "validating".into(),
        format!("≤300 s for {:.0}%", frac_validating_child * 100.0),
        "100% child TTL (§2)".into(),
    ]);
    t.row(vec![
        "parent-centric, no validation".into(),
        format!(">1 day for {:.0}%", frac_parentish_parent * 100.0),
        "parent TTL".into(),
    ]);
    report.push(t.render());
    report.push(format!(
        "after tampering (record changed without re-signing): validator → {validator_rcode}, \
         plain resolver → {plain_rcode} ({})",
        plain_answer
            .map(|a| a.to_string())
            .unwrap_or_else(|| "no answer".into())
    ));
    report.metric("frac_validating_child", frac_validating_child);
    report.metric("frac_parentish_parent", frac_parentish_parent);
    report.metric(
        "validator_rejects_tampering",
        (validator_rcode == Rcode::ServFail) as u8 as f64,
    );
    report.metric(
        "plain_accepts_tampering",
        (plain_rcode == Rcode::NoError) as u8 as f64,
    );
    report
}

// ---------------------------------------------------------------------
// ext-ddos: §6.1 — caching rides out attacks longer than the TTL covers
// ---------------------------------------------------------------------

/// Simulates a one-hour total outage of a zone's authoritative servers
/// and measures the client-query success rate during the attack for
/// several TTLs, plus a serve-stale variant. The paper's \[36\]: "to be
/// most effective, TTLs must be longer than the attack". The clients,
/// world and outage are `resilience`'s, over internet latencies.
pub(crate) fn ddos_resilience(cfg: &ExpConfig) -> Report {
    // The length of the outage `resilience::outage_plan` scripts.
    let attack_s: u64 = 3_600;
    let clients = (cfg.probes / 20).max(20);
    let survival = |ttl: Ttl, policy: ResolverPolicy, seed_tag: &str| -> f64 {
        let cell = resilience::simulate_clients(
            &Telemetry::disabled(),
            LatencyModel::internet(),
            cfg.seed_for(seed_tag) ^ ttl.as_secs() as u64,
            clients,
            0,
            ttl,
            &policy,
        );
        (cell.queries - cell.failures) as f64 / cell.queries.max(1) as f64
    };

    let ttls = [60u32, 600, 1_800, 7_200, 86_400];
    let mut rates = Vec::new();
    for ttl in ttls {
        rates.push(survival(
            Ttl::from_secs(ttl),
            ResolverPolicy::default(),
            "ext-ddos",
        ));
    }
    let stale_rate = survival(
        Ttl::from_secs(60),
        ResolverPolicy::serve_stale_like(),
        "ext-ddos-stale",
    );

    let mut report = Report::new(
        "ext-ddos",
        "Survival of client queries through a 1-hour authoritative outage",
    );
    let mut t = Table::new(vec!["TTL", "answered during attack", "note"]);
    for (ttl, rate) in ttls.iter().zip(&rates) {
        let note = if *ttl as u64 >= attack_s {
            "TTL ≥ attack: cache carries clients through"
        } else if *ttl as u64 >= attack_s / 4 {
            "TTL < attack: partial protection, caches drain mid-attack"
        } else {
            "TTL ≪ attack: caches drain almost immediately"
        };
        t.row(vec![
            format!("{ttl}s"),
            format!("{:.1}%", rate * 100.0),
            note.into(),
        ]);
        report.metric(&format!("survival_ttl_{ttl}"), *rate);
    }
    t.row(vec![
        "60s + serve-stale".into(),
        format!("{:.1}%", stale_rate * 100.0),
        "stale answers bridge the outage".into(),
    ]);
    report.push(t.render());
    report.push(
        "paper §6.1 / [36]: caching mutes DDoS when caches outlive the attack; serve-stale\n\
         (draft-ietf-dnsop-serve-stale) extends that protection to short TTLs.",
    );
    report.metric("survival_serve_stale_60", stale_rate);
    report
}

// ---------------------------------------------------------------------
// ext-hitrate: validating the analytic cache model
// ---------------------------------------------------------------------

/// Drives Poisson client arrivals into one resolver cache and compares
/// the measured hit rate with `dnsttl_core::hit_rate`'s prediction.
pub(crate) fn hitrate_validation(cfg: &ExpConfig) -> Report {
    let rate_qps = 1.0 / 60.0;
    let horizon = SimDuration::from_hours(24);
    let ttls = [30u32, 60, 300, 1_800, 3_600, 86_400];

    let mut report = Report::new(
        "ext-hitrate",
        "Simulated cache hit rate vs the Jung et al. analytic model",
    );
    let mut t = Table::new(vec!["TTL", "measured", "model λT/(1+λT)", "abs diff"]);
    let mut max_diff: f64 = 0.0;
    let mut measured_series = Vec::new();

    for ttl in ttls {
        let child = AuthoritativeServer::new("ns.example").with_zone(
            ZoneBuilder::new("example")
                .ns("example", "ns.example", Ttl::TWO_DAYS)
                .a("www.example", "203.0.113.1", Ttl::from_secs(ttl))
                .build(),
        );
        let mut net = worlds::example_world(LatencyModel::constant(20.0), child);

        let mut rng = SimRng::seed_from(cfg.seed_for("ext-hitrate") ^ ttl as u64);
        let mut r = RecursiveResolver::new(
            "hitrate",
            ResolverPolicy::default(),
            Region::Eu,
            1,
            worlds::root_hints(),
            rng.fork(1),
        );
        let mut now = SimTime::ZERO;
        let (mut hits, mut total) = (0u64, 0u64);
        loop {
            // Poisson arrivals: exponential gaps with mean 1/λ.
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            let gap_ms = ((-u.ln()) / rate_qps * 1_000.0) as u64;
            now += SimDuration::from_millis(gap_ms.max(1));
            if now > SimTime::ZERO + horizon {
                break;
            }
            let out = r.resolve(&name("www.example"), RecordType::A, now, &mut net);
            total += 1;
            // Only count the leaf-record hit/miss (infrastructure
            // records have their own, much longer TTLs).
            hits += out.cache_hit as u64;
        }
        let measured = hits as f64 / total.max(1) as f64;
        let model = hit_rate(rate_qps, ttl as f64);
        let diff = (measured - model).abs();
        max_diff = max_diff.max(diff);
        measured_series.push(measured);
        t.row(vec![
            format!("{ttl}s"),
            format!("{measured:.3}"),
            format!("{model:.3}"),
            format!("{diff:.3}"),
        ]);
        report.metric(&format!("measured_ttl_{ttl}"), measured);
        report.metric(&format!("model_ttl_{ttl}"), model);
    }
    report.push(t.render());
    report.push(
        "paper §7 cites ~70% production hit rates for TTLs of 1800–86400 s (Moura et al.\n\
         2018); at one query per minute the model and the simulation both put 1800 s+\n\
         TTLs in or above that band.",
    );
    report.metric("max_abs_diff", max_diff);

    // A quick visual: measured hit rate vs TTL.
    let e = Ecdf::new(measured_series);
    report.push(ascii_cdf_multi(
        &[("measured hit rates (per TTL)", &e)],
        48,
        8,
    ));
    report
}

// ---------------------------------------------------------------------
// ext-loadbalance: §6.1 — short TTLs buy load-balancing agility
// ---------------------------------------------------------------------

/// A round-robin authoritative spreads traffic across backends only as
/// often as caches come back: with a long TTL each resolver freezes on
/// whichever backend it drew first. Measures backend load imbalance
/// (max/min share across 4 backends) as a function of TTL.
pub(crate) fn load_balancing_agility(cfg: &ExpConfig) -> Report {
    let clients = (cfg.probes / 20).max(24);
    let horizon = SimDuration::from_hours(2);
    let backends = ["203.0.113.1", "203.0.113.2", "203.0.113.3", "203.0.113.4"];

    let imbalance_for = |ttl: Ttl| -> (f64, Vec<u64>) {
        let mut zone = ZoneBuilder::new("example").ns("example", "ns.example", Ttl::DAY);
        for b in backends {
            zone = zone.a("www.example", b, ttl);
        }
        let mut lb = AuthoritativeServer::new("ns.example").with_zone(zone.build());
        lb.enable_rotation();
        let mut net = worlds::example_world(LatencyModel::constant(20.0), lb);

        let mut rng = SimRng::seed_from(cfg.seed_for("ext-lb") ^ ttl.as_secs() as u64);
        let mut resolvers = eu_clients("lb", clients, &mut rng);
        // Heterogeneous demand (the realistic case): a few hot caches
        // carry most of the clients. With a long TTL a hot cache pins
        // *all* of its connections to whichever backend it drew;
        // rotation can only rebalance at refetch time.
        let gaps_ms: Vec<u64> = (0..clients)
            .map(|_| (rng.log_normal(3.6, 1.3) * 1_000.0).clamp(5_000.0, 600_000.0) as u64)
            .collect();
        let starts = gaps_ms
            .iter()
            .map(|gap| SimTime::from_millis(rng.below((*gap).max(1))));
        let mut counts = vec![0u64; backends.len()];
        let www = name("www.example");
        drive(starts, SimTime::ZERO + horizon, |now, client| {
            let out = resolvers[client].resolve(&www, RecordType::A, now, &mut net);
            // The client uses the first answer — that backend gets
            // the connection.
            if let Some(first) = out.answer.answers.first() {
                if let Some(RData::A(a)) = first.rdatas.first() {
                    if let Some(idx) = backends.iter().position(|b| *b == a.to_string()) {
                        counts[idx] += 1;
                    }
                }
            }
            SimDuration::from_millis(gaps_ms[client])
        });
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        (max / min.max(1.0), counts)
    };

    let mut report = Report::new(
        "ext-loadbalance",
        "DNS-based load balancing agility vs TTL (§6.1)",
    );
    let mut t = Table::new(vec!["TTL", "per-backend connections", "max/min imbalance"]);
    for ttl in [30u32, 300, 3_600] {
        let (imbalance, counts) = imbalance_for(Ttl::from_secs(ttl));
        t.row(vec![
            format!("{ttl}s"),
            format!("{counts:?}"),
            format!("{imbalance:.2}x"),
        ]);
        report.metric(&format!("imbalance_ttl_{ttl}"), imbalance);
    }
    report.push(t.render());
    report.push(
        "paper §6.1: \"each arriving DNS request provides an opportunity to adjust load,\n\
         so short TTLs may be desired\" — with long TTLs each cache freezes on one\n\
         backend and the rotation never rebalances.",
    );
    report
}

// ---------------------------------------------------------------------
// ext-negttl: RFC 2308 — the SOA minimum is the TTL of nonexistence
// ---------------------------------------------------------------------

/// Drives repeated queries for nonexistent names and measures
/// authoritative load as a function of the zone's negative-caching TTL
/// (SOA `minimum`) — the same caching arithmetic as positive TTLs, on
/// the NXDOMAIN path the paper's crawler exercises constantly.
pub(crate) fn negative_ttl_load(cfg: &ExpConfig) -> Report {
    let clients = (cfg.probes / 40).max(10);
    let horizon = SimDuration::from_hours(1);
    let query_gap = SimDuration::from_secs(30);

    let auth_load = |neg_ttl: Ttl| -> u64 {
        let zone = ZoneBuilder::new("example")
            .ns("example", "ns.example", Ttl::DAY)
            .negative_ttl(neg_ttl)
            .build();
        let child = AuthoritativeServer::new("ns.example").with_zone(zone);
        let mut net = worlds::example_world(LatencyModel::constant(20.0), child);

        let mut rng = SimRng::seed_from(cfg.seed_for("ext-negttl") ^ neg_ttl.as_secs() as u64);
        let mut resolvers = eu_clients("neg", clients, &mut rng);
        let starts = (0..clients).map(|_| SimTime::from_millis(rng.below(query_gap.as_millis())));
        drive(starts, SimTime::ZERO + horizon, |now, client| {
            // Each client hammers one typo name (think a
            // misconfigured app retrying).
            let qname = name(&format!("typo{client}.example"));
            let out = resolvers[client].resolve(&qname, RecordType::A, now, &mut net);
            debug_assert_eq!(out.answer.header.rcode, Rcode::NxDomain);
            query_gap
        });
        net.queries_received(worlds::addrs::EXAMPLE)
    };

    let mut report = Report::new(
        "ext-negttl",
        "Authoritative load from nonexistent names vs negative-caching TTL (RFC 2308)",
    );
    let mut t = Table::new(vec!["SOA minimum", "authoritative queries in 1h"]);
    let mut loads = Vec::new();
    for neg in [5u32, 60, 300, 3_600] {
        let load = auth_load(Ttl::from_secs(neg));
        loads.push(load);
        t.row(vec![format!("{neg}s"), load.to_string()]);
        report.metric(&format!("auth_queries_neg_{neg}"), load as f64);
    }
    report.push(t.render());
    report.push(
        "NXDOMAIN caching follows the same arithmetic as positive TTLs: raising the SOA\n\
         minimum from seconds to an hour collapses typo-traffic load on the authoritative.",
    );
    report.metric(
        "reduction_5s_to_3600s",
        1.0 - *loads.last().unwrap() as f64 / loads[0].max(1) as f64,
    );
    report
}

// ---------------------------------------------------------------------
// ext-secondary: change propagation through secondaries
// ---------------------------------------------------------------------

/// The §4 renumbering experiments changed single VMs instantly; real
/// zones propagate edits to secondaries at the SOA `refresh` cadence.
/// This experiment renumbers a service behind a primary + secondary
/// pair and measures when clients (with a short 60 s record TTL, so
/// caching is not the bottleneck) actually stop seeing the old
/// address, for several refresh intervals.
pub(crate) fn secondary_propagation(cfg: &ExpConfig) -> Report {
    use dnsttl_auth::SecondaryServer;

    let mut report = Report::new(
        "ext-secondary",
        "Renumbering propagation through secondary servers (SOA refresh)",
    );
    let mut t = Table::new(vec![
        "SOA refresh",
        "last old-address answer seen at",
        "bound (refresh)",
    ]);
    let clients = (cfg.probes / 60).max(8);

    for refresh_s in [300u64, 900, 3_600] {
        let mut net = Network::new(LatencyModel::constant(10.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("example", "ns1.example", Ttl::TWO_DAYS)
                .ns("example", "ns2.example", Ttl::TWO_DAYS)
                .a("ns1.example", "192.0.2.1", Ttl::TWO_DAYS)
                .a("ns2.example", "192.0.2.2", Ttl::TWO_DAYS)
                .build(),
        );
        net.register(worlds::addrs::ROOT, Region::Eu, Rc::new(RefCell::new(root)));
        let primary = Rc::new(RefCell::new(
            AuthoritativeServer::new("ns1.example").with_zone(
                ZoneBuilder::new("example")
                    .ns("example", "ns1.example", Ttl::MINUTE)
                    .ns("example", "ns2.example", Ttl::MINUTE)
                    .a("www.example", "203.0.113.1", Ttl::MINUTE)
                    .build(),
            ),
        ));
        let secondary = SecondaryServer::new(
            "ns2.example",
            primary.clone(),
            name("example"),
            dnsttl_netsim::SimDuration::from_secs(refresh_s),
        );
        net.register("192.0.2.1".parse().unwrap(), Region::Eu, primary.clone());
        net.register(
            "192.0.2.2".parse().unwrap(),
            Region::Eu,
            Rc::new(RefCell::new(secondary)),
        );

        let mut rng = SimRng::seed_from(cfg.seed_for("ext-secondary") ^ refresh_s);
        let mut resolvers = eu_clients("sp", clients, &mut rng);

        // Renumber at t = 120 s on the primary only.
        let renumber_at = 120u64;
        let mut last_old_seen = 0u64;
        for step in 0..((refresh_s + 600) / 30 + 10) {
            let now = SimTime::from_secs(step * 30);
            if now.as_secs() == renumber_at {
                primary
                    .borrow_mut()
                    .zone_mut(&name("example"))
                    .unwrap()
                    .replace_address(
                        &name("www.example"),
                        "198.51.100.9".parse().unwrap(),
                        Ttl::MINUTE,
                    );
            }
            for r in &mut resolvers {
                let out = r.resolve(&name("www.example"), RecordType::A, now, &mut net);
                if out
                    .answer
                    .answers
                    .iter()
                    .flat_map(|set| set.rdatas.iter())
                    .any(|rd| *rd == dnsttl_wire::RData::A("203.0.113.1".parse().unwrap()))
                    && now.as_secs() > renumber_at
                {
                    last_old_seen = now.as_secs();
                }
            }
        }
        let bound = renumber_at + refresh_s + 60; // refresh + record TTL
        t.row(vec![
            format!("{refresh_s}s"),
            format!("t={last_old_seen}s"),
            format!("≤ t={bound}s"),
        ]);
        report.metric(
            &format!("last_old_refresh_{refresh_s}"),
            last_old_seen as f64,
        );
        report.metric(&format!("bound_refresh_{refresh_s}"), bound as f64);
    }
    report.push(t.render());
    report.push(
        "operators must budget TTL *plus* secondary refresh when planning a change: the
         old address keeps being served by not-yet-refreshed secondaries (RFC 1034 §4.3.5),
         a window the paper's single-VM renumbering did not exercise.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secondary_refresh_bounds_propagation() {
        let r = secondary_propagation(&ExpConfig::quick());
        for refresh in [300u64, 900, 3_600] {
            let last = r.get(&format!("last_old_refresh_{refresh}"));
            let bound = r.get(&format!("bound_refresh_{refresh}"));
            assert!(last > 0.0, "old address must be visible after the change");
            assert!(last <= bound, "refresh {refresh}: {last} > bound {bound}");
        }
        // Longer refresh ⇒ longer exposure of the old address.
        assert!(
            r.get("last_old_refresh_3600") > r.get("last_old_refresh_300"),
            "propagation grows with refresh"
        );
    }

    #[test]
    fn offline_child_separates_centricities() {
        let r = offline_child(&ExpConfig::quick());
        assert!(r.get("parent_centric_answer_rate") > 0.9);
        assert!(r.get("child_centric_answer_rate") < 0.2);
    }

    #[test]
    fn dnssec_validation_behaviour() {
        let r = dnssec_centricity(&ExpConfig::quick());
        assert_eq!(r.get("frac_validating_child"), 1.0);
        assert!(r.get("frac_parentish_parent") > 0.9);
        assert_eq!(r.get("validator_rejects_tampering"), 1.0);
        assert_eq!(r.get("plain_accepts_tampering"), 1.0);
    }

    #[test]
    fn ddos_survival_grows_with_ttl() {
        let r = ddos_resilience(&ExpConfig::quick());
        let s60 = r.get("survival_ttl_60");
        let s1800 = r.get("survival_ttl_1800");
        let s7200 = r.get("survival_ttl_7200");
        let s86400 = r.get("survival_ttl_86400");
        assert!(s60 < 0.3, "short TTL drains: {s60}");
        assert!(
            s1800 < s7200,
            "partial protection below full: {s1800} vs {s7200}"
        );
        assert!(s7200 > 0.5, "TTL ≥ attack survives: {s7200}");
        assert!(s86400 > 0.5);
        assert!(
            r.get("survival_serve_stale_60") > 0.9,
            "serve-stale bridges the outage: {}",
            r.get("survival_serve_stale_60")
        );
    }

    #[test]
    fn short_ttls_balance_load_better() {
        let r = load_balancing_agility(&ExpConfig::quick());
        let fast = r.get("imbalance_ttl_30");
        let slow = r.get("imbalance_ttl_3600");
        assert!(
            fast < slow,
            "30s imbalance {fast} must beat 3600s imbalance {slow}"
        );
        assert!(fast < 2.0, "short TTLs should spread load well: {fast}");
    }

    #[test]
    fn negative_ttl_cuts_typo_load() {
        let r = negative_ttl_load(&ExpConfig::quick());
        assert!(
            r.get("auth_queries_neg_3600") < r.get("auth_queries_neg_5"),
            "longer negative TTL must cut load"
        );
        assert!(r.get("reduction_5s_to_3600s") > 0.5);
    }

    #[test]
    fn analytic_model_matches_simulation() {
        let r = hitrate_validation(&ExpConfig::quick());
        assert!(
            r.get("max_abs_diff") < 0.06,
            "model deviates: {}",
            r.get("max_abs_diff")
        );
        // The Moura-2018 band: 1800 s at 1 q/min is well above 70%.
        assert!(r.get("measured_ttl_1800") > 0.9);
    }
}
