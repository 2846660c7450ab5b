//! Figures 3–4: passive classification of `.nl` resolvers.
//!
//! The paper gathers two days of queries at two of `.nl`'s four
//! authoritative servers and groups them by (resolver, query-name),
//! where the query names are the NS hosts' A records — published with
//! 172 800 s glue at the root but only 3 600 s in the child zone.
//! Child-centric resolvers re-fetch hourly (many queries per group,
//! minimum interarrivals bunched at multiples of 3 600 s); resolvers
//! that honour the glue, rotate to unobserved servers, or simply have
//! no demand show up once.
//!
//! Here a resolver population with heavy-tailed client demand drives
//! the same query stream through the simulated `.nl`, and the same
//! grouping is applied to the logs of the two observed servers.

use crate::config::ExpConfig;
use crate::report::Report;
use crate::worlds;
use dnsttl_analysis::{ascii_cdf_multi, ArrivalFold, CsvWriter, Ecdf};
use dnsttl_core::PolicyMix;
use dnsttl_netsim::{drive, SimDuration, SimRng, SimTime};
use dnsttl_resolver::{Labels, RecursiveResolver, RootHint};
use dnsttl_wire::RecordType;
use std::sync::Arc;

/// Runs the passive `.nl` study; returns fig3 and fig4.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let mut world = worlds::nl_world();
    world.net.set_telemetry(cfg.telemetry.clone());
    let mut rng = SimRng::seed_from(cfg.seed_for("passive-nl"));

    // Build the resolver population with the paper's policy mixture.
    // A slice of "resolvers" are actually farms: several independent
    // caches NATed behind one source address ([48]'s complex recursive
    // infrastructure). Their interleaved caches are what produces the
    // sub-hour minimum interarrivals of Figure 4.
    // Every resolver shares the root hints and its mixture policy, and
    // labels go through one buffer: an idle resolver costs its label.
    let mix = PolicyMix::paper_population();
    let weights = mix.weights();
    let roots: Arc<[RootHint]> = world.roots.as_slice().into();
    let mut labels = Labels::default();
    let mut resolvers: Vec<RecursiveResolver> = Vec::with_capacity(cfg.nl_resolvers);
    let mut source_tag: u64 = 0;
    for i in 0..cfg.nl_resolvers {
        // 12% of caches join the previous source's farm.
        if i == 0 || !rng.chance(0.12) {
            source_tag = i as u64;
        }
        resolvers.push(RecursiveResolver::new(
            labels.format(format_args!("nl-res-{i}")),
            mix.policy(rng.weighted_index(&weights)).clone(),
            dnsttl_netsim::Region::ALL[rng.weighted_index(&dnsttl_netsim::Region::atlas_weights())],
            source_tag,
            roots.clone(),
            rng.fork(i as u64),
        ));
    }
    for r in &mut resolvers {
        r.set_telemetry(cfg.telemetry.clone());
    }

    // Heavy-tailed demand: most resolvers need `.nl` rarely, some
    // constantly (the paper's 205k resolver IPs range from stub-like
    // forwarders to ISP caches; §3.4 finds ~48% of groups with a
    // single query in two days). Per-resolver mean interarrival is
    // log-normal with a wide sigma: the median resolver shows up a
    // handful of times, the busy head hourly. Each resolver's next
    // qname is drawn when its demand is scheduled.
    let names = world.ns_host_names.len() as u64;
    let mut mean_gap_ms: Vec<u64> = Vec::with_capacity(resolvers.len());
    let mut next_qname: Vec<usize> = Vec::with_capacity(resolvers.len());
    let mut starts: Vec<SimTime> = Vec::with_capacity(resolvers.len());
    for _ in 0..resolvers.len() {
        let mean = rng.log_normal(10.1, 2.4); // seconds; median ~6.7 h
        let gap = (mean * 1_000.0).clamp(30_000.0, 2.0e8) as u64;
        mean_gap_ms.push(gap);
        starts.push(SimTime::from_millis(rng.below(gap.max(1))));
        next_qname.push(rng.below(names) as usize);
    }

    // Exponential interarrivals around each resolver's mean.
    let exp_gap = |rng: &mut SimRng, mean_ms: u64| -> u64 {
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        ((-u.ln()) * mean_ms as f64).clamp(1_000.0, 4.0e8) as u64
    };

    // The two observed servers' logs, grouped by (resolver tag, qname)
    // — the paper's 368k groups — and folded as they arrive: demands run
    // in time order and a resolution sends nothing before it starts, so
    // no later query lands before this demand's second.
    let mut groups = ArrivalFold::default();
    let mut total_demand = 0u64;
    let end = SimTime::ZERO + SimDuration::from_hours(cfg.nl_hours);
    drive(starts, end, |now, i| {
        total_demand += 1;
        let qname = &world.ns_host_names[next_qname[i]];
        resolvers[i].resolve_verdict(qname, RecordType::A, now, &mut world.net);
        for server in &world.logged {
            for q in server.borrow_mut().drain_log() {
                groups.add((q.client.tag, q.qname), q.at.as_secs());
            }
        }
        groups.settle(now.as_secs());
        let gap = exp_gap(&mut rng, mean_gap_ms[i]);
        next_qname[i] = rng.below(names) as usize;
        SimDuration::from_millis(gap)
    });

    let groups = groups.finish();
    let single =
        groups.values().filter(|g| g.count == 1).count() as f64 / groups.len().max(1) as f64;

    // Figure 3: CDF of queries per group, all vs retransmission-filtered
    // (the paper's 2 s filter changes nothing; we include it anyway).
    let mut fig3 = Report::new(
        "fig3",
        "CDF of A queries per resolver/query-name (.nl, 2 days)",
    );
    let all = Ecdf::from_u64(groups.values().map(|g| g.count));
    let filt = Ecdf::from_u64(groups.values().map(|g| g.filtered));
    fig3.push(ascii_cdf_multi(
        &[("all", &all), ("filtered >2s", &filt)],
        64,
        12,
    ));
    fig3.push(format!(
        "groups: {}   demand events: {total_demand}",
        groups.len()
    ));
    fig3.push(format!(
        "single-query groups: {:.1}% (paper: ~48%)   multi-query (child-centric evidence): {:.1}%",
        single * 100.0,
        (1.0 - single) * 100.0
    ));
    fig3.metric("groups", groups.len() as f64);
    fig3.metric("frac_single_query", single);
    fig3.metric("median_queries_per_group", all.median());
    fig3.write(cfg, "fig3_queries_per_group_cdf.csv", || {
        let mut w = CsvWriter::new(&["queries", "cdf"]);
        for (x, y) in all.points() {
            w.row_display(&[x, y]);
        }
        w.finish()
    });

    // Figure 4: CDF of minimum interarrival per multi-query group;
    // bumps at multiples of the child's 3600 s TTL.
    let mut fig4 = Report::new(
        "fig4",
        "CDF of minimum interarrival time of A queries per resolver/query-name",
    );
    let min_ecdf = Ecdf::from_u64(groups.values().filter_map(|g| g.min_gap));
    let mins = min_ecdf.samples();
    if !min_ecdf.is_empty() {
        fig4.push(ascii_cdf_multi(&[("min interarrival", &min_ecdf)], 64, 12));
        fig4.push(format!(
            "min-interarrival summary (s): {}",
            min_ecdf.summary()
        ));
    }
    // The 1-hour bump: mass within ±10% of 3600 s.
    let hour_bump = mins
        .iter()
        .filter(|&&m| (3_240.0..=3_960.0).contains(&m))
        .count() as f64
        / mins.len().max(1) as f64;
    let sub_hour = mins.iter().filter(|&&m| m < 3_240.0).count() as f64 / mins.len().max(1) as f64;
    fig4.push(format!(
        "mass at ~1h (child TTL): {:.1}%   below 1h: {:.1}%",
        hour_bump * 100.0,
        sub_hour * 100.0
    ));
    fig4.metric("hour_bump_fraction", hour_bump);
    fig4.metric("groups_with_multi", mins.len() as f64);
    fig4.write(cfg, "fig4_min_interarrival_cdf.csv", || {
        let mut w = CsvWriter::new(&["seconds", "cdf"]);
        for (x, y) in min_ecdf.points() {
            w.row_display(&[x, y]);
        }
        w.finish()
    });

    vec![fig3, fig4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nl_classification_shapes() {
        let cfg = ExpConfig::quick();
        let reports = run(&cfg);
        let fig3 = &reports[0];
        assert!(fig3.get("groups") > 100.0, "groups {}", fig3.get("groups"));
        // A substantial single-query mass AND a substantial multi-query
        // (child-centric) mass, as in the paper's ~48/52 split.
        let single = fig3.get("frac_single_query");
        assert!((0.05..0.90).contains(&single), "single {single}");

        let fig4 = &reports[1];
        // Figure 4's signature: a bump at the child's one-hour TTL.
        assert!(
            fig4.get("hour_bump_fraction") > 0.15,
            "hour bump {}",
            fig4.get("hour_bump_fraction")
        );
    }
}
