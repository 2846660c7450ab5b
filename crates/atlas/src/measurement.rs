//! Measurement scheduling.
//!
//! One measurement = one query repeated from every vantage point at a
//! fixed frequency for a fixed duration (the paper queries every 600 s
//! for 1–4 hours, Table 2 / Table 3). VPs start phase-shifted within
//! the first interval, as Atlas spreads its probes, which is what makes
//! shared caches observable: a VP that queries just after a cache fill
//! sees a decremented TTL.

use crate::dataset::{Dataset, MeasurementResult};
use crate::population::Population;
use dnsttl_netsim::{drive, Network, SimDuration, SimRng, SimTime};
use dnsttl_telemetry::{EventKind, Telemetry, Value};
use dnsttl_wire::{Message, Name, RData, RRset, Rcode, RecordType};
use std::fmt::Write as _;
use std::sync::Arc;

/// How query names are formed.
#[derive(Debug, Clone)]
pub enum QueryName {
    /// Every VP queries the same name (`NS .uy` style).
    Fixed(Name),
    /// Every probe queries `<probeid>.<suffix>` — the paper's
    /// cache-busting `PROBEID.sub.cachetest.net` pattern.
    PerProbe {
        /// The shared suffix under which probe IDs are prepended.
        suffix: Name,
    },
}

impl QueryName {
    /// The concrete name a probe queries.
    pub(crate) fn for_probe(&self, probe_id: u32) -> Name {
        match self {
            QueryName::Fixed(n) => n.clone(),
            QueryName::PerProbe { suffix } => suffix
                .child(&format!("p{probe_id}"))
                .expect("probe label is short and valid"),
        }
    }
}

/// One measurement campaign.
#[derive(Debug, Clone)]
pub struct MeasurementSpec {
    /// Name(s) to query.
    pub query: QueryName,
    /// Record type to query.
    pub qtype: RecordType,
    /// Inter-query interval per VP (the paper uses 600 s).
    pub frequency: SimDuration,
    /// Total campaign duration, from simulation time zero.
    pub duration: SimDuration,
}

impl MeasurementSpec {
    /// The paper's default cadence: every 600 s.
    pub fn every_600s(query: QueryName, qtype: RecordType, hours: u64) -> MeasurementSpec {
        MeasurementSpec {
            query,
            qtype,
            frequency: SimDuration::from_secs(600),
            duration: SimDuration::from_hours(hours),
        }
    }
}

/// A mid-campaign intervention: at `at`, `action` runs against the
/// network (and whatever world handles it captured). The §4
/// renumbering experiments fire one of these nine minutes in.
///
/// A hook fires just before the first VP query due at or after `at`,
/// so one due after the campaign's last query never fires.
pub struct Hook {
    /// When to fire.
    pub at: SimTime,
    /// What to do.
    pub action: Box<dyn FnOnce(&mut Network)>,
}

/// Runs a measurement campaign over the population and network.
///
/// Every VP fires once per `frequency`, phase-shifted uniformly within
/// the first interval. Results land in a [`Dataset`] with the observed
/// TTL (first answer record), rcode, answer strings, and the
/// client-observed RTT = probe→resolver link + resolver work.
pub fn run_measurement(
    spec: &MeasurementSpec,
    population: &mut Population,
    net: &mut Network,
    rng: &mut SimRng,
) -> Dataset {
    run_measurement_with_hooks(spec, population, net, rng, Vec::new())
}

/// [`run_measurement`] with scheduled interventions.
pub fn run_measurement_with_hooks(
    spec: &MeasurementSpec,
    population: &mut Population,
    net: &mut Network,
    rng: &mut SimRng,
    hooks: Vec<Hook>,
) -> Dataset {
    let mut hooks = hooks;
    hooks.sort_by_key(|h| h.at);
    let mut hooks = hooks.into_iter().peekable();
    let vps = population.vantage_points();
    let phases: Vec<SimTime> = vps
        .iter()
        .map(|_| SimTime::from_millis(rng.below(spec.frequency.as_millis().max(1))))
        .collect();
    // Every VP fires ceil(duration / frequency) times (phase shifts keep
    // each VP's full tick count inside the campaign window), so the
    // result volume is known up front.
    let ticks_per_vp = spec
        .duration
        .as_millis()
        .div_ceil(spec.frequency.as_millis().max(1)) as usize;
    let mut dataset = Dataset::with_capacity(vps.len() * ticks_per_vp);

    // One message takes every answer, and the rows share their lists.
    let mut answer = Message::default();
    let mut lists = AnswerLists::default();
    drive(phases, SimTime::ZERO + spec.duration, |now, vp_index| {
        while let Some(hook) = hooks.next_if(|h| h.at <= now) {
            (hook.action)(net);
        }
        let vp = vps[vp_index];
        let probe = &population.probes[vp.probe_idx];
        let qname = spec.query.for_probe(probe.id);
        let probe_region = probe.region;
        let probe_id = probe.id;
        let hijacked = probe.hijacked;
        let slot_ref = probe.resolvers[vp.slot];

        let backend = population.pick_backend(slot_ref, rng);
        let resolver = &mut population.resolvers[backend];
        let verdict = resolver.resolve_into(&qname, spec.qtype, now, net, &mut answer);

        let rtt_ms = vp.link_rtt_ms + verdict.elapsed.as_millis();
        let first_answer = answer
            .answers
            .iter()
            .find(|s| s.rtype == spec.qtype || s.rtype == RecordType::CNAME);
        let ttl = first_answer.map(|s| s.ttl.as_secs() as u64);
        let answers = lists.list(&answer.answers);

        // A hijacked probe's answers are overwritten by a middlebox;
        // analysis marks them invalid, as the paper discards them.
        let valid = !hijacked && verdict.rcode == Rcode::NoError && verdict.answers > 0;

        // Valid/discard accounting rides on the resolver's telemetry
        // handle (all population resolvers share one when attached).
        let telemetry: &Telemetry = population.resolvers[backend].telemetry();
        if valid {
            telemetry.count("atlas_measurements_valid", 1);
        } else {
            let reason = if hijacked {
                "hijacked"
            } else if verdict.rcode != Rcode::NoError {
                "rcode"
            } else {
                "empty_answer"
            };
            telemetry.count_with("atlas_measurements_discarded", &[("reason", reason)], 1);
            telemetry.event(now.as_millis(), EventKind::Discard, |f| {
                f.push("probe_id", u64::from(probe_id));
                f.push_shared("qname", qname.shared());
                f.push("reason", Value::literal(reason));
            });
        }

        dataset.push(MeasurementResult {
            at: now,
            probe_id,
            probe_idx: vp.probe_idx,
            vp_slot: vp.slot,
            resolver_idx: backend,
            region: probe_region,
            qname: qname.clone(),
            rcode: verdict.rcode,
            ttl,
            answers,
            rtt_ms,
            cache_hit: verdict.cache_hit,
            valid,
            timed_out: verdict.rcode == Rcode::ServFail,
        });
        spec.frequency
    });
    dataset
}

/// The answer lists a campaign's rows hold. A row whose answers read as
/// a list stored lately shares that list, so the probe loop allocates
/// once per distinct answer, not once per row.
#[derive(Default)]
struct AnswerLists {
    /// The last [`AnswerLists::RECENT`] lists stored, newest first,
    /// compared by content.
    recent: Vec<Arc<[Arc<str>]>>,
    /// This row's answers in presentation form, one after another.
    text: String,
    /// Where each of them ends in `text`.
    ends: Vec<usize>,
}

impl AnswerLists {
    /// Enough for every order a three-server NS set is served in.
    const RECENT: usize = 8;

    /// The members of `sets` in presentation form, as a shared list. An
    /// `NS` or `CNAME` member shares the name's own buffer (a reference
    /// count, not a copy); any other type is rendered once.
    fn list(&mut self, sets: &[RRset]) -> Arc<[Arc<str>]> {
        self.text.clear();
        self.ends.clear();
        let members = || sets.iter().flat_map(|s| s.rdatas.iter());
        for rd in members() {
            match rd {
                RData::Ns(name) | RData::Cname(name) => self.text.push_str(name.as_str()),
                other => {
                    // Writing into a `String` cannot fail.
                    let _ = write!(self.text, "{other}");
                }
            }
            self.ends.push(self.text.len());
        }
        let (text, ends) = (&self.text, &self.ends);
        let fields = || {
            ends.iter().scan(0, |start, &end| {
                let field = &text[*start..end];
                *start = end;
                Some(field)
            })
        };
        let stored = self
            .recent
            .iter()
            .find(|list| list.iter().map(|a| &**a).eq(fields()));
        if let Some(list) = stored {
            return Arc::clone(list);
        }
        let list: Arc<[Arc<str>]> = members()
            .zip(fields())
            .map(|(rd, field)| match rd {
                RData::Ns(name) | RData::Cname(name) => name.shared().clone(),
                _ => Arc::from(field),
            })
            .collect();
        self.recent.insert(0, Arc::clone(&list));
        self.recent.truncate(AnswerLists::RECENT);
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use dnsttl_auth::{AuthoritativeServer, ZoneBuilder};
    use dnsttl_netsim::{LatencyModel, Region};
    use dnsttl_resolver::RootHint;
    use dnsttl_wire::Ttl;
    use std::cell::RefCell;
    use std::net::{IpAddr, Ipv4Addr};
    use std::rc::Rc;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    fn world() -> (Network, Vec<RootHint>) {
        let mut net = Network::new(LatencyModel::constant(20.0));
        let root = AuthoritativeServer::new("root").with_zone(
            ZoneBuilder::new(".")
                .ns("uy", "a.nic.uy", Ttl::TWO_DAYS)
                .a("a.nic.uy", "198.51.100.2", Ttl::TWO_DAYS)
                .build(),
        );
        let child = AuthoritativeServer::new("a.nic.uy").with_zone(
            ZoneBuilder::new("uy")
                .ns("uy", "a.nic.uy", Ttl::from_secs(300))
                .a("a.nic.uy", "198.51.100.2", Ttl::from_secs(120))
                .build(),
        );
        net.register(ip(1), Region::Eu, Rc::new(RefCell::new(root)));
        net.register(ip(2), Region::Sa, Rc::new(RefCell::new(child)));
        (
            net,
            vec![RootHint {
                ns_name: Name::parse("root").unwrap(),
                addr: ip(1),
            }],
        )
    }

    #[test]
    fn rows_with_the_same_answers_share_one_list() {
        let n = |s: &str| Name::parse(s).unwrap();
        let ns = |host: &str| RRset::new(n("uy"), RecordType::NS, Ttl::HOUR, RData::Ns(n(host)));
        let a = |last: u8| {
            let addr = std::net::Ipv4Addr::new(192, 0, 2, last);
            RRset::new(n("a.nic.uy"), RecordType::A, Ttl::HOUR, RData::A(addr))
        };
        let mut lists = AnswerLists::default();
        let first = lists.list(&[ns("a.nic.uy"), a(1)]);
        assert_eq!(
            first.iter().map(|s| &**s).collect::<Vec<_>>(),
            ["a.nic.uy.", "192.0.2.1"]
        );
        assert!(Arc::ptr_eq(&first, &lists.list(&[ns("a.nic.uy"), a(1)])));
        // Another order, a prefix and the empty answer are lists of their own.
        for other in [vec![a(1), ns("a.nic.uy")], vec![ns("a.nic.uy")], vec![]] {
            assert!(!Arc::ptr_eq(&first, &lists.list(&other)), "{other:?}");
        }
        // Past the last `RECENT` new lists, the first is stored again:
        // the same content in a new list.
        for last in 2..2 + AnswerLists::RECENT as u8 {
            lists.list(&[a(last)]);
        }
        let again = lists.list(&[ns("a.nic.uy"), a(1)]);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first, again);
    }

    #[test]
    fn campaign_produces_expected_query_volume() {
        let (mut net, roots) = world();
        let mut rng = SimRng::seed_from(1);
        let mut pop = Population::build(&PopulationConfig::small(100), &roots, &mut rng);
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            1,
        );
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        // Each VP queries 6 times in an hour (phases keep all 6 in
        // range).
        let vps = pop.vp_count();
        assert_eq!(ds.len(), vps * 6);
    }

    #[test]
    fn ttls_reflect_centricity_mixture() {
        let (mut net, roots) = world();
        let mut rng = SimRng::seed_from(2);
        let mut pop = Population::build(&PopulationConfig::small(300), &roots, &mut rng);
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            2,
        );
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        let ttls: Vec<u64> = ds.valid().filter_map(|r| r.ttl).collect();
        assert!(!ttls.is_empty());
        let child_side = ttls.iter().filter(|&&t| t <= 300).count() as f64 / ttls.len() as f64;
        // The default policy mix is ~90% child-centric.
        assert!(child_side > 0.80, "child-side fraction {child_side}");
        // And some parent-centric answers exist with day+-scale TTLs.
        assert!(ttls.iter().any(|&t| t > 86_400));
    }

    #[test]
    fn per_probe_names_bust_shared_caches() {
        let (mut net, roots) = world();
        let mut rng = SimRng::seed_from(3);
        let mut pop = Population::build(&PopulationConfig::small(50), &roots, &mut rng);
        let spec = MeasurementSpec {
            query: QueryName::PerProbe {
                suffix: Name::parse("uy").unwrap(),
            },
            qtype: RecordType::A,
            frequency: SimDuration::from_secs(600),
            duration: SimDuration::from_hours(1),
        };
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        // Distinct probes produce distinct qnames.
        let mut qnames: Vec<String> = ds.results().iter().map(|r| r.qname.to_string()).collect();
        qnames.sort();
        qnames.dedup();
        assert_eq!(qnames.len(), pop.probe_count());
    }

    #[test]
    fn rtt_includes_link_and_resolver_time() {
        let (mut net, roots) = world();
        let mut rng = SimRng::seed_from(4);
        let mut pop = Population::build(&PopulationConfig::small(40), &roots, &mut rng);
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            1,
        );
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        // Cache misses must be slower than hits on average: misses pay
        // 20 ms per upstream exchange.
        let miss: Vec<u64> = ds
            .valid()
            .filter(|r| !r.cache_hit)
            .map(|r| r.rtt_ms)
            .collect();
        let hit: Vec<u64> = ds
            .valid()
            .filter(|r| r.cache_hit)
            .map(|r| r.rtt_ms)
            .collect();
        assert!(!miss.is_empty() && !hit.is_empty());
        let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(avg(&miss) > avg(&hit) + 10.0);
    }

    #[test]
    fn hijacked_probes_marked_invalid() {
        let (mut net, roots) = world();
        let mut rng = SimRng::seed_from(5);
        // About 1 % of probes are hijacked: a thousand holds some.
        let mut pop = Population::build(&PopulationConfig::small(1_000), &roots, &mut rng);
        let hijacked: Vec<u32> = pop
            .probes
            .iter()
            .filter(|p| p.hijacked)
            .map(|p| p.id)
            .collect();
        assert!(!hijacked.is_empty());
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            1,
        );
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        let rows: Vec<&MeasurementResult> = ds
            .results()
            .iter()
            .filter(|r| hijacked.contains(&r.probe_id))
            .collect();
        assert!(!rows.is_empty() && rows.iter().all(|r| !r.valid));
    }
}
