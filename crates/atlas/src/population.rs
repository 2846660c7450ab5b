//! Probe and resolver populations.
//!
//! §3.2 of the paper describes the measurement substrate: ~10k Atlas
//! probes across 3.3k ASes, about a third hosting multiple vantage
//! points; many probes have several recursive resolvers, some local and
//! some public (OpenDNS and Google appear by name). Public resolvers
//! are *not* single caches: the paper repeatedly leans on prior work
//! ([36, 48]) showing query-level load balancing over fragmented
//! backend caches. The population builder reproduces all of that:
//! local resolvers are dedicated caches; public resolvers are groups of
//! backends and every query lands on a random member.

use dnsttl_core::{PolicyMix, ResolverPolicy};
use dnsttl_netsim::{Region, SimRng};
use dnsttl_resolver::{Labels, RecursiveResolver, RootHint};
use std::sync::Arc;

/// An exact seeded Zipf sampler over ranks `0..n`.
///
/// *Modeling and Predicting DNS Server Load* calibrates realistic
/// query populations with Zipf-distributed name popularity; the scale
/// campaigns here draw each probe's target rank from this sampler so
/// hit-rate-vs-TTL curves reflect skewed, cache-sharing traffic rather
/// than uniform-traffic artifacts.
///
/// Unlike [`SimRng::zipf`] (a fast continuous approximation, documented
/// as unfit for exact statistics), this sampler materialises the exact
/// normalised CDF of `P(rank = k) ∝ 1 / (k+1)^s` and inverts it by
/// binary search: the empirical rank-frequency slope converges on the
/// configured exponent, which `tests/zipf_invariants.rs` asserts.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[k]` = P(rank ≤ k); the last entry is exactly 1.0.
    cdf: Vec<f64>,
    exponent: f64,
}

impl ZipfSampler {
    /// Builds the CDF table for `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics when `n` is zero — an empty popularity universe cannot be
    /// sampled.
    pub fn new(n: usize, exponent: f64) -> ZipfSampler {
        assert!(n > 0, "Zipf universe must be non-empty");
        let exponent = exponent.max(0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf, exponent }
    }

    /// Number of ranks in the universe.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the universe is empty (never — construction forbids
    /// it — but clippy wants `len` paired with `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The configured exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one rank in `0..len()`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Exact probability mass of one rank.
    pub fn mass(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Exact probability mass of the `k` most popular ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        self.cdf[k.min(self.cdf.len()) - 1]
    }
}

/// A diurnal load curve: a clamped sinusoid that scales each probe's
/// query rate over the simulated day, peaking at `peak_hour`.
///
/// `rate_at` returns the instantaneous rate multiplier
/// `1 + amplitude · cos(2π · (hour − peak_hour) / 24)`, so a probe
/// whose base inter-query interval is `base_ms` fires every
/// `base_ms / rate` during the day. The amplitude is clamped below 1.0
/// so the rate never reaches zero, and the warped interval is clamped
/// to [`DiurnalCurve::min_interval_ms`] — the window width the SoA
/// sweep relies on (a rescheduled probe can never re-fire inside the
/// window that scheduled it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Peak-to-mean rate excess in `0.0..=0.95` (0 = flat load).
    pub amplitude: f64,
    /// Hour of the simulated day (0..24) when load peaks.
    pub peak_hour: f64,
}

impl DiurnalCurve {
    /// A flat curve: every interval is exactly the base interval.
    pub fn flat() -> DiurnalCurve {
        DiurnalCurve {
            amplitude: 0.0,
            peak_hour: 0.0,
        }
    }

    /// A curve with the given amplitude (clamped to `0.0..=0.95`) and
    /// peak hour (wrapped into `0..24`).
    pub fn new(amplitude: f64, peak_hour: f64) -> DiurnalCurve {
        DiurnalCurve {
            amplitude: amplitude.clamp(0.0, 0.95),
            peak_hour: peak_hour.rem_euclid(24.0),
        }
    }

    /// Instantaneous rate multiplier at a simulation instant.
    pub fn rate_at(&self, at_ms: u64) -> f64 {
        let hour = (at_ms as f64 / 3_600_000.0) % 24.0;
        let phase = (hour - self.peak_hour) * std::f64::consts::TAU / 24.0;
        1.0 + self.amplitude * phase.cos()
    }

    /// The peak rate multiplier (`1 + amplitude`).
    pub(crate) fn max_rate(&self) -> f64 {
        1.0 + self.amplitude
    }

    /// Lower bound on any warped interval: `base_ms / max_rate`,
    /// floored, never below 1 ms. This is the SoA sweep's window width.
    pub fn min_interval_ms(&self, base_ms: u64) -> u64 {
        ((base_ms as f64 / self.max_rate()).floor() as u64).max(1)
    }

    /// The next inter-query interval for a probe firing at `at_ms` with
    /// base interval `base_ms`: the base warped by the instantaneous
    /// rate, clamped to `min_interval_ms`.
    pub fn interval_ms(&self, base_ms: u64, at_ms: u64) -> u64 {
        let warped = (base_ms as f64 / self.rate_at(at_ms)).round() as u64;
        warped.max(self.min_interval_ms(base_ms))
    }
}

/// What a probe's resolver slot points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolverRef {
    /// A dedicated local resolver: one cache, index into
    /// [`Population::resolvers`].
    Local(usize),
    /// A public resolver service: index into
    /// [`Population::public_groups`]; each query hits a random backend.
    Public(usize),
}

/// One Atlas-like probe.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Probe identifier (used in per-probe query names).
    pub id: u32,
    /// Continent the probe sits in.
    pub region: Region,
    /// The probe's resolver slots — each pairing is a vantage point.
    pub resolvers: Slots<ResolverRef>,
    /// Probe→resolver RTT in ms per slot.
    pub link_rtt_ms: Slots<u64>,
    /// True for probes whose DNS path is broken or hijacked; their
    /// responses are discarded in analysis, as the paper discards
    /// probes "with hijacked DNS traffic" (§3.2).
    pub hijacked: bool,
}

/// A probe's per-slot values, held inline: a probe has at most
/// three resolvers, so its slots take no block of their own.
/// Reads as a slice of the values pushed.
#[derive(Clone, Copy)]
pub struct Slots<T> {
    len: u8,
    items: [T; MAX_SLOTS],
}

impl<T: Copy> Slots<T> {
    /// No slots; `fill` stands in the unused places.
    fn new(fill: T) -> Slots<T> {
        Slots {
            len: 0,
            items: [fill; MAX_SLOTS],
        }
    }

    /// Appends a slot.
    ///
    /// # Panics
    /// Panics past the third slot.
    fn push(&mut self, item: T) {
        self.items[usize::from(self.len)] = item;
        self.len += 1;
    }
}

impl<T> std::ops::Deref for Slots<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A vantage point: one (probe, resolver-slot) pairing — the unit the
/// paper draws its CDFs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VantagePoint {
    /// Index into [`Population::probes`].
    pub probe_idx: usize,
    /// Which of the probe's resolver slots.
    pub slot: usize,
    /// Probe→resolver link RTT in ms.
    pub link_rtt_ms: u64,
}

/// Weights for a probe having 1, 2, or 3 resolvers. The paper sees
/// ~15k VPs from ~9k probes, i.e. ≈1.7 resolvers per probe.
const RESOLVERS_PER_PROBE: [f64; MAX_SLOTS] = [0.55, 0.25, 0.20];
/// The most resolvers a probe has.
const MAX_SLOTS: usize = 3;
/// Backend caches per public service (cache fragmentation; queries
/// balance across them).
const BACKENDS_PER_SERVICE: usize = 4;
/// Probability that a probe's resolver slot points at a public service
/// rather than a dedicated local resolver.
const PUBLIC_FRACTION: f64 = 0.18;
/// Fraction of probes with hijacked/broken DNS (discarded).
const HIJACKED_FRACTION: f64 = 0.011;

/// Knobs for population construction.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of probes (the paper uses ~9k).
    pub probes: usize,
    /// Offset added to probe ids (`id = 10_000 + probe_id_base + pid`).
    /// Sharded runs give each shard a base so per-probe query names stay
    /// globally unique; zero reproduces the unsharded numbering exactly.
    pub probe_id_base: u32,
}

impl PopulationConfig {
    /// `probes` probes numbered from 10 000.
    pub fn small(probes: usize) -> PopulationConfig {
        PopulationConfig {
            probes,
            probe_id_base: 0,
        }
    }
}

/// The built population: probes plus the resolvers they use.
pub struct Population {
    /// All probes.
    pub probes: Vec<Probe>,
    /// All resolver caches (public backends first, then locals).
    pub resolvers: Vec<RecursiveResolver>,
    /// Public service → indices of its backend caches in `resolvers`.
    pub public_groups: Vec<Vec<usize>>,
}

impl Population {
    /// Builds a population.
    ///
    /// One public service per 200 probes (at least two) alternates
    /// Google-like (TTL-capping) and OpenDNS-like (parent-centric,
    /// root-mirroring) policies, each with `BACKENDS_PER_SERVICE`
    /// independent caches; local resolvers draw from
    /// [`PolicyMix::paper_population`]. Probe regions follow the Atlas
    /// skew ([`Region::atlas_weights`]).
    pub fn build(config: &PopulationConfig, roots: &[RootHint], rng: &mut SimRng) -> Population {
        // Every resolver shares the root hints and its policy, and
        // labels go through one buffer: a resolver costs its label.
        let roots: Arc<[RootHint]> = roots.into();
        let mut labels = Labels::default();
        let mut resolvers = Vec::new();
        let mut public_groups = Vec::new();
        let region_weights = Region::atlas_weights();
        let public_policies = [
            Arc::new(ResolverPolicy::google_like()),
            Arc::new(ResolverPolicy::opendns_like()),
        ];

        for s in 0..(config.probes / 200).max(2) {
            let policy = &public_policies[s % 2];
            let mut group = Vec::new();
            for b in 0..BACKENDS_PER_SERVICE {
                let region = [Region::Eu, Region::Na, Region::As][(s + b) % 3];
                let idx = resolvers.len();
                resolvers.push(RecursiveResolver::new(
                    labels.format(format_args!("public-{s}-{b}")),
                    policy.clone(),
                    region,
                    idx as u64,
                    roots.clone(),
                    rng.fork(1_000_000 + idx as u64),
                ));
                group.push(idx);
            }
            public_groups.push(group);
        }

        let policy_mix = PolicyMix::paper_population();
        let weights = policy_mix.weights();
        let mut probes = Vec::with_capacity(config.probes);
        for pid in 0..config.probes {
            let region = Region::ALL[rng.weighted_index(&region_weights)];
            let n_resolvers = 1 + rng.weighted_index(&RESOLVERS_PER_PROBE);
            let mut slots = Slots::new(ResolverRef::Local(0));
            let mut link_rtt_ms = Slots::new(0);
            for _ in 0..n_resolvers {
                if rng.chance(PUBLIC_FRACTION) {
                    let service = rng.below(public_groups.len() as u64) as usize;
                    if !slots.contains(&ResolverRef::Public(service)) {
                        slots.push(ResolverRef::Public(service));
                        // Public resolver: anycast frontend, but still a
                        // WAN hop: 8–60 ms.
                        link_rtt_ms.push(8 + rng.below(53));
                        continue;
                    }
                }
                // Dedicated local resolver in the probe's region.
                let policy = policy_mix.policy(rng.weighted_index(&weights)).clone();
                let idx = resolvers.len();
                resolvers.push(RecursiveResolver::new(
                    labels.format(format_args!("local-{idx}")),
                    policy,
                    region,
                    idx as u64,
                    roots.clone(),
                    rng.fork(idx as u64),
                ));
                slots.push(ResolverRef::Local(idx));
                // LAN/ISP resolver: 1–8 ms.
                link_rtt_ms.push(1 + rng.below(8));
            }
            probes.push(Probe {
                id: 10_000 + config.probe_id_base + pid as u32,
                region,
                resolvers: slots,
                link_rtt_ms,
                hijacked: rng.chance(HIJACKED_FRACTION),
            });
        }

        Population {
            probes,
            resolvers,
            public_groups,
        }
    }

    /// Resolves a slot reference to a concrete backend cache index for
    /// one query (public services pick a random backend — the cache
    /// fragmentation of \[48\]).
    pub(crate) fn pick_backend(&self, slot: ResolverRef, rng: &mut SimRng) -> usize {
        match slot {
            ResolverRef::Local(idx) => idx,
            ResolverRef::Public(service) => {
                let group = &self.public_groups[service];
                group[rng.below(group.len() as u64) as usize]
            }
        }
    }

    /// Enumerates all vantage points.
    pub(crate) fn vantage_points(&self) -> Vec<VantagePoint> {
        let mut vps = Vec::new();
        for (probe_idx, probe) in self.probes.iter().enumerate() {
            for slot in 0..probe.resolvers.len() {
                vps.push(VantagePoint {
                    probe_idx,
                    slot,
                    link_rtt_ms: probe.link_rtt_ms[slot],
                });
            }
        }
        vps
    }

    /// Number of probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Number of VPs (probe × resolver-slot pairs).
    pub fn vp_count(&self) -> usize {
        self.probes.iter().map(|p| p.resolvers.len()).sum()
    }

    /// Attaches a telemetry handle to every resolver cache in the
    /// population. Backend caches share the handle, so their counters
    /// aggregate into one registry.
    pub fn set_telemetry(&mut self, telemetry: &dnsttl_telemetry::Telemetry) {
        for r in &mut self.resolvers {
            r.set_telemetry(telemetry.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(probes: usize, seed: u64) -> Population {
        let mut rng = SimRng::seed_from(seed);
        Population::build(&PopulationConfig::small(probes), &[], &mut rng)
    }

    #[test]
    fn vp_count_exceeds_probe_count() {
        let pop = build(500, 1);
        assert_eq!(pop.probe_count(), 500);
        let vps = pop.vp_count();
        // ~1.65 resolvers per probe on average.
        assert!(vps > 600 && vps < 1_200, "vps = {vps}");
        assert_eq!(pop.vantage_points().len(), vps);
    }

    #[test]
    fn regions_skew_european() {
        let pop = build(2_000, 2);
        let eu = pop.probes.iter().filter(|p| p.region == Region::Eu).count() as f64 / 2_000.0;
        assert!((0.48..0.62).contains(&eu), "EU fraction {eu}");
    }

    #[test]
    fn public_services_have_fragmented_backends() {
        let pop = build(1_000, 3);
        assert!(!pop.public_groups.is_empty());
        for group in &pop.public_groups {
            assert_eq!(group.len(), BACKENDS_PER_SERVICE);
        }
        // Random backend picks within one service spread across members.
        let mut rng = SimRng::seed_from(9);
        let service = ResolverRef::Public(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(pop.pick_backend(service, &mut rng));
        }
        assert_eq!(
            seen.len(),
            BACKENDS_PER_SERVICE,
            "all backends eventually hit"
        );
    }

    #[test]
    fn public_services_are_shared_across_probes() {
        let pop = build(1_000, 3);
        let mut usage = vec![0usize; pop.public_groups.len()];
        for p in &pop.probes {
            for slot in p.resolvers.iter() {
                if let ResolverRef::Public(s) = slot {
                    usage[*s] += 1;
                }
            }
        }
        assert!(usage.iter().any(|&u| u >= 3), "usage {usage:?}");
    }

    #[test]
    fn hijacked_probes_are_few_but_present() {
        let pop = build(3_000, 4);
        let hijacked = pop.probes.iter().filter(|p| p.hijacked).count();
        assert!(hijacked > 0);
        assert!((hijacked as f64) < 0.03 * 3_000.0, "hijacked {hijacked}");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = build(200, 7);
        let b = build(200, 7);
        assert_eq!(a.vp_count(), b.vp_count());
        for (pa, pb) in a.probes.iter().zip(&b.probes) {
            assert_eq!(pa.region, pb.region);
            assert_eq!(pa.resolvers[..], pb.resolvers[..]);
        }
    }

    #[test]
    fn local_links_faster_than_public() {
        let pop = build(1_000, 5);
        let mut local = Vec::new();
        let mut public = Vec::new();
        for p in &pop.probes {
            for (slot_idx, slot) in p.resolvers.iter().enumerate() {
                match slot {
                    ResolverRef::Public(_) => public.push(p.link_rtt_ms[slot_idx]),
                    ResolverRef::Local(_) => local.push(p.link_rtt_ms[slot_idx]),
                }
            }
        }
        let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        assert!(avg(&local) < avg(&public));
    }
}
