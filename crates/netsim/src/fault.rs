//! Deterministic fault injection: scripted outages, degradations,
//! blackouts, and cache flushes.
//!
//! The paper's closing argument (§5.3, §6.2) is that long TTLs are a
//! resilience mechanism — cached answers keep users online while the
//! authoritative infrastructure is degraded or unreachable. To measure
//! that claim the simulation needs *scheduled* failure, not just the
//! i.i.d. packet loss of the [`LatencyModel`](crate::LatencyModel). A
//! [`FaultPlan`] is a scripted list of timed injections applied by
//! simulation time:
//!
//! * **server outages** — a server answers nothing inside a window
//!   (the paper's `zurrundedu-offline` experiment, §4.4, as a script);
//! * **DDoS degradation** — elevated loss and inflated latency against
//!   one server or the whole fabric (the 2016 Dyn attack that motivates
//!   §6.2);
//! * **region blackouts** — every site in a region unreachable; anycast
//!   endpoints fail over to surviving sites, unicast endpoints go dark;
//! * **cache flushes** — scheduled resolver cache wipes (operator
//!   `rndc flush`, restarts). The network fabric cannot reach resolver
//!   caches, so flushes are surfaced via [`FaultPlan::flushes_between`]
//!   for the experiment driver to apply.
//!
//! Plans are plain data, serializable through a line-oriented text
//! codec ([`FaultPlan::to_text`] / [`FaultPlan::parse`]) so the exact
//! script can be journalled into a run manifest or handed to `sdig
//! --fault-plan`.

use crate::latency::Region;
use crate::network::ServiceAddr;
use crate::time::SimTime;

/// What a single scripted fault does while its window is active.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The server at this address answers nothing (hard outage).
    Outage {
        /// The affected server address.
        server: ServiceAddr,
    },
    /// DDoS-style degradation: extra loss probability and a latency
    /// multiplier, against one server (or every server when `server`
    /// is `None`).
    Degrade {
        /// The degraded server, or `None` for fabric-wide degradation.
        server: Option<ServiceAddr>,
        /// Additional loss probability applied on top of the latency
        /// model's base loss (0.0–1.0).
        loss: f64,
        /// Multiplier applied to sampled RTTs for exchanges that do get
        /// through (≥ 1.0 for degradation).
        latency_factor: f64,
    },
    /// Every site in the region is unreachable. Anycast endpoints fail
    /// over to sites in surviving regions; unicast endpoints whose only
    /// site is in the region go dark.
    Blackout {
        /// The blacked-out region.
        region: Region,
    },
    /// A scheduled resolver cache flush at the window start. The
    /// network cannot apply this itself — experiment drivers poll
    /// [`FaultPlan::flushes_between`] and wipe their resolver caches.
    Flush,
}

/// One scripted fault: a kind active inside `[from, until)`. A
/// [`FaultKind::Flush`] fires once at `from` (its `until` is ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// What happens inside the window.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the window covers `now`.
    pub(crate) fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Combined degradation in force against one server at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Degradation {
    /// Extra loss probability (independent of the base model's loss).
    pub loss: f64,
    /// Multiplier on sampled RTTs.
    pub latency_factor: f64,
}

/// A deterministic script of timed fault injections.
///
/// The plan is inert data — the [`Network`](crate::Network) consults it
/// on every exchange (see [`Network::with_faults`](crate::Network::with_faults)),
/// so the same plan over the same seed replays the same run, byte for
/// byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a hard outage of `server` over `[from, until)`.
    pub fn outage(mut self, server: ServiceAddr, from: SimTime, until: SimTime) -> FaultPlan {
        self.faults.push(Fault {
            from,
            until,
            kind: FaultKind::Outage { server },
        });
        self
    }

    /// Adds a degradation window against `server` (`None` = fabric-wide)
    /// with extra loss probability `loss` and RTT multiplier
    /// `latency_factor`.
    pub fn degrade(
        mut self,
        server: Option<ServiceAddr>,
        from: SimTime,
        until: SimTime,
        loss: f64,
        latency_factor: f64,
    ) -> FaultPlan {
        self.faults.push(Fault {
            from,
            until,
            kind: FaultKind::Degrade {
                server,
                loss: loss.clamp(0.0, 1.0),
                latency_factor: latency_factor.max(0.0),
            },
        });
        self
    }

    /// Adds a region-wide blackout over `[from, until)`.
    pub fn blackout(mut self, region: Region, from: SimTime, until: SimTime) -> FaultPlan {
        self.faults.push(Fault {
            from,
            until,
            kind: FaultKind::Blackout { region },
        });
        self
    }

    /// Schedules a resolver cache flush at `at`.
    pub fn flush_at(mut self, at: SimTime) -> FaultPlan {
        self.faults.push(Fault {
            from: at,
            until: at,
            kind: FaultKind::Flush,
        });
        self
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True if a hard outage of `server` is active at `now`.
    pub(crate) fn outage_active(&self, server: ServiceAddr, now: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::Outage { server: s } if s == server) && f.active_at(now)
        })
    }

    /// True if `region` is blacked out at `now`.
    pub(crate) fn blackout_active(&self, region: Region, now: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::Blackout { region: r } if r == region) && f.active_at(now)
        })
    }

    /// Combined degradation in force against `server` at `now`, if any.
    /// Overlapping windows compose: losses combine as independent
    /// events, latency factors multiply.
    pub(crate) fn degradation(&self, server: ServiceAddr, now: SimTime) -> Option<Degradation> {
        let mut pass = 1.0f64;
        let mut factor = 1.0f64;
        let mut hit = false;
        for f in &self.faults {
            if let FaultKind::Degrade {
                server: target,
                loss,
                latency_factor,
            } = f.kind
            {
                if f.active_at(now) && target.is_none_or(|t| t == server) {
                    pass *= 1.0 - loss;
                    factor *= latency_factor;
                    hit = true;
                }
            }
        }
        hit.then_some(Degradation {
            loss: 1.0 - pass,
            latency_factor: factor,
        })
    }

    /// Cache flushes due in the half-open interval `(after, upto]` —
    /// the driver polls with its previous and current simulation time
    /// and wipes its resolver cache once per flush returned.
    pub fn flushes_between(&self, after: SimTime, upto: SimTime) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Flush) && f.from > after && f.from <= upto)
            .count()
    }

    /// Serializes the plan as its line-oriented text format (see
    /// [`FaultPlan::parse`] for the grammar). Suitable for journalling
    /// into a run manifest or feeding to `sdig --fault-plan`.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# dnsttl-fault-plan/1\n");
        for f in &self.faults {
            let line = match &f.kind {
                FaultKind::Outage { server } => {
                    format!(
                        "outage {server} {} {}",
                        f.from.as_millis(),
                        f.until.as_millis()
                    )
                }
                FaultKind::Degrade {
                    server,
                    loss,
                    latency_factor,
                } => {
                    let target = server.map_or_else(|| "*".to_string(), |s| s.to_string());
                    format!(
                        "degrade {target} {} {} loss={loss} latency_x={latency_factor}",
                        f.from.as_millis(),
                        f.until.as_millis(),
                    )
                }
                FaultKind::Blackout { region } => {
                    format!(
                        "blackout {region} {} {}",
                        f.from.as_millis(),
                        f.until.as_millis()
                    )
                }
                FaultKind::Flush => format!("flush {}", f.from.as_millis()),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses the text format written by [`FaultPlan::to_text`]. One
    /// fault per line; `#` comments and blank lines are skipped:
    ///
    /// ```text
    /// outage <ip> <from_ms> <until_ms>
    /// degrade <ip|*> <from_ms> <until_ms> loss=<p> latency_x=<f>
    /// blackout <AF|AS|EU|NA|OC|SA> <from_ms> <until_ms>
    /// flush <at_ms>
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| format!("fault-plan line {}: {msg}: {raw:?}", lineno + 1);
            let mut words = line.split_whitespace();
            let verb = words.next().unwrap_or_default();
            let fields: Vec<&str> = words.collect();
            let ms = |s: &str, what: &str| -> Result<u64, String> {
                s.parse::<u64>().map_err(|_| err(&format!("bad {what}")))
            };
            match verb {
                "outage" => {
                    let [server, from, until] = fields[..] else {
                        return Err(err("expected: outage <ip> <from_ms> <until_ms>"));
                    };
                    let server: ServiceAddr =
                        server.parse().map_err(|_| err("bad server address"))?;
                    plan = plan.outage(
                        server,
                        SimTime::from_millis(ms(from, "from")?),
                        SimTime::from_millis(ms(until, "until")?),
                    );
                }
                "degrade" => {
                    let [target, from, until, loss, factor] = fields[..] else {
                        return Err(err(
                            "expected: degrade <ip|*> <from_ms> <until_ms> loss=<p> latency_x=<f>",
                        ));
                    };
                    let server = if target == "*" {
                        None
                    } else {
                        Some(target.parse().map_err(|_| err("bad server address"))?)
                    };
                    let loss = loss
                        .strip_prefix("loss=")
                        .and_then(|v| v.parse::<f64>().ok())
                        .ok_or_else(|| err("bad loss="))?;
                    let factor = factor
                        .strip_prefix("latency_x=")
                        .and_then(|v| v.parse::<f64>().ok())
                        .ok_or_else(|| err("bad latency_x="))?;
                    plan = plan.degrade(
                        server,
                        SimTime::from_millis(ms(from, "from")?),
                        SimTime::from_millis(ms(until, "until")?),
                        loss,
                        factor,
                    );
                }
                "blackout" => {
                    let [region, from, until] = fields[..] else {
                        return Err(err("expected: blackout <region> <from_ms> <until_ms>"));
                    };
                    let region = parse_region(region).ok_or_else(|| err("bad region"))?;
                    plan = plan.blackout(
                        region,
                        SimTime::from_millis(ms(from, "from")?),
                        SimTime::from_millis(ms(until, "until")?),
                    );
                }
                "flush" => {
                    let [at] = fields[..] else {
                        return Err(err("expected: flush <at_ms>"));
                    };
                    plan = plan.flush_at(SimTime::from_millis(ms(at, "at")?));
                }
                _ => return Err(err("unknown fault kind")),
            }
        }
        Ok(plan)
    }

    /// One-line human summary ("2 outages, 1 degradation, 1 flush") for
    /// manifests and logs.
    pub fn summary(&self) -> String {
        let mut outages = 0usize;
        let mut degrades = 0usize;
        let mut blackouts = 0usize;
        let mut flushes = 0usize;
        for f in &self.faults {
            match f.kind {
                FaultKind::Outage { .. } => outages += 1,
                FaultKind::Degrade { .. } => degrades += 1,
                FaultKind::Blackout { .. } => blackouts += 1,
                FaultKind::Flush => flushes += 1,
            }
        }
        format!(
            "{outages} outage(s), {degrades} degradation(s), {blackouts} blackout(s), {flushes} flush(es)"
        )
    }
}

/// Parses a region token as rendered by `Region`'s `Display`
/// (case-insensitive).
pub(crate) fn parse_region(s: &str) -> Option<Region> {
    Some(match s.to_ascii_uppercase().as_str() {
        "AF" => Region::Af,
        "AS" => Region::As,
        "EU" => Region::Eu,
        "NA" => Region::Na,
        "OC" => Region::Oc,
        "SA" => Region::Sa,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn ip(last: u8) -> ServiceAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, last))
    }

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().outage(ip(1), s(100), s(200));
        assert!(!plan.outage_active(ip(1), s(99)));
        assert!(plan.outage_active(ip(1), s(100)));
        assert!(plan.outage_active(ip(1), s(199)));
        assert!(!plan.outage_active(ip(1), s(200)));
        assert!(
            !plan.outage_active(ip(2), s(150)),
            "other servers unaffected"
        );
    }

    #[test]
    fn degradations_compose() {
        let plan = FaultPlan::new()
            .degrade(Some(ip(1)), s(0), s(100), 0.5, 2.0)
            .degrade(None, s(0), s(100), 0.5, 3.0);
        let d = plan.degradation(ip(1), s(50)).unwrap();
        assert!((d.loss - 0.75).abs() < 1e-12, "independent losses compose");
        assert!((d.latency_factor - 6.0).abs() < 1e-12);
        // The fabric-wide window alone applies to other servers.
        let d2 = plan.degradation(ip(9), s(50)).unwrap();
        assert!((d2.loss - 0.5).abs() < 1e-12);
        assert!(plan.degradation(ip(1), s(100)).is_none());
    }

    #[test]
    fn flushes_report_once_per_poll_interval() {
        let plan = FaultPlan::new().flush_at(s(60)).flush_at(s(120));
        assert_eq!(plan.flushes_between(SimTime::ZERO, s(59)), 0);
        assert_eq!(plan.flushes_between(s(59), s(60)), 1);
        assert_eq!(plan.flushes_between(s(60), s(200)), 1);
        assert_eq!(plan.flushes_between(SimTime::ZERO, s(200)), 2);
    }

    #[test]
    fn text_codec_round_trips() {
        let plan = FaultPlan::new()
            .outage(ip(1), s(100), s(200))
            .degrade(Some(ip(2)), s(50), s(150), 0.75, 4.0)
            .degrade(None, s(10), s(20), 0.25, 1.5)
            .blackout(Region::Eu, s(300), s(400))
            .flush_at(s(250));
        let text = plan.to_text();
        assert!(text.starts_with("# dnsttl-fault-plan/1\n"));
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(FaultPlan::parse("outage nonsense 1 2").is_err());
        assert!(FaultPlan::parse("outage 192.0.2.1 1").is_err());
        assert!(FaultPlan::parse("blackout XX 1 2").is_err());
        assert!(FaultPlan::parse("teleport 1 2 3").is_err());
        assert!(FaultPlan::parse("degrade * 1 2 loss=x latency_x=2").is_err());
    }

    #[test]
    fn summary_counts_kinds() {
        let plan = FaultPlan::new()
            .outage(ip(1), s(0), s(1))
            .blackout(Region::Sa, s(0), s(1))
            .flush_at(s(2));
        assert_eq!(
            plan.summary(),
            "1 outage(s), 0 degradation(s), 1 blackout(s), 1 flush(es)"
        );
    }
}
