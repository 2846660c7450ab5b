//! `sdig` — dig, against the simulated worlds.
//!
//! ```text
//! sdig uy NS                      # resolve via a fresh recursive
//! sdig a.nic.uy A --parent-centric
//! sdig --world google-co google.co NS
//! sdig --world cachetest p1.sub.cachetest.net AAAA --at 4000
//! sdig uy NS --repeat 3 --every 600   # watch the cache age
//! sdig uy NS --trace                  # resolution walkthrough + cache ledger
//! sdig uy NS --trace-json             # walkthrough as JSONL events + ledger lines
//! sdig uy NS --explain                # causal span tree (who queried whom, and why)
//! sdig uy NS --cache-dump             # dump cache state afterwards
//! sdig uy NS --cache-dump-json snap.jsonl   # snapshot for --diff
//! ```
//!
//! Worlds: `uy` (default; .uy with 300 s/120 s child TTLs),
//! `uy-after` (both 86400 s), `google-co`, `cachetest`,
//! `cachetest-out`, `nl`.

use dnsttl_core::ResolverPolicy;
use dnsttl_experiments::{flightdeck, worlds};
use dnsttl_netsim::{FaultPlan, Network, Region, SimRng, SimTime};
use dnsttl_resolver::{RecursiveResolver, RootHint};
use dnsttl_telemetry::{EventKind, Telemetry};
use dnsttl_wire::{Name, RecordType, Ttl};
use std::fmt::Write as _;

struct Options {
    world: String,
    qname: Option<Name>,
    qtype: RecordType,
    policy: ResolverPolicy,
    at: u64,
    repeat: u32,
    every: u64,
    trace: bool,
    trace_json: bool,
    explain: bool,
    cache_dump: bool,
    cache_dump_json: Option<String>,
    fault_plan: Option<FaultPlan>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sdig [--world uy|uy-after|google-co|cachetest|cachetest-out|nl]\n\
         \x20           [--parent-centric|--google|--opendns|--validating|--serve-stale]\n\
         \x20           [--at SECONDS] [--repeat N] [--every SECONDS] [--trace] [--trace-json]\n\
         \x20           [--explain]\n\
         \x20           [--cache-dump] [--cache-dump-json FILE] [--fault-plan FILE] <name> [type]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        world: "uy".into(),
        qname: None,
        qtype: RecordType::A,
        policy: ResolverPolicy::default(),
        at: 0,
        repeat: 1,
        every: 600,
        trace: false,
        trace_json: false,
        explain: false,
        cache_dump: false,
        cache_dump_json: None,
        fault_plan: None,
    };
    let mut args = std::env::args().skip(1);
    let mut saw_type = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--world" => opts.world = args.next().unwrap_or_else(|| usage()),
            "--parent-centric" => opts.policy = ResolverPolicy::parent_centric(),
            "--google" => opts.policy = ResolverPolicy::google_like(),
            "--opendns" => opts.policy = ResolverPolicy::opendns_like(),
            "--validating" => opts.policy = ResolverPolicy::validating(),
            "--serve-stale" => opts.policy = ResolverPolicy::serve_stale_like(),
            "--at" => {
                opts.at = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--repeat" => {
                opts.repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--every" => {
                opts.every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => opts.trace = true,
            "--trace-json" => opts.trace_json = true,
            "--explain" => opts.explain = true,
            "--cache-dump" => opts.cache_dump = true,
            "--cache-dump-json" => {
                opts.cache_dump_json = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--fault-plan" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read fault plan {path}: {e}");
                    std::process::exit(2);
                });
                match FaultPlan::parse(&text) {
                    Ok(plan) => opts.fault_plan = Some(plan),
                    Err(e) => {
                        eprintln!("bad fault plan {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                if opts.qname.is_none() {
                    match Name::parse(other) {
                        Ok(name) => opts.qname = Some(name),
                        Err(e) => {
                            eprintln!("bad name {other:?}: {e}");
                            std::process::exit(2);
                        }
                    }
                } else if !saw_type {
                    saw_type = true;
                    opts.qtype = match other.to_ascii_uppercase().as_str() {
                        "A" => RecordType::A,
                        "AAAA" => RecordType::AAAA,
                        "NS" => RecordType::NS,
                        "MX" => RecordType::MX,
                        "CNAME" => RecordType::CNAME,
                        "SOA" => RecordType::SOA,
                        "TXT" => RecordType::TXT,
                        "DNSKEY" => RecordType::DNSKEY,
                        t => {
                            eprintln!("unsupported query type {t:?}");
                            std::process::exit(2);
                        }
                    };
                } else {
                    usage();
                }
            }
        }
    }
    if opts.qname.is_none() {
        usage();
    }
    opts
}

fn build_world(name: &str) -> (Network, Vec<RootHint>) {
    match name {
        "uy" => worlds::uy_world(Ttl::from_secs(300), Ttl::from_secs(120)),
        "uy-after" => worlds::uy_world(Ttl::DAY, Ttl::DAY),
        "google-co" => worlds::google_co_world(),
        "cachetest" => {
            let w = worlds::cachetest_world(false);
            (w.net, w.roots)
        }
        "cachetest-out" => {
            let w = worlds::cachetest_world(true);
            (w.net, w.roots)
        }
        "nl" => {
            let w = worlds::nl_world();
            (w.net, w.roots)
        }
        other => {
            eprintln!("unknown world {other:?}");
            std::process::exit(2);
        }
    }
}

/// Prints the trace events recorded since `from_seq` — as an indented
/// walkthrough, or one JSON object per line with `json` — and returns
/// the next unseen sequence number.
fn print_walkthrough(telemetry: &Telemetry, from_seq: u64, json: bool) -> u64 {
    telemetry.with_tracer(|tracer| {
        let mut next = from_seq;
        for e in tracer.events().filter(|e| e.seq >= from_seq) {
            next = e.seq + 1;
            if json {
                println!("{}", tracer.event_json(&e));
                continue;
            }
            let indent = match e.kind {
                EventKind::SpanStart | EventKind::SpanEnd => "",
                _ => "  ",
            };
            let fields: Vec<String> = tracer
                .fields_of(&e)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                ";; [{:>9}ms] {}{:<12} {}",
                e.t_ms,
                indent,
                e.kind.as_str(),
                fields.join(" ")
            );
        }
        next
    })
}

/// Prints the cache transactions the ledger journalled after its first
/// `from` — as walkthrough lines, or the ledger's own JSON lines with
/// `json` — and returns how many it has journalled in all. The trace
/// counts cache transactions; the ledger is where each one is kept.
fn print_ledger(resolver: &RecursiveResolver, from: u64, json: bool) -> u64 {
    let printed = resolver.cache().with_ledger(|ledger| {
        let new = (ledger.total_recorded() - from) as usize;
        let records = ledger.records();
        let seen = records.len().saturating_sub(new);
        for rec in records.skip(seen) {
            if json {
                println!("{}", rec.to_line());
                continue;
            }
            let p = &rec.provenance;
            let mut text = format!(
                "n={} ty={} rk={} or={} bw={} tx={}",
                rec.name,
                rec.rtype,
                rec.rank.as_str(),
                p.origin.as_str(),
                p.bailiwick.as_str(),
                p.txn
            );
            if let Some(server) = p.server {
                let _ = write!(text, " sv={server}");
            }
            let _ = write!(text, " et={}", p.effective_ttl.as_secs());
            if let Some(res) = rec.residency_ms {
                let _ = write!(text, " res={res}");
            }
            let _ = write!(text, " fp={:016x}", rec.fingerprint);
            println!(
                ";; [{:>9}ms]   ledger {:<11} {text}",
                rec.t_ms,
                rec.op.as_str()
            );
        }
        ledger.total_recorded()
    });
    printed.unwrap_or(from)
}

fn main() {
    let opts = parse_args();
    let (mut net, roots) = build_world(&opts.world);
    let qname = opts.qname.expect("validated above");

    let mut resolver = RecursiveResolver::new(
        "sdig",
        opts.policy,
        Region::Eu,
        4_242,
        roots,
        SimRng::seed_from(1),
    );
    let telemetry = if opts.trace || opts.trace_json || opts.explain {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    resolver.set_telemetry(telemetry.clone());
    net.set_telemetry(telemetry.clone());
    if opts.trace || opts.trace_json {
        resolver.enable_cache_ledger();
    }
    if let Some(plan) = &opts.fault_plan {
        println!(";; fault plan: {}", plan.summary());
        net.set_faults(plan.clone());
    }
    let (mut seen_seq, mut seen_ledger) = (0u64, 0u64);
    let mut flushed_upto = SimTime::ZERO;

    for i in 0..opts.repeat {
        let at = SimTime::from_secs(opts.at + i as u64 * opts.every);
        // Scheduled cache flushes land on the resolver, not the fabric:
        // apply any that fired since the previous repeat.
        let flushes = net.fault_plan().flushes_between(flushed_upto, at);
        if flushes > 0 {
            println!(";; fault plan: cache flush applied before t={at}");
            resolver.apply_flush(at);
        }
        flushed_upto = at;
        let out = resolver.resolve(&qname, opts.qtype, at, &mut net);
        if opts.trace || opts.trace_json {
            seen_seq = print_walkthrough(&telemetry, seen_seq, opts.trace_json);
            seen_ledger = print_ledger(&resolver, seen_ledger, opts.trace_json);
        }
        println!(
            ";; world={} t={} policy answered in {} ({} upstream quer{}, {})",
            opts.world,
            at,
            out.elapsed,
            out.upstream_queries,
            if out.upstream_queries == 1 {
                "y"
            } else {
                "ies"
            },
            if out.cache_hit {
                "cache hit"
            } else if out.served_stale {
                "served stale"
            } else {
                "cache miss"
            },
        );
        print!("{}", out.answer);
        println!();
    }
    if opts.explain {
        // Same path the doctor uses on trace files: render the trace
        // to JSONL, parse it back, link spans into causal trees.
        let lines = flightdeck::parse_trace_jsonl(&telemetry.trace_jsonl())
            .expect("tracer emits parseable JSONL");
        let forest = flightdeck::build_span_forest(&lines);
        println!(
            ";; causal span tree ({} spans, {} roots):",
            forest.nodes.len(),
            forest.roots.len()
        );
        print!("{}", flightdeck::render_tree(&forest));
        println!();
    }
    let end = SimTime::from_secs(opts.at + opts.repeat.saturating_sub(1) as u64 * opts.every);
    if opts.cache_dump {
        print!("{}", resolver.cache().snapshot(end).render());
    }
    if let Some(path) = &opts.cache_dump_json {
        let snapshot = resolver.cache().snapshot(end);
        if let Err(e) = std::fs::write(path, snapshot.to_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(";; cache snapshot written to {path}");
    }
    let s = resolver.stats();
    println!(
        ";; session: {} queries, {} hits, {} upstream, {} timeouts, {} servfails",
        s.client_queries, s.cache_hits, s.upstream_queries, s.timeouts, s.servfails
    );
}
