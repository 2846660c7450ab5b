//! Cache forensics: snapshot a resolver's cache, renumber the zone's
//! name server, and diff the cache state to watch §4's coupled
//! lifetimes from the inside — every entry annotated with who
//! installed it, at what credibility, and how long it actually lived.
//!
//! ```sh
//! cargo run --release --example cache_forensics
//! ```

use dnsttl::core::ResolverPolicy;
use dnsttl::experiments::worlds::{self, NEW_MARKER};
use dnsttl::netsim::{Region, SimRng, SimTime};
use dnsttl::resolver::{CacheOp, RecursiveResolver};
use dnsttl::wire::{Name, RData, RecordType};

fn main() {
    let mut world = worlds::cachetest_world(false);
    let mut resolver = RecursiveResolver::new(
        "forensics",
        ResolverPolicy::default(),
        Region::Eu,
        1,
        world.roots.clone(),
        SimRng::seed_from(9),
    );
    resolver.enable_cache_ledger();
    let qname = Name::parse("p7.sub.cachetest.net").unwrap();

    // Warm the cache, then snapshot: every entry carries its
    // provenance — installing transaction, source server, parent vs
    // child origin, bailiwick, and original vs remaining TTL.
    resolver.resolve(&qname, RecordType::AAAA, SimTime::ZERO, &mut world.net);
    let before = resolver.cache().snapshot(SimTime::ZERO);
    println!("cache after the first resolution:");
    print!("{}", before.render());

    // Renumber at t = 9 min (the paper's schedule), then probe every
    // 10 minutes until the answer flips to the new server.
    world.renumber();
    println!("\n[renumbered ns1.sub.cachetest.net at t=540s]\n");
    let mut switch = None;
    for minute in (10..240).step_by(10) {
        let now = SimTime::from_secs(minute * 60);
        let out = resolver.resolve(&qname, RecordType::AAAA, now, &mut world.net);
        let new_vm = out
            .answer
            .answers
            .iter()
            .flat_map(|set| set.rdatas.iter())
            .any(|rd| *rd == RData::Aaaa(NEW_MARKER));
        if new_vm {
            switch = Some(now);
            break;
        }
    }
    let switch = switch.expect("the in-bailiwick switch happens at the NS TTL");

    // The diff pins the renumber to cache state: the glue A record's
    // fingerprint changed, everything else merely aged or refreshed.
    let after = resolver.cache().snapshot(switch);
    println!("snapshot diff (t=0 -> t={}s):", switch.as_secs());
    print!("{}", before.diff(&after).render());

    // And the ledger explains *why* the switch happened at the NS TTL
    // (3600 s) rather than the address record's own 7200 s: the glue's
    // residency was cut short by the NS-driven re-fetch.
    resolver
        .cache()
        .with_ledger(|ledger| {
            println!("\nledger transactions for the glue record:");
            let glue = Name::parse("ns1.sub.cachetest.net").unwrap();
            for rec in ledger.records() {
                if rec.rtype == RecordType::A && rec.name == glue {
                    let published = rec.provenance.original_ttl.as_secs();
                    let residency = rec
                        .residency_ms
                        .map(|ms| format!(" after {} s in cache", ms / 1_000))
                        .unwrap_or_default();
                    println!(
                        "  t={:>6}s {:<9} ttl={}s{}",
                        rec.t_ms / 1_000,
                        rec.op.as_str(),
                        published,
                        residency
                    );
                    if rec.op == CacheOp::Overwrite {
                        println!(
                            "    -> published TTL was {} s, but the entry lived only {} s:",
                            published,
                            rec.residency_ms.unwrap_or(0) / 1_000
                        );
                        println!("       in-bailiwick glue is coupled to its NS record (§4.2).");
                    }
                }
            }
        })
        .expect("ledger enabled");
}
