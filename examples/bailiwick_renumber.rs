//! Bailiwick renumbering: move a zone's name server to a new address
//! and watch how long caches keep sending traffic to the old box —
//! §4's experiment, and the reason the paper tells operators that
//! in-bailiwick A records cannot outlive their NS records.
//!
//! ```sh
//! cargo run --release --example bailiwick_renumber
//! ```

use dnsttl::core::ResolverPolicy;
use dnsttl::experiments::worlds::{self, CachetestWorld, NEW_MARKER};
use dnsttl::netsim::{Region, SimRng, SimTime};
use dnsttl::resolver::RecursiveResolver;
use dnsttl::wire::{Name, RData, RecordType};

fn watch(mut world: CachetestWorld, label: &str) {
    let mut resolver = RecursiveResolver::new(
        "watcher",
        ResolverPolicy::default(),
        Region::Eu,
        1,
        world.roots.clone(),
        SimRng::seed_from(3),
    );
    let qname = Name::parse("p42.sub.cachetest.net").unwrap();

    // Warm the cache, renumber at t = 9 min, then sample the answer
    // every 10 minutes for four hours.
    println!("--- {label} ---");
    let mut switched_at = None;
    for minute in (0..240).step_by(10) {
        let now = SimTime::from_secs(minute * 60);
        if minute == 10 {
            world.renumber();
            println!("t={minute:>3}min  [renumbered the name server's address]");
        }
        let out = resolver.resolve(&qname, RecordType::AAAA, now, &mut world.net);
        let marker = out
            .answer
            .answers
            .first()
            .map(|set| match &set.rdatas[0] {
                RData::Aaaa(a) if *a == NEW_MARKER => "NEW",
                RData::Aaaa(_) => "old",
                _ => "?",
            })
            .unwrap_or("none");
        if marker == "NEW" && switched_at.is_none() {
            switched_at = Some(minute);
        }
        if minute % 30 == 0 || Some(minute) == switched_at {
            println!("t={minute:>3}min  answer from {marker} server");
        }
    }
    match switched_at {
        Some(m) => println!("=> first answer from the new server at t={m}min\n"),
        None => println!("=> never switched within 4h\n"),
    }
}

fn main() {
    // In bailiwick: the address is glue under the NS record's thumb.
    // Expect the switch at the NS TTL (60 min), not the A TTL (120 min).
    watch(
        worlds::cachetest_world(false),
        "in-bailiwick (ns1.sub.cachetest.net)",
    );

    // Out of bailiwick: the address was fetched from the server's own
    // zone and is honoured for its full TTL. Expect the switch at
    // 120 min.
    watch(
        worlds::cachetest_world(true),
        "out-of-bailiwick (ns1.zurrundedu.com)",
    );

    println!(
        "paper §6.3: \"TTLs of A/AAAA records should be equal (or shorter) than the TTL\n\
         for NS records for in-bailiwick DNS servers\" — the in-bailiwick switch above\n\
         happened at the NS TTL regardless of the longer A TTL."
    );
}
