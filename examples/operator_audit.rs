//! Operator audit: the paper's workflow end to end.
//!
//! Takes the `.uy` zone as it stood in February 2019 (the configuration
//! the paper's authors emailed the operator about), and:
//!
//! 1. **lints** it against the paper's recommendations (§5.2/§6.3);
//! 2. **plans** the TTL migration (§6.1) with worst-case effective
//!    TTLs from the observed resolver population;
//! 3. **simulates** client latency before and after the change, the
//!    way §5.3 measured it;
//! 4. resolves through the fixed zone as an application's recursive
//!    resolver would, cold and then warm.
//!
//! ```sh
//! cargo run --release --example operator_audit
//! ```

use dnsttl::analysis::Ecdf;
use dnsttl::atlas::{run_measurement, MeasurementSpec, Population, PopulationConfig, QueryName};
use dnsttl::auth::parse_records;
use dnsttl::core::{
    lint_zone, plan_migration, Bailiwick, LintContext, MigrationSpec, ParentInfo, PublishedTtls,
    ResolverPolicy,
};
use dnsttl::experiments::worlds;
use dnsttl::netsim::{Region, SimRng, SimTime};
use dnsttl::resolver::RecursiveResolver;
use dnsttl::wire::{Name, RData, RecordType, Ttl};

const UY_FEB_2019: &str = r#"
; .uy as the paper found it (§3.2): 300 s NS, 120 s A,
; against the root's 172800 s glue.
$ORIGIN uy.
$TTL 300
@           IN NS a.nic.uy.
            IN NS b.nic.uy.
            IN NS c.nic.uy.
a.nic.uy.   120 IN A 200.40.241.1
b.nic.uy.   120 IN A 200.40.241.2
c.nic.uy.   120 IN A 204.61.216.40
"#;

fn main() {
    // --- 1. Lint ---
    println!("== step 1: lint the zone ==");
    let origin = Name::parse("uy").unwrap();
    let records = parse_records(UY_FEB_2019, Some(&origin)).expect("zone parses");
    let findings = lint_zone(
        &origin,
        &records,
        &ParentInfo {
            ns_ttl: Some(Ttl::TWO_DAYS),
            glue_ttl: Some(Ttl::TWO_DAYS),
        },
        LintContext::default(),
    );
    for f in &findings {
        println!("  {f}");
    }

    // --- 2. Plan the migration ---
    println!("\n== step 2: plan the TTL raise ==");
    let plan = plan_migration(&MigrationSpec {
        current: PublishedTtls::uy_before(),
        bailiwick: Bailiwick::In,
        transition_ttl: Ttl::from_secs(300),
        ..MigrationSpec::default()
    });
    for step in &plan.steps {
        println!("  t+{:>6}s  {}", step.at_secs, step.action);
    }

    // --- 3. Simulate the latency effect (the paper's Figure 10) ---
    println!("\n== step 3: simulate before/after latency ==");
    let measure = |ns_ttl: u32, a_ttl: u32, label: &str| -> f64 {
        let (mut net, roots) = worlds::uy_world(Ttl::from_secs(ns_ttl), Ttl::from_secs(a_ttl));
        let mut rng = SimRng::seed_from(2019);
        let mut pop = Population::build(&PopulationConfig::small(800), &roots, &mut rng);
        let spec = MeasurementSpec::every_600s(
            QueryName::Fixed(Name::parse("uy").unwrap()),
            RecordType::NS,
            2,
        );
        let ds = run_measurement(&spec, &mut pop, &mut net, &mut rng);
        let e = Ecdf::from_u64(ds.rtts_ms());
        println!(
            "  {label:<22} median {:>5.1} ms   p75 {:>5.1} ms   p95 {:>6.1} ms",
            e.median(),
            e.quantile(0.75),
            e.quantile(0.95)
        );
        e.median()
    };
    let before = measure(300, 120, "before (NS 300s)");
    let after = measure(86_400, 86_400, "after  (NS 86400s)");
    println!(
        "  median improvement: {:.1}x  (the paper saw the same collapse, §5.3)",
        before / after.max(1.0)
    );

    // --- 4. Application view through a recursive resolver ---
    println!("\n== step 4: an application resolves through the fixed zone ==");
    let (mut net, roots) = worlds::uy_world(Ttl::DAY, Ttl::DAY);
    let mut recursive = RecursiveResolver::new(
        "isp-cache",
        ResolverPolicy::default(),
        Region::Sa,
        1,
        roots,
        SimRng::seed_from(4),
    );
    let www = Name::parse("www.gub.uy").unwrap();
    for (secs, how) in [(0, "cold"), (60, "warm, served from the cache")] {
        let out = recursive.resolve(&www, RecordType::A, SimTime::from_secs(secs), &mut net);
        let addresses: Vec<_> = out
            .answer
            .answers
            .iter()
            .flat_map(|set| set.rdatas.iter())
            .filter_map(|rd| match rd {
                RData::A(a) => Some(*a),
                _ => None,
            })
            .collect();
        println!("  www.gub.uy -> {addresses:?} in {} ({how})", out.elapsed);
    }
}
