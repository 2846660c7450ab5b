//! `zonecheck` — lint a zone file against the paper's recommendations.
//!
//! ```text
//! zonecheck --origin example.org zone.db
//! zonecheck --origin uy --parent-ns-ttl 172800 uy.db
//! zonecheck --origin cdn.example --agility zone.db   # LB/DDoS zones
//! echo '@ 300 IN NS ns1.example.' | zonecheck --origin example -
//! ```
//!
//! Exit status: 0 clean, 1 warnings only, 2 errors.

use dnsttl_auth::parse_records;
use dnsttl_core::{lint_zone, LintContext, ParentInfo, Severity};
use dnsttl_wire::{Name, Ttl};

fn usage() -> ! {
    eprintln!(
        "usage: zonecheck --origin <name> [--parent-ns-ttl SECS] [--parent-glue-ttl SECS]\n\
         \x20               [--agility] <zonefile | ->"
    );
    std::process::exit(2);
}

fn main() {
    let mut origin: Option<Name> = None;
    let mut parent = ParentInfo::default();
    let mut ctx = LintContext::default();
    let mut path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--origin" => {
                let v = args.next().unwrap_or_else(|| usage());
                origin = Some(Name::parse(&v).unwrap_or_else(|e| {
                    eprintln!("bad origin {v:?}: {e}");
                    std::process::exit(2);
                }));
            }
            "--parent-ns-ttl" => {
                let v: i64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                parent.ns_ttl = Some(Ttl::try_from_secs(v).unwrap_or_else(|e| {
                    eprintln!("bad parent NS TTL: {e}");
                    std::process::exit(2);
                }));
            }
            "--parent-glue-ttl" => {
                let v: i64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                parent.glue_ttl = Some(Ttl::try_from_secs(v).unwrap_or_else(|e| {
                    eprintln!("bad parent glue TTL: {e}");
                    std::process::exit(2);
                }));
            }
            "--agility" => ctx.agility_required = true,
            "-h" | "--help" => usage(),
            other if other.starts_with("--") => usage(),
            other => path = Some(other.to_owned()),
        }
    }
    let Some(origin) = origin else { usage() };
    let Some(path) = path else { usage() };

    let read = if path == "-" {
        std::io::read_to_string(std::io::stdin())
    } else {
        std::fs::read_to_string(&path)
    };
    let text = match read {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let records = match parse_records(&text, Some(&origin)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: parse error: {e}");
            std::process::exit(2);
        }
    };

    let findings = lint_zone(&origin, &records, &parent, ctx);
    if findings.is_empty() {
        println!(
            "{path}: clean — {} records follow the paper's TTL guidance",
            records.len()
        );
        return;
    }
    let mut worst = Severity::Info;
    for f in &findings {
        println!("{f}");
        worst = worst.max(f.severity);
    }
    println!(
        "{} finding(s); see 'Cache Me If You Can' (IMC 2019) §3–§6 for the reasoning",
        findings.len()
    );
    std::process::exit(match worst {
        Severity::Error => 2,
        Severity::Warning => 1,
        Severity::Info => 0,
    });
}
