//! Integration of the operator-facing tooling: master-file parsing →
//! linting → migration planning → behaviour classification, through
//! the public facade.

mod common;

use dnsttl::analysis::{classify_ttl_series, BehaviorCensus, TtlBehavior};
use dnsttl::atlas::{
    population_campaign, run_zipf_campaign, FanOut, MeasurementSpec, QueryName, ZipfCampaignConfig,
    ZipfRunOpts, LOGICAL_SHARDS,
};
use dnsttl::auth::{parse_records, parse_zone, render_zone};
use dnsttl::core::{
    lint_zone, plan_migration, Bailiwick, LintContext, MigrationSpec, ParentInfo, PolicyMix,
    PublishedTtls, ResolverPolicy,
};
use dnsttl::telemetry::Telemetry;
use dnsttl::wire::{Name, RecordType, Ttl};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const UY_2019: &str = r#"
$ORIGIN uy.
$TTL 300
@           IN NS a.nic.uy.
            IN NS b.nic.uy.
a.nic.uy.   120 IN A 200.40.241.1
b.nic.uy.   120 IN A 200.40.241.2
"#;

#[test]
fn lint_flags_the_papers_uy_findings_from_a_zone_file() {
    let origin = Name::parse("uy").unwrap();
    let records = parse_records(UY_2019, Some(&origin)).unwrap();
    let findings = lint_zone(
        &origin,
        &records,
        &ParentInfo {
            ns_ttl: Some(Ttl::TWO_DAYS),
            glue_ttl: Some(Ttl::TWO_DAYS),
        },
        LintContext::default(),
    );
    let codes: Vec<_> = findings.iter().map(|f| f.code).collect();
    assert!(codes.contains(&"ns-ttl-short"), "{codes:?}");
    assert!(codes.contains(&"parent-child-ttl-mismatch"), "{codes:?}");
}

#[test]
fn fixed_zone_passes_the_lint() {
    let fixed = UY_2019
        .replace("$TTL 300", "$TTL 86400")
        .replace("120 IN A", "86400 IN A");
    let origin = Name::parse("uy").unwrap();
    let records = parse_records(&fixed, Some(&origin)).unwrap();
    let findings = lint_zone(
        &origin,
        &records,
        &ParentInfo {
            ns_ttl: Some(Ttl::DAY),
            glue_ttl: Some(Ttl::DAY),
        },
        LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn migration_plan_respects_the_population_worst_case() {
    // An all-child-centric population drains in the child TTL; the
    // paper population includes parent-centric resolvers riding the
    // 2-day glue.
    let uniform = plan_migration(&MigrationSpec {
        current: PublishedTtls::uy_before(),
        bailiwick: Bailiwick::In,
        transition_ttl: Ttl::from_secs(300),
        population: PolicyMix::uniform(ResolverPolicy::default()),
        can_update_parent: true,
    });
    let mixed = plan_migration(&MigrationSpec {
        current: PublishedTtls::uy_before(),
        bailiwick: Bailiwick::In,
        transition_ttl: Ttl::from_secs(300),
        population: PolicyMix::paper_population(),
        can_update_parent: true,
    });
    assert!(uniform.worst_effective_ttl < mixed.worst_effective_ttl);
    assert_eq!(mixed.worst_effective_ttl, Ttl::TWO_DAYS);
}

#[test]
fn zone_round_trips_through_render_and_parse() {
    let zone = parse_zone("uy", UY_2019).unwrap();
    let rendered = render_zone(&zone);
    let back = parse_zone("uy", &rendered).unwrap();
    let apex = Name::parse("uy").unwrap();
    assert_eq!(
        zone.get(&apex, dnsttl::wire::RecordType::NS)
            .map(|set| set.len()),
        back.get(&apex, dnsttl::wire::RecordType::NS)
            .map(|set| set.len())
    );
}

#[test]
fn cache_forensics_snapshot_and_ledger_through_the_facade() {
    use dnsttl::core::ResolverPolicy as Policy;
    use dnsttl::netsim::SimTime;
    use dnsttl::resolver::{
        cache::Cache, BailiwickClass, CacheSnapshot, Credibility, StoreContext,
    };
    use dnsttl::wire::{RData, RRset};

    let policy = Policy::default();
    let mut cache = Cache::new();
    cache.enable_ledger();
    let rrset = RRset::new(
        Name::parse("www.example").unwrap(),
        RecordType::A,
        Ttl::from_secs(600),
        RData::A("203.0.113.7".parse().unwrap()),
    );
    let ctx = StoreContext {
        txn: 77,
        server: Some("192.0.2.53".parse().unwrap()),
        bailiwick: BailiwickClass::In,
    };
    cache.store_with(
        rrset.clone(),
        Credibility::AuthAnswer,
        SimTime::ZERO,
        &policy,
        false,
        ctx,
    );

    // Snapshot round-trips through the JSONL codec with provenance.
    let before = cache.snapshot(SimTime::ZERO);
    let back = CacheSnapshot::parse_jsonl(&before.to_jsonl()).unwrap();
    assert_eq!(back.len(), 1);
    assert_eq!(back.entries[0].txn, 77);
    assert_eq!(back.entries[0].origin, "child");

    // A renumber shows up as a changed fingerprint in the diff.
    let renumbered = RRset {
        rdatas: RData::A("203.0.113.8".parse().unwrap()).into(),
        ..rrset
    };
    cache.store_with(
        renumbered,
        Credibility::AuthAnswer,
        SimTime::from_secs(60),
        &policy,
        false,
        ctx,
    );
    let diff = before.diff(&cache.snapshot(SimTime::from_secs(60)));
    assert_eq!(diff.changed.len(), 1);
    assert!(diff.render().contains("www.example."));

    // The ledger journals typed records, each one JSON line.
    let records: Vec<dnsttl::resolver::LedgerRecord> = cache
        .with_ledger(|l| l.records().cloned().collect())
        .expect("ledger enabled");
    assert_eq!(
        records.len(),
        3,
        "insert + overwrite + re-insert: {records:?}"
    );
    assert_eq!(records[1].op, dnsttl::resolver::CacheOp::Overwrite);
    assert_eq!(records[1].residency_ms, Some(60_000));
    assert_eq!(records[2].op, dnsttl::resolver::CacheOp::Insert);
    assert_ne!(
        records[2].fingerprint, records[1].fingerprint,
        "renumber changed the rdata"
    );
    assert_eq!(
        records[1].to_line(),
        r#"{"t":60000,"op":"overwrite","n":"www.example.","ty":"A","tx":77,"sv":"192.0.2.53","or":"child","bw":"in","rk":"auth_answer","ot":600,"et":600,"res":60000,"fp":"ca04b423c7045090"}"#
    );
}

#[test]
fn bench_report_header_counts_its_lines_and_gates_find_their_rows() {
    // The timing wheel's tape — one cell of the full-scale Zipf
    // campaign, replayed on the wheel and on a `BTreeSet` — held to the
    // counters it had while a paired report carried them: timers,
    // re-arms and the wheel's cascades, with both replays popping the
    // same sequence. `tests/wheel_timing.rs` times the same tape.
    let tape = common::WheelTape::zipf_cell(42);
    let (digest, cascades) = tape.replay_wheel();
    assert_eq!(tape.timers(), 3_125);
    assert_eq!(tape.rearms(), 17_029);
    assert_eq!(cascades, 71);
    assert_eq!(
        tape.replay_btree(),
        digest,
        "the replays popped different timers"
    );
}

#[test]
fn bench_population_scenarios_reproduce_the_digests_pinned_before_the_shared_engine() {
    // The two-level population over the fixed cells, and the Zipf
    // campaign at a tenth of its full scale, as a paired timing suite
    // ran them at seed 42. The population's values date from before it
    // left a private copy of the cell loop for the one cell engine
    // (`dnsttl_atlas::population_campaign`, which `repro --shards`
    // runs), so the move — and any later change to the engine or the
    // merge — is held to the identical row sequence.
    let spec = MeasurementSpec::every_600s(
        QueryName::Fixed(Name::parse("www.example").expect("static")),
        RecordType::A,
        2,
    );
    let world = || {
        let (net, roots) = common::two_level_network(Ttl::from_secs(300));
        (net, roots, None)
    };
    let population = population_campaign(
        &FanOut::new(1, LOGICAL_SHARDS),
        &Telemetry::disabled(),
        42,
        320,
        &spec,
        world,
    )
    .dataset;
    let digest = population.digest();
    assert_eq!(population.len(), 6_156);
    assert_eq!(population.valid_count(), 6_144);
    assert_eq!(digest >> 32, 1_469_452_638);
    assert_eq!(digest & 0xFFFF_FFFF, 18_526_468);

    let zipf = run_zipf_campaign(
        &ZipfCampaignConfig::large(20_000),
        42,
        &ZipfRunOpts::default(),
    )
    .dataset;
    let digest = zipf.digest();
    assert_eq!(zipf.len(), 108_966);
    assert_eq!(digest >> 32, 3_451_486_222);
    assert_eq!(digest & 0xFFFF_FFFF, 2_243_215_305);
}

#[test]
fn only_fig10_output_depends_on_the_shards_flag() {
    // Every campaign but fig10 runs on its cells whatever the worker
    // count, so `--shards` only picks how many threads run them: in the
    // committed digest table each module's unsharded rows must equal its
    // shards4 rows. fig10 keeps a one-population run without `--shards`
    // until the benchmark's replay of it moves (ROADMAP item 3(i)).
    let table = include_str!("data/artifact_digests.txt");
    let rows_of = |run: &str| -> Vec<&str> {
        table
            .lines()
            .filter_map(|l| l.strip_prefix(run)?.strip_prefix(' '))
            .collect()
    };
    let (unsharded, sharded) = (rows_of("unsharded"), rows_of("shards4"));
    assert_eq!(unsharded.len(), sharded.len(), "one shards4 row per file");
    let is_fig10 = |row: &&str| row.starts_with("fig10 ");
    let moved: Vec<&&str> = unsharded
        .iter()
        .filter(|row| !is_fig10(row) && !sharded.contains(row))
        .collect();
    assert!(
        moved.is_empty(),
        "unsharded rows that differ from their shards4 row:\n{moved:#?}"
    );
    assert!(
        unsharded
            .iter()
            .any(|row| is_fig10(row) && !sharded.contains(row)),
        "fig10 no longer depends on --shards: drop its exception here"
    );
}

#[test]
fn classifier_matches_known_behaviours() {
    // Series shaped like the paper's Figure 1 regions.
    assert_eq!(
        classify_ttl_series(&[300, 298, 300, 150], 300, 172_800),
        TtlBehavior::ChildCentric
    );
    assert_eq!(
        classify_ttl_series(&[172_800, 172_800], 300, 172_800),
        TtlBehavior::PinnedFullTtl
    );
    let census = BehaviorCensus::take(
        [
            &[300u64, 290][..],
            &[172_800, 172_800][..],
            &[21_599, 21_599][..],
        ],
        300,
        172_800,
    );
    assert_eq!(census.child_centric, 1);
    assert_eq!(census.pinned, 1);
    assert_eq!(census.capped, vec![21_599]);
}

/// What the pub-item check reads of one library target.
#[derive(Default)]
struct Library {
    /// Every identifier its code writes.
    words: HashSet<String>,
    /// Every identifier its code calls as a method or names as the last
    /// segment of a path.
    members: HashSet<String>,
    /// Its `pub fn|struct|enum|trait|type|const|static` declarations.
    decls: Vec<PubDecl>,
    /// `(type, associated types)` of each trait impl: `impl Iterator for
    /// Suffixes { type Item = NameSuffix; }` hands `NameSuffix` to whoever
    /// holds a `Suffixes`.
    impl_types: Vec<(String, String)>,
}

/// One `pub` declaration, with the text of its signature: what a caller
/// that reaches the item also reaches.
struct PubDecl {
    site: String,
    name: String,
    signature: String,
    /// A `pub fn` inside an `impl` block: named only by a `.name(` call
    /// or a `::name` path, since a local, a field or a closure may share
    /// its name.
    associated: bool,
}

fn rust_files(dir: &Path, skip: Option<&Path>, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if Some(path.as_path()) == skip {
            continue;
        }
        if path.is_dir() {
            rust_files(&path, skip, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn add_identifiers(text: &str, into: &mut HashSet<String>) {
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
            into.insert(word.to_string());
        }
    }
}

/// Adds the identifiers `text` calls as methods (`.name(`, `.name::<`)
/// or names as the last segment of a path (`Type::name`, not
/// `std::name::Item`).
fn add_member_uses(text: &str, into: &mut HashSet<String>) {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while start < text.len() {
        let len = text[start..]
            .find(|c| !is_ident(c))
            .unwrap_or(text.len() - start);
        if len == 0 {
            start += text[start..].chars().next().map_or(1, char::len_utf8);
            continue;
        }
        let (before, word, after) = (
            &text[..start],
            &text[start..start + len],
            &text[start + len..],
        );
        let turbofish = after.starts_with("::<");
        let called = before.ends_with('.') && (after.starts_with('(') || turbofish);
        let last_segment = before.ends_with("::") && (turbofish || !after.starts_with("::"));
        if called || last_segment {
            into.insert(word.to_string());
        }
        start += len;
    }
}

/// Splits a source file into the code rustc compiles with its crate
/// (comments stripped) and the code of its doc tests, which rustc
/// compiles as crates of their own.
fn code_and_doctests(path: &Path) -> (String, String) {
    let source = std::fs::read_to_string(path).expect("source is readable");
    let (mut code, mut doctests) = (String::new(), String::new());
    let mut in_fence = None;
    for line in source.lines() {
        let (before, comment) = line.split_at(line.find("//").unwrap_or(line.len()));
        code.push_str(before);
        code.push('\n');
        let Some(doc) = comment
            .strip_prefix("///")
            .or_else(|| comment.strip_prefix("//!"))
        else {
            continue;
        };
        let doc = doc.trim();
        if let Some(tag) = doc.strip_prefix("```") {
            in_fence = match in_fence {
                Some(_) => None,
                None => Some(matches!(tag, "" | "rust" | "no_run")),
            };
        } else if in_fence == Some(true) {
            doctests.push_str(doc);
            doctests.push('\n');
        }
    }
    (code, doctests)
}

/// The lines after `lines[at]` up to the one that closes its block: the
/// first that starts with `}` at `indent` (the code is rustfmt-formatted).
fn block<'a>(lines: &'a [&'a str], at: usize, indent: &str) -> &'a [&'a str] {
    let body = &lines[at + 1..];
    let end = body
        .iter()
        .position(|l| l.strip_prefix(indent).is_some_and(|r| r.starts_with('}')))
        .unwrap_or(body.len());
    &body[..end]
}

/// How many lines from `lines[at]` on a `#[cfg(test)]` module takes
/// (up to its closing brace); 0 when none starts there.
fn test_module_len(lines: &[&str], at: usize) -> usize {
    let line = lines[at];
    let trimmed = line.trim_start();
    let indent = &line[..line.len() - trimmed.len()];
    let next_is_mod = lines
        .get(at + 1)
        .is_some_and(|l| l.trim_start().starts_with("mod "));
    if trimmed != "#[cfg(test)]" || !next_is_mod {
        return 0;
    }
    let inline = !lines[at + 1].trim_end().ends_with(';');
    2 + if inline {
        block(lines, at + 1, indent).len()
    } else {
        0
    }
}

/// Reads one library source file's `pub` declarations and trait-impl
/// associated types into `lib`, skipping `#[cfg(test)]` modules.
fn scan_library_file(file: &str, code: &str, lib: &mut Library) {
    let lines: Vec<&str> = code.lines().collect();
    // The first line after the `impl` block the scan is in.
    let mut impl_end = 0;
    let mut i = 0;
    while i < lines.len() {
        let skip = test_module_len(&lines, i);
        if skip > 0 {
            i += skip;
            continue;
        }
        let line = lines[i];
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];
        let opens_impl = trimmed.starts_with("impl ") || trimmed.starts_with("impl<");
        if opens_impl && !trimmed.trim_end().ends_with(';') {
            impl_end = i + 1 + block(&lines, i, indent).len();
        }
        let in_impl = i < impl_end;
        if let Some((_, ty)) = trimmed
            .strip_prefix("impl")
            .and_then(|r| r.split_once(" for "))
        {
            let ty: String = ty
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let assoc = block(&lines, i, indent)
                .iter()
                .filter(|l| l.trim_start().starts_with("type "));
            let assoc = assoc.copied().collect::<Vec<_>>().join("\n");
            lib.impl_types.push((ty, assoc));
        }
        i += 1;
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let words: Vec<&str> = rest
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .take(5)
            .collect();
        let qualified_fn = words.iter().position(|w| *w == "fn").filter(|&p| {
            words[..p]
                .iter()
                .all(|w| matches!(*w, "const" | "async" | "unsafe"))
        });
        let (kind, name) = match qualified_fn {
            Some(p) => ("fn", words.get(p + 1)),
            None => (
                words.first().copied().unwrap_or(""),
                words.get(if words.get(1) == Some(&"mut") { 2 } else { 1 }),
            ),
        };
        let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
        let Some(name) = name.filter(|_| kinds.contains(&kind)) else {
            continue;
        };
        let signature = match kind {
            // A type's signature is its public fields, variants or items.
            "struct" | "enum" | "trait" if !line.trim_end().ends_with(';') => {
                let body = block(&lines, i - 1, indent)
                    .iter()
                    .filter(|l| kind != "struct" || l.trim_start().starts_with("pub "));
                body.copied().collect::<Vec<_>>().join("\n")
            }
            // Everything else up to its body or initialiser.
            _ => {
                let cut = if kind == "const" || kind == "static" {
                    '='
                } else {
                    '{'
                };
                let mut sig = String::new();
                for l in &lines[i - 1..] {
                    sig.push_str(l.split(cut).next().expect("split yields a part"));
                    if l.contains(cut) || l.trim_end().ends_with(';') {
                        break;
                    }
                }
                sig
            }
        };
        lib.decls.push(PubDecl {
            site: format!("{file}:{i}"),
            name: name.to_string(),
            signature,
            associated: in_impl && kind == "fn",
        });
    }
}

#[test]
fn every_pub_item_in_a_library_is_named_outside_its_crate() {
    // Every crate is workspace-internal, so `pub` hides an item from
    // rustc's dead-code lint. Here `pub` means "crosses a crate": an item
    // stays `pub` when another compilation unit (another crate, a binary,
    // an integration test, an example, `benchmark/`, a doc test) names it,
    // or when it appears in the signature of an item that does.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    crates.sort();

    // Identifiers written, and those used as members, outside every
    // library target.
    let mut elsewhere = HashSet::new();
    let mut elsewhere_members = HashSet::new();
    let mut libraries = Vec::new();
    let mut other_units = Vec::new();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), None, &mut other_units);
    }
    for krate in &crates {
        let bin = krate.join("src/bin");
        rust_files(&bin, None, &mut other_units);
        rust_files(&krate.join("tests"), None, &mut other_units);
        let mut files = Vec::new();
        rust_files(&krate.join("src"), Some(&bin), &mut files);
        let mut lib = Library::default();
        for file in files {
            let (code, doctests) = code_and_doctests(&file);
            add_identifiers(&code, &mut lib.words);
            add_member_uses(&code, &mut lib.members);
            // A library's doc tests are compilation units of their own.
            add_identifiers(&doctests, &mut elsewhere);
            add_member_uses(&doctests, &mut elsewhere_members);
            let rel = file.strip_prefix(root).expect("under the root").display();
            scan_library_file(&rel.to_string(), &code, &mut lib);
        }
        libraries.push(lib);
    }
    for file in &other_units {
        let (code, doctests) = code_and_doctests(file);
        for text in [&code, &doctests] {
            add_identifiers(text, &mut elsewhere);
            add_member_uses(text, &mut elsewhere_members);
        }
    }

    let mut stray = Vec::new();
    for (k, lib) in libraries.iter().enumerate() {
        let others = || libraries.iter().enumerate().filter(move |&(j, _)| j != k);
        let named_outside = |d: &PubDecl| {
            if d.associated {
                elsewhere_members.contains(&d.name)
                    || others().any(|(_, l)| l.members.contains(&d.name))
            } else {
                elsewhere.contains(&d.name) || others().any(|(_, l)| l.words.contains(&d.name))
            }
        };
        // Indices into `lib.decls`; a signature reaches types and free
        // items by name, never a method.
        let mut crossing: HashSet<usize> = (0..lib.decls.len())
            .filter(|&i| named_outside(&lib.decls[i]))
            .collect();
        loop {
            let mut reached = HashSet::new();
            for &i in &crossing {
                add_identifiers(&lib.decls[i].signature, &mut reached);
            }
            for (ty, assoc) in &lib.impl_types {
                if crossing.iter().any(|&i| lib.decls[i].name == *ty) {
                    add_identifiers(assoc, &mut reached);
                }
            }
            let before = crossing.len();
            crossing.extend(
                (0..lib.decls.len())
                    .filter(|&i| !lib.decls[i].associated && reached.contains(&lib.decls[i].name)),
            );
            if crossing.len() == before {
                break;
            }
        }
        stray.extend(
            (0..lib.decls.len())
                .filter(|i| !crossing.contains(i))
                .map(|i| format!("{} {}", lib.decls[i].site, lib.decls[i].name)),
        );
    }
    assert!(
        stray.is_empty(),
        "{} pub items are named nowhere outside their crate; make them pub(crate) \
         or private:\n{}",
        stray.len(),
        stray.join("\n")
    );
}

#[test]
fn every_event_kind_is_recorded_by_production_code() {
    // A trace kind no production path names is vocabulary no run can
    // emit. Production is `src/` and every crate's `src/` outside
    // `#[cfg(test)]` modules; the cache's counted-only kinds are named
    // by `cache.rs::event_kind`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trace = root.join("crates/telemetry/src/trace.rs");
    let (code, _) = code_and_doctests(&trace);
    let lines: Vec<&str> = code.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("pub enum EventKind"))
        .expect("trace.rs declares EventKind");
    let variants: Vec<String> = block(&lines, at, "")
        .iter()
        .map(|l| {
            let l = l.trim_start();
            let end = l
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(l.len());
            l[..end].to_string()
        })
        .filter(|v| !v.is_empty())
        .collect();
    assert!(variants.len() > 1, "EventKind has variants: {variants:?}");

    let mut files = Vec::new();
    rust_files(&root.join("src"), None, &mut files);
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    for krate in &crates {
        rust_files(&krate.join("src"), Some(&trace), &mut files);
    }
    let mut production = String::new();
    for file in &files {
        let (code, _) = code_and_doctests(file);
        let lines: Vec<&str> = code.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            match test_module_len(&lines, i) {
                0 => {
                    production.push_str(lines[i]);
                    production.push('\n');
                    i += 1;
                }
                skip => i += skip,
            }
        }
    }
    let unrecorded: Vec<&String> = variants
        .iter()
        .filter(|v| !production.contains(&format!("EventKind::{v}")))
        .collect();
    assert!(
        unrecorded.is_empty(),
        "EventKind variants no production code names; delete them: {unrecorded:?}"
    );
}

/// The tree a deleted mechanism must not come back to: the library
/// sources, the facade, the integration tests and the examples.
const SOURCES: &[&str] = &["crates/*/src", "src", "tests", "examples"];

/// A source-tree guard: `grep -E pattern` over `paths` (a `*` segment
/// expands as the shell's glob would) may match in `files` files, not
/// counting those under an `exempt` prefix. This file names every
/// pattern, so it is never counted.
struct Guard {
    step: &'static str,
    pattern: &'static str,
    paths: &'static [&'static str],
    exempt: &'static [&'static str],
    files: usize,
}

const GUARDS: &[Guard] = &[
    // A run directory's layout has one owner: the four per-module run
    // files are named through `artifacts::RunFile`, so a string literal
    // that spells one of their suffixes anywhere else fails.
    Guard {
        step: "one owner of the run-directory layout",
        pattern: r#""[^"]*(manifest\.json|trace\.jsonl|timeseries\.jsonl|metrics\.prom)"#,
        paths: &["src", "tests", "examples", "crates/*/src", "crates/*/tests"],
        exempt: &[],
        files: 1,
    },
    // The cache ledger's records and their line writer live in
    // `resolver/src/ledger.rs`; the telemetry crate knows no DNS type,
    // so a string-typed mirror of them there fails.
    Guard {
        step: "the ledger is the resolver's",
        pattern: r"CacheOp|LedgerRecord|struct Journal",
        paths: &["crates/telemetry/src"],
        exempt: &[],
        files: 0,
    },
    // Outside the telemetry crate, cells are drained and absorbed in
    // one file (`atlas/src/shard.rs`): a second copy of the fan-out, or
    // a caller absorbing parts itself, fails.
    Guard {
        step: "single owner of the telemetry hand-off",
        pattern: r"take_parts\(\)|absorb_shards\(",
        paths: &["crates/*/src"],
        exempt: &["crates/telemetry/"],
        files: 1,
    },
    // A cell's series shape is read off the handle it reports into;
    // the width and the cap are settings in `config.rs` alone, and
    // `artifacts.rs` configures the module handle from them.
    Guard {
        step: "one source of the series shape",
        pattern: r"ts_bucket_ms|ts_span_cap",
        paths: &["crates/*/src"],
        exempt: &[],
        files: 2,
    },
    // Which cache a resolver runs on is not a policy knob.
    Guard {
        step: "no cache-backend selector",
        pattern: r"CacheBackendChoice|cache_backend|cache_segments",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // The cache has no second front, nor the core / sink split that let
    // one state machine sit behind two of them.
    Guard {
        step: "no second cache front",
        pattern: r"SharedCache|OpSink|CacheCore",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // Entries live by their TTL alone, and an unreachable server is a
    // `FaultPlan` outage, not a per-endpoint switch.
    Guard {
        step: "no bounded cache, no offline switch",
        pattern: r"Cache::with_capacity|cache_capacity|CacheOp::Evict|EventKind::CacheEvict|set_online|is_online",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // The trace has no kind nothing records, and a setting every caller
    // gave one value is a constant.
    Guard {
        step: "no unrecorded event kinds, no one-value settings",
        pattern: r"EventKind::(Custom|CacheHit|CacheMiss|Query)|hijacked_fraction|public_fraction|backends_per_service|resolvers_per_probe|policy\.retries|ts-bucket-ms|progress_ms",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // QNAME minimisation, prefetch, the TTL floor and the cache's
    // invalidation and purge paths stay gone: no run turned them on.
    Guard {
        step: "no test-only resolver behaviours",
        pattern: r"qname_minimization|prefetch|ttl_floor|purge_expired|invalidate_zone|fn invalidate|CacheOp::Invalidate|EventKind::(Prefetch|CacheInvalidate)",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // One metric table: no second name-indexed store, and no hash index
    // behind the address memo.
    Guard {
        step: "one metric table",
        pattern: r"TimeSeriesStore|with_timeseries|PrehashedId|hash_borrowed|fnv_str",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // Each generated domain goes into its list's `CrawlSummary` and is
    // dropped: no population vector, no per-type re-scan over one.
    Guard {
        step: "a crawl list is folded, not collected",
        pattern: r"Vec<CrawledDomain>|records_of|fn summarize",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // A question vector is an allocation per message, and
    // `decode_message` rejects QDCOUNT above one.
    Guard {
        step: "a message carries one question",
        pattern: r"Vec<Question>|\.questions\b",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // `benchmark/` owns every timing but the wheel's one paired ratio
    // (`tests/wheel_timing.rs`): no Criterion shim, no `cargo bench`
    // target.
    Guard {
        step: "one timing harness in the workspace",
        pattern: r"criterion|^\[\[bench\]\]",
        paths: &["Cargo.toml", "crates/*/Cargo.toml"],
        exempt: &[],
        files: 0,
    },
    // The paired bench suite's gates are counts in `tests/` now; its
    // crate, subcommand, committed report and CI step stay gone.
    Guard {
        step: "no paired bench suite beside the benchmark",
        pattern: r"dnsttl_bench|dnsttl-bench|BENCH_report|repro bench",
        paths: &["crates", "src", "tests", "examples", ".github"],
        exempt: &[],
        files: 0,
    },
    // The cache's two key tables hash a word the name already carries
    // (`KeyTable`); with two type parameters they would be back on
    // SipHash's `RandomState`.
    Guard {
        step: "cache tables keep their pass-through hasher",
        pattern: r"HashMap<\(Name, RecordType\), [A-Za-z]+>",
        paths: &["crates/resolver/src/cache.rs"],
        exempt: &[],
        files: 0,
    },
    // A store probes the entry table with the borrowed `Probe` key; an
    // owned-key `entry()` is a name clone per store.
    Guard {
        step: "a store probes with a borrowed key",
        pattern: r"entries\.entry\(",
        paths: &["crates/resolver/src/cache.rs"],
        exempt: &[],
        files: 0,
    },
    // The trace export copies what its intern tables rendered at intern
    // time; a key or string escaped into `out` per field is the
    // per-occurrence scan coming back.
    Guard {
        step: "trace export escapes no literal per field",
        pattern: r"json::(push_key|push_string)\(out",
        paths: &["crates/telemetry/src/trace.rs"],
        exempt: &[],
        files: 0,
    },
    // A shared string the trace already holds is pushed by reference
    // (`FieldSink::push_shared`), not cloned to be handed over.
    Guard {
        step: "shared trace strings are pushed by reference",
        pattern: r#"f\.push\("[a-z_]+", *[a-z_.]+\.(shared_str\(\)|clone\(\))\)"#,
        paths: &["crates/*/src"],
        exempt: &[],
        files: 0,
    },
    // The `.nl` log is folded as it arrives (`ArrivalFold`): no capture,
    // no grouped time vectors. `min_interarrival` alone would also match
    // the `fig4_min_interarrival_cdf.csv` file name.
    Guard {
        step: "the .nl log is folded as it arrives",
        pattern: r"group_by\(|min_interarrival\(|\.log\(\)\.entries\(\)",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // An exchange asks whether a message fits (`dnsttl_wire::fits`), not
    // how long it is: a length taken to compare with 512 runs the
    // compression walk on every message.
    Guard {
        step: "an exchange asks whether a message fits",
        pattern: r"response_len|fn wire_len\(",
        paths: &["crates/netsim/src"],
        exempt: &[],
        files: 0,
    },
    // `--shards` picks a worker count, not an engine. Two modules still
    // run one global population: fig10 (`uy_latency.rs`) without
    // `--shards`, and bailiwick (`bailiwick_exp.rs`) always. A third
    // fails here.
    Guard {
        step: "one population engine outside fig10",
        pattern: r"measure_population\(|let Some\(workers\) = cfg\.shards|Population::build\(",
        paths: &["crates/experiments/src"],
        exempt: &[],
        files: 2,
    },
    // Every client population runs through `dnsttl_netsim::drive`: the
    // event queue and the loops built on it stay gone. `tests` is left
    // out because this file holds the pattern.
    Guard {
        step: "client experiments share one loop",
        pattern: r"EventQueue|drive_clients",
        paths: &["crates/*/src", "src", "examples"],
        exempt: &[],
        files: 0,
    },
    // The authoritative fills its response from `Zone::walk` in place,
    // and nothing in the crate walks a zone into vectors of its own.
    Guard {
        step: "one zone walk, filled in place",
        pattern: r"ZoneLookup::|\.lookup\(",
        paths: &["crates/auth/src"],
        exempt: &[],
        files: 0,
    },
    // The zone walk's owned twin and the hand-written §4/§6.2 VM server
    // stay gone: the VMs are `AuthoritativeServer`s over wildcard zones.
    Guard {
        step: "no second authoritative beside the zone walk",
        pattern: r"ZoneLookup|SyntheticZoneService",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
    // Every simulated server answers through `AuthoritativeServer`:
    // the only `DnsService` implementations in a library are it, the
    // secondary that wraps it, and the network's own test doubles.
    Guard {
        step: "no hand-written server in a library",
        pattern: r"impl DnsService for",
        paths: &["crates/*/src"],
        exempt: &[
            "crates/auth/src/server.rs",
            "crates/auth/src/secondary.rs",
            "crates/netsim/src/network.rs",
        ],
        files: 0,
    },
    // A caller that drops the answer asks `resolve_verdict`, which
    // builds no answer message.
    Guard {
        step: "no answer thrown away",
        pattern: r"let _ = .*\.resolve\(",
        paths: &["crates/*/src"],
        exempt: &[],
        files: 0,
    },
    // A message section carries RRsets, so nothing regroups its records
    // or copies a set's members out of it: the cache shares the block.
    Guard {
        step: "a section's sets are not regrouped",
        pattern: r"SectionSet|group_rrsets|IncomingSet|copy_members",
        paths: SOURCES,
        exempt: &[],
        files: 0,
    },
];

#[test]
fn the_source_tree_guards_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for guard in GUARDS {
        let mut args: Vec<String> = Vec::new();
        for path in guard.paths {
            let Some((dir, rest)) = path.split_once('*') else {
                args.push(path.to_string());
                continue;
            };
            let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
                .expect("glob directory is readable")
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .filter(|name| !name.starts_with('.'))
                .collect();
            names.sort();
            for name in names {
                let matched = format!("{dir}{name}{rest}");
                if root.join(&matched).exists() {
                    args.push(matched);
                }
            }
        }
        let out = std::process::Command::new("grep")
            .current_dir(root)
            .arg("-rlE")
            .arg(guard.pattern)
            .args(&args)
            .output()
            .expect("grep runs");
        // grep exits 1 on no match and 2 on an error (a path gone).
        assert!(
            out.status.code().is_some_and(|c| c < 2),
            "{}: grep failed: {}",
            guard.step,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let files: Vec<&str> = stdout
            .lines()
            .filter(|f| *f != "tests/tooling.rs" && !guard.exempt.iter().any(|e| f.starts_with(e)))
            .collect();
        if files.len() != guard.files {
            broken.push(format!(
                "{}: {} file(s) may match, found {files:?}",
                guard.step, guard.files
            ));
        }
    }
    assert!(
        broken.is_empty(),
        "source-tree guards broken:\n{}",
        broken.join("\n")
    );
}
