//! Process-level tests for the `sdig`, `repro` and `zonecheck` binaries:
//! the forensics flags (`--trace-json`, `--cache-dump`, snapshot diffing)
//! and how bad input is rejected.

use std::process::Command;

use dnsttl_experiments::artifacts::RunFile;

fn sdig() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdig"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn stdout_of(out: std::process::Output) -> String {
    assert!(
        out.status.success(),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn sdig_trace_json_emits_parseable_ledger_events() {
    let out = stdout_of(
        sdig()
            .args(["uy", "NS", "--trace-json"])
            .output()
            .expect("runs"),
    );
    // Trace events carry `event`; the cache's transactions come from its
    // ledger, one line each, after the trace lines of the resolution.
    let (mut events, mut inserts) = (0, 0);
    for line in out.lines().filter(|l| l.starts_with('{')) {
        let fields = dnsttl_telemetry::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        let get = |key| dnsttl_telemetry::flat_get(&fields, key);
        if get("event").is_some() {
            events += 1;
            continue;
        }
        // A ledger line: every key in the writer's order, bar the
        // optional server and residency.
        let keys: Vec<&str> = fields
            .iter()
            .map(|(key, _)| key.as_str())
            .filter(|key| !matches!(*key, "sv" | "res"))
            .collect();
        assert_eq!(
            keys,
            ["t", "op", "n", "ty", "tx", "or", "bw", "rk", "ot", "et", "fp"],
            "neither a trace event nor a ledger line: {line}"
        );
        if get("op").and_then(|v| v.as_str()) == Some("insert") {
            inserts += 1;
        }
    }
    assert!(events > 0, "the resolution must be traced:\n{out}");
    assert!(
        inserts > 0,
        "a cold resolution must insert into cache:\n{out}"
    );
}

#[test]
fn sdig_answers_an_apex_soa_question_with_the_zone_soa() {
    // The zone's SOA answers `SOA` at its apex (it is not a record
    // stored beside the others); `.uy` keeps the default one.
    let out = stdout_of(
        sdig()
            .args(["--world", "uy", "uy", "SOA"])
            .output()
            .expect("runs"),
    );
    assert!(out.contains(" response NOERROR "), "{out}");
    assert!(
        out.lines()
            .any(|l| l
                == ";; answer: uy. 3600 IN SOA uy. hostmaster.invalid. 1 7200 3600 1209600 300"),
        "the SOA is the answer:\n{out}"
    );
}

#[test]
fn sdig_cache_dump_lists_provenance_per_entry() {
    let out = stdout_of(
        sdig()
            .args([
                "--world",
                "cachetest",
                "p1.sub.cachetest.net",
                "AAAA",
                "--cache-dump",
            ])
            .output()
            .expect("runs"),
    );
    assert!(out.contains("cache snapshot @"), "{out}");
    // The in-bailiwick glue entry with full provenance.
    let glue = out
        .lines()
        .find(|l| l.contains("ns1.sub.cachetest.net. A "))
        .unwrap_or_else(|| panic!("glue entry missing from dump:\n{out}"));
    for token in [
        "rank=referral_additional",
        "origin=parent",
        "bw=in",
        "fp=",
        "sv=",
    ] {
        assert!(glue.contains(token), "dump line lacks {token}: {glue}");
    }
}

#[test]
fn sdig_snapshots_diff_across_time_via_repro() {
    let dir = std::env::temp_dir().join(format!("dnsttl-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    // Same world, one resolution vs three spaced past the 120 s A TTL:
    // the aged cache must differ.
    stdout_of(
        sdig()
            .args(["a.nic.uy", "A", "--cache-dump-json"])
            .arg(&a)
            .output()
            .expect("runs"),
    );
    stdout_of(
        sdig()
            .args([
                "a.nic.uy",
                "A",
                "--repeat",
                "3",
                "--every",
                "600",
                "--cache-dump-json",
            ])
            .arg(&b)
            .output()
            .expect("runs"),
    );
    let out = stdout_of(
        repro()
            .args(["cache-report", "--diff"])
            .arg(&a)
            .arg(&b)
            .output()
            .expect("runs"),
    );
    assert!(
        out.contains("a.nic.uy."),
        "diff must mention the re-fetched record:\n{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_resilience_is_deterministic_and_writes_schema_csv() {
    let base = std::env::temp_dir().join(format!("dnsttl-resil-{}", std::process::id()));
    let mut outputs = Vec::new();
    for run in ["r1", "r2"] {
        let dir = base.join(run);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = repro()
            .args(["--smoke", "--seed", "7", "resilience"])
            .current_dir(&dir)
            .output()
            .expect("runs");
        outputs.push(stdout_of(out));

        let csv =
            std::fs::read_to_string(dir.join("target/experiments/resilience_failure_rate.csv"))
                .expect("resilience CSV written");
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("ttl_s,serve_stale,queries,failures,failure_rate"),
            "CSV schema changed"
        );
        // 3 TTLs x serve-stale on/off.
        assert_eq!(lines.count(), 6, "one row per matrix cell:\n{csv}");

        // The exact outage script is journalled next to the CSVs and
        // round-trips through the fault-plan codec.
        let plan_text =
            std::fs::read_to_string(dir.join("target/experiments/resilience_fault_plan.txt"))
                .expect("fault plan journalled");
        let plan = dnsttl_netsim::FaultPlan::parse(&plan_text).expect("parseable plan");
        assert_eq!(plan.len(), 1, "one scripted outage");
        let manifest = std::fs::read_to_string(
            dir.join("target/experiments")
                .join(RunFile::Manifest.name("resilience")),
        )
        .expect("manifest written");
        assert!(
            manifest.contains("resilience_fault_plan.txt"),
            "manifest must list the fault plan artifact:\n{manifest}"
        );
    }
    assert_eq!(
        outputs[0], outputs[1],
        "same-seed resilience reruns must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn repro_shared_cache_is_deterministic_across_reruns_and_shard_counts() {
    // Three runs: sequential twice (same-seed byte-identity) and
    // `--shards 4` once (the sharded engine must reproduce the
    // sequential oracle byte for byte — one matrix cell per shard
    // cell).
    let base = std::env::temp_dir().join(format!("dnsttl-shcache-{}", std::process::id()));
    let mut captures = Vec::new();
    for (run, shards) in [("r1", None), ("r2", None), ("w4", Some("4"))] {
        let dir = base.join(run);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let mut args = vec!["--smoke", "--seed", "7"];
        if let Some(n) = shards {
            args.extend(["--shards", n]);
        }
        args.push("shared-cache");
        let out = repro()
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("runs");
        let stdout = stdout_of(out);
        assert!(
            stdout.contains("ledger_conserved = 1.0000"),
            "conservation must hold on every topology:\n{stdout}"
        );

        let csv = std::fs::read_to_string(dir.join("target/experiments/shared_cache_hit_rate.csv"))
            .expect("shared-cache CSV written");
        // The bytes the commit before the resolver lost its cache
        // selector wrote, when the shared rows ran on a concurrent
        // cache type since deleted: which cache a resolver holds never
        // moved a number.
        assert_eq!(
            csv,
            "ttl_s,backend,clients,queries,hits,hit_rate,mean_latency_ms,upstream_queries\n\
             60,partitioned,20,800,76,0.095000,4.575000,732\n\
             60,shared,20,800,349,0.436250,2.825000,452\n\
             3600,partitioned,20,800,580,0.725000,1.425000,228\n\
             3600,shared,20,800,756,0.945000,0.281250,45\n\
             86400,partitioned,20,800,638,0.797500,1.062500,170\n\
             86400,shared,20,800,776,0.970000,0.156250,25\n"
        );
        let trace = std::fs::metadata(
            dir.join("target/experiments")
                .join(RunFile::Trace.name("shared_cache")),
        )
        .expect("shared-cache trace written");
        assert!(trace.len() > 0, "the resolvers must report to the run");
        captures.push((stdout, csv));
    }
    assert_eq!(
        captures[0], captures[1],
        "same-seed shared-cache reruns must be byte-identical"
    );
    assert_eq!(
        captures[0], captures[2],
        "--shards 4 must reproduce the sequential shared-cache oracle"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sdig_fault_plan_outage_causes_servfail() {
    let dir = std::env::temp_dir().join(format!("dnsttl-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let plan = dir.join("outage.txt");
    // All three .uy authoritatives dark for the first two hours.
    std::fs::write(
        &plan,
        "# dnsttl-fault-plan/1\n\
         outage 200.40.241.1 0 7200000\n\
         outage 200.40.241.2 0 7200000\n\
         outage 204.61.216.40 0 7200000\n",
    )
    .expect("plan written");
    let out = stdout_of(
        sdig()
            .args(["www.gub.uy", "A", "--fault-plan"])
            .arg(&plan)
            .output()
            .expect("runs"),
    );
    assert!(
        out.contains(";; fault plan: 3 outage(s)"),
        "plan summary missing:\n{out}"
    );
    let session = out
        .lines()
        .find(|l| l.starts_with(";; session:"))
        .expect("session line");
    assert!(
        session.contains("1 servfails"),
        "an outage of every child server must SERVFAIL the query: {session}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sdig_fault_plan_flush_forces_refetch() {
    let dir = std::env::temp_dir().join(format!("dnsttl-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let plan = dir.join("flush.txt");
    std::fs::write(&plan, "flush 30000\n").expect("plan written");
    // Two queries 60 s apart: without the flush the second is a cache
    // hit (the .uy NS TTL is 300 s); the scripted flush at t=30 s
    // forces a refetch instead.
    let out = stdout_of(
        sdig()
            .args(["uy", "NS", "--repeat", "2", "--every", "60", "--fault-plan"])
            .arg(&plan)
            .output()
            .expect("runs"),
    );
    assert!(
        out.contains("cache flush applied"),
        "flush must be reported:\n{out}"
    );
    assert_eq!(
        out.matches("cache miss").count(),
        2,
        "the flush must turn the second query into a miss:\n{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sdig_rejects_malformed_fault_plan() {
    let dir = std::env::temp_dir().join(format!("dnsttl-badplan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let plan = dir.join("bad.txt");
    std::fs::write(&plan, "outage not-an-ip 0\n").expect("plan written");
    let out = sdig()
        .args(["uy", "NS", "--fault-plan"])
        .arg(&plan)
        .output()
        .expect("runs");
    assert!(!out.status.success(), "malformed plan must be rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad fault plan"),
        "stderr must explain the rejection"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zonecheck_rejects_non_utf8_stdin_without_panicking() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_zonecheck"))
        .args(["--origin", "example", "-"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"\xff\n").expect("stdin written");
    drop(stdin);
    let out = child.wait_with_output().expect("exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("cannot read -"), "{stderr}");
}

#[test]
fn sdig_explain_prints_causal_tree_for_multi_hop_resolution() {
    // cachetest-out delegates sub.cachetest.net to an out-of-bailiwick
    // NS, so the resolution recurses: the tree must show the ns_lookup
    // child span nested under the client resolve span.
    let out = stdout_of(
        sdig()
            .args([
                "--world",
                "cachetest-out",
                "p1.sub.cachetest.net",
                "AAAA",
                "--explain",
            ])
            .output()
            .expect("runs"),
    );
    assert!(out.contains(";; causal span tree"), "{out}");
    assert!(
        out.contains("resolve:p1.sub.cachetest.net.:AAAA"),
        "root span frame missing:\n{out}"
    );
    let child = out
        .lines()
        .find(|l| l.contains("ns_lookup:"))
        .unwrap_or_else(|| panic!("no ns_lookup child span in tree:\n{out}"));
    assert!(
        child.trim_start().starts_with("├─") || child.trim_start().starts_with("└─"),
        "child span must be indented under its parent: {child}"
    );
}

#[test]
fn repro_flame_emits_collapsed_stack_lines() {
    let dir = std::env::temp_dir().join(format!("dnsttl-flame-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // A real run writes the trace; flame folds it.
    let out = repro()
        .args(["--smoke", "--seed", "7", "fig10"])
        .current_dir(&dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = dir
        .join("target/experiments")
        .join(RunFile::Trace.name("uy_latency"));
    let folded = stdout_of(repro().arg("flame").arg(&trace).output().expect("runs"));
    assert!(!folded.trim().is_empty(), "no collapsed stacks emitted");
    for line in folded.lines() {
        // flamegraph.pl input: `frame;frame count` — exactly one space,
        // an integer weight, no whitespace inside frames.
        let (stack, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed collapsed-stack line: {line:?}"));
        assert!(!stack.is_empty(), "empty stack: {line:?}");
        assert!(
            !stack.contains(' '),
            "frames must not contain spaces: {line:?}"
        );
        weight
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("weight not an integer in {line:?}: {e}"));
    }
    assert!(
        folded.lines().any(|l| l.starts_with("resolve:")),
        "resolution frames missing:\n{folded}"
    );
    // Pointing flame at the run directory folds the same trace.
    let from_dir = stdout_of(
        repro()
            .arg("flame")
            .arg(dir.join("target/experiments"))
            .output()
            .expect("runs"),
    );
    assert_eq!(folded, from_dir, "directory mode must fold the same trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_doctor_passes_healthy_runs_and_flags_corruption() {
    let dir = std::env::temp_dir().join(format!("dnsttl-doctor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = repro()
        .args(["--smoke", "--seed", "7", "--shards", "4", "resilience"])
        .current_dir(&dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exp = dir.join("target/experiments");

    // Healthy run: every check passes, exit code 0. This is also the
    // CI assertion that the trace ring dropped nothing in a smoke run.
    let verdict = repro().arg("doctor").arg(&exp).output().expect("runs");
    let report = String::from_utf8_lossy(&verdict.stdout).to_string();
    assert!(
        verdict.status.success(),
        "doctor must pass a healthy run:\n{report}"
    );
    assert!(report.contains("trace ring dropped nothing"), "{report}");
    assert!(report.contains(", 0 failed"), "{report}");

    // Corrupt the manifest (claim a missing artifact and a drop) and
    // the audit must fail with a nonzero exit.
    let manifest_path = exp.join(RunFile::Manifest.name("resilience"));
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest");
    std::fs::write(
        &manifest_path,
        manifest
            .replace("\"trace_dropped\":0", "\"trace_dropped\":5")
            .replace(
                "resilience_fault_plan.txt",
                "resilience_fault_plan_gone.txt",
            ),
    )
    .expect("rewrite manifest");
    let verdict = repro().arg("doctor").arg(&exp).output().expect("runs");
    let report = String::from_utf8_lossy(&verdict.stdout).to_string();
    assert!(
        !verdict.status.success(),
        "doctor must fail a corrupted run:\n{report}"
    );
    assert!(report.contains("dropped 5 events"), "{report}");
    assert!(report.contains("is missing"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_shards_flag_matches_the_sequential_oracle() {
    // The full CLI path of the determinism contract (DESIGN.md §10):
    // `repro --shards 1` is the reference oracle and `--shards 4` must
    // reproduce its stdout and every CSV byte for byte. The resilience
    // module exercises the sharded client simulation plus CSV, fault
    // plan, and manifest emission in one run.
    let base = std::env::temp_dir().join(format!("dnsttl-shards-{}", std::process::id()));
    let mut captures = Vec::new();
    for workers in ["1", "4"] {
        let dir = base.join(format!("w{workers}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = repro()
            .args(["--smoke", "--seed", "7", "--shards", workers, "resilience"])
            .current_dir(&dir)
            .output()
            .expect("runs");
        let mut capture = stdout_of(out);

        let exp = dir.join("target/experiments");
        let mut files: Vec<_> = std::fs::read_dir(&exp)
            .expect("artifact dir written")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        assert!(
            !files.is_empty(),
            "no artifacts written for --shards {workers}"
        );
        for f in &files {
            capture.push_str(&f.file_name().expect("name").to_string_lossy());
            capture.push('\n');
            capture.push_str(&std::fs::read_to_string(f).expect("artifact readable"));
        }
        captures.push(capture);
    }
    assert_eq!(
        captures[0], captures[1],
        "--shards 4 must be byte-identical to the sequential oracle"
    );
    let _ = std::fs::remove_dir_all(&base);

    // And the flag rejects a zero worker count.
    let out = repro()
        .args(["--shards", "0", "resilience"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "--shards 0 must be rejected");
}

#[test]
fn repro_warns_when_cells_is_given_without_shards() {
    // Without `--shards` fig10 alone runs one global population, which
    // `--cells` cannot partition, so the flag must be called out on
    // stderr there — and must not touch stdout.
    let run = |args: &[&str]| {
        let out = repro().args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (stdout_of(out), stderr)
    };
    let (plain_out, plain_err) = run(&["--quick", "fig10"]);
    let (cells_out, cells_err) = run(&["--quick", "--cells", "64", "fig10"]);
    assert!(!plain_err.contains("--cells"), "stderr: {plain_err}");
    assert!(
        cells_err.contains("warning: --cells has no effect on fig10 without --shards"),
        "stderr: {cells_err}"
    );
    assert_eq!(plain_out, cells_out, "the ignored flag changed the output");

    // With `--shards` the flag is honoured, so no warning.
    let (_, sharded_err) = run(&["--quick", "--shards", "2", "--cells", "64", "fig10"]);
    assert!(!sharded_err.contains("warning"), "stderr: {sharded_err}");

    // Every other campaign runs on its cells without `--shards`, so
    // there the flag is honoured too: no warning, and a new partition.
    let (resilience_out, _) = run(&["--quick", "resilience"]);
    let (cells_out, cells_err) = run(&["--quick", "--cells", "64", "resilience"]);
    assert!(!cells_err.contains("warning"), "stderr: {cells_err}");
    assert_ne!(resilience_out, cells_out, "--cells is part of the identity");
}

#[test]
fn repro_warns_when_progress_is_given_without_shards() {
    // The heartbeat reports on the cell engine's cells. Without
    // `--shards` fig10 has none, so `--progress` must be called out on
    // stderr instead of silently printing nothing.
    let run = |args: &[&str]| {
        let out = repro().args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (stdout_of(out), stderr)
    };
    let (plain_out, plain_err) = run(&["--quick", "fig10"]);
    let (flag_out, flag_err) = run(&["--quick", "--progress", "fig10"]);
    assert!(!plain_err.contains("--progress"), "stderr: {plain_err}");
    assert!(
        flag_err.contains("warning: --progress has no effect on fig10 without --shards"),
        "stderr: {flag_err}"
    );
    assert!(!flag_err.contains("[heartbeat"), "stderr: {flag_err}");
    assert_eq!(plain_out, flag_out, "the ignored flag changed the output");

    // Every other campaign runs on its cells without `--shards`: a
    // heartbeat, no warning.
    let (_, cells_err) = run(&["--quick", "--progress", "resilience"]);
    assert!(!cells_err.contains("warning"), "stderr: {cells_err}");
    assert!(
        cells_err.contains("[heartbeat resilience"),
        "stderr: {cells_err}"
    );

    // With `--shards` the flag is honoured: a heartbeat, no warning —
    // and the heartbeat counts the threads that ran, which a request
    // for far more workers than cores cannot raise past the cores.
    let (_, sharded_err) = run(&["--quick", "--shards", "512", "--progress", "fig10"]);
    assert!(!sharded_err.contains("warning"), "stderr: {sharded_err}");
    assert!(
        sharded_err.contains("[heartbeat fig10"),
        "stderr: {sharded_err}"
    );
    assert!(
        !sharded_err.contains("(512 workers)"),
        "stderr: {sharded_err}"
    );
}

#[test]
fn a_preset_resets_no_flag_given_before_it() {
    // `--smoke`, `--quick` and `--paper-scale` pick the scale and
    // nothing else, so a flag counts wherever it stands. fig10 is the
    // module whose output depends on `--shards` as well as `--seed`.
    let run = |args: &[&str]| {
        let out = repro().args(args).args(["--no-csv", "fig10"]).output();
        stdout_of(out.expect("runs"))
    };
    let smoke = run(&["--smoke"]);
    let sharded = run(&["--smoke", "--shards", "4"]);
    assert_eq!(run(&["--shards", "4", "--smoke"]), sharded);
    assert_ne!(sharded, smoke, "--shards 4 must reach fig10");
    let seeded = run(&["--smoke", "--seed", "7"]);
    assert_eq!(run(&["--seed", "7", "--smoke"]), seeded);
    assert_ne!(seeded, smoke, "--seed 7 must reach fig10");

    // `--quick` writes no file unless `--out` names a directory, before
    // or after it.
    let dir = std::env::temp_dir().join(format!("dnsttl-cli-preset-{}", std::process::id()));
    let out = repro()
        .args(["--out", dir.to_str().expect("utf-8 temp path")])
        .args(["--quick", "table1"])
        .output()
        .expect("runs");
    stdout_of(out);
    let written = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(written > 0, "--out before --quick wrote nothing");
}

#[test]
fn repro_reports_its_peak_resident_set_on_stderr() {
    // The per-module stderr line carries the process's peak RSS where
    // the OS reports it (Linux: `VmHWM`); stdout never does.
    let out = repro().args(["--quick", "table1"]).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let stdout = stdout_of(out);
    assert!(!stdout.contains("peak RSS"), "stdout: {stdout}");
    if cfg!(target_os = "linux") {
        let line = stderr
            .lines()
            .find(|l| l.contains("trace events"))
            .unwrap_or_else(|| panic!("no module line in stderr: {stderr}"));
        let mb = line
            .split(", peak RSS ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(" MB)"))
            .and_then(|mb| mb.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no peak RSS in {line:?}"));
        assert!(mb > 0, "{line}");
    }
}

#[test]
fn repro_rejects_an_out_directory_it_cannot_create() {
    // `--out` under a regular file cannot become a directory: `repro`
    // must say so and exit 2 before it simulates anything, and must not
    // claim that its CSVs were written.
    let file = std::env::temp_dir().join(format!("dnsttl-cli-out-file-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("temp file writable");
    let sub = file.join("sub");
    let out = repro()
        .args(["--out", sub.to_str().expect("utf-8 temp path")])
        .args(["--smoke", "fig10"])
        .output()
        .expect("runs");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("cannot create {}: ", sub.display())),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("written under"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing was simulated");
}
