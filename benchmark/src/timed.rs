//! The timed run: calibration slice, set-up with a counted reference
//! repetition, then timed repetitions with a calibration slice before
//! and after each. No span is recorded anywhere in this mode.

use crate::alloc::{counted, AllocCounts};
use crate::calib::{Calibrator, CALIB_REF_S};
use crate::host::{host_threads, peak_rss_mb, timed, Elapsed};
use crate::output::{Metric, RunResult};
use crate::stats::{median, Quartiles};
use crate::workloads::{check_gates, RepSummary, Workload};
use std::time::Instant;

/// Set-ups per run. `setup_s` is their median, so one disturbed set-up
/// does not move it.
const SETUPS: usize = 3;
/// Timed repetitions a run makes at least, however short `--seconds`.
/// `peak_rss_mb` is read after this many: the high-water mark creeps up
/// with further repetitions (the heap fragments differently each time),
/// so it is taken after a fixed amount of work.
const MIN_REPS: usize = 3;

const MB: f64 = 1024.0 * 1024.0;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The six end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "cal_cpu_us_per_query",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "cal_queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_query",
        unit: "count",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A host time, calibrated against the slices on either side of it.
fn calibrated(t: f64, before: f64, after: f64) -> f64 {
    t / ((before + after) / 2.0) * CALIB_REF_S
}

/// One set-up: the inputs from the seed and a reference repetition on
/// one worker with the counting allocator on, which yields the exact
/// counts, and the gates on its simulated outcome.
///
/// The high-water mark is the campaign's. Rendering fig10's exports
/// builds one 40 MB string whose final capacity lands anywhere between
/// 1.3 and 1.8 times its length depending on the seed, which would put
/// a 10 % lottery on top of a mark that is otherwise steady to 1 %; its
/// allocations are counted, and `peak_rss_mb` sees its memory.
fn set_up(workload: &Workload, seed: u64) -> Result<(RepSummary, AllocCounts), String> {
    let (simulated, campaign) = counted(|| workload.simulate(seed, 1));
    let (raw, rendering) = counted(|| simulated.render());
    let counts = AllocCounts {
        allocs: campaign.allocs + rendering.allocs,
        bytes: campaign.bytes + rendering.bytes,
        peak_live_bytes: campaign.peak_live_bytes,
    };
    let summary = raw.summarise();
    check_gates(workload.name, &summary)?;
    Ok((summary, counts))
}

/// Runs `workload` for about `seconds` of timed repetitions and prints
/// the report; the returned result is the line to print last.
pub fn run(workload: &Workload, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let workers = workload.workers();
    let mut cal = Calibrator::new(workers, smoke);
    cal.slice(); // warms the allocator and the caches; not used
    let mut before = cal.slice();
    let mut raw_calib = vec![before];

    // Set-up, SETUPS times over, each between two calibration slices.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut set_ups: Vec<(RepSummary, AllocCounts)> = Vec::with_capacity(SETUPS);
    let mut problems: Vec<String> = Vec::new();
    for _ in 0..SETUPS {
        let (result, t) = timed(|| set_up(workload, seed));
        let after = cal.slice();
        setup_s.push(calibrated(t.cpu_s, before.cpu_s, after.cpu_s));
        raw_calib.push(after);
        before = after;
        match result {
            Ok(this) => set_ups.push(this),
            Err(gate) => problems.push(format!("gate: {gate}")),
        }
    }
    let Some((reference, counts)) = set_ups.last().cloned() else {
        return RunResult::failed(&problems);
    };
    if set_ups.iter().any(|(summary, _)| *summary != reference) {
        problems.push("reference repetitions differ in output".into());
    }
    // The first repetition of a process pays one-off lazy initialisation
    // (a 24-byte thread-local); from the second on the counts are exact.
    if set_ups[1..].iter().any(|(_, c)| *c != counts) {
        problems.push("reference repetitions differ in allocation counts".into());
    }

    // Timed repetitions, counting off.
    let started = Instant::now();
    let mut reps: Vec<Elapsed> = Vec::new();
    let (mut cal_cpu_s, mut cal_wall_s) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    loop {
        let (raw, t) = timed(|| workload.run(seed, workers));
        let after = cal.slice();
        cal_cpu_s.push(calibrated(t.cpu_s, before.cpu_s, after.cpu_s));
        cal_wall_s.push(calibrated(t.wall_s, before.wall_s, after.wall_s));
        reps.push(t);
        raw_calib.push(after);
        before = after;
        // Off the clock: the digest also covers workers = 1 (reference)
        // against the workload's worker count.
        if raw.summarise() != reference {
            problems.push(format!(
                "repetition {} differs from the reference",
                reps.len()
            ));
        }
        drop(raw);
        if reps.len() == MIN_REPS {
            rss_mb = peak_rss_mb();
        }
        let per_rep = started.elapsed().as_secs_f64() / reps.len() as f64;
        if reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }

    let queries = reference.queries as f64;
    let cpu = Quartiles::of(&cal_cpu_s);
    let wall = Quartiles::of(&cal_wall_s);
    let values = [
        cpu.median / queries * 1e6,
        queries / wall.median,
        counts.allocs as f64 / queries,
        counts.peak_live_bytes as f64 / MB,
        rss_mb,
        median(&setup_s),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| Metric::new(spec.name, value, spec.unit))
        .collect();

    println!(
        "workload {} seed {seed} workers {workers} host_threads {} closed loop, one driver thread",
        workload.name,
        host_threads()
    );
    println!("ops_attempted {}", reference.queries);
    println!("ops_failed {}", reference.sim_failed);
    println!("sim_digest {:#018x}", reference.digest);
    for (name, value) in &reference.sim {
        println!("{name} {value:.4}  (simulated)");
    }
    println!(
        "allocations {} bytes {} in the reference repetition",
        counts.allocs, counts.bytes
    );
    let raw_cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let raw_wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let calib_cpu: Vec<f64> = raw_calib.iter().map(|c| c.cpu_s).collect();
    let show = |label: &str, q: Quartiles| {
        println!(
            "{label:<28} median {:.4} s  q1 {:.4}  q3 {:.4}  n {}",
            q.median, q.q1, q.q3, q.n
        );
    };
    show("repetition cpu, calibrated", cpu);
    show("repetition wall, calibrated", wall);
    show("repetition cpu, raw", Quartiles::of(&raw_cpu));
    show("repetition wall, raw", Quartiles::of(&raw_wall));
    show("calibration slice cpu, raw", Quartiles::of(&calib_cpu));
    show("set-up cpu, calibrated", Quartiles::of(&setup_s));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("samples repetition cpu {}", list(&raw_cpu));
    println!("samples repetition wall {}", list(&raw_wall));
    println!("samples calibration cpu {}", list(&calib_cpu));
    for m in &metrics {
        println!("{:<24} {:.6} {}", m.name, m.value, m.unit);
    }

    if !problems.is_empty() {
        return RunResult::failed(&problems);
    }
    RunResult {
        correct: true,
        attempted: reference.queries * reps.len() as u64,
        failed: reference.sim_failed * reps.len() as u64,
        metrics,
    }
}
