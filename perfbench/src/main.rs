//! The sitra benchmark: runs the live pipeline on one workload, checks
//! every output against a fully in-situ reference, and prints every
//! metric by name and unit, ending with one JSON line.
//!
//! ```text
//! sitra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! `--trace 0` is the measured run and prints the end-to-end metrics.
//! `--trace 1` alternates measured and traced episodes, prints the
//! per-layer metrics, checks that the traced stages sum to task
//! latency, and runs the planted-slowdown self-test.

mod os;
mod probe;
mod report;
mod stats;
mod workload;

use report::{Failures, Metrics, StageSplit};
use stats::Ratio;
use std::time::Instant;
use workload::{Episode, Workload, PLANT_LABEL};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sitra-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sitra-perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("sitra-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// What the run's episodes share: the workload, its seed, and the
/// reference outputs every episode is checked against.
struct Runner {
    w: Workload,
    seed: u64,
    reference: std::collections::BTreeMap<(String, u64), Vec<u8>>,
    failures: Failures,
}

impl Runner {
    /// Run and check one episode. Its outputs are dropped once checked,
    /// so the process high-water mark does not grow with run length.
    fn episode(&mut self, traced: bool, plant: bool) -> Episode {
        let mut ep = self.w.episode(self.seed, traced, plant);
        let f = report::check_episode(&self.w, &self.reference, &ep);
        if f.total() > 0 {
            eprintln!("episode failures: {f:?}");
        }
        self.failures.add(&f);
        ep.result.outputs = Vec::new();
        ep
    }
}

/// Steps a sample set needs so its p95 has the tail the rule asks for.
fn min_steps(w: &Workload) -> usize {
    let hybrid_per_step = w
        .roster()
        .iter()
        .filter(|s| s.placement == sitra_core::Placement::Hybrid)
        .count()
        .max(1);
    let need = stats::min_samples_for(0.95);
    need.max(need.div_ceil(hybrid_per_step))
}

fn steps(episodes: &[Episode]) -> usize {
    episodes.iter().map(|e| e.result.metrics.steps.len()).sum()
}

fn wall(episodes: &[Episode]) -> f64 {
    episodes.iter().map(|e| e.wall_s).sum()
}

/// The median over episodes of `per_step(episode) / steps`, robust to
/// a stall that hits a minority of episodes.
fn episode_median(episodes: &[Episode], per_step: impl Fn(&Episode) -> f64) -> f64 {
    let xs: Vec<f64> = episodes
        .iter()
        .map(|e| per_step(e) / e.result.metrics.steps.len() as f64)
        .collect();
    stats::percentile(&xs, 0.5).expect("at least one episode")
}

/// Median over episodes of steps / `run_pipeline` wall time.
fn steps_per_s(episodes: &[Episode]) -> f64 {
    1.0 / episode_median(episodes, |e| e.wall_s)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let epoch = Instant::now();
    // The reference runs before any timed region or set-up.
    let mut runner = Runner {
        w,
        seed: args.seed,
        reference: w.reference(args.seed),
        failures: Failures::default(),
    };
    println!(
        "workload {} seed {} dims {:?} staging {:?} ranks {:?} buckets 1 threads {}",
        w.name,
        args.seed,
        w.dims,
        w.staging,
        workload::PARTS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let min = min_steps(&w);
    let mut metrics = Metrics::default();
    let mut oracle_ok = true;

    if !args.trace {
        let mut eps = Vec::new();
        while wall(&eps) < args.seconds || steps(&eps) < min {
            eps.push(runner.episode(false, false));
        }
        end_to_end(&mut metrics, &w, &eps, &runner.failures)?;
    } else {
        // Alternate measured and traced episodes so drift hits both.
        let (mut measured, mut traced) = (Vec::new(), Vec::new());
        let half = args.seconds / 2.0;
        while wall(&measured) < half || wall(&traced) < half || steps(&traced) < min {
            measured.push(runner.episode(false, false));
            traced.push(runner.episode(true, false));
        }
        let planted = vec![runner.episode(true, true)];
        oracle_ok &= per_layer(&mut metrics, &w, &measured, &traced, &planted)?;
        if let Some(path) = &args.spans {
            let mut all = traced;
            all.extend(planted);
            write_spans(path, &report::spans_jsonl(&w, &all, epoch))?;
        }
    }

    let f = runner.failures;
    print!("{}", metrics.table());
    println!(
        "outputs: {} tasks checked, {} failed ({:?})",
        f.attempted,
        f.total(),
        f
    );
    let correct = f.total() == 0 && oracle_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        f.attempted,
        f.total(),
        metrics.json()
    );
    Ok(correct)
}

fn write_spans(path: &str, jsonl: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, jsonl).map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end(
    m: &mut Metrics,
    w: &Workload,
    eps: &[Episode],
    failures: &Failures,
) -> Result<(), String> {
    let setups: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    let setup = stats::percentile(&setups, 0.5).ok_or("no episodes")?;
    m.push(
        "setup_s",
        setup,
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    let n_steps = steps(eps);
    m.push(
        "steps_per_s",
        steps_per_s(eps),
        "1/s",
        format!(
            "median of {} episodes; {n_steps} steps over {:.3} s of run_pipeline",
            eps.len(),
            wall(eps)
        ),
    );
    let rows = eps.iter().flat_map(|e| e.result.metrics.steps.iter());
    let step: Vec<f64> = rows
        .clone()
        .map(|s| s.sim_secs + s.ghost_secs + s.blocked_secs)
        .collect();
    let blocked: Vec<f64> = rows.map(|s| s.blocked_secs).collect();
    m.push_ms_pct("step_ms.p50", &step, 0.5)?;
    m.push_ms_pct("step_ms.p95", &step, 0.95)?;
    m.push_ms_pct("blocked_ms.p50", &blocked, 0.5)?;
    m.push_ms_pct("blocked_ms.p95", &blocked, 0.95)?;
    let lat = report::task_latencies(w, eps);
    m.push_ms_pct("task_latency_ms.p50", &lat, 0.5)?;
    m.push_ms_pct("task_latency_ms.p95", &lat, 0.95)?;
    let cpu: f64 = eps.iter().map(|e| e.cpu_s).sum();
    m.push(
        "cpu_ms_per_step",
        episode_median(eps, |e| e.cpu_s * 1e3),
        "ms",
        format!(
            "median of {} episodes; overall {}",
            eps.len(),
            Ratio::per(cpu * 1e3, n_steps as u64, "steps")
        ),
    );
    m.push(
        "peak_rss_mib",
        os::peak_rss_mib(),
        "MiB",
        "process high-water".into(),
    );
    let ok = failures.attempted - failures.total().min(failures.attempted);
    m.push(
        "ok_pct",
        100.0 * Ratio::per(ok as f64, failures.attempted, "tasks").value(),
        "%",
        format!(
            "{ok} of {} tasks clean; failed_pct = 100 - ok_pct",
            failures.attempted
        ),
    );
    Ok(())
}

fn p50(xs: &[f64]) -> f64 {
    stats::percentile(xs, 0.5).unwrap_or(0.0)
}

/// Per-layer metrics; returns whether the stage-sum oracle and the
/// planted-slowdown self-test held.
fn per_layer(
    m: &mut Metrics,
    w: &Workload,
    measured: &[Episode],
    traced: &[Episode],
    planted: &[Episode],
) -> Result<bool, String> {
    let rows = traced.iter().flat_map(|e| e.result.metrics.steps.iter());
    let field: Vec<f64> = rows.clone().map(|s| s.sim_secs).collect();
    let ghost: Vec<f64> = rows.map(|s| s.ghost_secs).collect();
    m.push_ms_pct("sim.field_ms.p50", &field, 0.5)?;
    m.push_ms_pct("mesh.ghost_ms.p50", &ghost, 0.5)?;

    let registered = w.labels();
    for (label, s) in report::label_samples(w, traced) {
        let tasks = s.insitu.len();
        let (insitu, aggregate) = if registered.iter().any(|l| l == label) {
            (
                format!("n={tasks}"),
                format!("self time, n={}", s.aggregate.len()),
            )
        } else {
            let absent = "label not in this workload's roster".to_string();
            (absent.clone(), absent)
        };
        m.push(
            format!("analysis.{label}.insitu_ms.p50"),
            p50(&s.insitu) * 1e3,
            "ms",
            insitu,
        );
        m.push(
            format!("analysis.{label}.aggregate_ms.p50"),
            p50(&s.aggregate) * 1e3,
            "ms",
            aggregate,
        );
        m.push_ratio(
            &format!("analysis.{label}.payload_kib"),
            Ratio::per(
                s.payload_bytes.iter().sum::<f64>() / 1024.0,
                tasks as u64,
                "tasks",
            ),
            "KiB",
        );
    }
    m.push_ms_pct(
        "staging.submit_ms.p50",
        &report::staging_submit_samples(w, traced),
        0.5,
    )?;

    let mut ok = true;
    let splits = match report::stage_splits(w, traced) {
        Ok(s) => s,
        Err(e) => {
            println!("stage-sum oracle FAILED: {e}");
            ok = false;
            Default::default()
        }
    };
    let all: Vec<StageSplit> = splits.iter().map(|&(_, s)| s).collect();
    let worst = all
        .iter()
        .map(|s| (s.sum() - s.latency).abs())
        .fold(0.0, f64::max);
    println!(
        "stage-sum oracle: {} hybrid tasks, worst |sum - latency| = {:.3} us",
        all.len(),
        worst * 1e6
    );
    type Stage = fn(&StageSplit) -> f64;
    let stages: [(&str, Stage); 4] = [
        ("insitu", |s| s.insitu),
        ("to_bucket", |s| s.to_bucket),
        ("aggregate", |s| s.aggregate),
        ("deliver", |s| s.deliver),
    ];
    for (name, get) in stages {
        let xs: Vec<f64> = all.iter().map(get).collect();
        m.push_ms_pct(&format!("stage.{name}_ms.p50"), &xs, 0.5)?;
        m.push_ms_pct(&format!("stage.{name}_ms.p95"), &xs, 0.95)?;
    }

    let hybrid_tasks: u64 = traced.iter().map(|e| e.result.staged_tasks as u64).sum();
    let n_steps = steps(traced) as u64;
    let pm = traced.iter().map(|e| &e.result.metrics);
    let bte: u64 = pm.clone().map(|p| p.bte_transfers).sum();
    let dart_bytes: u64 = pm.clone().map(|p| p.bte_bytes + p.smsg_bytes).sum();
    m.push_ratio(
        "dart.bte_per_task",
        Ratio::per(bte as f64, hybrid_tasks, "tasks"),
        "count",
    );
    m.push_ratio(
        "dart.kib_per_step",
        Ratio::per(dart_bytes as f64 / 1024.0, n_steps, "steps"),
        "KiB",
    );

    let mut obs = workload::ObsDiff::default();
    for e in traced {
        obs.add(&e.obs);
    }
    m.push_ratio(
        "dataspaces.rpc_per_task",
        Ratio::per(
            obs.counter("space.rpc.requests") as f64,
            hybrid_tasks,
            "tasks",
        ),
        "count",
    );
    let (waits, wait_ns) = obs.histogram("sched.task.wait_ns");
    m.push_ratio(
        "sched.queue_wait_ms.mean",
        Ratio::per(wait_ns as f64 / 1e6, waits, "assignments"),
        "ms",
    );
    // The remote scheduler lives in the staging server; the local one
    // reports through the pipeline result.
    let depth = traced
        .iter()
        .map(|e| {
            e.sched
                .as_ref()
                .map_or(e.result.metrics.max_queue_depth, |s| s.max_queue_depth)
        })
        .max()
        .unwrap_or(0);
    m.push(
        "sched.max_queue_depth",
        depth as f64,
        "count",
        "max over episodes".into(),
    );
    m.push_ratio(
        "sched.requeued_per_assigned",
        Ratio::per(
            obs.counter("sched.tasks.requeued") as f64,
            obs.counter("sched.tasks.assigned"),
            "assignments",
        ),
        "ratio",
    );
    m.push_ratio(
        "net.frames_per_task",
        Ratio::per(
            obs.counter("net.conn.frames_sent") as f64,
            hybrid_tasks,
            "tasks",
        ),
        "count",
    );
    m.push_ratio(
        "net.kib_per_step",
        Ratio::per(
            obs.counter("net.conn.bytes_sent") as f64 / 1024.0,
            n_steps,
            "steps",
        ),
        "KiB",
    );

    let (plain, with_spans) = (steps_per_s(measured), steps_per_s(traced));
    m.push(
        "trace.overhead_pct",
        100.0 * (plain - with_spans) / plain,
        "%",
        format!(
            "{plain:.3} vs {with_spans:.3} steps/s over {} + {} episodes",
            measured.len(),
            traced.len()
        ),
    );

    ok &= self_test(w, &splits, planted);
    Ok(ok)
}

/// The planted-slowdown self-test: a fixed delay inside
/// [`PLANT_LABEL`]'s aggregation must show in its `stage.aggregate` and
/// task latency, and not in `stage.deliver`.
fn self_test(w: &Workload, baseline: &[(usize, StageSplit)], planted: &[Episode]) -> bool {
    let idx = w
        .labels()
        .iter()
        .position(|l| l == PLANT_LABEL)
        .expect("every workload registers the planted label");
    let with = match report::stage_splits(w, planted) {
        Ok(s) => s,
        Err(e) => {
            println!("stage-sum oracle FAILED on the planted run: {e}");
            return false;
        }
    };
    let p50_of = |set: &[(usize, StageSplit)], get: fn(&StageSplit) -> f64| {
        let xs: Vec<f64> = set
            .iter()
            .filter(|(label, _)| *label == idx)
            .map(|(_, s)| get(s))
            .collect();
        p50(&xs) * 1e3
    };
    let shift = |get: fn(&StageSplit) -> f64| p50_of(&with, get) - p50_of(baseline, get);
    let agg = shift(|s| s.aggregate);
    let lat = shift(|s| s.latency);
    let deliver = shift(|s| s.deliver);
    let d = w.plant_delay_ms as f64;
    // Remote discovery waits for a step boundary, so part of a planted
    // delay can hide in slack that `deliver` would otherwise have
    // spent waiting: `deliver` may shrink, but must not grow.
    let ok = agg >= 0.8 * d && lat >= 0.5 * d && deliver <= 0.5 * d;
    println!(
        "planted-slowdown self-test {}: aggregate {agg:+.3} ms, latency {lat:+.3} ms, deliver {deliver:+.3} ms for +{d} ms",
        if ok { "passed" } else { "FAILED" }
    );
    ok
}
