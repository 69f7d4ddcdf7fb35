//! End-to-end and per-layer benchmark of the dynfb reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-matrix|chaos-observed|quick-compile \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` the run measures untraced for half its
//! time and traced for the other half, and reports the per-layer metrics.
//! The command exits nonzero when any output check fails.

mod build;
mod calib;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use build::VersionSizes;
use dynfb_bench::engine::Engine;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{spans_jsonl, Counters, JobTrace};
use workloads::{check_run, dyn_over_best, run_pass, Inputs, JobRecord, Workload};

const USAGE: &str = "usage: perfbench --workload paper-matrix|chaos-observed|quick-compile \
--seed N --seconds S --trace 0|1";

/// Jobs a measured run completes at least, so that its p90 has at least
/// ten samples above it.
const MIN_JOBS: usize = 100;
/// The first set-up burst repeats at least this often, and for at least
/// [`SETUP_FIRST_TIME`].
const SETUP_REPS: usize = 7;
/// Least time of the first set-up burst.
const SETUP_FIRST_TIME: Duration = Duration::from_millis(200);
/// Least time of the set-up burst after each pass.
const SETUP_BURST_TIME: Duration = Duration::from_millis(20);
/// Host-speed calibration after each pass takes this share of the pass's
/// time, and at least [`CALIB_MIN_TIME`].
const CALIB_SHARE: u32 = 10;
/// Least time of one host-speed calibration.
const CALIB_MIN_TIME: Duration = Duration::from_millis(50);
/// Engine workers: one per core, at most two.
const MAX_WORKERS: usize = 2;
/// Where a traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Jobs measured in one timed phase of a run.
struct Phase {
    records: Vec<JobRecord>,
    /// Host time inside the engine, summed over passes.
    wall: Duration,
    passes: usize,
    /// Workers × pass wall time, summed over passes.
    capacity: Duration,
    /// Host time of each pass, in seconds.
    pass_walls: Vec<f64>,
    /// Host speed during each pass, relative to the reference host.
    speeds: Vec<f64>,
}

impl Phase {
    /// Jobs per second of the reference host.
    fn jobs_per_s(&self) -> f64 {
        let scaled: f64 = self.pass_walls.iter().zip(&self.speeds).map(|(w, f)| w * f).sum();
        self.records.len() as f64 / scaled
    }

    /// Job times in milliseconds of the reference host.
    fn walls_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wall.as_secs_f64() * 1e3 * self.speeds[r.pass]).collect()
    }
}

/// Set-up times and the latest host speed, kept across a run's phases.
struct HostLog {
    /// Set-up burst medians in seconds of the reference host.
    setup: Vec<f64>,
    /// Host speed at the latest calibration.
    speed: f64,
}

/// Set up at least `min_reps` times and for at least `min_time`: generate
/// the seeded inputs and parse and compile every distinct app once. Returns
/// the last set-up's inputs and Plasma build, and the median set-up time.
fn setup_burst(
    workload: Workload,
    seed: u64,
    min_reps: usize,
    min_time: Duration,
) -> (Inputs, Option<VersionSizes>, f64) {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let inputs = Inputs::new(workload, seed);
        let plasma = inputs.compile_all();
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= min_reps && started.elapsed() >= min_time {
            return (inputs, plasma, stats::median(&times).expect("set-up ran"));
        }
    }
}

/// What every timed phase of a run shares.
struct Runner<'a> {
    workload: Workload,
    seed: u64,
    first: &'a Inputs,
    engine: &'a Engine,
}

impl Runner<'_> {
    /// Run passes until `budget` has elapsed; with `sized`, also until the
    /// run has [`MIN_JOBS`] jobs and a reportable p90 (up to four budgets).
    /// After each pass a set-up burst adds its median to the log, so set-up
    /// is sampled across the whole run, as the jobs are; then the host's
    /// speed is calibrated again. A pass's speed is the mean of the
    /// calibrations before and after it.
    fn measure(
        &self,
        budget: Duration,
        sized: bool,
        epoch: Option<Instant>,
        log: &mut HostLog,
    ) -> Phase {
        let mut phase = Phase {
            records: Vec::new(),
            wall: Duration::ZERO,
            passes: 0,
            capacity: Duration::ZERO,
            pass_walls: Vec::new(),
            speeds: Vec::new(),
        };
        loop {
            let pass_seed = self.workload.pass_seed(self.seed, phase.passes);
            let other;
            let inputs = if pass_seed == self.first.seed {
                self.first
            } else {
                other = Inputs::new(self.workload, pass_seed);
                &other
            };
            let t0 = Instant::now();
            let records = run_pass(inputs, phase.passes, self.engine, epoch);
            let wall = t0.elapsed();
            phase.wall += wall;
            phase.capacity += wall * self.engine.jobs() as u32;
            phase.records.extend(records);
            phase.passes += 1;
            let setup = setup_burst(self.workload, self.seed, 1, SETUP_BURST_TIME).2;
            let before = log.speed;
            log.speed =
                calib::host_speed(self.engine.jobs(), (wall / CALIB_SHARE).max(CALIB_MIN_TIME));
            log.setup.push(setup * log.speed);
            phase.pass_walls.push(wall.as_secs_f64());
            phase.speeds.push((before + log.speed) / 2.0);
            let done = phase.wall >= budget
                && (!sized
                    || (phase.records.len() >= MIN_JOBS
                        && stats::tail_quantile(&phase.walls_ms(), 0.9).is_some()));
            if done || phase.wall >= budget * 4 {
                return phase;
            }
        }
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per_step(ns: u64, steps: u64) -> f64 {
    if steps == 0 {
        0.0
    } else {
        ns as f64 / steps as f64
    }
}

/// Per-layer metrics of a traced phase, per pass of the job list.
fn layer_metrics(traced: &Phase, untraced: &Phase) -> (Vec<Metric>, String) {
    let traces: Vec<&JobTrace> = traced.records.iter().filter_map(|r| r.trace.as_ref()).collect();
    let mut c = Counters::default();
    let mut span_ns = std::collections::BTreeMap::<&str, u64>::new();
    for t in &traces {
        c.add(&t.counters);
        for s in &t.spans {
            *span_ns.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
    }
    let span = |name: &str| span_ns.get(name).copied().unwrap_or(0);
    let passes = traced.passes.max(1) as f64;
    let per = |v: f64| v / passes;
    let sim_self = span("sim.run").saturating_sub(c.exec_ns + c.observe_ns());
    let busy: Duration = traced.records.iter().map(|r| r.wall).sum();
    let idle = traced.capacity.saturating_sub(busy);
    let measuring_only: u64 = [
        "compiler.callgraph",
        "compiler.effects",
        "compiler.commutativity",
        "compiler.lockplace",
        "compiler.syncopt",
        "compiler.lower",
        "compiler.native",
        "compiler.package",
        "bench.tokens",
    ]
    .iter()
    .map(|p| span(p))
    .sum();
    let metrics = vec![
        metric("lang.parse_ms", per(ms(span("lang.parse"))), "ms"),
        metric("lang.sema_ms", per(ms(span("lang.sema"))), "ms"),
        metric("lang.tokens", per(c.tokens as f64), "count"),
        metric("compiler.callgraph_ms", per(ms(span("compiler.callgraph"))), "ms"),
        metric("compiler.effects_ms", per(ms(span("compiler.effects"))), "ms"),
        metric("compiler.commutativity_ms", per(ms(span("compiler.commutativity"))), "ms"),
        metric("compiler.lockplace_ms", per(ms(span("compiler.lockplace"))), "ms"),
        metric("compiler.syncopt_ms", per(ms(span("compiler.syncopt"))), "ms"),
        metric("compiler.lower_ms", per(ms(span("compiler.lower"))), "ms"),
        metric("compiler.native_ms", per(ms(span("compiler.native"))), "ms"),
        metric("compiler.package_ms", per(ms(span("compiler.package"))), "ms"),
        metric("compiler.compile_ms", per(ms(span("compiler.compile"))), "ms"),
        metric("compiler.versions", per(c.versions as f64), "count"),
        metric("compiler.ir_bytes", per(c.ir_bytes as f64), "bytes"),
        metric("exec.self_ms", per(ms(c.exec_ns)), "ms"),
        metric("exec.iterations", per(c.iterations as f64), "count"),
        metric("exec.steps", per(c.steps as f64), "count"),
        metric("exec.ns_per_step", per_step(c.exec_ns, c.steps), "ns"),
        metric("sim.self_ms", per(ms(sim_self)), "ms"),
        metric("sim.ns_per_step", per_step(sim_self, c.steps), "ns"),
        metric("sim.acquires", per(c.acquires as f64), "count"),
        metric("sim.failed_attempts", per(c.failed_attempts as f64), "count"),
        metric("sim.timer_reads", per(c.timer_reads as f64), "count"),
        metric("sim.sampling_intervals", per(c.sampling_intervals as f64), "count"),
        metric("observe.trace_ms", per(ms(c.trace_ns)), "ms"),
        metric("observe.journal_ms", per(ms(c.journal_ns)), "ms"),
        metric("observe.metrics_ms", per(ms(c.metrics_ns)), "ms"),
        metric("observe.trace_events", per(c.trace_events as f64), "count"),
        metric("observe.journal_records", per(c.journal_records as f64), "count"),
        metric("observe.metrics_calls", per(c.metrics_calls as f64), "count"),
        metric("observe.dropped", per(c.dropped as f64), "count"),
        metric("engine.busy_s", per(busy.as_secs_f64()), "s"),
        metric("engine.idle_s", per(idle.as_secs_f64()), "s"),
        metric("bench.trace_overhead", traced.jobs_per_s() / untraced.jobs_per_s(), "ratio"),
    ];
    // Shares of the work an untraced job does: the pass replay and the token
    // count are left out, since `compiler.compile` and `lang.parse` already
    // cover the same work.
    let lang = span("lang.parse") + span("lang.sema");
    let compile = span("compiler.compile");
    let work = span("job").saturating_sub(measuring_only);
    let share = |ns: u64| 100.0 * ns as f64 / work.max(1) as f64;
    let other = work.saturating_sub(lang + compile + span("sim.run"));
    let shares = format!(
        "layer shares of traced job time, measuring-only spans left out: lang {:.1}%, compiler {:.1}%, exec {:.1}%, sim {:.1}%, observe {:.1}%, other {:.1}%",
        share(lang),
        share(compile),
        share(c.exec_ns),
        share(sim_self),
        share(c.observe_ns()),
        share(other)
    );
    (metrics, shares)
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let engine = Engine::new(Engine::host_parallelism().min(MAX_WORKERS));

    let (inputs, setup_plasma, first_setup) =
        setup_burst(workload, args.seed, SETUP_REPS, SETUP_FIRST_TIME);
    let speed = calib::host_speed(engine.jobs(), CALIB_MIN_TIME * 2);
    let mut log = HostLog { setup: vec![first_setup * speed], speed };

    let budget = Duration::from_secs(args.seconds);
    let check = |phase: &Phase, rerun: bool| {
        check_run(&inputs, workload, &phase.records, setup_plasma.as_ref(), &engine, rerun)
    };

    println!(
        "workload {} seed {} workers {} ({} jobs per pass, set-up {:.4} s, host speed {:.3})",
        workload.name(),
        args.seed,
        engine.jobs(),
        inputs.jobs.len(),
        first_setup,
        speed
    );
    let runner = Runner { workload, seed: args.seed, first: &inputs, engine: &engine };
    let phases = if args.trace {
        let untraced = runner.measure(budget / 2, false, None, &mut log);
        let traced = runner.measure(budget / 2, false, Some(Instant::now()), &mut log);
        vec![untraced, traced]
    } else {
        vec![runner.measure(budget, true, None, &mut log)]
    };
    let setup_s = stats::median(&log.setup).expect("set-up ran");

    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    for (i, phase) in phases.iter().enumerate() {
        let report = check(phase, i == 0);
        attempted += phase.records.len();
        failed += report.failures.len();
        for (job, whys) in &report.failures {
            for why in whys {
                eprintln!("FAILED {}: {why}", phase.records[*job].id);
            }
        }
        problems.extend(report.other);
        println!(
            "phase {i}: {} passes, {} jobs in {:.3} s at host speed {:.3}, {} checks, {} failed jobs",
            phase.passes,
            phase.records.len(),
            phase.wall.as_secs_f64(),
            stats::median(&phase.speeds).unwrap_or(0.0),
            report.checks,
            report.failures.len()
        );
    }

    let metrics = if let [untraced, traced] = phases.as_slice() {
        let (metrics, shares) = layer_metrics(traced, untraced);
        println!("{shares}");
        let jobs: Vec<(String, &JobTrace)> = traced
            .records
            .iter()
            .filter_map(|r| Some((format!("{}#{}", r.id, r.pass), r.trace.as_ref()?)))
            .collect();
        let path = format!("{SPANS_DIR}/spans-{}-{}.jsonl", workload.name(), args.seed);
        match std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, spans_jsonl(&jobs)))
        {
            Ok(()) => println!("spans of {} traced jobs written to {path}", jobs.len()),
            Err(e) => problems.push(format!("writing {path}: {e}")),
        }
        metrics
    } else {
        let phase = &phases[0];
        let walls = phase.walls_ms();
        let p50 = stats::median(&walls).unwrap_or(0.0);
        let p90 = stats::tail_quantile(&walls, 0.9).unwrap_or_else(|| {
            problems.push("fewer than 10 jobs lie above p90".to_string());
            0.0
        });
        let ratio = dyn_over_best(&phase.records).unwrap_or_else(|| {
            problems.push("no dynamic run with a static baseline".to_string());
            0.0
        });
        let rss = peak_rss_mb().unwrap_or_else(|| {
            problems.push("peak RSS is unavailable".to_string());
            0.0
        });
        vec![
            metric("jobs_per_s", phase.jobs_per_s(), "1/s"),
            metric("job_ms_p50", p50, "ms"),
            metric("job_ms_p90", p90, "ms"),
            metric("peak_rss_mb", rss, "MB"),
            metric("ok_ratio", (attempted - failed) as f64 / attempted.max(1) as f64, "ratio"),
            metric("dyn_over_best", ratio, "ratio"),
            metric("setup_s", setup_s, "s"),
        ]
    };
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    for m in &metrics {
        println!("{:<26} {:>16.6} {:<6} (n={attempted})", m.name, m.value, m.unit);
    }
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
