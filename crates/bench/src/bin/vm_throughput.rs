//! Execution-tier throughput microbenchmark and perf gate.
//!
//! Runs barnes-hut under both execution tiers — the tree-walking oracle
//! and the fused-closure native tier — on identical `RunConfig`s, measures
//! host wall time, and reports simulated operations per host second.
//! Because both tiers emit bit-identical step sequences (asserted here on
//! every run), the simulated work is the same numerator throughout, so
//! each throughput ratio is exactly the host-time ratio.
//!
//! Two measurements per tier:
//!
//! * **full run** — the whole simulation (event engine + executor). The
//!   shared event-engine cost floors this ratio, so it understates what
//!   the tiers differ in.
//! * **executor-only** — just the emission path (`emit_serial` /
//!   `emit_iteration` over the plan, no event engine), which is where the
//!   tiers actually differ.
//!
//! Each repeat runs the two tiers back to back, alternating which one goes
//! first, and yields one native/tree ratio per measurement. The gates read
//! the median of those per-repeat ratios, so host drift between repeats
//! cancels instead of landing in the ratio.
//!
//! Usage: `cargo run --release -p dynfb-bench --bin vm_throughput -- \
//!     [--tier T] [--native-tier T] [--procs N] [--bodies N] [--steps N] \
//!     [--repeats N] [--min-ratio R] [--min-native-ratio R]`
//!
//! Exits nonzero when the median native/tree ratio is below `--min-ratio`
//! (default 2.0) on the full run or below `--min-native-ratio` (default
//! 2.5) on the executor-only measurement — margins below the measured
//! ratios recorded in DESIGN.md, so the gates fail only on real
//! regressions. `--tier` restricts the run to one tier (no gates, no
//! ratios). `--native-tier` substitutes the tier actually run for the
//! "native" row — CI uses `--native-tier tree` as a negative control that
//! must fail the gates. Host timings are scratch, never canonical: they go
//! to the git-ignored `BENCH_TIMINGS.json` (overwriting it, like the
//! experiments runner does), keeping `BENCH_RESULTS.json` byte-stable by
//! construction.

use dynfb_apps::barnes_hut::{barnes_hut, BarnesHutConfig};
use dynfb_apps::machine_config;
use dynfb_compiler::ExecTier;
use dynfb_sim::{run_app_ref, AppReport, Machine, OpSink, RunConfig, SectionKind, SimApp, Step};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: vm_throughput [--tier T] [--native-tier T] [--procs N] [--bodies N] \
[--steps N] [--repeats N] [--min-ratio R] [--min-native-ratio R]

  --tier T               measure one tier only: tree | native (default: both)
  --native-tier T        tier actually run for the \"native\" row (negative-control
                         hook: --native-tier tree must fail the gates)
  --procs N              simulated processors (default: 8)
  --bodies N             barnes-hut bodies (default: 256)
  --steps N              barnes-hut time steps (default: 2)
  --repeats N            paired host-timing repeats (default: 3)
  --min-ratio R          fail unless the median full-run native/tree >= R (default: 2.0)
  --min-native-ratio R   fail unless the median executor-only native/tree >= R (default: 2.5)";

struct Opts {
    tier: Option<ExecTier>,
    native_tier: Option<ExecTier>,
    procs: usize,
    bodies: usize,
    steps: usize,
    repeats: usize,
    min_ratio: f64,
    min_native_ratio: f64,
}

fn parse_tier(v: &str) -> Option<ExecTier> {
    match v {
        "tree" => Some(ExecTier::Tree),
        "native" => Some(ExecTier::Native),
        _ => None,
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tier: None,
        native_tier: None,
        procs: 8,
        bodies: 256,
        steps: 2,
        repeats: 3,
        min_ratio: 2.0,
        min_native_ratio: 2.5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}\n{USAGE}");
                std::process::exit(2);
            })
        };
        let bad = |v: &str| -> ! {
            eprintln!("invalid value `{v}` for {flag}\n{USAGE}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--tier" => {
                let v = value("tree|native");
                opts.tier = Some(parse_tier(&v).unwrap_or_else(|| bad(&v)));
            }
            "--native-tier" => {
                let v = value("tree|native");
                opts.native_tier = Some(parse_tier(&v).unwrap_or_else(|| bad(&v)));
            }
            "--procs" => {
                let v = value("a count");
                opts.procs = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--bodies" => {
                let v = value("a count");
                opts.bodies = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--steps" => {
                let v = value("a count");
                opts.steps = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--repeats" => {
                let v = value("a count");
                opts.repeats = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--min-ratio" => {
                let v = value("a ratio");
                opts.min_ratio = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--min-native-ratio" => {
                let v = value("a ratio");
                opts.min_native_ratio = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    opts.repeats = opts.repeats.max(1);
    opts
}

fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::Tree => "tree",
        ExecTier::Native => "native",
    }
}

/// The tier actually executed for row `tier` (the `--native-tier`
/// substitution hook).
fn effective_tier(opts: &Opts, tier: ExecTier) -> ExecTier {
    match (tier, opts.native_tier) {
        (ExecTier::Native, Some(t)) => t,
        _ => tier,
    }
}

fn app_config(opts: &Opts) -> BarnesHutConfig {
    BarnesHutConfig { bodies: opts.bodies, steps: opts.steps, ..BarnesHutConfig::default() }
}

/// Host time of one tier's full simulation, plus its report for
/// cross-checking. A fresh app per run: runs mutate the heap, and
/// identical inputs keep the simulated work identical across tiers.
fn measure(opts: &Opts, tier: ExecTier, cfg: &RunConfig) -> (Duration, AppReport) {
    let mut app = barnes_hut(&app_config(opts));
    app.set_exec_tier(effective_tier(opts, tier));
    let started = Instant::now();
    let report = run_app_ref(&mut app, cfg).expect("barnes-hut runs");
    (started.elapsed(), report)
}

/// Digest of one executor-only walk, used to assert the tiers did
/// identical simulated work without the event engine in the loop.
#[derive(Debug, PartialEq, Eq)]
struct ExecDigest {
    steps: usize,
    compute: Duration,
}

/// Host time of one tier's *emission path only*: walk the plan and call
/// `emit_serial`/`emit_iteration` exactly as the runtime would, with no
/// event engine. This is where the tiers differ.
fn measure_exec(opts: &Opts, tier: ExecTier) -> (Duration, ExecDigest) {
    let mut app = barnes_hut(&app_config(opts));
    app.set_exec_tier(effective_tier(opts, tier));
    let mut machine = Machine::new(machine_config());
    app.setup(&mut machine);
    let plan = app.plan();
    let mut digest = ExecDigest { steps: 0, compute: Duration::ZERO };
    let started = Instant::now();
    for entry in &plan {
        let mut sink = OpSink::default();
        match entry.kind {
            SectionKind::Serial => app.emit_serial(&entry.name, &mut sink),
            SectionKind::Parallel => {
                let iters = app.begin_parallel(&entry.name);
                let version =
                    app.version_for_policy(&entry.name, "original").expect("original version");
                for i in 0..iters {
                    app.emit_iteration(&entry.name, version, i, &mut sink);
                }
            }
        }
        for step in sink.into_steps() {
            digest.steps += 1;
            if let Step::Compute(d) = step {
                digest.compute += d;
            }
        }
    }
    (started.elapsed(), digest)
}

/// Median, minimum and maximum of a non-empty sample.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(xs: &[f64]) -> Spread {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Spread { median, min: v[0], max: v[n - 1] }
    }

    fn json(&self, key: &str) -> String {
        format!(
            "  \"{key}\": {:.3},\n  \"{key}_min\": {:.3},\n  \"{key}_max\": {:.3},\n",
            self.median, self.min, self.max
        )
    }
}

fn main() {
    let opts = parse_opts();
    let cfg = RunConfig::fixed(opts.procs, "original");
    let tiers: Vec<ExecTier> = match opts.tier {
        Some(t) => vec![t],
        None => vec![ExecTier::Tree, ExecTier::Native],
    };

    // Per tier (same order as `tiers`): full-run and executor-only host
    // times, one entry per repeat. Each repeat runs the tiers back to
    // back, alternating which goes first.
    let mut full: Vec<Vec<Duration>> = vec![Vec::new(); tiers.len()];
    let mut exec: Vec<Vec<Duration>> = vec![Vec::new(); tiers.len()];
    let mut reference: Option<AppReport> = None;
    let mut exec_reference: Option<ExecDigest> = None;
    for r in 0..opts.repeats {
        let mut order: Vec<usize> = (0..tiers.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for &i in &order {
            let (time, report) = measure(&opts, tiers[i], &cfg);
            // The determinism contract, enforced on the real workload:
            // every run of every tier must produce the same simulation.
            match &reference {
                None => reference = Some(report),
                Some(want) => {
                    let tier = tier_name(tiers[i]);
                    assert_eq!(report.stats, want.stats, "tier reports diverged (stats, {tier})");
                    assert_eq!(
                        report.sections, want.sections,
                        "tier reports diverged (sections, {tier})"
                    );
                }
            }
            full[i].push(time);
        }
        for &i in &order {
            let (time, digest) = measure_exec(&opts, tiers[i]);
            match &exec_reference {
                None => exec_reference = Some(digest),
                Some(want) => {
                    assert_eq!(&digest, want, "executor digests diverged ({})", tier_name(tiers[i]))
                }
            }
            exec[i].push(time);
        }
    }
    let reference = reference.expect("at least one run");

    // Simulated work ≈ charged node costs; identical across tiers, so any
    // ops proxy cancels in the ratios. Use charged compute nanos.
    let sim_ns = reference.stats.totals().compute.as_nanos();
    let ops_per_sec = |host_ms: f64| sim_ns as f64 / host_ms;
    let ms_spread = |times: &[Duration]| {
        Spread::of(&times.iter().map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>())
    };
    // Per-repeat native/tree ratios, when both tiers ran.
    let paired = |times: &[Vec<Duration>]| -> Option<Spread> {
        let [tree, native] = times else { return None };
        let ratios: Vec<f64> =
            tree.iter().zip(native).map(|(t, n)| t.as_secs_f64() / n.as_secs_f64()).collect();
        Some(Spread::of(&ratios))
    };
    let full_ratio = paired(&full);
    let exec_ratio = paired(&exec);

    println!(
        "barnes-hut: {} bodies, {} steps, {} procs, policy original, {} paired repeats",
        opts.bodies, opts.steps, opts.procs, opts.repeats
    );
    if let Some(t) = opts.native_tier {
        println!("  NOTE: --native-tier {}: the \"native\" row runs that tier", tier_name(t));
    }
    println!("  simulated compute: {:.3} ms", sim_ns as f64 / 1e6);
    println!(
        "  {:<8} {:>22} {:>16} {:>22}",
        "tier", "host ms (min-max)", "sim-ops/host-s", "exec ms (min-max)"
    );
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"vm_throughput\",\n  \"app\": \"barnes-hut\",\n");
    json.push_str(&format!("  \"bodies\": {},\n", opts.bodies));
    json.push_str(&format!("  \"steps\": {},\n", opts.steps));
    json.push_str(&format!("  \"procs\": {},\n", opts.procs));
    json.push_str("  \"policy\": \"original\",\n");
    json.push_str(&format!("  \"repeats\": {},\n", opts.repeats));
    json.push_str(&format!("  \"simulated_compute_ns\": {sim_ns},\n"));
    for (i, &t) in tiers.iter().enumerate() {
        let (f, e) = (ms_spread(&full[i]), ms_spread(&exec[i]));
        let name = tier_name(t);
        println!(
            "  {name:<8} {:>22} {:>16.0} {:>22}",
            format!("{:.1} ({:.1}-{:.1})", f.median, f.min, f.max),
            ops_per_sec(f.median),
            format!("{:.1} ({:.1}-{:.1})", e.median, e.min, e.max),
        );
        json.push_str(&format!("  \"{name}_host_seconds\": {:.6},\n", f.median / 1e3));
        json.push_str(&format!(
            "  \"{name}_sim_ops_per_host_second\": {:.0},\n",
            ops_per_sec(f.median)
        ));
        json.push_str(&format!("  \"{name}_exec_host_seconds\": {:.6},\n", e.median / 1e3));
    }
    if let Some(r) = full_ratio {
        json.push_str(&r.json("native_speedup"));
    }
    if let Some(r) = exec_ratio {
        json.push_str(&r.json("native_exec_speedup"));
    }
    json.push_str(&format!("  \"min_ratio\": {:.3},\n", opts.min_ratio));
    json.push_str(&format!("  \"min_native_ratio\": {:.3}\n}}\n", opts.min_native_ratio));
    std::fs::write("BENCH_TIMINGS.json", &json).expect("write timings json");
    println!("Wrote BENCH_TIMINGS.json ({} bytes)", json.len());

    let gates = [
        ("full run", full_ratio, opts.min_ratio),
        ("executor-only", exec_ratio, opts.min_native_ratio),
    ];
    let mut failed = false;
    for (what, spread, min) in gates {
        let Some(r) = spread else { continue };
        println!(
            "  native/tree gate ({what}): median {:.2}x over {} repeats, range {:.2}-{:.2}x \
             (>= {min:.2}x required)",
            r.median, opts.repeats, r.min, r.max
        );
        if r.median < min {
            eprintln!("FAIL: {what} native speedup {:.2}x is below the {min:.2}x gate", r.median);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
