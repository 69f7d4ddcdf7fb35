//! The three workloads: their inputs, their jobs, and the checks on what
//! the jobs return.
//!
//! A workload's job list is one *pass*. A run repeats passes on the bench
//! engine until its time is up, so every pass has the same mix of jobs and
//! throughput does not depend on where the clock stopped.

use crate::build::{self, version_sizes, Recipe, VersionSizes};
use crate::trace::{Counters, JobTrace, TimedApp, TimedSink};
use dynfb_apps::PlasmaConfig;
use dynfb_bench::chaos::{self, ChaosApp, ChaosConfig, ChaosJobResult, ChaosMode, Scenario};
use dynfb_bench::engine::{Engine, Job};
use dynfb_bench::experiments::{
    execute, results_json, suite, AppSpec, ResultStore, RunKey, RunOutcome, Scale, Variant,
    BENCH_PRODUCTION, BENCH_SAMPLING, POLICIES,
};
use dynfb_bench::explain::cross_check;
use dynfb_bench::profile::{oracle_holds, MeteredMode};
use dynfb_compiler::{CompiledApp, ExecTier};
use dynfb_core::controller::ControllerConfig;
use dynfb_core::journal::{JournalBuffer, JournalSink};
use dynfb_core::metrics::{MetricsRegistry, MetricsSink};
use dynfb_core::rng::SplitMix64;
use dynfb_core::trace::{RingBuffer, TraceSink};
use dynfb_sim::{run_app_flight_recorded, run_app_ref, AppReport, RunConfig, RunMode, SimApp};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The committed full-scale results, the reference for `paper-matrix` at
/// [`REFERENCE_SEED`].
const BENCH_RESULTS: &str = include_str!("../../BENCH_RESULTS.json");
/// The committed quick-scale golden, the reference for `quick-compile` at
/// [`REFERENCE_SEED`].
const QUICK_GOLDEN: &str =
    include_str!("../../crates/bench/tests/golden/bench_results_quick.golden.json");
/// The input seed the committed artifacts were generated with.
pub const REFERENCE_SEED: u64 = 42;

/// Processor counts of the `paper-matrix` subset: the smallest parallel
/// machine, the detail experiments' machine and the largest.
const PAPER_PROCS: [usize; 3] = [2, 8, 16];
/// Interval-sweep corners of the `paper-matrix` subset (sampling,
/// production), run at the detail processor count.
const PAPER_SWEEP: [(Duration, Duration); 2] = [
    (Duration::from_micros(100), Duration::from_millis(10)),
    (Duration::from_millis(10), Duration::from_secs(1)),
];
/// Apps whose interval sweeps the paper reports (Tables 6, 13 and 14).
const SWEPT_APPS: [&str; 2] = ["Barnes-Hut", "Water"];
/// Compile-only Plasma jobs per `quick-compile` pass, enough that the
/// front end and compiler do most of the pass's work.
const PLASMA_COMPILES: usize = 32;
/// Jobs per run rerun on the tree-walking reference interpreter.
const TREE_SAMPLE: usize = 2;
/// Chaos cells per run rerun without observers.
const PLAIN_SAMPLE: usize = 3;
/// Capacity of the trace ring and the decision journal in a chaos cell;
/// large enough that no cell drops anything.
const OBSERVER_CAPACITY: usize = 1 << 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A subset of the full-scale experiment matrix; mostly executor work.
    PaperMatrix,
    /// The chaos matrix under the full flight recorder; mostly runtime,
    /// controller and observer work.
    ChaosObserved,
    /// The quick matrix plus Plasma policy-family compiles; mostly front-end
    /// and compiler work.
    QuickCompile,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::PaperMatrix, Workload::ChaosObserved, Workload::QuickCompile];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::ChaosObserved => "chaos-observed",
            Workload::QuickCompile => "quick-compile",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input seed of pass `pass` of a run with workload seed `seed`.
    /// Only `quick-compile` varies it, so that its compiles see several
    /// inputs; the other workloads repeat the same inputs.
    #[must_use]
    pub fn pass_seed(self, seed: u64, pass: usize) -> u64 {
        match self {
            Workload::QuickCompile => seed.wrapping_add(pass as u64),
            Workload::PaperMatrix | Workload::ChaosObserved => seed,
        }
    }
}

/// One unit of work.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// One experiment-matrix run.
    Matrix(RunKey),
    /// One chaos cell: scenario index, mode, and the run configuration the
    /// chaos harness builds for them.
    Chaos(usize, ChaosMode, Box<RunConfig>),
    /// Compile Plasma under the parameterized policy family, no run.
    PlasmaCompile,
}

/// The seeded inputs of one pass.
pub struct Inputs {
    /// The input seed written into every app and chaos config.
    pub seed: u64,
    /// Matrix scale.
    pub scale: Scale,
    /// App builders at `scale`, as the experiments harness uses them
    /// (matrix workloads only).
    pub specs: Vec<AppSpec>,
    /// The same builds as recipes, for the traced build (matrix workloads
    /// only).
    pub recipes: BTreeMap<&'static str, Recipe>,
    /// Chaos configuration.
    pub chaos: ChaosConfig,
    /// Chaos scenarios (chaos workload only).
    pub scenarios: Vec<Scenario>,
    /// Plasma under the policy family (compile workload only).
    pub plasma: Option<Recipe>,
    /// The pass's jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

fn seeded_scale(mut scale: Scale, seed: u64) -> Scale {
    scale.bh.seed = seed;
    scale.water.seed = seed;
    scale.string.seed = seed;
    scale
}

fn suite_keys(scale: &Scale) -> BTreeSet<RunKey> {
    suite(scale).into_iter().flat_map(|e| e.keys).collect()
}

fn paper_keys(scale: &Scale) -> Vec<RunKey> {
    let all = suite_keys(scale);
    let mut keys = BTreeSet::new();
    for app in dynfb_bench::experiments::APPS {
        keys.insert(RunKey { app, variant: Variant::Serial, procs: 1 });
        for procs in PAPER_PROCS {
            for (policy, _) in POLICIES {
                keys.insert(RunKey {
                    app,
                    variant: Variant::Static { policy, instrumented: false },
                    procs,
                });
            }
            keys.insert(RunKey { app, variant: bench_dynamic(), procs });
        }
        if SWEPT_APPS.contains(&app) {
            for (sampling, production) in PAPER_SWEEP {
                keys.insert(RunKey {
                    app,
                    variant: Variant::Dynamic { sampling, production, span: false },
                    procs: scale.detail_procs,
                });
            }
        }
    }
    assert!(keys.is_subset(&all), "the paper-matrix subset is part of the full matrix");
    keys.into_iter().collect()
}

fn bench_dynamic() -> Variant {
    Variant::Dynamic { sampling: BENCH_SAMPLING, production: BENCH_PRODUCTION, span: false }
}

impl Inputs {
    /// Generate the inputs of `workload` at input seed `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let scale = seeded_scale(
            match workload {
                Workload::QuickCompile => Scale::quick(),
                Workload::PaperMatrix | Workload::ChaosObserved => Scale::full(),
            },
            seed,
        );
        let chaos = ChaosConfig { seed, ..ChaosConfig::default() };
        let matrix = workload != Workload::ChaosObserved;
        let mut inputs = Inputs {
            seed,
            specs: if matrix { scale.specs() } else { Vec::new() },
            recipes: if matrix {
                BTreeMap::from([
                    ("Barnes-Hut", build::barnes_hut(&scale.bh)),
                    ("Water", build::water(&scale.water)),
                    ("String", build::string_app(&scale.string)),
                ])
            } else {
                BTreeMap::new()
            },
            scale,
            chaos,
            scenarios: Vec::new(),
            plasma: (workload == Workload::QuickCompile)
                .then(|| build::plasma_family(&PlasmaConfig { seed, ..PlasmaConfig::default() })),
            jobs: Vec::new(),
        };
        inputs.jobs = match workload {
            Workload::PaperMatrix => {
                paper_keys(&inputs.scale).into_iter().map(JobSpec::Matrix).collect()
            }
            Workload::QuickCompile => suite_keys(&inputs.scale)
                .into_iter()
                .map(JobSpec::Matrix)
                .chain(std::iter::repeat_n(JobSpec::PlasmaCompile, PLASMA_COMPILES))
                .collect(),
            Workload::ChaosObserved => {
                inputs.scenarios = chaos::scenarios(&chaos);
                let mut jobs = Vec::new();
                for (s, scenario) in inputs.scenarios.iter().enumerate() {
                    for mode in ChaosMode::all() {
                        let run = chaos::mode_run_config(&chaos, scenario, mode);
                        jobs.push(JobSpec::Chaos(s, mode, Box::new(run)));
                    }
                }
                jobs
            }
        };
        inputs
    }

    /// Stable id of a job, unique within a pass.
    #[must_use]
    pub fn job_id(&self, job: &JobSpec) -> String {
        match job {
            JobSpec::Matrix(key) => key.id(),
            JobSpec::Chaos(s, mode, _) => {
                format!("{}/{}", self.scenarios[*s].name, mode.name())
            }
            JobSpec::PlasmaCompile => "Plasma/family-compile".to_string(),
        }
    }

    /// Parse and compile every distinct app or policy family the pass
    /// uses, once. This is the compile part of set-up time. Returns the
    /// Plasma family's version names and sizes when the pass compiles it.
    pub fn compile_all(&self) -> Option<VersionSizes> {
        if self.jobs.iter().any(|j| matches!(j, JobSpec::Matrix(_))) {
            for spec in &self.specs {
                std::hint::black_box((spec.build)());
            }
        }
        self.plasma.as_ref().map(|plasma| version_sizes(&plasma.build()))
    }

    fn spec(&self, app: &str) -> &AppSpec {
        self.specs.iter().find(|s| s.name == app).expect("every matrix app has a spec")
    }
}

/// A chaos cell's results plus the problems its observers revealed.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The harness measurements.
    pub result: ChaosJobResult,
    /// Failed observer checks: journal/trace disagreement, drops, per-lock
    /// totals that differ from the machine's.
    pub problems: Vec<String>,
}

/// What a job returns.
#[derive(Debug, Clone)]
pub enum Output {
    /// A matrix run, as the experiments harness records it.
    Matrix(Box<RunOutcome>),
    /// A chaos cell.
    Chaos(ChaosCell),
    /// A compile-only job's version names and sizes.
    Compile(VersionSizes),
}

/// One finished job.
#[derive(Debug)]
pub struct JobRecord {
    /// Job id.
    pub id: String,
    /// Pass index the job ran in.
    pub pass: usize,
    /// Host time the job took, as the engine measured it.
    pub wall: Duration,
    /// The job's output, or why it failed (a `SimError` or a panic).
    pub output: Result<Output, String>,
    /// Spans and counters, in a traced run.
    pub trace: Option<JobTrace>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The run configuration `execute` builds for `key`, or `None` for a
/// code-size job.
fn run_config(key: &RunKey) -> Option<RunConfig> {
    match &key.variant {
        Variant::CodeSize => None,
        Variant::Serial => Some(dynfb_apps::run_fixed(key.procs, "serial")),
        Variant::Static { policy, instrumented } => {
            let mut cfg = dynfb_apps::run_fixed(key.procs, policy);
            if *instrumented {
                cfg.mode = RunMode::Static { policy: (*policy).to_string(), instrumented: true };
            }
            Some(cfg)
        }
        Variant::Dynamic { sampling, production, span } => {
            let ctl = ControllerConfig {
                num_policies: 3,
                target_sampling: *sampling,
                target_production: *production,
                ..ControllerConfig::default()
            };
            let mut cfg = dynfb_apps::run_dynamic(key.procs, ctl);
            cfg.span_intervals = *span;
            Some(cfg)
        }
    }
}

fn sim_counts(report: &AppReport, counters: &mut Counters) {
    let totals = report.stats.totals();
    counters.acquires += totals.acquires;
    counters.failed_attempts += totals.failed_attempts;
    counters.timer_reads += totals.timer_reads;
    counters.sampling_intervals +=
        report.sections.iter().flat_map(|s| &s.records).filter(|r| r.phase.is_sampling()).count()
            as u64;
}

/// [`execute`] with every layer timed: the traced build, then the run
/// through [`TimedApp`] under a `sim.run` span.
fn traced_execute(
    recipe: &Recipe,
    key: &RunKey,
    trace: &mut JobTrace,
) -> Result<RunOutcome, String> {
    let mut app = build::traced_build(recipe, trace);
    let code_sizes = app.code_sizes();
    let section_versions = section_versions(&app);
    let report = match run_config(key) {
        None => None,
        Some(cfg) => {
            let mut timed = TimedApp::new(&mut app);
            let report = trace.span("sim.run", |_| run_app_ref(&mut timed, &cfg));
            trace.counters.add(&timed.counters);
            let report = report.map_err(|e| format!("{}: {e}", key.id()))?;
            sim_counts(&report, &mut trace.counters);
            Some(report)
        }
    };
    Ok(RunOutcome { key: key.clone(), code_sizes, section_versions, report })
}

fn section_versions(app: &CompiledApp) -> BTreeMap<String, Vec<String>> {
    app.sections()
        .iter()
        .map(|(name, s)| (name.clone(), s.versions.iter().map(|v| v.name.clone()).collect()))
        .collect()
}

/// Run one chaos cell under the flight recorder with the given sinks and
/// check what the observers saw.
fn chaos_cell<A: SimApp, S: TraceSink, J: JournalSink, M: MetricsSink>(
    (scenario, mode, run): (&Scenario, ChaosMode, &RunConfig),
    app: A,
    sinks: (&mut S, &mut J, &mut M),
) -> Result<(AppReport, ChaosJobResult), String> {
    let report = run_app_flight_recorded(app, run, sinks.0, sinks.1, sinks.2)
        .map_err(|e| format!("{}/{}: {e}", scenario.name, mode.name()))?;
    let adaptation = match mode {
        ChaosMode::Static(_) => None,
        ChaosMode::Dynamic | ChaosMode::EventDriven => {
            Some(chaos::analyze_adaptation(&report, scenario.onset))
        }
    };
    let result = ChaosJobResult { outcome: chaos::mode_outcome(mode.name(), &report), adaptation };
    Ok((report, result))
}

fn observer_problems(
    report: &AppReport,
    result: &ChaosJobResult,
    ring: RingBuffer,
    journal: JournalBuffer,
    registry: MetricsRegistry,
) -> Vec<String> {
    let mut problems = Vec::new();
    let dropped = ring.dropped() + journal.dropped();
    if dropped > 0 {
        problems.push(format!("observers dropped {dropped} events"));
    }
    problems.extend(cross_check(&journal.into_records(), &ring.into_events()));
    let metered = MeteredMode { result: result.clone(), registry, totals: report.stats.totals() };
    if !oracle_holds(&metered) {
        problems.push("per-lock metric totals differ from the machine totals".to_string());
    }
    problems
}

fn run_chaos(
    inputs: &Inputs,
    cell: (&Scenario, ChaosMode, &RunConfig),
) -> Result<ChaosCell, String> {
    let mut ring = RingBuffer::new(OBSERVER_CAPACITY);
    let mut journal = JournalBuffer::new(OBSERVER_CAPACITY);
    let mut registry = MetricsRegistry::new();
    let app = ChaosApp::new(inputs.chaos.iters);
    let (report, result) = chaos_cell(cell, app, (&mut ring, &mut journal, &mut registry))?;
    let problems = observer_problems(&report, &result, ring, journal, registry);
    Ok(ChaosCell { result, problems })
}

fn traced_chaos(
    inputs: &Inputs,
    cell: (&Scenario, ChaosMode, &RunConfig),
    trace: &mut JobTrace,
) -> Result<ChaosCell, String> {
    let mut ring = TimedSink::new(RingBuffer::new(OBSERVER_CAPACITY));
    let mut journal = TimedSink::new(JournalBuffer::new(OBSERVER_CAPACITY));
    let mut registry = TimedSink::new(MetricsRegistry::new());
    let mut app = TimedApp::new(ChaosApp::new(inputs.chaos.iters));
    let cell = trace
        .span("sim.run", |_| chaos_cell(cell, &mut app, (&mut ring, &mut journal, &mut registry)));
    let c = &mut trace.counters;
    c.add(&app.counters);
    c.trace_ns += ring.ns;
    c.trace_events += ring.calls;
    c.journal_ns += journal.ns;
    c.journal_records += journal.calls;
    c.metrics_ns += registry.ns;
    c.metrics_calls += registry.calls;
    c.dropped += ring.inner.dropped() + journal.inner.dropped();
    let (report, result) = cell?;
    sim_counts(&report, c);
    let problems = observer_problems(&report, &result, ring.inner, journal.inner, registry.inner);
    Ok(ChaosCell { result, problems })
}

fn run_job(inputs: &Inputs, job: &JobSpec, trace: Option<&mut JobTrace>) -> Result<Output, String> {
    match (job, trace) {
        (JobSpec::Matrix(key), None) => {
            Ok(Output::Matrix(Box::new(execute(inputs.spec(key.app), key))))
        }
        (JobSpec::Matrix(key), Some(trace)) => traced_execute(&inputs.recipes[key.app], key, trace)
            .map(|o| Output::Matrix(Box::new(o))),
        (JobSpec::Chaos(s, mode, run), None) => {
            run_chaos(inputs, (&inputs.scenarios[*s], *mode, run)).map(Output::Chaos)
        }
        (JobSpec::Chaos(s, mode, run), Some(trace)) => {
            traced_chaos(inputs, (&inputs.scenarios[*s], *mode, run), trace).map(Output::Chaos)
        }
        (JobSpec::PlasmaCompile, trace) => {
            let recipe = inputs.plasma.as_ref().expect("compile jobs come with a Plasma recipe");
            let app = match trace {
                None => recipe.build(),
                Some(trace) => build::traced_build(recipe, trace),
            };
            Ok(Output::Compile(version_sizes(&app)))
        }
    }
}

/// What a job task hands back to the engine: its output and its trace.
type Ran = (Result<Output, String>, Option<JobTrace>);

/// Run one pass of `inputs` on `engine`. With `epoch`, every job is traced
/// with timestamps counted from it.
#[must_use]
pub fn run_pass(
    inputs: &Inputs,
    pass: usize,
    engine: &Engine,
    epoch: Option<Instant>,
) -> Vec<JobRecord> {
    let tasks: Vec<Job<'_, Ran>> = inputs
        .jobs
        .iter()
        .map(|job| {
            let task: Job<'_, _> = Box::new(move || {
                let mut trace = epoch.map(JobTrace::new);
                let output =
                    catch_unwind(AssertUnwindSafe(|| run_job(inputs, job, trace.as_mut())))
                        .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
                if let Some(t) = trace.as_mut() {
                    t.finish();
                }
                (output, trace)
            });
            task
        })
        .collect();
    engine
        .run(tasks)
        .into_iter()
        .zip(&inputs.jobs)
        .map(|(timed, job)| {
            let (output, trace) = timed.value;
            JobRecord { id: inputs.job_id(job), pass, wall: timed.wall, output, trace }
        })
        .collect()
}

// ------------------------------------------------------------------ checks

/// The `BENCH_RESULTS.json` line `results_json` writes for `outcome`.
#[must_use]
pub fn result_line(outcome: &RunOutcome) -> String {
    let store = ResultStore::from([(outcome.key.clone(), outcome.clone())]);
    // The scale only names the file's header, not the job lines.
    let json = results_json(&Scale::quick(), &store);
    json.lines()
        .find(|l| l.trim_start().starts_with("{\"id\": "))
        .expect("results_json writes one line per job")
        .trim()
        .to_string()
}

/// Job id → line of a committed results file.
#[must_use]
pub fn reference_lines(json: &str) -> BTreeMap<String, String> {
    json.lines()
        .filter_map(|l| {
            let line = l.trim().trim_end_matches(',');
            let rest = line.strip_prefix("{\"id\": \"")?;
            let id = &rest[..rest.find('"')?];
            Some((id.to_string(), line.to_string()))
        })
        .collect()
}

/// Everything about an output that must repeat exactly.
fn fingerprint(output: &Output) -> String {
    match output {
        Output::Matrix(o) => {
            format!("{:?}|{:?}|{:?}", o.code_sizes, o.section_versions, o.report)
        }
        Output::Chaos(c) => format!("{:?}|{:?}", c.result.outcome, c.result.adaptation),
        Output::Compile(v) => format!("{v:?}"),
    }
}

/// The outcome of the output checks of one run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Index into the run's job records → why the job failed.
    pub failures: BTreeMap<usize, Vec<String>>,
    /// Checks that could not be tied to a job (a missing reference entry).
    pub other: Vec<String>,
    /// Checks made, for the summary.
    pub checks: usize,
}

impl CheckReport {
    fn fail(&mut self, job: usize, why: String) {
        self.failures.entry(job).or_default().push(why);
    }
}

/// Check every job record of a run. `setup_plasma` is the Plasma family
/// build made during set-up. With `rerun`, a seeded sample of the first
/// pass, whose inputs are `first`, is also rerun another way.
#[must_use]
pub fn check_run(
    first_inputs: &Inputs,
    workload: Workload,
    records: &[JobRecord],
    setup_plasma: Option<&VersionSizes>,
    engine: &Engine,
    rerun: bool,
) -> CheckReport {
    let seed = first_inputs.seed;
    let mut report = CheckReport::default();
    let mut first: BTreeMap<&str, (usize, String)> = BTreeMap::new();
    let reference = match workload {
        Workload::PaperMatrix => Some(reference_lines(BENCH_RESULTS)),
        Workload::QuickCompile => Some(reference_lines(QUICK_GOLDEN)),
        Workload::ChaosObserved => None,
    };
    let mut matched: BTreeSet<String> = BTreeSet::new();
    for (i, rec) in records.iter().enumerate() {
        report.checks += 1;
        let output = match &rec.output {
            Ok(o) => o,
            Err(e) => {
                report.fail(i, e.clone());
                continue;
            }
        };
        match output {
            Output::Chaos(cell) => {
                for p in &cell.problems {
                    report.fail(i, format!("{}: {p}", rec.id));
                }
            }
            Output::Compile(v) => {
                if let Some(expected) = setup_plasma {
                    if v != expected {
                        report.fail(i, format!("{}: versions differ from set-up's build", rec.id));
                    }
                }
            }
            Output::Matrix(o) => {
                let pass_seed = workload.pass_seed(seed, rec.pass);
                if let (Some(reference), REFERENCE_SEED) = (&reference, pass_seed) {
                    let line = result_line(o);
                    match reference.get(&rec.id) {
                        Some(expected) if *expected == line => {
                            matched.insert(rec.id.clone());
                        }
                        Some(_) => {
                            report.fail(i, format!("{}: differs from the reference", rec.id))
                        }
                        None if workload == Workload::PaperMatrix => {
                            report.fail(i, format!("{}: missing from BENCH_RESULTS.json", rec.id));
                        }
                        None => {}
                    }
                }
            }
        }
        // Jobs with the same id and the same inputs must repeat exactly.
        if workload.pass_seed(seed, rec.pass) == seed {
            let fp = fingerprint(output);
            match first.get(rec.id.as_str()) {
                None => {
                    first.insert(&rec.id, (i, fp));
                }
                Some((_, expected)) if *expected == fp => {}
                Some(_) => report.fail(i, format!("{}: differs from its first run", rec.id)),
            }
        }
    }
    if workload == Workload::QuickCompile && workload.pass_seed(seed, 0) == REFERENCE_SEED {
        let reference = reference.as_ref().expect("quick-compile has a reference");
        for id in reference.keys().filter(|id| !matched.contains(*id)) {
            report.other.push(format!("{id}: golden job did not run or did not match"));
        }
    }
    if rerun {
        rerun_sample(first_inputs, workload, records, engine, &first, &mut report);
    }
    report
}

/// Rerun a seeded sample of the first pass's jobs in another way that must
/// give the same result: matrix jobs on the tree-walking reference
/// interpreter, chaos cells without observers.
fn rerun_sample(
    inputs: &Inputs,
    workload: Workload,
    records: &[JobRecord],
    engine: &Engine,
    first: &BTreeMap<&str, (usize, String)>,
    report: &mut CheckReport,
) {
    let candidates: Vec<(usize, &JobSpec)> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.pass == 0)
        .zip(&inputs.jobs)
        .filter(|(_, job)| match job {
            JobSpec::Matrix(key) => key.variant != Variant::CodeSize,
            JobSpec::Chaos(..) => true,
            JobSpec::PlasmaCompile => false,
        })
        .map(|((i, _), job)| (i, job))
        .collect();
    let want = if workload == Workload::ChaosObserved { PLAIN_SAMPLE } else { TREE_SAMPLE };
    let mut rng = SplitMix64::new(inputs.seed ^ 0x7265_7275_6e5f_7361);
    let mut picked: Vec<(usize, &JobSpec)> = Vec::new();
    while picked.len() < want.min(candidates.len()) {
        let c = candidates[rng.gen_index(candidates.len())];
        if !picked.iter().any(|(i, _)| *i == c.0) {
            picked.push(c);
        }
    }
    let tasks: Vec<Job<'_, Result<String, String>>> = picked
        .iter()
        .map(|&(_, job)| {
            let task: Job<'_, _> = Box::new(move || {
                catch_unwind(AssertUnwindSafe(|| rerun(inputs, job)))
                    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
            });
            task
        })
        .collect();
    for ((i, _), timed) in picked.iter().zip(engine.run(tasks)) {
        report.checks += 1;
        let id = &records[*i].id;
        let expected = first.get(id.as_str()).map(|(_, fp)| fp.as_str());
        match timed.value {
            Ok(fp) if Some(fp.as_str()) == expected => {}
            Ok(_) => report.fail(*i, format!("{id}: the reference rerun disagrees")),
            Err(e) => report.fail(*i, format!("{id}: reference rerun failed: {e}")),
        }
    }
}

fn rerun(inputs: &Inputs, job: &JobSpec) -> Result<String, String> {
    match job {
        JobSpec::Matrix(key) => {
            let base = inputs.spec(key.app);
            let recipe = inputs.recipes[key.app].clone();
            let tree = AppSpec {
                name: base.name,
                build: Box::new(move || {
                    let mut app = recipe.build();
                    app.set_exec_tier(ExecTier::Tree);
                    app
                }),
                main_section: base.main_section,
            };
            Ok(fingerprint(&Output::Matrix(Box::new(execute(&tree, key)))))
        }
        JobSpec::Chaos(s, mode, _) => {
            let result = chaos::run_mode(&inputs.chaos, &inputs.scenarios[*s], *mode);
            Ok(fingerprint(&Output::Chaos(ChaosCell { result, problems: Vec::new() })))
        }
        JobSpec::PlasmaCompile => unreachable!("compile-only jobs are not sampled"),
    }
}

// ----------------------------------------------------------------- metrics

/// Dynamic feedback's simulated time over the best static policy's, per
/// app or scenario and processor count, as a geometric mean over the first
/// pass.
#[must_use]
pub fn dyn_over_best(records: &[JobRecord]) -> Option<f64> {
    let mut matrix: BTreeMap<(String, usize), (Option<Duration>, Option<Duration>)> =
        BTreeMap::new();
    for rec in records.iter().filter(|r| r.pass == 0) {
        let Ok(output) = &rec.output else { continue };
        let (group, dynamic, elapsed) = match output {
            Output::Matrix(o) => {
                let Some(report) = &o.report else { continue };
                let dynamic = o.key.variant == bench_dynamic();
                let is_static =
                    matches!(o.key.variant, Variant::Static { instrumented: false, .. });
                if !dynamic && !is_static {
                    continue;
                }
                ((o.key.app.to_string(), o.key.procs), dynamic, report.elapsed())
            }
            Output::Chaos(c) => {
                let mode = c.result.outcome.mode.as_str();
                if mode == ChaosMode::EventDriven.name() {
                    continue;
                }
                let scenario = rec.id.rsplit_once('/').map_or(rec.id.as_str(), |(s, _)| s);
                ((scenario.to_string(), 0), mode == "dynamic", c.result.outcome.elapsed)
            }
            Output::Compile(_) => continue,
        };
        let entry = matrix.entry(group).or_default();
        if dynamic {
            entry.0 = Some(elapsed);
        } else {
            entry.1 = Some(entry.1.map_or(elapsed, |best| best.min(elapsed)));
        }
    }
    let ratios: Vec<f64> = matrix
        .values()
        .filter_map(|(d, best)| Some(d.as_ref()?.as_secs_f64() / best.as_ref()?.as_secs_f64()))
        .collect();
    crate::stats::geomean(&ratios)
}
