//! The benchmark's own tests: its wrappers and replays must not change what
//! they measure.

use crate::build::{self, replay_passes, traced_build, version_sizes};
use crate::trace::{JobTrace, TimedApp, TimedSink};
use crate::workloads::{reference_lines, result_line, run_pass, Inputs, JobSpec, Output, Workload};
use dynfb_apps::{BarnesHutConfig, PlasmaConfig, StringConfig, WaterConfig};
use dynfb_bench::chaos::{self, ChaosApp, ChaosConfig, ChaosMode};
use dynfb_bench::engine::Engine;
use dynfb_bench::experiments::{execute, Scale};
use dynfb_core::journal::JournalBuffer;
use dynfb_core::metrics::{profile_json, MetricsRegistry};
use dynfb_core::trace::RingBuffer;
use dynfb_sim::{run_app_flight_recorded, run_app_ref};
use std::time::Instant;

fn small_bh() -> BarnesHutConfig {
    BarnesHutConfig { bodies: 96, steps: 1, ..BarnesHutConfig::default() }
}

#[test]
fn wrapped_chaos_run_matches_unwrapped_report_trace_and_journal() {
    let cfg = ChaosConfig::default();
    let scenarios = chaos::scenarios(&cfg);
    let scenario = scenarios.iter().find(|s| s.name == "lock-storm").expect("scenario exists");
    for mode in [ChaosMode::Static(0), ChaosMode::Dynamic, ChaosMode::EventDriven] {
        let run = chaos::mode_run_config(&cfg, scenario, mode);

        let mut ring = RingBuffer::new(1 << 16);
        let mut journal = JournalBuffer::new(1 << 16);
        let mut registry = MetricsRegistry::new();
        let plain = run_app_flight_recorded(
            ChaosApp::new(cfg.iters),
            &run,
            &mut ring,
            &mut journal,
            &mut registry,
        )
        .expect("plain run");

        let mut t_ring = TimedSink::new(RingBuffer::new(1 << 16));
        let mut t_journal = TimedSink::new(JournalBuffer::new(1 << 16));
        let mut t_registry = TimedSink::new(MetricsRegistry::new());
        let mut app = TimedApp::new(ChaosApp::new(cfg.iters));
        let wrapped =
            run_app_flight_recorded(&mut app, &run, &mut t_ring, &mut t_journal, &mut t_registry)
                .expect("wrapped run");

        assert_eq!(format!("{plain:?}"), format!("{wrapped:?}"), "report, {}", mode.name());
        assert_eq!(t_ring.calls, ring.len() as u64, "every trace call is counted");
        assert_eq!(
            format!("{:?}", ring.into_events()),
            format!("{:?}", t_ring.inner.into_events()),
            "trace, {}",
            mode.name()
        );
        assert_eq!(
            format!("{:?}", journal.into_records()),
            format!("{:?}", t_journal.inner.into_records()),
            "journal, {}",
            mode.name()
        );
        let label = |i: usize| i.to_string();
        assert_eq!(
            profile_json(&registry, label),
            profile_json(&t_registry.inner, label),
            "metrics, {}",
            mode.name()
        );
        assert_eq!(app.counters.iterations, cfg.iters as u64);
        assert!(app.counters.steps > 0 && app.counters.exec_ns > 0);
    }
}

#[test]
fn wrapped_compiled_app_run_matches_unwrapped() {
    let recipe = build::barnes_hut(&small_bh());
    for cfg in [
        dynfb_apps::run_fixed(4, "original"),
        dynfb_apps::run_dynamic(4, dynfb_apps::paper_controller()),
    ] {
        let mut plain = recipe.build();
        let plain_report = run_app_ref(&mut plain, &cfg).expect("plain run");
        let mut wrapped = recipe.build();
        let mut timed = TimedApp::new(&mut wrapped);
        let wrapped_report = run_app_ref(&mut timed, &cfg).expect("wrapped run");
        assert_eq!(format!("{plain_report:?}"), format!("{wrapped_report:?}"));
        assert_eq!(format!("{:?}", plain.heap()), format!("{:?}", wrapped.heap()));
    }
}

#[test]
fn recipes_build_what_the_app_constructors_build() {
    let bh = small_bh();
    let water = WaterConfig { molecules: 48, steps: 1, ..WaterConfig::default() };
    let string = StringConfig { nx: 8, nz: 8, rays: 64, steps_per_ray: 16, iterations: 1, seed: 7 };
    let plasma = PlasmaConfig::default();
    let pairs = [
        (build::barnes_hut(&bh).build(), dynfb_apps::barnes_hut(&bh)),
        (build::water(&water).build(), dynfb_apps::water(&water)),
        (build::string_app(&string).build(), dynfb_apps::string_app(&string)),
        (
            build::plasma_family(&plasma).build(),
            dynfb_apps::plasma_with_policies(
                &plasma,
                dynfb_compiler::Policy::family(dynfb_apps::plasma::LOCK_CLASSES),
            ),
        ),
    ];
    for (mut ours, mut theirs) in pairs {
        assert_eq!(version_sizes(&ours), version_sizes(&theirs));
        let cfg = dynfb_apps::run_fixed(2, "original");
        let a = run_app_ref(&mut ours, &cfg).expect("recipe build runs");
        let b = run_app_ref(&mut theirs, &cfg).expect("constructor build runs");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn replayed_passes_give_compiles_version_names_and_sizes() {
    let scale = Scale::quick();
    let recipes = [
        build::barnes_hut(&scale.bh),
        build::water(&scale.water),
        build::string_app(&scale.string),
        build::plasma_family(&PlasmaConfig::default()),
    ];
    for recipe in recipes {
        let hir = dynfb_lang::compile_source(recipe.source).expect("parses");
        let mut trace = JobTrace::new(Instant::now());
        let replayed = replay_passes(&hir, &recipe.options, &mut trace);
        assert_eq!(replayed, version_sizes(&recipe.build()), "{}", recipe.options.name);
        let versions: usize = replayed.values().map(Vec::len).sum();
        assert_eq!(trace.counters.versions, versions as u64);
    }
}

#[test]
fn traced_build_spans_nest_under_the_job_in_pass_order() {
    let recipe = build::water(&Scale::quick().water);
    let mut trace = JobTrace::new(Instant::now());
    let app = traced_build(&recipe, &mut trace);
    trace.finish();
    assert_eq!(version_sizes(&app), version_sizes(&recipe.build()));
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names[..5],
        ["job", "bench.tokens", "lang.parse", "lang.sema", "compiler.callgraph"]
    );
    assert_eq!(names.last(), Some(&"compiler.compile"));
    let root = &trace.spans[0];
    for s in &trace.spans[1..] {
        assert_eq!(s.parent, Some(0), "{} is a child of the job", s.name);
        assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
    }
    assert!(trace.counters.tokens > 0 && trace.counters.ir_bytes > 0);
}

#[test]
fn traced_matrix_jobs_record_what_execute_records() {
    let inputs = Inputs::new(Workload::QuickCompile, 42);
    let engine = Engine::new(1);
    let traced = run_pass(&inputs, 0, &engine, Some(Instant::now()));
    for (rec, job) in traced.iter().zip(&inputs.jobs) {
        let JobSpec::Matrix(key) = job else { continue };
        let Ok(Output::Matrix(outcome)) = &rec.output else { panic!("{} failed", rec.id) };
        let expected = execute(inputs.specs.iter().find(|s| s.name == key.app).expect("spec"), key);
        assert_eq!(result_line(outcome), result_line(&expected));
        assert_eq!(outcome.section_versions, expected.section_versions);
        assert!(rec.trace.is_some());
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let describe = |inputs: &Inputs| {
            let ids: Vec<String> = inputs.jobs.iter().map(|j| inputs.job_id(j)).collect();
            format!(
                "{ids:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                inputs.scale.bh,
                inputs.scale.water,
                inputs.scale.string,
                inputs.chaos,
                inputs.scenarios,
                inputs.recipes,
                inputs.plasma
            )
        };
        let a = describe(&Inputs::new(workload, 9));
        assert_eq!(a, describe(&Inputs::new(workload, 9)), "{}", workload.name());
        assert_ne!(a, describe(&Inputs::new(workload, 10)), "{}", workload.name());
    }
}

#[test]
fn reference_lines_are_keyed_by_job_id() {
    let lines = reference_lines(include_str!("../../BENCH_RESULTS.json"));
    assert_eq!(lines.len(), 127);
    let line = &lines["Water/static-bounded/p8"];
    assert!(line.starts_with("{\"id\": \"Water/static-bounded/p8\"") && line.ends_with('}'));
}
