//! Application builds, timed pass by pass from outside the compiler.
//!
//! A [`Recipe`] holds what the application constructors of `dynfb-apps`
//! pass to `compile()`. [`traced_build`] parses and analyzes the source,
//! replays `compile()`'s passes through their public entry points, in
//! `compile()`'s order, under one span each, and then calls `compile()`
//! itself for the artifact the job runs. The replay's results are
//! discarded apart from the version names and sizes, which the tests
//! compare with `compile()`'s. The replay is extra work that only traced
//! runs do: it splits `compile()`'s time by pass, and layer shares leave it
//! out.

use crate::trace::JobTrace;
use dynfb_apps::host::{standard_host, HostConfig};
use dynfb_apps::plasma::LOCK_CLASSES;
use dynfb_apps::{BarnesHutConfig, PlasmaConfig, StringConfig, WaterConfig};
use dynfb_compiler::artifact::{compile, CompileOptions, CompiledApp, VersionCode, VmCode};
use dynfb_compiler::callgraph::CallGraph;
use dynfb_compiler::commutativity::analyze_extent;
use dynfb_compiler::effects::EffectsMap;
use dynfb_compiler::lockplace::insert_default_regions;
use dynfb_compiler::native::compile_native;
use dynfb_compiler::syncopt::{optimize, FnSet};
use dynfb_compiler::vm::{lower_body, lower_functions};
use dynfb_compiler::Policy;
use dynfb_lang::hir::{Function, Hir, Stmt, Ty};
use dynfb_sim::SectionKind;
use std::collections::BTreeMap;

/// Everything one application build needs.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Program source.
    pub source: &'static str,
    /// Host externs configuration (carries the input seed).
    pub host: HostConfig,
    /// Compile options.
    pub options: CompileOptions,
}

impl Recipe {
    /// Build the application with the front end and `compile()`, untimed.
    ///
    /// # Panics
    ///
    /// Panics if the bundled program fails to compile.
    #[must_use]
    pub fn build(&self) -> CompiledApp {
        let hir = dynfb_lang::compile_source(self.source).expect("bundled program parses");
        compile(hir, self.options.clone(), standard_host(&self.host))
            .expect("bundled program compiles")
    }
}

/// Barnes-Hut as `dynfb_apps::barnes_hut` builds it.
#[must_use]
pub fn barnes_hut(c: &BarnesHutConfig) -> Recipe {
    let mut options = CompileOptions::new("barnes-hut", c.plan());
    options.max_objects = c.bodies * (3 * c.steps + 2) + 64;
    Recipe {
        source: dynfb_apps::barnes_hut::SOURCE,
        host: HostConfig {
            seed: c.seed,
            iparams: vec![c.bodies as i64],
            dparams: vec![c.theta, 0.02],
            ..HostConfig::default()
        },
        options,
    }
}

/// Water as `dynfb_apps::water` builds it.
#[must_use]
pub fn water(c: &WaterConfig) -> Recipe {
    let mut options = CompileOptions::new("water", c.plan());
    options.max_objects = c.molecules + 16;
    Recipe {
        source: dynfb_apps::water::SOURCE,
        host: HostConfig {
            seed: c.seed,
            iparams: vec![c.molecules as i64, c.edepth as i64],
            kernel_cost: std::time::Duration::from_nanos(1200),
            ..HostConfig::default()
        },
        options,
    }
}

/// String as `dynfb_apps::string_app` builds it.
#[must_use]
pub fn string_app(c: &StringConfig) -> Recipe {
    let mut options = CompileOptions::new("string", c.plan());
    options.max_objects = c.nx * c.nz + c.rays + 16;
    Recipe {
        source: dynfb_apps::string_app::SOURCE,
        host: HostConfig {
            seed: c.seed,
            iparams: vec![c.nx as i64, c.nz as i64, c.rays as i64, c.steps_per_ray as i64],
            ..HostConfig::default()
        },
        options,
    }
}

/// Plasma under the full parameterized policy family, as
/// `dynfb_apps::plasma_with_policies(c, Policy::family(LOCK_CLASSES))`
/// builds it.
#[must_use]
pub fn plasma_family(c: &PlasmaConfig) -> Recipe {
    Recipe {
        source: dynfb_apps::plasma::SOURCE,
        host: HostConfig {
            seed: c.seed,
            iparams: vec![c.cells as i64, c.movers as i64, c.steps as i64],
            ..HostConfig::default()
        },
        options: CompileOptions::new("plasma", c.plan())
            .with_policies(Policy::family(LOCK_CLASSES)),
    }
}

/// Per-section `(version name, size in bytes)` in version order, sections
/// in name order.
pub type VersionSizes = BTreeMap<String, Vec<(String, usize)>>;

/// The version names and sizes of a compiled application.
#[must_use]
pub fn version_sizes(app: &CompiledApp) -> VersionSizes {
    let mut out = VersionSizes::new();
    for (section, version, bytes) in app.version_code_sizes() {
        out.entry(section).or_default().push((version, bytes));
    }
    out
}

/// Replay `compile()`'s passes on `hir` under `options`, one span per pass
/// in `trace`, and return the version names and sizes they produce.
///
/// # Panics
///
/// Panics if a section is missing, malformed or not parallelizable; the
/// bundled programs compile, so this is a bug.
pub fn replay_passes(hir: &Hir, options: &CompileOptions, trace: &mut JobTrace) -> VersionSizes {
    let callgraph = trace.span("compiler.callgraph", |_| CallGraph::build(hir));
    let effects = trace.span("compiler.effects", |_| EffectsMap::build(hir, &callgraph));

    let mut sections: Vec<(String, usize)> = Vec::new();
    for entry in &options.plan {
        let func = hir.function_named(&entry.name).expect("section exists").0;
        if entry.kind == SectionKind::Parallel && !sections.iter().any(|(n, _)| n == &entry.name) {
            sections.push((entry.name.clone(), func));
        }
    }
    let reports: Vec<_> = trace.span("compiler.commutativity", |_| {
        sections
            .iter()
            .map(|(_, func)| {
                let [Stmt::CountedFor { body, .. }] = hir.functions[*func].body.as_slice() else {
                    panic!("a parallel section is one counted loop");
                };
                let report = analyze_extent(hir, &callgraph, &effects, body);
                assert!(report.parallelizable, "bundled sections are parallelizable");
                report
            })
            .collect()
    });
    let locked = trace.span("compiler.lockplace", |_| {
        let mut locked = hir.functions.clone();
        for report in &reports {
            for &u in &report.updaters {
                insert_default_regions(&mut locked[u.0]);
            }
        }
        locked
    });

    let mut policies: Vec<Policy> = Vec::new();
    for p in &options.policies {
        if !policies.contains(p) {
            policies.push(*p);
        }
    }
    let section_fns: Vec<usize> = sections.iter().map(|(_, f)| *f).collect();
    let policy_sets: Vec<(Policy, FnSet)> = trace.span("compiler.syncopt", |_| {
        policies
            .iter()
            .map(|&policy| {
                let mut set = FnSet::new(locked.clone());
                optimize(&mut set, policy, &section_fns);
                (policy, set)
            })
            .collect()
    });

    let mut out = VersionSizes::new();
    for (name, func) in &sections {
        let mut versions: Vec<VersionCode> = Vec::new();
        for (policy, set) in &policy_sets {
            let mut vc = extract(&set.functions, *func, options, trace);
            vc.name = policy.name();
            trace.span("compiler.package", |_| {
                let fp = vc.fingerprint();
                if let Some(existing) = versions.iter_mut().find(|v| v.fingerprint() == fp) {
                    existing.name = format!("{}+{}", existing.name, policy.name());
                } else {
                    versions.push(vc);
                }
            });
        }
        // `compile()` also builds the unsynchronized serial version.
        let _serial = extract(&hir.functions, *func, options, trace);
        out.insert(
            name.clone(),
            versions.iter().map(|v| (v.name.clone(), v.size_bytes())).collect(),
        );
    }
    let serial = trace.span("compiler.lower", |_| lower_functions(&hir.functions));
    trace.span("compiler.native", |_| compile_native(&serial, &options.cost));
    trace.counters.versions += out.values().map(|v| v.len() as u64).sum::<u64>();
    trace.counters.ir_bytes +=
        out.values().flat_map(|v| v.iter().map(|(_, b)| *b as u64)).sum::<u64>();
    out
}

/// One section version: lowering and native compilation of `funcs` with
/// the section's loop body appended, as `compile()` extracts it.
fn extract(
    funcs: &[Function],
    func: usize,
    options: &CompileOptions,
    trace: &mut JobTrace,
) -> VersionCode {
    let f = &funcs[func];
    let [Stmt::CountedFor { var, start, bound, body }] = f.body.as_slice() else {
        unreachable!("policies preserve the loop shape");
    };
    let locals_ty: Vec<Ty> = f.locals.iter().map(|l| l.ty.clone()).collect();
    let (module, body_fn) = trace.span("compiler.lower", |_| {
        let mut module = lower_functions(funcs);
        let body_fn = module.funcs.len();
        module.funcs.push(lower_body("$body", body, &locals_ty));
        (module, body_fn)
    });
    let native = trace.span("compiler.native", |_| compile_native(&module, &options.cost));
    VersionCode {
        name: String::new(),
        functions: funcs.to_vec(),
        var: *var,
        start: start.clone(),
        bound: bound.clone(),
        body: body.clone(),
        locals_ty,
        vm: VmCode { module, body_fn, native },
        regions: Vec::new(),
    }
}

/// Build `recipe` under `trace`: front end, replayed passes, then
/// `compile()` for the artifact.
///
/// # Panics
///
/// Panics if the bundled program fails to compile.
pub fn traced_build(recipe: &Recipe, trace: &mut JobTrace) -> CompiledApp {
    // `parse` lexes internally; counting tokens lexes again, so the count
    // has a span of its own that layer shares leave out.
    trace.counters.tokens += trace.span("bench.tokens", |_| {
        dynfb_lang::lexer::lex(recipe.source).expect("bundled program lexes").len() as u64
    });
    let ast = trace
        .span("lang.parse", |_| dynfb_lang::parse(recipe.source).expect("bundled program parses"));
    let hir =
        trace.span("lang.sema", |_| dynfb_lang::analyze(&ast).expect("bundled program checks"));
    replay_passes(&hir, &recipe.options, trace);
    let host = standard_host(&recipe.host);
    let options = recipe.options.clone();
    trace.span("compiler.compile", |_| {
        compile(hir, options, host).expect("bundled program compiles")
    })
}
