//! The tiered execution driver: interpret → profile → JIT-compile hot
//! methods → re-run, with injected-bug evaluation at compile time.

use crate::bugs::{self, BugKind, InjectedBug};
use crate::component::Area;
use crate::coverage::CoverageMap;
use crate::fault::{FaultPlan, VmFault, VM_PANIC_MARKER};
use crate::spec::JvmSpec;
use jexec::{ExecConfig, ExecStats, Image, Outcome};
use jopt::{FlagSet, OptEvent};
use std::fmt;

/// Command-line-equivalent options for one JVM execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Enabled diagnostic print flags (profile data).
    pub flags: FlagSet,
    /// Interpreter limits (fuel, stack depth).
    pub exec: ExecConfig,
    /// Force-compile every method at the top tier (the `-Xcomp` analogue).
    pub xcomp: bool,
    /// Restrict compilation to one `Class::method`
    /// (the `-XX:CompileCommand=compileonly` analogue).
    pub compile_only: Option<(String, String)>,
    /// Deterministic fault injection (robustness testing only).
    pub fault: Option<FaultPlan>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            flags: FlagSet::none(),
            exec: ExecConfig::default(),
            xcomp: false,
            compile_only: None,
            fault: None,
        }
    }
}

impl RunOptions {
    /// The configuration MopFuzzer drives the JVM with (paper §4.1):
    /// `-Xcomp` plus all 15 print flags.
    pub fn fuzzing() -> RunOptions {
        RunOptions {
            flags: FlagSet::all(),
            xcomp: true,
            ..RunOptions::default()
        }
    }
}

/// A compiler-crash report, the analogue of `hs_err_pid.log`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// The injected bug that fired.
    pub bug_id: String,
    /// Affected JIT component.
    pub component: crate::component::Component,
    /// Method being compiled when the crash happened.
    pub method: String,
    /// The rendered `hs_err`-style text.
    pub hs_err: String,
}

/// How a JVM execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The program ran to completion (possibly with a Java exception —
    /// that is program behaviour, captured in the outcome).
    Completed(Outcome),
    /// The JIT compiler crashed while compiling a method.
    CompilerCrash(CrashReport),
    /// The program failed class loading / verification.
    InvalidProgram(jexec::BuildError),
}

impl Verdict {
    /// True for a compiler crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, Verdict::CompilerCrash(_))
    }
}

/// The full result of one JVM execution.
#[derive(Debug, Clone)]
pub struct JvmRun {
    /// Name of the JVM that ran (`HotSpur-17`).
    pub jvm: String,
    /// Terminal state.
    pub verdict: Verdict,
    /// Profile data: the trace-log lines printed under the enabled flags.
    pub log: Vec<String>,
    /// Every optimization event performed (ground truth; the fuzzer only
    /// reads `log`).
    pub events: Vec<OptEvent>,
    /// Coverage touched by this execution.
    pub coverage: CoverageMap,
    /// Labels of JIT-compiled methods.
    pub compiled: Vec<String>,
    /// Ids of miscompile bugs whose corruption was applied (ground truth
    /// for experiment bookkeeping; invisible to the oracles).
    pub miscompiled_by: Vec<String>,
    /// Total interpreter steps across both runs — the simulated-time unit.
    pub steps: u64,
}

impl JvmRun {
    /// The behaviour the differential oracle compares: printed output plus
    /// Java-level exception banners. Crashes and timeouts are handled by
    /// their own oracles and never enter this comparison.
    pub fn observable(&self) -> Option<Vec<String>> {
        match &self.verdict {
            Verdict::Completed(o) if o.error.as_ref().is_none_or(|e| e.is_program_level()) => {
                Some(o.observable())
            }
            _ => None,
        }
    }
}

impl fmt::Display for JvmRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Completed(o) => write!(
                f,
                "{}: completed, {} lines, {} compiled",
                self.jvm,
                o.output.len(),
                self.compiled.len()
            ),
            Verdict::CompilerCrash(c) => write!(f, "{}: crash in {}", self.jvm, c.bug_id),
            Verdict::InvalidProgram(e) => write!(f, "{}: invalid program ({e})", self.jvm),
        }
    }
}

/// Executes `program` on the simulated JVM described by `spec`.
pub fn run_jvm(program: &mjava::Program, spec: &JvmSpec, options: &RunOptions) -> JvmRun {
    run_jvm_with_image(program, None, spec, options)
}

/// [`run_jvm`] with an optionally pre-built class image.
///
/// The differential oracle builds `program`'s image once per verdict and
/// hands each of the eight pool JVMs a clone, instead of re-running class
/// loading and load-time lowering eight times. `None` builds from source;
/// behaviour is identical either way (the same build runs the same checks
/// in the same order — it just runs once, on the caller).
pub fn run_jvm_with_image(
    program: &mjava::Program,
    prebuilt: Option<Result<Image, jexec::BuildError>>,
    spec: &JvmSpec,
    options: &RunOptions,
) -> JvmRun {
    // Recorded before the fault check so an injected panic still leaves a
    // flight-recorder event naming the JVM that died.
    jtelemetry::flight(jtelemetry::FlightKind::Vm, "vm_execution", spec.name());
    let _span = jtelemetry::span("vm_execution", || vec![("detail", spec.name())]);
    // Fault injection decides up front, from (plan, jvm, program) alone,
    // what — if anything — goes wrong during this execution.
    let injected = options
        .fault
        .as_ref()
        .and_then(|plan| plan.vm_fault(&spec.name(), &mjava::print(program)));
    let mut exec = options.exec;
    match injected {
        Some(VmFault::Panic) => {
            panic!("{VM_PANIC_MARKER}: injected VM panic on {}", spec.name());
        }
        Some(VmFault::FuelExhaustion) => exec.fuel = exec.fuel.min(64),
        Some(VmFault::Hang) => loop {
            // Blocks forever; only the round watchdog's cancellation (which
            // panics with the timeout marker) gets out of here.
            jtelemetry::cancel::check("injected hang");
            std::thread::sleep(std::time::Duration::from_millis(1));
        },
        _ => {}
    }

    let mut run = run_jvm_inner(program, prebuilt, spec, options, &exec, injected);
    if injected == Some(VmFault::LogCorruption) {
        if let Some(plan) = &options.fault {
            plan.corrupt_log(&spec.name(), &mjava::print(program), &mut run.log);
        }
    }
    // Work is credited only at this single completed-execution exit: an
    // execution that dies by injected panic contributes nothing, which
    // keeps wasted-work accounting a pure function of the campaign config.
    jtelemetry::work::add(run.steps, 1);
    jtelemetry::count(jtelemetry::Counter::VmExecutions, 1);
    match &run.verdict {
        Verdict::CompilerCrash(_) => jtelemetry::count(jtelemetry::Counter::VmCrashes, 1),
        Verdict::InvalidProgram(_) => jtelemetry::count(jtelemetry::Counter::VmBuildFailures, 1),
        Verdict::Completed(_) => {}
    }
    jtelemetry::count(
        jtelemetry::Counter::VmMiscompiles,
        run.miscompiled_by.len() as u64,
    );
    run
}

fn run_jvm_inner(
    program: &mjava::Program,
    prebuilt: Option<Result<Image, jexec::BuildError>>,
    spec: &JvmSpec,
    options: &RunOptions,
    exec: &ExecConfig,
    injected: Option<VmFault>,
) -> JvmRun {
    let mut run = JvmRun {
        jvm: spec.name(),
        verdict: Verdict::Completed(Outcome {
            output: vec![],
            error: None,
            stats: ExecStats::default(),
            profile: jexec::Profile::default(),
        }),
        log: Vec::new(),
        events: Vec::new(),
        coverage: CoverageMap::new(),
        compiled: Vec::new(),
        miscompiled_by: Vec::new(),
        steps: 0,
    };

    if injected == Some(VmFault::BuildFailure) {
        run.verdict = Verdict::InvalidProgram(jexec::BuildError::UnknownClass(
            "mop-fault-injected".to_string(),
        ));
        return run;
    }
    let mut image = match prebuilt.unwrap_or_else(|| Image::build(program)) {
        Ok(i) => i,
        Err(e) => {
            run.verdict = Verdict::InvalidProgram(e);
            return run;
        }
    };

    // Tier 0: interpret with profiling.
    let tier0_span = jtelemetry::span("tier0", Vec::new);
    let tier0 = jexec::run(&image, exec);
    drop(tier0_span);
    run.steps += tier0.stats.steps;
    mark_runtime_coverage(&mut run.coverage, &tier0);

    // Tier selection.
    let armed_bugs: Vec<InjectedBug> = if spec.bugs_armed {
        bugs::bugs_for(spec.family, spec.version)
    } else {
        Vec::new()
    };
    let select = |mid: usize, hot: bool| -> bool {
        let m = &image.methods[mid];
        if let Some((class, method)) = &options.compile_only {
            let cname = &image.classes[m.class].name;
            if cname != class || &m.name != method {
                return false;
            }
        }
        if options.xcomp {
            return hot; // xcomp compiles everything at the top tier
        }
        let inv = tier0.profile.invocations[mid];
        let backedges = tier0.profile.backedges[mid];
        if hot {
            inv >= spec.c2_threshold || backedges >= spec.backedge_threshold
        } else {
            inv >= spec.c1_threshold
        }
    };
    let c2_set: Vec<usize> = (0..image.methods.len())
        .filter(|&m| select(m, true))
        .collect();
    let c1_set: Vec<usize> = (0..image.methods.len())
        .filter(|&m| !c2_set.contains(&m) && select(m, false))
        .collect();

    // Compile. A crash during any compilation aborts the whole VM, exactly
    // like a real fatal error.
    let mut corrupted = false;
    // One source fingerprint per execution: the pipeline memo's program
    // key, shared by every method compiled below.
    let program_fp = if c1_set.is_empty() && c2_set.is_empty() {
        0
    } else {
        let _span = jtelemetry::span("program_fp", Vec::new);
        jopt::source_fingerprint(&mjava::print(program))
    };
    for (tier_phases, tier_area, set) in [
        (&spec.c1_phases, Area::C1, &c1_set),
        (&spec.c2_phases, Area::C2, &c2_set),
    ] {
        for &mid in set {
            let class_name = image.classes[image.methods[mid].class].name.clone();
            let method_name = image.methods[mid].name.clone();
            let Some(out) = jopt::optimize_memo(
                program,
                program_fp,
                &class_name,
                &method_name,
                tier_phases,
                spec.limits,
                &options.flags,
            ) else {
                continue;
            };
            let label = format!("{class_name}::{method_name}");
            run.compiled.push(label.clone());
            run.log.extend(out.log);
            let first = run.events.len();
            run.events.extend(out.events);
            for block in &out.covered {
                run.coverage.mark(tier_area, *block);
            }
            // Bug evaluation on this compilation's events.
            let mut method = out.method;
            for bug in &armed_bugs {
                if !bug.fires(&run.events[first..]) {
                    continue;
                }
                match bug.kind {
                    BugKind::Crash => {
                        let report = crash_report(bug, spec, &label);
                        run.verdict = Verdict::CompilerCrash(report);
                        return run;
                    }
                    BugKind::Miscompile(corruption) => {
                        if bugs::apply_corruption(&mut method, corruption) {
                            run.miscompiled_by.push(bug.id.to_string());
                            corrupted = true;
                        }
                    }
                }
            }
            // Lower the (possibly corrupted) optimized method and install.
            let _span = jtelemetry::span("install", Vec::new);
            match jexec::compile_method_ast(&image, image.methods[mid].class, &method) {
                Ok(code) => image.install_code(mid, code),
                Err(_) => {
                    // An optimized body that fails to re-verify is itself a
                    // compiler defect; surface it as a crash.
                    let report = CrashReport {
                        bug_id: "MOP-LOWERING".to_string(),
                        component: crate::component::Component::CodeGenerationC2,
                        method: label.clone(),
                        hs_err: format!("# lowering failure while compiling {label}"),
                    };
                    run.verdict = Verdict::CompilerCrash(report);
                    return run;
                }
            }
        }
    }

    // Final run on the compiled image (skipped when nothing compiled and
    // nothing was corrupted — the interpreter outcome stands).
    let final_outcome = if run.compiled.is_empty() && !corrupted {
        tier0
    } else {
        let final_span = jtelemetry::span("final_exec", Vec::new);
        let out = jexec::run(&image, exec);
        drop(final_span);
        run.steps += out.stats.steps;
        mark_runtime_coverage(&mut run.coverage, &out);
        out
    };
    run.verdict = Verdict::Completed(final_outcome);
    run
}

fn crash_report(bug: &InjectedBug, spec: &JvmSpec, method: &str) -> CrashReport {
    let hs_err = format!(
        "#\n\
         # A fatal error has been detected by the Java Runtime Environment:\n\
         #\n\
         #  SIGSEGV (0xb) at pc=0x00007f00deadbeef\n\
         #\n\
         # JRE version: {} (build {}-mop)\n\
         # Problematic frame:\n\
         # V  [libjvm.so]  {}  [{}]\n\
         #\n\
         # Compiling: {}\n",
        spec.name(),
        spec.version.number(),
        bug.component.label(),
        bug.id,
        method,
    );
    CrashReport {
        bug_id: bug.id.to_string(),
        component: bug.component,
        method: method.to_string(),
        hs_err,
    }
}

/// Maps interpreter statistics into Runtime and GC coverage blocks.
fn mark_runtime_coverage(coverage: &mut CoverageMap, outcome: &Outcome) {
    let stats = &outcome.stats;
    coverage.mark(Area::Runtime, 0); // startup
    let feature_blocks = [
        (stats.allocations > 0, 1u32),
        (stats.monitor_enters > 0, 2),
        (stats.reflective_calls > 0, 3),
        (stats.boxes > 0, 4),
        (stats.unboxes > 0, 5),
        (stats.prints > 0, 6),
        (outcome.error.is_some(), 7),
        (stats.max_depth > 8, 8),
        (stats.calls > 100, 9),
        (stats.monitor_enters > 100, 10),
        (stats.reflective_calls > 100, 11),
    ];
    for (on, block) in feature_blocks {
        if on {
            coverage.mark(Area::Runtime, block);
        }
    }
    // Work-volume buckets: more executed work touches more interpreter
    // dispatch paths.
    let mut steps = stats.steps;
    let mut bucket = 16;
    while steps > 0 {
        coverage.mark(Area::Runtime, bucket);
        steps >>= 2;
        bucket += 1;
    }
    // GC: allocation volume drives collection activity.
    if stats.allocations > 0 {
        coverage.mark(Area::Gc, 0);
        let mut allocs = stats.allocations;
        let mut block = 1;
        while allocs > 0 {
            coverage.mark(Area::Gc, block);
            allocs >>= 1;
            block += 1;
        }
        if stats.monitor_enters > 0 {
            coverage.mark(Area::Gc, 40); // locked-object collection path
        }
        if stats.boxes > 32 {
            coverage.mark(Area::Gc, 41); // box cache pressure
        }
    }
}

// The differential oracle farms `run_jvm` calls onto a shared worker
// pool, so everything it moves across threads must stay `Send`. These
// assertions turn an accidental `Rc`/raw-pointer regression into a
// compile error at the crate that introduced it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<JvmRun>();
    assert_send::<RunOptions>();
    assert_send::<JvmSpec>();
    assert_send::<FaultPlan>();
    assert_send::<CoverageMap>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Version;

    fn hot_loop_program() -> mjava::Program {
        mjava::parse(
            r#"
            class T {
                static int s;
                static int step(int i) { return i % 7; }
                static void main() {
                    for (int i = 0; i < 3_000; i++) {
                        s = s + T.step(i);
                    }
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn interprets_cold_program_without_compiling() {
        let p = mjava::parse("class T { static void main() { System.out.println(42); } }").unwrap();
        let run = run_jvm(&p, &JvmSpec::hotspur(Version::V17), &RunOptions::default());
        assert!(run.compiled.is_empty());
        assert_eq!(run.observable().unwrap(), vec!["42"]);
    }

    #[test]
    fn compiles_hot_methods_and_preserves_output() {
        let p = hot_loop_program();
        let spec = JvmSpec::hotspur(Version::V17);
        let cold = run_jvm(&p, &spec, &RunOptions::default());
        assert!(
            cold.compiled.iter().any(|m| m == "T::step"),
            "hot method not compiled: {:?}",
            cold.compiled
        );
        let interp_only = {
            let o = jexec::run_program(&p, &ExecConfig::default()).unwrap();
            o.observable()
        };
        assert_eq!(cold.observable().unwrap(), interp_only);
    }

    #[test]
    fn xcomp_compiles_everything() {
        let p = hot_loop_program();
        let run = run_jvm(&p, &JvmSpec::hotspur(Version::V17), &RunOptions::fuzzing());
        assert_eq!(run.compiled.len(), 2);
        assert!(!run.log.is_empty(), "fuzzing options enable all flags");
    }

    #[test]
    fn compile_only_restricts_compilation() {
        let p = hot_loop_program();
        let options = RunOptions {
            compile_only: Some(("T".to_string(), "step".to_string())),
            ..RunOptions::fuzzing()
        };
        let run = run_jvm(&p, &JvmSpec::hotspur(Version::V17), &options);
        assert_eq!(run.compiled, vec!["T::step"]);
    }

    #[test]
    fn profile_log_only_with_flags() {
        let p = hot_loop_program();
        let spec = JvmSpec::hotspur(Version::V17);
        let silent = run_jvm(&p, &spec, &RunOptions::default());
        assert!(silent.log.is_empty());
        // Events are still recorded internally.
        assert!(!silent.events.is_empty());
    }

    #[test]
    fn runtime_and_gc_coverage_marked() {
        let p = hot_loop_program();
        let run = run_jvm(&p, &JvmSpec::hotspur(Version::V17), &RunOptions::default());
        assert!(run.coverage.covered(Area::Runtime) > 3);
        assert!(run.coverage.percent(Area::C2) > 0.0);
    }

    #[test]
    fn invalid_program_reported() {
        let p = mjava::parse("class T { static void main() { x = 1; } }").unwrap();
        let run = run_jvm(&p, &JvmSpec::hotspur(Version::V17), &RunOptions::default());
        assert!(matches!(run.verdict, Verdict::InvalidProgram(_)));
        assert!(run.observable().is_none());
    }

    #[test]
    fn version_differences_show_in_profile_data() {
        // HotSpur-8 has no de-reflection phase: a hot reflective call
        // stays reflective there but devirtualizes (and then inlines) on
        // HotSpur-17 — same output, different optimization behaviour.
        let p = mjava::parse(
            r#"
            class T {
                static int twice(int v) { return v * 2; }
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 1_500; i++) {
                        s = s + Class.forName("T").getDeclaredMethod("twice").invoke(null, i % 3);
                    }
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap();
        let old = run_jvm(
            &p,
            &JvmSpec::hotspur(Version::V8).without_bugs(),
            &RunOptions::fuzzing(),
        );
        let new = run_jvm(
            &p,
            &JvmSpec::hotspur(Version::V17).without_bugs(),
            &RunOptions::fuzzing(),
        );
        assert_eq!(old.observable(), new.observable(), "semantics agree");
        let dereflects = |run: &JvmRun| {
            run.events
                .iter()
                .filter(|e| e.kind == jopt::OptEventKind::Dereflect)
                .count()
        };
        assert_eq!(dereflects(&old), 0, "V8 must not devirtualize");
        assert!(dereflects(&new) > 0, "V17 must devirtualize");
    }

    #[test]
    fn miscompile_bug_corrupts_output_on_affected_version_only() {
        // MOP-J104 (J9-8, RedundancyElimination) fires on three
        // consecutive redundant stores and drops the last store of the
        // compiled method.
        let p = mjava::parse(
            r#"
            class T {
                static int s;
                static void main() {
                    s = 1;
                    s = 2;
                    s = 3;
                    s = 4;
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap();
        let affected = run_jvm(&p, &JvmSpec::j9(Version::V8), &RunOptions::fuzzing());
        assert_eq!(affected.miscompiled_by, vec!["MOP-J104".to_string()]);
        let healthy = run_jvm(
            &p,
            &JvmSpec::j9(Version::V8).without_bugs(),
            &RunOptions::fuzzing(),
        );
        assert_eq!(healthy.observable().unwrap(), vec!["4"]);
        assert_ne!(
            affected.observable().unwrap(),
            healthy.observable().unwrap(),
            "corruption must be externally visible"
        );
    }

    #[test]
    fn crash_report_carries_hs_err_banner() {
        // Adjacent + nested monitors and loops: the Listing-3 recipe.
        let p = mjava::parse(
            r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) {
                        synchronized (T.class) { s = s + 1; }
                    }
                    int i = 0;
                    while (i < 32) {
                        s = s + i; s = s + 1; s = s - 1; s = s + 2;
                        s = s - 2; s = s + 3; s = s - 3;
                        i = i + 1;
                    }
                    synchronized (T.class) { s = s + 3; }
                    synchronized (T.class) { s = s + 4; }
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap();
        let run = run_jvm(
            &p,
            &JvmSpec::hotspur(Version::Mainline),
            &RunOptions::fuzzing(),
        );
        let Verdict::CompilerCrash(report) = &run.verdict else {
            panic!("expected crash, got {:?}", run.verdict);
        };
        assert!(report.hs_err.contains("A fatal error has been detected"));
        assert!(report.hs_err.contains(&report.bug_id));
        assert!(run.observable().is_none());
    }

    /// Fault-injection plumbing: every `VmFault` kind maps to its intended
    /// observable degradation, and a zero-rate plan is a strict no-op.
    #[test]
    fn injected_faults_degrade_as_specified() {
        let p = hot_loop_program();
        let spec = JvmSpec::hotspur(Version::V17);
        let clean = run_jvm(&p, &spec, &RunOptions::fuzzing());

        let with_rate = |rate: f64, seed: u64| RunOptions {
            fault: Some(FaultPlan::new(seed, rate)),
            ..RunOptions::fuzzing()
        };
        // Rate 0 behaves exactly like no plan at all.
        let zero = run_jvm(&p, &spec, &with_rate(0.0, 1));
        assert_eq!(zero.log, clean.log);
        assert_eq!(zero.observable(), clean.observable());

        // At rate 1.0, scan plan seeds until each kind has been observed.
        let mut saw = [false; 4];
        for seed in 0..64u64 {
            let options = with_rate(1.0, seed);
            let plan = options.fault.clone().unwrap();
            let injected = plan.vm_fault(&spec.name(), &mjava::print(&p)).unwrap();
            match injected {
                VmFault::Panic => {
                    let caught = std::panic::catch_unwind(|| run_jvm(&p, &spec, &options));
                    let payload = caught.expect_err("must panic");
                    let msg = payload.downcast_ref::<String>().expect("string payload");
                    assert!(msg.starts_with(VM_PANIC_MARKER), "{msg}");
                    saw[0] = true;
                }
                VmFault::BuildFailure => {
                    let run = run_jvm(&p, &spec, &options);
                    assert!(matches!(run.verdict, Verdict::InvalidProgram(_)));
                    saw[1] = true;
                }
                VmFault::FuelExhaustion => {
                    let run = run_jvm(&p, &spec, &options);
                    assert!(run.observable().is_none(), "starved run is not comparable");
                    saw[2] = true;
                }
                VmFault::LogCorruption => {
                    let run = run_jvm(&p, &spec, &options);
                    assert_ne!(run.log, clean.log);
                    assert_eq!(run.observable(), clean.observable());
                    saw[3] = true;
                }
                VmFault::Hang => unreachable!("random plans never select Hang"),
            }
            if saw.iter().all(|&s| s) {
                return;
            }
        }
        panic!("not all fault kinds observed across 64 plan seeds: {saw:?}");
    }

    #[test]
    fn injected_hang_blocks_until_cancelled_and_panics_with_the_marker() {
        let p = mjava::samples::listing2().program;
        let spec = JvmSpec::hotspur(Version::V17);
        let options = RunOptions {
            fault: Some(FaultPlan::new(1, 1.0).with_only(VmFault::Hang)),
            ..RunOptions::fuzzing()
        };
        let token = jtelemetry::cancel::CancelToken::new();
        let canceller = token.clone();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            canceller.cancel();
        });
        let caught = {
            let _guard = jtelemetry::cancel::install(&token);
            std::panic::catch_unwind(|| run_jvm(&p, &spec, &options))
        };
        waker.join().unwrap();
        let payload = caught.expect_err("hang must be cancelled, not complete");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(
            msg.starts_with(jtelemetry::cancel::TIMEOUT_PANIC_MARKER),
            "{msg}"
        );
    }

    #[test]
    fn seeds_do_not_trigger_bugs_unmutated() {
        // Paper premise: interaction bugs need mutated, interaction-rich
        // inputs; plain regression seeds must pass on every JVM.
        for seed in mjava::samples::all_seeds() {
            for spec in JvmSpec::differential_pool() {
                let run = run_jvm(&seed.program, &spec, &RunOptions::fuzzing());
                assert!(
                    matches!(run.verdict, Verdict::Completed(_)),
                    "seed {} crashed {}: {:?}",
                    seed.name,
                    spec.name(),
                    run.verdict
                );
                assert!(
                    run.miscompiled_by.is_empty(),
                    "seed {} miscompiled on {}: {:?}",
                    seed.name,
                    spec.name(),
                    run.miscompiled_by
                );
            }
        }
    }

    #[test]
    fn seeds_agree_across_the_pool() {
        for seed in mjava::samples::all_seeds() {
            let mut outputs = Vec::new();
            for spec in JvmSpec::differential_pool() {
                let run = run_jvm(&seed.program, &spec, &RunOptions::fuzzing());
                outputs.push((spec.name(), run.observable().expect("completed")));
            }
            let first = &outputs[0].1;
            for (name, out) in &outputs {
                assert_eq!(out, first, "seed {} differs on {}", seed.name, name);
            }
        }
    }

    #[test]
    fn optimizer_preserves_seed_semantics_with_bugs_disarmed() {
        for seed in mjava::samples::all_seeds() {
            let interp = jexec::run_program(&seed.program, &ExecConfig::default())
                .unwrap()
                .observable();
            let spec = JvmSpec::hotspur(Version::Mainline).without_bugs();
            let run = run_jvm(&seed.program, &spec, &RunOptions::fuzzing());
            assert_eq!(
                run.observable().expect("completed"),
                interp,
                "JIT changed semantics of seed {}",
                seed.name
            );
        }
    }
}
