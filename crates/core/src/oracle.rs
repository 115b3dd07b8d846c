//! Test oracles (paper §3.5): crash detection and differential testing
//! across the JVM pool.

use jvmsim::{CoverageMap, CrashReport, JvmRun, JvmSpec, RunOptions, Verdict as JvmVerdict};
use mjava::Program;

/// The oracle's verdict on one test case.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleVerdict {
    /// All JVMs completed and agreed.
    Pass,
    /// A JVM's compiler crashed.
    Crash {
        /// Which JVM crashed.
        jvm: String,
        /// Its crash report.
        report: CrashReport,
    },
    /// Completed JVMs disagreed on observable output.
    Miscompile {
        /// Per-JVM observable output.
        outputs: Vec<(String, Vec<String>)>,
        /// Ground-truth ids of the miscompile bugs whose corruption was
        /// applied (bookkeeping only — a real campaign would not know).
        culprits: Vec<String>,
    },
    /// Fewer than two JVMs produced comparable output (timeouts,
    /// build failures).
    Inconclusive(String),
}

impl OracleVerdict {
    /// True for crash or miscompilation.
    pub fn is_bug(&self) -> bool {
        matches!(
            self,
            OracleVerdict::Crash { .. } | OracleVerdict::Miscompile { .. }
        )
    }
}

/// Everything one differential round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialResult {
    /// The verdict.
    pub verdict: OracleVerdict,
    /// Coverage accumulated across all pool executions.
    pub coverage: CoverageMap,
    /// JVM executions performed.
    pub executions: u64,
    /// Interpreter steps consumed.
    pub steps: u64,
}

/// Runs `program` on every JVM in `pool`, in pool order, and compares
/// observable behaviour (§3.5: the LTS versions and mainline of both
/// families). The first compiler crash ends the loop: later JVMs never run.
pub fn differential(
    program: &Program,
    pool: &[JvmSpec],
    options: &RunOptions,
) -> DifferentialResult {
    let mut coverage = CoverageMap::new();
    let (mut executions, mut steps) = (0, 0);
    let mut runs: Vec<JvmRun> = Vec::new();
    // One class-loading pass for the whole pool: every JVM executes the
    // same program, so the image (and its load-time method lowering) is
    // built once. Each run still gets its own mutable clone to install
    // JIT code into.
    let image = jexec::Image::build(program);
    for spec in pool {
        let clone = jtelemetry::span("image_build", Vec::new);
        let prebuilt = Some(image.clone());
        drop(clone);
        let run = jvmsim::run_jvm_with_image(program, prebuilt, spec, options);
        executions += 1;
        steps += run.steps;
        coverage.merge(&run.coverage);
        if let JvmVerdict::CompilerCrash(report) = &run.verdict {
            if jtelemetry::enabled() {
                jtelemetry::count(jtelemetry::Counter::OracleCrash, 1);
                jtelemetry::flight(
                    jtelemetry::FlightKind::Oracle,
                    "crash",
                    format!("{} ({})", run.jvm, report.bug_id),
                );
                jtelemetry::trace_instant("verdict", || {
                    vec![
                        ("kind", "crash".to_string()),
                        ("jvm", run.jvm.clone()),
                        ("bug", report.bug_id.clone()),
                    ]
                });
            }
            return DifferentialResult {
                verdict: OracleVerdict::Crash {
                    jvm: run.jvm.clone(),
                    report: report.clone(),
                },
                coverage,
                executions,
                steps,
            };
        }
        runs.push(run);
    }

    // All JVMs completed: compare observable behaviour.
    let mut outputs: Vec<(String, Vec<String>)> = Vec::new();
    let mut culprits: Vec<String> = Vec::new();
    for run in &runs {
        if let Some(obs) = run.observable() {
            outputs.push((run.jvm.clone(), obs));
            culprits.extend(run.miscompiled_by.iter().cloned());
        }
    }
    culprits.sort();
    culprits.dedup();
    let verdict = if outputs.len() < 2 {
        OracleVerdict::Inconclusive(format!(
            "only {} of {} JVMs produced comparable output",
            outputs.len(),
            pool.len()
        ))
    } else if outputs.iter().all(|(_, o)| o == &outputs[0].1) {
        OracleVerdict::Pass
    } else {
        OracleVerdict::Miscompile { outputs, culprits }
    };
    if jtelemetry::enabled() {
        let (counter, label) = match &verdict {
            OracleVerdict::Pass => (jtelemetry::Counter::OraclePass, "pass"),
            OracleVerdict::Miscompile { .. } => {
                (jtelemetry::Counter::OracleMiscompile, "miscompile")
            }
            OracleVerdict::Inconclusive(_) => {
                (jtelemetry::Counter::OracleInconclusive, "inconclusive")
            }
            OracleVerdict::Crash { .. } => unreachable!("crash returns early"),
        };
        jtelemetry::count(counter, 1);
        jtelemetry::flight(jtelemetry::FlightKind::Oracle, label, String::new());
        jtelemetry::trace_instant("verdict", || vec![("kind", label.to_string())]);
    }
    DifferentialResult {
        verdict,
        coverage,
        executions,
        steps,
    }
}

/// Forwards to [`differential`]; `jobs` is ignored.
#[doc(hidden)]
pub fn differential_jobs(
    program: &Program,
    pool: &[JvmSpec],
    options: &RunOptions,
    _jobs: usize,
) -> DifferentialResult {
    differential(program, pool, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvmsim::Version;

    fn pool() -> Vec<JvmSpec> {
        JvmSpec::differential_pool()
    }

    #[test]
    fn seeds_pass_differential_testing() {
        for seed in mjava::samples::all_seeds() {
            let result = differential(&seed.program, &pool(), &RunOptions::fuzzing());
            assert!(
                matches!(result.verdict, OracleVerdict::Pass),
                "seed {} verdict {:?}",
                seed.name,
                result.verdict
            );
            assert_eq!(result.executions, 8);
        }
    }

    #[test]
    fn detects_planted_output_divergence() {
        // Plant a divergence by hand: a program whose behaviour trips a
        // miscompile bug on J9 only — J101 requires StoreEliminate>=2 and
        // GvnHit>=1. We synthesize redundant stores plus a CSE pair.
        let program = mjava::parse(
            r#"
            class T {
                static int s;
                static void main() {
                    int a = 3 * 3 + 1;
                    s = 5;
                    s = 6;
                    s = 7;
                    int p = a + 2;
                    int q = a + 2;
                    System.out.println(s + p + q);
                }
            }
            "#,
        )
        .unwrap();
        let result = differential(&program, &pool(), &RunOptions::fuzzing());
        match &result.verdict {
            OracleVerdict::Miscompile { outputs, culprits } => {
                assert!(!culprits.is_empty());
                assert!(outputs.len() >= 2);
            }
            OracleVerdict::Crash { .. } => {} // also a detection
            other => panic!("divergence not detected: {other:?}"),
        }
    }

    #[test]
    fn inconclusive_when_everything_times_out() {
        let program =
            mjava::parse("class T { static void main() { while (true) { int x = 1; } } }").unwrap();
        let mut options = RunOptions::fuzzing();
        options.exec.fuel = 5_000;
        let result = differential(
            &program,
            &[JvmSpec::hotspur(Version::V17), JvmSpec::j9(Version::V17)],
            &options,
        );
        assert!(matches!(result.verdict, OracleVerdict::Inconclusive(_)));
    }

    #[test]
    fn verdict_bug_classification() {
        assert!(!OracleVerdict::Pass.is_bug());
        assert!(!OracleVerdict::Inconclusive("x".into()).is_bug());
        assert!(OracleVerdict::Miscompile {
            outputs: vec![],
            culprits: vec![]
        }
        .is_bug());
    }
}
