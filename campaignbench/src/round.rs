//! Rounds driven directly through the library, two ways:
//!
//! * [`direct_round`] calls the production `fuzz` and `differential_jobs`;
//! * [`assembled_round`] rebuilds the same round from each layer's public
//!   functions (`select_mp`, `Mutator::apply`, `Image::build`,
//!   `jexec::run`, `jopt::optimize_memo`, `compile_method_ast` +
//!   `install_code`, `Obv::from_log`) and times every call.
//!
//! Both produce a [`RoundOutcome`]; the traced run is only trusted when
//! the two agree round for round, agree with the journal where the
//! round came from one, and make the same code-cache and pipeline-memo
//! lookups (equal outcomes alone do not show equal work).

use crate::trace::{self, Layer};
use jexec::{BuildError, Image};
use jprofile::Obv;
use jvmsim::bugs::{self, BugKind};
use jvmsim::{CrashReport, JvmSpec, RunOptions, Verdict};
use mjava::{Program, StmtPath};
use mopfuzzer::{all_mutators, FuzzConfig, Mutator, MutatorKind, OracleVerdict, RoundRecord};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// What one round needs: the campaign's inputs for that round.
pub struct RoundInput {
    pub round: usize,
    pub seed: String,
    pub program: Program,
    pub rng_seed: u64,
    pub guidance: JvmSpec,
}

/// A list of rounds over one pool, as a campaign would schedule them.
pub struct Plan {
    pub pool: Vec<JvmSpec>,
    pub iterations: usize,
    pub rounds: Vec<RoundInput>,
    /// Corpus mode: the promotion threshold and the fingerprints already
    /// in the store when the campaign started.
    pub corpus: Option<(f64, HashSet<u64>)>,
}

/// The supervisor's per-round RNG derivation.
pub fn round_rng_seed(base: u64, round: usize, attempt: u32) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
        .wrapping_add((attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// One bug sighting: id, JVM, crash (vs. miscompile).
#[derive(Debug, Clone, PartialEq)]
pub struct Sighting {
    pub id: String,
    pub jvm: String,
    pub is_crash: bool,
}

/// Everything a round produced that the campaign's accounting reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    pub round: usize,
    pub seed: String,
    pub fuzz_execs: u64,
    pub fuzz_steps: u64,
    pub final_delta: f64,
    pub crash: Option<Sighting>,
    pub diff: Option<(u64, u64)>,
    pub inconclusive: bool,
    pub diff_bugs: Vec<Sighting>,
    /// `(fingerprint, execs, steps)` of an admitted promotion.
    pub promotion: Option<(u64, u64, u64)>,
    /// Set when the round did not complete (seed failed to build, or the
    /// journal records it errored or skipped).
    pub failed: bool,
}

impl RoundOutcome {
    /// The same fields, read from a production journal record.
    pub fn from_record(record: &RoundRecord) -> RoundOutcome {
        let sighting = |s: &mopfuzzer::BugSighting| Sighting {
            id: s.id.clone(),
            jvm: s.jvm.clone(),
            is_crash: s.is_crash,
        };
        RoundOutcome {
            round: record.round,
            seed: record.seed.clone(),
            fuzz_execs: record.fuzz_execs,
            fuzz_steps: record.fuzz_steps,
            final_delta: record.final_delta,
            crash: record.crash.as_ref().map(sighting),
            diff: record.diff,
            inconclusive: record.inconclusive,
            diff_bugs: record.diff_bugs.iter().map(sighting).collect(),
            promotion: record
                .promotion
                .as_ref()
                .map(|p| (p.fingerprint, p.execs, p.steps)),
            failed: record.disposition != mopfuzzer::Disposition::Ok,
        }
    }

    /// Bug ids in the order the campaign result lists its sightings.
    pub fn bug_ids(&self) -> impl Iterator<Item = &str> {
        self.crash
            .iter()
            .chain(self.diff_bugs.iter())
            .map(|s| s.id.as_str())
    }

    pub fn executions(&self) -> u64 {
        self.fuzz_execs + self.diff.map_or(0, |d| d.0) + self.promotion.map_or(0, |p| p.1)
    }

    pub fn steps(&self) -> u64 {
        self.fuzz_steps + self.diff.map_or(0, |d| d.1) + self.promotion.map_or(0, |p| p.2)
    }
}

impl fmt::Display for RoundOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bug = |s: &Sighting| format!("{}@{}:{}", s.id, s.jvm, s.is_crash);
        write!(
            f,
            "round={} seed={} fuzz={}/{} delta={:?} crash={} diff={} inconclusive={} \
             bugs=[{}] promo={} failed={}",
            self.round,
            self.seed,
            self.fuzz_execs,
            self.fuzz_steps,
            self.final_delta,
            self.crash.as_ref().map_or("-".to_string(), bug),
            self.diff
                .map_or("-".to_string(), |(e, s)| format!("{e}/{s}")),
            self.inconclusive,
            self.diff_bugs.iter().map(bug).collect::<Vec<_>>().join(","),
            self.promotion
                .map_or("-".to_string(), |(fp, e, s)| format!("{fp:016x}/{e}/{s}")),
            self.failed,
        )
    }
}

/// Counters the assembled round keeps alongside its spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub mutators_applied: u64,
    pub children_built: u64,
    pub build_calls: u64,
    pub tier0_steps: u64,
    pub jopt_calls: u64,
    pub install_methods: u64,
    pub final_steps: u64,
    pub verdicts: u64,
    /// Oracle executions that ran tier 0, and the distinct
    /// (image, config) pairs among them, summed per verdict.
    pub oracle_tier0_runs: u64,
    pub oracle_tier0_unique: u64,
    /// Oracle executions that ran a final run, and the distinct
    /// installed-code vectors among them, summed per verdict.
    pub oracle_final_runs: u64,
    pub oracle_final_unique: u64,
    pub reduce_candidates: u64,
    pub reduce_accepted: u64,
}

/// Runs one round through the production entry points.
pub fn direct_round(input: &RoundInput, plan: &Plan, known: &mut HashSet<u64>) -> RoundOutcome {
    let config = FuzzConfig {
        max_iterations: plan.iterations,
        rng_seed: input.rng_seed,
        ..FuzzConfig::new(input.guidance.clone())
    };
    let fuzzed = mopfuzzer::fuzz(&input.program, &config);
    let mut outcome = RoundOutcome {
        round: input.round,
        seed: input.seed.clone(),
        fuzz_execs: fuzzed.executions,
        fuzz_steps: fuzzed.steps,
        final_delta: fuzzed.final_delta(),
        crash: None,
        diff: None,
        inconclusive: false,
        diff_bugs: Vec::new(),
        promotion: None,
        failed: fuzzed.seed_invalid.is_some(),
    };
    if outcome.failed {
        return outcome;
    }
    if let Some(report) = &fuzzed.crash {
        outcome.crash = Some(Sighting {
            id: report.bug_id.clone(),
            jvm: input.guidance.name(),
            is_crash: true,
        });
    } else {
        let diff = mopfuzzer::differential_jobs(
            &fuzzed.final_mutant,
            &plan.pool,
            &RunOptions::fuzzing(),
            1,
        );
        outcome.diff = Some((diff.executions, diff.steps));
        match diff.verdict {
            OracleVerdict::Crash { jvm, report } => outcome.diff_bugs.push(Sighting {
                id: report.bug_id,
                jvm,
                is_crash: true,
            }),
            OracleVerdict::Miscompile { outputs, culprits } => {
                let jvm = outputs.first().map(|(j, _)| j.clone()).unwrap_or_default();
                for id in culprits {
                    outcome.diff_bugs.push(Sighting {
                        id,
                        jvm: jvm.clone(),
                        is_crash: false,
                    });
                }
            }
            OracleVerdict::Inconclusive(_) => outcome.inconclusive = true,
            OracleVerdict::Pass => {}
        }
    }
    if let Some((threshold, _)) = &plan.corpus {
        outcome.promotion = promote(
            &outcome,
            &fuzzed.final_mutant,
            input,
            *threshold,
            known,
            &mut Counters::default(),
        );
    }
    outcome
}

/// Runs one round assembled from the layers' public functions, timing
/// every call (recording must be on for the spans to land).
pub fn assembled_round(
    input: &RoundInput,
    plan: &Plan,
    known: &mut HashSet<u64>,
    c: &mut Counters,
) -> RoundOutcome {
    trace::set_round(input.round);
    let fuzzed = trace::span(Layer::Fuzzer, || {
        assembled_fuzz(
            &input.program,
            &input.guidance,
            plan.iterations,
            input.rng_seed,
            c,
        )
    });
    let mut outcome = RoundOutcome {
        round: input.round,
        seed: input.seed.clone(),
        fuzz_execs: fuzzed.executions,
        fuzz_steps: fuzzed.steps,
        final_delta: fuzzed.final_delta,
        crash: None,
        diff: None,
        inconclusive: false,
        diff_bugs: Vec::new(),
        promotion: None,
        failed: fuzzed.seed_invalid,
    };
    if outcome.failed {
        return outcome;
    }
    if let Some(report) = &fuzzed.crash {
        outcome.crash = Some(Sighting {
            id: report.bug_id.clone(),
            jvm: input.guidance.name(),
            is_crash: true,
        });
    } else {
        let diff = trace::span(Layer::Oracle, || {
            assembled_differential(&fuzzed.final_mutant, &plan.pool, c)
        });
        outcome.diff = Some((diff.executions, diff.steps));
        outcome.inconclusive = diff.inconclusive;
        outcome.diff_bugs = diff.bugs;
    }
    if let Some((threshold, _)) = &plan.corpus {
        outcome.promotion = promote(&outcome, &fuzzed.final_mutant, input, *threshold, known, c);
    }
    outcome
}

/// Corpus promotion, as the supervisor decides it: a bug-finding round or
/// a round whose final delta clears the threshold has its mutant
/// minimized with jreduce and fingerprinted on the reference JVM; it is
/// admitted when the fingerprint is new.
fn promote(
    outcome: &RoundOutcome,
    mutant: &Program,
    input: &RoundInput,
    threshold: f64,
    known: &mut HashSet<u64>,
    c: &mut Counters,
) -> Option<(u64, u64, u64)> {
    let bug = outcome.crash.as_ref().or(outcome.diff_bugs.first());
    if bug.is_none() && outcome.final_delta < threshold {
        return None;
    }
    let mut execs = 0u64;
    let mut steps = 0u64;
    let options = RunOptions::fuzzing();
    let (reduced, stats) = match bug {
        Some(sighting) => {
            let spec = JvmSpec::from_name(&sighting.jvm).ok()?;
            let mut oracle = |p: &Program| {
                let run = jvmsim::run_jvm(p, &spec, &options);
                execs += 1;
                steps += run.steps;
                if sighting.is_crash {
                    matches!(&run.verdict, Verdict::CompilerCrash(r) if r.bug_id == sighting.id)
                } else {
                    run.miscompiled_by.contains(&sighting.id)
                }
            };
            trace::span(Layer::Jreduce, || jreduce::reduce(mutant, &mut oracle))
        }
        None => trace::span(Layer::Jreduce, || {
            let guidance = &input.guidance;
            let seed_run = jvmsim::run_jvm(&input.program, guidance, &options);
            execs += 1;
            steps += seed_run.steps;
            let seed_obv = Obv::from_log(&seed_run.log);
            let mut oracle = |p: &Program| {
                let run = jvmsim::run_jvm(p, guidance, &options);
                execs += 1;
                steps += run.steps;
                matches!(run.verdict, Verdict::Completed(_))
                    && Obv::delta(&seed_obv, &Obv::from_log(&run.log)) >= threshold
            };
            jreduce::reduce(mutant, &mut oracle)
        }),
    };
    c.reduce_candidates += stats.oracle_calls;
    c.reduce_accepted += stats.accepted;
    let fp = trace::span(Layer::JcorpusFingerprint, || jcorpus::fingerprint(&reduced)).ok()?;
    execs += 1;
    steps += fp.steps;
    known
        .insert(fp.fingerprint)
        .then_some((fp.fingerprint, execs, steps))
}

struct Fuzzed {
    final_mutant: Program,
    crash: Option<CrashReport>,
    executions: u64,
    steps: u64,
    final_delta: f64,
    seed_invalid: bool,
}

/// `RunOptions::fuzzing()` restricted to the method holding the MP.
fn guidance_options(program: &Program, mp: &StmtPath) -> RunOptions {
    let mut options = RunOptions::fuzzing();
    options.compile_only = program.classes.get(mp.class).and_then(|class| {
        class
            .methods
            .get(mp.method)
            .map(|m| (class.name.clone(), m.name.clone()))
    });
    options
}

/// Eq. 1 weighted choice over the applicable mutators.
fn select_weighted(
    candidates: &[usize],
    weights: &HashMap<MutatorKind, f64>,
    mutators: &[Box<dyn Mutator>],
    rng: &mut SmallRng,
) -> usize {
    let clamped = |i: usize| jprofile::clamp_weight(weights[&mutators[i].kind()]);
    let total: f64 = candidates.iter().map(|&i| clamped(i)).sum();
    let mut point = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for &i in candidates {
        let w = clamped(i);
        if point < w {
            return i;
        }
        point -= w;
    }
    *candidates.last().expect("non-empty candidates")
}

/// Algorithm 1 (full variant, no faults, nothing banned).
fn assembled_fuzz(
    seed: &Program,
    guidance: &JvmSpec,
    iterations: usize,
    rng_seed: u64,
    c: &mut Counters,
) -> Fuzzed {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mutators = all_mutators();
    let mut weights: HashMap<MutatorKind, f64> =
        MutatorKind::ALL.iter().map(|&k| (k, 1.0)).collect();
    let mut out = Fuzzed {
        final_mutant: seed.clone(),
        crash: None,
        executions: 0,
        steps: 0,
        final_delta: 0.0,
        seed_invalid: false,
    };
    let Some(mut mp) = trace::span(Layer::Mutators, || {
        mopfuzzer::fuzzer::select_mp(seed, &mut rng)
    }) else {
        return out;
    };
    let seed_run = execute(seed, None, guidance, &guidance_options(seed, &mp), c);
    out.executions += 1;
    out.steps += seed_run.steps;
    let seed_obv = trace::span(Layer::Jprofile, || Obv::from_log(&seed_run.log));
    match seed_run.verdict {
        Verdict::CompilerCrash(report) => {
            out.crash = Some(report);
            return out;
        }
        Verdict::InvalidProgram(_) => {
            out.seed_invalid = true;
            return out;
        }
        Verdict::Completed(_) => {}
    }
    let mut parent = seed.clone();
    let mut parent_obv = seed_obv;
    for _ in 0..iterations {
        let mutation = trace::span(Layer::Mutators, || {
            let mut candidates: Vec<usize> = (0..mutators.len())
                .filter(|&i| mutators[i].is_applicable(&parent, &mp))
                .collect();
            loop {
                if candidates.is_empty() {
                    break None;
                }
                let pick = select_weighted(&candidates, &weights, &mutators, &mut rng);
                match mutators[pick].apply(&parent, &mp, &mut rng) {
                    Some(m) => break Some((mutators[pick].kind(), m)),
                    None => candidates.retain(|&i| i != pick),
                }
            }
        });
        let Some((kind, mutation)) = mutation else {
            break;
        };
        c.mutators_applied += 1;
        let child_run = execute(
            &mutation.program,
            None,
            guidance,
            &guidance_options(&mutation.program, &mutation.mp),
            c,
        );
        out.executions += 1;
        out.steps += child_run.steps;
        if matches!(child_run.verdict, Verdict::InvalidProgram(_)) {
            continue;
        }
        c.children_built += 1;
        let weight = weights[&kind];
        let (child_obv, delta_seed, weight) = trace::span(Layer::Jprofile, || {
            let child_obv = Obv::from_log(&child_run.log);
            let delta = Obv::delta(&parent_obv, &child_obv);
            (
                child_obv,
                Obv::delta(&seed_obv, &child_obv),
                jprofile::update_weight(weight, delta, &child_obv),
            )
        });
        weights.insert(kind, weight);
        out.final_delta = delta_seed;
        out.final_mutant = mutation.program.clone();
        if let Verdict::CompilerCrash(report) = child_run.verdict {
            out.crash = Some(report);
            break;
        }
        parent = mutation.program;
        mp = mutation.mp;
        parent_obv = child_obv;
    }
    out
}

/// What the oracle and the fuzzer read from one JVM execution.
struct Execution {
    verdict: Verdict,
    log: Vec<String>,
    steps: u64,
    miscompiled_by: Vec<String>,
    /// Fingerprint of the tier-0 input: the loaded image and exec config.
    tier0_key: u64,
    /// Fingerprint of the installed code the final run executed.
    final_key: Option<u64>,
}

/// Fingerprint of what an execution runs: image shape, every method's
/// installed code, and the execution limits.
fn image_key(image: &Image, exec: &jexec::ExecConfig) -> u64 {
    let mut h = DefaultHasher::new();
    image.shape_fp().hash(&mut h);
    for m in &image.methods {
        m.code_fp.hash(&mut h);
    }
    (
        exec.fuel,
        exec.max_call_depth,
        exec.mode == jexec::ExecMode::Interp,
    )
        .hash(&mut h);
    h.finish()
}

/// One JVM execution: build (or take the oracle's prebuilt image), tier 0,
/// tier selection, compile each selected method with injected-bug
/// evaluation, lower and install, final run.
fn execute(
    program: &Program,
    prebuilt: Option<Result<Image, BuildError>>,
    spec: &JvmSpec,
    options: &RunOptions,
    c: &mut Counters,
) -> Execution {
    trace::span(Layer::Jvmsim, || {
        let exec = options.exec;
        let mut out = Execution {
            verdict: Verdict::InvalidProgram(BuildError::UnknownClass(String::new())),
            log: Vec::new(),
            steps: 0,
            miscompiled_by: Vec::new(),
            tier0_key: 0,
            final_key: None,
        };
        let built = match prebuilt {
            Some(image) => image,
            None => trace::span(Layer::JexecBuild, || {
                c.build_calls += 1;
                Image::build(program)
            }),
        };
        let mut image = match built {
            Ok(image) => image,
            Err(e) => {
                out.verdict = Verdict::InvalidProgram(e);
                return out;
            }
        };
        out.tier0_key = image_key(&image, &exec);
        let tier0 = trace::span(Layer::JexecTier0, || jexec::run(&image, &exec));
        c.tier0_steps += tier0.stats.steps;
        out.steps += tier0.stats.steps;

        let armed = if spec.bugs_armed {
            bugs::bugs_for(spec.family, spec.version)
        } else {
            Vec::new()
        };
        let select = |mid: usize, hot: bool| -> bool {
            let m = &image.methods[mid];
            if let Some((class, method)) = &options.compile_only {
                if &image.classes[m.class].name != class || &m.name != method {
                    return false;
                }
            }
            if options.xcomp {
                return hot;
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
        let program_fp = if c1_set.is_empty() && c2_set.is_empty() {
            0
        } else {
            trace::span(Layer::Jopt, || {
                jopt::source_fingerprint(&mjava::print(program))
            })
        };
        let mut compiled = false;
        let mut corrupted = false;
        for (phases, set) in [(&spec.c1_phases, &c1_set), (&spec.c2_phases, &c2_set)] {
            for &mid in set {
                let class = image.methods[mid].class;
                let class_name = image.classes[class].name.clone();
                let method_name = image.methods[mid].name.clone();
                let optimized = trace::span(Layer::Jopt, || {
                    jopt::optimize_memo(
                        program,
                        program_fp,
                        &class_name,
                        &method_name,
                        phases,
                        spec.limits,
                        &options.flags,
                    )
                });
                let Some(optimized) = optimized else {
                    continue;
                };
                c.jopt_calls += 1;
                compiled = true;
                out.log.extend(optimized.log.iter().cloned());
                let mut method = optimized.method;
                for bug in &armed {
                    if !bug.fires(&optimized.events) {
                        continue;
                    }
                    match bug.kind {
                        BugKind::Crash => {
                            out.verdict = Verdict::CompilerCrash(CrashReport {
                                bug_id: bug.id.to_string(),
                                component: bug.component,
                                method: format!("{class_name}::{method_name}"),
                                hs_err: String::new(),
                            });
                            return out;
                        }
                        BugKind::Miscompile(corruption) => {
                            if bugs::apply_corruption(&mut method, corruption) {
                                out.miscompiled_by.push(bug.id.to_string());
                                corrupted = true;
                            }
                        }
                    }
                }
                let installed = trace::span(Layer::JexecInstall, || {
                    jexec::compile_method_ast(&image, class, &method)
                        .map(|code| image.install_code(mid, code))
                });
                if installed.is_err() {
                    out.verdict = Verdict::CompilerCrash(CrashReport {
                        bug_id: "MOP-LOWERING".to_string(),
                        component: jvmsim::Component::CodeGenerationC2,
                        method: format!("{class_name}::{method_name}"),
                        hs_err: String::new(),
                    });
                    return out;
                }
                c.install_methods += 1;
            }
        }
        let outcome = if !compiled && !corrupted {
            tier0
        } else {
            out.final_key = Some(image_key(&image, &exec));
            let run = trace::span(Layer::JexecFinal, || jexec::run(&image, &exec));
            c.final_steps += run.stats.steps;
            out.steps += run.stats.steps;
            run
        };
        out.verdict = Verdict::Completed(outcome);
        out
    })
}

struct Diff {
    executions: u64,
    steps: u64,
    inconclusive: bool,
    bugs: Vec<Sighting>,
}

/// §3.5: build the image once, run it on every JVM of the pool in order
/// (the first crash ends the verdict), then compare observable output.
fn assembled_differential(program: &Program, pool: &[JvmSpec], c: &mut Counters) -> Diff {
    let image = trace::span(Layer::JexecBuild, || {
        c.build_calls += 1;
        Image::build(program)
    });
    let options = RunOptions::fuzzing();
    let mut diff = Diff {
        executions: 0,
        steps: 0,
        inconclusive: false,
        bugs: Vec::new(),
    };
    let mut tier0_keys = HashSet::new();
    let mut final_keys = HashSet::new();
    let mut outputs: Vec<(String, Vec<String>)> = Vec::new();
    let mut culprits: Vec<String> = Vec::new();
    let mut crashed = false;
    for spec in pool {
        let prebuilt = trace::span(Layer::JexecBuild, || image.clone());
        let run = execute(program, Some(prebuilt), spec, &options, c);
        diff.executions += 1;
        diff.steps += run.steps;
        if image.is_ok() {
            c.oracle_tier0_runs += 1;
            tier0_keys.insert(run.tier0_key);
        }
        if let Some(key) = run.final_key {
            c.oracle_final_runs += 1;
            final_keys.insert(key);
        }
        match run.verdict {
            Verdict::CompilerCrash(report) => {
                diff.bugs.push(Sighting {
                    id: report.bug_id,
                    jvm: spec.name(),
                    is_crash: true,
                });
                crashed = true;
                break;
            }
            Verdict::Completed(o) if o.error.as_ref().is_none_or(|e| e.is_program_level()) => {
                outputs.push((spec.name(), o.observable()));
                culprits.extend(run.miscompiled_by);
            }
            _ => {}
        }
    }
    c.verdicts += 1;
    c.oracle_tier0_unique += tier0_keys.len() as u64;
    c.oracle_final_unique += final_keys.len() as u64;
    if crashed {
        return diff;
    }
    culprits.sort();
    culprits.dedup();
    if outputs.len() < 2 {
        diff.inconclusive = true;
    } else if outputs.iter().any(|(_, o)| o != &outputs[0].1) {
        let jvm = outputs[0].0.clone();
        diff.bugs = culprits
            .into_iter()
            .map(|id| Sighting {
                id,
                jvm: jvm.clone(),
                is_crash: false,
            })
            .collect();
    }
    diff
}
