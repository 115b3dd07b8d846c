//! The fuzzing loop — Algorithm 1 of the paper.
//!
//! One run takes a seed, picks a mutation point, and iterates: select a
//! mutator by weight (Eq. 1), apply it at the MP, execute the mutant with
//! all trace flags to obtain profile data, scrape the OBV, and bump the
//! chosen mutator's weight by the behaviour increment (Eq. 2 + Eq. 3).
//! The loop stops at the iteration cap or on a compiler crash.

use crate::mutators::{all_mutators, Mutation, Mutator, MutatorKind};
use crate::variant::Variant;
use jprofile::Obv;
use jvmsim::fault::MUTATOR_PANIC_MARKER;
use jvmsim::{CrashReport, FaultPlan, JvmSpec, RunOptions, Verdict};
use mjava::{Program, StmtPath};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::HashMap;

/// How mutator weights grow with observed behaviour (paper §3.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WeightScheme {
    /// Eq. 3: multiplicative bump by Δ normalized by ‖OBV_c‖ — the
    /// paper's choice, rewarding behaviour *diversity*.
    #[default]
    NormalizedDelta,
    /// The rejected alternative: weights grow by the raw sum of
    /// behaviour increases, which high-frequency behaviours dominate.
    /// Kept for the ablation experiment.
    RawSum,
}

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Maximum mutation iterations (the paper uses 50).
    pub max_iterations: usize,
    /// Which variant runs (full / no-guidance / random-MP).
    pub variant: Variant,
    /// The JVM whose profile data guides the run.
    pub guidance: JvmSpec,
    /// RNG seed — every run is deterministic given its seed.
    pub rng_seed: u64,
    /// Weight-update scheme (§3.4's Eq. 3 by default).
    pub weight_scheme: WeightScheme,
    /// Mutators excluded from selection (the supervisor's quarantine).
    pub banned: Vec<MutatorKind>,
    /// Deterministic fault injection, forwarded to every JVM execution
    /// and rolled at each mutator application (robustness testing only).
    pub fault: Option<FaultPlan>,
}

impl FuzzConfig {
    /// The paper's default configuration against a given guidance JVM.
    pub fn new(guidance: JvmSpec) -> FuzzConfig {
        FuzzConfig {
            max_iterations: 50,
            variant: Variant::Full,
            guidance,
            rng_seed: 0x4D4F_5046,
            weight_scheme: WeightScheme::NormalizedDelta,
            banned: Vec::new(),
            fault: None,
        }
    }
}

/// One iteration's bookkeeping (drives Figure 1 and the ablations).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// The mutator applied.
    pub mutator: MutatorKind,
    /// The child's OBV.
    pub obv: Obv,
    /// Δ between parent and child (Eq. 2).
    pub delta_vs_parent: f64,
    /// Δ between the original seed and this child.
    pub delta_vs_seed: f64,
}

/// The result of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The last mutant generated (`c*` in Algorithm 1).
    pub final_mutant: Program,
    /// Its mutation point.
    pub final_mp: StmtPath,
    /// Crash observed during a guidance execution, if any.
    pub crash: Option<CrashReport>,
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// The seed's OBV under the guidance JVM.
    pub seed_obv: Obv,
    /// Final mutator weights.
    pub weights: HashMap<MutatorKind, f64>,
    /// JVM executions performed.
    pub executions: u64,
    /// Total interpreter steps consumed (the simulated-time unit).
    pub steps: u64,
    /// Coverage accumulated over all guidance executions.
    pub coverage: jvmsim::CoverageMap,
    /// Children whose execution reported `InvalidProgram` (class-loading
    /// failures). Such children are discarded, never adopted as parents.
    pub build_failures: u64,
    /// Set when the *seed itself* failed to build — the round is useless
    /// and the supervisor classifies it as a build failure.
    pub seed_invalid: Option<String>,
}

impl FuzzOutcome {
    /// Δ between the seed and the final mutant — the headline metric of
    /// Figures 3 and 4.
    pub fn final_delta(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.delta_vs_seed)
    }

    /// The sequence of applied mutators.
    pub fn mutator_history(&self) -> Vec<MutatorKind> {
        self.records.iter().map(|r| r.mutator).collect()
    }
}

/// Picks a random statement of the program as mutation point.
pub fn select_mp(program: &Program, rng: &mut SmallRng) -> Option<StmtPath> {
    let paths = mjava::path::all_paths(program);
    if paths.is_empty() {
        return None;
    }
    Some(paths[rng.gen_range(0..paths.len())].clone())
}

/// The `Class::method` containing a mutation point.
fn method_of(program: &Program, mp: &StmtPath) -> Option<(String, String)> {
    let class = program.classes.get(mp.class)?;
    let method = class.methods.get(mp.method)?;
    Some((class.name.clone(), method.name.clone()))
}

fn run_options(program: &Program, mp: &StmtPath, fault: &Option<FaultPlan>) -> RunOptions {
    let mut options = RunOptions::fuzzing();
    options.compile_only = method_of(program, mp);
    options.fault = fault.clone();
    options
}

/// Weighted random selection per Eq. 1:
/// `potential(mᵢ) = wᵢ / Σⱼ wⱼ`.
///
/// Weights are clamped into `jprofile`'s finite positive range before the
/// sum, so a poisoned weight (NaN/∞ from corrupted profile data) degrades
/// to a bounded bias instead of an invalid sampling range.
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

/// Runs Algorithm 1 on one seed.
pub fn fuzz(seed: &Program, config: &FuzzConfig) -> FuzzOutcome {
    let mut rng = SmallRng::seed_from_u64(config.rng_seed);
    let mutators = all_mutators();
    let mut weights: HashMap<MutatorKind, f64> =
        MutatorKind::ALL.iter().map(|&k| (k, 1.0)).collect();

    let mut outcome = FuzzOutcome {
        final_mutant: seed.clone(),
        final_mp: StmtPath::top_level(0, 0, 0),
        crash: None,
        records: Vec::new(),
        seed_obv: Obv::zero(),
        weights: weights.clone(),
        executions: 0,
        steps: 0,
        coverage: jvmsim::CoverageMap::new(),
        build_failures: 0,
        seed_invalid: None,
    };
    let mutate = jtelemetry::span("mutate", Vec::new);
    let Some(mut mp) = select_mp(seed, &mut rng) else {
        return outcome;
    };
    drop(mutate);
    outcome.final_mp = mp.clone();

    // Execute the seed to obtain the parent's profile data.
    let seed_run = jvmsim::run_jvm(
        seed,
        &config.guidance,
        &run_options(seed, &mp, &config.fault),
    );
    outcome.executions += 1;
    outcome.steps += seed_run.steps;
    outcome.coverage.merge(&seed_run.coverage);
    let obv = jtelemetry::span("obv", Vec::new);
    let seed_obv = Obv::from_log(&seed_run.log);
    drop(obv);
    outcome.seed_obv = seed_obv;
    if let Verdict::CompilerCrash(report) = seed_run.verdict {
        // A seed that crashes the JVM is already a find.
        outcome.crash = Some(report);
        return outcome;
    }
    if let Verdict::InvalidProgram(e) = &seed_run.verdict {
        // A seed that does not build cannot be mutated meaningfully.
        outcome.seed_invalid = Some(e.to_string());
        return outcome;
    }
    let mut parent = seed.clone();
    let mut parent_obv = seed_obv;

    for iteration in 1..=config.max_iterations {
        let mutate = jtelemetry::span("mutate", Vec::new);
        if config.variant == Variant::RandomMp {
            if let Some(fresh) = select_mp(&parent, &mut rng) {
                mp = fresh;
            }
        }
        // Applicable mutators at the MP (paper §3.3), minus any the
        // supervisor has quarantined for this seed.
        let mut candidates: Vec<usize> = (0..mutators.len())
            .filter(|&i| !config.banned.contains(&mutators[i].kind()))
            .filter(|&i| mutators[i].is_applicable(&parent, &mp))
            .collect();
        let mutation: Option<(usize, Mutation)> = loop {
            if candidates.is_empty() {
                break None;
            }
            let pick = if config.variant == Variant::Full {
                select_weighted(&candidates, &weights, &mutators, &mut rng)
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            match mutators[pick].apply(&parent, &mp, &mut rng) {
                Some(m) => break Some((pick, m)),
                None => candidates.retain(|&i| i != pick),
            }
        };
        let Some((pick, mutation)) = mutation else {
            break;
        };
        drop(mutate);
        let kind = mutators[pick].kind();
        if jtelemetry::enabled() {
            jtelemetry::count(jtelemetry::Counter::MutationsApplied, 1);
            // Recorded before the (possibly fault-injected) child execution
            // so a panic mid-iteration still names the responsible mutator.
            jtelemetry::flight(
                jtelemetry::FlightKind::Mutator,
                format!("{kind:?}"),
                format!("iteration {iteration}"),
            );
        }
        if let Some(plan) = &config.fault {
            if plan.mutator_fault(config.rng_seed, iteration, &format!("{kind:?}")) {
                panic!("{MUTATOR_PANIC_MARKER}:{kind:?}: injected mutator panic");
            }
        }

        let child_run = jvmsim::run_jvm(
            &mutation.program,
            &config.guidance,
            &run_options(&mutation.program, &mutation.mp, &config.fault),
        );
        outcome.executions += 1;
        outcome.steps += child_run.steps;
        outcome.coverage.merge(&child_run.coverage);
        if matches!(child_run.verdict, Verdict::InvalidProgram(_)) {
            // The child failed class loading: discard it. The previous
            // parent (and MP) stay in place, so later iterations keep
            // mutating a program that actually builds.
            outcome.build_failures += 1;
            if jtelemetry::enabled() {
                jtelemetry::count(jtelemetry::Counter::MutantsRejected, 1);
                jtelemetry::mutator_outcome(&format!("{kind:?}"), false, 0.0);
            }
            continue;
        }
        let obv = jtelemetry::span("obv", Vec::new);
        let child_obv = Obv::from_log(&child_run.log);
        let delta = Obv::delta(&parent_obv, &child_obv);
        if jtelemetry::enabled() {
            jtelemetry::count(jtelemetry::Counter::MutantsAccepted, 1);
            jtelemetry::mutator_outcome(&format!("{kind:?}"), true, delta);
        }
        outcome.records.push(IterationRecord {
            iteration,
            mutator: kind,
            obv: child_obv,
            delta_vs_parent: delta,
            delta_vs_seed: Obv::delta(&seed_obv, &child_obv),
        });
        if config.variant == Variant::Full {
            let w = weights.get_mut(&kind).expect("all kinds present");
            *w = match config.weight_scheme {
                WeightScheme::NormalizedDelta => jprofile::update_weight(*w, delta, &child_obv),
                WeightScheme::RawSum => {
                    jprofile::update_weight_raw_sum(*w, &parent_obv, &child_obv)
                }
            };
        }
        drop(obv);
        outcome.final_mutant = mutation.program.clone();
        outcome.final_mp = mutation.mp.clone();
        if let Verdict::CompilerCrash(report) = child_run.verdict {
            outcome.crash = Some(report);
            break;
        }
        parent = mutation.program;
        mp = mutation.mp;
        parent_obv = child_obv;
    }
    outcome.weights = weights;
    outcome
}

// Round workers move fuzzing state across the shared pool's threads.
// Guidance executions inside `fuzz` are inherently sequential (iteration
// N+1 mutates iteration N's survivor), so only the round-level types need
// to cross threads — assert they stay `Send` at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FuzzConfig>();
    assert_send::<FuzzOutcome>();
    assert_send::<crate::Seed>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn guidance() -> JvmSpec {
        jvmsim::JvmSpec::hotspur(jvmsim::Version::V17).without_bugs()
    }

    fn config(seed: u64) -> FuzzConfig {
        FuzzConfig {
            max_iterations: 8,
            variant: Variant::Full,
            rng_seed: seed,
            ..FuzzConfig::new(guidance())
        }
    }

    #[test]
    fn fuzzing_is_deterministic() {
        let seed = mjava::samples::listing2().program;
        let a = fuzz(&seed, &config(7));
        let b = fuzz(&seed, &config(7));
        assert_eq!(a.final_mutant, b.final_mutant);
        assert_eq!(a.mutator_history(), b.mutator_history());
        assert_eq!(a.final_delta(), b.final_delta());
    }

    #[test]
    fn different_rng_seeds_diverge() {
        let seed = mjava::samples::listing2().program;
        let a = fuzz(&seed, &config(1));
        let b = fuzz(&seed, &config(2));
        assert_ne!(
            (a.mutator_history(), a.final_mutant),
            (b.mutator_history(), b.final_mutant)
        );
    }

    #[test]
    fn iterations_accumulate_behaviour() {
        let seed = mjava::samples::sync_counter().program;
        let out = fuzz(&seed, &config(3));
        assert!(!out.records.is_empty());
        assert!(out.final_delta() > 0.0, "no behaviour increment at all");
        // Executions: 1 seed + 1 per completed iteration.
        assert_eq!(out.executions, out.records.len() as u64 + 1);
    }

    #[test]
    fn guidance_grows_weights_only_in_full_variant() {
        let seed = mjava::samples::listing2().program;
        let full = fuzz(&seed, &config(5));
        let grew = full.weights.values().any(|&w| w > 1.0);
        assert!(grew, "full variant should bump weights: {:?}", full.weights);

        let mut cfg = config(5);
        cfg.variant = Variant::NoGuidance;
        let unguided = fuzz(&seed, &cfg);
        assert!(
            unguided.weights.values().all(|&w| (w - 1.0).abs() < 1e-12),
            "no-guidance variant must not touch weights"
        );
    }

    #[test]
    fn raw_sum_scheme_is_selectable_and_diverges() {
        let seed = mjava::samples::listing2().program;
        let mut cfg = config(5);
        cfg.max_iterations = 10;
        cfg.weight_scheme = crate::fuzzer::WeightScheme::RawSum;
        let raw = fuzz(&seed, &cfg);
        cfg.weight_scheme = crate::fuzzer::WeightScheme::NormalizedDelta;
        let eq3 = fuzz(&seed, &cfg);
        // Same RNG seed, different weight dynamics → the selection
        // sequences eventually diverge (weights feed Eq. 1).
        assert_ne!(raw.weights, eq3.weights);
    }

    #[test]
    fn mutants_stay_valid_programs() {
        let seed = mjava::samples::boxing_mix().program;
        let out = fuzz(&seed, &config(11));
        let printed = mjava::print(&out.final_mutant);
        let reparsed = mjava::parse(&printed).expect("final mutant must reparse");
        assert_eq!(reparsed, out.final_mutant);
    }

    #[test]
    fn invalid_seed_short_circuits() {
        // Every execution (including the seed's) reports a class-loading
        // failure: the run is useless and must say so instead of mutating.
        let seed = mjava::samples::listing2().program;
        let mut cfg = config(1);
        cfg.fault = Some(jvmsim::FaultPlan::new(0, 1.0).with_only(jvmsim::VmFault::BuildFailure));
        let out = fuzz(&seed, &cfg);
        assert!(out.seed_invalid.is_some());
        assert_eq!(out.executions, 1);
        assert!(out.records.is_empty());
        assert_eq!(out.final_mutant, seed);
    }

    /// Regression test for the invalid-parent bug: a child whose execution
    /// reports `InvalidProgram` used to be adopted as the next parent (and
    /// as `final_mutant`) with a zeroed OBV. Discarded children must leave
    /// no record and the accounting identity must hold.
    #[test]
    fn invalid_children_are_discarded_not_adopted() {
        let seed = mjava::samples::listing2().program;
        let guidance = guidance();
        let printed = mjava::print(&seed);
        // Find a plan that spares the seed program itself but fails the
        // build of ~80% of mutated children.
        let plan = (0..1000u64)
            .map(|s| jvmsim::FaultPlan::new(s, 0.8).with_only(jvmsim::VmFault::BuildFailure))
            .find(|p| p.vm_fault(&guidance.name(), &printed).is_none())
            .expect("some plan spares the seed");
        let mut cfg = config(17);
        cfg.max_iterations = 12;
        cfg.fault = Some(plan);
        let out = fuzz(&seed, &cfg);
        assert!(out.seed_invalid.is_none());
        assert!(out.build_failures > 0, "faults at 80% must hit some child");
        // One seed execution + one per recorded child + one per discard.
        assert_eq!(
            out.executions,
            1 + out.records.len() as u64 + out.build_failures
        );
        // The surviving final mutant is a program that actually builds.
        assert!(jexec::Image::build(&out.final_mutant).is_ok());
        // Discarding is deterministic.
        let again = fuzz(&seed, &cfg);
        assert_eq!(again.build_failures, out.build_failures);
        assert_eq!(again.final_mutant, out.final_mutant);
        assert_eq!(again.mutator_history(), out.mutator_history());
    }

    #[test]
    fn banned_mutators_are_never_selected() {
        let seed = mjava::samples::listing2().program;
        let mut cfg = config(5);
        cfg.max_iterations = 10;
        let baseline = fuzz(&seed, &cfg);
        let used: Vec<MutatorKind> = baseline.mutator_history();
        assert!(!used.is_empty());
        // Ban everything the baseline used; the run must avoid all of it.
        cfg.banned = used.clone();
        let restricted = fuzz(&seed, &cfg);
        for kind in restricted.mutator_history() {
            assert!(!used.contains(&kind), "banned mutator {kind:?} selected");
        }
    }

    #[test]
    fn poisoned_weights_do_not_break_selection() {
        // select_weighted must tolerate NaN/∞ weights (e.g. scraped from
        // corrupted profile logs) without panicking in gen_range.
        let mutators = all_mutators();
        let mut weights: HashMap<MutatorKind, f64> =
            MutatorKind::ALL.iter().map(|&k| (k, 1.0)).collect();
        weights.insert(MutatorKind::LoopUnrolling, f64::NAN);
        weights.insert(MutatorKind::Inlining, f64::INFINITY);
        weights.insert(MutatorKind::Deoptimization, -7.0);
        let candidates: Vec<usize> = (0..mutators.len()).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let pick = select_weighted(&candidates, &weights, &mutators, &mut rng);
            assert!(pick < mutators.len());
        }
    }

    #[test]
    fn random_mp_variant_moves_the_point() {
        let seed = mjava::samples::field_state().program;
        let mut cfg = config(13);
        cfg.variant = Variant::RandomMp;
        cfg.max_iterations = 6;
        let out = fuzz(&seed, &cfg);
        assert!(!out.records.is_empty());
    }
}
