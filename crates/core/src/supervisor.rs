//! Fault-isolated campaign supervisor.
//!
//! [`crate::campaign::run_campaign`] delegates every round to this module,
//! which wraps the round body (mutator applications, guidance executions,
//! differential testing) in a panic boundary and turns failures into data
//! instead of aborts:
//!
//! * **Panic containment** — a panicking mutator or simulated VM is caught
//!   with `catch_unwind` and classified into the [`RoundError`] taxonomy
//!   by its payload marker ([`jvmsim::fault`] panics are marked; anything
//!   unmarked is attributed to the VM execution layer, which dominates the
//!   round's code).
//! * **Bounded retry** — a faulted round is retried with a re-derived RNG
//!   seed up to [`SupervisorConfig::max_retries`] times; faulted attempts
//!   contribute nothing to the campaign totals (rounds are atomic).
//! * **Quarantine** — a `(seed, mutator)` pair that keeps faulting is
//!   banned from future rounds; a seed that faults without an attributable
//!   mutator is quarantined whole and its rounds are skipped.
//! * **Budgets** — campaign-wide step/execution ceilings stop the campaign
//!   gracefully, and a per-round step deadline fails runaway rounds.
//! * **Checkpointing** — when a journal is attached, every round's record
//!   is appended as one JSONL line; [`crate::campaign::resume_campaign`]
//!   replays the records through the same [`apply_record`] code path the
//!   live campaign uses, so a resumed campaign is bit-identical to an
//!   uninterrupted one.

use crate::campaign::{component_of_miscompile, CampaignConfig, CampaignResult, FoundBug};
use crate::corpus::Seed;
use crate::fuzzer::{fuzz, FuzzConfig};
use crate::journal::{
    BugSighting, Disposition, JournalWriter, PromotionReason, PromotionRecord, RoundRecord,
};
use crate::mutators::MutatorKind;
use crate::oracle::{differential, OracleVerdict};
use crate::pool;
use jprofile::Obv;
use jvmsim::fault::{MUTATOR_PANIC_MARKER, VM_PANIC_MARKER};
use jvmsim::{run_jvm, Component, JvmSpec, RunOptions, Verdict};
use mjava::Program;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{mpsc, Arc};

/// Which budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// One round exceeded [`SupervisorConfig::round_step_deadline`].
    RoundSteps,
    /// The campaign exceeded [`SupervisorConfig::max_steps`].
    CampaignSteps,
    /// The campaign exceeded [`SupervisorConfig::max_executions`].
    CampaignExecutions,
}

/// Why a round attempt (or the campaign) failed — the supervisor's fault
/// taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundError {
    /// A mutator panicked while generating a child. When the panic payload
    /// names the mutator (injected faults do), it is attributed.
    MutatorPanic {
        /// The offending mutator, when attributable from the payload.
        mutator: Option<MutatorKind>,
        /// The panic message.
        message: String,
    },
    /// A simulated JVM panicked mid-execution (also the fallback class for
    /// unmarked panics, which overwhelmingly originate in VM code).
    VmPanic {
        /// The panic message.
        message: String,
    },
    /// The round's seed failed class loading, so nothing could be fuzzed.
    BuildFailure {
        /// The build error.
        message: String,
    },
    /// A step or execution budget was exhausted.
    BudgetExhausted {
        /// Which budget.
        budget: BudgetKind,
        /// The configured limit.
        limit: u64,
        /// The observed value.
        used: u64,
    },
    /// The attempt exceeded [`SupervisorConfig::round_wall_timeout_ms`]
    /// and was cancelled by the watchdog. Carries only the *configured*
    /// limit — never the elapsed time — so journals stay bit-identical
    /// across machines and worker counts.
    Timeout {
        /// The configured wall-clock limit in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for RoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundError::MutatorPanic {
                mutator: Some(k), ..
            } => {
                write!(f, "mutator panic in {k:?}")
            }
            RoundError::MutatorPanic { mutator: None, .. } => write!(f, "mutator panic"),
            RoundError::VmPanic { message } => write!(f, "VM panic: {message}"),
            RoundError::BuildFailure { message } => write!(f, "build failure: {message}"),
            RoundError::BudgetExhausted {
                budget,
                limit,
                used,
            } => {
                write!(f, "budget exhausted ({budget:?}): {used} > {limit}")
            }
            RoundError::Timeout { limit_ms } => {
                write!(
                    f,
                    "round timeout: exceeded the {limit_ms} ms wall-clock limit"
                )
            }
        }
    }
}

/// One recorded failure: which round, which attempt, what went wrong.
#[derive(Debug, Clone)]
pub struct RoundFailure {
    /// The round index.
    pub round: usize,
    /// The attempt within the round (0 = first try).
    pub attempt: u32,
    /// The classified error.
    pub error: RoundError,
    /// Flight-recorder dump of the failed attempt (most recent events
    /// first-to-last), naming the phases/mutators/VMs active when the
    /// attempt died. Empty when telemetry is disabled.
    pub flight: Vec<jtelemetry::FlightEvent>,
}

/// Equality ignores the flight dump: it is diagnostic context, not part
/// of a failure's identity. A campaign run with telemetry on must compare
/// equal to the same campaign run with telemetry off (and to its own
/// journal replay, whatever the replaying process's telemetry state).
impl PartialEq for RoundFailure {
    fn eq(&self, other: &RoundFailure) -> bool {
        self.round == other.round && self.attempt == other.attempt && self.error == other.error
    }
}

/// Fault-handling policy of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retries after a faulted round attempt (each with a fresh RNG seed).
    pub max_retries: u32,
    /// Failed rounds a `(seed, mutator)` pair may accumulate before it is
    /// quarantined.
    pub quarantine_threshold: u32,
    /// Campaign-wide interpreter-step ceiling (simulated time budget).
    pub max_steps: Option<u64>,
    /// Campaign-wide JVM-execution ceiling.
    pub max_executions: Option<u64>,
    /// Per-round step deadline; rounds exceeding it are treated as faults.
    pub round_step_deadline: Option<u64>,
    /// Wall-clock limit per round attempt, in milliseconds. A watchdog
    /// cancels attempts that exceed it; the cancelled attempt is classified
    /// as [`RoundError::Timeout`] and retried/quarantined like any fault.
    pub round_wall_timeout_ms: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 2,
            quarantine_threshold: 2,
            max_steps: None,
            max_executions: None,
            round_step_deadline: None,
            round_wall_timeout_ms: None,
        }
    }
}

/// Repeat-offender bookkeeping. Keys are `(seed name, Some(mutator))` for
/// attributable faults and `(seed name, None)` for faults of the seed as a
/// whole (build failures, unattributed panics).
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    counts: HashMap<(String, Option<MutatorKind>), u32>,
    quarantined: Vec<(String, Option<MutatorKind>)>,
}

impl Quarantine {
    /// Records one failed round for a pair. Returns true when this failure
    /// pushes the pair over the threshold (it is newly quarantined).
    pub fn record(&mut self, threshold: u32, seed: &str, mutator: Option<MutatorKind>) -> bool {
        let key = (seed.to_string(), mutator);
        let count = self.counts.entry(key.clone()).or_insert(0);
        *count += 1;
        if *count >= threshold.max(1) && !self.quarantined.contains(&key) {
            self.quarantined.push(key);
            return true;
        }
        false
    }

    /// Mutators banned for a seed.
    pub fn banned_mutators(&self, seed: &str) -> Vec<MutatorKind> {
        self.quarantined
            .iter()
            .filter(|(s, m)| s == seed && m.is_some())
            .filter_map(|(_, m)| *m)
            .collect()
    }

    /// True when the seed itself (not just one mutator) is quarantined, so
    /// its rounds must be skipped entirely.
    pub fn seed_blocked(&self, seed: &str) -> bool {
        self.quarantined
            .iter()
            .any(|(s, m)| s == seed && m.is_none())
    }

    /// All quarantined pairs in quarantine order.
    pub fn pairs(&self) -> &[(String, Option<MutatorKind>)] {
        &self.quarantined
    }

    /// Seeds the quarantine with pairs inherited from earlier campaigns
    /// (corpus mode). Preloaded pairs ban immediately but are never
    /// re-reported in [`CampaignResult::quarantined`] — `record` skips
    /// pairs already present.
    pub fn preload(&mut self, pairs: &[(String, Option<MutatorKind>)]) {
        for pair in pairs {
            if !self.quarantined.contains(pair) {
                self.quarantined.push(pair.clone());
            }
        }
    }
}

/// Corpus-mode state threaded through the supervised loop: the scheduler
/// replaces round-robin seed rotation, promotions admit minimized mutants
/// back into the store, and fingerprints keep admission idempotent. All of
/// it is derived from journal-visible data (header baseline + round
/// records), never from the live store, so journal replay reconstructs the
/// exact same state.
pub(crate) struct CorpusCtx<'a> {
    /// The backing store (mutated in memory; flushed by the campaign).
    pub store: &'a mut jcorpus::Store,
    /// Power scheduler over the campaign's entries.
    pub scheduler: jcorpus::PowerScheduler,
    /// Entry name → program, for scheduled rounds and promotion oracles.
    pub programs: HashMap<String, Program>,
    /// Every fingerprint known to this campaign (baseline + promotions).
    pub fingerprints: HashSet<u64>,
    /// OBV-delta threshold for promotion.
    pub promote_threshold: f64,
    /// Quarantine pairs inherited from earlier campaigns over the store.
    pub preq: Vec<(String, Option<MutatorKind>)>,
    /// Entry name → floor streak at campaign start (journal baseline), the
    /// base the post-campaign flush counts GC streaks from.
    pub baseline_streaks: HashMap<String, u64>,
}

/// Runs `f` inside a panic boundary (see [`pool::quiet_catch_unwind`]:
/// contained panics stay silent on this thread while panics elsewhere
/// keep reporting normally) and classifies the payload.
fn catch_round<T>(f: impl FnOnce() -> T) -> Result<T, RoundError> {
    pool::quiet_catch_unwind(f).map_err(|payload| classify_panic(payload.as_ref()))
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Maps a caught panic payload onto the taxonomy via the fault markers.
fn classify_panic(payload: &(dyn Any + Send)) -> RoundError {
    let message = panic_message(payload);
    if message.starts_with(jtelemetry::cancel::TIMEOUT_PANIC_MARKER) {
        // The configured limit is patched in by `execute_round`; the
        // classifier sees only the panic payload.
        return RoundError::Timeout { limit_ms: 0 };
    }
    if let Some(rest) = message.strip_prefix(MUTATOR_PANIC_MARKER) {
        let name = rest.trim_start_matches(':').split(':').next().unwrap_or("");
        return RoundError::MutatorPanic {
            mutator: MutatorKind::from_debug_name(name),
            message,
        };
    }
    // VM_PANIC_MARKER panics and unmarked panics both land here: the VM
    // execution layer is where a round spends nearly all of its time.
    let _ = VM_PANIC_MARKER;
    RoundError::VmPanic { message }
}

/// The RNG seed of `(round, attempt)`. Attempt 0 reproduces the original
/// unsupervised derivation, so fault-free campaigns are unchanged; each
/// retry re-derives, giving the round a genuinely different trajectory.
fn round_rng_seed(base: u64, round: usize, attempt: u32) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
        .wrapping_add((attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Folds one round record into the campaign result. Both the live path
/// and journal replay go through this function — that shared path is what
/// makes resumption bit-identical.
pub(crate) fn apply_record(
    result: &mut CampaignResult,
    seen: &mut HashSet<String>,
    quarantine: &mut Quarantine,
    record: &RoundRecord,
    threshold: u32,
    mut corpus: Option<&mut CorpusCtx>,
) {
    result.round_errors.extend(record.errors.iter().cloned());
    result.wasted_steps += record.wasted_steps;
    result.wasted_execs += record.wasted_execs;
    match record.disposition {
        Disposition::Skipped => {
            result.skipped_rounds += 1;
            jtelemetry::count(jtelemetry::Counter::RoundsSkipped, 1);
        }
        Disposition::Errored => {
            // The final attempt was not retried; every earlier one was.
            let retries = record.errors.len().saturating_sub(1) as u64;
            result.retried_attempts += retries;
            result.errored_rounds += 1;
            jtelemetry::count(jtelemetry::Counter::RoundsErrored, 1);
            jtelemetry::count(jtelemetry::Counter::RetriedAttempts, retries);
            if let Some((seed, mutator)) = &record.fault_pair {
                if quarantine.record(threshold, seed, *mutator) {
                    result.quarantined.push((seed.clone(), *mutator));
                }
            }
            if let Some(ctx) = corpus.as_deref_mut() {
                ctx.scheduler.record_fault(&record.seed);
                if quarantine.seed_blocked(&record.seed) {
                    ctx.scheduler.block(&record.seed);
                }
            }
        }
        Disposition::Ok => {
            result.retried_attempts += record.errors.len() as u64;
            jtelemetry::count(jtelemetry::Counter::RoundsOk, 1);
            jtelemetry::count(
                jtelemetry::Counter::RetriedAttempts,
                record.errors.len() as u64,
            );
            result.executions += record.fuzz_execs;
            result.steps += record.fuzz_steps;
            result.coverage.merge(&record.coverage);
            result.final_deltas.push(record.final_delta);
            if let Some(sighting) = &record.crash {
                push_bug(result, seen, sighting, &record.seed);
            }
            if let Some((execs, steps)) = record.diff {
                result.executions += execs;
                result.steps += steps;
            }
            for sighting in &record.diff_bugs {
                push_bug(result, seen, sighting, &record.seed);
            }
            if record.inconclusive {
                result.inconclusive_rounds += 1;
            }
            if let Some(ctx) = corpus.as_deref_mut() {
                let bugs = record.crash.iter().count() as u64 + record.diff_bugs.len() as u64;
                ctx.scheduler
                    .record_ok(&record.seed, record.final_delta, bugs);
            }
        }
    }
    // Promotion accounting is shared by live and replay: the record carries
    // the minimized program and its cost, so replay re-admits without
    // re-reducing.
    if let Some(promo) = &record.promotion {
        result.executions += promo.execs;
        result.steps += promo.steps;
        result.promotions.push(promo.name.clone());
        if let Some(ctx) = corpus {
            ctx.fingerprints.insert(promo.fingerprint);
            ctx.programs
                .insert(promo.name.clone(), promo.source.clone());
            ctx.scheduler
                .admit(&promo.name, jcorpus::EntryStats::default(), false);
            let _ = ctx.store.admit(
                &promo.name,
                &promo.source,
                promo.fingerprint,
                jcorpus::Provenance::Promoted,
                Some(promo.from_seed.clone()),
            );
        }
    }
}

fn push_bug(
    result: &mut CampaignResult,
    seen: &mut HashSet<String>,
    sighting: &BugSighting,
    seed: &str,
) {
    if seen.insert(sighting.id.clone()) {
        result.bugs.push(FoundBug {
            id: sighting.id.clone(),
            component: sighting.component,
            is_crash: sighting.is_crash,
            jvm: sighting.jvm.clone(),
            seed: seed.to_string(),
            mutators: sighting.mutators.clone(),
            at_execs: result.executions,
            at_steps: result.steps,
            mutant: sighting.mutant.clone(),
        });
    }
}

fn budget_stop(
    result: &CampaignResult,
    supervisor: &SupervisorConfig,
    round: usize,
) -> Option<RoundFailure> {
    let stop = |budget, limit, used| {
        Some(RoundFailure {
            round,
            attempt: 0,
            error: RoundError::BudgetExhausted {
                budget,
                limit,
                used,
            },
            flight: Vec::new(),
        })
    };
    // Budgets meter *all* simulated work, productive and wasted alike: a
    // campaign that burns its step ceiling on doomed retries must stop
    // just as surely as one that spends it productively.
    if let Some(limit) = supervisor.max_steps {
        let used = result.steps + result.wasted_steps;
        if used >= limit {
            return stop(BudgetKind::CampaignSteps, limit, used);
        }
    }
    if let Some(limit) = supervisor.max_executions {
        let used = result.executions + result.wasted_execs;
        if used >= limit {
            return stop(BudgetKind::CampaignExecutions, limit, used);
        }
    }
    None
}

/// One isolated attempt at a round: fuzz, oracle-check, and classify.
/// Everything computed here is local — the campaign result is only touched
/// by [`apply_record`] once the attempt as a whole has succeeded. Returns
/// the record plus the final mutant (for promotion; not journaled per se).
fn run_attempt(
    round: usize,
    seed: &Seed,
    guidance: &JvmSpec,
    config: &CampaignConfig,
    banned: &[MutatorKind],
    rng_seed: u64,
) -> Result<(RoundRecord, Program), RoundError> {
    let fuzz_config = FuzzConfig {
        max_iterations: config.iterations_per_seed,
        variant: config.variant,
        guidance: guidance.clone(),
        rng_seed,
        weight_scheme: Default::default(),
        banned: banned.to_vec(),
        fault: config.fault.clone(),
    };
    let (record, mutant) = catch_round(|| {
        let outcome = {
            let _fuzz_span = jtelemetry::span("fuzz", || {
                vec![("seed", seed.name.clone()), ("guidance", guidance.name())]
            });
            fuzz(&seed.program, &fuzz_config)
        };
        if let Some(message) = &outcome.seed_invalid {
            return Err(RoundError::BuildFailure {
                message: message.clone(),
            });
        }
        let mut record = RoundRecord {
            round,
            seed: seed.name.clone(),
            disposition: Disposition::Ok,
            fuzz_execs: outcome.executions,
            fuzz_steps: outcome.steps,
            diff: None,
            final_delta: outcome.final_delta(),
            inconclusive: false,
            errors: Vec::new(),
            crash: None,
            diff_bugs: Vec::new(),
            coverage: outcome.coverage.clone(),
            fault_pair: None,
            wasted_steps: 0,
            wasted_execs: 0,
            promotion: None,
        };
        if let Some(report) = &outcome.crash {
            record.crash = Some(BugSighting {
                id: report.bug_id.clone(),
                component: report.component,
                is_crash: true,
                jvm: guidance.name(),
                mutators: outcome.mutator_history(),
                mutant: outcome.final_mutant.clone(),
            });
            return Ok((record, outcome.final_mutant));
        }
        let options = RunOptions {
            fault: config.fault.clone(),
            ..RunOptions::fuzzing()
        };
        let diff = {
            let _diff_span = jtelemetry::span("differential", || {
                vec![("pool", config.pool.len().to_string())]
            });
            differential(&outcome.final_mutant, &config.pool, &options)
        };
        record.diff = Some((diff.executions, diff.steps));
        record.coverage.merge(&diff.coverage);
        match diff.verdict {
            OracleVerdict::Crash { jvm, report } => record.diff_bugs.push(BugSighting {
                id: report.bug_id.clone(),
                component: report.component,
                is_crash: true,
                jvm,
                mutators: outcome.mutator_history(),
                mutant: outcome.final_mutant.clone(),
            }),
            OracleVerdict::Miscompile { outputs, culprits } => {
                for id in culprits {
                    let component = component_of_miscompile(&id).unwrap_or(Component::OtherJit);
                    record.diff_bugs.push(BugSighting {
                        id,
                        component,
                        is_crash: false,
                        jvm: outputs.first().map(|(j, _)| j.clone()).unwrap_or_default(),
                        mutators: outcome.mutator_history(),
                        mutant: outcome.final_mutant.clone(),
                    });
                }
            }
            OracleVerdict::Inconclusive(_) => record.inconclusive = true,
            OracleVerdict::Pass => {}
        }
        Ok((record, outcome.final_mutant))
    })??;
    if let Some(deadline) = config.supervisor.round_step_deadline {
        let used = record.fuzz_steps + record.diff.map_or(0, |(_, s)| s);
        if used > deadline {
            return Err(RoundError::BudgetExhausted {
                budget: BudgetKind::RoundSteps,
                limit: deadline,
                used,
            });
        }
    }
    Ok((record, mutant))
}

/// Runs one round under supervision: skip if quarantined, otherwise
/// attempt with bounded retries and produce the round's record (plus the
/// final mutant of an `Ok` round, for promotion consideration).
///
/// `skip` and `banned` are passed as data rather than read from a
/// [`Quarantine`] so the round is a pure function of its inputs — workers
/// execute it speculatively on snapshots and the coordinator validates the
/// snapshot afterwards (see [`Speculation`]).
fn execute_round(
    round: usize,
    seed: &Seed,
    config: &CampaignConfig,
    skip: bool,
    banned: &[MutatorKind],
) -> (RoundRecord, Option<Program>) {
    let skeleton = |disposition| RoundRecord {
        round,
        seed: seed.name.clone(),
        disposition,
        fuzz_execs: 0,
        fuzz_steps: 0,
        diff: None,
        final_delta: 0.0,
        inconclusive: false,
        errors: Vec::new(),
        crash: None,
        diff_bugs: Vec::new(),
        coverage: jvmsim::CoverageMap::new(),
        fault_pair: None,
        wasted_steps: 0,
        wasted_execs: 0,
        promotion: None,
    };
    // Trace identity: one root span per round; attempts nest under it.
    // Skipped rounds still get a (zero-duration) root so the trace
    // accounts for every scheduled round.
    let _round_span = jtelemetry::span("round", || {
        vec![
            ("round", round.to_string()),
            ("seed", seed.name.clone()),
            ("skip", skip.to_string()),
        ]
    });
    if skip {
        return (skeleton(Disposition::Skipped), None);
    }
    let guidance = config.pool[round % config.pool.len()].clone();
    let mut errors: Vec<RoundFailure> = Vec::new();
    // Work done by attempts that fault is "wasted": it never reaches the
    // campaign totals through the record's productive fields, but it did
    // burn simulated time, so it is measured via work-meter deltas (which
    // advance even when the attempt dies by panic) and carried on the
    // record. Both budgets and telemetry see it.
    let mut wasted_steps = 0u64;
    let mut wasted_execs = 0u64;
    for attempt in 0..=config.supervisor.max_retries {
        let rng_seed = round_rng_seed(config.rng_seed, round, attempt);
        jtelemetry::flight_reset();
        jtelemetry::flight(
            jtelemetry::FlightKind::Round,
            "attempt",
            format!("round {round} attempt {attempt} seed {}", seed.name),
        );
        let _attempt_span = jtelemetry::span("attempt", || {
            vec![
                ("attempt", attempt.to_string()),
                ("rng_seed", format!("{rng_seed:#x}")),
            ]
        });
        let (steps_before, execs_before) = jtelemetry::work::totals();
        // Hang containment: each attempt gets a fresh cancellation token,
        // installed on this thread and armed on the wall-clock watchdog. Both guards drop
        // at the end of the iteration, so a retry starts clean.
        let cancel = jtelemetry::cancel::CancelToken::new();
        let _cancel_guard = jtelemetry::cancel::install(&cancel);
        let _watchdog = config
            .supervisor
            .round_wall_timeout_ms
            .map(|ms| crate::watchdog::arm(cancel.clone(), std::time::Duration::from_millis(ms)));
        match run_attempt(round, seed, &guidance, config, banned, rng_seed) {
            Ok((mut record, mutant)) => {
                record.errors = errors;
                record.wasted_steps = wasted_steps;
                record.wasted_execs = wasted_execs;
                return (record, Some(mutant));
            }
            Err(mut error) => {
                if let RoundError::Timeout { limit_ms } = &mut error {
                    // Record the configured limit (journal-stable), never
                    // the elapsed time.
                    *limit_ms = config.supervisor.round_wall_timeout_ms.unwrap_or(0);
                    jtelemetry::count(jtelemetry::Counter::RoundsTimedOut, 1);
                }
                let (steps_after, execs_after) = jtelemetry::work::totals();
                wasted_steps += steps_after - steps_before;
                wasted_execs += execs_after - execs_before;
                errors.push(RoundFailure {
                    round,
                    attempt,
                    error,
                    flight: jtelemetry::flight_snapshot(),
                });
            }
        }
    }
    // Every attempt faulted: attribute the fault for quarantine purposes.
    let mutator = errors.iter().find_map(|f| match &f.error {
        RoundError::MutatorPanic {
            mutator: Some(k), ..
        } => Some(*k),
        _ => None,
    });
    let mut record = skeleton(Disposition::Errored);
    record.errors = errors;
    record.fault_pair = Some((seed.name.clone(), mutator));
    record.wasted_steps = wasted_steps;
    record.wasted_execs = wasted_execs;
    (record, None)
}

/// Decides whether an `Ok` round's final mutant earns promotion, and if so
/// minimizes it with jreduce and fingerprints the result. Reads `ctx`
/// only (admission happens in [`apply_record`], the shared live/replay
/// path); all oracle runs are fault-free and deterministic.
/// `seed_program` is the program the round fuzzed.
fn consider_promotion(
    record: &RoundRecord,
    mutant: &Program,
    seed_program: &Program,
    ctx: &CorpusCtx,
    config: &CampaignConfig,
) -> Option<PromotionRecord> {
    let promote_threshold = ctx.promote_threshold;
    let reason = if let Some(crash) = &record.crash {
        PromotionReason::Bug(crash.id.clone())
    } else if let Some(bug) = record.diff_bugs.first() {
        PromotionReason::Bug(bug.id.clone())
    } else if record.final_delta >= promote_threshold {
        PromotionReason::Delta(record.final_delta)
    } else {
        return None;
    };
    let mut execs = 0u64;
    let mut steps = 0u64;
    let options = RunOptions::fuzzing();
    let reduce = jtelemetry::span("reduce", Vec::new);
    let reduced = match &reason {
        PromotionReason::Bug(id) => {
            let sighting = record.crash.as_ref().or_else(|| record.diff_bugs.first())?;
            let spec = JvmSpec::from_name(&sighting.jvm).ok()?;
            let is_crash = sighting.is_crash;
            let mut oracle = |p: &Program| {
                let run = run_jvm(p, &spec, &options);
                execs += 1;
                steps += run.steps;
                if is_crash {
                    matches!(&run.verdict, Verdict::CompilerCrash(c) if c.bug_id == *id)
                } else {
                    // Miscompilation: the simulator's ground-truth label
                    // stands in for re-running the differential pool.
                    run.miscompiled_by.contains(id)
                }
            };
            jreduce::reduce(mutant, &mut oracle).0
        }
        PromotionReason::Delta(_) => {
            let guidance = &config.pool[record.round % config.pool.len()];
            let seed_run = run_jvm(seed_program, guidance, &options);
            execs += 1;
            steps += seed_run.steps;
            let seed_obv = Obv::from_log(&seed_run.log);
            let threshold = promote_threshold;
            let mut oracle = |p: &Program| {
                let run = run_jvm(p, guidance, &options);
                execs += 1;
                steps += run.steps;
                matches!(run.verdict, Verdict::Completed(_))
                    && Obv::delta(&seed_obv, &Obv::from_log(&run.log)) >= threshold
            };
            jreduce::reduce(mutant, &mut oracle).0
        }
    };
    drop(reduce);
    let fp = jcorpus::fingerprint(&reduced).ok()?;
    execs += 1;
    steps += fp.steps;
    if ctx.fingerprints.contains(&fp.fingerprint) {
        return None; // behaviour already in the corpus
    }
    Some(PromotionRecord {
        name: format!("p{}", jcorpus::fingerprint_hex(fp.fingerprint)),
        fingerprint: fp.fingerprint,
        source: reduced,
        from_seed: record.seed.clone(),
        reason,
        execs,
        steps,
    })
}

/// Publishes the campaign-level gauges from the current result state.
fn update_gauges(
    result: &CampaignResult,
    rounds_done: usize,
    rounds_total: usize,
    seeds_len: usize,
    corpus: Option<&CorpusCtx>,
) {
    use jtelemetry::Gauge;
    jtelemetry::gauge(Gauge::RoundsDone, rounds_done as f64);
    jtelemetry::gauge(Gauge::RoundsTotal, rounds_total as f64);
    let corpus_size = corpus.map_or(seeds_len, |ctx| ctx.scheduler.len());
    jtelemetry::gauge(Gauge::CorpusSize, corpus_size as f64);
    jtelemetry::gauge(Gauge::QuarantineCount, result.quarantined.len() as f64);
    jtelemetry::gauge(Gauge::BugsFound, result.bugs.len() as f64);
    jtelemetry::gauge(Gauge::ProductiveSteps, result.steps as f64);
    jtelemetry::gauge(Gauge::WastedSteps, result.wasted_steps as f64);
    jtelemetry::gauge(Gauge::ProductiveExecs, result.executions as f64);
    jtelemetry::gauge(Gauge::WastedExecs, result.wasted_execs as f64);
    if let Some(ctx) = corpus {
        jtelemetry::gauge(Gauge::CorpusEnergy, ctx.scheduler.total_energy());
        jtelemetry::gauge(Gauge::PromotedEntries, result.promotions.len() as f64);
    }
}

/// The supervised campaign loop shared by [`crate::campaign::run_campaign`]
/// and [`crate::campaign::resume_campaign`]: replay any checkpointed
/// records, then execute (and journal) the remaining rounds. When an
/// observer is attached it is notified after every live round (replayed
/// rounds are not re-reported).
///
/// This is the one round loop. With `config.jobs > 1` on a plain campaign
/// a [`Speculation`] executes rounds ahead on the shared pool and hands
/// the loop a validated record; whenever it cannot, the loop executes
/// the round inline. Corpus campaigns always run inline: the power
/// scheduler's pick for round r+k reads every entry's energy after round
/// r+k−1 has merged, so speculating ahead of it mostly guesses wrong
/// (the library entry points refuse `jobs > 1` for them).
pub(crate) fn run_supervised(
    seeds: &[Seed],
    config: &CampaignConfig,
    mut writer: Option<&mut JournalWriter>,
    replay: &[RoundRecord],
    mut observer: Option<&mut dyn crate::campaign::CampaignObserver>,
    mut corpus: Option<&mut CorpusCtx>,
) -> CampaignResult {
    let mut result = CampaignResult::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut quarantine = Quarantine::default();
    if (seeds.is_empty() && corpus.is_none()) || config.pool.is_empty() {
        return result;
    }
    if let Some(ctx) = corpus.as_deref_mut() {
        // Pairs quarantined by earlier campaigns over this store stay
        // banned; blocked seeds are also removed from scheduling.
        quarantine.preload(&ctx.preq);
        for (seed, mutator) in &ctx.preq {
            if mutator.is_none() {
                ctx.scheduler.block(seed);
            }
        }
    }
    let threshold = config.supervisor.quarantine_threshold;
    for record in replay {
        apply_record(
            &mut result,
            &mut seen,
            &mut quarantine,
            record,
            threshold,
            corpus.as_deref_mut(),
        );
    }
    if jtelemetry::enabled() {
        update_gauges(
            &result,
            replay.len(),
            config.rounds,
            seeds.len(),
            corpus.as_deref(),
        );
    }
    let mut speculation =
        (config.jobs > 1 && corpus.is_none()).then(|| Speculation::new(config, replay.len()));
    for round in replay.len()..config.rounds {
        if crate::interrupt::requested() {
            // Graceful stop: everything merged so far is journaled; the
            // caller flushes and reports a resumable campaign.
            result.interrupted = true;
            break;
        }
        if let Some(ctx) = corpus.as_deref_mut() {
            refresh_external_quarantine(ctx, &mut quarantine);
        }
        if let Some(stop) = budget_stop(&result, &config.supervisor, round) {
            result.round_errors.push(stop.clone());
            result.stopped = Some(stop);
            break;
        }
        // Corpus mode replaces the fixed round-robin rotation with the
        // power scheduler: energy-weighted choice, deterministic in
        // (campaign seed, round).
        let seed = match corpus.as_deref_mut() {
            Some(ctx) => match ctx.scheduler.pick(round, config.rng_seed) {
                Some(name) => {
                    let program = ctx
                        .programs
                        .get(&name)
                        .expect("scheduled entry has a program")
                        .clone();
                    Seed { name, program }
                }
                None => break, // everything quarantined
            },
            None => seeds[round % seeds.len()].clone(),
        };
        let skip = quarantine.seed_blocked(&seed.name);
        let banned = quarantine.banned_mutators(&seed.name);
        let speculated = speculation
            .as_mut()
            .and_then(|s| s.take(round, seeds, &quarantine, skip, &banned));
        let record = match speculated {
            Some(record) => record,
            None => {
                let (mut record, mutant) = execute_round(round, &seed, config, skip, &banned);
                if let (Some(ctx), Some(mutant)) = (corpus.as_deref(), mutant.as_ref()) {
                    record.promotion =
                        consider_promotion(&record, mutant, &seed.program, ctx, config);
                }
                record
            }
        };
        if let Some(w) = writer.as_deref_mut() {
            // A failing journal must not kill the campaign it protects.
            if let Err(e) = w.write_round(&record) {
                eprintln!("warning: journal write failed: {e}");
            }
        }
        apply_record(
            &mut result,
            &mut seen,
            &mut quarantine,
            &record,
            threshold,
            corpus.as_deref_mut(),
        );
        if jtelemetry::enabled() {
            update_gauges(
                &result,
                round + 1,
                config.rounds,
                seeds.len(),
                corpus.as_deref(),
            );
        }
        if let Some(obs) = observer.as_deref_mut() {
            obs.round_finished(round, &result);
        }
    }
    // Dropping `speculation` orphans any in-flight rounds: their sends
    // fail and the results evaporate, as if never computed.
    result
}

/// Folds pairs quarantined by *concurrent* campaigns over the same store
/// into this one: the store's on-disk quarantine file (which every
/// campaign over the store appends to at its final flush) is re-read each
/// round, and new pairs are preloaded — banned immediately, never
/// re-reported in [`CampaignResult::quarantined`]. This is a live-only
/// overlay: it is not journaled, so replay/resume see only the header's
/// `preq` snapshot plus whatever the file holds at resume time. With no
/// concurrent writer the file is static and the overlay is a
/// deterministic no-op. Unknown mutator names (a store shared with a
/// newer binary) are skipped, not fatal.
fn refresh_external_quarantine(ctx: &mut CorpusCtx, quarantine: &mut Quarantine) {
    let Ok(pairs) = jcorpus::read_quarantine_dir(ctx.store.dir()) else {
        return;
    };
    let mut converted: Vec<(String, Option<MutatorKind>)> = Vec::new();
    for (seed, mutator) in pairs {
        match mutator {
            None => converted.push((seed, None)),
            Some(name) => {
                if let Some(kind) = MutatorKind::from_debug_name(&name) {
                    converted.push((seed, Some(kind)));
                }
            }
        }
    }
    quarantine.preload(&converted);
    for (seed, mutator) in &converted {
        if mutator.is_none() {
            ctx.scheduler.block(seed);
        }
    }
}

/// One speculative round execution, shipped to a worker. `skip` and
/// `banned` are snapshots of coordinator state at dispatch time; the
/// coordinator validates them against authoritative state before
/// accepting the result.
struct WorkerTask {
    round: usize,
    seed: Seed,
    skip: bool,
    banned: Vec<MutatorKind>,
    /// When set, install a fresh telemetry session of this shape (clock
    /// mode, tracing, profiling inherited from the coordinator) for this
    /// task and ship its snapshot and trace back (the coordinator's
    /// session absorbs both on acceptance).
    telemetry: Option<jtelemetry::SessionSpec>,
}

/// A speculatively executed round plus the inputs it was computed from.
/// The seed is not among them: a plain campaign's seed for round r is
/// `seeds[r % len]` at dispatch and at merge alike.
struct WorkerOutput {
    round: usize,
    skip: bool,
    banned: Vec<MutatorKind>,
    /// `None` when the task body escaped its panic boundary (a harness
    /// bug, not an injected fault — those are contained inside
    /// [`execute_round`]). Such a poisoned output never merges; the
    /// coordinator re-executes the round inline.
    record: Option<RoundRecord>,
    metrics: Option<jtelemetry::MetricsSnapshot>,
    /// Trace spans the task recorded, for in-order absorption on
    /// acceptance (empty when the coordinator is not tracing).
    trace: Vec<jtelemetry::TraceEvent>,
}

/// One speculative round execution, run as a pool job. Rounds are
/// self-contained (seed-derived RNG, per-attempt flight rebasing,
/// work-meter deltas), so executing them on any thread produces the exact
/// record a serial run would. Always sends exactly one output — even when
/// the body panics — so the coordinator never waits on a round it
/// dispatched.
fn run_worker_task(
    task: WorkerTask,
    config: &CampaignConfig,
    results: &mpsc::Sender<WorkerOutput>,
) {
    let body = pool::quiet_catch_unwind(|| {
        // Pool threads are shared across campaigns and tasks: drop any
        // session a previous occupant left behind before installing ours.
        drop(jtelemetry::take());
        if let Some(spec) = task.telemetry {
            jtelemetry::install(jtelemetry::Session::from_spec(spec));
        }
        let (record, _) = execute_round(task.round, &task.seed, config, task.skip, &task.banned);
        let (metrics, trace) = match jtelemetry::take() {
            Some(mut session) => {
                let trace = session.take_trace();
                (Some(session.snapshot()), trace)
            }
            None => (None, Vec::new()),
        };
        (record, metrics, trace)
    });
    let (record, metrics, trace) = match body {
        Ok((record, metrics, trace)) => (Some(record), metrics, trace),
        Err(_) => {
            drop(jtelemetry::take()); // don't leak a partial session
            (None, None, Vec::new())
        }
    };
    // A send can only fail once the coordinator has stopped merging
    // (budget stop or interrupt); the speculative result is then dead.
    let _ = results.send(WorkerOutput {
        round: task.round,
        skip: task.skip,
        banned: task.banned,
        record,
        metrics,
        trace,
    });
}

/// Speculative round execution for a plain campaign at `jobs > 1`.
/// Workers execute rounds ahead of the merge point on the shared pool;
/// [`Speculation::take`] hands [`run_supervised`] round r's record once it
/// validates against the loop's authoritative inputs, so journals,
/// results and telemetry totals are bit-identical to the serial loop at
/// any worker count. A plain campaign's seed rotation is fixed, so the
/// only possible mispredict is a quarantine that landed between dispatch
/// and merge.
struct Speculation {
    /// One config clone serves every task of the campaign.
    config: Arc<CampaignConfig>,
    /// Workers inherit the coordinator session's shape so speculative
    /// rounds record the same event classes a serial loop would.
    session: Option<jtelemetry::SessionSpec>,
    /// Rounds kept in flight ahead of the merge point.
    window: usize,
    next_dispatch: usize,
    /// Outputs that arrived ahead of their merge point.
    pending: HashMap<usize, WorkerOutput>,
    tx: mpsc::Sender<WorkerOutput>,
    rx: mpsc::Receiver<WorkerOutput>,
}

impl Speculation {
    fn new(config: &CampaignConfig, first_round: usize) -> Speculation {
        // Round jobs go to the shared process-wide pool (capacity is the
        // max of every campaign's request, so concurrent campaigns can't
        // oversubscribe each other).
        pool::shared().ensure_capacity(config.jobs);
        let (tx, rx) = mpsc::channel();
        Speculation {
            config: Arc::new(config.clone()),
            session: jtelemetry::session_spec(),
            window: config.jobs * 2,
            next_dispatch: first_round,
            pending: HashMap::new(),
            tx,
            rx,
        }
    }

    /// Tops up the window with tasks built from the current quarantine —
    /// round `round` itself is thus always dispatched from authoritative
    /// state — then waits for round `round`'s output. Returns its record
    /// when the output is healthy and was computed from `skip` and
    /// `banned`, absorbing its telemetry; otherwise discards the output
    /// with its telemetry (the serial run never did that work) and
    /// returns `None`, and the caller executes the round inline.
    fn take(
        &mut self,
        round: usize,
        seeds: &[Seed],
        quarantine: &Quarantine,
        skip: bool,
        banned: &[MutatorKind],
    ) -> Option<RoundRecord> {
        while self.next_dispatch < self.config.rounds && self.next_dispatch < round + self.window {
            let spec_round = self.next_dispatch;
            let seed = seeds[spec_round % seeds.len()].clone();
            let task = WorkerTask {
                round: spec_round,
                skip: quarantine.seed_blocked(&seed.name),
                banned: quarantine.banned_mutators(&seed.name),
                telemetry: self.session,
                seed,
            };
            let config = Arc::clone(&self.config);
            let results = self.tx.clone();
            pool::shared().submit(Box::new(move || {
                run_worker_task(task, &config, &results);
            }));
            jtelemetry::trace_sched_instant("dispatch", || vec![("round", spec_round.to_string())]);
            self.next_dispatch += 1;
        }
        let output = {
            // Scheduler-lane attribution: how long the coordinator sat
            // blocked on speculative results for this round. Wall-clock
            // only; the lane is suppressed under a manual clock.
            let _wait =
                jtelemetry::trace_sched_span("merge_wait", || vec![("round", round.to_string())]);
            loop {
                if let Some(found) = self.pending.remove(&round) {
                    break found;
                }
                let incoming = self
                    .rx
                    .recv()
                    .expect("the speculation holds a sender, so the channel stays open");
                self.pending.insert(incoming.round, incoming);
            }
        };
        match output.record {
            Some(record) if output.skip == skip && output.banned == banned => {
                if let Some(snapshot) = &output.metrics {
                    jtelemetry::absorb(snapshot);
                }
                jtelemetry::absorb_trace(&output.trace);
                Some(record)
            }
            stale => {
                let reason = if stale.is_none() {
                    "poisoned"
                } else {
                    "mispredicted"
                };
                jtelemetry::trace_sched_instant("speculation_wasted", || {
                    vec![("round", round.to_string()), ("reason", reason.to_string())]
                });
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_marked_and_unmarked_panics() {
        let mutator: Box<dyn Any + Send> = Box::new(format!(
            "{MUTATOR_PANIC_MARKER}:Inlining: injected mutator panic"
        ));
        match classify_panic(mutator.as_ref()) {
            RoundError::MutatorPanic { mutator, .. } => {
                assert_eq!(mutator, Some(MutatorKind::Inlining));
            }
            other => panic!("misclassified: {other:?}"),
        }
        let vm: Box<dyn Any + Send> =
            Box::new(format!("{VM_PANIC_MARKER}: injected VM panic on J9-8"));
        assert!(matches!(
            classify_panic(vm.as_ref()),
            RoundError::VmPanic { .. }
        ));
        let stray: Box<dyn Any + Send> = Box::new("index out of bounds");
        assert!(matches!(
            classify_panic(stray.as_ref()),
            RoundError::VmPanic { .. }
        ));
        let unknown_mutator: Box<dyn Any + Send> =
            Box::new(format!("{MUTATOR_PANIC_MARKER}:NotAMutator: boom"));
        match classify_panic(unknown_mutator.as_ref()) {
            RoundError::MutatorPanic { mutator, .. } => assert_eq!(mutator, None),
            other => panic!("misclassified: {other:?}"),
        }
        let timeout: Box<dyn Any + Send> = Box::new(format!(
            "{}: interpreter cancelled by watchdog",
            jtelemetry::cancel::TIMEOUT_PANIC_MARKER
        ));
        assert!(matches!(
            classify_panic(timeout.as_ref()),
            RoundError::Timeout { limit_ms: 0 }
        ));
    }

    #[test]
    fn catch_round_contains_and_passes_through() {
        assert_eq!(catch_round(|| 42).unwrap(), 42);
        let err = catch_round(|| panic!("plain panic")).unwrap_err();
        assert!(matches!(err, RoundError::VmPanic { .. }));
    }

    #[test]
    fn quarantine_threshold_and_bans() {
        let mut q = Quarantine::default();
        assert!(!q.record(2, "s1", Some(MutatorKind::Inlining)));
        assert!(q.record(2, "s1", Some(MutatorKind::Inlining)));
        // Already quarantined: further records do not re-add.
        assert!(!q.record(2, "s1", Some(MutatorKind::Inlining)));
        assert_eq!(q.banned_mutators("s1"), vec![MutatorKind::Inlining]);
        assert!(q.banned_mutators("s2").is_empty());
        assert!(!q.seed_blocked("s1"));
        q.record(1, "s2", None);
        assert!(q.seed_blocked("s2"));
        assert_eq!(q.pairs().len(), 2);
    }

    #[test]
    fn rng_derivation_attempt_zero_matches_legacy() {
        let base: u64 = 2024;
        let legacy = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3);
        assert_eq!(round_rng_seed(base, 3, 0), legacy);
        assert_ne!(round_rng_seed(base, 3, 1), legacy);
        assert_ne!(round_rng_seed(base, 3, 1), round_rng_seed(base, 3, 2));
    }

    #[test]
    fn budget_stop_triggers_at_limits() {
        let mut result = CampaignResult::default();
        let supervisor = SupervisorConfig {
            max_steps: Some(100),
            max_executions: Some(10),
            ..SupervisorConfig::default()
        };
        assert!(budget_stop(&result, &supervisor, 0).is_none());
        result.steps = 100;
        let stop = budget_stop(&result, &supervisor, 4).unwrap();
        assert_eq!(stop.round, 4);
        assert!(matches!(
            stop.error,
            RoundError::BudgetExhausted {
                budget: BudgetKind::CampaignSteps,
                limit: 100,
                used: 100
            }
        ));
        result.steps = 0;
        result.executions = 11;
        assert!(matches!(
            budget_stop(&result, &supervisor, 0).unwrap().error,
            RoundError::BudgetExhausted {
                budget: BudgetKind::CampaignExecutions,
                ..
            }
        ));
    }
}
