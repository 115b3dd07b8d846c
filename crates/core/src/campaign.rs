//! Campaign driver: many fuzzing rounds over a seed corpus, bug
//! collection with root-cause deduplication, coverage accumulation, and a
//! simulated clock (interpreter steps stand in for wall-clock time).
//!
//! Since the supervisor rework, every round runs inside a fault boundary
//! (see [`crate::supervisor`]): panics are contained and classified,
//! faulting rounds are retried and eventually quarantined, budgets stop
//! the campaign gracefully, and an optional JSONL journal makes a killed
//! campaign resumable with bit-identical results.

use crate::corpus::Seed;
use crate::journal::{self, BaselineEntry, CorpusHeader, JournalWriter};
use crate::mutators::MutatorKind;
use crate::supervisor::{run_supervised, CorpusCtx, RoundFailure, SupervisorConfig};
use crate::variant::Variant;
use jcorpus::Vfs;
use jvmsim::{Component, CoverageMap, FaultPlan, JvmSpec};
use mjava::Program;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Mutation iterations per seed (paper: 50).
    pub iterations_per_seed: usize,
    /// Variant under test.
    pub variant: Variant,
    /// Number of fuzzing rounds (each round fuzzes one seed to completion
    /// and differential-tests the final mutant).
    pub rounds: usize,
    /// The differential pool (§3.5).
    pub pool: Vec<JvmSpec>,
    /// Base RNG seed; round `r` derives its own seed from it.
    pub rng_seed: u64,
    /// Fault-handling policy: retries, quarantine, budgets.
    pub supervisor: SupervisorConfig,
    /// Optional deterministic fault injection (robustness testing).
    pub fault: Option<FaultPlan>,
    /// Worker threads executing rounds (1 = the classic serial loop).
    /// Any value produces bit-identical journals and results: workers
    /// speculate rounds ahead and the coordinator merges them in strict
    /// round order (see `supervisor`), so `jobs` buys wall-clock time
    /// only. Not journaled — a plain journal resumes at any worker count.
    /// Corpus campaigns run serially and refuse `jobs > 1` (see
    /// [`resolve_jobs`]).
    pub jobs: usize,
}

impl CampaignConfig {
    /// A small default campaign against the full pool.
    pub fn new(rounds: usize) -> CampaignConfig {
        CampaignConfig {
            iterations_per_seed: 50,
            variant: Variant::Full,
            rounds,
            pool: JvmSpec::differential_pool(),
            rng_seed: 2024,
            supervisor: SupervisorConfig::default(),
            fault: None,
            jobs: 1,
        }
    }
}

/// The error for the removed `--oracle-jobs` option (daemon spec field
/// `oracle_jobs`): the differential oracle runs the pool serially, and
/// `--jobs` is the one parallelism knob.
pub const ORACLE_JOBS_REMOVED: &str = "--oracle-jobs (spec field \"oracle_jobs\") was removed: \
     the differential oracle runs the pool serially; use --jobs to run rounds in parallel";

/// The error for `jobs > 1` on a corpus campaign.
const CORPUS_JOBS_SERIAL: &str = "--jobs (spec field \"jobs\") must be 1 for a corpus campaign: \
     the power scheduler picks each round's seed from the merged results of every round \
     before it, so corpus campaigns run serially; run several campaigns to use more cores";

/// The most round-level workers a campaign may run. Every worker is an
/// OS thread of the process-wide pool, whose capacity never shrinks, so
/// without a ceiling one daemon spec could start any number of threads.
pub const MAX_JOBS: usize = 256;

/// Resolves a requested worker count for a campaign, in the one place
/// the CLI, the daemon and [`resume_campaign_extended`] share. Plain
/// campaigns default to every hardware thread, up to [`MAX_JOBS`];
/// corpus campaigns default to 1 and refuse more, because speculating
/// ahead of the power scheduler mostly guesses wrong. `Some(0)` and
/// anything above [`MAX_JOBS`] are errors.
pub fn resolve_jobs(requested: Option<usize>, corpus: bool) -> Result<usize, String> {
    match requested {
        Some(0) => Err("--jobs (spec field \"jobs\") must be >= 1".to_string()),
        Some(jobs) if jobs > MAX_JOBS => Err(format!(
            "--jobs (spec field \"jobs\") must be at most {MAX_JOBS}, got {jobs}"
        )),
        Some(jobs) if jobs > 1 && corpus => Err(CORPUS_JOBS_SERIAL.to_string()),
        Some(jobs) => Ok(jobs),
        None if corpus => Ok(1),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS))),
    }
}

/// One deduplicated bug discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundBug {
    /// The injected bug's id — the root cause (two findings with the same
    /// id are the same bug, as in the paper's Fig. 5b analysis).
    pub id: String,
    /// The affected JIT component.
    pub component: Component,
    /// True for crashes, false for miscompilations.
    pub is_crash: bool,
    /// The JVM the bug was first observed on.
    pub jvm: String,
    /// The seed whose mutation chain found it.
    pub seed: String,
    /// Mutators applied to the seed up to the finding.
    pub mutators: Vec<MutatorKind>,
    /// Cumulative JVM executions when found.
    pub at_execs: u64,
    /// Cumulative simulated time (interpreter steps) when found.
    pub at_steps: u64,
    /// The bug-triggering mutant.
    pub mutant: Program,
}

/// The result of one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignResult {
    /// Deduplicated bugs in discovery order.
    pub bugs: Vec<FoundBug>,
    /// Total JVM executions by attempts that completed (productive work).
    pub executions: u64,
    /// Total simulated time spent by completed attempts (productive work).
    pub steps: u64,
    /// Simulated time burned by attempts that faulted and were retried or
    /// given up on. Kept apart from [`CampaignResult::steps`] so retry
    /// overhead is visible rather than silently inflating throughput;
    /// budgets meter the sum of both.
    pub wasted_steps: u64,
    /// JVM executions completed inside attempts that ultimately faulted.
    pub wasted_execs: u64,
    /// Coverage over all executions.
    pub coverage: CoverageMap,
    /// Final-mutant Δ for every completed round (Figures 3/4 data).
    pub final_deltas: Vec<f64>,
    /// Rounds whose differential verdict was inconclusive (fewer than two
    /// comparable outputs).
    pub inconclusive_rounds: u64,
    /// Rounds that exhausted every retry and contributed nothing.
    pub errored_rounds: u64,
    /// Rounds skipped because their seed was quarantined whole.
    pub skipped_rounds: u64,
    /// Total extra attempts spent retrying faulted rounds.
    pub retried_attempts: u64,
    /// Every classified failure, in occurrence order.
    pub round_errors: Vec<RoundFailure>,
    /// `(seed, mutator)` pairs quarantined during the campaign; a `None`
    /// mutator means the seed as a whole.
    pub quarantined: Vec<(String, Option<MutatorKind>)>,
    /// Set when a campaign-wide budget stopped the campaign early.
    pub stopped: Option<RoundFailure>,
    /// Names of corpus entries promoted during the campaign (corpus mode
    /// only), in promotion order.
    pub promotions: Vec<String>,
    /// True when the campaign stopped at a round boundary because a
    /// graceful interrupt (SIGINT/SIGTERM in the CLI) was requested. The
    /// journal written so far resumes bit-identically.
    pub interrupted: bool,
}

impl CampaignResult {
    /// Median of the final deltas.
    pub fn median_delta(&self) -> f64 {
        crate::stats::median(&self.final_deltas)
    }

    /// Rounds that completed normally (executed, not errored or skipped).
    pub fn completed_rounds(&self) -> usize {
        self.final_deltas.len()
    }
}

pub(crate) fn component_of_miscompile(id: &str) -> Option<Component> {
    jvmsim::bugs::library()
        .into_iter()
        .find(|b| b.id == id)
        .map(|b| b.component)
}

/// Live-progress hook: the supervisor calls [`round_finished`] after every
/// executed (non-replayed) round. The CLI uses it to refresh metrics files
/// and the TTY status line mid-campaign.
///
/// [`round_finished`]: CampaignObserver::round_finished
pub trait CampaignObserver {
    /// Called once per live round, after the round's record has been
    /// folded into `result` (and after the gauges were updated).
    fn round_finished(&mut self, round: usize, result: &CampaignResult);
}

/// Runs a fuzzing campaign under the fault supervisor.
pub fn run_campaign(seeds: &[Seed], config: &CampaignConfig) -> CampaignResult {
    run_supervised(seeds, config, None, &[], None, None)
}

/// [`run_campaign`] with a live-progress observer.
pub fn run_campaign_observed(
    seeds: &[Seed],
    config: &CampaignConfig,
    observer: &mut dyn CampaignObserver,
) -> CampaignResult {
    run_supervised(seeds, config, None, &[], Some(observer), None)
}

/// Runs a campaign while checkpointing every round to a JSONL journal at
/// `path` (created or truncated). The journal is self-contained:
/// [`resume_campaign`] needs nothing else.
pub fn run_campaign_with_journal(
    seeds: &[Seed],
    config: &CampaignConfig,
    path: &Path,
) -> Result<CampaignResult, String> {
    run_campaign_with_journal_observed(seeds, config, path, None)
}

/// [`run_campaign_with_journal`] with an optional live-progress observer.
pub fn run_campaign_with_journal_observed(
    seeds: &[Seed],
    config: &CampaignConfig,
    path: &Path,
    observer: Option<&mut dyn CampaignObserver>,
) -> Result<CampaignResult, String> {
    let mut writer = JournalWriter::create(path, config, seeds, None)?;
    Ok(run_supervised(
        seeds,
        config,
        Some(&mut writer),
        &[],
        observer,
        None,
    ))
}

/// Corpus-mode knobs (everything else rides on [`CampaignConfig`]).
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Final-mutant OBV delta at or above which a round's mutant is
    /// promoted (minimized and admitted as a first-class seed). Bug-finding
    /// rounds promote regardless of delta.
    pub promote_threshold: f64,
    /// When set, run corpus GC after the campaign's flush: entries whose
    /// scheduler energy stayed clamped at the floor for this many
    /// consecutive campaigns are tombstoned (see [`jcorpus::Store::gc`]).
    pub gc_streak: Option<u64>,
}

impl Default for CorpusOptions {
    fn default() -> CorpusOptions {
        CorpusOptions {
            promote_threshold: 20.0,
            gc_streak: None,
        }
    }
}

/// Builds the journal header's corpus section from the store's pre-campaign
/// state. The header (not the live store) is the scheduler baseline on
/// resume, which is what keeps resumption bit-identical.
fn corpus_header(store: &jcorpus::Store, opts: &CorpusOptions) -> Result<CorpusHeader, String> {
    let mut preq = Vec::new();
    for (seed, mutator) in store.quarantine() {
        let mutator = match mutator {
            None => None,
            Some(name) => Some(
                MutatorKind::from_debug_name(name)
                    .ok_or_else(|| format!("corpus quarantine names unknown mutator {name:?}"))?,
            ),
        };
        preq.push((seed.clone(), mutator));
    }
    Ok(CorpusHeader {
        dir: store.dir().display().to_string(),
        promote_threshold: opts.promote_threshold,
        baseline: store
            .entries()
            .iter()
            .map(|e| BaselineEntry {
                name: e.name.clone(),
                fingerprint: e.fingerprint,
                stats: e.stats.clone(),
                floor_streak: e.floor_streak,
            })
            .collect(),
        preq,
    })
}

/// Builds the in-memory corpus context from a journal header and the seed
/// list that accompanies it. `seeds` must be the journal's seed snapshot
/// (live: the store's current entries; resume: the journaled seeds) so the
/// scheduler sees exactly the programs the original campaign saw.
fn build_ctx<'a>(
    store: &'a mut jcorpus::Store,
    header: &CorpusHeader,
    seeds: &[Seed],
) -> Result<CorpusCtx<'a>, String> {
    let mut scheduler = jcorpus::PowerScheduler::new();
    let mut fingerprints = HashSet::new();
    let blocked: HashSet<&str> = header
        .preq
        .iter()
        .filter(|(_, m)| m.is_none())
        .map(|(s, _)| s.as_str())
        .collect();
    for entry in &header.baseline {
        scheduler.admit(
            &entry.name,
            entry.stats.clone(),
            blocked.contains(entry.name.as_str()),
        );
        fingerprints.insert(entry.fingerprint);
    }
    let mut programs = HashMap::new();
    for seed in seeds {
        programs.insert(seed.name.clone(), seed.program.clone());
    }
    for entry in &header.baseline {
        if !programs.contains_key(&entry.name) {
            return Err(format!(
                "corpus baseline entry {:?} has no program in the journal seeds",
                entry.name
            ));
        }
    }
    let baseline_streaks = header
        .baseline
        .iter()
        .map(|e| (e.name.clone(), e.floor_streak))
        .collect();
    Ok(CorpusCtx {
        store,
        scheduler,
        programs,
        fingerprints,
        promote_threshold: header.promote_threshold,
        preq: header.preq.clone(),
        baseline_streaks,
    })
}

/// Writes the campaign's outcome back to the store: absolute per-entry
/// stats (idempotent — a resume that replays the same rounds flushes the
/// same numbers), floor streaks recomputed from the journal baseline (so
/// resume flushes the same streaks too), newly quarantined pairs, an
/// optional GC pass, and a single atomic save.
fn flush_corpus(
    ctx: CorpusCtx<'_>,
    result: &CampaignResult,
    gc_streak: Option<u64>,
) -> Result<(), String> {
    let CorpusCtx {
        store,
        scheduler,
        baseline_streaks,
        ..
    } = ctx;
    for name in scheduler.names() {
        if let Some(stats) = scheduler.stats(name) {
            let baseline = baseline_streaks.get(name).copied().unwrap_or(0);
            let streak = if stats.schedules > 0 && jcorpus::energy(stats) <= jcorpus::ENERGY_FLOOR {
                baseline + 1
            } else {
                0
            };
            store.set_stats(name, stats.clone())?;
            store.set_floor_streak(name, streak)?;
        }
    }
    let pairs: Vec<(String, Option<String>)> = result
        .quarantined
        .iter()
        .map(|(s, m)| (s.clone(), m.map(|k| format!("{k:?}"))))
        .collect();
    store.merge_quarantine(&pairs);
    if let Some(streak) = gc_streak {
        store.gc(streak);
    }
    store.save()
}

/// Runs a campaign over a persistent corpus store: the power scheduler
/// replaces round-robin seed rotation, promoted mutants are minimized and
/// admitted back into the store, and the store's quarantine carries across
/// campaigns. With a journal path the campaign checkpoints every round and
/// [`resume_campaign`] restores corpus mode from the journal header.
/// Corpus campaigns run serially: `config.jobs > 1` is an error.
pub fn run_corpus_campaign(
    store: &mut jcorpus::Store,
    config: &CampaignConfig,
    opts: &CorpusOptions,
    journal: Option<&Path>,
    observer: Option<&mut dyn CampaignObserver>,
) -> Result<CampaignResult, String> {
    run_corpus_campaign_with(store, config, opts, journal, observer, jcorpus::vfs::real())
}

/// [`run_corpus_campaign`] with the *journal's* I/O routed through `fs`.
/// The store keeps whatever [`Vfs`] it was opened with, so a chaos test
/// can crash either side (or both) of a campaign's persistence.
pub fn run_corpus_campaign_with(
    store: &mut jcorpus::Store,
    config: &CampaignConfig,
    opts: &CorpusOptions,
    journal: Option<&Path>,
    observer: Option<&mut dyn CampaignObserver>,
    fs: Arc<dyn Vfs>,
) -> Result<CampaignResult, String> {
    if config.jobs > 1 {
        return Err(CORPUS_JOBS_SERIAL.to_string());
    }
    if store.is_empty() {
        return Err(format!(
            "corpus store at {} is empty: run `corpus init` or `corpus import` first",
            store.dir().display()
        ));
    }
    let header = corpus_header(store, opts)?;
    let seeds = crate::corpus::seeds_from_store(store);
    let mut writer = match journal {
        Some(path) => Some(JournalWriter::create_with(
            path,
            config,
            &seeds,
            Some(&header),
            fs,
        )?),
        None => None,
    };
    let mut ctx = build_ctx(store, &header, &seeds)?;
    let result = run_supervised(
        &seeds,
        config,
        writer.as_mut(),
        &[],
        observer,
        Some(&mut ctx),
    );
    flush_corpus(ctx, &result, opts.gc_streak)?;
    Ok(result)
}

/// Resumes a journaled campaign: checkpointed rounds are replayed from the
/// journal (no re-execution), the rest are run and appended. The combined
/// result is bit-identical to an uninterrupted run because replay and live
/// execution share one accounting code path. A truncated trailing line
/// (killed mid-write) is dropped and its round re-executed.
pub fn resume_campaign(path: &Path) -> Result<CampaignResult, String> {
    resume_campaign_extended(path, None, Some(1), None)
}

/// [`resume_campaign`] that can also *extend* a finished campaign: when
/// `rounds_override` is larger than the journaled round count, the resumed
/// campaign runs to the new total and the rewritten journal header records
/// it (so a later resume continues from the extended target). Shrinking
/// below the number of already-journaled rounds is an error — those rounds
/// happened and cannot be unhappened.
///
/// `jobs` is the requested worker count for the remaining live rounds,
/// resolved by [`resolve_jobs`] against the journal's mode (a corpus
/// journal refuses `jobs > 1` before the journal is rewritten). The
/// journal does not record it (any count yields identical output).
pub fn resume_campaign_extended(
    path: &Path,
    rounds_override: Option<usize>,
    jobs: Option<usize>,
    observer: Option<&mut dyn CampaignObserver>,
) -> Result<CampaignResult, String> {
    let contents = journal::read_journal(path)?;
    let mut config = contents.config;
    config.jobs = resolve_jobs(jobs, contents.corpus.is_some())?;
    if let Some(rounds) = rounds_override {
        if rounds < contents.records.len() {
            return Err(format!(
                "cannot shrink campaign to {rounds} rounds: journal already holds {}",
                contents.records.len()
            ));
        }
        config.rounds = rounds;
    }
    // Rewrite the journal up to the last intact record so a previously
    // truncated tail can never corrupt the middle of the resumed file.
    let mut writer =
        JournalWriter::create(path, &config, &contents.seeds, contents.corpus.as_ref())?;
    for record in &contents.records {
        writer.write_round(record)?;
    }
    match &contents.corpus {
        None => Ok(run_supervised(
            &contents.seeds,
            &config,
            Some(&mut writer),
            &contents.records,
            observer,
            None,
        )),
        Some(header) => {
            // Corpus mode: reopen the store and rebuild the scheduler from
            // the *header* baseline (the store's stats may already include
            // this campaign's partial flush — the header is the pre-campaign
            // truth). Replay then re-applies every journaled round, so the
            // resumed state matches an uninterrupted run exactly.
            let mut store = jcorpus::Store::open(Path::new(&header.dir)).map_err(|e| {
                format!(
                    "cannot resume: the journal's corpus store {} is unusable ({e}); \
                     restore the store directory or rerun with a fresh --corpus",
                    header.dir
                )
            })?;
            let mut ctx = build_ctx(&mut store, header, &contents.seeds)?;
            let result = run_supervised(
                &contents.seeds,
                &config,
                Some(&mut writer),
                &contents.records,
                observer,
                Some(&mut ctx),
            );
            // Resume never auto-GCs: GC policy belongs to the live
            // invocation (`--gc-streak`), not to the journal.
            flush_corpus(ctx, &result, None)?;
            Ok(result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::supervisor::{BudgetKind, RoundError};
    use jvmsim::VmFault;

    #[test]
    fn jobs_above_the_ceiling_are_refused_without_starting_a_thread() {
        assert_eq!(resolve_jobs(Some(MAX_JOBS), false), Ok(MAX_JOBS));
        for corpus in [false, true] {
            let err = resolve_jobs(Some(MAX_JOBS + 1), corpus).unwrap_err();
            assert!(err.contains("at most 256"), "{err}");
            assert!(resolve_jobs(Some(usize::MAX), corpus).is_err());
        }
        assert!((1..=MAX_JOBS).contains(&resolve_jobs(None, false).unwrap()));
    }

    #[test]
    fn small_campaign_finds_at_least_one_bug() {
        let seeds = corpus::builtin();
        let config = CampaignConfig {
            iterations_per_seed: 25,
            rounds: 6,
            ..CampaignConfig::new(6)
        };
        let result = run_campaign(&seeds, &config);
        assert!(result.executions > 0);
        assert!(
            !result.bugs.is_empty(),
            "a guided campaign over the corpus should find something"
        );
        // Dedup: ids unique.
        let mut ids: Vec<_> = result.bugs.iter().map(|b| b.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), result.bugs.len());
        // A fault-free campaign reports a clean supervisor ledger.
        assert_eq!(result.errored_rounds, 0);
        assert_eq!(result.skipped_rounds, 0);
        assert!(result.round_errors.is_empty());
        assert!(result.quarantined.is_empty());
        assert!(result.stopped.is_none());
    }

    #[test]
    fn campaigns_are_deterministic() {
        let seeds = corpus::builtin();
        let config = CampaignConfig {
            iterations_per_seed: 10,
            rounds: 3,
            ..CampaignConfig::new(3)
        };
        let a = run_campaign(&seeds, &config);
        let b = run_campaign(&seeds, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs_yield_empty_result() {
        let result = run_campaign(&[], &CampaignConfig::new(2));
        assert!(result.bugs.is_empty());
        assert_eq!(result.executions, 0);
    }

    #[test]
    fn bug_discovery_times_are_monotone() {
        let seeds = corpus::builtin();
        let config = CampaignConfig {
            iterations_per_seed: 25,
            rounds: 8,
            ..CampaignConfig::new(8)
        };
        let result = run_campaign(&seeds, &config);
        let times: Vec<u64> = result.bugs.iter().map(|b| b.at_steps).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn execution_budget_stops_campaign_gracefully() {
        let seeds = corpus::builtin();
        let mut config = CampaignConfig {
            iterations_per_seed: 10,
            rounds: 50,
            ..CampaignConfig::new(50)
        };
        config.supervisor.max_executions = Some(1);
        let result = run_campaign(&seeds, &config);
        // Round 0 runs (budget not yet exceeded), round 1 is refused.
        assert_eq!(result.completed_rounds(), 1);
        let stopped = result.stopped.expect("campaign must report the stop");
        assert_eq!(stopped.round, 1);
        assert!(matches!(
            stopped.error,
            RoundError::BudgetExhausted {
                budget: BudgetKind::CampaignExecutions,
                ..
            }
        ));
    }

    #[test]
    fn round_deadline_faults_heavy_rounds() {
        let seeds = corpus::builtin();
        let mut config = CampaignConfig {
            iterations_per_seed: 10,
            rounds: 2,
            ..CampaignConfig::new(2)
        };
        config.supervisor.round_step_deadline = Some(1); // nothing fits
        config.supervisor.max_retries = 1;
        config.supervisor.quarantine_threshold = 1;
        let result = run_campaign(&seeds, &config);
        assert_eq!(result.completed_rounds(), 0);
        assert!(result.errored_rounds + result.skipped_rounds == 2);
        assert!(result.round_errors.iter().any(|f| matches!(
            f.error,
            RoundError::BudgetExhausted {
                budget: BudgetKind::RoundSteps,
                ..
            }
        )));
        // Deadline faults are unattributable to a mutator, so the seed as
        // a whole is quarantined and later rounds on it are skipped.
        assert!(result.quarantined.iter().any(|(_, m)| m.is_none()));
    }

    #[test]
    fn injected_build_failures_are_contained() {
        let seeds = corpus::builtin();
        let mut config = CampaignConfig {
            iterations_per_seed: 5,
            rounds: 4,
            ..CampaignConfig::new(4)
        };
        // Every VM run reports a build failure → every seed looks invalid.
        config.fault = Some(FaultPlan::new(11, 1.0).with_only(VmFault::BuildFailure));
        config.supervisor.max_retries = 1;
        config.supervisor.quarantine_threshold = 1;
        let result = run_campaign(&seeds, &config);
        assert_eq!(result.completed_rounds(), 0);
        assert!(result.errored_rounds > 0);
        assert!(result
            .round_errors
            .iter()
            .all(|f| matches!(f.error, RoundError::BuildFailure { .. })));
        assert!(result.bugs.is_empty());
    }
}
