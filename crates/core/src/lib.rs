//! # mopfuzzer — the paper's contribution
//!
//! MopFuzzer validates JVM JIT compilers by *maximizing optimization
//! interactions* (ASPLOS'24). The pieces map one-to-one onto the paper:
//!
//! * [`mutators`] — the 13 optimization-evoking mutators of §3.2/Table 1,
//!   each inserting code adjacent to or nested around a fixed mutation
//!   point;
//! * [`fuzzer`] — Algorithm 1: iterate mutators at the MP, weighted by
//!   profile-data guidance (Eq. 1–3 via [`jprofile`]);
//! * [`oracle`] — crash and differential-testing oracles over the
//!   simulated JVM pool (§3.5);
//! * [`campaign`] — multi-seed campaigns with root-cause deduplication,
//!   coverage accounting, and a simulated clock;
//! * [`supervisor`] — the fault-isolated campaign loop: panic
//!   containment, bounded retries, quarantine, and budgets;
//! * [`journal`] — JSONL checkpoints making campaigns resumable with
//!   bit-identical results;
//! * `pool` (internal) — the process-wide work pool that runs the
//!   round-level engine's (`--jobs`) speculative rounds of plain
//!   campaigns;
//! * [`variant`] — the §4.4 ablations (`MopFuzzer_g`, `MopFuzzer_r`);
//! * [`corpus`] — built-in and generated regression-test-style seeds;
//! * [`stats`] — Table 5 mutator/pair ratios and Figure 1 trajectories.
//!
//! # Examples
//!
//! ```no_run
//! use mopfuzzer::{fuzz, FuzzConfig};
//!
//! let seed = mjava::samples::listing2().program;
//! let config = FuzzConfig::new(jvmsim::JvmSpec::hotspur(jvmsim::Version::Mainline));
//! let outcome = fuzz(&seed, &config);
//! println!(
//!     "final Δ = {:.1} after {} iterations",
//!     outcome.final_delta(),
//!     outcome.records.len()
//! );
//! ```

pub mod campaign;
pub mod corpus;
pub mod fuzzer;
pub mod interrupt;
pub mod journal;
pub mod mutators;
pub mod oracle;
mod pool;
pub mod stats;
pub mod supervisor;
pub mod variant;
mod watchdog;

pub use campaign::{
    resolve_jobs, resume_campaign, resume_campaign_extended, run_campaign, run_campaign_observed,
    run_campaign_with_journal, run_campaign_with_journal_observed, run_corpus_campaign,
    run_corpus_campaign_with, CampaignConfig, CampaignObserver, CampaignResult, CorpusOptions,
    FoundBug, MAX_JOBS, ORACLE_JOBS_REMOVED,
};
pub use corpus::{import_seeds, seeds_from_store, ImportOutcome, Seed};
pub use fuzzer::{fuzz, FuzzConfig, FuzzOutcome, IterationRecord, WeightScheme};
pub use journal::{
    read_journal, BaselineEntry, BugSighting, CorpusHeader, Disposition, JournalContents,
    JournalWriter, PromotionReason, PromotionRecord, RoundRecord,
};
pub use mutators::{all_mutators, Mutation, Mutator, MutatorKind};
#[doc(hidden)]
pub use oracle::differential_jobs;
pub use oracle::{differential, DifferentialResult, OracleVerdict};
pub use supervisor::{BudgetKind, Quarantine, RoundError, RoundFailure, SupervisorConfig};
pub use variant::Variant;
