//! Crash-consistency and hang-proofing, end to end.
//!
//! The crash-point sweep is the headline: a journaled corpus campaign is
//! crashed (via the chaos VFS) after *every* mutating filesystem
//! operation in turn, recovered with `fsck --repair` plus a resume, and
//! must converge to the byte-identical journal, manifest, and quarantine
//! of an uninterrupted run. The hang tests exercise the round watchdog:
//! a mutant that wedges the VM times out, is retried and quarantined,
//! and journals bit-identically at any worker-count combination.

use jcorpus::{ChaosVfs, Store, Vfs};
use jvmsim::{FaultPlan, VmFault};
use mopfuzzer::{
    corpus, import_seeds, read_journal, resume_campaign, run_campaign_with_journal,
    run_corpus_campaign_with, CampaignConfig, CampaignResult, CorpusOptions, RoundError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mop_crash_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store seeded with the builtin corpus, saved and closed (real fs —
/// the sweep only crashes the campaign, not its setup).
fn seed_store(dir: &Path) {
    let mut store = Store::init(dir).unwrap();
    import_seeds(&mut store, &corpus::builtin(), jcorpus::Provenance::Builtin).unwrap();
    store.save().unwrap();
}

fn small_config(rounds: usize, rng_seed: u64) -> CampaignConfig {
    CampaignConfig {
        iterations_per_seed: 8,
        rounds,
        rng_seed,
        ..CampaignConfig::new(rounds)
    }
}

fn opts() -> CorpusOptions {
    CorpusOptions {
        promote_threshold: 1.0,
        ..CorpusOptions::default()
    }
}

/// Opens the store and runs the journaled campaign, with every store and
/// journal write routed through `fs`.
fn campaign_with(dir: &Path, fs: Arc<dyn Vfs>) -> Result<CampaignResult, String> {
    let mut store = Store::open_with(dir, fs.clone())?;
    run_corpus_campaign_with(
        &mut store,
        &small_config(3, 4242),
        &opts(),
        Some(&dir.join("campaign.jsonl")),
        None,
        fs,
    )
}

fn bytes(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_default()
}

/// (journal, manifest, quarantine) — everything the campaign persists.
fn persisted(dir: &Path) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    (
        bytes(dir, "campaign.jsonl"),
        bytes(dir, "manifest.jsonl"),
        bytes(dir, "quarantine.jsonl"),
    )
}

/// The acceptance sweep: crash the campaign after every mutating VFS
/// operation, repair + resume, and demand byte-identical convergence.
#[test]
fn crash_point_sweep_recovers_to_the_uninterrupted_bytes() {
    // One directory throughout: the journal header records the store dir,
    // so byte-comparisons only hold when every trial runs at the same
    // path. `seed_store` re-creates identical starting bytes each time.
    let dir = temp_dir("sweep");

    // Baseline: the uninterrupted run on the real filesystem.
    seed_store(&dir);
    let expected = campaign_with(&dir, jcorpus::vfs::real()).unwrap();
    let expected_bytes = persisted(&dir);

    // Probe: the same campaign through a fault-free chaos VFS counts the
    // mutating operations and must already be byte-identical.
    std::fs::remove_dir_all(&dir).unwrap();
    seed_store(&dir);
    let probe = Arc::new(ChaosVfs::probe());
    let result = campaign_with(&dir, probe.clone()).unwrap();
    assert_eq!(result, expected);
    assert_eq!(persisted(&dir), expected_bytes);
    let ops = probe.ops();
    assert!(ops > 10, "campaign must persist through the VFS: {ops} ops");

    for crash_at in 1..=ops {
        std::fs::remove_dir_all(&dir).unwrap();
        seed_store(&dir);
        let chaos = Arc::new(ChaosVfs::crash_after(crash_at));
        // The crashed campaign may fail anywhere (or finish, when the
        // crash point lies beyond its last write) — only recovery has to
        // succeed.
        let crashed = campaign_with(&dir, chaos.clone());
        if crash_at < ops {
            assert!(
                chaos.crashed() || crashed.is_err(),
                "crash at op {crash_at} had no effect"
            );
        }

        // Recovery, on the real filesystem: repair the store, then resume
        // from the journal if it has a readable header, else rerun.
        let report = jcorpus::fsck(&dir, true).unwrap();
        assert_eq!(
            report.unrepaired(),
            0,
            "crash at op {crash_at} left unrepairable damage: {}",
            report.render_text()
        );
        let journal = dir.join("campaign.jsonl");
        let recovered = match read_journal(&journal) {
            Ok(_) => resume_campaign(&journal).unwrap(),
            Err(_) => campaign_with(&dir, jcorpus::vfs::real()).unwrap(),
        };
        assert_eq!(recovered, expected, "crash at op {crash_at}");
        assert_eq!(persisted(&dir), expected_bytes, "crash at op {crash_at}");
        assert!(jcorpus::fsck(&dir, false).unwrap().clean());
    }

    std::fs::remove_dir_all(dir).ok();
}

/// A campaign whose rounds all hang: the watchdog cancels each attempt at
/// the configured wall-clock limit, the failure is classified as
/// [`RoundError::Timeout`] carrying that limit (never elapsed time), the
/// offender is quarantined, and the journal records it all.
#[test]
fn hanging_rounds_time_out_and_quarantine() {
    let dir = temp_dir("hang");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("hang.jsonl");
    let mut config = small_config(2, 77);
    config.supervisor.round_wall_timeout_ms = Some(50);
    config.supervisor.max_retries = 1;
    config.supervisor.quarantine_threshold = 1;
    config.fault = Some(FaultPlan::new(3, 1.0).with_only(VmFault::Hang));
    let seeds = corpus::builtin();

    let result = run_campaign_with_journal(&seeds, &config, &journal).unwrap();
    assert_eq!(result.completed_rounds(), 0, "every round hangs");
    assert_eq!(
        result.errored_rounds + result.skipped_rounds,
        config.rounds as u64
    );
    assert!(
        result
            .round_errors
            .iter()
            .all(|f| matches!(f.error, RoundError::Timeout { limit_ms: 50 })),
        "{:?}",
        result.round_errors
    );
    assert!(!result.quarantined.is_empty(), "hangs must quarantine");

    // The journaled failures round-trip with the configured limit.
    let contents = read_journal(&journal).unwrap();
    assert!(contents
        .records
        .iter()
        .flat_map(|r| &r.errors)
        .any(|f| matches!(f.error, RoundError::Timeout { limit_ms: 50 })));

    std::fs::remove_dir_all(dir).ok();
}

/// Timeouts are scheduling-independent: because the journal records the
/// configured limit (not elapsed time) and every attempt deterministically
/// hangs, the journal bytes are identical at any `--jobs`.
#[test]
fn hang_timeouts_journal_identically_at_any_worker_count() {
    let dir = temp_dir("hang_jobs");
    std::fs::create_dir_all(&dir).unwrap();
    let seeds = corpus::builtin();
    let mut journals = Vec::new();
    for jobs in [1, 2, 3] {
        let journal = dir.join(format!("hang_j{jobs}.jsonl"));
        let mut config = small_config(2, 77);
        config.supervisor.round_wall_timeout_ms = Some(50);
        config.supervisor.max_retries = 1;
        config.supervisor.quarantine_threshold = 1;
        config.fault = Some(FaultPlan::new(3, 1.0).with_only(VmFault::Hang));
        config.jobs = jobs;
        run_campaign_with_journal(&seeds, &config, &journal).unwrap();
        journals.push(std::fs::read(&journal).unwrap());
    }
    assert_eq!(journals[0], journals[1], "jobs 1 vs 2");
    assert_eq!(journals[0], journals[2], "jobs 1 vs 3");

    std::fs::remove_dir_all(dir).ok();
}
