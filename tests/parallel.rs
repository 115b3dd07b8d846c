//! The parallel campaign engine's contract: `--jobs N` is an execution
//! detail, never an observable one. Plain campaigns at any worker count
//! must produce byte-identical journals and results — with fault
//! injection on, for arbitrary RNG seeds. Corpus campaigns run serially
//! and refuse `jobs > 1` before touching any file. Plus: store-lock
//! recovery and the cross-campaign quarantine overlay that lets
//! concurrent campaigns share discoveries.

use jvmsim::FaultPlan;
use mopfuzzer::{
    corpus, import_seeds, read_journal, resume_campaign_extended, run_campaign_with_journal,
    run_corpus_campaign, CampaignConfig, CorpusOptions,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mop_parallel_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seeded_store(dir: &Path) -> jcorpus::Store {
    let mut store = jcorpus::Store::init(dir).unwrap();
    import_seeds(&mut store, &corpus::builtin(), jcorpus::Provenance::Builtin).unwrap();
    store.save().unwrap();
    store
}

/// A campaign with deterministic fault injection — the retry/quarantine
/// machinery must not perturb the parallel merge.
fn faulty_config(rounds: usize, rng_seed: u64, jobs: usize) -> CampaignConfig {
    let mut config = CampaignConfig {
        iterations_per_seed: 10,
        rounds,
        rng_seed,
        jobs,
        ..CampaignConfig::new(rounds)
    };
    config.fault = Some(FaultPlan::new(rng_seed ^ 0x5eed, 0.25));
    config
}

/// Everything in the store directory except the advisory lockfile,
/// relative paths sorted for stable comparison.
fn snapshot_dir(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().and_then(|n| n.to_str()) != Some(jcorpus::LOCKFILE) {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                files.push((rel, fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

fn restore_dir(dir: &Path, snapshot: &[(PathBuf, Vec<u8>)]) {
    fs::remove_dir_all(dir).unwrap();
    for (rel, bytes) in snapshot {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, bytes).unwrap();
    }
}

/// Plain mode under fault injection: `--jobs 4` writes the same journal
/// bytes and returns the same result as the serial loop, even when
/// rounds fault, retry, and quarantine seeds mid-campaign.
#[test]
fn parallel_plain_campaign_is_bit_identical() {
    let seeds = corpus::builtin();
    let dir = temp_dir("plain");
    fs::create_dir_all(&dir).unwrap();
    let (path_1, path_4) = (dir.join("jobs1.jsonl"), dir.join("jobs4.jsonl"));

    let serial = run_campaign_with_journal(&seeds, &faulty_config(10, 77, 1), &path_1).unwrap();
    let parallel = run_campaign_with_journal(&seeds, &faulty_config(10, 77, 4), &path_4).unwrap();

    assert_eq!(serial, parallel);
    assert_eq!(fs::read(&path_1).unwrap(), fs::read(&path_4).unwrap());
    // The fault machinery actually fired — otherwise this proves nothing.
    assert!(
        serial.retried_attempts > 0 || serial.errored_rounds > 0 || serial.skipped_rounds > 0,
        "fault plan produced no faults; raise the rate"
    );

    fs::remove_dir_all(dir).ok();
}

/// Corpus campaigns run serially: a campaign or a resume asking for two
/// workers is refused with a reason that names `--jobs`, before the
/// store or the journal is touched.
#[test]
fn corpus_campaign_rejects_parallel_jobs() {
    let dir = temp_dir("corpus");
    let mut store = seeded_store(&dir);
    let pristine = snapshot_dir(&dir);
    let journal = dir.join("campaign.jsonl");
    let opts = CorpusOptions::default();

    let err = run_corpus_campaign(
        &mut store,
        &faulty_config(3, 401, 2),
        &opts,
        Some(&journal),
        None,
    )
    .unwrap_err();
    assert!(err.contains("--jobs"), "{err}");
    assert_eq!(snapshot_dir(&dir), pristine, "a refused campaign wrote");
    assert!(!journal.exists(), "a refused campaign created its journal");

    run_corpus_campaign(
        &mut store,
        &faulty_config(3, 401, 1),
        &opts,
        Some(&journal),
        None,
    )
    .unwrap();
    let before = snapshot_dir(&dir);
    let err = resume_campaign_extended(&journal, None, Some(2), None).unwrap_err();
    assert!(err.contains("--jobs"), "{err}");
    assert_eq!(snapshot_dir(&dir), before, "a refused resume wrote");

    fs::remove_dir_all(dir).ok();
}

/// Lock recovery: a torn (empty) lockfile and a dead holder's lockfile
/// are both stolen; a live lock held by this process blocks a second
/// acquire until its timeout; `save` succeeds over a torn lock.
#[test]
fn torn_and_stale_locks_are_recovered() {
    let dir = temp_dir("lock");
    fs::create_dir_all(&dir).unwrap();
    let lockfile = dir.join(jcorpus::LOCKFILE);

    // Torn: a writer died between create and write.
    fs::write(&lockfile, "").unwrap();
    let lock = jcorpus::StoreLock::acquire_with_timeout(&dir, Duration::from_millis(200))
        .expect("torn lock must be stolen");
    drop(lock);

    // Stale: the recorded holder is long dead.
    fs::write(&lockfile, "999999999").unwrap();
    let lock = jcorpus::StoreLock::acquire_with_timeout(&dir, Duration::from_millis(200))
        .expect("dead holder's lock must be stolen");

    // Live: a held lock is not stolen — the second acquire times out.
    let contended = jcorpus::StoreLock::acquire_with_timeout(&dir, Duration::from_millis(50));
    assert!(contended.is_err(), "live lock was stolen");
    drop(lock);

    // End to end: a store save steals a torn lock rather than deadlocking.
    fs::remove_dir_all(&dir).unwrap();
    let mut store = seeded_store(&dir);
    fs::write(&lockfile, "").unwrap();
    store.save().expect("save must recover the torn lock");

    fs::remove_dir_all(dir).ok();
}

/// The cross-campaign overlay: a quarantine pair appended to the shared
/// store directory *after* this campaign opened its store — i.e. by a
/// concurrently running campaign — is picked up at the next round. The
/// blocked seed is never scheduled again, the pair is not re-reported,
/// and it survives this campaign's own flush.
#[test]
fn external_quarantine_is_observed_by_a_live_campaign() {
    let dir = temp_dir("overlay");
    let mut store = seeded_store(&dir);
    let pristine = snapshot_dir(&dir);
    let journal = dir.join("campaign.jsonl");
    let opts = CorpusOptions::default();
    let config = faulty_config(4, 17, 1);

    // Dry run to learn which seed round 0 would schedule.
    run_corpus_campaign(&mut store, &config, &opts, Some(&journal), None).unwrap();
    let victim = read_journal(&journal).unwrap().records[0].seed.clone();

    // Fresh identical store; the "other campaign" quarantines the victim
    // whole after our store is already open.
    restore_dir(&dir, &pristine);
    let mut store = jcorpus::Store::open(&dir).unwrap();
    fs::write(
        dir.join("quarantine.jsonl"),
        format!("{{\"seed\":\"{victim}\",\"mutator\":null}}\n"),
    )
    .unwrap();
    let result = run_corpus_campaign(&mut store, &config, &opts, Some(&journal), None).unwrap();

    for record in &read_journal(&journal).unwrap().records {
        assert_ne!(
            record.seed, victim,
            "round {} ran a fleet-quarantined seed",
            record.round
        );
    }
    assert!(
        !result.quarantined.iter().any(|(s, _)| s == &victim),
        "externally quarantined pairs must not be re-reported"
    );
    let reopened = jcorpus::Store::open(&dir).unwrap();
    assert!(
        reopened
            .quarantine()
            .iter()
            .any(|(s, m)| s == &victim && m.is_none()),
        "the external pair must survive this campaign's flush"
    );

    fs::remove_dir_all(dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The equivalence is not an artifact of one lucky seed: for any
    /// campaign RNG seed and fault-plan seed, 4 workers reproduce the
    /// serial journal byte for byte.
    #[test]
    fn parallel_equivalence_holds_for_any_seed(rng_seed in any::<u64>(), fault_seed in 0u64..32) {
        let seeds = corpus::builtin();
        let make = |jobs: usize| {
            let mut config = CampaignConfig {
                iterations_per_seed: 8,
                rounds: 3,
                rng_seed,
                jobs,
                ..CampaignConfig::new(3)
            };
            config.fault = Some(FaultPlan::new(fault_seed, 0.3));
            config
        };
        let dir = temp_dir(&format!("prop_{rng_seed:016x}"));
        fs::create_dir_all(&dir).unwrap();
        let (path_1, path_4) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let serial = run_campaign_with_journal(&seeds, &make(1), &path_1).unwrap();
        let parallel = run_campaign_with_journal(&seeds, &make(4), &path_4).unwrap();
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(fs::read(&path_1).unwrap(), fs::read(&path_4).unwrap());
        fs::remove_dir_all(&dir).ok();
    }
}
