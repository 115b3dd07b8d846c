//! End-to-end properties of the persistent corpus subsystem: store
//! round-trips, order-independent dedup, deterministic power scheduling,
//! journal resume over a store, and the promotion/quarantine lifecycle
//! across consecutive campaigns.

use mopfuzzer::{
    corpus, import_seeds, read_journal, resume_campaign, run_corpus_campaign, CampaignConfig,
    CampaignResult, CorpusOptions,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mop_corpus_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store seeded with the ten builtin seeds.
fn seeded_store(dir: &Path) -> jcorpus::Store {
    let mut store = jcorpus::Store::init(dir).unwrap();
    let outcome =
        import_seeds(&mut store, &corpus::builtin(), jcorpus::Provenance::Builtin).unwrap();
    assert_eq!(outcome.admitted.len(), 10, "builtin seeds must be distinct");
    store.save().unwrap();
    store
}

fn small_config(rounds: usize, rng_seed: u64) -> CampaignConfig {
    CampaignConfig {
        iterations_per_seed: 12,
        rounds,
        rng_seed,
        ..CampaignConfig::new(rounds)
    }
}

fn manifest_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("manifest.jsonl")).unwrap()
}

fn quarantine_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("quarantine.jsonl")).unwrap_or_default()
}

/// Two campaigns over byte-identical stores produce byte-identical
/// results and byte-identical stores: scheduling, promotion and the
/// store flush are pure functions of (store state, campaign config).
#[test]
fn corpus_campaigns_are_deterministic_across_identical_stores() {
    let (dir_a, dir_b) = (temp_dir("det_a"), temp_dir("det_b"));
    let mut store_a = seeded_store(&dir_a);
    let mut store_b = seeded_store(&dir_b);
    assert_eq!(manifest_bytes(&dir_a), manifest_bytes(&dir_b));

    let config = small_config(5, 71);
    let opts = CorpusOptions {
        promote_threshold: 1.0,
        ..CorpusOptions::default()
    };
    let a = run_corpus_campaign(&mut store_a, &config, &opts, None, None).unwrap();
    let b = run_corpus_campaign(&mut store_b, &config, &opts, None, None).unwrap();
    assert_eq!(a, b);
    assert_eq!(manifest_bytes(&dir_a), manifest_bytes(&dir_b));
    assert_eq!(quarantine_bytes(&dir_a), quarantine_bytes(&dir_b));
    // The campaign fed schedule history back into the store.
    assert!(store_a.entries().iter().any(|e| e.stats.schedules > 0));

    for dir in [dir_a, dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Behavioural dedup does not depend on import order: forward and
/// reversed imports admit the same (name, fingerprint) set, and
/// re-importing is a complete no-op.
#[test]
fn store_dedup_is_order_independent() {
    let (dir_f, dir_r) = (temp_dir("dedup_f"), temp_dir("dedup_r"));
    let seeds = corpus::builtin();
    let mut reversed = seeds.clone();
    reversed.reverse();

    let mut store_f = jcorpus::Store::init(&dir_f).unwrap();
    let mut store_r = jcorpus::Store::init(&dir_r).unwrap();
    import_seeds(&mut store_f, &seeds, jcorpus::Provenance::Builtin).unwrap();
    import_seeds(&mut store_r, &reversed, jcorpus::Provenance::Builtin).unwrap();

    let set = |store: &jcorpus::Store| -> BTreeSet<(String, u64)> {
        store
            .entries()
            .iter()
            .map(|e| (e.name.clone(), e.fingerprint))
            .collect()
    };
    assert_eq!(set(&store_f), set(&store_r));

    // A second import of the same seeds dedups every one of them, in
    // either order.
    let again = import_seeds(&mut store_f, &reversed, jcorpus::Provenance::Imported).unwrap();
    assert!(again.admitted.is_empty(), "{:?}", again.admitted);
    assert_eq!(again.deduped.len(), seeds.len());

    for dir in [dir_f, dir_r] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The power scheduler is a pure function of (admissions, recorded
/// outcomes, campaign seed, round number).
#[test]
fn power_scheduler_is_deterministic_for_a_fixed_seed() {
    let build = || {
        let mut s = jcorpus::PowerScheduler::new();
        for (i, name) in ["alpha", "beta", "gamma", "delta"].iter().enumerate() {
            s.admit(
                name,
                jcorpus::EntryStats {
                    schedules: i as u64,
                    yield_sum: 3.5 * i as f64,
                    faults: (i % 2) as u64,
                    bugs: 0,
                },
                false,
            );
        }
        s
    };
    let (mut a, mut b) = (build(), build());
    for round in 0..48 {
        let pa = a.pick(round, 0xC0FFEE);
        assert_eq!(pa, b.pick(round, 0xC0FFEE), "round {round}");
        // Feed identical outcomes back so later rounds see identical state.
        let name = pa.unwrap();
        a.record_ok(&name, round as f64, 0);
        b.record_ok(&name, round as f64, 0);
    }
}

/// Killing a journaled corpus campaign after any prefix of rounds and
/// resuming reproduces the uninterrupted result bit-for-bit — including
/// the store flush: per-entry stats, promoted entries and quarantine are
/// byte-identical on disk.
#[test]
fn corpus_resume_is_bit_identical() {
    let dir = temp_dir("resume");
    let mut store = seeded_store(&dir);
    let journal = dir.join("campaign.jsonl");
    let config = small_config(6, 401);
    let opts = CorpusOptions {
        promote_threshold: 1.0,
        ..CorpusOptions::default()
    };

    let full = run_corpus_campaign(&mut store, &config, &opts, Some(&journal), None).unwrap();
    let full_manifest = manifest_bytes(&dir);
    let full_quarantine = quarantine_bytes(&dir);
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = journal_text.lines().collect();
    assert_eq!(
        lines.len(),
        1 + config.rounds,
        "header + one line per round"
    );

    for kept_rounds in [0usize, 3, 5] {
        std::fs::write(&journal, lines[..=kept_rounds].join("\n")).unwrap();
        let resumed = resume_campaign(&journal).unwrap();
        assert_eq!(resumed, full, "kept {kept_rounds} rounds");
        assert_eq!(manifest_bytes(&dir), full_manifest, "kept {kept_rounds}");
        assert_eq!(quarantine_bytes(&dir), full_quarantine);
    }

    // Killed mid-write: the torn trailing line is dropped and re-run.
    let mut torn = lines[..=2].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&journal, torn).unwrap();
    let resumed = resume_campaign(&journal).unwrap();
    assert_eq!(resumed, full, "mid-line truncation");
    assert_eq!(manifest_bytes(&dir), full_manifest);

    std::fs::remove_dir_all(dir).ok();
}

/// Runs the two-campaign promotion lifecycle on a fresh store and
/// returns (campaign-1 result, campaign-2 result, campaign-2 journal
/// seeds in round order).
fn promotion_lifecycle(dir: &Path) -> (CampaignResult, CampaignResult, Vec<String>) {
    let mut store = seeded_store(dir);
    let opts = CorpusOptions {
        promote_threshold: 1.0,
        ..CorpusOptions::default()
    };
    let first = run_corpus_campaign(&mut store, &small_config(4, 2024), &opts, None, None).unwrap();

    // Reopen from disk: campaign two must see campaign one only through
    // the persisted store.
    let mut store = jcorpus::Store::open(dir).unwrap();
    let journal = dir.join("second.jsonl");
    let second = run_corpus_campaign(
        &mut store,
        &small_config(12, 2025),
        &opts,
        Some(&journal),
        None,
    )
    .unwrap();
    let scheduled = read_journal(&journal)
        .unwrap()
        .records
        .iter()
        .map(|r| r.seed.clone())
        .collect();
    (first, second, scheduled)
}

/// The full promotion story: campaign one promotes at least one
/// high-yield mutant into the store (minimized, `promoted` provenance,
/// parented to the seed that bred it); campaign two — a separate
/// process in spirit, reopening the store from disk — schedules it. The
/// whole two-campaign lifecycle is deterministic.
#[test]
fn promoted_mutants_become_seeds_for_the_next_campaign() {
    let (dir_a, dir_b) = (temp_dir("promo_a"), temp_dir("promo_b"));
    let (first, second, scheduled) = promotion_lifecycle(&dir_a);

    assert!(
        !first.promotions.is_empty(),
        "campaign one must promote something (deltas: {:?})",
        first.final_deltas
    );
    let store = jcorpus::Store::open(&dir_a).unwrap();
    let promoted: Vec<_> = store
        .entries()
        .iter()
        .filter(|e| e.provenance == jcorpus::Provenance::Promoted)
        .collect();
    // Both campaigns promote into the same store.
    assert_eq!(
        promoted.len(),
        first.promotions.len() + second.promotions.len()
    );
    for entry in &promoted {
        assert!(entry.name.starts_with('p'), "{:?}", entry.name);
        assert!(entry.parent.is_some(), "promotions record their seed");
        // The minimized program is on disk and loadable.
        assert!(store.program(&entry.name).is_some());
    }
    assert!(
        scheduled.iter().any(|s| s.starts_with('p')),
        "campaign two must schedule a promoted entry: {scheduled:?}"
    );
    assert!(second.executions > 0);

    // The lifecycle is deterministic end to end.
    let (first_b, second_b, scheduled_b) = promotion_lifecycle(&dir_b);
    assert_eq!(first, first_b);
    assert_eq!(second, second_b);
    assert_eq!(scheduled, scheduled_b);
    assert_eq!(manifest_bytes(&dir_a), manifest_bytes(&dir_b));

    for dir in [dir_a, dir_b] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A seed quarantined whole in campaign one is never attempted by
/// campaign two: the quarantine is persisted in the store and blocks the
/// scheduler before the first round.
#[test]
fn quarantine_persists_across_campaigns() {
    let dir = temp_dir("quarantine");
    let mut store = seeded_store(&dir);

    // Campaign one: a round-step deadline nothing fits under faults every
    // attempt; unattributable faults quarantine the seed as a whole.
    let mut config = small_config(2, 11);
    config.supervisor.round_step_deadline = Some(1);
    config.supervisor.max_retries = 1;
    config.supervisor.quarantine_threshold = 1;
    let opts = CorpusOptions::default();
    let first = run_corpus_campaign(&mut store, &config, &opts, None, None).unwrap();
    let banned: BTreeSet<String> = first
        .quarantined
        .iter()
        .filter(|(_, m)| m.is_none())
        .map(|(s, _)| s.clone())
        .collect();
    assert!(!banned.is_empty(), "campaign one must quarantine seeds");

    // The pairs are on disk.
    let store = jcorpus::Store::open(&dir).unwrap();
    for name in &banned {
        assert!(
            store
                .quarantine()
                .iter()
                .any(|(s, m)| s == name && m.is_none()),
            "{name} missing from persisted quarantine"
        );
    }

    // Campaign two (healthy config) never schedules a banned seed.
    let mut store = jcorpus::Store::open(&dir).unwrap();
    let journal = dir.join("second.jsonl");
    run_corpus_campaign(
        &mut store,
        &small_config(8, 12),
        &opts,
        Some(&journal),
        None,
    )
    .unwrap();
    for record in &read_journal(&journal).unwrap().records {
        assert!(
            !banned.contains(&record.seed),
            "round {} ran quarantined seed {:?}",
            record.round,
            record.seed
        );
    }

    std::fs::remove_dir_all(dir).ok();
}

/// `corpus stats --json` output parses and carries the documented schema:
/// a typed, versioned object whose entries mirror the store.
#[test]
fn stats_json_is_machine_readable() {
    use jtelemetry::json::{parse, Json};

    let dir = temp_dir("stats_json");
    let mut store = seeded_store(&dir);
    run_corpus_campaign(
        &mut store,
        &small_config(3, 57),
        &CorpusOptions::default(),
        None,
        None,
    )
    .unwrap();

    let json = parse(&store.stats_json()).expect("stats --json must be valid JSON");
    assert_eq!(json.get("type"), Some(&Json::Str("jcorpus-stats".into())));
    assert_eq!(json.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(json.get("dir"), Some(&Json::Str(dir.display().to_string())));
    let Some(Json::Arr(entries)) = json.get("entries") else {
        panic!("entries must be an array");
    };
    assert_eq!(entries.len(), store.entries().len());
    let mut total = 0.0;
    for entry in entries {
        for key in ["id", "name", "fingerprint", "provenance"] {
            assert!(
                matches!(entry.get(key), Some(Json::Str(_))),
                "{key} must be a string: {entry:?}"
            );
        }
        assert!(matches!(
            entry.get("parent"),
            Some(Json::Str(_) | Json::Null)
        ));
        for key in [
            "schedules",
            "yield_sum",
            "faults",
            "bugs",
            "energy",
            "floor_streak",
        ] {
            assert!(
                entry.get(key).and_then(Json::as_f64).is_some(),
                "{key} must be a number: {entry:?}"
            );
        }
        let Some(energy) = entry.get("energy").and_then(Json::as_f64) else {
            unreachable!()
        };
        total += energy;
    }
    assert!(matches!(json.get("tombstones"), Some(Json::Arr(_))));
    let Some(Json::Arr(quarantine)) = json.get("quarantine") else {
        panic!("quarantine must be an array");
    };
    assert_eq!(quarantine.len(), store.quarantine().len());
    let Some(reported) = json.get("total_energy").and_then(Json::as_f64) else {
        panic!("total_energy must be a number");
    };
    assert!((reported - total).abs() < 1e-9);

    std::fs::remove_dir_all(dir).ok();
}

/// Fingerprint memoization: re-importing an already-imported seed set is
/// served entirely from the manifest's source hashes — zero reference-JVM
/// executions.
#[test]
fn reimport_skips_reference_jvm_via_memoized_fingerprints() {
    let dir = temp_dir("memoized");
    let mut store = seeded_store(&dir);

    jtelemetry::install(jtelemetry::Session::new());
    let again = import_seeds(
        &mut store,
        &corpus::builtin(),
        jcorpus::Provenance::Imported,
    );
    let metrics = jtelemetry::take().unwrap().snapshot();
    let again = again.unwrap();

    assert!(again.admitted.is_empty());
    assert_eq!(again.deduped.len(), corpus::builtin().len());
    assert_eq!(
        metrics.counter("vm_executions"),
        0,
        "memoized re-import must not execute the reference JVM"
    );

    std::fs::remove_dir_all(dir).ok();
}

/// Corpus GC leaves tombstones, not dangling ids: a journal written
/// before an entry was collected still resumes to the uninterrupted
/// result, because replay resolves seeds from the journal and the flush
/// treats tombstoned names as no-ops.
#[test]
fn gc_tombstones_do_not_break_resume() {
    let dir = temp_dir("gc_resume");
    let mut store = seeded_store(&dir);
    let journal = dir.join("campaign.jsonl");
    let config = small_config(6, 401);
    let opts = CorpusOptions::default();
    let full = run_corpus_campaign(&mut store, &config, &opts, Some(&journal), None).unwrap();

    // Collect a seed the campaign actually scheduled.
    let mut store = jcorpus::Store::open(&dir).unwrap();
    let victim = store
        .entries()
        .iter()
        .find(|e| e.stats.schedules > 0)
        .expect("some entry was scheduled")
        .name
        .clone();
    store.set_floor_streak(&victim, 5).unwrap();
    let dropped = store.gc(1);
    assert!(dropped.contains(&victim), "{dropped:?}");
    store.save().unwrap();
    let store = jcorpus::Store::open(&dir).unwrap();
    assert!(store.entries().iter().all(|e| e.name != victim));
    assert!(store.tombstones().iter().any(|t| t.name == victim));

    // Truncate the journal and resume over the GC'd store.
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = journal_text.lines().collect();
    std::fs::write(&journal, lines[..=3].join("\n")).unwrap();
    let resumed = resume_campaign(&journal).unwrap();
    assert_eq!(
        resumed, full,
        "resume over tombstones must reproduce the run"
    );

    std::fs::remove_dir_all(dir).ok();
}

/// Mutating filesystem operations of one save that follows dirtying a
/// single entry's stats (and, with `admit`, admitting one new program)
/// on a store holding `entries` seeds.
fn dirty_one_save_ops(tag: &str, entries: usize, admit: bool) -> u64 {
    let dir = temp_dir(tag);
    let mut store = jcorpus::Store::init(&dir).unwrap();
    // Generated seeds can share a fingerprint, so import until the store
    // holds exactly `entries` distinct ones.
    for seed in corpus::corpus(2 * entries, 1) {
        if store.entries().len() == entries {
            break;
        }
        import_seeds(&mut store, &[seed], jcorpus::Provenance::Builtin).unwrap();
    }
    assert_eq!(store.entries().len(), entries);
    store.save().unwrap();
    drop(store);

    let probe = Arc::new(jcorpus::ChaosVfs::probe());
    let mut store = jcorpus::Store::open_with(&dir, probe.clone()).unwrap();
    let name = store.entries()[0].name.clone();
    let stats = jcorpus::EntryStats {
        schedules: 1,
        ..Default::default()
    };
    store.set_stats(&name, stats).unwrap();
    if admit {
        let program = corpus::builtin()[0].program.clone();
        let admission = store.admit("one_more", &program, 0, jcorpus::Provenance::Promoted, None);
        assert_eq!(admission, jcorpus::Admission::Fresh("one_more".to_string()));
    }
    let before = probe.ops();
    store.save().unwrap();
    let ops = probe.ops() - before;
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

/// Entry sources are write-once, so a flush rewrites the manifest and
/// the quarantine but no committed source: flushing one entry's stats
/// costs the same at 24 and at 48 entries, and admitting one entry adds
/// exactly one atomic write (tmp write, fsync, rename, directory fsync).
#[test]
fn one_entry_flushes_cost_the_same_at_any_store_size() {
    let flush = dirty_one_save_ops("flush", 24, false);
    let flush_2x = dirty_one_save_ops("flush_2x", 48, false);
    assert_eq!(flush, flush_2x, "a stats flush grew with the store");
    let admit = dirty_one_save_ops("flush_admit", 24, true);
    assert_eq!(admit, flush + 4, "an admission costs one atomic write");
}
