//! Golden-journal regression corpus: reference journals committed under
//! `tests/golden/`, pinned byte for byte. Two invariants ride on them:
//!
//! * **Engine stability** — re-running the recorded campaign (at a
//!   *parallel* `--jobs` setting, exercising the speculative round
//!   engine) reproduces the committed bytes exactly. Any drift in mutation order, verdicts, coverage
//!   deltas, or journal encoding fails here first.
//! * **Resume fidelity** — `--resume` re-emits a journal bit-identically,
//!   both from a complete journal and from one interrupted mid-campaign.
//!
//! Plain mode only: corpus-mode headers embed machine-specific store
//! paths. Fault plans *are* journaled, so the fault-injected golden
//! legitimately covers retry and quarantine records.
//!
//! To regenerate after an intentional engine change:
//!
//! ```text
//! cargo test --test golden regenerate_golden_journals -- --ignored
//! ```
//!
//! then commit the diff alongside the change that explains it.

use jvmsim::FaultPlan;
use mopfuzzer::corpus::Seed;
use mopfuzzer::{
    read_journal, resume_campaign_extended, run_campaign_with_journal, CampaignConfig,
    JournalWriter,
};
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mop_golden_{}_{name}", std::process::id()))
}

/// The recorded campaigns, each with its seed corpus. Configs are spelled
/// out here because worker counts are not journaled — the journal is
/// identical at any of them.
///
/// Beyond the two engine-stability campaigns, three themed campaigns pin
/// the execution substrate itself: `long_heavy` (untagged 64-bit value
/// representation at the i32/i64 boundaries), `deep_call` (register-file
/// frame windows under recursion and leaf-inline-threshold call storms),
/// and `reflection` (the reflective invoke path's receiver and boxed-value
/// crossings).
fn golden_campaigns() -> Vec<(&'static str, CampaignConfig, Vec<Seed>)> {
    let plain = CampaignConfig {
        iterations_per_seed: 10,
        rounds: 6,
        rng_seed: 2024,
        ..CampaignConfig::new(6)
    };
    let mut faulted = CampaignConfig {
        iterations_per_seed: 10,
        rounds: 8,
        rng_seed: 77,
        ..CampaignConfig::new(8)
    };
    faulted.fault = Some(FaultPlan::new(7, 0.25));
    let themed = |rng_seed: u64| CampaignConfig {
        iterations_per_seed: 6,
        rounds: 4,
        rng_seed,
        ..CampaignConfig::new(4)
    };
    vec![
        ("plain_v2.jsonl", plain, mopfuzzer::corpus::builtin()),
        ("faulted_v2.jsonl", faulted, mopfuzzer::corpus::builtin()),
        (
            "long_heavy_v1.jsonl",
            themed(4101),
            mopfuzzer::corpus::long_heavy_seeds(),
        ),
        (
            "deep_call_v1.jsonl",
            themed(4102),
            mopfuzzer::corpus::deep_call_seeds(),
        ),
        (
            "reflection_v1.jsonl",
            themed(4103),
            mopfuzzer::corpus::reflection_heavy_seeds(),
        ),
    ]
}

/// Re-running the recorded campaign — with round-level parallelism on —
/// reproduces the committed journal bytes.
#[test]
fn fresh_runs_reproduce_the_golden_journals() {
    for (name, mut config, seeds) in golden_campaigns() {
        let golden = fs::read(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e} (see module docs)"));
        config.jobs = 2;
        let path = temp_path(name);
        run_campaign_with_journal(&seeds, &config, &path).unwrap();
        assert_eq!(
            golden,
            fs::read(&path).unwrap(),
            "fresh run diverged from golden {name}; if the engine change is \
             intentional, regenerate (see module docs)"
        );
        fs::remove_file(&path).ok();
    }
}

/// `--resume` re-emits every golden bit-identically: from the complete
/// journal (pure replay) and from a copy interrupted halfway (replay +
/// live completion), in both cases with parallel workers.
#[test]
fn resume_reemits_the_golden_bytes() {
    for (name, _, _) in golden_campaigns() {
        let golden_path = golden_dir().join(name);
        let golden = fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden {name}: {e} (see module docs)"));
        let contents = read_journal(&golden_path).unwrap();
        let cuts = [contents.records.len(), contents.records.len() / 2];
        for (i, cut) in cuts.into_iter().enumerate() {
            // Rebuild a journal holding only the first `cut` records — the
            // on-disk state of a campaign killed mid-flight.
            let path = temp_path(&format!("{i}_{name}"));
            let mut writer = JournalWriter::create(
                &path,
                &contents.config,
                &contents.seeds,
                contents.corpus.as_ref(),
            )
            .unwrap();
            for record in &contents.records[..cut] {
                writer.write_round(record).unwrap();
            }
            drop(writer);
            resume_campaign_extended(&path, None, Some(2), None).unwrap();
            assert_eq!(
                golden,
                fs::read(&path).unwrap(),
                "resume from {cut} record(s) did not re-emit golden {name}"
            );
            fs::remove_file(&path).ok();
        }
    }
}

/// Writes the reference journals (serial engine — though any worker
/// count produces the same bytes, the generator stays at 1 so a
/// determinism bug can never contaminate the references themselves).
/// Run explicitly after an intentional engine change; see module docs.
#[test]
#[ignore = "regenerates the committed golden journals"]
fn regenerate_golden_journals() {
    fs::create_dir_all(golden_dir()).unwrap();
    for (name, config, seeds) in golden_campaigns() {
        let path = golden_dir().join(name);
        run_campaign_with_journal(&seeds, &config, &path).unwrap();
        println!("wrote {}", path.display());
    }
}

/// Worker counts are an execution detail: the themed substrate campaigns
/// emit byte-identical journals at `--jobs 1` and `--jobs 4`.
#[test]
fn themed_campaigns_are_byte_identical_across_worker_counts() {
    for (name, config, seeds) in golden_campaigns() {
        if !name.ends_with("_v1.jsonl") {
            continue;
        }
        let golden = fs::read(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e} (see module docs)"));
        for jobs in [1, 4] {
            let mut config = config.clone();
            config.jobs = jobs;
            let path = temp_path(&format!("j{jobs}_{name}"));
            run_campaign_with_journal(&seeds, &config, &path).unwrap();
            assert_eq!(
                golden,
                fs::read(&path).unwrap(),
                "golden {name} diverged at --jobs {jobs}"
            );
            fs::remove_file(&path).ok();
        }
    }
}
