//! The execution substrate's process-wide caches (the threaded code cache
//! and the optimizer's pipeline memo) outlive a campaign. A campaign that
//! flushed them at its start would, in `mopfuzzerd`, flush them under
//! every tenant already running. Own test binary: no other test touches
//! the caches while this one counts.

use mopfuzzer::{corpus, run_campaign, CampaignConfig};

#[test]
fn a_repeated_campaign_runs_on_warm_caches() {
    let seeds = corpus::builtin();
    let config = CampaignConfig {
        iterations_per_seed: 8,
        ..CampaignConfig::new(3)
    };
    // (lookups, misses) of both caches, process lifetime.
    let stats = || {
        let code = jexec::threaded::cache_stats();
        let memo = jopt::pipeline::cache_stats();
        [
            (code.hits + code.misses, code.misses),
            (memo.hits + memo.misses, memo.misses),
        ]
    };
    let before = stats();
    let first = run_campaign(&seeds, &config);
    let between = stats();
    let second = run_campaign(&seeds, &config);
    let after = stats();
    assert_eq!(first, second);
    for (cache, name) in ["code cache", "pipeline memo"].into_iter().enumerate() {
        let cold = (
            between[cache].0 - before[cache].0,
            between[cache].1 - before[cache].1,
        );
        // Identical campaigns look up identical keys; a counter that did
        // not grow by the same amount was reset in between.
        assert_eq!(
            after[cache].0.checked_sub(between[cache].0),
            Some(cold.0),
            "{name}: the second campaign reset the counters"
        );
        let warm_misses = after[cache].1 - between[cache].1;
        assert!(cold.1 > 0, "{name}: the first campaign missed nothing");
        assert!(
            warm_misses * 10 <= cold.1,
            "{name}: {warm_misses} misses on the second run vs {} on the first",
            cold.1
        );
    }
}
