//! The optimizer's process-wide pipeline memo outlives a campaign. A
//! campaign that flushed it at its start would, in `mopfuzzerd`, flush it
//! under every tenant already running. Own test binary: no other test
//! touches the memo while this one counts.

use mopfuzzer::{corpus, run_campaign, CampaignConfig};

#[test]
fn a_repeated_campaign_runs_on_warm_caches() {
    let seeds = corpus::builtin();
    let config = CampaignConfig {
        iterations_per_seed: 8,
        ..CampaignConfig::new(3)
    };
    // (lookups, misses) of the pipeline memo, process lifetime.
    let stats = || {
        let memo = jopt::pipeline::cache_stats();
        (memo.hits + memo.misses, memo.misses)
    };
    let before = stats();
    let first = run_campaign(&seeds, &config);
    let between = stats();
    let second = run_campaign(&seeds, &config);
    let after = stats();
    assert_eq!(first, second);
    let cold = (between.0 - before.0, between.1 - before.1);
    // Identical campaigns look up identical keys; a counter that did not
    // grow by the same amount was reset in between.
    assert_eq!(
        after.0.checked_sub(between.0),
        Some(cold.0),
        "the second campaign reset the counters"
    );
    let warm_misses = after.1 - between.1;
    assert!(cold.1 > 0, "the first campaign missed nothing");
    assert!(
        warm_misses * 10 <= cold.1,
        "{warm_misses} misses on the second run vs {} on the first",
        cold.1
    );
}
