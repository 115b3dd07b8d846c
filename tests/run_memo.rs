//! The differential oracle runs one program on eight JVMs, and every JVM
//! interprets the same tier-0 image and mostly the same installed code.
//! `jexec::run` remembers each thread's recent runs, so a repeated run
//! costs no execution — and no code-cache lookup. Own test binary: no
//! other test touches the code cache while this one counts.

use jvmsim::{JvmSpec, RunOptions};
use mopfuzzer::{corpus, differential};

fn lookups() -> u64 {
    let stats = jexec::threaded::cache_stats();
    stats.hits + stats.misses
}

#[test]
fn a_repeated_differential_is_served_from_the_run_memo() {
    let seed = &corpus::builtin()[0];
    let pool = JvmSpec::differential_pool();
    let options = RunOptions::fuzzing();
    assert_eq!(pool.len(), 8);
    // One JVM on a fresh thread: a fresh memo.
    let single = std::thread::scope(|s| {
        s.spawn(|| {
            let before = lookups();
            jvmsim::run_jvm_with_image(&seed.program, None, &pool[0], &options);
            lookups() - before
        })
        .join()
        .unwrap()
    });
    assert!(single > 0);

    let before = lookups();
    let first = differential(&seed.program, &pool, &options);
    let first_lookups = lookups() - before;
    assert_eq!(first.executions, 8);
    assert!(
        first_lookups < 8 * single,
        "{first_lookups} lookups for 8 JVMs, {single} for one: the JVMs re-ran the shared tier 0"
    );

    let before = lookups();
    let second = differential(&seed.program, &pool, &options);
    assert_eq!(second, first);
    assert_eq!(lookups() - before, 0, "the repeat executed something");
}
