//! Property-based tests over the core invariants, using proptest to
//! drive generator and RNG seeds.

use jprofile::{Obv, Pattern};
use jvmsim::Trigger;
use mopfuzzer::all_mutators;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng as _;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated corpus programs always parse back to themselves.
    #[test]
    fn generated_programs_round_trip(gen_seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let program = mopfuzzer::corpus::generate(&mut rng, gen_seed as usize % 1000);
        let printed = mjava::print(&program);
        let reparsed = mjava::parse(&printed).expect("generated program parses");
        prop_assert_eq!(reparsed, program);
    }

    /// Generated programs always build and execute cleanly on the
    /// reference interpreter.
    #[test]
    fn generated_programs_execute(gen_seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let program = mopfuzzer::corpus::generate(&mut rng, gen_seed as usize % 1000);
        let outcome = jexec::run_program(&program, &jexec::ExecConfig::default())
            .expect("generated program builds");
        prop_assert!(outcome.is_clean());
        prop_assert_eq!(outcome.output.len(), 1);
    }

    /// Every applicable mutator application yields a mutant that builds,
    /// whose updated MP resolves, and that reparses exactly.
    #[test]
    fn mutations_preserve_validity(seed_idx in 0usize..10, rng_seed in any::<u64>()) {
        let seed = &mopfuzzer::corpus::builtin()[seed_idx];
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let Some(mp) = mopfuzzer::fuzzer::select_mp(&seed.program, &mut rng) else {
            return Ok(());
        };
        for mutator in all_mutators() {
            if !mutator.is_applicable(&seed.program, &mp) {
                continue;
            }
            let Some(mutation) = mutator.apply(&seed.program, &mp, &mut rng) else {
                continue;
            };
            prop_assert!(
                mjava::path::stmt_at(&mutation.program, &mutation.mp).is_some(),
                "stale MP from {:?}", mutator.kind()
            );
            let printed = mjava::print(&mutation.program);
            prop_assert_eq!(
                &mjava::parse(&printed).expect("mutant parses"),
                &mutation.program
            );
            let outcome = jexec::run_program(&mutation.program, &jexec::ExecConfig::default())
                .expect("mutant builds");
            prop_assert!(
                outcome.error.is_none()
                    || outcome.error.as_ref().is_some_and(|e| e.is_program_level()),
                "VM-level error {:?} from {:?}", outcome.error, mutator.kind()
            );
        }
    }

    /// Δ is non-negative, zero on identity, and grows monotonically when
    /// a child gains extra behaviours (Eq. 2 sanity).
    #[test]
    fn delta_metric_properties(counts in proptest::collection::vec(0u64..40, 19)) {
        let mut obv = Obv::zero();
        for (kind, &count) in jopt::OptEventKind::observable().zip(counts.iter()) {
            for _ in 0..count {
                obv.bump(kind);
            }
        }
        prop_assert_eq!(Obv::delta(&obv, &obv), 0.0);
        let mut bigger = obv;
        bigger.bump(jopt::OptEventKind::Unroll);
        let d = Obv::delta(&obv, &bigger);
        prop_assert!(d >= 1.0 - 1e-12);
        // Symmetric decrease is invisible.
        prop_assert_eq!(Obv::delta(&bigger, &obv), 0.0);
    }

    /// Weight updates never shrink a weight (Eq. 3 multiplies by ≥ 1).
    #[test]
    fn weights_are_monotone(w in 0.01f64..100.0, bumps in 0u64..50) {
        let mut child = Obv::zero();
        for _ in 0..bumps {
            child.bump(jopt::OptEventKind::Inline);
        }
        let delta = Obv::delta(&Obv::zero(), &child);
        let updated = jprofile::update_weight(w, delta, &child);
        prop_assert!(updated >= w * (1.0 - 1e-12));
    }

    /// The pattern engine never panics and literal patterns match iff the
    /// literal occurs.
    #[test]
    fn pattern_engine_total(haystack in ".{0,64}", needle in "[A-Za-z ]{1,8}") {
        let p = Pattern::new(&needle);
        prop_assert_eq!(p.is_match(&haystack), haystack.contains(&needle));
    }

    /// Trigger evaluation is monotone: adding events can only turn more
    /// `AtLeast` conjunctions true, never falsify a firing trigger.
    #[test]
    fn triggers_are_monotone(extra in 0u64..5) {
        use jopt::{OptEvent, OptEventKind};
        let base: Vec<OptEvent> = vec![
            OptEvent { kind: OptEventKind::Unroll, method: "m".into(), detail: "2".into() },
            OptEvent { kind: OptEventKind::LockCoarsen, method: "m".into(), detail: "2".into() },
            OptEvent { kind: OptEventKind::NestedLock, method: "m".into(), detail: "2".into() },
        ];
        let mut more = base.clone();
        for _ in 0..extra {
            more.push(OptEvent {
                kind: OptEventKind::Peel,
                method: "m".into(),
                detail: "1".into(),
            });
        }
        for bug in jvmsim::bugs::extended_library() {
            if bug.fires(&base) {
                prop_assert!(bug.fires(&more), "{} lost firing on superset", bug.id);
            }
        }
        // And the trigger combinators behave.
        let t = Trigger::Any(vec![
            Trigger::AtLeast(jopt::OptEventKind::Unroll, 1),
            Trigger::AtLeast(jopt::OptEventKind::Deopt, 9),
        ]);
        prop_assert!(t.eval(&jvmsim::bugs::count_events(&base)));
    }
}

/// A deterministic Fisher-Yates permutation keyed by `key` (no RNG dep).
fn permuted(pool: &[jvmsim::JvmSpec], key: u64) -> Vec<jvmsim::JvmSpec> {
    let mut v = pool.to_vec();
    let mut state = key | 1;
    for i in (1..v.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.swap(i, (state >> 33) as usize % (i + 1));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Verdicts are a property of the *set* of JVMs, not their order: for
    /// any pool permutation, non-crash results are fully identical
    /// (culprit sets, outputs, coverage, totals — all of them
    /// canonicalized), and a crash verdict stays a crash verdict (which
    /// JVM wins is by design the first crasher in pool order).
    #[test]
    fn verdicts_are_invariant_under_pool_permutation(
        seed_index in 0usize..6,
        key in any::<u64>(),
    ) {
        use mopfuzzer::{differential, fuzz, FuzzConfig, OracleVerdict};
        let seeds = mopfuzzer::corpus::builtin();
        let seed = &seeds[seed_index % seeds.len()];
        let pool = jvmsim::JvmSpec::differential_pool();
        let options = jvmsim::RunOptions::fuzzing();
        let config = FuzzConfig {
            max_iterations: 8,
            rng_seed: key,
            ..FuzzConfig::new(pool[seed_index % pool.len()].clone())
        };
        let mutant = fuzz(&seed.program, &config).final_mutant;
        let base = differential(&mutant, &pool, &options);
        let perm = differential(&mutant, &permuted(&pool, key), &options);
        match (&base.verdict, &perm.verdict) {
            (OracleVerdict::Crash { .. }, OracleVerdict::Crash { .. }) => {}
            _ => prop_assert_eq!(&base, &perm),
        }
    }
}
