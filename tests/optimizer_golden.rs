//! Pins what `jopt::optimize` produces, one 64-bit digest per
//! (program, method, compile configuration), in
//! `tests/golden/optimizer_v1.txt`.
//!
//! The inputs are the built-in seeds, a few generated seeds and a few
//! mutants of the built-in seeds; the configurations are the distinct
//! (phase order, limits) pairs of the differential pool's C1 and C2
//! tiers. A digest covers the printed program with the optimized method
//! installed, every event, the trace log under all flags, the sorted
//! covered blocks and the number of phases run. Any change to an
//! optimizer phase that alters one byte of its output fails here and
//! names the (program, method, config) that moved.
//!
//! The inputs come from the seed generator and the mutators, so a change
//! there moves the table too. Regenerate only on purpose, when such a
//! change or an optimizer output change is intended:
//!
//! ```text
//! cargo test --test optimizer_golden regenerate_optimizer_golden -- --ignored
//! ```

use jopt::{FlagSet, OptLimits, PhaseId};
use jtelemetry::FlightKind;
use mopfuzzer::corpus::{builtin, corpus, Seed};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};
use std::path::PathBuf;
use std::sync::Arc;

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/optimizer_v1.txt")
}

/// Built-in seeds, generated seeds and mutants of the built-in seeds.
fn inputs() -> Vec<Seed> {
    let mut seeds = builtin();
    let generated: Vec<Seed> = corpus(12, 11).into_iter().skip(seeds.len()).collect();
    let mutators = mopfuzzer::all_mutators();
    let mutants: Vec<Seed> = (0..3 * seeds.len())
        .map(|i| {
            let seed = &seeds[i % seeds.len()];
            let mut rng = SmallRng::seed_from_u64(i as u64);
            let mut program = seed.program.clone();
            let mut mp = mopfuzzer::fuzzer::select_mp(&program, &mut rng).expect("a statement");
            for _ in 0..16 {
                let mutator = &mutators[rng.gen_range(0..mutators.len())];
                if !mutator.is_applicable(&program, &mp) {
                    continue;
                }
                if let Some(m) = mutator.apply(&program, &mp, &mut rng) {
                    program = m.program;
                    mp = m.mp;
                }
            }
            Seed {
                name: format!("mut{i}_{}", seed.name),
                program,
            }
        })
        .collect();
    seeds.extend(generated);
    seeds.extend(mutants);
    seeds
}

/// The distinct (phase order, limits) pairs of the pool's C1 and C2
/// tiers, each labelled by the first JVM and tier that uses it.
fn configs() -> Vec<(String, Vec<PhaseId>, OptLimits)> {
    let mut out: Vec<(String, Vec<PhaseId>, OptLimits)> = Vec::new();
    for spec in jvmsim::JvmSpec::differential_pool() {
        for (tier, phases) in [("c1", &spec.c1_phases), ("c2", &spec.c2_phases)] {
            if !out.iter().any(|(_, p, l)| p == phases && *l == spec.limits) {
                out.push((
                    format!("{}.{tier}", spec.name()),
                    phases.clone(),
                    spec.limits,
                ));
            }
        }
    }
    out
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One length-prefixed field into the digest.
fn feed(h: u64, field: &str) -> u64 {
    fnv1a(
        fnv1a(h, &(field.len() as u64).to_le_bytes()),
        field.as_bytes(),
    )
}

/// Optimizes one method and digests everything the compile produced.
fn digest(
    program: &mjava::Program,
    class: &str,
    method: &str,
    phases: &[PhaseId],
    limits: OptLimits,
) -> u64 {
    jtelemetry::flight_reset();
    let out = jopt::optimize(program, class, method, phases, limits, &FlagSet::all())
        .expect("method exists");
    let phases_run = jtelemetry::flight_snapshot()
        .iter()
        .filter(|e| e.kind == FlightKind::Phase)
        .count();
    let mut installed = program.clone();
    let slot = installed
        .classes
        .iter_mut()
        .find(|c| c.name == class)
        .and_then(|c| c.methods.iter_mut().find(|m| m.name == method))
        .expect("method exists");
    *slot = Arc::unwrap_or_clone(out.method);
    let mut h = feed(0xcbf2_9ce4_8422_2325, &mjava::print(&installed));
    for e in &out.events {
        h = feed(h, e.kind.name());
        h = feed(h, &e.method);
        h = feed(h, &e.detail);
    }
    for line in &out.log {
        h = feed(h, line);
    }
    let mut covered: Vec<u32> = out.covered.into_iter().collect();
    covered.sort_unstable();
    for block in covered {
        h = fnv1a(h, &block.to_le_bytes());
    }
    fnv1a(h, &(phases_run as u64).to_le_bytes())
}

/// The table: one `program class::method config digest` line per compile.
fn table() -> String {
    // A session is needed only to count the phase spans of each compile.
    jtelemetry::install(jtelemetry::Session::new());
    let configs = configs();
    let mut out = String::new();
    for seed in inputs() {
        for class in &seed.program.classes {
            for method in &class.methods {
                for (label, phases, limits) in &configs {
                    let d = digest(&seed.program, &class.name, &method.name, phases, *limits);
                    out.push_str(&format!(
                        "{} {}::{} {label} {d:016x}\n",
                        seed.name, class.name, method.name
                    ));
                }
            }
        }
    }
    jtelemetry::take();
    out
}

#[test]
fn optimizer_output_matches_the_golden_table() {
    let expected = std::fs::read_to_string(table_path()).expect("golden table present");
    let actual = table();
    let changed: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        changed.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} of {} compiles differ from the golden table ({} lines expected, {} produced):\n{}",
        changed.len(),
        expected.lines().count(),
        expected.lines().count(),
        actual.lines().count(),
        changed.join("\n")
    );
}

#[test]
#[ignore = "regenerates the committed optimizer golden table"]
fn regenerate_optimizer_golden() {
    std::fs::write(table_path(), table()).expect("write golden table");
}
