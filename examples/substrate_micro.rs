//! Per-shape substrate microbenchmark: times `--exec-mode interp` vs
//! `--exec-mode threaded` on small programs that isolate one dispatch
//! shape each (counted loops, local/static arithmetic, static and
//! virtual calls, field access, boxing), reporting ns/step per mode.
//!
//! Complements the campaign benchmark (`campaignbench/`, which measures
//! the full campaign workload): when the campaign-level ratio moves,
//! this shows *which* shape moved. `--workload-profile` prints the
//! opcode mix of a campaign-shaped workload instead, for deciding what
//! to fuse next.
use jexec::{ExecConfig, ExecMode, Image};
use std::time::Instant;

/// Opcode mix of the final mutants of 20-iteration fuzzing runs over the
/// builtin seeds (sampled 1/64).
fn workload_profile() {
    use mopfuzzer::{fuzz, FuzzConfig};
    let pool = jvmsim::JvmSpec::differential_pool();
    let programs: Vec<mjava::Program> = mopfuzzer::corpus::builtin()
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, seed)| {
            let config = FuzzConfig {
                max_iterations: 20,
                rng_seed: i as u64,
                ..FuzzConfig::new(pool[i % pool.len()].clone())
            };
            fuzz(&seed.program, &config).final_mutant
        })
        .collect();
    jtelemetry::install(jtelemetry::Session::from_spec(jtelemetry::SessionSpec {
        manual: true,
        trace: false,
        profile: true,
    }));
    let config = ExecConfig {
        mode: ExecMode::Interp,
        ..ExecConfig::default()
    };
    for p in &programs {
        let _ = jexec::run_program(p, &config);
    }
    let snap = jtelemetry::take().unwrap().snapshot();
    let total: u64 = snap.opcodes.iter().map(|o| o.hits).sum();
    let mut rows: Vec<_> = snap.opcodes.iter().collect();
    rows.sort_by_key(|o| std::cmp::Reverse(o.hits));
    for o in rows.iter().take(20) {
        println!(
            "{:16} {:10} ({:.1}%)",
            o.name,
            o.hits,
            100.0 * o.hits as f64 / total as f64
        );
    }
}

fn bench(name: &str, src: &str) {
    let image = Image::build(&mjava::parse(src).unwrap()).unwrap();
    for mode in [ExecMode::Interp, ExecMode::Threaded] {
        let config = ExecConfig {
            mode,
            ..ExecConfig::default()
        };
        // warm
        let o = jexec::run(&image, &config);
        let steps = o.stats.steps;
        let reps = (40_000_000 / steps.max(1)).max(1);
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(jexec::run(&image, &config));
        }
        let s = start.elapsed().as_secs_f64();
        println!(
            "{name:14} {mode:?}: {:.1} ns/step ({:.2e} steps/s, {steps} steps)",
            s * 1e9 / (reps * steps) as f64,
            (reps * steps) as f64 / s
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--workload-profile") {
        workload_profile();
        return;
    }
    bench(
        "empty-loop",
        "class T { static void main() { for (int i = 0; i < 500000; i++) { } System.out.println(0); } }",
    );
    bench(
        "arith-local",
        "class T { static void main() { int s = 0; for (int i = 0; i < 200000; i++) { s = s + i % 5; } System.out.println(s); } }",
    );
    bench(
        "arith-static",
        "class T { static int s; static void main() { for (int i = 0; i < 200000; i++) { s = s + i % 5; } System.out.println(s); } }",
    );
    bench(
        "calls",
        "class T { static int f(int i) { return i * 2; } static void main() { int s = 0; for (int i = 0; i < 100000; i++) { s = s + T.f(i); } System.out.println(s); } }",
    );
    bench(
        "fields",
        "class T { int f; static void main() { T t = new T(); for (int i = 0; i < 100000; i++) { t.f = t.f + i; } System.out.println(t.f); } }",
    );
    bench(
        "vcalls",
        "class T { int g(int i) { return i + 1; } static void main() { T t = new T(); int s = 0; for (int i = 0; i < 100000; i++) { s = s + t.g(i); } System.out.println(s); } }",
    );
    bench(
        "boxing",
        "class T { static void main() { int s = 0; for (int i = 0; i < 100000; i++) { Integer b = Integer.valueOf(i); s = s + b.intValue(); } System.out.println(s); } }",
    );
    // Register-file / untagged-representation shapes: long arithmetic
    // exercises the 64-bit slot encoding's non-fast paths, `leaf-inline`
    // is a tiny static call the lowerer folds into the caller's frame
    // window, and `deep-calls` stresses frame entry/exit — (base, floor,
    // sp) bumps into the shared arena instead of per-frame vectors.
    bench(
        "long-arith",
        "class T { static void main() { long s = 4294967296L; for (int i = 0; i < 200000; i++) { s = s + (s % 7L) - 3L; } System.out.println(s); } }",
    );
    bench(
        "leaf-inline",
        "class T { static int f(int a, int b) { return a * b + 1; } static void main() { int s = 0; for (int i = 0; i < 100000; i++) { s = s + T.f(i, 3); } System.out.println(s); } }",
    );
    bench(
        "deep-calls",
        "class T { static int down(int n, int acc) { if (n < 1) { return acc; } return T.down(n - 1, acc + n); } static void main() { int s = 0; for (int i = 0; i < 2000; i++) { s = s + T.down(120, 0); } System.out.println(s); } }",
    );
}
