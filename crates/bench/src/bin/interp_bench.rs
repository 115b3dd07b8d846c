//! Single-core execution-substrate throughput: `--exec-mode interp` vs
//! `--exec-mode threaded`.
//!
//! Builds the standard campaign workload (each experiment seed fuzzed
//! briefly, so the programs are optimization-heavy mutants rather than
//! cold seeds), then times pure `jexec::run` sweeps over the prebuilt
//! images on one thread for each substrate, and writes
//! `BENCH_interp.json` (execs/s, steps/s, speedup, code/pipeline cache
//! hit rates, host metadata).
//!
//! Both substrates are bit-equivalent (`tests/exec_equivalence.rs`), so
//! the bench asserts outcome equality across modes as a smoke check —
//! any divergence here is a correctness bug, not a perf regression.
//!
//! A second, smaller sweep times the full differential oracle (8
//! simulated JVMs per program, serial) per mode, which additionally
//! exercises the shared code cache across the pool and the `jopt`
//! pipeline memo — the campaign-level view of the same speedup.
//!
//! Flags:
//!   --smoke       tiny repeat count (CI smoke mode)
//!   --out PATH    output path (default BENCH_interp.json)
//!   --repeats N   override the execution sweep count

use bench::{experiment_seeds, render_table};
use jexec::{ExecConfig, ExecMode, Image};
use jvmsim::{JvmSpec, RunOptions};
use mopfuzzer::{differential_jobs, fuzz, FuzzConfig};
use std::fmt::Write as _;
use std::time::Instant;

const MODES: [ExecMode; 2] = [ExecMode::Interp, ExecMode::Threaded];

struct Row {
    mode: ExecMode,
    seconds: f64,
    execs: u64,
    steps: u64,
}

impl Row {
    fn execs_per_sec(&self) -> f64 {
        self.execs as f64 / self.seconds
    }
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Interp => "interp",
        ExecMode::Threaded => "threaded",
    }
}

fn main() {
    let metrics = bench::metrics::start();
    run();
    bench::metrics::finish(metrics.as_deref());
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out_path = flag("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_interp.json".into());
    let repeats: usize = match flag("--repeats") {
        Some(s) => s.parse().expect("--repeats takes a number"),
        None if smoke => 2,
        None => 40,
    };
    let diff_repeats = if smoke { 1 } else { 4 };
    let pool = JvmSpec::differential_pool();

    // The workload: optimization-heavy mutants of the experiment seeds,
    // compiled to images once.
    let programs: Vec<mjava::Program> = experiment_seeds(6)
        .iter()
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
    let images: Vec<Image> = programs
        .iter()
        .map(|p| Image::build(p).expect("mutant builds"))
        .collect();

    // Pure-execution sweep: one thread, prebuilt images, per-substrate
    // timing. The first threaded repeat pays for lowering; the cache
    // amortizes it exactly as campaigns do.
    let mut rows: Vec<Row> = Vec::new();
    let mut baseline_outcomes: Option<Vec<jexec::Outcome>> = None;
    let mut leaf_inlined = 0u64;
    for mode in MODES {
        jexec::threaded::cache_reset();
        let _ = jexec::threaded::take_inline_count();
        let config = ExecConfig {
            mode,
            ..ExecConfig::default()
        };
        eprintln!(
            "running {repeats} sweep(s) over {} image(s) at --exec-mode {} ...",
            images.len(),
            mode_name(mode)
        );
        let mut execs = 0u64;
        let mut steps = 0u64;
        let mut outcomes = Vec::new();
        let start = Instant::now();
        for rep in 0..repeats {
            for image in &images {
                let outcome = jexec::run(image, &config);
                execs += 1;
                steps += outcome.stats.steps;
                if rep == 0 {
                    outcomes.push(outcome);
                }
            }
        }
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        match &baseline_outcomes {
            None => baseline_outcomes = Some(outcomes),
            Some(b) => assert_eq!(
                b,
                &outcomes,
                "--exec-mode {} diverged from interp: substrate equivalence is broken",
                mode_name(mode)
            ),
        }
        if mode == ExecMode::Threaded {
            leaf_inlined = jexec::threaded::take_inline_count();
        }
        rows.push(Row {
            mode,
            seconds,
            execs,
            steps,
        });
    }
    let code_cache = jexec::threaded::cache_stats();

    // Campaign-level sweep: the serial differential oracle (8 JVMs per
    // program) per mode, with fresh caches — this is where the shared
    // code cache and the pipeline memo actually earn their keep.
    let mut diff_rows: Vec<Row> = Vec::new();
    let options = RunOptions::fuzzing();
    let mut pipeline_cache = jopt::pipeline::cache_stats();
    for mode in MODES {
        jexec::threaded::cache_reset();
        jopt::pipeline::cache_reset();
        jexec::set_default_exec_mode(mode);
        eprintln!(
            "running {diff_repeats} differential sweep(s) at --exec-mode {} ...",
            mode_name(mode)
        );
        let mut execs = 0u64;
        let start = Instant::now();
        for _ in 0..diff_repeats {
            for program in &programs {
                let diff = differential_jobs(program, &pool, &options, 1);
                execs += diff.executions;
            }
        }
        let seconds = start.elapsed().as_secs_f64().max(1e-9);
        diff_rows.push(Row {
            mode,
            seconds,
            execs,
            steps: 0,
        });
        if mode == ExecMode::Threaded {
            pipeline_cache = jopt::pipeline::cache_stats();
        }
    }
    jexec::set_default_exec_mode(ExecMode::Threaded);

    let serial = rows[0].execs_per_sec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                mode_name(r.mode).into(),
                format!("{:.3}", r.seconds),
                format!("{:.0}", r.execs_per_sec()),
                format!("{:.2e}", r.steps as f64 / r.seconds),
                format!("{:.2}x", r.execs_per_sec() / serial),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Execution-substrate throughput, {repeats} sweep(s) x {} mutant(s), single core",
                images.len()
            ),
            &["exec-mode", "seconds", "execs/s", "steps/s", "speedup"],
            &table
        )
    );
    let diff_serial = diff_rows[0].execs_per_sec();
    let diff_table: Vec<Vec<String>> = diff_rows
        .iter()
        .map(|r| {
            vec![
                mode_name(r.mode).into(),
                format!("{:.3}", r.seconds),
                format!("{:.0}", r.execs_per_sec()),
                format!("{:.2}x", r.execs_per_sec() / diff_serial),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Differential-oracle throughput (8 JVMs/program, serial), {diff_repeats} sweep(s)"
            ),
            &["exec-mode", "seconds", "execs/s", "speedup"],
            &diff_table
        )
    );
    let hit_rate = |h: u64, m: u64| {
        let total = h + m;
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    };
    println!(
        "code cache: {} entries, {} hits / {} misses ({:.1}% hit rate)",
        code_cache.entries,
        code_cache.hits,
        code_cache.misses,
        100.0 * hit_rate(code_cache.hits, code_cache.misses)
    );
    println!(
        "pipeline memo: {} entries, {} hits / {} misses ({:.1}% hit rate)",
        pipeline_cache.entries,
        pipeline_cache.hits,
        pipeline_cache.misses,
        100.0 * hit_rate(pipeline_cache.hits, pipeline_cache.misses)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"type\": \"mopfuzzer-interp-bench\",");
    let _ = writeln!(json, "  \"version\": 2,");
    let _ = writeln!(json, "  \"host\": {},", bench::host_meta_json());
    let _ = writeln!(json, "  \"programs\": {},", programs.len());
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"leaf_calls_inlined\": {leaf_inlined},");
    let _ = writeln!(json, "  \"execution\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"seconds\": {:.6}, \"execs\": {}, \
             \"execs_per_sec\": {:.3}, \"steps_per_sec\": {:.0}, \"speedup\": {:.3}}}{comma}",
            mode_name(r.mode),
            r.seconds,
            r.execs,
            r.execs_per_sec(),
            r.steps as f64 / r.seconds,
            r.execs_per_sec() / serial,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"differential\": [");
    for (i, r) in diff_rows.iter().enumerate() {
        let comma = if i + 1 < diff_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"seconds\": {:.6}, \"execs\": {}, \
             \"execs_per_sec\": {:.3}, \"speedup\": {:.3}}}{comma}",
            mode_name(r.mode),
            r.seconds,
            r.execs,
            r.execs_per_sec(),
            r.execs_per_sec() / diff_serial,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"code_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},",
        code_cache.entries,
        code_cache.hits,
        code_cache.misses,
        hit_rate(code_cache.hits, code_cache.misses)
    );
    let _ = writeln!(
        json,
        "  \"pipeline_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.4}}}",
        pipeline_cache.entries,
        pipeline_cache.hits,
        pipeline_cache.misses,
        hit_rate(pipeline_cache.hits, pipeline_cache.misses)
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}
