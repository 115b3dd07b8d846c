//! The run memo behind [`crate::run`]: each thread remembers its last
//! few runs and serves a repeated one from memory.
//!
//! A run is a pure function of `(image, config)`, and the same image runs
//! many times over: every JVM of the differential oracle interprets the
//! identical tier-0 image, and most of them install identical optimized
//! code. The memo is thread-local (a round runs wholly on one thread, so
//! it needs no lock) and bounded: [`ENTRIES`] entries in FIFO order, and
//! no entry whose printed output exceeds [`MAX_OUTPUT_BYTES`].
//!
//! A 64-bit [`digest`] of the image's shape and code fingerprints and the
//! config only picks the candidate entry; a hit needs full equality of the
//! config and the image, so a digest collision costs a run, never a wrong
//! outcome. A hit replays everything a run emits — the `interp_run` trace
//! span, the run and step counters, and under `--profile` the per-opcode
//! hit counts (sampled nanoseconds are wall-clock, so they are not
//! replayed) — which keeps journals, traces and metrics byte-identical
//! whether a run executed or was remembered.

use crate::image::{Fnv, Image};
use crate::interp::{self, ExecConfig, ExecMode, OpcodeProfiler, Outcome};
use crate::interp::{OPCODE_COUNT, OPCODE_NAMES};
use crate::threaded;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Entries per thread; the oldest is evicted first.
const ENTRIES: usize = 16;

/// Outcomes printing more than this many bytes are not remembered.
const MAX_OUTPUT_BYTES: usize = 64 * 1024;

/// The substrates poll the round watchdog every this many steps.
const CANCEL_POLL_STEPS: u64 = 4096;

struct Entry {
    digest: u64,
    config: ExecConfig,
    image: Image,
    outcome: Outcome,
    /// The run's per-opcode hit counts; `Some` exactly when it was
    /// profiled, so an unprofiled entry never serves a profiled run.
    hits: Option<[u64; OPCODE_COUNT]>,
}

thread_local! {
    static MEMO: RefCell<VecDeque<Entry>> = const { RefCell::new(VecDeque::new()) };
}

/// Executes `image` on `config.mode`'s substrate, or replays this thread's
/// remembered run of an equal image under an equal config.
pub(crate) fn run(image: &Image, config: &ExecConfig) -> Outcome {
    run_keyed(image, config, digest)
}

/// [`run`] with the digest as a parameter, so a test can make every
/// digest collide.
fn run_keyed(
    image: &Image,
    config: &ExecConfig,
    digest_of: fn(&Image, &ExecConfig) -> u64,
) -> Outcome {
    let _trace = jtelemetry::trace_span("interp_run", Vec::new);
    let profiled = jtelemetry::profiling();
    let key = digest_of(image, config);
    let hit = MEMO.with(|memo| {
        memo.borrow()
            .iter()
            .find(|e| {
                e.digest == key
                    && e.hits.is_some() == profiled
                    && e.config == *config
                    && e.image == *image
            })
            .map(|e| (e.outcome.clone(), e.hits))
    });
    if let Some((outcome, hits)) = hit {
        // The remembered run polled the watchdog, so its replay does too:
        // a round whose token is already cancelled still aborts.
        if outcome.stats.steps >= CANCEL_POLL_STEPS {
            jtelemetry::cancel::check("interpreter");
        }
        emit(&outcome, hits.as_ref().map(|h| (h, &[0; OPCODE_COUNT])));
        return outcome;
    }
    let (outcome, hits) = execute(image, config, profiled);
    let printed: usize = outcome.output.iter().map(String::len).sum();
    if printed <= MAX_OUTPUT_BYTES {
        MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.len() == ENTRIES {
                memo.pop_front();
            }
            memo.push_back(Entry {
                digest: key,
                config: *config,
                image: image.clone(),
                outcome: outcome.clone(),
                hits,
            });
        });
    }
    outcome
}

/// Executes `image` on the `mode` substrate without consulting the memo,
/// with the same telemetry as [`run`].
pub(crate) fn bypass(mode: ExecMode, image: &Image, config: &ExecConfig) -> Outcome {
    let _trace = jtelemetry::trace_span("interp_run", Vec::new);
    let config = ExecConfig { mode, ..*config };
    execute(image, &config, jtelemetry::profiling()).0
}

/// Executes `image` on `config.mode`'s substrate and emits the run's
/// telemetry; returns the outcome and, when profiled, the opcode hits.
fn execute(
    image: &Image,
    config: &ExecConfig,
    profiled: bool,
) -> (Outcome, Option<[u64; OPCODE_COUNT]>) {
    let profiler = profiled.then(OpcodeProfiler::new);
    let (outcome, profiler) = match config.mode {
        ExecMode::Interp => interp::execute(image, config, profiler),
        ExecMode::Threaded => threaded::execute(image, config, profiler),
    };
    emit(&outcome, profiler.as_ref().map(|p| (&p.hits, &p.nanos)));
    (outcome, profiler.map(|p| p.hits))
}

type Opcodes<'a> = (&'a [u64; OPCODE_COUNT], &'a [u64; OPCODE_COUNT]);

/// One run's telemetry, alike for an execution and its replay: the run
/// and step counters and, when profiled, the per-opcode `(hits, nanos)`.
fn emit(outcome: &Outcome, opcodes: Option<Opcodes>) {
    jtelemetry::count(jtelemetry::Counter::InterpRuns, 1);
    jtelemetry::count(jtelemetry::Counter::InterpSteps, outcome.stats.steps);
    if let Some((hits, nanos)) = opcodes {
        for (i, &name) in OPCODE_NAMES.iter().enumerate() {
            if hits[i] > 0 {
                jtelemetry::profile_opcode(name, hits[i], nanos[i]);
            }
        }
    }
}

/// Picks the candidate entry: the image's shape and code fingerprints and
/// every config field. Equality is checked on top, so this needs no more
/// than to spread entries.
fn digest(image: &Image, config: &ExecConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(image.shape_fp());
    for m in &image.methods {
        h.u64(m.code_fp);
    }
    h.u64(config.fuel);
    h.u64(config.max_call_depth as u64);
    h.byte(config.mode as u8);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{Code, Instr};
    use crate::threaded::{cache_stats, CACHE_TEST_LOCK};
    use jtelemetry::{Session, SessionSpec};

    fn build(src: &str) -> Image {
        Image::build(&mjava::parse(src).unwrap()).unwrap()
    }

    /// Entries this thread's memo holds: a miss adds one, a hit none.
    fn entries() -> usize {
        MEMO.with(|memo| memo.borrow().len())
    }

    fn lookups() -> u64 {
        let stats = cache_stats();
        stats.hits + stats.misses
    }

    const LOOP: &str = "class T { static int s = 3; static void main() { int t = 0; for (int i = 0; i < 2000; i++) { t = t + s; } System.out.println(t); } }";

    fn threaded() -> ExecConfig {
        ExecConfig {
            mode: ExecMode::Threaded,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn an_equal_image_hits_without_lowering() {
        let _guard = CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let first = run(&build(LOOP), &threaded());
        assert_eq!(entries(), 1);
        let again = build(LOOP);
        // Other test threads may look the code cache up meanwhile; a hit
        // that makes no lookup of its own shows a quiet window at least
        // once, and a hit that did look up would never.
        let quiet = (0..100).any(|_| {
            let before = lookups();
            assert_eq!(run(&again, &threaded()), first);
            lookups() == before
        });
        assert!(quiet, "a hit looked the code cache up");
        assert_eq!(entries(), 1, "a hit adds no entry");
    }

    #[test]
    fn a_different_config_or_image_misses() {
        let base = build(LOOP);
        let reference = run(&base, &threaded());
        let mut body = base.clone();
        let main = body.main();
        body.install_code(
            main,
            Code {
                instrs: vec![Instr::ConstI(9), Instr::Print, Instr::Return],
                n_locals: 0,
                max_stack: 1,
            },
        );
        let fuel = ExecConfig {
            fuel: 100,
            ..threaded()
        };
        let interp = ExecConfig {
            mode: ExecMode::Interp,
            ..threaded()
        };
        let statics = build(&LOOP.replace("s = 3", "s = 4"));
        let cases = [
            ("fuel", &base, fuel),
            ("mode", &base, interp),
            ("static initializer", &statics, threaded()),
            ("installed body", &body, threaded()),
        ];
        for (n, (what, image, config)) in cases.into_iter().enumerate() {
            let outcome = run(image, &config);
            assert_eq!(entries(), n + 2, "{what}: must miss");
            assert_eq!(outcome, bypass(config.mode, image, &config), "{what}");
        }
        assert_ne!(run(&statics, &threaded()), reference);
        assert_eq!(entries(), 5, "repeats hit");
    }

    /// With every digest equal, only the full comparison tells entries
    /// apart: each image still gets its own outcome.
    #[test]
    fn a_digest_collision_is_verified() {
        let constant: fn(&Image, &ExecConfig) -> u64 = |_, _| 0;
        let a = build(LOOP);
        let b = build(&LOOP.replace("s = 3", "s = 4"));
        for _ in 0..2 {
            assert_eq!(run_keyed(&a, &threaded(), constant).output, ["6000"]);
            assert_eq!(run_keyed(&b, &threaded(), constant).output, ["8000"]);
        }
        assert_eq!(entries(), 2);
    }

    /// N runs of one image report N runs' telemetry whether they executed
    /// or were replayed: counters, opcode hits and trace spans.
    #[test]
    fn hits_replay_the_telemetry_of_a_run() {
        let image = build(LOOP);
        let session = || {
            jtelemetry::install(Session::from_spec(SessionSpec {
                manual: true,
                trace: true,
                profile: true,
            }))
        };
        session();
        let once = bypass(ExecMode::Threaded, &image, &threaded());
        let single = jtelemetry::take().unwrap().snapshot();
        const N: u64 = 5;
        session();
        for _ in 0..N {
            assert_eq!(run(&image, &threaded()), once);
        }
        let mut taken = jtelemetry::take().unwrap();
        assert_eq!(entries(), 1, "one execution, {} replays", N - 1);
        let snap = taken.snapshot();
        for counter in ["interp_runs", "interp_steps"] {
            assert_eq!(snap.counter(counter), N * single.counter(counter));
        }
        assert_eq!(snap.counter("interp_runs"), N);
        let hits = |s: &jtelemetry::MetricsSnapshot| {
            s.opcodes
                .iter()
                .map(|op| (op.name.clone(), op.hits))
                .collect::<Vec<_>>()
        };
        let want: Vec<_> = hits(&single)
            .into_iter()
            .map(|(name, n)| (name, N * n))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(hits(&snap), want);
        let spans = taken.take_trace();
        assert_eq!(spans.len() as u64, N);
        assert!(spans.iter().all(|e| e.name == "interp_run"));
    }

    /// An entry made without profiling never serves a profiled run.
    #[test]
    fn an_unprofiled_entry_does_not_serve_a_profiled_run() {
        let image = build(LOOP);
        run(&image, &threaded());
        jtelemetry::install(Session::new().with_profile());
        run(&image, &threaded());
        let snap = jtelemetry::take().unwrap().snapshot();
        assert_eq!(entries(), 2);
        assert!(snap.opcodes.iter().map(|op| op.hits).sum::<u64>() > 0);
    }

    #[test]
    fn a_cancelled_round_aborts_a_hit() {
        let image = build(LOOP);
        let outcome = run(&image, &threaded());
        assert!(outcome.stats.steps >= CANCEL_POLL_STEPS);
        let token = jtelemetry::cancel::CancelToken::new();
        token.cancel();
        let _cancel = jtelemetry::cancel::install(&token);
        let payload = std::panic::catch_unwind(|| run(&image, &threaded())).unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            text.starts_with(jtelemetry::cancel::TIMEOUT_PANIC_MARKER),
            "{text}"
        );
    }
}
