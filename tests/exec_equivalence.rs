//! Cross-substrate equivalence: the closure-threaded executor
//! (`jexec::threaded`, the default) and the reference `Instr`-matching
//! interpreter (`jexec::interp`) must be observationally identical — not
//! just same output, but same step counts, same error at the same
//! instruction, same hotness profile, same `--profile` opcode tables,
//! and byte-identical campaign journals.
//!
//! Three layers of evidence:
//!
//! * **Golden corpus** — the committed golden journals are reproduced
//!   byte for byte under *both* `--exec-mode` settings (the substrate is
//!   an execution detail, never journaled).
//! * **Proptest sweep** — generated corpus programs agree on the full
//!   [`jexec::Outcome`] (output, error, stats incl. step counts, hotness
//!   profile) and on the profiler's per-opcode attribution tables, at
//!   default fuel and under fuel exhaustion.
//! * **Hang containment** — a cancelled watchdog token aborts both
//!   substrates with the same timeout panic payload.

use jexec::{ExecConfig, ExecMode};
use mopfuzzer::{run_campaign_with_journal, CampaignConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Restores the process-wide default exec mode on drop, so a failing
/// assertion cannot leak `Interp` into other tests in this binary.
struct ModeGuard(ExecMode);

impl ModeGuard {
    fn set(mode: ExecMode) -> ModeGuard {
        let guard = ModeGuard(jexec::default_exec_mode());
        jexec::set_default_exec_mode(mode);
        guard
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        jexec::set_default_exec_mode(self.0);
    }
}

fn config_with_mode(mode: ExecMode) -> ExecConfig {
    ExecConfig {
        mode,
        ..ExecConfig::default()
    }
}

/// Runs `program` under a manual-clock profiling session and returns its
/// outcome with the `--profile` opcode table it attributed, checking that
/// every step landed on one opcode (generated programs never fetch past
/// the end of a body, the one step the interpreter leaves unattributed).
fn run_profiled(
    program: &mjava::ast::Program,
    config: &ExecConfig,
) -> (jexec::Outcome, Vec<jtelemetry::OpcodeStat>) {
    jtelemetry::install(jtelemetry::Session::from_spec(jtelemetry::SessionSpec {
        manual: true,
        trace: false,
        profile: true,
    }));
    let outcome = jexec::run_program(program, config).expect("generated program builds");
    let opcodes = jtelemetry::take().unwrap().snapshot().opcodes;
    let hits: u64 = opcodes.iter().map(|op| op.hits).sum();
    assert_eq!(hits, outcome.stats.steps, "every step lands on one opcode");
    (outcome, opcodes)
}

/// Both substrates reproduce the committed golden journals byte for
/// byte. This is the end-to-end form of the invariant: the whole
/// campaign pipeline (mutation, optimization, the 8-JVM differential
/// oracle, journal encoding) is insensitive to `--exec-mode`.
#[test]
fn golden_journals_are_byte_identical_across_exec_modes() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let themed = |rng_seed: u64| CampaignConfig {
        iterations_per_seed: 6,
        rounds: 4,
        rng_seed,
        ..CampaignConfig::new(4)
    };
    let campaigns = [
        (
            "plain_v2.jsonl",
            CampaignConfig {
                iterations_per_seed: 10,
                rounds: 6,
                rng_seed: 2024,
                ..CampaignConfig::new(6)
            },
            mopfuzzer::corpus::builtin(),
        ),
        (
            "faulted_v2.jsonl",
            CampaignConfig {
                iterations_per_seed: 10,
                rounds: 8,
                rng_seed: 77,
                ..CampaignConfig::new(8)
            },
            mopfuzzer::corpus::builtin(),
        ),
        // The substrate-stress campaigns (see tests/golden.rs): the
        // representation-hazard seed sets must journal identically on
        // both substrates too.
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
    ];
    for (name, mut config, seeds) in campaigns {
        if name.starts_with("faulted") {
            config.fault = Some(jvmsim::FaultPlan::new(7, 0.25));
        }
        config.jobs = 2;
        let golden = fs::read(golden_dir.join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        for mode in [ExecMode::Interp, ExecMode::Threaded] {
            let _guard = ModeGuard::set(mode);
            let path: PathBuf =
                std::env::temp_dir().join(format!("mop_exec_eq_{}_{name}", std::process::id()));
            run_campaign_with_journal(&seeds, &config, &path).unwrap();
            let produced = fs::read(&path).unwrap();
            fs::remove_file(&path).ok();
            assert_eq!(
                golden, produced,
                "--exec-mode {mode:?} diverged from golden {name}: the \
                 substrate must never be observable in journal bytes"
            );
        }
    }
}

/// A pre-cancelled watchdog token aborts both substrates at the same
/// poll point (steps & 0xFFF == 0) with the same timeout panic payload.
#[test]
fn hang_cancellation_aborts_both_substrates_identically() {
    let src = r#"
        class T {
            static void main() {
                int s = 0;
                for (int i = 0; i < 2_000_000; i++) { s = s + 1; }
                System.out.println(s);
            }
        }
    "#;
    let program = mjava::parse(src).unwrap();
    let mut payloads = Vec::new();
    for mode in [ExecMode::Interp, ExecMode::Threaded] {
        let token = jtelemetry::cancel::CancelToken::new();
        token.cancel();
        let _guard = jtelemetry::cancel::install(&token);
        let config = config_with_mode(mode);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            jexec::run_program(&program, &config)
        }));
        let payload = match result {
            Ok(_) => panic!("{mode:?} ignored the cancelled token"),
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .expect("timeout panics carry a String payload"),
        };
        assert!(
            payload.starts_with(jtelemetry::cancel::TIMEOUT_PANIC_MARKER),
            "{mode:?} panicked without the timeout marker: {payload}"
        );
        payloads.push(payload);
    }
    assert_eq!(
        payloads[0], payloads[1],
        "both substrates must classify the abort identically"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated corpus programs produce bit-identical [`jexec::Outcome`]s
    /// (output, error, every stats counter incl. step count, hotness
    /// profile) and identical `--profile` opcode-attribution tables on
    /// both substrates.
    #[test]
    fn generated_programs_agree_across_substrates(gen_seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let program = mopfuzzer::corpus::generate(&mut rng, gen_seed as usize % 1000);
        let runs = [ExecMode::Interp, ExecMode::Threaded]
            .map(|mode| run_profiled(&program, &config_with_mode(mode)));
        prop_assert_eq!(&runs[0].0, &runs[1].0, "outcomes diverged");
        prop_assert_eq!(&runs[0].1, &runs[1].1, "opcode tables diverged");
    }

    /// Fuel exhaustion is step-exact: at any fuel budget both substrates
    /// stop on the same instruction with the same partial output, stats,
    /// profile, and opcode table.
    #[test]
    fn fuel_exhaustion_is_step_exact_across_substrates(
        gen_seed in any::<u64>(),
        fuel in 1u64..4_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(gen_seed);
        let program = mopfuzzer::corpus::generate(&mut rng, gen_seed as usize % 1000);
        let runs = [ExecMode::Interp, ExecMode::Threaded]
            .map(|mode| run_profiled(&program, &ExecConfig { fuel, ..config_with_mode(mode) }));
        prop_assert_eq!(&runs[0], &runs[1]);
        // When the budget is short enough to bite, both report it.
        if let Some(err) = &runs[0].0.error {
            prop_assert_eq!(err, &jexec::ExecError::OutOfFuel);
            prop_assert_eq!(runs[0].0.stats.steps, fuel, "steps stop exactly at the budget");
        }
    }
}

// ---------------------------------------------------------------------------
// Representation-hazard battery
// ---------------------------------------------------------------------------
//
// The threaded substrate stores every value untagged in a 64-bit register
// file, recovers `int`×`int` arithmetic at lowering time, and executes tiny
// leaf calls inline in the caller's frame window. Each of those moves has a
// characteristic failure mode:
//
// * i64 boundary values whose low 32 bits collide with small ints,
// * values crossing a call boundary (argument slots become callee locals
//   in place — no copying),
// * leaf bodies right at the inline-size threshold, mixed with bodies just
//   over it.
//
// The generator below is *biased* toward exactly those shapes, and the
// properties check the full `Outcome` (output, error, every stat counter
// including the step index), the profiler's per-opcode tables, and
// step-index equality under truncated fuel — all with proptest shrinking,
// so a divergence minimizes to a small program.

/// Long constants at the representation boundaries.
const HAZARD_LONGS: &[&str] = &[
    "0L",
    "1L",
    "-1L",
    "2147483647L",
    "2147483648L",
    "-2147483648L",
    "-2147483649L",
    "4294967295L",
    "4294967296L",
    "4294967297L",
    "9223372036854775807L",
    "-9223372036854775807L - 1L",
];

/// Int constants at the 32-bit boundaries.
const HAZARD_INTS: &[&str] = &["0", "1", "-1", "7", "2147483647", "-2147483647 - 1"];

/// One generated static method: parameter widths, a body template, and an
/// index into the hazard-constant pools.
#[derive(Debug, Clone)]
struct HazardMethod {
    /// Parameter widths; `true` = `long`.
    params: Vec<bool>,
    /// Body template: 0 = sum (leaf, inlinable), 1 = scale-sub (leaf),
    /// 2 = boolean compare (leaf), 3 = wide body (over the inline cap).
    kind: u8,
    /// Hazard-constant selector.
    k: usize,
}

impl HazardMethod {
    fn returns_bool(&self) -> bool {
        self.kind == 2
    }

    fn render(&self, i: usize) -> String {
        let names = ["a", "b", "c"];
        let params: Vec<String> = self
            .params
            .iter()
            .enumerate()
            .map(|(p, &long)| format!("{} {}", if long { "long" } else { "int" }, names[p]))
            .collect();
        let c = HAZARD_LONGS[self.k % HAZARD_LONGS.len()];
        let sum = self
            .params
            .iter()
            .enumerate()
            .map(|(p, _)| names[p])
            .collect::<Vec<_>>()
            .join(" + ");
        let body = match self.kind {
            0 => format!("return {sum} + ({c});"),
            1 => format!("return a * 2L - ({c});"),
            2 => format!("return a > ({c});"),
            _ => format!(
                "long t = {sum} + ({c}); t = t * 3L; t = t - a; t = t + (t / 5L); return t;"
            ),
        };
        let ret = if self.returns_bool() {
            "boolean"
        } else {
            "long"
        };
        format!("    static {ret} m{i}({}) {{ {body} }}", params.join(", "))
    }

    /// Renders a call-site argument list. Int parameters draw from the
    /// int pool or the live loop counter; long parameters from the long
    /// pool or the live accumulator — so computed values keep crossing
    /// the call boundary.
    fn render_args(&self, mi: usize, salt: &[u8]) -> String {
        self.params
            .iter()
            .enumerate()
            .map(|(p, &long)| {
                let pick = salt[(mi * 3 + p) % salt.len()] as usize;
                if long {
                    match pick % (HAZARD_LONGS.len() + 1) {
                        0 => "acc".to_string(),
                        n => format!("({})", HAZARD_LONGS[n - 1]),
                    }
                } else {
                    match pick % (HAZARD_INTS.len() + 2) {
                        0 => "i".to_string(),
                        1 => "ia".to_string(),
                        n => format!("({})", HAZARD_INTS[n - 2]),
                    }
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A whole generated program: a handful of hazard methods plus a `main`
/// loop that routes boundary values through every call shape, an instance
/// method (receiver + field crossing), and prints the accumulated state.
#[derive(Debug, Clone)]
struct HazardProgram {
    methods: Vec<HazardMethod>,
    iters: u8,
    salt: Vec<u8>,
}

impl HazardProgram {
    fn render(&self) -> String {
        let mut out = String::from("class H {\n    long f;\n");
        for (i, m) in self.methods.iter().enumerate() {
            out.push_str(&m.render(i));
            out.push('\n');
        }
        out.push_str("    long via(long x) { f = f + x; return f; }\n");
        out.push_str("    static void main() {\n");
        out.push_str("        H h = new H();\n");
        let acc0 = HAZARD_LONGS[self.salt[0] as usize % HAZARD_LONGS.len()];
        out.push_str(&format!("        long acc = {acc0};\n"));
        out.push_str("        int ia = 1;\n");
        out.push_str(&format!(
            "        for (int i = 0; i < {}; i++) {{\n",
            self.iters
        ));
        for (i, m) in self.methods.iter().enumerate() {
            let args = m.render_args(i, &self.salt);
            if m.returns_bool() {
                out.push_str(&format!(
                    "            if (H.m{i}({args})) {{ acc = acc - 1L; }}\n"
                ));
            } else {
                out.push_str(&format!("            acc = acc + H.m{i}({args});\n"));
            }
        }
        out.push_str("            ia = ia + i;\n");
        out.push_str("            acc = acc + h.via(acc);\n");
        out.push_str("        }\n");
        out.push_str("        System.out.println(acc);\n");
        out.push_str("        System.out.println(ia);\n");
        out.push_str("        System.out.println(h.f);\n");
        out.push_str("    }\n}\n");
        out
    }
}

fn hazard_program() -> impl Strategy<Value = HazardProgram> {
    let method = (
        proptest::collection::vec(any::<bool>(), 1..4),
        0u8..4,
        any::<usize>(),
    )
        .prop_map(|(params, kind, k)| HazardMethod { params, kind, k });
    (
        proptest::collection::vec(method, 1..4),
        1u8..11,
        proptest::collection::vec(any::<u8>(), 4..13),
    )
        .prop_map(|(methods, iters, salt)| HazardProgram {
            methods,
            iters,
            salt,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full battery: outcome equality (including error identity and
    /// exact step counts), per-opcode attribution tables, and step-index
    /// equality at truncated fuel budgets — which cut execution inside
    /// superinstructions and inside inlined leaf bodies.
    #[test]
    fn representation_hazards_agree_across_substrates(prog in hazard_program()) {
        let src = prog.render();
        let program = mjava::parse(&src)
            .unwrap_or_else(|e| panic!("generator emitted invalid source: {e:?}\n{src}"));
        let runs = [ExecMode::Interp, ExecMode::Threaded]
            .map(|mode| run_profiled(&program, &config_with_mode(mode)));
        prop_assert_eq!(&runs[0].0, &runs[1].0, "outcomes diverged on:\n{}", src);
        prop_assert_eq!(&runs[0].1, &runs[1].1, "opcode tables diverged on:\n{}", src);
        // Step-index equality: truncate fuel at awkward cut points. Every
        // budget must stop both substrates on the same step with the same
        // partial output and opcode table.
        let total = runs[0].0.stats.steps;
        for fuel in [1, 2, total / 3, total / 2, total.saturating_sub(1)] {
            let cut = [ExecMode::Interp, ExecMode::Threaded]
                .map(|mode| run_profiled(&program, &ExecConfig { fuel, ..config_with_mode(mode) }));
            prop_assert_eq!(
                &cut[0], &cut[1],
                "diverged at fuel {} on:\n{}", fuel, src
            );
        }
    }
}
