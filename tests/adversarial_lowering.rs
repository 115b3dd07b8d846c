//! Adversarial lowering: hand-built, corrupt, and truncated bytecode must
//! produce *the same error on the same step* on both substrates.
//!
//! The threaded substrate validates local/static slots and branch targets
//! at lowering time and replaces bad sites with `Corrupt` ops that fire at
//! the exact step the reference interpreter would have failed. Fusion and
//! leaf inlining raise the stakes: an error can now surface mid-way
//! through a superinstruction or inside an inlined leaf body, and a fuel
//! budget can cut execution at any of those interior points. Every case
//! here is therefore swept across fuel budgets, not just run to the error,
//! and every run is profiled: the `--profile` opcode table must match too.

use jexec::code::{ArithOp, Code, Instr};
use jexec::{interp, threaded, ExecConfig, ExecError, Image, Outcome};
use jtelemetry::{OpcodeStat, Session, SessionSpec};

/// Installs `instrs` as `main`'s body and checks both substrates agree on
/// the outcome at full fuel *and* at every budget up to a few steps past
/// the point of death — so the sweep crosses superinstruction and
/// inlined-leaf interiors.
fn assert_adversarial_equivalent(instrs: Vec<Instr>, n_locals: u16, want: Option<ExecError>) {
    let program = mjava::parse("class T { static void main() { } }").unwrap();
    let mut image = Image::build(&program).unwrap();
    let main = image.main();
    let max_stack = Code::compute_max_stack(&instrs);
    image.install_code(
        main,
        Code {
            instrs,
            n_locals,
            max_stack,
        },
    );
    sweep(&image, want);
}

/// Runs `exec` under a manual-clock profiling session and returns its
/// outcome with the opcode table it attributed, checking that every step
/// landed on one opcode. The one exception is a pc-out-of-range fetch,
/// which the interpreter counts as a step but attributes to no opcode.
fn profiled(exec: impl FnOnce() -> Outcome) -> (Outcome, Vec<OpcodeStat>) {
    jtelemetry::install(Session::from_spec(SessionSpec {
        manual: true,
        trace: false,
        profile: true,
    }));
    let outcome = exec();
    let opcodes = jtelemetry::take().unwrap().snapshot().opcodes;
    let hits: u64 = opcodes.iter().map(|op| op.hits).sum();
    let fetch_fault = outcome.error == Some(ExecError::VmCorrupt("pc out of range"));
    assert_eq!(hits + u64::from(fetch_fault), outcome.stats.steps);
    (outcome, opcodes)
}

/// Runs both substrates, profiled, at full fuel (asserting the expected
/// error) and then at every fuel budget from 0 to just past the full
/// run's steps.
fn sweep(image: &Image, want: Option<ExecError>) {
    let config = ExecConfig::default();
    let threaded = profiled(|| threaded::run(image, &config));
    let interp = profiled(|| interp::run(image, &config));
    if let Some(want) = &want {
        assert_eq!(threaded.0.error.as_ref(), Some(want), "unexpected error");
    }
    assert_eq!(threaded, interp, "full-fuel outcomes diverged");
    let horizon = interp.0.stats.steps + 3;
    for fuel in 0..=horizon {
        let config = ExecConfig {
            fuel,
            ..ExecConfig::default()
        };
        let threaded = profiled(|| threaded::run(image, &config));
        let interp = profiled(|| interp::run(image, &config));
        assert_eq!(threaded, interp, "diverged at fuel {fuel}");
    }
}

#[test]
fn corrupt_slots_and_branches_error_step_exactly() {
    let cases: Vec<(Vec<Instr>, u16, ExecError)> = vec![
        // Stack underflow on the first instruction.
        (
            vec![Instr::Pop, Instr::Return],
            0,
            ExecError::VmCorrupt("operand stack underflow"),
        ),
        // Local slot beyond n_locals, read and write.
        (
            vec![Instr::Load(9), Instr::Return],
            2,
            ExecError::VmCorrupt("local slot out of range"),
        ),
        (
            vec![Instr::ConstI(1), Instr::Store(9), Instr::Return],
            2,
            ExecError::VmCorrupt("local slot out of range"),
        ),
        // Static slot beyond the class's static table.
        (
            vec![Instr::GetStatic(0, 7), Instr::Return],
            0,
            ExecError::VmCorrupt("static slot out of range"),
        ),
        (
            vec![Instr::ConstI(3), Instr::PutStatic(0, 7), Instr::Return],
            0,
            ExecError::VmCorrupt("static slot out of range"),
        ),
        // Branch target beyond the body.
        (
            vec![Instr::Jump(99)],
            0,
            ExecError::VmCorrupt("pc out of range"),
        ),
        (
            vec![
                Instr::ConstB(true),
                Instr::JumpIfFalse(77),
                Instr::ConstB(false),
                Instr::JumpIfFalse(77),
                Instr::Return,
            ],
            0,
            ExecError::VmCorrupt("pc out of range"),
        ),
    ];
    for (instrs, n_locals, want) in cases {
        assert_adversarial_equivalent(instrs, n_locals, Some(want));
    }
}

#[test]
fn truncated_bodies_fall_off_the_end_step_exactly() {
    // Bodies with no terminating return: execution falls off the end and
    // must die with the interpreter's exact "pc out of range", after
    // executing the real prefix (including any superinstructions the
    // fuser built from it).
    let cases: Vec<(Vec<Instr>, u16)> = vec![
        (vec![], 0),
        (vec![Instr::ConstI(1), Instr::Pop], 0),
        (vec![Instr::ConstI(1), Instr::Print], 0),
        // A fusable arithmetic tail, then the cliff.
        (
            vec![
                Instr::ConstI(5),
                Instr::Store(0),
                Instr::Load(0),
                Instr::ConstI(2),
                Instr::Arith(ArithOp::Mul),
                Instr::ConstI(1),
                Instr::Arith(ArithOp::Add),
                Instr::Print,
            ],
            1,
        ),
    ];
    for (instrs, n_locals) in cases {
        assert_adversarial_equivalent(
            instrs,
            n_locals,
            Some(ExecError::VmCorrupt("pc out of range")),
        );
    }
}

#[test]
fn jump_into_superinstruction_interior_stays_exact() {
    // The backward jump targets the *middle* of what the fuser would
    // otherwise collapse (const·const·arith chains): the group must split
    // at the join point so the second entry executes the tail alone.
    assert_adversarial_equivalent(
        vec![
            // i = 0; first pass jumps into the chain's interior.
            Instr::ConstI(0),
            Instr::Store(0),
            Instr::Jump(5),
            // Chain head (skipped on the first pass).
            Instr::ConstI(10),
            Instr::Pop,
            // Interior join point: i = i + 1.
            Instr::Load(0),
            Instr::ConstI(1),
            Instr::Arith(ArithOp::Add),
            Instr::Store(0),
            // Loop until i == 3, re-entering through the chain head.
            Instr::Load(0),
            Instr::ConstI(3),
            Instr::Cmp(jexec::code::CmpOp::Lt),
            Instr::JumpIfFalse(14),
            Instr::Jump(3),
            Instr::Load(0),
            Instr::Print,
            Instr::Return,
        ],
        1,
        None,
    );
}

#[test]
fn corrupt_leaf_body_errors_mid_inline_step_exactly() {
    // A leaf small enough to inline whose body dies partway through: the
    // error (and any fuel cut) lands *inside* the inlined body, which must
    // be indistinguishable from the real call frame the interpreter built.
    let program = mjava::parse(
        "class T { static int leaf() { return 1; } static void main() { System.out.println(T.leaf()); } }",
    )
    .unwrap();
    let image = Image::build(&program).unwrap();
    let leaf = image.method_id("T", "leaf").unwrap();

    // Type error on the third micro-step of the inlined body.
    let mut bad = image.clone();
    bad.install_code(
        leaf,
        Code {
            instrs: vec![
                Instr::ConstB(true),
                Instr::ConstI(1),
                Instr::Arith(ArithOp::Add),
                Instr::ReturnV,
            ],
            n_locals: 0,
            max_stack: 2,
        },
    );
    sweep(&bad, None);

    // Stack underflow on the first micro-step of the inlined body.
    let mut underflow = image.clone();
    underflow.install_code(
        leaf,
        Code {
            instrs: vec![Instr::Pop, Instr::ConstI(1), Instr::ReturnV],
            n_locals: 0,
            max_stack: 1,
        },
    );
    sweep(&underflow, None);

    // Truncated leaf (no return): too adversarial to inline — the builder
    // must reject it and fall back to a real frame, which then falls off
    // the end exactly like the interpreter.
    let mut truncated = image.clone();
    truncated.install_code(
        leaf,
        Code {
            instrs: vec![Instr::ConstI(1), Instr::Pop],
            n_locals: 0,
            max_stack: 1,
        },
    );
    sweep(&truncated, Some(ExecError::VmCorrupt("pc out of range")));
}
