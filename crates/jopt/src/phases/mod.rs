//! The optimizer phases.
//!
//! Each submodule implements one C2-style phase as a semantics-preserving
//! rewrite of the method AST that emits [`crate::event::OptEvent`]s — the
//! observable "optimization behaviours" the paper's guidance is built on.

pub mod autobox;
pub mod dce;
pub mod deopt;
pub mod dereflect;
pub mod escape;
pub mod gvn;
pub mod inline;
pub mod locks;
pub mod loops;
pub mod store;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::event::FlagSet;
    use crate::pipeline::{optimize, OptLimits, OptOutcome, PhaseId};

    /// Optimizes `main` of `src` through the given phases (one round unless
    /// stated) and returns the outcome.
    pub fn opt_main(src: &str, phases: &[PhaseId], rounds: usize) -> OptOutcome {
        let program = mjava::parse(src).unwrap();
        let limits = OptLimits {
            rounds,
            ..OptLimits::default()
        };
        optimize(
            &program,
            main_class(&program),
            "main",
            phases,
            limits,
            &FlagSet::all(),
        )
        .expect("main exists")
    }

    /// Optimizes a named method instead of `main`.
    #[allow(dead_code)] // symmetry helper for phase tests
    pub fn opt_method(src: &str, method: &str, phases: &[PhaseId], rounds: usize) -> OptOutcome {
        let program = mjava::parse(src).unwrap();
        let limits = OptLimits {
            rounds,
            ..OptLimits::default()
        };
        optimize(
            &program,
            main_class(&program),
            method,
            phases,
            limits,
            &FlagSet::all(),
        )
        .expect("method exists")
    }

    fn main_class(program: &mjava::Program) -> &str {
        let (ci, _) = program.main_method().expect("main");
        &program.classes[ci].name
    }

    /// Runs the original and an optimized-method variant of the program and
    /// asserts identical observable behaviour. Returns the optimized
    /// program for further inspection.
    pub fn assert_semantics_preserved(src: &str, outcome: &OptOutcome) -> mjava::Program {
        let original = mjava::parse(src).unwrap();
        let before = jexec::run_program(&original, &jexec::ExecConfig::default()).unwrap();
        let mut optimized = original.clone();
        let (ci, _) = optimized.main_method().expect("main");
        let class = &mut optimized.classes[ci];
        let m = class
            .methods
            .iter_mut()
            .find(|m| m.name == outcome.method.name)
            .expect("method");
        *m = (*outcome.method).clone();
        let after = jexec::run_program(&optimized, &jexec::ExecConfig::default()).unwrap();
        assert_eq!(
            before.observable(),
            after.observable(),
            "optimization changed behaviour;\noptimized method:\n{}",
            mjava::print(&optimized)
        );
        optimized
    }
}
