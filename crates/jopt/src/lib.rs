//! # jopt — the simulated JIT optimizer
//!
//! The reproduction's analogue of HotSpot's C2: a pipeline of optimization
//! phases over method ASTs, run for several rounds so that phases interact
//! (the paper's central subject). Each phase is a semantics-preserving
//! rewrite that emits [`OptEvent`]s; events render to HotSpot-style trace
//! lines under the 15 [`TraceFlag`]s, which is the *profile data* MopFuzzer
//! consumes as guidance.
//!
//! Phases (10 modules implementing 14 behaviours): inlining (with
//! synchronized-callee handling), escape analysis + scalar replacement,
//! lock elimination/coarsening/nesting, loop unswitch/peel/unroll, GVN +
//! constant folding + algebraic simplification, redundant-store
//! elimination, autobox elimination, dead code elimination, de-reflection,
//! and uncommon-trap placement.
//!
//! # Examples
//!
//! ```
//! use jopt::{optimize, FlagSet, OptLimits, PhaseId};
//!
//! let program = mjava::parse(r#"
//!     class T {
//!         static void main() {
//!             int s = 0;
//!             for (int i = 0; i < 4; i++) { s = s + i; }
//!             System.out.println(s);
//!         }
//!     }
//! "#).unwrap();
//! let out = optimize(
//!     &program, "T", "main",
//!     &PhaseId::DEFAULT_ORDER, OptLimits::default(), &FlagSet::all(),
//! ).unwrap();
//! assert!(out.log.iter().any(|line| line.starts_with("Unroll")));
//! ```

// Hash-set and hash-map iteration order is seeded per instance: iterating
// one into an event, a name or a rewrite makes output vary between runs.
#![deny(clippy::iter_over_hash_type)]

pub mod analysis;
pub mod event;
pub mod phases;
pub mod pipeline;

pub use event::{FlagSet, OptEvent, OptEventKind, TraceFlag};
pub use phases::escape::EscapeState;
pub use pipeline::{
    optimize, optimize_memo, source_fingerprint, OptCx, OptLimits, OptOutcome, PhaseId,
};
