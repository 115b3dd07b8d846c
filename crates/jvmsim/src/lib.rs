//! # jvmsim — simulated JVM implementations
//!
//! The reproduction's stand-in for production JVMs: two families
//! ([`Family::HotSpur`] ≈ HotSpot/OpenJDK across LTS versions 8–21 plus
//! the mainline, [`Family::J9`] ≈ OpenJ9) executing MiniJava with tiered
//! compilation — interpret ([`jexec`]), profile, JIT-compile hot methods
//! ([`jopt`]), re-run.
//!
//! What makes these JVMs *testable* is the [`bugs`] module: a library of
//! 59 injected defects matching the paper's reported-bug distributions
//! (Tables 2–4), each firing only when one method compilation performs a
//! *conjunction* of optimization behaviours — the optimization
//! interactions MopFuzzer maximizes. Crash bugs abort with an
//! `hs_err`-style [`CrashReport`]; miscompile bugs corrupt the emitted
//! code for the differential oracle to find.
//!
//! # Examples
//!
//! ```
//! use jvmsim::{run_jvm, JvmSpec, RunOptions, Version};
//!
//! let program = mjava::parse(r#"
//!     class T {
//!         static int s;
//!         static void main() {
//!             for (int i = 0; i < 2_000; i++) { s = s + i % 5; }
//!             System.out.println(s);
//!         }
//!     }
//! "#).unwrap();
//! let run = run_jvm(&program, &JvmSpec::hotspur(Version::V17), &RunOptions::fuzzing());
//! assert_eq!(run.observable().unwrap(), vec!["4000"]);
//! assert!(!run.log.is_empty()); // profile data under -XX:+Trace* flags
//! ```

pub mod bugs;
pub mod component;
pub mod coverage;
pub mod fault;
pub mod run;
pub mod spec;

pub use bugs::{BugKind, Corruption, InjectedBug, Priority, ReportStatus, Trigger};
pub use component::{Area, Component};
pub use coverage::CoverageMap;
pub use fault::{FaultPlan, VmFault};
pub use run::{run_jvm, run_jvm_with_image, CrashReport, JvmRun, RunOptions, Verdict};
pub use spec::{Family, JvmSpec, Version};
