//! The injected-bug library.
//!
//! Each entry is the analogue of one of the 59 real bugs MopFuzzer
//! reported (paper Tables 2–4): it belongs to one JVM family, affects a
//! set of versions, lives in one JIT component, and fires when a *trigger
//! predicate over the optimization events of a single method compilation*
//! holds. Triggers are conjunctions across several behaviours — encoding
//! the paper's core claim that these bugs arise from optimization
//! *interactions*, not from any single optimization. A plain seed program
//! does not satisfy any trigger (the test suite enforces this); iterated
//! mutation does.
//!
//! Crash bugs abort compilation with an `hs_err`-style report; miscompile
//! bugs corrupt the optimized method, which the differential oracle later
//! exposes as cross-JVM output divergence.

use crate::component::Component;
use crate::spec::{Family, Version};
use jopt::{OptEvent, OptEventKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A predicate over per-compilation event counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// At least `1` occurrences of a behaviour kind.
    AtLeast(OptEventKind, u64),
    /// All sub-triggers hold.
    All(Vec<Trigger>),
    /// Any sub-trigger holds.
    Any(Vec<Trigger>),
}

impl Trigger {
    /// Evaluates the predicate against event counts.
    pub fn eval(&self, counts: &HashMap<OptEventKind, u64>) -> bool {
        match self {
            Trigger::AtLeast(kind, n) => counts.get(kind).copied().unwrap_or(0) >= *n,
            Trigger::All(subs) => subs.iter().all(|t| t.eval(counts)),
            Trigger::Any(subs) => subs.iter().any(|t| t.eval(counts)),
        }
    }

    /// The distinct behaviour kinds the predicate mentions.
    pub fn kinds(&self) -> Vec<OptEventKind> {
        let mut out = Vec::new();
        self.collect_kinds(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_kinds(&self, out: &mut Vec<OptEventKind>) {
        match self {
            Trigger::AtLeast(kind, _) => out.push(*kind),
            Trigger::All(subs) | Trigger::Any(subs) => {
                for t in subs {
                    t.collect_kinds(out);
                }
            }
        }
    }
}

/// Tallies events by kind — the input to trigger evaluation.
pub fn count_events(events: &[OptEvent]) -> HashMap<OptEventKind, u64> {
    let mut counts = HashMap::new();
    for e in events {
        *counts.entry(e.kind).or_insert(0) += 1;
    }
    counts
}

/// How a miscompile bug corrupts the optimized method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Removes the last store statement of the method.
    DropLastStore,
    /// Turns the first `+` into a `-`.
    AddBecomesSub,
    /// Negates the first branch condition.
    NegateFirstGuard,
    /// Turns the first `for (…; i < n; …)` into `i <= n`.
    OffByOneLoop,
}

/// Bug kind, matching Table 2's crash/miscompilation split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// The compiler crashes during compilation.
    Crash,
    /// The compiler emits wrong code.
    Miscompile(Corruption),
}

/// The reported status of the (analogue) bug — Table 2's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportStatus {
    InProgress,
    Fixed,
    Duplicate,
    NotBackportable,
}

/// OpenJDK-style priority (HotSpur bugs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    P2,
    P3,
    P4,
}

/// One injected bug.
#[derive(Debug, Clone)]
pub struct InjectedBug {
    /// Stable identifier (analogue of a JDK-/Issue- number).
    pub id: &'static str,
    /// Affected family.
    pub family: Family,
    /// Affected versions.
    pub affected: Vec<Version>,
    /// JIT component the defect lives in (Table 4).
    pub component: Component,
    /// Crash or miscompilation.
    pub kind: BugKind,
    /// Report status (Table 2).
    pub status: ReportStatus,
    /// Priority, for HotSpur bugs (Table context in §4.2).
    pub priority: Option<Priority>,
    /// Firing condition over one method compilation's events.
    pub trigger: Trigger,
}

impl InjectedBug {
    /// True if this bug exists in the given family+version.
    pub fn affects(&self, family: Family, version: Version) -> bool {
        self.family == family && self.affected.contains(&version)
    }

    /// Evaluates the trigger against a compilation's events.
    pub fn fires(&self, events: &[OptEvent]) -> bool {
        self.trigger.eval(&count_events(events))
    }
}

fn n(kind: OptEventKind, count: u64) -> Trigger {
    Trigger::AtLeast(kind, count)
}

fn all<const N: usize>(subs: [Trigger; N]) -> Trigger {
    Trigger::All(subs.into_iter().collect())
}

/// The paper's reported-bug population: 45 HotSpur + 14 J9 bugs, matching
/// the distributions of Tables 2–4 (validated by this module's tests).
pub fn library() -> Vec<InjectedBug> {
    let mut bugs = hotspur_bugs();
    bugs.extend(j9_bugs());
    bugs
}

/// The full armed set: the 59-bug population plus six supplementary
/// version-17 defects whose trigger shapes favour the *baseline* tools
/// (deep loop nests for Artemis, C1-tier patterns for JITFuzz) — the
/// bugs behind Table 6's Artemis/JITFuzz columns. Their ids carry the
/// `MOP-X` prefix and they are excluded from the Tables 2–4 population.
pub fn extended_library() -> Vec<InjectedBug> {
    let mut bugs = library();
    bugs.extend(table6_extras());
    bugs
}

fn table6_extras() -> Vec<InjectedBug> {
    use Component::*;
    use OptEventKind::*;
    use ReportStatus::*;
    use Version::*;

    let x = |id: &'static str, component: Component, trigger: Trigger| InjectedBug {
        id,
        family: Family::HotSpur,
        affected: vec![V17],
        component,
        kind: BugKind::Crash,
        status: InProgress,
        priority: Some(Priority::P4),
        trigger,
    };
    vec![
        // Loop-structure-heavy triggers (Artemis territory).
        x(
            "MOP-X201",
            RegisterAllocationC2,
            all([n(Unroll, 2), n(Peel, 1), n(UncommonTrap, 1)]),
        ),
        x(
            "MOP-X202",
            IdealLoopOptimizationC2,
            all([n(Peel, 2), n(Unroll, 2), n(ConstFold, 2)]),
        ),
        x(
            "MOP-X205",
            IdealLoopOptimizationC2,
            all([n(Unroll, 3), n(Peel, 2)]),
        ),
        x(
            "MOP-X206",
            IdealGraphBuildingC2,
            all([n(Peel, 2), n(UncommonTrap, 1), n(ConstFold, 2)]),
        ),
        // C1-tier triggers (JITFuzz territory: it runs without -Xcomp, so
        // warm methods pass through the client compiler).
        x(
            "MOP-X203",
            ValueMappingC1,
            all([n(AlgebraicSimplify, 3), n(ConstFold, 1)]),
        ),
        x(
            "MOP-X204",
            ValueMappingC1,
            all([n(DceRemove, 2), n(ConstFold, 2)]),
        ),
    ]
}

/// Bugs armed in a given family+version (supplementary set included).
pub fn bugs_for(family: Family, version: Version) -> Vec<InjectedBug> {
    extended_library()
        .into_iter()
        .filter(|b| b.affects(family, version))
        .collect()
}

#[allow(clippy::too_many_lines)]
fn hotspur_bugs() -> Vec<InjectedBug> {
    use Component::*;
    use OptEventKind::*;
    use Priority::*;
    use ReportStatus::*;
    use Version::*;

    let hs = |id: &'static str,
              affected: &[Version],
              component: Component,
              kind: BugKind,
              status: ReportStatus,
              priority: Priority,
              trigger: Trigger| InjectedBug {
        id,
        family: Family::HotSpur,
        affected: affected.to_vec(),
        component,
        kind,
        status,
        priority: Some(priority),
        trigger,
    };
    let crash = BugKind::Crash;
    let mis = BugKind::Miscompile;

    vec![
        // --- Global Value Numbering, C2 (10) ---
        // GvnHit counts scale with how much loop duplication feeds the
        // value-numbering scan; plain seeds reach ~7, so interaction
        // bugs keyed on GVN volume sit above that.
        hs(
            "MOP-9001",
            &[V8],
            GlobalValueNumberingC2,
            crash,
            NotBackportable,
            P4,
            all([n(GvnHit, 8), n(Unroll, 2)]),
        ),
        hs(
            "MOP-9002",
            &[V8],
            GlobalValueNumberingC2,
            crash,
            NotBackportable,
            P4,
            all([n(ConstFold, 6), n(Peel, 1), n(GvnHit, 1)]),
        ),
        hs(
            "MOP-9003",
            &[V8, V11],
            GlobalValueNumberingC2,
            crash,
            InProgress,
            P4,
            all([n(GvnHit, 1), n(AlgebraicSimplify, 3), n(Inline, 1)]),
        ),
        hs(
            "MOP-9004",
            &[V8, V17],
            GlobalValueNumberingC2,
            crash,
            InProgress,
            P3,
            all([n(GvnHit, 2), n(LockEliminate, 1)]),
        ),
        hs(
            "MOP-9005",
            &[V17, V21, Mainline],
            GlobalValueNumberingC2,
            crash,
            InProgress,
            P4,
            all([n(GvnHit, 1), n(Unswitch, 1), n(ConstFold, 2)]),
        ),
        hs(
            "MOP-9006",
            &[Mainline],
            GlobalValueNumberingC2,
            crash,
            InProgress,
            P2,
            all([n(GvnHit, 4), n(ScalarReplace, 1)]),
        ),
        hs(
            "MOP-9007",
            &[Mainline],
            GlobalValueNumberingC2,
            crash,
            Fixed,
            P4,
            all([n(AlgebraicSimplify, 4), n(Unroll, 1), n(Inline, 1)]),
        ),
        hs(
            "MOP-9008",
            &[V17],
            GlobalValueNumberingC2,
            mis(Corruption::AddBecomesSub),
            Fixed,
            P3,
            all([n(GvnHit, 2), n(StoreEliminate, 1)]),
        ),
        hs(
            "MOP-9009",
            &[V21],
            GlobalValueNumberingC2,
            crash,
            Duplicate,
            P4,
            all([n(ConstFold, 8), n(DceRemove, 2)]),
        ),
        hs(
            "MOP-9010",
            &[V17, V21, Mainline],
            GlobalValueNumberingC2,
            crash,
            InProgress,
            P4,
            all([n(GvnHit, 2), n(AutoboxEliminate, 1)]),
        ),
        // --- Ideal Loop Optimization, C2 (7) ---
        hs(
            "MOP-9011",
            &[V8],
            IdealLoopOptimizationC2,
            crash,
            NotBackportable,
            P4,
            all([n(Unroll, 2), n(Peel, 2)]),
        ),
        hs(
            "MOP-9012",
            &[V8],
            IdealLoopOptimizationC2,
            crash,
            NotBackportable,
            P4,
            all([n(Unswitch, 2), n(Unroll, 1)]),
        ),
        hs(
            "MOP-9013",
            &[V8, V11],
            IdealLoopOptimizationC2,
            crash,
            InProgress,
            P3,
            all([n(Peel, 2), n(Unswitch, 1), n(Inline, 1)]),
        ),
        hs(
            "MOP-9014",
            &[V17, V21, Mainline],
            IdealLoopOptimizationC2,
            crash,
            InProgress,
            P3,
            all([n(Unroll, 3), n(NestedLock, 1)]),
        ),
        hs(
            "MOP-9015",
            &[Mainline],
            IdealLoopOptimizationC2,
            crash,
            InProgress,
            P2,
            all([n(Unroll, 2), n(Deopt, 1), n(UncommonTrap, 2)]),
        ),
        hs(
            "MOP-9016",
            &[V21],
            IdealLoopOptimizationC2,
            crash,
            Fixed,
            P4,
            all([n(Peel, 3), n(DceRemove, 1)]),
        ),
        hs(
            "MOP-9017",
            &[V8, V17],
            IdealLoopOptimizationC2,
            crash,
            Duplicate,
            P4,
            all([n(Unroll, 2), n(Unswitch, 1), n(ConstFold, 1)]),
        ),
        // --- Code Generation, C2 (7) ---
        hs(
            "MOP-9018",
            &[V8],
            CodeGenerationC2,
            crash,
            NotBackportable,
            P4,
            all([n(StoreEliminate, 2), n(Unroll, 1)]),
        ),
        hs(
            "MOP-9019",
            &[V8],
            CodeGenerationC2,
            crash,
            NotBackportable,
            P4,
            all([n(Inline, 2), n(StoreEliminate, 1), n(GvnHit, 1)]),
        ),
        hs(
            "MOP-9020",
            &[V8, V11],
            CodeGenerationC2,
            mis(Corruption::NegateFirstGuard),
            InProgress,
            P4,
            all([n(AutoboxEliminate, 2), n(Unroll, 1)]),
        ),
        hs(
            "MOP-9021",
            &[V17, V21, Mainline],
            CodeGenerationC2,
            crash,
            InProgress,
            P3,
            all([n(StoreEliminate, 1), n(LockCoarsen, 1)]),
        ),
        hs(
            "MOP-9022",
            &[Mainline],
            CodeGenerationC2,
            mis(Corruption::DropLastStore),
            InProgress,
            P3,
            all([n(StoreEliminate, 2), n(Peel, 1)]),
        ),
        hs(
            "MOP-9023",
            &[V17],
            CodeGenerationC2,
            crash,
            Fixed,
            P4,
            all([n(Inline, 3), n(Unroll, 2)]),
        ),
        hs(
            "MOP-9024",
            &[V21],
            CodeGenerationC2,
            crash,
            Duplicate,
            P4,
            all([n(StoreEliminate, 1), n(DceRemove, 2), n(ConstFold, 1)]),
        ),
        // --- Ideal Graph Building, C2 (5) ---
        hs(
            "MOP-9025",
            &[V8],
            IdealGraphBuildingC2,
            crash,
            NotBackportable,
            P4,
            all([n(Inline, 2), n(NestedLock, 1)]),
        ),
        hs(
            "MOP-9026",
            &[V8],
            IdealGraphBuildingC2,
            crash,
            NotBackportable,
            P4,
            all([n(InlineReject, 1), n(Inline, 2)]),
        ),
        hs(
            "MOP-9027",
            &[V8, V11],
            IdealGraphBuildingC2,
            crash,
            InProgress,
            P3,
            all([n(Inline, 2), n(EaArgEscape, 1), n(Peel, 1)]),
        ),
        hs(
            "MOP-9028",
            &[V8, V17],
            IdealGraphBuildingC2,
            crash,
            Duplicate,
            P4,
            all([n(Inline, 1), n(Unswitch, 1), n(GvnHit, 1)]),
        ),
        hs(
            "MOP-9029",
            &[V17, V21, Mainline],
            IdealGraphBuildingC2,
            crash,
            Fixed,
            P3,
            all([n(Inline, 4), n(UncommonTrap, 1)]),
        ),
        // --- Macro Expansion, C2 (4) ---
        // The analogue of JDK-8312744 (the paper's motivating crash): lock
        // coarsening after loop unrolling over a nested monitor region.
        hs(
            "MOP-8312744",
            &[Mainline],
            MacroExpansionC2,
            crash,
            InProgress,
            P3,
            all([n(LockCoarsen, 1), n(Unroll, 2), n(NestedLock, 1)]),
        ),
        // The analogue of JDK-8324174: three nested locks (a 3-deep nest
        // produces two nested-monitor reports: depths 3 and 2).
        hs(
            "MOP-8324174",
            &[V17, V21, Mainline],
            MacroExpansionC2,
            crash,
            InProgress,
            P3,
            all([n(NestedLock, 2), n(LockEliminate, 1)]),
        ),
        hs(
            "MOP-9032",
            &[V8],
            MacroExpansionC2,
            crash,
            NotBackportable,
            P4,
            all([n(ScalarReplace, 1), n(LockEliminate, 1), n(Unroll, 1)]),
        ),
        // The analogue of JDK-8322743: loops + lock nesting + inlining +
        // escape analysis + autobox + deopt interplay.
        hs(
            "MOP-8322743",
            &[Mainline],
            MacroExpansionC2,
            crash,
            InProgress,
            P3,
            all([
                n(EaNoEscape, 1),
                n(LockEliminate, 1),
                n(AutoboxEliminate, 1),
                n(Deopt, 1),
            ]),
        ),
        // --- Conditional Constant Propagation, C2 (1) ---
        hs(
            "MOP-9034",
            &[V11],
            CondConstPropagationC2,
            mis(Corruption::NegateFirstGuard),
            InProgress,
            P3,
            all([n(ConstFold, 3), n(Unswitch, 1)]),
        ),
        // --- Runtime (4) ---
        hs(
            "MOP-9035",
            &[V8],
            HotSpurRuntime,
            crash,
            NotBackportable,
            P4,
            all([n(Deopt, 2), n(Inline, 1)]),
        ),
        hs(
            "MOP-9036",
            &[V8, V11],
            HotSpurRuntime,
            crash,
            NotBackportable,
            P4,
            all([n(UncommonTrap, 2), n(LockEliminate, 1)]),
        ),
        hs(
            "MOP-9037",
            &[V8],
            HotSpurRuntime,
            crash,
            InProgress,
            P3,
            all([n(Deopt, 1), n(NestedLock, 2)]),
        ),
        hs(
            "MOP-9038",
            &[V8, V11],
            HotSpurRuntime,
            mis(Corruption::OffByOneLoop),
            InProgress,
            P4,
            all([n(UncommonTrap, 1), n(Peel, 2)]),
        ),
        // --- Other JIT components (7) ---
        hs(
            "MOP-9039",
            &[V8],
            OtherJit,
            crash,
            NotBackportable,
            P4,
            all([n(AutoboxEliminate, 1), n(EaNoEscape, 2)]),
        ),
        hs(
            "MOP-9040",
            &[V8, V11],
            OtherJit,
            crash,
            NotBackportable,
            P4,
            all([n(EaArgEscape, 2), n(Unroll, 1)]),
        ),
        hs(
            "MOP-9041",
            &[V8],
            OtherJit,
            crash,
            Fixed,
            P4,
            all([n(AutoboxEliminate, 2), n(StoreEliminate, 1)]),
        ),
        hs(
            "MOP-9042",
            &[V11],
            OtherJit,
            mis(Corruption::AddBecomesSub),
            InProgress,
            P4,
            all([n(Dereflect, 1), n(Inline, 1)]),
        ),
        hs(
            "MOP-9043",
            &[V8, V17],
            OtherJit,
            crash,
            Fixed,
            P4,
            all([n(ScalarReplace, 2), n(DceRemove, 1)]),
        ),
        hs(
            "MOP-9044",
            &[V8, V17],
            OtherJit,
            crash,
            Duplicate,
            P4,
            all([n(EaNoEscape, 3), n(GvnHit, 1)]),
        ),
        hs(
            "MOP-9045",
            &[V8],
            OtherJit,
            crash,
            NotBackportable,
            P4,
            all([n(AlgebraicSimplify, 5), n(Peel, 1), n(StoreEliminate, 1)]),
        ),
    ]
}

fn j9_bugs() -> Vec<InjectedBug> {
    use Component::*;
    use OptEventKind::*;
    use ReportStatus::*;
    use Version::*;

    let j9 = |id: &'static str,
              affected: &[Version],
              component: Component,
              kind: BugKind,
              status: ReportStatus,
              trigger: Trigger| InjectedBug {
        id,
        family: Family::J9,
        affected: affected.to_vec(),
        component,
        kind,
        status,
        priority: None,
        trigger,
    };
    let crash = BugKind::Crash;
    let mis = BugKind::Miscompile;

    vec![
        j9(
            "MOP-J101",
            &[V8, V11, V17],
            RedundancyElimination,
            mis(Corruption::DropLastStore),
            InProgress,
            all([n(StoreEliminate, 2), n(GvnHit, 1)]),
        ),
        j9(
            "MOP-J102",
            &[V11, V17],
            RedundancyElimination,
            mis(Corruption::DropLastStore),
            InProgress,
            all([n(StoreEliminate, 1), n(DceRemove, 2)]),
        ),
        j9(
            "MOP-J103",
            &[V17],
            RedundancyElimination,
            mis(Corruption::AddBecomesSub),
            Fixed,
            all([n(StoreEliminate, 2), n(Unroll, 1)]),
        ),
        j9(
            "MOP-J104",
            &[V8],
            RedundancyElimination,
            mis(Corruption::DropLastStore),
            InProgress,
            all([n(StoreEliminate, 3)]),
        ),
        j9(
            "MOP-J105",
            &[V8, V11],
            LoopOptimization,
            crash,
            InProgress,
            all([n(Unroll, 2), n(Peel, 1), n(NestedLock, 1)]),
        ),
        j9(
            "MOP-J106",
            &[V17],
            LoopOptimization,
            mis(Corruption::OffByOneLoop),
            InProgress,
            all([n(Peel, 2), n(Unswitch, 1)]),
        ),
        j9(
            "MOP-J107",
            &[V11],
            LoopOptimization,
            mis(Corruption::OffByOneLoop),
            Fixed,
            all([n(Unroll, 3), n(ConstFold, 2)]),
        ),
        j9(
            "MOP-J108",
            &[V8, V11, V17],
            PatternRecognition,
            mis(Corruption::NegateFirstGuard),
            InProgress,
            all([n(AlgebraicSimplify, 3), n(Unswitch, 1)]),
        ),
        j9(
            "MOP-J109",
            &[V17],
            PatternRecognition,
            mis(Corruption::AddBecomesSub),
            Fixed,
            all([n(AlgebraicSimplify, 2), n(AutoboxEliminate, 1)]),
        ),
        j9(
            "MOP-J110",
            &[V8, V11, V17],
            DeadCodeElimination,
            mis(Corruption::DropLastStore),
            InProgress,
            all([n(DceRemove, 3), n(Inline, 1)]),
        ),
        j9(
            "MOP-J111",
            &[V17],
            EscapeAnalysisJ9,
            mis(Corruption::NegateFirstGuard),
            InProgress,
            all([n(EaNoEscape, 2), n(ScalarReplace, 1), n(LockEliminate, 1)]),
        ),
        j9(
            "MOP-J112",
            &[V11, V17],
            SimdSupport,
            crash,
            Duplicate,
            all([n(Unroll, 4), n(StoreEliminate, 1)]),
        ),
        j9(
            "MOP-J113",
            &[V8],
            ValuePropagation,
            mis(Corruption::NegateFirstGuard),
            Fixed,
            all([n(ConstFold, 5), n(Unswitch, 1)]),
        ),
        j9(
            "MOP-J114",
            &[V8, V11, V17],
            J9Runtime,
            mis(Corruption::OffByOneLoop),
            InProgress,
            all([n(Deopt, 1), n(UncommonTrap, 1), n(Peel, 1)]),
        ),
    ]
}

/// Applies a miscompilation's corruption to the optimized method body.
/// Returns true if the pattern was found and corrupted.
///
/// Copy on write: the method is copied only when the pattern is found and
/// someone else holds it too (a memo hit's method is the pipeline memo's
/// snapshot, which must stay intact). When the pattern is absent,
/// `method` is left as it was, the same allocation.
pub fn apply_corruption(method: &mut Arc<mjava::Method>, corruption: Corruption) -> bool {
    if !has_pattern(&method.body, corruption) {
        return false;
    }
    let corrupted = corrupt(&mut Arc::make_mut(method).body, corruption);
    debug_assert!(
        corrupted,
        "{corruption:?} found a pattern it cannot rewrite"
    );
    corrupted
}

/// Whether [`corrupt`] would find `corruption`'s pattern in `body`: the
/// same walks, read-only.
fn has_pattern(body: &mjava::Block, corruption: Corruption) -> bool {
    use mjava::{Expr, Stmt};
    fn store(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Assign { .. } => true,
            Stmt::If { then_b, else_b, .. } => {
                then_b.0.iter().any(store) || else_b.as_ref().is_some_and(|e| e.0.iter().any(store))
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::Sync { body, .. }
            | Stmt::Block(body) => body.0.iter().any(store),
            _ => false,
        }
    }
    fn guard(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::If { .. } => true,
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::Sync { body, .. }
            | Stmt::Block(body) => body.0.iter().any(guard),
            _ => false,
        }
    }
    fn lt_loop(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::For { cond, body, .. } => {
                matches!(cond, Expr::Binary(mjava::BinOp::Lt, _, _)) || body.0.iter().any(lt_loop)
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::Block(body) => {
                body.0.iter().any(lt_loop)
            }
            Stmt::If { then_b, else_b, .. } => {
                then_b.0.iter().any(lt_loop)
                    || else_b.as_ref().is_some_and(|e| e.0.iter().any(lt_loop))
            }
            _ => false,
        }
    }
    match corruption {
        Corruption::DropLastStore => body.0.iter().any(store),
        Corruption::AddBecomesSub => {
            let mut found = false;
            jopt::analysis::map_exprs_in_block_ref(body, &mut |e| {
                found |= matches!(e, Expr::Binary(mjava::BinOp::Add, _, _));
            });
            found
        }
        Corruption::NegateFirstGuard => body.0.iter().any(guard),
        Corruption::OffByOneLoop => body.0.iter().any(lt_loop),
    }
}

/// Rewrites the first occurrence of `corruption`'s pattern in `body`;
/// returns whether there was one.
fn corrupt(body: &mut mjava::Block, corruption: Corruption) -> bool {
    use mjava::{Block, Expr, Stmt};
    match corruption {
        Corruption::DropLastStore => drop_last_store(body),
        Corruption::AddBecomesSub => {
            let mut done = false;
            jopt::analysis::map_exprs_in_block(body, &mut |e| {
                if done {
                    return;
                }
                if let Expr::Binary(op, _, _) = e {
                    if *op == mjava::BinOp::Add {
                        *op = mjava::BinOp::Sub;
                        done = true;
                    }
                }
            });
            done
        }
        Corruption::NegateFirstGuard => negate_first_guard(body),
        Corruption::OffByOneLoop => {
            fn walk(block: &mut Block) -> bool {
                for stmt in &mut block.0 {
                    let hit = match stmt {
                        Stmt::For { cond, body, .. } => {
                            if let Expr::Binary(op, _, _) = cond {
                                if *op == mjava::BinOp::Lt {
                                    *op = mjava::BinOp::Le;
                                    return true;
                                }
                            }
                            walk(body)
                        }
                        Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::Block(body) => {
                            walk(body)
                        }
                        Stmt::If { then_b, else_b, .. } => {
                            walk(then_b) || else_b.as_mut().is_some_and(walk)
                        }
                        _ => false,
                    };
                    if hit {
                        return true;
                    }
                }
                false
            }
            walk(body)
        }
    }
}

fn drop_last_store(block: &mut mjava::Block) -> bool {
    use mjava::Stmt;
    // Depth-first from the end: remove the last assignment statement.
    for i in (0..block.0.len()).rev() {
        let removed = match &mut block.0[i] {
            Stmt::Assign { .. } => {
                block.0.remove(i);
                return true;
            }
            Stmt::If { then_b, else_b, .. } => {
                if let Some(e) = else_b {
                    if drop_last_store(e) {
                        return true;
                    }
                }
                drop_last_store(then_b)
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                drop_last_store(body)
            }
            Stmt::Block(b) => drop_last_store(b),
            _ => false,
        };
        if removed {
            return true;
        }
    }
    false
}

fn negate_first_guard(block: &mut mjava::Block) -> bool {
    use mjava::{Expr, Stmt, UnOp};
    for stmt in &mut block.0 {
        let negated = match stmt {
            Stmt::If { cond, .. } => {
                let old = cond.clone();
                *cond = Expr::Unary(UnOp::Not, Box::new(old));
                true
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::Sync { body, .. }
            | Stmt::Block(body) => negate_first_guard(body),
            _ => false,
        };
        if negated {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::spec::{Family, Version};

    #[test]
    fn library_has_59_bugs_matching_table2() {
        let lib = library();
        assert_eq!(lib.len(), 59);
        let hotspur: Vec<_> = lib.iter().filter(|b| b.family == Family::HotSpur).collect();
        let j9: Vec<_> = lib.iter().filter(|b| b.family == Family::J9).collect();
        assert_eq!(hotspur.len(), 45);
        assert_eq!(j9.len(), 14);

        let status =
            |bugs: &[&InjectedBug], s: ReportStatus| bugs.iter().filter(|b| b.status == s).count();
        // Table 2, OpenJDK column.
        assert_eq!(status(&hotspur, ReportStatus::InProgress), 19);
        assert_eq!(status(&hotspur, ReportStatus::Fixed), 7);
        assert_eq!(status(&hotspur, ReportStatus::Duplicate), 5);
        assert_eq!(status(&hotspur, ReportStatus::NotBackportable), 14);
        // Table 2, OpenJ9 column.
        assert_eq!(status(&j9, ReportStatus::InProgress), 9);
        assert_eq!(status(&j9, ReportStatus::Fixed), 4);
        assert_eq!(status(&j9, ReportStatus::Duplicate), 1);
        assert_eq!(status(&j9, ReportStatus::NotBackportable), 0);

        // Crash/miscompile split.
        let crashes = |bugs: &[&InjectedBug]| {
            bugs.iter()
                .filter(|b| matches!(b.kind, BugKind::Crash))
                .count()
        };
        assert_eq!(crashes(&hotspur), 39);
        assert_eq!(crashes(&j9), 2);
    }

    #[test]
    fn version_distribution_matches_table3() {
        let lib = library();
        let per_version = |v: Version| {
            lib.iter()
                .filter(|b| b.family == Family::HotSpur && b.affected.contains(&v))
                .count()
        };
        assert_eq!(per_version(Version::V8), 26);
        assert_eq!(per_version(Version::V11), 9);
        assert_eq!(per_version(Version::V17), 13);
        assert_eq!(per_version(Version::V21), 9);
        assert_eq!(per_version(Version::Mainline), 12);
        // Not-backportable: 12 in V8-only, 2 reaching V11.
        let nb: Vec<_> = lib
            .iter()
            .filter(|b| b.status == ReportStatus::NotBackportable)
            .collect();
        assert_eq!(nb.len(), 14);
        assert_eq!(
            nb.iter()
                .filter(|b| b.affected.contains(&Version::V11))
                .count(),
            2
        );
    }

    #[test]
    fn component_distribution_matches_table4() {
        let lib = library();
        let per = |c: Component| lib.iter().filter(|b| b.component == c).count();
        assert_eq!(per(Component::GlobalValueNumberingC2), 10);
        assert_eq!(per(Component::IdealLoopOptimizationC2), 7);
        assert_eq!(per(Component::CodeGenerationC2), 7);
        assert_eq!(per(Component::IdealGraphBuildingC2), 5);
        assert_eq!(per(Component::MacroExpansionC2), 4);
        assert_eq!(per(Component::CondConstPropagationC2), 1);
        assert_eq!(per(Component::HotSpurRuntime), 4);
        assert_eq!(per(Component::OtherJit), 7);
        assert_eq!(per(Component::RedundancyElimination), 4);
        assert_eq!(per(Component::LoopOptimization), 3);
        assert_eq!(per(Component::PatternRecognition), 2);
        assert_eq!(per(Component::DeadCodeElimination), 1);
        assert_eq!(per(Component::EscapeAnalysisJ9), 1);
        assert_eq!(per(Component::SimdSupport), 1);
        assert_eq!(per(Component::ValuePropagation), 1);
        assert_eq!(per(Component::J9Runtime), 1);
    }

    #[test]
    fn priorities_match_paper() {
        let lib = library();
        let per = |p: Priority| lib.iter().filter(|b| b.priority == Some(p)).count();
        assert_eq!(per(Priority::P2), 2);
        assert_eq!(per(Priority::P3), 13);
        assert_eq!(per(Priority::P4), 30);
        assert!(lib
            .iter()
            .filter(|b| b.family == Family::J9)
            .all(|b| b.priority.is_none()));
    }

    #[test]
    fn bug_ids_are_unique() {
        let lib = library();
        let mut ids: Vec<_> = lib.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 59);
    }

    #[test]
    fn every_trigger_requires_interaction_or_high_frequency() {
        // Core claim: each bug needs either several distinct behaviours or
        // an unusually high count of one (e.g. three nested locks).
        for bug in library() {
            let kinds = bug.trigger.kinds();
            let max_count = max_required(&bug.trigger);
            assert!(
                kinds.len() >= 2 || max_count >= 3,
                "{} is too easy: {:?}",
                bug.id,
                bug.trigger
            );
        }
    }

    fn max_required(t: &Trigger) -> u64 {
        match t {
            Trigger::AtLeast(_, n) => *n,
            Trigger::All(s) | Trigger::Any(s) => s.iter().map(max_required).max().unwrap_or(0),
        }
    }

    #[test]
    fn trigger_eval_semantics() {
        use jopt::OptEventKind::*;
        let t = all([n(Unroll, 2), n(LockCoarsen, 1)]);
        let mut counts = HashMap::new();
        counts.insert(Unroll, 2);
        assert!(!t.eval(&counts));
        counts.insert(LockCoarsen, 1);
        assert!(t.eval(&counts));
        let any = Trigger::Any(vec![n(Peel, 1), n(Unroll, 1)]);
        assert!(any.eval(&counts));
    }

    #[test]
    fn corruptions_change_programs() {
        let p = mjava::parse(
            r#"
            class T {
                static int s;
                static void main() {
                    if (s < 3) { s = 1 + 2; }
                    for (int i = 0; i < 4; i++) { s = s + i; }
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap();
        for c in CORRUPTIONS {
            let mut m = Arc::new(p.classes[0].methods[0].clone());
            assert!(apply_corruption(&mut m, c), "{c:?} found no pattern");
            assert_ne!(m.body, p.classes[0].methods[0].body, "{c:?} was a no-op");
        }
    }

    const CORRUPTIONS: [Corruption; 4] = [
        Corruption::DropLastStore,
        Corruption::AddBecomesSub,
        Corruption::NegateFirstGuard,
        Corruption::OffByOneLoop,
    ];

    /// The read-only pattern check agrees with the rewrite on every
    /// method of the built-in seeds, before and after optimization.
    #[test]
    fn the_pattern_check_agrees_with_the_rewrite() {
        let mut found = [0; 4];
        for seed in mjava::samples::all_seeds() {
            for class in &seed.program.classes {
                for m in &class.methods {
                    let optimized = jopt::optimize(
                        &seed.program,
                        &class.name,
                        &m.name,
                        &jopt::PhaseId::DEFAULT_ORDER,
                        jopt::OptLimits::default(),
                        &jopt::FlagSet::all(),
                    )
                    .unwrap();
                    for body in [&m.body, &optimized.method.body] {
                        for (i, c) in CORRUPTIONS.into_iter().enumerate() {
                            let expect = corrupt(&mut body.clone(), c);
                            assert_eq!(has_pattern(body, c), expect, "{c:?} in {}", seed.name);
                            found[i] += usize::from(expect);
                        }
                    }
                }
            }
        }
        assert!(found.iter().all(|&n| n > 0), "{found:?}");
    }

    /// Phases that keep every corruption's pattern in the program below
    /// (the loop phase would peel its `for`).
    const SHARED_ORDER: [jopt::PhaseId; 3] = [
        jopt::PhaseId::Inline,
        jopt::PhaseId::Gvn,
        jopt::PhaseId::Dce,
    ];

    fn memo_compile(p: &mjava::Program) -> jopt::OptOutcome {
        jopt::optimize_memo(
            p,
            jopt::source_fingerprint(&mjava::print(p)),
            "T",
            "main",
            &SHARED_ORDER,
            jopt::OptLimits::default(),
            &jopt::FlagSet::all(),
        )
        .unwrap()
    }

    /// A miscompile that fires on a memo-shared compile corrupts a copy:
    /// the memo's snapshot stays intact, so the next lookup of the same
    /// compile still equals a fresh `optimize`.
    #[test]
    fn a_corruption_copies_a_shared_compile() {
        let p = mjava::parse(
            r#"
            class T {
                static int s;
                static int n = 5;
                static void main() {
                    for (int i = 0; i < T.n; i++) {
                        if (s < 7) { s = s + i; }
                    }
                    System.out.println(s);
                }
            }
            "#,
        )
        .unwrap();
        let direct = jopt::optimize(
            &p,
            "T",
            "main",
            &SHARED_ORDER,
            jopt::OptLimits::default(),
            &jopt::FlagSet::all(),
        )
        .unwrap();
        for c in CORRUPTIONS {
            let mut method = memo_compile(&p).method;
            let shared = Arc::clone(&method);
            assert!(apply_corruption(&mut method, c), "{c:?} found no pattern");
            assert!(!Arc::ptr_eq(&method, &shared), "{c:?} wrote in place");
            assert_ne!(method, shared, "{c:?} was a no-op");
            assert_eq!(shared, direct.method, "{c:?} changed the shared compile");
            assert_eq!(memo_compile(&p).method, direct.method, "{c:?}");
        }
    }

    /// A corruption whose pattern is absent leaves the very same method.
    #[test]
    fn an_absent_pattern_keeps_the_shared_compile() {
        let p = mjava::parse("class T { static void main() { System.out.println(1); } }").unwrap();
        let mut method = memo_compile(&p).method;
        let before = Arc::clone(&method);
        for c in CORRUPTIONS {
            assert!(!apply_corruption(&mut method, c), "{c:?}");
            assert!(Arc::ptr_eq(&method, &before), "{c:?} copied the method");
        }
    }

    #[test]
    fn bugs_for_filters_by_family_and_version() {
        let v8 = bugs_for(Family::HotSpur, Version::V8);
        assert_eq!(v8.len(), 26);
        let j9_17 = bugs_for(Family::J9, Version::V17);
        assert!(j9_17.iter().all(|b| b.family == Family::J9));
        assert!(!j9_17.is_empty());
    }
}
