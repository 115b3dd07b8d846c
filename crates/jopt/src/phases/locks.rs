//! Lock optimizations: nested-monitor analysis, lock coarsening, and lock
//! elimination.
//!
//! Coarsening merges adjacent `synchronized` regions over the same lock;
//! elimination removes monitors proven thread-local by escape analysis.
//! Both interact with the loop phase (unrolling creates adjacent regions)
//! and the inliner (inlined synchronized callees create nested regions) —
//! the exact interactions behind the paper's JDK-8312744 case study.

use crate::analysis::{assigned_vars, expr_is_pure, expr_vars};
use crate::event::OptEventKind;
use crate::phases::escape::{analyze, visit_syncs, EscapeState};
use crate::pipeline::OptCx;
use mjava::{Block, Expr, Method, Stmt};

/// Runs the lock phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    let mut site = 0u32;
    report_nesting(&method.body, &mut site, cx);
    coarsen_block(&mut method.body, cx);
    // Escape analysis only matters for locals used as locks.
    let mut lock_vars: Vec<&str> = Vec::new();
    visit_syncs(&method.body, &mut |lock| {
        if let Expr::Var(v) = lock {
            lock_vars.push(v);
        }
    });
    let thread_local: Vec<String> = if lock_vars.is_empty() {
        Vec::new()
    } else {
        let states = analyze(method);
        lock_vars
            .into_iter()
            .filter(|v| states.get(v) == Some(&EscapeState::NoEscape))
            .map(str::to_string)
            .collect()
    };
    eliminate_block(&mut method.body, &thread_local, cx);
}

/// Emits a NestedLock event for every `synchronized` statement that
/// directly or transitively contains another one. Sites are numbered so
/// re-analysis in later rounds does not re-count unchanged structure.
fn report_nesting(block: &Block, site: &mut u32, cx: &mut OptCx) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Sync { body, .. } => {
                let inner = max_sync_depth(body);
                if inner > 0 {
                    let here = *site;
                    *site += 1;
                    cx.cover(0);
                    cx.emit_once(OptEventKind::NestedLock, format!("{}@{here}", inner + 1));
                }
                report_nesting(body, site, cx);
            }
            Stmt::If { then_b, else_b, .. } => {
                report_nesting(then_b, site, cx);
                if let Some(e) = else_b {
                    report_nesting(e, site, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => report_nesting(body, site, cx),
            Stmt::Block(b) => report_nesting(b, site, cx),
            _ => {}
        }
    }
}

fn max_sync_depth(block: &Block) -> usize {
    let mut max = 0;
    for stmt in &block.0 {
        let d = match stmt {
            Stmt::Sync { body, .. } => 1 + max_sync_depth(body),
            Stmt::If { then_b, else_b, .. } => {
                max_sync_depth(then_b).max(else_b.as_ref().map_or(0, max_sync_depth))
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => max_sync_depth(body),
            Stmt::Block(b) => max_sync_depth(b),
            _ => 0,
        };
        max = max.max(d);
    }
    max
}

/// Merges adjacent `synchronized` statements over the same (pure) lock
/// expression, wrapping the original bodies in blocks to preserve scoping.
fn coarsen_block(block: &mut Block, cx: &mut OptCx) {
    // Recurse first.
    for stmt in &mut block.0 {
        match stmt {
            Stmt::Sync { body, .. } | Stmt::While { body, .. } | Stmt::For { body, .. } => {
                coarsen_block(body, cx)
            }
            Stmt::If { then_b, else_b, .. } => {
                coarsen_block(then_b, cx);
                if let Some(e) = else_b {
                    coarsen_block(e, cx);
                }
            }
            Stmt::Block(b) => coarsen_block(b, cx),
            _ => {}
        }
    }
    let mut i = 0;
    while i + 1 < block.0.len() {
        let mergeable = match (&block.0[i], &block.0[i + 1]) {
            (Stmt::Sync { lock: l1, body: b1 }, Stmt::Sync { lock: l2, .. }) => {
                l1 == l2
                    && expr_is_pure(l1)
                    // The first body must not redirect the lock variable.
                    && expr_vars(l1).is_disjoint(&assigned_vars(b1))
            }
            _ => false,
        };
        if mergeable {
            cx.cover(10);
            cx.emit(OptEventKind::LockCoarsen, "2");
            let Stmt::Sync { lock, body: b1 } = block.0.remove(i) else {
                unreachable!()
            };
            let Stmt::Sync { body: b2, .. } = block.0.remove(i) else {
                unreachable!()
            };
            block.0.insert(
                i,
                Stmt::Sync {
                    lock,
                    body: Block(vec![Stmt::Block(b1), Stmt::Block(b2)]),
                },
            );
            // Stay at i: the merged region may be adjacent to another.
        } else {
            i += 1;
        }
    }
}

/// Removes monitors whose lock object is provably thread-local: a fresh
/// allocation, or one of the `thread_local` (NoEscape) locals.
fn eliminate_block(block: &mut Block, thread_local: &[String], cx: &mut OptCx) {
    let mut i = 0;
    while i < block.0.len() {
        let eliminable = match &block.0[i] {
            Stmt::Sync { lock, .. } => match lock {
                Expr::Var(v) => thread_local.contains(v),
                Expr::New(_) => true,
                _ => false,
            },
            _ => false,
        };
        if eliminable {
            cx.cover(20);
            let Stmt::Sync { lock, body } = block.0.remove(i) else {
                unreachable!()
            };
            let what = match &lock {
                Expr::Var(v) => v.clone(),
                _ => "fresh".to_string(),
            };
            cx.emit(OptEventKind::LockEliminate, what);
            block.0.insert(i, Stmt::Block(body));
        }
        match &mut block.0[i] {
            Stmt::Sync { body, .. } | Stmt::While { body, .. } | Stmt::For { body, .. } => {
                eliminate_block(body, thread_local, cx)
            }
            Stmt::If { then_b, else_b, .. } => {
                eliminate_block(then_b, thread_local, cx);
                if let Some(e) = else_b {
                    eliminate_block(e, thread_local, cx);
                }
            }
            Stmt::Block(b) => eliminate_block(b, thread_local, cx),
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OptEventKind;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const LOCKS: &[PhaseId] = &[PhaseId::Locks];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn coarsens_adjacent_regions() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) { s = s + 1; }
                    synchronized (T.class) { s = s + 2; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockCoarsen), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert_eq!(printed.matches("synchronized (").count(), 1, "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn coarsens_three_regions_into_one() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) { s = s + 1; }
                    synchronized (T.class) { s = s + 2; }
                    synchronized (T.class) { s = s + 3; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockCoarsen), 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn does_not_coarsen_different_locks() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    T a = new T();
                    T b = new T();
                    synchronized (a) { s = s + 1; }
                    synchronized (b) { s = s + 2; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockCoarsen), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn coarsening_preserves_scoping_of_decls() {
        let src = r#"
            class T {
                static void main() {
                    synchronized (T.class) { int x = 1; System.out.println(x); }
                    synchronized (T.class) { int x = 2; System.out.println(x); }
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockCoarsen), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn eliminates_thread_local_lock() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    T l = new T();
                    synchronized (l) { s = s + 5; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockEliminate), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("synchronized"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_class_lock() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) { s = 1; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_escaping_lock() {
        let src = r#"
            class T {
                static T sink;
                static int s;
                static void main() {
                    T l = new T();
                    sink = l;
                    synchronized (l) { s = 2; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn reports_nested_locks() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    synchronized (T.class) {
                        synchronized (T.class) {
                            synchronized (T.class) { s = 1; }
                        }
                    }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        // Outer (depth 3) and middle (depth 2) both report.
        assert_eq!(count(&out, OptEventKind::NestedLock), 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn coarsen_then_eliminate_interaction() {
        // Two adjacent regions on a thread-local lock: coarsened into one,
        // then the merged region is eliminated — a two-step interaction
        // within a single phase run.
        let src = r#"
            class T {
                static int s;
                static void main() {
                    T l = new T();
                    synchronized (l) { s = s + 1; }
                    synchronized (l) { s = s + 2; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOCKS, 1);
        assert_eq!(count(&out, OptEventKind::LockCoarsen), 1);
        assert_eq!(count(&out, OptEventKind::LockEliminate), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("synchronized"), "{printed}");
        assert_semantics_preserved(src, &out);
    }
}
