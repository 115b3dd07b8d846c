//! Ideal-loop phase: unswitching, peeling, and unrolling.
//!
//! Transform priority per loop statement, mirroring HotSpot's ideal-loop
//! ordering: unswitch an invariant branch out first, then fully unroll
//! small constant-trip loops, then peel `for` loops (which converts them to
//! `while` form), and finally 2x-unroll `while` loops. Across pipeline
//! rounds these cascade — a peeled loop becomes unrollable next round —
//! which is exactly the interaction surface MopFuzzer targets.

use crate::analysis::{
    block_size, counted_loop, expr_is_pure, expr_vars, substitute_var, visit_bindings,
};
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Expr, LValue, Method, Stmt};

/// Upper bound on `trip_count * body_size` for full unrolling.
const FULL_UNROLL_WORK: u64 = 96;
/// Maximum body size for 2x while-unrolling.
const WHILE_UNROLL_BODY: usize = 24;

/// Runs the loop phase over the whole method body.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    transform_block(&mut method.body, cx);
}

fn transform_block(block: &mut Block, cx: &mut OptCx) {
    // Inner loops first.
    for stmt in &mut block.0 {
        match stmt {
            Stmt::If { then_b, else_b, .. } => {
                transform_block(then_b, cx);
                if let Some(e) = else_b {
                    transform_block(e, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                transform_block(body, cx)
            }
            Stmt::Block(b) => transform_block(b, cx),
            _ => {}
        }
    }
    let mut i = 0;
    while i < block.0.len() {
        if let Some(replacement) = try_transform(&mut block.0[i], cx) {
            let n = replacement.len();
            block.0.splice(i..=i, replacement);
            i += n;
        } else {
            i += 1;
        }
    }
}

/// Applies the first rewrite whose conditions hold. Each `try_` function
/// decides on the borrowed statement and, only when it rewrites, takes the
/// statement by value ([`take`]) and moves its parts into the replacement.
fn try_transform(stmt: &mut Stmt, cx: &mut OptCx) -> Option<Vec<Stmt>> {
    if !matches!(stmt, Stmt::For { .. } | Stmt::While { .. }) {
        return None;
    }
    cx.cover(0);
    if let Some(r) = try_unswitch(stmt, cx) {
        return Some(r);
    }
    if let Some(r) = try_full_unroll(stmt, cx) {
        return Some(r);
    }
    if let Some(r) = try_peel(stmt, cx) {
        return Some(r);
    }
    try_while_unroll(stmt, cx)
}

/// Moves the statement out, leaving an empty block for the splice to
/// replace.
fn take(stmt: &mut Stmt) -> Stmt {
    std::mem::replace(stmt, Stmt::Block(Block::default()))
}

/// `loop { if (inv) A else B }` → `if (inv) loop{A} else loop{B}`.
fn try_unswitch(stmt: &mut Stmt, cx: &mut OptCx) -> Option<Vec<Stmt>> {
    let (Stmt::For { body, .. } | Stmt::While { body, .. }) = &*stmt else {
        return None;
    };
    // The body must be exactly one `if` whose condition is loop-invariant
    // and pure.
    let [Stmt::If { cond: ic, .. }] = body.0.as_slice() else {
        return None;
    };
    if !expr_is_pure(ic) {
        return None;
    }
    let vars = expr_vars(ic);
    let mut mutated = false;
    if let Stmt::For { init, update, .. } = &*stmt {
        for s in [init, update].into_iter().flatten() {
            if let Stmt::Assign {
                target: LValue::Var(v),
                ..
            }
            | Stmt::Decl { name: v, .. } = s.as_ref()
            {
                mutated |= vars.contains(v.as_str());
            }
        }
    }
    visit_bindings(body, &mut |name, _| mutated |= vars.contains(name));
    if mutated {
        cx.cover(1);
        return None;
    }
    cx.cover(2);
    cx.emit(OptEventKind::Unswitch, "1");
    let mut header = take(stmt);
    let (Stmt::For { body, .. } | Stmt::While { body, .. }) = &mut header else {
        unreachable!("matched above")
    };
    let Some(Stmt::If {
        cond: ic,
        then_b,
        else_b,
    }) = std::mem::take(body).0.pop()
    else {
        unreachable!("matched above")
    };
    let then_loop = with_body(header.clone(), then_b);
    let else_loop = with_body(header, else_b.unwrap_or_default());
    Some(vec![Stmt::If {
        cond: ic,
        then_b: Block(vec![then_loop]),
        else_b: Some(Block(vec![else_loop])),
    }])
}

/// A loop header (its body emptied by the caller) around `body`.
fn with_body(mut looped: Stmt, body: Block) -> Stmt {
    if let Stmt::For { body: b, .. } | Stmt::While { body: b, .. } = &mut looped {
        *b = body;
    }
    looped
}

/// Fully unrolls small constant-trip counted loops: one substituted copy
/// of the body per induction value, the last one reusing the body itself.
fn try_full_unroll(stmt: &mut Stmt, cx: &mut OptCx) -> Option<Vec<Stmt>> {
    let Stmt::For { body, .. } = &*stmt else {
        return None;
    };
    let cl = counted_loop(stmt)?;
    let trip = cl.trip_count();
    if trip > cx.limits.unroll_limit || trip * block_size(body) as u64 > FULL_UNROLL_WORK {
        cx.cover(10);
        return None;
    }
    cx.cover(11);
    cx.emit(OptEventKind::Unroll, format!("{trip}"));
    let Stmt::For { mut body, .. } = take(stmt) else {
        unreachable!("matched above")
    };
    let mut out = Vec::with_capacity(trip as usize);
    let mut values = cl.values().peekable();
    while let Some(value) = values.next() {
        let mut copy = if values.peek().is_some() {
            body.clone()
        } else {
            std::mem::take(&mut body)
        };
        substitute_var(&mut copy, &cl.var, &Expr::Int(value));
        out.push(Stmt::Block(copy));
    }
    Some(out)
}

/// Peels the first iteration of a `for` loop, leaving a `while` loop:
/// `for (init; c; u) b` → `{ init; if (c) { b; u } while (c) { b; u } }`.
///
/// Execution counts of `c`, `b` and `u` are identical, so the rewrite is
/// unconditionally sound (there is no `break`/`continue` in MiniJava).
fn try_peel(stmt: &mut Stmt, cx: &mut OptCx) -> Option<Vec<Stmt>> {
    let Stmt::For { body, .. } = &*stmt else {
        return None;
    };
    // Guard against unbounded growth: peel only reasonably small bodies.
    if block_size(body) > WHILE_UNROLL_BODY * 2 {
        cx.cover(20);
        return None;
    }
    cx.cover(21);
    cx.emit(OptEventKind::Peel, "1");
    let Stmt::For {
        init,
        cond,
        update,
        body,
    } = take(stmt)
    else {
        unreachable!("matched above")
    };
    let mut iteration = body.0;
    if let Some(u) = update {
        iteration.push(*u);
    }
    let mut stmts = Vec::new();
    if let Some(i) = init {
        stmts.push(*i);
    }
    stmts.push(Stmt::If {
        cond: cond.clone(),
        then_b: Block(iteration.clone()),
        else_b: None,
    });
    stmts.push(Stmt::While {
        cond,
        body: Block(iteration),
    });
    // The whole construct is wrapped in a block so the hoisted `init`
    // declaration keeps its original scope.
    Some(vec![Stmt::Block(Block(stmts))])
}

/// 2x-unrolls a `while` loop:
/// `while (c) { b }` → `while (c) { b; if (c) { b } }`.
///
/// The inner `if` executes one extra iteration exactly when the loop
/// condition holds, so the iteration trace is unchanged for any body.
fn try_while_unroll(stmt: &mut Stmt, cx: &mut OptCx) -> Option<Vec<Stmt>> {
    let Stmt::While { cond, body } = &*stmt else {
        return None;
    };
    if !expr_is_pure(cond) || block_size(body) > WHILE_UNROLL_BODY {
        cx.cover(30);
        return None;
    }
    cx.cover(31);
    cx.emit(OptEventKind::Unroll, "2");
    let Stmt::While { cond, body } = take(stmt) else {
        unreachable!("matched above")
    };
    let mut unrolled = body.0.clone();
    unrolled.push(Stmt::If {
        cond: cond.clone(),
        then_b: body,
        else_b: None,
    });
    Some(vec![Stmt::While {
        cond,
        body: Block(unrolled),
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OptEventKind;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const LOOPS: &[PhaseId] = &[PhaseId::Loops];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn fully_unrolls_small_constant_loop() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 4; i++) { s = s + i; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_eq!(count(&out, OptEventKind::Unroll), 1);
        assert!(out.log.iter().any(|l| l == "Unroll 4"));
        // The for loop is gone.
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("for ("), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn peels_large_counted_loop() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 1000; i++) { s = s + i; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_eq!(count(&out, OptEventKind::Peel), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn unswitches_invariant_branch() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    boolean flag = true;
                    for (int i = 0; i < 100; i++) {
                        if (flag) { s = s + 1; } else { s = s + 2; }
                    }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_eq!(count(&out, OptEventKind::Unswitch), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn does_not_unswitch_variant_branch() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 10; i++) {
                        if (s < 5) { s = s + 1; } else { s = s + 2; }
                    }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_eq!(count(&out, OptEventKind::Unswitch), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn unrolls_while_loop_by_two() {
        let src = r#"
            class T {
                static void main() {
                    int i = 0;
                    while (i < 7) { i = i + 1; }
                    System.out.println(i);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_eq!(count(&out, OptEventKind::Unroll), 1);
        assert!(out.log.iter().any(|l| l == "Unroll 2"));
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn cascades_across_rounds() {
        // Round 1 peels the big for; round 2 2x-unrolls the residual while.
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 500; i++) { s = s + i % 7; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 2);
        assert!(count(&out, OptEventKind::Peel) >= 1);
        assert!(count(&out, OptEventKind::Unroll) >= 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn unroll_preserves_decls_via_block_scoping() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 3; i++) { int d = i * 2; s = s + d; }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn nested_loops_transform_inner_first() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 20; i++) {
                        for (int j = 0; j < 3; j++) { s = s + i * j; }
                    }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 1);
        // Inner is fully unrolled, outer is peeled.
        assert!(count(&out, OptEventKind::Unroll) >= 1);
        assert!(count(&out, OptEventKind::Peel) >= 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn loop_with_call_still_correct() {
        let src = r#"
            class T {
                static int k;
                static int f(int x) { k = k + 1; return x * 2; }
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 5; i++) { s = s + T.f(i); }
                    System.out.println(s);
                    System.out.println(k);
                }
            }
        "#;
        let out = opt_main(src, LOOPS, 2);
        assert_semantics_preserved(src, &out);
    }
}
