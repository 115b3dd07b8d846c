//! Iterative GVN: constant folding, algebraic simplification, and
//! common-subexpression reuse.
//!
//! Constant folding delegates to `jexec::ops`, the *same* implementation
//! the interpreter executes, so folding can never silently diverge from
//! runtime semantics (exception-raising folds are left in place).

use crate::analysis::{expr_has_var, expr_is_pure, map_exprs_in_block};
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use jexec::{ArithOp, CmpOp, Value};
use mjava::{BinOp, Block, Expr, Method, Stmt, UnOp};

/// Runs the GVN phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    fold_block(&mut method.body, cx);
    cse_block(&mut method.body, cx);
    value_number_scan(&method.body, cx);
}

/// Global value numbering proper: every *duplicated* non-trivial pure
/// expression in the method gets a shared value number — observable as a
/// `GVN hit`. Loop peeling and unrolling duplicate loop bodies, so this
/// is where the loop phases feed the value-numbering machinery: exactly
/// the interaction chain behind the paper's GVN-component bugs (the
/// largest group in its Table 4).
fn value_number_scan(body: &mjava::Block, cx: &mut OptCx) {
    use std::collections::HashMap;
    // Occurrences are counted per distinct expression and printed once
    // each; distinct expressions that print alike share a value number, so
    // their counts are summed under the printed key.
    let mut occurrences: HashMap<&Expr, u32> = HashMap::new();
    crate::analysis::map_exprs_in_block_ref(body, &mut |e| {
        // Non-trivial: a compound arithmetic expression over at least one
        // variable (two operators or more), pure, so commoning is sound.
        if let Expr::Binary(op, lhs, rhs) = e {
            let compound = matches!(lhs.as_ref(), Expr::Binary(..) | Expr::Unary(..))
                || matches!(rhs.as_ref(), Expr::Binary(..) | Expr::Unary(..));
            if op.is_arithmetic() && compound && expr_has_var(e) && expr_is_pure(e) {
                *occurrences.entry(e).or_insert(0) += 1;
            }
        }
    });
    if occurrences.is_empty() {
        return;
    }
    let mut counts: HashMap<String, u32> = HashMap::with_capacity(occurrences.len());
    #[allow(
        clippy::iter_over_hash_type,
        reason = "summing counts is order-independent; the keys are sorted below"
    )]
    for (e, n) in occurrences {
        *counts.entry(mjava::print_expr(e)).or_insert(0) += n;
    }
    let mut duplicated: Vec<&String> = counts
        .iter()
        .filter(|(_, &n)| n >= 2)
        .map(|(k, _)| k)
        .collect();
    duplicated.sort();
    for key in duplicated {
        cx.cover(20);
        cx.emit_once(OptEventKind::GvnHit, key);
    }
}

fn to_arith(op: BinOp) -> Option<ArithOp> {
    Some(match op {
        BinOp::Add => ArithOp::Add,
        BinOp::Sub => ArithOp::Sub,
        BinOp::Mul => ArithOp::Mul,
        BinOp::Div => ArithOp::Div,
        BinOp::Rem => ArithOp::Rem,
        BinOp::BitAnd => ArithOp::And,
        BinOp::BitOr => ArithOp::Or,
        BinOp::BitXor => ArithOp::Xor,
        BinOp::Shl => ArithOp::Shl,
        BinOp::Shr => ArithOp::Shr,
        _ => return None,
    })
}

fn to_cmp(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        _ => return None,
    })
}

fn as_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Int(v) => Some(Value::Int(*v as i32)),
        Expr::Long(v) => Some(Value::Long(*v)),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        _ => None,
    }
}

fn from_value(v: Value) -> Option<Expr> {
    match v {
        Value::Int(i) => Some(Expr::Int(i as i64)),
        Value::Long(l) => Some(Expr::Long(l)),
        Value::Bool(b) => Some(Expr::Bool(b)),
        _ => None,
    }
}

fn fold_block(block: &mut Block, cx: &mut OptCx) {
    map_exprs_in_block(block, &mut |e| {
        // map_exprs is post-order, so operands are already folded.
        if let Some(folded) = fold_expr(e, cx) {
            *e = folded;
        }
    });
}

fn fold_expr(e: &Expr, cx: &mut OptCx) -> Option<Expr> {
    match e {
        Expr::Binary(op, lhs, rhs) => {
            // Literal op literal: evaluate with interpreter semantics.
            if let (Some(a), Some(b)) = (as_value(lhs), as_value(rhs)) {
                cx.cover(0);
                if let Some(arith) = to_arith(*op) {
                    if let Ok(v) = jexec::ops::arith(arith, a, b) {
                        cx.cover(1);
                        cx.emit(OptEventKind::ConstFold, mjava::print_expr(e));
                        return from_value(v);
                    }
                    // Folding would raise (e.g. 1/0): leave for runtime.
                    return None;
                }
                if let Some(cmp) = to_cmp(*op) {
                    if let Ok(v) = jexec::ops::compare(cmp, a, b) {
                        cx.cover(2);
                        cx.emit(OptEventKind::ConstFold, mjava::print_expr(e));
                        return from_value(v);
                    }
                }
                return None;
            }
            // Operand-preserving identities (safe regardless of the
            // operand's numeric width).
            let identity = match (op, lhs.as_ref(), rhs.as_ref()) {
                (BinOp::Add, x, Expr::Int(0))
                | (BinOp::Add, Expr::Int(0), x)
                | (BinOp::Sub, x, Expr::Int(0))
                | (BinOp::Mul, x, Expr::Int(1))
                | (BinOp::Mul, Expr::Int(1), x)
                | (BinOp::Div, x, Expr::Int(1))
                | (BinOp::Shl, x, Expr::Int(0))
                | (BinOp::Shr, x, Expr::Int(0))
                | (BinOp::BitOr, x, Expr::Int(0))
                | (BinOp::BitOr, Expr::Int(0), x)
                | (BinOp::BitXor, x, Expr::Int(0))
                | (BinOp::BitXor, Expr::Int(0), x) => Some(x.clone()),
                (BinOp::BitAnd, x, Expr::Bool(true))
                | (BinOp::BitAnd, Expr::Bool(true), x)
                | (BinOp::BitOr, x, Expr::Bool(false))
                | (BinOp::BitOr, Expr::Bool(false), x)
                | (BinOp::BitXor, x, Expr::Bool(false))
                | (BinOp::BitXor, Expr::Bool(false), x) => Some(x.clone()),
                _ => None,
            };
            if let Some(x) = identity {
                cx.cover(3);
                cx.emit(OptEventKind::AlgebraicSimplify, mjava::print_expr(e));
                return Some(x);
            }
            None
        }
        Expr::Unary(UnOp::Neg, inner) => match inner.as_ref() {
            Expr::Int(v) => {
                cx.cover(4);
                cx.emit(OptEventKind::ConstFold, mjava::print_expr(e));
                Some(Expr::Int((*v as i32).wrapping_neg() as i64))
            }
            Expr::Long(v) => {
                cx.cover(4);
                cx.emit(OptEventKind::ConstFold, mjava::print_expr(e));
                Some(Expr::Long(v.wrapping_neg()))
            }
            Expr::Unary(UnOp::Neg, innermost) => {
                cx.cover(5);
                cx.emit(OptEventKind::AlgebraicSimplify, mjava::print_expr(e));
                Some(innermost.as_ref().clone())
            }
            _ => None,
        },
        Expr::Unary(UnOp::Not, inner) => match inner.as_ref() {
            Expr::Bool(b) => {
                cx.cover(6);
                cx.emit(OptEventKind::ConstFold, mjava::print_expr(e));
                Some(Expr::Bool(!b))
            }
            Expr::Unary(UnOp::Not, innermost) => {
                cx.cover(6);
                cx.emit(OptEventKind::AlgebraicSimplify, mjava::print_expr(e));
                Some(innermost.as_ref().clone())
            }
            _ => None,
        },
        _ => None,
    }
}

/// Common-subexpression reuse between *adjacent* declarations:
/// `ty a = e; ty b = e;` (e pure) becomes `ty a = e; ty b = a;`.
/// Adjacency guarantees no intervening mutation of `e`'s operands.
fn cse_block(block: &mut Block, cx: &mut OptCx) {
    for w in 1..block.0.len() {
        let (first, second) = block.0.split_at_mut(w);
        let (
            Stmt::Decl {
                name: n1,
                ty: t1,
                init: Some(e1),
            },
            Stmt::Decl {
                ty: t2,
                init: Some(e2),
                ..
            },
        ) = (first.last_mut().expect("w >= 1"), &mut second[0])
        else {
            continue;
        };
        if t1 == t2 && e1 == e2 && expr_is_pure(e1) && !matches!(e1, Expr::Var(_)) {
            cx.cover(10);
            cx.emit(OptEventKind::GvnHit, mjava::print_expr(e1));
            *e2 = Expr::var(n1.clone());
        }
    }
    // Recurse.
    for stmt in &mut block.0 {
        match stmt {
            Stmt::If { then_b, else_b, .. } => {
                cse_block(then_b, cx);
                if let Some(e) = else_b {
                    cse_block(e, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                cse_block(body, cx)
            }
            Stmt::Block(b) => cse_block(b, cx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const GVN: &[PhaseId] = &[PhaseId::Gvn];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn folds_constants() {
        let src = "class T { static void main() { System.out.println(2 + 3 * 4); } }";
        let out = opt_main(src, GVN, 1);
        assert!(count(&out, OptEventKind::ConstFold) >= 2);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("println(14)"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let src = "class T { static void main() { System.out.println(1 / 0); } }";
        let out = opt_main(src, GVN, 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("1 / 0"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn simplifies_identities() {
        let src = r#"
            class T {
                static void main() {
                    int x = 21;
                    int y = x * 1 + 0;
                    System.out.println(y << 0 | 0);
                }
            }
        "#;
        let out = opt_main(src, GVN, 1);
        assert!(count(&out, OptEventKind::AlgebraicSimplify) >= 3);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("int y = x;"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn folds_int_overflow_like_java() {
        let src = "class T { static void main() { System.out.println(2147483647 + 1); } }";
        let out = opt_main(src, GVN, 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("-2147483648"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn cse_reuses_adjacent_decl() {
        let src = r#"
            class T {
                static void main() {
                    int k = 3;
                    int a = k * 7 + 1;
                    int b = k * 7 + 1;
                    System.out.println(a + b);
                }
            }
        "#;
        let out = opt_main(src, GVN, 1);
        assert_eq!(count(&out, OptEventKind::GvnHit), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("int b = a;"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn cse_skips_impure_exprs() {
        let src = r#"
            class T {
                static int k;
                static int next() { k = k + 1; return k; }
                static void main() {
                    int a = T.next();
                    int b = T.next();
                    System.out.println(a + b);
                }
            }
        "#;
        let out = opt_main(src, GVN, 1);
        assert_eq!(count(&out, OptEventKind::GvnHit), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn folds_comparisons_and_not() {
        let src = r#"
            class T {
                static void main() {
                    boolean b = !(3 < 2);
                    System.out.println(b);
                }
            }
        "#;
        let out = opt_main(src, GVN, 1);
        assert!(count(&out, OptEventKind::ConstFold) >= 2);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("boolean b = true;"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn double_negation_removed() {
        let src = r#"
            class T {
                static void main() {
                    int x = 5;
                    System.out.println(-(-x));
                }
            }
        "#;
        let out = opt_main(src, GVN, 1);
        assert!(count(&out, OptEventKind::AlgebraicSimplify) >= 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("println(x)"), "{printed}");
        assert_semantics_preserved(src, &out);
    }
}
