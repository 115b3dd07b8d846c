//! Redundant store elimination: drops a store that is immediately
//! overwritten by another store to the same location.

use crate::analysis::{expr_is_pure, read_expr};
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Expr, LValue, Method, Stmt};

/// Runs the redundant-store phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    eliminate_in_block(&mut method.body, cx);
}

fn lvalue_key(lv: &LValue) -> Option<String> {
    match lv {
        LValue::Var(v) => Some(format!("v:{v}")),
        LValue::Field(Expr::This, f) => Some(format!("t:{f}")),
        LValue::Field(Expr::Var(v), f) => Some(format!("f:{v}.{f}")),
        LValue::StaticField(c, f) => Some(format!("s:{c}.{f}")),
        LValue::Field(..) => None,
    }
}

/// True when both stores have the same [`lvalue_key`], compared without
/// building the keys.
fn same_location(a: &LValue, b: &LValue) -> bool {
    match (a, b) {
        (LValue::Var(v), LValue::Var(w)) => v == w,
        (LValue::Field(Expr::This, f), LValue::Field(Expr::This, g)) => f == g,
        (LValue::Field(Expr::Var(v), f), LValue::Field(Expr::Var(w), g)) => v == w && f == g,
        (LValue::StaticField(c, f), LValue::StaticField(d, g)) => c == d && f == g,
        _ => false,
    }
}

/// Does the second store's value (or receiver) read the stored location?
fn value_reads_location(value: &Expr, lv: &LValue) -> bool {
    let mut reads = false;
    read_expr(value, &mut |e: &Expr| match (lv, e) {
        (LValue::Var(v), Expr::Var(v2)) if v == v2 => reads = true,
        (LValue::Field(Expr::This, f), Expr::Field(obj, f2))
            if f == f2 && matches!(obj.as_ref(), Expr::This) =>
        {
            reads = true
        }
        (LValue::Field(Expr::Var(v), f), Expr::Field(obj, f2))
            if f == f2 && matches!(obj.as_ref(), Expr::Var(v2) if v2 == v) =>
        {
            reads = true
        }
        (LValue::StaticField(c, f), Expr::StaticField(c2, f2)) if c == c2 && f == f2 => {
            reads = true
        }
        // A bare variable read of the receiver does not read the field, but
        // a call could reach any location: be conservative.
        (_, Expr::Call(_) | Expr::Reflect(_)) => reads = true,
        _ => {}
    });
    reads
}

fn eliminate_in_block(block: &mut Block, cx: &mut OptCx) {
    let mut i = 0;
    while i + 1 < block.0.len() {
        let removable = match (&block.0[i], &block.0[i + 1]) {
            (
                Stmt::Assign {
                    target: t1,
                    value: v1,
                },
                Stmt::Assign {
                    target: t2,
                    value: v2,
                },
            ) => same_location(t1, t2) && expr_is_pure(v1) && !value_reads_location(v2, t1),
            _ => false,
        };
        if removable {
            cx.cover(0);
            let Stmt::Assign { target, .. } = block.0.remove(i) else {
                unreachable!()
            };
            cx.emit(
                OptEventKind::StoreEliminate,
                lvalue_key(&target).unwrap_or_default(),
            );
            continue;
        }
        i += 1;
    }
    for stmt in &mut block.0 {
        match stmt {
            Stmt::If { then_b, else_b, .. } => {
                eliminate_in_block(then_b, cx);
                if let Some(e) = else_b {
                    eliminate_in_block(e, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                eliminate_in_block(body, cx)
            }
            Stmt::Block(b) => eliminate_in_block(b, cx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const STORE: &[PhaseId] = &[PhaseId::Store];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn eliminates_overwritten_local_store() {
        let src = r#"
            class T {
                static void main() {
                    int x = 0;
                    x = 5;
                    x = 6;
                    System.out.println(x);
                }
            }
        "#;
        let out = opt_main(src, STORE, 1);
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("x = 5;"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_store_read_by_next() {
        let src = r#"
            class T {
                static void main() {
                    int x = 0;
                    x = 5;
                    x = x + 1;
                    System.out.println(x);
                }
            }
        "#;
        let out = opt_main(src, STORE, 1);
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_impure_first_store() {
        let src = r#"
            class T {
                static int k;
                static int bump() { k = k + 1; return k; }
                static void main() {
                    int x = 0;
                    x = T.bump();
                    x = 9;
                    System.out.println(x + k);
                }
            }
        "#;
        let out = opt_main(src, STORE, 1);
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn eliminates_static_field_double_store() {
        let src = r#"
            class T {
                static int s;
                static void main() {
                    s = 1;
                    s = 2;
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, STORE, 1);
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn conservative_about_calls_in_second_value() {
        let src = r#"
            class T {
                static int s;
                static int read() { return s; }
                static void main() {
                    s = 7;
                    s = T.read() + 1;
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, STORE, 1);
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn eliminates_instance_field_double_store() {
        let src = r#"
            class T {
                int f;
                void set() { f = 1; f = 2; }
                static void main() {
                    T t = new T();
                    t.set();
                    System.out.println(t.f);
                }
            }
        "#;
        let program = mjava::parse(src).unwrap();
        let out = crate::pipeline::optimize(
            &program,
            "T",
            "set",
            STORE,
            crate::pipeline::OptLimits::default(),
            &crate::event::FlagSet::all(),
        )
        .unwrap();
        assert_eq!(count(&out, OptEventKind::StoreEliminate), 1);
    }
}
