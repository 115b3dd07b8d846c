//! Autobox elimination: removes box/unbox round-trips and unboxes
//! box-only `Integer` locals to plain `int`s.

use crate::analysis::{map_exprs_in_block, map_exprs_in_block_ref};
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Expr, Method, Stmt, Type};
use std::collections::HashMap;

/// Runs the autobox-elimination phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    roundtrip_elimination(&mut method.body, cx);
    local_unboxing(method, cx);
}

/// `Integer.valueOf(e).intValue()` → `e` and
/// `Integer.valueOf(b.intValue())` → `b`.
fn roundtrip_elimination(block: &mut Block, cx: &mut OptCx) {
    map_exprs_in_block(block, &mut |e| {
        let roundtrip = match e {
            Expr::UnboxInt(inner) => matches!(inner.as_ref(), Expr::BoxInt(_)),
            Expr::BoxInt(inner) => matches!(inner.as_ref(), Expr::UnboxInt(_)),
            _ => false,
        };
        if !roundtrip {
            return;
        }
        cx.cover(0);
        cx.emit(OptEventKind::AutoboxEliminate, mjava::print_expr(e));
        let (Expr::UnboxInt(inner) | Expr::BoxInt(inner)) = e else {
            unreachable!("checked above")
        };
        let (Expr::BoxInt(operand) | Expr::UnboxInt(operand)) = inner.as_mut() else {
            unreachable!("checked above")
        };
        *e = std::mem::replace(operand.as_mut(), Expr::Null);
    });
}

/// Rewrites `Integer b = Integer.valueOf(e); ... b.intValue() ...` into an
/// `int` local when every use of `b` is an unbox and `b` is never
/// reassigned. Nullness is unaffected: `b` is initialized from a fresh box.
fn local_unboxing(method: &mut Method, cx: &mut OptCx) {
    // Find candidates: Integer locals declared once with a BoxInt init.
    let mut decl_count: HashMap<&str, usize> = HashMap::new();
    collect_integer_decls(&method.body, &mut decl_count);
    let mut candidates: Vec<&str> = decl_count
        .iter()
        .filter(|(_, &c)| c == 1)
        .map(|(n, _)| *n)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let reassigned = crate::analysis::assigned_vars(&method.body);
    candidates.retain(|n| !reassigned.contains(n));
    candidates.sort_unstable();
    let candidates: Vec<String> = candidates.into_iter().map(str::to_string).collect();

    for var in candidates {
        // Every occurrence must be inside `var.intValue()`.
        let mut total = 0usize;
        let mut unboxed = 0usize;
        map_exprs_in_block_ref(&method.body, &mut |e| {
            if matches!(e, Expr::Var(v) if *v == var) {
                total += 1;
            }
            if let Expr::UnboxInt(inner) = e {
                if matches!(inner.as_ref(), Expr::Var(v) if *v == var) {
                    unboxed += 1;
                }
            }
        });
        if total == 0 || total != unboxed {
            cx.cover(10);
            continue;
        }
        cx.cover(11);
        cx.emit(OptEventKind::AutoboxEliminate, var.clone());
        retype_decl(&mut method.body, &var);
        map_exprs_in_block(&mut method.body, &mut |e| {
            if let Expr::UnboxInt(inner) = e {
                if matches!(inner.as_ref(), Expr::Var(v) if *v == var) {
                    *e = std::mem::replace(inner.as_mut(), Expr::Null);
                }
            }
        });
    }
}

fn collect_integer_decls<'a>(block: &'a Block, out: &mut HashMap<&'a str, usize>) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Decl {
                name,
                ty: Type::Integer,
                init: Some(Expr::BoxInt(_)),
            } => *out.entry(name).or_insert(0) += 1,
            // A second declaration of the same name (any type) disqualifies.
            Stmt::Decl { name, .. } => *out.entry(name).or_insert(0) += 2,
            Stmt::If { then_b, else_b, .. } => {
                collect_integer_decls(then_b, out);
                if let Some(e) = else_b {
                    collect_integer_decls(e, out);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                collect_integer_decls(body, out)
            }
            Stmt::Block(b) => collect_integer_decls(b, out),
            _ => {}
        }
    }
}

/// Rewrites `Integer var = Integer.valueOf(e);` into `int var = e;`.
fn retype_decl(block: &mut Block, var: &str) {
    for stmt in &mut block.0 {
        match stmt {
            Stmt::Decl { name, ty, init } if name == var => {
                if let Some(Expr::BoxInt(inner)) = init {
                    *ty = Type::Int;
                    *init = Some(std::mem::replace(inner.as_mut(), Expr::Null));
                }
                return;
            }
            Stmt::If { then_b, else_b, .. } => {
                retype_decl(then_b, var);
                if let Some(e) = else_b {
                    retype_decl(e, var);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                retype_decl(body, var)
            }
            Stmt::Block(b) => retype_decl(b, var),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const AUTOBOX: &[PhaseId] = &[PhaseId::Autobox];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn removes_box_unbox_roundtrip() {
        let src = r#"
            class T {
                static void main() {
                    int x = Integer.valueOf(41).intValue() + 1;
                    System.out.println(x);
                }
            }
        "#;
        let out = opt_main(src, AUTOBOX, 1);
        assert_eq!(count(&out, OptEventKind::AutoboxEliminate), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("valueOf"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn unboxes_box_only_local() {
        let src = r#"
            class T {
                static void main() {
                    Integer b = Integer.valueOf(20);
                    System.out.println(b.intValue() + b.intValue() + 2);
                }
            }
        "#;
        let out = opt_main(src, AUTOBOX, 1);
        assert_eq!(count(&out, OptEventKind::AutoboxEliminate), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("int b = 20;"), "{printed}");
        assert!(!printed.contains("intValue"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_local_with_reference_uses() {
        let src = r#"
            class T {
                static void main() {
                    Integer b = Integer.valueOf(5);
                    System.out.println(b);
                }
            }
        "#;
        let out = opt_main(src, AUTOBOX, 1);
        assert_eq!(count(&out, OptEventKind::AutoboxEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_reassigned_local() {
        let src = r#"
            class T {
                static void main() {
                    Integer b = Integer.valueOf(5);
                    b = Integer.valueOf(6);
                    System.out.println(b.intValue());
                }
            }
        "#;
        let out = opt_main(src, AUTOBOX, 1);
        assert_eq!(count(&out, OptEventKind::AutoboxEliminate), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn roundtrip_inside_loop() {
        let src = r#"
            class T {
                static void main() {
                    int s = 0;
                    for (int i = 0; i < 10; i++) {
                        s = s + Integer.valueOf(i).intValue();
                    }
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, AUTOBOX, 1);
        assert_eq!(count(&out, OptEventKind::AutoboxEliminate), 1);
        assert_semantics_preserved(src, &out);
    }
}
