//! Dead code elimination: constant branches, unreachable statements, loops
//! that never run, and write-only locals.

use crate::analysis::expr_is_pure;
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Expr, LValue, Method, Stmt};
use std::collections::{HashMap, HashSet};

/// Runs the DCE phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    structural_dce(&mut method.body, cx);
    dead_local_elimination(method, cx);
}

/// Constant branches, `while (false)`, and code after `return`.
fn structural_dce(block: &mut Block, cx: &mut OptCx) {
    let mut i = 0;
    while i < block.0.len() {
        // Truncate after a top-level return.
        if matches!(block.0[i], Stmt::Return(_)) && i + 1 < block.0.len() {
            let removed = block.0.len() - i - 1;
            block.0.truncate(i + 1);
            cx.cover(0);
            cx.emit(OptEventKind::DceRemove, format!("{removed}"));
            break;
        }
        let constant = matches!(
            block.0[i],
            Stmt::If {
                cond: Expr::Bool(_),
                ..
            } | Stmt::While {
                cond: Expr::Bool(false),
                ..
            }
        );
        if constant {
            cx.cover(1);
            cx.emit(OptEventKind::DceRemove, "1");
            let kept = match block.0.remove(i) {
                Stmt::If {
                    cond: Expr::Bool(true),
                    then_b,
                    ..
                } => Some(then_b),
                Stmt::If { else_b, .. } => else_b,
                _ => None,
            };
            if let Some(b) = kept {
                block.0.insert(i, Stmt::Block(b));
                i += 1;
            }
            continue;
        }
        match &mut block.0[i] {
            Stmt::If { then_b, else_b, .. } => {
                structural_dce(then_b, cx);
                if let Some(e) = else_b {
                    structural_dce(e, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                structural_dce(body, cx)
            }
            Stmt::Block(b) => structural_dce(b, cx),
            _ => {}
        }
        i += 1;
    }
}

/// Removes locals that are written but never read. Impure right-hand sides
/// survive as expression statements.
fn dead_local_elimination(method: &mut Method, cx: &mut OptCx) {
    // A local is removable when it is declared exactly once, never read,
    // and is not a parameter.
    let mut decls: HashMap<&str, usize> = HashMap::new();
    count_decls(&method.body, &mut decls);
    let mut reads: HashSet<&str> = HashSet::new();
    crate::analysis::map_exprs_in_block_ref(&method.body, &mut |e| {
        if let Expr::Var(v) = e {
            reads.insert(v);
        }
    });
    let dead: HashSet<String> = decls
        .into_iter()
        .filter(|&(name, count)| {
            count == 1 && !reads.contains(name) && !method.params.iter().any(|p| p.name == name)
        })
        .map(|(name, _)| name.to_string())
        .collect();
    if dead.is_empty() {
        return;
    }
    cx.cover(10);
    remove_dead_writes(&mut method.body, &dead, cx);
}

fn count_decls<'a>(block: &'a Block, out: &mut HashMap<&'a str, usize>) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Decl { name, .. } => *out.entry(name).or_insert(0) += 1,
            Stmt::If { then_b, else_b, .. } => {
                count_decls(then_b, out);
                if let Some(e) = else_b {
                    count_decls(e, out);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } => count_decls(body, out),
            Stmt::For { init, body, .. } => {
                if let Some(Stmt::Decl { name, .. }) = init.as_deref() {
                    *out.entry(name).or_insert(0) += 1;
                }
                count_decls(body, out);
            }
            Stmt::Block(b) => count_decls(b, out),
            _ => {}
        }
    }
}

fn remove_dead_writes(block: &mut Block, dead: &HashSet<String>, cx: &mut OptCx) {
    let mut i = 0;
    while i < block.0.len() {
        let dead_write = match &block.0[i] {
            Stmt::Decl { name, .. }
            | Stmt::Assign {
                target: LValue::Var(name),
                ..
            } => dead.contains(name),
            _ => false,
        };
        if dead_write {
            cx.cover(11);
            cx.emit(OptEventKind::DceRemove, "1");
            let value = match block.0.remove(i) {
                Stmt::Decl { init, .. } => init,
                Stmt::Assign { value, .. } => Some(value),
                _ => unreachable!("matched above"),
            };
            if let Some(e) = value.filter(|e| !expr_is_pure(e)) {
                block.0.insert(i, Stmt::Expr(e));
                i += 1;
            }
            continue;
        }
        match &mut block.0[i] {
            Stmt::If { then_b, else_b, .. } => {
                remove_dead_writes(then_b, dead, cx);
                if let Some(e) = else_b {
                    remove_dead_writes(e, dead, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } => {
                remove_dead_writes(body, dead, cx)
            }
            Stmt::For { body, .. } => remove_dead_writes(body, dead, cx),
            Stmt::Block(b) => remove_dead_writes(b, dead, cx),
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const DCE: &[PhaseId] = &[PhaseId::Dce];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn removes_write_only_local() {
        let src = r#"
            class T {
                static void main() {
                    int dead = 41;
                    dead = dead + 1;
                    System.out.println(7);
                }
            }
        "#;
        // `dead = dead + 1` reads it, so it is NOT removable.
        let out = opt_main(src, DCE, 1);
        assert_eq!(count(&out, OptEventKind::DceRemove), 0);
        assert_semantics_preserved(src, &out);

        let src2 = r#"
            class T {
                static void main() {
                    int dead = 41;
                    dead = 99;
                    System.out.println(7);
                }
            }
        "#;
        let out2 = opt_main(src2, DCE, 1);
        assert_eq!(count(&out2, OptEventKind::DceRemove), 2);
        let printed = mjava::print_stmt(&Stmt::Block(out2.method.body.clone()));
        assert!(!printed.contains("dead"), "{printed}");
        assert_semantics_preserved(src2, &out2);
    }

    #[test]
    fn preserves_impure_initializer_effects() {
        let src = r#"
            class T {
                static int k;
                static int bump() { k = k + 1; return k; }
                static void main() {
                    int dead = T.bump();
                    System.out.println(k);
                }
            }
        "#;
        let out = opt_main(src, DCE, 1);
        assert_eq!(count(&out, OptEventKind::DceRemove), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("T.bump();"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn folds_constant_branches() {
        let src = r#"
            class T {
                static void main() {
                    if (true) { System.out.println(1); } else { System.out.println(2); }
                    if (false) { System.out.println(3); }
                    while (false) { System.out.println(4); }
                    System.out.println(5);
                }
            }
        "#;
        let out = opt_main(src, DCE, 1);
        assert_eq!(count(&out, OptEventKind::DceRemove), 3);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("println(2)"), "{printed}");
        assert!(!printed.contains("println(3)"), "{printed}");
        assert!(!printed.contains("println(4)"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn truncates_after_return() {
        let src = r#"
            class T {
                static int g() {
                    return 1;
                }
                static void main() { System.out.println(T.g()); }
            }
        "#;
        // Hand-construct unreachable code after return inside g.
        let mut program = mjava::parse(src).unwrap();
        program.classes[0].methods[0]
            .body
            .0
            .push(Stmt::Print(Expr::Int(99)));
        let out = crate::pipeline::optimize(
            &program,
            "T",
            "g",
            DCE,
            crate::pipeline::OptLimits::default(),
            &crate::event::FlagSet::all(),
        )
        .unwrap();
        assert_eq!(count(&out, OptEventKind::DceRemove), 1);
        assert!(matches!(out.method.body.0.last(), Some(Stmt::Return(_))));
    }

    #[test]
    fn keeps_read_locals() {
        let src = r#"
            class T {
                static void main() {
                    int live = 21;
                    System.out.println(live * 2);
                }
            }
        "#;
        let out = opt_main(src, DCE, 1);
        assert_eq!(count(&out, OptEventKind::DceRemove), 0);
        assert_semantics_preserved(src, &out);
    }
}
