//! De-reflection: devirtualizes reflective calls with constant class and
//! method names into direct calls.
//!
//! This behaviour is intentionally *not* observable through any trace flag
//! (the paper notes the JVM offers no flag for it, §5.1) — the event exists
//! for the bug library and internal statistics only.

use crate::analysis::map_exprs_in_block;
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Call, CallTarget, Expr, Method};

/// Runs the de-reflection phase.
pub fn run(method: &mut Method, cx: &mut OptCx) {
    // Collect resolvable rewrites first (no &mut aliasing with cx.program).
    let program = cx.program;
    let mut rewrites: Vec<(String, String)> = Vec::new();
    map_exprs_in_block(&mut method.body, &mut |e| {
        if let Expr::Reflect(r) = e {
            let Some(class) = program.class(&r.class) else {
                return;
            };
            let Some(target) = class.method(&r.method) else {
                return;
            };
            if target.params.len() != r.args.len() {
                return;
            }
            // Receiver presence must match staticness exactly. A static
            // target with a receiver (or an instance target with `null`)
            // has reflection-specific semantics; keep the reflective form.
            match (&r.receiver, target.is_static) {
                (None, true) | (Some(_), false) => {}
                _ => return,
            }
            rewrites.push((r.class.clone(), r.method.clone()));
            let Expr::Reflect(r) = std::mem::replace(e, Expr::Null) else {
                unreachable!("matched above")
            };
            *e = Expr::Call(Call {
                target: match r.receiver {
                    Some(recv) => CallTarget::Instance(recv),
                    None => CallTarget::Static(r.class),
                },
                method: r.method,
                args: r.args,
            });
        }
    });
    for (class, m) in rewrites {
        cx.cover(0);
        cx.emit(OptEventKind::Dereflect, format!("{class}::{m}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;
    use mjava::Stmt;

    const DEREFLECT: &[PhaseId] = &[PhaseId::Dereflect];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn devirtualizes_instance_reflection() {
        let src = r#"
            class T {
                int f;
                int get(int d) { return f + d; }
                static void main() {
                    T t = new T();
                    t.f = 40;
                    System.out.println(Class.forName("T").getDeclaredMethod("get").invoke(t, 2));
                }
            }
        "#;
        let out = opt_main(src, DEREFLECT, 1);
        assert_eq!(count(&out, OptEventKind::Dereflect), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("forName"), "{printed}");
        assert!(printed.contains("t.get(2)"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn devirtualizes_static_reflection() {
        let src = r#"
            class T {
                static int twice(int v) { return v * 2; }
                static void main() {
                    System.out.println(Class.forName("T").getDeclaredMethod("twice").invoke(null, 21));
                }
            }
        "#;
        let out = opt_main(src, DEREFLECT, 1);
        assert_eq!(count(&out, OptEventKind::Dereflect), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("T.twice(21)"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn keeps_unresolvable_reflection() {
        let src = r#"
            class T {
                static void main() {
                    System.out.println(Class.forName("Nope").getDeclaredMethod("g").invoke(null));
                }
            }
        "#;
        let out = opt_main(src, DEREFLECT, 1);
        assert_eq!(count(&out, OptEventKind::Dereflect), 0);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("forName"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn dereflect_is_invisible_in_logs() {
        let src = r#"
            class T {
                static int one() { return 1; }
                static void main() {
                    System.out.println(Class.forName("T").getDeclaredMethod("one").invoke(null));
                }
            }
        "#;
        let out = opt_main(src, DEREFLECT, 1);
        assert_eq!(count(&out, OptEventKind::Dereflect), 1);
        assert!(
            !out.log.iter().any(|l| l.to_lowercase().contains("reflect")),
            "dereflection must not appear in profile data: {:?}",
            out.log
        );
    }
}
