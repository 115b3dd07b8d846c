//! Inlining phase.
//!
//! Replaces statement-level calls (`t.f(..)`, `T.g(..)` as the whole
//! right-hand side or expression statement) with the callee's body:
//! receiver and arguments are materialized into temporaries, the callee's
//! bare member references are qualified, its locals are freshened, and its
//! trailing `return` feeds the call's result sink.
//!
//! A `synchronized` callee is inlined *inside* a `synchronized` region on
//! the receiver (or class object) — the delicate interaction the paper's
//! Listing 1 shows HotSpot handling during inlining, and the one its
//! injected-bug analogues probe.

use crate::analysis::{block_size, qualify_members, rename_idents};
use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Call, CallTarget, Class, Expr, LValue, Method, Stmt, Type};
use std::collections::HashMap;

/// Runs the inlining phase.
pub fn run(method: &mut Method, class: &Class, cx: &mut OptCx) {
    let receivers = receiver_classes(method);
    inline_block(&mut method.body, class, &method.name, &receivers, cx);
}

/// Where the call's result value goes.
enum Sink {
    Discard,
    Decl { name: String, ty: Type },
    Assign(LValue),
}

/// The call a statement consists of, if it has an inlinable shape.
fn statement_call(stmt: &Stmt) -> Option<&Call> {
    match stmt {
        Stmt::Expr(Expr::Call(call))
        | Stmt::Decl {
            init: Some(Expr::Call(call)),
            ..
        }
        | Stmt::Assign {
            value: Expr::Call(call),
            ..
        } => Some(call),
        _ => None,
    }
}

/// Splits a statement accepted by [`statement_call`] into its call and
/// result sink.
fn into_call(stmt: Stmt) -> (Call, Sink) {
    match stmt {
        Stmt::Expr(Expr::Call(call)) => (call, Sink::Discard),
        Stmt::Decl {
            name,
            ty,
            init: Some(Expr::Call(call)),
        } => (call, Sink::Decl { name, ty }),
        Stmt::Assign {
            target,
            value: Expr::Call(call),
        } => (call, Sink::Assign(target)),
        _ => unreachable!("statement_call accepted it"),
    }
}

fn inline_block(
    block: &mut Block,
    class: &Class,
    self_name: &str,
    receivers: &HashMap<String, String>,
    cx: &mut OptCx,
) {
    // Recurse into nested blocks first.
    for stmt in &mut block.0 {
        match stmt {
            Stmt::If { then_b, else_b, .. } => {
                inline_block(then_b, class, self_name, receivers, cx);
                if let Some(e) = else_b {
                    inline_block(e, class, self_name, receivers, cx);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } | Stmt::Sync { body, .. } => {
                inline_block(body, class, self_name, receivers, cx)
            }
            Stmt::Block(b) => inline_block(b, class, self_name, receivers, cx),
            _ => {}
        }
    }
    let mut i = 0;
    while i < block.0.len() {
        if let Some(replacement) = try_inline(&mut block.0[i], class, self_name, receivers, cx) {
            let n = replacement.len();
            block.0.splice(i..=i, replacement);
            i += n;
            continue;
        }
        i += 1;
    }
}

/// Inlines a statement-level call: resolves the callee and applies the
/// reject checks on the borrowed statement, then takes the statement by
/// value and builds its replacement.
fn try_inline(
    stmt: &mut Stmt,
    class: &Class,
    self_name: &str,
    receivers: &HashMap<String, String>,
    cx: &mut OptCx,
) -> Option<Vec<Stmt>> {
    let call = statement_call(stmt)?;
    cx.cover(0);
    // Resolve the callee's class.
    let callee_class_name: &str = match &call.target {
        CallTarget::Static(c) => c,
        CallTarget::Instance(recv) => match recv.as_ref() {
            Expr::This => &class.name,
            Expr::New(c) => c,
            // Unknown or ambiguous receiver type: treat as megamorphic
            // and leave the call alone.
            Expr::Var(v) => receivers.get(v)?,
            _ => return None,
        },
    };
    let program = cx.program;
    let callee_class = program.class(callee_class_name)?;
    let callee = callee_class.method(&call.method)?;
    if callee.params.len() != call.args.len() {
        return None;
    }

    // Reject conditions — each is an observable behaviour.
    if callee_class.name == class.name && callee.name == self_name {
        cx.cover(1);
        cx.emit(OptEventKind::InlineReject, "recursive");
        return None;
    }
    if cx.inline_budget_left == 0 {
        cx.cover(2);
        cx.emit(OptEventKind::InlineReject, "inlining too deep");
        return None;
    }
    let size = block_size(&callee.body);
    if size > cx.limits.inline_max_stmts {
        cx.cover(3);
        cx.emit(OptEventKind::InlineReject, "callee too large");
        return None;
    }
    if !returns_are_reducible(&callee.body) {
        cx.cover(4);
        cx.emit(OptEventKind::InlineReject, "irreducible control flow");
        return None;
    }

    cx.inline_budget_left -= 1;
    cx.cover(5);
    cx.emit(
        OptEventKind::Inline,
        format!("{size} stmts, {}::{}", callee_class.name, callee.name),
    );

    let (call, sink) = into_call(std::mem::replace(stmt, Stmt::Block(Block::default())));
    let mut out: Vec<Stmt> = Vec::new();

    // Materialize receiver and arguments in evaluation order.
    let recv_var = match call.target {
        CallTarget::Static(_) => None,
        CallTarget::Instance(recv) => {
            let name = cx.fresh("recv");
            out.push(Stmt::Decl {
                name: name.clone(),
                ty: Type::Ref(callee_class.name.clone()),
                init: Some(*recv),
            });
            Some(name)
        }
    };
    let mut rename: HashMap<String, String> = HashMap::new();
    for (param, arg) in callee.params.iter().zip(call.args) {
        let name = cx.fresh("arg");
        out.push(Stmt::Decl {
            name: name.clone(),
            ty: param.ty.clone(),
            init: Some(arg),
        });
        rename.insert(param.name.clone(), name);
    }

    // Prepare the body: qualify bare members against the *callee's* class,
    // then freshen every local.
    let mut body = callee.body.clone();
    let param_names: Vec<&str> = callee.params.iter().map(|p| p.name.as_str()).collect();
    let recv_as_expr = recv_var.as_ref().map(|v| Expr::var(v.clone()));
    qualify_members(&mut body, callee_class, recv_as_expr.as_ref(), &param_names);
    for name in crate::analysis::declared_names(&callee.body) {
        let fresh = cx.fresh("inl");
        rename.insert(name.to_string(), fresh);
    }
    rename_idents(&mut body, &rename);

    // Split off the trailing return.
    let result_expr: Option<Expr> = match body.0.last() {
        Some(Stmt::Return(Some(_))) => {
            let Some(Stmt::Return(Some(e))) = body.0.pop() else {
                unreachable!()
            };
            Some(e)
        }
        Some(Stmt::Return(None)) => {
            body.0.pop();
            None
        }
        _ => None,
    };

    // A synchronized callee keeps its monitor around the inlined body —
    // including the result computation (it was inside the callee).
    if callee.is_sync {
        cx.cover(6);
        cx.emit(OptEventKind::NestedLock, "1");
        let lock = match &recv_var {
            Some(v) => Expr::var(v.clone()),
            None => Expr::ClassLit(callee_class.name.clone()),
        };
        match (result_expr, sink) {
            (Some(e), sink) => {
                let res = cx.fresh("res");
                out.push(Stmt::Decl {
                    name: res.clone(),
                    ty: callee.ret.clone(),
                    init: None,
                });
                let mut sync_body = body.0;
                sync_body.push(Stmt::Assign {
                    target: LValue::Var(res.clone()),
                    value: e,
                });
                out.push(Stmt::Sync {
                    lock,
                    body: Block(sync_body),
                });
                push_sink(&mut out, sink, Expr::var(res));
            }
            (None, _) => {
                out.push(Stmt::Sync { lock, body });
            }
        }
    } else {
        out.extend(body.0);
        if let Some(e) = result_expr {
            push_sink(&mut out, sink, e);
        }
    }
    Some(out)
}

fn push_sink(out: &mut Vec<Stmt>, sink: Sink, value: Expr) {
    match sink {
        Sink::Discard => {
            if !crate::analysis::expr_is_pure(&value) {
                out.push(Stmt::Expr(value));
            }
        }
        Sink::Decl { name, ty } => out.push(Stmt::Decl {
            name,
            ty,
            init: Some(value),
        }),
        Sink::Assign(target) => out.push(Stmt::Assign { target, value }),
    }
}

/// True when the body's only `return` (if any) is its final top-level
/// statement — the shape the splicing inliner can handle.
fn returns_are_reducible(body: &Block) -> bool {
    let total = count_returns(body);
    match body.0.last() {
        Some(Stmt::Return(_)) => total == 1,
        _ => total == 0,
    }
}

fn count_returns(block: &Block) -> usize {
    let mut n = 0;
    for stmt in &block.0 {
        n += match stmt {
            Stmt::Return(_) => 1,
            Stmt::If { then_b, else_b, .. } => {
                count_returns(then_b) + else_b.as_ref().map_or(0, count_returns)
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } => count_returns(body),
            Stmt::For { body, .. } => count_returns(body),
            Stmt::Block(b) => count_returns(b),
            _ => 0,
        };
    }
    n
}

/// The class of every reference-typed local declared exactly once (or
/// parameter), used to resolve monomorphic receivers.
fn receiver_classes(method: &Method) -> HashMap<String, String> {
    let mut types: HashMap<&str, (&Type, usize)> = HashMap::new();
    for p in &method.params {
        count_decl(&mut types, &p.name, &p.ty);
    }
    collect_decl_types(&method.body, &mut types);
    types
        .into_iter()
        .filter_map(|(name, (ty, n))| match ty {
            Type::Ref(c) if n == 1 => Some((name.to_string(), c.clone())),
            _ => None,
        })
        .collect()
}

fn count_decl<'a>(types: &mut HashMap<&'a str, (&'a Type, usize)>, name: &'a str, ty: &'a Type) {
    types
        .entry(name)
        .and_modify(|e| e.1 += 1)
        .or_insert((ty, 1));
}

fn collect_decl_types<'a>(block: &'a Block, types: &mut HashMap<&'a str, (&'a Type, usize)>) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Decl { name, ty, .. } => count_decl(types, name, ty),
            Stmt::If { then_b, else_b, .. } => {
                collect_decl_types(then_b, types);
                if let Some(e) = else_b {
                    collect_decl_types(e, types);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } => collect_decl_types(body, types),
            Stmt::For { init, body, .. } => {
                if let Some(Stmt::Decl { name, ty, .. }) = init.as_deref() {
                    count_decl(types, name, ty);
                }
                collect_decl_types(body, types);
            }
            Stmt::Block(b) => collect_decl_types(b, types),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OptEventKind;
    use crate::phases::testutil::{assert_semantics_preserved, opt_main};
    use crate::pipeline::PhaseId;

    const INLINE: &[PhaseId] = &[PhaseId::Inline];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn inlines_static_helper() {
        let src = r#"
            class T {
                static int add(int x, int y) { return x + y; }
                static void main() {
                    int m = T.add(3, 4);
                    System.out.println(m);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        assert_eq!(count(&out, OptEventKind::Inline), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(
            !printed.contains("T.add("),
            "call should be gone:\n{printed}"
        );
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn inlines_instance_method_with_fields() {
        let src = r#"
            class T {
                int f;
                int bump(int d) { f = f + d; return f; }
                static void main() {
                    T t = new T();
                    int a = t.bump(5);
                    int b = t.bump(7);
                    System.out.println(a + b);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        assert_eq!(count(&out, OptEventKind::Inline), 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn inlines_synchronized_callee_inside_monitor() {
        let src = r#"
            class T {
                int n;
                synchronized int inc() { n = n + 1; return n; }
                static void main() {
                    T t = new T();
                    int a = t.inc();
                    System.out.println(a + t.inc());
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        // Only the statement-shaped call inlines; the one nested in `+` stays.
        assert_eq!(count(&out, OptEventKind::Inline), 1);
        assert_eq!(count(&out, OptEventKind::NestedLock), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(printed.contains("synchronized ("), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn rejects_recursive_callee() {
        let src = r#"
            class T {
                static int fac(int n) {
                    if (n < 2) { return 1; }
                    return n * T.fac(n - 1);
                }
                static void main() {
                    int m = T.fac(5);
                    System.out.println(m);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        // fac itself inlines into main (size permitting) but its inner
        // recursive call is rejected on the next round; with one round we
        // just check main's direct inline didn't break anything.
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn rejects_large_callee_with_event() {
        let body: String = (0..20)
            .map(|i| format!("s = s + {i};"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!(
            r#"
            class T {{
                static int s;
                static int big() {{ {body} return s; }}
                static void main() {{
                    int m = T.big();
                    System.out.println(m);
                }}
            }}
        "#
        );
        let out = opt_main(&src, INLINE, 1);
        assert_eq!(count(&out, OptEventKind::Inline), 0);
        assert_eq!(count(&out, OptEventKind::InlineReject), 1);
        assert!(out
            .log
            .iter()
            .any(|l| l.contains("failed to inline: callee too large")));
    }

    #[test]
    fn rejects_mid_body_return() {
        let src = r#"
            class T {
                static int g(int n) {
                    if (n > 0) { return 1; }
                    return 0;
                }
                static void main() {
                    int m = T.g(3);
                    System.out.println(m);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        assert_eq!(count(&out, OptEventKind::Inline), 0);
        assert!(out
            .log
            .iter()
            .any(|l| l.contains("irreducible control flow")));
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn inlines_void_callee_statement() {
        let src = r#"
            class T {
                static int s;
                static void tick(int d) { s = s + d; }
                static void main() {
                    T.tick(4);
                    T.tick(5);
                    System.out.println(s);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 1);
        assert_eq!(count(&out, OptEventKind::Inline), 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn argument_evaluation_order_preserved() {
        let src = r#"
            class T {
                static int k;
                static int next() { k = k + 1; return k; }
                static int sub(int a, int b) { return a - b; }
                static void main() {
                    int m = T.sub(T.next(), 10);
                    System.out.println(m);
                    System.out.println(k);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn second_round_inlines_exposed_calls() {
        let src = r#"
            class T {
                static int one() { return 1; }
                static int two() { int a = T.one(); return a + 1; }
                static void main() {
                    int m = T.two();
                    System.out.println(m);
                }
            }
        "#;
        let out = opt_main(src, INLINE, 2);
        assert!(count(&out, OptEventKind::Inline) >= 2);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn budget_exhaustion_emits_too_deep() {
        let src = r#"
            class T {
                static int id(int x) { return x; }
                static void main() {
                    int s = 0;
                    int a0 = T.id(0); int a1 = T.id(1); int a2 = T.id(2);
                    int a3 = T.id(3); int a4 = T.id(4); int a5 = T.id(5);
                    System.out.println(a0 + a1 + a2 + a3 + a4 + a5 + s);
                }
            }
        "#;
        let program = mjava::parse(src).unwrap();
        let limits = crate::pipeline::OptLimits {
            inline_budget: 3,
            rounds: 1,
            ..Default::default()
        };
        let out = crate::pipeline::optimize(
            &program,
            "T",
            "main",
            INLINE,
            limits,
            &crate::event::FlagSet::all(),
        )
        .unwrap();
        assert_eq!(count(&out, OptEventKind::Inline), 3);
        assert_eq!(count(&out, OptEventKind::InlineReject), 3);
        assert!(out.log.iter().any(|l| l.contains("inlining too deep")));
        assert_semantics_preserved(src, &out);
    }
}
