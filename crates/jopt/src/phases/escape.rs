//! Escape analysis and scalar replacement.
//!
//! Tracks locals initialized with a fresh allocation and classifies them as
//! NoEscape / ArgEscape / GlobalEscape with HotSpot's conservative rules.
//! Non-escaping objects whose only uses are field reads/writes are replaced
//! by one scalar local per field; non-escaping objects used as monitors are
//! left for the lock phase (lock elimination), which is precisely the
//! inter-phase hand-off the paper's bugs live in.

use crate::event::OptEventKind;
use crate::pipeline::OptCx;
use mjava::{Block, Class, Expr, LValue, Method, Stmt, Type};
use std::collections::HashMap;

/// Escape classification of an allocation, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscapeState {
    /// Never leaves the method.
    NoEscape,
    /// Passed to a call (receiver or argument).
    ArgEscape,
    /// Stored to the heap, returned, aliased, printed or compared.
    GlobalEscape,
}

/// Runs escape analysis and scalar replacement.
pub fn run(method: &mut Method, class: &Class, cx: &mut OptCx) {
    let _ = class;
    let states = analyze(method);
    cx.cover(0);
    // Report in deterministic order.
    let mut names: Vec<&str> = states.keys().copied().collect();
    names.sort_unstable();
    for name in names {
        match states[name] {
            EscapeState::NoEscape => {
                cx.cover(1);
                cx.emit_once(OptEventKind::EaNoEscape, name);
            }
            EscapeState::ArgEscape => {
                cx.cover(2);
                cx.emit_once(OptEventKind::EaArgEscape, name);
            }
            EscapeState::GlobalEscape => cx.cover(3),
        }
    }
    // Scalar-replace eligible NoEscape allocations.
    let mut candidates: Vec<(String, String)> = Vec::new(); // (var, class)
    collect_alloc_decls(&method.body, &mut |name, class_name| {
        if states.get(name) == Some(&EscapeState::NoEscape) {
            candidates.push((name.to_string(), class_name.to_string()));
        }
    });
    for (var, class_name) in candidates {
        if used_as_lock(&method.body, &var) {
            // Leave monitor-carrying objects to the lock phase.
            cx.cover(4);
            continue;
        }
        let Some(alloc_class) = cx.program.class(&class_name) else {
            continue;
        };
        if !only_field_uses(&method.body, &var) {
            cx.cover(5);
            continue;
        }
        scalar_replace(&mut method.body, &var, alloc_class);
        cx.cover(6);
        cx.emit(OptEventKind::ScalarReplace, var);
    }
}

/// Classifies every tracked allocation in the method, keyed by the
/// local's name as it appears in the method.
pub fn analyze(method: &Method) -> HashMap<&str, EscapeState> {
    // Tracked: locals declared exactly once with a `new` initializer and
    // never re-assigned.
    let mut decl_counts: HashMap<&str, usize> = HashMap::new();
    let mut allocs: HashMap<&str, EscapeState> = HashMap::new();
    collect_decl_info(&method.body, &mut decl_counts, &mut allocs);
    if allocs.is_empty() {
        return allocs;
    }
    for p in &method.params {
        *decl_counts.entry(&p.name).or_insert(0) += 1;
    }
    allocs.retain(|name, _| decl_counts.get(name) == Some(&1));
    let reassigned = crate::analysis::assigned_vars(&method.body);
    allocs.retain(|name, _| !reassigned.contains(name));
    let mut states = allocs;
    scan_block(&method.body, &mut states);
    states
}

fn upgrade(states: &mut HashMap<&str, EscapeState>, var: &str, to: EscapeState) {
    if let Some(s) = states.get_mut(var) {
        if to > *s {
            *s = to;
        }
    }
}

fn collect_decl_info<'a>(
    block: &'a Block,
    counts: &mut HashMap<&'a str, usize>,
    allocs: &mut HashMap<&'a str, EscapeState>,
) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Decl { name, init, .. } => {
                *counts.entry(name).or_insert(0) += 1;
                if let Some(Expr::New(_)) = init {
                    allocs.insert(name, EscapeState::NoEscape);
                }
            }
            Stmt::If { then_b, else_b, .. } => {
                collect_decl_info(then_b, counts, allocs);
                if let Some(e) = else_b {
                    collect_decl_info(e, counts, allocs);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } => {
                collect_decl_info(body, counts, allocs)
            }
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    if let Stmt::Decl { name, .. } = i.as_ref() {
                        *counts.entry(name).or_insert(0) += 1;
                    }
                }
                collect_decl_info(body, counts, allocs);
            }
            Stmt::Block(b) => collect_decl_info(b, counts, allocs),
            _ => {}
        }
    }
}

fn scan_block(block: &Block, states: &mut HashMap<&str, EscapeState>) {
    for stmt in &block.0 {
        scan_stmt(stmt, states);
    }
}

fn scan_stmt(stmt: &Stmt, states: &mut HashMap<&str, EscapeState>) {
    match stmt {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                // The defining `new` itself is not a use.
                if !matches!(e, Expr::New(_)) {
                    scan_expr(e, states);
                }
            }
        }
        Stmt::Assign { target, value } => {
            if let LValue::Field(obj, _) = target {
                scan_receiver(obj, states);
            }
            scan_expr(value, states);
        }
        Stmt::Expr(e) | Stmt::Print(e) => scan_expr(e, states),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            scan_expr(cond, states);
            scan_block(then_b, states);
            if let Some(b) = else_b {
                scan_block(b, states);
            }
        }
        Stmt::While { cond, body } => {
            scan_expr(cond, states);
            scan_block(body, states);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(i) = init {
                scan_stmt(i, states);
            }
            scan_expr(cond, states);
            if let Some(u) = update {
                scan_stmt(u, states);
            }
            scan_block(body, states);
        }
        Stmt::Sync { lock, body } => {
            // Locking a tracked local does not make it escape.
            if !matches!(lock, Expr::Var(_)) {
                scan_expr(lock, states);
            }
            scan_block(body, states);
        }
        Stmt::Block(b) => scan_block(b, states),
        Stmt::Return(Some(e)) => scan_expr(e, states),
        Stmt::Return(None) => {}
    }
}

/// A use as the receiver object of a field access is harmless; anything
/// else inside escapes.
fn scan_receiver(obj: &Expr, states: &mut HashMap<&str, EscapeState>) {
    if !matches!(obj, Expr::Var(_)) {
        scan_expr(obj, states);
    }
}

fn scan_expr(e: &Expr, states: &mut HashMap<&str, EscapeState>) {
    match e {
        Expr::Var(v) => upgrade(states, v, EscapeState::GlobalEscape),
        Expr::Field(obj, _) => scan_receiver(obj, states),
        Expr::Call(call) => {
            if let mjava::CallTarget::Instance(recv) = &call.target {
                match recv.as_ref() {
                    Expr::Var(v) => upgrade(states, v, EscapeState::ArgEscape),
                    other => scan_expr(other, states),
                }
            }
            for a in &call.args {
                match a {
                    Expr::Var(v) => upgrade(states, v, EscapeState::ArgEscape),
                    other => scan_expr(other, states),
                }
            }
        }
        Expr::Reflect(r) => {
            if let Some(recv) = &r.receiver {
                match recv.as_ref() {
                    Expr::Var(v) => upgrade(states, v, EscapeState::ArgEscape),
                    other => scan_expr(other, states),
                }
            }
            for a in &r.args {
                match a {
                    Expr::Var(v) => upgrade(states, v, EscapeState::ArgEscape),
                    other => scan_expr(other, states),
                }
            }
        }
        Expr::Unary(_, inner) | Expr::BoxInt(inner) | Expr::UnboxInt(inner) => {
            scan_expr(inner, states)
        }
        Expr::Binary(_, lhs, rhs) => {
            scan_expr(lhs, states);
            scan_expr(rhs, states);
        }
        _ => {}
    }
}

fn collect_alloc_decls(block: &Block, f: &mut impl FnMut(&str, &str)) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Decl {
                name,
                init: Some(Expr::New(c)),
                ..
            } => f(name, c),
            Stmt::If { then_b, else_b, .. } => {
                collect_alloc_decls(then_b, f);
                if let Some(e) = else_b {
                    collect_alloc_decls(e, f);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                collect_alloc_decls(body, f)
            }
            Stmt::Block(b) => collect_alloc_decls(b, f),
            _ => {}
        }
    }
}

fn used_as_lock(block: &Block, var: &str) -> bool {
    let mut found = false;
    visit_syncs(block, &mut |lock| {
        if matches!(lock, Expr::Var(v) if v == var) {
            found = true;
        }
    });
    found
}

/// Calls `f` with the lock expression of every `synchronized` statement.
pub(crate) fn visit_syncs<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Sync { lock, body } => {
                f(lock);
                visit_syncs(body, f);
            }
            Stmt::If { then_b, else_b, .. } => {
                visit_syncs(then_b, f);
                if let Some(e) = else_b {
                    visit_syncs(e, f);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => visit_syncs(body, f),
            Stmt::Block(b) => visit_syncs(b, f),
            _ => {}
        }
    }
}

/// True when every occurrence of `var` (other than its declaration) is as
/// the receiver of a field read or field write.
fn only_field_uses(block: &Block, var: &str) -> bool {
    // Count total occurrences vs. field-receiver occurrences.
    let mut total = 0usize;
    crate::analysis::map_exprs_in_block_ref(block, &mut |e| {
        if matches!(e, Expr::Var(v) if v == var) {
            total += 1;
        }
    });
    let mut receiver = 0usize;
    crate::analysis::map_exprs_in_block_ref(block, &mut |e| {
        if let Expr::Field(obj, _) = e {
            if matches!(obj.as_ref(), Expr::Var(v) if v == var) {
                receiver += 1;
            }
        }
    });
    // Field *write* receivers already appear in `total` (the expression
    // walker visits assignment-target receivers) but not in `receiver`
    // (they are LValues, not `Expr::Field` nodes) — add them here.
    let mut write_recv = 0usize;
    let mut write_total = 0usize;
    count_lvalue_uses(block, var, &mut write_recv, &mut write_total);
    receiver += write_recv;
    total == receiver
}

fn count_lvalue_uses(block: &Block, var: &str, recv: &mut usize, total: &mut usize) {
    for stmt in &block.0 {
        match stmt {
            Stmt::Assign {
                target: LValue::Field(obj, _),
                ..
            } => {
                if matches!(obj, Expr::Var(v) if v == var) {
                    *recv += 1;
                    *total += 1;
                }
            }
            Stmt::If { then_b, else_b, .. } => {
                count_lvalue_uses(then_b, var, recv, total);
                if let Some(e) = else_b {
                    count_lvalue_uses(e, var, recv, total);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                count_lvalue_uses(body, var, recv, total)
            }
            Stmt::Block(b) => count_lvalue_uses(b, var, recv, total),
            _ => {}
        }
    }
}

fn scalar_name(var: &str, field: &str) -> String {
    format!("{var}${field}")
}

fn default_init(ty: &Type, declared: &Option<Expr>) -> Option<Expr> {
    if let Some(e) = declared {
        return Some(e.clone());
    }
    Some(match ty {
        Type::Int => Expr::Int(0),
        Type::Long => Expr::Long(0),
        Type::Bool => Expr::Bool(false),
        _ => Expr::Null,
    })
}

fn scalar_replace(body: &mut Block, var: &str, class: &Class) {
    // 1. Replace the declaration with per-field scalars.
    replace_decl(body, var, class);
    // 2. Rewrite reads.
    crate::analysis::map_exprs_in_block(body, &mut |e| {
        if let Expr::Field(obj, f) = e {
            if matches!(obj.as_ref(), Expr::Var(v) if v == var) {
                *e = Expr::Var(scalar_name(var, f));
            }
        }
    });
    // 3. Rewrite writes.
    rewrite_field_writes(body, var);
}

fn replace_decl(block: &mut Block, var: &str, class: &Class) {
    let mut i = 0;
    while i < block.0.len() {
        let is_target = matches!(
            &block.0[i],
            Stmt::Decl { name, init: Some(Expr::New(_)), .. } if name == var
        );
        if is_target {
            let mut scalars = Vec::new();
            for field in class.fields.iter().filter(|f| !f.is_static) {
                scalars.push(Stmt::Decl {
                    name: scalar_name(var, &field.name),
                    ty: field.ty.clone(),
                    init: default_init(&field.ty, &field.init),
                });
            }
            block.0.splice(i..=i, scalars);
            return;
        }
        match &mut block.0[i] {
            Stmt::If { then_b, else_b, .. } => {
                replace_decl(then_b, var, class);
                if let Some(e) = else_b {
                    replace_decl(e, var, class);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                replace_decl(body, var, class)
            }
            Stmt::Block(b) => replace_decl(b, var, class),
            _ => {}
        }
        i += 1;
    }
}

fn rewrite_field_writes(block: &mut Block, var: &str) {
    for stmt in &mut block.0 {
        match stmt {
            Stmt::Assign { target, .. } => {
                if let LValue::Field(obj, f) = target {
                    if matches!(obj, Expr::Var(v) if v == var) {
                        *target = LValue::Var(scalar_name(var, f));
                    }
                }
            }
            Stmt::If { then_b, else_b, .. } => {
                rewrite_field_writes(then_b, var);
                if let Some(e) = else_b {
                    rewrite_field_writes(e, var);
                }
            }
            Stmt::While { body, .. } | Stmt::Sync { body, .. } | Stmt::For { body, .. } => {
                rewrite_field_writes(body, var)
            }
            Stmt::Block(b) => rewrite_field_writes(b, var),
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

    const ESCAPE: &[PhaseId] = &[PhaseId::Escape];

    fn count(outcome: &crate::pipeline::OptOutcome, kind: OptEventKind) -> usize {
        outcome.events.iter().filter(|e| e.kind == kind).count()
    }

    #[test]
    fn classifies_non_escaping_allocation() {
        let src = r#"
            class E {
                int v;
                static void main() {
                    E e = new E();
                    e.v = 41;
                    System.out.println(e.v + 1);
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::EaNoEscape), 1);
        assert_eq!(count(&out, OptEventKind::ScalarReplace), 1);
        let printed = mjava::print_stmt(&Stmt::Block(out.method.body.clone()));
        assert!(!printed.contains("new E()"), "{printed}");
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn classifies_arg_escape() {
        let src = r#"
            class E {
                int v;
                static int probe(E x) { return x.v; }
                static void main() {
                    E e = new E();
                    e.v = 7;
                    System.out.println(E.probe(e));
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::EaArgEscape), 1);
        assert_eq!(count(&out, OptEventKind::ScalarReplace), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn global_escape_via_static_store() {
        let p = mjava::parse(
            r#"
            class E {
                static E sink;
                int v;
                static void main() {
                    E e = new E();
                    sink = e;
                    System.out.println(1);
                }
            }
        "#,
        )
        .unwrap();
        let states = analyze(p.classes[0].method("main").unwrap());
        assert_eq!(states.get("e"), Some(&EscapeState::GlobalEscape));
    }

    #[test]
    fn lock_use_does_not_escape_but_blocks_scalar_replacement() {
        let src = r#"
            class E {
                int v;
                static void main() {
                    E e = new E();
                    synchronized (e) {
                        e.v = 3;
                    }
                    System.out.println(e.v);
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::EaNoEscape), 1);
        assert_eq!(count(&out, OptEventKind::ScalarReplace), 0);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn receiver_of_call_is_arg_escape() {
        let src = r#"
            class E {
                int v;
                int get() { return v; }
                static void main() {
                    E e = new E();
                    e.v = 9;
                    System.out.println(e.get());
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::EaArgEscape), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn scalar_replacement_respects_field_initializers() {
        let src = r#"
            class E {
                int v = 5;
                static void main() {
                    E e = new E();
                    System.out.println(e.v);
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::ScalarReplace), 1);
        assert_semantics_preserved(src, &out);
    }

    #[test]
    fn aliased_allocation_escapes() {
        let p = mjava::parse(
            r#"
            class E {
                int v;
                static void main() {
                    E e = new E();
                    E f = e;
                    System.out.println(f.v);
                }
            }
        "#,
        )
        .unwrap();
        let states = analyze(p.classes[0].method("main").unwrap());
        assert_eq!(states.get("e"), Some(&EscapeState::GlobalEscape));
    }

    #[test]
    fn scalar_replacement_inside_loop_body() {
        let src = r#"
            class E {
                int v;
                static int out;
                static void main() {
                    for (int i = 0; i < 10; i++) {
                        E e = new E();
                        e.v = i * 3;
                        out = out + e.v;
                    }
                    System.out.println(out);
                }
            }
        "#;
        let out = opt_main(src, ESCAPE, 1);
        assert_eq!(count(&out, OptEventKind::ScalarReplace), 1);
        assert_semantics_preserved(src, &out);
    }
}
