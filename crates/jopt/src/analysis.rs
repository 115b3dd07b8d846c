//! Shared static analyses and AST-rewriting utilities used by the phases.

use mjava::{BinOp, Block, Class, Expr, LValue, Stmt};
use std::collections::{HashMap, HashSet};

/// Returns true if evaluating `e` has no side effects and cannot raise —
/// the condition for removing or duplicating it.
///
/// Conservative: calls, allocations, reflective operations, possibly-null
/// field accesses, unboxing (may NPE) and divisions with non-constant
/// divisors are all impure.
pub fn expr_is_pure(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Long(_) | Expr::Bool(_) | Expr::Null | Expr::This => true,
        Expr::Var(_) | Expr::StaticField(..) | Expr::ClassLit(_) => true,
        Expr::Unary(_, inner) | Expr::BoxInt(inner) => expr_is_pure(inner),
        Expr::UnboxInt(inner) => matches!(inner.as_ref(), Expr::BoxInt(b) if expr_is_pure(b)),
        Expr::Binary(op, lhs, rhs) => {
            let operands_pure = expr_is_pure(lhs) && expr_is_pure(rhs);
            match op {
                BinOp::Div | BinOp::Rem => {
                    operands_pure
                        && (matches!(rhs.as_ref(), Expr::Int(v) if *v != 0)
                            || matches!(rhs.as_ref(), Expr::Long(v) if *v != 0))
                }
                _ => operands_pure,
            }
        }
        // `this.f` cannot NPE; any other receiver might.
        Expr::Field(obj, _) => matches!(obj.as_ref(), Expr::This),
        Expr::Call(_) | Expr::Reflect(_) | Expr::New(_) => false,
    }
}

/// Collects the names of all variables *assigned* (not declared) anywhere
/// in the block, including nested blocks and loop headers.
pub fn assigned_vars(block: &Block) -> HashSet<&str> {
    let mut out = HashSet::new();
    visit_bindings(block, &mut |name, declared| {
        if !declared {
            out.insert(name);
        }
    });
    out
}

/// Collects the names declared anywhere inside the block (all nesting
/// levels, including `for` headers), each once, in order of first
/// declaration — so callers that number them get the same numbers on
/// every run.
pub fn declared_names(block: &Block) -> Vec<&str> {
    let mut out = Vec::new();
    visit_bindings(block, &mut |name, declared| {
        if declared && !out.contains(&name) {
            out.push(name);
        }
    });
    out
}

/// True when the block declares or assigns `name` anywhere.
pub fn binds(block: &Block, name: &str) -> bool {
    let mut found = false;
    visit_bindings(block, &mut |n, _| found |= n == name);
    found
}

/// Calls `f(name, declared)` for every variable declaration (`declared`)
/// and every assignment to a variable (`!declared`) in the block, at every
/// nesting level and in `for` headers, in statement order.
pub fn visit_bindings<'a>(block: &'a Block, f: &mut impl FnMut(&'a str, bool)) {
    for stmt in &block.0 {
        visit_bindings_stmt(stmt, f);
    }
}

fn visit_bindings_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a str, bool)) {
    match stmt {
        Stmt::Decl { name, .. } => f(name, true),
        Stmt::Assign {
            target: LValue::Var(name),
            ..
        } => f(name, false),
        Stmt::If { then_b, else_b, .. } => {
            visit_bindings(then_b, f);
            if let Some(e) = else_b {
                visit_bindings(e, f);
            }
        }
        Stmt::While { body, .. } | Stmt::Sync { body, .. } => visit_bindings(body, f),
        Stmt::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                visit_bindings_stmt(i, f);
            }
            if let Some(u) = update {
                visit_bindings_stmt(u, f);
            }
            visit_bindings(body, f);
        }
        Stmt::Block(b) => visit_bindings(b, f),
        _ => {}
    }
}

/// Counts the variable reads of `name` in the block (all nesting levels).
/// Writes to `name` do not count.
pub fn count_reads(block: &Block, name: &str) -> usize {
    let mut n = 0;
    map_exprs_in_block_ref(block, &mut |e| {
        if matches!(e, Expr::Var(v) if v == name) {
            n += 1;
        }
    });
    n
}

/// Applies `f` to every expression node in the block, post-order (children
/// before parents), at every nesting level. Assignment-target *names* are
/// not expressions, but receiver objects of field targets are visited.
pub fn map_exprs_in_block(block: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for stmt in &mut block.0 {
        map_exprs_in_stmt(stmt, f);
    }
}

/// Statement-level counterpart of [`map_exprs_in_block`].
pub fn map_exprs_in_stmt(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                map_expr(e, f);
            }
        }
        Stmt::Assign { target, value } => {
            if let LValue::Field(obj, _) = target {
                map_expr(obj, f);
            }
            map_expr(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => map_expr(e, f),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            map_expr(cond, f);
            map_exprs_in_block(then_b, f);
            if let Some(e) = else_b {
                map_exprs_in_block(e, f);
            }
        }
        Stmt::While { cond, body } => {
            map_expr(cond, f);
            map_exprs_in_block(body, f);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(i) = init {
                map_exprs_in_stmt(i, f);
            }
            map_expr(cond, f);
            if let Some(u) = update {
                map_exprs_in_stmt(u, f);
            }
            map_exprs_in_block(body, f);
        }
        Stmt::Sync { lock, body } => {
            map_expr(lock, f);
            map_exprs_in_block(body, f);
        }
        Stmt::Block(b) => map_exprs_in_block(b, f),
        Stmt::Return(Some(e)) => map_expr(e, f),
        Stmt::Return(None) => {}
    }
}

fn map_expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match e {
        Expr::Unary(_, inner) | Expr::BoxInt(inner) | Expr::UnboxInt(inner) => map_expr(inner, f),
        Expr::Binary(_, lhs, rhs) => {
            map_expr(lhs, f);
            map_expr(rhs, f);
        }
        Expr::Call(call) => {
            if let mjava::CallTarget::Instance(recv) = &mut call.target {
                map_expr(recv, f);
            }
            for a in &mut call.args {
                map_expr(a, f);
            }
        }
        Expr::Reflect(r) => {
            if let Some(recv) = &mut r.receiver {
                map_expr(recv, f);
            }
            for a in &mut r.args {
                map_expr(a, f);
            }
        }
        Expr::Field(obj, _) => map_expr(obj, f),
        _ => {}
    }
    f(e);
}

/// Read-only traversal over every expression at every nesting level, in
/// the same order as [`map_exprs_in_block`]. Visited nodes borrow from the
/// block, so callers can key maps by them without cloning.
pub fn map_exprs_in_block_ref<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.0 {
        read_stmt(stmt, f);
    }
}

fn read_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match stmt {
        Stmt::Decl { init, .. } => {
            if let Some(e) = init {
                read_expr(e, f);
            }
        }
        Stmt::Assign { target, value } => {
            if let LValue::Field(obj, _) = target {
                read_expr(obj, f);
            }
            read_expr(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => read_expr(e, f),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            read_expr(cond, f);
            map_exprs_in_block_ref(then_b, f);
            if let Some(e) = else_b {
                map_exprs_in_block_ref(e, f);
            }
        }
        Stmt::While { cond, body } => {
            read_expr(cond, f);
            map_exprs_in_block_ref(body, f);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(i) = init {
                read_stmt(i, f);
            }
            read_expr(cond, f);
            if let Some(u) = update {
                read_stmt(u, f);
            }
            map_exprs_in_block_ref(body, f);
        }
        Stmt::Sync { lock, body } => {
            read_expr(lock, f);
            map_exprs_in_block_ref(body, f);
        }
        Stmt::Block(b) => map_exprs_in_block_ref(b, f),
        Stmt::Return(Some(e)) => read_expr(e, f),
        Stmt::Return(None) => {}
    }
}

/// Applies `f` to every node of one expression, post-order (the
/// read-only counterpart of the walker behind [`map_exprs_in_block`]).
pub fn read_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    match e {
        Expr::Unary(_, inner) | Expr::BoxInt(inner) | Expr::UnboxInt(inner) => read_expr(inner, f),
        Expr::Binary(_, lhs, rhs) => {
            read_expr(lhs, f);
            read_expr(rhs, f);
        }
        Expr::Call(call) => {
            if let mjava::CallTarget::Instance(recv) = &call.target {
                read_expr(recv, f);
            }
            for a in &call.args {
                read_expr(a, f);
            }
        }
        Expr::Reflect(r) => {
            if let Some(recv) = &r.receiver {
                read_expr(recv, f);
            }
            for a in &r.args {
                read_expr(a, f);
            }
        }
        Expr::Field(obj, _) => read_expr(obj, f),
        _ => {}
    }
    f(e);
}

/// Substitutes reads of variable `name` with `replacement` everywhere in
/// the block. The caller must ensure `name` is not shadowed or assigned
/// inside (see [`declared_names`]/[`assigned_vars`]).
pub fn substitute_var(block: &mut Block, name: &str, replacement: &Expr) {
    map_exprs_in_block(block, &mut |e| {
        if matches!(e, Expr::Var(v) if v == name) {
            *e = replacement.clone();
        }
    });
}

/// Renames identifiers per `map`: declarations, reads, and assignment
/// targets. Used by the inliner to freshen callee locals.
pub fn rename_idents(block: &mut Block, map: &HashMap<String, String>) {
    for stmt in &mut block.0 {
        rename_stmt(stmt, map);
    }
}

fn rename_stmt(stmt: &mut Stmt, map: &HashMap<String, String>) {
    match stmt {
        Stmt::Decl { name, init, .. } => {
            if let Some(n) = map.get(name) {
                *name = n.clone();
            }
            if let Some(e) = init {
                rename_expr(e, map);
            }
        }
        Stmt::Assign { target, value } => {
            match target {
                LValue::Var(name) => {
                    if let Some(n) = map.get(name) {
                        *name = n.clone();
                    }
                }
                LValue::Field(obj, _) => rename_expr(obj, map),
                LValue::StaticField(..) => {}
            }
            rename_expr(value, map);
        }
        Stmt::Expr(e) | Stmt::Print(e) => rename_expr(e, map),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            rename_expr(cond, map);
            rename_idents(then_b, map);
            if let Some(e) = else_b {
                rename_idents(e, map);
            }
        }
        Stmt::While { cond, body } => {
            rename_expr(cond, map);
            rename_idents(body, map);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(i) = init {
                rename_stmt(i, map);
            }
            rename_expr(cond, map);
            if let Some(u) = update {
                rename_stmt(u, map);
            }
            rename_idents(body, map);
        }
        Stmt::Sync { lock, body } => {
            rename_expr(lock, map);
            rename_idents(body, map);
        }
        Stmt::Block(b) => rename_idents(b, map),
        Stmt::Return(Some(e)) => rename_expr(e, map),
        Stmt::Return(None) => {}
    }
}

fn rename_expr(e: &mut Expr, map: &HashMap<String, String>) {
    map_expr(e, &mut |node| {
        if let Expr::Var(v) = node {
            if let Some(n) = map.get(v) {
                *v = n.clone();
            }
        }
    });
}

/// Rewrites a callee body's *bare* member references into qualified ones so
/// the body can be spliced into a different method: instance fields become
/// `recv.f`, static fields become `Class.f`. `locals` must contain the
/// callee's parameters.
pub fn qualify_members(block: &mut Block, class: &Class, recv: Option<&Expr>, locals: &[&str]) {
    let mut scope: Vec<String> = locals.iter().map(|l| l.to_string()).collect();
    qualify_block(block, class, recv, &mut scope);
}

/// True when `name` is a local in `scope`: the names declared so far,
/// innermost last (each nested block truncates back to its entry length
/// on exit).
fn in_scope(scope: &[String], name: &str) -> bool {
    scope.iter().any(|s| s == name)
}

fn qualify_block(block: &mut Block, class: &Class, recv: Option<&Expr>, scope: &mut Vec<String>) {
    let outer = scope.len();
    for stmt in &mut block.0 {
        qualify_stmt(stmt, class, recv, scope);
    }
    scope.truncate(outer);
}

fn is_instance_field(class: &Class, name: &str) -> bool {
    class.fields.iter().any(|f| f.name == name && !f.is_static)
}

fn is_static_field(class: &Class, name: &str) -> bool {
    class.fields.iter().any(|f| f.name == name && f.is_static)
}

fn qualify_stmt(stmt: &mut Stmt, class: &Class, recv: Option<&Expr>, scope: &mut Vec<String>) {
    let qualify_expr = |e: &mut Expr, scope: &[String]| {
        map_expr(e, &mut |node| {
            let replace = match node {
                Expr::Var(v) if !in_scope(scope, v) => {
                    if is_instance_field(class, v) {
                        recv.map(|r| Expr::Field(Box::new(r.clone()), v.clone()))
                    } else if is_static_field(class, v) {
                        Some(Expr::StaticField(class.name.clone(), v.clone()))
                    } else {
                        None
                    }
                }
                Expr::This => recv.cloned(),
                _ => None,
            };
            if let Some(r) = replace {
                *node = r;
            }
        });
    };
    match stmt {
        Stmt::Decl { name, init, .. } => {
            if let Some(e) = init {
                qualify_expr(e, scope);
            }
            scope.push(name.clone());
        }
        Stmt::Assign { target, value } => {
            qualify_expr(value, scope);
            match target {
                LValue::Var(name) if !in_scope(scope, name) => {
                    if is_instance_field(class, name) {
                        if let Some(r) = recv {
                            *target = LValue::Field(r.clone(), name.clone());
                        }
                    } else if is_static_field(class, name) {
                        *target = LValue::StaticField(class.name.clone(), name.clone());
                    }
                }
                LValue::Field(obj, _) => qualify_expr(obj, scope),
                _ => {}
            }
        }
        Stmt::Expr(e) | Stmt::Print(e) => qualify_expr(e, scope),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            qualify_expr(cond, scope);
            qualify_block(then_b, class, recv, scope);
            if let Some(e) = else_b {
                qualify_block(e, class, recv, scope);
            }
        }
        Stmt::While { cond, body } => {
            qualify_expr(cond, scope);
            qualify_block(body, class, recv, scope);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            let outer = scope.len();
            if let Some(i) = init {
                qualify_stmt(i, class, recv, scope);
            }
            qualify_expr(cond, scope);
            if let Some(u) = update {
                qualify_stmt(u, class, recv, scope);
            }
            qualify_block(body, class, recv, scope);
            scope.truncate(outer);
        }
        Stmt::Sync { lock, body } => {
            qualify_expr(lock, scope);
            qualify_block(body, class, recv, scope);
        }
        Stmt::Block(b) => qualify_block(b, class, recv, scope),
        Stmt::Return(Some(e)) => qualify_expr(e, scope),
        Stmt::Return(None) => {}
    }
}

/// A recognized counted loop `for (int v = start; v < bound; v = v + step)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedLoop {
    /// Induction variable name.
    pub var: String,
    /// Initial value.
    pub start: i64,
    /// Exclusive upper bound (inclusive bounds are normalized).
    pub bound: i64,
    /// Positive step.
    pub step: i64,
}

impl CountedLoop {
    /// Number of iterations the loop performs.
    pub fn trip_count(&self) -> u64 {
        if self.bound <= self.start {
            0
        } else {
            (((self.bound - self.start) + self.step - 1) / self.step) as u64
        }
    }

    /// The induction values, in order.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.trip_count() as i64).map(move |k| self.start + k * self.step)
    }
}

/// Recognizes a constant-bounded counted `for` loop whose body neither
/// assigns nor re-declares the induction variable. Only such loops are
/// fully unrollable.
pub fn counted_loop(stmt: &Stmt) -> Option<CountedLoop> {
    let Stmt::For {
        init: Some(init),
        cond,
        update: Some(update),
        body,
    } = stmt
    else {
        return None;
    };
    let Stmt::Decl {
        name,
        ty: mjava::Type::Int,
        init: Some(Expr::Int(start)),
    } = init.as_ref()
    else {
        return None;
    };
    let (op, bound) = match cond {
        Expr::Binary(op @ (BinOp::Lt | BinOp::Le), lhs, rhs) => {
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Var(v), Expr::Int(b)) if v == name => (*op, *b),
                _ => return None,
            }
        }
        _ => return None,
    };
    let bound = if op == BinOp::Le { bound + 1 } else { bound };
    let step = match update.as_ref() {
        Stmt::Assign {
            target: LValue::Var(v),
            value: Expr::Binary(BinOp::Add, lhs, rhs),
        } if v == name => match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(v2), Expr::Int(s)) if v2 == name && *s > 0 => *s,
            _ => return None,
        },
        _ => return None,
    };
    if binds(body, name) {
        return None;
    }
    Some(CountedLoop {
        var: name.clone(),
        start: *start,
        bound,
        step,
    })
}

/// Number of statements (all nesting levels) in a block.
pub fn block_size(block: &Block) -> usize {
    let mut n = 0;
    for stmt in &block.0 {
        n += stmt_size(stmt);
    }
    n
}

fn stmt_size(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::If { then_b, else_b, .. } => {
            block_size(then_b) + else_b.as_ref().map_or(0, block_size)
        }
        Stmt::While { body, .. } | Stmt::Sync { body, .. } => block_size(body),
        Stmt::For {
            init, update, body, ..
        } => {
            init.as_deref().map_or(0, stmt_size)
                + update.as_deref().map_or(0, stmt_size)
                + block_size(body)
        }
        Stmt::Block(b) => block_size(b),
        _ => 0,
    }
}

/// The set of variable names read by an expression.
pub fn expr_vars(e: &Expr) -> HashSet<&str> {
    let mut out = HashSet::new();
    read_expr(e, &mut |node| {
        if let Expr::Var(v) = node {
            out.insert(v.as_str());
        }
    });
    out
}

/// True if the expression reads any variable.
pub fn expr_has_var(e: &Expr) -> bool {
    let mut found = false;
    read_expr(e, &mut |node| found |= matches!(node, Expr::Var(_)));
    found
}

/// True if the expression contains any call (direct or reflective) or
/// allocation — i.e. anything that could have side effects when duplicated.
pub fn expr_has_call(e: &Expr) -> bool {
    let mut found = false;
    read_expr(e, &mut |node| {
        if matches!(node, Expr::Call(_) | Expr::Reflect(_) | Expr::New(_)) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjava::parse;

    fn main_body(src: &str) -> Block {
        let p = parse(&format!(
            "class T {{ int f; static int s; int g(int a) {{ return a; }} static void main() {{ {src} }} }}"
        ))
        .unwrap();
        p.classes[0].methods[1].body.clone()
    }

    #[test]
    fn purity_classification() {
        assert!(expr_is_pure(&Expr::bin(
            BinOp::Add,
            Expr::var("x"),
            Expr::Int(1)
        )));
        assert!(expr_is_pure(&Expr::bin(
            BinOp::Div,
            Expr::var("x"),
            Expr::Int(2)
        )));
        assert!(!expr_is_pure(&Expr::bin(
            BinOp::Div,
            Expr::var("x"),
            Expr::var("y")
        )));
        assert!(!expr_is_pure(&Expr::New("T".into())));
        assert!(expr_is_pure(&Expr::Field(Box::new(Expr::This), "f".into())));
        assert!(!expr_is_pure(&Expr::Field(
            Box::new(Expr::var("t")),
            "f".into()
        )));
        assert!(expr_is_pure(&Expr::UnboxInt(Box::new(Expr::BoxInt(
            Box::new(Expr::Int(1))
        )))));
        assert!(!expr_is_pure(&Expr::UnboxInt(Box::new(Expr::var("b")))));
    }

    #[test]
    fn assigned_and_declared_names() {
        let b = main_body("int x = 0; for (int i = 0; i < 3; i++) { x = x + i; int y = 1; }");
        let assigned = assigned_vars(&b);
        assert!(assigned.contains("x"));
        assert!(assigned.contains("i")); // the update assigns i
        assert_eq!(declared_names(&b), ["x", "i", "y"]);
    }

    #[test]
    fn substitute_var_replaces_reads() {
        let mut b = main_body("int x = i + i * 2;");
        substitute_var(&mut b, "i", &Expr::Int(7));
        let printed = mjava::print_stmt(&b.0[0]);
        assert_eq!(printed.trim(), "int x = 7 + 7 * 2;");
    }

    #[test]
    fn rename_idents_renames_decls_and_uses() {
        let mut b = main_body("int x = 1; x = x + 2; System.out.println(x);");
        let map: HashMap<_, _> = [("x".to_string(), "z9".to_string())].into();
        rename_idents(&mut b, &map);
        let text: String = b.0.iter().map(mjava::print_stmt).collect();
        assert!(!text.contains('x'), "{text}");
        assert!(text.contains("z9 = z9 + 2;"));
    }

    #[test]
    fn qualify_members_rewrites_bare_fields() {
        let p = parse(
            "class T { int f; static int s; void g() { f = f + s; } static void main() { } }",
        )
        .unwrap();
        let class = p.classes[0].clone();
        let mut body = class.methods[0].body.clone();
        let recv = Expr::var("recv0");
        qualify_members(&mut body, &class, Some(&recv), &[]);
        let text = mjava::print_stmt(&body.0[0]);
        assert_eq!(text.trim(), "recv0.f = recv0.f + T.s;");
    }

    #[test]
    fn qualify_members_respects_local_shadowing() {
        let p =
            parse("class T { int f; void g() { int f = 3; f = f + 1; } static void main() { } }")
                .unwrap();
        let class = p.classes[0].clone();
        let mut body = class.methods[0].body.clone();
        qualify_members(&mut body, &class, Some(&Expr::var("r")), &[]);
        let text: String = body.0.iter().map(mjava::print_stmt).collect();
        assert!(
            !text.contains("r.f"),
            "shadowed local must not qualify: {text}"
        );
    }

    #[test]
    fn counted_loop_recognition() {
        let b = main_body("for (int i = 0; i < 10; i++) { s = s + i; }");
        let cl = counted_loop(&b.0[0]).unwrap();
        assert_eq!(cl.var, "i");
        assert_eq!(cl.trip_count(), 10);
        assert_eq!(cl.values().collect::<Vec<_>>()[..3], [0, 1, 2]);

        // Inclusive bound normalizes.
        let b = main_body("for (int i = 2; i <= 8; i = i + 3) { s = s + i; }");
        let cl = counted_loop(&b.0[0]).unwrap();
        assert_eq!(cl.trip_count(), 3); // 2, 5, 8
        assert_eq!(cl.values().collect::<Vec<_>>(), vec![2, 5, 8]);
    }

    #[test]
    fn counted_loop_rejects_mutated_induction_var() {
        let b = main_body("for (int i = 0; i < 10; i++) { i = i + 1; }");
        assert!(counted_loop(&b.0[0]).is_none());
        let b = main_body("int n = 5; for (int i = 0; i < n; i++) { s = s + i; }");
        assert!(counted_loop(&b.0[1]).is_none(), "non-constant bound");
    }

    #[test]
    fn block_size_counts_nested() {
        let b = main_body("if (true) { int a = 1; int b = 2; } else { int c = 3; }");
        assert_eq!(block_size(&b), 4);
    }

    #[test]
    fn count_reads_ignores_writes() {
        let b = main_body("int x = 0; x = x + 1; System.out.println(x);");
        assert_eq!(count_reads(&b, "x"), 2);
    }

    #[test]
    fn expr_has_call_detects() {
        let b = main_body("int x = 1 + new T().g(2);");
        let Stmt::Decl { init: Some(e), .. } = &b.0[0] else {
            panic!()
        };
        assert!(expr_has_call(e));
        assert!(!expr_has_call(&Expr::bin(
            BinOp::Add,
            Expr::var("a"),
            Expr::Int(1)
        )));
    }
}
