//! Query normalisation: alias resolution and literal canonicalisation.
//!
//! The paper's pre-processing (Section 5.4.1) replaces table aliases with
//! the table name they bind ("aliases encode implicit information about
//! the schema and intent, so we replaced aliases with the corresponding
//! table name") and replaces numeric literals with a `<NUM>` token to
//! bound the vocabulary. [`resolve_aliases`] implements the former on the
//! AST; [`normalize_numbers`] the latter.

use crate::ast::*;
use std::collections::HashMap;

/// Rewrite `query` so that every column qualifier that names an alias
/// refers to the aliased table instead, and drop the alias definitions on
/// named tables. Derived-table aliases are kept (they have no table name
/// to resolve to) and qualifiers that reference them are left untouched.
///
/// Scoping: inner queries see their own aliases first, then the enclosing
/// scopes (correlated subqueries resolve through the outer query).
pub fn resolve_aliases(query: &Query) -> Query {
    let mut q = query.clone();
    resolve_aliases_in_place(&mut q);
    q
}

/// [`resolve_aliases`] on an owned query, without the copy.
pub fn resolve_aliases_in_place(query: &mut Query) {
    rewrite_query(query, &AliasScope::root());
}

/// Replace every numeric literal in the query with `0` rendered as the
/// canonical `<NUM>` marker value. Because [`crate::fragments`] and
/// [`crate::tokenize`] already collapse numbers on their own, this pass is
/// only needed when callers want an AST-level canonical form (e.g. for
/// deduplicating queries that differ only in constants).
pub fn normalize_numbers(query: &Query) -> Query {
    let mut q = query.clone();
    map_literals(&mut q, &mut |l| {
        if let Literal::Number(n) = l {
            *n = "0".to_string();
        }
    });
    q
}

/// One level of alias bindings plus a parent pointer.
struct AliasScope<'a> {
    bindings: HashMap<String, Vec<String>>,
    parent: Option<&'a AliasScope<'a>>,
}

impl<'a> AliasScope<'a> {
    fn root() -> Self {
        AliasScope {
            bindings: HashMap::new(),
            parent: None,
        }
    }

    fn child(&'a self) -> AliasScope<'a> {
        AliasScope {
            bindings: HashMap::new(),
            parent: Some(self),
        }
    }

    fn resolve(&self, alias: &str) -> Option<&[String]> {
        match self.bindings.get(alias) {
            Some(name) => Some(name),
            None => self.parent.and_then(|p| p.resolve(alias)),
        }
    }
}

fn collect_bindings(t: &TableRef, scope: &mut AliasScope<'_>) {
    match t {
        TableRef::Named {
            name,
            alias: Some(alias),
        } => {
            scope.bindings.insert(alias.clone(), name.clone());
        }
        TableRef::Named { .. } | TableRef::Derived { .. } => {}
        TableRef::Join { left, right, .. } => {
            collect_bindings(left, scope);
            collect_bindings(right, scope);
        }
    }
}

fn rewrite_query(q: &mut Query, outer: &AliasScope<'_>) {
    for cte in &mut q.with {
        rewrite_query(&mut cte.query, outer);
    }
    rewrite_set_expr(&mut q.body, outer);
    // ORDER BY / LIMIT resolve in the scope of the left-most select; for
    // alias purposes use the union of all top-level FROM bindings, which
    // rewrite_set_expr has already applied to the body. Order-by aliases of
    // *tables* are rare; resolve against the outer scope only.
    for o in &mut q.order_by {
        rewrite_expr(&mut o.expr, outer);
    }
    if let Some(l) = &mut q.limit {
        rewrite_expr(l, outer);
    }
    if let Some(off) = &mut q.offset {
        rewrite_expr(off, outer);
    }
}

fn rewrite_set_expr(body: &mut SetExpr, outer: &AliasScope<'_>) {
    match body {
        SetExpr::Select(s) => rewrite_select(s, outer),
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set_expr(left, outer);
            rewrite_set_expr(right, outer);
        }
    }
}

fn rewrite_select(s: &mut Select, outer: &AliasScope<'_>) {
    let mut scope = outer.child();
    for t in &s.from {
        collect_bindings(t, &mut scope);
    }

    for t in &mut s.from {
        rewrite_table_ref(t, &scope);
    }
    if let Some(top) = &mut s.top {
        rewrite_expr(top, &scope);
    }
    for item in &mut s.projection {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::QualifiedWildcard(q) => {
                if let Some(name) = scope.resolve(q) {
                    if let Some(last) = name.last() {
                        *q = last.clone();
                    }
                }
            }
            SelectItem::Expr { expr, .. } => rewrite_expr(expr, &scope),
        }
    }
    if let Some(w) = &mut s.selection {
        rewrite_expr(w, &scope);
    }
    for g in &mut s.group_by {
        rewrite_expr(g, &scope);
    }
    if let Some(h) = &mut s.having {
        rewrite_expr(h, &scope);
    }
}

fn rewrite_table_ref(t: &mut TableRef, scope: &AliasScope<'_>) {
    match t {
        TableRef::Named { alias, .. } => {
            // Drop the alias: downstream consumers see the real name.
            *alias = None;
        }
        TableRef::Derived { subquery, .. } => {
            rewrite_query(subquery, scope);
        }
        TableRef::Join {
            left, right, on, ..
        } => {
            rewrite_table_ref(left, scope);
            rewrite_table_ref(right, scope);
            if let Some(on) = on {
                rewrite_expr(on, scope);
            }
        }
    }
}

fn rewrite_expr(e: &mut Expr, scope: &AliasScope<'_>) {
    match e {
        Expr::Column(c) => {
            if let Some(q) = &c.table {
                if let Some(name) = scope.resolve(q) {
                    if let Some(last) = name.last() {
                        c.table = Some(last.clone());
                    }
                }
            }
        }
        Expr::Binary { left, right, .. } => {
            rewrite_expr(left, scope);
            rewrite_expr(right, scope);
        }
        Expr::Unary { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Nested(expr)
        | Expr::IsNull { expr, .. } => rewrite_expr(expr, scope),
        Expr::Function { args, .. } => {
            for a in args {
                rewrite_expr(a, scope);
            }
        }
        Expr::Case {
            operand,
            arms,
            else_result,
        } => {
            if let Some(op) = operand {
                rewrite_expr(op, scope);
            }
            for (w, t) in arms {
                rewrite_expr(w, scope);
                rewrite_expr(t, scope);
            }
            if let Some(el) = else_result {
                rewrite_expr(el, scope);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            rewrite_expr(expr, scope);
            rewrite_expr(low, scope);
            rewrite_expr(high, scope);
        }
        Expr::InList { expr, list, .. } => {
            rewrite_expr(expr, scope);
            for i in list {
                rewrite_expr(i, scope);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            rewrite_expr(expr, scope);
            rewrite_query(subquery, scope);
        }
        Expr::Exists { subquery, .. } => rewrite_query(subquery, scope),
        Expr::Subquery(q) => rewrite_query(q, scope),
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr(expr, scope);
            rewrite_expr(pattern, scope);
        }
        Expr::Literal(_) | Expr::Wildcard => {}
    }
}

/// Apply `f` to every literal in the query, recursing into subqueries.
fn map_literals(q: &mut Query, f: &mut impl FnMut(&mut Literal)) {
    fn expr(e: &mut Expr, f: &mut impl FnMut(&mut Literal)) {
        match e {
            Expr::Literal(l) => f(l),
            Expr::Binary { left, right, .. } => {
                expr(left, f);
                expr(right, f);
            }
            Expr::Unary { expr: x, .. }
            | Expr::Cast { expr: x, .. }
            | Expr::Nested(x)
            | Expr::IsNull { expr: x, .. } => expr(x, f),
            Expr::Function { args, .. } => {
                for a in args {
                    expr(a, f);
                }
            }
            Expr::Case {
                operand,
                arms,
                else_result,
            } => {
                if let Some(op) = operand {
                    expr(op, f);
                }
                for (w, t) in arms {
                    expr(w, f);
                    expr(t, f);
                }
                if let Some(el) = else_result {
                    expr(el, f);
                }
            }
            Expr::Between {
                expr: x, low, high, ..
            } => {
                expr(x, f);
                expr(low, f);
                expr(high, f);
            }
            Expr::InList { expr: x, list, .. } => {
                expr(x, f);
                for i in list {
                    expr(i, f);
                }
            }
            Expr::InSubquery {
                expr: x, subquery, ..
            } => {
                expr(x, f);
                map_literals(subquery, f);
            }
            Expr::Exists { subquery, .. } => map_literals(subquery, f),
            Expr::Subquery(q) => map_literals(q, f),
            Expr::Like {
                expr: x, pattern, ..
            } => {
                expr(x, f);
                expr(pattern, f);
            }
            Expr::Column(_) | Expr::Wildcard => {}
        }
    }
    fn set_expr(b: &mut SetExpr, f: &mut impl FnMut(&mut Literal)) {
        match b {
            SetExpr::Select(s) => {
                if let Some(top) = &mut s.top {
                    expr(top, f);
                }
                for item in &mut s.projection {
                    if let SelectItem::Expr { expr: e, .. } = item {
                        expr(e, f);
                    }
                }
                for t in &mut s.from {
                    table(t, f);
                }
                if let Some(w) = &mut s.selection {
                    expr(w, f);
                }
                for g in &mut s.group_by {
                    expr(g, f);
                }
                if let Some(h) = &mut s.having {
                    expr(h, f);
                }
            }
            SetExpr::SetOp { left, right, .. } => {
                set_expr(left, f);
                set_expr(right, f);
            }
        }
    }
    fn table(t: &mut TableRef, f: &mut impl FnMut(&mut Literal)) {
        match t {
            TableRef::Named { .. } => {}
            TableRef::Derived { subquery, .. } => map_literals(subquery, f),
            TableRef::Join {
                left, right, on, ..
            } => {
                table(left, f);
                table(right, f);
                if let Some(on) = on {
                    expr(on, f);
                }
            }
        }
    }
    for cte in &mut q.with {
        map_literals(&mut cte.query, f);
    }
    set_expr(&mut q.body, f);
    for o in &mut q.order_by {
        expr(&mut o.expr, f);
    }
    if let Some(l) = &mut q.limit {
        expr(l, f);
    }
    if let Some(off) = &mut q.offset {
        expr(off, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn aliases_resolve_to_table_names() {
        let q = parse("SELECT j.target FROM Jobs j WHERE j.queue = 'FULL'").unwrap();
        let r = resolve_aliases(&q);
        assert_eq!(
            r.to_string(),
            "SELECT Jobs.target FROM Jobs WHERE Jobs.queue = 'FULL'"
        );
    }

    #[test]
    fn join_aliases_resolve() {
        let q =
            parse("SELECT s.ra, p.g FROM SpecObj s JOIN PhotoObj p ON s.objid = p.objid").unwrap();
        let r = resolve_aliases(&q);
        assert_eq!(
            r.to_string(),
            "SELECT SpecObj.ra, PhotoObj.g FROM SpecObj INNER JOIN PhotoObj ON \
             SpecObj.objid = PhotoObj.objid"
        );
    }

    #[test]
    fn correlated_subquery_sees_outer_alias() {
        let q = parse(
            "SELECT 1 FROM Jobs j WHERE EXISTS (SELECT 1 FROM Status WHERE status = j.queue)",
        )
        .unwrap();
        let r = resolve_aliases(&q);
        assert!(r.to_string().contains("= Jobs.queue"));
    }

    #[test]
    fn inner_alias_shadows_outer() {
        let q = parse("SELECT 1 FROM Jobs t WHERE EXISTS (SELECT t.x FROM Other t WHERE t.x > 0)")
            .unwrap();
        let r = resolve_aliases(&q);
        // Inner t binds Other, so both inner references resolve to Other.
        let s = r.to_string();
        assert!(
            s.contains("SELECT Other.x FROM Other WHERE Other.x > 0"),
            "{s}"
        );
    }

    #[test]
    fn derived_table_alias_kept() {
        let q = parse("SELECT d.x FROM (SELECT gene AS x FROM e) d").unwrap();
        let r = resolve_aliases(&q);
        let s = r.to_string();
        // d has no table name; the qualifier and the alias survive.
        assert!(s.contains("d.x"), "{s}");
        assert!(s.contains(") AS d"), "{s}");
    }

    #[test]
    fn dotted_alias_resolves_to_last_segment() {
        let q = parse("SELECT p.ra FROM BestDR7.dbo.PhotoObjAll p").unwrap();
        let r = resolve_aliases(&q);
        assert!(r.to_string().starts_with("SELECT PhotoObjAll.ra"));
    }

    #[test]
    fn qualified_wildcard_resolves() {
        let q = parse("SELECT j.* FROM Jobs j").unwrap();
        let r = resolve_aliases(&q);
        assert_eq!(r.to_string(), "SELECT Jobs.* FROM Jobs");
    }

    #[test]
    fn unaliased_query_is_unchanged() {
        let q = parse("SELECT a, b FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2").unwrap();
        assert_eq!(resolve_aliases(&q), q);
    }

    #[test]
    fn normalize_numbers_zeroes_constants() {
        let q = parse("SELECT TOP 5 x FROM t WHERE a > 17 AND b = 'keep' LIMIT 9").unwrap();
        let n = normalize_numbers(&q);
        let s = n.to_string();
        assert!(s.contains("TOP 0") && s.contains("> 0") && s.contains("LIMIT 0"));
        assert!(s.contains("'keep'"));
    }

    #[test]
    fn resolve_is_idempotent() {
        let q = parse("SELECT j.target FROM Jobs j, Status s WHERE s.ok = j.queue").unwrap();
        let once = resolve_aliases(&q);
        let twice = resolve_aliases(&once);
        assert_eq!(once, twice);
    }
}
