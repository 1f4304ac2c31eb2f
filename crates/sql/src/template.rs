//! Query template extraction (Definition 5 of the paper).
//!
//! The template of a query is its AST with every fragment — table, column,
//! function name, literal — replaced by the placeholders `Table`, `Column`,
//! `Function`, `Literal`, and with aliases removed. Structurally identical
//! queries that differ only in which tables/columns/constants they touch
//! therefore share a template, which is exactly what the paper's template
//! classification task needs.

use crate::ast::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

/// Placeholder spelling for tables.
pub const TABLE_PLACEHOLDER: &str = "Table";
/// Placeholder spelling for columns.
pub const COLUMN_PLACEHOLDER: &str = "Column";
/// Placeholder spelling for function names.
pub const FUNCTION_PLACEHOLDER: &str = "Function";
/// Placeholder spelling for literals.
pub const LITERAL_PLACEHOLDER: &str = "Literal";

/// A query template: the placeholder-ised statement in canonical form.
///
/// Templates are value types — equality and hashing are on the canonical
/// statement string, so they can key maps and act as classification labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Template {
    statement: String,
}

impl Template {
    /// The canonical template statement, e.g.
    /// `SELECT Column, Function(Column) FROM Table WHERE Column = Literal`.
    pub fn statement(&self) -> &str {
        &self.statement
    }

    /// A stable 64-bit identifier derived from the statement.
    pub fn id(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.statement.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.statement)
    }
}

/// Extract the template of `query` (Definition 5).
pub fn template(query: &Query) -> Template {
    let mut q = query.clone();
    template_query(&mut q);
    Template {
        statement: q.to_string(),
    }
}

/// The id of `query`'s template — [`Template::id`] of
/// [`template`]`(&query)` — without the copy of the AST or the
/// statement string: the owned query is placeholder-ised in place and
/// its print streamed into the hasher, the bytes and then the `0xff`
/// terminator that hashing a `str` appends.
pub fn template_id(mut query: Query) -> u64 {
    template_query(&mut query);
    let mut h = HashWriter(DefaultHasher::new());
    // Writing to a hasher cannot fail, and the AST's `Display` returns
    // only the errors its sink raises.
    let _ = write!(h, "{query}");
    h.0.write_u8(0xff);
    h.0.finish()
}

/// A `fmt::Write` sink that feeds every byte to a hasher.
struct HashWriter(DefaultHasher);

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Extract the template and also return the placeholder-ised AST.
pub fn template_ast(query: &Query) -> (Template, Query) {
    let mut q = query.clone();
    template_query(&mut q);
    let t = Template {
        statement: q.to_string(),
    };
    (t, q)
}

fn template_query(q: &mut Query) {
    for cte in &mut q.with {
        cte.name = TABLE_PLACEHOLDER.to_string();
        template_query(&mut cte.query);
    }
    template_set_expr(&mut q.body);
    for o in &mut q.order_by {
        template_expr(&mut o.expr);
    }
    if let Some(l) = &mut q.limit {
        template_expr(l);
    }
    if let Some(off) = &mut q.offset {
        template_expr(off);
    }
}

fn template_set_expr(b: &mut SetExpr) {
    match b {
        SetExpr::Select(s) => template_select(s),
        SetExpr::SetOp { left, right, .. } => {
            template_set_expr(left);
            template_set_expr(right);
        }
    }
}

fn template_select(s: &mut Select) {
    if let Some(top) = &mut s.top {
        template_expr(top);
    }
    for item in &mut s.projection {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::QualifiedWildcard(t) => *t = TABLE_PLACEHOLDER.to_string(),
            SelectItem::Expr { expr, alias } => {
                template_expr(expr);
                *alias = None;
            }
        }
    }
    for t in &mut s.from {
        template_table_ref(t);
    }
    if let Some(w) = &mut s.selection {
        template_expr(w);
    }
    for g in &mut s.group_by {
        template_expr(g);
    }
    if let Some(h) = &mut s.having {
        template_expr(h);
    }
}

fn template_table_ref(t: &mut TableRef) {
    match t {
        TableRef::Named { name, alias } => {
            *name = vec![TABLE_PLACEHOLDER.to_string()];
            *alias = None;
        }
        TableRef::Derived { subquery, alias } => {
            template_query(subquery);
            *alias = None;
        }
        TableRef::Join {
            left, right, on, ..
        } => {
            template_table_ref(left);
            template_table_ref(right);
            if let Some(on) = on {
                template_expr(on);
            }
        }
    }
}

fn template_expr(e: &mut Expr) {
    match e {
        Expr::Column(c) => {
            // Keep existing placeholders intact so templating is idempotent
            // (template statements re-parse with `Literal` as a bare ident).
            if c.table.is_none() && c.column == LITERAL_PLACEHOLDER {
                return;
            }
            *e = Expr::Column(ColumnRef::bare(COLUMN_PLACEHOLDER));
        }
        Expr::Literal(_) => {
            // Render literal placeholders as a bare identifier so the
            // template statement reads `… LIKE Literal` (Figure 5).
            *e = Expr::Column(ColumnRef::bare(LITERAL_PLACEHOLDER));
        }
        Expr::Wildcard => {}
        Expr::Binary { left, right, .. } => {
            template_expr(left);
            template_expr(right);
        }
        Expr::Unary { expr, .. } | Expr::Nested(expr) | Expr::IsNull { expr, .. } => {
            template_expr(expr)
        }
        Expr::Cast { expr, .. } => {
            // CAST is structural (it keeps its AS type), matching Figure 5's
            // `Function(Column AS VARCHAR)` reading of templates: the type
            // survives, the inner fragments do not.
            template_expr(expr);
        }
        Expr::Function { name, args, .. } => {
            *name = FUNCTION_PLACEHOLDER.to_string();
            for a in args {
                template_expr(a);
            }
        }
        Expr::Case {
            operand,
            arms,
            else_result,
        } => {
            if let Some(op) = operand {
                template_expr(op);
            }
            for (w, t) in arms {
                template_expr(w);
                template_expr(t);
            }
            if let Some(el) = else_result {
                template_expr(el);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            template_expr(expr);
            template_expr(low);
            template_expr(high);
        }
        Expr::InList { expr, list, .. } => {
            template_expr(expr);
            for i in list {
                template_expr(i);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            template_expr(expr);
            template_query(subquery);
        }
        Expr::Exists { subquery, .. } => template_query(subquery),
        Expr::Subquery(q) => template_query(q),
        Expr::Like { expr, pattern, .. } => {
            template_expr(expr);
            template_expr(pattern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn tpl(sql: &str) -> String {
        template(&parse(sql).unwrap()).statement().to_string()
    }

    #[test]
    fn paper_figure_5_shape() {
        let t = tpl("SELECT j.target, CAST(j.estimate AS VARCHAR) AS estimate \
             FROM Jobs j, Status s WHERE j.queue = 'FULL' AND j.outputtype LIKE '%QUERY%'");
        assert_eq!(
            t,
            "SELECT Column, CAST(Column AS VARCHAR) FROM Table, Table \
             WHERE Column = Literal AND Column LIKE Literal"
        );
    }

    #[test]
    fn structurally_equal_queries_share_template() {
        let a = tpl("SELECT ra FROM SpecObj WHERE z > 0.3");
        let b = tpl("SELECT g FROM PhotoObj WHERE r > 17");
        assert_eq!(a, b);
    }

    #[test]
    fn template_invariant_under_aliases() {
        let a = tpl("SELECT j.target FROM Jobs j");
        let b = tpl("SELECT target FROM Jobs");
        assert_eq!(a, b);
        assert_eq!(a, "SELECT Column FROM Table");
    }

    #[test]
    fn template_invariant_under_projection_alias() {
        assert_eq!(tpl("SELECT a AS x FROM t"), tpl("SELECT a FROM t"));
    }

    #[test]
    fn different_structure_different_template() {
        assert_ne!(tpl("SELECT a FROM t"), tpl("SELECT a, b FROM t"));
        assert_ne!(tpl("SELECT a FROM t"), tpl("SELECT DISTINCT a FROM t"));
        assert_ne!(tpl("SELECT a FROM t"), tpl("SELECT a FROM t WHERE a = 1"));
        assert_ne!(
            tpl("SELECT a FROM t WHERE a = 1"),
            tpl("SELECT a FROM t WHERE a > 1")
        );
    }

    #[test]
    fn nested_query_templates() {
        let t = tpl("SELECT x FROM (SELECT DISTINCT g AS x FROM e) d WHERE x > 5");
        assert_eq!(
            t,
            "SELECT Column FROM (SELECT DISTINCT Column FROM Table) WHERE Column > Literal"
        );
    }

    #[test]
    fn functions_become_placeholder() {
        assert_eq!(
            tpl("SELECT COUNT(DISTINCT gene) FROM e GROUP BY type"),
            "SELECT Function(DISTINCT Column) FROM Table GROUP BY Column"
        );
    }

    #[test]
    fn top_and_limit_literals_placeholderised() {
        assert_eq!(
            tpl("SELECT TOP 10 a FROM t"),
            "SELECT TOP Literal Column FROM Table"
        );
        assert_eq!(
            tpl("SELECT a FROM t LIMIT 5 OFFSET 2"),
            "SELECT Column FROM Table LIMIT Literal OFFSET Literal"
        );
    }

    #[test]
    fn qualified_wildcard_uses_table_placeholder() {
        assert_eq!(tpl("SELECT t.* FROM t"), "SELECT Table.* FROM Table");
    }

    #[test]
    fn template_id_stable_and_distinct() {
        let a = template(&parse("SELECT a FROM t").unwrap());
        let b = template(&parse("SELECT x FROM y").unwrap());
        let c = template(&parse("SELECT x, y FROM y").unwrap());
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn template_id_equals_the_statement_hash() {
        for sql in [
            "SELECT a FROM t",
            "SELECT j.target, CAST(j.estimate AS VARCHAR) AS e FROM Jobs j WHERE j.q = 'FULL'",
            "WITH hot AS (SELECT objid FROM SpecObj) SELECT x FROM hot ORDER BY x LIMIT 3",
            "SELECT [my col], \"x y\" FROM [t.csv] WHERE z LIKE '%é''∑%'",
        ] {
            let q = parse(sql).unwrap();
            assert_eq!(template_id(q.clone()), template(&q).id(), "{sql}");
        }
    }

    #[test]
    fn template_statement_reparses() {
        // Template statements remain valid SQL in our dialect.
        for sql in [
            "SELECT TOP 3 a, COUNT(*) FROM t JOIN u ON t.x = u.y WHERE a LIKE 'z%' \
             GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC",
            "SELECT a FROM t UNION SELECT b FROM u",
            "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
        ] {
            let t = tpl(sql);
            parse(&t).unwrap_or_else(|e| panic!("template {t:?} must reparse: {e}"));
        }
    }

    #[test]
    fn cte_templates() {
        let a = tpl("WITH hot AS (SELECT objid FROM SpecObj) SELECT x FROM hot");
        let b = tpl("WITH recent AS (SELECT id FROM Jobs) SELECT y FROM recent");
        assert_eq!(a, b);
        assert_eq!(
            a,
            "WITH Table AS (SELECT Column FROM Table) SELECT Column FROM Table"
        );
    }

    #[test]
    fn template_is_idempotent() {
        let sql = "SELECT j.target, CAST(j.estimate AS VARCHAR) FROM Jobs j WHERE j.q = 1";
        let t1 = tpl(sql);
        let t2 = tpl(&t1);
        assert_eq!(t1, t2);
    }
}
