//! Abstract syntax tree for the `qrec` SQL dialect.
//!
//! The AST is deliberately close to the grammar the SDSS / SQLShare
//! workloads exercise: single `SELECT` statements with joins, derived
//! tables, scalar and `IN`/`EXISTS` subqueries, set operations, grouping,
//! `TOP`/`LIMIT`, `CASE`, and `CAST`. Templates (Definition 5 of the paper)
//! are derived from this tree by [`mod@crate::template`].

use serde::{Deserialize, Serialize};

/// A reference to a column, optionally qualified: `t.x` or `x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Optional table-or-alias qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Numeric literal, verbatim text (`3`, `0.17`, `1e9`).
    Number(String),
    /// String literal (quotes stripped).
    String(String),
    /// `TRUE` / `FALSE`.
    Boolean(bool),
    /// `NULL`.
    Null,
}

/// Binary operators, including comparisons and logical connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Concat,
    And,
    Or,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Neg,
    Pos,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// `*` inside `COUNT(*)`.
    Wildcard,
    /// `left op right`.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `op expr`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call `name(args)`, optionally `name(DISTINCT arg)`.
    Function {
        /// Function name as written (case preserved).
        name: String,
        /// Argument expressions. `COUNT(*)` has a single [`Expr::Wildcard`].
        args: Vec<Expr>,
        /// Whether `DISTINCT` appears before the arguments.
        distinct: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Expression being cast.
        expr: Box<Expr>,
        /// Target type name, e.g. `VARCHAR`, `FLOAT`.
        data_type: String,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Optional operand for the simple-CASE form.
        operand: Option<Box<Expr>>,
        /// `(when, then)` arms.
        arms: Vec<(Expr, Expr)>,
        /// Optional `ELSE` result.
        else_result: Option<Box<Expr>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (list…)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT IN`.
        negated: bool,
        /// The list of candidate expressions.
        list: Vec<Expr>,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT IN`.
        negated: bool,
        /// The subquery.
        subquery: Box<Query>,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// True for `NOT EXISTS`.
        negated: bool,
        /// The subquery.
        subquery: Box<Query>,
    },
    /// A scalar subquery `(SELECT …)` used as an expression.
    Subquery(Box<Query>),
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
        /// Pattern expression (usually a string literal).
        pattern: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Explicit parentheses, preserved so printing round-trips.
    Nested(Box<Expr>),
}

/// One item of the `SELECT` projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// Bare `*`.
    Wildcard,
    /// `t.*`.
    QualifiedWildcard(String),
    /// `expr [AS alias]`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

impl JoinKind {
    /// SQL spelling, e.g. `LEFT JOIN`.
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT JOIN",
            JoinKind::Right => "RIGHT JOIN",
            JoinKind::Full => "FULL JOIN",
            JoinKind::Cross => "CROSS JOIN",
        }
    }
}

/// A table expression in the `FROM` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// A named table, optionally `db.schema.table`-qualified and aliased.
    Named {
        /// Dotted name parts; last element is the table name.
        name: Vec<String>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesised subquery with an optional alias.
    Derived {
        /// The subquery.
        subquery: Box<Query>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `left <kind> JOIN right [ON predicate]`.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// Right input.
        right: Box<TableRef>,
        /// `ON` predicate; `None` for `CROSS JOIN`.
        on: Option<Expr>,
    },
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByItem {
    /// The sort expression.
    pub expr: Expr,
    /// `None` (unspecified), `Some(true)` for `ASC`, `Some(false)` for `DESC`.
    pub ascending: Option<bool>,
}

/// The core `SELECT … FROM … WHERE … GROUP BY … HAVING …` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `TOP n` (SQL Server style), if present.
    pub top: Option<Expr>,
    /// Projection list; never empty after parsing.
    pub projection: Vec<SelectItem>,
    /// `FROM` items (comma-separated); empty for `SELECT 1`-style queries.
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// Set operations combining two query bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SetOp {
    Union,
    UnionAll,
    Except,
    Intersect,
}

impl SetOp {
    /// SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            SetOp::Union => "UNION",
            SetOp::UnionAll => "UNION ALL",
            SetOp::Except => "EXCEPT",
            SetOp::Intersect => "INTERSECT",
        }
    }
}

/// A query body: either a plain `SELECT` or a set operation over two bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SetExpr {
    /// Plain select block.
    Select(Box<Select>),
    /// `left OP right`.
    SetOp {
        /// Left body.
        left: Box<SetExpr>,
        /// Which set operation.
        op: SetOp,
        /// Right body.
        right: Box<SetExpr>,
    },
}

/// A common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cte {
    /// The binding name.
    pub name: String,
    /// The defining query.
    pub query: Query,
}

/// A complete query: optional CTEs, body, `ORDER BY` / `LIMIT` / `OFFSET`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// `WITH` common table expressions, in declaration order.
    #[serde(default)]
    pub with: Vec<Cte>,
    /// The body.
    pub body: SetExpr,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n`.
    pub limit: Option<Expr>,
    /// `OFFSET n`.
    pub offset: Option<Expr>,
}

/// Visitor-style traversal helpers used by fragment and template extraction.
impl Expr {
    /// Call `f` on this expression and every sub-expression (pre-order).
    /// Subqueries are *not* entered; callers that need to recurse into
    /// queries handle [`Expr::Subquery`] and friends themselves.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Nested(expr)
            | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                operand,
                arms,
                else_result,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in arms {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_result {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Exists { .. } | Expr::Subquery(_) => {}
        }
    }

    /// Every embedded subquery directly inside this expression tree.
    pub fn subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.walk(&mut |e| match e {
            Expr::InSubquery { subquery, .. } => out.push(subquery.as_ref()),
            Expr::Exists { subquery, .. } => out.push(subquery.as_ref()),
            Expr::Subquery(q) => out.push(q.as_ref()),
            _ => {}
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_constructors() {
        assert_eq!(
            ColumnRef::bare("x"),
            ColumnRef {
                table: None,
                column: "x".into()
            }
        );
        assert_eq!(
            ColumnRef::qualified("t", "x"),
            ColumnRef {
                table: Some("t".into()),
                column: "x".into()
            }
        );
    }

    #[test]
    fn walk_visits_all_nodes() {
        // (a + 1) AND b LIKE 'x%'
        let e = Expr::Binary {
            left: Box::new(Expr::Nested(Box::new(Expr::Binary {
                left: Box::new(Expr::Column(ColumnRef::bare("a"))),
                op: BinaryOp::Plus,
                right: Box::new(Expr::Literal(Literal::Number("1".into()))),
            }))),
            op: BinaryOp::And,
            right: Box::new(Expr::Like {
                expr: Box::new(Expr::Column(ColumnRef::bare("b"))),
                negated: false,
                pattern: Box::new(Expr::Literal(Literal::String("x%".into()))),
            }),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 8);
    }

    #[test]
    fn subqueries_collects_all_kinds() {
        let sub = Query {
            with: vec![],
            body: SetExpr::Select(Box::new(Select {
                distinct: false,
                top: None,
                projection: vec![SelectItem::Wildcard],
                from: vec![],
                selection: None,
                group_by: vec![],
                having: None,
            })),
            order_by: vec![],
            limit: None,
            offset: None,
        };
        let e = Expr::Binary {
            left: Box::new(Expr::InSubquery {
                expr: Box::new(Expr::Column(ColumnRef::bare("x"))),
                negated: false,
                subquery: Box::new(sub.clone()),
            }),
            op: BinaryOp::And,
            right: Box::new(Expr::Exists {
                negated: true,
                subquery: Box::new(sub),
            }),
        };
        assert_eq!(e.subqueries().len(), 2);
    }
}
