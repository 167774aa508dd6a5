//! Abstract syntax for the SQL subset.

use crate::value::SqlValue;

/// A scalar expression in WHERE clauses, SET assignments, and projections.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(SqlValue),
    /// Reference to a column of the current row.
    Column(String),
    /// A [`Expr::Column`] resolved to its position in the table's rows
    /// when a query is prepared; the parser never produces it.
    ColumnAt(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr LIKE 'pat%'` with `%` and `_` wildcards.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern (a literal in this dialect).
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Aggregate functions supported in SELECT projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)` or `COUNT(col)` (non-NULL count).
    Count,
    /// `MAX(col)`.
    Max,
    /// `MIN(col)`.
    Min,
    /// `SUM(col)`.
    Sum,
}

/// One item of a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns.
    Wildcard,
    /// A named column, with optional `AS` alias.
    Column {
        /// Column name.
        name: String,
        /// Output alias (defaults to the column name).
        alias: Option<String>,
    },
    /// An aggregate over a column (`None` column means `COUNT(*)`).
    Agg {
        /// Which aggregate.
        agg: Aggregate,
        /// Aggregated column; `None` only for `COUNT(*)`.
        column: Option<String>,
        /// Output alias (defaults to e.g. `COUNT(*)`).
        alias: Option<String>,
    },
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Column to sort by.
    pub column: String,
    /// True for descending.
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Source table.
    pub table: String,
    /// Optional filter.
    pub where_clause: Option<Expr>,
    /// Sort keys, outermost first.
    pub order_by: Vec<OrderKey>,
    /// Row limit.
    pub limit: Option<u64>,
    /// Rows to skip before the limit.
    pub offset: Option<u64>,
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Column list (must be non-empty in this dialect).
    pub columns: Vec<String>,
    /// One or more value tuples; expressions must be literal-foldable.
    pub rows: Vec<Vec<Expr>>,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// Optional filter.
    pub where_clause: Option<Expr>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Optional filter.
    pub where_clause: Option<Expr>,
}

/// Any statement of the dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(crate::schema::TableSchema),
    /// `INSERT INTO`.
    Insert(Insert),
    /// `SELECT`.
    Select(Select),
    /// `UPDATE`.
    Update(Update),
    /// `DELETE FROM`.
    Delete(Delete),
}

impl Statement {
    /// True for statements that modify table contents or schema.
    pub fn is_write(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }

    /// The table this statement touches (used for read-query
    /// deduplication's table-modification epochs, §4.5).
    pub fn table(&self) -> &str {
        match self {
            Statement::CreateTable(s) => &s.name,
            Statement::Insert(i) => &i.table,
            Statement::Select(s) => &s.table,
            Statement::Update(u) => &u.table,
            Statement::Delete(d) => &d.table,
        }
    }
}

impl Expr {
    /// Collects every column name referenced by the expression.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal(_) | Expr::ColumnAt(_) => {}
            Expr::Column(c) => out.push(c.clone()),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for item in list {
                    item.collect_columns(out);
                }
            }
            Expr::Like { expr, .. } => expr.collect_columns(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_write_classification() {
        let sel = Statement::Select(Select {
            items: vec![SelectItem::Wildcard],
            table: "t".into(),
            where_clause: None,
            order_by: vec![],
            limit: None,
            offset: None,
        });
        assert!(!sel.is_write());
        let del = Statement::Delete(Delete {
            table: "t".into(),
            where_clause: None,
        });
        assert!(del.is_write());
        assert_eq!(del.table(), "t");
    }

    #[test]
    fn collect_columns_walks_nested() {
        let e = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(Expr::Column("a".into())),
                rhs: Box::new(Expr::Literal(SqlValue::Int(1))),
            }),
            rhs: Box::new(Expr::InList {
                expr: Box::new(Expr::Column("b".into())),
                list: vec![Expr::Column("c".into())],
                negated: false,
            }),
        };
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec!["a", "b", "c"]);
    }
}
