//! Recursive-descent parser for the SQL subset.

use crate::ast::{
    Aggregate, BinOp, Delete, Expr, Insert, OrderKey, Select, SelectItem, Statement, Update,
};
use crate::lexer::{tokenize, LexError, Token};
use crate::schema::{ColumnDef, ColumnType, TableSchema};
use crate::value::SqlValue;
use std::fmt;

/// Parse error: lexical or syntactic.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenizer failure.
    Lex(LexError),
    /// Grammar failure with a description and token position.
    Syntax {
        /// Token index of the failure.
        at: usize,
        /// Description of what was expected.
        message: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax { at, message } => {
                write!(f, "syntax error at token {at}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a single SQL statement.
///
/// # Examples
///
/// ```
/// use orochi_sqldb::parse_statement;
///
/// let stmt = parse_statement("SELECT id, title FROM pages WHERE id = 3 LIMIT 1").unwrap();
/// assert!(!stmt.is_write());
/// assert_eq!(stmt.table(), "pages");
/// ```
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    // Allow one optional trailing semicolon.
    if p.peek_sym(";") {
        p.pos += 1;
    }
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Deepest expression the parser builds. Each parenthesis, `NOT`, unary
/// minus and chained binary operator takes one level, so the bound caps
/// the AST's depth and with it the recursion of the parser, of
/// evaluation and of the AST's drop: a text nested deeper fails to
/// parse, however long. The apps' texts nest at most a few levels.
pub const MAX_EXPR_DEPTH: u32 = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression levels open at `pos`, at most [`MAX_EXPR_DEPTH`].
    depth: u32,
}

impl Parser {
    /// Opens one more expression level, failing past [`MAX_EXPR_DEPTH`].
    /// The caller closes it with [`Parser::close`] (a failed parse never
    /// resumes, so an error path need not).
    fn open(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn close(&mut self, levels: u32) {
        self.depth -= levels;
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn peek_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Token::Sym(s)) if *s == sym)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek_sym(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{sym}'")))
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Word(w)) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select_body()?));
        }
        if self.eat_kw("INSERT") {
            return Ok(Statement::Insert(self.insert_body()?));
        }
        if self.eat_kw("UPDATE") {
            return Ok(Statement::Update(self.update_body()?));
        }
        if self.eat_kw("DELETE") {
            return Ok(Statement::Delete(self.delete_body()?));
        }
        if self.eat_kw("CREATE") {
            self.expect_kw("TABLE")?;
            return Ok(Statement::CreateTable(self.create_body()?));
        }
        Err(self.err("expected SELECT, INSERT, UPDATE, DELETE, or CREATE TABLE"))
    }

    fn create_body(&mut self) -> Result<TableSchema, ParseError> {
        let name = self.identifier()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        let mut indexes = Vec::new();
        loop {
            if self.eat_kw("INDEX") {
                self.expect_sym("(")?;
                indexes.push(self.identifier()?);
                self.expect_sym(")")?;
            } else {
                let col_name = self.identifier()?;
                let ty_word = self.identifier()?;
                let ty = match ty_word.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" | "BIGINT" => ColumnType::Int,
                    "FLOAT" | "DOUBLE" | "REAL" => ColumnType::Float,
                    "TEXT" => ColumnType::Text,
                    "VARCHAR" => {
                        // Optional length argument: VARCHAR(255).
                        if self.eat_sym("(") {
                            match self.peek() {
                                Some(Token::Int(_)) => self.pos += 1,
                                _ => return Err(self.err("expected length in VARCHAR(..)")),
                            }
                            self.expect_sym(")")?;
                        }
                        ColumnType::Text
                    }
                    other => return Err(self.err(format!("unknown column type {other}"))),
                };
                let mut primary_key = false;
                let mut auto_increment = false;
                loop {
                    if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        primary_key = true;
                    } else if self.eat_kw("AUTO_INCREMENT") {
                        auto_increment = true;
                    } else if self.eat_kw("NOT") {
                        // NOT NULL accepted and ignored (all our inserts
                        // are explicit).
                        self.expect_kw("NULL")?;
                    } else {
                        break;
                    }
                }
                if auto_increment && ty != ColumnType::Int {
                    return Err(self.err("AUTO_INCREMENT requires an INT column"));
                }
                columns.push(ColumnDef {
                    name: col_name,
                    ty,
                    primary_key,
                    auto_increment,
                });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        if columns.is_empty() {
            return Err(self.err("table must have at least one column"));
        }
        if columns.iter().filter(|c| c.primary_key).count() > 1 {
            return Err(self.err("at most one PRIMARY KEY column"));
        }
        if columns.iter().any(|c| c.auto_increment && !c.primary_key) {
            return Err(self.err("AUTO_INCREMENT only on the PRIMARY KEY"));
        }
        Ok(TableSchema {
            name,
            columns,
            indexes,
        })
    }

    fn insert_body(&mut self) -> Result<Insert, ParseError> {
        self.expect_kw("INTO")?;
        let table = self.identifier()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.identifier()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            if row.len() != columns.len() {
                return Err(self.err("VALUES tuple arity differs from column list"));
            }
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn select_body(&mut self) -> Result<Select, ParseError> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.identifier()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { column, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.unsigned()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.unsigned()?);
            }
        }
        Ok(Select {
            items,
            table,
            where_clause,
            order_by,
            limit,
            offset,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        for (kw, agg) in [
            ("COUNT", Aggregate::Count),
            ("MAX", Aggregate::Max),
            ("MIN", Aggregate::Min),
            ("SUM", Aggregate::Sum),
        ] {
            if self.peek_kw(kw) && matches!(self.tokens.get(self.pos + 1), Some(Token::Sym("("))) {
                self.pos += 2;
                let column = if self.eat_sym("*") {
                    if agg != Aggregate::Count {
                        return Err(self.err("only COUNT accepts *"));
                    }
                    None
                } else {
                    Some(self.identifier()?)
                };
                self.expect_sym(")")?;
                let alias = if self.eat_kw("AS") {
                    Some(self.identifier()?)
                } else {
                    None
                };
                return Ok(SelectItem::Agg { agg, column, alias });
            }
        }
        let name = self.identifier()?;
        let alias = if self.eat_kw("AS") {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Column { name, alias })
    }

    fn update_body(&mut self) -> Result<Update, ParseError> {
        let table = self.identifier()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_sym("=")?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn delete_body(&mut self) -> Result<Delete, ParseError> {
        self.expect_kw("FROM")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Delete {
            table,
            where_clause,
        })
    }

    fn unsigned(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            Some(Token::Int(i)) if *i >= 0 => {
                let v = *i as u64;
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.err("expected non-negative integer")),
        }
    }

    // Expression grammar, loosest to tightest:
    //   or_expr   := and_expr (OR and_expr)*
    //   and_expr  := not_expr (AND not_expr)*
    //   not_expr  := NOT not_expr | predicate
    //   predicate := additive ((=|!=|<|<=|>|>=) additive
    //                | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE 'pat')?
    //   additive  := multiplicative ((+|-) multiplicative)*
    //   multiplicative := unary ((*|/|%) unary)*
    //   unary     := - unary | atom
    //   atom      := literal | identifier | ( or_expr )
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        let mut levels = 0;
        while self.eat_kw("OR") {
            self.open()?;
            levels += 1;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.close(levels);
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        let mut levels = 0;
        while self.eat_kw("AND") {
            self.open()?;
            levels += 1;
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.close(levels);
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            self.open()?;
            let e = Expr::Not(Box::new(self.not_expr()?));
            self.close(1);
            return Ok(e);
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;
        // IS [NOT] NULL.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / [NOT] LIKE.
        let negated = if self.peek_kw("NOT")
            && self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.is_kw("IN") || t.is_kw("LIKE"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.peek() {
                Some(Token::Str(s)) => {
                    let s = s.clone();
                    self.pos += 1;
                    s
                }
                _ => return Err(self.err("LIKE requires a string literal pattern")),
            };
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern,
                negated,
            });
        }
        if negated {
            return Err(self.err("dangling NOT"));
        }
        for (sym, op) in [
            ("=", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            ("<", BinOp::Lt),
            (">=", BinOp::Ge),
            (">", BinOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let rhs = self.additive()?;
                return Ok(Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                });
            }
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        let mut levels = 0;
        loop {
            let op = if self.eat_sym("+") {
                BinOp::Add
            } else if self.eat_sym("-") {
                BinOp::Sub
            } else {
                self.close(levels);
                return Ok(lhs);
            };
            self.open()?;
            levels += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        let mut levels = 0;
        loop {
            let op = if self.eat_sym("*") {
                BinOp::Mul
            } else if self.eat_sym("/") {
                BinOp::Div
            } else if self.eat_sym("%") {
                BinOp::Mod
            } else {
                self.close(levels);
                return Ok(lhs);
            };
            self.open()?;
            levels += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            self.open()?;
            let e = Expr::Neg(Box::new(self.unary()?));
            self.close(1);
            return Ok(e);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(SqlValue::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Literal(SqlValue::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(SqlValue::Text(s)))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("NULL") => {
                self.pos += 1;
                Ok(Expr::Literal(SqlValue::Null))
            }
            Some(Token::Word(w)) => {
                self.pos += 1;
                Ok(Expr::Column(w))
            }
            Some(Token::Sym("(")) => {
                self.pos += 1;
                self.open()?;
                let e = self.or_expr()?;
                self.close(1);
                self.expect_sym(")")?;
                Ok(e)
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let stmt = parse_statement(
            "CREATE TABLE pages (id INT PRIMARY KEY AUTO_INCREMENT, \
             title VARCHAR(255), views INT, INDEX(title))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(s) => {
                assert_eq!(s.name, "pages");
                assert_eq!(s.columns.len(), 3);
                assert!(s.columns[0].auto_increment);
                assert_eq!(s.indexes, vec!["title"]);
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert(i) => {
                assert_eq!(i.columns, vec!["a", "b"]);
                assert_eq!(i.rows.len(), 2);
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn parse_select_full() {
        let stmt = parse_statement(
            "SELECT id, title AS t, COUNT(*) FROM pages \
             WHERE views > 10 AND title LIKE 'Ab%' \
             ORDER BY views DESC, id LIMIT 5 OFFSET 2",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.items.len(), 3);
                assert_eq!(s.order_by.len(), 2);
                assert!(s.order_by[0].desc);
                assert!(!s.order_by[1].desc);
                assert_eq!(s.limit, Some(5));
                assert_eq!(s.offset, Some(2));
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parse_update_with_arith() {
        let stmt = parse_statement("UPDATE pages SET views = views + 1 WHERE id = 3").unwrap();
        match stmt {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 1);
                assert!(u.where_clause.is_some());
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn parse_delete() {
        let stmt = parse_statement("DELETE FROM t WHERE id IN (1, 2, 3)").unwrap();
        match stmt {
            Statement::Delete(d) => {
                assert!(matches!(d.where_clause, Some(Expr::InList { .. })));
            }
            other => panic!("expected Delete, got {other:?}"),
        }
    }

    #[test]
    fn parse_is_null_and_not() {
        let stmt = parse_statement("SELECT * FROM t WHERE a IS NOT NULL AND NOT b = 1").unwrap();
        match stmt {
            Statement::Select(s) => assert!(s.where_clause.is_some()),
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (1)").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE").is_err());
        assert!(parse_statement("DROP TABLE t").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage !").is_err());
        assert!(parse_statement("CREATE TABLE t (a TEXT AUTO_INCREMENT PRIMARY KEY)").is_err());
    }

    /// Runs `f` on a thread with the default 2 MiB test stack.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(f).unwrap().join().unwrap()
    }

    fn select_where(cond: &str) -> String {
        format!("SELECT v FROM t WHERE {cond}")
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error_not_a_stack_overflow() {
        let deep = [
            format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000)),
            format!("{}v = 1", "NOT ".repeat(100_000)),
            format!("v = {}1", "- ".repeat(100_000)),
            format!("v = 1{}", " + 1".repeat(100_000)),
            format!("v = 1{}", " AND v = 1".repeat(100_000)),
        ];
        for cond in deep {
            let sql = select_where(&cond);
            let parsed = on_small_stack(move || parse_statement(&sql).map(|_| ()));
            let Err(ParseError::Syntax { message, .. }) = parsed else {
                panic!("{parsed:?}");
            };
            assert!(message.contains("nested deeper"), "{message}");
        }
    }

    #[test]
    fn nesting_at_the_bound_parses_and_evaluates() {
        let d = MAX_EXPR_DEPTH as usize;
        let at_bound = [
            format!("v = {}1{}", "(".repeat(d), ")".repeat(d)),
            format!("{}v = 1", "NOT ".repeat(d)),
            format!("v = {}1", "- ".repeat(d)),
            format!("v = 1{}", " + 0".repeat(d)),
        ];
        for cond in at_bound {
            let sql = select_where(&cond);
            let rows = on_small_stack(move || {
                let mut db = crate::Database::new();
                db.execute_autocommit("CREATE TABLE t (v INT)").0.unwrap();
                db.execute_autocommit("INSERT INTO t (v) VALUES (1)")
                    .0
                    .unwrap();
                db.execute_autocommit(&sql).0.map(|_| ())
            });
            assert_eq!(rows, Ok(()), "{cond:.40}");
            // One more level fails.
            let over = select_where(&format!("({cond})"));
            assert!(parse_statement(&over).is_err(), "{cond:.40}");
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn unary_minus_literals() {
        let stmt = parse_statement("SELECT * FROM t WHERE a = -5").unwrap();
        match stmt {
            Statement::Select(s) => {
                let w = s.where_clause.unwrap();
                assert!(matches!(w, Expr::Binary { op: BinOp::Eq, .. }));
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  parses as  a=1 OR (b=2 AND c=3).
        let stmt = parse_statement("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match stmt {
            Statement::Select(s) => match s.where_clause.unwrap() {
                Expr::Binary {
                    op: BinOp::Or, rhs, ..
                } => {
                    assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
                }
                other => panic!("expected OR at top, got {other:?}"),
            },
            other => panic!("expected Select, got {other:?}"),
        }
    }
}
