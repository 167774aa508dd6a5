//! The online database engine.
//!
//! A [`Database`] holds tables of rows and executes parsed statements.
//! Concurrency control is a single global lock ([`SharedDatabase`]): a
//! transaction acquires the lock at `BEGIN` and releases it at commit or
//! rollback, which trivially provides the **strict serializability** SSCO
//! requires of the database object (§4.4) — the paper notes this isolation
//! level "sacrifices some concurrency compared to MySQL's default", and
//! the Fig. 8 throughput comparison inherits that cost.
//!
//! Each transaction (including a single auto-committed statement) receives
//! a global **sequence number at its linearization point** — while the
//! lock is held — which the record library uses as the operation-log
//! position (§4.7: "our code in MySQL assigns a unique sequence number to
//! the query (or transaction)").
//!
//! Statement errors poison the enclosing transaction: its effects are
//! rolled back and `commit` reports failure. This matches the logged
//! `succeeded` flag of the `DbOp` opcontents (Fig. 12).

use crate::ast::{Aggregate, BinOp, Delete, Expr, Insert, Select, SelectItem, Statement, Update};
use crate::parser::{parse_statement, ParseError};
use crate::schema::TableSchema;
use crate::value::{IndexKey, SqlValue};
use parking_lot::lock_api::ArcMutexGuard;
use parking_lot::{Mutex, RawMutex};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The statement failed to parse.
    Parse(ParseError),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// CREATE TABLE of an existing table.
    DuplicateTable(String),
    /// Primary-key uniqueness violation.
    DuplicateKey(String),
    /// A value did not fit the column type.
    TypeError(String),
    /// Arithmetic failure (overflow, division by zero on ints).
    Arithmetic(String),
    /// Aggregates mixed with plain columns, or similar shape errors.
    Unsupported(String),
    /// Operation on a transaction that already failed.
    TransactionAborted,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            SqlError::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            SqlError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            SqlError::TypeError(m) => write!(f, "type error: {m}"),
            SqlError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            SqlError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SqlError::TransactionAborted => write!(f, "transaction aborted"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

/// Result of a database write statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Rows inserted / matched / deleted.
    pub affected: u64,
    /// Auto-increment id assigned by an INSERT (last one for multi-row).
    pub last_insert_id: Option<i64>,
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT result: column names plus rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Vec<SqlValue>>,
    },
    /// Write result.
    Write(WriteOutcome),
}

impl ExecOutcome {
    /// Borrows the rows of a SELECT outcome.
    pub fn rows(&self) -> Option<&[Vec<SqlValue>]> {
        match self {
            ExecOutcome::Rows { rows, .. } => Some(rows),
            ExecOutcome::Write(_) => None,
        }
    }

    /// Borrows the write outcome.
    pub fn write(&self) -> Option<WriteOutcome> {
        match self {
            ExecOutcome::Write(w) => Some(*w),
            ExecOutcome::Rows { .. } => None,
        }
    }
}

/// One stored table.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub(crate) schema: TableSchema,
    /// Rows keyed by rowid; iteration order (rowid order) is the
    /// deterministic scan order that the versioned store must reproduce.
    pub(crate) rows: BTreeMap<u64, Vec<SqlValue>>,
    next_rowid: u64,
    /// Next auto-increment value.
    auto_inc: i64,
    /// Primary-key uniqueness index: pk value -> rowid.
    pk_index: HashMap<IndexKey, u64>,
}

impl Table {
    fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            rows: BTreeMap::new(),
            next_rowid: 1,
            auto_inc: 1,
            pk_index: HashMap::new(),
        }
    }

    fn rebuild_pk_index(&mut self) {
        self.pk_index.clear();
        if let Some(pk) = self.schema.primary_key_index() {
            for (rowid, row) in &self.rows {
                self.pk_index.insert(row[pk].index_key(), *rowid);
            }
        }
    }
}

/// Undo record for transaction rollback; also the record of what a
/// statement changed, which the versioned store turns into row versions.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    InsertedRow {
        table: String,
        rowid: u64,
    },
    UpdatedRow {
        table: String,
        rowid: u64,
        old: Vec<SqlValue>,
    },
    DeletedRow {
        table: String,
        rowid: u64,
        old: Vec<SqlValue>,
    },
    Counters {
        table: String,
        next_rowid: u64,
        auto_inc: i64,
    },
    CreatedTable {
        table: String,
    },
}

#[derive(Debug, Default)]
struct TxnState {
    undo: Vec<UndoOp>,
    poisoned: bool,
}

/// The database proper (single-threaded; see [`SharedDatabase`] for the
/// concurrent wrapper).
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    next_seq: u64,
    txn: Option<TxnState>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Table names in deterministic order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// The schema of `table`.
    pub fn schema(&self, table: &str) -> Option<&TableSchema> {
        self.tables.get(table).map(|t| &t.schema)
    }

    /// Number of rows currently in `table`.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(|t| t.rows.len())
    }

    /// Deep-copies the database contents (schemas, rows, counters) —
    /// used to snapshot final state for the next audit period (§4.1).
    pub fn deep_clone(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            next_seq: 0,
            txn: None,
        }
    }

    /// Rough byte size of all live rows (for the Fig. 8 DB-overhead
    /// column).
    pub fn estimated_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.rows.values().map(|r| row_bytes(r)).sum::<usize>())
            .sum()
    }

    /// A table's rows in scan order, for the versioned store.
    pub(crate) fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// A mark in the open transaction's undo log: the records a later
    /// [`Self::undo_since`] returns are the changes made after it.
    pub(crate) fn undo_mark(&self) -> usize {
        self.txn.as_ref().map_or(0, |t| t.undo.len())
    }

    /// The open transaction's undo records since `mark`, in the order
    /// the changes were made (empty once the transaction is poisoned,
    /// its changes having been undone).
    pub(crate) fn undo_since(&self, mark: usize) -> &[UndoOp] {
        self.txn
            .as_ref()
            .and_then(|t| t.undo.get(mark..))
            .unwrap_or_default()
    }

    /// Begins a transaction.
    ///
    /// Fails if one is already active (the SSCO model forbids nesting,
    /// §4.4).
    pub fn begin(&mut self) -> Result<(), SqlError> {
        if self.txn.is_some() {
            return Err(SqlError::Unsupported("nested transaction".into()));
        }
        self.txn = Some(TxnState::default());
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// True if the open transaction has failed.
    pub fn txn_poisoned(&self) -> bool {
        self.txn.as_ref().is_some_and(|t| t.poisoned)
    }

    /// Commits the open transaction, assigning its global sequence
    /// number. Returns `(seq, succeeded)`: a poisoned transaction was
    /// already rolled back and commits as `succeeded = false`.
    pub fn commit(&mut self) -> Result<(u64, bool), SqlError> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| SqlError::Unsupported("commit without transaction".into()))?;
        self.next_seq += 1;
        Ok((self.next_seq, !txn.poisoned))
    }

    /// Rolls back the open transaction. The abort still consumes a
    /// sequence number: it is an operation in the log (its reads fed the
    /// program).
    pub fn rollback(&mut self) -> Result<u64, SqlError> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| SqlError::Unsupported("rollback without transaction".into()))?;
        if !txn.poisoned {
            self.apply_undo(txn.undo);
        }
        self.next_seq += 1;
        Ok(self.next_seq)
    }

    /// Executes one statement inside the open transaction. On error the
    /// transaction is poisoned and rolled back; subsequent statements
    /// fail with [`SqlError::TransactionAborted`].
    pub fn execute_in_txn(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        self.execute_parsed_in_txn(parse_statement(sql).as_ref())
    }

    /// [`Self::execute_in_txn`] for a statement parsed already; a parse
    /// error fails the statement (and poisons the transaction) like any
    /// other error.
    pub(crate) fn execute_parsed_in_txn(
        &mut self,
        parsed: Result<&Statement, &ParseError>,
    ) -> Result<ExecOutcome, SqlError> {
        if self.txn.is_none() {
            return Err(SqlError::Unsupported(
                "execute_in_txn outside transaction".into(),
            ));
        }
        if self.txn_poisoned() {
            return Err(SqlError::TransactionAborted);
        }
        let result = match parsed {
            Ok(stmt) => self.execute_stmt(stmt),
            Err(e) => Err(e.clone().into()),
        };
        if result.is_err() {
            self.poison();
        }
        result
    }

    fn poison(&mut self) {
        if let Some(txn) = self.txn.as_mut() {
            txn.poisoned = true;
            let undo = std::mem::take(&mut txn.undo);
            self.apply_undo(undo);
        }
    }

    /// Auto-commit execution: a one-statement transaction. Returns the
    /// outcome and the assigned sequence number; on error the statement's
    /// effects are rolled back and the sequence number is still consumed
    /// (the failed op is logged with `succeeded = false`).
    pub fn execute_autocommit(&mut self, sql: &str) -> (Result<ExecOutcome, SqlError>, u64) {
        self.begin().expect("no open transaction in autocommit");
        let result = self.execute_in_txn(sql);
        match &result {
            Ok(_) => {
                let (seq, ok) = self.commit().expect("txn open");
                debug_assert!(ok);
                (result, seq)
            }
            Err(_) => {
                // Poisoned: already rolled back; commit records failure.
                let (seq, ok) = self.commit().expect("txn open");
                debug_assert!(!ok);
                (result, seq)
            }
        }
    }

    /// Executes a parsed statement (requires an open, healthy
    /// transaction for undo bookkeeping; the public paths guarantee
    /// this).
    pub(crate) fn execute_stmt(&mut self, stmt: &Statement) -> Result<ExecOutcome, SqlError> {
        match stmt {
            Statement::CreateTable(schema) => self.exec_create(schema),
            Statement::Insert(insert) => self.exec_insert(insert),
            Statement::Select(select) => self.exec_select(select),
            Statement::Update(update) => self.exec_update(update),
            Statement::Delete(delete) => self.exec_delete(delete),
        }
    }

    fn undo_push(&mut self, op: UndoOp) {
        if let Some(txn) = self.txn.as_mut() {
            txn.undo.push(op);
        }
    }

    fn apply_undo(&mut self, undo: Vec<UndoOp>) {
        let mut touched: Vec<String> = Vec::new();
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::InsertedRow { table, rowid } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rows.remove(&rowid);
                        touched.push(table);
                    }
                }
                UndoOp::UpdatedRow { table, rowid, old } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rows.insert(rowid, old);
                        touched.push(table);
                    }
                }
                UndoOp::DeletedRow { table, rowid, old } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rows.insert(rowid, old);
                        touched.push(table);
                    }
                }
                UndoOp::Counters {
                    table,
                    next_rowid,
                    auto_inc,
                } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.next_rowid = next_rowid;
                        t.auto_inc = auto_inc;
                    }
                }
                UndoOp::CreatedTable { table } => {
                    self.tables.remove(&table);
                }
            }
        }
        touched.sort();
        touched.dedup();
        for name in touched {
            if let Some(t) = self.tables.get_mut(&name) {
                t.rebuild_pk_index();
            }
        }
    }

    fn exec_create(&mut self, schema: &TableSchema) -> Result<ExecOutcome, SqlError> {
        if self.tables.contains_key(&schema.name) {
            return Err(SqlError::DuplicateTable(schema.name.clone()));
        }
        for idx in &schema.indexes {
            if schema.column_index(idx).is_none() {
                return Err(SqlError::NoSuchColumn(idx.clone()));
            }
        }
        self.tables
            .insert(schema.name.clone(), Table::new(schema.clone()));
        self.undo_push(UndoOp::CreatedTable {
            table: schema.name.clone(),
        });
        Ok(ExecOutcome::Write(WriteOutcome::default()))
    }

    fn exec_insert(&mut self, insert: &Insert) -> Result<ExecOutcome, SqlError> {
        let table = self
            .tables
            .get(&insert.table)
            .ok_or_else(|| SqlError::NoSuchTable(insert.table.clone()))?;
        let schema = table.schema.clone();
        // Map provided columns to schema positions.
        let mut positions = Vec::with_capacity(insert.columns.len());
        for col in &insert.columns {
            positions.push(
                schema
                    .column_index(col)
                    .ok_or_else(|| SqlError::NoSuchColumn(col.clone()))?,
            );
        }
        let pk = schema.primary_key_index();
        let auto = schema.has_auto_increment();
        let (saved_rowid, saved_auto) = {
            let table = self
                .tables
                .get(&insert.table)
                .expect("checked existence above");
            (table.next_rowid, table.auto_inc)
        };
        self.undo_push(UndoOp::Counters {
            table: insert.table.clone(),
            next_rowid: saved_rowid,
            auto_inc: saved_auto,
        });
        let mut last_id: Option<i64> = None;
        let mut inserted = 0u64;
        for tuple in &insert.rows {
            let mut row = vec![SqlValue::Null; schema.columns.len()];
            for (expr, pos) in tuple.iter().zip(&positions) {
                // INSERT values may not reference columns.
                row[*pos] = eval_expr(expr, None, &schema)?.into_owned();
            }
            // Auto-increment fill.
            if let (Some(pk_pos), true) = (pk, auto) {
                let table = self
                    .tables
                    .get_mut(&insert.table)
                    .expect("checked existence above");
                if row[pk_pos].is_null() {
                    row[pk_pos] = SqlValue::Int(table.auto_inc);
                    last_id = Some(table.auto_inc);
                    table.auto_inc += 1;
                } else if let Some(v) = row[pk_pos].as_i64() {
                    table.auto_inc = table.auto_inc.max(v + 1);
                }
            }
            // Type checks.
            for (pos, col) in schema.columns.iter().enumerate() {
                if !col.ty.admits(&row[pos]) {
                    return Err(SqlError::TypeError(format!(
                        "value {} not valid for column {}",
                        row[pos], col.name
                    )));
                }
            }
            let table = self
                .tables
                .get_mut(&insert.table)
                .expect("checked existence above");
            // Primary-key uniqueness.
            if let Some(pk_pos) = pk {
                let key = row[pk_pos].index_key();
                if table.pk_index.contains_key(&key) {
                    return Err(SqlError::DuplicateKey(format!("{}", row[pk_pos])));
                }
                let rowid = table.next_rowid;
                table.pk_index.insert(key, rowid);
            }
            let rowid = table.next_rowid;
            table.next_rowid += 1;
            table.rows.insert(rowid, row);
            inserted += 1;
            self.undo_push(UndoOp::InsertedRow {
                table: insert.table.clone(),
                rowid,
            });
        }
        Ok(ExecOutcome::Write(WriteOutcome {
            affected: inserted,
            last_insert_id: last_id,
        }))
    }

    fn exec_select(&mut self, select: &Select) -> Result<ExecOutcome, SqlError> {
        let table = self
            .tables
            .get(&select.table)
            .ok_or_else(|| SqlError::NoSuchTable(select.table.clone()))?;
        let plan = SelectPlan::new(select, &table.schema);
        run_select(
            select.where_clause.as_ref(),
            &plan,
            &table.schema,
            table.rows.values(),
        )
    }

    fn exec_update(&mut self, update: &Update) -> Result<ExecOutcome, SqlError> {
        let table = self
            .tables
            .get(&update.table)
            .ok_or_else(|| SqlError::NoSuchTable(update.table.clone()))?;
        let schema = table.schema.clone();
        let mut set_positions = Vec::with_capacity(update.assignments.len());
        for (col, _) in &update.assignments {
            set_positions.push(
                schema
                    .column_index(col)
                    .ok_or_else(|| SqlError::NoSuchColumn(col.clone()))?,
            );
        }
        // Collect matching rowids first (borrow discipline), then apply.
        let mut matches = Vec::new();
        for (rowid, row) in &table.rows {
            if eval_where(update.where_clause.as_ref(), row, &schema)? {
                matches.push(*rowid);
            }
        }
        let pk = schema.primary_key_index();
        let mut affected = 0u64;
        for rowid in matches {
            let table = self
                .tables
                .get(&update.table)
                .expect("checked existence above");
            let old = table.rows[&rowid].clone();
            let mut new = old.clone();
            for ((_, expr), pos) in update.assignments.iter().zip(&set_positions) {
                new[*pos] = eval_expr(expr, Some(&old), &schema)?.into_owned();
                if !schema.columns[*pos].ty.admits(&new[*pos]) {
                    return Err(SqlError::TypeError(format!(
                        "value {} not valid for column {}",
                        new[*pos], schema.columns[*pos].name
                    )));
                }
            }
            // Primary-key change: maintain uniqueness.
            if let Some(pk_pos) = pk {
                let old_key = old[pk_pos].index_key();
                let new_key = new[pk_pos].index_key();
                if old_key != new_key {
                    let table = self
                        .tables
                        .get_mut(&update.table)
                        .expect("checked existence above");
                    if table.pk_index.contains_key(&new_key) {
                        return Err(SqlError::DuplicateKey(format!("{}", new[pk_pos])));
                    }
                    table.pk_index.remove(&old_key);
                    table.pk_index.insert(new_key, rowid);
                }
            }
            let table = self
                .tables
                .get_mut(&update.table)
                .expect("checked existence above");
            table.rows.insert(rowid, new);
            affected += 1;
            self.undo_push(UndoOp::UpdatedRow {
                table: update.table.clone(),
                rowid,
                old,
            });
        }
        Ok(ExecOutcome::Write(WriteOutcome {
            affected,
            last_insert_id: None,
        }))
    }

    fn exec_delete(&mut self, delete: &Delete) -> Result<ExecOutcome, SqlError> {
        let table = self
            .tables
            .get(&delete.table)
            .ok_or_else(|| SqlError::NoSuchTable(delete.table.clone()))?;
        let schema = table.schema.clone();
        let mut matches = Vec::new();
        for (rowid, row) in &table.rows {
            if eval_where(delete.where_clause.as_ref(), row, &schema)? {
                matches.push(*rowid);
            }
        }
        let pk = schema.primary_key_index();
        let mut affected = 0u64;
        for rowid in matches {
            let table = self
                .tables
                .get_mut(&delete.table)
                .expect("checked existence above");
            if let Some(old) = table.rows.remove(&rowid) {
                if let Some(pk_pos) = pk {
                    table.pk_index.remove(&old[pk_pos].index_key());
                }
                affected += 1;
                self.undo_push(UndoOp::DeletedRow {
                    table: delete.table.clone(),
                    rowid,
                    old,
                });
            }
        }
        Ok(ExecOutcome::Write(WriteOutcome {
            affected,
            last_insert_id: None,
        }))
    }
}

/// Rough byte size of one row image.
pub(crate) fn row_bytes(row: &[SqlValue]) -> usize {
    row.iter()
        .map(|v| match v {
            SqlValue::Null => 1,
            SqlValue::Int(_) => 8,
            SqlValue::Float(_) => 8,
            SqlValue::Text(s) => s.len() + 1,
        })
        .sum()
}

/// Evaluates a WHERE clause against a row (absent clause = true).
pub(crate) fn eval_where(
    clause: Option<&Expr>,
    row: &[SqlValue],
    schema: &TableSchema,
) -> Result<bool, SqlError> {
    match clause {
        None => Ok(true),
        Some(expr) => Ok(eval_expr(expr, Some(row), schema)?.is_truthy()),
    }
}

/// Evaluates a scalar expression. `row` is `None` in contexts where
/// column references are illegal (INSERT values). Columns and literals
/// are lent, not cloned: only computed values (comparisons, arithmetic)
/// are owned.
pub(crate) fn eval_expr<'a>(
    expr: &'a Expr,
    row: Option<&'a [SqlValue]>,
    schema: &TableSchema,
) -> Result<Cow<'a, SqlValue>, SqlError> {
    let truth = |b: bool| Ok(Cow::Owned(SqlValue::Int(b as i64)));
    let null = || Ok(Cow::Owned(SqlValue::Null));
    let column = |pos: usize| match row {
        Some(r) => Ok(Cow::Borrowed(&r[pos])),
        None => Err(SqlError::Unsupported(
            "column reference outside row context".into(),
        )),
    };
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Column(name) => column(
            schema
                .column_index(name)
                .ok_or_else(|| SqlError::NoSuchColumn(name.clone()))?,
        ),
        Expr::ColumnAt(pos) => column(*pos),
        Expr::Neg(inner) => match &*eval_expr(inner, row, schema)? {
            SqlValue::Int(i) => Ok(Cow::Owned(SqlValue::Int(
                i.checked_neg()
                    .ok_or_else(|| SqlError::Arithmetic("negation overflow".into()))?,
            ))),
            SqlValue::Float(f) => Ok(Cow::Owned(SqlValue::Float(-f))),
            SqlValue::Null => null(),
            other => Err(SqlError::TypeError(format!("cannot negate {other}"))),
        },
        Expr::Not(inner) => {
            let v = eval_expr(inner, row, schema)?;
            if v.is_null() {
                null()
            } else {
                truth(!v.is_truthy())
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, row, schema)?;
            truth(v.is_null() != *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, row, schema)?;
            if v.is_null() {
                return null();
            }
            let mut found = false;
            for item in list {
                let w = eval_expr(item, row, schema)?;
                if v.sql_eq(&w) == Some(true) {
                    found = true;
                    break;
                }
            }
            truth(found != *negated)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match &*eval_expr(expr, row, schema)? {
            SqlValue::Null => null(),
            SqlValue::Text(s) => truth(like_match(s, pattern) != *negated),
            other => Err(SqlError::TypeError(format!("LIKE on non-text {other}"))),
        },
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_expr(lhs, row, schema)?;
            match op {
                BinOp::And => {
                    // SQL three-valued AND with short circuit on false.
                    if !a.is_null() && !a.is_truthy() {
                        return truth(false);
                    }
                    let b = eval_expr(rhs, row, schema)?;
                    if !b.is_null() && !b.is_truthy() {
                        return truth(false);
                    }
                    if a.is_null() || b.is_null() {
                        return null();
                    }
                    truth(true)
                }
                BinOp::Or => {
                    if !a.is_null() && a.is_truthy() {
                        return truth(true);
                    }
                    let b = eval_expr(rhs, row, schema)?;
                    if !b.is_null() && b.is_truthy() {
                        return truth(true);
                    }
                    if a.is_null() || b.is_null() {
                        return null();
                    }
                    truth(false)
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let b = eval_expr(rhs, row, schema)?;
                    match a.sql_cmp(&b) {
                        None => null(),
                        Some(ord) => truth(match op {
                            BinOp::Eq => ord == Ordering::Equal,
                            BinOp::Ne => ord != Ordering::Equal,
                            BinOp::Lt => ord == Ordering::Less,
                            BinOp::Le => ord != Ordering::Greater,
                            BinOp::Gt => ord == Ordering::Greater,
                            BinOp::Ge => ord != Ordering::Less,
                            _ => unreachable!("comparison ops only"),
                        }),
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    let b = eval_expr(rhs, row, schema)?;
                    arith(*op, &a, &b).map(Cow::Owned)
                }
            }
        }
    }
}

fn arith(op: BinOp, a: &SqlValue, b: &SqlValue) -> Result<SqlValue, SqlError> {
    if a.is_null() || b.is_null() {
        return Ok(SqlValue::Null);
    }
    match (a, b) {
        (SqlValue::Int(x), SqlValue::Int(y)) => {
            let r = match op {
                BinOp::Add => x.checked_add(*y),
                BinOp::Sub => x.checked_sub(*y),
                BinOp::Mul => x.checked_mul(*y),
                // Division always yields float (MySQL-style `/`).
                BinOp::Div => {
                    if *y == 0 {
                        return Ok(SqlValue::Null);
                    }
                    return Ok(SqlValue::Float(*x as f64 / *y as f64));
                }
                BinOp::Mod => {
                    if *y == 0 {
                        return Ok(SqlValue::Null);
                    }
                    return Ok(SqlValue::Int(x % y));
                }
                _ => unreachable!("arith ops only"),
            };
            r.map(SqlValue::Int)
                .ok_or_else(|| SqlError::Arithmetic("integer overflow".into()))
        }
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(SqlError::TypeError(format!(
                        "arithmetic on non-numbers {a} and {b}"
                    )))
                }
            };
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Ok(SqlValue::Null);
                    }
                    x / y
                }
                BinOp::Mod => {
                    if y == 0.0 {
                        return Ok(SqlValue::Null);
                    }
                    x % y
                }
                _ => unreachable!("arith ops only"),
            };
            Ok(SqlValue::Float(r))
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (any char).
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                for skip in 0..=s.len() {
                    if rec(&s[skip..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// A SELECT resolved against its table's schema once: sort keys,
/// output names and positions, aggregate names — what a run would
/// otherwise look up by name. A name that does not resolve keeps its
/// error, which [`run_select`] raises where the statement always raised
/// it (after the WHERE pass, sort keys before the projection), so a plan
/// fails exactly like its statement.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    output: Output,
    limit: Option<u64>,
    offset: u64,
}

#[derive(Debug)]
enum Output {
    /// One row of aggregates; `Err` when they mix with plain columns.
    Aggregates(Result<Vec<AggItem>, SqlError>),
    /// The kept rows, sorted by `order` (position, descending), then
    /// projected onto `columns` (output names, positions).
    Rows {
        order: Result<Vec<(usize, bool)>, SqlError>,
        columns: Result<(Vec<String>, Vec<usize>), SqlError>,
    },
}

#[derive(Debug)]
struct AggItem {
    agg: Aggregate,
    /// The aggregated column's position; `None` for `COUNT(*)`.
    column: Result<Option<usize>, SqlError>,
    name: String,
}

impl SelectPlan {
    pub(crate) fn new(select: &Select, schema: &TableSchema) -> SelectPlan {
        let position = |name: &String| {
            schema
                .column_index(name)
                .ok_or_else(|| SqlError::NoSuchColumn(name.clone()))
        };
        let is_agg = |item: &SelectItem| matches!(item, SelectItem::Agg { .. });
        let output = if !select.items.iter().any(is_agg) {
            let (mut names, mut positions) = (Vec::new(), Vec::new());
            let columns = select
                .items
                .iter()
                .try_for_each(|item| {
                    match item {
                        SelectItem::Wildcard => {
                            for (pos, col) in schema.columns.iter().enumerate() {
                                names.push(col.name.clone());
                                positions.push(pos);
                            }
                        }
                        SelectItem::Column { name, alias } => {
                            positions.push(position(name)?);
                            names.push(alias.clone().unwrap_or_else(|| name.clone()));
                        }
                        SelectItem::Agg { .. } => unreachable!("no aggregates here"),
                    }
                    Ok(())
                })
                .map(|()| (names, positions));
            Output::Rows {
                order: select
                    .order_by
                    .iter()
                    .map(|key| Ok((position(&key.column)?, key.desc)))
                    .collect(),
                columns,
            }
        } else if select.items.iter().all(is_agg) {
            let items = select.items.iter().filter_map(|item| match item {
                SelectItem::Agg { agg, column, alias } => Some(AggItem {
                    agg: *agg,
                    column: column.as_ref().map(position).transpose(),
                    name: alias.clone().unwrap_or_else(|| match (agg, column) {
                        (Aggregate::Count, None) => "COUNT(*)".to_string(),
                        (a, Some(c)) => format!("{a:?}({c})").to_uppercase(),
                        (a, None) => format!("{a:?}(*)").to_uppercase(),
                    }),
                }),
                _ => None,
            });
            Output::Aggregates(Ok(items.collect()))
        } else {
            Output::Aggregates(Err(SqlError::Unsupported(
                "mixing aggregates and plain columns (no GROUP BY)".into(),
            )))
        };
        SelectPlan {
            output,
            limit: select.limit,
            offset: select.offset.unwrap_or(0),
        }
    }
}

/// Runs a planned SELECT over `rows` in scan order, keeping those that
/// pass `filter`; shared by the online engine and the versioned store.
/// Rows are borrowed throughout: only the projected cells are cloned.
pub(crate) fn run_select<'r>(
    filter: Option<&Expr>,
    plan: &SelectPlan,
    schema: &TableSchema,
    rows: impl Iterator<Item = &'r Vec<SqlValue>>,
) -> Result<ExecOutcome, SqlError> {
    let mut kept: Vec<&Vec<SqlValue>> = Vec::new();
    for row in rows {
        if eval_where(filter, row, schema)? {
            kept.push(row);
        }
    }
    let (order, (columns, positions)) = match &plan.output {
        Output::Aggregates(items) => {
            let items = items.as_ref().map_err(Clone::clone)?;
            let mut out_row = Vec::with_capacity(items.len());
            for item in items {
                out_row.push(eval_aggregate(item.agg, item.column.clone()?, &kept)?);
            }
            return Ok(ExecOutcome::Rows {
                columns: items.iter().map(|item| item.name.clone()).collect(),
                rows: vec![out_row],
            });
        }
        Output::Rows { order, columns } => (
            order.as_ref().map_err(Clone::clone)?,
            columns.as_ref().map_err(Clone::clone)?,
        ),
    };
    // ORDER BY (stable sort preserves scan order for ties).
    if !order.is_empty() {
        kept.sort_by(|a, b| {
            for &(key, desc) in order {
                let ord = a[key].order_cmp(&b[key]);
                if ord != Ordering::Equal {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
    }
    // OFFSET / LIMIT.
    let bound = |n: u64| usize::try_from(n).unwrap_or(usize::MAX).min(kept.len());
    let start = bound(plan.offset);
    let end = plan
        .limit
        .map_or(kept.len(), |n| bound(plan.offset.saturating_add(n)));
    let rows = kept[start..end.max(start)]
        .iter()
        .map(|row| positions.iter().map(|&p| row[p].clone()).collect())
        .collect();
    Ok(ExecOutcome::Rows {
        columns: columns.clone(),
        rows,
    })
}

fn eval_aggregate(
    agg: Aggregate,
    col: Option<usize>,
    rows: &[&Vec<SqlValue>],
) -> Result<SqlValue, SqlError> {
    match agg {
        Aggregate::Count => match col {
            None => Ok(SqlValue::Int(rows.len() as i64)),
            Some(pos) => Ok(SqlValue::Int(
                rows.iter().filter(|r| !r[pos].is_null()).count() as i64,
            )),
        },
        Aggregate::Max | Aggregate::Min => {
            let pos =
                col.ok_or_else(|| SqlError::Unsupported("MAX/MIN require a column".into()))?;
            let mut best: Option<&SqlValue> = None;
            for row in rows {
                if row[pos].is_null() {
                    continue;
                }
                best = Some(match best {
                    None => &row[pos],
                    Some(b) => {
                        let ord = row[pos].order_cmp(b);
                        let take = if agg == Aggregate::Max {
                            ord == Ordering::Greater
                        } else {
                            ord == Ordering::Less
                        };
                        if take {
                            &row[pos]
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(SqlValue::Null))
        }
        Aggregate::Sum => {
            let pos = col.ok_or_else(|| SqlError::Unsupported("SUM requires a column".into()))?;
            let mut any = false;
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut is_float = false;
            for row in rows {
                match &row[pos] {
                    SqlValue::Null => {}
                    SqlValue::Int(i) => {
                        any = true;
                        match int_sum.checked_add(*i) {
                            Some(s) => int_sum = s,
                            None => return Err(SqlError::Arithmetic("SUM overflow".into())),
                        }
                    }
                    SqlValue::Float(f) => {
                        any = true;
                        is_float = true;
                        float_sum += f;
                    }
                    other => return Err(SqlError::TypeError(format!("SUM over {other}"))),
                }
            }
            if !any {
                Ok(SqlValue::Null)
            } else if is_float {
                Ok(SqlValue::Float(float_sum + int_sum as f64))
            } else {
                Ok(SqlValue::Int(int_sum))
            }
        }
    }
}

/// Thread-safe database handle providing strict serializability through a
/// global lock.
///
/// # Examples
///
/// ```
/// use orochi_sqldb::{Database, SharedDatabase};
///
/// let shared = SharedDatabase::new(Database::new());
/// let mut txn = shared.begin();
/// txn.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)").unwrap();
/// txn.execute("INSERT INTO t (v) VALUES ('a')").unwrap();
/// let (seq, ok) = txn.commit();
/// assert!(ok);
/// assert_eq!(seq, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Mutex<Database>>,
}

impl SharedDatabase {
    /// Wraps a database for shared use.
    pub fn new(db: Database) -> Self {
        Self {
            inner: Arc::new(Mutex::new(db)),
        }
    }

    /// Begins a transaction, blocking until the global lock is available.
    /// The lock is held until [`Transaction::commit`] or
    /// [`Transaction::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if the database already has an open transaction, which
    /// cannot happen through this API (the lock serializes transactions).
    pub fn begin(&self) -> Transaction {
        let mut guard = Mutex::lock_arc(&self.inner);
        guard.begin().expect("lock serializes transactions");
        Transaction { guard }
    }

    /// Executes one auto-committed statement; returns the outcome and the
    /// assigned sequence number.
    pub fn execute_autocommit(&self, sql: &str) -> (Result<ExecOutcome, SqlError>, u64) {
        let mut guard = self.inner.lock();
        guard.execute_autocommit(sql)
    }

    /// Runs `f` with shared access to the database (no sequence number
    /// consumed); for setup and inspection, not for request processing.
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut guard = self.inner.lock();
        f(&mut guard)
    }
}

/// An open transaction holding the global lock.
pub struct Transaction {
    guard: ArcMutexGuard<RawMutex, Database>,
}

impl Transaction {
    /// Executes one statement inside the transaction.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        self.guard.execute_in_txn(sql)
    }

    /// True if a previous statement failed and poisoned the transaction.
    pub fn poisoned(&self) -> bool {
        self.guard.txn_poisoned()
    }

    /// Commits, returning `(seq, succeeded)` and releasing the lock.
    pub fn commit(mut self) -> (u64, bool) {
        self.guard.commit().expect("transaction open")
    }

    /// Rolls back, returning the assigned sequence number.
    pub fn rollback(mut self) -> u64 {
        self.guard.rollback().expect("transaction open")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_table() -> Database {
        let mut db = Database::new();
        let (r, _) = db.execute_autocommit(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, score INT)",
        );
        r.unwrap();
        let (r, _) = db.execute_autocommit(
            "INSERT INTO t (name, score) VALUES ('a', 10), ('b', 20), ('c', 30)",
        );
        r.unwrap();
        db
    }

    fn select_rows(db: &mut Database, sql: &str) -> Vec<Vec<SqlValue>> {
        let (r, _) = db.execute_autocommit(sql);
        match r.unwrap() {
            ExecOutcome::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn auto_increment_assigns_ids() {
        let mut db = db_with_table();
        let rows = select_rows(&mut db, "SELECT id FROM t ORDER BY id");
        assert_eq!(
            rows,
            vec![
                vec![SqlValue::Int(1)],
                vec![SqlValue::Int(2)],
                vec![SqlValue::Int(3)]
            ]
        );
        let (r, _) = db.execute_autocommit("INSERT INTO t (name, score) VALUES ('d', 5)");
        let out = r.unwrap();
        assert_eq!(out.write().unwrap().last_insert_id, Some(4));
    }

    #[test]
    fn explicit_id_bumps_auto_increment() {
        let mut db = db_with_table();
        db.execute_autocommit("INSERT INTO t (id, name, score) VALUES (10, 'x', 1)")
            .0
            .unwrap();
        let (r, _) = db.execute_autocommit("INSERT INTO t (name, score) VALUES ('y', 2)");
        assert_eq!(r.unwrap().write().unwrap().last_insert_id, Some(11));
    }

    #[test]
    fn duplicate_pk_rejected_and_rolled_back() {
        let mut db = db_with_table();
        let (r, _) = db.execute_autocommit(
            "INSERT INTO t (id, name, score) VALUES (99, 'x', 1), (1, 'dup', 2)",
        );
        assert!(matches!(r, Err(SqlError::DuplicateKey(_))));
        // Statement rolled back entirely: row 99 must not exist.
        let rows = select_rows(&mut db, "SELECT id FROM t WHERE id = 99");
        assert!(rows.is_empty());
        assert_eq!(db.row_count("t"), Some(3));
    }

    #[test]
    fn update_with_expression() {
        let mut db = db_with_table();
        let (r, _) = db.execute_autocommit("UPDATE t SET score = score + 5 WHERE score >= 20");
        assert_eq!(r.unwrap().write().unwrap().affected, 2);
        let rows = select_rows(&mut db, "SELECT score FROM t ORDER BY score");
        assert_eq!(
            rows,
            vec![
                vec![SqlValue::Int(10)],
                vec![SqlValue::Int(25)],
                vec![SqlValue::Int(35)]
            ]
        );
    }

    #[test]
    fn delete_and_count() {
        let mut db = db_with_table();
        let (r, _) = db.execute_autocommit("DELETE FROM t WHERE score < 25");
        assert_eq!(r.unwrap().write().unwrap().affected, 2);
        let rows = select_rows(&mut db, "SELECT COUNT(*) FROM t");
        assert_eq!(rows, vec![vec![SqlValue::Int(1)]]);
    }

    #[test]
    fn select_order_limit_offset() {
        let mut db = db_with_table();
        let rows = select_rows(
            &mut db,
            "SELECT name FROM t ORDER BY score DESC LIMIT 1 OFFSET 1",
        );
        assert_eq!(rows, vec![vec![SqlValue::Text("b".into())]]);
    }

    #[test]
    fn aggregates() {
        let mut db = db_with_table();
        let rows = select_rows(
            &mut db,
            "SELECT COUNT(*), MAX(score), MIN(score), SUM(score) FROM t",
        );
        assert_eq!(
            rows,
            vec![vec![
                SqlValue::Int(3),
                SqlValue::Int(30),
                SqlValue::Int(10),
                SqlValue::Int(60)
            ]]
        );
    }

    #[test]
    fn aggregates_over_empty_set() {
        let mut db = db_with_table();
        let rows = select_rows(
            &mut db,
            "SELECT COUNT(*), MAX(score), SUM(score) FROM t WHERE id > 100",
        );
        assert_eq!(
            rows,
            vec![vec![SqlValue::Int(0), SqlValue::Null, SqlValue::Null]]
        );
    }

    #[test]
    fn like_and_in() {
        let mut db = db_with_table();
        let rows = select_rows(&mut db, "SELECT name FROM t WHERE name LIKE '_'");
        assert_eq!(rows.len(), 3);
        let rows = select_rows(&mut db, "SELECT name FROM t WHERE name IN ('a', 'c')");
        assert_eq!(rows.len(), 2);
        let rows = select_rows(&mut db, "SELECT name FROM t WHERE name NOT IN ('a')");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("hello", "he%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
    }

    #[test]
    fn null_semantics_in_where() {
        let mut db = Database::new();
        db.execute_autocommit("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
            .0
            .unwrap();
        db.execute_autocommit("INSERT INTO n (id, v) VALUES (1, NULL), (2, 5)")
            .0
            .unwrap();
        // NULL = NULL is unknown, so no rows.
        let rows = select_rows(&mut db, "SELECT id FROM n WHERE v = NULL");
        assert!(rows.is_empty());
        let rows = select_rows(&mut db, "SELECT id FROM n WHERE v IS NULL");
        assert_eq!(rows, vec![vec![SqlValue::Int(1)]]);
        let rows = select_rows(&mut db, "SELECT id FROM n WHERE v IS NOT NULL");
        assert_eq!(rows, vec![vec![SqlValue::Int(2)]]);
    }

    #[test]
    fn transaction_commit_and_rollback() {
        let mut db = db_with_table();
        db.begin().unwrap();
        db.execute_in_txn("INSERT INTO t (name, score) VALUES ('tx', 1)")
            .unwrap();
        let seq = db.rollback().unwrap();
        assert!(seq > 0);
        assert_eq!(db.row_count("t"), Some(3));
        // Auto-inc restored: next insert reuses id 4.
        let (r, _) = db.execute_autocommit("INSERT INTO t (name, score) VALUES ('z', 2)");
        assert_eq!(r.unwrap().write().unwrap().last_insert_id, Some(4));
    }

    #[test]
    fn failed_statement_poisons_transaction() {
        let mut db = db_with_table();
        db.begin().unwrap();
        db.execute_in_txn("UPDATE t SET score = 0 WHERE id = 1")
            .unwrap();
        let err = db
            .execute_in_txn("INSERT INTO t (id, name, score) VALUES (1, 'dup', 0)")
            .unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        // Further statements fail.
        assert_eq!(
            db.execute_in_txn("SELECT * FROM t").unwrap_err(),
            SqlError::TransactionAborted
        );
        let (_seq, ok) = db.commit().unwrap();
        assert!(!ok);
        // The earlier UPDATE was rolled back too.
        let rows = select_rows(&mut db, "SELECT score FROM t WHERE id = 1");
        assert_eq!(rows, vec![vec![SqlValue::Int(10)]]);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut db = db_with_table(); // Consumed seqs 1, 2.
        let (_, s3) = db.execute_autocommit("SELECT * FROM t");
        let (_, s4) = db.execute_autocommit("BAD SQL");
        let (_, s5) = db.execute_autocommit("SELECT * FROM t");
        assert_eq!((s3, s4, s5), (3, 4, 5));
    }

    #[test]
    fn shared_database_serializes_transactions() {
        let shared = SharedDatabase::new(Database::new());
        shared
            .execute_autocommit("CREATE TABLE c (id INT PRIMARY KEY, v INT)")
            .0
            .unwrap();
        shared
            .execute_autocommit("INSERT INTO c (id, v) VALUES (1, 0)")
            .0
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let mut txn = shared.begin();
                    let rows = match txn.execute("SELECT v FROM c WHERE id = 1").unwrap() {
                        ExecOutcome::Rows { rows, .. } => rows,
                        other => panic!("expected rows, got {other:?}"),
                    };
                    let v = rows[0][0].as_i64().unwrap();
                    txn.execute(&format!("UPDATE c SET v = {} WHERE id = 1", v + 1))
                        .unwrap();
                    let (_, ok) = txn.commit();
                    assert!(ok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Read-modify-write under the global lock is atomic: no lost
        // updates.
        let (r, _) = shared.execute_autocommit("SELECT v FROM c WHERE id = 1");
        match r.unwrap() {
            ExecOutcome::Rows { rows, .. } => {
                assert_eq!(rows[0][0], SqlValue::Int(200));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn create_table_rolls_back() {
        let mut db = Database::new();
        db.begin().unwrap();
        db.execute_in_txn("CREATE TABLE tmp (id INT PRIMARY KEY)")
            .unwrap();
        db.execute_in_txn("INSERT INTO tmp (id) VALUES (1)")
            .unwrap();
        db.rollback().unwrap();
        assert!(db.schema("tmp").is_none());
    }

    #[test]
    fn division_semantics() {
        let mut db = db_with_table();
        // Division always yields float (MySQL-style `/`); store into a
        // float column via UPDATE (projection expressions are not in the
        // dialect).
        db.execute_autocommit("CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)")
            .0
            .unwrap();
        db.execute_autocommit("INSERT INTO f (id, x) VALUES (1, 10)")
            .0
            .unwrap();
        db.execute_autocommit("UPDATE f SET x = x / 4 WHERE id = 1")
            .0
            .unwrap();
        let rows = select_rows(&mut db, "SELECT x FROM f");
        assert_eq!(rows, vec![vec![SqlValue::Float(2.5)]]);
        // Division by zero yields NULL, MySQL-style.
        db.execute_autocommit("UPDATE f SET x = x / 0 WHERE id = 1")
            .0
            .unwrap();
        let rows = select_rows(&mut db, "SELECT x FROM f");
        assert_eq!(rows, vec![vec![SqlValue::Null]]);
    }

    #[test]
    fn type_errors_detected() {
        let mut db = db_with_table();
        let (r, _) = db.execute_autocommit("INSERT INTO t (name, score) VALUES (5, 'oops')");
        assert!(matches!(r, Err(SqlError::TypeError(_))));
    }

    #[test]
    fn wildcard_projection_in_declared_order() {
        let mut db = db_with_table();
        let (r, _) = db.execute_autocommit("SELECT * FROM t WHERE id = 1");
        match r.unwrap() {
            ExecOutcome::Rows { columns, rows } => {
                assert_eq!(columns, vec!["id", "name", "score"]);
                assert_eq!(
                    rows[0],
                    vec![
                        SqlValue::Int(1),
                        SqlValue::Text("a".into()),
                        SqlValue::Int(10)
                    ]
                );
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
}
