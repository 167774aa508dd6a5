//! A from-scratch SQL-subset database engine with strict serializability
//! and Warp-style versioned storage.
//!
//! SSCO requires the database to behave as **one atomic object** (§4.4):
//! the isolation level must be strict serializability, and multi-statement
//! transactions must not enclose other object operations. The paper's
//! OROCHI uses MySQL online and rebuilds a *versioned* copy at audit time
//! (borrowing Warp's schema: every row version carries a start and end
//! timestamp, and read queries are rewritten with
//! `start_ts <= ts < end_ts`), plus an in-memory versioned buffer that is
//! migrated when the redo pass finishes (§4.5, §A.7).
//!
//! This crate implements all of that from scratch:
//!
//! * [`value`] — SQL values and comparison/coercion rules.
//! * [`lexer`] / [`parser`] / [`ast`] — the SQL dialect front-end.
//! * [`schema`] — tables, column types, primary keys, auto-increment.
//! * [`engine`] — the online database: statement execution, constraint
//!   checks, transactions with rollback, and a global-lock concurrency
//!   control that provides strict serializability with per-transaction
//!   sequence numbers assigned at commit (the linearization point).
//! * [`versioned`] — the audit-time versioned store: the redo pass over
//!   an untrusted operation log, which runs every logged write on a kept
//!   [`Database`] and versions what it changed (including write-result
//!   checking and aborted-transaction replay with rollback), timestamped
//!   reads with `ts = s·MAXQ + q`, table-modification epochs for
//!   read-query deduplication, and the final state the verifier keeps.
//!
//! The dialect covers what the three evaluation applications need:
//! `CREATE TABLE`, multi-row `INSERT`, `SELECT` with `WHERE`/`ORDER BY`/
//! `LIMIT`/`OFFSET` and aggregates, `UPDATE` with expressions, `DELETE`,
//! `LIKE`, `IN`, `IS NULL`, and arithmetic. `JOIN` and `GROUP BY` are out
//! of scope (the applications are written without them), as documented in
//! DESIGN.md.

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod schema;
pub mod value;
pub mod versioned;

pub use ast::Statement;
pub use engine::{Database, ExecOutcome, SharedDatabase, SqlError, Transaction, WriteOutcome};
pub use parser::parse_statement;
pub use schema::{ColumnDef, ColumnType, TableSchema};
pub use value::SqlValue;
pub use versioned::{PreparedQuery, RedoError, RedoStats, VersionedDb, MAXQ};
