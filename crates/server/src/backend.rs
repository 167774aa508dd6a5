//! The server-side recording backend.
//!
//! Implements the PHP runtime's state and nondeterminism hooks over the
//! real shared objects, recording an operation-log entry at every
//! operation's linearization point (the objects assign the sequence
//! numbers; §4.7) and capturing nondeterministic return values (§4.6).
//! With recording off it performs the same operations without logging —
//! the baseline arm of the Fig. 8 overhead comparison.

use crate::server::ServerShared;
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use orochi_core::nondet::NondetValue;
use orochi_php::backend::{BackendError, DbResult, NondetProvider, StateBackend};
use orochi_php::builtins::db_rows_to_value;
use orochi_php::value::Value;
use orochi_sqldb::{ExecOutcome, SqlError, SqlValue, Transaction};
use orochi_state::object::{DbWriteResult, ObjectName, OpContents};
use orochi_state::recorder::SubLog;
use std::sync::Arc;

/// An open multi-statement transaction with its pending log entry.
struct OpenTxn {
    txn: Transaction,
    queries: Vec<Arc<str>>,
    write_results: Vec<Option<DbWriteResult>>,
    /// Set once a statement fails: later queries observe failure
    /// without being logged (mirrors re-execution, which cannot see
    /// past the logged failure point).
    failed: bool,
}

/// Per-request backend: owns the request's opnum counter, nondet record,
/// and any open transaction.
pub struct RecordingBackend<'s> {
    shared: &'s ServerShared,
    sublog: SubLog,
    rid: RequestId,
    opnum: u32,
    nondet: Vec<NondetValue>,
    txn: Option<OpenTxn>,
    pid: i64,
    recording: bool,
}

impl<'s> RecordingBackend<'s> {
    /// Creates the backend for one request.
    pub fn new(shared: &'s ServerShared, rid: RequestId, pid: i64, recording: bool) -> Self {
        RecordingBackend {
            sublog: shared.recorder.new_sublog(),
            shared,
            rid,
            opnum: 0,
            nondet: Vec::new(),
            txn: None,
            pid,
            recording,
        }
    }

    /// The request's final operation count `M(rid)`.
    pub fn op_count(&self) -> u32 {
        self.opnum
    }

    /// The recorded nondeterministic values, in consumption order.
    pub fn take_nondet(&mut self) -> Vec<NondetValue> {
        std::mem::take(&mut self.nondet)
    }

    fn next_opnum(&mut self) -> OpNum {
        self.opnum += 1;
        OpNum(self.opnum)
    }

    fn record(&mut self, object: ObjectName, seq: SeqNum, opnum: OpNum, contents: OpContents) {
        if self.recording {
            self.sublog.record(object, seq, self.rid, opnum, contents);
        }
    }

    fn record_nondet(&mut self, value: NondetValue) {
        if self.recording {
            self.nondet.push(value);
        }
    }

    fn guard_not_in_txn(&self) -> Result<(), BackendError> {
        if self.txn.is_some() {
            // The SSCO model forbids object operations inside a
            // transaction (§4.4); deterministic fatal on both sides.
            return Err(BackendError::Fatal(
                "state operation inside open transaction".into(),
            ));
        }
        Ok(())
    }
}

fn write_outcome_to_result(w: orochi_sqldb::WriteOutcome) -> DbWriteResult {
    DbWriteResult {
        affected: w.affected,
        last_insert_id: w.last_insert_id,
    }
}

fn rows_to_db_result(columns: Vec<String>, rows: Vec<Vec<SqlValue>>) -> DbResult {
    let cells = |row: Vec<SqlValue>| {
        row.into_iter().map(|v| match v {
            SqlValue::Null => Value::Null,
            SqlValue::Int(i) => Value::Int(i),
            SqlValue::Float(f) => Value::Float(f),
            SqlValue::Text(s) => Value::str(s),
        })
    };
    DbResult::Rows(db_rows_to_value(&columns, rows.into_iter().map(cells)))
}

impl StateBackend for RecordingBackend<'_> {
    fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError> {
        self.guard_not_in_txn()?;
        let reg_name = object
            .strip_prefix("reg:")
            .ok_or_else(|| BackendError::Fatal(format!("not a register: {object}")))?;
        let reg = self.shared.registers.get_or_create(reg_name);
        let (value, seq) = reg.read();
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            seq,
            opnum,
            OpContents::RegisterRead,
        );
        Ok(value)
    }

    fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError> {
        self.guard_not_in_txn()?;
        let reg_name = object
            .strip_prefix("reg:")
            .ok_or_else(|| BackendError::Fatal(format!("not a register: {object}")))?;
        let reg = self.shared.registers.get_or_create(reg_name);
        let logged = Arc::from(&*value);
        let seq = reg.write(value);
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            seq,
            opnum,
            OpContents::RegisterWrite { value: logged },
        );
        Ok(())
    }

    fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        self.guard_not_in_txn()?;
        let (value, seq) = self.shared.kv.get(key);
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            seq,
            opnum,
            OpContents::KvGet { key: key.into() },
        );
        Ok(value)
    }

    fn kv_set(
        &mut self,
        object: &str,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), BackendError> {
        self.guard_not_in_txn()?;
        let logged = value.as_deref().map(Arc::from);
        let seq = self.shared.kv.set(key, value);
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            seq,
            opnum,
            OpContents::KvSet {
                key: key.into(),
                value: logged,
            },
        );
        Ok(())
    }

    fn db_begin(&mut self, _object: &str) -> Result<(), BackendError> {
        if self.txn.is_some() {
            return Err(BackendError::Fatal("nested transaction".into()));
        }
        // Blocks on the global lock: strict serializability (§4.4).
        let txn = self.shared.db.begin();
        self.txn = Some(OpenTxn {
            txn,
            queries: Vec::new(),
            write_results: Vec::new(),
            failed: false,
        });
        Ok(())
    }

    fn db_query(&mut self, object: &str, sql: &str) -> Result<DbResult, BackendError> {
        if let Some(open) = self.txn.as_mut() {
            if open.failed {
                // Past the failure point nothing is logged; re-execution
                // behaves identically.
                return Ok(DbResult::Failed);
            }
            match open.txn.execute(sql) {
                Ok(ExecOutcome::Rows { columns, rows }) => {
                    open.queries.push(sql.into());
                    open.write_results.push(None);
                    Ok(rows_to_db_result(columns, rows))
                }
                Ok(ExecOutcome::Write(w)) => {
                    open.queries.push(sql.into());
                    open.write_results.push(Some(write_outcome_to_result(w)));
                    Ok(DbResult::Write {
                        affected: w.affected,
                        insert_id: w.last_insert_id,
                    })
                }
                Err(SqlError::TransactionAborted) => Ok(DbResult::Failed),
                Err(_) => {
                    open.queries.push(sql.into());
                    open.write_results.push(None);
                    open.failed = true;
                    Ok(DbResult::Failed)
                }
            }
        } else {
            // Auto-commit single-statement transaction.
            let (result, seq) = self.shared.db.execute_autocommit(sql);
            let opnum = self.next_opnum();
            let (contents, out) = match result {
                Ok(ExecOutcome::Rows { columns, rows }) => (
                    OpContents::DbOp {
                        queries: vec![sql.into()],
                        succeeded: true,
                        write_results: vec![None],
                    },
                    rows_to_db_result(columns, rows),
                ),
                Ok(ExecOutcome::Write(w)) => (
                    OpContents::DbOp {
                        queries: vec![sql.into()],
                        succeeded: true,
                        write_results: vec![Some(write_outcome_to_result(w))],
                    },
                    DbResult::Write {
                        affected: w.affected,
                        insert_id: w.last_insert_id,
                    },
                ),
                Err(_) => (
                    OpContents::DbOp {
                        queries: vec![sql.into()],
                        succeeded: false,
                        write_results: vec![None],
                    },
                    DbResult::Failed,
                ),
            };
            self.record(ObjectName(object.to_string()), SeqNum(seq), opnum, contents);
            Ok(out)
        }
    }

    fn db_commit(&mut self, object: &str) -> Result<bool, BackendError> {
        let open = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("commit without transaction".into()))?;
        let (seq, ok) = open.txn.commit();
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            SeqNum(seq),
            opnum,
            OpContents::DbOp {
                queries: open.queries,
                succeeded: ok,
                write_results: open.write_results,
            },
        );
        Ok(ok)
    }

    fn db_rollback(&mut self, object: &str) -> Result<(), BackendError> {
        let open = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("rollback without transaction".into()))?;
        let seq = open.txn.rollback();
        let opnum = self.next_opnum();
        self.record(
            ObjectName(object.to_string()),
            SeqNum(seq),
            opnum,
            OpContents::DbOp {
                queries: open.queries,
                succeeded: false,
                write_results: open.write_results,
            },
        );
        Ok(())
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn end_of_request(&mut self) -> Result<(), BackendError> {
        if self.txn.is_some() {
            // Leaked transaction: roll it back (and log it) so the
            // verifier sees the same operation, then fail the request
            // with the deterministic message the verifier reproduces.
            self.db_rollback("db:main")?;
            return Err(BackendError::Fatal(
                "script ended with open transaction".into(),
            ));
        }
        Ok(())
    }
}

impl NondetProvider for RecordingBackend<'_> {
    fn time(&mut self) -> Result<i64, BackendError> {
        let t = self.shared.clock_seconds();
        self.record_nondet(NondetValue::Time(t));
        Ok(t)
    }

    fn microtime(&mut self) -> Result<f64, BackendError> {
        let t = self.shared.clock_micros() as f64 / 1_000_000.0;
        self.record_nondet(NondetValue::Microtime(t));
        Ok(t)
    }

    fn getpid(&mut self) -> Result<i64, BackendError> {
        self.record_nondet(NondetValue::Pid(self.pid));
        Ok(self.pid)
    }

    fn mt_rand(&mut self) -> Result<i64, BackendError> {
        let raw = self.shared.draw_random();
        self.record_nondet(NondetValue::Rand(raw));
        Ok(raw)
    }

    fn uniqid(&mut self) -> Result<String, BackendError> {
        let id = format!("{:013x}", self.shared.clock_micros());
        self.record_nondet(NondetValue::Uniqid(id.clone()));
        Ok(id)
    }
}
