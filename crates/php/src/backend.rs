//! The hooks through which the VM reaches shared state and
//! nondeterminism.
//!
//! The same bytecode runs in three harnesses: the online server (real
//! objects + recording), the verifier's grouped re-execution
//! (simulate-and-check per lane), and the verifier's scalar run of a
//! singleton, an unrouted path or a `force_scalar` audit.
//! Each provides its own [`StateBackend`] and [`NondetProvider`]; the VM
//! itself never touches shared state directly.
//!
//! Object naming: the runtime composes canonical object names from
//! program data — `reg:sess:<cookie>` for session registers, `kv:<name>`
//! for key-value stores, `db:<name>` for databases. Because both the
//! online runtime and the re-execution runtime derive names the same
//! way, the audit's `CheckOp` can compare the re-executed target against
//! the log's object without a trusted directory.

/// Result of a database query as seen by the program.
#[derive(Debug, Clone)]
pub enum DbResult {
    /// SELECT result: the list-of-assoc-rows array the program sees,
    /// built with [`crate::builtins::db_rows_to_value`]. Handing the
    /// value over as is lets a verifier give every request that reads
    /// one result the same array.
    Rows(crate::value::Value),
    /// Write statement result.
    Write {
        /// Rows affected.
        affected: u64,
        /// Auto-increment id assigned, if any.
        insert_id: Option<i64>,
    },
    /// The statement failed (duplicate key, bad SQL, ...); the program
    /// observes `false` from `db_query`.
    Failed,
}

/// Error from a backend call.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The audit rejected (verifier side only): abort re-execution and
    /// propagate the rejection.
    AuditReject(String),
    /// Unrecoverable runtime misuse (e.g. nested transaction); the
    /// request fails with a 500 like any fatal PHP error.
    Fatal(String),
}

/// Shared-state operations. Every call is (on the server) a recorded
/// operation or (at the verifier) a checked-and-simulated one.
pub trait StateBackend {
    /// Atomic register read (session load).
    fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError>;
    /// Atomic register write (session store).
    fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError>;
    /// Key-value get (APC fetch).
    fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError>;
    /// Key-value set (APC store; `None` deletes).
    fn kv_set(
        &mut self,
        object: &str,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), BackendError>;
    /// Opens a multi-statement transaction on `object`.
    fn db_begin(&mut self, object: &str) -> Result<(), BackendError>;
    /// Executes one SQL statement. Outside a transaction this is an
    /// auto-committed single-statement transaction; inside, it joins the
    /// open one.
    fn db_query(&mut self, object: &str, sql: &str) -> Result<DbResult, BackendError>;
    /// Commits the open transaction; returns false if it had failed.
    fn db_commit(&mut self, object: &str) -> Result<bool, BackendError>;
    /// Rolls back the open transaction.
    fn db_rollback(&mut self, object: &str) -> Result<(), BackendError>;
    /// True while a transaction is open (used by the runtime to forbid
    /// nested object operations, §4.4).
    fn in_txn(&self) -> bool;
    /// Called by the runtime when the script finishes, before the
    /// session write-back. Implementations that find a leaked (still
    /// open) transaction must close it and return a deterministic fatal
    /// error, so the online and re-executed responses agree.
    fn end_of_request(&mut self) -> Result<(), BackendError> {
        if self.in_txn() {
            return Err(BackendError::Fatal(
                "script ended with open transaction".into(),
            ));
        }
        Ok(())
    }
}

/// Nondeterministic builtins (§4.6). The server draws real values and
/// records them; the verifier replays the recorded ones.
pub trait NondetProvider {
    /// `time()`.
    fn time(&mut self) -> Result<i64, BackendError>;
    /// `microtime(true)`.
    fn microtime(&mut self) -> Result<f64, BackendError>;
    /// `getpid()`.
    fn getpid(&mut self) -> Result<i64, BackendError>;
    /// `mt_rand(lo, hi)` — the backend returns the raw draw; the VM
    /// range-reduces deterministically.
    fn mt_rand(&mut self) -> Result<i64, BackendError>;
    /// `uniqid()`.
    fn uniqid(&mut self) -> Result<String, BackendError>;
}

/// Combined runtime backend: what [`crate::vm::run_request`] needs.
pub trait RuntimeBackend: StateBackend + NondetProvider {}

impl<T: StateBackend + NondetProvider> RuntimeBackend for T {}

/// A backend for programs that use no shared state (unit tests, the
/// Fig. 10 microbenchmarks). Every state call is a fatal error; nondet
/// calls return fixed values.
#[derive(Debug, Default)]
pub struct NullBackend;

impl StateBackend for NullBackend {
    fn register_read(&mut self, _object: &str) -> Result<Option<Vec<u8>>, BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn register_write(&mut self, _object: &str, _value: Vec<u8>) -> Result<(), BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn kv_get(&mut self, _object: &str, _key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn kv_set(
        &mut self,
        _object: &str,
        _key: &str,
        _value: Option<Vec<u8>>,
    ) -> Result<(), BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn db_begin(&mut self, _object: &str) -> Result<(), BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn db_query(&mut self, _object: &str, _sql: &str) -> Result<DbResult, BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn db_commit(&mut self, _object: &str) -> Result<bool, BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn db_rollback(&mut self, _object: &str) -> Result<(), BackendError> {
        Err(BackendError::Fatal("no state backend".into()))
    }
    fn in_txn(&self) -> bool {
        false
    }
}

impl NondetProvider for NullBackend {
    fn time(&mut self) -> Result<i64, BackendError> {
        Ok(0)
    }
    fn microtime(&mut self) -> Result<f64, BackendError> {
        Ok(0.0)
    }
    fn getpid(&mut self) -> Result<i64, BackendError> {
        Ok(1)
    }
    fn mt_rand(&mut self) -> Result<i64, BackendError> {
        Ok(4)
    }
    fn uniqid(&mut self) -> Result<String, BackendError> {
        Ok("fixed".into())
    }
}
