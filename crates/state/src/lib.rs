//! Shared objects and operation logs.
//!
//! In the paper's model (§3.2), concurrent request executions interact
//! through *shared objects* with atomic semantics. OROCHI supports three
//! object types (§4.4):
//!
//! * **atomic registers** — per-user session data ([`register`]),
//! * **linearizable key-value stores** — the APC-style cache ([`kv`]),
//! * **SQL databases** — implemented in the separate `orochi-sqldb` crate.
//!
//! For the audit, the executor maintains an *operation log* per object
//! (§3.3): an ordered list of `(requestID, opnum, optype, opcontents)`
//! entries ([`oplog`]). Online, each object assigns a global sequence
//! number at its linearization point and the record library keeps
//! per-thread sub-logs that a stitcher later merges (§4.7) — see
//! [`recorder`].
//!
//! At audit time, reads are *simulated* from the logs. For registers this
//! is a backward walk to the latest write; for the key-value store the
//! verifier builds a versioned map first (§4.5, §A.7) — see
//! [`versioned_kv`].
//!
//! Objects are identified by canonical *names* (`"reg:sess:alice"`,
//! `"kv:apc"`, `"db:main"`). The reports carry one log per name; the
//! verifier never needs a trusted directory because re-execution itself
//! generates the target name of every operation and `CheckOp` compares it
//! against the log that claims the operation.

pub mod kv;
pub mod object;
pub mod oplog;
pub mod recorder;
pub mod register;
pub mod versioned_kv;

pub use kv::KvStore;
pub use object::{DbWriteResult, ObjectName, OpContents, OpContentsRef, OpType, WriteResults};
pub use oplog::{LogEntryRef, OpLog, OpLogEntry, OpLogs, OperandTables, PackedEntry};
pub use recorder::{Recorder, SubLogEntry};
pub use register::{AtomicRegister, RegisterBank};
pub use versioned_kv::VersionedKv;
