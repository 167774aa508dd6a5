//! Object naming and the operation vocabulary.
//!
//! Every shared object has a canonical [`ObjectName`]; every operation is
//! a `(optype, opcontents)` pair as in Fig. 12 of the paper:
//!
//! | optype        | opcontents                                      |
//! |---------------|-------------------------------------------------|
//! | RegisterRead  | empty                                           |
//! | RegisterWrite | value to write                                  |
//! | KvGet         | key to read                                     |
//! | KvSet         | key and value to write (`None` deletes the key) |
//! | DbOp          | SQL statement(s), whether succeeds              |
//!
//! For `DbOp` we additionally log the per-statement *write results*
//! (affected row count, last insert id): the paper routes database
//! nondeterminism such as auto-increment ids through the nondeterminism
//! reports (§4.6); we instead place these values in the operation log
//! entry and have the verifier's redo pass recompute and check them, which
//! turns an unverifiable report into a checked one (see DESIGN.md).
//!
//! Operands are shared handles (`Arc<str>`, `Arc<[u8]>`). On the wire,
//! an operand whose audit work per reference before re-execution is
//! O(1) goes through the codec's first-use dictionary: a committed
//! transaction's SELECT texts (queries whose logged write result is not
//! `Some`), KV keys, and written register and KV values. Write texts,
//! every text of an aborted transaction and object names stay literal:
//! the redo executes every write and every query of an aborted
//! transaction, so sharing them would let a few wire bytes buy that work
//! again and again. A key is stored as its table index, and
//! `VersionedKv::build` files each `KvSet` under that index without
//! hashing it (see `crate::oplog`).

use orochi_common::codec::{Decoder, Encoder, Wire, WireError};
use std::sync::Arc;

/// Canonical name of a shared object.
///
/// Names are produced by program logic during execution (online and
/// re-execution alike), e.g. the session register for a cookie `alice` is
/// `reg:sess:alice`. Using names as object identity removes the need for
/// any trusted object directory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectName(pub String);

impl ObjectName {
    /// The register object backing a session cookie.
    pub fn session(cookie: &str) -> Self {
        ObjectName(format!("reg:sess:{cookie}"))
    }

    /// A named key-value store (OROCHI models the APC).
    pub fn kv(store: &str) -> Self {
        ObjectName(format!("kv:{store}"))
    }

    /// A named SQL database.
    pub fn db(name: &str) -> Self {
        ObjectName(format!("db:{name}"))
    }

    /// Borrows the canonical string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Wire for ObjectName {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ObjectName(dec.str()?))
    }
}

/// The type of a state operation (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Read an atomic register.
    RegisterRead,
    /// Write an atomic register.
    RegisterWrite,
    /// Get a key from a key-value store.
    KvGet,
    /// Set (or delete) a key in a key-value store.
    KvSet,
    /// Execute a database transaction (one or more SQL statements).
    DbOp,
}

impl OpType {
    /// True for operations whose results must be simulated from the logs
    /// during re-execution (reads); writes are merely checked.
    pub fn is_read(self) -> bool {
        matches!(self, OpType::RegisterRead | OpType::KvGet)
    }
}

impl Wire for OpType {
    fn encode(&self, enc: &mut Encoder) {
        enc.byte(match self {
            OpType::RegisterRead => 0,
            OpType::RegisterWrite => 1,
            OpType::KvGet => 2,
            OpType::KvSet => 3,
            OpType::DbOp => 4,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.byte()? {
            0 => OpType::RegisterRead,
            1 => OpType::RegisterWrite,
            2 => OpType::KvGet,
            3 => OpType::KvSet,
            4 => OpType::DbOp,
            _ => return Err(WireError::Malformed("unknown optype")),
        })
    }
}

/// Result of a database *write* statement, logged alongside the statement
/// and re-checked by the verifier's redo pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DbWriteResult {
    /// Number of rows the statement inserted/updated/deleted.
    pub affected: u64,
    /// Auto-increment id assigned by an INSERT, if any.
    pub last_insert_id: Option<i64>,
}

impl Wire for DbWriteResult {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.affected);
        self.last_insert_id.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Self {
            affected: dec.u64()?,
            last_insert_id: Option::<i64>::decode(dec)?,
        })
    }
}

/// The operands of a state operation (the `opcontents` of §3.3), over
/// the operand storage its type parameters name.
///
/// With the defaults it is the *owned* form: each entry holds its own
/// handles, which is how the recorder, the tests and the mutation
/// harness build and edit entries ([`crate::oplog::OpLogEntry`]). An
/// [`crate::oplog::OpLog`] stores none of these: it packs its entries
/// into fixed-size records over shared operand tables, and lends each
/// one out as an [`OpContentsRef`], a `Copy` view of the same shape
/// whose fields borrow the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpContents<Q = Vec<Arc<str>>, W = Vec<Option<DbWriteResult>>, K = Arc<str>, V = Arc<[u8]>>
{
    /// Register read carries no operands.
    RegisterRead,
    /// Register write carries the value to write.
    RegisterWrite {
        /// Serialized value being written.
        value: V,
    },
    /// Key-value get carries the key.
    KvGet {
        /// Key to read.
        key: K,
    },
    /// Key-value set carries key and value; `None` deletes the key.
    KvSet {
        /// Key to write.
        key: K,
        /// New value, or `None` for deletion.
        value: Option<V>,
    },
    /// A database transaction: the SQL statements, whether the transaction
    /// committed, and the logged per-statement write results (`None` for
    /// reads).
    DbOp {
        /// SQL statements in program order.
        queries: Q,
        /// True if the transaction committed; false if it aborted.
        succeeded: bool,
        /// Per-statement write results, parallel to `queries`.
        write_results: W,
    },
}

/// A log entry's operands, borrowed from its log's operand tables.
pub type OpContentsRef<'a> = OpContents<&'a [Arc<str>], WriteResults<'a>, &'a str, &'a [u8]>;

/// A transaction's logged write results, borrowed: a slice whose
/// reference iterates, so a view's `write_results` zips like the owned
/// form's `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteResults<'a>(pub &'a [Option<DbWriteResult>]);

impl<'a> std::ops::Deref for WriteResults<'a> {
    type Target = [Option<DbWriteResult>];
    fn deref(&self) -> &[Option<DbWriteResult>] {
        self.0
    }
}

impl<'a> IntoIterator for &WriteResults<'a> {
    type Item = &'a Option<DbWriteResult>;
    type IntoIter = std::slice::Iter<'a, Option<DbWriteResult>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<Q, W, K, V> OpContents<Q, W, K, V> {
    /// The [`OpType`] tag this contents value belongs to.
    pub fn op_type(&self) -> OpType {
        match self {
            OpContents::RegisterRead => OpType::RegisterRead,
            OpContents::RegisterWrite { .. } => OpType::RegisterWrite,
            OpContents::KvGet { .. } => OpType::KvGet,
            OpContents::KvSet { .. } => OpType::KvSet,
            OpContents::DbOp { .. } => OpType::DbOp,
        }
    }
}

/// True if query `q` of a `DbOp` goes through the dictionary: a read
/// (no logged write result) of a committed transaction. Every other
/// text is written literally.
pub(crate) fn is_shared(
    succeeded: bool,
    write_results: &[Option<DbWriteResult>],
    q: usize,
) -> bool {
    succeeded && !matches!(write_results.get(q), Some(Some(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names() {
        assert_eq!(ObjectName::session("alice").as_str(), "reg:sess:alice");
        assert_eq!(ObjectName::kv("apc").as_str(), "kv:apc");
        assert_eq!(ObjectName::db("main").as_str(), "db:main");
    }

    #[test]
    fn optype_read_classification() {
        assert!(OpType::RegisterRead.is_read());
        assert!(OpType::KvGet.is_read());
        assert!(!OpType::RegisterWrite.is_read());
        assert!(!OpType::KvSet.is_read());
        // DbOp results are simulated per-query, not per-op.
        assert!(!OpType::DbOp.is_read());
    }

    #[test]
    fn opcontents_type_tags() {
        let read: OpContents = OpContents::RegisterRead;
        assert_eq!(read.op_type(), OpType::RegisterRead);
        let set: OpContents = OpContents::KvSet {
            key: "k".into(),
            value: None,
        };
        assert_eq!(set.op_type(), OpType::KvSet);
    }

    #[test]
    fn object_name_roundtrip() {
        let n = ObjectName::db("main");
        assert_eq!(ObjectName::from_wire_bytes(&n.to_wire_bytes()).unwrap(), n);
    }
}
