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
//! `Some`) and written register and KV values. Write texts, every text
//! of an aborted transaction, KV keys and object names stay literal:
//! the redo executes every write and every query of an aborted
//! transaction, and `VersionedKv::build` hashes every key, so sharing
//! them would let a few wire bytes buy that work again and again.

use orochi_common::codec::{prealloc, Decoder, Encoder, Wire, WireError};
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

/// The operands of a state operation (the `opcontents` of §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpContents {
    /// Register read carries no operands.
    RegisterRead,
    /// Register write carries the value to write.
    RegisterWrite {
        /// Serialized value being written.
        value: Arc<[u8]>,
    },
    /// Key-value get carries the key.
    KvGet {
        /// Key to read.
        key: Arc<str>,
    },
    /// Key-value set carries key and value; `None` deletes the key.
    KvSet {
        /// Key to write.
        key: Arc<str>,
        /// New value, or `None` for deletion.
        value: Option<Arc<[u8]>>,
    },
    /// A database transaction: the SQL statements, whether the transaction
    /// committed, and the logged per-statement write results (`None` for
    /// reads).
    DbOp {
        /// SQL statements in program order.
        queries: Vec<Arc<str>>,
        /// True if the transaction committed; false if it aborted.
        succeeded: bool,
        /// Per-statement write results, parallel to `queries`.
        write_results: Vec<Option<DbWriteResult>>,
    },
}

impl OpContents {
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

impl Wire for OpContents {
    fn encode(&self, enc: &mut Encoder) {
        self.op_type().encode(enc);
        match self {
            OpContents::RegisterRead => {}
            OpContents::RegisterWrite { value } => enc.shared_bytes(value),
            OpContents::KvGet { key } => enc.str(key),
            OpContents::KvSet { key, value } => {
                enc.str(key);
                match value {
                    None => enc.bool(false),
                    Some(v) => {
                        enc.bool(true);
                        enc.shared_bytes(v);
                    }
                }
            }
            OpContents::DbOp {
                queries,
                succeeded,
                write_results,
            } => {
                // The outcome and write results first: they say which
                // texts are a committed transaction's SELECTs, and only
                // those are shared.
                enc.bool(*succeeded);
                write_results.encode(enc);
                enc.u64(queries.len() as u64);
                for (q, sql) in queries.iter().enumerate() {
                    if is_shared(*succeeded, write_results, q) {
                        enc.shared_str(sql);
                    } else {
                        enc.str(sql);
                    }
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match OpType::decode(dec)? {
            OpType::RegisterRead => OpContents::RegisterRead,
            OpType::RegisterWrite => OpContents::RegisterWrite {
                value: dec.shared_bytes()?,
            },
            OpType::KvGet => OpContents::KvGet {
                key: dec.str_ref()?.into(),
            },
            OpType::KvSet => {
                let key = dec.str_ref()?.into();
                let value = if dec.bool()? {
                    Some(dec.shared_bytes()?)
                } else {
                    None
                };
                OpContents::KvSet { key, value }
            }
            OpType::DbOp => {
                let succeeded = dec.bool()?;
                let write_results = Vec::<Option<DbWriteResult>>::decode(dec)?;
                let len = dec.u64()? as usize;
                if len > dec.remaining() {
                    return Err(WireError::Malformed("query count exceeds buffer"));
                }
                let mut queries = Vec::with_capacity(prealloc::<Arc<str>>(len));
                for q in 0..len {
                    queries.push(if is_shared(succeeded, &write_results, q) {
                        dec.shared_str()?
                    } else {
                        dec.str_ref()?.into()
                    });
                }
                OpContents::DbOp {
                    queries,
                    succeeded,
                    write_results,
                }
            }
        })
    }
}

/// True if query `q` of a `DbOp` goes through the dictionary: a read
/// (no logged write result) of a committed transaction. Every other
/// text is written literally.
fn is_shared(succeeded: bool, write_results: &[Option<DbWriteResult>], q: usize) -> bool {
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
        assert_eq!(OpContents::RegisterRead.op_type(), OpType::RegisterRead);
        assert_eq!(
            OpContents::KvSet {
                key: "k".into(),
                value: None
            }
            .op_type(),
            OpType::KvSet
        );
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let variants = vec![
            OpContents::RegisterRead,
            OpContents::RegisterWrite {
                value: vec![1, 2, 3].into(),
            },
            OpContents::KvGet { key: "k1".into() },
            OpContents::KvSet {
                key: "k2".into(),
                value: Some(vec![9].into()),
            },
            OpContents::KvSet {
                key: "k3".into(),
                value: None,
            },
            OpContents::DbOp {
                queries: vec!["SELECT 1".into(), "INSERT INTO t VALUES (1)".into()],
                succeeded: true,
                write_results: vec![
                    None,
                    Some(DbWriteResult {
                        affected: 1,
                        last_insert_id: Some(7),
                    }),
                ],
            },
        ];
        for v in variants {
            let bytes = v.to_wire_bytes();
            assert_eq!(OpContents::from_wire_bytes(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn object_name_roundtrip() {
        let n = ObjectName::db("main");
        assert_eq!(ObjectName::from_wire_bytes(&n.to_wire_bytes()).unwrap(), n);
    }
}
