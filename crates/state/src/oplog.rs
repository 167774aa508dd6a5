//! Operation logs: the executor's (untrusted) record of state operations.
//!
//! For each shared object `i`, the executor maintains an ordered log
//! `OL_i : N+ → (requestID, opnum, optype, opcontents)` (§3.3). Logs are
//! conceptually 1-indexed — sequence number `s` corresponds to Rust index
//! `s - 1` — matching the paper's pseudocode and the `(i, seqnum)` values
//! stored in the verifier's `OpMap`.
//!
//! # Storage
//!
//! A log stores each entry as a fixed 12-byte [`PackedEntry`]: the
//! request's row, the opnum, a kind and one index into exact-capacity
//! [`OperandTables`]. The tables hold the request of each row, the
//! distinct texts (KV keys, and the dictionary's SELECT texts), the
//! written values, every transaction's query texts and write results,
//! and the `(key, value)` pair of each `KvSet`. Every log decoded from
//! one bundle shares one set of tables, filled in the decoder's one
//! pass, so an operand referenced any number of times is stored once
//! and a request is numbered once: readers of the rows (the OpMap)
//! need no hash per entry, and [`crate::VersionedKv`] files writes by
//! key index. Within one set of tables distinct text indices hold
//! distinct texts. A decoded committed transaction of reads only holds
//! nothing but dictionary texts, so equal ones share one transaction
//! record: on the SQL apps' served bundles three in four transactions
//! or more reuse an earlier one's.
//!
//! Entries are read in place as [`LogEntryRef`]s, whose contents are a
//! borrowed [`OpContentsRef`]. The owned [`OpLogEntry`] is how entries
//! are built and edited: [`OpLog::from_entries`] packs them, and
//! [`OpLog::entries`] copies them back out.

use crate::object::{
    is_shared, DbWriteResult, ObjectName, OpContents, OpContentsRef, OpType, WriteResults,
};
use orochi_common::codec::{prealloc, Decoder, Encoder, Wire, WireError};
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use std::collections::HashMap;
use std::sync::Arc;

/// One entry of an operation log, owned: the form entries are built and
/// edited in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLogEntry {
    /// The request that (allegedly) issued the operation.
    pub rid: RequestId,
    /// The per-request operation number.
    pub opnum: OpNum,
    /// The operation's operands. The `optype` of §3.3 is derivable via
    /// [`OpContents::op_type`].
    pub contents: OpContents,
}

impl OpLogEntry {
    /// The operation's type tag.
    pub fn op_type(&self) -> OpType {
        self.contents.op_type()
    }
}

/// One entry of an operation log, lent out of its log's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntryRef<'a> {
    /// The request that (allegedly) issued the operation.
    pub rid: RequestId,
    /// The per-request operation number.
    pub opnum: OpNum,
    /// The operation's operands, borrowed.
    pub contents: OpContentsRef<'a>,
}

impl LogEntryRef<'_> {
    /// The operation's type tag.
    pub fn op_type(&self) -> OpType {
        self.contents.op_type()
    }
}

/// The stored kind of a [`PackedEntry`]: its [`OpType`], with a
/// transaction's outcome folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    RegisterRead,
    RegisterWrite,
    KvGet,
    KvSet,
    DbCommit,
    DbAbort,
}

impl Kind {
    fn op_type(self) -> OpType {
        match self {
            Kind::RegisterRead => OpType::RegisterRead,
            Kind::RegisterWrite => OpType::RegisterWrite,
            Kind::KvGet => OpType::KvGet,
            Kind::KvSet => OpType::KvSet,
            Kind::DbCommit | Kind::DbAbort => OpType::DbOp,
        }
    }
}

/// One stored log entry: 12 bytes, whatever its operands.
///
/// The low 29 bits of `tagged` index the table its kind (the high
/// three) names: `values` for a register write, `texts` for a KV
/// get's key, `kv_sets` for a KV set and `txns` for a transaction; a
/// register read has none.
#[derive(Debug, Clone, Copy)]
pub struct PackedEntry {
    row: u32,
    opnum: u32,
    tagged: u32,
}

/// Bits of a [`PackedEntry`]'s operand index; the kind takes the rest.
const OPERAND_BITS: u32 = 29;

impl PackedEntry {
    fn new(row: u32, opnum: u32, kind: Kind, operand: u32) -> Self {
        debug_assert!(operand < 1 << OPERAND_BITS);
        Self {
            row,
            opnum,
            tagged: (kind as u32) << OPERAND_BITS | operand,
        }
    }

    fn kind(&self) -> Kind {
        match self.tagged >> OPERAND_BITS {
            0 => Kind::RegisterRead,
            1 => Kind::RegisterWrite,
            2 => Kind::KvGet,
            3 => Kind::KvSet,
            4 => Kind::DbCommit,
            _ => Kind::DbAbort,
        }
    }

    fn operand(&self) -> u32 {
        self.tagged & ((1 << OPERAND_BITS) - 1)
    }
}

/// A `KvSet` with no value: a delete.
const NO_VALUE: u32 = u32::MAX;

/// The operand tables one or more logs' [`PackedEntry`]s index.
#[derive(Debug, Clone, Default)]
pub struct OperandTables {
    /// Per row: its request.
    rids: Vec<RequestId>,
    /// Distinct texts: KV keys (and, decoded, the dictionary's SELECTs).
    texts: Vec<Arc<str>>,
    /// Written register and KV values.
    values: Vec<Arc<[u8]>>,
    /// Every transaction's query texts, transaction by transaction.
    query_texts: Vec<Arc<str>>,
    /// Every transaction's logged write results, likewise.
    query_results: Vec<Option<DbWriteResult>>,
    /// Per transaction: where its texts and its results start; each
    /// runs up to the next transaction's start.
    txns: Vec<(u32, u32)>,
    /// Per `KvSet`: its key's text index and its value's index, or
    /// [`NO_VALUE`].
    kv_sets: Vec<(u32, u32)>,
}

/// A table position as stored: rows in a `u32`, operands in
/// [`OPERAND_BITS`].
fn index(n: usize) -> Result<u32, WireError> {
    (n < 1 << OPERAND_BITS)
        .then_some(n as u32)
        .ok_or(WireError::Malformed("operand table overflow"))
}

impl OperandTables {
    /// The request of each row, by row.
    pub fn rids(&self) -> &[RequestId] {
        &self.rids
    }

    /// The entry `e`, borrowed.
    fn entry(&self, e: &PackedEntry) -> LogEntryRef<'_> {
        LogEntryRef {
            rid: self.rids[e.row as usize],
            opnum: OpNum(e.opnum),
            contents: self.contents(e),
        }
    }

    fn contents(&self, e: &PackedEntry) -> OpContentsRef<'_> {
        let op = e.operand() as usize;
        match e.kind() {
            Kind::RegisterRead => OpContents::RegisterRead,
            Kind::RegisterWrite => OpContents::RegisterWrite {
                value: &self.values[op],
            },
            Kind::KvGet => OpContents::KvGet {
                key: &self.texts[op],
            },
            Kind::KvSet => {
                let (key, value) = self.kv_sets[op];
                OpContents::KvSet {
                    key: &self.texts[key as usize],
                    value: (value != NO_VALUE).then(|| &*self.values[value as usize]),
                }
            }
            Kind::DbCommit | Kind::DbAbort => {
                let (queries, results) = self.txn(op);
                OpContents::DbOp {
                    queries,
                    succeeded: e.kind() == Kind::DbCommit,
                    write_results: WriteResults(results),
                }
            }
        }
    }

    /// Transaction `t`'s query texts and write results.
    fn txn(&self, t: usize) -> (&[Arc<str>], &[Option<DbWriteResult>]) {
        let (q, r) = self.txns[t];
        let (q_end, r_end) = self.txns.get(t + 1).map_or(
            (self.query_texts.len(), self.query_results.len()),
            |&(q, r)| (q as usize, r as usize),
        );
        (
            &self.query_texts[q as usize..q_end],
            &self.query_results[r as usize..r_end],
        )
    }

    /// The entry `e` as an owned [`OpLogEntry`] whose operand handles
    /// are clones of the tables' own.
    fn owned(&self, e: &PackedEntry) -> OpLogEntry {
        let op = e.operand() as usize;
        let value = |v: u32| (v != NO_VALUE).then(|| Arc::clone(&self.values[v as usize]));
        let contents = match e.kind() {
            Kind::RegisterRead => OpContents::RegisterRead,
            Kind::RegisterWrite => OpContents::RegisterWrite {
                value: Arc::clone(&self.values[op]),
            },
            Kind::KvGet => OpContents::KvGet {
                key: Arc::clone(&self.texts[op]),
            },
            Kind::KvSet => {
                let (key, v) = self.kv_sets[op];
                OpContents::KvSet {
                    key: Arc::clone(&self.texts[key as usize]),
                    value: value(v),
                }
            }
            Kind::DbCommit | Kind::DbAbort => {
                let (queries, results) = self.txn(op);
                OpContents::DbOp {
                    queries: queries.to_vec(),
                    succeeded: e.kind() == Kind::DbCommit,
                    write_results: results.to_vec(),
                }
            }
        };
        OpLogEntry {
            rid: self.rids[e.row as usize],
            opnum: OpNum(e.opnum),
            contents,
        }
    }

    /// The key's text index and the value's index ([`NO_VALUE`] for a
    /// delete) of the entry `e`, if it is a `KvSet`.
    pub(crate) fn kv_set(&self, e: &PackedEntry) -> Option<(u32, u32)> {
        (e.kind() == Kind::KvSet).then(|| self.kv_sets[e.operand() as usize])
    }

    pub(crate) fn text(&self, k: u32) -> &str {
        &self.texts[k as usize]
    }

    /// Value `v`, or `None` for [`NO_VALUE`].
    pub(crate) fn value(&self, v: u32) -> Option<&[u8]> {
        (v != NO_VALUE).then(|| &*self.values[v as usize])
    }

    /// Writes entry `e` in the wire format: KV keys, committed SELECT
    /// texts and written values through the dictionary.
    fn encode_entry(&self, e: &PackedEntry, enc: &mut Encoder) {
        self.rids[e.row as usize].encode(enc);
        OpNum(e.opnum).encode(enc);
        e.kind().op_type().encode(enc);
        let op = e.operand() as usize;
        match e.kind() {
            Kind::RegisterRead => {}
            Kind::RegisterWrite => enc.shared_bytes(&self.values[op]),
            Kind::KvGet => enc.shared_str(&self.texts[op]),
            Kind::KvSet => {
                let (key, value) = self.kv_sets[op];
                enc.shared_str(&self.texts[key as usize]);
                enc.bool(value != NO_VALUE);
                if value != NO_VALUE {
                    enc.shared_bytes(&self.values[value as usize]);
                }
            }
            Kind::DbCommit | Kind::DbAbort => {
                // The outcome and write results first: they say which
                // texts are a committed transaction's SELECTs, and only
                // those are shared.
                let succeeded = e.kind() == Kind::DbCommit;
                let (queries, results) = self.txn(op);
                enc.bool(succeeded);
                enc.u64(results.len() as u64);
                results.iter().for_each(|w| w.encode(enc));
                enc.u64(queries.len() as u64);
                for (q, sql) in queries.iter().enumerate() {
                    if is_shared(succeeded, results, q) {
                        enc.shared_str(sql);
                    } else {
                        enc.str(sql);
                    }
                }
            }
        }
    }

    /// Releases every table's spare capacity.
    fn shrink(&mut self) {
        self.rids.shrink_to_fit();
        self.texts.shrink_to_fit();
        self.values.shrink_to_fit();
        self.query_texts.shrink_to_fit();
        self.query_results.shrink_to_fit();
        self.txns.shrink_to_fit();
        self.kv_sets.shrink_to_fit();
    }
}

/// The maps that number requests and intern keys as owned entries are
/// packed into one set of [`OperandTables`].
#[derive(Debug, Clone, Default)]
struct Interner {
    rows: HashMap<RequestId, u32>,
    keys: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// The row of `rid` in `t`, numbering it on first sight.
    fn row(&mut self, t: &mut OperandTables, rid: RequestId) -> Result<u32, WireError> {
        let next = index(t.rids.len())?;
        let row = *self.rows.entry(rid).or_insert(next);
        if row == next {
            t.rids.push(rid);
        }
        Ok(row)
    }

    /// Packs `e` into `t`.
    fn pack(&mut self, t: &mut OperandTables, e: &OpLogEntry) -> PackedEntry {
        let at = |n: usize| index(n).expect("an operand table holds under 2^29 entries");
        let row = self.row(t, e.rid).expect("fewer than 2^29 requests");
        let mut key = |t: &mut OperandTables, key: &Arc<str>| {
            *self.keys.entry(Arc::clone(key)).or_insert_with(|| {
                t.texts.push(Arc::clone(key));
                at(t.texts.len() - 1)
            })
        };
        let (kind, operand) = match &e.contents {
            OpContents::RegisterRead => (Kind::RegisterRead, 0),
            OpContents::RegisterWrite { value } => {
                t.values.push(Arc::clone(value));
                (Kind::RegisterWrite, at(t.values.len() - 1))
            }
            OpContents::KvGet { key: k } => (Kind::KvGet, key(t, k)),
            OpContents::KvSet { key: k, value } => {
                let k = key(t, k);
                let v = value.as_ref().map_or(NO_VALUE, |v| {
                    t.values.push(Arc::clone(v));
                    at(t.values.len() - 1)
                });
                t.kv_sets.push((k, v));
                (Kind::KvSet, at(t.kv_sets.len() - 1))
            }
            OpContents::DbOp {
                queries,
                succeeded,
                write_results,
            } => {
                t.txns
                    .push((at(t.query_texts.len()), at(t.query_results.len())));
                t.query_texts.extend(queries.iter().cloned());
                t.query_results.extend_from_slice(write_results);
                let kind = if *succeeded {
                    Kind::DbCommit
                } else {
                    Kind::DbAbort
                };
                (kind, at(t.txns.len() - 1))
            }
        };
        PackedEntry::new(row, e.opnum.0, kind, operand)
    }
}

/// Fills one set of [`OperandTables`] for a run of logs, numbering each
/// request once.
#[derive(Default)]
struct Packer {
    tables: OperandTables,
    interner: Interner,
    /// Decoded read-only committed transactions, by their result count
    /// and the addresses of their (dictionary-shared) texts -> their
    /// transaction index: equal ones are stored once.
    reads: HashMap<Vec<usize>, u32>,
    /// Scratch for a transaction's key in `reads`.
    key: Vec<usize>,
}

impl Packer {
    fn row(&mut self, rid: RequestId) -> Result<u32, WireError> {
        self.interner.row(&mut self.tables, rid)
    }

    /// Packs owned entries, interning each key's text.
    fn pack(&mut self, entries: &[OpLogEntry]) -> Vec<PackedEntry> {
        (entries.iter())
            .map(|e| self.interner.pack(&mut self.tables, e))
            .collect()
    }

    /// Reads one log's entries, in the same pass filling the tables and
    /// numbering the rows. Keys and values are stored as their
    /// dictionary positions; [`Packer::finish`] takes the dictionary.
    fn decode_log(&mut self, dec: &mut Decoder<'_>) -> Result<Vec<PackedEntry>, WireError> {
        let n = dec.u64()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Malformed("vector length exceeds buffer"));
        }
        let mut entries = Vec::with_capacity(prealloc::<PackedEntry>(n));
        for _ in 0..n {
            entries.push(self.decode_entry(dec)?);
        }
        entries.shrink_to_fit();
        Ok(entries)
    }

    fn decode_entry(&mut self, dec: &mut Decoder<'_>) -> Result<PackedEntry, WireError> {
        let row = self.row(RequestId::decode(dec)?)?;
        let opnum = OpNum::decode(dec)?.0;
        let t = &mut self.tables;
        let (kind, operand) = match OpType::decode(dec)? {
            OpType::RegisterRead => (Kind::RegisterRead, 0),
            OpType::RegisterWrite => (Kind::RegisterWrite, index(dec.shared_bytes_index()?)?),
            OpType::KvGet => (Kind::KvGet, index(dec.shared_str_index()?)?),
            OpType::KvSet => {
                let key = index(dec.shared_str_index()?)?;
                let value = if dec.bool()? {
                    index(dec.shared_bytes_index()?)?
                } else {
                    NO_VALUE
                };
                t.kv_sets.push((key, value));
                (Kind::KvSet, index(t.kv_sets.len() - 1)?)
            }
            OpType::DbOp => {
                let succeeded = dec.bool()?;
                let (q_start, r_start) = (t.query_texts.len(), t.query_results.len());
                let n = dec.u64()? as usize;
                if n > dec.remaining() {
                    return Err(WireError::Malformed("vector length exceeds buffer"));
                }
                for _ in 0..n {
                    t.query_results.push(Option::<DbWriteResult>::decode(dec)?);
                }
                let len = dec.u64()? as usize;
                if len > dec.remaining() {
                    return Err(WireError::Malformed("query count exceeds buffer"));
                }
                for q in 0..len {
                    let sql = if is_shared(succeeded, &t.query_results[r_start..], q) {
                        dec.shared_str()?
                    } else {
                        dec.str_ref()?.into()
                    };
                    t.query_texts.push(sql);
                }
                let kind = if succeeded {
                    Kind::DbCommit
                } else {
                    Kind::DbAbort
                };
                // A committed transaction of reads only holds nothing but
                // dictionary texts, so one equal to an earlier one shares
                // its record.
                let read_only = succeeded && t.query_results[r_start..].iter().all(Option::is_none);
                let key = &mut self.key;
                key.clear();
                if read_only {
                    let texts = t.query_texts[q_start..].iter();
                    key.push(n);
                    key.extend(texts.map(|q| Arc::as_ptr(q) as *const u8 as usize));
                    if let Some(&txn) = self.reads.get(key.as_slice()) {
                        t.query_texts.truncate(q_start);
                        t.query_results.truncate(r_start);
                        return Ok(PackedEntry::new(row, opnum, kind, txn));
                    }
                }
                t.txns.push((index(q_start)?, index(r_start)?));
                let txn = index(t.txns.len() - 1)?;
                if read_only {
                    self.reads.insert(key.clone(), txn);
                }
                (kind, txn)
            }
        };
        Ok(PackedEntry::new(row, opnum, kind, operand))
    }

    /// The finished tables, at exact capacity; a decoding packer takes
    /// the texts and values from `dec`'s dictionary.
    fn finish(mut self, dec: Option<&mut Decoder<'_>>) -> Arc<OperandTables> {
        if let Some(dec) = dec {
            self.tables.texts = dec.take_shared_strs();
            self.tables.values = dec.take_shared_bytes();
        }
        self.tables.shrink();
        Arc::new(self.tables)
    }
}

/// The ordered operation log of one shared object.
#[derive(Clone, Default)]
pub struct OpLog {
    entries: Vec<PackedEntry>,
    tables: Arc<OperandTables>,
    /// Set by the first [`OpLog::push`]: the maps later appends number
    /// and intern through.
    interner: Option<Box<Interner>>,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log from entries already in order, packing them.
    pub fn from_entries(entries: Vec<OpLogEntry>) -> Self {
        let mut packer = Packer::default();
        let entries = packer.pack(&entries);
        Self::over(entries, packer.finish(None))
    }

    /// A log of packed `entries` over `tables`.
    fn over(entries: Vec<PackedEntry>, tables: Arc<OperandTables>) -> Self {
        Self {
            entries,
            tables,
            interner: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry, returning its 1-based sequence number. The
    /// first append repacks the log into tables of its own (a decoded
    /// log shares its bundle's) and keeps the maps that packing built,
    /// so each later one packs the new entry alone.
    pub fn push(&mut self, entry: OpLogEntry) -> SeqNum {
        if self.interner.is_none() {
            let mut packer = Packer::default();
            self.entries = packer.pack(&self.entries());
            self.tables = Arc::new(packer.tables);
            self.interner = Some(Box::new(packer.interner));
        }
        let interner = self.interner.as_mut().expect("set above");
        let packed = interner.pack(Arc::make_mut(&mut self.tables), &entry);
        self.entries.push(packed);
        SeqNum(self.entries.len() as u64)
    }

    /// Fetches the entry with 1-based sequence number `seq`.
    pub fn get(&self, seq: SeqNum) -> Option<LogEntryRef<'_>> {
        let at = usize::try_from(seq.0.checked_sub(1)?).ok()?;
        self.entries.get(at).map(|e| self.tables.entry(e))
    }

    /// Iterates `(seq, entry)` pairs in log order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, LogEntryRef<'_>)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(idx, e)| (SeqNum(idx as u64 + 1), self.tables.entry(e)))
    }

    /// Each entry's `(rid, opnum)`, in log order, without its operands.
    pub fn heads(&self) -> impl Iterator<Item = (RequestId, OpNum)> + '_ {
        let rids = self.tables.rids();
        (self.entries.iter()).map(|e| (rids[e.row as usize], OpNum(e.opnum)))
    }

    /// Each entry's opnum, in log order.
    pub fn opnums(&self) -> impl Iterator<Item = OpNum> + '_ {
        self.entries.iter().map(|e| OpNum(e.opnum))
    }

    /// Copies the entries out as owned values, for editing; rebuild with
    /// [`OpLog::from_entries`]. Reading needs no copy: see
    /// [`OpLog::iter`].
    pub fn entries(&self) -> Vec<OpLogEntry> {
        self.entries.iter().map(|e| self.tables.owned(e)).collect()
    }

    /// The tables this log's entries index, shared by every log decoded
    /// from one bundle.
    pub fn tables(&self) -> &Arc<OperandTables> {
        &self.tables
    }

    /// Each entry's row in [`OpLog::tables`], in log order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.row)
    }

    /// The packed entries, in log order.
    pub(crate) fn packed(&self) -> &[PackedEntry] {
        &self.entries
    }

    /// True if any entry has the given operation type. The audit
    /// prologue uses this to decide which versioned stores and indexes
    /// to build for each log before sharding the builds across the
    /// worker pool.
    pub fn contains_op_type(&self, ty: OpType) -> bool {
        self.entries.iter().any(|e| e.kind().op_type() == ty)
    }
}

impl PartialEq for OpLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a.1 == b.1)
    }
}

impl Eq for OpLog {}

impl std::fmt::Debug for OpLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, e)| e)).finish()
    }
}

impl Wire for OpLog {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.entries.len() as u64);
        for e in &self.entries {
            self.tables.encode_entry(e, enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut packer = Packer::default();
        let entries = packer.decode_log(dec)?;
        Ok(Self::over(entries, packer.finish(Some(dec))))
    }
}

/// The full set of operation logs in a report: one `(name, log)` pair per
/// shared object, in a deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpLogs {
    logs: Vec<(ObjectName, OpLog)>,
}

impl OpLogs {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates from `(name, log)` pairs; duplicate names are rejected by
    /// the audit's report validation, not here.
    pub fn from_pairs(logs: Vec<(ObjectName, OpLog)>) -> Self {
        Self { logs }
    }

    /// Number of objects with logs.
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// True if no object has a log.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Total entries across all logs (the paper's `Y`).
    pub fn total_ops(&self) -> usize {
        self.logs.iter().map(|(_, l)| l.len()).sum()
    }

    /// Iterates `(index, name, log)` in report order; `index` is the
    /// object index `i` used by the audit's `OpMap`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ObjectName, &OpLog)> {
        self.logs
            .iter()
            .enumerate()
            .map(|(i, (name, log))| (i, name, log))
    }

    /// The log at object index `i`.
    pub fn log(&self, i: usize) -> Option<&OpLog> {
        self.logs.get(i).map(|(_, l)| l)
    }

    /// The object name at index `i`.
    pub fn name(&self, i: usize) -> Option<&ObjectName> {
        self.logs.get(i).map(|(n, _)| n)
    }

    /// Finds the index of the log for `name`, if present.
    pub fn index_of(&self, name: &ObjectName) -> Option<usize> {
        self.logs.iter().position(|(n, _)| n == name)
    }

    /// Mutable access for test fixtures and adversarial tampering in the
    /// soundness test battery.
    pub fn log_mut(&mut self, i: usize) -> Option<&mut OpLog> {
        self.logs.get_mut(i).map(|(_, l)| l)
    }

    /// Adds a log, returning its index.
    pub fn push(&mut self, name: ObjectName, log: OpLog) -> usize {
        self.logs.push((name, log));
        self.logs.len() - 1
    }
}

impl Wire for OpLogs {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.logs.len() as u64);
        for (name, log) in &self.logs {
            name.encode(enc);
            log.encode(enc);
        }
    }
    /// Decodes every log in one pass into one shared set of tables.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.u64()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Malformed("log count exceeds buffer"));
        }
        let mut packer = Packer::default();
        let mut packed = Vec::with_capacity(prealloc::<(ObjectName, Vec<PackedEntry>)>(n));
        for _ in 0..n {
            packed.push((ObjectName::decode(dec)?, packer.decode_log(dec)?));
        }
        let tables = packer.finish(Some(dec));
        let logs = packed
            .into_iter()
            .map(|(name, entries)| (name, OpLog::over(entries, Arc::clone(&tables))))
            .collect();
        Ok(Self { logs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rid: u64, opnum: u32) -> OpLogEntry {
        OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(opnum),
            contents: OpContents::RegisterRead,
        }
    }

    #[test]
    fn one_indexed_sequence_numbers() {
        let mut log = OpLog::new();
        let s1 = log.push(entry(1, 1));
        let s2 = log.push(entry(2, 1));
        assert_eq!(s1, SeqNum(1));
        assert_eq!(s2, SeqNum(2));
        assert_eq!(log.get(SeqNum(1)).unwrap().rid, RequestId(1));
        assert_eq!(log.get(SeqNum(2)).unwrap().rid, RequestId(2));
        assert!(log.get(SeqNum(0)).is_none());
        assert!(log.get(SeqNum(3)).is_none());
    }

    #[test]
    fn iter_yields_seq_in_order() {
        let mut log = OpLog::new();
        log.push(entry(1, 1));
        log.push(entry(1, 2));
        let seqs: Vec<u64> = log.iter().map(|(s, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn oplogs_index_by_name() {
        let mut logs = OpLogs::new();
        let i_reg = logs.push(ObjectName::session("u1"), OpLog::new());
        let i_kv = logs.push(ObjectName::kv("apc"), OpLog::new());
        assert_eq!(logs.index_of(&ObjectName::session("u1")), Some(i_reg));
        assert_eq!(logs.index_of(&ObjectName::kv("apc")), Some(i_kv));
        assert_eq!(logs.index_of(&ObjectName::db("main")), None);
        assert_eq!(logs.name(i_kv).unwrap().as_str(), "kv:apc");
    }

    #[test]
    fn total_ops_sums_all_logs() {
        let mut a = OpLog::new();
        a.push(entry(1, 1));
        a.push(entry(1, 2));
        let mut b = OpLog::new();
        b.push(entry(2, 1));
        let logs = OpLogs::from_pairs(vec![
            (ObjectName::kv("apc"), a),
            (ObjectName::db("main"), b),
        ]);
        assert_eq!(logs.total_ops(), 3);
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let shared: Arc<[u8]> = vec![9].into();
        let contents: Vec<OpContents> = vec![
            OpContents::RegisterRead,
            OpContents::RegisterWrite {
                value: vec![1, 2, 3].into(),
            },
            OpContents::KvGet { key: "k1".into() },
            OpContents::KvSet {
                key: "k2".into(),
                value: Some(Arc::clone(&shared)),
            },
            OpContents::KvSet {
                key: "k1".into(),
                value: None,
            },
            OpContents::RegisterWrite { value: shared },
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
            // A shape the redo rejects still round-trips.
            OpContents::DbOp {
                queries: vec!["SELECT 1".into()],
                succeeded: false,
                write_results: Vec::new(),
            },
        ];
        let entries: Vec<OpLogEntry> = (contents.into_iter().enumerate())
            .map(|(i, contents)| OpLogEntry {
                rid: RequestId(i as u64 % 3),
                opnum: OpNum(i as u32),
                contents,
            })
            .collect();
        let log = OpLog::from_entries(entries.clone());
        assert_eq!(log.entries(), entries);
        let decoded = OpLog::from_wire_bytes(&log.to_wire_bytes()).unwrap();
        assert_eq!(decoded, log);
        assert_eq!(decoded.entries(), entries);
        let mut pushed = OpLog::new();
        entries.into_iter().for_each(|e| {
            pushed.push(e);
        });
        assert_eq!(pushed, log);
        assert_eq!(pushed.to_wire_bytes(), log.to_wire_bytes());
    }

    #[test]
    fn a_packed_entry_takes_12_bytes() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), 12);
    }

    #[test]
    fn decoded_logs_share_one_table_and_number_each_request_once() {
        let mut a = OpLog::new();
        a.push(entry(1, 1));
        a.push(entry(2, 1));
        let mut b = OpLog::new();
        b.push(entry(2, 2));
        b.push(entry(1, 2));
        let logs = OpLogs::from_pairs(vec![
            (ObjectName::session("a"), a),
            (ObjectName::session("b"), b),
        ]);
        let decoded = OpLogs::from_wire_bytes(&logs.to_wire_bytes()).unwrap();
        assert_eq!(decoded, logs);
        let (a, b) = (decoded.log(0).unwrap(), decoded.log(1).unwrap());
        assert!(Arc::ptr_eq(a.tables(), b.tables()));
        assert_eq!(a.tables().rids(), &[RequestId(1), RequestId(2)]);
        assert_eq!(
            a.rows().chain(b.rows()).collect::<Vec<_>>(),
            vec![0, 1, 1, 0]
        );
    }

    #[test]
    fn push_numbers_each_request_once_in_tables_of_its_own() {
        let kv = |rid: u64, key: &str| OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(1),
            contents: OpContents::KvGet { key: key.into() },
        };
        let logs = OpLogs::from_pairs(vec![
            (ObjectName::kv("a"), OpLog::from_entries(vec![kv(1, "x")])),
            (ObjectName::kv("b"), OpLog::from_entries(vec![kv(2, "y")])),
        ]);
        let mut decoded = OpLogs::from_wire_bytes(&logs.to_wire_bytes()).unwrap();
        let shared = Arc::clone(decoded.log(1).unwrap().tables());
        let log = decoded.log_mut(0).unwrap();
        log.push(kv(1, "x"));
        log.push(kv(3, "x"));
        log.push(kv(1, "z"));
        assert!(!Arc::ptr_eq(log.tables(), &shared));
        assert_eq!(log.tables().rids(), &[RequestId(1), RequestId(3)]);
        assert_eq!(log.rows().collect::<Vec<_>>(), vec![0, 0, 1, 0]);
        assert_eq!(log.tables().texts.len(), 2);
        assert_eq!(shared.rids(), &[RequestId(1), RequestId(2)]);
        let expected = [kv(1, "x"), kv(1, "x"), kv(3, "x"), kv(1, "z")];
        assert_eq!(log.entries(), expected);
    }

    #[test]
    fn oplogs_wire_roundtrip() {
        let mut log = OpLog::new();
        log.push(entry(1, 1));
        let logs = OpLogs::from_pairs(vec![(ObjectName::kv("apc"), log)]);
        let bytes = logs.to_wire_bytes();
        assert_eq!(OpLogs::from_wire_bytes(&bytes).unwrap(), logs);
    }
}
