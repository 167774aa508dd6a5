//! Operation logs: the executor's (untrusted) record of state operations.
//!
//! For each shared object `i`, the executor maintains an ordered log
//! `OL_i : N+ → (requestID, opnum, optype, opcontents)` (§3.3). Logs are
//! conceptually 1-indexed — sequence number `s` corresponds to Rust index
//! `s - 1` — matching the paper's pseudocode and the `(i, seqnum)` values
//! stored in the verifier's `OpMap`.

use crate::object::{ObjectName, OpContents, OpType};
use orochi_common::codec::{prealloc, Decoder, Encoder, Wire, WireError};
use orochi_common::ids::{OpNum, RequestId, SeqNum};

/// One entry of an operation log.
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

impl Wire for OpLogEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.rid.encode(enc);
        self.opnum.encode(enc);
        self.contents.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Self {
            rid: RequestId::decode(dec)?,
            opnum: OpNum::decode(dec)?,
            contents: OpContents::decode(dec)?,
        })
    }
}

/// The ordered operation log of one shared object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpLog {
    entries: Vec<OpLogEntry>,
}

impl OpLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log from entries already in order.
    pub fn from_entries(entries: Vec<OpLogEntry>) -> Self {
        Self { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry, returning its 1-based sequence number.
    pub fn push(&mut self, entry: OpLogEntry) -> SeqNum {
        self.entries.push(entry);
        SeqNum(self.entries.len() as u64)
    }

    /// Fetches the entry with 1-based sequence number `seq`.
    pub fn get(&self, seq: SeqNum) -> Option<&OpLogEntry> {
        if seq.0 == 0 {
            return None;
        }
        self.entries.get((seq.0 - 1) as usize)
    }

    /// Iterates `(seq, entry)` pairs in log order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, &OpLogEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(idx, e)| (SeqNum(idx as u64 + 1), e))
    }

    /// Borrows the raw entry slice (0-indexed).
    pub fn entries(&self) -> &[OpLogEntry] {
        &self.entries
    }

    /// True if any entry has the given operation type. The audit
    /// prologue uses this to decide which versioned stores and indexes
    /// to build for each log before sharding the builds across the
    /// worker pool.
    pub fn contains_op_type(&self, ty: OpType) -> bool {
        self.entries.iter().any(|e| e.op_type() == ty)
    }
}

impl Wire for OpLog {
    fn encode(&self, enc: &mut Encoder) {
        self.entries.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Self {
            entries: Vec::<OpLogEntry>::decode(dec)?,
        })
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
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.u64()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Malformed("log count exceeds buffer"));
        }
        let mut logs = Vec::with_capacity(prealloc::<(ObjectName, OpLog)>(n));
        for _ in 0..n {
            logs.push((ObjectName::decode(dec)?, OpLog::decode(dec)?));
        }
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
    fn oplogs_wire_roundtrip() {
        let mut log = OpLog::new();
        log.push(entry(1, 1));
        let logs = OpLogs::from_pairs(vec![(ObjectName::kv("apc"), log)]);
        let bytes = logs.to_wire_bytes();
        assert_eq!(OpLogs::from_wire_bytes(&bytes).unwrap(), logs);
    }
}
