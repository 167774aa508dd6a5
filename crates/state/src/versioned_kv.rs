//! Audit-time versioned key-value store (§4.5, §A.7).
//!
//! Re-executing a `KvGet` by walking backward through the whole log would
//! be slow; instead the verifier builds, once per audit, a map from key to
//! the ordered list of `(seq, value)` writes. `get(key, s)` then answers
//! "what would a replay of log entries `1 .. s-1` return for `key`?" with
//! one binary search — exactly the requirement stated in §A.7. The view
//! borrows the log: a write is stored as its value's index in the log's
//! operand tables, so building it copies no value and a read hands out
//! the logged bytes. Writes are grouped by their key's text index,
//! which names one text per index: the build sorts the log's own writes
//! and hashes each distinct key once rather than every `KvSet`.

use crate::oplog::{OpLog, OperandTables};
use orochi_common::ids::SeqNum;
use std::collections::HashMap;

/// Versioned view over one key-value object's operation log.
///
/// # Examples
///
/// ```
/// use orochi_common::ids::{OpNum, RequestId, SeqNum};
/// use orochi_state::{OpContents, OpLog, OpLogEntry, VersionedKv};
///
/// let mut log = OpLog::new();
/// log.push(OpLogEntry {
///     rid: RequestId(1),
///     opnum: OpNum(1),
///     contents: OpContents::KvSet { key: "k".into(), value: Some(vec![1].into()) },
/// });
/// log.push(OpLogEntry {
///     rid: RequestId(2),
///     opnum: OpNum(1),
///     contents: OpContents::KvGet { key: "k".into() },
/// });
/// let kv = VersionedKv::build(&log);
/// // The get at seq 2 sees the set at seq 1.
/// assert_eq!(kv.get("k", SeqNum(2)), Some(&[1][..]));
/// // Nothing is visible at seq 1 (writes strictly before).
/// assert_eq!(kv.get("k", SeqNum(1)), None);
/// ```
#[derive(Debug)]
pub struct VersionedKv<'a> {
    /// The tables the versions index.
    tables: &'a OperandTables,
    /// Per key ever written: its writes' range in `versions`.
    keys: HashMap<&'a str, (u32, u32)>,
    /// Every write as `(seq, value index)`, grouped by key and in
    /// increasing seq order within a key; a delete's value index reads
    /// as no value.
    versions: Vec<(u32, u32)>,
}

// Every read path (`get`, `has_write_before`, `num_keys`, ...) takes
// `&self`, so a built view can be shared across the parallel audit's
// worker threads without locking. Guard that property at compile time.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<VersionedKv<'static>>();
};

impl<'a> VersionedKv<'a> {
    /// Builds the versioned map from all `KvSet` operations in `log`
    /// (the paper's `kv.Build(OL_i)`, Fig. 12 line 5).
    ///
    /// Entries of other types are ignored here; every re-executed
    /// operation is still checked against its own log entry by `CheckOp`,
    /// so a log that mixes in foreign optypes cannot smuggle anything past
    /// the audit.
    pub fn build(log: &'a OpLog) -> Self {
        let tables = &**log.tables();
        // `(key index, seq, value index)` per write. Sorting groups the
        // writes by key, in seq order within a key, in time and space of
        // this log's writes alone, whatever the size of the shared tables.
        let mut writes: Vec<(u32, u32, u32)> = (log.packed().iter().enumerate())
            .filter_map(|(j, e)| {
                tables
                    .kv_set(e)
                    .map(|(key, value)| (key, j as u32 + 1, value))
            })
            .collect();
        writes.sort_unstable();
        let mut keys = HashMap::new();
        let mut start = 0;
        for run in writes.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len() as u32;
            keys.insert(tables.text(run[0].0), (start, end));
            start = end;
        }
        let versions = (writes.into_iter())
            .map(|(_, seq, value)| (seq, value))
            .collect();
        Self {
            tables,
            keys,
            versions,
        }
    }

    fn history(&self, key: &str) -> Option<&[(u32, u32)]> {
        let &(start, end) = self.keys.get(key)?;
        Some(&self.versions[start as usize..end as usize])
    }

    /// Returns the value the key held just before log position `s`: the
    /// `KvSet` to `key` with the highest seq strictly less than `s`
    /// (`None` if there is no such set, or it was a delete). The bytes
    /// are the log's own.
    pub fn get(&self, key: &str, s: SeqNum) -> Option<&'a [u8]> {
        let writes = self.history(key)?;
        // Binary search for the first write with seq >= s; the write just
        // before it is the visible one.
        let idx = writes.partition_point(|(seq, _)| u64::from(*seq) < s.0);
        if idx == 0 {
            return None;
        }
        self.tables.value(writes[idx - 1].1)
    }

    /// True if some `KvSet` to `key` appears strictly before log
    /// position `s`. When false, a read at `s` sees the store's *initial*
    /// state (the verifier carries it over from the previous audit,
    /// §4.1).
    pub fn has_write_before(&self, key: &str, s: SeqNum) -> bool {
        self.history(key)
            .is_some_and(|writes| writes.first().is_some_and(|(seq, _)| u64::from(*seq) < s.0))
    }

    /// Number of distinct keys ever written.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total number of stored versions (the audit-time space cost).
    pub fn num_versions(&self) -> usize {
        self.versions.len()
    }

    /// The final value of every key after the whole log — the "latest
    /// state" the verifier keeps after the audit (§5.1).
    pub fn final_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = self
            .keys
            .iter()
            .filter_map(|(k, &(_, end))| {
                let last = self.versions[end as usize - 1];
                self.tables
                    .value(last.1)
                    .map(|v| (k.to_string(), v.to_vec()))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::OpContents;
    use crate::oplog::OpLogEntry;
    use orochi_common::ids::{OpNum, RequestId};

    fn set(log: &mut OpLog, key: &str, value: Option<Vec<u8>>) -> SeqNum {
        log.push(OpLogEntry {
            rid: RequestId(1),
            opnum: OpNum(1),
            contents: OpContents::KvSet {
                key: key.into(),
                value: value.map(Into::into),
            },
        })
    }

    fn get_entry(log: &mut OpLog, key: &str) -> SeqNum {
        log.push(OpLogEntry {
            rid: RequestId(1),
            opnum: OpNum(1),
            contents: OpContents::KvGet { key: key.into() },
        })
    }

    /// Model-based check: `get(k, s)` must equal replaying entries
    /// `1..s-1` into a plain map and then reading `k`.
    fn replay_prefix(log: &OpLog, key: &str, s: SeqNum) -> Option<Vec<u8>> {
        let mut map: HashMap<String, Vec<u8>> = HashMap::new();
        for (seq, entry) in log.iter() {
            if seq.0 >= s.0 {
                break;
            }
            if let OpContents::KvSet { key: k, value } = &entry.contents {
                match value {
                    Some(v) => {
                        map.insert(k.to_string(), v.to_vec());
                    }
                    None => {
                        map.remove(&**k);
                    }
                }
            }
        }
        map.get(key).cloned()
    }

    #[test]
    fn matches_replay_model_on_interleaved_log() {
        let mut log = OpLog::new();
        set(&mut log, "a", Some(vec![1]));
        get_entry(&mut log, "a");
        set(&mut log, "b", Some(vec![2]));
        set(&mut log, "a", Some(vec![3]));
        set(&mut log, "b", None);
        get_entry(&mut log, "b");
        set(&mut log, "a", None);
        let kv = VersionedKv::build(&log);
        for s in 1..=(log.len() as u64 + 1) {
            for key in ["a", "b", "missing"] {
                assert_eq!(
                    kv.get(key, SeqNum(s)).map(<[u8]>::to_vec),
                    replay_prefix(&log, key, SeqNum(s)),
                    "key={key} s={s}"
                );
            }
        }
    }

    #[test]
    fn delete_produces_none() {
        let mut log = OpLog::new();
        set(&mut log, "k", Some(vec![9]));
        set(&mut log, "k", None);
        let kv = VersionedKv::build(&log);
        assert_eq!(kv.get("k", SeqNum(2)), Some(&[9][..]));
        assert_eq!(kv.get("k", SeqNum(3)), None);
    }

    #[test]
    fn final_state_excludes_tombstones() {
        let mut log = OpLog::new();
        set(&mut log, "live", Some(vec![1]));
        set(&mut log, "dead", Some(vec![2]));
        set(&mut log, "dead", None);
        let kv = VersionedKv::build(&log);
        assert_eq!(kv.final_state(), vec![("live".to_string(), vec![1])]);
        assert_eq!(kv.num_keys(), 2);
        assert_eq!(kv.num_versions(), 3);
    }

    #[test]
    fn ignores_foreign_optypes() {
        let mut log = OpLog::new();
        log.push(OpLogEntry {
            rid: RequestId(1),
            opnum: OpNum(1),
            contents: OpContents::RegisterWrite {
                value: vec![5].into(),
            },
        });
        set(&mut log, "k", Some(vec![1]));
        let kv = VersionedKv::build(&log);
        assert_eq!(kv.get("k", SeqNum(3)), Some(&[1][..]));
        assert_eq!(kv.num_versions(), 1);
    }
}
