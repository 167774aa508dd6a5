//! Audit-time versioned key-value store (§4.5, §A.7).
//!
//! Re-executing a `KvGet` by walking backward through the whole log would
//! be slow; instead the verifier builds, once per audit, a map from key to
//! the ordered list of `(seq, value)` writes. `get(key, s)` then answers
//! "what would a replay of log entries `1 .. s-1` return for `key`?" with
//! one binary search — exactly the requirement stated in §A.7. The view
//! borrows the log: keys and values are slices of its entries, so
//! building it copies no value and a read hands out the logged bytes.

use crate::object::OpContents;
use crate::oplog::OpLog;
use orochi_common::ids::SeqNum;
use std::collections::HashMap;

/// `(seq, value-or-tombstone)` pairs in increasing seq order.
type VersionList<'a> = Vec<(u64, Option<&'a [u8]>)>;

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
#[derive(Debug, Default)]
pub struct VersionedKv<'a> {
    /// Per key: the ordered write history.
    versions: HashMap<&'a str, VersionList<'a>>,
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
        let mut versions: HashMap<&'a str, VersionList<'a>> = HashMap::new();
        for (seq, entry) in log.iter() {
            if let OpContents::KvSet { key, value } = &entry.contents {
                versions
                    .entry(key)
                    .or_default()
                    .push((seq.0, value.as_deref()));
            }
        }
        // Log iteration is in increasing seq order, so each vector is
        // already sorted.
        Self { versions }
    }

    /// Returns the value the key held just before log position `s`: the
    /// `KvSet` to `key` with the highest seq strictly less than `s`
    /// (`None` if there is no such set, or it was a delete). The bytes
    /// are the log's own.
    pub fn get(&self, key: &str, s: SeqNum) -> Option<&'a [u8]> {
        let writes = self.versions.get(key)?;
        // Binary search for the first write with seq >= s; the write just
        // before it is the visible one.
        let idx = writes.partition_point(|(seq, _)| *seq < s.0);
        if idx == 0 {
            return None;
        }
        writes[idx - 1].1
    }

    /// True if some `KvSet` to `key` appears strictly before log
    /// position `s`. When false, a read at `s` sees the store's *initial*
    /// state (the verifier carries it over from the previous audit,
    /// §4.1).
    pub fn has_write_before(&self, key: &str, s: SeqNum) -> bool {
        self.versions
            .get(key)
            .is_some_and(|writes| writes.first().is_some_and(|(seq, _)| *seq < s.0))
    }

    /// Number of distinct keys ever written.
    pub fn num_keys(&self) -> usize {
        self.versions.len()
    }

    /// Total number of stored versions (the audit-time space cost).
    pub fn num_versions(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// The final value of every key after the whole log — the "latest
    /// state" the verifier keeps after the audit (§5.1).
    pub fn final_state(&self) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = self
            .versions
            .iter()
            .filter_map(|(k, writes)| {
                writes
                    .last()
                    .and_then(|(_, v)| *v)
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
