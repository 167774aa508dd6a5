//! The record library: per-thread sub-logs and the stitching daemon.
//!
//! OROCHI's server logs each connection's operations locally and a
//! *stitching daemon* later merges the sub-logs into the per-object
//! operation logs, ordered by the sequence numbers the objects assigned
//! (§4.7). We reproduce that structure: worker threads append to private
//! sub-logs without contention; [`Recorder::stitch`] groups entries by
//! object name and sorts by sequence number.
//!
//! Everything here runs on the *untrusted* side of the audit: a broken or
//! malicious recorder yields reports the verifier rejects, never reports
//! the verifier wrongly accepts.

use crate::object::{ObjectName, OpContents};
use crate::oplog::{OpLog, OpLogEntry, OpLogs};
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Shard assignment for the sharded stitch: FNV-1a over the object
/// name. Deterministic (unlike `HashMap`'s randomized hasher), so a
/// worker's object set is stable across runs — only performance depends
/// on the assignment, never the stitched output.
fn shard_of(name: &ObjectName, shards: usize) -> usize {
    (orochi_common::hash::fnv1a(name.as_str().as_bytes()) % shards as u64) as usize
}

/// One recorded operation, tagged with the object that performed it and
/// the sequence number the object assigned at its linearization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubLogEntry {
    /// The object the operation targeted.
    pub object: ObjectName,
    /// Sequence number assigned by the object.
    pub seq: SeqNum,
    /// The log entry payload.
    pub entry: OpLogEntry,
}

/// A handle to one thread's private sub-log.
#[derive(Debug, Clone)]
pub struct SubLog {
    entries: Arc<Mutex<Vec<SubLogEntry>>>,
}

impl SubLog {
    /// Records one operation.
    pub fn record(
        &self,
        object: ObjectName,
        seq: SeqNum,
        rid: RequestId,
        opnum: OpNum,
        contents: OpContents,
    ) {
        self.entries.lock().push(SubLogEntry {
            object,
            seq,
            entry: OpLogEntry {
                rid,
                opnum,
                contents,
            },
        });
    }

    /// Number of entries recorded through this handle.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Collects sub-logs from worker threads and stitches them into the
/// per-object [`OpLogs`] report.
///
/// # Examples
///
/// ```
/// use orochi_common::ids::{OpNum, RequestId, SeqNum};
/// use orochi_state::{ObjectName, OpContents, Recorder};
///
/// let recorder = Recorder::new();
/// let sublog = recorder.new_sublog();
/// sublog.record(
///     ObjectName::kv("apc"),
///     SeqNum(1),
///     RequestId(1),
///     OpNum(1),
///     OpContents::KvGet { key: "k".into() },
/// );
/// let logs = recorder.stitch();
/// assert_eq!(logs.total_ops(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    sublogs: Mutex<Vec<SubLog>>,
}

impl Recorder {
    /// Creates a recorder with no sub-logs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new sub-log handle for a worker thread.
    pub fn new_sublog(&self) -> SubLog {
        let sublog = SubLog {
            entries: Arc::new(Mutex::new(Vec::new())),
        };
        self.sublogs.lock().push(sublog.clone());
        sublog
    }

    /// Merges all sub-logs into per-object logs ordered by sequence
    /// number (the stitching daemon of §4.7). Sequential; equivalent to
    /// [`Recorder::stitch_with`] at one thread.
    pub fn stitch(&self) -> OpLogs {
        self.stitch_with(1)
    }

    /// The stitching daemon, sharded by object across `threads` scoped
    /// workers (mirroring the audit prologue's sharded store builds):
    /// each worker scans every sub-log but collects, sorts, and
    /// assembles only the objects hashing into its shard, so the
    /// clone-and-sort cost — the bulk of report assembly — splits across
    /// the pool. (The scan itself is repeated per worker, but it is a
    /// hash-and-skip over borrowed entries; the allocations are not.)
    /// The output is byte-identical at every thread count: entries are
    /// sorted by the sequence numbers the objects assigned, the final
    /// per-object logs are ordered by name, and every worker walks the
    /// sub-logs in the same order as the sequential pass so even
    /// duplicate sequence numbers (possible only in a hostile report —
    /// the audit rejects them) tie-break identically.
    pub fn stitch_with(&self, threads: usize) -> OpLogs {
        let sublogs = self.sublogs.lock();
        let threads = threads.max(1);
        let mut stitched: Vec<(ObjectName, OpLog)> = if threads >= 2 && sublogs.len() >= 2 {
            let shards: std::sync::Mutex<Vec<(ObjectName, OpLog)>> =
                std::sync::Mutex::new(Vec::new());
            // Lock every sub-log once up front and hand the workers
            // borrowed slices: the guards live on this stack frame for
            // the whole scope, so the worker scans are lock-free (no
            // convoy from every worker walking the logs in the same
            // order) and writers stay excluded for the duration.
            let guards: Vec<_> = sublogs.iter().map(|s| s.entries.lock()).collect();
            let slices: Vec<&[SubLogEntry]> = guards.iter().map(|g| g.as_slice()).collect();
            crossbeam::thread::scope(|s| {
                for w in 0..threads {
                    let shards = &shards;
                    let slices = &slices;
                    s.spawn(move |_| {
                        let mut mine: HashMap<ObjectName, Vec<(SeqNum, OpLogEntry)>> =
                            HashMap::new();
                        for entries in slices {
                            for item in entries.iter() {
                                if shard_of(&item.object, threads) != w {
                                    continue;
                                }
                                mine.entry(item.object.clone())
                                    .or_default()
                                    .push((item.seq, item.entry.clone()));
                            }
                        }
                        let mut built: Vec<(ObjectName, OpLog)> = mine
                            .into_iter()
                            .map(|(name, mut entries)| {
                                entries.sort_by_key(|(seq, _)| *seq);
                                (
                                    name,
                                    OpLog::from_entries(
                                        entries.into_iter().map(|(_, e)| e).collect(),
                                    ),
                                )
                            })
                            .collect();
                        shards
                            .lock()
                            .expect("stitch collector poisoned")
                            .append(&mut built);
                    });
                }
            })
            .expect("stitch pool");
            shards.into_inner().expect("stitch collector poisoned")
        } else {
            let mut per_object: HashMap<ObjectName, Vec<(SeqNum, OpLogEntry)>> = HashMap::new();
            for sublog in sublogs.iter() {
                for item in sublog.entries.lock().iter() {
                    per_object
                        .entry(item.object.clone())
                        .or_default()
                        .push((item.seq, item.entry.clone()));
                }
            }
            per_object
                .into_iter()
                .map(|(name, mut entries)| {
                    entries.sort_by_key(|(seq, _)| *seq);
                    (
                        name,
                        OpLog::from_entries(entries.into_iter().map(|(_, e)| e).collect()),
                    )
                })
                .collect()
        };
        // Deterministic report order: objects sorted by name.
        stitched.sort_by(|a, b| a.0.cmp(&b.0));
        let mut logs = OpLogs::new();
        for (name, log) in stitched {
            logs.push(name, log);
        }
        logs
    }

    /// Total operations recorded so far across all sub-logs.
    pub fn total_recorded(&self) -> usize {
        self.sublogs.lock().iter().map(SubLog::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn stitch_orders_by_seq_within_object() {
        let recorder = Recorder::new();
        let a = recorder.new_sublog();
        let b = recorder.new_sublog();
        // Thread b's op linearized first (seq 1) even though recorded into
        // a different sub-log.
        b.record(
            ObjectName::kv("apc"),
            SeqNum(1),
            RequestId(2),
            OpNum(1),
            OpContents::KvGet { key: "x".into() },
        );
        a.record(
            ObjectName::kv("apc"),
            SeqNum(2),
            RequestId(1),
            OpNum(1),
            OpContents::KvSet {
                key: "x".into(),
                value: Some(vec![1].into()),
            },
        );
        let logs = recorder.stitch();
        let log = logs.log(0).unwrap();
        assert_eq!(log.get(SeqNum(1)).unwrap().rid, RequestId(2));
        assert_eq!(log.get(SeqNum(2)).unwrap().rid, RequestId(1));
    }

    #[test]
    fn stitch_separates_objects_sorted_by_name() {
        let recorder = Recorder::new();
        let s = recorder.new_sublog();
        s.record(
            ObjectName::session("zed"),
            SeqNum(1),
            RequestId(1),
            OpNum(1),
            OpContents::RegisterRead,
        );
        s.record(
            ObjectName::db("main"),
            SeqNum(1),
            RequestId(1),
            OpNum(2),
            OpContents::DbOp {
                queries: vec!["SELECT 1".into()],
                succeeded: true,
                write_results: vec![None],
            },
        );
        let logs = recorder.stitch();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs.name(0).unwrap().as_str(), "db:main");
        assert_eq!(logs.name(1).unwrap().as_str(), "reg:sess:zed");
    }

    #[test]
    fn concurrent_recording_stitches_densely() {
        let recorder = Arc::new(Recorder::new());
        let seq_counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let recorder = Arc::clone(&recorder);
            let seq_counter = Arc::clone(&seq_counter);
            handles.push(thread::spawn(move || {
                let sublog = recorder.new_sublog();
                for i in 0..100u64 {
                    let seq = {
                        let mut c = seq_counter.lock();
                        *c += 1;
                        SeqNum(*c)
                    };
                    sublog.record(
                        ObjectName::kv("apc"),
                        seq,
                        RequestId(t * 1000 + i),
                        OpNum(1),
                        OpContents::KvGet { key: "k".into() },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let logs = recorder.stitch();
        let log = logs.log(0).unwrap();
        assert_eq!(log.len(), 800);
        // Entries must be stitched in exact seq order: positions are
        // dense 1..=800 and we placed seq s at position s.
        for (pos, (seq, _)) in log.iter().enumerate() {
            assert_eq!(seq.0, pos as u64 + 1);
        }
    }

    #[test]
    fn empty_recorder_stitches_to_empty_logs() {
        let recorder = Recorder::new();
        let logs = recorder.stitch();
        assert!(logs.is_empty());
        assert_eq!(recorder.total_recorded(), 0);
    }

    /// A recorder with many objects spread over many sub-logs, the
    /// shape the sharded stitch is built for.
    fn busy_recorder() -> Recorder {
        let recorder = Recorder::new();
        let mut seq_per_object: HashMap<String, u64> = HashMap::new();
        for r in 0..40u64 {
            let sublog = recorder.new_sublog();
            for i in 0..25u64 {
                let object = match i % 3 {
                    0 => ObjectName::kv("apc"),
                    1 => ObjectName::session(&format!("c{}", (r * 25 + i) % 17)),
                    _ => ObjectName::db("main"),
                };
                let seq = seq_per_object
                    .entry(object.as_str().to_string())
                    .or_insert(0);
                *seq += 1;
                sublog.record(
                    object,
                    SeqNum(*seq),
                    RequestId(r * 100 + i),
                    OpNum(1),
                    OpContents::KvGet {
                        key: format!("k{i}").into(),
                    },
                );
            }
        }
        recorder
    }

    #[test]
    fn sharded_stitch_is_identical_at_every_thread_count() {
        let recorder = busy_recorder();
        let sequential = recorder.stitch_with(1);
        for threads in [2, 3, 8] {
            let sharded = recorder.stitch_with(threads);
            assert_eq!(
                sequential, sharded,
                "sharded stitch diverged at {threads} threads"
            );
        }
        assert_eq!(sequential.total_ops(), 40 * 25);
    }

    #[test]
    fn sharded_stitch_tie_breaks_duplicate_seqs_like_sequential() {
        // A hostile recorder can assign the same sequence number twice
        // (the audit rejects such reports later); the stitch must still
        // be deterministic across thread counts, tie-breaking by
        // sub-log order exactly like the sequential pass.
        let recorder = Recorder::new();
        let a = recorder.new_sublog();
        let b = recorder.new_sublog();
        for (sublog, rid) in [(&a, 1u64), (&b, 2u64)] {
            for seq in 1..=5u64 {
                sublog.record(
                    ObjectName::kv("apc"),
                    SeqNum(seq),
                    RequestId(rid),
                    OpNum(seq as u32),
                    OpContents::KvGet { key: "k".into() },
                );
            }
        }
        let sequential = recorder.stitch_with(1);
        for threads in [2, 4, 8] {
            assert_eq!(sequential, recorder.stitch_with(threads));
        }
    }

    #[test]
    fn sharded_stitch_with_one_object_still_matches() {
        // Fewer objects than workers: most shards are empty.
        let recorder = Recorder::new();
        let sublog = recorder.new_sublog();
        for i in 1..=10u64 {
            sublog.record(
                ObjectName::kv("apc"),
                SeqNum(i),
                RequestId(i),
                OpNum(1),
                OpContents::KvGet { key: "k".into() },
            );
        }
        assert_eq!(recorder.stitch_with(1), recorder.stitch_with(8));
    }
}
