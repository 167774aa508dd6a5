//! `SSCO_AUDIT2` (Fig. 12): the verdict vocabulary, the prologue's
//! shared products, and the simulate-and-check context.
//!
//! The audit checks, in Fig. 12's order:
//!
//! 1. **Balance** — validate the trace (§3).
//! 2. **ProcessOpReports** — consistent-ordering verification and OpMap
//!    construction ([`crate::graph`]), plus the §4.6 nondeterminism
//!    sanity checks.
//! 3. **DB redo** — build the versioned stores ([`AuditShared`]):
//!    `kv.Build(OL)` per object; every log containing database
//!    operations gets a full versioned redo pass (§4.5).
//! 4. **Re-execution** — each control-flow group is handed to the
//!    [`GroupExecutor`]; every state operation flows through
//!    [`AuditContext`], which implements `CheckOp` (the produced operands
//!    must match the log entry the OpMap names) and `SimOp` (reads are
//!    fed from the logs/versioned stores). Read-query deduplication
//!    (§4.5) lives here too.
//! 5. **Output comparison** — the produced outputs must be exactly the
//!    responses in the trace.
//!
//! Any failed check rejects with a precise [`Rejection`] reason.
//!
//! *Driving* those checks — ingesting the trace, scheduling groups over
//! a worker pool, settling the verdict — is the one engine in
//! [`crate::streaming`]. The entry points at the bottom of this module
//! ([`audit`], [`audit_source`], [`audit_parallel`],
//! [`audit_parallel_source`]) feed it the whole trace as a single epoch:
//! the sequential audit is that engine with a pool of one.

use crate::exec::{DbQueryResult, DbTxnHandle, GroupExecutor};
use crate::graph::{GraphRejection, OpMap};
use crate::nondet::NondetValue;
use crate::reports::Reports;
use crate::streaming::{self, Pool, StreamingAudit};
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId, SeqNum};
use orochi_sqldb::engine::WriteOutcome;
use orochi_sqldb::{
    Database, ExecOutcome, PreparedQuery, RedoError, RedoStats, SqlError, VersionedDb, MAXQ,
};
use orochi_state::object::{DbWriteResult, ObjectName, OpContents, OpContentsRef, OpType};
use orochi_state::versioned_kv::VersionedKv;
use orochi_trace::record::{BalanceError, Trace};
use orochi_trace::{TraceSource, TraceStoreError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why the audit rejected. Each variant corresponds to a failed check in
/// Figs. 5/12 or one of OROCHI's additional report validations.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The trace is not balanced (§3).
    Unbalanced(BalanceError),
    /// The persisted trace could not be read back (I/O failure or a
    /// corrupt segment/blob). Only the cold-storage audit path can hit
    /// this; an in-memory trace never does.
    TraceStore(TraceStoreError),
    /// Report processing failed (Fig. 5), including cycle detection.
    Graph(GraphRejection),
    /// The nondeterminism report violates the §4.6 sanity conditions.
    NondetInvalid(RequestId),
    /// The database redo pass failed (§4.5).
    Redo(RedoError),
    /// Re-execution issued an operation the OpMap does not contain
    /// (CheckOp line 11).
    OpNotInOpMap {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// The operation targeted a different object than the log claims
    /// (CheckOp line 14, `i != î`).
    ObjectMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// The produced operands differ from the logged opcontents
    /// (CheckOp line 14).
    OpContentsMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The operation number.
        opnum: OpNum,
    },
    /// A database query's SQL text differs from the logged statement
    /// (§A.7 per-query check).
    DbQueryMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
        /// 1-based query position.
        query: u64,
    },
    /// Re-execution issued more queries in a transaction than were
    /// logged.
    DbTooManyQueries {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// Re-execution finished a transaction with fewer queries than
    /// logged.
    DbQueryCountMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// The program's commit/rollback disagrees with the logged
    /// `succeeded` flag.
    DbCommitMismatch {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// An aborted transaction's read has no captured result — the log is
    /// internally inconsistent.
    DbAbortedReadMissing {
        /// The issuing request.
        rid: RequestId,
        /// The transaction's operation number.
        opnum: OpNum,
    },
    /// A state operation was issued while a database transaction was
    /// open (the SSCO model forbids nesting, §4.4).
    StateOpDuringTxn {
        /// The issuing request.
        rid: RequestId,
    },
    /// Re-execution consumed more nondeterministic values than recorded.
    NondetExhausted {
        /// The issuing request.
        rid: RequestId,
    },
    /// A recorded nondeterministic value has the wrong kind for the call
    /// site.
    NondetKindMismatch {
        /// The issuing request.
        rid: RequestId,
    },
    /// Recorded nondeterministic values were left unconsumed.
    NondetLeftover {
        /// The issuing request.
        rid: RequestId,
    },
    /// A request finished with an operation count different from
    /// `M(rid)` (Fig. 12 line 51).
    OpCountMismatch {
        /// The finishing request.
        rid: RequestId,
    },
    /// A control-flow group names a request absent from the trace.
    GroupUnknownRequest {
        /// The unknown request.
        rid: RequestId,
    },
    /// A unit's requests did not follow its claimed control-flow tag
    /// (Fig. 12 line 39): a run recomputed another tag, a group's lanes
    /// decided differently or failed in some lanes only, or its members
    /// name different scripts.
    Divergence {
        /// The tag the group claims.
        tag: CtlFlowTag,
    },
    /// The re-executed program failed outright (runtime error where the
    /// trace shows a normal response).
    ExecFailure(String),
    /// The executor returned outputs violating the driver protocol
    /// (unknown or duplicate request).
    ExecutorProtocol(String),
    /// A produced output differs from the response in the trace
    /// (Fig. 12 line 55).
    OutputMismatch {
        /// The mismatching request.
        rid: RequestId,
    },
    /// No output was produced for a request in the trace.
    MissingOutput {
        /// The uncovered request.
        rid: RequestId,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Unbalanced(e) => write!(f, "trace not balanced: {e}"),
            Rejection::TraceStore(e) => write!(f, "trace store: {e}"),
            Rejection::Graph(e) => write!(f, "report processing: {e}"),
            Rejection::NondetInvalid(rid) => {
                write!(f, "nondeterminism report invalid for {rid}")
            }
            Rejection::Redo(e) => write!(f, "versioned redo: {e}"),
            Rejection::OpNotInOpMap { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) not in OpMap")
            }
            Rejection::ObjectMismatch { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) targets a different object")
            }
            Rejection::OpContentsMismatch { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) operands differ from log")
            }
            Rejection::DbQueryMismatch { rid, opnum, query } => {
                write!(f, "({rid},{opnum}) query {query} differs from log")
            }
            Rejection::DbTooManyQueries { rid, opnum } => {
                write!(f, "({rid},{opnum}) issued more queries than logged")
            }
            Rejection::DbQueryCountMismatch { rid, opnum } => {
                write!(f, "({rid},{opnum}) finished with fewer queries than logged")
            }
            Rejection::DbCommitMismatch { rid, opnum } => {
                write!(f, "({rid},{opnum}) commit/rollback disagrees with log")
            }
            Rejection::DbAbortedReadMissing { rid, opnum } => {
                write!(f, "({rid},{opnum}) aborted-transaction read not captured")
            }
            Rejection::StateOpDuringTxn { rid } => {
                write!(f, "{rid} issued a state op inside a transaction")
            }
            Rejection::NondetExhausted { rid } => {
                write!(f, "{rid} consumed more nondet values than recorded")
            }
            Rejection::NondetKindMismatch { rid } => {
                write!(f, "{rid} nondet value kind mismatch")
            }
            Rejection::NondetLeftover { rid } => {
                write!(f, "{rid} left recorded nondet values unconsumed")
            }
            Rejection::OpCountMismatch { rid } => {
                write!(f, "{rid} finished with an op count different from M")
            }
            Rejection::GroupUnknownRequest { rid } => {
                write!(f, "control-flow group names unknown request {rid}")
            }
            Rejection::Divergence { tag } => {
                write!(f, "control-flow group {tag} diverged")
            }
            Rejection::ExecFailure(m) => write!(f, "re-execution failed: {m}"),
            Rejection::ExecutorProtocol(m) => write!(f, "executor protocol: {m}"),
            Rejection::OutputMismatch { rid } => {
                write!(f, "produced output for {rid} differs from the trace")
            }
            Rejection::MissingOutput { rid } => {
                write!(f, "no output produced for {rid}")
            }
        }
    }
}

impl std::error::Error for Rejection {}

impl From<GraphRejection> for Rejection {
    fn from(e: GraphRejection) -> Self {
        Rejection::Graph(e)
    }
}

impl From<RedoError> for Rejection {
    fn from(e: RedoError) -> Self {
        Rejection::Redo(e)
    }
}

/// Initial state and switches for an audit.
#[derive(Default)]
pub struct AuditConfig {
    /// Initial database contents per object name (the verifier's copy of
    /// the server's persistent state, §4.1).
    pub initial_dbs: HashMap<String, Database>,
    /// Initial register values per object name.
    pub initial_registers: HashMap<String, Vec<u8>>,
    /// Initial key-value contents per object name.
    pub initial_kv: HashMap<String, HashMap<String, Vec<u8>>>,
    /// Enables read-query deduplication (§4.5); on by default, off for
    /// the simple-re-execution baseline.
    pub query_dedup: bool,
}

impl AuditConfig {
    /// Default configuration: empty initial state, deduplication on.
    pub fn new() -> Self {
        Self {
            query_dedup: true,
            ..Self::default()
        }
    }
}

/// Counters and phase timings collected during an audit.
///
/// Each Fig. 9 row is a typed field (`balance_wall` … `output_wall`,
/// listed in order by [`AuditStats::phase_rows`]); the audit mirrors
/// them into the `audit_phase_*_ns` registry counters once, when it
/// assembles the outcome.
#[derive(Debug, Default, Clone)]
pub struct AuditStats {
    /// Control-flow groups re-executed.
    pub groups_executed: usize,
    /// Requests re-executed (after duplicate filtering).
    pub requests_reexecuted: usize,
    /// Register operations checked/simulated.
    pub register_ops: u64,
    /// Key-value operations checked/simulated.
    pub kv_ops: u64,
    /// Database transactions re-executed.
    pub db_txns: u64,
    /// Database queries checked.
    pub db_queries: u64,
    /// SELECTs answered from the dedup cache (§4.5).
    pub db_queries_deduped: u64,
    /// SELECTs actually issued to the versioned store.
    pub db_queries_issued: u64,
    /// VM instruction dispatches the audit *would* have performed had
    /// every request re-executed scalar: `Σ n_c × ℓ_c` over groups plus
    /// the scalar path's own instruction counts (Fig. 10's "total").
    pub vm_dispatch_total: u64,
    /// VM instruction dispatches actually performed: univalent
    /// instructions once per group, multivalent ones per lane
    /// (Fig. 10's deduplicated re-execution work).
    pub vm_dispatch_executed: u64,
    /// Aggregate redo statistics across database objects.
    pub redo: RedoStats,
    /// Bytes held by the audit-time versioned database(s) (Fig. 8
    /// "temp" DB overhead numerator).
    pub db_versioned_bytes: usize,
    /// Bytes of the latest (migrated) database snapshot (the
    /// denominator; also what the verifier keeps after the audit).
    pub db_final_bytes: usize,
    /// Nodes in the Fig. 5 audit graph (`2X + Y`).
    pub graph_nodes: usize,
    /// Edges in the Fig. 5 audit graph (time-precedence + program +
    /// log-order).
    pub graph_edges: usize,
    /// Wall time of the streamed two-pass CSR graph build — the slice
    /// of the "ProcOpRep" phase the graph layer accounts for.
    pub graph_build: Duration,
    /// Fig. 9 "Balance": the balance scan over the trace's events.
    pub balance_wall: Duration,
    /// Fig. 9 "ProcOpRep": the OpMap built from the reports in the
    /// prologue, then the Fig. 5 validation against the complete trace
    /// (`graph_build` is part of it).
    pub proc_op_rep_wall: Duration,
    /// Fig. 9 "DB redo": the prologue's versioned-store builds.
    pub db_redo_wall: Duration,
    /// Fig. 9 "DB query": busy time spent answering database queries.
    /// Accumulated per context and absorbed like any other counter, so
    /// the parallel merge needs no side channel.
    pub db_query_wall: Duration,
    /// Fig. 9 "ReExec": summed worker busy time re-executing groups,
    /// less its "DB query" and "Output" shares — CPU time, not wall
    /// time.
    pub reexec_wall: Duration,
    /// Fig. 9 "Output": busy time spent judging produced outputs against
    /// the traced responses — comparing built pages, or computing the
    /// final bits of an in-place check — absorbed like `db_query_wall`,
    /// plus the verdict's final scan of the per-request results.
    pub output_wall: Duration,
}

impl AuditStats {
    /// The Fig. 9 phase rows in the figure's order: the paper's row name
    /// and this run's time in it.
    pub fn phase_rows(&self) -> [(&'static str, Duration); 6] {
        [
            ("Balance", self.balance_wall),
            ("ProcOpRep", self.proc_op_rep_wall),
            ("DB redo", self.db_redo_wall),
            ("DB query", self.db_query_wall),
            ("ReExec", self.reexec_wall),
            ("Output", self.output_wall),
        ]
    }

    /// Folds one worker's per-context counters into an aggregate. The
    /// prologue and settle phase walls, redo statistics, and byte counts
    /// are not per-worker; the audit driver fills them in once.
    pub(crate) fn absorb(&mut self, other: &AuditStats) {
        self.groups_executed += other.groups_executed;
        self.requests_reexecuted += other.requests_reexecuted;
        self.register_ops += other.register_ops;
        self.kv_ops += other.kv_ops;
        self.db_txns += other.db_txns;
        self.db_queries += other.db_queries;
        self.db_queries_deduped += other.db_queries_deduped;
        self.db_queries_issued += other.db_queries_issued;
        self.vm_dispatch_total += other.vm_dispatch_total;
        self.vm_dispatch_executed += other.vm_dispatch_executed;
        self.db_query_wall += other.db_query_wall;
        self.output_wall += other.output_wall;
    }
}

/// A successful audit.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Statistics for the evaluation harness.
    pub stats: AuditStats,
}

/// Key of the read-query dedup cache: the log, the SELECT (one per
/// distinct SQL text of that log, see [`VersionedDb::select_at`]) and
/// the modification epoch of the table it reads.
type DedupKey = (usize, usize, u64);

/// The prologue's products, shared read-only by every re-execution
/// worker: the OpMap and, per log, the versioned stores and register
/// prev-write index. Built once (optionally sharded by object across
/// the worker pool) before any group re-executes; all access afterwards
/// is `&self`, which makes one instance safely shareable across the
/// audit's scoped threads.
pub struct AuditShared<'a> {
    reports: &'a Reports,
    config: &'a AuditConfig,
    /// The OpMap, built from the reports before the trace is read; its
    /// rows also index every worker's per-request cursors. The engine
    /// (crate::streaming) holds it too, to validate the reports against
    /// the complete trace.
    pub(crate) opmap: Arc<OpMap>,
    /// The versioned stores and indexes, slot = log index.
    stores: Vec<LogStores<'a>>,
}

// The engine hands `Arc<AuditShared>` to scoped worker threads;
// keep the shareability obligation explicit.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<AuditShared<'static>>();
};

/// What the prologue builds for one log — the unit of its sharding —
/// each part only where the log holds an operation that reads it.
struct LogStores<'a> {
    /// The versioned database (the §4.5 redo pass), for `DbOp` logs.
    db: Option<LogDb>,
    /// The versioned key-value view (`kv.Build(OL)`, Fig. 12 line 5),
    /// borrowing the log's keys and values.
    kv: Option<VersionedKv<'a>>,
    /// For entry index `j`, the sequence number of the latest
    /// `RegisterWrite` strictly before `j`, 0 for none; for logs
    /// containing a `RegisterRead`.
    reg_prev_write: Option<Vec<u32>>,
}

/// A database log's redone store and the committed reads re-execution
/// asks of it, each addressed by its log position `(seq, q)`.
struct LogDb {
    store: VersionedDb,
    /// Per log entry, the flat position of its first query in the
    /// store's redo order ([`VersionedDb::select_at`]).
    first_query: Vec<u32>,
    /// Per select id, the SELECT prepared once after the last redo step.
    selects: Vec<Result<PreparedQuery, SqlError>>,
}

impl<'a> AuditShared<'a> {
    /// Builds every versioned store and index the re-execution phase
    /// reads. With `threads >= 2` the per-log builds are sharded across
    /// a scoped-thread pool — logs are independent by construction, and
    /// redo failures are reported in log order regardless of which
    /// worker hits them, so diagnostics match the sequential build
    /// exactly.
    pub(crate) fn build(
        reports: &'a Reports,
        opmap: Arc<OpMap>,
        config: &'a AuditConfig,
        threads: usize,
    ) -> Result<Self, Rejection> {
        let num_logs = reports.op_logs.len();
        let build_one = |i: usize| (i, build_stores_for(reports, config, i));
        let mut built: Vec<(usize, Result<LogStores, RedoError>)> = if threads >= 2 && num_logs >= 2
        {
            let cursor = AtomicUsize::new(0);
            let collected = Mutex::new(Vec::with_capacity(num_logs));
            crossbeam::thread::scope(|s| {
                for _ in 0..threads.min(num_logs) {
                    s.spawn(|_| {
                        let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed));
                        let local: Vec<_> = std::iter::from_fn(claim)
                            .take_while(|&i| i < num_logs)
                            .map(build_one)
                            .collect();
                        collected.lock().expect("collector poisoned").extend(local);
                    });
                }
            })
            .expect("prologue pool");
            collected.into_inner().expect("collector poisoned")
        } else {
            (0..num_logs).map(build_one).collect()
        };
        // Report the first redo failure in log order — identical to a
        // sequential pass over the logs.
        built.sort_by_key(|(i, _)| *i);
        let stores = built
            .into_iter()
            .map(|(_, stores)| stores)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AuditShared {
            reports,
            config,
            opmap,
            stores,
        })
    }

    /// The versioned database for log `i`, if the prologue built one.
    fn log_db(&self, i: usize) -> Option<&LogDb> {
        self.stores.get(i).and_then(|stores| stores.db.as_ref())
    }

    fn versioned_db(&self, i: usize) -> Option<&VersionedDb> {
        self.log_db(i).map(|db| &db.store)
    }
}

/// A logged write result in the versioned store's vocabulary.
fn write_outcome(w: DbWriteResult) -> WriteOutcome {
    WriteOutcome {
        affected: w.affected,
        last_insert_id: w.last_insert_id,
    }
}

/// Builds the stores log `i` needs: the §4.5 versioned-DB redo pass,
/// the versioned KV view, and the register prev-write index.
fn build_stores_for<'a>(
    reports: &'a Reports,
    config: &AuditConfig,
    i: usize,
) -> Result<LogStores<'a>, RedoError> {
    let log = reports.op_logs.log(i).expect("a valid log index");
    let name = reports.op_logs.name(i).expect("a valid log index");
    let db = log.contains_op_type(OpType::DbOp).then(|| {
        let empty = Database::new();
        let initial = config.initial_dbs.get(name.as_str()).unwrap_or(&empty);
        let mut store = VersionedDb::from_snapshot(initial);
        let mut first_query = Vec::with_capacity(log.len());
        for (seq, entry) in log.iter() {
            first_query.push(store.redone_queries() as u32);
            if let OpContents::DbOp {
                queries,
                succeeded,
                write_results,
            } = &entry.contents
            {
                let logged: Vec<Option<WriteOutcome>> =
                    write_results.iter().map(|w| w.map(write_outcome)).collect();
                store.redo_transaction(seq.0, queries, *succeeded, &logged)?;
            }
        }
        let selects = store.prepare_selects();
        Ok(LogDb {
            store,
            first_query,
            selects,
        })
    });
    let has_kv = log.contains_op_type(OpType::KvGet) || log.contains_op_type(OpType::KvSet);
    let reg_prev_write = log.contains_op_type(OpType::RegisterRead).then(|| {
        let mut out = Vec::with_capacity(log.len());
        let mut last = 0;
        for (seq, entry) in log.iter() {
            out.push(last);
            if entry.op_type() == OpType::RegisterWrite {
                last = seq.0 as u32;
            }
        }
        out
    });
    Ok(LogStores {
        db: db.transpose()?,
        kv: has_kv.then(|| VersionedKv::build(log)),
        reg_prev_write,
    })
}

/// The simulate-and-check context handed to the [`GroupExecutor`].
///
/// Tracks per-request operation numbers, performs `CheckOp` against the
/// OpMap and logs, and feeds reads from the versioned stores. All
/// cross-request audit state lives in the immutable [`AuditShared`]; a
/// context only owns per-request cursors and performance caches, which
/// is what lets the parallel audit run one context per worker thread
/// over a single shared prologue.
pub struct AuditContext<'a> {
    shared: Arc<AuditShared<'a>>,
    /// Next unconsumed opnum per OpMap row (starts at 1).
    opnum_next: Vec<u32>,
    /// Open-database-transaction flag per OpMap row.
    in_txn: Vec<bool>,
    /// Read-query dedup cache. An entry is one immutable result: every
    /// hit hands out the same handle, so all readers of one table
    /// version share one object.
    dedup_cache: HashMap<DedupKey, Arc<ExecOutcome>>,
    /// Nondeterminism cursors per OpMap row.
    nondet_cursor: Vec<usize>,
    /// The control-flow tag the unit being re-executed claims; the
    /// driver sets it before each unit.
    pub(crate) claimed: CtlFlowTag,
    /// Accumulated statistics (including the "DB query" busy time, so
    /// nothing timing-related is threaded beside the stats).
    pub(crate) stats: AuditStats,
}

impl<'a> AuditContext<'a> {
    /// Runs the audit prologue standalone: balance check, report
    /// processing (Fig. 5), nondeterminism validation, and the versioned
    /// store builds — yielding a context ready for re-execution. This is
    /// the engine's own prologue with no groups scheduled; benchmarks
    /// and executor tests use it to drive a [`GroupExecutor`] directly.
    pub fn prepare(
        source: &dyn TraceSource,
        reports: &'a Reports,
        config: &'a AuditConfig,
    ) -> Result<AuditContext<'a>, Rejection> {
        StreamingAudit::new(reports, config, 1).into_context(source)
    }

    /// A context over `shared`, resuming from a prior pass's carry. The
    /// per-request cursor vectors are rebuilt fresh — each request
    /// re-executes within one context's lifetime — while the
    /// performance caches and counters persist across passes.
    pub(crate) fn new(shared: Arc<AuditShared<'a>>, carry: AuditCarry) -> Self {
        let x = shared.opmap.num_rows();
        AuditContext {
            shared,
            opnum_next: vec![1; x],
            in_txn: vec![false; x],
            dedup_cache: carry.dedup_cache,
            nondet_cursor: vec![0; x],
            claimed: CtlFlowTag(0),
            stats: carry.stats,
        }
    }

    /// Tears the context down to what the engine carries across an
    /// epoch boundary: the dedup cache and the accumulated counters.
    /// Everything else — the per-request cursor vectors and the `Arc` on
    /// the shared prologue — is dropped, which is what lets the engine
    /// reclaim exclusive ownership of the shared state between epochs.
    pub(crate) fn into_carry(self) -> AuditCarry {
        AuditCarry {
            dedup_cache: self.dedup_cache,
            stats: self.stats,
        }
    }

    /// Resolves a requestID to its OpMap row — the one hash lookup a
    /// state operation performs; every cursor and OpMap access after it
    /// is flat indexing.
    fn row(&self, rid: RequestId) -> Option<usize> {
        self.shared.opmap.row(rid).map(|row| row as usize)
    }

    /// The first half of `CheckOp` (Fig. 12 lines 10–14), shared by
    /// every operation kind: the request's next opnum must be in the
    /// OpMap, and the log it names must be `object`'s. Returns the
    /// request's OpMap row, that opnum, the OpMap's `(log, seqnum)` and
    /// the logged contents.
    fn resolve_op(
        &self,
        rid: RequestId,
        object: &ObjectName,
    ) -> Result<(usize, OpNum, usize, SeqNum, OpContentsRef<'a>), Rejection> {
        // A request the reports never name has no OpMap row; report it
        // the way an empty row would (opnum cursor at 1).
        let Some(idx) = self.row(rid) else {
            return Err(Rejection::OpNotInOpMap {
                rid,
                opnum: OpNum(1),
            });
        };
        if self.in_txn[idx] {
            return Err(Rejection::StateOpDuringTxn { rid });
        }
        let opnum = OpNum(self.opnum_next[idx]);
        let (i, s) = self
            .shared
            .opmap
            .get_dense(idx as u32, opnum)
            .ok_or(Rejection::OpNotInOpMap { rid, opnum })?;
        let logs = &self.shared.reports.op_logs;
        if logs.name(i).expect("OpMap indexes valid logs") != object {
            return Err(Rejection::ObjectMismatch { rid, opnum });
        }
        let entry = logs
            .log(i)
            .and_then(|l| l.get(s))
            .expect("OpMap points into logs");
        Ok((idx, opnum, i, s, entry.contents))
    }

    /// `CheckOp` (Fig. 12 lines 10–15) for non-database operations: the
    /// operation's target object and full operands must match the log
    /// entry the OpMap names — `matches` compares the operands in place,
    /// so checking builds no `OpContents` of its own.
    fn check_op(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        matches: impl FnOnce(OpContentsRef<'a>) -> bool,
    ) -> Result<(usize, usize, SeqNum), Rejection> {
        let (idx, opnum, i, s, logged) = self.resolve_op(rid, object)?;
        if !matches(logged) {
            return Err(Rejection::OpContentsMismatch { rid, opnum });
        }
        Ok((idx, i, s))
    }

    /// Register read (Fig. 12's `SimOp`): checked, then fed from the
    /// latest preceding write in the log (lines 19–23), falling back to
    /// the initial state the verifier carries (§4.1); `None` when never
    /// written. The bytes are the reports' (or the config's) own, not a
    /// copy.
    pub fn register_read(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
    ) -> Result<Option<&'a [u8]>, Rejection> {
        let (idx, i, s) = self.check_op(rid, object, |l| matches!(l, OpContents::RegisterRead))?;
        let shared: &AuditShared<'a> = &self.shared;
        let prev = shared.stores[i]
            .reg_prev_write
            .as_ref()
            .expect("prologue builds prev-write indexes for register logs");
        let value = match prev[(s.0 - 1) as usize] {
            0 => shared
                .config
                .initial_registers
                .get(object.as_str())
                .map(Vec::as_slice),
            write => {
                let log = shared.reports.op_logs.log(i).expect("checked index");
                match log.get(SeqNum(write.into())).map(|e| e.contents) {
                    Some(OpContents::RegisterWrite { value }) => Some(value),
                    _ => unreachable!("prev-write index only records writes"),
                }
            }
        };
        self.opnum_next[idx] += 1;
        self.stats.register_ops += 1;
        Ok(value)
    }

    /// Register write: checked only (the check validates the logged
    /// value, which earlier reads may already have consumed —
    /// "opportunistic" checking, §3.3).
    pub fn register_write(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        value: &[u8],
    ) -> Result<(), Rejection> {
        let (idx, ..) = self.check_op(
            rid,
            object,
            |l| matches!(l, OpContents::RegisterWrite { value: v } if v == value),
        )?;
        self.opnum_next[idx] += 1;
        self.stats.register_ops += 1;
        Ok(())
    }

    /// Key-value get: checked, then fed from the versioned view
    /// (`kv.Build` + `kv.get(k, s)`, Fig. 12 line 25); `None` when the
    /// key is absent. The bytes are the reports' (or the config's) own.
    pub fn kv_get(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        key: &str,
    ) -> Result<Option<&'a [u8]>, Rejection> {
        let (idx, i, s) = self.check_op(
            rid,
            object,
            |l| matches!(l, OpContents::KvGet { key: k } if k == key),
        )?;
        let shared: &AuditShared<'a> = &self.shared;
        let kv = shared.stores[i]
            .kv
            .as_ref()
            .expect("prologue builds versioned views for kv logs");
        let value = if kv.has_write_before(key, s) {
            kv.get(key, s)
        } else {
            shared
                .config
                .initial_kv
                .get(object.as_str())
                .and_then(|m| m.get(key))
                .map(Vec::as_slice)
        };
        self.opnum_next[idx] += 1;
        self.stats.kv_ops += 1;
        Ok(value)
    }

    /// Key-value set (`None` deletes): checked only.
    pub fn kv_set(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
        key: &str,
        value: Option<&[u8]>,
    ) -> Result<(), Rejection> {
        let (idx, ..) = self.check_op(
            rid,
            object,
            |l| matches!(l, OpContents::KvSet { key: k, value: v } if k == key && v == value),
        )?;
        self.opnum_next[idx] += 1;
        self.stats.kv_ops += 1;
        Ok(())
    }

    /// Opens a database transaction: resolves the OpMap entry that this
    /// operation will consume and validates object and optype. Queries
    /// are then checked one at a time (§A.7).
    pub fn db_begin(
        &mut self,
        rid: RequestId,
        object: &ObjectName,
    ) -> Result<DbTxnHandle, Rejection> {
        let (idx, opnum, i, s, logged) = self.resolve_op(rid, object)?;
        let (total, succeeded) = match logged {
            OpContents::DbOp {
                queries, succeeded, ..
            } => (queries.len() as u64, succeeded),
            _ => return Err(Rejection::OpContentsMismatch { rid, opnum }),
        };
        self.in_txn[idx] = true;
        self.stats.db_txns += 1;
        Ok(DbTxnHandle {
            rid,
            opnum,
            obj_index: i,
            seq: s,
            queries_done: 0,
            total_queries: total,
            logged_succeeded: succeeded,
            failed: false,
        })
    }

    /// Checks one query of an open transaction against the log and
    /// simulates its result (reads from the versioned store with
    /// deduplication; writes from the redo-verified logged outcome).
    pub fn db_query(
        &mut self,
        handle: &mut DbTxnHandle,
        sql: &str,
    ) -> Result<DbQueryResult, Rejection> {
        let rid = handle.rid;
        let opnum = handle.opnum;
        if handle.failed {
            // Online, queries past the failure point fail without being
            // logged; mirror that exactly.
            return Ok(DbQueryResult::Failed);
        }
        let q = handle.queries_done + 1;
        if q > handle.total_queries {
            return Err(Rejection::DbTooManyQueries { rid, opnum });
        }
        let entry = self
            .shared
            .reports
            .op_logs
            .log(handle.obj_index)
            .and_then(|l| l.get(handle.seq))
            .expect("handle indexes a validated entry");
        let (queries, write_results) = match entry.contents {
            OpContents::DbOp {
                queries,
                write_results,
                ..
            } => (queries, write_results),
            _ => unreachable!("db_begin validated the optype"),
        };
        if *queries[(q - 1) as usize] != *sql {
            return Err(Rejection::DbQueryMismatch {
                rid,
                opnum,
                query: q,
            });
        }
        if write_results.len() != queries.len() {
            // Malformed entry; redo rejects this too, but a hostile log
            // for an object with no DbOp entries can reach here.
            return Err(Rejection::OpContentsMismatch { rid, opnum });
        }
        let logged_write = write_results[(q - 1) as usize];
        handle.queries_done = q;
        self.stats.db_queries += 1;

        let vdb = self
            .shared
            .versioned_db(handle.obj_index)
            .ok_or(Rejection::ObjectMismatch { rid, opnum })?;
        let seq = handle.seq.0;
        if let Some(w) = logged_write {
            // Writes are fed from the redo-verified logged outcome.
            let outcome = ExecOutcome::Write(write_outcome(w));
            return Ok(DbQueryResult::Ok(Arc::new(outcome)));
        }
        if handle.logged_succeeded {
            let t0 = Instant::now();
            let result = self.dedup_query(handle, q)?;
            self.stats.db_query_wall += t0.elapsed();
            Ok(DbQueryResult::Ok(result))
        } else if let Some(rows) = vdb.aborted_read(seq, q) {
            Ok(DbQueryResult::Ok(Arc::clone(rows)))
        } else if q == handle.total_queries && vdb.aborted_failed_at_last(seq) {
            handle.failed = true;
            Ok(DbQueryResult::Failed)
        } else {
            Err(Rejection::DbAbortedReadMissing { rid, opnum })
        }
    }

    /// Answers committed read `q` of the transaction `handle` names at
    /// its version, deduplicating by (SELECT, table modification epoch)
    /// when enabled (§4.5). [`Self::db_query`] has matched the SQL text
    /// against the log, so the SELECT redo parsed at this log position
    /// is the one to run, found by flat index.
    fn dedup_query(&mut self, handle: &DbTxnHandle, q: u64) -> Result<Arc<ExecOutcome>, Rejection> {
        let (log, seq) = (handle.obj_index, handle.seq.0);
        let db = self.shared.log_db(log).ok_or(Rejection::ObjectMismatch {
            rid: handle.rid,
            opnum: handle.opnum,
        })?;
        let position = db.first_query[(seq - 1) as usize] as usize + (q - 1) as usize;
        // Redo rejects a committed query with no logged write result
        // unless it is a SELECT, so every read here has a select id.
        let select = db
            .store
            .select_at(position)
            .expect("redo checked that committed reads are SELECTs");
        let failure = |e: &SqlError| Rejection::ExecFailure(format!("query_at: {e}"));
        let query = match &db.selects[select] {
            Ok(query) => query,
            Err(e) => {
                self.stats.db_queries_issued += 1;
                return Err(failure(e));
            }
        };
        let ts = seq * MAXQ + q;
        let dedup = self.shared.config.query_dedup;
        let key = dedup.then(|| (log, select, db.store.mod_epoch(query, ts)));
        if let Some(cached) = key.and_then(|key| self.dedup_cache.get(&key)) {
            self.stats.db_queries_deduped += 1;
            return Ok(Arc::clone(cached));
        }
        self.stats.db_queries_issued += 1;
        let result = Arc::new(db.store.run_at(query, ts).map_err(|e| failure(&e))?);
        if let Some(key) = key {
            self.dedup_cache.insert(key, Arc::clone(&result));
        }
        Ok(result)
    }

    /// Finishes a transaction. `committed` reflects what the re-executed
    /// program did (`db_commit` vs `db_rollback`); the result is the
    /// value `db_commit` returns to the program.
    pub fn db_finish(&mut self, handle: DbTxnHandle, committed: bool) -> Result<bool, Rejection> {
        let rid = handle.rid;
        let opnum = handle.opnum;
        if handle.queries_done != handle.total_queries {
            return Err(Rejection::DbQueryCountMismatch { rid, opnum });
        }
        let failed = self
            .shared
            .versioned_db(handle.obj_index)
            .ok_or(Rejection::ObjectMismatch { rid, opnum })?
            .aborted_failed_at_last(handle.seq.0);
        let result = if committed {
            if handle.logged_succeeded {
                true
            } else if failed {
                // The program committed, but a statement had failed; the
                // online commit reported failure.
                false
            } else {
                // Log claims a voluntary rollback, but the program
                // committed: inconsistent.
                return Err(Rejection::DbCommitMismatch { rid, opnum });
            }
        } else {
            if handle.logged_succeeded {
                return Err(Rejection::DbCommitMismatch { rid, opnum });
            }
            false
        };
        let idx = self
            .row(rid)
            .expect("db_begin resolved this request already");
        self.in_txn[idx] = false;
        self.opnum_next[idx] += 1;
        Ok(result)
    }

    /// Adds time the executor spent judging outputs against the trace
    /// (the Fig. 9 "Output" row).
    pub fn record_output_wall(&mut self, wall: Duration) {
        self.stats.output_wall += wall;
    }

    /// Records VM instruction-dispatch work done by the executor:
    /// `total` is the dispatch count a fully scalar re-execution would
    /// have paid, `executed` what the (possibly grouped) engine actually
    /// dispatched. The gap is deduplicated re-execution's saving.
    pub fn record_vm_dispatches(&mut self, total: u64, executed: u64) {
        self.stats.vm_dispatch_total += total;
        self.stats.vm_dispatch_executed += executed;
    }

    /// Feeds the next recorded nondeterministic value for `rid` (§4.6):
    /// its payload, as `payload` takes it out of a value of the kind the
    /// call site reads; any other kind is [`Rejection::NondetKindMismatch`].
    pub fn nondet<T>(
        &mut self,
        rid: RequestId,
        payload: impl FnOnce(&NondetValue) -> Option<T>,
    ) -> Result<T, Rejection> {
        // A request without an OpMap row owns no recorded values, so
        // the cursor (0) is already past the end.
        let Some(idx) = self.row(rid) else {
            return Err(Rejection::NondetExhausted { rid });
        };
        let recorded = self.shared.reports.nondet.for_request(rid);
        let cursor = &mut self.nondet_cursor[idx];
        let value = recorded
            .get(*cursor)
            .ok_or(Rejection::NondetExhausted { rid })?;
        let value = payload(value).ok_or(Rejection::NondetKindMismatch { rid })?;
        *cursor += 1;
        Ok(value)
    }

    /// Driver-side end-of-request checks: the request must have consumed
    /// exactly `M(rid)` operations (Fig. 12 line 51) and all recorded
    /// nondeterminism.
    pub(crate) fn finish_request(&mut self, rid: RequestId) -> Result<(), Rejection> {
        // A request without an OpMap row issued no operation and read no
        // recorded value.
        let (in_txn, opnum_next, nondet_cursor) = match self.row(rid) {
            Some(idx) => (
                self.in_txn[idx],
                self.opnum_next[idx],
                self.nondet_cursor[idx],
            ),
            None => (false, 1, 0),
        };
        if in_txn {
            return Err(Rejection::StateOpDuringTxn { rid });
        }
        if opnum_next - 1 != self.shared.reports.op_count(rid) {
            return Err(Rejection::OpCountMismatch { rid });
        }
        if nondet_cursor != self.shared.reports.nondet.for_request(rid).len() {
            return Err(Rejection::NondetLeftover { rid });
        }
        Ok(())
    }

    /// Statistics accumulated so far (dedup hits, op counts, ...).
    pub fn stats(&self) -> &AuditStats {
        &self.stats
    }

    /// The running unit diverged (Fig. 12 line 39).
    pub fn divergence(&self) -> Rejection {
        Rejection::Divergence { tag: self.claimed }
    }

    /// Checks the control-flow tag a run recomputed against the one its
    /// unit claims: the server's grouping is advice, checked on every
    /// run, grouped or scalar.
    pub fn check_tag(&self, tag: CtlFlowTag) -> Result<(), Rejection> {
        if tag != self.claimed {
            return Err(self.divergence());
        }
        Ok(())
    }
}

/// The context state one worker slot carries across epoch boundaries:
/// performance caches and counters only. See
/// [`AuditContext::into_carry`].
#[derive(Default)]
pub(crate) struct AuditCarry {
    dedup_cache: HashMap<DedupKey, Arc<ExecOutcome>>,
    pub(crate) stats: AuditStats,
}

impl AuditCarry {
    /// Rough resident size of the carried caches in bytes: the dedup
    /// index (cached results are not counted).
    pub(crate) fn estimated_bytes(&self) -> usize {
        self.dedup_cache.len() * 56
    }
}

/// Folds the redo statistics and store sizes into the final outcome,
/// and mirrors the phase walls and dispatch counters into the
/// telemetry registry — the single write point, so Fig. 9 consumers
/// can read either the run's [`AuditStats`] or the process-wide
/// metrics and see the same accounting.
pub(crate) fn assemble_outcome(shared: &AuditShared<'_>, mut stats: AuditStats) -> AuditOutcome {
    let dbs = shared.stores.iter().filter_map(|stores| stores.db.as_ref());
    for vdb in dbs.map(|db| &db.store) {
        let s = vdb.stats();
        stats.redo.transactions += s.transactions;
        stats.redo.queries += s.queries;
        stats.redo.versions_created += s.versions_created;
        stats.redo.aborted += s.aborted;
        stats.db_versioned_bytes += vdb.estimated_bytes();
        stats.db_final_bytes += vdb.latest().estimated_bytes();
    }
    mirror_stats_into_registry(&stats);
    AuditOutcome { stats }
}

/// The registry counters of [`AuditStats::phase_rows`], row for row.
const PHASE_COUNTERS: [&str; 6] = [
    "audit_phase_balance_ns",
    "audit_phase_procoprep_ns",
    "audit_phase_db_redo_ns",
    "audit_phase_db_query_ns",
    "audit_phase_reexec_ns",
    "audit_phase_output_ns",
];

fn mirror_stats_into_registry(stats: &AuditStats) {
    use orochi_obs::registry;
    for ((_, wall), name) in stats.phase_rows().into_iter().zip(PHASE_COUNTERS) {
        let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        registry::counter(name).add(ns);
    }
    registry::counter("audit_groups_executed_total").add(stats.groups_executed as u64);
    registry::counter("audit_requests_reexecuted_total").add(stats.requests_reexecuted as u64);
    registry::counter("audit_vm_dispatch_represented_total").add(stats.vm_dispatch_total);
    registry::counter("audit_vm_dispatch_executed_total").add(stats.vm_dispatch_executed);
}

/// Runs the full audit (`SSCO_AUDIT2`, Fig. 12).
///
/// Returns statistics on acceptance; rejects with a precise reason
/// otherwise. Groups are re-executed one at a time, in grouping order;
/// see [`audit_parallel`] for the pooled variant.
pub fn audit(
    trace: &Trace,
    reports: &Reports,
    executor: &mut dyn GroupExecutor,
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    audit_source(trace, reports, executor, config)
}

/// [`audit`] over any [`TraceSource`] — the in-memory [`Trace`], a
/// pre-balanced replay, or a [`orochi_trace::TraceStoreReader`] that
/// streams sealed on-disk segments. Verdicts and diagnostics are
/// byte-identical across sources holding the same events.
pub fn audit_source(
    source: &dyn TraceSource,
    reports: &Reports,
    executor: &mut dyn GroupExecutor,
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    streaming::drive(source, reports, Pool::Solo(executor), config, 0)
}

/// Runs the full audit with group re-execution fanned out across
/// `executors.len()` worker threads (one [`GroupExecutor`] and one
/// [`AuditContext`] per worker over a single shared prologue).
///
/// Verdicts and failure diagnostics are byte-identical to [`audit`]:
/// the rejection reported is the first one the sequential walk would
/// have hit, whatever the schedule. Scheduling only moves performance
/// counters (the dedup hit/miss split). With a single executor — or
/// fewer than two groups — no threads are spawned.
///
/// # Panics
///
/// Panics if `executors` is empty.
pub fn audit_parallel<E: GroupExecutor + Send>(
    trace: &Trace,
    reports: &Reports,
    executors: &mut [E],
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    audit_parallel_source(trace, reports, executors, config)
}

/// [`audit_parallel`] over any [`TraceSource`]; see [`audit_source`]
/// for the source contract.
///
/// # Panics
///
/// Panics if `executors` is empty.
pub fn audit_parallel_source<E: GroupExecutor + Send>(
    source: &dyn TraceSource,
    reports: &Reports,
    executors: &mut [E],
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    streaming::drive(source, reports, Pool::threads(executors), config, 0)
}
