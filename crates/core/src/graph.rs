//! `ProcessOpReports` (Fig. 5): consistent-ordering verification.
//!
//! The verifier builds a directed graph `G` with a node for every event —
//! for each request `rid`, nodes `(rid, 0)` (arrival) and `(rid, ∞)`
//! (response departure), plus one node per alleged operation
//! `(rid, 1..M(rid))`. Edges come from three sources:
//!
//! * **time precedence** — the split edges of the Fig. 6 graph:
//!   `(r1, ∞) -> (r2, 0)` whenever `r1 <Tr r2`;
//! * **program order** — `(rid, k-1) -> (rid, k)` and
//!   `(rid, M(rid)) -> (rid, ∞)`;
//! * **log order** — an edge between adjacent log entries of different
//!   requests; same-request adjacency instead *checks* that the opnum
//!   increases.
//!
//! `CheckLogs` simultaneously builds the **OpMap**: the index from
//! `(rid, opnum)` to `(object index, log sequence number)` that
//! re-execution's `CheckOp` consults. If the graph has a cycle, the
//! events cannot be consistently ordered and the audit rejects (§3.4's
//! examples show why each edge source is necessary).
//!
//! The construction runs in `O(X + Y + Z)` time and space (Lemma 11).
//!
//! # Implementation contract
//!
//! The pass runs in two halves, split by what each reads.
//!
//! * [`OpMap::build`] reads the reports alone, so the audit runs it once,
//!   in its prologue, before any of the trace arrives. It fills the
//!   OpMap — per request the reports name, a prefix offset into one slot
//!   array; per log entry, its request's row — and notes the first
//!   defect the reports show on their own:
//!   an opnum outside `1..=M(rid)` or a duplicate `(rid, opnum)`. Its
//!   tables are sized from the log entries, so a forged `M` costs
//!   nothing.
//! * [`process_op_reports_interned`] runs once the trace is complete. It
//!   resolves every OpMap row — one hash per request, not per entry —
//!   through the trace's dense requestID interning
//!   ([`orochi_trace::RidInterner`]), and every log entry through its
//!   row into flat per-log index arrays. The missing-operation scan
//!   walks trace requests in arrival order, reading `M` from the row
//!   (a request no log names looks it up); from then on, every loop is
//!   index arithmetic over flat arrays. The [`AuditGraph`] is a
//!   compressed-sparse-row (CSR) structure built in two passes over one
//!   edge stream (count out-degrees, prefix-sum, fill columns) that
//!   includes the Fig. 6 frontier edges *streamed* straight from
//!   [`crate::precedence::for_each_frontier_edge`] — no intermediate
//!   `(RequestId, RequestId)` edge list is ever materialized, and no
//!   endpoint is re-hashed. The cycle check is Kahn's algorithm over the
//!   flat `row_start`/`col` arrays, seeded from an indegree array
//!   accumulated during the fill pass (no O(E) recount).
//!
//! Rejections keep Fig. 5's precedence: the first defect in log
//! position — unknown request, bad opnum, duplicate — then a missing
//! operation, then log order, then a cycle.
//!
//! The pre-CSR construction — materialized edge list, per-endpoint hash
//! lookups, `Vec<Vec<u32>>` adjacency, `HashMap` OpMap — survives in
//! [`two_phase`] as the differential-testing oracle.

use crate::precedence::for_each_frontier_edge;
use crate::reports::Reports;
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use orochi_state::oplog::{OpLog, OperandTables};
use orochi_trace::record::{BalancedTrace, RidInterner};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why report processing rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphRejection {
    /// A log entry names a request absent from the trace.
    LogEntryUnknownRequest {
        /// The offending request.
        rid: RequestId,
    },
    /// A log entry's opnum is 0 or exceeds `M(rid)`.
    LogEntryBadOpnum {
        /// The offending request.
        rid: RequestId,
        /// The bad opnum.
        opnum: OpNum,
    },
    /// Two log entries claim the same `(rid, opnum)`.
    DuplicateOperation {
        /// The offending request.
        rid: RequestId,
        /// The duplicated opnum.
        opnum: OpNum,
    },
    /// `M(rid)` promises an operation no log contains.
    MissingOperation {
        /// The offending request.
        rid: RequestId,
        /// The missing opnum.
        opnum: OpNum,
    },
    /// Adjacent same-request log entries with non-increasing opnums.
    LogOrderViolation {
        /// The offending request.
        rid: RequestId,
    },
    /// Two operation logs share an object name.
    DuplicateObjectName {
        /// The duplicated name.
        name: String,
    },
    /// The event graph has a cycle: no consistent ordering exists.
    CycleDetected,
}

impl std::fmt::Display for GraphRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphRejection::LogEntryUnknownRequest { rid } => {
                write!(f, "log entry names {rid} which is not in the trace")
            }
            GraphRejection::LogEntryBadOpnum { rid, opnum } => {
                write!(f, "log entry ({rid},{opnum}) outside 1..=M")
            }
            GraphRejection::DuplicateOperation { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) appears in two log positions")
            }
            GraphRejection::MissingOperation { rid, opnum } => {
                write!(f, "operation ({rid},{opnum}) promised by M but not logged")
            }
            GraphRejection::LogOrderViolation { rid } => {
                write!(f, "log entries of {rid} are out of program order")
            }
            GraphRejection::DuplicateObjectName { name } => {
                write!(f, "two operation logs claim object {name}")
            }
            GraphRejection::CycleDetected => {
                write!(f, "event graph has a cycle: no consistent order exists")
            }
        }
    }
}

impl std::error::Error for GraphRejection {}

/// Sentinel object index marking an unfilled [`OpMap`] slot.
const UNSET: u32 = u32::MAX;

/// The OpMap: `(rid, opnum) -> (object index, log sequence number)`.
///
/// Built once from the reports ([`OpMap::build`]), with one row per
/// request they name — in a log entry or in the nondeterminism report —
/// so the re-execution workers index their per-request cursors by row
/// too. Row `r` owns the slot range `offsets[r]..offsets[r + 1]`: one
/// slot per opnum from 1 up to `M(rid)` or the number of entries naming
/// the request, whichever is smaller. A lookup is one hash to find the
/// row, then two array reads.
#[derive(Debug, Clone)]
pub struct OpMap {
    /// RequestID -> row.
    rows: HashMap<RequestId, u32>,
    /// Per row: `M(rid)`.
    counts: Vec<u32>,
    /// Per log entry, in log order: the row of the request it names, so
    /// validation resolves each row against the trace once, not each
    /// entry.
    entry_rows: Vec<u32>,
    /// Per row: prefix offsets into `slots`; length `rows + 1`.
    offsets: Vec<u32>,
    /// One `(object index, seqnum)` slot per indexed opnum, in `u32`s
    /// like every other audit-graph index; `UNSET` object index marks a
    /// slot no log entry filled.
    slots: Vec<(u32, u32)>,
    /// The first defect the reports show on their own, at its log
    /// position (the entry's ordinal across the logs, in log order). The
    /// build stops there, as report validation rejects whatever the
    /// trace holds.
    defect: Option<(usize, GraphRejection)>,
}

impl OpMap {
    /// The half of Fig. 5's `CheckLogs` that reads the reports alone: one
    /// walk over the logs, in log order, checks each entry's opnum
    /// against `M(rid)` and claims its slot, and stops at the first entry
    /// that is out of range or claims a claimed opnum. The checks that
    /// need the trace wait for [`process_op_reports_interned`].
    pub fn build(reports: &Reports) -> OpMap {
        // A row per request named, in order of first mention, sized by
        // `(M, entries naming it)`; and each log entry's row. The tables
        // are reserved for `M`'s requests: an honest server reports `M`
        // for every request it logs.
        let mut rows = HashMap::with_capacity(reports.op_counts.len());
        let mut sizes: Vec<(u32, u32)> = Vec::with_capacity(reports.op_counts.len());
        let mut name = |rid: RequestId| {
            let next = sizes.len() as u32;
            let row = *rows.entry(rid).or_insert(next);
            if row == next {
                sizes.push((reports.op_count(rid), 0));
            }
            row
        };
        // Each log entry names its request by its row in the log's
        // operand tables, so a table's rows are resolved once, one hash
        // per request it numbers, and no entry's rid is hashed. Every log
        // decoded from one bundle shares one table.
        let mut resolved: HashMap<*const OperandTables, Vec<u32>> = HashMap::new();
        let mut entry_rows = Vec::with_capacity(reports.total_ops());
        for (_, _, log) in reports.op_logs.iter() {
            let table = resolved
                .entry(Arc::as_ptr(log.tables()))
                .or_insert_with(|| log.tables().rids().iter().map(|&rid| name(rid)).collect());
            entry_rows.extend(log.rows().map(|row| table[row as usize]));
        }
        drop(resolved);
        reports.nondet.requests().for_each(|rid| {
            name(rid);
        });
        for &row in &entry_rows {
            sizes[row as usize].1 += 1;
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0);
        for &(m, entries) in &sizes {
            offsets.push(offsets[offsets.len() - 1] + m.min(entries));
        }
        let mut map = OpMap {
            rows,
            counts: sizes.iter().map(|&(m, _)| m).collect(),
            entry_rows,
            slots: vec![(UNSET, 0); offsets[sizes.len()] as usize],
            offsets,
            defect: None,
        };
        // Claims on opnums past a row's slots: in range, but the request
        // is short of entries, which validation rejects as missing.
        let mut beyond = HashSet::new();
        let entries = (reports.op_logs.iter()).flat_map(|(i, _, log)| {
            (log.heads().enumerate()).map(move |(j, head)| (i as u32, j as u32 + 1, head))
        });
        for (pos, ((i, seq, (rid, opnum)), &row)) in entries.zip(&map.entry_rows).enumerate() {
            let m = map.counts[row as usize];
            let duplicate = GraphRejection::DuplicateOperation { rid, opnum };
            let (start, end) = (map.offsets[row as usize], map.offsets[row as usize + 1]);
            let defect = if opnum.0 == 0 || opnum.is_infinity() || opnum.0 > m {
                Some(GraphRejection::LogEntryBadOpnum { rid, opnum })
            } else if opnum.0 > end - start {
                (!beyond.insert((row, opnum))).then_some(duplicate)
            } else if map.slots[(start + opnum.0 - 1) as usize].0 != UNSET {
                Some(duplicate)
            } else {
                map.slots[(start + opnum.0 - 1) as usize] = (i, seq);
                None
            };
            if let Some(defect) = defect {
                map.defect = Some((pos, defect));
                break;
            }
        }
        map
    }

    /// The row of `rid`, if the reports name it.
    pub(crate) fn row(&self, rid: RequestId) -> Option<u32> {
        self.rows.get(&rid).copied()
    }

    /// Number of rows: the requests the reports name.
    pub(crate) fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Looks up an operation: one hash to find the row, then two array
    /// reads.
    pub fn get(&self, rid: RequestId, opnum: OpNum) -> Option<(usize, SeqNum)> {
        self.get_dense(self.row(rid)?, opnum)
    }

    /// Looks up an operation by row: two array reads, zero hashing.
    /// `row` must come from [`OpMap::row`].
    pub(crate) fn get_dense(&self, row: u32, opnum: OpNum) -> Option<(usize, SeqNum)> {
        let slot = self
            .row_slots(row)
            .get((opnum.0 as usize).checked_sub(1)?)?;
        (slot.0 != UNSET).then_some((slot.0 as usize, SeqNum(slot.1.into())))
    }

    fn row_slots(&self, row: u32) -> &[(u32, u32)] {
        let row = row as usize;
        &self.slots[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// The first opnum in `1..=m` no log entry claims for the request at
    /// `row` (none: the reports name no entry for it). A row shorter
    /// than `m` has fewer entries than `m`, so one of its first `len + 1`
    /// opnums is unclaimed.
    fn first_missing(&self, row: Option<u32>, m: u32) -> Option<u32> {
        let slots = row.map_or(&[][..], |row| self.row_slots(row));
        let k = slots
            .iter()
            .position(|s| s.0 == UNSET)
            .unwrap_or(slots.len()) as u32
            + 1;
        (k <= m).then_some(k)
    }

    /// The defect [`OpMap::build`] stopped at, if it sits at log
    /// position `pos`.
    fn defect_at(&self, pos: usize) -> Option<&GraphRejection> {
        let defect = self.defect.as_ref().filter(|(at, _)| *at == pos);
        defect.map(|(_, rejection)| rejection)
    }

    /// True if the reports alone condemn the run: report validation will
    /// reject, whatever the trace holds.
    pub(crate) fn is_defective(&self) -> bool {
        self.defect.is_some()
    }

    /// Number of indexed operations.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.0 != UNSET).count()
    }

    /// True if no operations are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rough resident size in bytes (row index, per-row, per-entry,
    /// offset and slot arrays).
    pub(crate) fn estimated_bytes(&self) -> usize {
        let row = std::mem::size_of::<(RequestId, u32)>() + 1;
        self.rows.capacity() * row
            + (self.counts.len() + self.entry_rows.len() + self.offsets.len()) * 4
            + self.slots.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The audit graph `G` over dense node ids, in compressed-sparse-row
/// (CSR) form.
///
/// Node numbering per dense request index `idx` (with `m = M(rid)`):
/// the request owns the contiguous id range `base[idx]..base[idx + 1]`
/// — slot 0 is `(rid, 0)`, slots `1..=m` are the operations, slot
/// `m + 1` is `(rid, ∞)`. Requests are numbered in arrival order (the
/// interner's dense order), so the whole graph layout is determined by
/// the trace and `M` alone.
///
/// Out-edges of node `v` are `col[row_start[v]..row_start[v + 1]]`; the
/// builder also accumulates `indegree` during the fill pass so Kahn's
/// check never re-counts edges.
#[derive(Debug)]
pub struct AuditGraph {
    interner: Arc<RidInterner>,
    /// Node-id base per dense request; length `X + 1`.
    base: Vec<u32>,
    /// CSR row offsets; length `num_nodes + 1`.
    row_start: Vec<u32>,
    /// CSR column (edge target) array; length `num_edges`.
    col: Vec<u32>,
    /// Per-node indegree, accumulated during the fill pass.
    indegree: Vec<u32>,
    /// Wall time of the two-pass CSR build (count + prefix-sum + fill).
    build_wall: Duration,
}

impl AuditGraph {
    /// Total nodes (`2X + Y`).
    pub fn num_nodes(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Total edges.
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// Wall time the two-pass CSR build took (the harness surfaces this
    /// as the graph-build share of the "ProcOpRep" phase).
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// Kahn's algorithm over the flat CSR arrays: copies the
    /// precomputed indegrees into `indegree_scratch` (cleared and
    /// refilled — callers can reuse one allocation across graphs and
    /// queries), seeds a stack with the zero-indegree nodes, and visits
    /// nodes as their last incoming edge is retired. Returns true iff
    /// every node was visited, i.e. the graph is acyclic.
    fn kahn(&self, indegree_scratch: &mut Vec<u32>, mut visit: impl FnMut(u32)) -> bool {
        let n = self.num_nodes();
        indegree_scratch.clear();
        indegree_scratch.extend_from_slice(&self.indegree);
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&v| indegree_scratch[v as usize] == 0)
            .collect();
        let mut visited = 0usize;
        while let Some(cur) = stack.pop() {
            visited += 1;
            visit(cur);
            let row =
                self.row_start[cur as usize] as usize..self.row_start[cur as usize + 1] as usize;
            for &to in &self.col[row] {
                indegree_scratch[to as usize] -= 1;
                if indegree_scratch[to as usize] == 0 {
                    stack.push(to);
                }
            }
        }
        visited == n
    }

    /// True if the graph is acyclic (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_with(&mut Vec::new())
    }

    /// [`AuditGraph::is_acyclic`] with a caller-provided indegree
    /// scratch buffer, for repeated checks that reuse one allocation
    /// across iterations.
    pub fn is_acyclic_with(&self, indegree_scratch: &mut Vec<u32>) -> bool {
        self.kahn(indegree_scratch, |_| {})
    }

    /// A topological order of the nodes as `(rid, opnum)` pairs, if the
    /// graph is acyclic. Used by the out-of-order audit oracle (§A.4).
    pub fn topological_order(&self) -> Option<Vec<(RequestId, OpNum)>> {
        let mut order = Vec::with_capacity(self.num_nodes());
        if !self.kahn(&mut Vec::new(), |v| order.push(v)) {
            return None;
        }
        Some(order.into_iter().map(|v| self.label(v)).collect())
    }

    /// Iterates every edge as labeled `((rid, opnum), (rid, opnum))`
    /// pairs, in CSR row order. This is the oracle surface: the
    /// property suite compares it against the [`two_phase`] reference
    /// construction.
    pub fn edges(&self) -> impl Iterator<Item = ((RequestId, OpNum), (RequestId, OpNum))> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |from| {
            let row =
                self.row_start[from as usize] as usize..self.row_start[from as usize + 1] as usize;
            self.col[row]
                .iter()
                .map(move |&to| (self.label(from), self.label(to)))
        })
    }

    fn label(&self, node: u32) -> (RequestId, OpNum) {
        // Every request owns at least two nodes, so `base` is strictly
        // increasing and the owner is the last base at or below `node`.
        let idx = self.base.partition_point(|&b| b <= node) - 1;
        let slot = node - self.base[idx];
        let m = self.base[idx + 1] - self.base[idx] - 2;
        let opnum = if slot == m + 1 {
            OpNum::INFINITY
        } else {
            OpNum(slot)
        };
        (self.interner.rid(idx as u32), opnum)
    }
}

/// `ProcessOpReports` (Fig. 5): validates the logs against `M` and the
/// trace, constructs the OpMap, builds `G`, and checks acyclicity.
///
/// [`OpMap::build`] reads the reports, then
/// [`process_op_reports_interned`] checks them against the trace and
/// builds the graph.
///
/// # Examples
///
/// ```
/// use orochi_common::ids::RequestId;
/// use orochi_core::graph::process_op_reports;
/// use orochi_core::reports::Reports;
/// use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
///
/// // Two sequential requests that issued no state operations.
/// let (r1, r2) = (RequestId(1), RequestId(2));
/// let trace = Trace { events: vec![
///     Event::Request(r1, HttpRequest::get("/a", &[])),
///     Event::Response(r1, HttpResponse::ok(r1, "x")),
///     Event::Request(r2, HttpRequest::get("/b", &[])),
///     Event::Response(r2, HttpResponse::ok(r2, "y")),
/// ]};
/// let trace = trace.ensure_balanced().unwrap();
/// let reports = Reports {
///     op_counts: [(r1, 0), (r2, 0)].into_iter().collect(),
///     ..Reports::new()
/// };
/// let (graph, opmap) = process_op_reports(&trace, &reports).unwrap();
/// // Nodes: per request, arrival + departure. Edges: one program edge
/// // per request plus the split time edge (r1, ∞) -> (r2, 0).
/// assert_eq!(graph.num_nodes(), 4);
/// assert_eq!(graph.num_edges(), 3);
/// assert!(opmap.is_empty());
/// assert!(graph.is_acyclic());
/// ```
pub fn process_op_reports(
    trace: &BalancedTrace<'_>,
    reports: &Reports,
) -> Result<(AuditGraph, OpMap), GraphRejection> {
    let opmap = OpMap::build(reports);
    let graph = process_op_reports_interned(&trace.intern_rids(), reports, &opmap)?;
    Ok((graph, opmap))
}

/// The half of [`process_op_reports`] that needs the trace, over its
/// dense requestID interning and the [`OpMap`] built from `reports`.
///
/// The trace's only contribution to `ProcessOpReports` is that interning
/// (arrival order + the dense event stream the frontier pass replays),
/// so any validator that produced an interner — in particular the audit
/// engine's incremental balance scan, which never materializes the
/// trace — runs the *same* code the batch path runs. Verdicts and
/// diagnostics are identical by construction.
pub fn process_op_reports_interned(
    interner: &Arc<RidInterner>,
    reports: &Reports,
    opmap: &OpMap,
) -> Result<AuditGraph, GraphRejection> {
    // Reject aliased logs up front: one log per object name. Walking in
    // log order keeps the reported name — the first duplicate
    // encountered — identical to [`two_phase`]'s.
    {
        let mut seen = HashSet::new();
        for (_, name, _) in reports.op_logs.iter() {
            if !seen.insert(name.as_str()) {
                return Err(GraphRejection::DuplicateObjectName {
                    name: name.as_str().to_string(),
                });
            }
        }
    }

    // CheckLogs against the trace: each request the logs name is resolved
    // through the interner once, and each log entry reads its request's
    // dense index through the row the OpMap noted, into flat per-log
    // index arrays the edge passes reuse. An unknown request or the
    // OpMap's own defect, whichever comes first in log order, is what a
    // straight Fig. 5 walk finds first.
    let x = interner.num_requests();
    let mut row_dense = vec![UNSET; opmap.num_rows()];
    let mut dense_row = vec![UNSET; x];
    for (&rid, &row) in &opmap.rows {
        if let Some(idx) = interner.index_of(rid) {
            row_dense[row as usize] = idx;
            dense_row[idx as usize] = row;
        }
    }
    let mut resolved: Vec<Vec<u32>> = Vec::with_capacity(reports.op_logs.len());
    let mut entry_rows = opmap.entry_rows.iter().enumerate();
    for (_, _, log) in reports.op_logs.iter() {
        let mut dense = Vec::with_capacity(log.len());
        for ((rid, _), (pos, &row)) in log.heads().zip(&mut entry_rows) {
            let idx = row_dense[row as usize];
            if idx == UNSET {
                return Err(GraphRejection::LogEntryUnknownRequest { rid });
            }
            if let Some(defect) = opmap.defect_at(pos) {
                return Err(defect.clone());
            }
            dense.push(idx);
        }
        resolved.push(dense);
    }
    // Every operation M promises a trace request must be logged, checked
    // in arrival order; the node-id bases follow. A request the logs name
    // reads `M` from its row; only one they do not name looks it up.
    // Once nothing is missing, each request's `M` is at most its entry
    // count.
    let mut base: Vec<u32> = Vec::with_capacity(x + 1);
    let mut node_acc = 0u32;
    for (&rid, &row) in interner.rids().iter().zip(&dense_row) {
        let row = (row != UNSET).then_some(row);
        let m = row.map_or_else(|| reports.op_count(rid), |row| opmap.counts[row as usize]);
        if let Some(k) = opmap.first_missing(row, m) {
            return Err(GraphRejection::MissingOperation {
                rid,
                opnum: OpNum(k),
            });
        }
        base.push(node_acc);
        node_acc += m + 2;
    }
    base.push(node_acc);
    // ---- Everything below is index arithmetic: zero hashing. --------

    // Same-request log adjacency must be in increasing opnum order
    // (different-request adjacency becomes a log-order edge below).
    for ((_, _, log), dense) in reports.op_logs.iter().zip(&resolved) {
        for (k, (prev, curr)) in adjacent(log).enumerate() {
            if dense[k] == dense[k + 1] && prev >= curr {
                let (rid, _) = log.heads().nth(k + 1).expect("an adjacent pair");
                return Err(GraphRejection::LogOrderViolation { rid });
            }
        }
    }

    // Two-pass CSR build over one edge stream. `each_edge` replays the
    // three Fig. 5 edge sources in a fixed order — Fig. 6 frontier
    // (split) edges streamed straight from the interner, program edges,
    // log-order edges — first counting out-degrees, then filling the
    // column array (and the indegrees Kahn's check will consume).
    let t_build = Instant::now();
    let num_nodes = node_acc as usize;
    let each_edge = |emit: &mut dyn FnMut(u32, u32)| {
        // SplitNodes: time-precedence edges (r1, ∞) -> (r2, 0).
        for_each_frontier_edge(interner, |from, to| {
            emit(base[from as usize + 1] - 1, base[to as usize]);
        });
        // AddProgramEdges: (rid, k-1) -> (rid, k), …, (rid, M) -> (rid, ∞)
        // — each node in the request's range points at its successor.
        for idx in 0..x {
            for node in base[idx]..base[idx + 1] - 1 {
                emit(node, node + 1);
            }
        }
        // AddStateEdges: adjacent log entries of different requests.
        for ((_, _, log), dense) in reports.op_logs.iter().zip(&resolved) {
            for (k, (prev, curr)) in adjacent(log).enumerate() {
                if dense[k] != dense[k + 1] {
                    emit(
                        base[dense[k] as usize] + prev.0,
                        base[dense[k + 1] as usize] + curr.0,
                    );
                }
            }
        }
    };
    let mut row_start = vec![0u32; num_nodes + 1];
    each_edge(&mut |from, _| row_start[from as usize + 1] += 1);
    for v in 0..num_nodes {
        row_start[v + 1] += row_start[v];
    }
    let mut cursor: Vec<u32> = row_start[..num_nodes].to_vec();
    let mut col = vec![0u32; row_start[num_nodes] as usize];
    let mut indegree = vec![0u32; num_nodes];
    each_edge(&mut |from, to| {
        let c = &mut cursor[from as usize];
        col[*c as usize] = to;
        *c += 1;
        indegree[to as usize] += 1;
    });
    let graph = AuditGraph {
        interner: Arc::clone(interner),
        base,
        row_start,
        col,
        indegree,
        build_wall: t_build.elapsed(),
    };

    // CycleDetect.
    if !graph.is_acyclic() {
        return Err(GraphRejection::CycleDetected);
    }
    Ok(graph)
}

/// The opnums of each pair of adjacent entries of `log`, in log order.
fn adjacent(log: &OpLog) -> impl Iterator<Item = (OpNum, OpNum)> + '_ {
    log.opnums().zip(log.opnums().skip(1))
}

pub mod two_phase {
    //! The pre-CSR construction, preserved as an oracle.
    //!
    //! This is the shape the streamed builder replaced: materialize the
    //! Fig. 6 edge list as `(RequestId, RequestId)` pairs, re-hash every
    //! endpoint through a `rid -> index` map, buffer adjacency as
    //! `Vec<Vec<u32>>`, build the OpMap as a `HashMap`, and recount
    //! indegrees with an O(E) sweep before Kahn's check. It is kept —
    //! not called by the audit — because the property suite runs both
    //! on fuzzed traces/reports and demands the same verdict, the same
    //! diagnostic, and the same edge multiset.

    use super::GraphRejection;
    use crate::precedence::create_time_precedence_graph;
    use crate::reports::Reports;
    use orochi_common::ids::{OpNum, RequestId, SeqNum};
    use orochi_trace::record::BalancedTrace;
    use std::collections::HashMap;

    /// The audit graph in its pre-CSR form: `Vec<Vec<u32>>` adjacency
    /// over the same node numbering as [`super::AuditGraph`].
    #[derive(Debug)]
    pub struct ReferenceGraph {
        rids: Vec<RequestId>,
        rid_index: HashMap<RequestId, usize>,
        base: Vec<u32>,
        op_counts: Vec<u32>,
        adj: Vec<Vec<u32>>,
        edge_count: usize,
    }

    impl ReferenceGraph {
        fn new(trace: &BalancedTrace<'_>, reports: &Reports) -> Self {
            let rids: Vec<RequestId> = trace.request_ids().collect();
            let rid_index: HashMap<RequestId, usize> =
                rids.iter().enumerate().map(|(i, r)| (*r, i)).collect();
            let op_counts: Vec<u32> = rids.iter().map(|r| reports.op_count(*r)).collect();
            let mut base = Vec::with_capacity(rids.len() + 1);
            let mut acc: u32 = 0;
            for m in &op_counts {
                base.push(acc);
                acc += m + 2;
            }
            base.push(acc);
            ReferenceGraph {
                rids,
                rid_index,
                base,
                op_counts,
                adj: vec![Vec::new(); acc as usize],
                edge_count: 0,
            }
        }

        /// Total nodes (`2X + Y`).
        pub fn num_nodes(&self) -> usize {
            self.adj.len()
        }

        /// Total edges.
        pub fn num_edges(&self) -> usize {
            self.edge_count
        }

        fn node(&self, rid: RequestId, opnum: OpNum) -> u32 {
            let idx = self.rid_index[&rid];
            let m = self.op_counts[idx];
            let slot = if opnum.is_infinity() { m + 1 } else { opnum.0 };
            self.base[idx] + slot
        }

        fn add_edge(&mut self, from: u32, to: u32) {
            self.adj[from as usize].push(to);
            self.edge_count += 1;
        }

        /// Kahn's algorithm with the O(E) indegree recount the CSR
        /// builder eliminated.
        pub fn is_acyclic(&self) -> bool {
            let n = self.adj.len();
            let mut indegree = vec![0u32; n];
            for outs in &self.adj {
                for &to in outs {
                    indegree[to as usize] += 1;
                }
            }
            let mut stack: Vec<u32> = (0..n as u32)
                .filter(|&i| indegree[i as usize] == 0)
                .collect();
            let mut visited = 0usize;
            while let Some(cur) = stack.pop() {
                visited += 1;
                for &to in &self.adj[cur as usize] {
                    indegree[to as usize] -= 1;
                    if indegree[to as usize] == 0 {
                        stack.push(to);
                    }
                }
            }
            visited == n
        }

        /// Every edge as labeled `((rid, opnum), (rid, opnum))` pairs,
        /// for multiset comparison against [`super::AuditGraph::edges`].
        pub fn edges(&self) -> Vec<((RequestId, OpNum), (RequestId, OpNum))> {
            let mut out = Vec::with_capacity(self.edge_count);
            for (from, outs) in self.adj.iter().enumerate() {
                for &to in outs {
                    out.push((self.label(from as u32), self.label(to)));
                }
            }
            out
        }

        fn label(&self, node: u32) -> (RequestId, OpNum) {
            let idx = self.base.partition_point(|&b| b <= node) - 1;
            let slot = node - self.base[idx];
            let m = self.op_counts[idx];
            let opnum = if slot == m + 1 {
                OpNum::INFINITY
            } else {
                OpNum(slot)
            };
            (self.rids[idx], opnum)
        }
    }

    /// The original two-phase `ProcessOpReports`: identical verdicts
    /// and diagnostics to [`super::process_op_reports`], produced the
    /// pre-CSR way.
    pub fn process_op_reports(
        trace: &BalancedTrace<'_>,
        reports: &Reports,
    ) -> Result<(ReferenceGraph, usize), GraphRejection> {
        {
            let mut seen = std::collections::HashSet::new();
            for (_, name, _) in reports.op_logs.iter() {
                if !seen.insert(name.as_str()) {
                    return Err(GraphRejection::DuplicateObjectName {
                        name: name.as_str().to_string(),
                    });
                }
            }
        }

        let mut graph = ReferenceGraph::new(trace, reports);

        // SplitNodes: materialize the Fig. 6 edge list, then re-hash
        // every endpoint through `node()`.
        let gtr = create_time_precedence_graph(trace);
        for (r1, r2) in &gtr.edges {
            let from = graph.node(*r1, OpNum::INFINITY);
            let to = graph.node(*r2, OpNum(0));
            graph.add_edge(from, to);
        }

        // AddProgramEdges.
        for (idx, rid) in graph.rids.clone().into_iter().enumerate() {
            let m = graph.op_counts[idx];
            for opnum in 1..=m {
                let from = graph.node(rid, OpNum(opnum - 1));
                let to = graph.node(rid, OpNum(opnum));
                graph.add_edge(from, to);
            }
            let from = graph.node(rid, OpNum(m));
            let to = graph.node(rid, OpNum::INFINITY);
            graph.add_edge(from, to);
        }

        // CheckLogs with the OpMap as a HashMap.
        let mut opmap: HashMap<(RequestId, OpNum), (usize, SeqNum)> = HashMap::new();
        for (i, _, log) in reports.op_logs.iter() {
            for (seq, entry) in log.iter() {
                if !trace.contains(entry.rid) {
                    return Err(GraphRejection::LogEntryUnknownRequest { rid: entry.rid });
                }
                let m = reports.op_count(entry.rid);
                if entry.opnum.0 == 0 || entry.opnum.is_infinity() || entry.opnum.0 > m {
                    return Err(GraphRejection::LogEntryBadOpnum {
                        rid: entry.rid,
                        opnum: entry.opnum,
                    });
                }
                if opmap.insert((entry.rid, entry.opnum), (i, seq)).is_some() {
                    return Err(GraphRejection::DuplicateOperation {
                        rid: entry.rid,
                        opnum: entry.opnum,
                    });
                }
            }
        }
        for (idx, rid) in graph.rids.iter().enumerate() {
            let m = graph.op_counts[idx];
            for opnum in 1..=m {
                if !opmap.contains_key(&(*rid, OpNum(opnum))) {
                    return Err(GraphRejection::MissingOperation {
                        rid: *rid,
                        opnum: OpNum(opnum),
                    });
                }
            }
        }

        // AddStateEdges.
        for (_, _, log) in reports.op_logs.iter() {
            for ((prev_rid, prev_op), (rid, opnum)) in log.heads().zip(log.heads().skip(1)) {
                if prev_rid != rid {
                    let from = graph.node(prev_rid, prev_op);
                    let to = graph.node(rid, opnum);
                    graph.add_edge(from, to);
                } else if prev_op >= opnum {
                    return Err(GraphRejection::LogOrderViolation { rid });
                }
            }
        }

        // CycleDetect.
        if !graph.is_acyclic() {
            return Err(GraphRejection::CycleDetected);
        }
        let len = opmap.len();
        Ok((graph, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_common::ids::CtlFlowTag;
    use orochi_state::object::{ObjectName, OpContents};
    use orochi_state::oplog::{OpLog, OpLogEntry, OpLogs};
    use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

    fn req(rid: u64) -> Event {
        Event::Request(RequestId(rid), HttpRequest::get("/x", &[]))
    }

    fn resp(rid: u64) -> Event {
        Event::Response(RequestId(rid), HttpResponse::ok(RequestId(rid), "ok"))
    }

    fn entry(rid: u64, opnum: u32, contents: OpContents) -> OpLogEntry {
        OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(opnum),
            contents,
        }
    }

    fn write(rid: u64, opnum: u32) -> OpLogEntry {
        entry(
            rid,
            opnum,
            OpContents::RegisterWrite {
                value: vec![1].into(),
            },
        )
    }

    fn read(rid: u64, opnum: u32) -> OpLogEntry {
        entry(rid, opnum, OpContents::RegisterRead)
    }

    fn reports_with(logs: Vec<(ObjectName, Vec<OpLogEntry>)>, counts: &[(u64, u32)]) -> Reports {
        Reports {
            groupings: vec![(
                CtlFlowTag(1),
                counts.iter().map(|(r, _)| RequestId(*r)).collect(),
            )],
            op_logs: OpLogs::from_pairs(
                logs.into_iter()
                    .map(|(n, es)| (n, OpLog::from_entries(es)))
                    .collect(),
            ),
            op_counts: counts.iter().map(|(r, m)| (RequestId(*r), *m)).collect(),
            nondet: Default::default(),
        }
    }

    /// The Fig. 4 example programs f and g touch registers A and B. The
    /// three scenarios differ in trace timing, responses, and logs; here
    /// we check only the graph layer (full audit-level versions live in
    /// the integration tests).
    #[test]
    fn figure4_example_a_graph_is_cyclic_free_but_detected_by_time_edges() {
        // Example a: r1 completes before r2 arrives, yet the logs put
        // r2's operations before r1's. Log order says r2's write to B
        // precedes r1's read of B... combined with time edges
        // (r1, ∞) -> (r2, 0) this forms a cycle.
        let trace = Trace {
            events: vec![req(1), resp(1), req(2), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        // f (r1): write A (op1), read B (op2). g (r2): write B (op1),
        // read A (op2).
        // Logs claim r2's ops interleave before r1's — e.g., OL_A:
        // [r2 read A, r1 write A]; OL_B: [r2 write B, r1 read B].
        let reports = reports_with(
            vec![
                (
                    ObjectName(String::from("reg:A")),
                    vec![read(2, 2), write(1, 1)],
                ),
                (
                    ObjectName(String::from("reg:B")),
                    vec![write(2, 1), read(1, 2)],
                ),
            ],
            &[(1, 2), (2, 2)],
        );
        let err = process_op_reports(&trace, &reports).unwrap_err();
        assert_eq!(err, GraphRejection::CycleDetected);
    }

    #[test]
    fn figure4_example_b_cycle_from_logs_alone() {
        // Example b: r1 and r2 concurrent; the delivered (0,0) responses
        // require each read to precede the other's write — the log edges
        // plus program edges form a cycle.
        let trace = Trace {
            events: vec![req(1), req(2), resp(1), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![
                (
                    ObjectName(String::from("reg:A")),
                    vec![read(2, 2), write(1, 1)],
                ),
                (
                    ObjectName(String::from("reg:B")),
                    vec![read(1, 2), write(2, 1)],
                ),
            ],
            &[(1, 2), (2, 2)],
        );
        let err = process_op_reports(&trace, &reports).unwrap_err();
        assert_eq!(err, GraphRejection::CycleDetected);
    }

    #[test]
    fn figure4_example_c_accepted() {
        // Example c: both writes before both reads — consistent.
        let trace = Trace {
            events: vec![req(1), req(2), resp(1), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![
                (
                    ObjectName(String::from("reg:A")),
                    vec![write(1, 1), read(2, 2)],
                ),
                (
                    ObjectName(String::from("reg:B")),
                    vec![write(2, 1), read(1, 2)],
                ),
            ],
            &[(1, 2), (2, 2)],
        );
        let (graph, opmap) = process_op_reports(&trace, &reports).unwrap();
        assert_eq!(opmap.len(), 4);
        // Nodes: 2 requests × (2 ops + 2 endpoints).
        assert_eq!(graph.num_nodes(), 8);
        assert!(graph.topological_order().is_some());
    }

    #[test]
    fn streamed_csr_matches_two_phase_reference() {
        // Same trace/reports through both constructions: identical
        // node count and edge multiset.
        let trace = Trace {
            events: vec![req(1), req(2), resp(1), resp(2), req(3), resp(3)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![
                (
                    ObjectName(String::from("reg:A")),
                    vec![write(1, 1), read(2, 2), read(3, 1)],
                ),
                (
                    ObjectName(String::from("reg:B")),
                    vec![write(2, 1), read(1, 2)],
                ),
            ],
            &[(1, 2), (2, 2), (3, 1)],
        );
        let (graph, opmap) = process_op_reports(&trace, &reports).unwrap();
        let (reference, ref_opmap_len) = two_phase::process_op_reports(&trace, &reports).unwrap();
        assert_eq!(graph.num_nodes(), reference.num_nodes());
        assert_eq!(graph.num_edges(), reference.num_edges());
        assert_eq!(opmap.len(), ref_opmap_len);
        let mut csr_edges: Vec<_> = graph.edges().collect();
        let mut ref_edges = reference.edges();
        csr_edges.sort();
        ref_edges.sort();
        assert_eq!(csr_edges, ref_edges);
    }

    #[test]
    fn opmap_dense_lookup_matches_rid_lookup() {
        let trace = Trace {
            events: vec![req(1), req(2), resp(1), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(
                ObjectName(String::from("reg:A")),
                vec![write(1, 1), read(2, 1)],
            )],
            &[(1, 1), (2, 1)],
        );
        let (_, opmap) = process_op_reports(&trace, &reports).unwrap();
        for rid in [RequestId(1), RequestId(2)] {
            let row = opmap.row(rid).unwrap();
            assert_eq!(opmap.get(rid, OpNum(1)), opmap.get_dense(row, OpNum(1)));
            assert!(opmap.get(rid, OpNum(1)).is_some());
            // Out-of-range opnums and the sentinels miss cleanly.
            assert_eq!(opmap.get(rid, OpNum(0)), None);
            assert_eq!(opmap.get(rid, OpNum(2)), None);
            assert_eq!(opmap.get(rid, OpNum::INFINITY), None);
        }
        assert_eq!(opmap.get(RequestId(99), OpNum(1)), None);
    }

    #[test]
    fn rejects_unknown_request_in_log() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(ObjectName(String::from("reg:A")), vec![write(99, 1)])],
            &[(1, 0)],
        );
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::LogEntryUnknownRequest { .. }
        ));
    }

    #[test]
    fn rejects_opnum_beyond_m() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(ObjectName(String::from("reg:A")), vec![write(1, 3)])],
            &[(1, 2)],
        );
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::LogEntryBadOpnum { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_operation() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(
                ObjectName(String::from("reg:A")),
                vec![write(1, 1), write(1, 1)],
            )],
            &[(1, 1)],
        );
        // The same (rid, opnum) in two log slots — caught either as a
        // duplicate or as a log-order violation depending on adjacency;
        // here it is a duplicate in CheckLogs.
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::DuplicateOperation { .. }
        ));
    }

    #[test]
    fn rejects_missing_promised_operation() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(ObjectName(String::from("reg:A")), vec![write(1, 1)])],
            &[(1, 2)],
        );
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::MissingOperation { .. }
        ));
    }

    #[test]
    fn rejects_same_request_out_of_order_in_log() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(
                ObjectName(String::from("reg:A")),
                vec![write(1, 2), write(1, 1)],
            )],
            &[(1, 2)],
        );
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::LogOrderViolation { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_object_names() {
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![
                (ObjectName(String::from("reg:A")), vec![]),
                (ObjectName(String::from("reg:A")), vec![]),
            ],
            &[(1, 0)],
        );
        assert!(matches!(
            process_op_reports(&trace, &reports).unwrap_err(),
            GraphRejection::DuplicateObjectName { .. }
        ));
    }

    #[test]
    fn duplicate_name_diagnostic_is_first_in_log_order() {
        // Two duplicated names: the reported one must be the first
        // duplicate *encountered in log order* (here "reg:z", even
        // though "reg:a" sorts first) — and identical across the
        // streamed and two-phase constructions.
        let trace = Trace {
            events: vec![req(1), resp(1)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![
                (ObjectName(String::from("reg:z")), vec![]),
                (ObjectName(String::from("reg:z")), vec![]),
                (ObjectName(String::from("reg:a")), vec![]),
                (ObjectName(String::from("reg:a")), vec![]),
            ],
            &[(1, 0)],
        );
        let expected = GraphRejection::DuplicateObjectName {
            name: String::from("reg:z"),
        };
        assert_eq!(process_op_reports(&trace, &reports).unwrap_err(), expected);
        assert_eq!(
            two_phase::process_op_reports(&trace, &reports).unwrap_err(),
            expected
        );
    }

    #[test]
    fn accepts_empty_reports_for_oplesss_trace() {
        let trace = Trace {
            events: vec![req(1), resp(1), req(2), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(vec![], &[(1, 0), (2, 0)]);
        let (graph, opmap) = process_op_reports(&trace, &reports).unwrap();
        assert!(opmap.is_empty());
        assert_eq!(graph.num_nodes(), 4);
        let order = graph.topological_order().unwrap();
        // (r1, ∞) must come before (r2, 0) in any topological order.
        let pos_r1_inf = order
            .iter()
            .position(|(r, o)| *r == RequestId(1) && o.is_infinity())
            .unwrap();
        let pos_r2_0 = order
            .iter()
            .position(|(r, o)| *r == RequestId(2) && *o == OpNum(0))
            .unwrap();
        assert!(pos_r1_inf < pos_r2_0);
    }

    #[test]
    fn topological_order_respects_log_edges() {
        let trace = Trace {
            events: vec![req(1), req(2), resp(1), resp(2)],
        };
        let trace = trace.ensure_balanced().unwrap();
        let reports = reports_with(
            vec![(
                ObjectName(String::from("reg:A")),
                vec![write(1, 1), read(2, 1)],
            )],
            &[(1, 1), (2, 1)],
        );
        let (graph, _) = process_op_reports(&trace, &reports).unwrap();
        let order = graph.topological_order().unwrap();
        let pos = |rid: u64, op: OpNum| {
            order
                .iter()
                .position(|(r, o)| *r == RequestId(rid) && *o == op)
                .unwrap()
        };
        assert!(pos(1, OpNum(1)) < pos(2, OpNum(1)));
        assert!(pos(1, OpNum(0)) < pos(1, OpNum(1)));
        assert!(pos(2, OpNum(1)) < pos(2, OpNum::INFINITY));
    }
}
