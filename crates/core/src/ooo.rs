//! The out-of-order audit variant (`OOOAudit`, Fig. 13 / §A.4).
//!
//! The appendix proves SSCO correct by relating the grouped audit to an
//! *out-of-order* audit that executes requests individually, following an
//! op schedule that is a topological sort of the event graph `G`. Lemma 5
//! shows the audit is indifferent to the schedule: because every request
//! re-executes in isolation (reads are fed from the logs, never from
//! shared state), any program-order-respecting schedule yields the same
//! verdict.
//!
//! We exploit exactly that property to implement the variant cheaply: the
//! ungrouped audit presents each request as its own group of one, ordered
//! by a topological sort of `G`. The test suite uses it as a differential
//! oracle against the grouped audit ([`crate::audit::audit`]): the two
//! must always agree.
//!
//! The topological sort comes from [`crate::graph::AuditGraph`]'s flat
//! CSR arrays (Kahn's algorithm over the precomputed indegrees). Since
//! the graph layer's edge stream is deterministic — the Fig. 6 frontier
//! is an index-ordered set, and node numbering follows the trace's
//! arrival order — the op schedule, and therefore this oracle's request
//! order, is identical run to run.

use crate::audit::{audit, AuditConfig, AuditOutcome, Rejection};
use crate::exec::GroupExecutor;
use crate::graph::process_op_reports;
use crate::reports::Reports;
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId};
use orochi_trace::record::Trace;
use std::collections::HashMap;

/// Runs the audit with per-request "groups" ordered by a topological
/// sort of the event graph (the op schedule `S'` of §A.5).
///
/// Accepts/rejects identically to the grouped audit (Lemmas 5 and 8),
/// but performs no deduplication — it is the semantics oracle, not the
/// fast path.
pub fn ooo_audit(
    trace: &Trace,
    reports: &Reports,
    executor: &mut dyn GroupExecutor,
    config: &AuditConfig,
) -> Result<AuditOutcome, Rejection> {
    let balanced = trace.ensure_balanced().map_err(Rejection::Unbalanced)?;
    // Build the graph once to obtain a valid op schedule; the audit call
    // below rebuilds it (this variant is an oracle, not a fast path).
    let (graph, _) = process_op_reports(&balanced, reports)?;
    let order = graph
        .topological_order()
        .expect("process_op_reports verified acyclicity");
    // Collapse the op schedule to a request schedule: a request is
    // "scheduled" at its first appearance, i.e. its (rid, 0) node.
    let mut request_order: Vec<RequestId> = Vec::new();
    for (rid, opnum) in order {
        if opnum == OpNum(0) {
            request_order.push(rid);
        }
    }
    // A grouping member the trace never contained follows the schedule,
    // so the audit rejects it as it rejects the grouped run.
    let members = reports.groupings.iter().flat_map(|(_, rids)| rids);
    request_order.extend(members.filter(|rid| !balanced.contains(**rid)));
    // Per-request groups, preserving the schedule, each under the tag of
    // the first group naming it: every run checks its tag. A request no
    // group names stays unnamed, as in the grouped audit.
    // Collected last, the first group naming a request wins.
    let groupings = reports.groupings.iter().rev();
    let named = groupings.flat_map(|(tag, rids)| rids.iter().map(move |rid| (*rid, *tag)));
    let tags: HashMap<RequestId, CtlFlowTag> = named.collect();
    let mut reports_ungrouped = reports.clone();
    reports_ungrouped.groupings = request_order
        .into_iter()
        .filter_map(|rid| Some((*tags.get(&rid)?, vec![rid])))
        .collect();
    audit(trace, &reports_ungrouped, executor, config)
}
