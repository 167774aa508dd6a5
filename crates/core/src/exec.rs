//! The interface between the audit driver and the re-execution engine.
//!
//! SSCO's re-execution is grouped (SIMD-on-demand, §3.1), but the audit
//! algorithm itself is agnostic to *how* a group executes: it only
//! requires that the executor report, per request, every state operation
//! in program order (which the [`crate::audit::AuditContext`] checks and
//! simulates) and the produced output. `orochi-accphp` provides the real
//! PHP group executor; tests use small hand-written executors.

use crate::audit::{AuditContext, Rejection};
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use orochi_sqldb::ExecOutcome;
use orochi_trace::{HttpRequest, HttpResponse};
use std::sync::Arc;

/// Result of one database query during re-execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DbQueryResult {
    /// The query executed; SELECTs carry rows, writes carry the verified
    /// write outcome. The handle is shared: a SELECT answered from the
    /// dedup cache is the cache's own entry, so two results are the same
    /// object exactly when they were one query at one table version —
    /// an executor may key work on the pointer while it holds the handle.
    Ok(Arc<ExecOutcome>),
    /// The query failed online (final statement of an aborted
    /// transaction); the program observes the failure, as it did online.
    Failed,
}

/// Handle for an in-progress database transaction during re-execution.
///
/// Produced by [`AuditContext::db_begin`]; queries are checked one at a
/// time (§A.7: "instead of checking the entire transaction at once, these
/// functions check the individual queries within the transaction"),
/// interleaved with program execution.
#[derive(Debug)]
pub struct DbTxnHandle {
    pub(crate) rid: RequestId,
    pub(crate) opnum: OpNum,
    pub(crate) obj_index: usize,
    pub(crate) seq: SeqNum,
    pub(crate) queries_done: u64,
    pub(crate) total_queries: u64,
    pub(crate) logged_succeeded: bool,
    /// Set once a query observed failure: later queries return
    /// [`DbQueryResult::Failed`] without consulting the log, mirroring
    /// the online backend (which does not log past the failure point).
    pub(crate) failed: bool,
}

impl DbTxnHandle {
    /// The request owning this transaction.
    pub fn rid(&self) -> RequestId {
        self.rid
    }

    /// Queries checked so far.
    pub fn queries_done(&self) -> u64 {
        self.queries_done
    }
}

/// A re-execution engine for one control-flow group.
///
/// Contract: for each request, issue its state operations **in program
/// order** through the context (`register_read`, `kv_set`, `db_begin`,
/// ...), consume nondeterminism via [`AuditContext::nondet`], and return
/// the produced response for every request in the group. The audit driver
/// itself verifies operation counts and compares outputs against the
/// trace; a misgrouped request manifests as divergence (return
/// [`Rejection::Divergence`]) or as an output mismatch.
pub trait GroupExecutor {
    /// Re-executes one group of requests that allegedly share a control
    /// flow.
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection>;
}

/// Adapter turning a closure into a [`GroupExecutor`]; used by tests and
/// by small model programs.
///
/// # Examples
///
/// ```
/// use orochi_core::exec::FnExecutor;
///
/// let mut exec = FnExecutor::new(|requests, _ctx| {
///     Ok(requests
///         .iter()
///         .map(|(rid, _req)| (*rid, orochi_trace::HttpResponse::ok(*rid, "hi")))
///         .collect())
/// });
/// let _ = &mut exec; // Implements GroupExecutor.
/// ```
pub struct FnExecutor<F>(F);

impl<F> FnExecutor<F>
where
    F: FnMut(
        &[(RequestId, HttpRequest)],
        &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection>,
{
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnExecutor(f)
    }
}

impl<F> GroupExecutor for FnExecutor<F>
where
    F: FnMut(
        &[(RequestId, HttpRequest)],
        &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection>,
{
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
        (self.0)(requests, ctx)
    }
}
