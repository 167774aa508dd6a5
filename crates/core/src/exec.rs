//! The interface between the audit driver and the re-execution engine.
//!
//! SSCO's re-execution is grouped (SIMD-on-demand, §3.1), but the audit
//! algorithm itself is agnostic to *how* a group executes: it only
//! requires that the executor report, per request, every state operation
//! in program order (which the [`crate::audit::AuditContext`] checks and
//! simulates) and whether the produced output equals the traced one.
//! The driver calls [`GroupExecutor::check_group`] and nothing else; its
//! provided body builds every response with
//! [`GroupExecutor::execute_group`] and compares afterwards, so an
//! executor that can compare as it runs — `orochi-accphp`'s, which never
//! builds a page per lane — overrides it. Tests use small hand-written
//! executors that implement `execute_group` alone.

use crate::audit::{AuditContext, Rejection};
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use orochi_sqldb::ExecOutcome;
use orochi_trace::{HttpRequest, HttpResponse, ResponseRef};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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

/// What the audit knows of one request's output (Fig. 12 line 55).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputCheck {
    /// No output was produced for it (yet).
    #[default]
    None,
    /// The produced response equals the traced one.
    Match,
    /// The produced response differs from the traced one.
    Mismatch,
}

impl OutputCheck {
    /// [`OutputCheck::Match`] or [`OutputCheck::Mismatch`].
    pub fn of(matched: bool) -> Self {
        if matched {
            OutputCheck::Match
        } else {
            OutputCheck::Mismatch
        }
    }
}

/// A re-execution engine for one control-flow group.
///
/// Contract: for each request, issue its state operations **in program
/// order** through the context (`register_read`, `kv_set`, `db_begin`,
/// ...), consume nondeterminism via [`AuditContext::nondet`], and
/// produce a response for every request in the group. The audit driver
/// calls [`Self::check_group`], which judges each response against the
/// trace; the driver itself verifies operation counts and picks the
/// verdict. The group's claimed control-flow tag is advice: a run that
/// recomputes its tag checks it with [`AuditContext::check_tag`], and a
/// misgrouped request is [`Rejection::Divergence`].
pub trait GroupExecutor {
    /// Re-executes one group of requests that allegedly share a control
    /// flow and returns the response of each.
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection>;

    /// Re-executes one group and checks its outputs: one
    /// [`OutputCheck`] per member of `requests`, in order, judged
    /// against `expected` (the traced responses, same order). The
    /// default runs [`Self::execute_group`], then the protocol checks
    /// (an output for a request outside the group, or two for one
    /// request, is [`Rejection::ExecutorProtocol`]) and the comparison;
    /// the comparison's time goes to `AuditStats::output_wall`. An
    /// override must return exactly what the default would.
    fn check_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        expected: &[ResponseRef<'_>],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<OutputCheck>, Rejection> {
        let outputs = self.execute_group(requests, ctx)?;
        let t0 = Instant::now();
        let checked = check_outputs(requests, expected, &outputs);
        ctx.record_output_wall(t0.elapsed());
        checked
    }
}

/// Judges `outputs`, as [`GroupExecutor::execute_group`] returned them,
/// against the traced responses of `requests`.
fn check_outputs(
    requests: &[(RequestId, HttpRequest)],
    expected: &[ResponseRef<'_>],
    outputs: &[(RequestId, HttpResponse)],
) -> Result<Vec<OutputCheck>, Rejection> {
    let position: HashMap<RequestId, usize> = requests
        .iter()
        .enumerate()
        .map(|(p, (rid, _))| (*rid, p))
        .collect();
    let mut checked = vec![OutputCheck::None; requests.len()];
    for (rid, output) in outputs {
        let Some(&p) = position.get(rid) else {
            return Err(Rejection::ExecutorProtocol(format!(
                "output for {rid} not in its group"
            )));
        };
        if checked[p] != OutputCheck::None {
            return Err(Rejection::ExecutorProtocol(format!(
                "duplicate output for {rid}"
            )));
        }
        checked[p] = OutputCheck::of(expected[p] == *output);
    }
    Ok(checked)
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
