//! The verifier's group executor: grouped SIMD-on-demand re-execution
//! with a scalar per-request fallback.
//!
//! Grouped execution is purely an accelerator: every correctness check
//! (`CheckOp`, op counts, output comparison) is enforced per request by
//! the [`AuditContext`]. When a group diverges — hostile grouping, or a
//! per-lane error the superposed execution cannot express — the executor
//! resets the affected requests and re-executes each one on the scalar
//! VM through a checking backend, mirroring acc-PHP's "re-executing the
//! requests separately in sequence" escape hatch (§4.3). This is
//! strictly more complete than Fig. 12's REJECT-on-divergence and
//! equally sound.
//!
//! The executor also collects the per-group `(n_c, α_c, ℓ_c)` triples of
//! Fig. 11 (group size, univalent-instruction proportion, instruction
//! count).

use crate::groupvm::{self, db_result, rows_to_value, GroupRunError};
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::{DbTxnHandle, GroupExecutor};
use orochi_core::nondet::NondetValue;
use orochi_php::backend::{BackendError, DbResult, NondetProvider, RuntimeBackend, StateBackend};
use orochi_php::bytecode::CompiledScript;
use orochi_php::vm::{not_found_output, run_request, RequestInput, RequestOutput, RunResult};
use orochi_state::object::ObjectName;
use orochi_trace::{HttpRequest, HttpResponse};
use std::collections::HashMap;
use std::sync::Arc;

/// The PHP engine the executor re-executes requests on. There is one,
/// the register VM; the type and [`AccPhpExecutor::engine`] stay only
/// because the standalone `benchmark/` crate still sets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmEngine {
    /// Fixed-width 32-bit register bytecode.
    #[default]
    Register,
}

/// Maximum group size per superposed execution: OROCHI caps groups at
/// 3,000 to avoid thrashing (§4.7); larger groups split into chunks.
const MAX_GROUP: usize = 3000;

/// The runtime's borrowed view of a traced request.
pub fn request_input(req: &HttpRequest) -> RequestInput<'_> {
    RequestInput {
        method: &req.method,
        path: &req.path,
        get: &req.query,
        post: &req.post,
        cookies: &req.cookies,
    }
}

/// Per-group statistics: the Fig. 11 bubble for one group.
#[derive(Debug, Clone, Copy)]
pub struct GroupStat {
    /// `n_c`: requests in the group.
    pub n: usize,
    /// Instructions that executed once for the whole group.
    pub univalent: u64,
    /// Instructions that executed per lane.
    pub multivalent: u64,
}

impl GroupStat {
    /// `α_c`: the proportion of univalent instructions.
    pub fn alpha(&self) -> f64 {
        let total = self.univalent + self.multivalent;
        if total == 0 {
            1.0
        } else {
            self.univalent as f64 / total as f64
        }
    }

    /// `ℓ_c`: instructions in the group's superposed execution.
    pub fn len(&self) -> u64 {
        self.univalent + self.multivalent
    }

    /// True when no instructions ran.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Aggregate executor statistics.
#[derive(Debug, Default, Clone)]
pub struct ExecutorStats {
    /// Groups executed in superposed (grouped) mode.
    pub grouped: usize,
    /// Groups that fell back to scalar per-request execution.
    pub fallbacks: usize,
    /// Requests executed on the scalar path.
    pub scalar_requests: usize,
    /// Per-group Fig. 11 triples (grouped mode only).
    pub group_stats: Vec<GroupStat>,
    /// Logged session/APC versions decoded by grouped runs (one per
    /// distinct version per group, not one per reading lane).
    pub logged_decodes: u64,
}

impl ExecutorStats {
    /// Folds another executor's statistics into this one. The parallel
    /// audit runs one executor per worker thread; the harness merges
    /// their counters afterwards. Counter sums are order-independent;
    /// only the order of the Fig. 11 triples depends on scheduling (the
    /// triples themselves do not — consumers sort before rendering).
    pub fn merge(&mut self, other: &ExecutorStats) {
        self.grouped += other.grouped;
        self.fallbacks += other.fallbacks;
        self.scalar_requests += other.scalar_requests;
        self.group_stats.extend_from_slice(&other.group_stats);
        self.logged_decodes += other.logged_decodes;
    }
}

/// The acc-PHP group executor: routes requests to compiled scripts and
/// re-executes each control-flow group.
pub struct AccPhpExecutor {
    /// Shared handles: a group borrows its script without copying it.
    scripts: HashMap<String, Arc<CompiledScript>>,
    /// Force the scalar path for every request ("SIMD off", §5.2 — the
    /// simple re-execution the audit is measured against).
    pub force_scalar: bool,
    /// Read by nothing: the register VM is the only engine. Kept
    /// because the standalone `benchmark/` crate still sets it.
    pub engine: VmEngine,
    /// Statistics for the evaluation harness.
    pub stats: ExecutorStats,
}

// The parallel audit moves one executor into each worker thread, so the
// executor (and the compiled scripts it routes to) must stay `Send`.
const _: fn() = || {
    fn sendable<T: Send>() {}
    sendable::<AccPhpExecutor>();
};

impl AccPhpExecutor {
    /// Creates an executor for the given `(path, script)` routing table.
    pub fn new(scripts: HashMap<String, CompiledScript>) -> Self {
        AccPhpExecutor {
            scripts: scripts
                .into_iter()
                .map(|(path, script)| (path, Arc::new(script)))
                .collect(),
            force_scalar: false,
            engine: VmEngine::default(),
            stats: ExecutorStats::default(),
        }
    }

    fn to_response(rid: RequestId, out: RequestOutput) -> HttpResponse {
        HttpResponse {
            rid_label: rid,
            status: out.status,
            headers: out.headers,
            body: out.body,
        }
    }

    /// Scalar re-execution of one request through the checking backend.
    fn run_scalar(
        &mut self,
        rid: RequestId,
        input: &RequestInput<'_>,
        ctx: &mut AuditContext<'_>,
    ) -> Result<RequestOutput, Rejection> {
        self.stats.scalar_requests += 1;
        let Some(script) = self.scripts.get(input.path) else {
            return Ok(not_found_output(input.path));
        };
        let result = run_scalar_request(script, rid, input, ctx)?;
        // Scalar execution dispatches every instruction once: total and
        // executed coincide.
        ctx.record_vm_dispatches(result.stats.instructions, result.stats.instructions);
        Ok(result.output)
    }
}

impl GroupExecutor for AccPhpExecutor {
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
        let rids: Vec<RequestId> = requests.iter().map(|(r, _)| *r).collect();
        let inputs: Vec<RequestInput<'_>> =
            requests.iter().map(|(_, req)| request_input(req)).collect();
        let mut outputs: Vec<(RequestId, HttpResponse)> = Vec::with_capacity(requests.len());

        // Grouped execution requires a single script; groups beyond
        // MAX_GROUP split into chunks. Anything else goes scalar.
        let same_path = inputs.windows(2).all(|w| w[0].path == w[1].path);
        let try_grouped = !self.force_scalar && requests.len() > 1 && same_path;
        let script = self.scripts.get(inputs[0].path).filter(|_| try_grouped);

        if let Some(script) = script.cloned() {
            let mut diverged = false;
            let mut chunk_outputs = Vec::with_capacity(requests.len());
            for (rid_chunk, input_chunk) in rids.chunks(MAX_GROUP).zip(inputs.chunks(MAX_GROUP)) {
                match groupvm::run_group(&script, rid_chunk, input_chunk, ctx) {
                    Ok(outcome) => {
                        self.stats.grouped += 1;
                        self.stats.logged_decodes += outcome.logged_decodes;
                        self.stats.group_stats.push(GroupStat {
                            n: rid_chunk.len(),
                            univalent: outcome.univalent,
                            multivalent: outcome.multivalent,
                        });
                        // A fully scalar audit would dispatch every
                        // group instruction once per lane; superposed
                        // execution pays univalent instructions once.
                        let n = rid_chunk.len() as u64;
                        ctx.record_vm_dispatches(
                            n * (outcome.univalent + outcome.multivalent),
                            outcome.univalent + n * outcome.multivalent,
                        );
                        for (rid, out) in rid_chunk.iter().zip(outcome.outputs) {
                            chunk_outputs.push((*rid, Self::to_response(*rid, out)));
                        }
                    }
                    Err(GroupRunError::Reject(r)) => return Err(r),
                    Err(GroupRunError::Diverged(_why)) => {
                        // Retry the whole group per request; checks rerun
                        // identically after the reset.
                        diverged = true;
                        break;
                    }
                }
            }
            if !diverged {
                return Ok(chunk_outputs);
            }
            self.stats.fallbacks += 1;
            ctx.reset_requests(&rids);
        }

        for (rid, input) in rids.iter().zip(&inputs) {
            let out = self.run_scalar(*rid, input, ctx)?;
            outputs.push((*rid, Self::to_response(*rid, out)));
        }
        Ok(outputs)
    }
}

/// Re-executes one request on the scalar VM through the checking
/// backend — the executor's fallback path, and the per-request reference
/// a grouped run is compared against.
pub fn run_scalar_request(
    script: &CompiledScript,
    rid: RequestId,
    input: &RequestInput<'_>,
    ctx: &mut AuditContext<'_>,
) -> Result<RunResult, Rejection> {
    run_checked(ctx, rid, |backend| run_request(script, backend, input))
}

/// Runs one request's scalar interpreter `run` against the audit's
/// checking backend for `rid`: every state operation and
/// nondeterministic value is checked against the reports, and a failed
/// run is returned as the precise [`Rejection`] that stopped it.
/// [`run_scalar_request`] is this with the register VM; tests pass the
/// stack oracle.
pub fn run_checked(
    ctx: &mut AuditContext<'_>,
    rid: RequestId,
    run: impl FnOnce(&mut dyn RuntimeBackend) -> Result<RunResult, String>,
) -> Result<RunResult, Rejection> {
    let mut backend = AuditBackend {
        ctx,
        rid,
        txn: None,
        rejection: None,
    };
    run(&mut backend).map_err(|msg| {
        backend
            .rejection
            .take()
            .unwrap_or(Rejection::ExecFailure(msg))
    })
}

/// Scalar-path adapter: implements the PHP runtime's backend traits over
/// the audit context, preserving the precise rejection for the driver.
struct AuditBackend<'b, 'a> {
    ctx: &'b mut AuditContext<'a>,
    rid: RequestId,
    txn: Option<DbTxnHandle>,
    rejection: Option<Rejection>,
}

impl AuditBackend<'_, '_> {
    fn reject<T>(&mut self, r: Rejection) -> Result<T, BackendError> {
        let msg = r.to_string();
        self.rejection = Some(r);
        Err(BackendError::AuditReject(msg))
    }
}

impl StateBackend for AuditBackend<'_, '_> {
    fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError> {
        let name = ObjectName(object.to_string());
        match self.ctx.register_read(self.rid, &name) {
            Ok(v) => Ok(v.map(<[u8]>::to_vec)),
            Err(r) => self.reject(r),
        }
    }

    fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError> {
        let name = ObjectName(object.to_string());
        match self.ctx.register_write(self.rid, &name, &value) {
            Ok(()) => Ok(()),
            Err(r) => self.reject(r),
        }
    }

    fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        let name = ObjectName(object.to_string());
        match self.ctx.kv_get(self.rid, &name, key) {
            Ok(v) => Ok(v.map(<[u8]>::to_vec)),
            Err(r) => self.reject(r),
        }
    }

    fn kv_set(
        &mut self,
        object: &str,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), BackendError> {
        let name = ObjectName(object.to_string());
        match self.ctx.kv_set(self.rid, &name, key, value.as_deref()) {
            Ok(()) => Ok(()),
            Err(r) => self.reject(r),
        }
    }

    fn db_begin(&mut self, object: &str) -> Result<(), BackendError> {
        if self.txn.is_some() {
            return Err(BackendError::Fatal("nested transaction".into()));
        }
        let name = ObjectName(object.to_string());
        match self.ctx.db_begin(self.rid, &name) {
            Ok(h) => {
                self.txn = Some(h);
                Ok(())
            }
            Err(r) => self.reject(r),
        }
    }

    fn db_query(&mut self, object: &str, sql: &str) -> Result<DbResult, BackendError> {
        if self.txn.is_some() {
            let mut handle = self.txn.take().expect("checked above");
            let result = self.ctx.db_query(&mut handle, sql);
            self.txn = Some(handle);
            match result {
                Ok(out) => Ok(db_result(out, |_, columns, rows| {
                    rows_to_value(columns, rows)
                })),
                Err(r) => self.reject(r),
            }
        } else {
            // Auto-commit single-statement transaction.
            let name = ObjectName(object.to_string());
            let mut handle = match self.ctx.db_begin(self.rid, &name) {
                Ok(h) => h,
                Err(r) => return self.reject(r),
            };
            let result = match self.ctx.db_query(&mut handle, sql) {
                Ok(out) => out,
                Err(r) => return self.reject(r),
            };
            if let Err(r) = self.ctx.db_finish(handle, true) {
                return self.reject(r);
            }
            Ok(db_result(result, |_, columns, rows| {
                rows_to_value(columns, rows)
            }))
        }
    }

    fn db_commit(&mut self, _object: &str) -> Result<bool, BackendError> {
        let handle = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("commit without transaction".into()))?;
        match self.ctx.db_finish(handle, true) {
            Ok(ok) => Ok(ok),
            Err(r) => self.reject(r),
        }
    }

    fn db_rollback(&mut self, _object: &str) -> Result<(), BackendError> {
        let handle = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("rollback without transaction".into()))?;
        match self.ctx.db_finish(handle, false) {
            Ok(_) => Ok(()),
            Err(r) => self.reject(r),
        }
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn end_of_request(&mut self) -> Result<(), BackendError> {
        if let Some(handle) = self.txn.take() {
            // Mirror the server: the leaked transaction was rolled back
            // and logged online; consume the operation, then fail the
            // request with the server's exact message.
            if let Err(r) = self.ctx.db_finish(handle, false) {
                return self.reject(r);
            }
            return Err(BackendError::Fatal(
                "script ended with open transaction".into(),
            ));
        }
        Ok(())
    }
}

impl NondetProvider for AuditBackend<'_, '_> {
    fn time(&mut self) -> Result<i64, BackendError> {
        match self.ctx.nondet(self.rid, "time") {
            Ok(NondetValue::Time(t)) => Ok(t),
            Ok(_) => unreachable!("kind checked by nondet()"),
            Err(r) => self.reject(r),
        }
    }

    fn microtime(&mut self) -> Result<f64, BackendError> {
        match self.ctx.nondet(self.rid, "microtime") {
            Ok(NondetValue::Microtime(t)) => Ok(t),
            Ok(_) => unreachable!("kind checked by nondet()"),
            Err(r) => self.reject(r),
        }
    }

    fn getpid(&mut self) -> Result<i64, BackendError> {
        match self.ctx.nondet(self.rid, "pid") {
            Ok(NondetValue::Pid(p)) => Ok(p),
            Ok(_) => unreachable!("kind checked by nondet()"),
            Err(r) => self.reject(r),
        }
    }

    fn mt_rand(&mut self) -> Result<i64, BackendError> {
        match self.ctx.nondet(self.rid, "rand") {
            Ok(NondetValue::Rand(v)) => Ok(v),
            Ok(_) => unreachable!("kind checked by nondet()"),
            Err(r) => self.reject(r),
        }
    }

    fn uniqid(&mut self) -> Result<String, BackendError> {
        match self.ctx.nondet(self.rid, "uniqid") {
            Ok(NondetValue::Uniqid(u)) => Ok(u),
            Ok(_) => unreachable!("kind checked by nondet()"),
            Err(r) => self.reject(r),
        }
    }
}
