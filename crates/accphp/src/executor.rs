//! The verifier's group executor: each unit runs once, grouped
//! (SIMD-on-demand) or, for a singleton, an unrouted path or a
//! `force_scalar` audit, per request on the scalar VM.
//!
//! Every correctness check (`CheckOp`, op counts, output comparison) is
//! enforced per request by the [`AuditContext`]. The server's grouping
//! is advice the executor checks: every run recomputes the control-flow
//! tag ([`orochi_php::vm::ctl_flow_tag`]) — once per grouped run, once
//! per scalar request — and one that differs from the unit's claimed tag
//! is [`Rejection::Divergence`], as is a group that diverges mid-run or
//! whose members name different scripts (Fig. 12 line 39). An honest
//! group, whose members share one tag, never diverges.
//!
//! The audit calls [`GroupExecutor::check_group`], which this executor
//! overrides: a grouped run compares each member's echoes against its
//! traced response in place ([`groupvm::check_group`]) and builds no
//! page, and a scalar run compares each output with its traced response
//! as soon as it exists and drops it. [`GroupExecutor::execute_group`]
//! still builds every response, for callers that want them.
//!
//! Each grouped run's univalent and multivalent dispatch counts go to
//! the audit's Fig. 10 counters (`AuditContext::record_vm_dispatches`).

use crate::groupvm::{self, db_result, rows_to_value};
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::{DbTxnHandle, GroupExecutor, OutputCheck};
use orochi_core::nondet::NondetValue;
use orochi_php::backend::{BackendError, DbResult, NondetProvider, RuntimeBackend, StateBackend};
use orochi_php::bytecode::CompiledScript;
use orochi_php::vm::{not_found, run_request, RequestInput, RequestOutput, RunResult};
use orochi_state::object::ObjectName;
use orochi_trace::{HttpRequest, HttpResponse, ResponseRef};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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

/// Aggregate executor statistics.
#[derive(Debug, Default, Clone)]
pub struct ExecutorStats {
    /// Groups executed in superposed (grouped) mode.
    pub grouped: usize,
    /// Requests executed on the scalar path.
    pub scalar_requests: usize,
    /// Logged session/APC versions decoded by grouped runs (one per
    /// distinct version per group, not one per reading lane).
    pub logged_decodes: u64,
}

impl ExecutorStats {
    /// Folds another executor's statistics into this one. The parallel
    /// audit runs one executor per worker thread; the harness merges
    /// their counters afterwards; the sums are order-independent.
    pub fn merge(&mut self, other: &ExecutorStats) {
        self.grouped += other.grouped;
        self.scalar_requests += other.scalar_requests;
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
        let result = match self.scripts.get(input.path) {
            Some(script) => run_scalar_request(script, rid, input, ctx)?,
            None => not_found(input.path),
        };
        ctx.check_tag(result.tag())?;
        // Scalar execution dispatches every instruction once: total and
        // executed coincide.
        ctx.record_vm_dispatches(result.stats.instructions, result.stats.instructions);
        Ok(result.output)
    }

    /// The one re-execution path under both trait methods: grouped in
    /// chunks of [`MAX_GROUP`] through `grouped` (given a chunk's
    /// script, offset, rids and inputs), or — for a singleton, an
    /// unrouted path or `force_scalar` — per request on the scalar VM,
    /// each output handed to `scalar` with its position. Yields one `T`
    /// per member, in order.
    fn run<T>(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
        mut grouped: impl FnMut(
            &CompiledScript,
            usize,
            &[RequestId],
            &[RequestInput<'_>],
            &mut AuditContext<'_>,
        ) -> Result<groupvm::GroupOutcome<T>, Rejection>,
        mut scalar: impl FnMut(usize, RequestOutput, &mut AuditContext<'_>) -> T,
    ) -> Result<Vec<T>, Rejection> {
        let rids: Vec<RequestId> = requests.iter().map(|(r, _)| *r).collect();
        let inputs: Vec<RequestInput<'_>> =
            requests.iter().map(|(_, req)| request_input(req)).collect();
        let mut outputs: Vec<T> = Vec::with_capacity(requests.len());
        let group = !self.force_scalar && requests.len() > 1;
        // The tag is seeded with the script path: members that name
        // different scripts cannot share one.
        if group && inputs.windows(2).any(|w| w[0].path != w[1].path) {
            return Err(ctx.divergence());
        }
        if let Some(script) = self.scripts.get(inputs[0].path).filter(|_| group).cloned() {
            let chunks = rids.chunks(MAX_GROUP).zip(inputs.chunks(MAX_GROUP));
            for (k, (rid_chunk, input_chunk)) in chunks.enumerate() {
                let outcome = grouped(&script, k * MAX_GROUP, rid_chunk, input_chunk, ctx)?;
                ctx.check_tag(outcome.tag)?;
                self.stats.grouped += 1;
                self.stats.logged_decodes += outcome.logged_decodes;
                // A fully scalar audit would dispatch every group
                // instruction once per lane; superposed execution pays
                // univalent instructions once.
                let n = rid_chunk.len() as u64;
                ctx.record_vm_dispatches(
                    n * (outcome.univalent + outcome.multivalent),
                    outcome.univalent + n * outcome.multivalent,
                );
                outputs.extend(outcome.outputs);
            }
            return Ok(outputs);
        }
        for (p, (rid, input)) in rids.iter().zip(&inputs).enumerate() {
            let out = self.run_scalar(*rid, input, ctx)?;
            outputs.push(scalar(p, out, ctx));
        }
        Ok(outputs)
    }
}

impl GroupExecutor for AccPhpExecutor {
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
        let built = self.run(
            requests,
            ctx,
            |script, _, rids, inputs, ctx| groupvm::run_group(script, rids, inputs, ctx),
            |_, out, _| out,
        )?;
        Ok(requests
            .iter()
            .zip(built)
            .map(|((rid, _), out)| (*rid, Self::to_response(*rid, out)))
            .collect())
    }

    /// Checks in place: see the module docs.
    fn check_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        expected: &[ResponseRef<'_>],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<OutputCheck>, Rejection> {
        let matched = self.run(
            requests,
            ctx,
            |script, from, rids, inputs, ctx| {
                let expected = &expected[from..from + rids.len()];
                groupvm::check_group(script, rids, inputs, expected, ctx)
            },
            |p, out, ctx| {
                let t0 = Instant::now();
                let rid = requests[p].0;
                let matched = expected[p] == Self::to_response(rid, out);
                ctx.record_output_wall(t0.elapsed());
                matched
            },
        )?;
        Ok(matched.into_iter().map(OutputCheck::of).collect())
    }
}

/// Re-executes one request on the scalar VM through the checking
/// backend — the executor's scalar path, and the per-request reference
/// a grouped run is compared against. The caller checks its tag.
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
    /// `result`, its rejection kept for the driver and handed to the
    /// runtime as an audit failure.
    fn check<T>(&mut self, result: Result<T, Rejection>) -> Result<T, BackendError> {
        result.map_err(|r| {
            let msg = r.to_string();
            self.rejection = Some(r);
            BackendError::AuditReject(msg)
        })
    }

    /// The payload of the request's next nondeterministic value (see
    /// [`AuditContext::nondet`]).
    fn nondet<T>(&mut self, payload: fn(&NondetValue) -> Option<T>) -> Result<T, BackendError> {
        let result = self.ctx.nondet(self.rid, payload);
        self.check(result)
    }
}

impl StateBackend for AuditBackend<'_, '_> {
    fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError> {
        let name = ObjectName(object.to_string());
        let result = self.ctx.register_read(self.rid, &name);
        let result = result.map(|v| v.map(<[u8]>::to_vec));
        self.check(result)
    }

    fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError> {
        let name = ObjectName(object.to_string());
        let result = self.ctx.register_write(self.rid, &name, &value);
        self.check(result)
    }

    fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
        let name = ObjectName(object.to_string());
        let result = self.ctx.kv_get(self.rid, &name, key);
        let result = result.map(|v| v.map(<[u8]>::to_vec));
        self.check(result)
    }

    fn kv_set(
        &mut self,
        object: &str,
        key: &str,
        value: Option<Vec<u8>>,
    ) -> Result<(), BackendError> {
        let name = ObjectName(object.to_string());
        let result = self.ctx.kv_set(self.rid, &name, key, value.as_deref());
        self.check(result)
    }

    fn db_begin(&mut self, object: &str) -> Result<(), BackendError> {
        if self.txn.is_some() {
            return Err(BackendError::Fatal("nested transaction".into()));
        }
        let result = self.ctx.db_begin(self.rid, &ObjectName(object.to_string()));
        self.txn = Some(self.check(result)?);
        Ok(())
    }

    fn db_query(&mut self, object: &str, sql: &str) -> Result<DbResult, BackendError> {
        let result = match self.txn.take() {
            Some(mut handle) => {
                let result = self.ctx.db_query(&mut handle, sql);
                self.txn = Some(handle);
                result
            }
            // Auto-commit single-statement transaction.
            None => self
                .ctx
                .db_begin(self.rid, &ObjectName(object.to_string()))
                .and_then(|mut handle| {
                    let result = self.ctx.db_query(&mut handle, sql)?;
                    self.ctx.db_finish(handle, true)?;
                    Ok(result)
                }),
        };
        let out = self.check(result)?;
        Ok(db_result(out, |_, columns, rows| {
            rows_to_value(columns, rows)
        }))
    }

    fn db_commit(&mut self, _object: &str) -> Result<bool, BackendError> {
        let handle = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("commit without transaction".into()))?;
        let result = self.ctx.db_finish(handle, true);
        self.check(result)
    }

    fn db_rollback(&mut self, _object: &str) -> Result<(), BackendError> {
        let handle = self
            .txn
            .take()
            .ok_or_else(|| BackendError::Fatal("rollback without transaction".into()))?;
        let result = self.ctx.db_finish(handle, false);
        self.check(result).map(drop)
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn end_of_request(&mut self) -> Result<(), BackendError> {
        if let Some(handle) = self.txn.take() {
            // Mirror the server: the leaked transaction was rolled back
            // and logged online; consume the operation, then fail the
            // request with the server's exact message.
            let result = self.ctx.db_finish(handle, false);
            self.check(result)?;
            return Err(BackendError::Fatal(
                "script ended with open transaction".into(),
            ));
        }
        Ok(())
    }
}

impl NondetProvider for AuditBackend<'_, '_> {
    fn time(&mut self) -> Result<i64, BackendError> {
        self.nondet(|v| match v {
            NondetValue::Time(t) => Some(*t),
            _ => None,
        })
    }

    fn microtime(&mut self) -> Result<f64, BackendError> {
        self.nondet(|v| match v {
            NondetValue::Microtime(t) => Some(*t),
            _ => None,
        })
    }

    fn getpid(&mut self) -> Result<i64, BackendError> {
        self.nondet(|v| match v {
            NondetValue::Pid(p) => Some(*p),
            _ => None,
        })
    }

    fn mt_rand(&mut self) -> Result<i64, BackendError> {
        self.nondet(|v| match v {
            NondetValue::Rand(r) => Some(*r),
            _ => None,
        })
    }

    fn uniqid(&mut self) -> Result<String, BackendError> {
        self.nondet(|v| match v {
            NondetValue::Uniqid(u) => Some(u.clone()),
            _ => None,
        })
    }
}
