//! The state and semantics of one group's superposed run that do not
//! depend on the bytecode encoding: lane effects (output, headers,
//! status, session, transactions), the uni/multi accounting, the single
//! per-lane apply helper every multivalent instruction goes through, and
//! the builtins. The interpreter in [`super`] supplies the operand
//! traffic: where operands come from and where results go.

use crate::mval::{LaneMemo, MVal};
use orochi_common::codec::{Encoder, Wire};
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::{DbQueryResult, DbTxnHandle};
use orochi_core::nondet::NondetValue;
use orochi_obs::LazyCounter;
use orochi_php::backend::DbResult;
use orochi_php::builtins::{self, Builtin, Host};
use orochi_php::bytecode::CompiledScript;
use orochi_php::value::{ForeachIter, Value};
use orochi_php::vm::{
    ops, pairs_to_array, server_array, RequestInput, RequestOutput, VmError, STEP_LIMIT_EXCEEDED,
};
use orochi_sqldb::{ExecOutcome, SqlValue};
use orochi_state::object::ObjectName;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use super::{GroupOutcome, GroupRunError};

/// SELECT outcomes turned into PHP arrays. Stays at or below
/// `db_queries_issued × groups` while conversion is per distinct result
/// per group; per-lane conversion would put it near `db_queries`.
static RESULT_CONVERSIONS: LazyCounter = LazyCounter::new("accphp_result_conversions");

/// Internal control signals of the superposed interpreter.
pub(super) enum Flow {
    Diverged(&'static str),
    Reject(Rejection),
    /// Uniform fatal error: the whole group produces the same 500 page.
    GroupFatal(String),
    /// Uniform `exit`/`die`.
    Exit,
}

impl From<Rejection> for Flow {
    fn from(r: Rejection) -> Self {
        Flow::Reject(r)
    }
}

/// Lifts a scalar VmError arising from *univalent* execution: fatal
/// errors are uniform across lanes.
fn uni_err(e: VmError) -> Flow {
    match e {
        VmError::Fatal(m) => Flow::GroupFatal(m),
        VmError::Exit => Flow::Exit,
        VmError::AuditReject(m) => Flow::Reject(Rejection::ExecFailure(m)),
    }
}

/// Lifts per-lane errors: a fatal in *some* lanes is divergence; the
/// caller re-executes scalar per request, where each lane gets its own
/// (possibly 500) output.
fn lane_err(e: VmError) -> Flow {
    match e {
        VmError::Fatal(_) => Flow::Diverged("per-lane error"),
        VmError::Exit => Flow::Diverged("per-lane exit"),
        VmError::AuditReject(m) => Flow::Reject(Rejection::ExecFailure(m)),
    }
}

/// A [`Host`] that pure builtins never actually call.
struct NoHost;

impl Host for NoHost {
    fn echo(&mut self, _s: &str) {}
    fn add_header(&mut self, _n: String, _v: String) {}
    fn set_status(&mut self, _c: u16) {}
    fn session_start(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn kv_get(&mut self, _k: &str) -> Result<Value, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn kv_set(&mut self, _k: &str, _v: Option<&Value>) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_begin(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_query(&mut self, _sql: &str) -> Result<Value, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_commit(&mut self) -> Result<bool, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_rollback(&mut self) -> Result<(), VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn db_insert_id(&mut self) -> i64 {
        0
    }
    fn db_affected_rows(&mut self) -> i64 {
        0
    }
    fn nd_time(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_microtime(&mut self) -> Result<f64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_getpid(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_rand_raw(&mut self) -> Result<i64, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
    fn nd_uniqid(&mut self) -> Result<String, VmError> {
        Err(VmError::Fatal("impure builtin in pure dispatch".into()))
    }
}

/// The audit-side query result as the PHP runtime consumes it — the one
/// `ExecOutcome` → PHP conversion of the verifier. `rows_value` supplies
/// the array of a SELECT outcome from its handle, columns and rows: the
/// scalar path builds it ([`rows_to_value`]), a group shares one per
/// distinct handle.
pub(crate) fn db_result(
    result: DbQueryResult,
    rows_value: impl FnOnce(&Arc<ExecOutcome>, &[String], &[Vec<SqlValue>]) -> Value,
) -> DbResult {
    match result {
        DbQueryResult::Failed => DbResult::Failed,
        DbQueryResult::Ok(outcome) => match &*outcome {
            ExecOutcome::Write(w) => DbResult::Write {
                affected: w.affected,
                insert_id: w.last_insert_id,
            },
            ExecOutcome::Rows { columns, rows } => {
                DbResult::Rows(rows_value(&outcome, columns, rows))
            }
        },
    }
}

/// Builds the PHP array of a SELECT outcome.
pub(crate) fn rows_to_value(columns: &[String], rows: &[Vec<SqlValue>]) -> Value {
    fn cell(v: &SqlValue) -> Value {
        match v {
            SqlValue::Null => Value::Null,
            SqlValue::Int(i) => Value::Int(*i),
            SqlValue::Float(f) => Value::Float(*f),
            SqlValue::Text(s) => Value::str(s.as_str()),
        }
    }
    RESULT_CONVERSIONS.inc();
    builtins::db_rows_to_value(columns, rows.iter().map(|row| row.iter().map(cell)))
}

/// A superglobal's lanes: `build` runs once per distinct `input`, and
/// lanes with equal inputs hold its one value — so equal superglobals
/// cost one array, collapse by pointer, and meet the lane memo as one
/// operand.
fn shared_lanes<'i, K: Hash + Eq>(
    inputs: &[RequestInput<'i>],
    input: impl Fn(&RequestInput<'i>) -> K,
    build: impl Fn(&RequestInput<'i>) -> Value,
) -> MVal {
    let mut built: HashMap<K, Value> = HashMap::with_capacity(inputs.len());
    let lanes = inputs
        .iter()
        .map(|i| built.entry(input(i)).or_insert_with(|| build(i)).clone())
        .collect();
    MVal::from_lanes(lanes)
}

/// The register holding the session `cookie` names.
fn session_object(cookie: &str) -> ObjectName {
    const PREFIX: &str = "reg:sess:";
    let mut name = String::with_capacity(PREFIX.len() + cookie.len());
    name.push_str(PREFIX);
    name.push_str(cookie);
    ObjectName(name)
}

/// An active `foreach` (snapshot semantics).
pub(super) enum GroupIter {
    Uni(ForeachIter),
    /// Lanes step together (a non-uniform end is divergence); lanes
    /// iterating one array share its snapshot and stand at one position,
    /// so the memo may answer for one lane from another's.
    PerLane {
        arrays: MVal,
        iters: Vec<ForeachIter>,
    },
}

/// One group's run, minus the operand store.
pub(super) struct Group<'c, 'a> {
    pub(super) ctx: &'c mut AuditContext<'a>,
    rids: &'c [RequestId],
    pub(super) lanes: usize,
    pub(super) globals: Vec<MVal>,
    // Per-lane request effects.
    outputs: Vec<String>,
    headers: Vec<Vec<(String, String)>>,
    statuses: Vec<u16>,
    session_started: bool,
    session_cookies: Vec<Option<&'c str>>,
    last_insert_id: Vec<i64>,
    last_affected: Vec<i64>,
    txns: Vec<Option<DbTxnHandle>>,
    univalent: u64,
    multivalent: u64,
    steps: u64,
    step_limit: u64,
    /// The PHP array of every SELECT outcome this group has read, by
    /// handle address. Each entry keeps its handle, so an address names
    /// one outcome for as long as the map lives.
    converted: HashMap<*const ExecOutcome, (Arc<ExecOutcome>, Value)>,
    /// The PHP value of every logged session/APC version this group has
    /// read, by the address and length of its bytes. The bytes are the
    /// reports' own and outlive the group, so an address names one
    /// version: every lane that reads it holds one value.
    decoded: HashMap<(*const u8, usize), Value>,
    db_main: ObjectName,
    kv_apc: ObjectName,
    /// Scratch for marshalling one lane's builtin arguments.
    args_buf: Vec<Value>,
    /// Scratch for encoding one lane's session or APC value for its
    /// check against the logged bytes.
    enc: Encoder,
    memo: LaneMemo,
}

impl<'c, 'a> Group<'c, 'a> {
    pub(super) fn new(
        script: &CompiledScript,
        rids: &'c [RequestId],
        inputs: &'c [RequestInput<'c>],
        ctx: &'c mut AuditContext<'a>,
        step_limit: u64,
    ) -> Self {
        debug_assert_eq!(rids.len(), inputs.len(), "one input per rid");
        let lanes = rids.len();
        let mut globals = vec![MVal::Uni(Value::Null); script.global_names.len()];
        globals[0] = shared_lanes(inputs, |i| i.get, |i| pairs_to_array(i.get));
        globals[1] = shared_lanes(inputs, |i| i.post, |i| pairs_to_array(i.post));
        globals[2] = shared_lanes(inputs, |i| i.cookies, |i| pairs_to_array(i.cookies));
        globals[3] = MVal::Uni(Value::empty_array());
        globals[4] = shared_lanes(inputs, |i| (i.method, i.path), server_array);
        Group {
            ctx,
            rids,
            lanes,
            globals,
            outputs: vec![String::new(); lanes],
            headers: vec![Vec::new(); lanes],
            statuses: vec![200; lanes],
            session_started: false,
            session_cookies: inputs.iter().map(RequestInput::session_cookie).collect(),
            last_insert_id: vec![0; lanes],
            last_affected: vec![0; lanes],
            txns: (0..lanes).map(|_| None).collect(),
            univalent: 0,
            multivalent: 0,
            steps: 0,
            step_limit,
            converted: HashMap::new(),
            decoded: HashMap::new(),
            db_main: ObjectName("db:main".into()),
            kv_apc: ObjectName("kv:apc".into()),
            args_buf: Vec::new(),
            enc: Encoder::new(),
            memo: LaneMemo::default(),
        }
    }

    /// Turns the interpreter's exit into the group's outcome.
    pub(super) fn finish(mut self, flow: Result<(), Flow>) -> Result<GroupOutcome, GroupRunError> {
        match flow {
            Ok(()) | Err(Flow::Exit) => {
                if self.close_leaked_txns()? {
                    return Ok(self.uniform_fatal_outcome("script ended with open transaction"));
                }
                self.write_sessions_back()?;
                Ok(GroupOutcome {
                    outputs: (0..self.lanes)
                        .map(|l| RequestOutput {
                            status: self.statuses[l],
                            headers: std::mem::take(&mut self.headers[l]),
                            body: std::mem::take(&mut self.outputs[l]),
                        })
                        .collect(),
                    univalent: self.univalent,
                    multivalent: self.multivalent,
                    logged_decodes: self.decoded.len() as u64,
                })
            }
            // Uniform fatal: all lanes produce the identical 500 page
            // (no headers, no session write) — exactly what the scalar
            // runtime does per request.
            Err(Flow::GroupFatal(m)) => Ok(self.uniform_fatal_outcome(&m)),
            Err(Flow::Diverged(why)) => Err(GroupRunError::Diverged(why)),
            Err(Flow::Reject(r)) => Err(GroupRunError::Reject(r)),
        }
    }

    /// Closes transactions the script leaked (uniform control flow
    /// means all lanes leak together); returns true if any were open.
    fn close_leaked_txns(&mut self) -> Result<bool, Rejection> {
        let mut any = false;
        for txn in &mut self.txns {
            if let Some(handle) = txn.take() {
                any = true;
                self.ctx.db_finish(handle, false)?;
            }
        }
        Ok(any)
    }

    /// All lanes answer with the same fatal page (no headers/session).
    fn uniform_fatal_outcome(&self, message: &str) -> GroupOutcome {
        let body = format!("Fatal error: {message}");
        GroupOutcome {
            outputs: (0..self.lanes)
                .map(|_| RequestOutput {
                    status: 500,
                    headers: Vec::new(),
                    body: body.clone(),
                })
                .collect(),
            univalent: self.univalent,
            multivalent: self.multivalent,
            logged_decodes: self.decoded.len() as u64,
        }
    }

    fn write_sessions_back(&mut self) -> Result<(), Rejection> {
        if !self.session_started {
            return Ok(());
        }
        for l in 0..self.lanes {
            if let Some(cookie) = self.session_cookies[l] {
                self.enc.clear();
                self.globals[3].lane(l).encode(&mut self.enc);
                let name = session_object(cookie);
                self.ctx
                    .register_write(self.rids[l], &name, self.enc.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Counts one dispatched instruction against the step limit.
    pub(super) fn step(&mut self) -> Result<(), Flow> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(Flow::GroupFatal(STEP_LIMIT_EXCEEDED.into()));
        }
        Ok(())
    }

    /// Counts an instruction as univalent or multivalent.
    pub(super) fn account(&mut self, multivalent: bool) {
        if multivalent {
            self.multivalent += 1;
        } else {
            self.univalent += 1;
        }
    }

    /// The per-lane apply helper: runs `f`, a pure function of `lane`'s
    /// `operands`, once when every operand is a univalue and otherwise
    /// through [`LaneMemo::per_lane`]; accounts the instruction and lifts errors
    /// per the uni/multi discipline.
    fn apply<T: Clone>(
        &mut self,
        operands: &[&MVal],
        mut f: impl FnMut(usize) -> Result<T, VmError>,
    ) -> Result<Applied<T>, Flow> {
        let multi = operands.iter().any(|m| !m.is_uni());
        self.account(multi);
        if multi {
            self.memo
                .per_lane(operands, self.lanes, f)
                .map(Applied::PerLane)
                .map_err(lane_err)
        } else {
            f(0).map(Applied::Once).map_err(uni_err)
        }
    }

    /// A one-result instruction over `operands`.
    pub(super) fn op(
        &mut self,
        operands: &[&MVal],
        f: impl FnMut(usize) -> Result<Value, VmError>,
    ) -> Result<MVal, Flow> {
        Ok(match self.apply(operands, f)? {
            Applied::Once(v) => MVal::Uni(v),
            Applied::PerLane(vs) => MVal::from_lanes(vs),
        })
    }

    /// A two-result instruction (`++`/`--`, by-reference builtins).
    fn op2(
        &mut self,
        operands: &[&MVal],
        f: impl FnMut(usize) -> Result<(Value, Value), VmError>,
    ) -> Result<(MVal, MVal), Flow> {
        Ok(match self.apply(operands, f)? {
            Applied::Once((a, b)) => (MVal::Uni(a), MVal::Uni(b)),
            Applied::PerLane(pairs) => {
                let (a, b) = pairs.into_iter().unzip();
                (MVal::from_lanes(a), MVal::from_lanes(b))
            }
        })
    }

    /// [`Self::op`] for an operation that cannot fail.
    pub(super) fn total_op(
        &mut self,
        operands: &[&MVal],
        mut f: impl FnMut(usize) -> Value,
    ) -> Result<MVal, Flow> {
        self.op(operands, |l| Ok(f(l)))
    }

    /// `++`/`--` on a slot (`variant` as in [`ops::incdec`]); returns
    /// (new slot value, expression result).
    pub(super) fn incdec(&mut self, cur: &MVal, variant: usize) -> Result<(MVal, MVal), Flow> {
        self.op2(&[cur], |l| {
            let mut slot = cur.lane(l).clone();
            let result = ops::incdec(&mut slot, variant)?;
            Ok((slot, result))
        })
    }

    /// Read-modify-write of a value through an index path. `cur` is
    /// taken, not borrowed: when everything is a univalue the update
    /// runs on the value itself, so an array nobody else holds is
    /// written in place rather than copied per element.
    pub(super) fn modify_path<'k>(
        &mut self,
        cur: MVal,
        keys: &'k [MVal],
        value: Option<&MVal>,
        f: impl Fn(&mut Value, &[&'k Value], Value) -> Result<(), VmError>,
    ) -> Result<MVal, Flow> {
        // One buffer of key references serves every lane.
        let mut lane_keys: Vec<&'k Value> = Vec::with_capacity(keys.len());
        let lane_value = |l: usize| value.map_or(Value::Null, |m| m.lane(l).clone());
        match cur {
            MVal::Uni(mut v) if keys.iter().chain(value).all(MVal::is_uni) => {
                self.account(false);
                lane_keys.extend(keys.iter().map(|k| k.lane(0)));
                f(&mut v, &lane_keys, lane_value(0)).map_err(uni_err)?;
                Ok(MVal::Uni(v))
            }
            cur => {
                let operands: Vec<&MVal> = std::iter::once(&cur).chain(keys).chain(value).collect();
                self.op(&operands, |l| {
                    lane_keys.clear();
                    lane_keys.extend(keys.iter().map(|k| k.lane(l)));
                    // The clone shares the container; the first write
                    // through it copies, so no other holder of the
                    // array — another lane, a query result in the dedup
                    // cache — ever sees the change.
                    let mut v = cur.lane(l).clone();
                    f(&mut v, &lane_keys, lane_value(l))?;
                    Ok(v)
                })
            }
        }
    }

    /// `isset` through an index path.
    pub(super) fn isset_path(&mut self, cur: &MVal, keys: &[MVal]) -> Result<MVal, Flow> {
        let operands: Vec<&MVal> = std::iter::once(cur).chain(keys).collect();
        let mut lane_keys: Vec<&Value> = Vec::with_capacity(keys.len());
        self.total_op(&operands, |l| {
            lane_keys.clear();
            lane_keys.extend(keys.iter().map(|k| k.lane(l)));
            Value::Bool(ops::isset_path(cur.lane(l), &lane_keys))
        })
    }

    pub(super) fn echo(&mut self, v: &MVal) {
        self.account(!v.is_uni());
        match v {
            MVal::Uni(val) => {
                let s = val.as_php_str();
                for out in &mut self.outputs {
                    out.push_str(&s);
                }
            }
            MVal::Multi(vals) => {
                for (out, val) in self.outputs.iter_mut().zip(vals.iter()) {
                    out.push_str(&val.as_php_str());
                }
            }
        }
    }

    pub(super) fn iter_init(&mut self, arr: &MVal) -> GroupIter {
        self.account(!arr.is_uni());
        match arr {
            MVal::Uni(v) => GroupIter::Uni(ForeachIter::over(v)),
            MVal::Multi(vs) => GroupIter::PerLane {
                arrays: arr.clone(),
                iters: vs.iter().map(ForeachIter::over).collect(),
            },
        }
    }

    /// One iteration step: the next `(key, value)` — the key only when
    /// `want_key` — or `None` when every lane is exhausted.
    pub(super) fn iter_next(
        &mut self,
        iter: &mut GroupIter,
        want_key: bool,
    ) -> Result<Option<(Option<MVal>, MVal)>, Flow> {
        match iter {
            GroupIter::Uni(iter) => {
                self.account(false);
                let next = iter.next_entry().map(|(k, v)| {
                    let key = want_key.then(|| MVal::Uni(k.to_value()));
                    (key, MVal::Uni(v.clone()))
                });
                Ok(next)
            }
            GroupIter::PerLane { arrays, iters } => {
                let has_next = iters[0].peek().is_some();
                if iters.iter().any(|it| it.peek().is_some() != has_next) {
                    self.account(true);
                    return Err(Flow::Diverged("non-uniform iteration"));
                }
                if !has_next {
                    self.account(true);
                    return Ok(None);
                }
                let lanes = &*iters;
                let entry = |l: usize| lanes[l].peek().expect("every lane has a next entry");
                let next = if want_key {
                    let step = |l: usize| {
                        let (k, v) = entry(l);
                        Ok((k.to_value(), v.clone()))
                    };
                    let (keys, vals) = self.op2(&[arrays], step)?;
                    (Some(keys), vals)
                } else {
                    (None, self.op(&[arrays], |l| Ok(entry(l).1.clone()))?)
                };
                for iter in iters.iter_mut() {
                    iter.next_entry();
                }
                Ok(Some(next))
            }
        }
    }

    /// Builtin calls: pure builtins split per lane when any argument is
    /// a multivalue (§4.3); impure builtins route through the audit
    /// context per lane. By-reference builtins return the new target
    /// first and the PHP return value second.
    pub(super) fn builtin(
        &mut self,
        bidx: u16,
        args: &[MVal],
    ) -> Result<(MVal, Option<MVal>), Flow> {
        if builtins::is_impure(bidx) {
            return Ok((self.impure_builtin(Builtin::from_id(bidx), args)?, None));
        }
        let operands: Vec<&MVal> = args.iter().collect();
        let mut buf = std::mem::take(&mut self.args_buf);
        let lane_args = |buf: &mut Vec<Value>, l: usize| {
            buf.clear();
            buf.extend(args.iter().map(|a| a.lane(l).clone()));
        };
        let result = if builtins::is_byref(bidx) {
            self.op2(&operands, |l| {
                lane_args(&mut buf, l);
                builtins::dispatch_byref(bidx, &mut buf)
            })
            .map(|(target, ret)| (target, Some(ret)))
        } else {
            self.op(&operands, |l| {
                lane_args(&mut buf, l);
                builtins::dispatch(bidx, &buf, &mut NoHost)
            })
            .map(|ret| (ret, None))
        };
        self.args_buf = buf;
        result
    }

    /// The PHP value of one lane's query result: rows through the
    /// group's conversion memo, so all lanes that hit one dedup entry
    /// hold one array.
    fn db_value(&mut self, l: usize, result: DbQueryResult) -> Value {
        let converted = &mut self.converted;
        let result = db_result(result, |outcome, columns, rows| {
            let entry = converted
                .entry(Arc::as_ptr(outcome))
                .or_insert_with(|| (Arc::clone(outcome), rows_to_value(columns, rows)));
            entry.1.clone()
        });
        builtins::db_result_to_value(
            result,
            &mut self.last_insert_id[l],
            &mut self.last_affected[l],
        )
    }

    /// The PHP value of logged session/APC bytes, decoded once per
    /// group (see `decoded`). Bytes that do not decode are the fatal
    /// `corrupt`, as they are for the scalar runtime on the server; in a
    /// group of several lanes the other lanes may decode fine, so the
    /// group diverges and each request meets the fatal on its own.
    fn decode_logged(&mut self, bytes: &'a [u8], corrupt: &str) -> Result<Value, Flow> {
        let key = (bytes.as_ptr(), bytes.len());
        if let Some(v) = self.decoded.get(&key) {
            return Ok(v.clone());
        }
        let v = Value::from_wire_bytes(bytes).map_err(|_| {
            if self.lanes == 1 {
                Flow::GroupFatal(corrupt.into())
            } else {
                Flow::Diverged("per-lane corrupt state")
            }
        })?;
        self.decoded.insert(key, v.clone());
        Ok(v)
    }

    fn nondet(&mut self, l: usize, kind: &str) -> Result<NondetValue, Flow> {
        Ok(self.ctx.nondet(self.rids[l], kind)?)
    }

    /// Impure builtins count as multivalent when their arguments (or
    /// their per-lane results) differ.
    fn impure_builtin(&mut self, builtin: Builtin, args: &[MVal]) -> Result<MVal, Flow> {
        let null = MVal::Uni(Value::Null);
        let arg = |i: usize| args.get(i).unwrap_or(&null);
        match builtin {
            Builtin::Print => {
                self.echo(arg(0));
                Ok(MVal::Uni(Value::Int(1)))
            }
            Builtin::Exit | Builtin::Die => {
                self.account(false);
                if let Some(v) = args.first() {
                    for (l, out) in self.outputs.iter_mut().enumerate() {
                        if let Value::Str(s) = v.lane(l) {
                            out.push_str(s);
                        }
                    }
                }
                Err(Flow::Exit)
            }
            Builtin::Header => {
                let h = arg(0);
                self.account(!h.is_uni());
                for l in 0..self.lanes {
                    let text = h.lane(l).as_php_str();
                    match text.split_once(':') {
                        Some((n, v)) => {
                            self.headers[l].push((n.trim().to_string(), v.trim().to_string()))
                        }
                        None => {
                            return Err(if h.is_uni() {
                                Flow::GroupFatal("header(): malformed header".into())
                            } else {
                                Flow::Diverged("per-lane header error")
                            })
                        }
                    }
                }
                Ok(MVal::Uni(Value::Null))
            }
            Builtin::HttpResponseCode => {
                let c = arg(0);
                self.account(!c.is_uni());
                for l in 0..self.lanes {
                    let code = c.lane(l).to_php_int();
                    if !(100..=599).contains(&code) {
                        return Err(if c.is_uni() {
                            Flow::GroupFatal("http_response_code(): bad code".into())
                        } else {
                            Flow::Diverged("per-lane status error")
                        });
                    }
                    self.statuses[l] = code as u16;
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::Setcookie => {
                let (n, v) = (arg(0), arg(1));
                self.account(!n.is_uni() || !v.is_uni());
                for l in 0..self.lanes {
                    self.headers[l].push((
                        "Set-Cookie".to_string(),
                        format!("{}={}", n.lane(l).as_php_str(), v.lane(l).as_php_str()),
                    ));
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::SessionStart => {
                self.account(true);
                if !self.session_started {
                    self.session_started = true;
                    let mut sessions = Vec::with_capacity(self.lanes);
                    for l in 0..self.lanes {
                        let Some(cookie) = self.session_cookies[l] else {
                            sessions.push(Value::empty_array());
                            continue;
                        };
                        let obj = session_object(cookie);
                        sessions.push(match self.ctx.register_read(self.rids[l], &obj)? {
                            Some(bytes) => self.decode_logged(bytes, "corrupt session data")?,
                            None => Value::empty_array(),
                        });
                    }
                    self.globals[3] = MVal::from_lanes(sessions);
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::ApcFetch => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let k = arg(0).lane(l).as_php_str();
                    out.push(match self.ctx.kv_get(self.rids[l], &self.kv_apc, &k)? {
                        Some(bytes) => self.decode_logged(bytes, "corrupt apc data")?,
                        None => Value::Bool(false),
                    });
                }
                Ok(MVal::from_lanes(out))
            }
            Builtin::ApcStore | Builtin::ApcDelete => {
                self.account(true);
                for l in 0..self.lanes {
                    let k = arg(0).lane(l).as_php_str();
                    let bytes = (builtin == Builtin::ApcStore).then(|| {
                        self.enc.clear();
                        arg(1).lane(l).encode(&mut self.enc);
                        self.enc.as_bytes()
                    });
                    self.ctx.kv_set(self.rids[l], &self.kv_apc, &k, bytes)?;
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::DbBegin => {
                self.account(true);
                for l in 0..self.lanes {
                    if self.txns[l].is_some() {
                        return Err(Flow::GroupFatal("nested transaction".into()));
                    }
                    self.txns[l] = Some(self.ctx.db_begin(self.rids[l], &self.db_main)?);
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::DbQuery => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let text = arg(0).lane(l).as_php_str();
                    let result = match self.txns[l].as_mut() {
                        Some(handle) => self.ctx.db_query(handle, &text)?,
                        None => {
                            // Auto-commit single-statement transaction.
                            let mut handle = self.ctx.db_begin(self.rids[l], &self.db_main)?;
                            let r = self.ctx.db_query(&mut handle, &text)?;
                            self.ctx.db_finish(handle, true)?;
                            r
                        }
                    };
                    out.push(self.db_value(l, result));
                }
                Ok(MVal::from_lanes(out))
            }
            Builtin::DbCommit | Builtin::DbRollback => {
                self.account(true);
                let committed = builtin == Builtin::DbCommit;
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let Some(handle) = self.txns[l].take() else {
                        return Err(Flow::GroupFatal(format!(
                            "{}() without transaction",
                            builtin.name()
                        )));
                    };
                    let ok = self.ctx.db_finish(handle, committed)?;
                    out.push(Value::Bool(!committed || ok));
                }
                Ok(MVal::from_lanes(out))
            }
            Builtin::DbInsertId => {
                self.account(true);
                let vals = self.last_insert_id.iter().map(|i| Value::Int(*i)).collect();
                Ok(MVal::from_lanes(vals))
            }
            Builtin::DbAffectedRows => {
                self.account(true);
                let vals = self.last_affected.iter().map(|i| Value::Int(*i)).collect();
                Ok(MVal::from_lanes(vals))
            }
            Builtin::Time | Builtin::Microtime | Builtin::Getpid | Builtin::Uniqid => {
                self.account(true);
                let kind = match builtin {
                    Builtin::Getpid => "pid",
                    other => other.name(),
                };
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    out.push(match self.nondet(l, kind)? {
                        NondetValue::Time(t) => Value::Int(t),
                        NondetValue::Microtime(t) => Value::Float(t),
                        NondetValue::Pid(p) => Value::Int(p),
                        NondetValue::Uniqid(u) => Value::str(u),
                        NondetValue::Rand(_) => {
                            let rid = self.rids[l];
                            return Err(Rejection::NondetKindMismatch { rid }.into());
                        }
                    });
                }
                Ok(MVal::from_lanes(out))
            }
            Builtin::MtRand | Builtin::Rand => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let NondetValue::Rand(raw) = self.nondet(l, "rand")? else {
                        let rid = self.rids[l];
                        return Err(Rejection::NondetKindMismatch { rid }.into());
                    };
                    let lane_args: Vec<Value> = args.iter().map(|v| v.lane(l).clone()).collect();
                    out.push(builtins::mt_rand_reduce(raw, &lane_args).map_err(lane_err)?);
                }
                Ok(MVal::from_lanes(out))
            }
            other => Err(Flow::GroupFatal(format!(
                "impure builtin {}() not handled in grouped mode",
                other.name()
            ))),
        }
    }
}

/// What [`Group::apply`] produced.
enum Applied<T> {
    /// Every operand was a univalue: one result for all lanes.
    Once(T),
    /// One result per lane.
    PerLane(Vec<T>),
}
