//! One group's superposed run as a lane domain of the register loop
//! ([`orochi_php::vm::execute`], which supplies the operand traffic):
//! lane effects (output, headers, status, session, transactions), the
//! uni/multi accounting, the single per-lane apply helper every
//! multivalent instruction goes through, and the builtins.
//!
//! Page bodies go to a [`Sink`]: [`Build`] writes one `String` per lane,
//! [`Check`] compares each echo against the lane's traced body in place.

use crate::mval::{LaneMemo, MVal};
use orochi_common::codec::{Encoder, Wire};
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_core::exec::{DbQueryResult, DbTxnHandle};
use orochi_core::nondet::NondetValue;
use orochi_obs::LazyCounter;
use orochi_php::backend::DbResult;
use orochi_php::builtins::{self, Builtin};
use orochi_php::bytecode::CompiledScript;
use orochi_php::value::{ForeachIter, Value};
use orochi_php::vm::{
    ops, pairs_to_array, server_array, LaneDomain, PathOp, RequestInput, RequestOutput, Slot,
    VmError, STEP_LIMIT_EXCEEDED,
};
use orochi_sqldb::{ExecOutcome, SqlValue};
use orochi_state::object::ObjectName;
use orochi_trace::ResponseRef;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

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

/// Where a group's page bodies go.
pub(super) trait Sink {
    /// What the group hands back per lane.
    type Out;
    /// Every lane appends `s`.
    fn echo_all(&mut self, s: &str);
    /// Each lane `l` appends `text(l)`; a sink may skip lanes whose
    /// output no longer matters.
    fn echo_each<'v>(&mut self, text: impl FnMut(usize) -> Cow<'v, str>);
    /// The run ended normally with these per-lane statuses and headers.
    fn finish(
        self,
        rids: &[RequestId],
        statuses: &[u16],
        headers: Vec<Vec<(String, String)>>,
    ) -> Vec<Self::Out>;
    /// A uniform fatal: every lane answers `page` with status 500 and
    /// no headers, whatever it echoed before.
    fn fatal(self, rids: &[RequestId], page: &str) -> Vec<Self::Out>;
}

/// The built pages, one per lane: what [`super::run_group`] returns and
/// the differential tests compare with the scalar VM.
pub(super) struct Build(pub(super) Vec<String>);

impl Sink for Build {
    type Out = RequestOutput;

    fn echo_all(&mut self, s: &str) {
        for out in &mut self.0 {
            out.push_str(s);
        }
    }

    fn echo_each<'v>(&mut self, mut text: impl FnMut(usize) -> Cow<'v, str>) {
        for (l, out) in self.0.iter_mut().enumerate() {
            out.push_str(&text(l));
        }
    }

    fn finish(
        self,
        _rids: &[RequestId],
        statuses: &[u16],
        headers: Vec<Vec<(String, String)>>,
    ) -> Vec<RequestOutput> {
        self.0
            .into_iter()
            .zip(headers)
            .zip(statuses)
            .map(|((body, headers), &status)| RequestOutput {
                status,
                headers,
                body,
            })
            .collect()
    }

    fn fatal(self, _rids: &[RequestId], page: &str) -> Vec<RequestOutput> {
        let out = RequestOutput {
            status: 500,
            headers: Vec::new(),
            body: page.to_owned(),
        };
        vec![out; self.0.len()]
    }
}

/// The in-place output check: each lane's echoes are compared against
/// its traced body as they happen, through one cursor per lane, and no
/// page is built. A lane whose echo its body does not continue with
/// stops comparing.
pub(super) struct Check<'e> {
    expected: &'e [ResponseRef<'e>],
    /// Per lane, the bytes of its expected body its echoes have matched,
    /// or `None` once one did not.
    at: Vec<Option<usize>>,
}

impl<'e> Check<'e> {
    /// Checks the lanes owing `expected` (one response per lane).
    pub(super) fn new(expected: &'e [ResponseRef<'e>]) -> Self {
        Check {
            expected,
            at: vec![Some(0); expected.len()],
        }
    }

    /// Lane `l`'s cursor after it echoes `s`.
    fn advance(&mut self, l: usize, s: &str) {
        if let Some(at) = self.at[l] {
            let body = self.expected[l].body_bytes();
            self.at[l] = body[at..].starts_with(s.as_bytes()).then_some(at + s.len());
        }
    }

    /// The response lane `l` owes, minus its body, against what it
    /// produced.
    fn frame_matches(
        &self,
        l: usize,
        rid: RequestId,
        status: u16,
        headers: &[(String, String)],
    ) -> bool {
        let expected = &self.expected[l];
        expected.rid_label() == rid && expected.status() == status && expected.headers() == *headers
    }
}

impl Sink for Check<'_> {
    type Out = bool;

    fn echo_all(&mut self, s: &str) {
        for l in 0..self.at.len() {
            self.advance(l, s);
        }
    }

    fn echo_each<'v>(&mut self, mut text: impl FnMut(usize) -> Cow<'v, str>) {
        for l in 0..self.at.len() {
            if self.at[l].is_some() {
                self.advance(l, &text(l));
            }
        }
    }

    fn finish(
        self,
        rids: &[RequestId],
        statuses: &[u16],
        headers: Vec<Vec<(String, String)>>,
    ) -> Vec<bool> {
        (0..rids.len())
            .map(|l| {
                self.at[l] == Some(self.expected[l].body_bytes().len())
                    && self.frame_matches(l, rids[l], statuses[l], &headers[l])
            })
            .collect()
    }

    fn fatal(self, rids: &[RequestId], page: &str) -> Vec<bool> {
        (0..rids.len())
            .map(|l| {
                self.expected[l].body_bytes() == page.as_bytes()
                    && self.frame_matches(l, rids[l], 500, &[])
            })
            .collect()
    }
}

/// One group's run, minus the operand store.
pub(super) struct Group<'c, 'a, S> {
    ctx: &'c mut AuditContext<'a>,
    rids: &'c [RequestId],
    lanes: usize,
    globals: Vec<MVal>,
    // Per-lane request effects.
    out: S,
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

impl<'c, 'a, S: Sink> Group<'c, 'a, S> {
    pub(super) fn new(
        script: &CompiledScript,
        rids: &'c [RequestId],
        inputs: &'c [RequestInput<'c>],
        out: S,
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
            out,
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

    /// Turns the interpreter's exit into the group's outcome. Handing
    /// the sink its ending counts as output time.
    pub(super) fn finish(
        mut self,
        flow: Result<(), Flow>,
    ) -> Result<GroupOutcome<S::Out>, GroupRunError> {
        let fatal = match flow {
            Ok(()) | Err(Flow::Exit) => {
                if self.close_leaked_txns()? {
                    Some("script ended with open transaction".to_owned())
                } else {
                    self.write_sessions_back()?;
                    None
                }
            }
            // Uniform fatal: all lanes produce the identical 500 page
            // (no headers, no session write) — exactly what the scalar
            // runtime does per request.
            Err(Flow::GroupFatal(m)) => Some(m),
            Err(Flow::Diverged(why)) => return Err(GroupRunError::Diverged(why)),
            Err(Flow::Reject(r)) => return Err(GroupRunError::Reject(r)),
        };
        let t0 = Instant::now();
        let outputs = match fatal {
            Some(m) => self.out.fatal(self.rids, &format!("Fatal error: {m}")),
            None => self.out.finish(self.rids, &self.statuses, self.headers),
        };
        self.ctx.record_output_wall(t0.elapsed());
        Ok(GroupOutcome {
            outputs,
            univalent: self.univalent,
            multivalent: self.multivalent,
            logged_decodes: self.decoded.len() as u64,
        })
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

    /// Counts an instruction as univalent or multivalent.
    fn account(&mut self, multivalent: bool) {
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
    fn op(
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

    /// Read-modify-write of a value through an index path. `cur` is
    /// taken, not borrowed: when everything is a univalue the update
    /// runs on the value itself, so an array nobody else holds is
    /// written in place rather than copied per element.
    fn modify_path<'k>(
        &mut self,
        cur: MVal,
        keys: &'k [MVal],
        value: Option<&MVal>,
        path: PathOp,
    ) -> Result<MVal, Flow> {
        // One buffer of key references serves every lane.
        let mut lane_keys: Vec<&'k Value> = Vec::with_capacity(keys.len());
        let lane_value = |l: usize| value.map_or(Value::Null, |m| m.lane(l).clone());
        match cur {
            MVal::Uni(mut v) if keys.iter().chain(value).all(MVal::is_uni) => {
                self.account(false);
                lane_keys.extend(keys.iter().map(|k| k.lane(0)));
                path.apply(&mut v, &lane_keys, lane_value(0))
                    .map_err(uni_err)?;
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
                    path.apply(&mut v, &lane_keys, lane_value(l))?;
                    Ok(v)
                })
            }
        }
    }

    /// Builtin calls: pure builtins split per lane when any argument is
    /// a multivalue (§4.3); impure builtins route through the audit
    /// context per lane. By-reference builtins return the new target
    /// first and the PHP return value second.
    fn builtin(&mut self, bidx: u16, args: &[MVal]) -> Result<(MVal, Option<MVal>), Flow> {
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
                builtins::dispatch_pure(bidx, &buf)
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
                // The message is printed only when it is a string.
                match args.first() {
                    Some(MVal::Uni(Value::Str(s))) => self.out.echo_all(s),
                    Some(MVal::Multi(vals)) => self.out.echo_each(|l| match &vals[l] {
                        Value::Str(s) => Cow::Borrowed(&**s),
                        _ => Cow::Borrowed(""),
                    }),
                    _ => {}
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
                let mut out = Vec::with_capacity(self.lanes);
                for &rid in self.rids {
                    out.push(self.ctx.nondet(rid, |v| match (builtin, v) {
                        (Builtin::Time, NondetValue::Time(t)) => Some(Value::Int(*t)),
                        (Builtin::Microtime, NondetValue::Microtime(t)) => Some(Value::Float(*t)),
                        (Builtin::Getpid, NondetValue::Pid(p)) => Some(Value::Int(*p)),
                        (Builtin::Uniqid, NondetValue::Uniqid(u)) => Some(Value::str(u.as_str())),
                        _ => None,
                    })?);
                }
                Ok(MVal::from_lanes(out))
            }
            Builtin::MtRand | Builtin::Rand => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let raw = self.ctx.nondet(self.rids[l], |v| match v {
                        NondetValue::Rand(raw) => Some(*raw),
                        _ => None,
                    })?;
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

/// A group is a domain of one lane per member: registers hold
/// [`MVal`]s, an instruction with univalent operands runs once and one
/// with multivalent operands per lane, and a branch must decide the same
/// way in every lane or the group diverges.
impl<S: Sink> LaneDomain for Group<'_, '_, S> {
    type Reg = MVal;
    type Iter = GroupIter;
    type Error = Flow;

    #[inline]
    fn uni(v: Value) -> MVal {
        MVal::Uni(v)
    }

    fn fatal(msg: String) -> Flow {
        Flow::GroupFatal(msg)
    }

    #[inline]
    fn step(&mut self) -> Result<(), Flow> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(Flow::GroupFatal(STEP_LIMIT_EXCEEDED.into()));
        }
        Ok(())
    }

    #[inline]
    fn once(&mut self) {
        self.account(false);
    }

    #[inline]
    fn copy(&mut self, v: &MVal) -> MVal {
        self.account(!v.is_uni());
        v.clone()
    }

    #[inline]
    fn load_global(&mut self, slot: usize) -> MVal {
        let v = self.globals[slot].clone();
        self.account(!v.is_uni());
        v
    }

    #[inline]
    fn store_global(&mut self, slot: usize, v: &MVal) {
        self.globals[slot] = self.copy(v);
    }

    fn lift1(
        &mut self,
        x: &MVal,
        f: impl Fn(&Value) -> Result<Value, VmError>,
    ) -> Result<MVal, Flow> {
        self.op(&[x], |l| f(x.lane(l)))
    }

    fn lift2(
        &mut self,
        x: &MVal,
        y: &MVal,
        f: impl Fn(&Value, &Value) -> Result<Value, VmError>,
    ) -> Result<MVal, Flow> {
        self.op(&[x, y], |l| f(x.lane(l), y.lane(l)))
    }

    fn branch(&mut self, cond: &MVal, jump_if: bool) -> Result<bool, Flow> {
        self.account(!cond.is_uni());
        let truth = cond
            .uniform_truthiness(self.lanes)
            .map_err(|()| Flow::Diverged("non-uniform branch"))?;
        Ok(truth == jump_if)
    }

    fn write_path(
        &mut self,
        mut slot: Slot<&mut MVal>,
        keys: &[MVal],
        value: Option<&MVal>,
        op: PathOp,
    ) -> Result<(), Flow> {
        let cur = std::mem::replace(slot.resolve(&mut self.globals), MVal::Uni(Value::Null));
        let new = self.modify_path(cur, keys, value, op)?;
        *slot.resolve(&mut self.globals) = new;
        Ok(())
    }

    fn isset_path(&mut self, slot: Slot<&MVal>, keys: &[MVal]) -> Result<MVal, Flow> {
        let cur = slot.get(&self.globals).clone();
        let operands: Vec<&MVal> = std::iter::once(&cur).chain(keys).collect();
        let mut lane_keys: Vec<&Value> = Vec::with_capacity(keys.len());
        self.op(&operands, |l| {
            lane_keys.clear();
            lane_keys.extend(keys.iter().map(|k| k.lane(l)));
            Ok(Value::Bool(ops::isset_path(cur.lane(l), &lane_keys)))
        })
    }

    fn incdec(&mut self, mut slot: Slot<&mut MVal>, variant: usize) -> Result<MVal, Flow> {
        let cur = slot.resolve(&mut self.globals).clone();
        let (new, result) = self.op2(&[&cur], |l| {
            let mut slot = cur.lane(l).clone();
            let result = ops::incdec(&mut slot, variant)?;
            Ok((slot, result))
        })?;
        *slot.resolve(&mut self.globals) = new;
        Ok(result)
    }

    fn call_builtin(&mut self, bidx: u16, regs: &mut [MVal], argc: usize) -> Result<(), Flow> {
        let (first, second) = self.builtin(bidx, &regs[..argc])?;
        regs[0] = first;
        if let Some(ret) = second {
            regs[1] = ret;
        }
        Ok(())
    }

    fn echo(&mut self, v: &MVal) {
        self.account(!v.is_uni());
        match v {
            MVal::Uni(val) => self.out.echo_all(&val.as_php_str()),
            MVal::Multi(vals) => self.out.echo_each(|l| vals[l].as_php_str()),
        }
    }

    fn iter_init(&mut self, arr: &MVal) -> GroupIter {
        self.account(!arr.is_uni());
        match arr {
            MVal::Uni(v) => GroupIter::Uni(ForeachIter::over(v)),
            MVal::Multi(vs) => GroupIter::PerLane {
                arrays: arr.clone(),
                iters: vs.iter().map(ForeachIter::over).collect(),
            },
        }
    }

    fn iter_next(
        &mut self,
        iter: &mut GroupIter,
        want_key: bool,
        dst: &mut [MVal],
    ) -> Result<bool, Flow> {
        let (key, value) = match iter {
            GroupIter::Uni(iter) => {
                self.account(false);
                let Some((k, v)) = iter.next_entry() else {
                    return Ok(false);
                };
                let key = want_key.then(|| MVal::Uni(k.to_value()));
                (key, MVal::Uni(v.clone()))
            }
            GroupIter::PerLane { arrays, iters } => {
                let has_next = iters[0].peek().is_some();
                if iters.iter().any(|it| it.peek().is_some() != has_next) {
                    self.account(true);
                    return Err(Flow::Diverged("non-uniform iteration"));
                }
                if !has_next {
                    self.account(true);
                    return Ok(false);
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
                next
            }
        };
        if let Some(key) = key {
            dst[0] = key;
        }
        dst[usize::from(want_key)] = value;
        Ok(true)
    }
}

/// What [`Group::apply`] produced.
enum Applied<T> {
    /// Every operand was a univalue: one result for all lanes.
    Once(T),
    /// One result per lane.
    PerLane(Vec<T>),
}

#[cfg(test)]
mod tests {
    use super::super::{check_group, run_group};
    use crate::executor::request_input;
    use orochi_common::ids::{CtlFlowTag, RequestId};
    use orochi_core::audit::{AuditConfig, AuditContext};
    use orochi_core::reports::Reports;
    use orochi_php::{compile, parse_script};
    use orochi_trace::segment::{encode_segment, SegmentView};
    use orochi_trace::{Event, EventRef, HttpRequest, HttpResponse, ResponseRef, Trace};

    /// A traced response: status, headers, body.
    type Traced<'t> = (u16, &'t [(&'t str, &'t str)], &'t str);

    /// Runs `body` as one group whose lane `l` gets the query
    /// `queries[l]`, and checks lane `l` against `traced[l]`, labelled
    /// with its own rid. The traced responses are read out of one
    /// sealed segment, as an audit of a store reads them. Every bit must
    /// equal the comparison of the traced response with the page the
    /// same group builds.
    fn check(body: &str, queries: &[&[(&str, &str)]], traced: &[Traced<'_>]) -> Vec<bool> {
        check_labelled(body, queries, traced, |rid| rid)
    }

    /// [`check`], with the traced response of `rid` labelled `label(rid)`.
    fn check_labelled(
        body: &str,
        queries: &[&[(&str, &str)]],
        traced: &[Traced<'_>],
        label: impl Fn(RequestId) -> RequestId,
    ) -> Vec<bool> {
        let script = compile("/t.php", &parse_script(&format!("<?php {body}")).unwrap()).unwrap();
        let rids: Vec<RequestId> = (1..=queries.len() as u64).map(RequestId).collect();
        let requests: Vec<HttpRequest> = queries
            .iter()
            .map(|q| HttpRequest::get("/t.php", q))
            .collect();
        let responses: Vec<HttpResponse> = rids
            .iter()
            .zip(traced)
            .map(|(rid, (status, headers, body))| HttpResponse {
                rid_label: label(*rid),
                status: *status,
                headers: headers
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                body: body.to_string(),
            })
            .collect();
        let mut events: Vec<Event> = rids
            .iter()
            .zip(&requests)
            .map(|(rid, req)| Event::Request(*rid, req.clone()))
            .collect();
        events.extend(
            rids.iter()
                .zip(&responses)
                .map(|(rid, r)| Event::Response(*rid, r.clone())),
        );
        let segment = encode_segment(&events);
        let view = SegmentView::parse(&segment, "t").unwrap();
        let expected: Vec<ResponseRef<'_>> = view
            .events()
            .filter_map(|e| match e {
                EventRef::Response(_, resp) => Some(resp),
                EventRef::Request(..) => None,
            })
            .collect();
        let reports = Reports {
            groupings: vec![(CtlFlowTag(1), rids.clone())],
            op_logs: Default::default(),
            op_counts: rids.iter().map(|r| (*r, 0)).collect(),
            nondet: Default::default(),
        };
        // The context's own trace is labelled honestly: a mislabelled
        // response never gets past the balance scan of an audit.
        for event in &mut events {
            if let Event::Response(rid, resp) = event {
                resp.rid_label = *rid;
            }
        }
        let (trace, config) = (Trace { events }, AuditConfig::new());
        let inputs: Vec<_> = requests.iter().map(request_input).collect();
        let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
        let checked = check_group(&script, &rids, &inputs, &expected, &mut ctx).unwrap();
        ctx.reset_requests(&rids);
        let built = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
        for (l, out) in built.outputs.into_iter().enumerate() {
            let page = HttpResponse {
                rid_label: rids[l],
                status: out.status,
                headers: out.headers,
                body: out.body,
            };
            assert_eq!(
                checked.outputs[l],
                expected[l] == page,
                "lane {l}: {page:?}"
            );
        }
        checked.outputs
    }

    const OK: u16 = 200;

    #[test]
    fn lanes_that_echo_different_cuts_of_one_page_both_match() {
        // Three lanes owe one page; the first echo lands them at
        // cursors 2, 1 and 2.
        let bits = check(
            "echo $_GET['a']; echo $_GET['b']; echo '!';",
            &[
                &[("a", "ab"), ("b", "c")],
                &[("a", "a"), ("b", "bc")],
                &[("a", "ab"), ("b", "d")],
            ],
            &[(OK, &[], "abc!"), (OK, &[], "abc!"), (OK, &[], "abc!")],
        );
        assert_eq!(bits, [true, true, false]);
    }

    #[test]
    fn die_prints_its_string_after_the_echoes() {
        let page = |s| (OK, &[][..], s);
        let bits = check(
            "echo 'x'; echo $_GET['a']; die($_GET['m']); echo 'z';",
            &[
                &[("a", "1"), ("m", "y")],
                &[("a", "2"), ("m", "w")],
                &[("a", "1"), ("m", "y")],
                &[("a", "1"), ("m", "y")],
            ],
            // A prefix of the page, and the page plus what follows the
            // `die`, must not pass.
            &[page("x1y"), page("x2w"), page("x1"), page("x1yz")],
        );
        assert_eq!(bits, [true, true, false, false]);
        let bits = check(
            "echo $_GET['a']; die('bye');",
            &[&[("a", "1")], &[("a", "2")]],
            &[page("1bye"), page("2bye")],
        );
        assert_eq!(bits, [true, true]);
    }

    #[test]
    fn a_uniform_fatal_after_echoes_answers_the_500_page_alone() {
        let fatal = "Fatal error: header(): malformed header";
        let bits = check(
            "echo 'x'; echo $_GET['a']; header('no colon'); echo 'z';",
            &[
                &[("a", "1")],
                &[("a", "2")],
                &[("a", "3")],
                &[("a", "4")],
                &[("a", "5")],
            ],
            &[
                (500, &[], fatal),
                (500, &[], fatal),
                // Status, headers and the echoes before the fatal all
                // count against a lane.
                (OK, &[], fatal),
                (500, &[("X", "1")], fatal),
                (500, &[], "x3"),
            ],
        );
        assert_eq!(bits, [true, true, false, false, false]);
    }

    #[test]
    fn an_empty_page_matches_only_an_empty_body() {
        let bits = check(
            "$x = $_GET['a'];",
            &[&[("a", "1")], &[("a", "2")]],
            &[(OK, &[], ""), (OK, &[], "a")],
        );
        assert_eq!(bits, [true, false]);
    }

    #[test]
    fn status_and_headers_are_judged_per_lane_under_one_body() {
        let bits = check(
            "header('X-A: ' . $_GET['a']); http_response_code(201); echo 'same';",
            &[&[("a", "1")], &[("a", "2")], &[("a", "3")]],
            &[
                (201, &[("X-A", "1")], "same"),
                (201, &[("X-A", "9")], "same"),
                (200, &[("X-A", "3")], "same"),
            ],
        );
        assert_eq!(bits, [true, false, false]);
    }

    #[test]
    fn a_response_labelled_for_another_request_does_not_match() {
        let bits = check_labelled(
            "echo 'same';",
            &[&[("a", "1")], &[("a", "2")]],
            &[(OK, &[], "same"), (OK, &[], "same")],
            |rid| {
                if rid == RequestId(2) {
                    RequestId(1)
                } else {
                    rid
                }
            },
        );
        assert_eq!(bits, [true, false]);
    }
}
