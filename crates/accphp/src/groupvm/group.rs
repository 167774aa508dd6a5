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
    ctl_flow_tag, digest_mix, fnv1a, ops, pairs_to_array, server_array, Ending, LaneDomain, PathOp,
    RequestInput, RequestOutput, Slot, VmError, STEP_LIMIT_EXCEEDED,
};
use orochi_sqldb::{ExecOutcome, SqlValue};
use orochi_state::object::ObjectName;
use orochi_trace::ResponseRef;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use super::GroupOutcome;

/// SELECT outcomes turned into PHP arrays. Stays at or below
/// `db_queries_issued × groups` while conversion is per distinct result
/// per group; per-lane conversion would put it near `db_queries`.
static RESULT_CONVERSIONS: LazyCounter = LazyCounter::new("accphp_result_conversions");

/// Why the superposed interpreter stopped early: a rejection (a
/// non-uniform decision is [`Rejection::Divergence`]), or an ending every
/// lane reached at one instruction.
pub(super) enum Flow {
    Reject(Rejection),
    /// A fatal error: lane `l` answers the 500 page of its own message,
    /// `messages.lane(l)`.
    Fatal(MVal),
    /// `exit`/`die`.
    Exit,
}

impl From<Rejection> for Flow {
    fn from(r: Rejection) -> Self {
        Flow::Reject(r)
    }
}

impl From<VmError> for Flow {
    /// An error every lane met alike.
    fn from(e: VmError) -> Self {
        match e {
            VmError::Fatal(m) => Flow::Fatal(MVal::Uni(Value::str(m))),
            VmError::Exit => Flow::Exit,
            VmError::AuditReject(m) => Flow::Reject(Rejection::ExecFailure(m)),
        }
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
    /// Every lane forgets what it echoed (a fatal replaces the page).
    fn clear(&mut self);
    /// The run ended with these per-lane statuses and headers.
    fn finish(
        self,
        rids: &[RequestId],
        statuses: &[u16],
        headers: Vec<Vec<(String, String)>>,
    ) -> Vec<Self::Out>;
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

    fn clear(&mut self) {
        self.0.iter_mut().for_each(String::clear);
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

    fn clear(&mut self) {
        self.at.fill(Some(0));
    }

    fn finish(
        self,
        rids: &[RequestId],
        statuses: &[u16],
        headers: Vec<Vec<(String, String)>>,
    ) -> Vec<bool> {
        // A lane matches when its label, status and headers do and its
        // echoes reached the end of the traced body.
        let lanes = self
            .expected
            .iter()
            .zip(&self.at)
            .zip(rids.iter().zip(statuses));
        (lanes.zip(headers))
            .map(|(((expected, at), (rid, status)), headers)| {
                *at == Some(expected.body_bytes().len())
                    && expected.rid_label() == *rid
                    && expected.status() == *status
                    && expected.headers() == *headers
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
    /// The control-flow digest, mixed as the scalar VM mixes each
    /// member's: every decision is uniform, so it is every member's.
    digest: u64,
    branch_events: u64,
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
            digest: fnv1a(script.path.as_bytes()),
            branch_events: 0,
            converted: HashMap::new(),
            decoded: HashMap::new(),
            db_main: ObjectName("db:main".into()),
            kv_apc: ObjectName("kv:apc".into()),
            args_buf: Vec::new(),
            enc: Encoder::new(),
            memo: LaneMemo::default(),
        }
    }

    /// Turns the interpreter's exit into the group's outcome and its
    /// control-flow tag, both as the scalar runtime makes them per
    /// request. Handing the sink its ending counts as output time.
    pub(super) fn finish(
        mut self,
        flow: Result<(), Flow>,
    ) -> Result<GroupOutcome<S::Out>, Rejection> {
        let (ending, fatal) = match flow {
            Err(Flow::Fatal(messages)) => (Ending::Fatal, Some(messages)),
            Err(Flow::Reject(r)) => return Err(r),
            // The scalar runtime's end-of-request hook: a leaked
            // transaction is a fatal; otherwise sessions are written back.
            _ if self.close_leaked_txns()? => {
                let leaked = Value::str("script ended with open transaction");
                (Ending::Fatal, Some(MVal::Uni(leaked)))
            }
            flow => {
                self.write_sessions_back()?;
                let ending = if flow.is_ok() {
                    Ending::Normal
                } else {
                    Ending::Exit
                };
                (ending, None)
            }
        };
        let t0 = Instant::now();
        if let Some(messages) = fatal {
            // Each lane's 500 page replaces its echoes, status and
            // headers; no session is written.
            self.out.clear();
            self.out.echo_each(|l| {
                Cow::Owned(format!("Fatal error: {}", messages.lane(l).as_php_str()))
            });
            self.statuses.fill(500);
            self.headers.iter_mut().for_each(Vec::clear);
        }
        let outputs = self.out.finish(self.rids, &self.statuses, self.headers);
        self.ctx.record_output_wall(t0.elapsed());
        Ok(GroupOutcome {
            outputs,
            tag: ctl_flow_tag(self.digest, ending, self.steps),
            univalent: self.univalent,
            multivalent: self.multivalent,
            logged_decodes: self.decoded.len() as u64,
        })
    }

    /// Mixes the next branch decision into the digest.
    fn mix_event(&mut self, taken: bool) {
        self.digest = digest_mix(self.digest, self.branch_events, taken);
        self.branch_events += 1;
    }

    /// One instruction's per-lane results: every lane's value, or how
    /// the run ends when every lane failed — a fatal, each lane with its
    /// own message. A failure in some lanes only is divergence.
    fn settle<T>(&self, results: Vec<Result<T, VmError>>) -> Result<Vec<T>, Flow> {
        if results.iter().all(Result::is_ok) {
            return Ok(results.into_iter().flatten().collect());
        }
        let mut messages = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Err(VmError::Fatal(m)) => messages.push(Value::str(m)),
                Err(e) => return Err(e.into()),
                Ok(_) => return Err(self.ctx.divergence().into()),
            }
        }
        Err(Flow::Fatal(MVal::from_lanes(messages)))
    }

    /// Closes transactions the script leaked (uniform control flow
    /// means all lanes leak together); returns true if any were open.
    fn close_leaked_txns(&mut self) -> Result<bool, Rejection> {
        let mut any = false;
        for handle in self.txns.iter_mut().filter_map(Option::take) {
            any = true;
            self.ctx.db_finish(handle, false)?;
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
    /// through [`LaneMemo::per_lane`]; accounts the instruction. When a
    /// lane fails, every lane runs again plainly to [`Self::settle`] how
    /// the group ends.
    fn apply<T: Clone>(
        &mut self,
        operands: &[&MVal],
        mut f: impl FnMut(usize) -> Result<T, VmError>,
    ) -> Result<Applied<T>, Flow> {
        let multi = operands.iter().any(|m| !m.is_uni());
        self.account(multi);
        if !multi {
            return Ok(Applied::Once(f(0)?));
        }
        match self.memo.per_lane(operands, self.lanes, &mut f) {
            Ok(values) => Ok(Applied::PerLane(values)),
            Err(_) => {
                let results = (0..self.lanes).map(f).collect();
                self.settle(results).map(Applied::PerLane)
            }
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
                path.apply(&mut v, &lane_keys, lane_value(0))?;
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
    /// `corrupt`, as they are for the scalar runtime on the server.
    fn decode_logged(&mut self, bytes: &'a [u8], corrupt: &str) -> Result<Value, VmError> {
        let key = (bytes.as_ptr(), bytes.len());
        if let Some(v) = self.decoded.get(&key) {
            return Ok(v.clone());
        }
        let v = Value::from_wire_bytes(bytes).map_err(|_| VmError::Fatal(corrupt.into()))?;
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
                let lines = self.apply(&[h], |l| builtins::header_line(&h.lane(l).as_php_str()))?;
                for (l, headers) in self.headers.iter_mut().enumerate() {
                    headers.push(lines.lane(l).clone());
                }
                Ok(MVal::Uni(Value::Null))
            }
            Builtin::HttpResponseCode => {
                let c = arg(0);
                let codes = self.apply(&[c], |l| builtins::status_code(c.lane(l)))?;
                for (l, status) in self.statuses.iter_mut().enumerate() {
                    *status = *codes.lane(l);
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
                            sessions.push(Ok(Value::empty_array()));
                            continue;
                        };
                        let obj = session_object(cookie);
                        sessions.push(match self.ctx.register_read(self.rids[l], &obj)? {
                            Some(bytes) => self.decode_logged(bytes, "corrupt session data"),
                            None => Ok(Value::empty_array()),
                        });
                    }
                    self.globals[3] = MVal::from_lanes(self.settle(sessions)?);
                }
                Ok(MVal::Uni(Value::Bool(true)))
            }
            Builtin::ApcFetch => {
                self.account(true);
                let mut out = Vec::with_capacity(self.lanes);
                for l in 0..self.lanes {
                    let k = arg(0).lane(l).as_php_str();
                    out.push(match self.ctx.kv_get(self.rids[l], &self.kv_apc, &k)? {
                        Some(bytes) => self.decode_logged(bytes, "corrupt apc data"),
                        None => Ok(Value::Bool(false)),
                    });
                }
                Ok(MVal::from_lanes(self.settle(out)?))
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
                        return Err(VmError::Fatal("nested transaction".into()).into());
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
                        let msg = format!("{}() without transaction", builtin.name());
                        return Err(VmError::Fatal(msg).into());
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
                    out.push(builtins::mt_rand_reduce(raw, &lane_args));
                }
                Ok(MVal::from_lanes(self.settle(out)?))
            }
            other => {
                let msg = format!(
                    "impure builtin {}() not handled in grouped mode",
                    other.name()
                );
                Err(VmError::Fatal(msg).into())
            }
        }
    }
}

/// A group is a domain of one lane per member: registers hold
/// [`MVal`]s, an instruction with univalent operands runs once and one
/// with multivalent operands per lane, and a branch must decide the same
/// way in every lane or the group diverges, which rejects.
impl<S: Sink> LaneDomain for Group<'_, '_, S> {
    type Reg = MVal;
    type Iter = GroupIter;
    type Error = Flow;

    #[inline]
    fn uni(v: Value) -> MVal {
        MVal::Uni(v)
    }

    #[inline]
    fn step(&mut self) -> Result<(), Flow> {
        if self.steps >= self.step_limit {
            return Err(VmError::Fatal(STEP_LIMIT_EXCEEDED.into()).into());
        }
        self.steps += 1;
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
            .map_err(|()| self.ctx.divergence())?;
        self.mix_event(truth == jump_if);
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
                let next = iter.next_entry();
                self.mix_event(next.is_some());
                let Some((k, v)) = next else {
                    return Ok(false);
                };
                let key = want_key.then(|| MVal::Uni(k.to_value()));
                (key, MVal::Uni(v.clone()))
            }
            GroupIter::PerLane { arrays, iters } => {
                let has_next = iters[0].peek().is_some();
                if iters.iter().any(|it| it.peek().is_some() != has_next) {
                    self.account(true);
                    return Err(self.ctx.divergence().into());
                }
                self.mix_event(has_next);
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

impl<T> Applied<T> {
    /// Lane `l`'s result.
    fn lane(&self, l: usize) -> &T {
        match self {
            Applied::Once(v) => v,
            Applied::PerLane(vs) => &vs[l],
        }
    }
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
        // One context per run: each runs every request once.
        let prepare = || AuditContext::prepare(&trace, &reports, &config).unwrap();
        let checked = check_group(&script, &rids, &inputs, &expected, &mut prepare()).unwrap();
        let built = run_group(&script, &rids, &inputs, &mut prepare()).unwrap();
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
