//! The register VM: one dispatch loop ([`execute`]) over fixed-width
//! 32-bit instructions with explicit source/destination register
//! operands (see [`crate::bytecode::ROp`]), a flat pooled register file
//! shared by all frames (a call's window starts where the caller's
//! ends, so calls allocate nothing on the hot path), and
//! literal/global/builtin references resolved to dense table indices at
//! compile time.
//!
//! The loop is generic over the lanes it runs in ([`LaneDomain`]). This
//! module's domain is one request ([`run_request`]: the server's VM and
//! the verifier's scalar re-execution); acc-PHP's group of requests is
//! the other, in `orochi-accphp`. The [`stack`] submodule is a test
//! oracle: its own compiler and a stack-bytecode interpreter over the
//! same request runtime.
//!
//! The scalar domain maintains the **control-flow digest** (§4.3): at every
//! conditional branch and iteration step, the digest absorbs the
//! per-request *branch-event ordinal* and the direction taken, so
//! requests with identical digests followed identical control-flow
//! paths. Mixing the event ordinal (not the program counter) keeps
//! digests independent of the encoding: the oracle's compiler emits
//! digest-mixed events in the same evaluation order. [`ctl_flow_tag`]
//! folds the digest, the request's [`Ending`] and its register
//! instruction count into the tag the server records; the oracle counts
//! stack instructions, so it agrees on digest and ending, not on tag.
//!
//! PHP semantics implemented here (arithmetic overflow to float, `/`
//! returning int only for exact integer division, string offsets, array
//! copy-on-write) are shared with the multivalue VM via
//! [`crate::builtins`] and the ops in this module's `ops` submodule.

use crate::backend::{BackendError, RuntimeBackend};
use crate::builtins::{self, Host};
use crate::bytecode::{rinsn, CompiledScript, ROp};
use crate::value::{ForeachIter, Key, NextKeyOccupied, PhpArray, Value};
use orochi_common::codec::Wire;
use orochi_common::ids::CtlFlowTag;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

pub mod stack;

/// The session cookie name every application uses.
pub const SESSION_COOKIE: &str = "sess";

/// Runtime failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A fatal PHP error: the request answers with a 500 page. The
    /// message is deterministic, so the verifier reproduces it exactly.
    Fatal(String),
    /// The verifier-side backend rejected an operation; the audit fails.
    AuditReject(String),
    /// `exit` / `die`: normal termination.
    Exit,
}

impl From<NextKeyOccupied> for VmError {
    fn from(e: NextKeyOccupied) -> Self {
        VmError::Fatal(e.to_string())
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fatal(m) => write!(f, "fatal error: {m}"),
            VmError::AuditReject(m) => write!(f, "audit rejection: {m}"),
            VmError::Exit => write!(f, "exit"),
        }
    }
}

impl From<BackendError> for VmError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::AuditReject(m) => VmError::AuditReject(m),
            BackendError::Fatal(m) => VmError::Fatal(m),
        }
    }
}

/// The request as the runtime sees it (decoupled from `orochi-trace`):
/// a borrowed view, so neither the server nor a verifier lane copies the
/// request before the superglobals are built from it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestInput<'a> {
    /// HTTP method.
    pub method: &'a str,
    /// Script path.
    pub path: &'a str,
    /// `$_GET`.
    pub get: &'a [(String, String)],
    /// `$_POST`.
    pub post: &'a [(String, String)],
    /// `$_COOKIE`.
    pub cookies: &'a [(String, String)],
}

impl<'a> RequestInput<'a> {
    /// The session cookie value, if the client sent one.
    pub fn session_cookie(&self) -> Option<&'a str> {
        self.cookies
            .iter()
            .find(|(k, _)| k == SESSION_COOKIE)
            .map(|(_, v)| v.as_str())
    }
}

/// What the runtime produced for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutput {
    /// HTTP status (200 unless set; 500 on fatal error).
    pub status: u16,
    /// Headers added by the program.
    pub headers: Vec<(String, String)>,
    /// The page body.
    pub body: String,
}

/// Execution counters (feed Figs. 10 and 11).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Instructions executed (dispatch count of the engine that ran).
    pub instructions: u64,
}

/// How a request ended, taken after the end-of-request hook and the
/// session write-back (so a leaked transaction ends it in a fatal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// The script ran to its end.
    Normal,
    /// `exit` / `die`.
    Exit,
    /// A fatal error: the 500 page.
    Fatal,
}

/// Result of running one request.
#[derive(Debug)]
pub struct RunResult {
    /// The response content.
    pub output: RequestOutput,
    /// The control-flow digest: the branch and iteration decisions only
    /// (§4.3), which the stack oracle reproduces.
    pub digest: u64,
    /// How the request ended.
    pub ending: Ending,
    /// Execution counters.
    pub stats: ExecStats,
}

impl RunResult {
    /// The request's control-flow tag ([`ctl_flow_tag`]).
    pub fn tag(&self) -> CtlFlowTag {
        ctl_flow_tag(self.digest, self.ending, self.stats.instructions)
    }
}

/// Instructions one request may execute before it fails with
/// [`STEP_LIMIT_EXCEEDED`]. The server, the scalar and group VMs and the
/// stack oracle stop at this same count, so a runaway script produces
/// the same fatal page online and in the audit.
pub const STEP_LIMIT: u64 = 200_000_000;

/// The fatal message of a request that ran past [`STEP_LIMIT`].
pub const STEP_LIMIT_EXCEEDED: &str = "execution step limit exceeded";

/// FNV-1a over bytes; used to seed the digest with the script path.
/// Re-exported from [`orochi_common::hash`] (one canonical definition).
pub use orochi_common::hash::fnv1a;

/// The control-flow tag of a run: its branch `digest`, how it ended and
/// after how many register instructions. The server records it, and the
/// audit recomputes it on every run, scalar or grouped, and rejects a
/// unit whose claimed tag differs ([`orochi_common::ids::CtlFlowTag`]).
/// Requests with one tag took one path and stopped at one instruction in
/// one way, so they run as one group without diverging.
pub fn ctl_flow_tag(digest: u64, ending: Ending, instructions: u64) -> CtlFlowTag {
    let mix = |d: u64, word: u64| (d ^ word).wrapping_mul(orochi_common::hash::FNV_PRIME);
    CtlFlowTag(mix(mix(digest, ending as u64), instructions))
}

/// Mixes one branch decision into a digest. `event` is the per-request
/// branch-event ordinal (0, 1, 2, …), not a program counter, so the
/// digest does not depend on the bytecode encoding.
#[inline]
pub fn digest_mix(digest: u64, event: u64, taken: bool) -> u64 {
    (digest ^ ((event << 1) | taken as u64)).wrapping_mul(orochi_common::hash::FNV_PRIME)
}

/// Which function a stack-oracle frame executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnRef {
    Main,
    User(u16),
}

/// Runs one request through a compiled script.
///
/// On a fatal error the result is a deterministic 500 response — the
/// online server and the verifier produce the identical page. An
/// audit-side rejection (only possible with a checking backend) is
/// returned as `Err`.
///
/// # Examples
///
/// ```
/// use orochi_php::backend::NullBackend;
/// use orochi_php::vm::{run_request, RequestInput};
/// use orochi_php::{compile, parse_script};
///
/// let script = compile(
///     "/hello.php",
///     &parse_script("<?php echo 'hello ' . $_GET['who'];").unwrap(),
/// )
/// .unwrap();
/// let mut backend = NullBackend;
/// let input = RequestInput {
///     method: "GET",
///     path: "/hello.php",
///     get: &[("who".to_string(), "world".to_string())],
///     ..Default::default()
/// };
/// let result = run_request(&script, &mut backend, &input).unwrap();
/// assert_eq!(result.output.body, "hello world");
/// assert_eq!(result.output.status, 200);
/// ```
pub fn run_request(
    script: &CompiledScript,
    backend: &mut dyn RuntimeBackend,
    input: &RequestInput<'_>,
) -> Result<RunResult, String> {
    let mut rt = Runtime::new(script, backend, input);
    let outcome = execute(script, &mut rt);
    rt.finish(outcome)
}

/// `$_SERVER` for a request.
pub fn server_array(input: &RequestInput<'_>) -> Value {
    let mut server = PhpArray::new();
    server.set(Key::Str("REQUEST_METHOD"), Value::str(input.method));
    server.set(Key::Str("SCRIPT_NAME"), Value::str(input.path));
    Value::array(server)
}

/// One request's side of a scalar run: the backend, the globals, the
/// response being built, the control-flow digest and the step budget.
/// It is the register loop's one-lane domain (the counterpart of
/// acc-PHP's `Group`), and the stack oracle runs its own operand
/// traffic over it.
struct Runtime<'a> {
    backend: &'a mut dyn RuntimeBackend,
    globals: Vec<Value>,
    output: String,
    headers: Vec<(String, String)>,
    status: u16,
    digest: u64,
    branch_events: u64,
    session_started: bool,
    session_cookie: Option<String>,
    last_insert_id: i64,
    last_affected: i64,
    stats: ExecStats,
    step_limit: u64,
    /// Scratch buffer for builtin argument marshalling (reused).
    args_buf: Vec<Value>,
}

impl<'a> Runtime<'a> {
    /// A request's starting state: superglobals in their fixed slots,
    /// every other global null, the digest seeded with the script path.
    fn new<F>(
        script: &CompiledScript<F>,
        backend: &'a mut dyn RuntimeBackend,
        input: &RequestInput<'_>,
    ) -> Self {
        let mut globals = vec![Value::Null; script.global_names.len()];
        globals[0] = pairs_to_array(input.get);
        globals[1] = pairs_to_array(input.post);
        globals[2] = pairs_to_array(input.cookies);
        globals[3] = Value::empty_array(); // $_SESSION until session_start.
        globals[4] = server_array(input);
        Runtime {
            backend,
            globals,
            output: String::new(),
            headers: Vec::new(),
            status: 200,
            digest: fnv1a(script.path.as_bytes()),
            branch_events: 0,
            session_started: false,
            session_cookie: input.session_cookie().map(str::to_string),
            last_insert_id: 0,
            last_affected: 0,
            stats: ExecStats::default(),
            step_limit: STEP_LIMIT,
            args_buf: Vec::new(),
        }
    }

    /// Counts one dispatched instruction, failing past the step limit.
    #[inline]
    fn step(&mut self) -> Result<(), VmError> {
        if self.stats.instructions >= self.step_limit {
            return Err(VmError::Fatal(STEP_LIMIT_EXCEEDED.into()));
        }
        self.stats.instructions += 1;
        Ok(())
    }

    /// Mixes the next branch-event ordinal into the digest.
    #[inline]
    fn mix_event(&mut self, taken: bool) {
        self.digest = digest_mix(self.digest, self.branch_events, taken);
        self.branch_events += 1;
    }

    /// Turns the interpreter's outcome into the response: on normal
    /// completion the end-of-request hook runs and the session is
    /// written back; a fatal error becomes the deterministic 500 page.
    fn finish(mut self, outcome: Result<(), VmError>) -> Result<RunResult, String> {
        let exited = outcome == Err(VmError::Exit);
        let closed = match outcome {
            // End-of-request hook: leaked transactions become a
            // deterministic fatal on both the server and the verifier.
            // Then, on normal completion, persist the session if one
            // was started.
            Ok(()) | Err(VmError::Exit) => self
                .backend
                .end_of_request()
                .map_err(VmError::from)
                .and_then(|()| self.write_session_back()),
            Err(e) => Err(e),
        };
        let (ending, output) = match closed {
            Ok(()) | Err(VmError::Exit) => (
                if exited { Ending::Exit } else { Ending::Normal },
                RequestOutput {
                    status: self.status,
                    headers: self.headers,
                    body: self.output,
                },
            ),
            Err(VmError::Fatal(message)) => (
                Ending::Fatal,
                RequestOutput {
                    status: 500,
                    headers: Vec::new(),
                    body: format!("Fatal error: {message}"),
                },
            ),
            Err(VmError::AuditReject(m)) => return Err(m),
        };
        Ok(RunResult {
            output,
            digest: self.digest,
            ending,
            stats: self.stats,
        })
    }

    fn write_session_back(&mut self) -> Result<(), VmError> {
        if !self.session_started {
            return Ok(());
        }
        let Some(cookie) = self.session_cookie.clone() else {
            return Ok(());
        };
        let bytes = self.globals[3].to_wire_bytes();
        self.backend
            .register_write(&format!("reg:sess:{cookie}"), bytes)?;
        Ok(())
    }
}

/// Where a path instruction's container lives: a register, or a global
/// slot the domain resolves against its own globals.
#[derive(Debug)]
pub enum Slot<R> {
    /// A register of the running frame (or an array literal under
    /// construction).
    Reg(R),
    /// A global, by slot.
    Global(usize),
}

impl<R> Slot<&mut R> {
    /// The container, a global taken from `globals`.
    pub fn resolve<'s>(&'s mut self, globals: &'s mut [R]) -> &'s mut R {
        match self {
            Slot::Reg(r) => r,
            Slot::Global(slot) => &mut globals[*slot],
        }
    }
}

impl<R> Slot<&R> {
    /// The container, a global read from `globals`.
    pub fn get<'s>(&'s self, globals: &'s [R]) -> &'s R {
        match self {
            Slot::Reg(r) => r,
            Slot::Global(slot) => &globals[*slot],
        }
    }
}

/// A write through an index path, as [`LaneDomain::write_path`] applies
/// it to each lane's container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOp {
    /// `$c[k1]..[kn] = v`.
    Set,
    /// `$c[k1]..[kn][] = v`.
    Append,
    /// `unset($c[k1]..[kn])`; the value is ignored.
    Unset,
    /// `[.., v]`: appends to an array literal under construction.
    LiteralAppend,
    /// `[.., k => v]`: inserts under the one key.
    LiteralInsert,
}

impl PathOp {
    /// Applies the write to one lane's `container`.
    pub fn apply<K: Borrow<Value>>(
        self,
        container: &mut Value,
        keys: &[K],
        value: Value,
    ) -> Result<(), VmError> {
        match self {
            PathOp::Set => ops::set_path(container, keys, value),
            PathOp::Append => ops::append_path(container, keys, value),
            PathOp::Unset => {
                ops::unset_path(container, keys);
                Ok(())
            }
            PathOp::LiteralAppend => {
                *container = ops::array_append(std::mem::replace(container, Value::Null), value)?;
                Ok(())
            }
            PathOp::LiteralInsert => {
                let key = keys[0].borrow();
                *container =
                    ops::array_insert(std::mem::replace(container, Value::Null), key, value)?;
                Ok(())
            }
        }
    }
}

/// The lanes the register loop ([`execute`]) runs in. The loop owns the
/// register file, the frames and the calls; a domain supplies what a
/// register holds and everything an instruction does with it. One
/// request is a domain of one lane ([`Value`] registers, the serving VM
/// and simple re-execution); a control-flow group is a domain of one
/// lane per member (multivalue registers, acc-PHP's superposed run).
pub trait LaneDomain {
    /// What a register holds.
    type Reg: Clone;
    /// An active `foreach`.
    type Iter;
    /// Why a run stops early: at the least, a fatal error uniform
    /// across lanes.
    type Error: From<VmError>;

    /// A register every lane agrees on.
    fn uni(v: Value) -> Self::Reg;

    /// An empty register.
    fn null() -> Self::Reg {
        Self::uni(Value::Null)
    }

    /// Counts one dispatched instruction, failing past the step limit.
    fn step(&mut self) -> Result<(), Self::Error>;

    /// Counts an instruction no operand of which can differ between
    /// lanes (a constant, a jump, a call, a return).
    fn once(&mut self) {}

    /// `v`, copied into another register.
    fn copy(&mut self, v: &Self::Reg) -> Self::Reg {
        v.clone()
    }

    /// Loads constant `v` into `dst`.
    fn load_const(&mut self, dst: &mut Self::Reg, v: &Value) {
        self.once();
        *dst = Self::uni(v.clone());
    }

    /// A copy of global `slot`.
    fn load_global(&mut self, slot: usize) -> Self::Reg;

    /// Stores a copy of `v` in global `slot`.
    fn store_global(&mut self, slot: usize, v: &Self::Reg);

    /// `f` over one operand in every lane.
    fn lift1(
        &mut self,
        x: &Self::Reg,
        f: impl Fn(&Value) -> Result<Value, VmError>,
    ) -> Result<Self::Reg, Self::Error>;

    /// `f` over two operands in every lane.
    fn lift2(
        &mut self,
        x: &Self::Reg,
        y: &Self::Reg,
        f: impl Fn(&Value, &Value) -> Result<Value, VmError>,
    ) -> Result<Self::Reg, Self::Error>;

    /// Whether a conditional jump on `cond` is taken: it jumps when the
    /// condition's truthiness is `jump_if`.
    fn branch(&mut self, cond: &Self::Reg, jump_if: bool) -> Result<bool, Self::Error>;

    /// Writes through an index path: `op` on the container at `slot`
    /// with `keys` and `value`.
    fn write_path(
        &mut self,
        slot: Slot<&mut Self::Reg>,
        keys: &[Self::Reg],
        value: Option<&Self::Reg>,
        op: PathOp,
    ) -> Result<(), Self::Error>;

    /// `isset` through an index path.
    fn isset_path(
        &mut self,
        slot: Slot<&Self::Reg>,
        keys: &[Self::Reg],
    ) -> Result<Self::Reg, Self::Error>;

    /// `++`/`--` on a slot (`variant` as in [`ops::incdec`]); returns the
    /// expression's value.
    fn incdec(
        &mut self,
        slot: Slot<&mut Self::Reg>,
        variant: usize,
    ) -> Result<Self::Reg, Self::Error>;

    /// Calls builtin `bidx` on `regs[..argc]`. The result lands in
    /// `regs[0]`; a by-reference builtin's new target does, with its
    /// return value in `regs[1]`.
    fn call_builtin(
        &mut self,
        bidx: u16,
        regs: &mut [Self::Reg],
        argc: usize,
    ) -> Result<(), Self::Error>;

    /// `echo v`.
    fn echo(&mut self, v: &Self::Reg);

    /// Starts a `foreach` over `v` (snapshot semantics).
    fn iter_init(&mut self, v: &Self::Reg) -> Self::Iter;

    /// One iteration step: stores the next key and value in `dst[0]`
    /// and `dst[1]` when `want_key`, else the value in `dst[0]`; false
    /// at the end.
    fn iter_next(
        &mut self,
        iter: &mut Self::Iter,
        want_key: bool,
        dst: &mut [Self::Reg],
    ) -> Result<bool, Self::Error>;
}

/// An activation record. The running frame's code, pc and base live in
/// the loop's locals; the record keeps a caller's while a callee runs.
struct Frame<'s, I> {
    code: &'s [u32],
    pc: usize,
    /// First register of this frame's window in the flat file.
    base: usize,
    /// One past the window (`base + register_count`): the callee base.
    top: usize,
    /// Absolute register that receives this frame's return value.
    ret_abs: usize,
    iters: Vec<I>,
}

/// The call stack. Records are pooled: `pool[..depth]` are live, and a
/// popped record keeps its iterator vector's capacity for the next call.
struct Frames<'s, I> {
    pool: Vec<Frame<'s, I>>,
    depth: usize,
}

impl<'s, I> Frames<'s, I> {
    fn push(&mut self, code: &'s [u32], base: usize, top: usize, ret_abs: usize) {
        if self.depth == self.pool.len() {
            self.pool.push(Frame {
                code,
                pc: 0,
                base,
                top,
                ret_abs,
                iters: Vec::new(),
            });
        } else {
            let f = &mut self.pool[self.depth];
            f.code = code;
            f.pc = 0;
            f.base = base;
            f.top = top;
            f.ret_abs = ret_abs;
            f.iters.clear();
        }
        self.depth += 1;
    }

    fn running(&mut self) -> &mut Frame<'s, I> {
        &mut self.pool[self.depth - 1]
    }
}

/// Runs `script`'s main body in `dom` to its end: the one register
/// dispatch loop. A flat register file is shared by all frames (a
/// call's window starts where the caller's ends, so calls allocate
/// nothing on the hot path); the domain's error ends the run.
pub fn execute<D: LaneDomain>(script: &CompiledScript, dom: &mut D) -> Result<(), D::Error> {
    let main = &script.main;
    let top = main.register_count as usize;
    let mut regs: Vec<D::Reg> = vec![D::null(); top];
    let mut frames = Frames {
        pool: Vec::new(),
        depth: 0,
    };
    frames.push(&main.reg_code, 0, top, 0);
    let (mut code, mut pc, mut base): (&[u32], usize, usize) = (&main.reg_code, 0, 0);
    loop {
        dom.step()?;
        let insn = code[pc];
        pc += 1;
        let a = base + rinsn::a(insn);
        let op = rinsn::op(insn);
        match op {
            ROp::Move => {
                regs[a] = dom.copy(&regs[base + rinsn::b(insn)]);
            }
            ROp::LoadConst => {
                dom.load_const(&mut regs[a], &script.consts[rinsn::bx(insn)]);
            }
            ROp::LoadGlobal => {
                regs[a] = dom.load_global(rinsn::b(insn));
            }
            ROp::StoreGlobal => {
                // A-field is the global slot for stores.
                dom.store_global(rinsn::a(insn), &regs[base + rinsn::b(insn)]);
            }
            ROp::Add | ROp::Sub | ROp::Mul | ROp::Div | ROp::Mod | ROp::Concat => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| ops::binary(op, x, y))?;
            }
            ROp::Eq => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| Ok(Value::Bool(x.loose_eq(y))))?;
            }
            ROp::Ne => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| Ok(Value::Bool(!x.loose_eq(y))))?;
            }
            ROp::Identical => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| Ok(Value::Bool(x.identical(y))))?;
            }
            ROp::NotIdentical => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| Ok(Value::Bool(!x.identical(y))))?;
            }
            ROp::Lt | ROp::Le | ROp::Gt | ROp::Ge => {
                let (x, y) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, y, |x, y| Ok(Value::Bool(ops::relational(op, x, y))))?;
            }
            ROp::Not => {
                let x = &regs[base + rinsn::b(insn)];
                regs[a] = dom.lift1(x, |x| Ok(Value::Bool(!x.is_truthy())))?;
            }
            ROp::Neg => {
                regs[a] = dom.lift1(&regs[base + rinsn::b(insn)], ops::negate)?;
            }
            ROp::Jump => {
                dom.once();
                pc = rinsn::bx(insn);
            }
            ROp::JumpIfFalse | ROp::JumpIfTrue => {
                if dom.branch(&regs[a], op == ROp::JumpIfTrue)? {
                    pc = rinsn::bx(insn);
                }
            }
            ROp::NewArray => {
                dom.once();
                regs[a] = D::uni(Value::empty_array());
            }
            ROp::ArrayAppend | ROp::ArrayInsert => {
                let mut arr = std::mem::replace(&mut regs[a], D::null());
                let (keys, value, path) = match op {
                    ROp::ArrayAppend => (&[][..], base + rinsn::b(insn), PathOp::LiteralAppend),
                    _ => {
                        let key = std::slice::from_ref(&regs[base + rinsn::b(insn)]);
                        (key, base + rinsn::c(insn), PathOp::LiteralInsert)
                    }
                };
                dom.write_path(Slot::Reg(&mut arr), keys, Some(&regs[value]), path)?;
                regs[a] = arr;
            }
            ROp::IndexGet => {
                let (x, k) = (&regs[base + rinsn::b(insn)], &regs[base + rinsn::c(insn)]);
                regs[a] = dom.lift2(x, k, |x, k| Ok(ops::index_get(x, k)))?;
            }
            ROp::SetPathLocal
            | ROp::SetPathGlobal
            | ROp::AppendPathLocal
            | ROp::AppendPathGlobal
            | ROp::UnsetPathLocal
            | ROp::UnsetPathGlobal => {
                let n = rinsn::c(insn);
                // Set: value at `a`, then n keys. Append: value at `a`,
                // then n-1 keys. Unset: n keys from `a`.
                let (path, keys) = match op {
                    ROp::SetPathLocal | ROp::SetPathGlobal => (PathOp::Set, 1..1 + n),
                    ROp::AppendPathLocal | ROp::AppendPathGlobal => (PathOp::Append, 1..n),
                    _ => (PathOp::Unset, 0..n),
                };
                let target = rinsn::b(insn);
                let local = matches!(
                    op,
                    ROp::SetPathLocal | ROp::AppendPathLocal | ROp::UnsetPathLocal
                );
                // Locals sit below temps, so a local target is strictly
                // below the value/key block and is written in place.
                let (slot, block) = if local {
                    let t = base + target;
                    let (lo, hi) = regs.split_at_mut(a.max(t + 1));
                    (Slot::Reg(&mut lo[t]), &*hi)
                } else {
                    (Slot::Global(target), &regs[a..])
                };
                let value = (path != PathOp::Unset).then(|| &block[0]);
                dom.write_path(slot, &block[keys], value, path)?;
            }
            ROp::IssetPathLocal | ROp::IssetPathGlobal => {
                let n = rinsn::c(insn);
                let target = rinsn::b(insn);
                let slot = match op {
                    ROp::IssetPathLocal => Slot::Reg(&regs[base + target]),
                    _ => Slot::Global(target),
                };
                regs[a] = dom.isset_path(slot, &regs[a..a + n])?;
            }
            ROp::IncDecLocal | ROp::IncDecGlobal => {
                let target = rinsn::b(insn);
                let slot = match op {
                    ROp::IncDecLocal => Slot::Reg(&mut regs[base + target]),
                    _ => Slot::Global(target),
                };
                regs[a] = dom.incdec(slot, rinsn::c(insn))?;
            }
            ROp::Call => {
                dom.once();
                let func = &script.functions[rinsn::a(insn)];
                let argc = rinsn::c(insn);
                let args_abs = base + rinsn::b(insn);
                let callee_base = frames.running().top;
                let callee_top = callee_base + func.register_count as usize;
                if regs.len() < callee_top {
                    regs.resize(callee_top, D::null());
                }
                let num_params = func.num_params as usize;
                // Move args into the callee window (they are dead temps
                // in the caller); extras are dropped.
                for i in 0..argc {
                    let v = std::mem::replace(&mut regs[args_abs + i], D::null());
                    if i < num_params {
                        regs[callee_base + i] = v;
                    }
                }
                for p in argc..num_params {
                    match func.defaults[p] {
                        Some(cidx) => {
                            regs[callee_base + p] = D::uni(script.consts[cidx as usize].clone())
                        }
                        None => {
                            let msg = format!("too few arguments to function {}()", func.name);
                            return Err(VmError::Fatal(msg).into());
                        }
                    }
                }
                if frames.depth >= 200 {
                    return Err(VmError::Fatal("call stack depth exceeded".into()).into());
                }
                // Clear the rest of the (pooled) window so stale values
                // from earlier activations never leak in.
                for r in &mut regs[callee_base + num_params..callee_top] {
                    *r = D::null();
                }
                frames.running().pc = pc;
                frames.push(&func.reg_code, callee_base, callee_top, args_abs);
                (code, pc, base) = (&func.reg_code, 0, callee_base);
            }
            ROp::CallBuiltin => {
                let abs = base + rinsn::b(insn);
                dom.call_builtin(rinsn::a(insn) as u16, &mut regs[abs..], rinsn::c(insn))?;
            }
            ROp::Return | ROp::ReturnNull => {
                dom.once();
                let ret_abs = frames.running().ret_abs;
                frames.depth -= 1;
                if frames.depth == 0 {
                    return Ok(());
                }
                // The callee's window is dead: the value moves out of it.
                match op {
                    ROp::Return => regs.swap(a, ret_abs),
                    _ => regs[ret_abs] = D::null(),
                }
                let caller = frames.running();
                (code, pc, base) = (caller.code, caller.pc, caller.base);
            }
            ROp::Echo => dom.echo(&regs[a]),
            ROp::IterInit => {
                let iter = dom.iter_init(&regs[a]);
                frames.running().iters.push(iter);
            }
            ROp::IterNext | ROp::IterNextKV => {
                let iter = frames.running().iters.last_mut();
                let iter = iter.expect("IterInit precedes IterNext");
                if !dom.iter_next(iter, op == ROp::IterNextKV, &mut regs[a..])? {
                    pc = rinsn::bx(insn);
                }
            }
            ROp::IterPop => {
                dom.once();
                frames.running().iters.pop();
            }
        }
    }
}

/// One request is a domain of one lane: registers hold [`Value`]s, a
/// branch mixes its direction into the digest, and impure builtins go
/// through the [`Host`] side of the runtime to its backend.
impl LaneDomain for Runtime<'_> {
    type Reg = Value;
    type Iter = ForeachIter;
    type Error = VmError;

    #[inline]
    fn uni(v: Value) -> Value {
        v
    }

    #[inline]
    fn step(&mut self) -> Result<(), VmError> {
        Runtime::step(self)
    }

    #[inline]
    fn load_const(&mut self, dst: &mut Value, v: &Value) {
        *dst = v.clone();
    }

    #[inline]
    fn load_global(&mut self, slot: usize) -> Value {
        self.globals[slot].clone()
    }

    #[inline]
    fn store_global(&mut self, slot: usize, v: &Value) {
        self.globals[slot] = v.clone();
    }

    #[inline]
    fn lift1(
        &mut self,
        x: &Value,
        f: impl Fn(&Value) -> Result<Value, VmError>,
    ) -> Result<Value, VmError> {
        f(x)
    }

    #[inline]
    fn lift2(
        &mut self,
        x: &Value,
        y: &Value,
        f: impl Fn(&Value, &Value) -> Result<Value, VmError>,
    ) -> Result<Value, VmError> {
        f(x, y)
    }

    #[inline]
    fn branch(&mut self, cond: &Value, jump_if: bool) -> Result<bool, VmError> {
        let taken = cond.is_truthy() == jump_if;
        self.mix_event(taken);
        Ok(taken)
    }

    #[inline]
    fn write_path(
        &mut self,
        mut slot: Slot<&mut Value>,
        keys: &[Value],
        value: Option<&Value>,
        op: PathOp,
    ) -> Result<(), VmError> {
        let value = value.map_or(Value::Null, Value::clone);
        op.apply(slot.resolve(&mut self.globals), keys, value)
    }

    #[inline]
    fn isset_path(&mut self, slot: Slot<&Value>, keys: &[Value]) -> Result<Value, VmError> {
        Ok(Value::Bool(ops::isset_path(slot.get(&self.globals), keys)))
    }

    #[inline]
    fn incdec(&mut self, mut slot: Slot<&mut Value>, variant: usize) -> Result<Value, VmError> {
        ops::incdec(slot.resolve(&mut self.globals), variant)
    }

    fn call_builtin(&mut self, bidx: u16, regs: &mut [Value], argc: usize) -> Result<(), VmError> {
        if builtins::is_byref(bidx) {
            let (new_target, ret) = builtins::dispatch_byref(bidx, &mut regs[..argc])?;
            regs[0] = new_target;
            regs[1] = ret;
        } else {
            // The arguments are dead temps: move them into the reused
            // buffer rather than clone them.
            let mut buf = std::mem::take(&mut self.args_buf);
            buf.clear();
            buf.extend(
                regs[..argc]
                    .iter_mut()
                    .map(|r| std::mem::replace(r, Value::Null)),
            );
            let ret = builtins::dispatch(bidx, &buf, self);
            self.args_buf = buf;
            regs[0] = ret?;
        }
        Ok(())
    }

    #[inline]
    fn echo(&mut self, v: &Value) {
        self.output.push_str(&v.as_php_str());
    }

    #[inline]
    fn iter_init(&mut self, v: &Value) -> ForeachIter {
        ForeachIter::over(v)
    }

    #[inline]
    fn iter_next(
        &mut self,
        iter: &mut ForeachIter,
        want_key: bool,
        dst: &mut [Value],
    ) -> Result<bool, VmError> {
        let next = iter.next_entry();
        self.mix_event(next.is_some());
        let Some((k, v)) = next else {
            return Ok(false);
        };
        if want_key {
            dst[0] = k.to_value();
        }
        dst[usize::from(want_key)] = v.clone();
        Ok(true)
    }
}

impl Host for Runtime<'_> {
    fn echo(&mut self, s: &str) {
        self.output.push_str(s);
    }

    fn add_header(&mut self, name: String, value: String) {
        self.headers.push((name, value));
    }

    fn set_status(&mut self, code: u16) {
        self.status = code;
    }

    fn session_start(&mut self) -> Result<(), VmError> {
        if self.session_started {
            return Ok(());
        }
        self.session_started = true;
        let Some(cookie) = self.session_cookie.clone() else {
            self.globals[3] = Value::empty_array();
            return Ok(());
        };
        let bytes = self.backend.register_read(&format!("reg:sess:{cookie}"))?;
        self.globals[3] = match bytes {
            Some(b) => Value::from_wire_bytes(&b)
                .map_err(|_| VmError::Fatal("corrupt session data".into()))?,
            None => Value::empty_array(),
        };
        Ok(())
    }

    fn kv_get(&mut self, key: &str) -> Result<Value, VmError> {
        let bytes = self.backend.kv_get("kv:apc", key)?;
        Ok(match bytes {
            Some(b) => {
                Value::from_wire_bytes(&b).map_err(|_| VmError::Fatal("corrupt apc data".into()))?
            }
            None => Value::Bool(false),
        })
    }

    fn kv_set(&mut self, key: &str, value: Option<&Value>) -> Result<(), VmError> {
        let bytes = value.map(|v| v.to_wire_bytes());
        self.backend.kv_set("kv:apc", key, bytes)?;
        Ok(())
    }

    fn db_begin(&mut self) -> Result<(), VmError> {
        self.backend.db_begin("db:main")?;
        Ok(())
    }

    fn db_query(&mut self, sql: &str) -> Result<Value, VmError> {
        let result = self.backend.db_query("db:main", sql)?;
        Ok(builtins::db_result_to_value(
            result,
            &mut self.last_insert_id,
            &mut self.last_affected,
        ))
    }

    fn db_commit(&mut self) -> Result<bool, VmError> {
        Ok(self.backend.db_commit("db:main")?)
    }

    fn db_rollback(&mut self) -> Result<(), VmError> {
        self.backend.db_rollback("db:main")?;
        Ok(())
    }

    fn db_insert_id(&mut self) -> i64 {
        self.last_insert_id
    }

    fn db_affected_rows(&mut self) -> i64 {
        self.last_affected
    }

    fn nd_time(&mut self) -> Result<i64, VmError> {
        Ok(self.backend.time()?)
    }

    fn nd_microtime(&mut self) -> Result<f64, VmError> {
        Ok(self.backend.microtime()?)
    }

    fn nd_getpid(&mut self) -> Result<i64, VmError> {
        Ok(self.backend.getpid()?)
    }

    fn nd_rand_raw(&mut self) -> Result<i64, VmError> {
        Ok(self.backend.mt_rand()?)
    }

    fn nd_uniqid(&mut self) -> Result<String, VmError> {
        Ok(self.backend.uniqid()?)
    }
}

/// The deterministic 404 run of an unrouted `path`, which runs no
/// instruction: the online server and the verifier share its page and
/// its digest, so output comparison and the tag check are meaningful.
pub fn not_found(path: &str) -> RunResult {
    RunResult {
        output: RequestOutput {
            status: 404,
            headers: Vec::new(),
            body: format!("Not Found: {path}"),
        },
        digest: fnv1a(format!("404:{path}").as_bytes()),
        ending: Ending::Normal,
        stats: ExecStats::default(),
    }
}

/// Builds a PHP assoc array from string pairs (superglobal
/// materialization, §4.2).
pub fn pairs_to_array(pairs: &[(String, String)]) -> Value {
    let mut a = PhpArray::map_with_capacity(pairs.len());
    for (k, v) in pairs {
        a.set(Key::of_str(k), Value::str(v.as_str()));
    }
    Value::array(a)
}

/// Shared scalar operation semantics, used by the scalar VM, the
/// multivalue VM (which applies them per lane) and the stack oracle.
/// Operators are named by their register opcode.
pub mod ops {
    use super::*;

    /// Binary arithmetic/string ops with PHP coercions.
    pub fn binary(op: ROp, a: &Value, b: &Value) -> Result<Value, VmError> {
        match op {
            ROp::Concat => Ok(Value::concat(a, b)),
            ROp::Add | ROp::Sub | ROp::Mul => {
                if let (Value::Array(_), _) | (_, Value::Array(_)) = (a, b) {
                    return Err(VmError::Fatal("unsupported operand types: array".into()));
                }
                match (int_view(a), int_view(b)) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            ROp::Add => x.checked_add(y),
                            ROp::Sub => x.checked_sub(y),
                            ROp::Mul => x.checked_mul(y),
                            _ => unreachable!("arith subset"),
                        };
                        Ok(match r {
                            Some(v) => Value::Int(v),
                            // PHP overflows int arithmetic into float.
                            None => {
                                let (x, y) = (x as f64, y as f64);
                                Value::Float(match op {
                                    ROp::Add => x + y,
                                    ROp::Sub => x - y,
                                    ROp::Mul => x * y,
                                    _ => unreachable!("arith subset"),
                                })
                            }
                        })
                    }
                    _ => {
                        let (x, y) = (a.to_php_float(), b.to_php_float());
                        Ok(Value::Float(match op {
                            ROp::Add => x + y,
                            ROp::Sub => x - y,
                            ROp::Mul => x * y,
                            _ => unreachable!("arith subset"),
                        }))
                    }
                }
            }
            ROp::Div => {
                if b.to_php_float() == 0.0 {
                    return Err(VmError::Fatal("division by zero".into()));
                }
                match (int_view(a), int_view(b)) {
                    (Some(x), Some(y)) if x % y == 0 => Ok(Value::Int(x / y)),
                    _ => Ok(Value::Float(a.to_php_float() / b.to_php_float())),
                }
            }
            ROp::Mod => {
                let y = b.to_php_int();
                if y == 0 {
                    return Err(VmError::Fatal("modulo by zero".into()));
                }
                Ok(Value::Int(a.to_php_int() % y))
            }
            other => unreachable!("not a binary op: {other:?}"),
        }
    }

    /// `<`, `<=`, `>`, `>=` (incomparable pairs yield false).
    pub fn relational(op: ROp, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        match a.loose_cmp(b) {
            None => false,
            Some(ord) => match op {
                ROp::Lt => ord == Less,
                ROp::Le => ord != Greater,
                ROp::Gt => ord == Greater,
                ROp::Ge => ord != Less,
                other => unreachable!("not relational: {other:?}"),
            },
        }
    }

    /// Unary minus.
    pub fn negate(v: &Value) -> Result<Value, VmError> {
        match v {
            Value::Int(i) => Ok(match i.checked_neg() {
                Some(n) => Value::Int(n),
                None => Value::Float(-(*i as f64)),
            }),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Array(_) => Err(VmError::Fatal("cannot negate array".into())),
            other => Ok(match int_view(other) {
                Some(i) => Value::Int(-i),
                None => Value::Float(-other.to_php_float()),
            }),
        }
    }

    /// Integer view used by arithmetic: ints, bools, and null (0).
    fn int_view(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            Value::Null => Some(0),
            Value::Str(s) => {
                // Fully-integer strings act as ints in arithmetic.
                let t = s.trim();
                t.parse::<i64>().ok()
            }
            _ => None,
        }
    }

    /// `++`/`--` on a storage slot (PHP: `null++` is 1, `null--` stays
    /// null). `variant` is the C operand of [`ROp::IncDecLocal`]: 0
    /// `++$x`, 1 `$x++`, 2 `--$x`, 3 `$x--`.
    pub fn incdec(slot: &mut Value, variant: usize) -> Result<Value, VmError> {
        let (inc, pre) = match variant {
            0 => (true, true),
            1 => (true, false),
            2 => (false, true),
            _ => (false, false),
        };
        let old = slot.clone();
        let new = match (&old, inc) {
            (Value::Null, true) => Value::Int(1),
            (Value::Null, false) => Value::Null,
            _ => binary(if inc { ROp::Add } else { ROp::Sub }, &old, &Value::Int(1))?,
        };
        *slot = new.clone();
        Ok(if pre { new } else { old })
    }

    /// `$a[] = v` on an array literal under construction.
    pub fn array_append(arr: Value, v: Value) -> Result<Value, VmError> {
        match arr {
            Value::Array(mut rc) => {
                Arc::make_mut(&mut rc).push(v)?;
                Ok(Value::Array(rc))
            }
            _ => Err(VmError::Fatal("append to non-array".into())),
        }
    }

    /// `$a[k] = v` on an array literal under construction.
    pub fn array_insert(arr: Value, k: &Value, v: Value) -> Result<Value, VmError> {
        match arr {
            Value::Array(mut rc) => {
                Arc::make_mut(&mut rc).set(Key::from_value(k), v);
                Ok(Value::Array(rc))
            }
            _ => Err(VmError::Fatal("insert into non-array".into())),
        }
    }

    /// Index read: arrays by key, strings by offset; anything else (or a
    /// missing key) yields null, as PHP does (sans the notice).
    pub fn index_get(base: &Value, key: &Value) -> Value {
        match base {
            Value::Array(a) => a.get(Key::from_value(key)).cloned().unwrap_or(Value::Null),
            Value::Str(s) => {
                let idx = key.to_php_int();
                if idx < 0 {
                    let n = s.chars().count() as i64;
                    let idx = n + idx;
                    if idx < 0 {
                        return Value::str("");
                    }
                    return Value::str(
                        s.chars()
                            .nth(idx as usize)
                            .map(|c| c.to_string())
                            .unwrap_or_default(),
                    );
                }
                Value::str(
                    s.chars()
                        .nth(idx as usize)
                        .map(|c| c.to_string())
                        .unwrap_or_default(),
                )
            }
            _ => Value::Null,
        }
    }

    /// Writes through an index path, materializing arrays along the way.
    /// Keys are values or references to them (the group VM passes each
    /// lane's keys without copying them out).
    pub fn set_path<K: Borrow<Value>>(
        container: &mut Value,
        keys: &[K],
        value: Value,
    ) -> Result<(), VmError> {
        if keys.is_empty() {
            *container = value;
            return Ok(());
        }
        ensure_array(container)?;
        let Value::Array(rc) = container else {
            unreachable!("ensure_array above");
        };
        let arr = Arc::make_mut(rc);
        let key = Key::from_value(keys[0].borrow());
        if keys.len() == 1 {
            arr.set(key, value);
            return Ok(());
        }
        set_path(arr.get_or_insert_null(key), &keys[1..], value)
    }

    /// Appends through an index path (`$a[k1]..[] = v`).
    pub fn append_path<K: Borrow<Value>>(
        container: &mut Value,
        keys: &[K],
        value: Value,
    ) -> Result<(), VmError> {
        ensure_array(container)?;
        let Value::Array(rc) = container else {
            unreachable!("ensure_array above");
        };
        let arr = Arc::make_mut(rc);
        if keys.is_empty() {
            arr.push(value)?;
            return Ok(());
        }
        let key = Key::from_value(keys[0].borrow());
        append_path(arr.get_or_insert_null(key), &keys[1..], value)
    }

    /// Unsets through an index path; missing steps are no-ops.
    pub fn unset_path<K: Borrow<Value>>(container: &mut Value, keys: &[K]) {
        if keys.is_empty() {
            *container = Value::Null;
            return;
        }
        let Value::Array(rc) = container else {
            return;
        };
        let key = Key::from_value(keys[0].borrow());
        // A missing step changes nothing, so it must not copy either.
        if !rc.has_key(key) {
            return;
        }
        let arr = Arc::make_mut(rc);
        if keys.len() == 1 {
            arr.remove(key);
            return;
        }
        if let Some(slot) = arr.get_mut(key) {
            unset_path(slot, &keys[1..]);
        }
    }

    /// `isset` through an index path: every step must exist and the
    /// final value must not be null.
    pub fn isset_path<K: Borrow<Value>>(container: &Value, keys: &[K]) -> bool {
        let mut cur = container;
        for k in keys {
            let k = k.borrow();
            match cur {
                Value::Array(a) => match a.get(Key::from_value(k)) {
                    Some(v) => cur = v,
                    None => return false,
                },
                Value::Str(s) => {
                    // isset($s[i]) on strings: offset in range.
                    let idx = k.to_php_int();
                    return idx >= 0 && (idx as usize) < s.chars().count();
                }
                _ => return false,
            }
        }
        !matches!(cur, Value::Null)
    }

    fn ensure_array(container: &mut Value) -> Result<(), VmError> {
        match container {
            Value::Array(_) => Ok(()),
            Value::Null => {
                *container = Value::empty_array();
                Ok(())
            }
            // PHP also auto-vivifies "" into an array historically;
            // modern PHP errors. We error, deterministically.
            other => Err(VmError::Fatal(format!(
                "cannot use {} as array",
                other.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NullBackend;
    use crate::compiler::compile;
    use crate::parser::parse_script;

    /// Runs a source snippet on the register VM and on the stack oracle
    /// and asserts they agree on output, digest and ending — every VM
    /// test doubles as a differential check on the register compiler.
    fn run_both(src: &str, get: &[(&str, &str)]) -> RunResult {
        let parsed = parse_script(src).unwrap();
        let script = compile("/t.php", &parsed).unwrap();
        let oracle = stack::compile("/t.php", &parsed).unwrap();
        let get: Vec<(String, String)> = get
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let input = RequestInput {
            method: "GET",
            path: "/t.php",
            get: &get,
            ..Default::default()
        };
        let mut b1 = NullBackend;
        let reg = run_request(&script, &mut b1, &input).unwrap();
        let mut b2 = NullBackend;
        let stk = stack::run_request(&oracle, &mut b2, &input).unwrap();
        assert_eq!(reg.output, stk.output, "engines disagree on output");
        assert_eq!(reg.digest, stk.digest, "engines disagree on digest");
        assert_eq!(reg.ending, stk.ending, "engines disagree on ending");
        reg
    }

    fn run(src: &str) -> String {
        run_with(src, &[])
    }

    fn run_with(src: &str, get: &[(&str, &str)]) -> String {
        run_both(src, get).output.body
    }

    #[test]
    fn arithmetic_and_echo() {
        assert_eq!(run("echo 1 + 2 * 3;"), "7");
        assert_eq!(run("echo 7 / 2;"), "3.5");
        assert_eq!(run("echo 6 / 2;"), "3");
        assert_eq!(run("echo 7 % 3;"), "1");
        assert_eq!(run("echo 'a' . 'b' . 3;"), "ab3");
        assert_eq!(run("echo -5 + 2;"), "-3");
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(run("$x = 4; $x += 2; echo $x;"), "6");
        assert_eq!(run("$s = 'a'; $s .= 'b'; echo $s;"), "ab");
        // Assignment is an expression.
        assert_eq!(run("$a = $b = 3; echo $a + $b;"), "6");
    }

    #[test]
    fn superglobals_materialized() {
        assert_eq!(
            run_with("echo $_GET['x'] + $_GET['y'];", &[("x", "1"), ("y", "3")]),
            "4"
        );
    }

    #[test]
    fn if_else_chains() {
        let src = "$x = 5;
            if ($x > 10) { echo 'big'; }
            elseif ($x > 3) { echo 'mid'; }
            else { echo 'small'; }";
        assert_eq!(run(src), "mid");
    }

    #[test]
    fn while_and_for_loops() {
        assert_eq!(run("$i = 0; while ($i < 3) { echo $i; $i++; }"), "012");
        assert_eq!(run("for ($i = 0; $i < 4; $i++) { echo $i; }"), "0123");
        assert_eq!(
            run("for ($i = 0; $i < 5; $i++) { if ($i == 2) { continue; } if ($i == 4) { break; } echo $i; }"),
            "013"
        );
    }

    #[test]
    fn array_pop_lowers_the_next_key() {
        let src = "$a = [1, 2, 3]; array_pop($a); $a[] = 9;
            foreach ($a as $k => $v) { echo $k . '=' . $v . ' '; }";
        assert_eq!(run(src), "0=1 1=2 2=9 ");
    }

    #[test]
    fn append_past_the_max_int_key_is_fatal() {
        let full = "$a = []; $a[9223372036854775807] = 1;";
        for append in ["$a[] = 2;", "array_push($a, 2);", "$b = [$a]; $b[0][] = 2;"] {
            let out = run_both(&format!("{full} {append} echo 'unreachable';"), &[]).output;
            assert_eq!(out.status, 500, "{append}");
            assert!(
                out.body.contains(
                    "Cannot add element to the array as the next element is already occupied"
                ),
                "{append}: {}",
                out.body
            );
        }
        // The key itself is an ordinary key.
        assert_eq!(run(&format!("{full} echo count($a);")), "1");
    }

    #[test]
    fn foreach_sees_the_array_it_started_with() {
        let src = "$a = [1, 2]; foreach ($a as $v) { $a[] = $v * 10; echo $v; } echo count($a);";
        assert_eq!(run(src), "124");
    }

    #[test]
    fn foreach_value_and_kv() {
        assert_eq!(run("foreach ([3, 4, 5] as $v) { echo $v; }"), "345");
        assert_eq!(
            run("foreach (['a' => 1, 'b' => 2] as $k => $v) { echo $k, $v; }"),
            "a1b2"
        );
        // Snapshot semantics: mutation inside the loop is invisible.
        assert_eq!(
            run("$a = [1, 2]; foreach ($a as $v) { $a[] = 9; echo $v; }"),
            "12"
        );
    }

    #[test]
    fn switch_fallthrough_and_default() {
        let src = "function f($x) {
            switch ($x) {
                case 1: return 'one';
                case 2:
                case 3: return 'few';
                default: return 'many';
            }
        }
        echo f(1), f(2), f(3), f(9);";
        assert_eq!(run(src), "onefewfewmany");
    }

    #[test]
    fn functions_defaults_and_recursion() {
        assert_eq!(
            run("function inc($x, $by = 1) { return $x + $by; } echo inc(1), inc(1, 5);"),
            "26"
        );
        assert_eq!(
            run("function fib($n) { if ($n < 2) { return $n; } return fib($n-1) + fib($n-2); } echo fib(10);"),
            "55"
        );
    }

    #[test]
    fn globals_visible_with_declaration() {
        let src = "$counter = 10;
            function bump() { global $counter; $counter++; return $counter; }
            echo bump(); echo bump(); echo $counter;";
        assert_eq!(run(src), "111212");
    }

    #[test]
    fn locals_do_not_leak() {
        let src = "$x = 'global';
            function f() { $x = 'local'; return $x; }
            echo f(), $x;";
        assert_eq!(run(src), "localglobal");
    }

    #[test]
    fn arrays_nested_paths() {
        let src = "$a = [];
            $a['u']['name'] = 'dana';
            $a['u']['n'] = 2;
            $a['u']['n'] += 3;
            $a['list'][] = 'x';
            $a['list'][] = 'y';
            echo $a['u']['name'], $a['u']['n'], count($a['list']);";
        assert_eq!(run(src), "dana52");
    }

    #[test]
    fn isset_and_unset() {
        let src = "$a = ['k' => 1, 'n' => null];
            echo isset($a['k']) ? 'y' : 'n';
            echo isset($a['n']) ? 'y' : 'n';
            echo isset($a['z']) ? 'y' : 'n';
            unset($a['k']);
            echo isset($a['k']) ? 'y' : 'n';
            echo isset($undefined) ? 'y' : 'n';";
        assert_eq!(run(src), "ynnnn");
    }

    #[test]
    fn ternary_and_elvis() {
        assert_eq!(run("echo 1 ? 'a' : 'b';"), "a");
        assert_eq!(run("echo 0 ?: 'dflt';"), "dflt");
        assert_eq!(run("echo 'v' ?: 'dflt';"), "v");
    }

    #[test]
    fn short_circuit_evaluation() {
        // The second operand must not run (division by zero would be
        // fatal).
        assert_eq!(run("echo (false && 1 / 0) ? 'y' : 'n';"), "n");
        assert_eq!(run("echo (true || 1 / 0) ? 'y' : 'n';"), "y");
    }

    #[test]
    fn string_indexing() {
        assert_eq!(run("$s = 'abc'; echo $s[1];"), "b");
        assert_eq!(run("$s = 'abc'; echo $s[-1];"), "c");
    }

    #[test]
    fn byref_builtins_through_both_engines() {
        assert_eq!(
            run("$a = [3, 1, 2]; sort($a); echo $a[0], $a[1], $a[2];"),
            "123"
        );
        assert_eq!(
            run("$a = []; array_push($a, 5, 6); echo count($a), array_pop($a);"),
            "26"
        );
        assert_eq!(
            run("$m = []; $m['row']['cells'] = [2, 1]; sort($m['row']['cells']); echo $m['row']['cells'][0];"),
            "1"
        );
    }

    #[test]
    fn fatal_errors_produce_500() {
        let result = run_both("echo 1 / 0;", &[]);
        assert_eq!(result.output.status, 500);
        assert!(result.output.body.contains("division by zero"));
    }

    #[test]
    fn runaway_loop_stops_at_the_step_limit_on_the_register_vm_and_the_oracle() {
        // Lowered through the private field: the limit is a constant,
        // not a knob. `accphp` runs the same script through the group
        // VM and expects this exact page.
        let parsed = parse_script("while (true) { $i = 1; }").unwrap();
        let script = compile("/t.php", &parsed).unwrap();
        let oracle = stack::compile("/t.php", &parsed).unwrap();
        let input = RequestInput {
            path: "/t.php",
            ..Default::default()
        };
        let (mut b1, mut b2) = (NullBackend, NullBackend);
        let mut reg = Runtime::new(&script, &mut b1, &input);
        reg.step_limit = 10_000;
        let outcome = execute(&script, &mut reg);
        let mut stk = stack::Vm::new(&oracle, &mut b2, &input);
        stk.rt.step_limit = 10_000;
        for result in [reg.finish(outcome).unwrap(), stk.run().unwrap()] {
            assert_eq!(result.stats.instructions, 10_000);
            assert_eq!(result.output.status, 500);
            assert_eq!(
                result.output.body,
                format!("Fatal error: {STEP_LIMIT_EXCEEDED}")
            );
        }
    }

    #[test]
    fn digest_distinguishes_control_flow() {
        let digest = |src, x| run_both(src, &[("x", x)]).digest;
        let branch = "if ($_GET['x'] == 1) { echo 'a'; } else { echo 'b'; }";
        assert_eq!(digest(branch, "1"), digest(branch, "1"));
        assert_ne!(digest(branch, "1"), digest(branch, "2"));
        // Same path, different data: same digest.
        assert_eq!(digest(branch, "2"), digest(branch, "3"));
        // The loop count is control flow.
        let count = "for ($i = 0; $i < intval($_GET['x']); $i++) { echo $i; }";
        assert_ne!(digest(count, "2"), digest(count, "3"));
        assert_eq!(digest(count, "3"), digest(count, "3"));
    }

    #[test]
    fn tags_distinguish_how_and_where_a_request_ended() {
        // Each row's two runs take no branch, so they share a digest;
        // they end differently, or at a different step with one message.
        type Get<'g> = &'g [(&'g str, &'g str)];
        let rows: [(&str, [Get<'_>; 2]); 2] = [
            (
                "echo intdiv(10, intval($_GET['b']));",
                [&[("b", "0")], &[("b", "2")]],
            ),
            (
                "echo intdiv(1, intval($_GET['a'])); echo intdiv(1, intval($_GET['b']));",
                [&[("a", "0"), ("b", "1")], &[("a", "1"), ("b", "0")]],
            ),
        ];
        for (src, [x, y]) in rows {
            let (x, y) = (run_both(src, x), run_both(src, y));
            assert_eq!(x.digest, y.digest, "{src}");
            assert_ne!(x.tag(), y.tag(), "{src}");
        }
    }

    #[test]
    fn overflow_promotes_to_float() {
        assert_eq!(
            run("echo 9223372036854775807 + 1 > 0 ? 'pos' : 'neg';"),
            "pos"
        );
    }

    #[test]
    fn incdec_semantics() {
        assert_eq!(run("$i = 1; echo $i++; echo $i; echo ++$i;"), "123");
        assert_eq!(run("echo $undef++; echo $undef;"), "1"); // null++ -> "" then 1.
        assert_eq!(run("$a = ['n' => 1]; $a['n']++; echo $a['n'];"), "2");
        assert_eq!(run("$a = []; echo $a['k']--; echo $a['k'];"), "-1");
    }

    #[test]
    fn stack_depth_guard() {
        let out = run("function f() { return f(); } echo f();");
        // Comes back as a deterministic fatal-error page body.
        assert!(out.is_empty() || !out.contains("55"));
    }

    #[test]
    fn register_windows_pool_across_calls() {
        // Deep call chains + loops stress window reuse; the oracle must
        // still agree (checked inside run_both).
        let src = "function leaf($x) { $t = $x * 2; return $t; }
            function mid($x) { $acc = 0; for ($i = 0; $i < 3; $i++) { $acc += leaf($x + $i); } return $acc; }
            $sum = 0;
            for ($j = 0; $j < 4; $j++) { $sum += mid($j); }
            echo $sum;";
        assert_eq!(run(src), "60");
    }

    #[test]
    fn disassembler_renders_register_code() {
        let script = compile(
            "/t.php",
            &parse_script("$x = 1; if ($x) { echo $x + 2; }").unwrap(),
        )
        .unwrap();
        let text = crate::bytecode::disasm(&script.main.reg_code);
        assert!(text.contains("JumpIfFalse"));
        assert!(text.contains("Echo"));
        assert!(!script.main.reg_code.is_empty());
        assert!(script.main.register_count >= 1);
    }
}
