//! The scalar VM: executes compiled scripts one request at a time.
//!
//! The primary engine is a **register VM**: fixed-width 32-bit
//! instructions with explicit source/destination register operands (see
//! [`crate::bytecode::ROp`]), a flat pooled register file shared by all
//! frames (a call's window starts where the caller's ends, so calls
//! allocate nothing on the hot path), and literal/global/builtin
//! references resolved to dense table indices at compile time. The
//! previous stack-bytecode interpreter survives as [`stack`] — the
//! differential oracle for property tests and the `--engine stack`
//! baseline in benchmarks.
//!
//! Both engines maintain the **control-flow digest** (§4.3): at every
//! conditional branch and iteration step, the digest absorbs the
//! per-request *branch-event ordinal* and the direction taken, so
//! requests with identical digests followed identical control-flow
//! paths. Mixing the event ordinal (not the program counter) keeps
//! digests identical across the two encodings: the compiler emits
//! digest-mixed events in the same evaluation order in both.
//!
//! PHP semantics implemented here (arithmetic overflow to float, `/`
//! returning int only for exact integer division, string offsets, array
//! copy-on-write) are shared with the multivalue VM via
//! [`crate::builtins`] and the ops in this module's `ops` submodule.

use crate::backend::{BackendError, RuntimeBackend};
use crate::builtins::{self, Host};
use crate::bytecode::{rinsn, CompiledScript, Op, ROp};
use crate::value::{ForeachIter, Key, NextKeyOccupied, PhpArray, Value};
use orochi_common::codec::Wire;
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

/// Result of running one request.
#[derive(Debug)]
pub struct RunResult {
    /// The response content.
    pub output: RequestOutput,
    /// The control-flow digest (the server's grouping tag, §4.3).
    pub digest: u64,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Instructions one request may execute before it fails with
/// [`STEP_LIMIT_EXCEEDED`]. The server and every re-execution engine
/// (scalar and grouped, register and stack) stop at this same count, so
/// a runaway script produces the same fatal page online and in the audit.
pub const STEP_LIMIT: u64 = 200_000_000;

/// The fatal message of a request that ran past [`STEP_LIMIT`].
pub const STEP_LIMIT_EXCEEDED: &str = "execution step limit exceeded";

/// FNV-1a over bytes; used to seed the digest with the script path.
/// Re-exported from [`orochi_common::hash`] (one canonical definition).
pub use orochi_common::hash::fnv1a;

/// Mixes one branch decision into a digest. `event` is the per-request
/// branch-event ordinal (0, 1, 2, …), not a program counter: both
/// bytecode encodings emit the same event sequence, so the digest is
/// engine-independent.
#[inline]
pub fn digest_mix(digest: u64, event: u64, taken: bool) -> u64 {
    (digest ^ ((event << 1) | taken as u64)).wrapping_mul(orochi_common::hash::FNV_PRIME)
}

/// Which function a frame executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnRef {
    Main,
    User(u16),
}

/// A pooled activation record. Frames are reused across calls (`depth`
/// tracks the live prefix of `Vm::frames`), so the iterator vector's
/// capacity survives pops.
#[derive(Debug)]
struct RFrame {
    func: FnRef,
    pc: usize,
    /// First register of this frame's window in the flat file.
    base: usize,
    /// One past the window (`base + register_count`): the callee base.
    top: usize,
    /// Absolute register that receives this frame's return value.
    ret_abs: usize,
    iters: Vec<ForeachIter>,
}

/// The scalar register virtual machine.
pub struct Vm<'a> {
    script: &'a CompiledScript,
    backend: &'a mut dyn RuntimeBackend,
    pub(crate) globals: Vec<Value>,
    /// The flat register file; frame windows are disjoint slices.
    regs: Vec<Value>,
    frames: Vec<RFrame>,
    /// Live frames (`frames[..depth]`); the rest are pooled for reuse.
    depth: usize,
    /// Scratch buffer for builtin argument marshalling (reused).
    args_buf: Vec<Value>,
    pub(crate) output: String,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) status: u16,
    digest: u64,
    branch_events: u64,
    pub(crate) session_started: bool,
    session_cookie: Option<String>,
    pub(crate) last_insert_id: i64,
    pub(crate) last_affected: i64,
    stats: ExecStats,
    step_limit: u64,
}

/// Runs one request through a compiled script (register engine).
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
    run_vm(Vm::new(script, backend, input))
}

/// Runs a constructed VM to its response.
fn run_vm(mut vm: Vm<'_>) -> Result<RunResult, String> {
    let outcome = vm.run_main();
    match outcome {
        Ok(()) | Err(VmError::Exit) => {
            // End-of-request hook: leaked transactions become a
            // deterministic fatal on both the server and the verifier.
            if let Err(e) = vm.backend.end_of_request() {
                match VmError::from(e) {
                    VmError::AuditReject(m) => return Err(m),
                    VmError::Fatal(m) => return Ok(vm.into_fatal_result(m)),
                    VmError::Exit => unreachable!("end_of_request cannot exit"),
                }
            }
            // Normal completion: persist the session if one was started.
            if let Err(e) = vm.write_session_back() {
                match e {
                    VmError::AuditReject(m) => return Err(m),
                    VmError::Fatal(m) => return Ok(vm.into_fatal_result(m)),
                    VmError::Exit => unreachable!("session write cannot exit"),
                }
            }
            Ok(RunResult {
                output: RequestOutput {
                    status: vm.status,
                    headers: vm.headers.clone(),
                    body: std::mem::take(&mut vm.output),
                },
                digest: vm.digest,
                stats: vm.stats,
            })
        }
        Err(VmError::Fatal(m)) => Ok(vm.into_fatal_result(m)),
        Err(VmError::AuditReject(m)) => Err(m),
    }
}

/// Builds the initial globals table for a request (shared by both
/// engines).
fn init_globals(script: &CompiledScript, input: &RequestInput<'_>) -> Vec<Value> {
    let mut globals = vec![Value::Null; script.global_names.len()];
    globals[0] = pairs_to_array(input.get);
    globals[1] = pairs_to_array(input.post);
    globals[2] = pairs_to_array(input.cookies);
    globals[3] = Value::empty_array(); // $_SESSION until session_start.
    globals[4] = server_array(input);
    globals
}

/// `$_SERVER` for a request.
pub fn server_array(input: &RequestInput<'_>) -> Value {
    let mut server = PhpArray::new();
    server.set(Key::Str("REQUEST_METHOD"), Value::str(input.method));
    server.set(Key::Str("SCRIPT_NAME"), Value::str(input.path));
    Value::array(server)
}

impl<'a> Vm<'a> {
    fn new(
        script: &'a CompiledScript,
        backend: &'a mut dyn RuntimeBackend,
        input: &RequestInput<'_>,
    ) -> Self {
        Vm {
            script,
            backend,
            globals: init_globals(script, input),
            regs: Vec::new(),
            frames: Vec::new(),
            depth: 0,
            args_buf: Vec::new(),
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
        }
    }

    fn into_fatal_result(mut self, message: String) -> RunResult {
        RunResult {
            output: RequestOutput {
                status: 500,
                headers: Vec::new(),
                body: format!("Fatal error: {message}"),
            },
            digest: self.digest,
            stats: std::mem::take(&mut self.stats),
        }
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

    fn run_main(&mut self) -> Result<(), VmError> {
        let top = self.script.main.register_count as usize;
        self.regs.resize(top, Value::Null);
        self.push_frame(FnRef::Main, 0, top, 0);
        self.interp()
    }

    /// Activates a frame, reusing a pooled record when one is available.
    fn push_frame(&mut self, func: FnRef, base: usize, top: usize, ret_abs: usize) {
        if self.depth == self.frames.len() {
            self.frames.push(RFrame {
                func,
                pc: 0,
                base,
                top,
                ret_abs,
                iters: Vec::new(),
            });
        } else {
            let f = &mut self.frames[self.depth];
            f.func = func;
            f.pc = 0;
            f.base = base;
            f.top = top;
            f.ret_abs = ret_abs;
            f.iters.clear();
        }
        self.depth += 1;
    }

    fn interp(&mut self) -> Result<(), VmError> {
        loop {
            if self.stats.instructions >= self.step_limit {
                return Err(VmError::Fatal(STEP_LIMIT_EXCEEDED.into()));
            }
            self.stats.instructions += 1;
            let fi = self.depth - 1;
            let (func, base) = {
                let f = &self.frames[fi];
                (f.func, f.base)
            };
            let code = match func {
                FnRef::Main => &self.script.main.reg_code,
                FnRef::User(i) => &self.script.functions[i as usize].reg_code,
            };
            let pc = self.frames[fi].pc;
            let insn = code[pc];
            self.frames[fi].pc = pc + 1;
            let a = base + rinsn::a(insn);
            match rinsn::op(insn) {
                ROp::Move => {
                    let b = base + rinsn::b(insn);
                    self.regs[a] = self.regs[b].clone();
                }
                ROp::LoadConst => {
                    self.regs[a] = self.script.consts[rinsn::bx(insn)].clone();
                }
                ROp::LoadGlobal => {
                    self.regs[a] = self.globals[rinsn::b(insn)].clone();
                }
                ROp::StoreGlobal => {
                    // A-field is the global slot for stores.
                    let b = base + rinsn::b(insn);
                    self.globals[rinsn::a(insn)] = self.regs[b].clone();
                }
                ROp::Add | ROp::Sub | ROp::Mul | ROp::Div | ROp::Mod | ROp::Concat => {
                    let b = base + rinsn::b(insn);
                    let c = base + rinsn::c(insn);
                    let sop = scalar_binop(rinsn::op(insn));
                    self.regs[a] = ops::binary(sop, &self.regs[b], &self.regs[c])?;
                }
                ROp::Eq => {
                    let r = self.regs[base + rinsn::b(insn)]
                        .loose_eq(&self.regs[base + rinsn::c(insn)]);
                    self.regs[a] = Value::Bool(r);
                }
                ROp::Ne => {
                    let r = self.regs[base + rinsn::b(insn)]
                        .loose_eq(&self.regs[base + rinsn::c(insn)]);
                    self.regs[a] = Value::Bool(!r);
                }
                ROp::Identical => {
                    let r = self.regs[base + rinsn::b(insn)]
                        .identical(&self.regs[base + rinsn::c(insn)]);
                    self.regs[a] = Value::Bool(r);
                }
                ROp::NotIdentical => {
                    let r = self.regs[base + rinsn::b(insn)]
                        .identical(&self.regs[base + rinsn::c(insn)]);
                    self.regs[a] = Value::Bool(!r);
                }
                ROp::Lt | ROp::Le | ROp::Gt | ROp::Ge => {
                    let sop = scalar_binop(rinsn::op(insn));
                    let r = ops::relational(
                        sop,
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    self.regs[a] = Value::Bool(r);
                }
                ROp::Not => {
                    let r = !self.regs[base + rinsn::b(insn)].is_truthy();
                    self.regs[a] = Value::Bool(r);
                }
                ROp::Neg => {
                    self.regs[a] = ops::negate(&self.regs[base + rinsn::b(insn)])?;
                }
                ROp::Jump => {
                    self.frames[fi].pc = rinsn::bx(insn);
                }
                ROp::JumpIfFalse => {
                    let taken = !self.regs[a].is_truthy();
                    self.digest = digest_mix(self.digest, self.branch_events, taken);
                    self.branch_events += 1;
                    if taken {
                        self.frames[fi].pc = rinsn::bx(insn);
                    }
                }
                ROp::JumpIfTrue => {
                    let taken = self.regs[a].is_truthy();
                    self.digest = digest_mix(self.digest, self.branch_events, taken);
                    self.branch_events += 1;
                    if taken {
                        self.frames[fi].pc = rinsn::bx(insn);
                    }
                }
                ROp::NewArray => {
                    self.regs[a] = Value::empty_array();
                }
                ROp::ArrayAppend => {
                    let arr = std::mem::replace(&mut self.regs[a], Value::Null);
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.regs[a] = ops::array_append(arr, v)?;
                }
                ROp::ArrayInsert => {
                    let arr = std::mem::replace(&mut self.regs[a], Value::Null);
                    let v = self.regs[base + rinsn::c(insn)].clone();
                    let r = ops::array_insert(arr, &self.regs[base + rinsn::b(insn)], v)?;
                    self.regs[a] = r;
                }
                ROp::IndexGet => {
                    let r = ops::index_get(
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    self.regs[a] = r;
                }
                ROp::SetPathLocal => {
                    let n = rinsn::c(insn);
                    let value = self.regs[a].clone();
                    let t = base + rinsn::b(insn);
                    // Locals sit below temps, so the target register is
                    // strictly below the value/key block.
                    let (lo, hi) = self.regs.split_at_mut(a + 1);
                    ops::set_path(&mut lo[t], &hi[..n], value)?;
                }
                ROp::SetPathGlobal => {
                    let n = rinsn::c(insn);
                    let value = self.regs[a].clone();
                    let slot = rinsn::b(insn);
                    ops::set_path(&mut self.globals[slot], &self.regs[a + 1..a + 1 + n], value)?;
                }
                ROp::AppendPathLocal => {
                    let n = rinsn::c(insn);
                    let value = self.regs[a].clone();
                    let t = base + rinsn::b(insn);
                    let (lo, hi) = self.regs.split_at_mut(a + 1);
                    ops::append_path(&mut lo[t], &hi[..n - 1], value)?;
                }
                ROp::AppendPathGlobal => {
                    let n = rinsn::c(insn);
                    let value = self.regs[a].clone();
                    let slot = rinsn::b(insn);
                    ops::append_path(&mut self.globals[slot], &self.regs[a + 1..a + n], value)?;
                }
                ROp::UnsetPathLocal => {
                    let n = rinsn::c(insn);
                    let t = base + rinsn::b(insn);
                    if n == 0 {
                        ops::unset_path::<Value>(&mut self.regs[t], &[]);
                    } else {
                        let (lo, hi) = self.regs.split_at_mut(a);
                        ops::unset_path(&mut lo[t], &hi[..n]);
                    }
                }
                ROp::UnsetPathGlobal => {
                    let n = rinsn::c(insn);
                    let slot = rinsn::b(insn);
                    ops::unset_path(&mut self.globals[slot], &self.regs[a..a + n]);
                }
                ROp::IssetPathLocal => {
                    let n = rinsn::c(insn);
                    let t = base + rinsn::b(insn);
                    let r = ops::isset_path(&self.regs[t], &self.regs[a..a + n]);
                    self.regs[a] = Value::Bool(r);
                }
                ROp::IssetPathGlobal => {
                    let n = rinsn::c(insn);
                    let slot = rinsn::b(insn);
                    let r = ops::isset_path(&self.globals[slot], &self.regs[a..a + n]);
                    self.regs[a] = Value::Bool(r);
                }
                ROp::IncDecLocal => {
                    let t = base + rinsn::b(insn);
                    let sop = incdec_variant(rinsn::c(insn));
                    let r = ops::incdec(&mut self.regs[t], sop)?;
                    self.regs[a] = r;
                }
                ROp::IncDecGlobal => {
                    let slot = rinsn::b(insn);
                    let sop = incdec_variant(rinsn::c(insn));
                    let r = ops::incdec(&mut self.globals[slot], sop)?;
                    self.regs[a] = r;
                }
                ROp::Call => {
                    let fidx = rinsn::a(insn) as u16;
                    let func = &self.script.functions[fidx as usize];
                    let argc = rinsn::c(insn);
                    let args_abs = base + rinsn::b(insn);
                    let callee_base = self.frames[fi].top;
                    let callee_top = callee_base + func.register_count as usize;
                    if self.regs.len() < callee_top {
                        self.regs.resize(callee_top, Value::Null);
                    }
                    let num_params = func.num_params as usize;
                    // Move args into the callee window (they are dead
                    // temps in the caller); extras are dropped like the
                    // stack engine does.
                    for i in 0..argc {
                        let v = std::mem::replace(&mut self.regs[args_abs + i], Value::Null);
                        if i < num_params {
                            self.regs[callee_base + i] = v;
                        }
                    }
                    for p in argc..num_params {
                        match func.defaults[p] {
                            Some(cidx) => {
                                self.regs[callee_base + p] =
                                    self.script.consts[cidx as usize].clone()
                            }
                            None => {
                                return Err(VmError::Fatal(format!(
                                    "too few arguments to function {}()",
                                    func.name
                                )))
                            }
                        }
                    }
                    if self.depth >= 200 {
                        return Err(VmError::Fatal("call stack depth exceeded".into()));
                    }
                    // Clear the rest of the (pooled) window so stale
                    // values from earlier activations never leak in.
                    for r in &mut self.regs[callee_base + num_params..callee_top] {
                        *r = Value::Null;
                    }
                    self.push_frame(FnRef::User(fidx), callee_base, callee_top, args_abs);
                }
                ROp::CallBuiltin => {
                    let bidx = rinsn::a(insn) as u16;
                    let argc = rinsn::c(insn);
                    let abs = base + rinsn::b(insn);
                    if builtins::is_byref(bidx) {
                        let (new_target, ret) =
                            builtins::dispatch_byref(bidx, &mut self.regs[abs..abs + argc])?;
                        self.regs[abs] = new_target;
                        self.regs[abs + 1] = ret;
                    } else {
                        let mut buf = std::mem::take(&mut self.args_buf);
                        buf.clear();
                        for i in 0..argc {
                            buf.push(std::mem::replace(&mut self.regs[abs + i], Value::Null));
                        }
                        let ret = builtins::dispatch(bidx, &buf, self);
                        self.args_buf = buf;
                        self.regs[abs] = ret?;
                    }
                }
                ROp::Return => {
                    let value = std::mem::replace(&mut self.regs[a], Value::Null);
                    let ret_abs = self.frames[fi].ret_abs;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Ok(());
                    }
                    self.regs[ret_abs] = value;
                }
                ROp::ReturnNull => {
                    let ret_abs = self.frames[fi].ret_abs;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Ok(());
                    }
                    self.regs[ret_abs] = Value::Null;
                }
                ROp::Echo => {
                    self.output.push_str(&self.regs[a].as_php_str());
                }
                ROp::IterInit => {
                    let iter = ForeachIter::over(&self.regs[a]);
                    self.frames[fi].iters.push(iter);
                }
                ROp::IterNext | ROp::IterNextKV => {
                    let kv = rinsn::op(insn) == ROp::IterNextKV;
                    let frame = &mut self.frames[fi];
                    let iter = frame.iters.last_mut().expect("IterInit precedes IterNext");
                    if let Some((k, v)) = iter.next_entry() {
                        if kv {
                            self.regs[a] = k.to_value();
                            self.regs[a + 1] = v.clone();
                        } else {
                            self.regs[a] = v.clone();
                        }
                        self.digest = digest_mix(self.digest, self.branch_events, true);
                        self.branch_events += 1;
                    } else {
                        frame.pc = rinsn::bx(insn);
                        self.digest = digest_mix(self.digest, self.branch_events, false);
                        self.branch_events += 1;
                    }
                }
                ROp::IterPop => {
                    self.frames[fi].iters.pop();
                }
            }
        }
    }
}

/// Maps a register opcode to the scalar-op selector shared with the
/// stack engine (`ops::binary` / `ops::relational` match on `Op`).
fn scalar_binop(op: ROp) -> Op {
    match op {
        ROp::Add => Op::Add,
        ROp::Sub => Op::Sub,
        ROp::Mul => Op::Mul,
        ROp::Div => Op::Div,
        ROp::Mod => Op::Mod,
        ROp::Concat => Op::Concat,
        ROp::Lt => Op::Lt,
        ROp::Le => Op::Le,
        ROp::Gt => Op::Gt,
        ROp::Ge => Op::Ge,
        other => unreachable!("not a shared scalar op: {other:?}"),
    }
}

/// Maps the IncDec variant operand to the scalar-op selector.
fn incdec_variant(c: usize) -> Op {
    match c {
        0 => Op::PreIncLocal(0),
        1 => Op::PostIncLocal(0),
        2 => Op::PreDecLocal(0),
        _ => Op::PostDecLocal(0),
    }
}

impl Host for Vm<'_> {
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

/// The deterministic 404 page for unrouted paths; the online server and
/// the verifier share it so output comparison is meaningful.
pub fn not_found_output(path: &str) -> RequestOutput {
    RequestOutput {
        status: 404,
        headers: Vec::new(),
        body: format!("Not Found: {path}"),
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

/// Shared scalar operation semantics, used by both engines and the
/// multivalue VM (which applies them per lane).
pub mod ops {
    use super::*;

    /// Binary arithmetic/string ops with PHP coercions.
    pub fn binary(op: Op, a: &Value, b: &Value) -> Result<Value, VmError> {
        match op {
            Op::Concat => Ok(Value::concat(a, b)),
            Op::Add | Op::Sub | Op::Mul => {
                if let (Value::Array(_), _) | (_, Value::Array(_)) = (a, b) {
                    return Err(VmError::Fatal("unsupported operand types: array".into()));
                }
                match (int_view(a), int_view(b)) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            Op::Add => x.checked_add(y),
                            Op::Sub => x.checked_sub(y),
                            Op::Mul => x.checked_mul(y),
                            _ => unreachable!("arith subset"),
                        };
                        Ok(match r {
                            Some(v) => Value::Int(v),
                            // PHP overflows int arithmetic into float.
                            None => {
                                let (x, y) = (x as f64, y as f64);
                                Value::Float(match op {
                                    Op::Add => x + y,
                                    Op::Sub => x - y,
                                    Op::Mul => x * y,
                                    _ => unreachable!("arith subset"),
                                })
                            }
                        })
                    }
                    _ => {
                        let (x, y) = (a.to_php_float(), b.to_php_float());
                        Ok(Value::Float(match op {
                            Op::Add => x + y,
                            Op::Sub => x - y,
                            Op::Mul => x * y,
                            _ => unreachable!("arith subset"),
                        }))
                    }
                }
            }
            Op::Div => {
                if b.to_php_float() == 0.0 {
                    return Err(VmError::Fatal("division by zero".into()));
                }
                match (int_view(a), int_view(b)) {
                    (Some(x), Some(y)) if x % y == 0 => Ok(Value::Int(x / y)),
                    _ => Ok(Value::Float(a.to_php_float() / b.to_php_float())),
                }
            }
            Op::Mod => {
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
    pub fn relational(op: Op, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        match a.loose_cmp(b) {
            None => false,
            Some(ord) => match op {
                Op::Lt => ord == Less,
                Op::Le => ord != Greater,
                Op::Gt => ord == Greater,
                Op::Ge => ord != Less,
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
    /// null).
    pub fn incdec(slot: &mut Value, op: Op) -> Result<Value, VmError> {
        let inc = matches!(
            op,
            Op::PreIncLocal(_) | Op::PostIncLocal(_) | Op::PreIncGlobal(_) | Op::PostIncGlobal(_)
        );
        let pre = matches!(
            op,
            Op::PreIncLocal(_) | Op::PreDecLocal(_) | Op::PreIncGlobal(_) | Op::PreDecGlobal(_)
        );
        let old = slot.clone();
        let new = match (&old, inc) {
            (Value::Null, true) => Value::Int(1),
            (Value::Null, false) => Value::Null,
            _ => binary(if inc { Op::Add } else { Op::Sub }, &old, &Value::Int(1))?,
        };
        *slot = new.clone();
        Ok(if pre { new } else { old })
    }

    /// `$a[] = v` on a stack value (array literals).
    pub fn array_append(arr: Value, v: Value) -> Result<Value, VmError> {
        match arr {
            Value::Array(mut rc) => {
                Arc::make_mut(&mut rc).push(v)?;
                Ok(Value::Array(rc))
            }
            _ => Err(VmError::Fatal("append to non-array".into())),
        }
    }

    /// `$a[k] = v` on a stack value (array literals).
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

    /// Runs a source snippet through BOTH engines and asserts they agree
    /// on output and digest — every VM test doubles as a differential
    /// check on the register encoding.
    fn run_both(src: &str, get: &[(&str, &str)]) -> RunResult {
        let script = compile("/t.php", &parse_script(src).unwrap()).unwrap();
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
        let stk = stack::run_request(&script, &mut b2, &input).unwrap();
        assert_eq!(reg.output, stk.output, "engines disagree on output");
        assert_eq!(reg.digest, stk.digest, "engines disagree on digest");
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
        let script = compile("/t.php", &parse_script("echo 1 / 0;").unwrap()).unwrap();
        let input = RequestInput {
            path: "/t.php",
            ..Default::default()
        };
        for runner in [run_request, stack::run_request] {
            let mut b = NullBackend;
            let result = runner(&script, &mut b, &input).unwrap();
            assert_eq!(result.output.status, 500);
            assert!(result.output.body.contains("division by zero"));
        }
    }

    #[test]
    fn runaway_loop_stops_at_the_step_limit_on_both_engines() {
        // Lowered through the private field: the limit is a constant,
        // not a knob. `accphp` runs the same script through the two
        // group engines and expects this exact page.
        let script = compile("/t.php", &parse_script("while (true) { $i = 1; }").unwrap()).unwrap();
        let input = RequestInput {
            path: "/t.php",
            ..Default::default()
        };
        let (mut b1, mut b2) = (NullBackend, NullBackend);
        let mut reg = Vm::new(&script, &mut b1, &input);
        reg.step_limit = 10_000;
        let mut stk = stack::Vm::new(&script, &mut b2, &input);
        stk.step_limit = 10_000;
        for result in [run_vm(reg).unwrap(), stack::run_vm(stk).unwrap()] {
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
        let script = compile(
            "/t.php",
            &parse_script("if ($_GET['x'] == 1) { echo 'a'; } else { echo 'b'; }").unwrap(),
        )
        .unwrap();
        let run_digest = |x: &str| {
            let get = [("x".to_string(), x.to_string())];
            let input = RequestInput {
                path: "/t.php",
                get: &get,
                ..Default::default()
            };
            let mut b = NullBackend;
            run_request(&script, &mut b, &input).unwrap().digest
        };
        assert_eq!(run_digest("1"), run_digest("1"));
        assert_ne!(run_digest("1"), run_digest("2"));
        // Same path, different data: same digest.
        assert_eq!(run_digest("2"), run_digest("3"));
    }

    #[test]
    fn digest_depends_on_loop_count() {
        let script = compile(
            "/t.php",
            &parse_script("for ($i = 0; $i < intval($_GET['n']); $i++) { echo $i; }").unwrap(),
        )
        .unwrap();
        let run_digest = |n: &str| {
            let mut b = NullBackend;
            run_request(
                &script,
                &mut b,
                &RequestInput {
                    path: "/t.php",
                    get: &[("n".to_string(), n.to_string())],
                    ..Default::default()
                },
            )
            .unwrap()
            .digest
        };
        assert_ne!(run_digest("2"), run_digest("3"));
        assert_eq!(run_digest("3"), run_digest("3"));
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
        // Deep call chains + loops stress window reuse; both engines
        // must still agree (checked inside run_both).
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
