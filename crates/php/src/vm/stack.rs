//! The stack-bytecode scalar VM, retained as the differential oracle.
//!
//! This was the original scalar engine: a `Vec<Value>` operand stack,
//! per-frame locals vectors, and the push/pop instruction shapes in
//! [`crate::bytecode::Op`]. The register engine in [`super`] replaced it
//! on the hot path; this module stays behind as the semantic baseline —
//! property tests run both engines on the same inputs and require
//! identical outputs, state operations, and digests, the same oracle
//! pattern `graph::two_phase` serves for the ordering verifier.
//!
//! The control-flow digest mixes the per-request branch-event ordinal
//! (see [`super::digest_mix`]), not the program counter, so digests are
//! identical across the two bytecode encodings by construction.

use super::{
    digest_mix, fnv1a, init_globals, ops, ExecStats, RequestInput, RequestOutput, RunResult,
    VmError, STEP_LIMIT, STEP_LIMIT_EXCEEDED,
};
use crate::backend::RuntimeBackend;
use crate::builtins::{self, Host};
use crate::bytecode::{CompiledScript, Op};
use crate::value::{ForeachIter, Value};
use orochi_common::codec::Wire;

/// Which function a frame executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnRef {
    Main,
    User(u16),
}

#[derive(Debug)]
struct Frame {
    func: FnRef,
    pc: usize,
    locals: Vec<Value>,
    iters: Vec<ForeachIter>,
    stack_base: usize,
}

/// The stack-bytecode scalar virtual machine.
pub struct Vm<'a> {
    script: &'a CompiledScript,
    backend: &'a mut dyn RuntimeBackend,
    pub(crate) globals: Vec<Value>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
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
    pub(super) step_limit: u64,
}

/// Runs one request through a compiled script on the stack engine.
///
/// Same contract as [`super::run_request`]; kept public so property
/// tests and benchmarks can compare the engines head to head.
pub fn run_request(
    script: &CompiledScript,
    backend: &mut dyn RuntimeBackend,
    input: &RequestInput<'_>,
) -> Result<RunResult, String> {
    run_vm(Vm::new(script, backend, input))
}

/// Runs a constructed VM to its response.
pub(super) fn run_vm(mut vm: Vm<'_>) -> Result<RunResult, String> {
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

impl<'a> Vm<'a> {
    pub(super) fn new(
        script: &'a CompiledScript,
        backend: &'a mut dyn RuntimeBackend,
        input: &RequestInput<'_>,
    ) -> Self {
        Vm {
            script,
            backend,
            globals: init_globals(script, input),
            stack: Vec::with_capacity(64),
            frames: Vec::new(),
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
        self.frames.push(Frame {
            func: FnRef::Main,
            pc: 0,
            locals: vec![Value::Null; self.script.main.num_locals as usize],
            iters: Vec::new(),
            stack_base: 0,
        });
        self.interp()
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("compiler guarantees stack depth")
    }

    /// Mixes the next branch-event ordinal into the digest.
    fn mix_event(&mut self, taken: bool) {
        self.digest = digest_mix(self.digest, self.branch_events, taken);
        self.branch_events += 1;
    }

    fn interp(&mut self) -> Result<(), VmError> {
        loop {
            if self.stats.instructions >= self.step_limit {
                return Err(VmError::Fatal(STEP_LIMIT_EXCEEDED.into()));
            }
            self.stats.instructions += 1;
            let frame = self.frames.last_mut().expect("frame present while running");
            let code = match frame.func {
                FnRef::Main => &self.script.main.code,
                FnRef::User(i) => &self.script.functions[i as usize].code,
            };
            let pc = frame.pc;
            let op = code[pc];
            frame.pc += 1;
            match op {
                Op::Const(i) => self.stack.push(self.script.consts[i as usize].clone()),
                Op::LoadLocal(s) => {
                    let frame = self.frames.last().expect("running frame");
                    self.stack.push(frame.locals[s as usize].clone());
                }
                Op::StoreLocal(s) => {
                    let v = self.pop();
                    let frame = self.frames.last_mut().expect("running frame");
                    frame.locals[s as usize] = v;
                }
                Op::LoadGlobal(s) => self.stack.push(self.globals[s as usize].clone()),
                Op::StoreGlobal(s) => {
                    let v = self.pop();
                    self.globals[s as usize] = v;
                }
                Op::Pop => {
                    self.pop();
                }
                Op::Dup => {
                    let v = self.stack.last().expect("dup on non-empty stack").clone();
                    self.stack.push(v);
                }
                Op::Swap => {
                    let n = self.stack.len();
                    self.stack.swap(n - 1, n - 2);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod | Op::Concat => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(ops::binary(op, &a, &b)?);
                }
                Op::Eq => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(Value::Bool(a.loose_eq(&b)));
                }
                Op::Ne => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(Value::Bool(!a.loose_eq(&b)));
                }
                Op::Identical => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(Value::Bool(a.identical(&b)));
                }
                Op::NotIdentical => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(Value::Bool(!a.identical(&b)));
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let b = self.pop();
                    let a = self.pop();
                    self.stack.push(Value::Bool(ops::relational(op, &a, &b)));
                }
                Op::Not => {
                    let v = self.pop();
                    self.stack.push(Value::Bool(!v.is_truthy()));
                }
                Op::Neg => {
                    let v = self.pop();
                    self.stack.push(ops::negate(&v)?);
                }
                Op::Jump(t) => {
                    self.frames.last_mut().expect("running frame").pc = t as usize;
                }
                Op::JumpIfFalse(t) => {
                    let v = self.pop();
                    let taken = !v.is_truthy();
                    self.mix_event(taken);
                    if taken {
                        self.frames.last_mut().expect("running frame").pc = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    let v = self.pop();
                    let taken = v.is_truthy();
                    self.mix_event(taken);
                    if taken {
                        self.frames.last_mut().expect("running frame").pc = t as usize;
                    }
                }
                Op::NewArray => self.stack.push(Value::empty_array()),
                Op::AppendStack => {
                    let v = self.pop();
                    let arr = self.pop();
                    self.stack.push(ops::array_append(arr, v)?);
                }
                Op::InsertStack => {
                    let v = self.pop();
                    let k = self.pop();
                    let arr = self.pop();
                    self.stack.push(ops::array_insert(arr, &k, v)?);
                }
                Op::IndexGet => {
                    let k = self.pop();
                    let base = self.pop();
                    self.stack.push(ops::index_get(&base, &k));
                }
                Op::SetPathLocal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let value = self.pop();
                    let frame = self.frames.last_mut().expect("running frame");
                    ops::set_path(&mut frame.locals[slot as usize], &keys, value.clone())?;
                    self.stack.push(value);
                }
                Op::SetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let value = self.pop();
                    ops::set_path(&mut self.globals[slot as usize], &keys, value.clone())?;
                    self.stack.push(value);
                }
                Op::AppendPathLocal(slot, n) => {
                    let keys = self.pop_keys(n as usize - 1);
                    let value = self.pop();
                    let frame = self.frames.last_mut().expect("running frame");
                    ops::append_path(&mut frame.locals[slot as usize], &keys, value.clone())?;
                    self.stack.push(value);
                }
                Op::AppendPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize - 1);
                    let value = self.pop();
                    ops::append_path(&mut self.globals[slot as usize], &keys, value.clone())?;
                    self.stack.push(value);
                }
                Op::UnsetPathLocal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let frame = self.frames.last_mut().expect("running frame");
                    ops::unset_path(&mut frame.locals[slot as usize], &keys);
                }
                Op::UnsetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    ops::unset_path(&mut self.globals[slot as usize], &keys);
                }
                Op::IssetPathLocal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let frame = self.frames.last().expect("running frame");
                    self.stack.push(Value::Bool(ops::isset_path(
                        &frame.locals[slot as usize],
                        &keys,
                    )));
                }
                Op::IssetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    self.stack.push(Value::Bool(ops::isset_path(
                        &self.globals[slot as usize],
                        &keys,
                    )));
                }
                Op::PreIncLocal(s)
                | Op::PostIncLocal(s)
                | Op::PreDecLocal(s)
                | Op::PostDecLocal(s) => {
                    let frame = self.frames.last_mut().expect("running frame");
                    let result = ops::incdec(&mut frame.locals[s as usize], op)?;
                    self.stack.push(result);
                }
                Op::PreIncGlobal(s)
                | Op::PostIncGlobal(s)
                | Op::PreDecGlobal(s)
                | Op::PostDecGlobal(s) => {
                    let result = ops::incdec(&mut self.globals[s as usize], op)?;
                    self.stack.push(result);
                }
                Op::Call(fidx, argc) => {
                    let func = &self.script.functions[fidx as usize];
                    let argc = argc as usize;
                    let mut locals = vec![Value::Null; func.num_locals as usize];
                    // Args are on the stack in order; fill param slots.
                    let args_start = self.stack.len() - argc;
                    for (i, v) in self.stack.drain(args_start..).enumerate() {
                        if i < func.num_params as usize {
                            locals[i] = v;
                        }
                    }
                    #[allow(clippy::needless_range_loop)]
                    for p in argc..func.num_params as usize {
                        match func.defaults[p] {
                            Some(cidx) => locals[p] = self.script.consts[cidx as usize].clone(),
                            None => {
                                return Err(VmError::Fatal(format!(
                                    "too few arguments to function {}()",
                                    func.name
                                )))
                            }
                        }
                    }
                    if self.frames.len() >= 200 {
                        return Err(VmError::Fatal("call stack depth exceeded".into()));
                    }
                    self.frames.push(Frame {
                        func: FnRef::User(fidx),
                        pc: 0,
                        locals,
                        iters: Vec::new(),
                        stack_base: self.stack.len(),
                    });
                }
                Op::CallBuiltin(bidx, argc) => {
                    let argc = argc as usize;
                    let args_start = self.stack.len() - argc;
                    let mut args: Vec<Value> = self.stack.drain(args_start..).collect();
                    if builtins::is_byref(bidx) {
                        let (new_target, ret) = builtins::dispatch_byref(bidx, &mut args)?;
                        self.stack.push(new_target);
                        self.stack.push(ret);
                    } else {
                        let ret = builtins::dispatch(bidx, &args, self)?;
                        self.stack.push(ret);
                    }
                }
                Op::Return => {
                    let value = self.pop();
                    let frame = self.frames.pop().expect("returning frame");
                    if self.frames.is_empty() {
                        return Ok(());
                    }
                    self.stack.truncate(frame.stack_base);
                    self.stack.push(value);
                }
                Op::ReturnNull => {
                    let frame = self.frames.pop().expect("returning frame");
                    if self.frames.is_empty() {
                        return Ok(());
                    }
                    self.stack.truncate(frame.stack_base);
                    self.stack.push(Value::Null);
                }
                Op::Echo => {
                    let v = self.pop();
                    self.output.push_str(&v.to_php_string());
                }
                Op::IterInit => {
                    let iter = ForeachIter::over(&self.pop());
                    self.frames
                        .last_mut()
                        .expect("running frame")
                        .iters
                        .push(iter);
                }
                Op::IterNext(t) | Op::IterNextKV(t) => {
                    let frame = self.frames.last_mut().expect("running frame");
                    let iter = frame.iters.last_mut().expect("IterInit precedes IterNext");
                    if let Some((k, v)) = iter.next_entry() {
                        if matches!(op, Op::IterNextKV(_)) {
                            self.stack.push(k.to_value());
                        }
                        self.stack.push(v.clone());
                        self.mix_event(true);
                    } else {
                        frame.pc = t as usize;
                        self.mix_event(false);
                    }
                }
                Op::IterPop => {
                    self.frames.last_mut().expect("running frame").iters.pop();
                }
            }
        }
    }

    fn pop_keys(&mut self, n: usize) -> Vec<Value> {
        if n == 0 {
            return Vec::new();
        }
        self.stack.split_off(self.stack.len() - n)
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
