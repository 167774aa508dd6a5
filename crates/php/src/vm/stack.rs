//! The stack-bytecode oracle: a second compiler and interpreter for the
//! same AST, used only by tests.
//!
//! Production compiles and runs register code only. This module lowers
//! the AST on its own ([`compile`]) to push/pop bytecode with per-frame
//! locals vectors and runs it over the same request runtime as the
//! register VM ([`super::run_request`]): builtins, state operations,
//! the session epilogue and the fatal page are shared, the compiler and
//! the operand traffic are not. Differential tests run both on the same
//! inputs and require identical outputs, state operations and digests,
//! so a register-allocation or code-generation bug in the production
//! compiler shows up as a disagreement — a bug class a comparison of the
//! group VM against the scalar VM cannot see, since both execute the
//! same register code. It is the same oracle pattern `graph::two_phase`
//! serves for the ordering verifier.
//!
//! The control-flow digest mixes the per-request branch-event ordinal
//! (see [`super::digest_mix`]), not the program counter, so digests are
//! identical across the two encodings by construction.

use super::{ops, FnRef, RequestInput, RunResult, Runtime, VmError};
use crate::backend::RuntimeBackend;
use crate::builtins;
use crate::bytecode::ROp;
use crate::value::{ForeachIter, Value};

mod compiler;

pub use compiler::{compile, Op, StackFunction, StackScript};

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
    script: &'a StackScript,
    pub(super) rt: Runtime<'a>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
}

/// Runs one request through a script compiled by [`compile`].
///
/// Same contract as [`super::run_request`].
pub fn run_request(
    script: &StackScript,
    backend: &mut dyn RuntimeBackend,
    input: &RequestInput<'_>,
) -> Result<RunResult, String> {
    Vm::new(script, backend, input).run()
}

/// The shared `ops` helpers' opcode for a stack arithmetic or
/// comparison instruction.
fn register_op(op: Op) -> ROp {
    match op {
        Op::Add => ROp::Add,
        Op::Sub => ROp::Sub,
        Op::Mul => ROp::Mul,
        Op::Div => ROp::Div,
        Op::Mod => ROp::Mod,
        Op::Concat => ROp::Concat,
        Op::Lt => ROp::Lt,
        Op::Le => ROp::Le,
        Op::Gt => ROp::Gt,
        Op::Ge => ROp::Ge,
        other => unreachable!("not an ops instruction: {other:?}"),
    }
}

/// The [`ops::incdec`] variant of a stack `++`/`--` instruction.
fn incdec_of(op: Op) -> usize {
    match op {
        Op::PreIncLocal(_) | Op::PreIncGlobal(_) => 0,
        Op::PostIncLocal(_) | Op::PostIncGlobal(_) => 1,
        Op::PreDecLocal(_) | Op::PreDecGlobal(_) => 2,
        _ => 3,
    }
}

impl<'a> Vm<'a> {
    pub(super) fn new(
        script: &'a StackScript,
        backend: &'a mut dyn RuntimeBackend,
        input: &RequestInput<'_>,
    ) -> Self {
        Vm {
            script,
            rt: Runtime::new(script, backend, input),
            stack: Vec::with_capacity(64),
            frames: Vec::new(),
        }
    }

    /// Runs the script body to its response.
    pub(super) fn run(mut self) -> Result<RunResult, String> {
        self.frames.push(Frame {
            func: FnRef::Main,
            pc: 0,
            locals: vec![Value::Null; self.script.main.num_locals as usize],
            iters: Vec::new(),
            stack_base: 0,
        });
        let outcome = self.interp();
        self.rt.finish(outcome)
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("compiler guarantees stack depth")
    }

    fn interp(&mut self) -> Result<(), VmError> {
        loop {
            self.rt.step()?;
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
                Op::LoadGlobal(s) => self.stack.push(self.rt.globals[s as usize].clone()),
                Op::StoreGlobal(s) => {
                    let v = self.pop();
                    self.rt.globals[s as usize] = v;
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
                    self.stack.push(ops::binary(register_op(op), &a, &b)?);
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
                    self.stack
                        .push(Value::Bool(ops::relational(register_op(op), &a, &b)));
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
                    self.rt.mix_event(taken);
                    if taken {
                        self.frames.last_mut().expect("running frame").pc = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    let v = self.pop();
                    let taken = v.is_truthy();
                    self.rt.mix_event(taken);
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
                    ops::set_path(&mut self.rt.globals[slot as usize], &keys, value.clone())?;
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
                    ops::append_path(&mut self.rt.globals[slot as usize], &keys, value.clone())?;
                    self.stack.push(value);
                }
                Op::UnsetPathLocal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let frame = self.frames.last_mut().expect("running frame");
                    ops::unset_path(&mut frame.locals[slot as usize], &keys);
                }
                Op::UnsetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    ops::unset_path(&mut self.rt.globals[slot as usize], &keys);
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
                        &self.rt.globals[slot as usize],
                        &keys,
                    )));
                }
                Op::PreIncLocal(s)
                | Op::PostIncLocal(s)
                | Op::PreDecLocal(s)
                | Op::PostDecLocal(s) => {
                    let frame = self.frames.last_mut().expect("running frame");
                    let result = ops::incdec(&mut frame.locals[s as usize], incdec_of(op))?;
                    self.stack.push(result);
                }
                Op::PreIncGlobal(s)
                | Op::PostIncGlobal(s)
                | Op::PreDecGlobal(s)
                | Op::PostDecGlobal(s) => {
                    let result = ops::incdec(&mut self.rt.globals[s as usize], incdec_of(op))?;
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
                        let ret = builtins::dispatch(bidx, &args, &mut self.rt)?;
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
                    self.rt.output.push_str(&v.to_php_string());
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
                        self.rt.mix_event(true);
                    } else {
                        frame.pc = t as usize;
                        self.rt.mix_event(false);
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
