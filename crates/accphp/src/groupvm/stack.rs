//! The stack-bytecode multivalue VM, retained as the differential
//! baseline for the register group engine in the parent module.
//!
//! Runs the stack `code` stream with every stack slot, local, and
//! global holding an [`MVal`]. Everything that is not operand traffic —
//! lane effects, accounting, the per-lane apply helper, builtins — is
//! the shared `group::Group`; the property tests and `tests/sharing.rs`
//! compare the two engines' outputs, verdicts, and dispatch counts.

use crate::mval::MVal;
use orochi_common::ids::RequestId;
use orochi_core::audit::AuditContext;
use orochi_php::bytecode::{CompiledScript, Op};
use orochi_php::value::Value;
use orochi_php::vm::{ops, RequestInput, VmError, STEP_LIMIT};

use super::group::{Flow, Group, GroupIter};
use super::{array_append, array_insert, unset_path, FnRef, GroupOutcome, GroupRunError};

struct Frame {
    func: FnRef,
    pc: usize,
    locals: Vec<MVal>,
    iters: Vec<GroupIter>,
    stack_base: usize,
}

struct GroupVm<'c, 'a> {
    script: &'c CompiledScript,
    g: Group<'c, 'a>,
    stack: Vec<MVal>,
    frames: Vec<Frame>,
}

/// Runs one control-flow group's superposed execution.
pub fn run_group(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    ctx: &mut AuditContext<'_>,
) -> Result<GroupOutcome, GroupRunError> {
    run_group_limited(script, rids, inputs, ctx, STEP_LIMIT)
}

pub(super) fn run_group_limited(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    ctx: &mut AuditContext<'_>,
    step_limit: u64,
) -> Result<GroupOutcome, GroupRunError> {
    let mut vm = GroupVm {
        script,
        g: Group::new(script, rids, inputs, ctx, step_limit),
        stack: Vec::with_capacity(64),
        frames: Vec::new(),
    };
    vm.frames.push(Frame {
        func: FnRef::Main,
        pc: 0,
        locals: vec![MVal::Uni(Value::Null); script.main.num_locals as usize],
        iters: Vec::new(),
        stack_base: 0,
    });
    let flow = vm.interp();
    vm.g.finish(flow)
}

/// The scalar-op selector of a local or global `++`/`--` variant.
fn incdec_selector(op: Op) -> Op {
    match op {
        Op::PreIncLocal(_) | Op::PreIncGlobal(_) => Op::PreIncLocal(0),
        Op::PostIncLocal(_) | Op::PostIncGlobal(_) => Op::PostIncLocal(0),
        Op::PreDecLocal(_) | Op::PreDecGlobal(_) => Op::PreDecLocal(0),
        _ => Op::PostDecLocal(0),
    }
}

impl GroupVm<'_, '_> {
    fn pop(&mut self) -> MVal {
        self.stack.pop().expect("compiler guarantees stack depth")
    }

    fn pop_keys(&mut self, n: usize) -> Vec<MVal> {
        self.stack.split_off(self.stack.len() - n)
    }

    /// The slot a path or `++`/`--` instruction targets.
    fn slot(&mut self, is_local: bool, index: u16) -> &mut MVal {
        if is_local {
            &mut self.frames.last_mut().expect("running frame").locals[index as usize]
        } else {
            &mut self.g.globals[index as usize]
        }
    }

    /// Read-modify-write of a local/global slot through an index path.
    fn modify_path<'k>(
        &mut self,
        is_local: bool,
        slot: u16,
        keys: &'k [MVal],
        value: Option<&MVal>,
        f: impl Fn(&mut Value, &[&'k Value], Value) -> Result<(), VmError>,
    ) -> Result<(), Flow> {
        let cur = std::mem::replace(self.slot(is_local, slot), MVal::Uni(Value::Null));
        *self.slot(is_local, slot) = self.g.modify_path(cur, keys, value, f)?;
        Ok(())
    }

    fn interp(&mut self) -> Result<(), Flow> {
        loop {
            self.g.step()?;
            let frame = self.frames.last_mut().expect("frame present while running");
            let code = match frame.func {
                FnRef::Main => &self.script.main.code,
                FnRef::User(i) => &self.script.functions[i as usize].code,
            };
            let pc = frame.pc;
            let op = code[pc];
            frame.pc += 1;
            match op {
                Op::Const(i) => {
                    self.g.account(false);
                    self.stack
                        .push(MVal::Uni(self.script.consts[i as usize].clone()));
                }
                Op::LoadLocal(s) | Op::LoadGlobal(s) => {
                    let v = self.slot(matches!(op, Op::LoadLocal(_)), s).clone();
                    self.g.account(!v.is_uni());
                    self.stack.push(v);
                }
                Op::StoreLocal(s) | Op::StoreGlobal(s) => {
                    let v = self.pop();
                    self.g.account(!v.is_uni());
                    *self.slot(matches!(op, Op::StoreLocal(_)), s) = v;
                }
                Op::Pop => {
                    self.g.account(false);
                    self.pop();
                }
                Op::Dup => {
                    self.g.account(false);
                    let v = self.stack.last().expect("dup target").clone();
                    self.stack.push(v);
                }
                Op::Swap => {
                    self.g.account(false);
                    let n = self.stack.len();
                    self.stack.swap(n - 1, n - 2);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod | Op::Concat => {
                    let b = self.pop();
                    let a = self.pop();
                    let r = self
                        .g
                        .op(&[&a, &b], |l| ops::binary(op, a.lane(l), b.lane(l)))?;
                    self.stack.push(r);
                }
                Op::Eq | Op::Ne | Op::Identical | Op::NotIdentical => {
                    let b = self.pop();
                    let a = self.pop();
                    let r = self.g.total_op(&[&a, &b], |l| {
                        let (x, y) = (a.lane(l), b.lane(l));
                        Value::Bool(match op {
                            Op::Eq => x.loose_eq(y),
                            Op::Ne => !x.loose_eq(y),
                            Op::Identical => x.identical(y),
                            _ => !x.identical(y),
                        })
                    })?;
                    self.stack.push(r);
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    let b = self.pop();
                    let a = self.pop();
                    let r = self.g.total_op(&[&a, &b], |l| {
                        Value::Bool(ops::relational(op, a.lane(l), b.lane(l)))
                    })?;
                    self.stack.push(r);
                }
                Op::Not => {
                    let v = self.pop();
                    let r = self
                        .g
                        .total_op(&[&v], |l| Value::Bool(!v.lane(l).is_truthy()))?;
                    self.stack.push(r);
                }
                Op::Neg => {
                    let v = self.pop();
                    let r = self.g.op(&[&v], |l| ops::negate(v.lane(l)))?;
                    self.stack.push(r);
                }
                Op::Jump(t) => {
                    self.g.account(false);
                    self.frames.last_mut().expect("running frame").pc = t as usize;
                }
                Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                    let v = self.pop();
                    self.g.account(!v.is_uni());
                    let truth = v
                        .uniform_truthiness(self.g.lanes)
                        .map_err(|()| Flow::Diverged("non-uniform branch"))?;
                    if truth == matches!(op, Op::JumpIfTrue(_)) {
                        self.frames.last_mut().expect("running frame").pc = t as usize;
                    }
                }
                Op::NewArray => {
                    self.g.account(false);
                    self.stack.push(MVal::Uni(Value::empty_array()));
                }
                Op::AppendStack => {
                    let v = self.pop();
                    let arr = self.pop();
                    let r = self.g.modify_path(arr, &[], Some(&v), array_append)?;
                    self.stack.push(r);
                }
                Op::InsertStack => {
                    let v = self.pop();
                    let k = self.pop();
                    let arr = self.pop();
                    let r = self.g.modify_path(arr, &[k], Some(&v), array_insert)?;
                    self.stack.push(r);
                }
                Op::IndexGet => {
                    let k = self.pop();
                    let base = self.pop();
                    let r = self
                        .g
                        .total_op(&[&base, &k], |l| ops::index_get(base.lane(l), k.lane(l)))?;
                    self.stack.push(r);
                }
                Op::SetPathLocal(slot, n) | Op::SetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let value = self.pop();
                    let is_local = matches!(op, Op::SetPathLocal(..));
                    self.modify_path(is_local, slot, &keys, Some(&value), ops::set_path)?;
                    self.stack.push(value);
                }
                Op::AppendPathLocal(slot, n) | Op::AppendPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize - 1);
                    let value = self.pop();
                    let is_local = matches!(op, Op::AppendPathLocal(..));
                    self.modify_path(is_local, slot, &keys, Some(&value), ops::append_path)?;
                    self.stack.push(value);
                }
                Op::UnsetPathLocal(slot, n) | Op::UnsetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let is_local = matches!(op, Op::UnsetPathLocal(..));
                    self.modify_path(is_local, slot, &keys, None, unset_path)?;
                }
                Op::IssetPathLocal(slot, n) | Op::IssetPathGlobal(slot, n) => {
                    let keys = self.pop_keys(n as usize);
                    let base = self
                        .slot(matches!(op, Op::IssetPathLocal(..)), slot)
                        .clone();
                    let r = self.g.isset_path(&base, &keys)?;
                    self.stack.push(r);
                }
                Op::PreIncLocal(s)
                | Op::PostIncLocal(s)
                | Op::PreDecLocal(s)
                | Op::PostDecLocal(s)
                | Op::PreIncGlobal(s)
                | Op::PostIncGlobal(s)
                | Op::PreDecGlobal(s)
                | Op::PostDecGlobal(s) => {
                    let is_local = matches!(
                        op,
                        Op::PreIncLocal(_)
                            | Op::PostIncLocal(_)
                            | Op::PreDecLocal(_)
                            | Op::PostDecLocal(_)
                    );
                    let cur = self.slot(is_local, s).clone();
                    let (new_slot, result) = self.g.incdec(&cur, incdec_selector(op))?;
                    *self.slot(is_local, s) = new_slot;
                    self.stack.push(result);
                }
                Op::Call(fidx, argc) => {
                    self.g.account(false);
                    let func = &self.script.functions[fidx as usize];
                    let argc = argc as usize;
                    let mut locals = vec![MVal::Uni(Value::Null); func.num_locals as usize];
                    let args_start = self.stack.len() - argc;
                    for (i, v) in self.stack.drain(args_start..).enumerate() {
                        if i < func.num_params as usize {
                            locals[i] = v;
                        }
                    }
                    #[allow(clippy::needless_range_loop)]
                    for p in argc..func.num_params as usize {
                        match func.defaults[p] {
                            Some(cidx) => {
                                locals[p] = MVal::Uni(self.script.consts[cidx as usize].clone())
                            }
                            None => {
                                return Err(Flow::GroupFatal(format!(
                                    "too few arguments to function {}()",
                                    func.name
                                )))
                            }
                        }
                    }
                    if self.frames.len() >= 200 {
                        return Err(Flow::GroupFatal("call stack depth exceeded".into()));
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
                    let args = self.pop_keys(argc as usize);
                    let (first, second) = self.g.builtin(bidx, &args)?;
                    self.stack.push(first);
                    self.stack.extend(second);
                }
                Op::Return | Op::ReturnNull => {
                    self.g.account(false);
                    let value = match op {
                        Op::Return => self.pop(),
                        _ => MVal::Uni(Value::Null),
                    };
                    let frame = self.frames.pop().expect("returning frame");
                    if self.frames.is_empty() {
                        return Ok(());
                    }
                    self.stack.truncate(frame.stack_base);
                    self.stack.push(value);
                }
                Op::Echo => {
                    let v = self.pop();
                    self.g.echo(&v);
                }
                Op::IterInit => {
                    let arr = self.pop();
                    let iter = self.g.iter_init(&arr);
                    self.frames
                        .last_mut()
                        .expect("running frame")
                        .iters
                        .push(iter);
                }
                Op::IterNext(t) | Op::IterNextKV(t) => {
                    let want_key = matches!(op, Op::IterNextKV(_));
                    let frame = self.frames.last_mut().expect("running frame");
                    let iter = frame.iters.last_mut().expect("IterInit precedes IterNext");
                    match self.g.iter_next(iter, want_key)? {
                        Some((key, value)) => {
                            self.stack.extend(key);
                            self.stack.push(value);
                        }
                        None => frame.pc = t as usize,
                    }
                }
                Op::IterPop => {
                    self.g.account(false);
                    self.frames.last_mut().expect("running frame").iters.pop();
                }
            }
        }
    }
}
