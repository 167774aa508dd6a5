//! The multivalue VM: superposed execution of one control-flow group.
//!
//! Runs the same register bytecode as the scalar runtime, but every
//! register and global holds an [`MVal`] — the multivalue lanes are
//! widened *over the register file*, so one 32-bit instruction executes
//! across all member requests at once. The execution discipline follows
//! §3.1/§4.3:
//!
//! * instructions with univalue operands execute **once**;
//! * instructions with multivalue operands execute **per lane** — once
//!   per distinct operand identity, lanes holding the same handles share
//!   the result ([`crate::mval::LaneMemo`]) — and the result collapses
//!   back to a univalue whenever the lanes agree;
//! * conditional branches (and iteration steps) require a *uniform*
//!   decision across lanes — otherwise the group **diverges**
//!   (Fig. 12 line 39) and the caller falls back to per-request scalar
//!   re-execution, acc-PHP's escape hatch (§4.3, §4.7);
//! * state operations split into per-lane `CheckOp`/`SimOp` calls against
//!   the [`AuditContext`] (Fig. 12 lines 41–47), and nondeterministic
//!   builtins consume each lane's recorded values (§4.6);
//! * pure builtins with multivalue arguments split into per-lane calls
//!   of the *same* implementations the scalar VM uses (§4.3 "built-in
//!   functions").
//!
//! This file is the operand traffic; lane effects, accounting, the
//! per-lane helper and the builtins are the `group` module.
//! `tests/sharing.rs` checks every group run against the scalar VM,
//! member by member.

use crate::mval::MVal;
use orochi_common::ids::RequestId;
use orochi_core::audit::{AuditContext, Rejection};
use orochi_php::bytecode::{rinsn, CompiledScript, ROp};
use orochi_php::value::Value;
use orochi_php::vm::{ops, RequestInput, RequestOutput, VmError, STEP_LIMIT};

mod group;

pub(crate) use group::{db_result, rows_to_value};
use group::{Flow, Group, GroupIter};

/// Why grouped execution stopped without producing outputs.
#[derive(Debug)]
pub enum GroupRunError {
    /// Execution within the group diverged (non-uniform branch,
    /// per-lane error, mixed types): the caller should re-execute the
    /// requests separately.
    Diverged(&'static str),
    /// The audit context rejected an operation: the audit fails.
    Reject(Rejection),
}

impl From<Rejection> for GroupRunError {
    fn from(r: Rejection) -> Self {
        GroupRunError::Reject(r)
    }
}

/// Result of a grouped run.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Per-lane response outputs (same order as the input requests).
    pub outputs: Vec<RequestOutput>,
    /// Instructions that executed once for the whole group.
    pub univalent: u64,
    /// Instructions that executed per lane.
    pub multivalent: u64,
    /// Logged session/APC versions decoded: one per distinct version
    /// the group read, however many lanes read it.
    pub logged_decodes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FnRef {
    Main,
    User(u16),
}

/// `$a[] = v` / `$a[k] = v` on an array literal under construction, and
/// `unset`, in the shape [`Group::modify_path`] applies.
fn array_append(arr: &mut Value, _keys: &[&Value], v: Value) -> Result<(), VmError> {
    *arr = ops::array_append(std::mem::replace(arr, Value::Null), v)?;
    Ok(())
}

fn array_insert(arr: &mut Value, keys: &[&Value], v: Value) -> Result<(), VmError> {
    *arr = ops::array_insert(std::mem::replace(arr, Value::Null), keys[0], v)?;
    Ok(())
}

fn unset_path(container: &mut Value, keys: &[&Value], _v: Value) -> Result<(), VmError> {
    ops::unset_path(container, keys);
    Ok(())
}

/// A pooled activation record over the multivalue register file.
struct RFrame {
    func: FnRef,
    pc: usize,
    base: usize,
    top: usize,
    ret_abs: usize,
    iters: Vec<GroupIter>,
}

struct GroupVm<'c, 'a> {
    script: &'c CompiledScript,
    g: Group<'c, 'a>,
    /// The flat multivalue register file; frame windows are disjoint.
    regs: Vec<MVal>,
    frames: Vec<RFrame>,
    depth: usize,
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

fn run_group_limited(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    ctx: &mut AuditContext<'_>,
    step_limit: u64,
) -> Result<GroupOutcome, GroupRunError> {
    let mut vm = GroupVm {
        script,
        g: Group::new(script, rids, inputs, ctx, step_limit),
        regs: Vec::new(),
        frames: Vec::new(),
        depth: 0,
    };
    let top = script.main.register_count as usize;
    vm.regs.resize(top, MVal::Uni(Value::Null));
    vm.push_frame(FnRef::Main, 0, top, 0);
    let flow = vm.interp();
    vm.g.finish(flow)
}

impl GroupVm<'_, '_> {
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

    /// The slot a path instruction targets: a local register or a global.
    fn slot(&mut self, is_local: bool, base: usize, index: usize) -> &mut MVal {
        if is_local {
            &mut self.regs[base + index]
        } else {
            &mut self.g.globals[index]
        }
    }

    fn interp(&mut self) -> Result<(), Flow> {
        loop {
            self.g.step()?;
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
            let rop = rinsn::op(insn);
            match rop {
                ROp::Move => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.g.account(!v.is_uni());
                    self.regs[a] = v;
                }
                ROp::LoadConst => {
                    self.g.account(false);
                    self.regs[a] = MVal::Uni(self.script.consts[rinsn::bx(insn)].clone());
                }
                ROp::LoadGlobal => {
                    let v = self.g.globals[rinsn::b(insn)].clone();
                    self.g.account(!v.is_uni());
                    self.regs[a] = v;
                }
                ROp::StoreGlobal => {
                    let v = self.regs[base + rinsn::b(insn)].clone();
                    self.g.account(!v.is_uni());
                    self.g.globals[rinsn::a(insn)] = v;
                }
                ROp::Add | ROp::Sub | ROp::Mul | ROp::Div | ROp::Mod | ROp::Concat => {
                    let (x, y) = (
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    let r = self
                        .g
                        .op(&[x, y], |l| ops::binary(rop, x.lane(l), y.lane(l)))?;
                    self.regs[a] = r;
                }
                ROp::Eq | ROp::Ne | ROp::Identical | ROp::NotIdentical => {
                    let (x, y) = (
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    let r = self.g.total_op(&[x, y], |l| {
                        let (p, q) = (x.lane(l), y.lane(l));
                        Value::Bool(match rop {
                            ROp::Eq => p.loose_eq(q),
                            ROp::Ne => !p.loose_eq(q),
                            ROp::Identical => p.identical(q),
                            _ => !p.identical(q),
                        })
                    })?;
                    self.regs[a] = r;
                }
                ROp::Lt | ROp::Le | ROp::Gt | ROp::Ge => {
                    let (x, y) = (
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    let r = self.g.total_op(&[x, y], |l| {
                        Value::Bool(ops::relational(rop, x.lane(l), y.lane(l)))
                    })?;
                    self.regs[a] = r;
                }
                ROp::Not => {
                    let v = &self.regs[base + rinsn::b(insn)];
                    let r = self
                        .g
                        .total_op(&[v], |l| Value::Bool(!v.lane(l).is_truthy()))?;
                    self.regs[a] = r;
                }
                ROp::Neg => {
                    let v = &self.regs[base + rinsn::b(insn)];
                    let r = self.g.op(&[v], |l| ops::negate(v.lane(l)))?;
                    self.regs[a] = r;
                }
                ROp::Jump => {
                    self.g.account(false);
                    self.frames[fi].pc = rinsn::bx(insn);
                }
                ROp::JumpIfFalse | ROp::JumpIfTrue => {
                    let v = &self.regs[a];
                    self.g.account(!v.is_uni());
                    let truth = v
                        .uniform_truthiness(self.g.lanes)
                        .map_err(|()| Flow::Diverged("non-uniform branch"))?;
                    if truth == (rop == ROp::JumpIfTrue) {
                        self.frames[fi].pc = rinsn::bx(insn);
                    }
                }
                ROp::NewArray => {
                    self.g.account(false);
                    self.regs[a] = MVal::Uni(Value::empty_array());
                }
                ROp::ArrayAppend => {
                    let arr = std::mem::replace(&mut self.regs[a], MVal::Uni(Value::Null));
                    let v = &self.regs[base + rinsn::b(insn)];
                    self.regs[a] = self.g.modify_path(arr, &[], Some(v), array_append)?;
                }
                ROp::ArrayInsert => {
                    let arr = std::mem::replace(&mut self.regs[a], MVal::Uni(Value::Null));
                    let k = std::slice::from_ref(&self.regs[base + rinsn::b(insn)]);
                    let v = &self.regs[base + rinsn::c(insn)];
                    self.regs[a] = self.g.modify_path(arr, k, Some(v), array_insert)?;
                }
                ROp::IndexGet => {
                    let (b, k) = (
                        &self.regs[base + rinsn::b(insn)],
                        &self.regs[base + rinsn::c(insn)],
                    );
                    let r = self
                        .g
                        .total_op(&[b, k], |l| ops::index_get(b.lane(l), k.lane(l)))?;
                    self.regs[a] = r;
                }
                ROp::SetPathLocal
                | ROp::SetPathGlobal
                | ROp::AppendPathLocal
                | ROp::AppendPathGlobal
                | ROp::UnsetPathLocal
                | ROp::UnsetPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = matches!(
                        rop,
                        ROp::SetPathLocal | ROp::AppendPathLocal | ROp::UnsetPathLocal
                    );
                    let cur = std::mem::replace(
                        self.slot(is_local, base, rinsn::b(insn)),
                        MVal::Uni(Value::Null),
                    );
                    // Set: value at `a`, then n keys. Append: value at
                    // `a`, then n-1 keys. Unset: n keys from `a`.
                    let new = match rop {
                        ROp::SetPathLocal | ROp::SetPathGlobal => self.g.modify_path(
                            cur,
                            &self.regs[a + 1..a + 1 + n],
                            Some(&self.regs[a]),
                            ops::set_path,
                        ),
                        ROp::AppendPathLocal | ROp::AppendPathGlobal => self.g.modify_path(
                            cur,
                            &self.regs[a + 1..a + n],
                            Some(&self.regs[a]),
                            ops::append_path,
                        ),
                        _ => self
                            .g
                            .modify_path(cur, &self.regs[a..a + n], None, unset_path),
                    }?;
                    *self.slot(is_local, base, rinsn::b(insn)) = new;
                }
                ROp::IssetPathLocal | ROp::IssetPathGlobal => {
                    let n = rinsn::c(insn);
                    let is_local = rop == ROp::IssetPathLocal;
                    let cur = self.slot(is_local, base, rinsn::b(insn)).clone();
                    let r = self.g.isset_path(&cur, &self.regs[a..a + n])?;
                    self.regs[a] = r;
                }
                ROp::IncDecLocal | ROp::IncDecGlobal => {
                    let is_local = rop == ROp::IncDecLocal;
                    let cur = self.slot(is_local, base, rinsn::b(insn)).clone();
                    let (new_slot, result) = self.g.incdec(&cur, rinsn::c(insn))?;
                    *self.slot(is_local, base, rinsn::b(insn)) = new_slot;
                    self.regs[a] = result;
                }
                ROp::Call => {
                    self.g.account(false);
                    let fidx = rinsn::a(insn) as u16;
                    let func = &self.script.functions[fidx as usize];
                    let argc = rinsn::c(insn);
                    let args_abs = base + rinsn::b(insn);
                    let callee_base = self.frames[fi].top;
                    let callee_top = callee_base + func.register_count as usize;
                    if self.regs.len() < callee_top {
                        self.regs.resize(callee_top, MVal::Uni(Value::Null));
                    }
                    let num_params = func.num_params as usize;
                    for i in 0..argc {
                        let v =
                            std::mem::replace(&mut self.regs[args_abs + i], MVal::Uni(Value::Null));
                        if i < num_params {
                            self.regs[callee_base + i] = v;
                        }
                    }
                    for p in argc..num_params {
                        match func.defaults[p] {
                            Some(cidx) => {
                                self.regs[callee_base + p] =
                                    MVal::Uni(self.script.consts[cidx as usize].clone())
                            }
                            None => {
                                return Err(Flow::GroupFatal(format!(
                                    "too few arguments to function {}()",
                                    func.name
                                )))
                            }
                        }
                    }
                    if self.depth >= 200 {
                        return Err(Flow::GroupFatal("call stack depth exceeded".into()));
                    }
                    for r in &mut self.regs[callee_base + num_params..callee_top] {
                        *r = MVal::Uni(Value::Null);
                    }
                    self.push_frame(FnRef::User(fidx), callee_base, callee_top, args_abs);
                }
                ROp::CallBuiltin => {
                    // The result lands in `regs[abs]`; a by-reference
                    // builtin's new target does, with its return value
                    // at `abs + 1`.
                    let abs = base + rinsn::b(insn);
                    let args = &self.regs[abs..abs + rinsn::c(insn)];
                    let (first, second) = self.g.builtin(rinsn::a(insn) as u16, args)?;
                    self.regs[abs] = first;
                    if let Some(ret) = second {
                        self.regs[abs + 1] = ret;
                    }
                }
                ROp::Return | ROp::ReturnNull => {
                    self.g.account(false);
                    let value = match rop {
                        ROp::Return => std::mem::replace(&mut self.regs[a], MVal::Uni(Value::Null)),
                        _ => MVal::Uni(Value::Null),
                    };
                    let ret_abs = self.frames[fi].ret_abs;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Ok(());
                    }
                    self.regs[ret_abs] = value;
                }
                ROp::Echo => self.g.echo(&self.regs[a]),
                ROp::IterInit => {
                    let iter = self.g.iter_init(&self.regs[a]);
                    self.frames[fi].iters.push(iter);
                }
                ROp::IterNext | ROp::IterNextKV => {
                    let want_key = rop == ROp::IterNextKV;
                    let frame = &mut self.frames[fi];
                    let iter = frame.iters.last_mut().expect("IterInit precedes IterNext");
                    match self.g.iter_next(iter, want_key)? {
                        Some((Some(key), value)) => {
                            self.regs[a] = key;
                            self.regs[a + 1] = value;
                        }
                        Some((None, value)) => self.regs[a] = value,
                        None => frame.pc = rinsn::bx(insn),
                    }
                }
                ROp::IterPop => {
                    self.g.account(false);
                    self.frames[fi].iters.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::request_input;
    use orochi_common::ids::CtlFlowTag;
    use orochi_core::audit::AuditConfig;
    use orochi_core::reports::Reports;
    use orochi_php::vm::STEP_LIMIT_EXCEEDED;
    use orochi_php::{compile, parse_script};
    use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

    /// The group VM's part of the step-limit check (`orochi_php::vm`
    /// holds the scalar VM's and the stack oracle's): a runaway script
    /// stops after exactly the limit's instructions with the page the
    /// scalar VM produces. The limit is lowered through the private
    /// entry point — it is a constant, not a knob.
    #[test]
    fn runaway_loop_stops_at_the_step_limit_on_the_group_vm() {
        let script = compile(
            "/t.php",
            &parse_script("<?php while (true) { $i = 1; }").unwrap(),
        )
        .unwrap();
        let rids = [RequestId(1), RequestId(2)];
        let requests = [
            HttpRequest::get("/t.php", &[("x", "1")]),
            HttpRequest::get("/t.php", &[]),
        ];
        let mut events: Vec<Event> = rids
            .iter()
            .zip(&requests)
            .map(|(rid, req)| Event::Request(*rid, req.clone()))
            .collect();
        events.extend(rids.map(|rid| Event::Response(rid, HttpResponse::ok(rid, ""))));
        let reports = Reports {
            groupings: vec![(CtlFlowTag(1), rids.to_vec())],
            op_logs: Default::default(),
            op_counts: rids.iter().map(|r| (*r, 0)).collect(),
            nondet: Default::default(),
        };
        let (trace, config) = (Trace { events }, AuditConfig::new());
        let inputs: Vec<_> = requests.iter().map(request_input).collect();
        let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
        let outcome = run_group_limited(&script, &rids, &inputs, &mut ctx, 10_000).unwrap();
        assert_eq!(outcome.univalent + outcome.multivalent, 10_000);
        for out in &outcome.outputs {
            assert_eq!(out.status, 500);
            assert_eq!(out.body, format!("Fatal error: {STEP_LIMIT_EXCEEDED}"));
        }
    }
}
