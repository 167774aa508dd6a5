//! The stack oracle's own compiler: AST to push/pop bytecode.
//!
//! Production code never runs this encoding. It is a second, independent
//! lowering of the same AST — its own slot assignment, operands on a
//! stack, no register allocation — so that running it beside the
//! register code ([`crate::compiler`]) catches register-allocation and
//! code-generation bugs that a comparison between two runs of the
//! register code cannot see. Both compilers emit the digest-mixed events
//! (conditional jumps, iterator advances) in source evaluation order, so
//! the two encodings produce the same control-flow digest.
//!
//! Every expression compiles to code leaving exactly one value on the
//! stack; statement expressions pop it.

use crate::ast::{AssignOp, BinOp, Expr, LValue, Script, Stmt};
use crate::builtins;
use crate::bytecode::{superglobal_slot, CompiledScript};
use crate::compiler::{compile_with, err, CompileError, Shared};
use crate::value::Value;
use std::collections::HashMap;

/// One stack-VM instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push the value of local slot `i`.
    LoadLocal(u16),
    /// Pop into local slot `i`.
    StoreLocal(u16),
    /// Push the value of global slot `i`.
    LoadGlobal(u16),
    /// Pop into global slot `i`.
    StoreGlobal(u16),
    /// Pop and discard.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two stack values (used by by-reference builtins).
    Swap,
    /// `+` with PHP numeric semantics.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (float division; integral results stay int when exact).
    Div,
    /// `%` (integer modulo).
    Mod,
    /// `.` string concatenation.
    Concat,
    /// `==` loose equality.
    Eq,
    /// `!=`.
    Ne,
    /// `===`.
    Identical,
    /// `!==`.
    NotIdentical,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `!`.
    Not,
    /// Unary `-`.
    Neg,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy. Updates the control-flow digest.
    JumpIfFalse(u32),
    /// Pop; jump when truthy. Updates the control-flow digest.
    JumpIfTrue(u32),
    /// Push an empty array.
    NewArray,
    /// `[arr, v] -> [arr']`: append with the next integer key.
    AppendStack,
    /// `[arr, k, v] -> [arr']`: set a key.
    InsertStack,
    /// `[base, k] -> [v]`: index read (array or string; null when
    /// missing).
    IndexGet,
    /// `[v, k1..kn] -> [v]`: set `local[slot][k1]..[kn] = v`.
    SetPathLocal(u16, u8),
    /// `[v, k1..kn] -> [v]`: set through a global slot.
    SetPathGlobal(u16, u8),
    /// `[v, k1..k(n-1)] -> [v]`: append at the end of the path
    /// (`$a[k1]..[] = v`); `n = 1` is the plain `$a[] = v`.
    AppendPathLocal(u16, u8),
    /// Append through a global slot.
    AppendPathGlobal(u16, u8),
    /// `[k1..kn] -> []`: unset `local[slot][k1]..[kn]`; `n = 0` clears
    /// the variable itself.
    UnsetPathLocal(u16, u8),
    /// Unset through a global slot.
    UnsetPathGlobal(u16, u8),
    /// `[k1..kn] -> [bool]`: isset on a local path; `n = 0` tests the
    /// variable.
    IssetPathLocal(u16, u8),
    /// Isset through a global slot.
    IssetPathGlobal(u16, u8),
    /// `++$local` (push new value).
    PreIncLocal(u16),
    /// `$local++` (push old value).
    PostIncLocal(u16),
    /// `--$local`.
    PreDecLocal(u16),
    /// `$local--`.
    PostDecLocal(u16),
    /// `++$global`.
    PreIncGlobal(u16),
    /// `$global++`.
    PostIncGlobal(u16),
    /// `--$global`.
    PreDecGlobal(u16),
    /// `$global--`.
    PostDecGlobal(u16),
    /// Call user function `i` with `argc` stack arguments.
    Call(u16, u8),
    /// Call builtin `i` with `argc` stack arguments.
    CallBuiltin(u16, u8),
    /// Return the top of stack to the caller.
    Return,
    /// Return null.
    ReturnNull,
    /// Pop and append to the output buffer.
    Echo,
    /// `[arr] -> []`: push a fresh iterator over the array snapshot.
    IterInit,
    /// Advance the top iterator: push the next value, or jump to the
    /// target when exhausted. Updates the control-flow digest.
    IterNext(u32),
    /// Advance pushing key then value, or jump when exhausted.
    IterNextKV(u32),
    /// Pop the top iterator.
    IterPop,
}

/// A function body in stack bytecode.
#[derive(Debug, Clone)]
pub struct StackFunction {
    /// Function name (lowercased; `"{main}"` for the script body).
    pub name: String,
    /// Number of declared parameters.
    pub num_params: u16,
    /// Constant-pool indices of parameter defaults (`None` = required).
    pub defaults: Vec<Option<u16>>,
    /// Local slots (params first, then variables and temporaries).
    pub num_locals: u16,
    /// The code.
    pub code: Vec<Op>,
}

/// A script compiled for the stack oracle.
pub type StackScript = CompiledScript<StackFunction>;

/// Compiles a parsed script to stack bytecode. It raises
/// [`crate::compile`]'s messages for the same mistakes, but has none of
/// the register encoding's size limits.
pub fn compile(path: &str, script: &Script) -> Result<StackScript, CompileError> {
    compile_with(path, script, compile_function)
}

/// Where a variable lives.
#[derive(Debug, Clone, Copy)]
enum Place {
    Local(u16),
    Global(u16),
}

struct FnCompiler<'a> {
    shared: &'a mut Shared,
    /// True when compiling the script body (all vars are globals).
    is_main: bool,
    locals: HashMap<String, u16>,
    num_locals: u16,
    global_decls: HashMap<String, u16>,
    code: Vec<Op>,
    /// Stack of loop contexts: (continue jump indices, break jump
    /// indices, continue target when already known).
    loops: Vec<LoopCtx>,
    temp_counter: u32,
}

struct LoopCtx {
    continue_jumps: Vec<usize>,
    break_jumps: Vec<usize>,
    continue_target: Option<u32>,
}

fn compile_function(
    name: &str,
    params: &[(String, Option<Expr>)],
    body: &[Stmt],
    shared: &mut Shared,
    is_main: bool,
) -> Result<StackFunction, CompileError> {
    let defaults = shared.defaults(params)?;
    let mut c = FnCompiler {
        shared,
        is_main,
        locals: HashMap::new(),
        num_locals: 0,
        global_decls: HashMap::new(),
        code: Vec::new(),
        loops: Vec::new(),
        temp_counter: 0,
    };
    for (pname, _) in params {
        c.local_slot(pname);
    }
    for stmt in body {
        c.stmt(stmt)?;
    }
    c.code.push(Op::ReturnNull);
    Ok(StackFunction {
        name: name.to_string(),
        num_params: params.len() as u16,
        defaults,
        num_locals: c.num_locals,
        code: c.code,
    })
}

impl FnCompiler<'_> {
    fn local_slot(&mut self, name: &str) -> u16 {
        if let Some(&slot) = self.locals.get(name) {
            return slot;
        }
        let slot = self.num_locals;
        self.locals.insert(name.to_string(), slot);
        self.num_locals += 1;
        slot
    }

    fn temp_slot(&mut self) -> u16 {
        self.temp_counter += 1;
        self.local_slot(&format!("\u{0}tmp{}", self.temp_counter))
    }

    fn place(&mut self, name: &str) -> Place {
        if let Some(slot) = superglobal_slot(name) {
            return Place::Global(slot);
        }
        if self.is_main {
            return Place::Global(self.shared.global_slot(name));
        }
        if let Some(&slot) = self.global_decls.get(name) {
            return Place::Global(slot);
        }
        Place::Local(self.local_slot(name))
    }

    fn emit_load(&mut self, place: Place) {
        self.code.push(match place {
            Place::Local(s) => Op::LoadLocal(s),
            Place::Global(s) => Op::LoadGlobal(s),
        });
    }

    fn emit_store(&mut self, place: Place) {
        self.code.push(match place {
            Place::Local(s) => Op::StoreLocal(s),
            Place::Global(s) => Op::StoreGlobal(s),
        });
    }

    fn const_op(&mut self, v: Value) {
        let idx = self.shared.const_idx(v);
        self.code.push(Op::Const(idx));
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emits a placeholder jump; returns its index for patching.
    fn emit_jump(&mut self, make: fn(u32) -> Op) -> usize {
        self.code.push(make(u32::MAX));
        self.code.len() - 1
    }

    fn patch(&mut self, idx: usize, target: u32) {
        let op = match self.code[idx] {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfTrue(_) => Op::JumpIfTrue(target),
            Op::IterNext(_) => Op::IterNext(target),
            Op::IterNextKV(_) => Op::IterNextKV(target),
            other => unreachable!("patching non-jump {other:?}"),
        };
        self.code[idx] = op;
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.expr(e)?;
                    self.code.push(Op::Echo);
                }
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.code.push(Op::Pop);
            }
            Stmt::If { arms, otherwise } => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.expr(cond)?;
                    let skip = self.emit_jump(Op::JumpIfFalse);
                    for s in body {
                        self.stmt(s)?;
                    }
                    end_jumps.push(self.emit_jump(Op::Jump));
                    let here = self.here();
                    self.patch(skip, here);
                }
                for s in otherwise {
                    self.stmt(s)?;
                }
                let here = self.here();
                for j in end_jumps {
                    self.patch(j, here);
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                self.expr(cond)?;
                let exit = self.emit_jump(Op::JumpIfFalse);
                self.loops.push(LoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: Some(start),
                });
                for s in body {
                    self.stmt(s)?;
                }
                self.code.push(Op::Jump(start));
                let end = self.here();
                self.patch(exit, end);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch(j, start);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init {
                    self.expr(e)?;
                    self.code.push(Op::Pop);
                }
                let start = self.here();
                let exit = match cond {
                    Some(c) => {
                        self.expr(c)?;
                        Some(self.emit_jump(Op::JumpIfFalse))
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: None,
                });
                for s in body {
                    self.stmt(s)?;
                }
                let step_label = self.here();
                for e in step {
                    self.expr(e)?;
                    self.code.push(Op::Pop);
                }
                self.code.push(Op::Jump(start));
                let end = self.here();
                if let Some(exit) = exit {
                    self.patch(exit, end);
                }
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch(j, step_label);
                }
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                self.expr(array)?;
                self.code.push(Op::IterInit);
                let start = self.here();
                let next_idx = match key_var {
                    Some(_) => self.emit_jump(Op::IterNextKV),
                    None => self.emit_jump(Op::IterNext),
                };
                // Stack after IterNextKV: [key, value]; store value
                // first, then key.
                let vplace = self.place(value_var);
                self.emit_store(vplace);
                if let Some(k) = key_var {
                    let kplace = self.place(k);
                    self.emit_store(kplace);
                }
                self.loops.push(LoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: Some(start),
                });
                for s in body {
                    self.stmt(s)?;
                }
                self.code.push(Op::Jump(start));
                let end = self.here();
                self.patch(next_idx, end);
                self.code.push(Op::IterPop);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    // Break jumps to `end`, where IterPop cleans up.
                    self.patch(j, end);
                }
                for j in ctx.continue_jumps {
                    self.patch(j, start);
                }
            }
            Stmt::Switch {
                subject,
                cases,
                default,
            } => {
                self.expr(subject)?;
                let tmp = self.temp_slot();
                self.code.push(Op::StoreLocal(tmp));
                // Dispatch: loose-compare against each case value.
                let mut case_jumps = Vec::new();
                for (value, _) in cases {
                    self.code.push(Op::LoadLocal(tmp));
                    self.expr(value)?;
                    self.code.push(Op::Eq);
                    case_jumps.push(self.emit_jump(Op::JumpIfTrue));
                }
                let default_jump = self.emit_jump(Op::Jump);
                // Bodies in source order with fallthrough; default sits
                // at its recorded position.
                self.loops.push(LoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: None,
                });
                let mut default_target = None;
                for (i, (_, body)) in cases.iter().enumerate() {
                    if let Some((pos, dbody)) = default {
                        if *pos == i {
                            default_target = Some(self.here());
                            for s in dbody {
                                self.stmt(s)?;
                            }
                        }
                    }
                    let here = self.here();
                    self.patch(case_jumps[i], here);
                    for s in body {
                        self.stmt(s)?;
                    }
                }
                if let Some((pos, dbody)) = default {
                    if *pos == cases.len() {
                        default_target = Some(self.here());
                        for s in dbody {
                            self.stmt(s)?;
                        }
                    }
                }
                let end = self.here();
                self.patch(default_jump, default_target.unwrap_or(end));
                let ctx = self.loops.pop().expect("switch context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end);
                }
                if !ctx.continue_jumps.is_empty() {
                    return Err(err("continue inside switch is not supported"));
                }
            }
            Stmt::Break => {
                let j = self.emit_jump(Op::Jump);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.break_jumps.push(j),
                    None => return Err(err("break outside loop")),
                }
            }
            Stmt::Continue => match self.loops.last_mut() {
                Some(ctx) => match ctx.continue_target {
                    Some(target) => {
                        self.code.push(Op::Jump(target));
                    }
                    None => {
                        let j = self.emit_jump(Op::Jump);
                        self.loops
                            .last_mut()
                            .expect("checked above")
                            .continue_jumps
                            .push(j);
                    }
                },
                None => return Err(err("continue outside loop")),
            },
            Stmt::Return(value) => match value {
                Some(e) => {
                    self.expr(e)?;
                    self.code.push(Op::Return);
                }
                None => self.code.push(Op::ReturnNull),
            },
            Stmt::Global(names) => {
                if self.is_main {
                    // `global` at script level is a no-op.
                    return Ok(());
                }
                for name in names {
                    let slot = self.shared.global_slot(name);
                    self.global_decls.insert(name.clone(), slot);
                }
            }
            Stmt::Unset(lv) => {
                let n = lv.path.len() as u8;
                for step in &lv.path {
                    match step {
                        Some(k) => self.expr(k)?,
                        None => return Err(err("cannot unset an append target")),
                    }
                }
                let place = self.place(&lv.var);
                self.code.push(match place {
                    Place::Local(s) => Op::UnsetPathLocal(s, n),
                    Place::Global(s) => Op::UnsetPathGlobal(s, n),
                });
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Int(i) => self.const_op(Value::Int(*i)),
            Expr::Float(f) => self.const_op(Value::Float(*f)),
            Expr::Str(s) => self.const_op(Value::str(s.clone())),
            Expr::Bool(b) => self.const_op(Value::Bool(*b)),
            Expr::Null => self.const_op(Value::Null),
            Expr::Var(name) => {
                let place = self.place(name);
                self.emit_load(place);
            }
            Expr::Index { base, index } => {
                self.expr(base)?;
                self.expr(index)?;
                self.code.push(Op::IndexGet);
            }
            Expr::ArrayLit(pairs) => {
                self.code.push(Op::NewArray);
                for (key, value) in pairs {
                    match key {
                        None => {
                            self.expr(value)?;
                            self.code.push(Op::AppendStack);
                        }
                        Some(k) => {
                            self.expr(k)?;
                            self.expr(value)?;
                            self.code.push(Op::InsertStack);
                        }
                    }
                }
            }
            Expr::Assign { target, op, value } => {
                self.compile_assign(target, *op, value)?;
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs)?;
                    let f1 = self.emit_jump(Op::JumpIfFalse);
                    self.expr(rhs)?;
                    let f2 = self.emit_jump(Op::JumpIfFalse);
                    self.const_op(Value::Bool(true));
                    let end = self.emit_jump(Op::Jump);
                    let fl = self.here();
                    self.patch(f1, fl);
                    self.patch(f2, fl);
                    self.const_op(Value::Bool(false));
                    let here = self.here();
                    self.patch(end, here);
                }
                BinOp::Or => {
                    self.expr(lhs)?;
                    let t1 = self.emit_jump(Op::JumpIfTrue);
                    self.expr(rhs)?;
                    let t2 = self.emit_jump(Op::JumpIfTrue);
                    self.const_op(Value::Bool(false));
                    let end = self.emit_jump(Op::Jump);
                    let tl = self.here();
                    self.patch(t1, tl);
                    self.patch(t2, tl);
                    self.const_op(Value::Bool(true));
                    let here = self.here();
                    self.patch(end, here);
                }
                _ => {
                    self.expr(lhs)?;
                    self.expr(rhs)?;
                    self.code.push(binop_code(*op));
                }
            },
            Expr::Not(inner) => {
                self.expr(inner)?;
                self.code.push(Op::Not);
            }
            Expr::Neg(inner) => {
                self.expr(inner)?;
                self.code.push(Op::Neg);
            }
            Expr::IncDec { target, inc, pre } => {
                self.compile_incdec(target, *inc, *pre)?;
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => match then {
                Some(then) => {
                    self.expr(cond)?;
                    let to_else = self.emit_jump(Op::JumpIfFalse);
                    self.expr(then)?;
                    let to_end = self.emit_jump(Op::Jump);
                    let el = self.here();
                    self.patch(to_else, el);
                    self.expr(otherwise)?;
                    let end = self.here();
                    self.patch(to_end, end);
                }
                None => {
                    // Elvis: cond ?: else — cond evaluated once.
                    self.expr(cond)?;
                    self.code.push(Op::Dup);
                    let keep = self.emit_jump(Op::JumpIfTrue);
                    self.code.push(Op::Pop);
                    self.expr(otherwise)?;
                    let end = self.here();
                    self.patch(keep, end);
                }
            },
            Expr::Call { name, args } => {
                if let Some(&fidx) = self.shared.functions.get(name) {
                    for a in args {
                        self.expr(a)?;
                    }
                    self.code.push(Op::Call(fidx, args.len() as u8));
                } else if let Some(bidx) = builtins::lookup(name) {
                    if builtins::is_byref(bidx) {
                        self.compile_byref_call(name, bidx, args)?;
                    } else {
                        for a in args {
                            self.expr(a)?;
                        }
                        self.code.push(Op::CallBuiltin(bidx, args.len() as u8));
                    }
                } else {
                    return Err(err(format!("call to undefined function {name}()")));
                }
            }
            Expr::Isset(lv) => {
                let n = lv.path.len() as u8;
                for step in &lv.path {
                    match step {
                        Some(k) => self.expr(k)?,
                        None => return Err(err("isset on append target")),
                    }
                }
                let place = self.place(&lv.var);
                self.code.push(match place {
                    Place::Local(s) => Op::IssetPathLocal(s, n),
                    Place::Global(s) => Op::IssetPathGlobal(s, n),
                });
            }
            Expr::Empty(inner) => {
                self.expr(inner)?;
                self.code.push(Op::Not);
            }
        }
        Ok(())
    }

    /// Compiles a by-reference builtin call (`sort($a)`,
    /// `array_push($a, $v)`): the target array travels as the first
    /// argument and the returned array is stored back into the variable.
    /// The builtin's PHP return value stays on the stack.
    fn compile_byref_call(
        &mut self,
        name: &str,
        bidx: u16,
        args: &[Expr],
    ) -> Result<(), CompileError> {
        let target = match args.first() {
            Some(Expr::Var(v)) => LValue {
                var: v.clone(),
                path: Vec::new(),
            },
            Some(Expr::Index { .. }) => {
                // Rebuild the lvalue from a nested index expression.
                fn unroll(e: &Expr, path: &mut Vec<Option<Expr>>) -> Option<String> {
                    match e {
                        Expr::Var(v) => Some(v.clone()),
                        Expr::Index { base, index } => {
                            let var = unroll(base, path)?;
                            path.push(Some((**index).clone()));
                            Some(var)
                        }
                        _ => None,
                    }
                }
                let mut path = Vec::new();
                let var = unroll(args.first().expect("checked above"), &mut path)
                    .ok_or_else(|| err(format!("{name}() requires a variable argument")))?;
                LValue { var, path }
            }
            _ => return Err(err(format!("{name}() requires a variable argument"))),
        };
        let place = self.place(&target.var);
        let n = target.path.len() as u8;
        // Stash path keys in temps (used for both the read and the
        // write-back).
        let temps: Vec<u16> = (0..target.path.len()).map(|_| self.temp_slot()).collect();
        for (k, t) in target.path.iter().zip(&temps) {
            self.expr(k.as_ref().expect("index paths have keys"))?;
            self.code.push(Op::StoreLocal(*t));
        }
        // Current array value as arg 0.
        self.emit_load(place);
        for t in &temps {
            self.code.push(Op::LoadLocal(*t));
            self.code.push(Op::IndexGet);
        }
        for a in &args[1..] {
            self.expr(a)?;
        }
        self.code.push(Op::CallBuiltin(bidx, args.len() as u8));
        // Stack: [new_target, ret] -> store new_target back, keep ret.
        self.code.push(Op::Swap);
        if target.path.is_empty() {
            self.emit_store(place);
        } else {
            for t in &temps {
                self.code.push(Op::LoadLocal(*t));
            }
            self.code.push(match place {
                Place::Local(s) => Op::SetPathLocal(s, n),
                Place::Global(s) => Op::SetPathGlobal(s, n),
            });
            self.code.push(Op::Pop);
        }
        Ok(())
    }

    /// Compiles assignment; leaves the assigned value on the stack.
    fn compile_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
    ) -> Result<(), CompileError> {
        let place = self.place(&target.var);
        if target.path.is_empty() {
            // Plain variable.
            match op {
                AssignOp::Set => self.expr(value)?,
                _ => {
                    self.emit_load(place);
                    self.expr(value)?;
                    self.code.push(compound_code(op));
                }
            }
            self.code.push(Op::Dup);
            self.emit_store(place);
            return Ok(());
        }
        // Path assignment. Appends cannot be compound.
        let has_append = target.path.iter().any(|p| p.is_none());
        if has_append {
            if op != AssignOp::Set {
                return Err(err("compound assignment to append target"));
            }
            // Only a trailing append is supported: $a[k1]..[kn][] = v.
            let (last, keys) = target.path.split_last().expect("non-empty path");
            if last.is_some() || keys.iter().any(|p| p.is_none()) {
                return Err(err("only a trailing [] append is supported"));
            }
            self.expr(value)?;
            for k in keys {
                self.expr(k.as_ref().expect("checked above"))?;
            }
            let n = target.path.len() as u8;
            self.code.push(match place {
                Place::Local(s) => Op::AppendPathLocal(s, n),
                Place::Global(s) => Op::AppendPathGlobal(s, n),
            });
            return Ok(());
        }
        let n = target.path.len() as u8;
        match op {
            AssignOp::Set => {
                self.expr(value)?;
                for k in &target.path {
                    self.expr(k.as_ref().expect("no appends in this branch"))?;
                }
                self.code.push(match place {
                    Place::Local(s) => Op::SetPathLocal(s, n),
                    Place::Global(s) => Op::SetPathGlobal(s, n),
                });
            }
            _ => {
                // Compound: stash keys in temps so they evaluate once.
                let temps: Vec<u16> = (0..target.path.len()).map(|_| self.temp_slot()).collect();
                for (k, t) in target.path.iter().zip(&temps) {
                    self.expr(k.as_ref().expect("no appends in this branch"))?;
                    self.code.push(Op::StoreLocal(*t));
                }
                // current = base[k1]..[kn]
                self.emit_load(place);
                for t in &temps {
                    self.code.push(Op::LoadLocal(*t));
                    self.code.push(Op::IndexGet);
                }
                self.expr(value)?;
                self.code.push(compound_code(op));
                for t in &temps {
                    self.code.push(Op::LoadLocal(*t));
                }
                self.code.push(match place {
                    Place::Local(s) => Op::SetPathLocal(s, n),
                    Place::Global(s) => Op::SetPathGlobal(s, n),
                });
            }
        }
        Ok(())
    }

    /// Compiles `++`/`--`; leaves the expression value (old for postfix,
    /// new for prefix).
    fn compile_incdec(
        &mut self,
        target: &LValue,
        inc: bool,
        pre: bool,
    ) -> Result<(), CompileError> {
        if target.path.is_empty() {
            let place = self.place(&target.var);
            let op = match (place, inc, pre) {
                (Place::Local(s), true, true) => Op::PreIncLocal(s),
                (Place::Local(s), true, false) => Op::PostIncLocal(s),
                (Place::Local(s), false, true) => Op::PreDecLocal(s),
                (Place::Local(s), false, false) => Op::PostDecLocal(s),
                (Place::Global(s), true, true) => Op::PreIncGlobal(s),
                (Place::Global(s), true, false) => Op::PostIncGlobal(s),
                (Place::Global(s), false, true) => Op::PreDecGlobal(s),
                (Place::Global(s), false, false) => Op::PostDecGlobal(s),
            };
            self.code.push(op);
            return Ok(());
        }
        // Path form: load-modify-store with key temps.
        let place = self.place(&target.var);
        let n = target.path.len() as u8;
        let temps: Vec<u16> = (0..target.path.len()).map(|_| self.temp_slot()).collect();
        for (k, t) in target.path.iter().zip(&temps) {
            match k {
                Some(k) => self.expr(k)?,
                None => return Err(err("increment of append target")),
            }
            self.code.push(Op::StoreLocal(*t));
        }
        self.emit_load(place);
        for t in &temps {
            self.code.push(Op::LoadLocal(*t));
            self.code.push(Op::IndexGet);
        }
        // Stack: [cur].
        if pre {
            self.const_op(Value::Int(1));
            self.code.push(if inc { Op::Add } else { Op::Sub });
            for t in &temps {
                self.code.push(Op::LoadLocal(*t));
            }
            self.code.push(match place {
                Place::Local(s) => Op::SetPathLocal(s, n),
                Place::Global(s) => Op::SetPathGlobal(s, n),
            });
        } else {
            self.code.push(Op::Dup);
            self.const_op(Value::Int(1));
            self.code.push(if inc { Op::Add } else { Op::Sub });
            for t in &temps {
                self.code.push(Op::LoadLocal(*t));
            }
            self.code.push(match place {
                Place::Local(s) => Op::SetPathLocal(s, n),
                Place::Global(s) => Op::SetPathGlobal(s, n),
            });
            self.code.push(Op::Pop);
        }
        Ok(())
    }
}

fn binop_code(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Mod => Op::Mod,
        BinOp::Concat => Op::Concat,
        BinOp::Eq => Op::Eq,
        BinOp::Ne => Op::Ne,
        BinOp::Identical => Op::Identical,
        BinOp::NotIdentical => Op::NotIdentical,
        BinOp::Lt => Op::Lt,
        BinOp::Le => Op::Le,
        BinOp::Gt => Op::Gt,
        BinOp::Ge => Op::Ge,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops compile to jumps"),
    }
}

fn compound_code(op: AssignOp) -> Op {
    match op {
        AssignOp::Add => Op::Add,
        AssignOp::Sub => Op::Sub,
        AssignOp::Mul => Op::Mul,
        AssignOp::Div => Op::Div,
        AssignOp::Mod => Op::Mod,
        AssignOp::Concat => Op::Concat,
        AssignOp::Set => unreachable!("plain set handled separately"),
    }
}
