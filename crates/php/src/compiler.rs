//! AST-to-register-bytecode compiler.
//!
//! Scoping model: the script body's variables are the globals; function
//! bodies have private locals unless a name is a superglobal or declared
//! with `global`. Locals *are* registers `0..num_locals` of a frame's
//! window; temporaries sit above them.

use crate::ast::{AssignOp, BinOp, Expr, LValue, Script, Stmt};
use crate::builtins;
use crate::bytecode::{
    rinsn, superglobal_slot, CompiledFunction, CompiledScript, ROp, SUPERGLOBALS,
};
use crate::value::{Key, PhpArray, Value};
use std::collections::HashMap;
use std::fmt;

/// Compilation error.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

pub(crate) fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        message: message.into(),
    }
}

/// Compiles a parsed script.
///
/// # Examples
///
/// ```
/// use orochi_php::{compile, parse_script};
///
/// let script = parse_script("<?php echo 1 + 2;").unwrap();
/// let compiled = compile("/demo.php", &script).unwrap();
/// assert!(compiled.code_size() > 0);
/// ```
pub fn compile(path: &str, script: &Script) -> Result<CompiledScript, CompileError> {
    compile_with(path, script, |name, params, body, shared, is_main| {
        RegCompiler::compile(name, params, body, shared, is_main)
    })
}

/// Compiles main, then each user function in declaration order, with
/// `function` (name, parameters, body, the script's tables, whether it
/// is main) over one set of tables; the stack oracle's compiler shares
/// it. Main goes first so script-level variables claim global slots in
/// declaration order.
pub(crate) fn compile_with<F>(
    path: &str,
    script: &Script,
    mut function: impl FnMut(
        &str,
        &[(String, Option<Expr>)],
        &[Stmt],
        &mut Shared,
        bool,
    ) -> Result<F, CompileError>,
) -> Result<CompiledScript<F>, CompileError> {
    // Superglobals claim the first global slots; user functions are
    // numbered in declaration order.
    let mut shared = Shared {
        consts: Vec::new(),
        globals: SUPERGLOBALS.iter().map(|s| s.to_string()).collect(),
        functions: HashMap::new(),
    };
    for (i, f) in script.functions.iter().enumerate() {
        if shared.functions.insert(f.name.clone(), i as u16).is_some() {
            return Err(err(format!("duplicate function {}", f.name)));
        }
    }
    let main = function("{main}", &[], &script.body, &mut shared, true)?;
    let functions = script
        .functions
        .iter()
        .map(|f| function(&f.name, &f.params, &f.body, &mut shared, false))
        .collect::<Result<_, _>>()?;
    Ok(CompiledScript {
        path: path.to_string(),
        consts: shared.consts,
        main,
        functions,
        global_names: shared.globals,
    })
}

/// The tables every function of one script compiles against: the
/// constant pool, the global slots and the user-function index.
pub(crate) struct Shared {
    consts: Vec<Value>,
    globals: Vec<String>,
    pub(crate) functions: HashMap<String, u16>,
}

impl Shared {
    pub(crate) fn const_idx(&mut self, v: Value) -> u16 {
        // Dedup scalar constants to keep pools small.
        for (i, existing) in self.consts.iter().enumerate() {
            if existing.identical(&v) && !matches!(v, Value::Array(_)) {
                return i as u16;
            }
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    pub(crate) fn global_slot(&mut self, name: &str) -> u16 {
        if let Some(pos) = self.globals.iter().position(|g| g == name) {
            return pos as u16;
        }
        self.globals.push(name.to_string());
        (self.globals.len() - 1) as u16
    }

    /// Constant-pool indices of the parameters' defaults (`None` =
    /// required); a default must be a literal.
    pub(crate) fn defaults(
        &mut self,
        params: &[(String, Option<Expr>)],
    ) -> Result<Vec<Option<u16>>, CompileError> {
        let mut defaults = Vec::with_capacity(params.len());
        for (pname, default) in params {
            defaults.push(match default {
                None => None,
                Some(expr) => {
                    let v = literal_value(expr)
                        .ok_or_else(|| err(format!("non-literal default for ${pname}")))?;
                    Some(self.const_idx(v))
                }
            });
        }
        Ok(defaults)
    }
}

/// Folds a literal expression (used for parameter defaults).
fn literal_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Int(i) => Some(Value::Int(*i)),
        Expr::Float(f) => Some(Value::Float(*f)),
        Expr::Str(s) => Some(Value::str(s.clone())),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Null => Some(Value::Null),
        Expr::Neg(inner) => match literal_value(inner)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        Expr::ArrayLit(pairs) => {
            let mut a = PhpArray::new();
            for (k, v) in pairs {
                let val = literal_value(v)?;
                match k {
                    // A literal whose append fails is left to run, and
                    // raise PHP's fatal, at runtime.
                    None => {
                        a.push(val).ok()?;
                    }
                    Some(kexpr) => {
                        a.set(Key::from_value(&literal_value(kexpr)?), val);
                    }
                }
            }
            Some(Value::array(a))
        }
        _ => None,
    }
}

fn reg_binop(op: BinOp) -> ROp {
    match op {
        BinOp::Add => ROp::Add,
        BinOp::Sub => ROp::Sub,
        BinOp::Mul => ROp::Mul,
        BinOp::Div => ROp::Div,
        BinOp::Mod => ROp::Mod,
        BinOp::Concat => ROp::Concat,
        BinOp::Eq => ROp::Eq,
        BinOp::Ne => ROp::Ne,
        BinOp::Identical => ROp::Identical,
        BinOp::NotIdentical => ROp::NotIdentical,
        BinOp::Lt => ROp::Lt,
        BinOp::Le => ROp::Le,
        BinOp::Gt => ROp::Gt,
        BinOp::Ge => ROp::Ge,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops compile to jumps"),
    }
}

fn reg_compound(op: AssignOp) -> ROp {
    match op {
        AssignOp::Add => ROp::Add,
        AssignOp::Sub => ROp::Sub,
        AssignOp::Mul => ROp::Mul,
        AssignOp::Div => ROp::Div,
        AssignOp::Mod => ROp::Mod,
        AssignOp::Concat => ROp::Concat,
        AssignOp::Set => unreachable!("plain set handled separately"),
    }
}

/// True when evaluating `e` can write a variable (assignment,
/// increment/decrement, or any call — by-reference builtins mutate
/// locals and user functions mutate globals). Used to decide whether a
/// previously evaluated operand may be borrowed directly from a local's
/// register or must be copied to a temporary first.
fn may_write_vars(e: &Expr) -> bool {
    match e {
        Expr::Assign { .. } | Expr::IncDec { .. } | Expr::Call { .. } => true,
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::Null
        | Expr::Var(_) => false,
        Expr::Index { base, index } => may_write_vars(base) || may_write_vars(index),
        Expr::ArrayLit(pairs) => pairs
            .iter()
            .any(|(k, v)| k.as_ref().is_some_and(may_write_vars) || may_write_vars(v)),
        Expr::Binary { lhs, rhs, .. } => may_write_vars(lhs) || may_write_vars(rhs),
        Expr::Not(inner) | Expr::Neg(inner) | Expr::Empty(inner) => may_write_vars(inner),
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            may_write_vars(cond)
                || then.as_deref().is_some_and(may_write_vars)
                || may_write_vars(otherwise)
        }
        Expr::Isset(lv) => lv
            .path
            .iter()
            .any(|k| k.as_ref().is_some_and(may_write_vars)),
    }
}

/// Where a variable lives in the register encoding: locals *are*
/// registers `0..num_locals`, globals stay table slots.
#[derive(Debug, Clone, Copy)]
enum RPlace {
    Reg(u8),
    Global(u16),
}

struct RLoopCtx {
    continue_jumps: Vec<usize>,
    break_jumps: Vec<usize>,
    continue_target: Option<u16>,
}

/// The register-allocation pass: walks the AST and emits the 32-bit
/// register encoding.
///
/// Invariants:
/// - every digest-mixed event (conditional jump, iterator advance) is
///   emitted in source evaluation order — the order the stack oracle's
///   compiler follows too — so per-request branch-event streams, and
///   therefore control-flow digests, match the oracle's;
/// - temporaries use stack discipline (`sp` high-watermark becomes
///   `register_count`); an operand is borrowed directly from a local's
///   register only when no later-evaluated sibling can write variables
///   (see [`may_write_vars`]).
struct RegCompiler<'a> {
    shared: &'a mut Shared,
    is_main: bool,
    locals: HashMap<String, u8>,
    num_locals: u16,
    global_decls: HashMap<String, u16>,
    code: Vec<u32>,
    loops: Vec<RLoopCtx>,
    /// Next free temp register; resets follow consumption.
    sp: u16,
    max_sp: u16,
}

impl<'a> RegCompiler<'a> {
    fn compile(
        name: &str,
        params: &[(String, Option<Expr>)],
        body: &[Stmt],
        shared: &'a mut Shared,
        is_main: bool,
    ) -> Result<CompiledFunction, CompileError> {
        let defaults = shared.defaults(params)?;
        let mut c = RegCompiler {
            shared,
            is_main,
            locals: HashMap::new(),
            num_locals: 0,
            global_decls: HashMap::new(),
            code: Vec::new(),
            loops: Vec::new(),
            sp: 0,
            max_sp: 0,
        };
        // Pre-scan: fix the local -> register map before codegen so
        // temporaries can sit above all locals. Params claim registers
        // first, then body variables in first-use order (a `global`
        // declaration binds only the uses after it).
        for (pname, _) in params {
            c.scan_var(pname);
        }
        c.scan_stmts(body)?;
        if c.num_locals > 256 {
            return Err(err("function needs more than 256 registers"));
        }
        c.global_decls.clear();
        c.sp = c.num_locals;
        c.max_sp = c.num_locals;
        for stmt in body {
            c.rstmt(stmt)?;
        }
        c.emit(rinsn::abc(ROp::ReturnNull, 0, 0, 0));
        if c.code.len() > u16::MAX as usize {
            return Err(err("function too large for register bytecode"));
        }
        Ok(CompiledFunction {
            name: name.to_string(),
            num_params: params.len() as u16,
            defaults,
            reg_code: c.code,
            register_count: c.max_sp,
        })
    }

    // ---- pre-scan ----

    fn scan_var(&mut self, name: &str) {
        if superglobal_slot(name).is_some() || self.is_main || self.global_decls.contains_key(name)
        {
            return;
        }
        if !self.locals.contains_key(name) {
            let slot = self.num_locals;
            self.locals.insert(name.to_string(), slot.min(255) as u8);
            self.num_locals += 1;
        }
    }

    fn scan_stmts(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.scan_stmt(s)?;
        }
        Ok(())
    }

    fn scan_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.scan_expr(e);
                }
            }
            Stmt::Expr(e) => self.scan_expr(e),
            Stmt::If { arms, otherwise } => {
                for (cond, body) in arms {
                    self.scan_expr(cond);
                    self.scan_stmts(body)?;
                }
                self.scan_stmts(otherwise)?;
            }
            Stmt::While { cond, body } => {
                self.scan_expr(cond);
                self.scan_stmts(body)?;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init {
                    self.scan_expr(e);
                }
                if let Some(c) = cond {
                    self.scan_expr(c);
                }
                self.scan_stmts(body)?;
                for e in step {
                    self.scan_expr(e);
                }
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                self.scan_expr(array);
                self.scan_var(value_var);
                if let Some(k) = key_var {
                    self.scan_var(k);
                }
                self.scan_stmts(body)?;
            }
            Stmt::Switch {
                subject,
                cases,
                default,
            } => {
                self.scan_expr(subject);
                for (value, body) in cases {
                    self.scan_expr(value);
                    self.scan_stmts(body)?;
                }
                if let Some((_, dbody)) = default {
                    self.scan_stmts(dbody)?;
                }
            }
            Stmt::Break | Stmt::Continue => {}
            Stmt::Return(value) => {
                if let Some(e) = value {
                    self.scan_expr(e);
                }
            }
            Stmt::Global(names) => {
                if !self.is_main {
                    for name in names {
                        let slot = self.shared.global_slot(name);
                        self.global_decls.insert(name.clone(), slot);
                    }
                }
            }
            Stmt::Unset(lv) => self.scan_lvalue(lv),
        }
        Ok(())
    }

    fn scan_lvalue(&mut self, lv: &LValue) {
        self.scan_var(&lv.var);
        for k in lv.path.iter().flatten() {
            self.scan_expr(k);
        }
    }

    fn scan_expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null => {}
            Expr::Var(name) => self.scan_var(name),
            Expr::Index { base, index } => {
                self.scan_expr(base);
                self.scan_expr(index);
            }
            Expr::ArrayLit(pairs) => {
                for (k, v) in pairs {
                    if let Some(k) = k {
                        self.scan_expr(k);
                    }
                    self.scan_expr(v);
                }
            }
            Expr::Assign { target, value, .. } => {
                self.scan_lvalue(target);
                self.scan_expr(value);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs);
                self.scan_expr(rhs);
            }
            Expr::Not(inner) | Expr::Neg(inner) | Expr::Empty(inner) => self.scan_expr(inner),
            Expr::IncDec { target, .. } => self.scan_lvalue(target),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.scan_expr(cond);
                if let Some(t) = then {
                    self.scan_expr(t);
                }
                self.scan_expr(otherwise);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.scan_expr(a);
                }
            }
            Expr::Isset(lv) => self.scan_lvalue(lv),
        }
    }

    // ---- codegen plumbing ----

    fn emit(&mut self, insn: u32) {
        self.code.push(insn);
    }

    fn alloc(&mut self) -> Result<u8, CompileError> {
        if self.sp >= 256 {
            return Err(err("function needs more than 256 registers"));
        }
        let r = self.sp as u8;
        self.sp += 1;
        self.max_sp = self.max_sp.max(self.sp);
        Ok(r)
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    /// Emits a jump with a placeholder target; returns its index.
    fn emit_jump(&mut self, op: ROp, a: u8) -> usize {
        self.emit(rinsn::abx(op, a, u16::MAX));
        self.code.len() - 1
    }

    fn patch(&mut self, idx: usize, target: usize) -> Result<(), CompileError> {
        let bx =
            u16::try_from(target).map_err(|_| err("function too large for register bytecode"))?;
        self.code[idx] = rinsn::with_bx(self.code[idx], bx);
        Ok(())
    }

    fn jump_to(&mut self, target: u16) {
        self.emit(rinsn::abx(ROp::Jump, 0, target));
    }

    fn rplace(&mut self, name: &str) -> RPlace {
        if let Some(slot) = superglobal_slot(name) {
            return RPlace::Global(slot);
        }
        if self.is_main {
            return RPlace::Global(self.shared.global_slot(name));
        }
        if let Some(&slot) = self.global_decls.get(name) {
            return RPlace::Global(slot);
        }
        let slot = *self.locals.get(name).expect("pre-scan claimed every local");
        RPlace::Reg(slot)
    }

    /// Narrows a global slot to the 8-bit operand field.
    fn gslot(&self, slot: u16) -> Result<u8, CompileError> {
        u8::try_from(slot).map_err(|_| err("register bytecode supports at most 256 global slots"))
    }

    fn const_reg(&mut self, v: Value) -> Result<u8, CompileError> {
        let idx = self.shared.const_idx(v);
        let dst = self.alloc()?;
        self.emit(rinsn::abx(ROp::LoadConst, dst, idx));
        Ok(dst)
    }

    /// Evaluates `e` into register `dst` (a temp the caller allocated).
    fn rexpr_into(&mut self, e: &Expr, dst: u8) -> Result<(), CompileError> {
        let save = self.sp;
        let r = self.rexpr(e)?;
        if r != dst {
            self.emit(rinsn::abc(ROp::Move, dst, r, 0));
        }
        self.sp = save;
        Ok(())
    }

    /// Evaluates an earlier-evaluated operand, copying it out of a
    /// local's register when `later` could clobber it.
    fn operand(&mut self, e: &Expr, later_writes: bool) -> Result<u8, CompileError> {
        let r = self.rexpr(e)?;
        if later_writes && (r as u16) < self.num_locals {
            let t = self.alloc()?;
            self.emit(rinsn::abc(ROp::Move, t, r, 0));
            return Ok(t);
        }
        Ok(r)
    }

    // ---- statements ----

    fn rstmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Echo(exprs) => {
                for e in exprs {
                    let save = self.sp;
                    let r = self.rexpr(e)?;
                    self.emit(rinsn::abc(ROp::Echo, r, 0, 0));
                    self.sp = save;
                }
            }
            Stmt::Expr(e) => {
                let save = self.sp;
                self.rexpr(e)?;
                self.sp = save;
            }
            Stmt::If { arms, otherwise } => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    let save = self.sp;
                    let c = self.rexpr(cond)?;
                    let skip = self.emit_jump(ROp::JumpIfFalse, c);
                    self.sp = save;
                    for s in body {
                        self.rstmt(s)?;
                    }
                    end_jumps.push(self.emit_jump(ROp::Jump, 0));
                    let here = self.here();
                    self.patch(skip, here)?;
                }
                for s in otherwise {
                    self.rstmt(s)?;
                }
                let here = self.here();
                for j in end_jumps {
                    self.patch(j, here)?;
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                let save = self.sp;
                let c = self.rexpr(cond)?;
                let exit = self.emit_jump(ROp::JumpIfFalse, c);
                self.sp = save;
                self.loops.push(RLoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: Some(start as u16),
                });
                for s in body {
                    self.rstmt(s)?;
                }
                self.jump_to(start as u16);
                let end = self.here();
                self.patch(exit, end)?;
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end)?;
                }
                for j in ctx.continue_jumps {
                    self.patch(j, start)?;
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init {
                    let save = self.sp;
                    self.rexpr(e)?;
                    self.sp = save;
                }
                let start = self.here();
                let exit = match cond {
                    Some(c) => {
                        let save = self.sp;
                        let r = self.rexpr(c)?;
                        let j = self.emit_jump(ROp::JumpIfFalse, r);
                        self.sp = save;
                        Some(j)
                    }
                    None => None,
                };
                self.loops.push(RLoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: None,
                });
                for s in body {
                    self.rstmt(s)?;
                }
                let step_label = self.here();
                for e in step {
                    let save = self.sp;
                    self.rexpr(e)?;
                    self.sp = save;
                }
                self.jump_to(start as u16);
                let end = self.here();
                if let Some(exit) = exit {
                    self.patch(exit, end)?;
                }
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end)?;
                }
                for j in ctx.continue_jumps {
                    self.patch(j, step_label)?;
                }
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                let outer = self.sp;
                {
                    let save = self.sp;
                    let a = self.rexpr(array)?;
                    self.emit(rinsn::abc(ROp::IterInit, a, 0, 0));
                    self.sp = save;
                }
                // Iteration destination registers live across the whole
                // loop. A local value variable receives IterNext's
                // result directly; global targets (and all key/value
                // pairs) go through stable temps.
                enum IterDst {
                    Direct(u8),
                    ViaTemp {
                        tmp: u8,
                        place: RPlace,
                    },
                    Pair {
                        tmp: u8,
                        kplace: RPlace,
                        vplace: RPlace,
                    },
                }
                let dst = match key_var {
                    None => match self.rplace(value_var) {
                        RPlace::Reg(r) => IterDst::Direct(r),
                        place @ RPlace::Global(_) => IterDst::ViaTemp {
                            tmp: self.alloc()?,
                            place,
                        },
                    },
                    Some(k) => {
                        let tmp = self.alloc()?;
                        let tmp2 = self.alloc()?;
                        debug_assert_eq!(tmp2, tmp + 1, "KV pair temps are adjacent");
                        IterDst::Pair {
                            tmp,
                            kplace: self.rplace(k),
                            vplace: self.rplace(value_var),
                        }
                    }
                };
                let start = self.here();
                let next_idx = match &dst {
                    IterDst::Direct(r) => self.emit_jump(ROp::IterNext, *r),
                    IterDst::ViaTemp { tmp, .. } => self.emit_jump(ROp::IterNext, *tmp),
                    IterDst::Pair { tmp, .. } => self.emit_jump(ROp::IterNextKV, *tmp),
                };
                match &dst {
                    IterDst::Direct(_) => {}
                    IterDst::ViaTemp { tmp, place } => self.store_to(*place, *tmp)?,
                    IterDst::Pair {
                        tmp,
                        kplace,
                        vplace,
                    } => {
                        // Store value, then key (the stack oracle's order).
                        self.store_to(*vplace, *tmp + 1)?;
                        self.store_to(*kplace, *tmp)?;
                    }
                }
                self.loops.push(RLoopCtx {
                    continue_jumps: Vec::new(),
                    break_jumps: Vec::new(),
                    continue_target: Some(start as u16),
                });
                for s in body {
                    self.rstmt(s)?;
                }
                self.jump_to(start as u16);
                let end = self.here();
                self.patch(next_idx, end)?;
                self.emit(rinsn::abc(ROp::IterPop, 0, 0, 0));
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    // Break jumps to `end`, where IterPop cleans up.
                    self.patch(j, end)?;
                }
                for j in ctx.continue_jumps {
                    self.patch(j, start)?;
                }
                self.sp = outer;
            }
            Stmt::Switch {
                subject,
                cases,
                default,
            } => {
                let outer = self.sp;
                let subj = self.alloc()?;
                self.rexpr_into(subject, subj)?;
                let mut case_jumps = Vec::new();
                for (value, _) in cases {
                    let save = self.sp;
                    let cv = self.rexpr(value)?;
                    self.sp = save;
                    let d = self.alloc()?;
                    self.emit(rinsn::abc(ROp::Eq, d, subj, cv));
                    case_jumps.push(self.emit_jump(ROp::JumpIfTrue, d));
                    self.sp = save;
                }
                let default_jump = self.emit_jump(ROp::Jump, 0);
                self.loops.push(RLoopCtx {
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
                                self.rstmt(s)?;
                            }
                        }
                    }
                    let here = self.here();
                    self.patch(case_jumps[i], here)?;
                    for s in body {
                        self.rstmt(s)?;
                    }
                }
                if let Some((pos, dbody)) = default {
                    if *pos == cases.len() {
                        default_target = Some(self.here());
                        for s in dbody {
                            self.rstmt(s)?;
                        }
                    }
                }
                let end = self.here();
                self.patch(default_jump, default_target.unwrap_or(end))?;
                let ctx = self.loops.pop().expect("switch context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j, end)?;
                }
                if !ctx.continue_jumps.is_empty() {
                    return Err(err("continue inside switch is not supported"));
                }
                self.sp = outer;
            }
            Stmt::Break => {
                let j = self.emit_jump(ROp::Jump, 0);
                match self.loops.last_mut() {
                    Some(ctx) => ctx.break_jumps.push(j),
                    None => return Err(err("break outside loop")),
                }
            }
            Stmt::Continue => match self.loops.last_mut() {
                Some(ctx) => match ctx.continue_target {
                    Some(target) => self.jump_to(target),
                    None => {
                        let j = self.emit_jump(ROp::Jump, 0);
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
                    let save = self.sp;
                    let r = self.rexpr(e)?;
                    self.emit(rinsn::abc(ROp::Return, r, 0, 0));
                    self.sp = save;
                }
                None => self.emit(rinsn::abc(ROp::ReturnNull, 0, 0, 0)),
            },
            Stmt::Global(names) => {
                if !self.is_main {
                    for name in names {
                        let slot = self.shared.global_slot(name);
                        self.global_decls.insert(name.clone(), slot);
                    }
                }
            }
            Stmt::Unset(lv) => {
                let save = self.sp;
                let n = lv.path.len();
                let kbase = self.sp.min(255) as u8;
                for step in &lv.path {
                    match step {
                        Some(k) => {
                            let d = self.alloc()?;
                            self.rexpr_into(k, d)?;
                        }
                        None => return Err(err("cannot unset an append target")),
                    }
                }
                let (op, slot) = match self.rplace(&lv.var) {
                    RPlace::Reg(r) => (ROp::UnsetPathLocal, r),
                    RPlace::Global(g) => (ROp::UnsetPathGlobal, self.gslot(g)?),
                };
                self.emit(rinsn::abc(op, kbase, slot, n as u8));
                self.sp = save;
            }
        }
        Ok(())
    }

    fn store_to(&mut self, place: RPlace, src: u8) -> Result<(), CompileError> {
        match place {
            RPlace::Reg(r) => {
                if r != src {
                    self.emit(rinsn::abc(ROp::Move, r, src, 0));
                }
            }
            RPlace::Global(g) => {
                let g = self.gslot(g)?;
                self.emit(rinsn::abc(ROp::StoreGlobal, g, src, 0));
            }
        }
        Ok(())
    }

    // ---- expressions ----

    /// Compiles `e`, returning the register holding its value: either a
    /// temp at or above the caller's save point (still allocated), or a
    /// local's register — valid until the next potentially-writing
    /// construct, which operand ordering guards against.
    fn rexpr(&mut self, e: &Expr) -> Result<u8, CompileError> {
        match e {
            Expr::Int(i) => self.const_reg(Value::Int(*i)),
            Expr::Float(f) => self.const_reg(Value::Float(*f)),
            Expr::Str(s) => self.const_reg(Value::str(s.clone())),
            Expr::Bool(b) => self.const_reg(Value::Bool(*b)),
            Expr::Null => self.const_reg(Value::Null),
            Expr::Var(name) => match self.rplace(name) {
                RPlace::Reg(r) => Ok(r),
                RPlace::Global(g) => {
                    let g = self.gslot(g)?;
                    let dst = self.alloc()?;
                    self.emit(rinsn::abc(ROp::LoadGlobal, dst, g, 0));
                    Ok(dst)
                }
            },
            Expr::Index { base, index } => {
                let save = self.sp;
                let rb = self.operand(base, may_write_vars(index))?;
                let ri = self.rexpr(index)?;
                self.sp = save;
                let dst = self.alloc()?;
                self.emit(rinsn::abc(ROp::IndexGet, dst, rb, ri));
                Ok(dst)
            }
            Expr::ArrayLit(pairs) => {
                let arr = self.alloc()?;
                self.emit(rinsn::abc(ROp::NewArray, arr, 0, 0));
                for (key, value) in pairs {
                    let save = self.sp;
                    match key {
                        None => {
                            let v = self.rexpr(value)?;
                            self.emit(rinsn::abc(ROp::ArrayAppend, arr, v, 0));
                        }
                        Some(k) => {
                            let rk = self.operand(k, may_write_vars(value))?;
                            let rv = self.rexpr(value)?;
                            self.emit(rinsn::abc(ROp::ArrayInsert, arr, rk, rv));
                        }
                    }
                    self.sp = save;
                }
                Ok(arr)
            }
            Expr::Assign { target, op, value } => self.reg_assign(target, *op, value),
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    let d = self.alloc()?;
                    let save = self.sp;
                    let l = self.rexpr(lhs)?;
                    let f1 = self.emit_jump(ROp::JumpIfFalse, l);
                    self.sp = save;
                    let r = self.rexpr(rhs)?;
                    let f2 = self.emit_jump(ROp::JumpIfFalse, r);
                    self.sp = save;
                    let t_idx = self.shared.const_idx(Value::Bool(true));
                    self.emit(rinsn::abx(ROp::LoadConst, d, t_idx));
                    let end = self.emit_jump(ROp::Jump, 0);
                    let fl = self.here();
                    self.patch(f1, fl)?;
                    self.patch(f2, fl)?;
                    let f_idx = self.shared.const_idx(Value::Bool(false));
                    self.emit(rinsn::abx(ROp::LoadConst, d, f_idx));
                    let here = self.here();
                    self.patch(end, here)?;
                    Ok(d)
                }
                BinOp::Or => {
                    let d = self.alloc()?;
                    let save = self.sp;
                    let l = self.rexpr(lhs)?;
                    let t1 = self.emit_jump(ROp::JumpIfTrue, l);
                    self.sp = save;
                    let r = self.rexpr(rhs)?;
                    let t2 = self.emit_jump(ROp::JumpIfTrue, r);
                    self.sp = save;
                    let f_idx = self.shared.const_idx(Value::Bool(false));
                    self.emit(rinsn::abx(ROp::LoadConst, d, f_idx));
                    let end = self.emit_jump(ROp::Jump, 0);
                    let tl = self.here();
                    self.patch(t1, tl)?;
                    self.patch(t2, tl)?;
                    let t_idx = self.shared.const_idx(Value::Bool(true));
                    self.emit(rinsn::abx(ROp::LoadConst, d, t_idx));
                    let here = self.here();
                    self.patch(end, here)?;
                    Ok(d)
                }
                _ => {
                    let save = self.sp;
                    let rl = self.operand(lhs, may_write_vars(rhs))?;
                    let rr = self.rexpr(rhs)?;
                    self.sp = save;
                    let dst = self.alloc()?;
                    self.emit(rinsn::abc(reg_binop(*op), dst, rl, rr));
                    Ok(dst)
                }
            },
            Expr::Not(inner) => {
                let save = self.sp;
                let r = self.rexpr(inner)?;
                self.sp = save;
                let dst = self.alloc()?;
                self.emit(rinsn::abc(ROp::Not, dst, r, 0));
                Ok(dst)
            }
            Expr::Neg(inner) => {
                let save = self.sp;
                let r = self.rexpr(inner)?;
                self.sp = save;
                let dst = self.alloc()?;
                self.emit(rinsn::abc(ROp::Neg, dst, r, 0));
                Ok(dst)
            }
            Expr::IncDec { target, inc, pre } => self.reg_incdec(target, *inc, *pre),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => match then {
                Some(then) => {
                    let d = self.alloc()?;
                    let save = self.sp;
                    let c = self.rexpr(cond)?;
                    let to_else = self.emit_jump(ROp::JumpIfFalse, c);
                    self.sp = save;
                    self.rexpr_into(then, d)?;
                    let to_end = self.emit_jump(ROp::Jump, 0);
                    let el = self.here();
                    self.patch(to_else, el)?;
                    self.rexpr_into(otherwise, d)?;
                    let end = self.here();
                    self.patch(to_end, end)?;
                    Ok(d)
                }
                None => {
                    // Elvis: cond ?: else — cond evaluated once.
                    let d = self.alloc()?;
                    self.rexpr_into(cond, d)?;
                    let keep = self.emit_jump(ROp::JumpIfTrue, d);
                    self.rexpr_into(otherwise, d)?;
                    let end = self.here();
                    self.patch(keep, end)?;
                    Ok(d)
                }
            },
            Expr::Call { name, args } => {
                if let Some(&fidx) = self.shared.functions.get(name) {
                    let fidx = u8::try_from(fidx)
                        .map_err(|_| err("register bytecode supports at most 256 functions"))?;
                    let base = self.sp.min(255) as u8;
                    for a in args {
                        let d = self.alloc()?;
                        self.rexpr_into(a, d)?;
                    }
                    if args.is_empty() {
                        self.alloc()?;
                    }
                    self.emit(rinsn::abc(ROp::Call, fidx, base, args.len() as u8));
                    self.sp = base as u16 + 1;
                    Ok(base)
                } else if let Some(bidx) = builtins::lookup(name) {
                    if builtins::is_byref(bidx) {
                        self.reg_byref_call(name, bidx, args)
                    } else {
                        let bidx = u8::try_from(bidx)
                            .map_err(|_| err("register bytecode supports at most 256 builtins"))?;
                        let base = self.sp.min(255) as u8;
                        for a in args {
                            let d = self.alloc()?;
                            self.rexpr_into(a, d)?;
                        }
                        if args.is_empty() {
                            self.alloc()?;
                        }
                        self.emit(rinsn::abc(ROp::CallBuiltin, bidx, base, args.len() as u8));
                        self.sp = base as u16 + 1;
                        Ok(base)
                    }
                } else {
                    Err(err(format!("call to undefined function {name}()")))
                }
            }
            Expr::Isset(lv) => {
                let n = lv.path.len();
                let kbase = self.alloc()?;
                for (i, step) in lv.path.iter().enumerate() {
                    let d = if i == 0 { kbase } else { self.alloc()? };
                    match step {
                        Some(k) => self.rexpr_into(k, d)?,
                        None => return Err(err("isset on append target")),
                    }
                }
                let (op, slot) = match self.rplace(&lv.var) {
                    RPlace::Reg(r) => (ROp::IssetPathLocal, r),
                    RPlace::Global(g) => (ROp::IssetPathGlobal, self.gslot(g)?),
                };
                self.emit(rinsn::abc(op, kbase, slot, n as u8));
                self.sp = kbase as u16 + 1;
                Ok(kbase)
            }
            Expr::Empty(inner) => {
                let save = self.sp;
                let r = self.rexpr(inner)?;
                self.sp = save;
                let dst = self.alloc()?;
                self.emit(rinsn::abc(ROp::Not, dst, r, 0));
                Ok(dst)
            }
        }
    }

    fn path_set_op(&mut self, place: RPlace) -> Result<(ROp, u8), CompileError> {
        Ok(match place {
            RPlace::Reg(r) => (ROp::SetPathLocal, r),
            RPlace::Global(g) => (ROp::SetPathGlobal, self.gslot(g)?),
        })
    }

    fn reg_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
    ) -> Result<u8, CompileError> {
        let place = self.rplace(&target.var);
        if target.path.is_empty() {
            match (place, op) {
                (RPlace::Reg(var), AssignOp::Set) => {
                    let v = self.rexpr(value)?;
                    if v != var {
                        self.emit(rinsn::abc(ROp::Move, var, v, 0));
                    }
                    Ok(var)
                }
                (RPlace::Global(g), AssignOp::Set) => {
                    let g = self.gslot(g)?;
                    let v = self.rexpr(value)?;
                    self.emit(rinsn::abc(ROp::StoreGlobal, g, v, 0));
                    Ok(v)
                }
                (RPlace::Reg(var), _) => {
                    let save = self.sp;
                    let cur = if may_write_vars(value) {
                        let t = self.alloc()?;
                        self.emit(rinsn::abc(ROp::Move, t, var, 0));
                        t
                    } else {
                        var
                    };
                    let v = self.rexpr(value)?;
                    self.sp = save;
                    let dst = self.alloc()?;
                    self.emit(rinsn::abc(reg_compound(op), dst, cur, v));
                    self.emit(rinsn::abc(ROp::Move, var, dst, 0));
                    Ok(dst)
                }
                (RPlace::Global(g), _) => {
                    let g = self.gslot(g)?;
                    let save = self.sp;
                    let cur = self.alloc()?;
                    self.emit(rinsn::abc(ROp::LoadGlobal, cur, g, 0));
                    let v = self.rexpr(value)?;
                    self.sp = save;
                    let dst = self.alloc()?;
                    self.emit(rinsn::abc(reg_compound(op), dst, cur, v));
                    self.emit(rinsn::abc(ROp::StoreGlobal, g, dst, 0));
                    Ok(dst)
                }
            }
        } else {
            let has_append = target.path.iter().any(|p| p.is_none());
            if has_append {
                if op != AssignOp::Set {
                    return Err(err("compound assignment to append target"));
                }
                let (last, keys) = target.path.split_last().expect("non-empty path");
                if last.is_some() || keys.iter().any(|p| p.is_none()) {
                    return Err(err("only a trailing [] append is supported"));
                }
                let n = target.path.len() as u8;
                let pbase = self.alloc()?;
                self.rexpr_into(value, pbase)?;
                for k in keys {
                    let d = self.alloc()?;
                    self.rexpr_into(k.as_ref().expect("checked above"), d)?;
                }
                let (sop, slot) = match place {
                    RPlace::Reg(r) => (ROp::AppendPathLocal, r),
                    RPlace::Global(g) => (ROp::AppendPathGlobal, self.gslot(g)?),
                };
                self.emit(rinsn::abc(sop, pbase, slot, n));
                self.sp = pbase as u16 + 1;
                return Ok(pbase);
            }
            let n = target.path.len() as u8;
            match op {
                AssignOp::Set => {
                    // Value first, then keys — the stack oracle's event
                    // order.
                    let pbase = self.alloc()?;
                    self.rexpr_into(value, pbase)?;
                    for k in &target.path {
                        let d = self.alloc()?;
                        self.rexpr_into(k.as_ref().expect("no appends in this branch"), d)?;
                    }
                    let (sop, slot) = self.path_set_op(place)?;
                    self.emit(rinsn::abc(sop, pbase, slot, n));
                    self.sp = pbase as u16 + 1;
                    Ok(pbase)
                }
                _ => {
                    // Compound: keys evaluate once, directly into the
                    // SetPath layout; the read chain reuses them.
                    let pbase = self.alloc()?;
                    for k in &target.path {
                        let d = self.alloc()?;
                        self.rexpr_into(k.as_ref().expect("no appends in this branch"), d)?;
                    }
                    let cur = self.alloc()?;
                    match place {
                        RPlace::Reg(r) => self.emit(rinsn::abc(ROp::Move, cur, r, 0)),
                        RPlace::Global(g) => {
                            let g = self.gslot(g)?;
                            self.emit(rinsn::abc(ROp::LoadGlobal, cur, g, 0));
                        }
                    }
                    for i in 0..n {
                        self.emit(rinsn::abc(ROp::IndexGet, cur, cur, pbase + 1 + i));
                    }
                    let v = self.rexpr(value)?;
                    self.emit(rinsn::abc(reg_compound(op), pbase, cur, v));
                    self.sp = pbase as u16 + 1 + n as u16;
                    let (sop, slot) = self.path_set_op(place)?;
                    self.emit(rinsn::abc(sop, pbase, slot, n));
                    self.sp = pbase as u16 + 1;
                    Ok(pbase)
                }
            }
        }
    }

    fn reg_incdec(&mut self, target: &LValue, inc: bool, pre: bool) -> Result<u8, CompileError> {
        let variant: u8 = match (inc, pre) {
            (true, true) => 0,
            (true, false) => 1,
            (false, true) => 2,
            (false, false) => 3,
        };
        if target.path.is_empty() {
            let dst = self.alloc()?;
            match self.rplace(&target.var) {
                RPlace::Reg(r) => self.emit(rinsn::abc(ROp::IncDecLocal, dst, r, variant)),
                RPlace::Global(g) => {
                    let g = self.gslot(g)?;
                    self.emit(rinsn::abc(ROp::IncDecGlobal, dst, g, variant));
                }
            }
            return Ok(dst);
        }
        // Path form: read-modify-write through `Add/Sub 1`, so
        // `$a['k']--` on null yields -1 (a plain `$x--` leaves null).
        let place = self.rplace(&target.var);
        let n = target.path.len() as u8;
        let old = if pre { None } else { Some(self.alloc()?) };
        let pbase = self.alloc()?;
        for step in &target.path {
            let d = self.alloc()?;
            match step {
                Some(k) => self.rexpr_into(k, d)?,
                None => return Err(err("increment of append target")),
            }
        }
        let cur = self.alloc()?;
        match place {
            RPlace::Reg(r) => self.emit(rinsn::abc(ROp::Move, cur, r, 0)),
            RPlace::Global(g) => {
                let g = self.gslot(g)?;
                self.emit(rinsn::abc(ROp::LoadGlobal, cur, g, 0));
            }
        }
        for i in 0..n {
            self.emit(rinsn::abc(ROp::IndexGet, cur, cur, pbase + 1 + i));
        }
        if let Some(o) = old {
            self.emit(rinsn::abc(ROp::Move, o, cur, 0));
        }
        let one = self.const_reg(Value::Int(1))?;
        let aop = if inc { ROp::Add } else { ROp::Sub };
        self.emit(rinsn::abc(aop, pbase, cur, one));
        self.sp = pbase as u16 + 1 + n as u16;
        let (sop, slot) = self.path_set_op(place)?;
        self.emit(rinsn::abc(sop, pbase, slot, n));
        match old {
            None => {
                self.sp = pbase as u16 + 1;
                Ok(pbase)
            }
            Some(o) => {
                self.sp = o as u16 + 1;
                Ok(o)
            }
        }
    }

    /// By-reference builtin call: the target array travels in the first
    /// argument register; after the call the updated target is written
    /// back and the PHP return value (at `base+1`) is the result.
    fn reg_byref_call(&mut self, name: &str, bidx: u16, args: &[Expr]) -> Result<u8, CompileError> {
        let bidx = u8::try_from(bidx)
            .map_err(|_| err("register bytecode supports at most 256 builtins"))?;
        let target = match args.first() {
            Some(Expr::Var(v)) => LValue {
                var: v.clone(),
                path: Vec::new(),
            },
            Some(Expr::Index { .. }) => {
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
        let place = self.rplace(&target.var);
        let argc = args.len() as u8;
        if target.path.is_empty() {
            let base = self.alloc()?;
            match place {
                RPlace::Reg(r) => self.emit(rinsn::abc(ROp::Move, base, r, 0)),
                RPlace::Global(g) => {
                    let g = self.gslot(g)?;
                    self.emit(rinsn::abc(ROp::LoadGlobal, base, g, 0));
                }
            }
            for a in &args[1..] {
                let d = self.alloc()?;
                self.rexpr_into(a, d)?;
            }
            if args.len() < 2 {
                self.alloc()?;
            }
            self.emit(rinsn::abc(ROp::CallBuiltin, bidx, base, argc));
            self.store_to(place, base)?;
            self.sp = base as u16 + 2;
            Ok(base + 1)
        } else {
            let n = target.path.len() as u8;
            // Layout: [pbase = write-back value, keys, base = call args].
            let pbase = self.alloc()?;
            for k in &target.path {
                let d = self.alloc()?;
                self.rexpr_into(k.as_ref().expect("index paths have keys"), d)?;
            }
            let base = self.alloc()?;
            match place {
                RPlace::Reg(r) => self.emit(rinsn::abc(ROp::Move, base, r, 0)),
                RPlace::Global(g) => {
                    let g = self.gslot(g)?;
                    self.emit(rinsn::abc(ROp::LoadGlobal, base, g, 0));
                }
            }
            for i in 0..n {
                self.emit(rinsn::abc(ROp::IndexGet, base, base, pbase + 1 + i));
            }
            for a in &args[1..] {
                let d = self.alloc()?;
                self.rexpr_into(a, d)?;
            }
            if args.len() < 2 {
                self.alloc()?;
            }
            self.emit(rinsn::abc(ROp::CallBuiltin, bidx, base, argc));
            self.emit(rinsn::abc(ROp::Move, pbase, base, 0));
            let (sop, slot) = self.path_set_op(place)?;
            self.emit(rinsn::abc(sop, pbase, slot, n));
            self.sp = base as u16 + 2;
            Ok(base + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn compile_src(src: &str) -> CompiledScript {
        compile("/t.php", &parse_script(src).unwrap()).unwrap()
    }

    #[test]
    fn superglobals_use_fixed_slots() {
        let c = compile_src("echo $_GET['a']; $x = 1;");
        assert_eq!(c.global_names[0], "_GET");
        assert_eq!(c.global_names[4], "_SERVER");
        // Script-level $x claims the next slot after superglobals.
        assert!(c.global_names.contains(&"x".to_string()));
    }

    #[test]
    fn function_locals_are_private() {
        let c = compile_src("function f($a) { $b = $a + 1; return $b; } $b = 5; echo f($b);");
        let f = &c.functions[0];
        assert_eq!(f.num_params, 1);
        assert!(f.register_count >= 2); // $a and $b.
    }

    #[test]
    fn global_declaration_binds_to_global_slot() {
        let c = compile_src("$cfg = 1; function g() { global $cfg; return $cfg; }");
        let g = &c.functions[0];
        assert!(g.reg_code.iter().any(|i| rinsn::op(*i) == ROp::LoadGlobal));
    }

    #[test]
    fn jumps_are_patched() {
        let c = compile_src("if ($x) { echo 1; } else { echo 2; }");
        let code = &c.main.reg_code;
        for insn in code {
            if matches!(
                rinsn::op(*insn),
                ROp::Jump | ROp::JumpIfFalse | ROp::JumpIfTrue
            ) {
                assert!(rinsn::bx(*insn) != u16::MAX as usize, "unpatched jump");
                assert!(rinsn::bx(*insn) <= code.len());
            }
        }
    }

    #[test]
    fn foreach_compiles_iter_ops() {
        let c = compile_src("foreach ($a as $k => $v) { echo $v; }");
        for op in [ROp::IterInit, ROp::IterNextKV, ROp::IterPop] {
            assert!(c.main.reg_code.iter().any(|i| rinsn::op(*i) == op));
        }
    }

    #[test]
    fn literal_defaults_compile() {
        // A non-literal default is rejected in `compile_errors_are_pinned`.
        let c = compile_src("function f($x = array(1,2), $y = -1) {}");
        let defaults = &c.functions[0].defaults;
        assert!(defaults.len() == 2 && defaults.iter().all(Option::is_some));
    }

    /// One script per message the compiler raises, and which of two
    /// errors wins: main compiles before the functions, and a function's
    /// parameter defaults before its body.
    #[test]
    fn compile_errors_are_pinned() {
        let many = |n: usize, f: &dyn Fn(usize) -> String| (0..n).map(f).collect::<String>();
        let cases = [
            (
                "function f() {} function f() {}".to_string(),
                "duplicate function f",
            ),
            (
                "function f($x = foo()) {}".into(),
                "non-literal default for $x",
            ),
            (
                "function f($x = array(g())) {}".into(),
                "non-literal default for $x",
            ),
            (
                "while (1) { switch (1) { case 1: continue; } }".into(),
                "continue inside switch is not supported",
            ),
            ("break;".into(), "break outside loop"),
            ("if (1) { continue; }".into(), "continue outside loop"),
            ("unset($a[]);".into(), "cannot unset an append target"),
            (
                "no_such_fn(1);".into(),
                "call to undefined function no_such_fn()",
            ),
            ("echo isset($a[]);".into(), "isset on append target"),
            (
                "sort(array(1));".into(),
                "sort() requires a variable argument",
            ),
            ("sort($a[f()][1]);".into(), "call to undefined function f()"),
            (
                "$a[] .= 'x';".into(),
                "compound assignment to append target",
            ),
            (
                "$a[][1] = 2;".into(),
                "only a trailing [] append is supported",
            ),
            ("$a[]++;".into(), "increment of append target"),
            (
                format!(
                    "function f() {{ {} }}",
                    many(257, &|i| format!("$v{i} = 1; "))
                ),
                "function needs more than 256 registers",
            ),
            (
                many(260, &|i| format!("$g{i} = 1; ")),
                "register bytecode supports at most 256 global slots",
            ),
            (
                format!(
                    "{} f256();",
                    many(257, &|i| format!("function f{i}() {{}} "))
                ),
                "register bytecode supports at most 256 functions",
            ),
            (
                format!("{} $x = 1;", "echo 1;".repeat(33_000)),
                "function too large for register bytecode",
            ),
            // Two errors: main compiles first, then each function.
            (
                "function f($x = foo()) {} break;".into(),
                "break outside loop",
            ),
            // Two errors in one function: its defaults, then its body.
            (
                "function f($x = foo()) { break; }".into(),
                "non-literal default for $x",
            ),
        ];
        for (src, message) in cases {
            let script = parse_script(&format!("<?php {src}")).unwrap();
            let e = compile("/t.php", &script).unwrap_err();
            assert_eq!(e.message, message, "{}", &src[..src.len().min(60)]);
        }
    }

    #[test]
    fn const_pool_dedups_scalars() {
        let c = compile_src("echo 'x'; echo 'x'; echo 'x';");
        let strings = c
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Str(s) if &**s == "x"))
            .count();
        assert_eq!(strings, 1);
    }
}
