//! The bytecode the VM executes.
//!
//! A stack machine close in spirit to HHVM's (§4.2: "the PHP runtime
//! translates each program line to byte code"). The opcode set includes
//! the instruction categories Fig. 10 measures: `Mul` (Multiply),
//! `Concat`, `IssetPath*` (Isset), conditional jumps (Jump), `Load*`
//! (GetVal), `SetPath*` (ArraySet), `IterNext*` (Iteration),
//! `CallBuiltin` (Microtime et al.), `*Inc`/`*Dec` (Increment), and
//! `NewArray`.

use crate::value::Value;

/// One VM instruction.
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

/// Register-bytecode opcodes (the primary execution encoding).
///
/// Fixed-width 32-bit instructions in two formats:
///
/// ```text
///  31      24 23      16 15       8 7        0
/// +----------+----------+----------+----------+
/// |  opcode  |    A     |    B     |    C     |   ABC
/// +----------+----------+----------+----------+
/// |  opcode  |    A     |         BX          |   ABX
/// +----------+----------+----------+----------+
/// ```
///
/// `A`/`B`/`C` are register indices (or small immediates), `BX` is a
/// 16-bit constant-pool index or jump target. Locals occupy registers
/// `0..num_locals` of a frame's window; temporaries sit above them, and
/// the compiler reports the high watermark as
/// [`CompiledFunction::register_count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ROp {
    /// `r[a] = r[b]`.
    Move = 0,
    /// `r[a] = consts[bx]`.
    LoadConst,
    /// `r[a] = globals[b]`.
    LoadGlobal,
    /// `globals[a] = r[b]`.
    StoreGlobal,
    /// `r[a] = r[b] + r[c]` (PHP numeric semantics).
    Add,
    /// `r[a] = r[b] - r[c]`.
    Sub,
    /// `r[a] = r[b] * r[c]`.
    Mul,
    /// `r[a] = r[b] / r[c]`.
    Div,
    /// `r[a] = r[b] % r[c]`.
    Mod,
    /// `r[a] = r[b] . r[c]`.
    Concat,
    /// `r[a] = r[b] == r[c]` (loose).
    Eq,
    /// `r[a] = r[b] != r[c]`.
    Ne,
    /// `r[a] = r[b] === r[c]`.
    Identical,
    /// `r[a] = r[b] !== r[c]`.
    NotIdentical,
    /// `r[a] = r[b] < r[c]`.
    Lt,
    /// `r[a] = r[b] <= r[c]`.
    Le,
    /// `r[a] = r[b] > r[c]`.
    Gt,
    /// `r[a] = r[b] >= r[c]`.
    Ge,
    /// `r[a] = !r[b]`.
    Not,
    /// `r[a] = -r[b]`.
    Neg,
    /// `pc = bx`.
    Jump,
    /// `if !truthy(r[a]) pc = bx`. Mixes a branch event into the digest.
    JumpIfFalse,
    /// `if truthy(r[a]) pc = bx`. Mixes a branch event into the digest.
    JumpIfTrue,
    /// `r[a] = []`.
    NewArray,
    /// `r[a][] = r[b]` (array-literal append; `r[a]` must be an array).
    ArrayAppend,
    /// `r[a][r[b]] = r[c]` (array-literal keyed insert).
    ArrayInsert,
    /// `r[a] = r[b][r[c]]` (array or string index read).
    IndexGet,
    /// `local[b][k1]..[kc] = r[a]`; keys in `r[a+1..a+1+c]`. The
    /// assigned value stays in `r[a]` (the expression result).
    SetPathLocal,
    /// Set through global slot `b`.
    SetPathGlobal,
    /// `local[b][k1]..[k(c-1)][] = r[a]`; keys in `r[a+1..a+c]`.
    AppendPathLocal,
    /// Append through global slot `b`.
    AppendPathGlobal,
    /// Unset `local[b]` through `c` keys in `r[a..a+c]`.
    UnsetPathLocal,
    /// Unset through global slot `b`.
    UnsetPathGlobal,
    /// `r[a] = isset(local[b][k1]..[kc])`; keys in `r[a..a+c]`.
    IssetPathLocal,
    /// Isset through global slot `b`.
    IssetPathGlobal,
    /// `r[a] = ++/--local-register b`; `c` is the variant
    /// (0 `++$x`, 1 `$x++`, 2 `--$x`, 3 `$x--`).
    IncDecLocal,
    /// Increment/decrement global slot `b` (same variants).
    IncDecGlobal,
    /// Call user function `a`: args in `r[b]..r[b+c]`, result in `r[b]`.
    /// The callee's window starts at the caller's `base +
    /// register_count`, so recursion reuses the pooled register file.
    Call,
    /// Call builtin `a` with the same convention. For by-reference
    /// builtins the updated target lands in `r[b]` and the PHP return
    /// value in `r[b+1]`.
    CallBuiltin,
    /// Return `r[a]` to the caller.
    Return,
    /// Return null.
    ReturnNull,
    /// Append `r[a]` to the output buffer.
    Echo,
    /// Push a fresh iterator over a snapshot of `r[a]`.
    IterInit,
    /// Advance the top iterator: `r[a] = value`, or `pc = bx` when
    /// exhausted. Mixes a branch event into the digest.
    IterNext,
    /// Advance: `r[a] = key`, `r[a+1] = value`, or `pc = bx`.
    IterNextKV,
    /// Pop the top iterator.
    IterPop,
}

/// Number of register opcodes (decode guard).
pub const ROP_COUNT: u8 = ROp::IterPop as u8 + 1;

impl ROp {
    /// Decodes an opcode byte; panics on garbage (compiler-generated
    /// code never contains any).
    #[inline]
    pub fn from_u8(b: u8) -> ROp {
        debug_assert!(b < ROP_COUNT, "invalid register opcode {b}");
        // SAFETY-free decode: exhaustive match keeps this safe code.
        match b {
            0 => ROp::Move,
            1 => ROp::LoadConst,
            2 => ROp::LoadGlobal,
            3 => ROp::StoreGlobal,
            4 => ROp::Add,
            5 => ROp::Sub,
            6 => ROp::Mul,
            7 => ROp::Div,
            8 => ROp::Mod,
            9 => ROp::Concat,
            10 => ROp::Eq,
            11 => ROp::Ne,
            12 => ROp::Identical,
            13 => ROp::NotIdentical,
            14 => ROp::Lt,
            15 => ROp::Le,
            16 => ROp::Gt,
            17 => ROp::Ge,
            18 => ROp::Not,
            19 => ROp::Neg,
            20 => ROp::Jump,
            21 => ROp::JumpIfFalse,
            22 => ROp::JumpIfTrue,
            23 => ROp::NewArray,
            24 => ROp::ArrayAppend,
            25 => ROp::ArrayInsert,
            26 => ROp::IndexGet,
            27 => ROp::SetPathLocal,
            28 => ROp::SetPathGlobal,
            29 => ROp::AppendPathLocal,
            30 => ROp::AppendPathGlobal,
            31 => ROp::UnsetPathLocal,
            32 => ROp::UnsetPathGlobal,
            33 => ROp::IssetPathLocal,
            34 => ROp::IssetPathGlobal,
            35 => ROp::IncDecLocal,
            36 => ROp::IncDecGlobal,
            37 => ROp::Call,
            38 => ROp::CallBuiltin,
            39 => ROp::Return,
            40 => ROp::ReturnNull,
            41 => ROp::Echo,
            42 => ROp::IterInit,
            43 => ROp::IterNext,
            44 => ROp::IterNextKV,
            _ => ROp::IterPop,
        }
    }
}

/// Encode/decode helpers for the 32-bit register instruction word.
pub mod rinsn {
    use super::ROp;

    /// Packs an ABC-format instruction.
    #[inline]
    pub fn abc(op: ROp, a: u8, b: u8, c: u8) -> u32 {
        ((op as u32) << 24) | ((a as u32) << 16) | ((b as u32) << 8) | c as u32
    }

    /// Packs an ABX-format instruction.
    #[inline]
    pub fn abx(op: ROp, a: u8, bx: u16) -> u32 {
        ((op as u32) << 24) | ((a as u32) << 16) | bx as u32
    }

    /// The opcode byte.
    #[inline]
    pub fn op(insn: u32) -> ROp {
        ROp::from_u8((insn >> 24) as u8)
    }

    /// Operand A.
    #[inline]
    pub fn a(insn: u32) -> usize {
        ((insn >> 16) & 0xff) as usize
    }

    /// Operand B.
    #[inline]
    pub fn b(insn: u32) -> usize {
        ((insn >> 8) & 0xff) as usize
    }

    /// Operand C.
    #[inline]
    pub fn c(insn: u32) -> usize {
        (insn & 0xff) as usize
    }

    /// Operand BX (constant index / jump target).
    #[inline]
    pub fn bx(insn: u32) -> usize {
        (insn & 0xffff) as usize
    }

    /// Rewrites the BX field (jump patching).
    #[inline]
    pub fn with_bx(insn: u32, bx: u16) -> u32 {
        (insn & 0xffff_0000) | bx as u32
    }
}

/// Renders one register instruction for the disassembler.
pub fn disasm_insn(insn: u32) -> String {
    use rinsn::{a, b, bx, c, op};
    let o = op(insn);
    match o {
        ROp::Move => format!("Move r{} <- r{}", a(insn), b(insn)),
        ROp::LoadConst => format!("LoadConst r{} <- consts[{}]", a(insn), bx(insn)),
        ROp::LoadGlobal => format!("LoadGlobal r{} <- g{}", a(insn), b(insn)),
        ROp::StoreGlobal => format!("StoreGlobal g{} <- r{}", a(insn), b(insn)),
        ROp::Add
        | ROp::Sub
        | ROp::Mul
        | ROp::Div
        | ROp::Mod
        | ROp::Concat
        | ROp::Eq
        | ROp::Ne
        | ROp::Identical
        | ROp::NotIdentical
        | ROp::Lt
        | ROp::Le
        | ROp::Gt
        | ROp::Ge => format!("{:?} r{} <- r{}, r{}", o, a(insn), b(insn), c(insn)),
        ROp::Not | ROp::Neg => format!("{:?} r{} <- r{}", o, a(insn), b(insn)),
        ROp::Jump => format!("Jump -> {}", bx(insn)),
        ROp::JumpIfFalse => format!("JumpIfFalse r{} -> {}", a(insn), bx(insn)),
        ROp::JumpIfTrue => format!("JumpIfTrue r{} -> {}", a(insn), bx(insn)),
        ROp::NewArray => format!("NewArray r{}", a(insn)),
        ROp::ArrayAppend => format!("ArrayAppend r{}[] <- r{}", a(insn), b(insn)),
        ROp::ArrayInsert => format!("ArrayInsert r{}[r{}] <- r{}", a(insn), b(insn), c(insn)),
        ROp::IndexGet => format!("IndexGet r{} <- r{}[r{}]", a(insn), b(insn), c(insn)),
        ROp::SetPathLocal => format!(
            "SetPathLocal local{} base=r{} keys={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::SetPathGlobal => format!(
            "SetPathGlobal g{} base=r{} keys={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::AppendPathLocal => format!(
            "AppendPathLocal local{} base=r{} n={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::AppendPathGlobal => format!(
            "AppendPathGlobal g{} base=r{} n={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::UnsetPathLocal => format!(
            "UnsetPathLocal local{} base=r{} keys={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::UnsetPathGlobal => format!(
            "UnsetPathGlobal g{} base=r{} keys={}",
            b(insn),
            a(insn),
            c(insn)
        ),
        ROp::IssetPathLocal => format!(
            "IssetPathLocal r{} <- local{} keys={}",
            a(insn),
            b(insn),
            c(insn)
        ),
        ROp::IssetPathGlobal => format!(
            "IssetPathGlobal r{} <- g{} keys={}",
            a(insn),
            b(insn),
            c(insn)
        ),
        ROp::IncDecLocal => format!(
            "IncDecLocal r{} <- r{} variant={}",
            a(insn),
            b(insn),
            c(insn)
        ),
        ROp::IncDecGlobal => format!(
            "IncDecGlobal r{} <- g{} variant={}",
            a(insn),
            b(insn),
            c(insn)
        ),
        ROp::Call => format!("Call f{} base=r{} argc={}", a(insn), b(insn), c(insn)),
        ROp::CallBuiltin => format!(
            "CallBuiltin b{} base=r{} argc={}",
            a(insn),
            b(insn),
            c(insn)
        ),
        ROp::Return => format!("Return r{}", a(insn)),
        ROp::ReturnNull => "ReturnNull".to_string(),
        ROp::Echo => format!("Echo r{}", a(insn)),
        ROp::IterInit => format!("IterInit r{}", a(insn)),
        ROp::IterNext => format!("IterNext r{} -> {}", a(insn), bx(insn)),
        ROp::IterNextKV => format!("IterNextKV r{},r{} -> {}", a(insn), a(insn) + 1, bx(insn)),
        ROp::IterPop => "IterPop".to_string(),
    }
}

/// Disassembles a register-code body, one numbered line per instruction.
pub fn disasm(code: &[u32]) -> String {
    let mut out = String::new();
    for (i, insn) in code.iter().enumerate() {
        out.push_str(&format!("{i:4}  {}\n", disasm_insn(*insn)));
    }
    out
}

/// A compiled function body. Carries both encodings: the register code
/// (primary; executed by `vm::run_request` and the grouped VM) and the
/// stack code (the retained differential oracle, `vm::stack`).
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// Function name (lowercased; `"{main}"` for the script body).
    pub name: String,
    /// Number of declared parameters.
    pub num_params: u16,
    /// Constant-pool indices of parameter defaults (`None` = required).
    pub defaults: Vec<Option<u16>>,
    /// Total local slots (params first) used by the stack encoding.
    pub num_locals: u16,
    /// The stack code (differential oracle).
    pub code: Vec<Op>,
    /// The register code (primary encoding).
    pub reg_code: Vec<u32>,
    /// Registers this function's frame window needs (locals + temp high
    /// watermark); the VM grows its pooled register file by this much
    /// per activation.
    pub register_count: u16,
}

/// A compiled script: the unit the server routes requests to.
#[derive(Debug, Clone)]
pub struct CompiledScript {
    /// Script path (e.g. `/wiki.php`), mixed into the control-flow
    /// digest seed.
    pub path: String,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// The script body.
    pub main: CompiledFunction,
    /// User functions, indexed by [`Op::Call`].
    pub functions: Vec<CompiledFunction>,
    /// Global slot names (superglobals first).
    pub global_names: Vec<String>,
}

/// Superglobal slot assignments, fixed across every script.
pub const SUPERGLOBALS: &[&str] = &["_GET", "_POST", "_COOKIE", "_SESSION", "_SERVER"];

/// Returns the fixed global slot of a superglobal, if `name` is one.
pub fn superglobal_slot(name: &str) -> Option<u16> {
    SUPERGLOBALS
        .iter()
        .position(|s| *s == name)
        .map(|i| i as u16)
}

impl CompiledScript {
    /// Total instruction count across main and functions (the `ℓ_c`
    /// statistic of Fig. 11 counts *executed* instructions; this is the
    /// static size).
    pub fn code_size(&self) -> usize {
        self.main.code.len() + self.functions.iter().map(|f| f.code.len()).sum::<usize>()
    }
}
