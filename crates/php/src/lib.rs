//! Mini-PHP: the language runtime the audited applications are written
//! in.
//!
//! OROCHI's server runs a modified PHP runtime (HHVM) that records
//! control-flow digests and state operations (§4.3, §4.7); its verifier
//! runs acc-PHP, a multivalue runtime. This crate is the from-scratch
//! equivalent of the *scalar* side, shared by the online server and the
//! verifier's per-request fallback path:
//!
//! * [`value`] — PHP values: scalars plus the ordered hash map that is
//!   the PHP array, with copy-on-write value semantics.
//! * [`lexer`] / [`parser`] / [`ast`] — a procedural PHP subset:
//!   functions, superglobals, `if`/`while`/`for`/`foreach`/`switch`,
//!   arrays, and ~70 builtins. No classes or closures (DESIGN.md
//!   documents the scope).
//! * [`compiler`] / [`bytecode`] — AST to register bytecode, compiled
//!   once per script. The opcode set deliberately includes the
//!   instruction categories Fig. 10 benchmarks (multiply, concat, isset,
//!   jump, variable get, array set, iteration, increment, new-array,
//!   builtin call).
//! * [`vm`] — the scalar interpreter. It maintains the **control-flow
//!   digest** (updated at every conditional branch, switch dispatch,
//!   and iteration step, §4.3) and routes state operations and
//!   nondeterministic builtins through the [`backend`] traits. Its
//!   `stack` submodule is a test oracle: a stack-bytecode compiler and
//!   interpreter of its own, run beside the register VM by the
//!   differential tests.
//! * [`builtins`] — the builtin function registry.
//!
//! The SIMD-on-demand multivalue VM lives in `orochi-accphp` and shares
//! this crate's bytecode, values, and builtin semantics.

pub mod ast;
pub mod backend;
pub mod builtins;
pub mod bytecode;
pub mod compiler;
pub mod lexer;
pub mod parser;
pub mod value;
pub mod vm;

pub use backend::{BackendError, DbResult, NondetProvider, RuntimeBackend, StateBackend};
pub use bytecode::CompiledScript;
pub use compiler::compile;
pub use parser::parse_script;
pub use value::{ArrayKey, Key, PhpArray, Value};
pub use vm::{RequestInput, RequestOutput, Vm, VmError};
