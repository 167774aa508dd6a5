//! Mini-PHP: the language runtime the audited applications are written
//! in.
//!
//! OROCHI's server runs a modified PHP runtime (HHVM) that records
//! control-flow digests and state operations (§4.3, §4.7); its verifier
//! runs acc-PHP, a multivalue runtime. This crate is the from-scratch
//! equivalent of the *scalar* side, shared by the online server and the
//! verifier's scalar runs (singletons, unrouted paths, `force_scalar`):
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
//! * [`vm`] — the register interpreter, one dispatch loop generic over
//!   the lanes it runs in, and its scalar domain, one request. That
//!   domain maintains the **control-flow digest** (updated at every
//!   conditional branch and iteration step, §4.3) and routes state
//!   operations and nondeterministic builtins through the [`backend`]
//!   traits. `vm::ctl_flow_tag` makes every control-flow tag from a
//!   digest, the request's ending and its instruction count. Its
//!   `stack` submodule is a test oracle: a stack-bytecode compiler and
//!   interpreter of its own, run beside the register VM by the
//!   differential tests.
//! * [`builtins`] — the builtin function registry.
//!
//! The SIMD-on-demand multivalue VM lives in `orochi-accphp`: it runs
//! this crate's dispatch loop in a domain of multivalue lanes and shares
//! its bytecode, values, and builtin semantics.

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
pub use vm::{RequestInput, RequestOutput, VmError};
