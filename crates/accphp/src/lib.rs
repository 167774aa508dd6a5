//! acc-PHP: the verifier's accelerated PHP runtime (§4.3).
//!
//! Implements **SIMD-on-demand execution** (§3.1): all requests of one
//! control-flow group re-execute together as a single "superposed"
//! execution over *multivalues*. An instruction whose operands are
//! identical across the group executes once (univalently); one whose
//! operands differ executes per lane (multivalently), and the result
//! collapses back to a single value the moment the lanes agree — the
//! opportunistic collapsing that §5.2 identifies as the real source of
//! acceleration ("the gain comes not from the 'SIMD' part but from the
//! 'on demand' part").
//!
//! * [`mval`] — the multivalue representation: `Uni(Value)` or
//!   `Multi(Vec<Value>)`, with collapse, and the per-lane helper that
//!   computes a multivalent operation once per distinct operand
//!   identity.
//! * [`groupvm`] — the multivalue VM: the scalar runtime's dispatch
//!   loop (`orochi_php::vm::execute`) run in a lane domain of one lane
//!   per group member. Conditional branches on non-uniform conditions
//!   signal *divergence* (Fig. 12 line 39); state and nondeterministic
//!   builtins split into per-lane calls against the audit context
//!   (Fig. 12 lines 41–47); pure builtins split per lane exactly as
//!   §4.3 describes.
//! * [`executor`] — the [`orochi_core::GroupExecutor`] implementation:
//!   grouped execution with a scalar per-request fallback (mirroring
//!   acc-PHP's "re-execute separately" escape hatch), plus the
//!   univalent/multivalent accounting behind Fig. 10.

pub mod executor;
pub mod groupvm;
pub mod mval;

pub use executor::{AccPhpExecutor, VmEngine};
pub use groupvm::GroupRunError;
pub use mval::{LaneMemo, MVal};
