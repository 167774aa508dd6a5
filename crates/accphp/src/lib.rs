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
//!   per group member. It recomputes the group's control-flow tag as
//!   the scalar VM computes each member's; a non-uniform branch, or a
//!   failure in some lanes only, is a *divergence*, which rejects
//!   (Fig. 12 line 39). State and nondeterministic builtins split into
//!   per-lane calls against the audit context (Fig. 12 lines 41–47);
//!   pure builtins split per lane exactly as §4.3 describes.
//! * [`executor`] — the [`orochi_core::GroupExecutor`] implementation:
//!   one run per unit, grouped, or per request on the scalar VM for
//!   singletons, unrouted paths and `force_scalar`; each run's
//!   recomputed tag is checked against the claimed one. Plus the
//!   univalent/multivalent accounting behind Fig. 10.

pub mod executor;
pub mod groupvm;
pub mod mval;

pub use executor::{AccPhpExecutor, VmEngine};
pub use mval::{LaneMemo, MVal};
