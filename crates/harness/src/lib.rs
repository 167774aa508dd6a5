//! End-to-end drivers: serve a workload, spill it, audit it, attack it.
//!
//! * [`driver`] — build a workload ([`AppWorkload`]), serve it on the
//!   online executor (closed loop or an open-loop Poisson schedule),
//!   spill the bundle to a trace store, and audit it in RAM, cold, or
//!   in epochs.
//! * [`mutation`] / [`tamper`] — the adversary: seeded mutation
//!   operators over a served bundle, and the hand-written tampers.
//! * [`campaign`] — the mutation sweep: every mutant must be rejected
//!   identically on every audit path.
//!
//! Measurement lives in the standalone `benchmark/` crate
//! (`BENCHMARK.json`); nothing here reads the environment.

pub mod campaign;
pub mod driver;
pub mod mutation;
pub mod tamper;

pub use driver::{
    run_audit, run_audit_cold, run_audit_streaming, run_audit_with, serve, serve_and_audit,
    serve_drained, serve_open_loop_with, spill_bundle, AppWorkload, AuditOptions, AuditRun,
    OpenLoopOptions, ServeAudit, ServeOptions, ServeResult,
};
