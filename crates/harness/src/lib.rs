//! End-to-end experiment drivers: everything needed to regenerate the
//! paper's tables and figures (§5).
//!
//! * [`driver`] — serve a workload on the online executor (with a
//!   configurable client-thread count or an open-loop Poisson schedule)
//!   and run audits over the resulting bundle.
//! * [`experiments`] — one function per table/figure: Fig. 8 (main
//!   results + latency/throughput), Fig. 9 (audit CPU decomposition),
//!   Fig. 11 (control-flow group characteristics), and the §5.2
//!   sources-of-acceleration ablation.
//! * [`obs`] — telemetry artifact export (`--obs-out`): registry
//!   snapshot as JSON and Prometheus text, event journal as
//!   chrome://tracing JSON.
//!
//! Workload sizes default to a CI-friendly scale; set `OROCHI_FULL=1`
//! for the paper's full request counts.

pub mod config;
pub mod driver;
pub mod experiments;
pub mod mutation;
pub mod obs;
pub mod tamper;

pub use config::{Config, Threads};
pub use driver::{
    resolve_audit_threads, resolve_serve_threads, run_audit, run_audit_cold,
    run_audit_materialized, run_audit_streaming, run_audit_with, serve, serve_and_audit,
    serve_drained, serve_open_loop, serve_open_loop_with, spill_bundle, AppWorkload, AuditOptions,
    AuditRun, OpenLoopOptions, ServeAudit, ServeOptions, ServeResult,
};
pub use experiments::scale_from_env;
pub use obs::export_obs;
