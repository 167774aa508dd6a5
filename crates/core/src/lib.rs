//! **SSCO** — the audit algorithm of *The Efficient Server Audit Problem*
//! (SOSP 2017).
//!
//! Given an accurate trace of requests and responses and a set of
//! *untrusted* reports from the executor, the verifier decides whether the
//! responses are consistent with really having executed the program,
//! using far less work than re-executing every request. The algorithm
//! combines three techniques:
//!
//! * **Consistent-ordering verification** (§3.5, [`precedence`] and
//!   [`graph`]): build a directed graph over every event — request
//!   arrival, response departure, and every alleged operation — with
//!   edges from trace time-precedence (via the streaming frontier
//!   algorithm of Fig. 6), program order, and log order; reject if it has
//!   a cycle.
//! * **Simulate-and-check** (§3.3, [`mod@audit`]): during re-execution, reads
//!   of shared objects are *fed* from the logs (registers by backward
//!   walk, key-value stores and databases from versioned stores built at
//!   audit start), while logged writes are *checked* opportunistically
//!   against what re-execution produces.
//! * **SIMD-on-demand re-execution** (§3.1): requests are re-executed in
//!   control-flow groups. The grouped executor itself lives in
//!   `orochi-accphp`; this crate defines the [`exec::GroupExecutor`]
//!   interface and drives it.
//!
//! One engine ([`streaming`]) drives all of it — sequentially, across a
//! worker pool, or a bounded epoch of the trace at a time; the entry
//! points in [`mod@audit`] are that engine fed the whole trace as one
//! epoch. The appendix's out-of-order audit variant (`OOOAudit`,
//! Fig. 13) is implemented in [`ooo`] and used as the differential
//! oracle.

pub mod audit;
pub mod exec;
pub mod graph;
pub mod nondet;
pub mod ooo;
pub mod precedence;
pub mod reports;
pub mod streaming;

pub use audit::{
    audit, audit_parallel, audit_parallel_source, audit_source, AuditConfig, AuditContext,
    AuditOutcome, AuditStats, Rejection,
};
pub use exec::{DbTxnHandle, GroupExecutor};
pub use graph::{process_op_reports, AuditGraph, OpMap};
pub use nondet::{NondetLog, NondetValue};
pub use reports::{load_reports, spill_reports, OpCounts, Reports};
pub use streaming::{audit_streaming_source, StreamingAudit};
