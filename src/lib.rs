//! # orochi-rs
//!
//! A Rust reproduction of **"The Efficient Server Audit Problem,
//! Deduplicated Re-execution, and the Web"** (Tan, Yu, Leners, Walfish —
//! SOSP 2017).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — SSCO, the audit algorithm: consistent-ordering
//!   verification, simulate-and-check, and the grouped re-execution
//!   driver.
//! * [`trace`] — request/response traces and the collector middlebox.
//! * [`state`] — shared objects: registers, key-value store, operation
//!   logs, and the audit-time versioned KV store.
//! * [`sqldb`] — the SQL-subset database engine with strict
//!   serializability and Warp-style versioned storage.
//! * [`php`] — the mini-PHP language: lexer, parser, bytecode compiler,
//!   and the scalar VM the online server runs.
//! * [`accphp`] — acc-PHP: the SIMD-on-demand multivalue VM the verifier
//!   runs.
//! * [`server`] — the online executor with untrusted report recording.
//! * [`apps`] — five applications: the paper's three (wiki, forum,
//!   conference review), the `shop` storefront, and `mixed`, which
//!   serves all four behind one front-end.
//! * [`workload`] — workload generators with the paper's parameters.
//! * [`harness`] — end-to-end drivers (serve, spill, audit) and the
//!   adversary: mutation operators, tampers, and the campaign sweep.
//! * [`obs`] — the telemetry layer: lock-free metrics registry, RAII
//!   pipeline spans with a chrome://tracing journal, and the
//!   JSON exporter behind `OROCHI_OBS`.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index. Measurement is the standalone
//! `benchmark/` crate (`BENCHMARK.json`).

pub use orochi_accphp as accphp;
pub use orochi_apps as apps;
pub use orochi_common as common;
pub use orochi_core as core;
pub use orochi_harness as harness;
pub use orochi_obs as obs;
pub use orochi_php as php;
pub use orochi_server as server;
pub use orochi_sqldb as sqldb;
pub use orochi_state as state;
pub use orochi_trace as trace;
pub use orochi_workload as workload;
