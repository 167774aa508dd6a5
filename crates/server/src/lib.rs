//! The online executor: a concurrent PHP application server that records
//! the untrusted reports.
//!
//! This is the paper's "server" (§4): each request runs the scalar PHP
//! runtime on its own thread against real shared objects — the register
//! bank (sessions), the key-value store (APC), and the
//! strictly-serializable SQL database. While executing, the server
//! records everything the audit later needs:
//!
//! * the **control-flow tag** per request (§4.3: the branch digest, how
//!   the request ended and its instruction count),
//! * per-object **operation logs** via per-request sub-logs stitched at
//!   report-assembly time (§4.7),
//! * the per-request **operation count** `M(rid)`,
//! * the return values of **nondeterministic builtins** (§4.6).
//!
//! Recording can be disabled ([`ServerConfig::recording`]) to measure
//! the baseline server cost (Fig. 8's "server CPU overhead" compares the
//! two). The recording path is untrusted by construction: nothing the
//! server writes here is believed by the verifier.
//!
//! Production-shaped serving goes through the [`frontend`] module: a
//! bounded admission queue (with backpressure or load shedding) feeding
//! a fixed worker pool, with per-worker trace stripes, report-row
//! buffers, and latency buffers merged deterministically at drain.

pub mod backend;
pub mod frontend;
pub mod server;

pub use frontend::{Frontend, FrontendConfig, FrontendReport, ShedPolicy};
pub use server::{Server, ServerConfig};
