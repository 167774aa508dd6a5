//! Traces of requests and responses, and the collector that records them.
//!
//! The Efficient Server Audit Problem (§2 of the paper) assumes an
//! *accurate* collector: a middlebox that captures an ordered list — the
//! **trace** — of exactly the requests that flowed into the executor and
//! the (possibly wrong) responses that flowed out. The verifier receives
//! this trace; everything else it receives (the reports) is untrusted.
//!
//! This crate provides:
//!
//! * [`HttpRequest`] / [`HttpResponse`]: the request/response payloads.
//!   We model the content of HTTP messages (path, query, form data,
//!   cookies, body) without the byte-level protocol, which is irrelevant
//!   to the audit problem.
//! * [`Event`] and [`Trace`]: the ordered event list.
//! * [`BalancedTrace`]: a validated trace, produced by
//!   [`Trace::ensure_balanced`] (§3: "the verifier begins the audit by
//!   checking that the trace is balanced"). It borrows the trace's
//!   events and adds only the index.
//! * [`Collector`]: the thread-safe middlebox used by the online system.
//! * [`TraceSource`]: the one read API — an ordered event stream lent
//!   an [`Epoch`] at a time in the borrowed [`EventRef`] shape,
//!   implemented by the in-memory [`Trace`] and by the segmented
//!   on-disk store.
//! * [`segment`] / [`store`]: the persistent binary trace store —
//!   sealed, size-bounded, integrity-checked segment files with
//!   columnar, dictionary-compressed event lanes, which the audit
//!   scans in place ([`segment::SegmentView`]) instead of holding a
//!   second copy of the trace in RAM.

pub mod collector;
pub mod event;
pub mod lz;
pub mod record;
pub mod segment;
pub mod source;
pub mod store;
pub mod view;

pub use collector::{Collector, COLLECTOR_STRIPES};
pub use event::{HttpRequest, HttpResponse};
pub use record::{
    BalanceError, BalancedTrace, DenseEvent, Event, RidInterner, StreamingBalance, Trace,
};
pub use source::{TraceSource, TraceStoreError};
pub use store::{TraceStoreReader, TraceStoreSummary, TraceStoreWriter, DEFAULT_SEGMENT_BYTES};
pub use view::{Epoch, EventRef, Pairs, RequestRef, ResponseRef};
