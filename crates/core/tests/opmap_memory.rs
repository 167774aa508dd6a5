//! The OpMap is sized by the log entries, not by what `M` claims.
//!
//! A request that promises millions of operations and logs none must
//! cost the audit what any other missing operation costs. Live heap
//! bytes are counted at the allocator seam ([`TrackingAllocator`]), so
//! the test is exact and has the process to itself: this file holds
//! one test.

use orochi_common::ids::{OpNum, RequestId};
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::graph::{process_op_reports, GraphRejection};
use orochi_core::{AuditConfig, AuditContext, Rejection, Reports};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn a_forged_op_count_allocates_bounded_memory() {
    let rid = RequestId(1);
    let trace = Trace {
        events: vec![
            Event::Request(rid, HttpRequest::get("/x", &[])),
            Event::Response(rid, HttpResponse::ok(rid, "ok")),
        ],
    };
    let reports = Reports {
        op_counts: [(rid, 4_000_000)].into_iter().collect(),
        ..Reports::new()
    };
    let missing = GraphRejection::MissingOperation {
        rid,
        opnum: OpNum(1),
    };
    let balanced = trace.ensure_balanced().unwrap();
    let config = AuditConfig::new();
    // A table sized by the claim would take 16 bytes per promised
    // operation: 64 MB here.
    let bound = 1 << 20;

    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let validated = process_op_reports(&balanced, &reports).map(|_| ());
    let peak = alloc_tracking::peak_bytes() - before;
    assert_eq!(validated, Err(missing.clone()));
    assert!(
        peak < bound,
        "process_op_reports peaked at {peak} live bytes"
    );

    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let prepared = AuditContext::prepare(&trace, &reports, &config).map(|_| ());
    let peak = alloc_tracking::peak_bytes() - before;
    assert_eq!(prepared, Err(Rejection::Graph(missing)));
    assert!(
        peak < bound,
        "AuditContext::prepare peaked at {peak} live bytes"
    );
}
