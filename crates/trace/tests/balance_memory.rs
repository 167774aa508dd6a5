//! Balancing a trace costs its index, not its payloads.
//!
//! [`Trace::ensure_balanced`] borrows the events it validates and
//! allocates only the requestID interner and the two position arrays,
//! so two traces of the same shape cost the same to balance however
//! long their bodies are. Live heap bytes are counted at the allocator
//! seam ([`TrackingAllocator`]), so the test is exact and has the
//! process to itself: this file holds one test.

use orochi_common::ids::RequestId;
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// 5,000 requests in overlapping windows of eight, each answered with a
/// `body_len`-byte body: about 10k events.
fn trace(body_len: usize) -> Trace {
    let body = "b".repeat(body_len);
    let mut events = Vec::new();
    for window in 0..625u64 {
        let rids: Vec<RequestId> = (0..8).map(|i| RequestId(window * 8 + i + 1)).collect();
        for &rid in &rids {
            let id = rid.0.to_string();
            events.push(Event::Request(
                rid,
                HttpRequest::get("/wiki.php", &[("page", &id)]),
            ));
        }
        for &rid in rids.iter().rev() {
            events.push(Event::Response(rid, HttpResponse::ok(rid, &body)));
        }
    }
    Trace { events }
}

/// Peak heap bytes `ensure_balanced` adds while it runs and its result
/// is alive.
fn balance_bytes(trace: &Trace) -> usize {
    let before = alloc_tracking::current_bytes();
    alloc_tracking::reset_peak();
    let balanced = trace.ensure_balanced().expect("the trace is balanced");
    let peak = alloc_tracking::peak_bytes() - before;
    assert_eq!(balanced.num_requests(), 5_000);
    peak
}

#[test]
fn balancing_allocates_independently_of_payload_size() {
    let short = trace(100);
    let long = trace(1_000);
    assert_eq!(short.len(), 10_000);
    // Warm up anything a first call initialises lazily.
    balance_bytes(&short);

    let short_bytes = balance_bytes(&short);
    let long_bytes = balance_bytes(&long);
    assert!(
        short_bytes.abs_diff(long_bytes) * 100 <= short_bytes,
        "balancing 10x longer bodies took {long_bytes} B against {short_bytes} B"
    );
    // The long trace's bodies alone weigh 5 MB; its index is a small
    // fraction of that.
    assert!(
        long_bytes < 5_000 * 1_000 / 4,
        "balancing took {long_bytes} B"
    );
}
