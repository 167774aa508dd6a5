//! A dictionary-coded reports blob buys bounded verifier memory.
//!
//! A reference to a shared text costs one or two wire bytes and one
//! handle in memory, never a copy of the text. Live heap bytes are
//! counted at the allocator seam ([`TrackingAllocator`]), so the test is
//! exact and has the process to itself: this file holds one test.

mod support;

use orochi_common::codec::Wire;
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::Reports;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn a_select_referenced_100k_times_decodes_to_at_most_32x_its_bytes() {
    let blob = support::big_select_reports().to_wire_bytes();

    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let decoded = Reports::from_wire_bytes(&blob).unwrap();
    let peak = alloc_tracking::peak_bytes() - before;
    assert_eq!(
        decoded.total_ops() as u64,
        support::TXNS,
        "every transaction decodes"
    );
    drop(decoded);

    // A copy per reference would be the text times 100,000: 26 GB.
    assert!(
        peak <= 32 * blob.len(),
        "decoding a {} byte blob peaked at {peak} live bytes",
        blob.len()
    );
}
