//! Decoding a hostile reports blob takes bounded memory.
//!
//! A length prefix is only a claim until its elements arrive, and an
//! operation-log entry takes dozens of bytes in memory for every byte
//! it may claim on the wire. Live heap bytes are counted at the
//! allocator seam ([`TrackingAllocator`]), so the test is exact and has
//! the process to itself: this file holds one test.

use orochi_common::codec::{Encoder, Wire};
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::Reports;
use orochi_state::object::ObjectName;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn a_forged_log_length_reserves_bounded_memory() {
    // No groupings, then one operation log claiming as many entries as
    // the rest of a 2 MiB blob has bytes, then junk that no entry
    // decodes from.
    const BLOB_BYTES: usize = 2 << 20;
    const CLAIM_VARINT: usize = 3;
    let mut enc = Encoder::new();
    enc.u64(0);
    enc.u64(1);
    ObjectName::kv("apc").encode(&mut enc);
    let claim = BLOB_BYTES - enc.len() - CLAIM_VARINT;
    enc.u64(claim as u64);
    let mut blob = enc.into_bytes();
    assert_eq!(blob.len(), BLOB_BYTES - claim, "the claim fills the blob");
    blob.resize(BLOB_BYTES, 0xff);

    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let decoded = Reports::from_wire_bytes(&blob);
    let peak = alloc_tracking::peak_bytes() - before;
    assert!(decoded.is_err(), "a blob of junk entries must not decode");
    drop(decoded);

    // A reservation taken from the claimed length would be the claim
    // times the size of an entry: about 70 times the blob.
    assert!(
        peak <= BLOB_BYTES + (1 << 20),
        "decoding a {BLOB_BYTES} byte blob peaked at {peak} live bytes"
    );
}
