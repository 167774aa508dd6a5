//! Decoded op logs take a small multiple of their wire bytes.
//!
//! A log entry is stored as a fixed 12-byte record (its size is held to
//! at most 16 below) over operand tables the decoder fills in one pass,
//! so the live heap a decoded bundle holds is bounded by a constant
//! times its wire bytes: for the four apps' served bundles, and for a
//! hostile blob of the smallest entries the format has. Live heap bytes
//! are counted at the allocator seam ([`TrackingAllocator`]), so the
//! test is exact and has the process to itself: this file holds one
//! test.

use orochi_common::codec::{Encoder, Wire};
use orochi_common::ids::{OpNum, RequestId};
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::{NondetLog, Reports};
use orochi_harness::{serve, AppWorkload, ServeOptions};
use orochi_state::object::{ObjectName, OpType};
use orochi_state::PackedEntry;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Live bytes the decoded `blob` holds, over its length.
fn decoded_ratio(blob: &[u8]) -> f64 {
    let before = alloc_tracking::current_bytes();
    let decoded = Reports::from_wire_bytes(blob).unwrap();
    let live = alloc_tracking::current_bytes() - before;
    assert!(decoded.total_ops() > 0);
    drop(decoded);
    live as f64 / blob.len() as f64
}

/// One register log of `entries` reads, each three wire bytes: a
/// one-byte rid, opnum and optype.
fn register_read_blob(entries: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u64(0); // no groupings
    enc.u64(1); // one log
    ObjectName::session("s").encode(&mut enc);
    enc.u64(entries);
    for e in 0..entries {
        RequestId(e % 100).encode(&mut enc);
        OpNum(1 + (e / 100 % 100) as u32).encode(&mut enc);
        OpType::RegisterRead.encode(&mut enc);
    }
    enc.u64(0); // no op counts
    NondetLog::new().encode(&mut enc);
    enc.into_bytes()
}

/// Most live bytes a served bundle of each app may decode to, per wire
/// byte. Shop's bound is the loosest: its reports are 1,800 register
/// logs of small reads and writes, where a 12-byte entry stands for
/// about five wire bytes, each log's name and header take about 75
/// bytes, and each distinct value keeps its own handle.
const BOUNDS: [(&str, f64); 4] = [
    ("wiki", 2.0),
    ("hotcrp", 2.0),
    ("mixed", 2.25),
    ("shop", 2.75),
];

#[test]
fn decoded_reports_take_a_small_multiple_of_their_wire_bytes() {
    assert!(std::mem::size_of::<PackedEntry>() <= 16);

    let works = AppWorkload::paper(0.1, 7)
        .into_iter()
        .filter(|w| w.app.name != "forum");
    for work in works.chain([AppWorkload::mixed(0.05, 7)]) {
        let name = work.app.name;
        let blob = serve(&work, &ServeOptions::default())
            .bundle
            .reports
            .to_wire_bytes();
        let ratio = decoded_ratio(&blob);
        let (_, bound) = BOUNDS.iter().find(|(app, _)| *app == name).unwrap();
        println!("{name}: {} wire bytes decode to {ratio:.2}x", blob.len());
        assert!(
            ratio <= *bound,
            "{name}: {} wire bytes decode to {ratio:.2}x",
            blob.len()
        );
    }

    // The smallest entries the format has: owned entries of 72 bytes
    // each took 32 times these bytes.
    let blob = register_read_blob(690_000);
    let ratio = decoded_ratio(&blob);
    println!(
        "register reads: {} wire bytes decode to {ratio:.2}x",
        blob.len()
    );
    assert!(ratio <= 6.0, "register reads decode to {ratio:.2}x");
}
