//! Decoding hostile wire bytes takes bounded memory.
//!
//! An array's length on the wire is only a claim until its entries
//! arrive, and every nesting level may claim the whole remaining buffer
//! at once. Live heap bytes are counted at the allocator seam
//! ([`TrackingAllocator`]), so the test is exact and has the process to
//! itself: this file holds one test.

use orochi_common::codec::{Encoder, Wire};
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_php::value::{Value, MAX_DECODE_DEPTH};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn forged_lengths_at_every_level_reserve_bounded_memory() {
    // MAX_DECODE_DEPTH nested arrays, each claiming `claim` entries (a
    // length the remaining bytes could hold) but holding one, around a
    // 2 MB string; the blob then ends, so the decode must fail. Levels
    // alternate list-shaped (key 0) and map-shaped (key "k") so both
    // forms are reserved.
    const STRING_BYTES: usize = 2 << 20;
    let claim = (STRING_BYTES / 8) as u64;
    let mut enc = Encoder::new();
    for level in 0..MAX_DECODE_DEPTH {
        enc.byte(5);
        enc.u64(claim);
        if level % 2 == 0 {
            enc.byte(0);
            enc.i64(0);
        } else {
            enc.byte(1);
            enc.str("k");
        }
    }
    enc.byte(4);
    enc.str(&"x".repeat(STRING_BYTES));
    let blob = enc.into_bytes();

    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let decoded = Value::from_wire_bytes(&blob);
    let peak = alloc_tracking::peak_bytes() - before;
    assert!(decoded.is_err(), "a truncated blob must not decode");
    drop(decoded);

    // The string itself plus a bounded reservation per level; a
    // reservation taken from the claimed length would be 128 times a
    // share of the blob.
    assert!(
        peak < STRING_BYTES + (1 << 20),
        "decoding a {} byte blob peaked at {peak} live bytes",
        blob.len()
    );
}
