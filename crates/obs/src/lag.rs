//! Audit lag: the wall time from the moment trace data is sealed to
//! the moment the auditor reaches a verdict over it.
//!
//! The ROADMAP's streaming-epoch audit wants this as a first-class,
//! continuously observable metric. The mechanism is deliberately
//! lock-free and streaming-friendly: sealers (the frontend draining
//! its collector, the trace-store writer finishing a spill) call
//! [`mark_sealed`], which stores a microsecond timestamp in one
//! atomic; the auditor calls [`record_verdict`] when a verdict lands,
//! which records now−seal into the `audit_lag_ns` histogram. A
//! streaming audit marks a seal per epoch and records a verdict per
//! epoch, and the histogram becomes the lag distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::journal;
use crate::registry::{LazyCounter, LazyGauge, LazyHistogram};

/// Microseconds since the journal epoch of the most recent seal, plus
/// one so that zero means "never sealed".
static LAST_SEAL_US: AtomicU64 = AtomicU64::new(0);

static AUDIT_LAG_NS: LazyHistogram = LazyHistogram::new("audit_lag_ns");

/// Epochs the streaming audit has completed (batch audits count one).
static AUDIT_EPOCHS: LazyCounter = LazyCounter::new("audit_epochs_total");

/// Bytes of state the streaming audit carried across the most recent
/// epoch boundary (interner + open payloads + OpMap + output bitmap).
static AUDIT_CARRY_BYTES: LazyGauge = LazyGauge::new("audit_carry_bytes");

/// Marks that a batch of trace data was just sealed (collector
/// drained, or a trace-store segment run finished). Gated on
/// [`crate::enabled`] so disabled runs never read the clock.
#[inline]
pub fn mark_sealed() {
    if !crate::enabled() {
        return;
    }
    let now_us = journal::since_epoch(std::time::Instant::now()).as_micros() as u64;
    LAST_SEAL_US.store(now_us + 1, Ordering::Relaxed);
}

/// Records seal→verdict lag into the `audit_lag_ns` histogram and
/// returns it, or `None` when telemetry is disabled or nothing was
/// sealed.
pub fn record_verdict() -> Option<Duration> {
    if !crate::enabled() {
        return None;
    }
    let sealed = LAST_SEAL_US.load(Ordering::Relaxed);
    if sealed == 0 {
        return None;
    }
    let now_us = journal::since_epoch(std::time::Instant::now()).as_micros() as u64;
    let lag = Duration::from_micros(now_us.saturating_sub(sealed - 1));
    AUDIT_LAG_NS.record_duration(lag);
    Some(lag)
}

/// Marks that the streaming audit finished one epoch: bumps the
/// `audit_epochs_total` counter, publishes the carried-state size in
/// the `audit_carry_bytes` gauge (both always on, per the overhead
/// contract), and — when telemetry is enabled — records the
/// seal→epoch-verdict lag via [`record_verdict`], returning it.
pub fn mark_epoch(carry_bytes: u64) -> Option<Duration> {
    AUDIT_EPOCHS.add(1);
    AUDIT_CARRY_BYTES
        .get()
        .set(i64::try_from(carry_bytes).unwrap_or(i64::MAX));
    record_verdict()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_round_trip() {
        let _flag = crate::enabled_flag_lock();
        crate::set_enabled(true);
        mark_sealed();
        let before = AUDIT_LAG_NS.snapshot().count;
        let lag = record_verdict();
        assert!(lag.is_some());
        assert!(AUDIT_LAG_NS.snapshot().count > before);
        crate::set_enabled(false);
        assert!(record_verdict().is_none());
    }

    #[test]
    fn epoch_marks_count_even_when_disabled() {
        let _flag = crate::enabled_flag_lock();
        crate::set_enabled(false);
        let before = AUDIT_EPOCHS.value();
        assert!(mark_epoch(4096).is_none());
        assert_eq!(AUDIT_EPOCHS.value(), before + 1);
        assert_eq!(AUDIT_CARRY_BYTES.value(), 4096);
    }
}
