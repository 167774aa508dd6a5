//! The workspace telemetry layer: a lock-free metrics registry,
//! lightweight spans, and a bounded event journal.
//!
//! The paper's whole evaluation is an observability exercise — latency
//! percentiles (Fig. 8), per-phase audit CPU (Fig. 9), instruction
//! accounting (Fig. 10) — and the pipeline's production concerns
//! (queue pressure, shard contention, trace-store throughput, audit
//! lag) are the same numbers measured continuously. This crate is the
//! substrate every layer reports into:
//!
//! * [`registry`] — atomic counters, gauges, and fixed-bucket log2
//!   histograms, registered once by name and updated with relaxed
//!   atomic operations only (no lock is ever taken on an update path).
//!   Histogram snapshots merge associatively, so per-stripe and
//!   per-worker instances fold into one distribution.
//! * [`mod@span`] — RAII phase timers. A span records its wall time into a
//!   histogram and, when the journal is enabled, emits one event into
//!   its lane.
//! * [`journal`] — a bounded ring-buffer event journal with one lane
//!   per serve worker / audit worker / trace-store writer, exportable
//!   as chrome://tracing JSON so a whole serve→spill→cold-audit run
//!   can be opened in a trace viewer.
//! * [`export`] — a JSON snapshot and a Prometheus-style text dump.
//! * [`lag`] — the audit-lag epoch marks: trace-seal → verdict wall,
//!   the first-class metric the streaming-epoch audit will stream.
//!
//! # Overhead contract
//!
//! Instrumentation must be cheap enough to leave compiled in (the
//! benchmark runs with the layer off, so the disabled-mode cost is
//! inside every end-to-end metric). The rules:
//!
//! * **Counters and gauges are always on.** Their cost is one relaxed
//!   atomic RMW — the same primitive the server already uses for
//!   `busy_ns` — so hot paths increment them unconditionally.
//! * **Anything that needs a clock is gated on [`enabled`].** Spans,
//!   admission-wait timestamps, and journal pushes only run when
//!   `OROCHI_OBS` turned the layer on; the disabled path is a single
//!   relaxed atomic load.
//! * The journal is bounded per lane (oldest events overwritten), so
//!   an enabled long run cannot grow without bound.

pub mod export;
pub mod journal;
pub mod lag;
pub mod registry;
pub mod span;

pub use journal::LaneId;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram,
};
pub use span::{span, span_timed, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet read from the environment, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether the clock-bearing side of the telemetry layer (spans,
/// journal, admission-wait timestamps) is on. Initialized lazily from
/// `OROCHI_OBS` (`1`/`true` = on); [`set_enabled`] overrides it. The
/// disabled fast path is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = matches!(std::env::var("OROCHI_OBS"),
                              Ok(v) if v == "1" || v.eq_ignore_ascii_case("true"));
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns the clock-bearing telemetry on or off, overriding the
/// environment. Counters and gauges record regardless.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Serialises the unit tests that flip the process-global [`ENABLED`]
/// flag: the test harness runs them on parallel threads, and one test
/// turning telemetry off mid-way through another's span would fail it.
#[cfg(test)]
pub(crate) fn enabled_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the flag it guards is still valid.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _flag = enabled_flag_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
