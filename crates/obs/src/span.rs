//! RAII phase timers.
//!
//! A [`Span`] measures the wall time between its creation and drop,
//! then pushes one event into its journal lane and (optionally)
//! records the duration into a histogram. Construction is gated on
//! [`crate::enabled`]: when telemetry is off, [`span`] returns `None`
//! without ever reading the clock, so the disabled cost is one relaxed
//! atomic load.

use std::time::Instant;

use crate::journal::{self, LaneId};
use crate::registry::Histogram;

/// An in-flight phase measurement; completes on drop. Spans complete
/// even on unwind, so a panicking phase still journals its partial
/// wall time.
pub struct Span {
    lane: LaneId,
    name: &'static str,
    t0: Instant,
    hist: Option<&'static Histogram>,
}

/// Opens a span on `lane`, or returns `None` when telemetry is
/// disabled. Bind the result to a `_guard`-style local so it drops at
/// the end of the phase:
///
/// ```
/// orochi_obs::set_enabled(true);
/// let lane = orochi_obs::journal::lane("doc-worker");
/// {
///     let _span = orochi_obs::span(lane, "handle");
///     // ... phase body ...
/// }
/// ```
#[inline]
pub fn span(lane: LaneId, name: &'static str) -> Option<Span> {
    if !crate::enabled() {
        return None;
    }
    Some(Span {
        lane,
        name,
        t0: Instant::now(),
        hist: None,
    })
}

/// Like [`span`], but also records the elapsed nanoseconds into
/// `hist` when the span completes.
#[inline]
pub fn span_timed(lane: LaneId, name: &'static str, hist: &'static Histogram) -> Option<Span> {
    if !crate::enabled() {
        return None;
    }
    Some(Span {
        lane,
        name,
        t0: Instant::now(),
        hist: Some(hist),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.t0.elapsed();
        journal::push(self.lane, self.name, self.t0, dur);
        if let Some(h) = self.hist {
            h.record_duration(dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_none() {
        let _flag = crate::enabled_flag_lock();
        crate::set_enabled(false);
        let lane = journal::lane("test-span-disabled");
        assert!(span(lane, "noop").is_none());
        crate::set_enabled(true);
        assert!(span(lane, "yes").is_some());
        crate::set_enabled(false);
    }

    #[test]
    fn span_records_into_histogram_and_lane() {
        let _flag = crate::enabled_flag_lock();
        crate::set_enabled(true);
        let lane = journal::lane("test-span-records");
        let hist = crate::registry::histogram("test_span_ns");
        let before = hist.snapshot().count;
        {
            let _s = span_timed(lane, "phase", hist);
        }
        assert!(hist.snapshot().count > before);
        let counts = journal::lane_event_counts();
        let (_, n) = counts
            .iter()
            .find(|(name, _)| name == "test-span-records")
            .unwrap();
        assert!(*n >= 1);
        crate::set_enabled(false);
    }
}
