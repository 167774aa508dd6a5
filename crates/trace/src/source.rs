//! [`TraceSource`]: one ingestion API for every place a trace can live.
//!
//! A trace lives either in memory (a [`Trace`]) or in the sealed
//! on-disk segments of [`crate::store`]. `TraceSource` abstracts over
//! both: an ordered event stream plus an exact event count. It comes
//! in two forms. [`TraceSource::for_each_epoch`] *lends* the events a
//! run at a time in the borrowed [`crate::EventRef`] shape — the audit
//! engine's one ingestion path, which copies a byte only when a
//! request is materialised for re-execution, so batch-from-RAM and
//! replay-from-cold-storage share every instruction downstream.
//! [`TraceSource::stream_events`] hands out *owned* events, for callers
//! that keep them ([`BalancedTrace::from_source`] materializes any
//! source for the indexed replay).
//!
//! The contract:
//!
//! * both forms yield events **in trace (collector) order**, exactly
//!   `event_count()` of them unless the sink stops early;
//! * the stream is repeatable — a source may be streamed any number of
//!   times and yields the same events each time;
//! * what an [`Epoch`] lends is valid for the whole sink call it was
//!   passed to, and no longer: a store-backed source keeps the parsed
//!   segments an epoch spans alive until the sink returns, then drops
//!   them;
//! * storage-level failures (I/O, corrupt segments) surface as
//!   [`TraceStoreError`]; *semantic* failures (an unbalanced trace) are
//!   not the source's business and are reported by the consumer.

use crate::record::{BalanceError, BalancedBuilder, BalancedTrace, Event, Trace};
use crate::view::Epoch;
use std::fmt;

/// A storage-level failure while reading a persisted trace.
///
/// Carries the offending path and a stable human-readable detail; the
/// corruption tests assert on these strings, so treat them as part of
/// the API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStoreError {
    /// The filesystem said no (open/read/write/create failures).
    Io {
        /// Path of the file or directory involved.
        path: String,
        /// The OS error rendered as text.
        detail: String,
    },
    /// A segment or blob failed structural validation.
    Corrupt {
        /// Path of the offending file.
        path: String,
        /// What check failed (stable diagnostic).
        detail: String,
    },
}

impl TraceStoreError {
    /// Builds an [`TraceStoreError::Io`] from an OS error.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        TraceStoreError::Io {
            path: path.into(),
            detail: err.to_string(),
        }
    }

    /// Builds a [`TraceStoreError::Corrupt`] with a stable detail string.
    pub fn corrupt(path: impl Into<String>, detail: impl Into<String>) -> Self {
        TraceStoreError::Corrupt {
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStoreError::Io { path, detail } => {
                write!(f, "trace store I/O error at {path}: {detail}")
            }
            TraceStoreError::Corrupt { path, detail } => {
                write!(f, "corrupt trace store file {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceStoreError {}

/// Why replaying a [`TraceSource`] failed to produce a [`BalancedTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceReadError {
    /// The events streamed fine but violate the §3 balance conditions.
    Balance(BalanceError),
    /// The storage layer failed before the stream finished.
    Store(TraceStoreError),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Balance(e) => write!(f, "{e}"),
            TraceReadError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<BalanceError> for TraceReadError {
    fn from(e: BalanceError) -> Self {
        TraceReadError::Balance(e)
    }
}

impl From<TraceStoreError> for TraceReadError {
    fn from(e: TraceStoreError) -> Self {
        TraceReadError::Store(e)
    }
}

/// An ordered stream of trace events — the audit's one ingestion API.
///
/// Implemented by the in-memory [`Trace`], by the already-materialized
/// [`BalancedTrace`], and by [`crate::store::TraceStoreReader`], which
/// parses sealed on-disk segments as it goes and holds only those the
/// current epoch spans.
pub trait TraceSource {
    /// Exact number of events the source yields.
    fn event_count(&self) -> usize;

    /// Lends the trace as consecutive [`Epoch`]s of `budget` events
    /// (the last may be shorter; a `budget` of 0 counts as 1) until
    /// `sink` returns `false`. Nothing is copied: a resident source
    /// lends slices of its events, a store lends windows over its
    /// parsed segments — so an epoch of `usize::MAX` events holds every
    /// segment's payload at once, and a small one only those it spans.
    fn for_each_epoch(
        &self,
        budget: usize,
        sink: &mut dyn FnMut(Epoch<'_>) -> bool,
    ) -> Result<(), TraceStoreError>;

    /// Streams every event in trace order into `sink`. The sink returns
    /// `false` to stop the stream early (not an error — used when a
    /// balance violation makes further decoding pointless).
    fn stream_events(&self, sink: &mut dyn FnMut(Event) -> bool) -> Result<(), TraceStoreError>;

    /// [`TraceSource::stream_events`] starting at event position
    /// `start` (0-based).
    ///
    /// The default implementation replays from the top and discards
    /// the prefix; sources with random access (an in-memory event
    /// list, a segment store with per-segment event counts) override
    /// it to skip the prefix without decoding it.
    fn stream_events_from(
        &self,
        start: usize,
        sink: &mut dyn FnMut(Event) -> bool,
    ) -> Result<(), TraceStoreError> {
        let mut pos = 0usize;
        self.stream_events(&mut |event| {
            let keep = if pos < start { true } else { sink(event) };
            pos += 1;
            keep
        })
    }
}

impl TraceSource for Trace {
    fn event_count(&self) -> usize {
        self.events.len()
    }

    fn stream_events(&self, sink: &mut dyn FnMut(Event) -> bool) -> Result<(), TraceStoreError> {
        self.stream_events_from(0, sink)
    }

    fn stream_events_from(
        &self,
        start: usize,
        sink: &mut dyn FnMut(Event) -> bool,
    ) -> Result<(), TraceStoreError> {
        for event in &self.events[start.min(self.events.len())..] {
            if !sink(event.clone()) {
                break;
            }
        }
        Ok(())
    }

    fn for_each_epoch(
        &self,
        budget: usize,
        sink: &mut dyn FnMut(Epoch<'_>) -> bool,
    ) -> Result<(), TraceStoreError> {
        let _ = self
            .events
            .chunks(budget.max(1))
            .all(|events| sink(events.into()));
        Ok(())
    }
}

impl TraceSource for BalancedTrace {
    fn event_count(&self) -> usize {
        self.as_trace().events.len()
    }

    fn stream_events(&self, sink: &mut dyn FnMut(Event) -> bool) -> Result<(), TraceStoreError> {
        self.as_trace().stream_events(sink)
    }

    fn stream_events_from(
        &self,
        start: usize,
        sink: &mut dyn FnMut(Event) -> bool,
    ) -> Result<(), TraceStoreError> {
        self.as_trace().stream_events_from(start, sink)
    }

    fn for_each_epoch(
        &self,
        budget: usize,
        sink: &mut dyn FnMut(Epoch<'_>) -> bool,
    ) -> Result<(), TraceStoreError> {
        self.as_trace().for_each_epoch(budget, sink)
    }
}

impl BalancedTrace {
    /// Replays `source` into the audit's materialized form: one pass
    /// that validates the §3 balance conditions, interns requestIDs, and
    /// indexes event positions.
    pub fn from_source<S: TraceSource + ?Sized>(
        source: &S,
    ) -> Result<BalancedTrace, TraceReadError> {
        let mut builder = BalancedBuilder::with_capacity(source.event_count());
        source.stream_events(&mut |event| builder.push(event))?;
        builder.finish().map_err(TraceReadError::Balance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HttpRequest, HttpResponse};
    use orochi_common::ids::RequestId;

    fn pair(rid: u64) -> [Event; 2] {
        let rid = RequestId(rid);
        [
            Event::Request(rid, HttpRequest::get("/x.php", &[])),
            Event::Response(rid, HttpResponse::ok(rid, "ok")),
        ]
    }

    #[test]
    fn trace_streams_all_events_in_order() {
        let mut events = Vec::new();
        events.extend(pair(1));
        events.extend(pair(2));
        let trace = Trace {
            events: events.clone(),
        };
        assert_eq!(trace.event_count(), 4);
        let mut seen = Vec::new();
        trace
            .stream_events(&mut |e| {
                seen.push(e);
                true
            })
            .unwrap();
        assert_eq!(seen, events);
    }

    #[test]
    fn sink_can_stop_early() {
        let mut events = Vec::new();
        events.extend(pair(1));
        events.extend(pair(2));
        let trace = Trace { events };
        let mut seen = 0;
        trace
            .stream_events(&mut |_| {
                seen += 1;
                false
            })
            .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn from_source_matches_ensure_balanced() {
        let mut events = Vec::new();
        events.extend(pair(7));
        events.extend(pair(3));
        let trace = Trace { events };
        let via_source = BalancedTrace::from_source(&trace).unwrap();
        let via_direct = trace.ensure_balanced().unwrap();
        assert_eq!(
            via_source.request_ids().collect::<Vec<_>>(),
            via_direct.request_ids().collect::<Vec<_>>()
        );
        assert_eq!(via_source.as_trace(), via_direct.as_trace());
    }

    #[test]
    fn from_source_reports_balance_errors() {
        let rid = RequestId(1);
        let trace = Trace {
            events: vec![Event::Response(rid, HttpResponse::ok(rid, "x"))],
        };
        assert_eq!(
            BalancedTrace::from_source(&trace).unwrap_err(),
            TraceReadError::Balance(BalanceError::ResponseWithoutRequest(rid))
        );
    }

    #[test]
    fn stream_events_from_skips_prefix() {
        let mut events = Vec::new();
        events.extend(pair(1));
        events.extend(pair(2));
        events.extend(pair(3));
        let trace = Trace {
            events: events.clone(),
        };
        for start in 0..=events.len() + 1 {
            let mut seen = Vec::new();
            trace
                .stream_events_from(start, &mut |e| {
                    seen.push(e);
                    true
                })
                .unwrap();
            assert_eq!(seen, events[start.min(events.len())..]);
        }
        // The sink's stop signal still works mid-stream.
        let mut taken = Vec::new();
        trace
            .stream_events_from(2, &mut |e| {
                taken.push(e);
                taken.len() < 2
            })
            .unwrap();
        assert_eq!(taken, events[2..4]);
    }

    #[test]
    fn balanced_trace_is_its_own_source() {
        let trace = Trace {
            events: pair(5).to_vec(),
        };
        let balanced = trace.ensure_balanced().unwrap();
        assert_eq!(balanced.event_count(), 2);
        let mut lent = Vec::new();
        balanced
            .for_each_epoch(usize::MAX, &mut |epoch| {
                lent.extend(epoch.iter().map(|e| e.to_owned()));
                true
            })
            .unwrap();
        assert_eq!(lent, trace.events);
    }

    #[test]
    fn resident_epochs_are_budget_sized_slices() {
        let mut events = Vec::new();
        for rid in 1..=5 {
            events.extend(pair(rid));
        }
        let trace = Trace {
            events: events.clone(),
        };
        for budget in [0usize, 1, 3, 10, 11, usize::MAX] {
            let mut lens = Vec::new();
            let mut seen = Vec::new();
            trace
                .for_each_epoch(budget, &mut |epoch| {
                    lens.push(epoch.len());
                    seen.extend(epoch.iter().map(|e| e.to_owned()));
                    true
                })
                .unwrap();
            assert_eq!(seen, events, "budget {budget}");
            let full = budget.clamp(1, events.len());
            assert!(lens[..lens.len() - 1].iter().all(|&l| l == full));
        }
        // The sink's stop signal ends the walk.
        let mut epochs = 0;
        trace
            .for_each_epoch(2, &mut |_| {
                epochs += 1;
                false
            })
            .unwrap();
        assert_eq!(epochs, 1);
    }
}
