//! [`TraceSource`]: one ingestion API for every place a trace can live.
//!
//! The audit historically consumed a fully materialized in-memory
//! [`Trace`]. With the segmented binary store (see [`crate::store`]) a
//! trace may instead live in sealed on-disk segments that are decoded
//! one at a time. `TraceSource` abstracts over both: a pull-based,
//! ordered event stream plus an exact event count for preallocation.
//! The audit engine pulls its epochs through it, so batch-from-RAM and
//! replay-from-cold-storage share every instruction downstream;
//! [`BalancedTrace::from_source`] materializes any source for callers
//! that want the indexed replay.
//!
//! The contract:
//!
//! * `stream_events` yields events **in trace (collector) order**,
//!   exactly `event_count()` of them unless the sink stops early;
//! * the stream is repeatable — a source may be streamed any number of
//!   times and yields the same events each time;
//! * storage-level failures (I/O, corrupt segments) surface as
//!   [`TraceStoreError`]; *semantic* failures (an unbalanced trace) are
//!   not the source's business and are reported by the consumer.

use crate::record::{BalanceError, BalancedBuilder, BalancedTrace, Event, Trace};
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

/// A pull-based, ordered stream of trace events — the audit's one
/// ingestion API.
///
/// Implemented by the in-memory [`Trace`], by the already-materialized
/// [`BalancedTrace`], and by
/// [`crate::store::TraceStoreReader`], which decodes sealed on-disk
/// segments one at a time so the resident ingest buffer is bounded by
/// the segment size rather than the trace length.
pub trait TraceSource {
    /// Exact number of events `stream_events` will yield.
    fn event_count(&self) -> usize;

    /// Streams every event in trace order into `sink`. The sink returns
    /// `false` to stop the stream early (not an error — used when a
    /// balance violation makes further decoding pointless).
    fn stream_events(&self, sink: &mut dyn FnMut(Event) -> bool) -> Result<(), TraceStoreError>;

    /// Streams events in trace order starting at event position
    /// `start` (0-based). The epoch-bounded variant the streaming
    /// audit pulls: each epoch resumes where the previous one stopped,
    /// and the sink stops the stream once the epoch budget fills.
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

    /// The events themselves, if this source already holds them in
    /// memory: the audit then borrows its epochs straight from the
    /// slice instead of pulling owned copies through
    /// [`TraceSource::stream_events_from`].
    fn resident_events(&self) -> Option<&[Event]> {
        None
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

    fn resident_events(&self) -> Option<&[Event]> {
        Some(&self.events)
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

    fn resident_events(&self) -> Option<&[Event]> {
        Some(self.events())
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
        assert_eq!(balanced.resident_events(), Some(&trace.events[..]));
        assert_eq!(balanced.event_count(), 2);
    }
}
