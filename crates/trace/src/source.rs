//! [`TraceSource`]: one read API for every place a trace can live.
//!
//! A trace lives either in memory (a [`Trace`]) or in the sealed
//! on-disk segments of [`crate::store`]. `TraceSource` abstracts over
//! both with one read form: [`TraceSource::for_each_epoch`] *lends* the
//! events a run at a time in the borrowed [`crate::EventRef`] shape.
//! It is the audit engine's one ingestion path, which copies a byte
//! only when a request is materialised for re-execution, so
//! batch-from-RAM and replay-from-cold-storage share every instruction
//! downstream. [`TraceSource::stream_events`] is that same walk with
//! each event copied out, written once for every source.
//!
//! The contract:
//!
//! * events arrive **in trace (collector) order**, exactly
//!   `event_count()` of them unless the sink stops early;
//! * the stream is repeatable — a source may be walked any number of
//!   times and yields the same events each time;
//! * what an [`Epoch`] lends is valid for the whole sink call it was
//!   passed to, and no longer: a store-backed source keeps the parsed
//!   segments an epoch spans alive until the sink returns, then drops
//!   them;
//! * storage-level failures (I/O, corrupt segments) surface as
//!   [`TraceStoreError`]; *semantic* failures (an unbalanced trace) are
//!   not the source's business and are reported by the consumer.

use crate::record::{Event, Trace};
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

/// Events [`TraceSource::stream_events`] copies out per epoch: enough
/// that the walk's per-epoch setup is noise, few enough that a store
/// holds only the segments one epoch spans.
const STREAM_EPOCH: usize = 4096;

/// An ordered stream of trace events — the audit's one ingestion API.
///
/// Implemented by the in-memory [`Trace`] and by
/// [`crate::store::TraceStoreReader`], which parses sealed on-disk
/// segments as it goes and holds only those the current epoch spans.
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

    /// Copies every event out, in trace order, into `sink`: the
    /// [`TraceSource::for_each_epoch`] walk over bounded epochs. The
    /// sink returns `false` to stop the stream early.
    fn stream_events(&self, sink: &mut dyn FnMut(Event) -> bool) -> Result<(), TraceStoreError> {
        self.for_each_epoch(STREAM_EPOCH, &mut |epoch| {
            epoch.iter().all(|event| sink(event.to_owned()))
        })
    }
}

impl TraceSource for Trace {
    fn event_count(&self) -> usize {
        self.events.len()
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

#[cfg(test)]
pub(crate) mod tests {
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

    /// Checks that [`TraceSource::stream_events`] copies out exactly
    /// what [`TraceSource::for_each_epoch`] lends at each of `budgets`,
    /// and that the sink's stop signal ends the stream. Returns the
    /// streamed events.
    pub(crate) fn assert_streams_what_it_lends(
        source: &impl TraceSource,
        budgets: &[usize],
    ) -> Vec<Event> {
        let mut streamed = Vec::new();
        source
            .stream_events(&mut |e| {
                streamed.push(e);
                true
            })
            .unwrap();
        assert_eq!(streamed.len(), source.event_count());
        for &budget in budgets {
            let mut lent = Vec::new();
            source
                .for_each_epoch(budget, &mut |epoch| {
                    lent.extend(epoch.iter().map(|e| e.to_owned()));
                    true
                })
                .unwrap();
            assert!(lent == streamed, "budget {budget}");
        }
        for stop in [1, streamed.len() / 2, streamed.len() - 1] {
            let mut taken = Vec::new();
            source
                .stream_events(&mut |e| {
                    taken.push(e);
                    taken.len() < stop
                })
                .unwrap();
            assert!(taken == streamed[..stop], "stop after {stop}");
        }
        streamed
    }

    #[test]
    fn resident_stream_copies_what_epochs_lend() {
        // Long enough that the stream itself crosses an epoch boundary.
        let trace = Trace {
            events: (1..=STREAM_EPOCH as u64).flat_map(pair).collect(),
        };
        let n = trace.events.len();
        let streamed = assert_streams_what_it_lends(&trace, &[1, 3, n, usize::MAX]);
        assert_eq!(streamed, trace.events);
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
