//! The trace proper: ordered events and the balanced-trace check.
//!
//! A trace is an ordered list of REQUEST and RESPONSE events (§2). Before
//! auditing, the verifier checks that the trace is *balanced* (§3):
//! every response is associated with an earlier request, every request has
//! exactly one response, and requestIDs are unique. Only a
//! [`BalancedTrace`] can be fed to the audit.

use crate::event::{HttpRequest, HttpResponse};
use orochi_common::codec::{Decoder, Encoder, Wire, WireError};
use orochi_common::ids::RequestId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One observed event: a request arriving at, or a response departing
/// from, the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `(REQUEST, rid, contents)` — a request arrived.
    Request(RequestId, HttpRequest),
    /// `(RESPONSE, rid, contents)` — a response departed.
    Response(RequestId, HttpResponse),
}

impl Event {
    /// The requestID this event belongs to.
    pub fn rid(&self) -> RequestId {
        match self {
            Event::Request(rid, _) => *rid,
            Event::Response(rid, _) => *rid,
        }
    }
}

impl Wire for Event {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Event::Request(rid, req) => {
                enc.byte(0);
                rid.encode(enc);
                req.encode(enc);
            }
            Event::Response(rid, resp) => {
                enc.byte(1);
                rid.encode(enc);
                resp.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.byte()? {
            0 => Ok(Event::Request(
                RequestId::decode(dec)?,
                HttpRequest::decode(dec)?,
            )),
            1 => Ok(Event::Response(
                RequestId::decode(dec)?,
                HttpResponse::decode(dec)?,
            )),
            _ => Err(WireError::Malformed("unknown event tag")),
        }
    }
}

/// An ordered, possibly unvalidated trace of events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in collector (time) order.
    pub events: Vec<Event>,
}

/// Why a trace failed the balanced check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalanceError {
    /// Two REQUEST events carry the same requestID.
    DuplicateRequestId(RequestId),
    /// A RESPONSE event appeared with no earlier matching REQUEST.
    ResponseWithoutRequest(RequestId),
    /// Two RESPONSE events answer the same request.
    DuplicateResponse(RequestId),
    /// A REQUEST event never received a RESPONSE.
    RequestWithoutResponse(RequestId),
    /// A response's `rid_label` disagrees with its position-derived rid.
    MislabeledResponse {
        /// The requestID implied by the event stream.
        expected: RequestId,
        /// The label the executor actually put on the response.
        got: RequestId,
    },
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::DuplicateRequestId(rid) => {
                write!(f, "duplicate requestID {rid}")
            }
            BalanceError::ResponseWithoutRequest(rid) => {
                write!(f, "response for {rid} precedes its request")
            }
            BalanceError::DuplicateResponse(rid) => {
                write!(f, "more than one response for {rid}")
            }
            BalanceError::RequestWithoutResponse(rid) => {
                write!(f, "request {rid} has no response")
            }
            BalanceError::MislabeledResponse { expected, got } => {
                write!(f, "response labeled {got} but answers {expected}")
            }
        }
    }
}

impl std::error::Error for BalanceError {}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events (requests plus responses).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the balanced-trace conditions (§3) and indexes the trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use orochi_common::ids::RequestId;
    /// use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
    ///
    /// let rid = RequestId(1);
    /// let trace = Trace {
    ///     events: vec![
    ///         Event::Request(rid, HttpRequest::get("/a.php", &[])),
    ///         Event::Response(rid, HttpResponse::ok(rid, "hi")),
    ///     ],
    /// };
    /// let balanced = trace.ensure_balanced().unwrap();
    /// assert_eq!(balanced.request_ids().count(), 1);
    /// ```
    pub fn ensure_balanced(&self) -> Result<BalancedTrace<'_>, BalanceError> {
        let mut balance = StreamingBalance::new();
        let mut request_pos = Vec::new();
        let mut response_pos = Vec::new();
        for (pos, event) in self.events.iter().enumerate() {
            match balance.push(event)? {
                DenseEvent::Request(_) => {
                    request_pos.push(pos);
                    // Overwritten by the response; a request left
                    // unanswered fails the check below.
                    response_pos.push(usize::MAX);
                }
                DenseEvent::Response(idx) => response_pos[idx as usize] = pos,
            }
        }
        if let Some(rid) = balance.first_unresponded() {
            return Err(BalanceError::RequestWithoutResponse(rid));
        }
        Ok(BalancedTrace {
            trace: self,
            interner: balance.interner,
            request_pos,
            response_pos,
        })
    }

    /// Total encoded size of the trace in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

impl Wire for Trace {
    fn encode(&self, enc: &mut Encoder) {
        self.events.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Trace {
            events: Vec::<Event>::decode(dec)?,
        })
    }
}

/// A trace that passed [`Trace::ensure_balanced`], with request/response
/// positions indexed densely by arrival rank.
///
/// It borrows the trace it validated and adds only the index: the
/// [`RidInterner`] built during the balance scan (one pass, one hash
/// table) and flat `dense index -> event position` arrays. No event is
/// copied, so balancing costs the same however long the payloads are.
///
/// The interner is behind an [`Arc`]: repeated audits of one
/// `BalancedTrace` (and the graph builds inside a single audit) share
/// the interned replay instead of re-walking the event stream.
#[derive(Debug, Clone)]
pub struct BalancedTrace<'t> {
    trace: &'t Trace,
    interner: Arc<RidInterner>,
    /// Dense index -> position of the REQUEST event in `trace.events`.
    request_pos: Vec<usize>,
    /// Dense index -> position of the RESPONSE event in `trace.events`.
    response_pos: Vec<usize>,
}

impl<'t> BalancedTrace<'t> {
    /// The underlying event list, in time order.
    pub fn events(&self) -> &'t [Event] {
        &self.trace.events
    }

    /// Number of request/response pairs.
    pub fn num_requests(&self) -> usize {
        self.request_pos.len()
    }

    /// Dense index of `rid`, if present (one hash lookup).
    fn dense(&self, rid: RequestId) -> Option<usize> {
        self.interner.index_of(rid).map(|idx| idx as usize)
    }

    /// Iterates all requestIDs in trace arrival order. The order is
    /// deterministic on purpose: the audit's output-comparison phase
    /// walks it, so the rid named by a `MissingOutput`/`OutputMismatch`
    /// rejection must not depend on hash-map iteration (the parallel
    /// audit's determinism suite compares those diagnostics across
    /// runs).
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.interner.rids().iter().copied()
    }

    /// True if `rid` appears in the trace.
    pub fn contains(&self, rid: RequestId) -> bool {
        self.dense(rid).is_some()
    }

    /// The request payload for `rid`.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is not in the trace; check [`Self::contains`] first.
    pub fn request(&self, rid: RequestId) -> &'t HttpRequest {
        let idx = self.dense(rid).expect("rid not in trace");
        match &self.trace.events[self.request_pos[idx]] {
            Event::Request(_, req) => req,
            Event::Response(..) => unreachable!("request_pos indexes request events"),
        }
    }

    /// The response payload for `rid`.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is not in the trace.
    pub fn response(&self, rid: RequestId) -> &'t HttpResponse {
        let idx = self.dense(rid).expect("rid not in trace");
        match &self.trace.events[self.response_pos[idx]] {
            Event::Response(_, resp) => resp,
            Event::Request(..) => unreachable!("response_pos indexes response events"),
        }
    }

    /// Event position of the REQUEST event for `rid`.
    pub fn request_position(&self, rid: RequestId) -> usize {
        self.request_pos[self.dense(rid).expect("rid not in trace")]
    }

    /// Event position of the RESPONSE event for `rid`.
    pub fn response_position(&self, rid: RequestId) -> usize {
        self.response_pos[self.dense(rid).expect("rid not in trace")]
    }

    /// The time-precedence relation from the trace: `r1 <Tr r2` iff the
    /// response of `r1` departed before the request of `r2` arrived (§3.5).
    pub fn precedes(&self, r1: RequestId, r2: RequestId) -> bool {
        match (self.dense(r1), self.dense(r2)) {
            (Some(i1), Some(i2)) => self.response_pos[i1] < self.request_pos[i2],
            _ => false,
        }
    }

    /// The raw trace.
    pub fn as_trace(&self) -> &'t Trace {
        self.trace
    }

    /// The dense interning of this trace's requestIDs, built once during
    /// the balance scan and shared by reference count.
    ///
    /// Everything downstream — the Fig. 6 frontier, the CSR graph build —
    /// works in index arithmetic over the dense ids and never hashes a
    /// [`RequestId`] again. See [`RidInterner`]. Repeated calls (callers
    /// may audit one trace many times) return a clone of the same
    /// [`Arc`] instead of re-walking the event stream.
    pub fn intern_rids(&self) -> Arc<RidInterner> {
        Arc::clone(&self.interner)
    }
}

/// One trace event with its requestID replaced by a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseEvent {
    /// A request arrived; its dense index equals its arrival rank, so
    /// `Request(k)` events appear in increasing `k` order.
    Request(u32),
    /// The response for the request with this dense index departed.
    Response(u32),
}

/// Dense interning of a balanced trace's requestIDs.
///
/// Index `k` names the `k`-th request *in arrival order*; the interner
/// keeps the forward table (`rid -> index`, the only hash map), the
/// reverse table (`index -> rid`, a flat array), and the event stream
/// re-expressed over the dense indices so consumers can replay the
/// trace without touching the original events (or a hash) again.
///
/// Built once per [`BalancedTrace`] (during the balance scan) and shared
/// by every phase that works in arrival order: the frontier algorithm
/// streams [`RidInterner::dense_events`], the CSR audit graph numbers its
/// nodes by dense index, and the audit engine keeps its per-request
/// output verdicts in flat arrays indexed by it.
#[derive(Debug, Clone, Default)]
pub struct RidInterner {
    /// Dense index -> requestID, in arrival order.
    rids: Vec<RequestId>,
    /// RequestID -> dense index: the one hash table, consulted only
    /// during interning-time resolution (and when a public API takes a
    /// `RequestId` from outside the dense world).
    index: HashMap<RequestId, u32>,
    /// The event stream over dense indices: `(index << 1) | is_response`.
    dense_events: Vec<u32>,
}

impl RidInterner {
    /// Rough resident size in bytes (flat arrays plus hash-table
    /// entries), for the streaming audit's carry accounting.
    pub fn estimated_bytes(&self) -> usize {
        self.rids.len() * (8 + 8 + 4 + 16) + self.dense_events.len() * 4
    }

    /// Number of interned requests (`X`).
    pub fn num_requests(&self) -> usize {
        self.rids.len()
    }

    /// True if the trace had no requests.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// The requestID at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rid(&self, idx: u32) -> RequestId {
        self.rids[idx as usize]
    }

    /// All requestIDs in arrival (= dense index) order.
    pub fn rids(&self) -> &[RequestId] {
        &self.rids
    }

    /// The dense index of `rid`, if the trace contains it (one hash
    /// lookup — the only operation that ever re-hashes a requestID).
    pub fn index_of(&self, rid: RequestId) -> Option<u32> {
        self.index.get(&rid).copied()
    }

    /// Replays the trace's events over dense indices, in trace order.
    pub fn dense_events(&self) -> impl Iterator<Item = DenseEvent> + '_ {
        self.dense_events.iter().map(|&packed| {
            if packed & 1 == 0 {
                DenseEvent::Request(packed >> 1)
            } else {
                DenseEvent::Response(packed >> 1)
            }
        })
    }
}

/// Incremental §3 balance validation over an *unbounded* event stream —
/// the one implementation of the balance checks. The audit engine
/// pushes events through it directly, and [`Trace::ensure_balanced`]
/// drives it over a resident trace, recording event positions as it
/// goes.
///
/// No event payload is retained: the validator grows only the
/// [`RidInterner`] (dense ids, forward/reverse tables, the dense event
/// stream) and one `responded` bit per request.
/// [`StreamingBalance::first_unresponded`] at end-of-stream names the
/// first unanswered request in *arrival* order, so the diagnostic is
/// deterministic.
///
/// The interner lives behind an [`Arc`] so the graph validation builds
/// over a complete stream can share it, but [`StreamingBalance::push`]
/// mutates it through [`Arc::get_mut`] — the caller must drop every
/// other strong reference before the next push, and `push` panics
/// otherwise.
#[derive(Debug)]
pub struct StreamingBalance {
    interner: Arc<RidInterner>,
    responded: Vec<bool>,
    events_seen: usize,
}

impl Default for StreamingBalance {
    fn default() -> Self {
        Self::new()
    }
}

/// The interner, which ingest mutates in place (see the type docs).
fn exclusive(interner: &mut Arc<RidInterner>) -> &mut RidInterner {
    Arc::get_mut(interner).expect("streaming interner must be exclusively held during ingest")
}

impl StreamingBalance {
    /// Creates a validator with an empty interner.
    pub fn new() -> Self {
        StreamingBalance {
            interner: Arc::default(),
            responded: Vec::new(),
            events_seen: 0,
        }
    }

    /// Feeds the next event, returning its dense form or the first
    /// balance violation. After an `Err` the trace is rejected; the
    /// stream must not be pushed further.
    ///
    /// # Panics
    ///
    /// Panics if the interner [`Arc`] is not exclusively held (see the
    /// type docs).
    pub fn push(&mut self, event: &Event) -> Result<DenseEvent, BalanceError> {
        match event {
            Event::Request(rid, _) => self.push_request(*rid).map(DenseEvent::Request),
            Event::Response(rid, resp) => self
                .push_response(*rid, resp.rid_label)
                .map(DenseEvent::Response),
        }
    }

    /// [`StreamingBalance::push`] for a REQUEST event, which the scan
    /// knows by its requestID alone. Returns the new dense index.
    pub fn push_request(&mut self, rid: RequestId) -> Result<u32, BalanceError> {
        let interner = exclusive(&mut self.interner);
        self.events_seen += 1;
        let idx = interner.rids.len() as u32;
        match interner.index.entry(rid) {
            Entry::Occupied(_) => return Err(BalanceError::DuplicateRequestId(rid)),
            Entry::Vacant(slot) => {
                slot.insert(idx);
            }
        }
        interner.rids.push(rid);
        interner.dense_events.push(idx << 1);
        self.responded.push(false);
        Ok(idx)
    }

    /// [`StreamingBalance::push`] for a RESPONSE event, which the scan
    /// knows by its requestID and the label the executor put on it.
    /// Returns the dense index of the request it answers.
    pub fn push_response(&mut self, rid: RequestId, label: RequestId) -> Result<u32, BalanceError> {
        let interner = exclusive(&mut self.interner);
        self.events_seen += 1;
        let Some(&idx) = interner.index.get(&rid) else {
            return Err(BalanceError::ResponseWithoutRequest(rid));
        };
        if self.responded[idx as usize] {
            return Err(BalanceError::DuplicateResponse(rid));
        }
        if label != rid {
            return Err(BalanceError::MislabeledResponse {
                expected: rid,
                got: label,
            });
        }
        self.responded[idx as usize] = true;
        interner.dense_events.push((idx << 1) | 1);
        Ok(idx)
    }

    /// Events pushed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Requests interned so far.
    pub fn num_requests(&self) -> usize {
        self.interner.num_requests()
    }

    /// The canonical interner. Clones handed out must be dropped or
    /// swapped away before the next [`StreamingBalance::push`].
    pub fn interner(&self) -> &Arc<RidInterner> {
        &self.interner
    }

    /// Whether the request at dense index `idx` has its response.
    pub fn responded(&self, idx: u32) -> bool {
        self.responded[idx as usize]
    }

    /// At end-of-stream: the first request in arrival order without a
    /// response — the exact [`BalanceError::RequestWithoutResponse`]
    /// diagnostic the batch balance check reports.
    pub fn first_unresponded(&self) -> Option<RequestId> {
        self.responded
            .iter()
            .position(|&r| !r)
            .map(|k| self.interner.rids[k])
    }

    /// Rough resident size of the validator state in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.interner.estimated_bytes() + self.responded.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rid: u64) -> Event {
        Event::Request(RequestId(rid), HttpRequest::get("/x.php", &[]))
    }

    fn resp(rid: u64) -> Event {
        Event::Response(RequestId(rid), HttpResponse::ok(RequestId(rid), "ok"))
    }

    #[test]
    fn accepts_sequential_trace() {
        let t = Trace {
            events: vec![req(1), resp(1), req(2), resp(2)],
        };
        let b = t.ensure_balanced().unwrap();
        assert_eq!(b.num_requests(), 2);
        assert!(b.precedes(RequestId(1), RequestId(2)));
        assert!(!b.precedes(RequestId(2), RequestId(1)));
    }

    #[test]
    fn accepts_concurrent_trace() {
        let t = Trace {
            events: vec![req(1), req(2), resp(2), resp(1)],
        };
        let b = t.ensure_balanced().unwrap();
        // Concurrent requests precede in neither direction.
        assert!(!b.precedes(RequestId(1), RequestId(2)));
        assert!(!b.precedes(RequestId(2), RequestId(1)));
    }

    #[test]
    fn rejects_duplicate_request_id() {
        let t = Trace {
            events: vec![req(1), req(1)],
        };
        assert_eq!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::DuplicateRequestId(RequestId(1))
        );
    }

    #[test]
    fn rejects_response_before_request() {
        let t = Trace {
            events: vec![resp(1), req(1)],
        };
        assert_eq!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::ResponseWithoutRequest(RequestId(1))
        );
    }

    #[test]
    fn rejects_double_response() {
        let t = Trace {
            events: vec![req(1), resp(1), resp(1)],
        };
        assert_eq!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::DuplicateResponse(RequestId(1))
        );
    }

    #[test]
    fn rejects_missing_response() {
        let t = Trace {
            events: vec![req(1), req(2), resp(1)],
        };
        assert_eq!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::RequestWithoutResponse(RequestId(2))
        );
    }

    #[test]
    fn rejects_mislabeled_response() {
        let t = Trace {
            events: vec![
                req(1),
                Event::Response(RequestId(1), HttpResponse::ok(RequestId(9), "ok")),
            ],
        };
        assert!(matches!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::MislabeledResponse { .. }
        ));
    }

    #[test]
    fn ensure_balanced_reports_balance_errors() {
        let rid = RequestId(1);
        let t = Trace {
            events: vec![Event::Response(rid, HttpResponse::ok(rid, "x"))],
        };
        assert_eq!(
            t.ensure_balanced().unwrap_err(),
            BalanceError::ResponseWithoutRequest(rid)
        );
    }

    #[test]
    fn empty_trace_is_balanced() {
        let t = Trace::new();
        assert_eq!(t.ensure_balanced().unwrap().num_requests(), 0);
    }

    #[test]
    fn trace_wire_roundtrip() {
        let t = Trace {
            events: vec![req(1), req(2), resp(2), resp(1)],
        };
        let bytes = t.to_wire_bytes();
        assert_eq!(Trace::from_wire_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn interner_is_arrival_ordered() {
        // Arrival order r5, r2, r9 — dense indices follow arrivals, not
        // the numeric rid order.
        let t = Trace {
            events: vec![req(5), req(2), resp(2), req(9), resp(5), resp(9)],
        };
        let interner = t.ensure_balanced().unwrap().intern_rids();
        assert_eq!(interner.num_requests(), 3);
        assert_eq!(interner.rids(), &[RequestId(5), RequestId(2), RequestId(9)]);
        assert_eq!(interner.index_of(RequestId(2)), Some(1));
        assert_eq!(interner.index_of(RequestId(7)), None);
        assert_eq!(interner.rid(2), RequestId(9));
        let events: Vec<DenseEvent> = interner.dense_events().collect();
        assert_eq!(
            events,
            vec![
                DenseEvent::Request(0),
                DenseEvent::Request(1),
                DenseEvent::Response(1),
                DenseEvent::Request(2),
                DenseEvent::Response(0),
                DenseEvent::Response(2),
            ]
        );
    }

    #[test]
    fn interner_of_empty_trace() {
        let interner = Trace::new().ensure_balanced().unwrap().intern_rids();
        assert!(interner.is_empty());
        assert_eq!(interner.dense_events().count(), 0);
    }

    #[test]
    fn lookup_by_rid() {
        let t = Trace {
            events: vec![req(5), resp(5)],
        };
        let b = t.ensure_balanced().unwrap();
        assert_eq!(b.request(RequestId(5)).path, "/x.php");
        assert_eq!(b.response(RequestId(5)).body, "ok");
        assert_eq!(b.request_position(RequestId(5)), 0);
        assert_eq!(b.response_position(RequestId(5)), 1);
    }

    /// Feeds a trace through [`StreamingBalance`] the way the streaming
    /// audit does and reports the batch-shaped verdict.
    fn streaming_verdict(t: &Trace) -> Result<Vec<DenseEvent>, BalanceError> {
        let mut sb = StreamingBalance::new();
        let mut dense = Vec::new();
        for event in &t.events {
            dense.push(sb.push(event)?);
        }
        if let Some(rid) = sb.first_unresponded() {
            return Err(BalanceError::RequestWithoutResponse(rid));
        }
        Ok(dense)
    }

    #[test]
    fn streaming_balance_matches_batch_on_all_error_shapes() {
        let cases: Vec<Trace> = vec![
            Trace {
                events: vec![req(1), resp(1), req(2), resp(2)],
            },
            Trace {
                events: vec![req(1), req(2), resp(2), resp(1)],
            },
            Trace {
                events: vec![req(1), req(1)],
            },
            Trace {
                events: vec![resp(1), req(1)],
            },
            Trace {
                events: vec![req(1), resp(1), resp(1)],
            },
            Trace {
                events: vec![req(1), req(2), resp(1)],
            },
            Trace {
                events: vec![
                    req(1),
                    Event::Response(RequestId(1), HttpResponse::ok(RequestId(9), "ok")),
                ],
            },
            Trace::new(),
        ];
        for t in &cases {
            match (t.ensure_balanced(), streaming_verdict(t)) {
                (Ok(b), Ok(dense)) => {
                    assert_eq!(b.intern_rids().dense_events().collect::<Vec<_>>(), dense);
                }
                (Err(batch), Err(streamed)) => assert_eq!(batch, streamed),
                (batch, streamed) => panic!("verdicts diverge: {batch:?} vs {streamed:?}"),
            }
        }
    }

    #[test]
    fn streaming_balance_interner_grows_in_place() {
        let mut sb = StreamingBalance::new();
        sb.push(&req(5)).unwrap();
        sb.push(&req(2)).unwrap();
        sb.push(&resp(2)).unwrap();
        assert_eq!(sb.num_requests(), 2);
        assert_eq!(sb.events_seen(), 3);
        assert!(sb.responded(1));
        assert!(!sb.responded(0));
        assert_eq!(sb.first_unresponded(), Some(RequestId(5)));
        let interner = Arc::clone(sb.interner());
        assert_eq!(interner.index_of(RequestId(5)), Some(0));
        drop(interner); // Restore exclusivity before the next push.
        sb.push(&resp(5)).unwrap();
        assert_eq!(sb.first_unresponded(), None);
        assert!(sb.estimated_bytes() > 0);
    }
}
