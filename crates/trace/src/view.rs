//! The borrowed event shape: what a [`crate::TraceSource`] lends.
//!
//! An owned [`Event`] holds a `String` per field. The audit needs far
//! less: the balance scan reads `(kind, rid, label)`, a planned request
//! is materialised exactly once (executors take owned requests), and a
//! traced response is only ever *compared*. [`EventRef`] is that view —
//! a handle whose accessors give `&str`s and pair iterators — over
//! either of the two places a trace lives: a resident `&[Event]`, or
//! the decompressed payload of a sealed segment
//! ([`crate::segment::SegmentView`]), where every string is a slice of
//! the one payload buffer and nothing is copied until a consumer asks
//! for an owned value.
//!
//! [`Epoch`] is a run of consecutive events in that shape, borrowed for
//! as long as the source's sink runs.

use crate::event::{HttpRequest, HttpResponse};
use crate::record::Event;
use crate::segment::{
    LanePairs, LanePairsIter, LaneRequest, LaneResponse, SegmentEvents, SegmentView,
};
use orochi_common::ids::RequestId;
use std::slice;

/// A borrowed `(key, value)` list: a resident event's own pairs, or a
/// run of dictionary indices in a segment lane.
#[derive(Debug, Clone, Copy)]
pub enum Pairs<'a> {
    /// The pairs of an owned request or response.
    Slice(&'a [(String, String)]),
    /// Pairs resolved through a segment's string dictionary.
    Lane(LanePairs<'a>),
}

impl<'a> Pairs<'a> {
    /// The pairs in order.
    pub fn iter(&self) -> PairsIter<'a> {
        match self {
            Pairs::Slice(pairs) => PairsIter::Slice(pairs.iter()),
            Pairs::Lane(lane) => PairsIter::Lane(lane.iter()),
        }
    }

    /// Copies the pairs out.
    pub fn to_owned(&self) -> Vec<(String, String)> {
        self.iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    }
}

/// Order-sensitive equality with an owned pair list.
impl PartialEq<[(String, String)]> for Pairs<'_> {
    fn eq(&self, other: &[(String, String)]) -> bool {
        match self {
            Pairs::Slice(pairs) => *pairs == other,
            Pairs::Lane(lane) => lane.eq_owned(other),
        }
    }
}

/// Iterator over a [`Pairs`].
#[derive(Debug)]
pub enum PairsIter<'a> {
    /// Over an owned pair list.
    Slice(slice::Iter<'a, (String, String)>),
    /// Over a segment lane.
    Lane(LanePairsIter<'a>),
}

impl<'a> Iterator for PairsIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            PairsIter::Slice(iter) => iter.next().map(|(k, v)| (k.as_str(), v.as_str())),
            PairsIter::Lane(iter) => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PairsIter::Slice(iter) => iter.size_hint(),
            PairsIter::Lane(iter) => iter.size_hint(),
        }
    }
}

impl ExactSizeIterator for PairsIter<'_> {}

/// A borrowed [`HttpRequest`]: a handle the size of a few words whose
/// accessors resolve `&str`s and pair iterators on demand.
#[derive(Debug, Clone, Copy)]
pub enum RequestRef<'a> {
    /// A resident request.
    Owned(&'a HttpRequest),
    /// A request inside a parsed segment.
    Lane(LaneRequest<'a>),
}

impl<'a> RequestRef<'a> {
    /// HTTP method.
    pub fn method(&self) -> &'a str {
        match self {
            RequestRef::Owned(req) => &req.method,
            RequestRef::Lane(req) => req.method(),
        }
    }

    /// Script path.
    pub fn path(&self) -> &'a str {
        match self {
            RequestRef::Owned(req) => &req.path,
            RequestRef::Lane(req) => req.path(),
        }
    }

    /// Query-string parameters.
    pub fn query(&self) -> Pairs<'a> {
        match self {
            RequestRef::Owned(req) => Pairs::Slice(&req.query),
            RequestRef::Lane(req) => Pairs::Lane(req.pairs(0)),
        }
    }

    /// Form parameters.
    pub fn post(&self) -> Pairs<'a> {
        match self {
            RequestRef::Owned(req) => Pairs::Slice(&req.post),
            RequestRef::Lane(req) => Pairs::Lane(req.pairs(1)),
        }
    }

    /// Cookies.
    pub fn cookies(&self) -> Pairs<'a> {
        match self {
            RequestRef::Owned(req) => Pairs::Slice(&req.cookies),
            RequestRef::Lane(req) => Pairs::Lane(req.pairs(2)),
        }
    }

    /// Materialises the request: the one copy of its bytes the audit
    /// makes, for the executor that will re-run it.
    pub fn to_owned(&self) -> HttpRequest {
        HttpRequest {
            method: self.method().to_owned(),
            path: self.path().to_owned(),
            query: self.query().to_owned(),
            post: self.post().to_owned(),
            cookies: self.cookies().to_owned(),
        }
    }
}

impl<'a> From<&'a HttpRequest> for RequestRef<'a> {
    fn from(req: &'a HttpRequest) -> Self {
        RequestRef::Owned(req)
    }
}

/// A borrowed [`HttpResponse`]; see [`RequestRef`].
#[derive(Debug, Clone, Copy)]
pub enum ResponseRef<'a> {
    /// A resident response.
    Owned(&'a HttpResponse),
    /// A response inside a parsed segment.
    Lane(LaneResponse<'a>),
}

impl<'a> ResponseRef<'a> {
    /// The requestID label the executor placed on the response.
    pub fn rid_label(&self) -> RequestId {
        match self {
            ResponseRef::Owned(resp) => resp.rid_label,
            ResponseRef::Lane(resp) => resp.rid_label,
        }
    }

    /// HTTP status code.
    pub fn status(&self) -> u16 {
        match self {
            ResponseRef::Owned(resp) => resp.status,
            ResponseRef::Lane(resp) => resp.status,
        }
    }

    /// Response headers.
    pub fn headers(&self) -> Pairs<'a> {
        match self {
            ResponseRef::Owned(resp) => Pairs::Slice(&resp.headers),
            ResponseRef::Lane(resp) => Pairs::Lane(resp.headers()),
        }
    }

    /// Response body.
    pub fn body(&self) -> &'a str {
        match self {
            ResponseRef::Owned(resp) => &resp.body,
            ResponseRef::Lane(resp) => resp.body(),
        }
    }

    /// The body's bytes; for a segment, as stored — no UTF-8 re-check.
    /// Equal bodies within one segment are one dictionary string, so
    /// they are the same slice.
    pub fn body_bytes(&self) -> &'a [u8] {
        match self {
            ResponseRef::Owned(resp) => resp.body.as_bytes(),
            ResponseRef::Lane(resp) => resp.body_bytes(),
        }
    }

    /// Copies the response out.
    pub fn to_owned(&self) -> HttpResponse {
        HttpResponse {
            rid_label: self.rid_label(),
            status: self.status(),
            headers: self.headers().to_owned(),
            body: self.body().to_owned(),
        }
    }
}

impl<'a> From<&'a HttpResponse> for ResponseRef<'a> {
    fn from(resp: &'a HttpResponse) -> Self {
        ResponseRef::Owned(resp)
    }
}

/// The audit's output comparison, in place: agrees with
/// [`HttpResponse`]'s own `==` on the materialised response, field by
/// field, without materialising it.
impl PartialEq<HttpResponse> for ResponseRef<'_> {
    fn eq(&self, other: &HttpResponse) -> bool {
        self.rid_label() == other.rid_label
            && self.status() == other.status
            && self.body_bytes() == other.body.as_bytes()
            && self.headers() == other.headers[..]
    }
}

/// A borrowed [`Event`].
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// A request arrived.
    Request(RequestId, RequestRef<'a>),
    /// A response departed.
    Response(RequestId, ResponseRef<'a>),
}

impl EventRef<'_> {
    /// The requestID this event belongs to.
    pub fn rid(&self) -> RequestId {
        match self {
            EventRef::Request(rid, _) | EventRef::Response(rid, _) => *rid,
        }
    }

    /// Copies the event out.
    pub fn to_owned(&self) -> Event {
        match self {
            EventRef::Request(rid, req) => Event::Request(*rid, req.to_owned()),
            EventRef::Response(rid, resp) => Event::Response(*rid, resp.to_owned()),
        }
    }
}

impl<'a> From<&'a Event> for EventRef<'a> {
    fn from(event: &'a Event) -> Self {
        match event {
            Event::Request(rid, req) => EventRef::Request(*rid, req.into()),
            Event::Response(rid, resp) => EventRef::Response(*rid, resp.into()),
        }
    }
}

/// A run of consecutive trace events lent by a
/// [`crate::TraceSource`]: a slice of resident events, or a window over
/// parsed segments. Either way [`Epoch::iter`] yields the one borrowed
/// shape, and what it yields stays valid for `'a` — across the whole of
/// the sink call the epoch was lent to, not just one iteration step.
#[derive(Debug, Clone, Copy)]
pub struct Epoch<'a>(Run<'a>);

#[derive(Debug, Clone, Copy)]
enum Run<'a> {
    Events(&'a [Event]),
    /// `len` events starting `skip` events into `views[0]`.
    Segments {
        views: &'a [SegmentView],
        skip: usize,
        len: usize,
    },
}

impl<'a> Epoch<'a> {
    /// The window of `len` events that starts `skip` events into the
    /// first of `views` and runs on through the following ones.
    pub(crate) fn segments(views: &'a [SegmentView], skip: usize, len: usize) -> Self {
        Epoch(Run::Segments { views, skip, len })
    }

    /// Number of events in the epoch.
    pub fn len(&self) -> usize {
        match self.0 {
            Run::Events(events) => events.len(),
            Run::Segments { len, .. } => len,
        }
    }

    /// True for an epoch of no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The events in trace order.
    pub fn iter(&self) -> EpochIter<'a> {
        EpochIter(match self.0 {
            Run::Events(events) => Walk::Events(events.iter()),
            Run::Segments { views, skip, len } => {
                let mut rest = views.iter();
                Walk::Segments {
                    current: rest.next().map(|first| first.events_from(skip)),
                    rest,
                    left: len,
                }
            }
        })
    }
}

impl<'a> From<&'a [Event]> for Epoch<'a> {
    fn from(events: &'a [Event]) -> Self {
        Epoch(Run::Events(events))
    }
}

/// Iterator over an [`Epoch`].
#[derive(Debug)]
pub struct EpochIter<'a>(Walk<'a>);

// One short-lived value per epoch walk: the segment cursor's ten lane
// positions are its size, and boxing them would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Walk<'a> {
    Events(slice::Iter<'a, Event>),
    /// `left` more events: the rest of `current`, then `rest` in order.
    Segments {
        current: Option<SegmentEvents<'a>>,
        rest: slice::Iter<'a, SegmentView>,
        left: usize,
    },
}

impl<'a> Iterator for EpochIter<'a> {
    type Item = EventRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Walk::Events(events) => events.next().map(EventRef::from),
            Walk::Segments {
                current,
                rest,
                left,
            } => {
                *left = left.checked_sub(1)?;
                loop {
                    if let Some(event) = current.as_mut()?.next() {
                        return Some(event);
                    }
                    *current = rest.next().map(SegmentView::events);
                }
            }
        }
    }
}
