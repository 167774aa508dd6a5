//! The sealed-segment binary codec: a bounded run of trace events as
//! one integrity-checked byte blob.
//!
//! # Layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic "OTS1" (4 bytes) | version u8 = 2                      |
//! | event_count varint | checksum varint (FNV-1a 64)             |
//! | compressed length varint | LZ-compressed payload bytes ...   |
//! +--------------------------------------------------------------+
//! payload (LZ-compressed as one unit, see [`crate::lz`]; the
//! checksum covers the compressed bytes as they sit on disk) :=
//!   string dictionary   varint n, then n length-prefixed strings
//!   rid dictionary      varint n, first rid varint, then zigzag deltas
//!   kinds lane          packed bits, 1 = response (length-prefixed)
//!   rid lane            per event: varint index into rid dictionary
//!   method lane         per request: varint string-dictionary index
//!   path lane           per request: varint string-dictionary index
//!   query lane          per request: varint npairs + (k idx, v idx)*
//!   post lane           per request: same shape
//!   cookie lane         per request: same shape
//!   label lane          per response: varint 0 = label matches rid,
//!                       else varint 1 + raw label varint
//!   status lane         per response: varint status
//!   header lane         per response: varint npairs + (k idx, v idx)*
//!   body lane           per response: varint string-dictionary index
//! ```
//!
//! Every string — method, path, query/post/cookie/header keys and
//! values, bodies — goes through one per-segment dictionary, so the
//! heavy repetition in real workloads (a handful of script paths,
//! templated bodies, recurring session cookies) is stored once per
//! segment. RequestIDs are dictionary-coded the same way, with the
//! dictionary itself delta-encoded (collector tickets make rids
//! near-ascending). The lanes are columnar: same-shaped values sit
//! adjacently, which keeps the varints short and the layout
//! self-describing. The assembled payload is then LZ-compressed as a
//! whole: the dictionary only dedups *exact* repeats, while templated
//! bodies are unique-but-similar — the LZ pass turns that cross-body
//! redundancy into back-references.
//!
//! Integrity: the header carries the event count and an FNV-1a 64
//! checksum over the *compressed* payload — the bytes on disk — so a
//! damaged file is rejected before anything is decompressed, and the
//! byte-serial hash reads 5–30× fewer bytes than the payload holds.
//! (Version 1 hashed the decompressed payload; it is rejected as
//! unsupported.)
//! [`SegmentView::parse`] rejects — with stable diagnostics — bad
//! magic, unsupported versions, truncated payloads, checksum
//! mismatches, event-count mismatches, and any lane that under- or
//! over-runs its extent. A compressed stream that passes the checksum
//! yet fails to decompress reports the same stable diagnostic,
//! `segment checksum mismatch`.
//!
//! # Reading: one parser, one projection
//!
//! [`SegmentView::parse`] is the only decoder. It decompresses the
//! payload into one buffer and keeps everything else as offsets into
//! it: the dictionary as UTF-8-checked `(offset, len)` spans, the kinds
//! bits and the ten lanes as byte ranges. It then walks every lane once
//! so that each index is known to be in range and each lane to end
//! exactly where its events do; after that, walking the view cannot
//! fail. [`SegmentView::events`] lends each event as an
//! [`EventRef`] whose strings are slices of the payload buffer — valid
//! for as long as the view is borrowed.

use crate::record::Event;
use crate::source::TraceStoreError;
use crate::view::{EventRef, RequestRef, ResponseRef};
use orochi_common::codec::{Decoder, Encoder, WireError};
use orochi_common::hash::fnv1a;
use orochi_common::ids::RequestId;
use std::collections::HashMap;

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"OTS1";
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 2;
/// The longest a header can be: magic, version, three 10-byte varints.
pub const MAX_HEADER_LEN: usize = 4 + 1 + 3 * 10;

/// Writer-side string dictionary: first-use interning to dense indices.
#[derive(Default)]
struct Dict {
    index: HashMap<String, u64>,
    strings: Vec<String>,
}

impl Dict {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&idx) = self.index.get(s) {
            return idx;
        }
        let idx = self.strings.len() as u64;
        self.index.insert(s.to_string(), idx);
        self.strings.push(s.to_string());
        idx
    }
}

fn encode_pairs(lane: &mut Encoder, dict: &mut Dict, pairs: &[(String, String)]) {
    lane.u64(pairs.len() as u64);
    for (k, v) in pairs {
        let k = dict.intern(k);
        let v = dict.intern(v);
        lane.u64(k);
        lane.u64(v);
    }
}

/// Encodes `events` into one sealed segment blob.
pub fn encode_segment(events: &[Event]) -> Vec<u8> {
    seal_payload(events.len(), &encode_payload(events))
}

/// Assembles the uncompressed payload: dictionaries, kinds, lanes.
fn encode_payload(events: &[Event]) -> Vec<u8> {
    let mut dict = Dict::default();
    let mut rid_index: HashMap<RequestId, u64> = HashMap::new();
    let mut rid_dict: Vec<RequestId> = Vec::new();

    let mut kinds = vec![0u8; events.len().div_ceil(8)];
    let mut rid_lane = Encoder::new();
    let mut method_lane = Encoder::new();
    let mut path_lane = Encoder::new();
    let mut query_lane = Encoder::new();
    let mut post_lane = Encoder::new();
    let mut cookie_lane = Encoder::new();
    let mut label_lane = Encoder::new();
    let mut status_lane = Encoder::new();
    let mut header_lane = Encoder::new();
    let mut body_lane = Encoder::new();

    for (i, event) in events.iter().enumerate() {
        let rid = event.rid();
        let rid_idx = *rid_index.entry(rid).or_insert_with(|| {
            rid_dict.push(rid);
            rid_dict.len() as u64 - 1
        });
        rid_lane.u64(rid_idx);
        match event {
            Event::Request(_, req) => {
                method_lane.u64(dict.intern(&req.method));
                path_lane.u64(dict.intern(&req.path));
                encode_pairs(&mut query_lane, &mut dict, &req.query);
                encode_pairs(&mut post_lane, &mut dict, &req.post);
                encode_pairs(&mut cookie_lane, &mut dict, &req.cookies);
            }
            Event::Response(_, resp) => {
                kinds[i / 8] |= 1 << (i % 8);
                if resp.rid_label == rid {
                    label_lane.u64(0);
                } else {
                    label_lane.u64(1);
                    label_lane.u64(resp.rid_label.0);
                }
                status_lane.u64(resp.status as u64);
                encode_pairs(&mut header_lane, &mut dict, &resp.headers);
                body_lane.u64(dict.intern(&resp.body));
            }
        }
    }

    let mut payload = Encoder::new();
    payload.u64(dict.strings.len() as u64);
    for s in &dict.strings {
        payload.str(s);
    }
    payload.u64(rid_dict.len() as u64);
    let mut prev = 0u64;
    for (k, rid) in rid_dict.iter().enumerate() {
        if k == 0 {
            payload.u64(rid.0);
        } else {
            payload.i64(rid.0.wrapping_sub(prev) as i64);
        }
        prev = rid.0;
    }
    payload.bytes(&kinds);
    for lane in [
        rid_lane,
        method_lane,
        path_lane,
        query_lane,
        post_lane,
        cookie_lane,
        label_lane,
        status_lane,
        header_lane,
        body_lane,
    ] {
        payload.bytes(&lane.into_bytes());
    }
    payload.into_bytes()
}

/// Frames an assembled payload: compresses it and writes the header
/// over the compressed bytes.
fn seal_payload(event_count: usize, payload: &[u8]) -> Vec<u8> {
    let packed = crate::lz::compress(payload);
    let mut out = Encoder::new();
    for b in SEGMENT_MAGIC {
        out.byte(b);
    }
    out.byte(SEGMENT_VERSION);
    out.u64(event_count as u64);
    out.u64(fnv1a(&packed));
    out.bytes(&packed);
    out.into_bytes()
}

/// The parsed header of a segment blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version.
    pub version: u8,
    /// Number of events the payload holds.
    pub event_count: u64,
    /// FNV-1a 64 checksum of the compressed payload bytes.
    pub checksum: u64,
    /// Compressed payload length in bytes.
    pub payload_len: u64,
    /// Length of the header itself: the payload starts here.
    pub header_len: usize,
}

fn corrupt(path: &str, detail: impl Into<String>) -> TraceStoreError {
    TraceStoreError::corrupt(path, detail)
}

fn wire_detail(path: &str, e: WireError) -> TraceStoreError {
    match e {
        WireError::UnexpectedEof => corrupt(path, "segment truncated"),
        other => corrupt(path, format!("{other}")),
    }
}

/// Parses and validates the header of `bytes` (magic, version, counts)
/// without touching the payload; the first [`MAX_HEADER_LEN`] bytes of
/// a segment are always enough. `path` labels diagnostics.
pub fn read_header(bytes: &[u8], path: &str) -> Result<SegmentHeader, TraceStoreError> {
    let mut dec = Decoder::new(bytes);
    let mut magic = [0u8; 4];
    for slot in &mut magic {
        *slot = dec.byte().map_err(|e| wire_detail(path, e))?;
    }
    if magic != SEGMENT_MAGIC {
        return Err(corrupt(path, "bad segment magic"));
    }
    let version = dec.byte().map_err(|e| wire_detail(path, e))?;
    if version != SEGMENT_VERSION {
        return Err(corrupt(
            path,
            format!("unsupported segment version {version}"),
        ));
    }
    let event_count = dec.u64().map_err(|e| wire_detail(path, e))?;
    let checksum = dec.u64().map_err(|e| wire_detail(path, e))?;
    let payload_len = dec.u64().map_err(|e| wire_detail(path, e))?;
    Ok(SegmentHeader {
        version,
        event_count,
        checksum,
        payload_len,
        header_len: dec.position(),
    })
}

// The ten event lanes, in payload order.
const RID: usize = 0;
const METHOD: usize = 1;
const PATH: usize = 2;
const QUERY: usize = 3;
const POST: usize = 4;
const COOKIE: usize = 5;
const LABEL: usize = 6;
const STATUS: usize = 7;
const HEADER: usize = 8;
const BODY: usize = 9;

/// A byte range of the payload buffer. Payloads are capped at 2 GiB by
/// [`crate::lz`], so offsets fit `u32`.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

impl Span {
    /// The span of `slice`, which `dec` has just finished reading.
    fn just_read(dec: &Decoder<'_>, slice: &[u8]) -> Span {
        Span {
            at: (dec.position() - slice.len()) as u32,
            len: slice.len() as u32,
        }
    }

    fn of<'a>(&self, payload: &'a [u8]) -> &'a [u8] {
        &payload[self.at as usize..(self.at + self.len) as usize]
    }
}

/// Why a lane walk stopped: a codec error or a stable diagnostic.
enum Fault {
    Wire(WireError),
    Corrupt(&'static str),
}

impl From<WireError> for Fault {
    fn from(e: WireError) -> Self {
        Fault::Wire(e)
    }
}

/// A parsed, fully validated segment: the decompressed payload plus
/// offsets into it. See the module docs for what is borrowed and what
/// is checked.
#[derive(Debug)]
pub struct SegmentView {
    payload: Vec<u8>,
    /// The string dictionary; every span was UTF-8-checked by `parse`.
    dict: Vec<Span>,
    rids: Vec<RequestId>,
    /// Packed kind bits, 1 = response.
    kinds: Span,
    lanes: [Span; 10],
    event_count: usize,
    /// Bytes of each lane consumed before event `k * CHECKPOINT_EVERY`,
    /// recorded by the validation walk so that a walk can start
    /// mid-segment ([`SegmentView::events_from`]) without decoding the
    /// events before it.
    checkpoints: Vec<[u32; 10]>,
}

/// Events between two lane-position checkpoints: what a mid-segment
/// start decodes and discards at most, for 40 bytes per this many events.
const CHECKPOINT_EVERY: usize = 64;

impl SegmentView {
    /// Parses a sealed segment: verifies the header and the checksum
    /// of the bytes as stored, decompresses, and validates the whole
    /// payload. `path` labels diagnostics.
    pub fn parse(bytes: &[u8], path: &str) -> Result<SegmentView, TraceStoreError> {
        let header = read_header(bytes, path)?;
        let packed = &bytes[header.header_len..];
        if (packed.len() as u64) < header.payload_len {
            return Err(corrupt(path, "segment truncated"));
        }
        if packed.len() as u64 > header.payload_len {
            return Err(corrupt(path, "trailing bytes after payload"));
        }
        if fnv1a(packed) != header.checksum {
            return Err(corrupt(path, "segment checksum mismatch"));
        }
        // The checksum is not a MAC: a stream that passes it can still
        // be structurally invalid, and reports the same diagnostic.
        let payload = crate::lz::decompress(packed)
            .map_err(|_| corrupt(path, "segment checksum mismatch"))?;
        let event_count = usize::try_from(header.event_count)
            .map_err(|_| corrupt(path, "kinds lane length disagrees with event count"))?;

        let wire = |e| wire_detail(path, e);
        let mut p = Decoder::new(&payload);
        let n_strings = p.u64().map_err(wire)? as usize;
        if n_strings > p.remaining() {
            return Err(corrupt(path, "string dictionary count exceeds payload"));
        }
        let mut dict = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            let s = p.str_ref().map_err(wire)?;
            dict.push(Span::just_read(&p, s.as_bytes()));
        }
        let n_rids = p.u64().map_err(wire)? as usize;
        if n_rids > p.remaining() {
            return Err(corrupt(path, "rid dictionary count exceeds payload"));
        }
        let mut rids: Vec<RequestId> = Vec::with_capacity(n_rids);
        let mut prev = 0u64;
        for k in 0..n_rids {
            let rid = if k == 0 {
                p.u64().map_err(wire)?
            } else {
                let delta = p.i64().map_err(wire)?;
                prev.wrapping_add(delta as u64)
            };
            rids.push(RequestId(rid));
            prev = rid;
        }
        let kinds = p.bytes_ref().map_err(wire)?;
        if kinds.len() != event_count.div_ceil(8) {
            return Err(corrupt(
                path,
                "kinds lane length disagrees with event count",
            ));
        }
        let kinds = Span::just_read(&p, kinds);
        let mut lanes = [Span { at: 0, len: 0 }; 10];
        for lane in &mut lanes {
            let bytes = p.bytes_ref().map_err(wire)?;
            *lane = Span::just_read(&p, bytes);
        }
        if !p.is_done() {
            return Err(corrupt(path, "trailing bytes after lanes"));
        }

        let mut view = SegmentView {
            payload,
            dict,
            rids,
            kinds,
            lanes,
            event_count,
            checkpoints: Vec::new(),
        };
        view.checkpoints = view.validate().map_err(|fault| match fault {
            Fault::Wire(e) => wire_detail(path, e),
            Fault::Corrupt(detail) => corrupt(path, detail),
        })?;
        Ok(view)
    }

    /// Walks every lane once: after this, [`SegmentEvents`] and
    /// [`LanePairsIter`] cannot hit an out-of-range index or a short
    /// lane. Yields the lane positions at every `CHECKPOINT_EVERY`-th
    /// event.
    fn validate(&self) -> Result<Vec<[u32; 10]>, Fault> {
        let mut checkpoints = Vec::with_capacity(self.event_count.div_ceil(CHECKPOINT_EVERY));
        let mut walk = self.cursor(0, [0; 10]);
        for i in 0..self.event_count {
            if i % CHECKPOINT_EVERY == 0 {
                checkpoints.push(std::array::from_fn(|lane| walk.consumed(lane)));
            }
            walk.step()?;
        }
        match walk.lanes.iter().position(|lane| !lane.is_done()) {
            None => Ok(checkpoints),
            Some(k) => Err(Fault::Corrupt(LANE_NOT_CONSUMED[k])),
        }
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.event_count
    }

    /// True for a segment of no events.
    pub fn is_empty(&self) -> bool {
        self.event_count == 0
    }

    /// The events in trace order, borrowed from this view.
    pub fn events(&self) -> SegmentEvents<'_> {
        self.events_from(0)
    }

    /// [`SegmentView::events`] without the first `skip` events: starts
    /// at the checkpoint before them, so it decodes at most
    /// `CHECKPOINT_EVERY` events it does not yield.
    pub fn events_from(&self, skip: usize) -> SegmentEvents<'_> {
        let skip = skip.min(self.event_count);
        let k = (skip / CHECKPOINT_EVERY).min(self.checkpoints.len().saturating_sub(1));
        let consumed = self.checkpoints.get(k).copied().unwrap_or_default();
        let mut walk = self.cursor(k * CHECKPOINT_EVERY, consumed);
        while walk.next < skip {
            validated(walk.step());
        }
        walk
    }

    /// A cursor at event `next`, `consumed[k]` bytes into lane `k`.
    fn cursor(&self, next: usize, consumed: [u32; 10]) -> SegmentEvents<'_> {
        SegmentEvents {
            view: self,
            next,
            lanes: std::array::from_fn(|k| {
                Decoder::new(&self.lanes[k].of(&self.payload)[consumed[k] as usize..])
            }),
        }
    }

    /// The bytes of the dictionary string a validated lane index names.
    fn bytes(&self, idx: u32) -> &[u8] {
        self.dict[idx as usize].of(&self.payload)
    }

    /// The dictionary string a validated lane index names.
    fn string(&self, idx: u32) -> &str {
        // Checked once already by `parse`; checking again costs a scan
        // of the string but keeps this module free of `unsafe`. The
        // audit's output compare goes through `bytes` and skips it.
        validated(std::str::from_utf8(self.bytes(idx)))
    }
}

/// The over-long-lane diagnostic, per lane in payload order.
const LANE_NOT_CONSUMED: [&str; 10] = [
    "rid lane not fully consumed",
    "method lane not fully consumed",
    "path lane not fully consumed",
    "query lane not fully consumed",
    "post lane not fully consumed",
    "cookie lane not fully consumed",
    "label lane not fully consumed",
    "status lane not fully consumed",
    "header lane not fully consumed",
    "body lane not fully consumed",
];

/// A value the parse-time validation walk already decoded once.
fn validated<T, E>(value: Result<T, E>) -> T {
    match value {
        Ok(value) => value,
        Err(_) => unreachable!("SegmentView::parse validated every lane"),
    }
}

/// Cursor over a [`SegmentView`]'s events: one position per lane.
#[derive(Debug)]
pub struct SegmentEvents<'a> {
    view: &'a SegmentView,
    next: usize,
    /// What is left of each lane.
    lanes: [Decoder<'a>; 10],
}

impl<'a> SegmentEvents<'a> {
    /// Bytes of `lane` already decoded.
    fn consumed(&self, lane: usize) -> u32 {
        self.view.lanes[lane].len - self.lanes[lane].remaining() as u32
    }

    /// Decodes the next event, checking every index it reads, into
    /// handles that resolve their strings on demand. The caller bounds
    /// the walk by the event count.
    fn step(&mut self) -> Result<EventRef<'a>, Fault> {
        let view = self.view;
        let rid_idx = self.lanes[RID].u64()? as usize;
        let rid = *view
            .rids
            .get(rid_idx)
            .ok_or(Fault::Corrupt("rid dictionary index out of range"))?;
        let i = self.next;
        self.next += 1;
        let is_response = view.kinds.of(&view.payload)[i / 8] & (1 << (i % 8)) != 0;
        if is_response {
            let rid_label = match self.lanes[LABEL].u64()? {
                0 => rid,
                1 => RequestId(self.lanes[LABEL].u64()?),
                _ => return Err(Fault::Corrupt("bad response label marker")),
            };
            let status = self.lanes[STATUS].u64()?;
            let status =
                u16::try_from(status).map_err(|_| Fault::Corrupt("status out of range"))?;
            let response = LaneResponse {
                view,
                rid_label,
                status,
                headers: self.pairs(HEADER)?,
                body: self.string(BODY)?,
            };
            Ok(EventRef::Response(rid, ResponseRef::Lane(response)))
        } else {
            let request = LaneRequest {
                view,
                method: self.string(METHOD)?,
                path: self.string(PATH)?,
                pairs: [self.pairs(QUERY)?, self.pairs(POST)?, self.pairs(COOKIE)?],
            };
            Ok(EventRef::Request(rid, RequestRef::Lane(request)))
        }
    }

    /// Reads one dictionary index off `lane`.
    fn string(&mut self, lane: usize) -> Result<u32, Fault> {
        let idx = self.lanes[lane].u64()?;
        if idx >= self.view.dict.len() as u64 {
            return Err(Fault::Corrupt("string dictionary index out of range"));
        }
        Ok(idx as u32)
    }

    /// Steps past one pair list on `lane`, checking its indices;
    /// yields the payload offset it starts at.
    fn pairs(&mut self, lane: usize) -> Result<u32, Fault> {
        let at = self.view.lanes[lane].at + self.consumed(lane);
        let n = self.lanes[lane].u64()? as usize;
        if n > self.lanes[lane].remaining() {
            return Err(Fault::Corrupt("pair count exceeds lane"));
        }
        for _ in 0..2 * n {
            self.string(lane)?;
        }
        Ok(at)
    }
}

impl<'a> Iterator for SegmentEvents<'a> {
    type Item = EventRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        (self.next < self.view.event_count).then(|| validated(self.step()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.view.event_count - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SegmentEvents<'_> {}

/// A request inside a segment: two dictionary indices and the payload
/// offsets of its three pair lists, resolved on demand.
#[derive(Debug, Clone, Copy)]
pub struct LaneRequest<'a> {
    view: &'a SegmentView,
    method: u32,
    path: u32,
    /// Query, post, cookies.
    pairs: [u32; 3],
}

impl<'a> LaneRequest<'a> {
    pub(crate) fn method(&self) -> &'a str {
        self.view.string(self.method)
    }

    pub(crate) fn path(&self) -> &'a str {
        self.view.string(self.path)
    }

    /// The query (0), post (1) or cookie (2) pairs.
    pub(crate) fn pairs(&self, which: usize) -> LanePairs<'a> {
        LanePairs {
            view: self.view,
            at: self.pairs[which],
        }
    }
}

/// A response inside a segment; headers and body resolve on demand.
#[derive(Debug, Clone, Copy)]
pub struct LaneResponse<'a> {
    view: &'a SegmentView,
    pub(crate) rid_label: RequestId,
    pub(crate) status: u16,
    headers: u32,
    body: u32,
}

impl<'a> LaneResponse<'a> {
    pub(crate) fn headers(&self) -> LanePairs<'a> {
        LanePairs {
            view: self.view,
            at: self.headers,
        }
    }

    pub(crate) fn body(&self) -> &'a str {
        self.view.string(self.body)
    }

    pub(crate) fn body_bytes(&self) -> &'a [u8] {
        self.view.bytes(self.body)
    }
}

/// A `(key, value)` list inside a segment lane: a count, then that
/// many pairs of dictionary indices, at payload offset `at`.
#[derive(Debug, Clone, Copy)]
pub struct LanePairs<'a> {
    view: &'a SegmentView,
    at: u32,
}

impl<'a> LanePairs<'a> {
    /// The pairs in order, resolved through the dictionary.
    pub fn iter(&self) -> LanePairsIter<'a> {
        let mut indices = Decoder::new(&self.view.payload[self.at as usize..]);
        let left = validated(indices.u64()) as usize;
        LanePairsIter {
            view: self.view,
            indices,
            left,
        }
    }

    /// Order-sensitive equality with an owned pair list, byte for byte.
    pub(crate) fn eq_owned(&self, other: &[(String, String)]) -> bool {
        let mut pairs = self.iter();
        pairs.len() == other.len()
            && other
                .iter()
                .all(|(k, v)| pairs.next_bytes() == Some((k.as_bytes(), v.as_bytes())))
    }
}

/// Iterator over a [`LanePairs`].
#[derive(Debug)]
pub struct LanePairsIter<'a> {
    view: &'a SegmentView,
    indices: Decoder<'a>,
    left: usize,
}

impl<'a> LanePairsIter<'a> {
    /// The next pair's dictionary indices.
    fn next_indices(&mut self) -> Option<(u32, u32)> {
        self.left = self.left.checked_sub(1)?;
        let mut index = || validated(self.indices.u64()) as u32;
        Some((index(), index()))
    }

    /// The next pair as stored, without the UTF-8 re-check.
    fn next_bytes(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        let (k, v) = self.next_indices()?;
        Some((self.view.bytes(k), self.view.bytes(v)))
    }
}

impl<'a> Iterator for LanePairsIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = self.next_indices()?;
        Some((self.view.string(k), self.view.string(v)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for LanePairsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HttpRequest, HttpResponse};

    /// The parse-and-walk the store's readers do, with every event
    /// copied out.
    fn decode(blob: &[u8]) -> Result<Vec<Event>, TraceStoreError> {
        Ok(SegmentView::parse(blob, "seg")?
            .events()
            .map(|e| e.to_owned())
            .collect())
    }

    fn sample_events() -> Vec<Event> {
        let r1 = RequestId(10);
        let r2 = RequestId(11);
        vec![
            Event::Request(
                r1,
                HttpRequest::post("/shop.php", &[("a", "1")], &[("item", "7")])
                    .with_cookie("sess", "u1"),
            ),
            Event::Request(r2, HttpRequest::get("/shop.php", &[("a", "1")])),
            Event::Response(
                r1,
                HttpResponse {
                    rid_label: r1,
                    status: 200,
                    headers: vec![("Set-Cookie".into(), "sess=u1".into())],
                    body: "ok".into(),
                },
            ),
            Event::Response(r2, HttpResponse::ok(r2, "ok")),
        ]
    }

    #[test]
    fn roundtrip_preserves_events() {
        let events = sample_events();
        let blob = encode_segment(&events);
        assert_eq!(decode(&blob).unwrap(), events);
    }

    #[test]
    fn roundtrip_preserves_mislabeled_responses() {
        let rid = RequestId(1);
        let events = vec![
            Event::Request(rid, HttpRequest::get("/x", &[])),
            Event::Response(rid, HttpResponse::ok(RequestId(99), "ok")),
        ];
        let blob = encode_segment(&events);
        assert_eq!(decode(&blob).unwrap(), events);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let blob = encode_segment(&[]);
        assert_eq!(decode(&blob).unwrap(), Vec::<Event>::new());
    }

    #[test]
    fn header_reports_counts() {
        let events = sample_events();
        let blob = encode_segment(&events);
        let header = read_header(&blob, "seg").unwrap();
        assert_eq!(header.event_count, 4);
        assert_eq!(header.version, SEGMENT_VERSION);
    }

    #[test]
    fn dictionary_makes_repetition_cheap() {
        // 100 identical request/response pairs (distinct rids): the
        // dictionary should amortize every string to near zero.
        let mut events = Vec::new();
        for i in 0..100u64 {
            let rid = RequestId(i + 1);
            events.push(Event::Request(
                rid,
                HttpRequest::get("/wiki.php", &[("page", "Main")]),
            ));
            events.push(Event::Response(rid, HttpResponse::ok(rid, "the page body")));
        }
        let blob = encode_segment(&events);
        assert!(
            blob.len() < events.len() * 8,
            "expected < 8 bytes/event, got {} for {} events",
            blob.len(),
            events.len()
        );
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let blob = encode_segment(&sample_events());
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let err = decode(&bad).unwrap_err();
        assert_eq!(
            err,
            TraceStoreError::corrupt("seg", "segment checksum mismatch")
        );
    }

    /// Every diagnostic a damaged segment may report. The strings are
    /// API: tests and operators match on them.
    fn is_stable_diagnostic(detail: &str) -> bool {
        const FIXED: [&str; 15] = [
            "segment truncated",
            "varint overflow",
            "malformed wire value: invalid utf-8",
            "bad segment magic",
            "trailing bytes after payload",
            "segment checksum mismatch",
            "string dictionary count exceeds payload",
            "rid dictionary count exceeds payload",
            "kinds lane length disagrees with event count",
            "trailing bytes after lanes",
            "rid dictionary index out of range",
            "bad response label marker",
            "status out of range",
            "pair count exceeds lane",
            "string dictionary index out of range",
        ];
        FIXED.contains(&detail)
            || LANE_NOT_CONSUMED.contains(&detail)
            || detail
                .strip_prefix("unsupported segment version ")
                .is_some_and(|v| v.parse::<u8>().is_ok())
    }

    /// Parses and walks `blob`: a failure must carry a stable
    /// diagnostic. Returns whether the blob was accepted.
    fn total(blob: &[u8], what: &str) -> bool {
        match decode(blob) {
            Ok(_) => true,
            Err(err) => {
                let TraceStoreError::Corrupt { detail, .. } = &err else {
                    panic!("{what}: expected Corrupt, got {err:?}");
                };
                assert!(
                    is_stable_diagnostic(detail),
                    "{what}: new diagnostic {detail:?}"
                );
                false
            }
        }
    }

    /// A segment that uses every lane: pair lists of 0, 1 and 2
    /// entries, a mislabeled response, an empty body, multibyte strings.
    fn multi_lane_events() -> Vec<Event> {
        let mut events = sample_events();
        let r3 = RequestId(12);
        events.push(Event::Request(
            r3,
            HttpRequest::post("/édit.php", &[("p", "ü"), ("q", "")], &[])
                .with_cookie("a", "1")
                .with_cookie("b", "2"),
        ));
        events.push(Event::Response(
            r3,
            HttpResponse {
                rid_label: RequestId(99),
                status: 404,
                headers: vec![("x".into(), "y".into()), ("x".into(), "z".into())],
                body: String::new(),
            },
        ));
        events
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let blob = encode_segment(&multi_lane_events());
        assert!(total(&blob, "intact"));
        for cut in 0..blob.len() {
            assert!(!total(&blob[..cut], &format!("cut at {cut}")));
        }
    }

    #[test]
    fn every_header_byte_flip_is_an_error_not_a_panic() {
        let blob = encode_segment(&multi_lane_events());
        let header_len = read_header(&blob, "seg").unwrap().header_len;
        for at in 0..header_len {
            for mask in [0x01u8, 0x10, 0x80, 0xff] {
                let mut bad = blob.clone();
                bad[at] ^= mask;
                assert!(!total(&bad, &format!("header byte {at} ^ {mask:#x}")));
            }
        }
    }

    #[test]
    fn seeded_stored_byte_flips_fail_the_checksum() {
        let blob = encode_segment(&multi_lane_events());
        let header_len = read_header(&blob, "seg").unwrap().header_len;
        let mut rng = orochi_common::rng::SplitMix64::new(17);
        for _ in 0..1000 {
            let mut bad = blob.clone();
            let at = header_len + rng.next_below((blob.len() - header_len) as u64) as usize;
            bad[at] ^= 1 << rng.next_below(8);
            assert_eq!(
                decode(&bad).unwrap_err(),
                TraceStoreError::corrupt("seg", "segment checksum mismatch")
            );
            assert!(!total(&bad, &format!("stored byte {at}")));
        }
    }

    #[test]
    fn seeded_payload_flips_under_a_valid_checksum_never_panic() {
        // The checksum is no MAC: whoever can rewrite the file can
        // re-seal it. Damage the *decompressed* payload and re-seal, so
        // the dictionary and lane checks — not the checksum — are what
        // stands between the bytes and a panic.
        let events = multi_lane_events();
        let payload = encode_payload(&events);
        assert!(total(&seal_payload(events.len(), &payload), "intact"));
        let mut rng = orochi_common::rng::SplitMix64::new(23);
        let mut rejected = 0;
        for _ in 0..1000 {
            let mut bad = payload.clone();
            let at = rng.next_below(bad.len() as u64) as usize;
            bad[at] ^= 1 << rng.next_below(8);
            if !total(
                &seal_payload(events.len(), &bad),
                &format!("payload byte {at}"),
            ) {
                rejected += 1;
            }
        }
        // A flip inside a string's bytes still decodes (to different
        // events); one that hits structure is caught.
        assert!(
            rejected > 100,
            "only {rejected} of 1000 flips were structural"
        );
    }

    #[test]
    fn version_one_segments_are_unsupported() {
        let mut blob = encode_segment(&sample_events());
        blob[4] = 1;
        assert_eq!(
            decode(&blob).unwrap_err(),
            TraceStoreError::corrupt("seg", "unsupported segment version 1")
        );
    }

    #[test]
    fn view_lends_what_was_encoded() {
        let events = multi_lane_events();
        let view = SegmentView::parse(&encode_segment(&events), "seg").unwrap();
        assert_eq!(view.len(), events.len());
        for (lent, owned) in view.events().zip(&events) {
            assert_eq!(&lent.to_owned(), owned);
            if let (EventRef::Response(_, lent), Event::Response(_, owned)) = (lent, owned) {
                assert!(lent == *owned);
                assert_eq!(lent.headers().iter().len(), owned.headers.len());
            }
        }
    }

    #[test]
    fn events_from_resumes_at_every_position() {
        // Long enough to cross several checkpoints, ending on one.
        let events: Vec<Event> = multi_lane_events()
            .into_iter()
            .cycle()
            .take(3 * CHECKPOINT_EVERY)
            .collect();
        let view = SegmentView::parse(&encode_segment(&events), "seg").unwrap();
        for skip in 0..=events.len() + 1 {
            let rest: Vec<Event> = view.events_from(skip).map(|e| e.to_owned()).collect();
            assert_eq!(rest, events[skip.min(events.len())..], "skip {skip}");
        }
        let empty = SegmentView::parse(&encode_segment(&[]), "seg").unwrap();
        assert_eq!(empty.events_from(3).count(), 0);
    }

    #[test]
    fn truncated_tail_is_rejected() {
        let blob = encode_segment(&sample_events());
        let err = decode(&blob[..blob.len() - 3]).unwrap_err();
        assert_eq!(err, TraceStoreError::corrupt("seg", "segment truncated"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut blob = encode_segment(&sample_events());
        blob[0] = b'X';
        let err = decode(&blob).unwrap_err();
        assert_eq!(err, TraceStoreError::corrupt("seg", "bad segment magic"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut blob = encode_segment(&sample_events());
        blob[4] = 9;
        let err = decode(&blob).unwrap_err();
        assert_eq!(
            err,
            TraceStoreError::corrupt("seg", "unsupported segment version 9")
        );
    }
}
