//! The on-disk trace store: a directory of sealed segments plus
//! checksummed sidecar blobs.
//!
//! # Layout
//!
//! ```text
//! <dir>/seg-00000.ots     sealed event segment (see crate::segment)
//! <dir>/seg-00001.ots     ...
//! <dir>/<name>.blob       sidecar blob: "OTB1" magic, varint checksum,
//!                         length-prefixed bytes (op reports live here)
//! ```
//!
//! # Seal protocol
//!
//! [`TraceStoreWriter`] buffers appended events and estimates their
//! encoded size; once the estimate crosses the configured segment
//! budget the pending run is encoded ([`crate::segment::encode_segment`]),
//! written to the next `seg-NNNNN.ots` file, and the buffer is reset.
//! A sealed segment is never reopened or rewritten. [`TraceStoreWriter::finish`]
//! seals the final partial segment and returns the store summary.
//!
//! [`TraceStoreReader`] validates every segment header at open time
//! (magic, version, and that the file length matches the header's
//! payload length — a torn tail fails here) reading only the header
//! bytes of each file. Events are then read a segment at a time: each
//! file is checksummed as stored, decompressed once, and parsed into a
//! [`SegmentView`] that [`TraceSource::for_each_epoch`] lends in place.
//! That is the store's one read form; [`TraceSource::stream_events`]
//! copies the same walk out event by event.

use crate::record::{Event, Trace};
use crate::segment::{encode_segment, read_header, SegmentView, MAX_HEADER_LEN};
use crate::source::{TraceSource, TraceStoreError};
use crate::view::Epoch;
use orochi_common::codec::{Decoder, Encoder};
use orochi_common::hash::fnv1a;
use orochi_obs::{LazyCounter, LazyHistogram};
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Segments sealed across all writers.
static SEAL_TOTAL: LazyCounter = LazyCounter::new("tracestore_seal_total");
/// Events sealed into segments.
static EVENTS_TOTAL: LazyCounter = LazyCounter::new("tracestore_events_total");
/// Encoded segment bytes written to disk (bytes/event = this over
/// `tracestore_events_total`).
static BYTES_TOTAL: LazyCounter = LazyCounter::new("tracestore_bytes_total");
/// Wall time spent encoding (dictionary-compressing) a segment;
/// clock-bearing, so only recorded when telemetry is enabled.
static COMPRESS_NS: LazyHistogram = LazyHistogram::new("tracestore_compress_ns");

/// Default segment budget: 1 MiB of estimated encoded events.
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

/// File-name prefix/suffix for sealed segments.
const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".ots";
const BLOB_SUFFIX: &str = ".blob";
const BLOB_MAGIC: [u8; 4] = *b"OTB1";

fn segment_file_name(seq: usize) -> String {
    format!("{SEGMENT_PREFIX}{seq:05}{SEGMENT_SUFFIX}")
}

/// Cheap upper-bound estimate of an event's encoded size, used only to
/// decide when to seal (the real encoding is dictionary-compressed and
/// almost always much smaller).
fn estimate(event: &Event) -> usize {
    fn pairs(p: &[(String, String)]) -> usize {
        p.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>() + 2
    }
    match event {
        Event::Request(_, req) => {
            12 + req.method.len()
                + req.path.len()
                + pairs(&req.query)
                + pairs(&req.post)
                + pairs(&req.cookies)
        }
        Event::Response(_, resp) => 16 + resp.body.len() + pairs(&resp.headers),
    }
}

/// Summary statistics a finished [`TraceStoreWriter`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStoreSummary {
    /// Number of sealed segments.
    pub segments: usize,
    /// Total events across all segments.
    pub events: u64,
    /// Total bytes of segment files on disk (blobs excluded).
    pub segment_bytes: u64,
    /// Size of the largest sealed segment file.
    pub max_segment_bytes: usize,
    /// Total bytes of sidecar blobs on disk.
    pub blob_bytes: u64,
}

/// Appends trace events into sealed, size-bounded segment files.
#[derive(Debug)]
pub struct TraceStoreWriter {
    dir: PathBuf,
    segment_budget: usize,
    pending: Vec<Event>,
    pending_estimate: usize,
    seq: usize,
    events: u64,
    segment_bytes: u64,
    max_segment_bytes: usize,
    blob_bytes: u64,
    /// Journal lane for seal spans; resolved at create only when
    /// telemetry is enabled so disabled runs export no lane.
    lane: Option<orochi_obs::LaneId>,
}

impl TraceStoreWriter {
    /// Creates a store at `dir` (created if missing, which must not
    /// already contain segments) sealing segments at roughly
    /// `segment_budget` bytes of events. A zero budget means one
    /// segment per [`TraceStoreWriter::finish`].
    pub fn create(dir: impl Into<PathBuf>, segment_budget: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "trace store directory {} already holds segments",
                        dir.display()
                    ),
                ));
            }
        }
        Ok(TraceStoreWriter {
            dir,
            segment_budget,
            pending: Vec::new(),
            pending_estimate: 0,
            seq: 0,
            events: 0,
            segment_bytes: 0,
            max_segment_bytes: 0,
            blob_bytes: 0,
            lane: orochi_obs::enabled().then(|| orochi_obs::journal::lane("trace-store")),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one event, sealing a segment when the budget fills.
    pub fn append(&mut self, event: Event) -> io::Result<()> {
        self.pending_estimate += estimate(&event);
        self.pending.push(event);
        if self.segment_budget > 0 && self.pending_estimate >= self.segment_budget {
            self.seal()?;
        }
        Ok(())
    }

    /// Appends every event of `trace` in order.
    pub fn append_trace(&mut self, trace: &Trace) -> io::Result<()> {
        for event in &trace.events {
            self.append(event.clone())?;
        }
        Ok(())
    }

    /// Seals the pending events into the next segment file. A no-op when
    /// nothing is pending.
    pub fn seal(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let span = self
            .lane
            .and_then(|l| orochi_obs::span_timed(l, "seal", COMPRESS_NS.get()));
        let blob = encode_segment(&self.pending);
        let path = self.dir.join(segment_file_name(self.seq));
        fs::write(&path, &blob)?;
        drop(span);
        SEAL_TOTAL.inc();
        EVENTS_TOTAL.add(self.pending.len() as u64);
        BYTES_TOTAL.add(blob.len() as u64);
        // Every sealed segment is an epoch boundary the streaming
        // audit can pick up, so the audit-lag clock restarts here —
        // not only at finish().
        orochi_obs::lag::mark_sealed();
        self.seq += 1;
        self.events += self.pending.len() as u64;
        self.segment_bytes += blob.len() as u64;
        self.max_segment_bytes = self.max_segment_bytes.max(blob.len());
        self.pending.clear();
        self.pending_estimate = 0;
        Ok(())
    }

    /// Writes a checksummed sidecar blob named `<name>.blob`.
    pub fn write_blob(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut enc = Encoder::new();
        for b in BLOB_MAGIC {
            enc.byte(b);
        }
        enc.u64(fnv1a(bytes));
        enc.bytes(bytes);
        let out = enc.into_bytes();
        self.blob_bytes += out.len() as u64;
        fs::write(self.dir.join(format!("{name}{BLOB_SUFFIX}")), out)
    }

    /// Seals any pending events and returns the store summary.
    pub fn finish(mut self) -> io::Result<TraceStoreSummary> {
        self.seal()?;
        // The trace is durably sealed: from here the clock runs on the
        // auditor (audit lag = seal→verdict).
        orochi_obs::lag::mark_sealed();
        Ok(TraceStoreSummary {
            segments: self.seq,
            events: self.events,
            segment_bytes: self.segment_bytes,
            max_segment_bytes: self.max_segment_bytes,
            blob_bytes: self.blob_bytes,
        })
    }
}

/// Reads a sealed trace store; implements [`TraceSource`] by parsing
/// one segment at a time.
#[derive(Debug)]
pub struct TraceStoreReader {
    dir: PathBuf,
    /// Per segment: path and its header event count.
    segments: Vec<(PathBuf, u64)>,
    events: u64,
    segment_bytes: u64,
    max_segment_bytes: usize,
}

impl TraceStoreReader {
    /// Opens the store at `dir`, validating every segment's header and
    /// that each file's length matches the header (torn tails fail
    /// here; payload checksums are verified during streaming).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, TraceStoreError> {
        let dir = dir.into();
        let dir_label = dir.display().to_string();
        let entries = fs::read_dir(&dir).map_err(|e| TraceStoreError::io(dir_label.clone(), &e))?;
        let mut names: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| TraceStoreError::io(dir_label.clone(), &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX) {
                names.push(name);
            }
        }
        names.sort();
        for (i, name) in names.iter().enumerate() {
            if name != &segment_file_name(i) {
                return Err(TraceStoreError::corrupt(
                    dir_label.clone(),
                    format!(
                        "missing or misnumbered segment (expected {})",
                        segment_file_name(i)
                    ),
                ));
            }
        }
        let mut segments = Vec::with_capacity(names.len());
        let mut events = 0u64;
        let mut segment_bytes = 0u64;
        let mut max_segment_bytes = 0usize;
        for name in &names {
            let path = dir.join(name);
            let label = path.display().to_string();
            let io_err = |e: io::Error| TraceStoreError::io(label.clone(), &e);
            let file = fs::File::open(&path).map_err(io_err)?;
            let file_len = file.metadata().map_err(io_err)?.len();
            let mut head = Vec::with_capacity(MAX_HEADER_LEN);
            file.take(MAX_HEADER_LEN as u64)
                .read_to_end(&mut head)
                .map_err(io_err)?;
            let header = read_header(&head, &label)?;
            // The header is self-delimiting; everything after it must be
            // exactly the declared payload.
            let declared = (header.header_len as u64).checked_add(header.payload_len);
            if declared != Some(file_len) {
                return Err(TraceStoreError::corrupt(label, "segment truncated"));
            }
            events += header.event_count;
            segment_bytes += file_len;
            max_segment_bytes = max_segment_bytes.max(file_len as usize);
            segments.push((path, header.event_count));
        }
        Ok(TraceStoreReader {
            dir,
            segments,
            events,
            segment_bytes,
            max_segment_bytes,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total segment bytes on disk (blobs excluded).
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Size of the largest segment file — the bound on the resident
    /// ingest buffer while streaming.
    pub fn max_segment_bytes(&self) -> usize {
        self.max_segment_bytes
    }

    /// Reads and verifies the sidecar blob named `<name>.blob`.
    pub fn read_blob(&self, name: &str) -> Result<Vec<u8>, TraceStoreError> {
        let path = self.dir.join(format!("{name}{BLOB_SUFFIX}"));
        let label = path.display().to_string();
        let mut bytes = fs::read(&path).map_err(|e| TraceStoreError::io(label.clone(), &e))?;
        let truncated = |_| TraceStoreError::corrupt(label.clone(), "blob truncated");
        let mut dec = Decoder::new(&bytes);
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = dec.byte().map_err(truncated)?;
        }
        if magic != BLOB_MAGIC {
            return Err(TraceStoreError::corrupt(label, "bad blob magic"));
        }
        let checksum = dec.u64().map_err(truncated)?;
        let body = dec.bytes_ref().map_err(truncated)?;
        if !dec.is_done() {
            return Err(TraceStoreError::corrupt(label, "trailing bytes after blob"));
        }
        if fnv1a(body) != checksum {
            return Err(TraceStoreError::corrupt(label, "blob checksum mismatch"));
        }
        // The body is the file's tail: shift it down over the framing
        // instead of copying it into a second buffer.
        let framing = bytes.len() - body.len();
        bytes.drain(..framing);
        Ok(bytes)
    }

    /// Reads segment `k` off disk and parses it, checking the event
    /// count against the header read at open time.
    fn load(&self, k: usize) -> Result<SegmentView, TraceStoreError> {
        let (path, expected) = &self.segments[k];
        let label = path.display().to_string();
        let bytes = fs::read(path).map_err(|e| TraceStoreError::io(label.clone(), &e))?;
        let view = SegmentView::parse(&bytes, &label)?;
        if view.len() as u64 != *expected {
            return Err(TraceStoreError::corrupt(
                label,
                "payload event count disagrees with header",
            ));
        }
        Ok(view)
    }
}

impl TraceSource for TraceStoreReader {
    fn event_count(&self) -> usize {
        self.events as usize
    }

    fn for_each_epoch(
        &self,
        budget: usize,
        sink: &mut dyn FnMut(Epoch<'_>) -> bool,
    ) -> Result<(), TraceStoreError> {
        let budget = budget.max(1);
        // The parsed segments the current epoch spans, oldest first,
        // and how many events of `held[0]` earlier epochs already lent
        // (the epoch's walk resumes past them from a checkpoint, so a
        // segment cut into many epochs is still decoded once).
        let mut held: Vec<SegmentView> = Vec::new();
        let mut skip = 0usize;
        let mut next_segment = 0usize;
        loop {
            let mut available = held.iter().map(SegmentView::len).sum::<usize>() - skip;
            while available < budget && next_segment < self.segments.len() {
                let view = self.load(next_segment)?;
                next_segment += 1;
                available += view.len();
                held.push(view);
            }
            let len = available.min(budget);
            if len == 0 || !sink(Epoch::segments(&held, skip, len)) {
                return Ok(());
            }
            skip += len;
            while held.first().is_some_and(|view| view.len() <= skip) {
                skip -= held.remove(0).len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HttpRequest, HttpResponse};
    use orochi_common::ids::RequestId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "orochi-store-test-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    fn sample_trace(pairs: u64) -> Trace {
        let mut events = Vec::new();
        for i in 0..pairs {
            let rid = RequestId(i + 1);
            events.push(Event::Request(
                rid,
                HttpRequest::get("/wiki.php", &[("page", "Main")]),
            ));
            events.push(Event::Response(rid, HttpResponse::ok(rid, "body")));
        }
        Trace { events }
    }

    #[test]
    fn roundtrip_through_store() {
        let dir = temp_dir("roundtrip");
        let trace = sample_trace(50);
        let mut writer = TraceStoreWriter::create(&dir, 512).unwrap();
        writer.append_trace(&trace).unwrap();
        let summary = writer.finish().unwrap();
        assert!(summary.segments > 1, "expected multiple segments");
        assert_eq!(summary.events, 100);

        let reader = TraceStoreReader::open(&dir).unwrap();
        assert_eq!(reader.event_count(), 100);
        assert_eq!(reader.segment_count(), summary.segments);
        let mut replayed = Vec::new();
        reader
            .stream_events(&mut |e| {
                replayed.push(e);
                true
            })
            .unwrap();
        assert_eq!(replayed, trace.events);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_stream_copies_what_epochs_lend() {
        let dir = temp_dir("stream");
        let trace = sample_trace(40);
        let mut writer = TraceStoreWriter::create(&dir, 256).unwrap();
        writer.append_trace(&trace).unwrap();
        let summary = writer.finish().unwrap();
        assert!(summary.segments > 2, "need several segments");
        let reader = TraceStoreReader::open(&dir).unwrap();
        let segment = reader.segments[0].1 as usize;
        let streamed = crate::source::tests::assert_streams_what_it_lends(
            &reader,
            &[1, 3, segment, usize::MAX],
        );
        assert_eq!(streamed, trace.events);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blob_roundtrip_and_checksum() {
        let dir = temp_dir("blob");
        let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
        writer.write_blob("reports", b"hello reports").unwrap();
        writer.finish().unwrap();
        let reader = TraceStoreReader::open(&dir).unwrap();
        assert_eq!(reader.read_blob("reports").unwrap(), b"hello reports");

        // Flip a body byte: checksum must catch it.
        let path = dir.join("reports.blob");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let err = reader.read_blob("reports").unwrap_err();
        assert!(matches!(err, TraceStoreError::Corrupt { detail, .. }
            if detail == "blob checksum mismatch"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_truncated_segment() {
        let dir = temp_dir("trunc");
        let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
        writer.append_trace(&sample_trace(5)).unwrap();
        writer.finish().unwrap();
        let path = dir.join(segment_file_name(0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let err = TraceStoreReader::open(&dir).unwrap_err();
        assert!(matches!(err, TraceStoreError::Corrupt { detail, .. }
            if detail == "segment truncated"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_segment() {
        let dir = temp_dir("gap");
        let mut writer = TraceStoreWriter::create(&dir, 64).unwrap();
        writer.append_trace(&sample_trace(40)).unwrap();
        let summary = writer.finish().unwrap();
        assert!(summary.segments >= 2);
        fs::remove_file(dir.join(segment_file_name(0))).unwrap();
        let err = TraceStoreReader::open(&dir).unwrap_err();
        assert!(matches!(err, TraceStoreError::Corrupt { detail, .. }
            if detail.starts_with("missing or misnumbered segment")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_dirty_directory() {
        let dir = temp_dir("dirty");
        let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
        writer.append_trace(&sample_trace(1)).unwrap();
        writer.finish().unwrap();
        assert!(TraceStoreWriter::create(&dir, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
