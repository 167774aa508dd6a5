//! The segmented trace store end to end: round-trips, corruption
//! rejection, and the cold-storage audit path.
//!
//! * Property: any balanced trace — with adversarially varied payloads —
//!   written into sealed segments streams back event-identical through
//!   the [`TraceSource`] API, across segment-size budgets that force
//!   multi-segment stores.
//! * Property: what the store *lends* ([`TraceSource::for_each_epoch`])
//!   is field for field what it *copies out*, at every epoch budget, and
//!   comparing a lent response with an owned one agrees with
//!   `HttpResponse`'s own equality.
//! * Corruption: a flipped payload byte, a truncated tail, and a
//!   damaged header are all rejected with their stable diagnostics.
//! * Equivalence: serve → spill → drop the in-RAM trace → audit from
//!   disk produces byte-identical verdicts and diagnostics to the
//!   in-RAM audit, at 1 and 4 threads, for accepting *and* rejecting
//!   runs.

use orochi::harness::{
    run_audit_cold, run_audit_with, serve, spill_bundle, AppWorkload, AuditOptions, ServeOptions,
};
use orochi::trace::{
    Event, EventRef, HttpRequest, HttpResponse, Trace, TraceSource, TraceStoreError,
    TraceStoreReader, TraceStoreWriter,
};
use orochi_common::ids::RequestId;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temp directory per call (tests run concurrently).
fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "orochi-tracestore-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// Generates a balanced trace whose payloads exercise every segment
/// lane: methods, paths, query/post/cookie pairs, statuses, headers,
/// bodies, and mislabeled responses.
fn varied_trace_strategy(max_requests: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(any::<(bool, u8, u8)>(), 0..max_requests * 2).prop_map(|actions| {
        let mut events = Vec::new();
        let mut open: Vec<RequestId> = Vec::new();
        let mut next = 1u64;
        for (do_open, pick, flavor) in actions {
            if do_open || open.is_empty() {
                let rid = RequestId(next);
                next += 1;
                let mut req = match flavor % 3 {
                    0 => HttpRequest::get("/wiki.php", &[("page", "Home")]),
                    1 => HttpRequest::post(
                        "/edit.php",
                        &[("id", &flavor.to_string())],
                        &[("body", "lorem ipsum")],
                    ),
                    _ => HttpRequest::get(&format!("/p{}.php", flavor % 5), &[]),
                };
                if flavor % 4 == 0 {
                    req.cookies.push(("session".into(), format!("s{}", rid.0)));
                }
                events.push(Event::Request(rid, req));
                open.push(rid);
            } else {
                let idx = pick as usize % open.len();
                let rid = open.swap_remove(idx);
                let mut resp = HttpResponse::ok(rid, format!("body-{}", flavor));
                resp.status = if flavor % 5 == 0 { 404 } else { 200 };
                if flavor % 3 == 0 {
                    resp.headers.push(("x-cache".into(), "hit".into()));
                }
                if flavor % 7 == 0 {
                    // Mislabeled response: the label lane's raw branch.
                    resp.rid_label = RequestId(rid.0.wrapping_add(1000));
                }
                events.push(Event::Response(rid, resp));
            }
        }
        for rid in open {
            events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
        }
        Trace { events }
    })
}

/// Spills `trace` at `segment_budget` and streams it back.
fn roundtrip(trace: &Trace, segment_budget: usize, tag: &str) -> (Vec<Event>, usize) {
    let dir = temp_store_dir(tag);
    let mut writer = TraceStoreWriter::create(&dir, segment_budget).unwrap();
    writer.append_trace(trace).unwrap();
    let summary = writer.finish().unwrap();
    let reader = TraceStoreReader::open(&dir).unwrap();
    assert_eq!(reader.event_count(), trace.len());
    let mut replayed = Vec::new();
    reader
        .stream_events(&mut |e| {
            replayed.push(e);
            true
        })
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (replayed, summary.segments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmented storage is lossless: the replay is event-identical to
    /// the original trace at every segment budget, including budgets
    /// small enough to seal one event per segment.
    #[test]
    fn segment_roundtrip_is_event_identical(
        trace in varied_trace_strategy(10),
        budget in prop_oneof![Just(0usize), Just(64), Just(512), Just(1 << 20)],
    ) {
        let (replayed, segments) = roundtrip(&trace, budget, "prop");
        prop_assert_eq!(&replayed, &trace.events);
        if budget == 64 && trace.len() >= 6 {
            // A tiny budget must actually split the store.
            prop_assert!(segments > 1, "expected multiple segments, got {segments}");
        }
    }
}

/// [`varied_trace_strategy`] with the cases the lanes' edges need:
/// empty bodies, multibyte strings, header lists of two (so order
/// matters) with a multibyte value.
fn edgy_trace_strategy(max_requests: usize) -> impl Strategy<Value = Trace> {
    varied_trace_strategy(max_requests).prop_map(|mut trace| {
        for (i, event) in trace.events.iter_mut().enumerate() {
            match event {
                Event::Request(_, req) if i % 3 == 0 => {
                    req.path = format!("/café/{}.php", i % 4);
                    req.post.push(("ключ".into(), String::new()));
                }
                Event::Response(_, resp) if i % 4 == 1 => resp.body.clear(),
                Event::Response(_, resp) if i % 4 == 3 => {
                    resp.headers.push(("x-cache".into(), "miss ✓".into()));
                    resp.headers.push(("set-cookie".into(), format!("s={i}")));
                }
                _ => {}
            }
        }
        trace
    })
}

/// `owned` with exactly one field changed, one variant per field.
fn single_field_variants(owned: &HttpResponse) -> Vec<HttpResponse> {
    let mut variants = Vec::new();
    let mut vary = |change: &dyn Fn(&mut HttpResponse)| {
        let mut variant = owned.clone();
        change(&mut variant);
        variants.push(variant);
    };
    vary(&|r| r.rid_label = RequestId(r.rid_label.0 ^ 1));
    vary(&|r| r.status ^= 1);
    vary(&|r| r.body.push('x'));
    vary(&|r| r.headers.reverse());
    vary(&|r| r.headers.push(("x".into(), "y".into())));
    vary(&|r| drop(r.headers.pop()));
    vary(&|r| r.headers.iter_mut().for_each(|(_, v)| v.push('!')));
    vary(&|r| r.headers.iter_mut().for_each(|(k, _)| k.push('!')));
    variants
}

/// Asserts that the lent event shows exactly the owned event's fields.
fn assert_lends(lent: EventRef<'_>, owned: &Event) {
    match (lent, owned) {
        (EventRef::Request(rid, lent), Event::Request(owned_rid, owned)) => {
            assert_eq!(rid, *owned_rid);
            assert_eq!(lent.method(), owned.method);
            assert_eq!(lent.path(), owned.path);
            assert!(lent.query() == owned.query[..]);
            assert!(lent.post() == owned.post[..]);
            assert!(lent.cookies() == owned.cookies[..]);
            assert_eq!(&lent.to_owned(), owned);
        }
        (EventRef::Response(rid, lent), Event::Response(owned_rid, owned)) => {
            assert_eq!(rid, *owned_rid);
            assert_eq!(lent.rid_label(), owned.rid_label);
            assert_eq!(lent.status(), owned.status);
            assert_eq!(lent.body(), owned.body);
            assert!(lent.headers() == owned.headers[..]);
            assert_eq!(&lent.to_owned(), owned);
            // The audit's in-place output compare is HttpResponse's ==.
            assert!(lent == *owned);
            for variant in single_field_variants(owned) {
                assert_eq!(
                    lent == variant,
                    *owned == variant,
                    "{owned:?} vs {variant:?}"
                );
            }
        }
        (lent, owned) => panic!("kinds differ: {lent:?} vs {owned:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every event the store lends equals the event that was written —
    /// and so does the same event lent from RAM — whatever the segment
    /// budget and however the epochs cut across segments.
    #[test]
    fn lent_events_equal_owned_events(
        trace in edgy_trace_strategy(10),
        segment_budget in prop_oneof![Just(0usize), Just(64), Just(512)],
        epoch_budget in prop_oneof![Just(1usize), Just(3), Just(7), Just(usize::MAX)],
    ) {
        let dir = temp_store_dir("lend");
        let mut writer = TraceStoreWriter::create(&dir, segment_budget).unwrap();
        writer.append_trace(&trace).unwrap();
        writer.finish().unwrap();
        let reader = TraceStoreReader::open(&dir).unwrap();
        for source in [&reader as &dyn TraceSource, &trace] {
            let mut owned = trace.events.iter();
            source
                .for_each_epoch(epoch_budget, &mut |epoch| {
                    assert!(!epoch.is_empty() && epoch.len() <= epoch_budget);
                    // Everything an epoch lends stays valid together.
                    let lent: Vec<EventRef<'_>> = epoch.iter().collect();
                    assert_eq!(lent.len(), epoch.len());
                    for lent in lent {
                        assert_lends(lent, owned.next().expect("no more events than owned"));
                    }
                    true
                })
                .unwrap();
            prop_assert!(owned.next().is_none(), "fewer events lent than owned");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn two_request_trace() -> Trace {
    let mut events = Vec::new();
    for i in 1..=2u64 {
        let rid = RequestId(i);
        events.push(Event::Request(
            rid,
            HttpRequest::get("/wiki.php", &[("page", "Home")]),
        ));
        events.push(Event::Response(rid, HttpResponse::ok(rid, "hello world")));
    }
    Trace { events }
}

/// Writes the fixture trace as a single-segment store and returns the
/// segment file path.
fn sealed_segment(tag: &str) -> (PathBuf, PathBuf) {
    let dir = temp_store_dir(tag);
    let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
    writer.append_trace(&two_request_trace()).unwrap();
    writer.finish().unwrap();
    let seg = dir.join("seg-00000.ots");
    assert!(seg.exists());
    (dir, seg)
}

fn open_error(dir: &PathBuf) -> TraceStoreError {
    match TraceStoreReader::open(dir) {
        Ok(reader) => {
            // Damage past the header is only noticed when streamed.
            reader
                .stream_events(&mut |_| true)
                .expect_err("corrupt store must not stream")
        }
        Err(err) => err,
    }
}

fn corruption_detail(err: &TraceStoreError) -> &str {
    match err {
        TraceStoreError::Corrupt { detail, .. } => detail,
        TraceStoreError::Io { detail, .. } => panic!("expected Corrupt, got Io: {detail}"),
    }
}

#[test]
fn flipped_payload_byte_is_rejected() {
    let (dir, seg) = sealed_segment("flip");
    let mut bytes = std::fs::read(&seg).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&seg, &bytes).unwrap();
    let err = open_error(&dir);
    assert_eq!(corruption_detail(&err), "segment checksum mismatch");
    assert!(err.to_string().contains("corrupt trace store file"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_tail_is_rejected() {
    let (dir, seg) = sealed_segment("trunc");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
    let err = open_error(&dir);
    assert_eq!(corruption_detail(&err), "segment truncated");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_header_is_rejected() {
    let (dir, seg) = sealed_segment("header");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[0] = b'X'; // break the magic
    std::fs::write(&seg, &bytes).unwrap();
    let err = open_error(&dir);
    assert_eq!(corruption_detail(&err), "bad segment magic");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn shop_fixture() -> AppWorkload {
    use orochi::workload::shop;
    let params = shop::Params::scaled(0.02);
    AppWorkload {
        app: orochi::apps::shop::app(),
        workload: shop::generate(&params, 11),
        seed_sql: shop::seed_sql(&params),
    }
}

/// Renders a verdict as the byte string the equivalence checks compare:
/// accepted runs by their re-execution count, rejections by their full
/// diagnostic.
fn verdict_string(run: Result<orochi::harness::AuditRun, orochi::core::Rejection>) -> String {
    match run {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(rejection) => format!("reject:{rejection}"),
    }
}

#[test]
fn cold_audit_verdict_matches_in_ram_at_one_and_four_threads() {
    let work = shop_fixture();
    let served = serve(&work, &ServeOptions::default());
    let dir = temp_store_dir("verdict");
    let budget = 32 * 1024;
    let summary = spill_bundle(&served.bundle, &dir, budget).unwrap();
    // A segment seals after the event that crosses the budget, so one
    // event of overshoot is legal; this cap is what bounds the
    // auditor's resident ingest buffer.
    assert!(
        summary.max_segment_bytes <= budget + 64 * 1024,
        "a sealed segment of {} B exceeds the {budget} B budget by more than one event",
        summary.max_segment_bytes
    );
    let bundle = served.bundle;
    let reader = TraceStoreReader::open(&dir).unwrap();
    for threads in [1usize, 4] {
        let opts = AuditOptions {
            threads,
            ..Default::default()
        };
        let ram = verdict_string(run_audit_with(&bundle, &work, &opts));
        let cold = verdict_string(run_audit_cold(&reader, &work, &opts));
        assert_eq!(ram, cold, "threads {threads}");
        assert!(ram.starts_with("accept:"), "honest run must accept: {ram}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_audit_rejects_identically_to_in_ram() {
    let work = shop_fixture();
    let served = serve(&work, &ServeOptions::default());
    let mut bundle = served.bundle;
    // Tamper with one response body after serving: both paths must
    // reject with the same diagnostic.
    let tampered = bundle
        .trace
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::Response(_, resp) => Some(resp),
            _ => None,
        })
        .expect("trace has responses");
    tampered.body = "forged output".into();
    let dir = temp_store_dir("reject");
    spill_bundle(&bundle, &dir, 32 * 1024).unwrap();
    let reader = TraceStoreReader::open(&dir).unwrap();
    for threads in [1usize, 4] {
        let opts = AuditOptions {
            threads,
            ..Default::default()
        };
        let ram = verdict_string(run_audit_with(&bundle, &work, &opts));
        let cold = verdict_string(run_audit_cold(&reader, &work, &opts));
        assert_eq!(ram, cold, "threads {threads}");
        assert!(
            ram.starts_with("reject:"),
            "tampered run must reject: {ram}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
