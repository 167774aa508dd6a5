//! The reports have one encoding, and its decoder is total.
//!
//! The bundle a small wiki run served is decoded whole, cut at every
//! length, flipped at 1,000 seeded bytes and given one trailing byte:
//! each ends in `Ok` or `Err`, never a panic. Spilled beside a sealed
//! trace, the reports are stored as exactly their wire bytes and load
//! back equal. Operation counts near `u32::MAX` reject on every audit
//! entry point like any other missing operation.

use orochi_common::codec::Wire;
use orochi_common::ids::{OpNum, RequestId};
use orochi_common::SplitMix64;
use orochi_core::exec::FnExecutor;
use orochi_core::graph::{process_op_reports, GraphRejection};
use orochi_core::reports::{load_reports, spill_reports, Reports, REPORTS_BLOB};
use orochi_core::{
    audit, audit_parallel, audit_streaming_source, AuditConfig, AuditContext, Rejection,
};
use orochi_harness::{serve, AppWorkload, ServeOptions};
use orochi_trace::{
    Event, HttpRequest, HttpResponse, Trace, TraceStoreError, TraceStoreReader, TraceStoreWriter,
};
use orochi_workload::wiki;
use std::panic::catch_unwind;

fn served_wiki_reports() -> Reports {
    let params = wiki::Params {
        pages: 12,
        view_requests: 60,
        editors: 2,
        ..Default::default()
    };
    let work = AppWorkload {
        app: orochi_apps::wiki::app(),
        workload: wiki::generate(&params, 42),
        seed_sql: Vec::new(),
    };
    serve(&work, &ServeOptions::default()).bundle.reports
}

#[test]
fn hostile_bytes_end_in_ok_or_err_and_never_panic() {
    let reports = served_wiki_reports();
    assert!(reports.total_ops() > 0 && !reports.groupings.is_empty());
    let bytes = reports.to_wire_bytes();
    assert_eq!(Reports::from_wire_bytes(&bytes).unwrap(), reports);

    // A strict prefix of a whole encoding never decodes whole.
    for cut in 0..bytes.len() {
        let decoded = catch_unwind(|| Reports::from_wire_bytes(&bytes[..cut]));
        let decoded = decoded.unwrap_or_else(|_| panic!("cut at {cut} panicked"));
        assert!(decoded.is_err(), "cut at {cut} decoded");
    }

    let mut rng = SplitMix64::new(7);
    for i in 0..1_000 {
        let mut flipped = bytes.clone();
        let at = rng.next_below(bytes.len() as u64) as usize;
        flipped[at] ^= 1 << rng.next_below(8);
        let decoded = catch_unwind(|| Reports::from_wire_bytes(&flipped));
        assert!(decoded.is_ok(), "flip {i} of byte {at} panicked");
    }

    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(Reports::from_wire_bytes(&trailing).is_err());
}

#[test]
fn the_stored_blob_is_the_wire_bytes_and_loads_back_equal() {
    let reports = served_wiki_reports();
    let dir = std::env::temp_dir().join(format!("orochi-reports-blob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
    spill_reports(&mut writer, &reports).unwrap();
    writer.finish().unwrap();
    let reader = TraceStoreReader::open(&dir).unwrap();
    assert_eq!(
        reader.read_blob(REPORTS_BLOB).unwrap(),
        reports.to_wire_bytes()
    );
    assert_eq!(load_reports(&reader).unwrap(), reports);
    let _ = std::fs::remove_dir_all(&dir);

    // A blob that is checksummed but malformed is the store's fault.
    let mut writer = TraceStoreWriter::create(&dir, 0).unwrap();
    let bytes = reports.to_wire_bytes();
    writer
        .write_blob(REPORTS_BLOB, &bytes[..bytes.len() - 1])
        .unwrap();
    writer.finish().unwrap();
    let reader = TraceStoreReader::open(&dir).unwrap();
    let err = load_reports(&reader).unwrap_err();
    assert!(
        matches!(&err, TraceStoreError::Corrupt { detail, .. }
            if detail.starts_with("reports blob malformed: ")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers every request with "ok": the verdicts below never reach it.
fn respond(
    requests: &[(RequestId, HttpRequest)],
    _: &mut AuditContext<'_>,
) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
    let ok = |rid: RequestId| (rid, HttpResponse::ok(rid, "ok"));
    Ok(requests.iter().map(|(rid, _)| ok(*rid)).collect())
}

#[test]
fn a_forged_op_count_rejects_as_missing_on_every_entry_point() {
    let (r1, r2) = (RequestId(1), RequestId(2));
    let trace = Trace {
        events: [r1, r2]
            .into_iter()
            .flat_map(|rid| {
                let req = Event::Request(rid, HttpRequest::get("/x", &[]));
                [req, Event::Response(rid, HttpResponse::ok(rid, "ok"))]
            })
            .collect(),
    };
    let reports = Reports {
        op_counts: [(r1, u32::MAX - 1), (r2, 4)].into_iter().collect(),
        ..Reports::new()
    };
    let missing = GraphRejection::MissingOperation {
        rid: r1,
        opnum: OpNum(1),
    };
    let balanced = trace.ensure_balanced().unwrap();
    assert_eq!(
        process_op_reports(&balanced, &reports).err(),
        Some(missing.clone())
    );
    let expected = Rejection::Graph(missing);
    let config = AuditConfig::new();
    let prepared = AuditContext::prepare(&trace, &reports, &config);
    assert_eq!(prepared.err(), Some(expected.clone()));
    let pool = |n: usize| (0..n).map(|_| FnExecutor::new(respond)).collect::<Vec<_>>();
    let batch = audit(&trace, &reports, &mut pool(1)[0], &config);
    assert_eq!(batch.unwrap_err(), expected);
    let pooled = audit_parallel(&trace, &reports, &mut pool(4), &config);
    assert_eq!(pooled.unwrap_err(), expected);
    for budget in [0, 1, 2] {
        for threads in [1, 4] {
            let streamed =
                audit_streaming_source(&trace, &reports, &mut pool(threads), &config, budget);
            assert_eq!(
                streamed.unwrap_err(),
                expected,
                "budget {budget} @{threads}"
            );
        }
    }
}
