//! KV keys cross the wire through the reports' dictionary, so every KV
//! log decoded from one bundle indexes one text table holding every key
//! of the bundle. A log's versioned view must cost that log's own
//! entries, not the table: a bundle of many one-entry KV logs over a
//! large key table is audited in time linear in its size. Live heap
//! bytes are counted at the allocator seam ([`TrackingAllocator`]), so
//! the test has the process to itself: this file holds one test.

use orochi_common::codec::{Encoder, Wire};
use orochi_common::ids::{OpNum, RequestId};
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::exec::FnExecutor;
use orochi_core::graph::GraphRejection;
use orochi_core::{audit, AuditConfig, AuditContext, NondetLog, Rejection, Reports};
use orochi_state::object::{ObjectName, OpType};
use orochi_state::VersionedKv;
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Distinct keys, each read once by the first log.
const KEYS: u64 = 200_000;

/// One-entry KV logs after it, each deleting one of those keys.
const LOGS: u64 = 20_000;

/// A log of `KEYS` gets of new keys, then `LOGS` logs of one delete of
/// an earlier key each, all by request 1, with `M(1)` covering them.
fn one_key_per_log_blob() -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u64(0); // no groupings
    enc.u64(1 + LOGS);
    let entry = |enc: &mut Encoder, opnum: u64, ty: OpType| {
        RequestId(1).encode(enc);
        OpNum(opnum as u32).encode(enc);
        ty.encode(enc);
    };
    ObjectName::kv("gets").encode(&mut enc);
    enc.u64(KEYS);
    for k in 0..KEYS {
        entry(&mut enc, 1 + k, OpType::KvGet);
        enc.u64(0); // a new dictionary text: the key
        enc.str(&format!("k{k}"));
    }
    for i in 0..LOGS {
        ObjectName::kv(&format!("s{i}")).encode(&mut enc);
        enc.u64(1);
        entry(&mut enc, 1 + KEYS + i, OpType::KvSet);
        enc.u64(1 + i * (KEYS / LOGS)); // a reference to an earlier key
        enc.bool(false); // a delete
    }
    enc.u64(1);
    RequestId(1).encode(&mut enc);
    enc.u64(KEYS + LOGS);
    NondetLog::new().encode(&mut enc);
    enc.into_bytes()
}

/// Answers every request with "ok": the verdict below never reaches it.
fn respond(
    requests: &[(RequestId, HttpRequest)],
    _: &mut AuditContext<'_>,
) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
    let ok = |rid: RequestId| (rid, HttpResponse::ok(rid, "ok"));
    Ok(requests.iter().map(|(rid, _)| ok(*rid)).collect())
}

#[test]
fn one_entry_kv_logs_over_a_large_shared_key_table_cost_their_own_entries() {
    let blob = one_key_per_log_blob();
    let t0 = Instant::now();
    let reports = Reports::from_wire_bytes(&blob).unwrap();
    assert_eq!(reports.op_logs.len() as u64, 1 + LOGS);

    // One log's view: a slot per key of the table would be 800 KB.
    let log = reports.op_logs.log(1).unwrap();
    alloc_tracking::reset_peak();
    let before = alloc_tracking::current_bytes();
    let kv = VersionedKv::build(log);
    let peak = alloc_tracking::peak_bytes() - before;
    assert_eq!((kv.num_keys(), kv.num_versions()), (1, 1));
    drop(kv);
    assert!(peak <= 1 << 10, "a one-entry view peaked at {peak} bytes");

    // The prologue builds every KV log's view before the trace shows
    // that the request the logs name was never served.
    let unserved = RequestId(2);
    let trace = Trace {
        events: vec![
            Event::Request(unserved, HttpRequest::get("/x", &[])),
            Event::Response(unserved, HttpResponse::ok(unserved, "ok")),
        ],
    };
    let verdict = audit(
        &trace,
        &reports,
        &mut FnExecutor::new(respond),
        &AuditConfig::new(),
    );
    assert_eq!(
        verdict.unwrap_err(),
        Rejection::Graph(GraphRejection::LogEntryUnknownRequest { rid: RequestId(1) })
    );
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}
