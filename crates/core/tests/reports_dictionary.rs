//! The reports' first-use dictionary: hostile tables reject, one shared
//! SELECT costs the audit one parse however often it is referenced, an
//! aborted transaction's texts — which the redo executes — never go
//! through the dictionary, and equal reports give equal bytes whatever
//! handles they hold.

mod support;

use orochi_common::codec::{Encoder, Wire, WireError};
use orochi_common::ids::{OpNum, RequestId};
use orochi_core::exec::FnExecutor;
use orochi_core::graph::GraphRejection;
use orochi_core::{audit, AuditConfig, AuditContext, NondetLog, Rejection, Reports};
use orochi_harness::{serve, AppWorkload, ServeOptions};
use orochi_sqldb::{Database, VersionedDb, WriteOutcome};
use orochi_state::object::{DbWriteResult, ObjectName, OpContents, OpType};
use orochi_state::oplog::{OpLog, OpLogEntry};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
use orochi_workload::wiki;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bundle of one database log holding one committed read-only
/// transaction whose query operands are `operands`, written raw.
fn one_txn_blob(reads: usize, operands: impl Fn(&mut Encoder)) -> Vec<u8> {
    db_log_blob(1, |enc, _| {
        enc.bool(true); // committed
        vec![None::<DbWriteResult>; reads].encode(enc);
        enc.u64(reads as u64);
        operands(enc);
    })
}

/// A bundle of one database log of `txns` transactions, one per request
/// (rids `1..`), whose contents after the optype `txn` writes raw, given
/// the rid.
fn db_log_blob(txns: u64, mut txn: impl FnMut(&mut Encoder, u64)) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u64(0); // no groupings
    enc.u64(1); // one log
    ObjectName::db("main").encode(&mut enc);
    enc.u64(txns);
    for rid in 1..=txns {
        RequestId(rid).encode(&mut enc);
        OpNum(1).encode(&mut enc);
        OpType::DbOp.encode(&mut enc);
        txn(&mut enc, rid);
    }
    enc.u64(txns); // one op per request
    for rid in 1..=txns {
        RequestId(rid).encode(&mut enc);
        enc.u64(1);
    }
    NondetLog::new().encode(&mut enc);
    enc.into_bytes()
}

#[test]
fn hostile_dictionaries_decode_to_stable_errors() {
    let past_table = one_txn_blob(2, |enc| {
        enc.u64(0);
        enc.str("SELECT 1");
        enc.u64(2);
    });
    let before_any_literal = one_txn_blob(1, |enc| enc.u64(1));
    let not_utf8 = one_txn_blob(1, |enc| {
        enc.u64(0);
        enc.bytes(&[0xff, 0xfe]);
    });
    let repeated_literal = one_txn_blob(2, |enc| {
        for _ in 0..2 {
            enc.u64(0);
            enc.str("SELECT 1");
        }
    });
    let valid = one_txn_blob(2, |enc| {
        enc.u64(0);
        enc.str("SELECT 1");
        enc.u64(1);
    });
    let dangling = WireError::Malformed("dictionary reference past its table");
    for (blob, expected) in [
        (past_table, dangling.clone()),
        (before_any_literal, dangling),
        (not_utf8, WireError::Malformed("invalid utf-8")),
        (
            repeated_literal,
            WireError::Malformed("dictionary entry repeats an earlier one"),
        ),
    ] {
        for _ in 0..2 {
            assert_eq!(Reports::from_wire_bytes(&blob).unwrap_err(), expected);
        }
    }
    // The control: the same shape with a reference in range decodes, to
    // one handle.
    let reports = Reports::from_wire_bytes(&valid).unwrap();
    let entry = &reports.op_logs.log(0).unwrap().entries()[0];
    let OpContents::DbOp { queries, .. } = &entry.contents else {
        panic!("a DbOp entry");
    };
    assert!(Arc::ptr_eq(&queries[0], &queries[1]));
}

#[test]
fn an_aborted_transaction_writes_its_texts_literally() {
    // The redo executes every query of an aborted transaction, so its
    // texts cross the wire literally: a shared handle in one is written
    // once per reference and decodes to a handle of its own.
    let select: Arc<str> = "SELECT v FROM t WHERE v LIKE 'x%'".into();
    let mut log = OpLog::new();
    for (rid, succeeded) in [(1, true), (2, false), (3, false)] {
        log.push(OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(1),
            contents: OpContents::DbOp {
                queries: vec![Arc::clone(&select); 2],
                succeeded,
                write_results: vec![None; 2],
            },
        });
    }
    let mut reports = Reports::new();
    reports.op_logs.push(ObjectName::db("main"), log);
    let bytes = reports.to_wire_bytes();
    let copies = bytes
        .windows(select.len())
        .filter(|w| *w == select.as_bytes())
        .count();
    assert_eq!(
        copies,
        1 + 2 * 2,
        "once for the committed reads, then per aborted read"
    );
    let decoded = Reports::from_wire_bytes(&bytes).unwrap();
    assert_eq!(decoded, reports);
    let handles: Vec<Arc<str>> = decoded
        .op_logs
        .log(0)
        .unwrap()
        .entries()
        .iter()
        .flat_map(|entry| match &entry.contents {
            OpContents::DbOp { queries, .. } => queries.clone(),
            _ => panic!("a DbOp entry"),
        })
        .collect();
    assert!(Arc::ptr_eq(&handles[0], &handles[1]));
    for (i, aborted) in handles.iter().enumerate().skip(2) {
        let shares = handles[..i].iter().any(|h| Arc::ptr_eq(h, aborted));
        assert!(!shares, "aborted read {i} shares a handle");
    }
}

#[test]
fn aborted_reads_written_as_references_do_not_decode() {
    // A blob that writes 100,000 reads of rolled-back transactions as
    // references to a long LIKE SELECT does not decode: a reference there
    // reads as a literal's length, and the bytes after it parse no more.
    // Decoded, it would buy 100,000 matches of a 256 KiB pattern.
    let head = "SELECT v FROM t WHERE v LIKE '";
    let pattern = "x".repeat(support::SELECT_BYTES - head.len() - 1);
    let like = format!("{head}{pattern}'");
    let blob = db_log_blob(support::TXNS + 1, |enc, rid| {
        if rid == 1 {
            // A committed read puts the text in the table.
            enc.bool(true);
            vec![None::<DbWriteResult>].encode(enc);
            enc.u64(1);
            enc.u64(0);
            enc.str(&like);
        } else {
            enc.bool(false); // rolled back
            vec![None::<DbWriteResult>; support::READS_PER_TXN].encode(enc);
            enc.u64(support::READS_PER_TXN as u64);
            (0..support::READS_PER_TXN).for_each(|_| enc.u64(1));
        }
    });
    let mut base = Database::new();
    base.execute_autocommit("CREATE TABLE t (v TEXT)")
        .0
        .unwrap();
    base.execute_autocommit("INSERT INTO t (v) VALUES ('x')")
        .0
        .unwrap();
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert(ObjectName::db("main").as_str().to_string(), base);
    let t0 = Instant::now();
    let verdict = Reports::from_wire_bytes(&blob).map(|reports| {
        let trace = Trace { events: Vec::new() };
        audit(&trace, &reports, &mut FnExecutor::new(respond), &config)
    });
    assert_eq!(
        verdict.unwrap_err(),
        WireError::Malformed("dictionary reference past its table")
    );
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
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
fn one_shared_select_is_parsed_once_however_often_it_is_referenced() {
    let blob = support::big_select_reports().to_wire_bytes();
    let references = support::TXNS as usize * support::READS_PER_TXN;
    // The text crosses the wire once; each reference is two bytes (its
    // logged `None` and its table reference).
    assert!(blob.len() < support::SELECT_BYTES + 4 * references);
    let reports = Reports::from_wire_bytes(&blob).unwrap();
    let log = reports.op_logs.log(0).unwrap();

    let t0 = Instant::now();
    let mut base = Database::new();
    base.execute_autocommit("CREATE TABLE t (v TEXT)")
        .0
        .unwrap();
    let mut store = VersionedDb::from_snapshot(&base);
    redo(&mut store, log);
    let selects = store.prepare_selects();
    assert_eq!(selects.len(), 1);
    assert!(selects[0].is_ok());

    // The audit's prologue redoes the same log before the trace shows
    // that no request it names was served.
    let unserved = RequestId(support::TXNS + 1);
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
    // Hashing the text once per reference would be 26 GB of hashing.
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}

fn redo(store: &mut VersionedDb, log: &OpLog) {
    for (seq, entry) in log.iter() {
        let OpContents::DbOp {
            queries,
            succeeded,
            write_results,
        } = &entry.contents
        else {
            panic!("a DbOp entry");
        };
        let logged: Vec<Option<WriteOutcome>> = write_results
            .iter()
            .map(|w| {
                w.map(|w| WriteOutcome {
                    affected: w.affected,
                    last_insert_id: w.last_insert_id,
                })
            })
            .collect();
        store
            .redo_transaction(seq.0, queries, *succeeded, &logged)
            .unwrap();
    }
}

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

/// Every shared operand of `contents`: a committed transaction's SELECT
/// texts, or its written value.
fn shared_operands(contents: &mut OpContents) -> Vec<Operand<'_>> {
    match contents {
        OpContents::DbOp {
            queries,
            succeeded: true,
            write_results,
        } => queries
            .iter_mut()
            .zip(write_results.iter())
            .filter(|(_, w)| w.is_none())
            .map(|(q, _)| Operand::Text(q))
            .collect(),
        OpContents::RegisterWrite { value }
        | OpContents::KvSet {
            value: Some(value), ..
        } => vec![Operand::Value(value)],
        _ => Vec::new(),
    }
}

enum Operand<'a> {
    Text(&'a mut Arc<str>),
    Value(&'a mut Arc<[u8]>),
}

/// Applies `f` to every shared operand of every entry.
fn for_each_operand(reports: &mut Reports, mut f: impl FnMut(Operand<'_>)) {
    for i in 0..reports.op_logs.len() {
        let log = reports.op_logs.log_mut(i).unwrap();
        let mut entries = log.entries().to_vec();
        for entry in &mut entries {
            shared_operands(&mut entry.contents)
                .into_iter()
                .for_each(&mut f);
        }
        *log = OpLog::from_entries(entries);
    }
}

#[test]
fn equal_reports_give_equal_bytes_and_decode_to_shared_handles() {
    // The server logs a fresh handle per operation; the same reports with
    // one handle per distinct text and value are equal as values.
    let fresh = served_wiki_reports();
    let mut shared = fresh.clone();
    let (mut texts, mut values) = (HashMap::new(), HashMap::new());
    for_each_operand(&mut shared, |operand| match operand {
        Operand::Text(t) => *t = Arc::clone(texts.entry(t.to_string()).or_insert(t.clone())),
        Operand::Value(v) => *v = Arc::clone(values.entry(v.to_vec()).or_insert(v.clone())),
    });
    assert_eq!(shared, fresh);
    let bytes = fresh.to_wire_bytes();
    assert_eq!(shared.to_wire_bytes(), bytes);

    // Decoding gives one handle per distinct text and value.
    let mut decoded = Reports::from_wire_bytes(&bytes).unwrap();
    assert_eq!(decoded, fresh);
    let (mut texts, mut values) = (HashMap::new(), HashMap::new());
    let mut operands = 0;
    for_each_operand(&mut decoded, |operand| {
        let same = match operand {
            Operand::Text(t) => Arc::ptr_eq(texts.entry(t.to_string()).or_insert(t.clone()), t),
            Operand::Value(v) => Arc::ptr_eq(values.entry(v.to_vec()).or_insert(v.clone()), v),
        };
        assert!(same, "an equal operand decoded to a second handle");
        operands += 1;
    });
    assert!(operands > texts.len() + values.len(), "the bundle repeats");
}
