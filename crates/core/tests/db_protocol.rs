//! The §A.7 per-query transaction protocol, tested directly against the
//! audit context: queries are checked one at a time, interleaved with
//! program execution, and every protocol violation has a precise
//! rejection.

use orochi_common::ids::{CtlFlowTag, OpNum, RequestId};
use orochi_core::audit::{audit, AuditConfig, Rejection};
use orochi_core::exec::{DbQueryResult, FnExecutor};
use orochi_core::nondet::NondetValue;
use orochi_core::reports::Reports;
use orochi_sqldb::{Database, SqlValue};
use orochi_state::object::{DbWriteResult, ObjectName, OpContents};
use orochi_state::oplog::{OpLog, OpLogEntry, OpLogs};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

const RID: RequestId = RequestId(1);
const INSERT: &str = "INSERT INTO t (v) VALUES ('x')";
const SELECT: &str = "SELECT id, v FROM t";

fn trace(body: &str) -> Trace {
    Trace {
        events: vec![
            Event::Request(RID, HttpRequest::get("/t.php", &[])),
            Event::Response(RID, HttpResponse::ok(RID, body)),
        ],
    }
}

/// One committed transaction: INSERT (id 1) then SELECT.
fn reports() -> Reports {
    let entry = OpLogEntry {
        rid: RID,
        opnum: OpNum(1),
        contents: OpContents::DbOp {
            queries: vec![INSERT.into(), SELECT.into()],
            succeeded: true,
            write_results: vec![
                Some(DbWriteResult {
                    affected: 1,
                    last_insert_id: Some(1),
                }),
                None,
            ],
        },
    };
    Reports {
        groupings: vec![(CtlFlowTag(1), vec![RID])],
        op_logs: OpLogs::from_pairs(vec![(
            ObjectName("db:main".into()),
            OpLog::from_entries(vec![entry]),
        )]),
        op_counts: [(RID, 1)].into_iter().collect(),
        nondet: Default::default(),
    }
}

fn config() -> AuditConfig {
    let mut db = Database::new();
    db.execute_autocommit("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
        .0
        .unwrap();
    let mut config = AuditConfig::new();
    config.initial_dbs.insert("db:main".to_string(), db);
    config
}

#[test]
fn faithful_transaction_accepted() {
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        let w = ctx.db_query(&mut h, INSERT)?;
        assert!(matches!(&w, DbQueryResult::Ok(o) if o.write().is_some()));
        let r = ctx.db_query(&mut h, SELECT)?;
        // The SELECT sees the INSERT through intra-transaction
        // visibility (ts = s*MAXQ + q).
        let body = match &r {
            DbQueryResult::Ok(outcome) => {
                let rows = outcome.rows().expect("a SELECT yields rows");
                assert_eq!(rows[0][1], SqlValue::Text("x".into()));
                rows.len().to_string()
            }
            other => panic!("expected rows, got {other:?}"),
        };
        let ok = ctx.db_finish(h, true)?;
        assert!(ok);
        Ok(vec![(rid, HttpResponse::ok(rid, body))])
    });
    audit(&trace("1"), &reports(), &mut exec, &config())
        .unwrap_or_else(|r| panic!("faithful transaction rejected: {r}"));
}

#[test]
fn extra_query_rejected() {
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        ctx.db_query(&mut h, INSERT)?;
        ctx.db_query(&mut h, SELECT)?;
        ctx.db_query(&mut h, SELECT)?; // One more than logged.
        let _ = ctx.db_finish(h, true)?;
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports(), &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::DbTooManyQueries { .. }));
}

#[test]
fn missing_query_rejected() {
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        ctx.db_query(&mut h, INSERT)?;
        let _ = ctx.db_finish(h, true)?; // Logged 2, issued 1.
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports(), &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::DbQueryCountMismatch { .. }));
}

#[test]
fn different_sql_text_rejected() {
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        ctx.db_query(&mut h, "INSERT INTO t (v) VALUES ('y')")?;
        ctx.db_query(&mut h, SELECT)?;
        let _ = ctx.db_finish(h, true)?;
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports(), &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::DbQueryMismatch { query: 1, .. }));
}

#[test]
fn rollback_against_committed_log_rejected() {
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        ctx.db_query(&mut h, INSERT)?;
        ctx.db_query(&mut h, SELECT)?;
        let _ = ctx.db_finish(h, false)?; // Program rolls back; log says committed.
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports(), &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::DbCommitMismatch { .. }));
}

#[test]
fn state_op_inside_transaction_rejected() {
    // The SSCO model forbids nesting object operations in a transaction
    // (§4.4).
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let mut h = ctx.db_begin(rid, &ObjectName("db:main".into()))?;
        ctx.db_query(&mut h, INSERT)?;
        // A register read while the transaction is open.
        let _ = ctx.register_read(rid, &ObjectName("reg:sess:x".into()))?;
        ctx.db_query(&mut h, SELECT)?;
        let _ = ctx.db_finish(h, true)?;
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports(), &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::StateOpDuringTxn { .. }));
}

#[test]
fn nondet_exhaustion_and_leftover_rejected() {
    // No nondet was recorded: consuming any must reject.
    let mut exec = FnExecutor::new(|requests, ctx| {
        let (rid, _) = requests[0];
        let time = |v: &NondetValue| matches!(v, NondetValue::Time(_)).then_some(());
        ctx.nondet(rid, time)?;
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let mut reports0 = reports();
    reports0.op_counts.insert(RID, 0);
    reports0.op_logs = OpLogs::new();
    let err = audit(&trace("1"), &reports0, &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::NondetExhausted { .. }));

    // A recorded value left unconsumed must also reject.
    let mut reports1 = reports();
    reports1.op_counts.insert(RID, 0);
    reports1.op_logs = OpLogs::new();
    reports1
        .nondet
        .push(RID, orochi_core::nondet::NondetValue::Time(5));
    let mut exec = FnExecutor::new(|requests, _ctx| {
        let (rid, _) = requests[0];
        Ok(vec![(rid, HttpResponse::ok(rid, "1"))])
    });
    let err = audit(&trace("1"), &reports1, &mut exec, &config()).unwrap_err();
    assert!(matches!(err, Rejection::NondetLeftover { .. }));
}
