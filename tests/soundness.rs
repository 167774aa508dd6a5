//! The soundness battery: every kind of executor misbehaviour must be
//! rejected (§2 Soundness, exercised through the built system).
//!
//! Each test serves an honest run of the HotCRP app (chosen because it
//! exercises multi-statement transactions, sessions, and nondeterminism)
//! and then tampers with exactly one part of the trace or reports.
//! Wherever the generative operator library covers a tamper class, the
//! test applies the [`orochi::harness::mutation`] operator (so the
//! battery exercises the same code paths the adversarial campaign
//! fuzzes); tampers with no operator equivalent — value edits in
//! place, wrong initial-state claims — stay hand-written.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, AuditConfig};
use orochi::core::nondet::NondetValue;
use orochi::core::reports::Reports;
use orochi::harness::mutation::{MutationOp, MutationSite};
use orochi::php::CompiledScript;
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};
use orochi::state::{ObjectName, OpContents, OpLog, OpLogEntry, OpType};
use orochi::trace::{Event, HttpRequest, Trace};
use orochi_common::ids::RequestId;
use orochi_common::rng::SplitMix64;
use std::collections::HashMap;

/// Applies one operator at a seeded site; panics if the fixture lost
/// the structure the operator targets, so a workload change that
/// silently empties a tamper class fails loudly.
fn apply_op(
    label: &str,
    op: MutationOp,
    trace: &mut Trace,
    reports: &mut Reports,
    seed: u64,
) -> MutationSite {
    let mut rng = SplitMix64::new(seed);
    let mut touched = std::collections::HashSet::new();
    op.apply(trace, reports, &mut rng, &mut touched)
        .unwrap_or_else(|| panic!("{label}: fixture offers no site for {}", op.name()))
}

fn honest() -> (AuditBundle, HashMap<String, CompiledScript>, AuditConfig) {
    let app = orochi::apps::hotcrp::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 31,
        ..Default::default()
    });
    server.handle(
        HttpRequest::post("/login.php", &[], &[("who", "alice")]).with_cookie("sess", "alice"),
    );
    server.handle(
        HttpRequest::post("/submit.php", &[], &[("title", "T"), ("abstract", "A")])
            .with_cookie("sess", "alice"),
    );
    server.handle(
        HttpRequest::post(
            "/review.php",
            &[],
            &[("id", "1"), ("score", "4"), ("body", "ok")],
        )
        .with_cookie("sess", "alice"),
    );
    server.handle(HttpRequest::get("/paper.php", &[("id", "1")]));
    server.handle(HttpRequest::get("/list.php", &[]));
    let bundle = server.into_bundle();
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), app.initial_db());
    (bundle, scripts, config)
}

fn assert_rejected(
    label: &str,
    trace: &Trace,
    reports: &Reports,
    scripts: &HashMap<String, CompiledScript>,
    config: &AuditConfig,
) {
    let mut verifier = AccPhpExecutor::new(scripts.clone());
    let verdict = audit(trace, reports, &mut verifier, config);
    assert!(verdict.is_err(), "{label}: tampering must be rejected");
}

#[test]
fn honest_run_is_accepted() {
    let (bundle, scripts, config) = honest();
    let mut verifier = AccPhpExecutor::new(scripts);
    audit(&bundle.trace, &bundle.reports, &mut verifier, &config)
        .unwrap_or_else(|r| panic!("honest run rejected: {r}"));
}

#[test]
fn rejects_flipped_status_code() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "status",
        MutationOp::ForgeResponseStatus,
        &mut bundle.trace,
        &mut bundle.reports,
        1,
    );
    assert_rejected("status", &bundle.trace, &bundle.reports, &scripts, &config);
}

#[test]
fn rejects_added_response_header() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "header",
        MutationOp::InjectResponseHeader,
        &mut bundle.trace,
        &mut bundle.reports,
        2,
    );
    assert_rejected("header", &bundle.trace, &bundle.reports, &scripts, &config);
}

#[test]
fn rejects_unbalanced_trace_missing_response() {
    let (mut bundle, scripts, config) = honest();
    let before = bundle.trace.events.len();
    apply_op(
        "missing-response",
        MutationOp::DropResponse,
        &mut bundle.trace,
        &mut bundle.reports,
        3,
    );
    assert_eq!(bundle.trace.events.len(), before - 1);
    assert_rejected(
        "missing-response",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_mislabeled_response() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "mislabel",
        MutationOp::SwapRidLabels,
        &mut bundle.trace,
        &mut bundle.reports,
        4,
    );
    assert_rejected(
        "mislabel",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

/// Finds the db log index.
fn db_log_index(reports: &Reports) -> usize {
    reports
        .op_logs
        .index_of(&ObjectName("db:main".into()))
        .expect("db log present")
}

#[test]
fn rejects_rewritten_sql_in_log() {
    let (mut bundle, scripts, config) = honest();
    let site = apply_op(
        "sql-rewrite",
        MutationOp::RewriteDbQuery,
        &mut bundle.trace,
        &mut bundle.reports,
        5,
    );
    assert_eq!(site.object, "db:main");
    assert_rejected(
        "sql-rewrite",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_forged_write_result() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "write-result",
        MutationOp::ForgeDbWriteResult,
        &mut bundle.trace,
        &mut bundle.reports,
        6,
    );
    assert_rejected(
        "write-result",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_forged_insert_id() {
    // No operator forges last_insert_id specifically (the operator
    // library bumps affected-row counts); keep the hand-written tamper
    // so the insert-id redo check stays covered.
    let (mut bundle, scripts, config) = honest();
    let i = db_log_index(&bundle.reports);
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    'outer: for e in entries.iter_mut() {
        if let OpContents::DbOp { write_results, .. } = &mut e.contents {
            for w in write_results.iter_mut().flatten() {
                if let Some(id) = w.last_insert_id.as_mut() {
                    *id += 41;
                    break 'outer;
                }
            }
        }
    }
    *log = OpLog::from_entries(entries);
    assert_rejected(
        "insert-id",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_commit_flag_flip() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "commit-flip",
        MutationOp::FlipDbCommit,
        &mut bundle.trace,
        &mut bundle.reports,
        7,
    );
    assert_rejected(
        "commit-flip",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_op_moved_to_wrong_object() {
    let (mut bundle, scripts, config) = honest();
    let site = apply_op(
        "wrong-object",
        MutationOp::MoveOpAcrossLogs,
        &mut bundle.trace,
        &mut bundle.reports,
        8,
    );
    assert!(
        site.detail.contains(" from ") && site.detail.contains(" to "),
        "site names both logs: {site}"
    );
    assert_rejected(
        "wrong-object",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_swapped_db_transactions() {
    let (mut bundle, scripts, config) = honest();
    let i = db_log_index(&bundle.reports);
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    // Swap two adjacent transactions from different requests.
    let swap_at = entries
        .windows(2)
        .position(|w| w[0].rid != w[1].rid)
        .expect("adjacent entries from different requests");
    entries.swap(swap_at, swap_at + 1);
    *log = OpLog::from_entries(entries);
    assert_rejected(
        "txn-swap",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_tampered_time_value() {
    let (mut bundle, scripts, config) = honest();
    // Rebuild the nondet log with one time value altered: the program
    // embedded the original in a DB write, so re-execution diverges.
    let rids: Vec<RequestId> = bundle
        .trace
        .ensure_balanced()
        .unwrap()
        .request_ids()
        .collect();
    let mut rebuilt = orochi::core::nondet::NondetLog::new();
    let mut tampered = false;
    for rid in rids {
        for v in bundle.reports.nondet.for_request(rid) {
            let v = match v {
                NondetValue::Time(t) if !tampered => {
                    tampered = true;
                    NondetValue::Time(t + 1)
                }
                other => other.clone(),
            };
            rebuilt.push(rid, v);
        }
    }
    assert!(tampered, "workload records at least one time value");
    bundle.reports.nondet = rebuilt;
    assert_rejected(
        "time-tamper",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_truncated_nondet() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "nondet-truncate",
        MutationOp::TruncateNondet,
        &mut bundle.trace,
        &mut bundle.reports,
        9,
    );
    assert_rejected(
        "nondet-truncate",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_non_monotonic_time_report() {
    // `MutationOp::RegressNondetTime` needs a request recording two
    // time values; no HotCRP request does, so this tamper stays
    // hand-written: reverse every time value so the §4.6 validity
    // check alone must fire.
    let (mut bundle, scripts, config) = honest();
    let rids: Vec<RequestId> = bundle
        .trace
        .ensure_balanced()
        .unwrap()
        .request_ids()
        .collect();
    let mut rebuilt = orochi::core::nondet::NondetLog::new();
    for rid in rids {
        let values = bundle.reports.nondet.for_request(rid).to_vec();
        for v in values {
            let v = match v {
                NondetValue::Time(t) => NondetValue::Time(1_000_000_000 - t),
                other => other,
            };
            rebuilt.push(rid, v);
        }
    }
    bundle.reports.nondet = rebuilt;
    assert_rejected(
        "time-order",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_renumbered_opnums() {
    let (mut bundle, scripts, config) = honest();
    apply_op(
        "opnum-shift",
        MutationOp::ShiftOpnum,
        &mut bundle.trace,
        &mut bundle.reports,
        11,
    );
    assert_rejected(
        "opnum-shift",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_wrong_initial_state_claim() {
    // The verifier holds its own copy of the initial DB (§4.1); if the
    // server actually started from different state, re-execution
    // diverges from the trace.
    let (bundle, scripts, _config) = honest();
    let mut wrong = AuditConfig::new();
    let mut db = orochi::apps::hotcrp::app().initial_db();
    db.execute_autocommit(
        "INSERT INTO papers (title, abstract, author, updated) VALUES ('ghost', 'g', 'x', 1)",
    )
    .0
    .unwrap();
    wrong.initial_dbs.insert("db:main".to_string(), db);
    assert_rejected(
        "initial-state",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &wrong,
    );
}

/// An honest wiki run engineered to exercise the versioned-KV path:
/// the page cache is stored, hit, deleted (edit), re-stored with a new
/// body, and hit again — two differing writes plus reads of both, the
/// structure the KV tampering helpers target.
fn honest_wiki_kv() -> (AuditBundle, HashMap<String, CompiledScript>, AuditConfig) {
    let app = orochi::apps::wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 47,
        ..Default::default()
    });
    server.handle(
        HttpRequest::post("/login.php", &[], &[("user", "alice")]).with_cookie("sess", "alice"),
    );
    server.handle(
        HttpRequest::post("/edit.php", &[], &[("title", "T"), ("body", "v1")])
            .with_cookie("sess", "alice"),
    );
    server.handle(HttpRequest::get("/wiki.php", &[("title", "T")])); // miss + store v1
    server.handle(HttpRequest::get("/wiki.php", &[("title", "T")])); // hit v1
    server.handle(
        HttpRequest::post("/edit.php", &[], &[("title", "T"), ("body", "v2")])
            .with_cookie("sess", "alice"),
    ); // apc_delete
    server.handle(HttpRequest::get("/wiki.php", &[("title", "T")])); // miss + store v2
    server.handle(HttpRequest::get("/wiki.php", &[("title", "T")])); // hit v2
    let bundle = server.into_bundle();
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), app.initial_db());
    (bundle, scripts, config)
}

/// An honest shop run with the same engineered KV structure on the
/// inventory counters (seed, decrement, decrement, read).
fn honest_shop_kv() -> (AuditBundle, HashMap<String, CompiledScript>, AuditConfig) {
    let app = orochi::apps::shop::app();
    let scripts = app.compile().unwrap();
    let params = orochi::workload::shop::Params::scaled(0.01);
    let mut db = app.initial_db();
    for sql in orochi::workload::shop::seed_sql(&params) {
        db.execute_autocommit(&sql).0.unwrap();
    }
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: db.deep_clone(),
        recording: true,
        seed: 53,
        ..Default::default()
    });
    server
        .handle(HttpRequest::post("/login.php", &[], &[("user", "ada")]).with_cookie("sess", "c1"));
    server.handle(HttpRequest::get("/product.php", &[("id", "1")]).with_cookie("sess", "c1"));
    for _ in 0..2 {
        server.handle(
            HttpRequest::post("/cart.php", &[], &[("id", "1"), ("qty", "1")])
                .with_cookie("sess", "c1"),
        );
        server.handle(HttpRequest::post("/checkout.php", &[], &[]).with_cookie("sess", "c1"));
    }
    server.handle(HttpRequest::get("/product.php", &[("id", "1")]).with_cookie("sess", "c1"));
    let bundle = server.into_bundle();
    let mut config = AuditConfig::new();
    config.initial_dbs.insert("db:main".to_string(), db);
    (bundle, scripts, config)
}

#[test]
fn honest_kv_heavy_runs_are_accepted() {
    for (label, (bundle, scripts, config)) in
        [("wiki", honest_wiki_kv()), ("shop", honest_shop_kv())]
    {
        let mut verifier = AccPhpExecutor::new(scripts);
        audit(&bundle.trace, &bundle.reports, &mut verifier, &config)
            .unwrap_or_else(|r| panic!("honest {label} KV run rejected: {r}"));
    }
}

#[test]
fn rejects_dropped_kv_write_on_wiki() {
    let (mut bundle, scripts, config) = honest_wiki_kv();
    assert!(
        orochi::harness::tamper::drop_kv_write(&mut bundle.reports, "page:"),
        "wiki run stores page fragments"
    );
    assert_rejected(
        "wiki-kv-drop",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_reordered_kv_read_on_wiki() {
    let (mut bundle, scripts, config) = honest_wiki_kv();
    assert!(
        orochi::harness::tamper::reorder_kv_read(&mut bundle.reports, "page:"),
        "wiki run reads a page fragment that changed"
    );
    assert_rejected(
        "wiki-kv-reorder",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_dropped_kv_write_on_shop() {
    let (mut bundle, scripts, config) = honest_shop_kv();
    assert!(
        orochi::harness::tamper::drop_kv_write(&mut bundle.reports, "inv:"),
        "shop run writes inventory counters"
    );
    assert_rejected(
        "shop-kv-drop",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn rejects_reordered_kv_read_on_shop() {
    let (mut bundle, scripts, config) = honest_shop_kv();
    assert!(
        orochi::harness::tamper::reorder_kv_read(&mut bundle.reports, "inv:"),
        "shop run reads an inventory counter that changed"
    );
    assert_rejected(
        "shop-kv-reorder",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

/// Session bytes are the server's word: a forged write nesting arrays
/// 200,000 deep must end in a verdict — decoding stops at its depth
/// bound — not in a stack overflow that kills the verifier.
#[test]
fn rejects_deeply_nested_forged_session_instead_of_overflowing() {
    let (mut bundle, scripts, config) = honest_shop_kv();
    let depth = 200_000;
    let mut blob = Vec::with_capacity(5 * depth + 1);
    for _ in 0..depth {
        // An array of one entry, key int 0, holding the next level.
        blob.extend_from_slice(&[5, 1, 0, 0]);
    }
    blob.push(0); // The innermost value: null.
    blob.extend(std::iter::repeat_n(0, depth)); // Each level's next key.
    let name = ObjectName("reg:sess:c1".into());
    let i = bundle
        .reports
        .op_logs
        .index_of(&name)
        .expect("the shop run keeps a session");
    let log = bundle.reports.op_logs.log_mut(i).expect("indexed log");
    // Forge the write the last read sees: that reader's group runs
    // before the writer's is checked, so the verifier must decode it.
    let mut entries = log.entries().to_vec();
    let is = |e: &OpLogEntry, ty: OpType| e.op_type() == ty;
    let last_read = entries
        .iter()
        .rposition(|e| is(e, OpType::RegisterRead))
        .expect("the session is read");
    let seen = entries[..last_read]
        .iter()
        .rposition(|e| is(e, OpType::RegisterWrite))
        .expect("the last read sees a write");
    entries[seen].contents = OpContents::RegisterWrite { value: blob.into() };
    *log = OpLog::from_entries(entries);
    assert_rejected(
        "deep-session",
        &bundle.trace,
        &bundle.reports,
        &scripts,
        &config,
    );
}

#[test]
fn ooo_oracle_agrees_on_honest_and_tampered() {
    use orochi::core::ooo::ooo_audit;
    let (bundle, scripts, config) = honest();
    // Honest: both accept.
    let mut a = AccPhpExecutor::new(scripts.clone());
    let mut b = AccPhpExecutor::new(scripts.clone());
    let grouped = audit(&bundle.trace, &bundle.reports, &mut a, &config);
    let ooo = ooo_audit(&bundle.trace, &bundle.reports, &mut b, &config);
    assert!(
        grouped.is_ok() && ooo.is_ok(),
        "oracles disagree on honest run"
    );
    // Tampered: both reject.
    let mut tampered = bundle;
    for e in tampered.trace.events.iter_mut() {
        if let Event::Response(_, resp) = e {
            resp.body.push('!');
            break;
        }
    }
    let mut a = AccPhpExecutor::new(scripts.clone());
    let mut b = AccPhpExecutor::new(scripts);
    let grouped = audit(&tampered.trace, &tampered.reports, &mut a, &config);
    let ooo = ooo_audit(&tampered.trace, &tampered.reports, &mut b, &config);
    assert!(
        grouped.is_err() && ooo.is_err(),
        "oracles disagree on tampered run"
    );
}

#[test]
fn ooo_oracle_rejects_a_grouping_of_an_unknown_request() {
    use orochi::core::audit::Rejection;
    use orochi::core::ooo::ooo_audit;
    use orochi_common::ids::CtlFlowTag;
    let app = orochi::apps::wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 47,
        ..Default::default()
    });
    for title in ["A", "B", "A"] {
        server.handle(HttpRequest::get("/wiki.php", &[("title", title)]));
    }
    let mut bundle = server.into_bundle();
    let ghost = RequestId(999);
    bundle.reports.groupings.push((CtlFlowTag(1), vec![ghost]));
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), app.initial_db());
    let expected = Rejection::GroupUnknownRequest { rid: ghost };
    let mut a = AccPhpExecutor::new(scripts.clone());
    let grouped = audit(&bundle.trace, &bundle.reports, &mut a, &config);
    assert_eq!(grouped.unwrap_err(), expected);
    let mut b = AccPhpExecutor::new(scripts);
    let ooo = ooo_audit(&bundle.trace, &bundle.reports, &mut b, &config);
    assert_eq!(ooo.unwrap_err(), expected);
}
