//! What the audit catches: a gallery of misbehaving executors.
//!
//! Each scenario serves an honest run, then tampers with a different
//! part of the executor's output — the response contents, the operation
//! logs, the op counts, the groupings — and shows the audit rejecting.
//! Finally it replays the honest bundle to show completeness.
//!
//! Run with: `cargo run --example adversarial`

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, AuditConfig};
use orochi::server::{Server, ServerConfig};
use orochi::state::{OpLog, OpLogEntry};
use orochi::trace::{Event, HttpRequest};
use orochi_common::ids::OpNum;
use std::collections::HashMap;

fn honest_bundle() -> (
    orochi::server::server::AuditBundle,
    HashMap<String, orochi::php::CompiledScript>,
) {
    let app = orochi::apps::forum::app();
    let scripts = app.compile().unwrap();
    let mut db = app.initial_db();
    for sql in orochi::workload::forum::seed_sql(&orochi::workload::forum::Params::default()) {
        db.execute_autocommit(&sql).0.unwrap();
    }
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: db,
        recording: true,
        seed: 99,
        ..Default::default()
    });
    server.handle(
        HttpRequest::post("/login.php", &[], &[("user", "mallory")]).with_cookie("sess", "mallory"),
    );
    server.handle(HttpRequest::get("/topic.php", &[("id", "1")]).with_cookie("sess", "mallory"));
    server.handle(
        HttpRequest::post("/reply.php", &[], &[("id", "1"), ("body", "hi")])
            .with_cookie("sess", "mallory"),
    );
    server.handle(HttpRequest::get("/topic.php", &[("id", "1")]));
    (server.into_bundle(), scripts)
}

fn verdict(
    label: &str,
    bundle: &orochi::server::server::AuditBundle,
    scripts: &HashMap<String, orochi::php::CompiledScript>,
    config: &AuditConfig,
) {
    let mut verifier = AccPhpExecutor::new(scripts.clone());
    match audit(&bundle.trace, &bundle.reports, &mut verifier, config) {
        Ok(_) => println!("{label:<28} ACCEPTED"),
        Err(r) => println!("{label:<28} REJECTED: {r}"),
    }
}

fn main() {
    let app = orochi::apps::forum::app();
    let mut config = AuditConfig::new();
    let mut db = app.initial_db();
    for sql in orochi::workload::forum::seed_sql(&orochi::workload::forum::Params::default()) {
        db.execute_autocommit(&sql).0.unwrap();
    }
    config.initial_dbs.insert("db:main".to_string(), db);

    // Honest run: must be accepted (Completeness, §2).
    let (bundle, scripts) = honest_bundle();
    verdict("honest executor", &bundle, &scripts, &config);

    // 1. Tampered response body: the server lies about what it sent.
    let (mut b, s) = honest_bundle();
    for event in b.trace.events.iter_mut() {
        if let Event::Response(_, resp) = event {
            if resp.body.contains("Topic 1") {
                resp.body = resp.body.replace("Topic 1", "Topic 1 (sponsored)");
                break;
            }
        }
    }
    verdict("tampered response", &b, &s, &config);

    // 2. Dropped operation: the logs hide a database write.
    let (mut b, s) = honest_bundle();
    let log = b.reports.op_logs.log_mut(0).unwrap();
    let mut entries = log.entries();
    entries.pop();
    *log = OpLog::from_entries(entries);
    verdict("dropped log entry", &b, &s, &config);

    // 3. Reordered log: swap two entries of the database log.
    let (mut b, s) = honest_bundle();
    let log = b.reports.op_logs.log_mut(0).unwrap();
    let mut entries = log.entries();
    if entries.len() >= 2 {
        entries.swap(0, 1);
    }
    *log = OpLog::from_entries(entries);
    verdict("reordered log entries", &b, &s, &config);

    // 4. Inflated op count: M promises an operation that never ran.
    let (mut b, s) = honest_bundle();
    if let Some((_, count)) = b.reports.op_counts.iter_mut().next() {
        *count += 1;
    }
    verdict("wrong op count", &b, &s, &config);

    // 5. Forged session value: rewrite a logged register write.
    let (mut b, s) = honest_bundle();
    'outer: for i in 0.. {
        let Some(log) = b.reports.op_logs.log_mut(i) else {
            break;
        };
        let mut entries: Vec<OpLogEntry> = log.entries();
        for e in entries.iter_mut() {
            if let orochi::state::OpContents::RegisterWrite { value } = &mut e.contents {
                *value = [&**value, &[0xFF]].concat().into();
                *log = OpLog::from_entries(entries);
                break 'outer;
            }
        }
    }
    verdict("forged session write", &b, &s, &config);

    // 6. Scrambled grouping: claim requests with different control flow
    //    share one group. The responses themselves are genuine, but a
    //    grouping is checked advice: the members name different scripts,
    //    so the group diverges and the audit REJECTS with `Divergence`.
    //    A bad grouping cannot buy a second, per-request run.
    let (mut b, s) = honest_bundle();
    let all_rids: Vec<_> = b
        .reports
        .groupings
        .iter()
        .flat_map(|(_, rids)| rids.clone())
        .collect();
    b.reports.groupings = vec![(orochi_common::ids::CtlFlowTag(1), all_rids)];
    verdict("scrambled groupings", &b, &s, &config);

    // 7. Fabricated extra op: append a spurious read to a log.
    let (mut b, s) = honest_bundle();
    let log = b.reports.op_logs.log_mut(0).unwrap();
    let mut entries = log.entries();
    if let Some(first) = entries.first().cloned() {
        entries.push(OpLogEntry {
            rid: first.rid,
            opnum: OpNum(99),
            contents: orochi::state::OpContents::RegisterRead,
        });
    }
    *log = OpLog::from_entries(entries);
    verdict("fabricated extra op", &b, &s, &config);
}
