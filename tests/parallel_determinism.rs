//! The parallel-audit determinism suite: at every thread count the
//! pooled audit must produce the *same verdict and the same failure
//! diagnostic* as the sequential audit — for honest runs and for every
//! tampering dimension of the soundness battery.
//!
//! The parallel audit's contract (see `orochi_core::audit`) is that only
//! scheduling-dependent performance counters (the dedup hit/miss split)
//! may vary with the thread count; everything the verifier *decides* is
//! byte-identical. These tests pin that contract.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_parallel, AuditConfig, AuditOutcome, Rejection};
use orochi::core::precedence::create_time_precedence_graph;
use orochi::core::reports::Reports;
use orochi::php::CompiledScript;
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};
use orochi::state::{ObjectName, OpContents, OpLog};
use orochi::trace::{Event, HttpRequest, Trace};
use orochi_common::ids::RequestId;
use std::collections::HashMap;

const THREADS: &[usize] = &[1, 2, 8];

/// An honest HotCRP run: multi-statement transactions, sessions, and
/// nondeterminism (the same shape the soundness battery uses).
fn honest_hotcrp() -> (AuditBundle, HashMap<String, CompiledScript>, AuditConfig) {
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

/// An honest wiki run with enough Zipf traffic to form real groups, so
/// the pool actually has independent groups to schedule.
fn honest_wiki() -> (AuditBundle, HashMap<String, CompiledScript>, AuditConfig) {
    use orochi::workload::wiki;
    let app = orochi::apps::wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 7,
        ..Default::default()
    });
    let workload = wiki::generate(&wiki::Params::scaled(0.02), 11);
    for req in workload.setup.iter().chain(workload.requests.iter()) {
        server.handle(req.clone());
    }
    let bundle = server.into_bundle();
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), app.initial_db());
    (bundle, scripts, config)
}

/// Runs the pooled audit with `threads` fresh executors.
fn audit_at(
    trace: &Trace,
    reports: &Reports,
    scripts: &HashMap<String, CompiledScript>,
    config: &AuditConfig,
    threads: usize,
) -> Result<AuditOutcome, Rejection> {
    let mut executors: Vec<AccPhpExecutor> = (0..threads)
        .map(|_| AccPhpExecutor::new(scripts.clone()))
        .collect();
    audit_parallel(trace, reports, &mut executors, config)
}

/// Asserts that the sequential audit and the pooled audit at every
/// thread count agree exactly: same verdict, same diagnostic (by value
/// and rendered message), same determinism-relevant counters.
fn assert_determinism(
    label: &str,
    bundle: &AuditBundle,
    scripts: &HashMap<String, CompiledScript>,
    config: &AuditConfig,
) {
    let mut seq_exec = AccPhpExecutor::new(scripts.clone());
    let sequential = audit(&bundle.trace, &bundle.reports, &mut seq_exec, config);
    for &threads in THREADS {
        let pooled = audit_at(&bundle.trace, &bundle.reports, scripts, config, threads);
        match (&sequential, &pooled) {
            (Ok(s), Ok(p)) => {
                let (s, p) = (&s.stats, &p.stats);
                assert_eq!(
                    (s.groups_executed, s.requests_reexecuted),
                    (p.groups_executed, p.requests_reexecuted),
                    "{label}@{threads}: group/request counters diverged"
                );
                assert_eq!(
                    (s.register_ops, s.kv_ops, s.db_txns, s.db_queries),
                    (p.register_ops, p.kv_ops, p.db_txns, p.db_queries),
                    "{label}@{threads}: op counters diverged"
                );
                // The dedup *split* may shift with scheduling, but every
                // SELECT is either deduped or issued.
                assert_eq!(
                    s.db_queries_deduped + s.db_queries_issued,
                    p.db_queries_deduped + p.db_queries_issued,
                    "{label}@{threads}: SELECT accounting diverged"
                );
            }
            (Err(s), Err(p)) => {
                assert_eq!(s, p, "{label}@{threads}: rejection diverged");
                assert_eq!(
                    s.to_string(),
                    p.to_string(),
                    "{label}@{threads}: diagnostic text diverged"
                );
            }
            (s, p) => panic!(
                "{label}@{threads}: verdict diverged: sequential {:?} vs parallel {:?}",
                s.as_ref().err().map(|e| e.to_string()),
                p.as_ref().err().map(|e| e.to_string()),
            ),
        }
    }
}

/// The Fig. 6 frontier is an index-ordered set, so the time-precedence
/// edge list must be identical across constructions — the old hash-set
/// frontier emitted edges in per-run-random order, which this test
/// exists to keep dead. Also pins the ordering contract itself: edges
/// arrive grouped by the arriving request in trace order, with each
/// group's sources ascending by arrival index.
#[test]
fn time_precedence_edge_order_is_deterministic() {
    use orochi::trace::{HttpRequest as Req, HttpResponse as Resp};
    // A synthetic trace with real concurrency: staggered epochs of
    // varying width, plus one long-running request spanning them all.
    let mut events = Vec::new();
    let straggler = RequestId(10_000);
    events.push(Event::Request(straggler, Req::get("/slow", &[])));
    let mut next = 1u64;
    for epoch in 0..40u64 {
        let width = epoch % 7 + 1;
        let base = next;
        for i in 0..width {
            events.push(Event::Request(RequestId(base + i), Req::get("/x", &[])));
        }
        // Close the epoch's requests in reverse arrival order so the
        // frontier insert order differs from index order.
        for i in (0..width).rev() {
            let rid = RequestId(base + i);
            events.push(Event::Response(rid, Resp::ok(rid, "ok")));
        }
        next += width;
    }
    events.push(Event::Response(straggler, Resp::ok(straggler, "ok")));
    let trace = orochi::trace::Trace { events };
    let balanced = trace.ensure_balanced().unwrap();

    let first = create_time_precedence_graph(&balanced);
    assert!(
        !first.edges.is_empty(),
        "the trace must exercise the frontier"
    );
    let pos: HashMap<RequestId, usize> = balanced
        .request_ids()
        .enumerate()
        .map(|(i, r)| (r, i))
        .collect();
    let mut prev: Option<(usize, usize)> = None;
    for (from, to) in &first.edges {
        let (f, t) = (pos[from], pos[to]);
        if let Some((pf, pt)) = prev {
            assert!(
                pt < t || (pt == t && pf < f),
                "edges must be grouped by arrival with ascending sources: \
                 ({pf},{pt}) then ({f},{t})"
            );
        }
        prev = Some((f, t));
    }
    for _ in 0..4 {
        assert_eq!(
            create_time_precedence_graph(&balanced).edges,
            first.edges,
            "edge order drifted between runs"
        );
    }
}

#[test]
fn honest_hotcrp_accepts_at_every_thread_count() {
    let (bundle, scripts, config) = honest_hotcrp();
    assert_determinism("hotcrp-honest", &bundle, &scripts, &config);
}

#[test]
fn honest_wiki_accepts_at_every_thread_count() {
    let (bundle, scripts, config) = honest_wiki();
    assert_determinism("wiki-honest", &bundle, &scripts, &config);
}

fn db_log_index(reports: &Reports) -> usize {
    reports
        .op_logs
        .index_of(&ObjectName("db:main".into()))
        .expect("db log present")
}

#[test]
fn tampered_status_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    for e in bundle.trace.events.iter_mut() {
        if let Event::Response(_, resp) = e {
            resp.status = 503;
            break;
        }
    }
    assert_determinism("status-flip", &bundle, &scripts, &config);
}

#[test]
fn tampered_sql_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    let i = db_log_index(&bundle.reports);
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    for e in entries.iter_mut() {
        if let OpContents::DbOp { queries, .. } = &mut e.contents {
            if let Some(q) = queries.iter_mut().find(|q| q.starts_with("INSERT")) {
                *q = q.replace("INSERT", "INSERT ").into();
                break;
            }
        }
    }
    *log = OpLog::from_entries(entries);
    assert_determinism("sql-rewrite", &bundle, &scripts, &config);
}

#[test]
fn tampered_commit_flag_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    let i = db_log_index(&bundle.reports);
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    for e in entries.iter_mut() {
        if let OpContents::DbOp { succeeded, .. } = &mut e.contents {
            *succeeded = !*succeeded;
            break;
        }
    }
    *log = OpLog::from_entries(entries);
    assert_determinism("commit-flip", &bundle, &scripts, &config);
}

#[test]
fn truncated_nondet_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    let rids: Vec<RequestId> = bundle
        .trace
        .ensure_balanced()
        .unwrap()
        .request_ids()
        .collect();
    let mut rebuilt = orochi::core::nondet::NondetLog::new();
    let mut dropped = false;
    for rid in rids {
        let values = bundle.reports.nondet.for_request(rid);
        let keep = if !dropped && !values.is_empty() {
            dropped = true;
            &values[..values.len() - 1]
        } else {
            values
        };
        for v in keep {
            rebuilt.push(rid, v.clone());
        }
    }
    assert!(dropped, "workload records nondeterminism");
    bundle.reports.nondet = rebuilt;
    assert_determinism("nondet-truncate", &bundle, &scripts, &config);
}

#[test]
fn renumbered_opnums_reject_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    let i = db_log_index(&bundle.reports);
    let log = bundle.reports.op_logs.log_mut(i).unwrap();
    let mut entries = log.entries().to_vec();
    if let Some(e) = entries.first_mut() {
        e.opnum = orochi_common::ids::OpNum(e.opnum.0 + 1);
    }
    *log = OpLog::from_entries(entries);
    assert_determinism("opnum-shift", &bundle, &scripts, &config);
}

#[test]
fn op_moved_to_wrong_object_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    let i = db_log_index(&bundle.reports);
    let entry = {
        let log = bundle.reports.op_logs.log_mut(i).unwrap();
        let mut entries = log.entries().to_vec();
        let moved = entries.remove(0);
        *log = OpLog::from_entries(entries);
        moved
    };
    let reg_index = bundle
        .reports
        .op_logs
        .index_of(&ObjectName("reg:sess:alice".into()))
        .expect("session log present");
    let log = bundle.reports.op_logs.log_mut(reg_index).unwrap();
    let mut entries = log.entries().to_vec();
    entries.insert(0, entry);
    *log = OpLog::from_entries(entries);
    assert_determinism("wrong-object", &bundle, &scripts, &config);
}

#[test]
fn unknown_request_in_grouping_rejects_identically() {
    let (mut bundle, scripts, config) = honest_hotcrp();
    // A grouping that names a request the trace does not contain; the
    // pre-pass surfaces it only after every earlier group re-executes
    // cleanly, matching the sequential walk.
    bundle
        .reports
        .groupings
        .push((orochi_common::ids::CtlFlowTag(0xdead), vec![RequestId(999)]));
    assert_determinism("ghost-grouping", &bundle, &scripts, &config);
}

#[test]
fn tampered_wiki_body_rejects_identically() {
    let (mut bundle, scripts, config) = honest_wiki();
    for e in bundle.trace.events.iter_mut() {
        if let Event::Response(_, resp) = e {
            resp.body.push('!');
            break;
        }
    }
    assert_determinism("wiki-body", &bundle, &scripts, &config);
}
