//! End-to-end pipeline tests: serve a workload on the online executor,
//! collect the trace and reports, and audit with the SSCO verifier.
//!
//! These are the moral equivalent of the paper's Completeness property
//! (§2) exercised through the whole built system: an honest server must
//! always pass the audit, sequentially and under concurrency, across all
//! three applications and all object types.

use orochi::accphp::AccPhpExecutor;
use orochi::apps::{forum, hotcrp, shop, wiki, AppDefinition};
use orochi::core::audit::{audit, AuditConfig};
use orochi::core::ooo::ooo_audit;
use orochi::server::{Server, ServerConfig};
use orochi::trace::HttpRequest;
use std::collections::HashMap;
use std::sync::Arc;

fn audit_config(app: &AppDefinition) -> AuditConfig {
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), app.initial_db());
    config
}

fn serve_and_audit(app: &AppDefinition, requests: Vec<HttpRequest>) {
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 7,
        ..Default::default()
    });
    for req in requests {
        server.handle(req);
    }
    let bundle = server.into_bundle();
    let mut executor = AccPhpExecutor::new(scripts);
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &audit_config(app),
    );
    match outcome {
        Ok(out) => {
            assert!(out.stats.requests_reexecuted > 0);
        }
        Err(rejection) => panic!("honest {} run rejected: {rejection}", app.name),
    }
}

#[test]
fn wiki_sequential_roundtrip() {
    let app = wiki::app();
    let mut requests = Vec::new();
    // Alice logs in and writes two pages; everyone reads them.
    requests.push(
        HttpRequest::post("/login.php", &[], &[("user", "alice")]).with_cookie("sess", "alice"),
    );
    for (title, body) in [
        ("Rust", "Systems language."),
        ("Audit", "Check the server!"),
    ] {
        requests.push(
            HttpRequest::post("/edit.php", &[], &[("title", title), ("body", body)])
                .with_cookie("sess", "alice"),
        );
    }
    for _ in 0..5 {
        requests.push(HttpRequest::get("/wiki.php", &[("title", "Rust")]));
        requests.push(HttpRequest::get("/wiki.php", &[("title", "Audit")]));
        requests.push(HttpRequest::get("/wiki.php", &[("title", "Missing")]));
    }
    serve_and_audit(&app, requests);
}

#[test]
fn forum_sequential_roundtrip() {
    let app = forum::app();
    let mut requests =
        vec![HttpRequest::post("/login.php", &[], &[("user", "bob")]).with_cookie("sess", "bob")];
    // Seed a topic via reply failure (no topic) then through the DB
    // schema: create a topic by direct insert is not exposed, so drive
    // the app: replies to a missing topic 404, then a topic is created
    // by an admin script — here we just exercise the index and topic
    // pages plus failed replies.
    requests.push(HttpRequest::get("/forum.php", &[]));
    requests.push(
        HttpRequest::post("/reply.php", &[], &[("id", "1"), ("body", "first!")])
            .with_cookie("sess", "bob"),
    );
    requests.push(HttpRequest::get("/topic.php", &[("id", "1")]));
    serve_and_audit(&app, requests);
}

#[test]
fn hotcrp_sequential_roundtrip() {
    let app = hotcrp::app();
    let mut requests = vec![
        HttpRequest::post("/login.php", &[], &[("who", "carol")]).with_cookie("sess", "carol")
    ];
    requests.push(
        HttpRequest::post(
            "/submit.php",
            &[],
            &[("title", "SSCO"), ("abstract", "Auditing servers.")],
        )
        .with_cookie("sess", "carol"),
    );
    requests.push(
        HttpRequest::post(
            "/review.php",
            &[],
            &[("id", "1"), ("score", "4"), ("body", "Nice paper.")],
        )
        .with_cookie("sess", "carol"),
    );
    // Updated review (version bump).
    requests.push(
        HttpRequest::post(
            "/review.php",
            &[],
            &[("id", "1"), ("score", "5"), ("body", "Great paper.")],
        )
        .with_cookie("sess", "carol"),
    );
    requests.push(HttpRequest::get("/list.php", &[]));
    requests.push(HttpRequest::get("/paper.php", &[("id", "1")]));
    requests.push(HttpRequest::get("/paper.php", &[("id", "99")]));
    serve_and_audit(&app, requests);
}

#[test]
fn concurrent_wiki_roundtrip() {
    let app = wiki::app();
    let scripts = app.compile().unwrap();
    let server = Arc::new(Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 11,
        ..Default::default()
    }));
    // Writers create pages while readers hammer them concurrently.
    let mut handles = Vec::new();
    for w in 0..2 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let user = format!("writer{w}");
            server.handle(
                HttpRequest::post("/login.php", &[], &[("user", &user)]).with_cookie("sess", &user),
            );
            for i in 0..10 {
                let title = format!("Page{}", i % 4);
                let body = format!("content {w} {i}");
                server.handle(
                    HttpRequest::post("/edit.php", &[], &[("title", &title), ("body", &body)])
                        .with_cookie("sess", &user),
                );
            }
        }));
    }
    for _ in 0..4 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let title = format!("Page{}", i % 5);
                server.handle(HttpRequest::get("/wiki.php", &[("title", &title)]));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let server = Arc::try_unwrap(server).ok().expect("threads joined");
    let bundle = server.into_bundle();
    let mut executor = AccPhpExecutor::new(scripts);
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &audit_config(&app),
    )
    .unwrap_or_else(|r| panic!("honest concurrent run rejected: {r}"));
    assert_eq!(outcome.stats.requests_reexecuted, 122);
    // The read-heavy workload must have deduplicated queries.
    assert!(outcome.stats.db_queries_deduped > 0);
}

#[test]
fn grouped_and_scalar_verifiers_agree() {
    let app = wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 3,
        ..Default::default()
    });
    server.handle(HttpRequest::post("/login.php", &[], &[("user", "a")]).with_cookie("sess", "a"));
    server.handle(
        HttpRequest::post("/edit.php", &[], &[("title", "T"), ("body", "B")])
            .with_cookie("sess", "a"),
    );
    for _ in 0..6 {
        server.handle(HttpRequest::get("/wiki.php", &[("title", "T")]));
    }
    let bundle = server.into_bundle();

    // Grouped (SIMD-on-demand) with query dedup: fewer dispatches run
    // than the trace represents, and some SELECTs come from the cache.
    let mut grouped = AccPhpExecutor::new(scripts.clone());
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut grouped,
        &audit_config(&app),
    )
    .unwrap_or_else(|r| panic!("grouped audit rejected: {r}"));
    assert!(grouped.stats.grouped > 0, "grouped mode must engage");
    assert!(outcome.stats.vm_dispatch_executed < outcome.stats.vm_dispatch_total);
    assert!(outcome.stats.db_queries_deduped > 0);

    // Scalar-forced without dedup ("simple re-execution"): every
    // dispatch runs and every SELECT is issued.
    let mut scalar = AccPhpExecutor::new(scripts.clone());
    scalar.force_scalar = true;
    let mut no_dedup = audit_config(&app);
    no_dedup.query_dedup = false;
    let outcome = audit(&bundle.trace, &bundle.reports, &mut scalar, &no_dedup)
        .unwrap_or_else(|r| panic!("scalar audit rejected: {r}"));
    assert_eq!(scalar.stats.grouped, 0);
    assert_eq!(
        outcome.stats.vm_dispatch_executed,
        outcome.stats.vm_dispatch_total
    );
    assert_eq!(outcome.stats.db_queries_deduped, 0);

    // Out-of-order oracle (appendix Fig. 13).
    let mut ooo_exec = AccPhpExecutor::new(scripts);
    ooo_audit(
        &bundle.trace,
        &bundle.reports,
        &mut ooo_exec,
        &audit_config(&app),
    )
    .unwrap_or_else(|r| panic!("OOO audit rejected: {r}"));
}

#[test]
fn tampered_response_is_rejected() {
    let app = wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    server.handle(HttpRequest::post("/login.php", &[], &[("user", "a")]).with_cookie("sess", "a"));
    server.handle(
        HttpRequest::post("/edit.php", &[], &[("title", "T"), ("body", "B")])
            .with_cookie("sess", "a"),
    );
    server.handle(HttpRequest::get("/wiki.php", &[("title", "T")]));
    let mut bundle = server.into_bundle();
    // The executor lies about one response body.
    for event in bundle.trace.events.iter_mut() {
        if let orochi::trace::Event::Response(_, resp) = event {
            if resp.body.contains("content") || resp.body.contains("wiki") {
                resp.body = resp.body.replace("wiki", "hacked");
                break;
            }
        }
    }
    let mut executor = AccPhpExecutor::new(scripts);
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &audit_config(&app),
    );
    assert!(outcome.is_err(), "tampered response must be rejected");
}

#[test]
fn dropped_log_entry_is_rejected() {
    let app = hotcrp::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    server.handle(HttpRequest::post("/login.php", &[], &[("who", "x")]).with_cookie("sess", "x"));
    server.handle(HttpRequest::get("/list.php", &[]));
    let mut bundle = server.into_bundle();
    // Drop the last entry of the first non-empty log.
    let mut dropped = false;
    for i in 0.. {
        match bundle.reports.op_logs.log_mut(i) {
            None => break,
            Some(log) if log.is_empty() => continue,
            Some(log) => {
                let mut entries = log.entries().to_vec();
                entries.pop();
                *log = orochi::state::OpLog::from_entries(entries);
                dropped = true;
                break;
            }
        }
    }
    assert!(dropped, "test needs a log entry to drop");
    let mut executor = AccPhpExecutor::new(scripts);
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &audit_config(&app),
    );
    assert!(outcome.is_err(), "dropped log entry must be rejected");
}

#[test]
fn all_apps_accept_with_empty_workload() {
    for app in [wiki::app(), forum::app(), hotcrp::app(), shop::app()] {
        let scripts = app.compile().unwrap();
        let server = Server::new(ServerConfig {
            scripts: scripts.clone(),
            initial_db: app.initial_db(),
            recording: true,
            seed: 1,
            ..Default::default()
        });
        let bundle = server.into_bundle();
        let mut executor = AccPhpExecutor::new(scripts);
        audit(
            &bundle.trace,
            &bundle.reports,
            &mut executor,
            &audit_config(&app),
        )
        .unwrap_or_else(|r| panic!("{}: empty workload rejected: {r}", app.name));
    }
}

#[test]
fn unknown_paths_roundtrip() {
    let app = wiki::app();
    let scripts = app.compile().unwrap();
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: app.initial_db(),
        recording: true,
        seed: 2,
        ..Default::default()
    });
    server.handle(HttpRequest::get("/nope.php", &[]));
    server.handle(HttpRequest::get("/nope.php", &[]));
    let bundle = server.into_bundle();
    let mut executor = AccPhpExecutor::new(scripts);
    audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &audit_config(&app),
    )
    .unwrap_or_else(|r| panic!("404 workload rejected: {r}"));
}

/// The Poirot-style session counter: state flows through registers and
/// must replay exactly.
#[test]
fn session_counter_roundtrip() {
    use std::collections::HashMap as Map;
    let mut scripts_src: Map<&str, &str> = Map::new();
    scripts_src.insert(
        "/c.php",
        "<?php session_start();
         $_SESSION['n'] = intval($_SESSION['n']) + 1;
         echo 'count=' . $_SESSION['n'];",
    );
    let mut scripts = HashMap::new();
    for (path, src) in scripts_src {
        scripts.insert(
            path.to_string(),
            orochi::php::compile(path, &orochi::php::parse_script(src).unwrap()).unwrap(),
        );
    }
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: orochi::sqldb::Database::new(),
        recording: true,
        seed: 1,
        ..Default::default()
    });
    for user in ["u1", "u2", "u1", "u1", "u2"] {
        server.handle(HttpRequest::get("/c.php", &[]).with_cookie("sess", user));
    }
    let bundle = server.into_bundle();
    // Sanity: u1 reached 3, u2 reached 2.
    let balanced = bundle.trace.ensure_balanced().unwrap();
    let bodies: Vec<String> = balanced
        .request_ids()
        .map(|rid| balanced.response(rid).body.clone())
        .collect();
    assert!(bodies.contains(&"count=3".to_string()));
    let mut executor = AccPhpExecutor::new(scripts);
    audit(
        &bundle.trace,
        &bundle.reports,
        &mut executor,
        &AuditConfig::new(),
    )
    .unwrap_or_else(|r| panic!("session counter rejected: {r}"));
}

/// Completeness of the checked grouping: every `AppWorkload::paper`
/// application (wiki, forum, hotcrp, shop), served at one, two and four
/// workers, audits clean. Each
/// run checks its recomputed control-flow tag against its group's, so
/// one honest group that diverged — requests with one tag that ended
/// differently — would reject with `Divergence`.
#[test]
fn every_app_served_at_one_two_and_four_workers_accepts() {
    use orochi::harness::driver::{run_audit, serve, AppWorkload, ServeOptions};
    for work in AppWorkload::paper(0.01, 11) {
        for threads in [1, 2, 4] {
            let served = serve(
                &work,
                &ServeOptions {
                    threads,
                    ..Default::default()
                },
            );
            let run = run_audit(&served.bundle, &work, true, true);
            let app = work.app.name;
            let run = run.unwrap_or_else(|r| panic!("{app} at {threads} workers: {r}"));
            assert!(run.exec_stats.grouped > 0, "{app} at {threads} workers");
        }
    }
}
