//! Lanes share, they do not copy — and sharing changes nothing the
//! verifier decides.
//!
//! A query-dedup hit hands every lane the same result handle, the group
//! VM turns one handle into one PHP array for all of them, and a
//! multivalent operation over shared operands runs once per distinct
//! operand. These tests pin what that must not disturb: what the engines
//! compute (the group VM and the stack oracle, each against the scalar
//! VM, on every traced request of every application),
//! PHP's value semantics (a write through a shared array copies), and
//! soundness (a lie about a read is caught, identically, on every audit
//! path).

use orochi::accphp::executor::{request_input, run_checked, run_scalar_request};
use orochi::accphp::groupvm::{self, GroupRunError};
use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_parallel, AuditConfig, AuditContext, Rejection};
use orochi::core::reports::Reports;
use orochi::core::streaming::audit_streaming_source;
use orochi::harness::driver::{serve, AppWorkload, ServeOptions};
use orochi::php::vm::stack;
use orochi::php::{compile, parse_script, CompiledScript};
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};
use orochi::sqldb::Database;
use orochi::trace::{Event, HttpRequest, HttpResponse, Trace};
use orochi_common::ids::RequestId;
use std::collections::HashMap;

/// Lanes per grouped run in the differential test: enough for repeats
/// and collapse, small enough to run three engines over four workloads.
const MAX_LANES: usize = 48;

/// (a) The group VM, the scalar VM and the stack oracle over every
/// traced request of the four applications. Every request, singletons
/// included, runs on the scalar VM and on the oracle, each through the
/// audit's checking backend: both reproduce the traced response and the
/// server's control-flow digest. The oracle compiles the AST on its
/// own, so this is what checks the register compiler. Each group of
/// more than one request also runs superposed: the same outputs, and a
/// superposed instruction count (univalent + multivalent) equal to each
/// member's own scalar count, since the group executes exactly the
/// stream each member would.
#[test]
fn group_engines_agree_with_scalar_on_every_app_script() {
    let mut singletons = 0;
    for work in AppWorkload::paper(0.01, 7) {
        let app = work.app.name;
        let scripts = work.app.compile().expect("application compiles");
        let oracles: HashMap<&str, stack::StackScript> = work
            .app
            .scripts
            .iter()
            .map(|(path, src)| {
                let parsed = parse_script(src).expect("application parses");
                let oracle = stack::compile(path, &parsed).expect("oracle compiles");
                (path.as_str(), oracle)
            })
            .collect();
        let AuditBundle { trace, reports, .. } = serve(&work, &ServeOptions::default()).bundle;
        let config = work.audit_config();
        let requests: HashMap<RequestId, &HttpRequest> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Request(rid, req) => Some((*rid, req)),
                Event::Response(..) => None,
            })
            .collect();
        let responses: HashMap<RequestId, &HttpResponse> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Response(rid, resp) => Some((*rid, resp)),
                Event::Request(..) => None,
            })
            .collect();
        // One context per engine: every request runs once in each.
        let prepare = || AuditContext::prepare(&trace, &reports, &config).expect("honest reports");
        let (mut group_ctx, mut scalar_ctx, mut oracle_ctx) = (prepare(), prepare(), prepare());

        let (mut grouped_runs, mut checked) = (0, 0);
        for (tag, members) in &reports.groupings {
            for rids in members.chunks(MAX_LANES) {
                let lanes: Vec<&HttpRequest> = rids.iter().map(|r| requests[r]).collect();
                let path = lanes[0].path.as_str();
                let (script, oracle) = (&scripts[path], &oracles[path]);
                let grouped = if rids.len() > 1 {
                    let inputs: Vec<_> = lanes.iter().map(|r| request_input(r)).collect();
                    match groupvm::run_group(script, rids, &inputs, &mut group_ctx) {
                        Ok(outcome) => Some(outcome),
                        Err(GroupRunError::Diverged(_)) => {
                            group_ctx.reset_requests(rids);
                            None
                        }
                        Err(e) => panic!("{app} {tag}: group VM: {e:?}"),
                    }
                } else {
                    singletons += 1;
                    None
                };
                grouped_runs += usize::from(grouped.is_some());
                for (l, rid) in rids.iter().enumerate() {
                    let input = request_input(lanes[l]);
                    let scalar = run_scalar_request(script, *rid, &input, &mut scalar_ctx)
                        .unwrap_or_else(|r| panic!("{app} {rid}: scalar VM: {r}"));
                    let stk = run_checked(&mut oracle_ctx, *rid, |backend| {
                        stack::run_request(oracle, backend, &input)
                    })
                    .unwrap_or_else(|r| panic!("{app} {rid}: stack oracle: {r}"));
                    checked += 1;
                    assert_eq!(
                        scalar.output, stk.output,
                        "{app} {rid}: scalar VM vs oracle"
                    );
                    let traced = responses[rid];
                    assert_eq!(
                        (traced.status, &traced.headers, &traced.body),
                        (
                            scalar.output.status,
                            &scalar.output.headers,
                            &scalar.output.body
                        ),
                        "{app} {rid}: re-execution vs trace"
                    );
                    assert_eq!(scalar.digest, tag.0, "{app} {rid}: scalar digest");
                    assert_eq!(stk.digest, tag.0, "{app} {rid}: oracle digest");
                    if let Some(group) = &grouped {
                        assert_eq!(
                            group.outputs[l], scalar.output,
                            "{app} {rid}: group vs scalar"
                        );
                        assert_eq!(
                            group.univalent + group.multivalent,
                            scalar.stats.instructions,
                            "{app} {rid}: group length"
                        );
                    }
                }
            }
        }
        assert!(grouped_runs > 0, "{app}: no group ran superposed");
        assert_eq!(
            checked,
            requests.len(),
            "{app}: a traced request went unchecked"
        );
    }
    assert!(singletons > 0, "no app produced a singleton group");
}

fn php(path: &str, body: &str) -> (String, CompiledScript) {
    let src = format!("<?php\n{body}");
    let script = compile(path, &parse_script(&src).expect("parses")).expect("compiles");
    (path.to_string(), script)
}

fn initial_db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
        "INSERT INTO t (id, v) VALUES (1, 'one'), (2, 'two'), (3, 'three')",
    ] {
        db.execute_autocommit(sql).0.expect("seed statement");
    }
    db
}

fn audit_config() -> AuditConfig {
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), initial_db());
    config
}

fn serve_all(scripts: &HashMap<String, CompiledScript>, requests: Vec<HttpRequest>) -> AuditBundle {
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        initial_db: initial_db(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    for request in requests {
        server.handle(request);
    }
    server.into_bundle()
}

/// (c) Every lane reads the same rows through one dedup entry, then
/// writes a different row of *its* copy. Value semantics demand that no
/// lane sees another's write, and that the cached result stays pristine
/// for the second read. The server ran each request alone on the scalar
/// VM, so the traced pages are the ground truth the grouped audit has
/// to reproduce.
#[test]
fn a_lane_writing_into_a_shared_query_result_changes_only_its_own_copy() {
    let scripts: HashMap<_, _> = [php(
        "/rows.php",
        r#"
        $rows = db_query('SELECT id, v FROM t ORDER BY id');
        $mine = $rows;
        $mine[intval($_GET['i'])]['v'] = 'changed-by-' . $_GET['who'];
        foreach ($mine as $r) { echo $r['v'] . ','; }
        echo '|';
        foreach ($rows as $r) { echo $r['v'] . ','; }
        echo '|';
        $again = db_query('SELECT id, v FROM t ORDER BY id');
        foreach ($again as $r) { echo $r['v'] . ','; }
        "#,
    )]
    .into();
    let lanes = [("0", "a"), ("1", "b"), ("2", "c"), ("0", "d"), ("1", "a")];
    let requests = lanes
        .iter()
        .map(|(i, who)| HttpRequest::get("/rows.php", &[("i", i), ("who", who)]))
        .collect();
    let bundle = serve_all(&scripts, requests);

    let pages: Vec<&str> = bundle
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Response(_, resp) => Some(resp.body.as_str()),
            Event::Request(..) => None,
        })
        .collect();
    assert_eq!(
        pages[0],
        "changed-by-a,two,three,|one,two,three,|one,two,three,"
    );
    assert_eq!(
        pages[1],
        "one,changed-by-b,three,|one,two,three,|one,two,three,"
    );

    let mut verifier = AccPhpExecutor::new(scripts);
    let outcome = audit(
        &bundle.trace,
        &bundle.reports,
        &mut verifier,
        &audit_config(),
    )
    .unwrap_or_else(|r| panic!("copy-on-write leaked between lanes: {r}"));
    // The five requests ran as one superposed group, and nine of their
    // ten reads were dedup hits on the one cached result.
    assert_eq!((verifier.stats.grouped, verifier.stats.fallbacks), (1, 0));
    assert_eq!(outcome.stats.db_queries_issued, 1);
    assert_eq!(outcome.stats.db_queries_deduped, 9);
}

/// (e) A logged value is decoded once per group: every lane that reads
/// one APC version holds the one decoded array. A lane that writes —
/// here into its `$_SESSION`, which starts as that same array — must
/// copy it first: no other lane's session, and no later read of the
/// version, may see the change. (Sessions decode through the same
/// memo; a session version, though, is read by one request unless
/// requests run concurrently, so APC is where versions fan out.) The
/// server ran each request alone, so its pages and its logged session
/// writes are the ground truth; the audit checks both.
#[test]
fn lanes_reading_one_logged_version_share_it_and_a_session_write_copies() {
    let scripts: HashMap<_, _> = [
        php(
            "/init.php",
            "apc_store('cfg', array('who' => 'nobody', 'n' => 2)); echo 'ok';",
        ),
        php(
            "/cfg.php",
            r#"
            session_start();
            $cfg = apc_fetch('cfg');
            $_SESSION = $cfg;
            $_SESSION['who'] = $_GET['who'];
            $again = apc_fetch('cfg');
            echo $_SESSION['who'] . ':' . $cfg['who'] . ':' . $again['who'] . ':' . count($again);
            "#,
        ),
    ]
    .into();
    let who = ["a", "b", "c", "d", "e"];
    let mut requests = vec![HttpRequest::get("/init.php", &[])];
    requests.extend(
        who.iter()
            .map(|w| HttpRequest::get("/cfg.php", &[("who", w)]).with_cookie("sess", w)),
    );
    let bundle = serve_all(&scripts, requests);
    let pages: Vec<&str> = bundle
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Response(_, resp) => Some(resp.body.as_str()),
            Event::Request(..) => None,
        })
        .collect();
    assert_eq!(pages[1], "a:nobody:nobody:2");
    assert_eq!(pages[5], "e:nobody:nobody:2");

    let mut verifier = AccPhpExecutor::new(scripts);
    audit(
        &bundle.trace,
        &bundle.reports,
        &mut verifier,
        &audit_config(),
    )
    .unwrap_or_else(|r| panic!("a session write leaked between lanes: {r}"));
    // The five readers ran as one group (the writer alone, on the
    // scalar path): ten reads of one version, one decode.
    assert_eq!((verifier.stats.grouped, verifier.stats.fallbacks), (1, 0));
    assert_eq!(verifier.stats.logged_decodes, 1);
}

/// Runs every audit path — batch sequential, pooled and streaming at
/// 1 and 8 threads — and returns each verdict's rendering.
fn verdicts(
    trace: &Trace,
    reports: &Reports,
    scripts: &HashMap<String, CompiledScript>,
) -> Vec<String> {
    let config = audit_config();
    let render = |r: Result<_, Rejection>| match r {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject: {r}"),
    };
    let executors = |n: usize| -> Vec<AccPhpExecutor> {
        (0..n)
            .map(|_| AccPhpExecutor::new(scripts.clone()))
            .collect()
    };
    let mut out = vec![render(
        audit(trace, reports, &mut executors(1)[0], &config).map(|_| ()),
    )];
    for threads in [1, 8] {
        out.push(render(
            audit_parallel(trace, reports, &mut executors(threads), &config).map(|_| ()),
        ));
        out.push(render(
            audit_streaming_source(trace, reports, &mut executors(threads), &config, 4).map(|_| ()),
        ));
    }
    out
}

/// (d) Reads are not logged — the verifier recomputes them — so a server
/// can only lie about a SELECT in the page it returns. Two such lies
/// against the dedup cache: a *stale-epoch read* (a post-write page
/// showing the pre-write rows, i.e. what a cache keyed without the
/// table's modification epoch would serve) and a *forged result* (rows
/// the table never held). Both must be rejected, with byte-identical
/// diagnostics on the batch, pooled and streaming paths at 1 and 8
/// threads.
#[test]
fn a_forged_or_stale_select_is_rejected_identically_on_every_path() {
    let scripts: HashMap<_, _> = [
        php(
            "/read.php",
            "$r = db_query('SELECT v FROM t WHERE id = 1'); echo 'v=' . $r[0]['v'];",
        ),
        php(
            "/write.php",
            r#"db_query("UPDATE t SET v = 'uno' WHERE id = 1"); echo 'ok';"#,
        ),
    ]
    .into();
    let read = || HttpRequest::get("/read.php", &[]);
    let honest = serve_all(
        &scripts,
        vec![
            read(),
            read(),
            read(),
            HttpRequest::get("/write.php", &[]),
            read(),
            read(),
            read(),
        ],
    );
    for verdict in verdicts(&honest.trace, &honest.reports, &scripts) {
        assert_eq!(verdict, "accept");
    }

    let tampered = |target: u64, body: &str| {
        let mut trace = honest.trace.clone();
        let hit = trace.events.iter_mut().find_map(|e| match e {
            Event::Response(rid, resp) if rid.0 == target => Some(resp),
            _ => None,
        });
        hit.expect("the response exists").body = body.to_string();
        trace
    };
    // Requests are numbered from 1; the sixth is the second post-write
    // read, a dedup hit on the post-write result.
    for (what, trace) in [
        ("stale-epoch read", tampered(6, "v=one")),
        ("forged result", tampered(2, "v=eins")),
    ] {
        let all = verdicts(&trace, &honest.reports, &scripts);
        assert!(
            all[0].starts_with("reject: "),
            "{what} accepted: {}",
            all[0]
        );
        assert!(
            all[0].contains("differs from the trace"),
            "{what}: {}",
            all[0]
        );
        for verdict in &all {
            assert_eq!(verdict, &all[0], "{what}: paths disagree");
        }
    }
}
