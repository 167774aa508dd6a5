//! The in-place output check is sound: no page is built, yet every way
//! a traced response can differ from the re-executed one is caught,
//! with the same diagnostic on every audit path.
//!
//! One control-flow group of 240 lanes owes six distinct pages,
//! spilled into a store of several segments so that each page is one
//! dictionary string per segment, lent to every lane that owes it.
//! Each page is echoed in two pieces cut at a per-lane position, so
//! lanes that owe one page stand at different cursors mid-run. A
//! second, small group gives the worker pool more than one unit.
//!
//! For each of the six pages, one request owing it has its trace
//! altered: a flipped byte, a body one byte short (a prefix of the page
//! must not pass), one byte extra, a changed status, a changed header,
//! or a changed rid label. One more request is given the body of the
//! page before it, which other lanes owe: it must be judged against its
//! own page. Each alteration alone, and the output ones together, must
//! be rejected naming the first altered request in arrival order, with a
//! diagnostic identical on the resident trace, the batch audit of the
//! store, the pool at 1, 2 and 8 workers and the streaming audit at
//! epoch budgets 0, 1 and mid-trace. The expected strings are those the
//! build-then-compare audit gave on the same traces.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_parallel_source, audit_source, AuditConfig, AuditOutcome};
use orochi::core::reports::Reports;
use orochi::core::streaming::audit_streaming_source;
use orochi::core::Rejection;
use orochi::php::{compile, parse_script, CompiledScript};
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};
use orochi::trace::{Event, HttpRequest, HttpResponse, Trace, TraceStoreReader, TraceStoreWriter};
use orochi_common::ids::{CtlFlowTag, RequestId};
use std::collections::HashMap;

const PAGES: usize = 240;
const DISTINCT: usize = 6;

const PAGE: &str = r#"<?php
$k = intval($_GET['k']);
$cut = intval($_GET['cut']);
$title = 'Section ' . $k . ' of the quarterly report';
echo '<html><h1>';
echo substr($title, 0, $cut);
echo substr($title, $cut);
echo '</h1>';
header('X-Section: ' . $k);
echo '<p>' . str_repeat('lorem ipsum ', 3) . '</p></html>';
"#;

const PING: &str = "<?php echo 'pong ' . $_GET['n'];";

fn scripts() -> HashMap<String, CompiledScript> {
    compiled(&[("/page.php", PAGE), ("/ping.php", PING)])
}

fn compiled(sources: &[(&str, &str)]) -> HashMap<String, CompiledScript> {
    sources
        .iter()
        .map(|(path, src)| {
            let script = compile(path, &parse_script(src).expect("parses")).expect("compiles");
            (path.to_string(), script)
        })
        .collect()
}

/// Serves the 240 page requests (lane `i` owes page `i % 6`) with a
/// ping every tenth request.
fn served(scripts: &HashMap<String, CompiledScript>) -> AuditBundle {
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    for i in 0..PAGES {
        let (k, cut) = ((i % DISTINCT).to_string(), (i % 7 * 3).to_string());
        server.handle(HttpRequest::get("/page.php", &[("k", &k), ("cut", &cut)]));
        if i % 10 == 0 {
            server.handle(HttpRequest::get("/ping.php", &[("n", &i.to_string())]));
        }
    }
    server.into_bundle()
}

/// An alteration of one traced response.
#[derive(Clone, Copy)]
enum Alter {
    FlipByte,
    OneShort,
    OneExtra,
    Status,
    Header,
    Label,
    /// The previous page's body.
    Borrowed,
}

/// Per page, its alteration and the page request (by arrival order
/// among pages) it is planted in; then the borrowed body, on page 2.
const PLANTED: [(Alter, usize); DISTINCT + 1] = [
    (Alter::FlipByte, 102),
    (Alter::OneShort, 37),
    (Alter::OneExtra, 152),
    (Alter::Status, 201),
    (Alter::Header, 76),
    (Alter::Label, 11),
    (Alter::Borrowed, 56),
];

/// Applies `alters` to the page responses they name.
fn altered(trace: &Trace, alters: &[(Alter, usize)]) -> Trace {
    let mut trace = trace.clone();
    let other_rid = trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Request(rid, _) => Some(*rid),
            Event::Response(..) => None,
        })
        .expect("a request");
    let is_page = |resp: &HttpResponse| resp.body.starts_with("<html>");
    let honest: Vec<HttpResponse> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Response(_, resp) if is_page(resp) => Some(resp.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(honest.len(), PAGES);
    let mut pages = 0;
    for event in &mut trace.events {
        let Event::Response(_, resp) = event else {
            continue;
        };
        if !is_page(resp) {
            continue;
        }
        for (alter, at) in alters {
            if *at == pages {
                alter_response(resp, *alter, other_rid, &honest[pages - 1]);
            }
        }
        pages += 1;
    }
    trace
}

fn alter_response(
    resp: &mut HttpResponse,
    alter: Alter,
    other_rid: RequestId,
    previous: &HttpResponse,
) {
    match alter {
        Alter::FlipByte => {
            let mid = resp.body.len() / 2;
            let flipped = if &resp.body[mid..=mid] == "x" {
                "y"
            } else {
                "x"
            };
            resp.body.replace_range(mid..=mid, flipped);
        }
        Alter::OneShort => {
            resp.body.pop();
        }
        Alter::OneExtra => resp.body.push('!'),
        Alter::Status => resp.status = 203,
        Alter::Header => resp.headers[0].1.push('0'),
        Alter::Label => resp.rid_label = other_rid,
        Alter::Borrowed => resp.body = previous.body.clone(),
    }
}

/// Every audit path over `trace`: its name and its verdict. Store paths
/// read a copy spilled into segments of 2 KiB.
fn every_path(
    trace: &Trace,
    reports: &Reports,
    scripts: &HashMap<String, CompiledScript>,
    name: &str,
) -> Vec<(String, Result<AuditOutcome, Rejection>)> {
    let config = AuditConfig::new();
    let executors = |n: usize| -> Vec<AccPhpExecutor> {
        (0..n)
            .map(|_| AccPhpExecutor::new(scripts.clone()))
            .collect()
    };
    let dir = std::env::temp_dir().join(format!(
        "orochi-test-output-check-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = TraceStoreWriter::create(&dir, 2048).expect("create store");
    writer.append_trace(trace).expect("append");
    writer.finish().expect("seal");
    let store = TraceStoreReader::open(&dir).expect("open store");
    assert!(
        store.segment_count() >= 4,
        "the pages span several segments"
    );

    let mut runs = vec![(
        "resident".to_string(),
        audit(trace, reports, &mut executors(1)[0], &config),
    )];
    runs.push((
        "batch".to_string(),
        audit_source(&store, reports, &mut executors(1)[0], &config),
    ));
    for threads in [1, 2, 8] {
        let verdict = audit_parallel_source(&store, reports, &mut executors(threads), &config);
        runs.push((format!("pool-{threads}"), verdict));
    }
    for budget in [0, 1, trace.events.len() / 2] {
        let verdict = audit_streaming_source(&store, reports, &mut executors(1), &config, budget);
        runs.push((format!("stream-{budget}"), verdict));
    }
    let _ = std::fs::remove_dir_all(&dir);
    runs
}

/// The one diagnostic every path gave.
fn diagnostic(runs: &[(String, Result<AuditOutcome, Rejection>)]) -> String {
    let render = |r: &Result<AuditOutcome, Rejection>| match r {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject: {r}"),
    };
    let first = render(&runs[0].1);
    for (path, run) in runs {
        assert_eq!(render(run), first, "{path} disagrees with {}", runs[0].0);
    }
    first
}

#[test]
fn the_honest_group_is_accepted_with_one_set_of_counters_on_every_path() {
    let scripts = scripts();
    let bundle = served(&scripts);
    let runs = every_path(&bundle.trace, &bundle.reports, &scripts, "honest");
    assert_eq!(diagnostic(&runs), "accept");
    let counters = |outcome: &AuditOutcome| {
        let s = &outcome.stats;
        [
            s.requests_reexecuted as u64,
            s.vm_dispatch_total,
            s.register_ops,
            s.kv_ops,
            s.db_txns,
            s.db_queries,
            s.graph_nodes as u64,
            s.graph_edges as u64,
        ]
    };
    let outcome = |k: usize| runs[k].1.as_ref().expect("accepted");
    assert_eq!(outcome(0).stats.requests_reexecuted, PAGES + PAGES / 10);
    for (k, (path, _)) in runs.iter().enumerate() {
        assert_eq!(counters(outcome(k)), counters(outcome(0)), "{path}");
        // Sub-groups cut by epochs re-execute with less sharing; every
        // path that runs each group whole dispatches alike.
        if !path.starts_with("stream-") || path == "stream-0" {
            assert_eq!(
                outcome(k).stats.vm_dispatch_executed,
                outcome(0).stats.vm_dispatch_executed,
                "{path}"
            );
        }
    }
}

#[test]
fn each_alteration_is_rejected_naming_its_request_on_every_path() {
    let scripts = scripts();
    let bundle = served(&scripts);
    let expected = [
        "reject: produced output for r114 differs from the trace",
        "reject: produced output for r42 differs from the trace",
        "reject: produced output for r169 differs from the trace",
        "reject: produced output for r223 differs from the trace",
        "reject: produced output for r85 differs from the trace",
        "reject: trace not balanced: response labeled r1 but answers r14",
        "reject: produced output for r63 differs from the trace",
    ];
    for (k, (alter, at)) in PLANTED.iter().enumerate() {
        let trace = altered(&bundle.trace, &[(*alter, *at)]);
        let runs = every_path(&trace, &bundle.reports, &scripts, &format!("alter-{k}"));
        assert_eq!(diagnostic(&runs), expected[k], "alteration {k}");
    }
}

#[test]
fn the_first_of_several_alterations_in_arrival_order_is_named() {
    let scripts = scripts();
    let bundle = served(&scripts);
    // The output alterations together; the label one would be a
    // balance rejection, which outranks every output check.
    let mut alters = PLANTED.to_vec();
    alters.retain(|(alter, _)| !matches!(alter, Alter::Label));
    let trace = altered(&bundle.trace, &alters);
    let runs = every_path(&trace, &bundle.reports, &scripts, "all");
    assert_eq!(
        diagnostic(&runs),
        "reject: produced output for r42 differs from the trace"
    );
}

/// Tags that merge two honest groups: the `/page.php` members move into
/// the `/ping.php` group, under its tag. The members name different
/// scripts, so the group diverges, and every path — and a scalar audit,
/// whose every run checks its tag — rejects with one `Divergence`
/// naming the ping group's tag. The grouped audit rejects the merged
/// group before running any member, where the honest bundle runs its
/// two groups grouped: a lying grouping buys no run at all.
#[test]
fn merged_tags_are_rejected_as_divergence_on_every_path() {
    let scripts = scripts();
    let bundle = served(&scripts);
    let mut reports = bundle.reports.clone();
    assert_eq!(reports.groupings.len(), 2, "one page group, one ping group");
    let page = reports
        .groupings
        .iter()
        .position(|(_, rids)| rids.len() == PAGES);
    let (_, pages) = reports.groupings.remove(page.expect("the page group"));
    let (ping_tag, ping) = &mut reports.groupings[0];
    ping.extend(pages);
    let tag = *ping_tag;
    diverges_everywhere(&bundle.trace, &reports, &scripts, tag, "merged");

    let honest = run_counts(&scripts, &bundle.trace, &bundle.reports);
    assert_eq!(honest, (2, 0), "honest: (grouped, scalar)");
    let merged = run_counts(&scripts, &bundle.trace, &reports);
    assert_eq!(merged, (0, 0), "merged: (grouped, scalar)");
}

/// Every path of [`every_path`], and a `force_scalar` audit, rejects
/// with one `Divergence { tag }`, alike in `Debug` and `Display`.
fn diverges_everywhere(
    trace: &Trace,
    reports: &Reports,
    scripts: &HashMap<String, CompiledScript>,
    tag: CtlFlowTag,
    name: &str,
) {
    let divergence = Rejection::Divergence { tag };
    let expected = (format!("{divergence:?}"), divergence.to_string());
    let mut runs = every_path(trace, reports, scripts, name);
    let mut scalar = AccPhpExecutor::new(scripts.clone());
    scalar.force_scalar = true;
    let forced = audit(trace, reports, &mut scalar, &AuditConfig::new());
    runs.push(("force_scalar".to_string(), forced));
    for (path, run) in &runs {
        let rejection = run.as_ref().expect_err(path);
        let got = (format!("{rejection:?}"), rejection.to_string());
        assert_eq!(got, expected, "{path}");
    }
}

/// The groups run and the requests run on the scalar path by a resident
/// grouped audit of `reports`, whatever its verdict.
fn run_counts(
    scripts: &HashMap<String, CompiledScript>,
    trace: &Trace,
    reports: &Reports,
) -> (usize, usize) {
    let mut exec = AccPhpExecutor::new(scripts.clone());
    let _ = audit(trace, reports, &mut exec, &AuditConfig::new());
    (exec.stats.grouped, exec.stats.scalar_requests)
}

const PARITY: &str = r#"<?php
$n = intval($_GET['n']);
if ($n % 2) {
    echo '<p>odd ' . $n . '</p>';
} else {
    echo '<p>even ' . $n . '</p>';
}
"#;

/// Tags that merge two honest groups of one script: `/parity.php`
/// requests group by the parity of `n`, and one group's members move
/// into the other, under its tag. The merged group passes the
/// one-script check and runs on the group VM, where its lanes split at
/// the parity branch: every path, and a scalar audit whose moved runs
/// recompute another tag, rejects with one `Divergence` naming the
/// receiving group's tag. No member runs on the scalar path.
#[test]
fn merged_tags_of_one_script_diverge_in_the_group_vm_on_every_path() {
    let scripts = compiled(&[("/parity.php", PARITY)]);
    let server = Server::new(ServerConfig {
        scripts: scripts.clone(),
        recording: true,
        seed: 5,
        ..Default::default()
    });
    for n in 0..PAGES {
        server.handle(HttpRequest::get("/parity.php", &[("n", &n.to_string())]));
    }
    let bundle = server.into_bundle();
    let mut reports = bundle.reports.clone();
    assert_eq!(reports.groupings.len(), 2, "one odd group, one even group");
    let (_, moved) = reports.groupings.pop().expect("two groups");
    let (tag, members) = &mut reports.groupings[0];
    members.extend(moved);
    let tag = *tag;
    diverges_everywhere(&bundle.trace, &reports, &scripts, tag, "parity");

    let honest = run_counts(&scripts, &bundle.trace, &bundle.reports);
    assert_eq!(honest, (2, 0), "honest: (grouped, scalar)");
    let merged = run_counts(&scripts, &bundle.trace, &reports);
    assert_eq!(merged, (0, 0), "merged: (grouped, scalar)");
}
