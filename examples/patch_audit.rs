//! Patch-based auditing (§7, following Poirot): replay recorded
//! requests against *patched* code and report which responses change.
//!
//! The verifier re-executes the trace against a modified script. The
//! audit machinery is reused wholesale: the only differences are that
//! the requests are regrouped by the patched code's control-flow tags,
//! and that output mismatches are *collected* instead of rejected —
//! each mismatch is a request whose behaviour the patch altered.
//!
//! Run with: `cargo run --example patch_audit`

use orochi::accphp::executor::request_input;
use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, AuditConfig, Rejection};
use orochi::php::backend::NullBackend;
use orochi::php::vm::run_request;
use orochi::php::{compile, parse_script};
use orochi::server::{Server, ServerConfig};
use orochi::sqldb::Database;
use orochi::trace::{Event, HttpRequest};
use std::collections::HashMap;

const ORIGINAL: &str = r#"<?php
    $n = intval($_GET['n']);
    if ($n >= 10) { echo 'big:' . $n; } else { echo 'small:' . $n; }
"#;

// The patch moves the boundary — requests with n == 10 change behaviour.
const PATCHED: &str = r#"<?php
    $n = intval($_GET['n']);
    if ($n > 10) { echo 'big:' . $n; } else { echo 'small:' . $n; }
"#;

fn scripts_for(src: &str) -> HashMap<String, orochi::php::CompiledScript> {
    let mut scripts = HashMap::new();
    scripts.insert(
        "/t.php".to_string(),
        compile("/t.php", &parse_script(src).unwrap()).unwrap(),
    );
    scripts
}

fn main() {
    // Record a workload against the original code.
    let server = Server::new(ServerConfig {
        scripts: scripts_for(ORIGINAL),
        initial_db: Database::new(),
        recording: true,
        seed: 1,
        ..Default::default()
    });
    for n in [3, 10, 11, 9, 10, 25] {
        server.handle(HttpRequest::get("/t.php", &[("n", &n.to_string())]));
    }
    let bundle = server.into_bundle();

    // Sanity: the original code passes the audit.
    let mut verifier = AccPhpExecutor::new(scripts_for(ORIGINAL));
    audit(
        &bundle.trace,
        &bundle.reports,
        &mut verifier,
        &AuditConfig::new(),
    )
    .expect("original code audits clean");
    println!("original code: audit ACCEPTED (responses unchanged)");

    // Patch-based audit: replay against the patched code. A rejection
    // with OutputMismatch pinpoints a behaviour-changing request; we
    // keep auditing by removing it from consideration, collecting all
    // affected requests.
    let mut affected = Vec::new();
    let mut trace = bundle.trace.clone();
    let mut reports = bundle.reports.clone();
    // The recorded tags describe the original code's control flow, and
    // every run checks its tag against its group's: under the patch,
    // n=10 now takes the other branch, so its group (with n=11) would
    // diverge, grouped or on the scalar path alike. The replay groups
    // the requests by the tags the patched code gives them instead;
    // this script touches no state, so a run on the null backend has
    // its tag.
    let patched = scripts_for(PATCHED).remove("/t.php").unwrap();
    let mut groups: HashMap<_, Vec<_>> = HashMap::new();
    for event in &trace.events {
        if let Event::Request(rid, req) = event {
            let run = run_request(&patched, &mut NullBackend, &request_input(req)).unwrap();
            groups.entry(run.tag()).or_default().push(*rid);
        }
    }
    reports.groupings = groups.into_iter().collect();
    reports.groupings.sort();
    loop {
        let mut verifier = AccPhpExecutor::new(scripts_for(PATCHED));
        match audit(&trace, &reports, &mut verifier, &AuditConfig::new()) {
            Ok(_) => break,
            Err(Rejection::OutputMismatch { rid }) => {
                affected.push(rid);
                // Drop the affected pair and keep looking.
                trace.events.retain(|e| e.rid() != rid);
                for (_, rids) in reports.groupings.iter_mut() {
                    rids.retain(|r| *r != rid);
                }
                reports.op_counts.remove(&rid);
            }
            Err(other) => {
                println!("patched audit stopped: {other}");
                break;
            }
        }
    }
    println!(
        "patched code: {} request(s) change behaviour: {:?}",
        affected.len(),
        affected
    );
}
