//! Direct tests of SIMD-on-demand execution, including the paper's own
//! worked example (§4.3 / Fig. 2).

use orochi_accphp::executor::request_input;
use orochi_accphp::groupvm::run_group;
use orochi_accphp::AccPhpExecutor;
use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_core::audit::{audit, AuditConfig, AuditContext, Rejection};
use orochi_core::nondet::NondetValue;
use orochi_core::reports::Reports;
use orochi_php::backend::NullBackend;
use orochi_php::vm::run_request;
use orochi_php::{compile, parse_script};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};
use std::collections::HashMap;

/// Builds a (trace, reports) pair for `lanes` op-less requests with the
/// given GET parameters, plus the audit context inputs.
fn fixtures(params: &[Vec<(&str, &str)>]) -> (Vec<RequestId>, Vec<HttpRequest>, Trace, Reports) {
    let mut events = Vec::new();
    let mut rids = Vec::new();
    let mut requests = Vec::new();
    for (l, lane_params) in params.iter().enumerate() {
        let rid = RequestId(l as u64 + 1);
        rids.push(rid);
        let request = HttpRequest::get("/prog.php", lane_params);
        events.push(Event::Request(rid, request.clone()));
        requests.push(request);
    }
    for &rid in &rids {
        events.push(Event::Response(rid, HttpResponse::ok(rid, "")));
    }
    let reports = Reports {
        groupings: vec![(CtlFlowTag(1), rids.clone())],
        op_logs: Default::default(),
        op_counts: rids.iter().map(|r| (*r, 0)).collect(),
        nondet: Default::default(),
    };
    (rids, requests, Trace { events }, reports)
}

/// The paper's §4.3 example:
///
/// ```php
/// $sum = $_GET['x'] + $_GET['y'];
/// $larger = max($sum, $_GET['z']);
/// $odd = ($larger % 2) ? "True" : "False";
/// echo $odd;
/// ```
///
/// r1: x=1&y=3&z=10, r2: x=2&y=4&z=10. `$sum` is the multivalue [4, 6];
/// `max` collapses it against z=10 to the univalue 10, so "lines 3 and 4
/// execute once, rather than once for each request".
#[test]
fn paper_section_43_example_collapses() {
    let src = r#"<?php
        $sum = intval($_GET['x']) + intval($_GET['y']);
        $larger = max($sum, intval($_GET['z']));
        $odd = ($larger % 2) ? 'True' : 'False';
        echo $odd;
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) = fixtures(&[
        vec![("x", "1"), ("y", "3"), ("z", "10")],
        vec![("x", "2"), ("y", "4"), ("z", "10")],
    ]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    // Both lanes print "False" (10 % 2 == 0).
    assert_eq!(outcome.outputs[0].body, "False");
    assert_eq!(outcome.outputs[1].body, "False");
    // The additions are multivalent, but max() collapsed: the modulo,
    // ternary branch, and echo ran univalently. The multivalent share
    // is a handful of instructions out of dozens.
    assert!(
        outcome.univalent > outcome.multivalent,
        "univalent {} multivalent {}",
        outcome.univalent,
        outcome.multivalent
    );
}

#[test]
fn branch_divergence_detected() {
    let src = r#"<?php
        if (intval($_GET['x']) > 5) { echo 'big'; } else { echo 'small'; }
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) = fixtures(&[vec![("x", "10")], vec![("x", "1")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    match run_group(&script, &rids, &inputs, &mut ctx) {
        Err(Rejection::Divergence { .. }) => {}
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn uniform_branches_do_not_diverge() {
    let src = r#"<?php
        if (intval($_GET['x']) > 5) { echo 'big:' . $_GET['x']; } else { echo 'small'; }
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    // Different values, same truthiness: no divergence; outputs differ
    // per lane (multivalent echo).
    let (rids, requests, trace, reports) = fixtures(&[vec![("x", "10")], vec![("x", "20")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    assert_eq!(outcome.outputs[0].body, "big:10");
    assert_eq!(outcome.outputs[1].body, "big:20");
}

#[test]
fn iteration_length_divergence_detected() {
    let src = r#"<?php
        $parts = explode(',', $_GET['csv']);
        foreach ($parts as $p) { echo $p; }
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) =
        fixtures(&[vec![("csv", "a,b")], vec![("csv", "a,b,c")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    match run_group(&script, &rids, &inputs, &mut ctx) {
        Err(Rejection::Divergence { .. }) => {}
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn same_length_iterations_run_multivalently() {
    let src = r#"<?php
        $parts = explode(',', $_GET['csv']);
        $out = '';
        foreach ($parts as $p) { $out .= strtoupper($p); }
        echo $out;
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) =
        fixtures(&[vec![("csv", "a,b,c")], vec![("csv", "x,y,z")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    assert_eq!(outcome.outputs[0].body, "ABC");
    assert_eq!(outcome.outputs[1].body, "XYZ");
}

#[test]
fn uniform_fatal_yields_identical_500s() {
    let src = "<?php echo 1 % intval($_GET['zero']);";
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) = fixtures(&[vec![("zero", "0")], vec![("zero", "0")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    for out in &outcome.outputs {
        assert_eq!(out.status, 500);
        assert!(out.body.contains("modulo by zero"));
    }
}

/// Every lane fails at one multivalent instruction, each with its own
/// message: the group ends there, and each lane answers the page and
/// the tag the scalar VM gives it alone.
#[test]
fn a_failure_in_every_lane_at_one_instruction_runs_grouped_and_matches_scalar() {
    type Case<'c> = (&'c str, &'c [Vec<(&'c str, &'c str)>], [&'c str; 2]);
    let cases: [Case<'_>; 2] = [
        // Malformed in every lane, differently: `header()` per lane.
        (
            "<?php echo 'x'; header($_GET['h']); echo 'y';",
            &[vec![("h", "no colon")], vec![("h", "none")]],
            ["header(): malformed header"; 2],
        ),
        // `sort()` of an int in one lane and of a string in the other:
        // one instruction, two messages.
        (
            "<?php $v = [intval($_GET['n']), $_GET['s']][intval($_GET['i'])]; sort($v);",
            &[
                vec![("n", "1"), ("s", "a"), ("i", "0")],
                vec![("n", "1"), ("s", "a"), ("i", "1")],
            ],
            [
                "sort() expects an array, int given",
                "sort() expects an array, string given",
            ],
        ),
    ];
    for (src, params, messages) in cases {
        let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
        let (rids, requests, trace, reports) = fixtures(params);
        let inputs: Vec<_> = requests.iter().map(request_input).collect();
        let config = AuditConfig::new();
        let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
        let outcome =
            run_group(&script, &rids, &inputs, &mut ctx).unwrap_or_else(|r| panic!("{src}: {r}"));
        for (l, (out, input)) in outcome.outputs.iter().zip(&inputs).enumerate() {
            let scalar = run_request(&script, &mut NullBackend, input).unwrap();
            assert_eq!(out.status, 500, "{src}");
            assert_eq!(out.body, format!("Fatal error: {}", messages[l]), "{src}");
            assert_eq!(*out, scalar.output, "{src}");
            assert_eq!(outcome.tag, scalar.tag(), "{src}");
        }
    }
}

/// A failure in some lanes only: the requests end differently, so they
/// cannot share a tag, and the group is rejected.
#[test]
fn a_failure_in_some_lanes_only_is_divergence() {
    let src = "<?php echo intdiv(10, intval($_GET['b']));";
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) = fixtures(&[vec![("b", "0")], vec![("b", "2")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    match run_group(&script, &rids, &inputs, &mut ctx) {
        Err(Rejection::Divergence { .. }) => {}
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn per_lane_builtin_split_matches_scalar() {
    // sprintf over multivalues: split execution must equal running the
    // scalar builtin per request.
    let src = r#"<?php
        echo sprintf('%05d:%s', intval($_GET['n']), $_GET['s']);
    "#;
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) =
        fixtures(&[vec![("n", "42"), ("s", "a")], vec![("n", "7"), ("s", "b")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    assert_eq!(outcome.outputs[0].body, "00042:a");
    assert_eq!(outcome.outputs[1].body, "00007:b");
}

#[test]
fn single_lane_group_is_fully_univalent() {
    let src = "<?php echo intval($_GET['x']) * 3;";
    let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
    let (rids, requests, trace, reports) = fixtures(&[vec![("x", "5")]]);
    let inputs: Vec<_> = requests.iter().map(request_input).collect();
    let config = AuditConfig::new();
    let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
    let outcome = run_group(&script, &rids, &inputs, &mut ctx).unwrap();
    assert_eq!(outcome.outputs[0].body, "15");
    assert_eq!(outcome.multivalent, 0);
}

#[test]
fn a_recorded_value_of_the_wrong_kind_rejects_alike_grouped_and_scalar() {
    // Each call site reads one kind; the report recorded the other.
    let cases = [
        ("<?php echo time();", NondetValue::Rand(5)),
        ("<?php echo mt_rand(1, 6);", NondetValue::Time(100)),
    ];
    for (src, recorded) in cases {
        let script = compile("/prog.php", &parse_script(src).unwrap()).unwrap();
        let (rids, _, trace, mut reports) = fixtures(&[vec![("a", "1")], vec![("a", "2")]]);
        for &rid in &rids {
            reports.nondet.push(rid, recorded.clone());
        }
        let diagnostics = [false, true].map(|force_scalar| {
            let scripts = HashMap::from([("/prog.php".to_string(), script.clone())]);
            let mut exec = AccPhpExecutor::new(scripts);
            exec.force_scalar = force_scalar;
            let err = audit(&trace, &reports, &mut exec, &AuditConfig::new()).unwrap_err();
            // The grouped run rejects before any request goes scalar.
            assert_eq!(exec.stats.scalar_requests > 0, force_scalar, "{src}");
            (format!("{err:?}"), err.to_string())
        });
        let rid = rids[0];
        assert_eq!(
            diagnostics[0],
            (
                format!("{:?}", Rejection::NondetKindMismatch { rid }),
                format!("{rid} nondet value kind mismatch")
            ),
            "{src}"
        );
        assert_eq!(diagnostics[0], diagnostics[1], "{src}");
    }
}
