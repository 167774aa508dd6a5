//! Shared scaffolding for the benchmark suite.
//!
//! The Criterion benches and the table-printing binaries both need to
//! (a) run the Fig. 10 instruction microbenchmarks against the scalar
//! and multivalue VMs and (b) synthesize traces for the time-precedence
//! ablation; the helpers live here.

pub mod cli;
pub mod json;

use orochi_accphp::executor::request_input;
use orochi_accphp::groupvm::{self, run_group, GroupOutcome};
use orochi_accphp::VmEngine;
use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_core::audit::{AuditConfig, AuditContext};
use orochi_core::nondet::{NondetLog, NondetValue};
use orochi_core::reports::Reports;
use orochi_php::backend::NullBackend;
use orochi_php::bytecode::CompiledScript;
use orochi_php::vm::{run_request, RequestInput};
use orochi_php::{compile, parse_script};
use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

/// The ten instruction categories of Fig. 10, each as a loop body.
pub const FIG10_CATEGORIES: &[(&str, &str)] = &[
    ("Multiply", "$x = $a * $b;"),
    ("Concat", "$s = $a . $b;"),
    ("Isset", "$x = isset($a);"),
    ("Jump", "if ($a) { $x = 1; } else { $x = 2; }"),
    ("GetVal", "$x = $a;"),
    ("ArraySet", "$arr['k'] = $i;"),
    ("Iteration", "foreach ($small as $v) { $x = $v; }"),
    ("Microtime", "$t = microtime();"),
    ("Increment", "$i++;"),
    ("NewArray", "$arr2 = [];"),
];

/// Compiles the Fig. 10 microbenchmark script for one category: `iters`
/// executions of the category's operation inside a counted loop. The
/// operands `$a`/`$b` come from `$_GET`, so per-lane inputs control
/// univalent vs multivalent execution.
pub fn fig10_script(body: &str, iters: usize) -> CompiledScript {
    let src = format!(
        "<?php
         $a = $_GET['a'];
         $b = $_GET['b'];
         $small = [1, 2, 3];
         $arr = [];
         $i = 0;
         for ($n = 0; $n < {iters}; $n++) {{
             {body}
         }}
         echo 'done';"
    );
    compile("/bench.php", &parse_script(&src).unwrap()).unwrap()
}

/// Runs a Fig. 10 script on the unmodified scalar runtime.
pub fn run_fig10_scalar(script: &CompiledScript, a: &str, b: &str) {
    let mut backend = NullBackend;
    let input = RequestInput {
        method: "GET",
        path: "/bench.php",
        get: &[("a".into(), a.into()), ("b".into(), b.into())],
        ..Default::default()
    };
    let result = run_request(script, &mut backend, &input).expect("bench script runs");
    assert_eq!(result.output.status, 200, "bench script must not error");
}

/// A prepared multivalue-VM bench harness: lanes, inputs, and the
/// trace/report pair that backs the audit context.
pub struct Fig10Group {
    rids: Vec<RequestId>,
    requests: Vec<HttpRequest>,
    trace: Trace,
    reports: Reports,
    config: AuditConfig,
}

impl Fig10Group {
    /// Builds a group of `lanes` requests. With `identical_inputs` the
    /// operands collapse to univalues; otherwise every lane differs and
    /// the loop body executes multivalently. `nondet_steps` pre-records
    /// the per-lane `microtime` values the Microtime category consumes.
    pub fn new(lanes: usize, identical_inputs: bool, nondet_steps: usize) -> Self {
        let mut events = Vec::new();
        let mut rids = Vec::new();
        let mut requests = Vec::new();
        let mut nondet = NondetLog::new();
        for l in 0..lanes {
            let rid = RequestId(l as u64 + 1);
            rids.push(rid);
            let (a, b) = if identical_inputs {
                ("7".to_string(), "9".to_string())
            } else {
                ((l + 3).to_string(), (l * 2 + 5).to_string())
            };
            let req = HttpRequest::get("/bench.php", &[("a", &a), ("b", &b)]);
            requests.push(req.clone());
            events.push(Event::Request(rid, req));
            for step in 0..nondet_steps {
                let value = if identical_inputs {
                    step as f64
                } else {
                    (l * 1_000_000 + step) as f64
                };
                nondet.push(rid, NondetValue::Microtime(value));
            }
        }
        for &rid in &rids {
            events.push(Event::Response(rid, HttpResponse::ok(rid, "done")));
        }
        let reports = Reports {
            groupings: vec![(CtlFlowTag(1), rids.clone())],
            op_logs: Default::default(),
            op_counts: rids.iter().map(|r| (*r, 0)).collect(),
            nondet,
        };
        Fig10Group {
            rids,
            requests,
            trace: Trace { events },
            reports,
            config: AuditConfig::new(),
        }
    }

    /// Runs the script once over the group; panics on divergence (bench
    /// scripts are divergence-free by construction).
    pub fn run(&self, script: &CompiledScript) -> GroupOutcome {
        self.run_with(script, VmEngine::Register)
    }

    /// [`Fig10Group::run`] with an explicit engine — the register VM or
    /// the retained stack baseline — so the engine comparison can time
    /// both on identical groups.
    pub fn run_with(&self, script: &CompiledScript, engine: VmEngine) -> GroupOutcome {
        let mut ctx = AuditContext::prepare(&self.trace, &self.reports, &self.config)
            .expect("bench reports are well-formed");
        let inputs: Vec<RequestInput<'_>> = self.requests.iter().map(request_input).collect();
        match engine {
            VmEngine::Register => run_group(script, &self.rids, &inputs, &mut ctx),
            VmEngine::Stack => groupvm::stack::run_group(script, &self.rids, &inputs, &mut ctx),
        }
        .unwrap_or_else(|e| panic!("bench group failed: {e:?}"))
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.rids.len()
    }
}

/// Compiles the call-heavy engine-comparison script: `iters` iterations
/// of a loop whose body is two user-function calls (one nested). Call
/// frames dominate, which is where the register VM's pooled register
/// windows pay off against the stack VM's per-call local tables.
pub fn fig10_call_heavy_script(iters: usize) -> CompiledScript {
    let src = format!(
        "<?php
         function mix($x, $y) {{
             return ($x * 31 + $y) % 65521;
         }}
         function step($acc, $i, $a) {{
             $acc = mix($acc, $i);
             return mix($acc, $a);
         }}
         $a = $_GET['a'];
         $b = $_GET['b'];
         $acc = 0;
         for ($n = 0; $n < {iters}; $n++) {{
             $acc = step($acc, $n, $a);
         }}
         echo $acc . ' ' . $b;"
    );
    compile("/bench.php", &parse_script(&src).unwrap()).unwrap()
}

/// Zero-operation reports covering every request of `trace`: what an
/// executor that issued no state operations would ship. The graph-layer
/// ablation feeds these to `process_op_reports` so the measured cost is
/// the time-precedence + program-edge construction and the cycle check,
/// with no log-validation noise.
pub fn zero_op_reports(trace: &Trace) -> Reports {
    let rids: Vec<RequestId> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Request(rid, _) => Some(*rid),
            Event::Response(..) => None,
        })
        .collect();
    Reports {
        groupings: vec![(CtlFlowTag(1), rids.clone())],
        op_logs: Default::default(),
        op_counts: rids.iter().map(|r| (*r, 0)).collect(),
        nondet: Default::default(),
    }
}

/// Synthesizes a balanced trace of `epochs` epochs with `width`
/// mutually concurrent requests each (the §A.8 concurrency shape used
/// by the time-precedence ablation).
pub fn epoch_trace(epochs: usize, width: usize) -> Trace {
    let mut events = Vec::new();
    let mut next = 1u64;
    for _ in 0..epochs {
        let base = next;
        for i in 0..width {
            let rid = RequestId(base + i as u64);
            events.push(Event::Request(rid, HttpRequest::get("/x", &[])));
        }
        for i in 0..width {
            let rid = RequestId(base + i as u64);
            events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
        }
        next += width as u64;
    }
    Trace { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fig10_scripts_run_scalar() {
        for (_name, body) in FIG10_CATEGORIES {
            let script = fig10_script(body, 10);
            run_fig10_scalar(&script, "7", "9");
        }
    }

    #[test]
    fn univalent_groups_stay_univalent() {
        let script = fig10_script("$x = $a * $b;", 50);
        let group = Fig10Group::new(4, true, 0);
        let outcome = group.run(&script);
        assert!(
            outcome.univalent > outcome.multivalent * 10,
            "univalent {} multivalent {}",
            outcome.univalent,
            outcome.multivalent
        );
    }

    #[test]
    fn multivalent_groups_execute_per_lane() {
        let script = fig10_script("$x = $a * $b;", 50);
        let group = Fig10Group::new(4, false, 0);
        let outcome = group.run(&script);
        assert!(
            outcome.multivalent > 50,
            "multivalent {}",
            outcome.multivalent
        );
    }

    #[test]
    fn microtime_category_consumes_nondet_per_lane() {
        let script = fig10_script("$t = microtime();", 20);
        let group = Fig10Group::new(3, false, 20);
        let outcome = group.run(&script);
        assert_eq!(outcome.outputs.len(), 3);
    }

    #[test]
    fn epoch_trace_is_balanced() {
        let t = epoch_trace(5, 4);
        let b = t.ensure_balanced().unwrap();
        assert_eq!(b.num_requests(), 20);
    }
}
