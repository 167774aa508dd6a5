//! The multivalue VM: superposed execution of one control-flow group.
//!
//! Runs the same register bytecode through the same dispatch loop as
//! the scalar runtime ([`orochi_php::vm::execute`]), in a lane domain of
//! one lane per member: every register and global holds an
//! [`MVal`](crate::mval::MVal) — the multivalue lanes are widened *over
//! the register file*, so one 32-bit instruction executes across all
//! member requests at once. The execution discipline follows §3.1/§4.3:
//!
//! * instructions with univalue operands execute **once**;
//! * instructions with multivalue operands execute **per lane** — once
//!   per distinct operand identity, lanes holding the same handles share
//!   the result ([`crate::mval::LaneMemo`]) — and the result collapses
//!   back to a univalue whenever the lanes agree;
//! * conditional branches (and iteration steps) require a *uniform*
//!   decision across lanes, which goes into the group's control-flow
//!   digest as the scalar VM mixes it per request — otherwise the group
//!   **diverges** and the audit rejects with
//!   [`Rejection::Divergence`] (Fig. 12 line 39);
//! * a failure in every lane at one instruction is the group's ending,
//!   each lane answering the 500 page of its own message; a failure in
//!   some lanes only is divergence. The run's outcome carries the tag
//!   ([`orochi_php::vm::ctl_flow_tag`]) of that digest, ending and
//!   instruction count, for the executor to check against the claimed
//!   one;
//! * state operations split into per-lane `CheckOp`/`SimOp` calls against
//!   the [`AuditContext`] (Fig. 12 lines 41–47), and nondeterministic
//!   builtins consume each lane's recorded values (§4.6);
//! * pure builtins with multivalue arguments split into per-lane calls
//!   of the *same* implementations the scalar VM uses (§4.3 "built-in
//!   functions").
//!
//! This file holds the entry points; the domain — lane effects,
//! accounting, the per-lane helper and the builtins — is the `group`
//! module. [`run_group`] builds each member's page; [`check_group`], what the
//! audit runs, compares each member's echoes against its traced
//! response in place and builds none. `tests/sharing.rs` checks every
//! group run against the scalar VM, member by member, and the check
//! against the built pages.

use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_core::audit::{AuditContext, Rejection};
use orochi_php::bytecode::CompiledScript;
use orochi_php::vm::{execute, RequestInput, RequestOutput, STEP_LIMIT};
use orochi_trace::ResponseRef;

mod group;

pub(crate) use group::{db_result, rows_to_value};
use group::{Build, Check, Group, Sink};

/// Result of a grouped run.
#[derive(Debug)]
pub struct GroupOutcome<O = RequestOutput> {
    /// Per lane (same order as the input requests): its response for
    /// [`run_group`], whether it equals the traced one for
    /// [`check_group`].
    pub outputs: Vec<O>,
    /// The control-flow tag every member's scalar run would compute.
    pub tag: CtlFlowTag,
    /// Instructions that executed once for the whole group.
    pub univalent: u64,
    /// Instructions that executed per lane.
    pub multivalent: u64,
    /// Logged session/APC versions decoded: one per distinct version
    /// the group read, however many lanes read it.
    pub logged_decodes: u64,
}

/// Runs one control-flow group's superposed execution and builds each
/// member's response.
pub fn run_group(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    ctx: &mut AuditContext<'_>,
) -> Result<GroupOutcome, Rejection> {
    let pages = Build(vec![String::new(); rids.len()]);
    run_group_limited(script, rids, inputs, pages, ctx, STEP_LIMIT)
}

/// Runs one control-flow group's superposed execution and checks each
/// member's output against `expected` (its traced response, one per
/// member, same order) without building it: `outputs[l]` is exactly
/// `expected[l] == ` the response [`run_group`] would build for lane
/// `l`, labelled with `rids[l]`.
pub fn check_group(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    expected: &[ResponseRef<'_>],
    ctx: &mut AuditContext<'_>,
) -> Result<GroupOutcome<bool>, Rejection> {
    debug_assert_eq!(rids.len(), expected.len(), "one response per rid");
    run_group_limited(script, rids, inputs, Check::new(expected), ctx, STEP_LIMIT)
}

fn run_group_limited<S: Sink>(
    script: &CompiledScript,
    rids: &[RequestId],
    inputs: &[RequestInput<'_>],
    out: S,
    ctx: &mut AuditContext<'_>,
    step_limit: u64,
) -> Result<GroupOutcome<S::Out>, Rejection> {
    let mut group = Group::new(script, rids, inputs, out, ctx, step_limit);
    let flow = execute(script, &mut group);
    group.finish(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::request_input;
    use orochi_common::ids::CtlFlowTag;
    use orochi_core::audit::AuditConfig;
    use orochi_core::reports::Reports;
    use orochi_php::backend::NullBackend;
    use orochi_php::vm::{run_request, STEP_LIMIT_EXCEEDED};
    use orochi_php::{compile, parse_script};
    use orochi_trace::{Event, HttpRequest, HttpResponse, Trace};

    /// The loop's fatal paths: each script stops with one uniform fatal,
    /// and every lane of a group answers the page the scalar VM answers
    /// for it alone. The step limit is lowered through the private entry
    /// point — it is a constant, not a knob — so its scalar page is the
    /// one `orochi_php::vm` pins for the scalar VM and the stack oracle.
    #[test]
    fn runaway_loop_stops_at_the_step_limit_on_the_group_vm() {
        const LIMIT: u64 = 10_000;
        let cases = [
            ("while (true) { $i = 1; }", LIMIT),
            (
                "function f($n) { return f($n + 1); } echo 'a'; f(0);",
                STEP_LIMIT,
            ),
            (
                "function g($a, $b) { return $a; } echo $_GET['x']; g(1);",
                STEP_LIMIT,
            ),
            ("echo 'x'; header('no colon');", STEP_LIMIT),
            ("http_response_code(42); echo 'y';", STEP_LIMIT),
        ];
        for (body, limit) in cases {
            let script =
                compile("/t.php", &parse_script(&format!("<?php {body}")).unwrap()).unwrap();
            let rids = [RequestId(1), RequestId(2), RequestId(3)];
            let requests = [
                HttpRequest::get("/t.php", &[("x", "1")]),
                HttpRequest::get("/t.php", &[]),
                HttpRequest::get("/t.php", &[("x", "2")]),
            ];
            let inputs: Vec<_> = requests.iter().map(request_input).collect();
            let scalar = |input| match limit {
                LIMIT => RequestOutput {
                    status: 500,
                    headers: Vec::new(),
                    body: format!("Fatal error: {STEP_LIMIT_EXCEEDED}"),
                },
                _ => {
                    run_request(&script, &mut NullBackend, input)
                        .unwrap()
                        .output
                }
            };
            let mut events: Vec<Event> = rids
                .iter()
                .zip(&requests)
                .map(|(rid, req)| Event::Request(*rid, req.clone()))
                .collect();
            events.extend(rids.map(|rid| Event::Response(rid, HttpResponse::ok(rid, ""))));
            let reports = Reports {
                groupings: vec![(CtlFlowTag(1), rids.to_vec())],
                op_logs: Default::default(),
                op_counts: rids.iter().map(|r| (*r, 0)).collect(),
                nondet: Default::default(),
            };
            let (trace, config) = (Trace { events }, AuditConfig::new());
            let mut ctx = AuditContext::prepare(&trace, &reports, &config).unwrap();
            let pages = Build(vec![String::new(); rids.len()]);
            let outcome = run_group_limited(&script, &rids, &inputs, pages, &mut ctx, limit)
                .unwrap_or_else(|e| panic!("{body}: {e:?}"));
            if limit == LIMIT {
                assert_eq!(outcome.univalent + outcome.multivalent, LIMIT);
            }
            for (out, input) in outcome.outputs.iter().zip(&inputs) {
                assert_eq!(out.status, 500, "{body}: {}", out.body);
                assert_eq!(*out, scalar(input), "{body}");
            }
        }
    }
}
