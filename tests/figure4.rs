//! The three examples of Fig. 4 (§3.4), run through the full audit.
//!
//! Two requests execute different subroutines against registers A and B
//! (initialized to 0):
//!
//! ```text
//! f (r1): write(A, 1); x = read(B); output(x)
//! g (r2): write(B, 1); y = read(A); output(y)
//! ```
//!
//! A correct verifier must **reject a** (r1 finished before r2 arrived,
//! yet the responses (1, 0) are consistent with no schedule — the logs
//! and responses are arranged to cover for each other), **reject b**
//! (concurrent requests with responses (0, 0), impossible under any
//! schedule), and **accept c** (concurrent with (1, 1): both writes
//! before both reads). §3.4 shows that simulate-and-check alone would
//! wrongly accept a and b; consistent-ordering verification (§3.5)
//! catches them.

use orochi::core::audit::{audit, AuditConfig, Rejection};
use orochi::core::exec::FnExecutor;
use orochi::core::graph::GraphRejection;
use orochi::core::reports::Reports;
use orochi::state::{ObjectName, OpContents, OpLog, OpLogEntry, OpLogs};
use orochi::trace::{Event, HttpRequest, HttpResponse, Trace};
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId};

const R1: RequestId = RequestId(1);
const R2: RequestId = RequestId(2);

fn req(rid: RequestId, path: &str) -> Event {
    Event::Request(rid, HttpRequest::get(path, &[]))
}

fn resp(rid: RequestId, body: &str) -> Event {
    Event::Response(rid, HttpResponse::ok(rid, body))
}

fn write_entry(rid: RequestId, opnum: u32) -> OpLogEntry {
    OpLogEntry {
        rid,
        opnum: OpNum(opnum),
        contents: OpContents::RegisterWrite {
            value: vec![1].into(),
        },
    }
}

fn read_entry(rid: RequestId, opnum: u32) -> OpLogEntry {
    OpLogEntry {
        rid,
        opnum: OpNum(opnum),
        contents: OpContents::RegisterRead,
    }
}

fn reports(ol_a: Vec<OpLogEntry>, ol_b: Vec<OpLogEntry>) -> Reports {
    Reports {
        // One group per request: f and g are different subroutines.
        groupings: vec![(CtlFlowTag(1), vec![R1]), (CtlFlowTag(2), vec![R2])],
        op_logs: OpLogs::from_pairs(vec![
            (ObjectName("reg:A".into()), OpLog::from_entries(ol_a)),
            (ObjectName("reg:B".into()), OpLog::from_entries(ol_b)),
        ]),
        op_counts: [(R1, 2), (R2, 2)].into_iter().collect(),
        nondet: Default::default(),
    }
}

fn config() -> AuditConfig {
    let mut config = AuditConfig::new();
    // Registers initialized to 0 (the examples' assumption).
    config.initial_registers.insert("reg:A".into(), vec![0]);
    config.initial_registers.insert("reg:B".into(), vec![0]);
    config
}

/// The toy executor implementing f and g through the audit context.
fn fg_executor() -> impl orochi::core::exec::GroupExecutor {
    FnExecutor::new(|requests, ctx| {
        let mut outputs = Vec::new();
        for (rid, req) in requests {
            let (write_obj, read_obj) = if req.path == "/f.php" {
                ("reg:A", "reg:B")
            } else {
                ("reg:B", "reg:A")
            };
            ctx.register_write(*rid, &ObjectName(write_obj.into()), &[1])?;
            let got = ctx.register_read(*rid, &ObjectName(read_obj.into()))?;
            let value = got.map_or(0, |bytes| bytes[0]);
            outputs.push((*rid, HttpResponse::ok(*rid, value.to_string())));
        }
        Ok(outputs)
    })
}

#[test]
fn example_a_rejected() {
    // r1 completed before r2 arrived; responses (1, 0). The only output
    // consistent with that schedule is (0, 1) — accepting would violate
    // Soundness. The logs put r2's operations before r1's, which
    // contradicts the trace's time precedence: cycle.
    let trace = Trace {
        events: vec![
            req(R1, "/f.php"),
            resp(R1, "1"),
            req(R2, "/g.php"),
            resp(R2, "0"),
        ],
    };
    let r = reports(
        vec![read_entry(R2, 2), write_entry(R1, 1)],
        vec![write_entry(R2, 1), read_entry(R1, 2)],
    );
    let verdict = audit(&trace, &r, &mut fg_executor(), &config());
    assert_eq!(
        verdict.unwrap_err(),
        Rejection::Graph(GraphRejection::CycleDetected)
    );
}

#[test]
fn example_b_rejected() {
    // Concurrent requests; responses (0, 0): each read must precede the
    // other's write, a cycle in program+log order.
    let trace = Trace {
        events: vec![
            req(R1, "/f.php"),
            req(R2, "/g.php"),
            resp(R1, "0"),
            resp(R2, "0"),
        ],
    };
    let r = reports(
        vec![read_entry(R2, 2), write_entry(R1, 1)],
        vec![read_entry(R1, 2), write_entry(R2, 1)],
    );
    let verdict = audit(&trace, &r, &mut fg_executor(), &config());
    assert_eq!(
        verdict.unwrap_err(),
        Rejection::Graph(GraphRejection::CycleDetected)
    );
}

#[test]
fn example_c_accepted() {
    // Concurrent requests; responses (1, 1): a well-behaved executor
    // produces this by running both writes before either read.
    // Rejecting would violate Completeness.
    let trace = Trace {
        events: vec![
            req(R1, "/f.php"),
            req(R2, "/g.php"),
            resp(R1, "1"),
            resp(R2, "1"),
        ],
    };
    let r = reports(
        vec![write_entry(R1, 1), read_entry(R2, 2)],
        vec![write_entry(R2, 1), read_entry(R1, 2)],
    );
    audit(&trace, &r, &mut fg_executor(), &config())
        .unwrap_or_else(|rej| panic!("example c must be accepted, got: {rej}"));
}

#[test]
fn example_c_with_wrong_responses_rejected() {
    // Same consistent logs as c, but the executor claims (0, 1): the
    // simulated reads produce (1, 1), so the output check fires.
    let trace = Trace {
        events: vec![
            req(R1, "/f.php"),
            req(R2, "/g.php"),
            resp(R1, "0"),
            resp(R2, "1"),
        ],
    };
    let r = reports(
        vec![write_entry(R1, 1), read_entry(R2, 2)],
        vec![write_entry(R2, 1), read_entry(R1, 2)],
    );
    let verdict = audit(&trace, &r, &mut fg_executor(), &config());
    assert!(matches!(
        verdict.unwrap_err(),
        Rejection::OutputMismatch { .. }
    ));
}

#[test]
fn sequential_schedule_accepted() {
    // The legal sequential execution: r1 entirely before r2 gives
    // outputs (0, 1) — must be accepted with truthful logs.
    let trace = Trace {
        events: vec![
            req(R1, "/f.php"),
            resp(R1, "0"),
            req(R2, "/g.php"),
            resp(R2, "1"),
        ],
    };
    let r = reports(
        vec![write_entry(R1, 1), read_entry(R2, 2)],
        vec![read_entry(R1, 2), write_entry(R2, 1)],
    );
    audit(&trace, &r, &mut fg_executor(), &config())
        .unwrap_or_else(|rej| panic!("sequential schedule must be accepted, got: {rej}"));
}

#[test]
fn initial_values_feed_first_reads() {
    // A single request reading before any write sees the initial 0.
    let trace = Trace {
        events: vec![req(R1, "/f.php"), resp(R1, "0")],
    };
    let r = Reports {
        groupings: vec![(CtlFlowTag(1), vec![R1])],
        op_logs: OpLogs::from_pairs(vec![
            (
                ObjectName("reg:A".into()),
                OpLog::from_entries(vec![write_entry(R1, 1)]),
            ),
            (
                ObjectName("reg:B".into()),
                OpLog::from_entries(vec![read_entry(R1, 2)]),
            ),
        ]),
        op_counts: [(R1, 2)].into_iter().collect(),
        nondet: Default::default(),
    };
    audit(&trace, &r, &mut fg_executor(), &config())
        .unwrap_or_else(|rej| panic!("initial-value read must be accepted, got: {rej}"));
}
