//! Property tests for the streaming epoch audit (proptest).
//!
//! * Epoch boundaries are unobservable: for fuzzed epoch budgets — one
//!   event per epoch, odd mid-sized budgets, a budget at least the
//!   trace, and the batch fallback (0) — the streaming audit returns
//!   the identical verdict and diagnostic as the batch audit over the
//!   same sealed store, sequentially and pooled, for an honest run and
//!   for every tampered variant.
//! * Sealed-epoch state leaves the carry: feeding a whole trace through
//!   small epochs never accumulates the executed payloads — the
//!   high-water carry stays below the trace's own payload volume.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::AuditConfig;
use orochi::core::streaming::StreamingAudit;
use orochi::core::Rejection;
use orochi::harness::driver::{
    run_audit_cold, run_audit_streaming, serve, spill_bundle, AppWorkload, AuditOptions, AuditRun,
    ServeOptions,
};
use orochi::harness::tamper;
use orochi::trace::{Event, TraceStoreReader};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// One verdict string per audit: acceptance carries the re-execution
/// count, rejection the full diagnostic — so equality means the same
/// verdict *and* the same diagnostic.
fn verdict(run: &Result<AuditRun, Rejection>) -> String {
    match run {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(r) => format!("reject:{r}"),
    }
}

/// The audited variants: an honest run plus one tampering per rejection
/// family (trace output forgery, stale KV read, replayed KV write).
const VARIANTS: [&str; 4] = [
    "honest",
    "forged_cart_total",
    "stale_inventory_read",
    "replayed_kv_write",
];

/// Serving the shop workload per proptest case would dominate the
/// suite, so each variant is served, tampered, and spilled to a sealed
/// segment store once; every case re-audits the stores under a
/// different epoch budget.
fn fixture() -> &'static (AppWorkload, Vec<PathBuf>) {
    static CELL: OnceLock<(AppWorkload, Vec<PathBuf>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let work = AppWorkload::shop(0.01, 42);
        let dirs = VARIANTS
            .iter()
            .map(|variant| {
                let mut served = serve(&work, &ServeOptions::default());
                let tampered = match *variant {
                    "honest" => true,
                    "forged_cart_total" => tamper::forge_cart_total(&mut served.bundle.trace),
                    "stale_inventory_read" => {
                        tamper::reorder_kv_read(&mut served.bundle.reports, "inv:")
                    }
                    "replayed_kv_write" => {
                        tamper::replay_kv_write(&mut served.bundle.reports, "inv:")
                    }
                    _ => unreachable!(),
                };
                assert!(tampered, "{variant}: no tamper site in the workload");
                let dir = std::env::temp_dir().join(format!(
                    "orochi-test-streaming-{}-{variant}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                // Small segments so epoch boundaries and segment
                // boundaries interleave rather than coincide.
                spill_bundle(&served.bundle, &dir, 16 * 1024).expect("spill");
                dir
            })
            .collect();
        (work, dirs)
    })
}

/// The batch oracle, cached per (variant, threads): the budget axis is
/// what the property fuzzes, so the budget-free arm is computed once.
fn batch_verdict(variant: usize, threads: usize) -> String {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    if let Some(v) = cache.lock().unwrap().get(&(variant, threads)) {
        return v.clone();
    }
    let (work, dirs) = fixture();
    let reader = TraceStoreReader::open(&dirs[variant]).expect("open store");
    let opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let v = verdict(&run_audit_cold(&reader, work, &opts));
    cache.lock().unwrap().insert((variant, threads), v.clone());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the epoch budget — one event per epoch, a fuzzed
    /// mid-sized budget, a budget at least the whole trace, or the
    /// batch fallback (0) — the streaming audit's verdict and
    /// diagnostic are byte-identical to the batch audit's, at one
    /// worker and pooled, for the honest run and every tampered one.
    #[test]
    fn epoch_boundaries_never_change_the_verdict(
        budget in prop_oneof![
            Just(0usize),
            Just(1usize),
            2usize..48,
            Just(1usize << 20),
        ],
        variant in 0usize..4,
    ) {
        let (work, dirs) = fixture();
        let reader = TraceStoreReader::open(&dirs[variant]).expect("open store");
        for threads in [1usize, 4] {
            let opts = AuditOptions {
                threads,
                ..Default::default()
            };
            let batch = batch_verdict(variant, threads);
            let streaming = verdict(&run_audit_streaming(&reader, work, &opts, budget));
            prop_assert_eq!(
                &streaming, &batch,
                "variant {} budget {} threads {}",
                VARIANTS[variant], budget, threads
            );
        }
    }
}

/// Sealed epochs leave the carry: the high-water mark of
/// [`StreamingAudit::carry_bytes`] over a whole honest trace fed in
/// small epochs stays below the trace's own payload volume — executed
/// requests' payloads and compared responses are dropped at the epoch
/// boundary instead of accumulating the way the batch audit's resident
/// trace does.
#[test]
fn sealed_epoch_state_leaves_the_carry() {
    use orochi::workload::wiki;

    let work = AppWorkload {
        app: orochi::apps::wiki::app(),
        workload: wiki::generate(&wiki::Params::scaled(0.02), 7),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let bundle = served.bundle;
    let payload_total: usize = bundle
        .trace
        .events
        .iter()
        .map(|e| match e {
            Event::Request(..) => 0,
            Event::Response(_, resp) => resp.body.len(),
        })
        .sum();

    let scripts = work.app.compile().expect("application compiles");
    let mut config = AuditConfig::new();
    config
        .initial_dbs
        .insert("db:main".to_string(), work.initial_db());
    let mut executors = vec![AccPhpExecutor::new(scripts)];
    let mut audit = StreamingAudit::new(&bundle.reports, &config, 1);
    let mut max_carry = 0usize;
    for epoch in bundle.trace.events.chunks(8) {
        assert!(
            audit.feed_epoch(epoch, &mut executors),
            "audit gave up early"
        );
        max_carry = max_carry.max(audit.carry_bytes());
    }
    assert!(audit.epochs() > 1, "trace too small to cross an epoch");
    assert!(
        max_carry < payload_total,
        "carry high-water {max_carry} B should stay below the trace payload {payload_total} B"
    );
    let outcome = audit.finish(&bundle.trace, &mut executors);
    assert!(
        outcome.is_ok(),
        "honest wiki run rejected: {}",
        outcome.unwrap_err()
    );
}

// ---- The precedence table, executable -------------------------------
//
// balance → report validation → nondet → redo → lowest failed group →
// grouping cut → first output problem. For each adjacent pair one
// bundle carries *both* faults, and every entry point must report the
// earlier stage's diagnostic, byte for byte.

mod precedence {
    use orochi::accphp::AccPhpExecutor;
    use orochi::core::audit::{audit, audit_parallel, AuditConfig, Rejection};
    use orochi::core::nondet::NondetValue;
    use orochi::core::reports::Reports;
    use orochi::core::streaming::audit_streaming_source;
    use orochi::php::CompiledScript;
    use orochi::server::{Server, ServerConfig};
    use orochi::state::{DbWriteResult, ObjectName, OpContents, OpLog, OpLogEntry};
    use orochi::trace::{Event, HttpRequest, Trace};
    use orochi_common::ids::{CtlFlowTag, OpNum, RequestId};
    use std::collections::HashMap;

    type Scripts = HashMap<String, CompiledScript>;

    /// What the verifier receives: the part of a served bundle the
    /// faults edit.
    #[derive(Clone)]
    struct Bundle {
        trace: Trace,
        reports: Reports,
    }

    /// An honest HotCRP run: transactions, a session register, and
    /// recorded nondeterminism — every stage has something to check.
    fn honest() -> (Bundle, Scripts, AuditConfig) {
        let app = orochi::apps::hotcrp::app();
        let scripts = app.compile().unwrap();
        let server = Server::new(ServerConfig {
            scripts: scripts.clone(),
            initial_db: app.initial_db(),
            recording: true,
            seed: 31,
            ..Default::default()
        });
        let alice = |req: HttpRequest| req.with_cookie("sess", "alice");
        server.handle(alice(HttpRequest::post(
            "/login.php",
            &[],
            &[("who", "alice")],
        )));
        for title in ["T", "U"] {
            server.handle(alice(HttpRequest::post(
                "/submit.php",
                &[],
                &[("title", title), ("abstract", "A")],
            )));
        }
        server.handle(alice(HttpRequest::post(
            "/review.php",
            &[],
            &[("id", "1"), ("score", "4"), ("body", "ok")],
        )));
        server.handle(HttpRequest::get("/paper.php", &[("id", "1")]));
        server.handle(HttpRequest::get("/list.php", &[]));
        let served = server.into_bundle();
        let bundle = Bundle {
            trace: served.trace,
            reports: served.reports,
        };
        let mut config = AuditConfig::new();
        config
            .initial_dbs
            .insert("db:main".to_string(), app.initial_db());
        (bundle, scripts, config)
    }

    /// Rewrites the `db:main` log's entries in place.
    fn edit_db_log(bundle: &mut Bundle, edit: impl FnOnce(&mut Vec<orochi::state::OpLogEntry>)) {
        let logs = &mut bundle.reports.op_logs;
        let i = logs.index_of(&ObjectName("db:main".into())).unwrap();
        let log = logs.log_mut(i).unwrap();
        let mut entries = log.entries().to_vec();
        edit(&mut entries);
        *log = OpLog::from_entries(entries);
    }

    /// The `nth` logged INSERT statement (the last one if there are
    /// fewer), as `(entry, query)` indices.
    fn nth_insert(entries: &[orochi::state::OpLogEntry], nth: usize) -> (usize, usize) {
        let mut inserts = Vec::new();
        for (e, entry) in entries.iter().enumerate() {
            if let OpContents::DbOp { queries, .. } = &entry.contents {
                let hits = queries
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.starts_with("INSERT"));
                inserts.extend(hits.map(|(q, _)| (e, q)));
            }
        }
        inserts[nth.min(inserts.len() - 1)]
    }

    /// One seeded fault per stage of the table.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// The last response never departs.
        Balance,
        /// A log entry claims an opnum its request never issued.
        Reports,
        /// A request's recorded clock runs backwards.
        Nondet,
        /// A logged write result the redo pass cannot reproduce.
        Redo,
        /// The `n`-th INSERT's text differs from what re-execution
        /// issues (the redo pass replays it happily).
        Group(usize),
        /// A grouping names a request the trace never contained,
        /// before every real group (`true`) or after them all.
        Cut { first: bool },
        /// The first response's body is forged.
        Output,
    }

    impl Fault {
        fn apply(self, bundle: &mut Bundle) {
            match self {
                Fault::Balance => {
                    let last = bundle
                        .trace
                        .events
                        .iter()
                        .rposition(|e| matches!(e, Event::Response(..)));
                    bundle.trace.events.remove(last.unwrap());
                }
                Fault::Reports => edit_db_log(bundle, |entries| {
                    let last = entries.last_mut().unwrap();
                    last.opnum = OpNum(last.opnum.0 + 1);
                }),
                Fault::Nondet => {
                    let rid = bundle.trace.events[0].rid();
                    bundle.reports.nondet.push(rid, NondetValue::Time(5));
                    bundle.reports.nondet.push(rid, NondetValue::Time(1));
                }
                Fault::Redo => edit_db_log(bundle, |entries| {
                    let (e, q) = nth_insert(entries, 0);
                    if let OpContents::DbOp { write_results, .. } = &mut entries[e].contents {
                        write_results[q] = Some(DbWriteResult {
                            affected: 99,
                            last_insert_id: None,
                        });
                    }
                }),
                Fault::Group(nth) => edit_db_log(bundle, |entries| {
                    let (e, q) = nth_insert(entries, nth);
                    if let OpContents::DbOp { queries, .. } = &mut entries[e].contents {
                        queries[q] = queries[q].replace("INSERT", "INSERT ").into();
                    }
                }),
                Fault::Cut { first } => {
                    let ghost = (CtlFlowTag(0xdead), vec![RequestId(999_999)]);
                    let at = if first {
                        0
                    } else {
                        bundle.reports.groupings.len()
                    };
                    bundle.reports.groupings.insert(at, ghost);
                }
                Fault::Output => {
                    let first = bundle.trace.events.iter_mut().find_map(|e| match e {
                        Event::Response(_, resp) => Some(resp),
                        Event::Request(..) => None,
                    });
                    first.unwrap().body.push('!');
                }
            }
        }

        /// Whether `rejection` belongs to this fault's stage.
        fn owns(self, rejection: &Rejection) -> bool {
            match self {
                Fault::Balance => matches!(rejection, Rejection::Unbalanced(_)),
                Fault::Reports => matches!(rejection, Rejection::Graph(_)),
                Fault::Nondet => matches!(rejection, Rejection::NondetInvalid(_)),
                Fault::Redo => matches!(rejection, Rejection::Redo(_)),
                Fault::Group(_) => matches!(rejection, Rejection::DbQueryMismatch { .. }),
                Fault::Cut { .. } => matches!(rejection, Rejection::GroupUnknownRequest { .. }),
                Fault::Output => matches!(rejection, Rejection::OutputMismatch { .. }),
            }
        }
    }

    /// The diagnostic on every entry point: `audit`, `audit_parallel`
    /// at 4 threads, and `audit_streaming_source` at budgets {0, 1,
    /// mid} sequentially and pooled. Panics if any two disagree.
    fn verdict_everywhere(bundle: &Bundle, scripts: &Scripts, config: &AuditConfig) -> Rejection {
        let pool = |n: usize| -> Vec<AccPhpExecutor> {
            (0..n)
                .map(|_| AccPhpExecutor::new(scripts.clone()))
                .collect()
        };
        let (trace, reports) = (&bundle.trace, &bundle.reports);
        let reference =
            audit(trace, reports, &mut pool(1)[0], config).expect_err("a faulty bundle");
        let mut others = vec![(
            "audit_parallel@4".to_string(),
            audit_parallel(trace, reports, &mut pool(4), config),
        )];
        for budget in [0, 1, trace.len() / 2] {
            for threads in [1, 4] {
                others.push((
                    format!("streaming budget {budget} @{threads}"),
                    audit_streaming_source(trace, reports, &mut pool(threads), config, budget),
                ));
            }
        }
        for (path, verdict) in others {
            let rejection = verdict.err().unwrap_or_else(|| panic!("{path} accepted"));
            assert_eq!(rejection, reference, "{path}");
            assert_eq!(format!("{rejection:?}"), format!("{reference:?}"), "{path}");
            assert_eq!(rejection.to_string(), reference.to_string(), "{path}");
        }
        reference
    }

    #[test]
    fn the_earlier_stage_wins_on_every_entry_point() {
        let (honest, scripts, config) = honest();
        let alone = |fault: Fault| {
            let mut bundle = honest.clone();
            fault.apply(&mut bundle);
            let rejection = verdict_everywhere(&bundle, &scripts, &config);
            assert!(
                fault.owns(&rejection),
                "{fault:?} alone rejected with: {rejection}"
            );
            rejection
        };
        // Which of the two tampered INSERTs sits in the lower-indexed
        // group is the workload's business; ask the reports.
        let group_of = |rejection: &Rejection| {
            let Rejection::DbQueryMismatch { rid, .. } = rejection else {
                unreachable!("checked by `owns`")
            };
            let names = |(_, rids): &(CtlFlowTag, Vec<RequestId>)| rids.contains(rid);
            honest.reports.groupings.iter().position(names).unwrap()
        };
        // The first INSERT is a submission's, the last the review's.
        let (first, last) = (Fault::Group(0), Fault::Group(usize::MAX));
        let (g0, g1) = (group_of(&alone(first)), group_of(&alone(last)));
        assert_ne!(g0, g1, "the INSERTs must fail different groups");
        let (low, high) = if g0 < g1 {
            (first, last)
        } else {
            (last, first)
        };
        let table = [
            (Fault::Balance, Fault::Reports),
            (Fault::Reports, Fault::Nondet),
            (Fault::Nondet, Fault::Redo),
            (Fault::Redo, low),
            (low, high),
            (low, Fault::Cut { first: false }),
            (Fault::Cut { first: true }, low),
            (Fault::Cut { first: false }, Fault::Output),
        ];
        for (earlier, later) in table {
            let expected = alone(earlier);
            let mut bundle = honest.clone();
            // Applied later-first, so application order cannot be what
            // decides the verdict.
            later.apply(&mut bundle);
            earlier.apply(&mut bundle);
            let both = verdict_everywhere(&bundle, &scripts, &config);
            assert_eq!(
                both.to_string(),
                expected.to_string(),
                "{earlier:?} must outrank {later:?}"
            );
        }
    }

    /// Moves a request's second operation just ahead of its first, in
    /// the first operation's log.
    fn invert_program_order(bundle: &mut Bundle) {
        let counts = &bundle.reports.op_counts;
        let rid = *counts
            .iter()
            .filter(|(_, &m)| m >= 2)
            .map(|(r, _)| r)
            .min()
            .unwrap();
        let ops = &mut bundle.reports.op_logs;
        let mut logs: Vec<Vec<OpLogEntry>> = (0..ops.len())
            .map(|i| ops.log(i).unwrap().entries().to_vec())
            .collect();
        let at = |logs: &[Vec<OpLogEntry>], opnum: u32| {
            let is = |e: &OpLogEntry| e.rid == rid && e.opnum == OpNum(opnum);
            let mut logs = logs.iter().enumerate();
            logs.find_map(|(i, es)| Some((i, es.iter().position(is)?)))
        };
        let (i, k) = at(&logs, 2).unwrap();
        let second = logs[i].remove(k);
        let (i, k) = at(&logs, 1).unwrap();
        logs[i].insert(k, second);
        for (i, entries) in logs.into_iter().enumerate() {
            *ops.log_mut(i).unwrap() = OpLog::from_entries(entries);
        }
    }

    #[test]
    fn every_report_rejection_is_identical_on_every_entry_point() {
        let (honest, scripts, config) = honest();
        type Edit = fn(&mut Bundle);
        let table: [(&str, Edit); 7] = [
            ("LogEntryUnknownRequest", |b| {
                edit_db_log(b, |es| es.last_mut().unwrap().rid = RequestId(999_999))
            }),
            ("LogEntryBadOpnum", |b| {
                edit_db_log(b, |es| es.last_mut().unwrap().opnum = OpNum(0))
            }),
            ("DuplicateOperation", |b| {
                edit_db_log(b, |es| es.push(es[0].clone()))
            }),
            ("MissingOperation", |b| {
                edit_db_log(b, |es| {
                    es.pop();
                })
            }),
            ("LogOrderViolation", invert_program_order),
            ("DuplicateObjectName", |b| {
                let name = b.reports.op_logs.name(0).unwrap().clone();
                b.reports.op_logs.push(name, OpLog::new());
            }),
            // The trace is sequential, so a log that puts a later
            // request's operation first contradicts time precedence.
            ("CycleDetected", |b| {
                edit_db_log(b, |es| {
                    let k = es.windows(2).position(|w| w[0].rid != w[1].rid).unwrap();
                    es.swap(k, k + 1);
                })
            }),
        ];
        for (kind, edit) in table {
            let mut bundle = honest.clone();
            edit(&mut bundle);
            let rejection = verdict_everywhere(&bundle, &scripts, &config);
            let Rejection::Graph(graph) = &rejection else {
                panic!("{kind}: rejected with {rejection}");
            };
            assert!(
                format!("{graph:?}").starts_with(kind),
                "{kind}: rejected with {rejection}"
            );
        }
    }
}

// ---- Re-run paths and counter identity --------------------------------

mod reruns {
    use orochi::core::audit::{audit, AuditConfig, AuditContext, Rejection};
    use orochi::core::exec::FnExecutor;
    use orochi::core::reports::Reports;
    use orochi::core::streaming::audit_streaming_source;
    use orochi::trace::{Event, HttpRequest, HttpResponse, Trace};
    use orochi_common::ids::{CtlFlowTag, RequestId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Op-less requests 1..=n, two in flight at a time (so small epochs
    /// split any group), grouped as `groups` says.
    fn fixture(n: u64, groups: &[&[u64]]) -> (Trace, Reports) {
        let mut events = Vec::new();
        for k in 1..=n + 1 {
            if k <= n {
                events.push(Event::Request(RequestId(k), HttpRequest::get("/p", &[])));
            }
            if k > 1 {
                let rid = RequestId(k - 1);
                events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
            }
        }
        let reports = Reports {
            groupings: groups
                .iter()
                .enumerate()
                .map(|(g, rids)| {
                    (
                        CtlFlowTag(g as u64),
                        rids.iter().map(|r| RequestId(*r)).collect(),
                    )
                })
                .collect(),
            op_counts: (1..=n).map(|k| (RequestId(k), 0)).collect(),
            ..Reports::new()
        };
        (Trace { events }, reports)
    }

    fn respond(
        requests: &[(RequestId, HttpRequest)],
        body: impl Fn(RequestId) -> &'static str,
    ) -> Vec<(RequestId, HttpResponse)> {
        requests
            .iter()
            .map(|(rid, _)| (*rid, HttpResponse::ok(*rid, body(*rid))))
            .collect()
    }

    /// A sub-group run fails, the whole-group run passes: settling
    /// re-runs the group whole and its outputs stand — nothing of the
    /// sub-group failure reaches the verdict.
    #[test]
    fn a_passing_whole_rerun_supersedes_a_subgroup_failure() {
        let (trace, reports) = fixture(4, &[&[1, 2, 3, 4]]);
        let config = AuditConfig::new();
        let calls = AtomicUsize::new(0);
        let needs_whole_group = |body: fn(RequestId) -> &'static str| {
            let calls = &calls;
            FnExecutor::new(
                move |requests: &[(RequestId, HttpRequest)], _ctx: &mut AuditContext<'_>| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if requests.len() < 4 {
                        return Err(Rejection::ExecFailure("partial group".into()));
                    }
                    Ok(respond(requests, body))
                },
            )
        };
        let batch = audit(&trace, &reports, &mut needs_whole_group(|_| "ok"), &config).unwrap();
        calls.store(0, Ordering::Relaxed);
        let mut pool = [needs_whole_group(|_| "ok")];
        let streamed = audit_streaming_source(&trace, &reports, &mut pool, &config, 3).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "one failed sub-group, one whole re-run"
        );
        assert_eq!(streamed.stats.groups_executed, batch.stats.groups_executed);
        assert_eq!(
            streamed.stats.requests_reexecuted,
            batch.stats.requests_reexecuted
        );

        // The re-run's outputs are compared like any other's.
        let wrong_for_3 = |rid: RequestId| if rid == RequestId(3) { "forged" } else { "ok" };
        let batch = audit(
            &trace,
            &reports,
            &mut needs_whole_group(wrong_for_3),
            &config,
        )
        .unwrap_err();
        let mut pool = [needs_whole_group(wrong_for_3)];
        let streamed = audit_streaming_source(&trace, &reports, &mut pool, &config, 3).unwrap_err();
        assert_eq!(batch, Rejection::OutputMismatch { rid: RequestId(3) });
        assert_eq!(streamed.to_string(), batch.to_string());
    }

    /// A whole group fails in an early epoch and later groups are
    /// skipped behind it; then more requests arrive, so that failure is
    /// no longer the sequential walk's. Settling re-runs it — and the
    /// groups it had shadowed.
    #[test]
    fn groups_skipped_behind_a_superseded_failure_run_after_all() {
        let (trace, reports) = fixture(6, &[&[1], &[2], &[3, 4], &[5, 6]]);
        let config = AuditConfig::new();
        let calls = AtomicUsize::new(0);
        let mut pool = [FnExecutor::new(
            |requests: &[(RequestId, HttpRequest)], _ctx: &mut AuditContext<'_>| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    return Err(Rejection::ExecFailure("first call".into()));
                }
                Ok(respond(requests, |_| "ok"))
            },
        )];
        // Epoch 1 answers requests 1 and 2: group 0 fails whole, group 1
        // is skipped. Requests 4..6 arrive afterwards.
        let outcome = audit_streaming_source(&trace, &reports, &mut pool, &config, 5).unwrap();
        assert_eq!(outcome.stats.groups_executed, 4);
        assert_eq!(outcome.stats.requests_reexecuted, 6);
    }
}

/// An honest run's counters do not depend on how it was driven: the
/// sequential batch audit, the push API fed one whole-trace epoch, and
/// a multi-epoch run all report the same `AuditStats` — the group count
/// included, which the engine counts rather than patches up. (Under
/// sub-grouping only the schedule-dependent splits may move: dedup
/// hits vs. issues, and univalent dispatches actually executed.)
#[test]
fn honest_counters_are_identical_however_the_audit_is_driven() {
    use orochi::core::audit::{audit_source, AuditStats};
    use orochi::core::streaming::audit_streaming_source;
    use orochi::core::{load_reports, Reports};

    let (work, dirs) = fixture();
    let reader = TraceStoreReader::open(&dirs[0]).expect("open store");
    let reports: Reports = load_reports(&reader).expect("reports blob");
    let config = work.audit_config();
    let executor = || AccPhpExecutor::new(work.app.compile().expect("application compiles"));
    let mut events: Vec<Event> = Vec::new();
    orochi::trace::TraceSource::stream_events(&reader, &mut |e| {
        events.push(e);
        true
    })
    .expect("sealed segments decode");

    let batch = audit_source(&reader, &reports, &mut executor(), &config)
        .expect("honest")
        .stats;
    let mut pool = [executor()];
    let mut pushed = StreamingAudit::new(&reports, &config, 1);
    assert!(pushed.feed_epoch(&events, &mut pool));
    let pushed = pushed.finish(&reader, &mut pool).expect("honest").stats;
    let mid = audit_streaming_source(
        &reader,
        &reports,
        &mut [executor()],
        &config,
        events.len() / 7,
    )
    .expect("honest")
    .stats;

    let fixed = |s: &AuditStats| {
        (
            (s.groups_executed, s.requests_reexecuted),
            (s.register_ops, s.kv_ops, s.db_txns, s.db_queries),
            s.db_queries_deduped + s.db_queries_issued,
            s.vm_dispatch_total,
            (s.graph_nodes, s.graph_edges),
            (s.redo.transactions, s.redo.queries, s.redo.versions_created),
        )
    };
    let split = |s: &AuditStats| {
        (
            s.db_queries_deduped,
            s.db_queries_issued,
            s.vm_dispatch_executed,
        )
    };
    assert!(batch.groups_executed > 1 && batch.requests_reexecuted > batch.groups_executed);
    assert_eq!(fixed(&pushed), fixed(&batch), "one pushed epoch vs batch");
    assert_eq!(
        split(&pushed),
        split(&batch),
        "one epoch, one lane: same schedule"
    );
    assert_eq!(fixed(&mid), fixed(&batch), "multi-epoch vs batch");
}
