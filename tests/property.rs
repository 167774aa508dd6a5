//! Property-based tests on the core invariants (proptest).
//!
//! * The frontier algorithm's reachability is exactly the trace's
//!   time-precedence relation (Lemma 2), matching both the dense oracle
//!   and `BalancedTrace::precedes`.
//! * Wire codecs roundtrip for PHP values and report bundles.
//! * The versioned KV equals the replay-prefix model at every position.
//! * The versioned DB redo reproduces the online engine's state after
//!   every committed statement and at every transaction boundary, and an
//!   aborted transaction's reads as the engine answered them.
//! * PHP arrays behave like an ordered-map reference model.
//! * End-to-end completeness: honest random workloads always pass the
//!   audit (the Completeness property of §2, fuzzed).

use orochi::core::graph::{process_op_reports, two_phase};
use orochi::core::precedence::{create_time_precedence_graph, dense_time_precedence};
use orochi::core::reports::Reports;
use orochi::php::{ArrayKey, PhpArray, Value};
use orochi::sqldb::{Database, VersionedDb, MAXQ};
use orochi::state::{ObjectName, OpContents, OpLog, OpLogEntry, OpLogs, VersionedKv};
use orochi::trace::{BalancedTrace, Event, HttpRequest, HttpResponse, Trace};
use orochi_common::codec::Wire;
use orochi_common::ids::{OpNum, RequestId, SeqNum};
use proptest::prelude::*;

/// Generates a random balanced trace: a sequence of open/close actions
/// over up to `max_requests` requests.
fn balanced_trace_strategy(max_requests: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(any::<(bool, u8)>(), 0..max_requests * 2).prop_map(|actions| {
        let mut events = Vec::new();
        let mut open: Vec<RequestId> = Vec::new();
        let mut next = 1u64;
        for (do_open, pick) in actions {
            if do_open || open.is_empty() {
                let rid = RequestId(next);
                next += 1;
                events.push(Event::Request(rid, HttpRequest::get("/x", &[])));
                open.push(rid);
            } else {
                let idx = pick as usize % open.len();
                let rid = open.swap_remove(idx);
                events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
            }
        }
        for rid in open {
            events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
        }
        Trace { events }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frontier_reachability_equals_time_precedence(
        trace in balanced_trace_strategy(12)
    ) {
        let balanced = trace.ensure_balanced().unwrap();
        let fast = create_time_precedence_graph(&balanced);
        let dense = dense_time_precedence(&balanced);
        let rids: Vec<RequestId> = balanced.request_ids().collect();
        for &a in &rids {
            for &b in &rids {
                if a == b {
                    continue;
                }
                let expected = balanced.precedes(a, b);
                prop_assert_eq!(fast.has_path(a, b), expected, "frontier {} -> {}", a, b);
                prop_assert_eq!(dense.has_path(a, b), expected, "dense {} -> {}", a, b);
            }
        }
        // Minimality (Lemma 12): the frontier graph never has more edges
        // than the dense one, and no edge is redundant with the direct
        // relation.
        prop_assert!(fast.edges.len() <= dense.edges.len());
        for (a, b) in &fast.edges {
            prop_assert!(balanced.precedes(*a, *b));
        }
    }

    /// Lemma 12, exactly: on an epoch trace (each epoch's requests
    /// mutually concurrent, adjacent epochs fully ordered) the minimum
    /// edge set is the union of the complete bipartite graphs between
    /// adjacent epochs — and the frontier algorithm emits precisely
    /// that many edges, for randomized epoch widths.
    #[test]
    fn lemma12_frontier_edge_count_is_bipartite_minimum(
        widths in proptest::collection::vec(1usize..6, 1..8)
    ) {
        let mut events = Vec::new();
        let mut next = 1u64;
        for &w in &widths {
            let base = next;
            for i in 0..w as u64 {
                events.push(Event::Request(RequestId(base + i), HttpRequest::get("/x", &[])));
            }
            for i in 0..w as u64 {
                let rid = RequestId(base + i);
                events.push(Event::Response(rid, HttpResponse::ok(rid, "ok")));
            }
            next += w as u64;
        }
        let trace = Trace { events };
        let balanced = trace.ensure_balanced().unwrap();
        let g = create_time_precedence_graph(&balanced);
        let minimum: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
        prop_assert_eq!(g.edges.len(), minimum);
    }
}

/// Builds fuzzed (often hostile) reports for a trace: random per-request
/// op counts, the operations dealt across two register logs by `picks`,
/// and an optional tampering that pushes the graph layer down one of its
/// rejection paths.
fn fuzzed_reports(balanced: &BalancedTrace, picks: &[u8], tamper: u8) -> Reports {
    let rids: Vec<RequestId> = balanced.request_ids().collect();
    let mut op_counts = std::collections::HashMap::new();
    let mut logs: Vec<Vec<OpLogEntry>> = vec![Vec::new(), Vec::new()];
    let mut j = 0usize;
    for (i, rid) in rids.iter().enumerate() {
        let m = (picks.get(i).copied().unwrap_or(1) % 3) as u32;
        op_counts.insert(*rid, m);
        for opnum in 1..=m {
            let which = (picks.get(j % picks.len().max(1)).copied().unwrap_or(0) / 3 % 2) as usize;
            logs[which].push(OpLogEntry {
                rid: *rid,
                opnum: OpNum(opnum),
                contents: OpContents::RegisterWrite {
                    value: vec![opnum as u8],
                },
            });
            j += 1;
        }
    }
    match tamper {
        1 => {
            // Drop an entry: MissingOperation.
            logs[0].pop();
        }
        2 => {
            // Replay an entry: DuplicateOperation or LogOrderViolation.
            if let Some(e) = logs[0].first().cloned() {
                logs[0].push(e);
            }
        }
        // Swap adjacent entries: LogOrderViolation or a cycle.
        3 if logs[0].len() >= 2 => logs[0].swap(0, 1),
        _ => {}
    }
    Reports {
        groupings: vec![(orochi_common::ids::CtlFlowTag(1), rids)],
        op_logs: OpLogs::from_pairs(vec![
            (
                ObjectName(String::from("reg:A")),
                OpLog::from_entries(logs.remove(0)),
            ),
            (
                ObjectName(String::from("reg:B")),
                OpLog::from_entries(logs.remove(0)),
            ),
        ]),
        op_counts,
        nondet: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streamed two-pass CSR builder is observationally identical
    /// to the preserved two-phase construction: same verdict, same
    /// diagnostic, and — on acceptance — the same node count and edge
    /// multiset, for fuzzed traces and (often hostile) reports.
    #[test]
    fn streamed_csr_equals_two_phase_construction(
        trace in balanced_trace_strategy(10),
        picks in proptest::collection::vec(any::<u8>(), 1..24),
        tamper in 0u8..4,
    ) {
        let balanced = trace.ensure_balanced().unwrap();
        let reports = fuzzed_reports(&balanced, &picks, tamper);
        let streamed = process_op_reports(&balanced, &reports);
        let reference = two_phase::process_op_reports(&balanced, &reports);
        match (streamed, reference) {
            (Ok((graph, opmap)), Ok((ref_graph, ref_opmap_len))) => {
                prop_assert_eq!(graph.num_nodes(), ref_graph.num_nodes());
                prop_assert_eq!(graph.num_edges(), ref_graph.num_edges());
                prop_assert_eq!(opmap.len(), ref_opmap_len);
                let mut csr_edges: Vec<_> = graph.edges().collect();
                let mut ref_edges = ref_graph.edges();
                csr_edges.sort();
                ref_edges.sort();
                prop_assert_eq!(csr_edges, ref_edges);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "verdicts diverged: streamed {:?} vs two-phase {:?}",
                a.map(|_| "accept").map_err(|e| e.to_string()),
                b.map(|_| "accept").map_err(|e| e.to_string()),
            ),
        }
    }
}

/// Recursive strategy for arbitrary PHP values.
fn php_value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks identical() reflexivity, which
        // PHP shares.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z0-9]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        proptest::collection::vec(
            (
                prop_oneof![
                    any::<i32>().prop_map(|i| ArrayKey::Int(i as i64)),
                    "[a-z]{1,6}".prop_map(ArrayKey::Str),
                ],
                inner,
            ),
            0..6,
        )
        .prop_map(|pairs| {
            let mut a = PhpArray::new();
            for (k, v) in pairs {
                a.set(k.as_key(), v);
            }
            Value::array(a)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn php_value_codec_roundtrips(v in php_value_strategy()) {
        let bytes = v.to_wire_bytes();
        let back = Value::from_wire_bytes(&bytes).unwrap();
        prop_assert!(v.identical(&back));
    }

    #[test]
    fn loose_equality_is_symmetric(a in php_value_strategy(), b in php_value_strategy()) {
        prop_assert_eq!(a.loose_eq(&b), b.loose_eq(&a));
    }

    #[test]
    fn identical_is_reflexive(v in php_value_strategy()) {
        prop_assert!(v.identical(&v));
    }
}

/// Ops for the versioned KV model test.
#[derive(Debug, Clone)]
enum KvOp {
    Set(u8, Option<u8>),
    Get(u8),
}

fn kv_ops_strategy() -> impl Strategy<Value = Vec<KvOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<Option<u8>>()).prop_map(|(k, v)| KvOp::Set(k % 8, v)),
            any::<u8>().prop_map(|k| KvOp::Get(k % 8)),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn versioned_kv_matches_replay_model(ops in kv_ops_strategy()) {
        let mut log = OpLog::new();
        for op in &ops {
            let contents = match op {
                KvOp::Set(k, v) => OpContents::KvSet {
                    key: format!("k{k}"),
                    value: v.map(|b| vec![b]),
                },
                KvOp::Get(k) => OpContents::KvGet { key: format!("k{k}") },
            };
            log.push(OpLogEntry { rid: RequestId(1), opnum: OpNum(1), contents });
        }
        let kv = VersionedKv::build(&log);
        // Model: replay prefix into a plain map.
        for s in 1..=(log.len() as u64 + 1) {
            let mut model: std::collections::HashMap<String, Vec<u8>> = Default::default();
            for (seq, entry) in log.iter() {
                if seq.0 >= s {
                    break;
                }
                if let OpContents::KvSet { key, value } = &entry.contents {
                    match value {
                        Some(v) => { model.insert(key.clone(), v.clone()); }
                        None => { model.remove(key); }
                    }
                }
            }
            for k in 0..8u8 {
                let key = format!("k{k}");
                prop_assert_eq!(
                    kv.get(&key, SeqNum(s)),
                    model.get(&key).map(Vec::as_slice),
                    "key {} at seq {}", key, s
                );
            }
        }
    }
}

/// Random transactions over a small schema: one to four statements,
/// some of which fail (a duplicate or retyped key, an unknown table), each
/// transaction ending in a commit or an explicit rollback.
fn sql_txns_strategy() -> impl Strategy<Value = Vec<(Vec<String>, bool)>> {
    let stmt = prop_oneof![
        (0u8..20, 0i64..100).prop_map(|(k, v)| format!("INSERT INTO t (k, v) VALUES ({k}, {v})")),
        (1u8..12, 0u8..20)
            .prop_map(|(id, k)| format!("INSERT INTO t (id, k, v) VALUES ({id}, {k}, 0)")),
        (0u8..20, 0i64..100).prop_map(|(k, v)| format!("UPDATE t SET v = {v} WHERE k = {k}")),
        (1u8..12, 0u8..20).prop_map(|(id, k)| format!("UPDATE t SET id = {id} WHERE k = {k}")),
        (0u8..20).prop_map(|k| format!("DELETE FROM t WHERE k = {k}")),
        (0i64..100).prop_map(|v| format!("UPDATE t SET v = v + 1 WHERE v < {v}")),
        (0u8..20).prop_map(|k| format!("SELECT id, v FROM t WHERE k = {k}")),
        prop_oneof![
            Just("INSERT INTO t (k, v) VALUES ('x', 1)".to_string()),
            Just("DELETE FROM nope".to_string()),
        ],
    ];
    proptest::collection::vec(
        (proptest::collection::vec(stmt, 1..5), any::<bool>()),
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one check that the redo turns the engine's undo records into
    /// row versions correctly: after every statement of a committed
    /// transaction, after every transaction, and at the end, the
    /// versioned view equals the online engine's state; an aborted
    /// transaction's reads are captured as the engine answered them and
    /// leave the store as it was.
    #[test]
    fn versioned_redo_matches_online_engine(txns in sql_txns_strategy()) {
        let schema = "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, k INT, v INT, INDEX(k))";
        let all = "SELECT id, k, v FROM t ORDER BY id";
        let mut online = Database::new();
        online.execute_autocommit(schema).0.unwrap();
        let mut base = Database::new();
        base.execute_autocommit(schema).0.unwrap();
        let mut vdb = VersionedDb::from_snapshot(&base);
        for (stmts, commit) in &txns {
            online.begin().unwrap();
            let (mut queries, mut logged, mut states, mut reads) = (vec![], vec![], vec![], vec![]);
            for sql in stmts {
                queries.push(sql.clone());
                match online.execute_in_txn(sql) {
                    Ok(out) => {
                        logged.push(out.write());
                        reads.push(out.rows().map(<[_]>::to_vec));
                        states.push(online.execute_in_txn(all).unwrap());
                    }
                    // The engine poisons the transaction: it fails here.
                    Err(_) => {
                        logged.push(None);
                        break;
                    }
                }
            }
            let (seq, succeeded) = if *commit || online.txn_poisoned() {
                online.commit().unwrap()
            } else {
                (online.rollback().unwrap(), false)
            };
            vdb.redo_transaction(seq, &queries, succeeded, &logged).unwrap();
            for (pos, (state, read)) in states.iter().zip(&reads).enumerate() {
                let q = pos as u64 + 1;
                if succeeded {
                    // Statement q's writes are visible from its own ts on.
                    prop_assert_eq!(&vdb.query_at(all, seq * MAXQ + q).unwrap(), state);
                } else if let Some(rows) = read {
                    let captured = vdb.aborted_read(seq, q).unwrap();
                    prop_assert_eq!(captured.rows().unwrap(), rows.as_slice());
                }
            }
            prop_assert_eq!(
                vdb.aborted_failed_at_last(seq),
                !succeeded && states.len() < queries.len()
            );
            // The versioned view at the transaction's end equals the
            // online state.
            let (want, _) = online.execute_autocommit(all);
            let got = vdb.query_at(all, seq * MAXQ + MAXQ - 1).unwrap();
            prop_assert_eq!(got, want.unwrap());
        }
        // And the migrated snapshot matches the final online state,
        // auto-increment counter included.
        let mut migrated = vdb.latest_snapshot();
        for db in [&mut online, &mut migrated] {
            db.execute_autocommit("INSERT INTO t (k, v) VALUES (0, 0)").0.unwrap();
        }
        let (want, _) = online.execute_autocommit(all);
        let (got, _) = migrated.execute_autocommit(all);
        prop_assert_eq!(got.unwrap(), want.unwrap());
    }
}

/// Ordered-map reference model for PHP arrays.
#[derive(Debug, Clone)]
enum ArrOp {
    Set(ArrayKey, i64),
    Push(i64),
    Remove(ArrayKey),
}

fn arr_ops_strategy() -> impl Strategy<Value = Vec<ArrOp>> {
    let key = prop_oneof![
        (0i64..10).prop_map(ArrayKey::Int),
        "[a-c]{1,2}".prop_map(ArrayKey::Str),
    ];
    proptest::collection::vec(
        prop_oneof![
            (key.clone(), any::<i64>()).prop_map(|(k, v)| ArrOp::Set(k, v)),
            any::<i64>().prop_map(ArrOp::Push),
            key.prop_map(ArrOp::Remove),
        ],
        0..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn php_array_matches_ordered_map_model(ops in arr_ops_strategy()) {
        let mut arr = PhpArray::new();
        // Model: insertion-ordered (key, value) list + next-int tracker.
        let mut model: Vec<(ArrayKey, i64)> = Vec::new();
        let mut next_int = 0i64;
        for op in ops {
            match op {
                ArrOp::Set(k, v) => {
                    if let ArrayKey::Int(i) = k {
                        if i >= next_int {
                            next_int = i + 1;
                        }
                    }
                    arr.set(k.as_key(), Value::Int(v));
                    match model.iter_mut().find(|(mk, _)| *mk == k) {
                        Some(slot) => slot.1 = v,
                        None => model.push((k, v)),
                    }
                }
                ArrOp::Push(v) => {
                    let key = ArrayKey::Int(next_int);
                    next_int += 1;
                    arr.push(Value::Int(v)).expect("keys stay far below i64::MAX");
                    model.push((key, v));
                }
                ArrOp::Remove(k) => {
                    arr.remove(k.as_key());
                    model.retain(|(mk, _)| *mk != k);
                }
            }
            prop_assert_eq!(arr.len(), model.len());
            let got: Vec<(ArrayKey, i64)> = arr
                .iter()
                .map(|(k, v)| (k.owned(), v.to_php_int()))
                .collect();
            prop_assert_eq!(&got, &model);
        }
    }
}

/// End-to-end fuzzed completeness: honest servers always pass the audit,
/// whatever mix of wiki requests arrives.
#[derive(Debug, Clone)]
enum WikiAction {
    View(u8),
    Edit(u8, u8),
    Login(u8),
}

fn wiki_actions_strategy() -> impl Strategy<Value = Vec<WikiAction>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6).prop_map(WikiAction::View),
            (0u8..6, any::<u8>()).prop_map(|(p, b)| WikiAction::Edit(p, b)),
            (0u8..3).prop_map(WikiAction::Login),
        ],
        0..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn honest_random_workloads_always_accepted(actions in wiki_actions_strategy()) {
        use orochi::accphp::AccPhpExecutor;
        use orochi::core::audit::{audit, AuditConfig};
        use orochi::server::{Server, ServerConfig};

        let app = orochi::apps::wiki::app();
        let scripts = app.compile().unwrap();
        let server = Server::new(ServerConfig {
            scripts: scripts.clone(),
            initial_db: app.initial_db(),
            recording: true,
            seed: 5,
            ..Default::default()
        });
        // Editors must be logged in before edits take effect; issue the
        // logins first so some edits succeed and some hit the 403 path.
        server.handle(
            HttpRequest::post("/login.php", &[], &[("user", "u0")]).with_cookie("sess", "u0"),
        );
        for action in &actions {
            match action {
                WikiAction::View(p) => {
                    server.handle(HttpRequest::get(
                        "/wiki.php",
                        &[("title", &format!("P{p}"))],
                    ));
                }
                WikiAction::Edit(p, b) => {
                    server.handle(
                        HttpRequest::post(
                            "/edit.php",
                            &[],
                            &[
                                ("title", &format!("P{p}")),
                                ("body", &format!("body {b}")),
                            ],
                        )
                        .with_cookie("sess", "u0"),
                    );
                }
                WikiAction::Login(u) => {
                    let user = format!("u{u}");
                    server.handle(
                        HttpRequest::post("/login.php", &[], &[("user", &user)])
                            .with_cookie("sess", &user),
                    );
                }
            }
        }
        let bundle = server.into_bundle();
        let mut config = AuditConfig::new();
        config.initial_dbs.insert("db:main".to_string(), app.initial_db());
        let mut verifier = AccPhpExecutor::new(scripts);
        let verdict = audit(&bundle.trace, &bundle.reports, &mut verifier, &config);
        prop_assert!(verdict.is_ok(), "honest run rejected: {}", verdict.unwrap_err());
    }
}

/// Shared fixture for the partition-fuzzing property: serving a wiki
/// workload per proptest case would dominate the suite, so one honest
/// bundle is built once and every case re-audits it under a different
/// (often hostile) grouping report.
mod partition_fuzz {
    use super::*;
    use orochi::accphp::AccPhpExecutor;
    use orochi::core::audit::{audit, audit_parallel, AuditConfig, AuditOutcome, Rejection};
    use orochi::core::reports::Reports;
    use orochi::php::CompiledScript;
    use orochi::server::server::AuditBundle;
    use orochi::server::{Server, ServerConfig};
    use orochi_common::ids::CtlFlowTag;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    type Fixture = (AuditBundle, HashMap<String, CompiledScript>, AuditConfig);

    pub fn fixture() -> &'static Fixture {
        static CELL: OnceLock<Fixture> = OnceLock::new();
        CELL.get_or_init(|| {
            use orochi::workload::wiki;
            let app = orochi::apps::wiki::app();
            let scripts = app.compile().unwrap();
            let server = Server::new(ServerConfig {
                scripts: scripts.clone(),
                initial_db: app.initial_db(),
                recording: true,
                seed: 13,
                ..Default::default()
            });
            let workload = wiki::generate(&wiki::Params::scaled(0.01), 17);
            for req in workload.setup.iter().chain(workload.requests.iter()) {
                server.handle(req.clone());
            }
            let bundle = server.into_bundle();
            let mut config = AuditConfig::new();
            config
                .initial_dbs
                .insert("db:main".to_string(), app.initial_db());
            (bundle, scripts, config)
        })
    }

    /// Audits the fixture under `groupings`, sequentially or pooled.
    pub fn verdict(
        groupings: Vec<(CtlFlowTag, Vec<RequestId>)>,
        threads: usize,
    ) -> Result<AuditOutcome, Rejection> {
        let (bundle, scripts, config) = fixture();
        let mut reports: Reports = bundle.reports.clone();
        reports.groupings = groupings;
        if threads == 1 {
            let mut executor = AccPhpExecutor::new(scripts.clone());
            audit(&bundle.trace, &reports, &mut executor, config)
        } else {
            let mut executors: Vec<AccPhpExecutor> = (0..threads)
                .map(|_| AccPhpExecutor::new(scripts.clone()))
                .collect();
            audit_parallel(&bundle.trace, &reports, &mut executors, config)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel audit agrees with the sequential oracle on the
    /// verdict *and* the diagnostic for arbitrary — including hostile —
    /// control-flow partitions: requests regrouped at random, duplicated
    /// across and within groups, dropped entirely (→ `MissingOutput`),
    /// or pointing at requests the trace never saw
    /// (→ `GroupUnknownRequest`).
    #[test]
    fn fuzzed_partitions_match_sequential_oracle(
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..10),
            0..8,
        ),
        ghost in any::<bool>(),
    ) {
        use orochi_common::ids::CtlFlowTag;

        let (bundle, _, _) = partition_fuzz::fixture();
        let rids: Vec<RequestId> = bundle
            .trace
            .ensure_balanced()
            .unwrap()
            .request_ids()
            .collect();
        let mut groupings: Vec<(CtlFlowTag, Vec<RequestId>)> = picks
            .iter()
            .enumerate()
            .map(|(g, idxs)| {
                let members = idxs
                    .iter()
                    .map(|i| rids[*i as usize % rids.len()])
                    .collect();
                (CtlFlowTag(g as u64 + 1), members)
            })
            .collect();
        if ghost {
            groupings.push((CtlFlowTag(0xdead), vec![RequestId(u64::MAX)]));
        }

        let seq = partition_fuzz::verdict(groupings.clone(), 1);
        for threads in [2usize, 4] {
            let par = partition_fuzz::verdict(groupings.clone(), threads);
            match (&seq, &par) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(
                        s.stats.requests_reexecuted,
                        p.stats.requests_reexecuted,
                        "threads {}", threads
                    );
                }
                (Err(s), Err(p)) => {
                    prop_assert_eq!(s, p, "threads {}", threads);
                    prop_assert_eq!(s.to_string(), p.to_string(), "threads {}", threads);
                }
                (s, p) => prop_assert!(
                    false,
                    "verdict diverged at {} threads: {:?} vs {:?}",
                    threads,
                    s.as_ref().err().map(|e| e.to_string()),
                    p.as_ref().err().map(|e| e.to_string())
                ),
            }
        }
    }
}

/// Ticket-merge accuracy for the striped collector: whatever stripe
/// each event lands in, the merged trace is exactly the order in which
/// the record calls were issued (the §2 "accurate trace" property —
/// the ticket, not the buffer, carries observation order).
#[derive(Debug, Clone)]
enum CollectorAction {
    /// Open a request in the given stripe.
    Open(u8),
    /// Close the pick-th open request in the given stripe.
    Close(u8, u8),
}

fn collector_actions_strategy() -> impl Strategy<Value = Vec<CollectorAction>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(CollectorAction::Open),
            (any::<u8>(), any::<u8>()).prop_map(|(s, p)| CollectorAction::Close(s, p)),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collector_merge_preserves_observation_order(
        actions in collector_actions_strategy()
    ) {
        use orochi::trace::Collector;

        let collector = Collector::new();
        let mut open: Vec<RequestId> = Vec::new();
        // The oracle: (rid, is_request) in issue order.
        let mut expected: Vec<(u64, bool)> = Vec::new();
        for action in actions {
            match action {
                CollectorAction::Open(stripe) => {
                    let rid = collector
                        .record_request_in(stripe as usize, HttpRequest::get("/x", &[]));
                    expected.push((rid.0, true));
                    open.push(rid);
                }
                CollectorAction::Close(stripe, pick) => {
                    if open.is_empty() {
                        continue;
                    }
                    let rid = open.swap_remove(pick as usize % open.len());
                    collector.record_response_in(
                        stripe as usize,
                        rid,
                        HttpResponse::ok(rid, "ok"),
                    );
                    expected.push((rid.0, false));
                }
            }
        }
        prop_assert_eq!(collector.len(), expected.len());
        let snapshot = collector.snapshot();
        let trace = collector.into_trace();
        for t in [&snapshot, &trace] {
            let got: Vec<(u64, bool)> = t
                .events
                .iter()
                .map(|e| (e.rid().0, matches!(e, Event::Request(..))))
                .collect();
            prop_assert_eq!(&got, &expected);
        }
    }
}

/// Front-end completeness (§2 Completeness, fuzzed over the serving
/// stack): an honest server behind *any* bounded front-end — random
/// worker counts, queue depths, and submission bursts — always yields a
/// balanced trace the audit accepts, because backpressure admission
/// never drops work and the ticketed collector keeps the trace
/// accurate under pool concurrency.
#[derive(Debug, Clone)]
struct FrontendShape {
    workers: usize,
    queue_depth: usize,
    burst: usize,
}

fn frontend_shape_strategy() -> impl Strategy<Value = FrontendShape> {
    (1usize..7, prop_oneof![Just(0usize), 1usize..9], 1usize..8).prop_map(
        |(workers, queue_depth, burst)| FrontendShape {
            workers,
            queue_depth,
            burst,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn honest_runs_survive_any_frontend_shape(
        actions in wiki_actions_strategy(),
        shape in frontend_shape_strategy(),
    ) {
        use orochi::accphp::AccPhpExecutor;
        use orochi::core::audit::{audit, AuditConfig};
        use orochi::server::{Frontend, FrontendConfig, Server, ServerConfig, ShedPolicy};

        let app = orochi::apps::wiki::app();
        let scripts = app.compile().unwrap();
        let server = Server::new(ServerConfig {
            scripts: scripts.clone(),
            initial_db: app.initial_db(),
            recording: true,
            seed: 5,
            ..Default::default()
        });
        // Setup runs sequentially before the pool starts, like the
        // harness drivers.
        server.handle(
            HttpRequest::post("/login.php", &[], &[("user", "u0")]).with_cookie("sess", "u0"),
        );
        let frontend = Frontend::start(
            server,
            FrontendConfig {
                workers: shape.workers,
                queue_depth: shape.queue_depth,
                shed: ShedPolicy::Block,
            },
        );
        let mut submitted = 0u64;
        for (i, action) in actions.iter().enumerate() {
            let req = match action {
                WikiAction::View(p) => {
                    HttpRequest::get("/wiki.php", &[("title", &format!("P{p}"))])
                }
                WikiAction::Edit(p, b) => HttpRequest::post(
                    "/edit.php",
                    &[],
                    &[("title", &format!("P{p}")), ("body", &format!("body {b}"))],
                )
                .with_cookie("sess", "u0"),
                WikiAction::Login(u) => {
                    let user = format!("u{u}");
                    HttpRequest::post("/login.php", &[], &[("user", &user)])
                        .with_cookie("sess", &user)
                }
            };
            prop_assert!(frontend.submit(req), "backpressure admission never sheds");
            submitted += 1;
            // Arrival bursts: yield between bursts so workers interleave
            // with admission in varying patterns.
            if i % shape.burst == shape.burst - 1 {
                std::thread::yield_now();
            }
        }
        let report = frontend.drain();
        prop_assert_eq!(report.handled, submitted);
        prop_assert_eq!(report.shed, 0);
        let bundle = report.server.into_bundle();
        let balanced = bundle.trace.ensure_balanced();
        prop_assert!(balanced.is_ok(), "unbalanced trace: {:?}", balanced.err());
        let mut config = AuditConfig::new();
        config.initial_dbs.insert("db:main".to_string(), app.initial_db());
        let mut verifier = AccPhpExecutor::new(scripts);
        let verdict = audit(&bundle.trace, &bundle.reports, &mut verifier, &config);
        prop_assert!(verdict.is_ok(), "honest run rejected: {}", verdict.unwrap_err());
    }
}

// Striped vs single-lock shared objects: the same (sequential) request
// stream served over 1-shard and N-shard stores yields byte-identical
// reports and audit-identical verdicts — the stripes move lock
// contention, never the per-object linearization order the audit
// consumes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn striped_stores_are_audit_identical_to_single_lock(
        actions in wiki_actions_strategy()
    ) {
        use orochi::accphp::AccPhpExecutor;
        use orochi::core::audit::{audit, AuditConfig};
        use orochi::server::{Server, ServerConfig};

        let app = orochi::apps::wiki::app();
        let scripts = app.compile().unwrap();
        let serve_at = |state_shards: usize| {
            let server = Server::new(ServerConfig {
                scripts: scripts.clone(),
                initial_db: app.initial_db(),
                recording: true,
                seed: 5,
                state_shards,
            });
            server.handle(
                HttpRequest::post("/login.php", &[], &[("user", "u0")])
                    .with_cookie("sess", "u0"),
            );
            for action in &actions {
                match action {
                    WikiAction::View(p) => {
                        server.handle(HttpRequest::get(
                            "/wiki.php",
                            &[("title", &format!("P{p}"))],
                        ));
                    }
                    WikiAction::Edit(p, b) => {
                        server.handle(
                            HttpRequest::post(
                                "/edit.php",
                                &[],
                                &[
                                    ("title", &format!("P{p}")),
                                    ("body", &format!("body {b}")),
                                ],
                            )
                            .with_cookie("sess", "u0"),
                        );
                    }
                    WikiAction::Login(u) => {
                        let user = format!("u{u}");
                        server.handle(
                            HttpRequest::post("/login.php", &[], &[("user", &user)])
                                .with_cookie("sess", &user),
                        );
                    }
                }
            }
            server.into_bundle()
        };
        let single = serve_at(1);
        let striped = serve_at(8);
        // Byte-identical untrusted reports and final object state.
        prop_assert_eq!(&single.reports, &striped.reports);
        prop_assert_eq!(&single.final_registers, &striped.final_registers);
        prop_assert_eq!(&single.final_kv, &striped.final_kv);
        // And audit-identical verdicts.
        let mut config = AuditConfig::new();
        config.initial_dbs.insert("db:main".to_string(), app.initial_db());
        let verdict_of = |bundle: &orochi::server::server::AuditBundle| {
            let mut verifier = AccPhpExecutor::new(scripts.clone());
            audit(&bundle.trace, &bundle.reports, &mut verifier, &config)
                .map(|o| o.stats.requests_reexecuted)
                .map_err(|r| r.to_string())
        };
        prop_assert_eq!(verdict_of(&single), verdict_of(&striped));
    }
}

/// The object-name constructors stay aligned with what the runtime
/// generates (a regression guard for the CheckOp name comparison).
#[test]
fn object_name_conventions() {
    assert_eq!(ObjectName::session("x").as_str(), "reg:sess:x");
    assert_eq!(ObjectName::kv("apc").as_str(), "kv:apc");
    assert_eq!(ObjectName::db("main").as_str(), "db:main");
}

/// Differential harness for the scalar VM and the stack oracle: an
/// in-memory backend that records every state and nondeterminism call,
/// so the two can be compared on outputs, replay digests, *and* the
/// exact state-op sequence they issue.
mod vm_diff {
    use orochi::php::backend::{BackendError, DbResult, NondetProvider, StateBackend};
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct RecordingBackend {
        regs: HashMap<String, Vec<u8>>,
        kv: HashMap<String, Vec<u8>>,
        /// Every backend call, in issue order.
        pub ops: Vec<String>,
        ticks: i64,
    }

    impl StateBackend for RecordingBackend {
        fn register_read(&mut self, object: &str) -> Result<Option<Vec<u8>>, BackendError> {
            self.ops.push(format!("reg_read {object}"));
            Ok(self.regs.get(object).cloned())
        }
        fn register_write(&mut self, object: &str, value: Vec<u8>) -> Result<(), BackendError> {
            self.ops.push(format!("reg_write {object} {value:?}"));
            self.regs.insert(object.to_string(), value);
            Ok(())
        }
        fn kv_get(&mut self, object: &str, key: &str) -> Result<Option<Vec<u8>>, BackendError> {
            self.ops.push(format!("kv_get {object} {key}"));
            Ok(self.kv.get(&format!("{object}\u{0}{key}")).cloned())
        }
        fn kv_set(
            &mut self,
            object: &str,
            key: &str,
            value: Option<Vec<u8>>,
        ) -> Result<(), BackendError> {
            self.ops.push(format!("kv_set {object} {key} {value:?}"));
            let slot = format!("{object}\u{0}{key}");
            match value {
                Some(v) => {
                    self.kv.insert(slot, v);
                }
                None => {
                    self.kv.remove(&slot);
                }
            }
            Ok(())
        }
        fn db_begin(&mut self, _object: &str) -> Result<(), BackendError> {
            self.ops.push("db_begin".into());
            Err(BackendError::Fatal("no db in fuzz backend".into()))
        }
        fn db_query(&mut self, _object: &str, sql: &str) -> Result<DbResult, BackendError> {
            self.ops.push(format!("db_query {sql}"));
            Err(BackendError::Fatal("no db in fuzz backend".into()))
        }
        fn db_commit(&mut self, _object: &str) -> Result<bool, BackendError> {
            self.ops.push("db_commit".into());
            Err(BackendError::Fatal("no db in fuzz backend".into()))
        }
        fn db_rollback(&mut self, _object: &str) -> Result<(), BackendError> {
            self.ops.push("db_rollback".into());
            Err(BackendError::Fatal("no db in fuzz backend".into()))
        }
        fn in_txn(&self) -> bool {
            false
        }
    }

    impl NondetProvider for RecordingBackend {
        fn time(&mut self) -> Result<i64, BackendError> {
            self.ticks += 1;
            self.ops.push(format!("time {}", self.ticks));
            Ok(1_500_000_000 + self.ticks)
        }
        fn microtime(&mut self) -> Result<f64, BackendError> {
            self.ticks += 1;
            self.ops.push(format!("microtime {}", self.ticks));
            Ok(self.ticks as f64 * 0.125)
        }
        fn getpid(&mut self) -> Result<i64, BackendError> {
            self.ops.push("getpid".into());
            Ok(1234)
        }
        fn mt_rand(&mut self) -> Result<i64, BackendError> {
            self.ticks += 1;
            self.ops.push(format!("mt_rand {}", self.ticks));
            Ok(self.ticks.wrapping_mul(2654435761) & 0x7fff_ffff)
        }
        fn uniqid(&mut self) -> Result<String, BackendError> {
            self.ticks += 1;
            self.ops.push(format!("uniqid {}", self.ticks));
            Ok(format!("uid{:08x}", self.ticks))
        }
    }
}

/// Random expressions over the fuzz script's variable pool.
fn php_expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0i64..40).prop_map(|i| i.to_string()),
        "[a-z]{0,4}".prop_map(|s| format!("'{s}'")),
        prop_oneof![Just("$a"), Just("$b"), Just("$c"), Just("$d")].prop_map(String::from),
        Just(String::from("$_GET['p']")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..12).prop_map(|(l, r, i)| {
                let op = [
                    "+", "-", "*", ".", "==", "<", "===", "!=", "<=", ">", ">=", "!==",
                ][i];
                format!("({l} {op} {r})")
            }),
            // Equal operands, where `<` and `<=` (or `==` and `===`)
            // part ways.
            (inner.clone(), 0usize..4).prop_map(|(e, i)| {
                let op = ["<=", ">=", "==", "==="][i];
                format!("({e} {op} {e})")
            }),
            // A later operand that writes a variable the earlier one
            // read: the register compiler must copy the earlier value
            // out of the variable's register first.
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} . ($a = {r}))")),
            inner.clone().prop_map(|e| format!("(!{e})")),
            inner.clone().prop_map(|e| format!("(({e}) % 7)")),
            inner.prop_map(|e| format!("strlen(strval({e}))")),
        ]
    })
}

/// Random statements: scalar and array assignments, control flow,
/// key-value and nondeterminism builtins, and user-function calls — the
/// surface where the register compiler and the oracle's could
/// plausibly diverge.
///
/// `depth` indexes the loop counter (`$i1`, `$i2`, ...) so nested loops
/// never share one: a shared counter can ping-pong forever, and a
/// runaway script dies on the step limit at an ISA-dependent branch
/// ordinal — a digest divergence by design, not a bug.
fn php_stmt_strategy(depth: u32) -> BoxedStrategy<String> {
    let var = || prop_oneof![Just("$a"), Just("$b"), Just("$c"), Just("$d")];
    let e = php_expr_strategy;
    let leaf = prop_oneof![
        (var(), e()).prop_map(|(v, x)| format!("{v} = {x};")),
        e().prop_map(|x| format!("echo {x};")),
        e().prop_map(|x| format!("$arr[] = {x};")),
        (e(), e()).prop_map(|(k, v)| format!("$arr[{k}] = {v};")),
        e().prop_map(|k| format!("echo isset($arr[{k}]) ? 'y' : 'n';")),
        e().prop_map(|k| format!("unset($arr[{k}]);")),
        (e(), e()).prop_map(|(k, v)| format!("apc_store('k' . (({k}) % 5), strval({v}));")),
        e().prop_map(|k| format!("$c = apc_fetch('k' . (({k}) % 5));")),
        Just(String::from("$d = time();")),
        Just(String::from("$d = mt_rand(0, 9);")),
        Just(String::from("$b = uniqid();")),
        (var(), e()).prop_map(|(v, x)| format!("{v} = fuzz_join({x}, $a);")),
        e().prop_map(|x| format!("echo count($arr) . {x};")),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let block =
        || proptest::collection::vec(php_stmt_strategy(depth - 1), 1..4).prop_map(|v| v.join(" "));
    prop_oneof![
        leaf,
        (php_expr_strategy(), block(), block())
            .prop_map(|(c, t, f)| format!("if ({c}) {{ {t} }} else {{ {f} }}")),
        (1usize..4, block()).prop_map(move |(n, b)| {
            format!("for ($i{depth} = 0; $i{depth} < {n}; $i{depth}++) {{ {b} }}")
        }),
        block().prop_map(|b| format!("foreach ($arr as $k => $v) {{ echo $k . ':'; {b} }}")),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The register VM is observationally identical to the stack oracle
    /// on fuzzed scripts, each compiled by its own compiler: same
    /// verdict, same response (status, headers, body), same replay
    /// digest, and the same state- and nondet-op sequence against the
    /// backend. Instruction counts are *not* compared — the ISAs cost
    /// the same program differently by design.
    #[test]
    fn register_vm_matches_stack_oracle_on_fuzzed_scripts(
        stmts in proptest::collection::vec(php_stmt_strategy(2), 0..10),
        p in "[a-z0-9]{0,6}",
    ) {
        use orochi::php::vm::{self, RequestInput};
        use orochi::php::{compile, parse_script};

        // The statements run twice: over a function's locals, which
        // live in registers, and over the script's globals.
        let body = format!(
            "{}\n\
             echo '|' . strval($a) . '|' . strval($b) . '|' . strval($c) . '|' . strval($d);\n\
             foreach ($arr as $k => $v) {{ echo $k . '=' . strval($v) . ';'; }}\n",
            stmts.join("\n"),
        );
        let src = format!(
            "<?php\n\
             function fuzz_join($x, $y) {{\n\
                 return strval($x) . '|' . strval($y);\n\
             }}\n\
             function fuzz_locals($a, $b, $c, $d) {{\n\
                 $arr = array();\n\
                 {body}\
             }}\n\
             fuzz_locals(1, 'x', 0, 2);\n\
             $a = 1; $b = 'x'; $c = 0; $d = 2; $arr = array();\n\
             {body}",
        );
        let parsed = parse_script(&src).unwrap_or_else(|e| panic!("fuzz script parse: {e}\n{src}"));
        let script = compile("/fuzz.php", &parsed)
            .unwrap_or_else(|e| panic!("fuzz script compile: {e}\n{src}"));
        let oracle = vm::stack::compile("/fuzz.php", &parsed)
            .unwrap_or_else(|e| panic!("fuzz script oracle compile: {e}\n{src}"));
        let get = [("p".to_string(), p)];
        let input = RequestInput {
            method: "GET",
            path: "/fuzz.php",
            get: &get,
            ..Default::default()
        };
        let mut reg_backend = vm_diff::RecordingBackend::default();
        let reg = vm::run_request(&script, &mut reg_backend, &input);
        let mut stack_backend = vm_diff::RecordingBackend::default();
        let stack = vm::stack::run_request(&oracle, &mut stack_backend, &input);
        match (&reg, &stack) {
            (Ok(r), Ok(s)) => {
                prop_assert_eq!(&r.output, &s.output, "outputs diverged\n{}", src);
                prop_assert_eq!(r.digest, s.digest, "digests diverged\n{}", src);
            }
            (Err(r), Err(s)) => prop_assert_eq!(r, s, "rejections diverged\n{}", src),
            (r, s) => prop_assert!(
                false,
                "verdicts diverged: register {:?} vs stack {:?}\n{}",
                r.as_ref().map(|_| "ok").map_err(|e| e.clone()),
                s.as_ref().map(|_| "ok").map_err(|e| e.clone()),
                src,
            ),
        }
        prop_assert_eq!(&reg_backend.ops, &stack_backend.ops, "state ops diverged\n{}", src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whole-audit check over the evaluation applications: an honest
    /// served workload from any of the four apps is accepted, with the
    /// same count of re-executed requests, at one audit thread and
    /// pooled. (The stack oracle runs on every traced request of these
    /// apps in `tests/sharing.rs`.)
    #[test]
    fn app_workloads_audit_identically_under_both_engines(
        app_idx in 0usize..4,
        seed in 0u64..64,
    ) {
        use orochi::harness::driver::{
            run_audit_with, serve, AppWorkload, AuditOptions, ServeOptions,
        };
        use orochi::workload::{forum, hotcrp, shop, wiki};

        let work = match app_idx {
            0 => AppWorkload {
                app: orochi::apps::wiki::app(),
                workload: wiki::generate(&wiki::Params::scaled(0.004), seed),
                seed_sql: Vec::new(),
            },
            1 => AppWorkload {
                app: orochi::apps::forum::app(),
                workload: forum::generate(&forum::Params::scaled(0.004), seed),
                seed_sql: Vec::new(),
            },
            2 => AppWorkload {
                app: orochi::apps::shop::app(),
                workload: shop::generate(&shop::Params::scaled(0.004), seed),
                seed_sql: Vec::new(),
            },
            _ => AppWorkload {
                app: orochi::apps::hotcrp::app(),
                workload: hotcrp::generate(&hotcrp::Params::scaled(0.004), seed),
                seed_sql: Vec::new(),
            },
        };
        let served = serve(&work, &ServeOptions { seed, ..Default::default() });
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let opts = AuditOptions {
                grouped: true,
                dedup: true,
                threads,
            };
            let run = run_audit_with(&served.bundle, &work, &opts)
                .map(|r| r.outcome.stats.requests_reexecuted)
                .map_err(|r| r.to_string());
            prop_assert!(
                run.is_ok(),
                "honest run rejected at {} threads (app {}): {:?}",
                threads, app_idx, run
            );
            runs.push(run);
        }
        prop_assert_eq!(&runs[0], &runs[1], "thread counts diverged (app {})", app_idx);
    }
}
