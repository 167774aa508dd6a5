//! In-process replays of single layers for the traced run: each block
//! calls one crate's public functions on the served bundle, inside a
//! benchmark-owned span, and derives that layer's per-unit cost.
//! Counts come from the structs those functions return.

use crate::metrics::Samples;
use crate::run::Setup;
use crate::span::Tracer;
use orochi_core::{load_reports, process_op_reports};
use orochi_sqldb::{Database, VersionedDb, WriteOutcome, MAXQ};
use orochi_state::{OpContents, OpType, VersionedKv};
use orochi_trace::{Trace, TraceSource, TraceStoreReader};

/// `secs` spread over `n` units, in `scale` units per second (1e9 for
/// ns); 0 when the workload has none of that unit.
pub(crate) fn per(secs: f64, n: f64, scale: f64) -> f64 {
    if n > 0.0 {
        secs * scale / n
    } else {
        0.0
    }
}

/// `trace_bytes` is the uncompressed wire size of the served trace.
pub fn replay(setup: &Setup, trace_bytes: f64, tracer: &Tracer, samples: &mut Samples) {
    let reports = &setup.bundle.reports;
    let config = setup.work.audit_config();

    // orochi_trace, read side: open, decode every segment, balance.
    let (reader, open_s) = tracer.span("trace.open", || {
        TraceStoreReader::open(&setup.store).expect("the set-up phase sealed this store")
    });
    let (trace, decode_s) = tracer.span("trace.decode", || {
        let mut trace = Trace::new();
        reader
            .stream_events(&mut |e| {
                trace.events.push(e);
                true
            })
            .expect("sealed segments decode");
        trace
    });
    let events = trace.len() as f64;
    let (balanced, balance_s) = tracer.span("trace.balance", || {
        trace.ensure_balanced().expect("an honest trace balances")
    });
    samples.push("trace.open_ms", open_s * 1e3);
    samples.push("trace.decode_mb_s", trace_bytes / 1e6 / decode_s);
    samples.push("trace.decode_ns_per_event", per(decode_s, events, 1e9));
    samples.push("trace.balance_ns_per_event", per(balance_s, events, 1e9));

    // orochi_core: reports blob, ProcessOpReports (OpMap + CSR graph),
    // cycle check.
    let (_, load_s) = tracer.span("core.load_reports", || {
        load_reports(&reader).expect("the set-up phase spilled the reports")
    });
    let ((graph, _opmap), opmap_s) = tracer.span("core.process_op_reports", || {
        process_op_reports(&balanced, reports).expect("honest reports validate")
    });
    let (acyclic, cycle_s) = tracer.span("core.cycle_check", || graph.is_acyclic());
    assert!(acyclic, "an honest run's audit graph is acyclic");
    samples.push("core.reports_load_ms", load_s * 1e3);
    samples.push(
        "core.opmap_ns_per_op",
        per(opmap_s, reports.total_ops() as f64, 1e9),
    );
    samples.push(
        "core.graph_ns_per_edge",
        per(
            graph.build_wall().as_secs_f64(),
            graph.num_edges() as f64,
            1e9,
        ),
    );
    samples.push("core.cycle_check_ms", cycle_s * 1e3);
    samples.push("state.report_ops", reports.total_ops() as f64);

    // orochi_sqldb: redo every database log into a versioned store,
    // then answer every logged committed SELECT at its timestamp.
    let empty = Database::new();
    let (mut redo_s, mut query_s) = (0.0, 0.0);
    let (mut txns, mut versions, mut bytes, mut queries) = (0u64, 0usize, 0usize, 0u64);
    for (_, name, log) in reports.op_logs.iter() {
        if !log.contains_op_type(OpType::DbOp) {
            continue;
        }
        let initial = config.initial_dbs.get(name.as_str()).unwrap_or(&empty);
        let (vdb, secs) = tracer.span("sqldb.redo", || {
            let mut vdb = VersionedDb::from_snapshot(initial);
            for (seq, entry) in log.iter() {
                if let OpContents::DbOp {
                    queries,
                    succeeded,
                    write_results,
                } = &entry.contents
                {
                    let logged: Vec<Option<WriteOutcome>> = write_results
                        .iter()
                        .map(|w| {
                            w.map(|w| WriteOutcome {
                                affected: w.affected,
                                last_insert_id: w.last_insert_id,
                            })
                        })
                        .collect();
                    vdb.redo_transaction(seq.0, queries, *succeeded, &logged)
                        .expect("an honest log redoes");
                }
            }
            vdb
        });
        redo_s += secs;
        txns += vdb.stats().transactions;
        versions += vdb.num_versions();
        bytes += vdb.estimated_bytes();
        let ((), secs) = tracer.span("sqldb.query", || {
            for (seq, entry) in log.iter() {
                if let OpContents::DbOp {
                    queries: sqls,
                    succeeded: true,
                    write_results,
                } = &entry.contents
                {
                    for (q, (sql, write)) in sqls.iter().zip(write_results).enumerate() {
                        if write.is_none() {
                            let rows = vdb.query_at(sql, seq.0 * MAXQ + q as u64 + 1);
                            std::hint::black_box(rows).expect("a logged SELECT re-runs");
                            queries += 1;
                        }
                    }
                }
            }
        });
        query_s += secs;
    }
    samples.push("sqldb.redo_us_per_txn", per(redo_s, txns as f64, 1e6));
    samples.push("sqldb.redo_txns", txns as f64);
    samples.push("sqldb.versions", versions as f64);
    samples.push("sqldb.versioned_bytes", bytes as f64);
    samples.push("sqldb.query_us", per(query_s, queries as f64, 1e6));

    // orochi_state: the versioned KV view of every key-value log.
    let (mut kv_s, mut kv_ops) = (0.0, 0usize);
    for (_, _, log) in reports.op_logs.iter() {
        if log.contains_op_type(OpType::KvGet) || log.contains_op_type(OpType::KvSet) {
            let (kv, secs) = tracer.span("state.kv_build", || VersionedKv::build(log));
            std::hint::black_box(kv);
            kv_s += secs;
            kv_ops += log.len();
        }
    }
    samples.push(
        "state.kv_build_us_per_kop",
        per(kv_s, kv_ops as f64 / 1e3, 1e6),
    );
}
