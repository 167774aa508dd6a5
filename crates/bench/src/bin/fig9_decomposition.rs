//! Regenerates the Fig. 9 audit-time CPU decomposition for all three
//! applications, plus the sequential-vs-parallel audit wall-time
//! comparison the CI pipeline tracks.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig9_decomposition
//!         [--skew <theta[,len]>] [--session-len <len>]`
//!
//! * `OROCHI_AUDIT_THREADS` — worker threads for the parallel arm
//!   (default/`auto`: every available core, clamped to the machine).
//! * `OROCHI_BENCH_JSON=path` — also write the results as JSON for the
//!   `bench-smoke` CI artifact.
//! * `--skew` / `--session-len` — set `OROCHI_WORKLOAD_SKEW` for all
//!   four workload generators.

use orochi_bench::json::Json;
use orochi_harness::experiments::{
    fig9_decomposition, parallel_speedup, print_fig9, print_parallel, scale_from_env, Fig9Row,
    ParallelRow,
};

fn json_doc(scale: f64, rows: &[Fig9Row], par: &[ParallelRow], threads: usize) -> Json {
    Json::obj([
        ("experiment", Json::str("fig9_decomposition")),
        ("scale", Json::Num(scale)),
        (
            "fig9",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("app", Json::str(r.app)),
                            ("proc_op_rep_s", Json::Num(r.proc_op_rep.as_secs_f64())),
                            ("graph_build_s", Json::Num(r.graph_build.as_secs_f64())),
                            ("graph_nodes", Json::from(r.graph_nodes)),
                            ("graph_edges", Json::from(r.graph_edges)),
                            ("db_redo_s", Json::Num(r.db_redo.as_secs_f64())),
                            ("db_query_s", Json::Num(r.db_query.as_secs_f64())),
                            ("php_s", Json::Num(r.php.as_secs_f64())),
                            ("other_s", Json::Num(r.other.as_secs_f64())),
                            (
                                "baseline_total_s",
                                Json::Num(r.baseline_total.as_secs_f64()),
                            ),
                            ("vm_dispatch_total", Json::from(r.vm_dispatch_total)),
                            ("vm_dispatch_executed", Json::from(r.vm_dispatch_executed)),
                            ("vm_dispatch_dedup", Json::Num(r.dispatch_dedup())),
                            ("groups", Json::from(r.groups)),
                            ("db_queries_issued", Json::from(r.db_queries_issued)),
                            ("db_queries_deduped", Json::from(r.db_queries_deduped)),
                            ("result_conversions", Json::from(r.result_conversions)),
                            ("lane_memo_hits", Json::from(r.lane_memo_hits)),
                            ("lane_memo_misses", Json::from(r.lane_memo_misses)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "parallel_audit",
            Json::obj([
                ("threads", Json::from(threads)),
                (
                    "rows",
                    Json::Arr(
                        par.iter()
                            .map(|r| {
                                Json::obj([
                                    ("app", Json::str(r.app)),
                                    ("requests", Json::from(r.requests)),
                                    ("seq_wall_s", Json::Num(r.seq_wall.as_secs_f64())),
                                    ("par_wall_s", Json::Num(r.par_wall.as_secs_f64())),
                                    ("speedup", Json::Num(r.speedup())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

fn main() {
    let config = orochi_bench::cli::apply_skew_args("fig9_decomposition", std::env::args().skip(1));
    let scale = scale_from_env();
    println!("== Fig. 9: audit-time CPU decomposition (scale {scale}) ==");
    let rows = fig9_decomposition(scale, 42);
    print_fig9(&rows);

    let threads = config.resolved_audit_threads();
    println!("== Parallel audit: sequential vs {threads} worker threads ==");
    let par = parallel_speedup(scale, 42, threads);
    print_parallel(&par);

    if let Ok(path) = std::env::var("OROCHI_BENCH_JSON") {
        let doc = json_doc(scale, &rows, &par, threads);
        std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
