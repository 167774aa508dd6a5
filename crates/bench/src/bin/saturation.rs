//! The saturation sweep: peak sustained serving throughput per app.
//!
//! For each paper workload and each front-end worker count (1 and the
//! pooled arm), measure the pool's capacity with a saturating burst
//! probe, then sweep offered open-loop rates around that capacity — a
//! bounded admission queue with load shedding — up to the p99 knee.
//! The ROADMAP's Fig. 8 credibility argument lives or dies here: the
//! recording server must sustain production arrival rates before its
//! audit-side numbers mean anything.
//!
//! Usage: `cargo run --release -p orochi_bench --bin saturation
//!         [--skew <theta[,len]>] [--session-len <len>]
//!         [--serve-threads <n|auto>] [--queue-depth <n>]`
//!
//! * `OROCHI_FULL=1` — full-scale sweep (longer request streams).
//! * `OROCHI_SERVE_THREADS` — the pooled arm's worker count
//!   (`auto` = all cores; default 4).
//! * `OROCHI_SERVE_QUEUE` — admission-queue depth (default
//!   8 × workers).
//! * `OROCHI_BENCH_JSON=path` — write the results as JSON for the
//!   `bench-smoke` CI artifact.

use orochi_bench::json::Json;
use orochi_harness::experiments::{print_saturation, saturation, scale_from_env, SaturationRow};

fn json_doc(scale: f64, hw: usize, rows: &[SaturationRow]) -> Json {
    Json::obj([
        ("experiment", Json::str("saturation")),
        ("scale", Json::Num(scale)),
        ("hw_threads", Json::from(hw)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("app", Json::str(r.app)),
                            ("workers", Json::from(r.workers)),
                            ("queue_depth", Json::from(r.queue_depth)),
                            ("peak_sustained", Json::Num(r.peak_sustained)),
                            ("knee_rate", Json::Num(r.knee_rate)),
                            (
                                "points",
                                Json::Arr(
                                    r.points
                                        .iter()
                                        .map(|p| {
                                            Json::obj([
                                                ("offered_rate", Json::Num(p.offered_rate)),
                                                ("throughput", Json::Num(p.throughput)),
                                                ("p50_ms", Json::Num(p.p50_ms)),
                                                ("p99_ms", Json::Num(p.p99_ms)),
                                                ("shed", Json::from(p.shed)),
                                                ("requests", Json::from(p.requests)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let config = orochi_bench::cli::apply_skew_args("saturation", std::env::args().skip(1));
    let scale = scale_from_env();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled = config.resolved_serve_threads();
    let queue_depth = config.serve_queue;
    let max_requests = if scale >= 1.0 { 4000 } else { 400 };
    let worker_counts: &[usize] = if pooled <= 1 { &[1] } else { &[1, pooled] };
    println!("== Saturation sweep (scale {scale}, workers {worker_counts:?}, hw {hw} threads) ==");
    let rows = saturation(scale, 42, worker_counts, queue_depth, max_requests);
    print_saturation(&rows);

    if let Ok(path) = std::env::var("OROCHI_BENCH_JSON") {
        let doc = json_doc(scale, hw, &rows);
        std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
