//! The shop experiment: the session-heavy storefront end-to-end.
//!
//! Serves the shop workload, measures the honest audit sequentially and
//! pooled, the sequential-vs-object-sharded report assembly, the
//! register/KV-path share, and one rejected audit per tampering variant
//! (forged cart total, stale inventory read, replayed KV write).
//!
//! Usage: `cargo run --release -p orochi_bench --bin shop
//!         [--skew <theta[,len]>] [--session-len <len>]`
//!
//! * `OROCHI_FULL=1` — the full-scale session count.
//! * `OROCHI_AUDIT_THREADS` — worker threads for the pooled arms.
//! * `OROCHI_BENCH_JSON=path` — write the results as JSON for the
//!   `bench-smoke` CI artifact.

use orochi_bench::json::Json;
use orochi_harness::experiments::{print_shop, scale_from_env, shop_experiment, ShopReport};

fn json_doc(scale: f64, r: &ShopReport) -> Json {
    Json::obj([
        ("experiment", Json::str("shop")),
        ("scale", Json::Num(scale)),
        ("requests", Json::from(r.requests)),
        ("reg_kv_share", Json::Num(r.reg_kv_share)),
        (
            "audit",
            Json::obj([
                ("threads", Json::from(r.threads)),
                ("seq_wall_s", Json::Num(r.honest_seq_wall.as_secs_f64())),
                ("par_wall_s", Json::Num(r.honest_par_wall.as_secs_f64())),
                ("speedup", Json::Num(r.audit_speedup())),
            ]),
        ),
        (
            "assembly",
            Json::obj([
                ("threads", Json::from(r.threads)),
                ("seq_ms", Json::Num(r.assembly_seq.as_secs_f64() * 1000.0)),
                ("par_ms", Json::Num(r.assembly_par.as_secs_f64() * 1000.0)),
                ("speedup", Json::Num(r.assembly_speedup())),
            ]),
        ),
        (
            "tampers",
            Json::Arr(
                r.tampers
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("variant", Json::str(t.variant)),
                            ("rejected", Json::Bool(t.rejected)),
                            ("diagnostic", Json::str(t.diagnostic.clone())),
                            ("wall_s", Json::Num(t.wall.as_secs_f64())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let config = orochi_bench::cli::apply_skew_args("shop", std::env::args().skip(1));
    let scale = scale_from_env();
    let threads = config.resolved_audit_threads();
    println!("== Shop: session-heavy storefront (scale {scale}) ==");
    let report = shop_experiment(scale, 42, threads);
    print_shop(&report);

    if let Ok(path) = std::env::var("OROCHI_BENCH_JSON") {
        let doc = json_doc(scale, &report);
        std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
