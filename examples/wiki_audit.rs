//! The Dana scenario (§1 of the paper): a wiki on an untrusted provider,
//! audited from the middlebox trace.
//!
//! Serves a Zipf-distributed MediaWiki-shaped workload on the concurrent
//! server, then audits it twice — once with SIMD-on-demand + query
//! deduplication (OROCHI) and once by simple per-request re-execution —
//! and prints the speedup.
//!
//! Run with: `cargo run --release --example wiki_audit`

use orochi::harness::{run_audit, serve, AppWorkload, ServeOptions};
use orochi::workload::wiki;

fn main() {
    let params = wiki::Params::scaled(0.1);
    println!(
        "workload: {} pages, Zipf β={}, ~{} views",
        params.pages, params.zipf_beta, params.view_requests
    );
    let work = AppWorkload {
        app: orochi::apps::wiki::app(),
        workload: wiki::generate(&params, 42),
        seed_sql: Vec::new(),
    };

    let served = serve(&work, &ServeOptions::default());
    println!(
        "served {} requests in {:.2?} (busy {:.2?}) across 4 client threads",
        served.requests, served.wall, served.busy
    );

    let orochi_run = run_audit(&served.bundle, &work, true, true)
        .unwrap_or_else(|r| panic!("audit rejected an honest server: {r}"));
    let simple_run = run_audit(&served.bundle, &work, false, false)
        .unwrap_or_else(|r| panic!("baseline audit rejected: {r}"));

    println!("\n-- OROCHI audit (grouped + dedup) --");
    let stats = &orochi_run.outcome.stats;
    println!("wall: {:.2?}", orochi_run.wall);
    for (phase, t) in stats.phase_rows() {
        println!("  {phase:<10} {t:.2?}");
    }
    println!(
        "  groups: {} ({} grouped), dedup hits: {}/{}",
        stats.groups_executed,
        orochi_run.exec_stats.grouped,
        stats.db_queries_deduped,
        stats.db_queries_deduped + stats.db_queries_issued,
    );

    println!("\n-- simple re-execution --");
    println!("wall: {:.2?}", simple_run.wall);

    println!(
        "\naudit speedup: {:.1}x",
        simple_run.wall.as_secs_f64() / orochi_run.wall.as_secs_f64()
    );
}
