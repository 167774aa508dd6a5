//! The streaming epoch audit at shop-workload scale: batch-cold vs
//! streaming-cold audit wall and peak heap, plus the per-epoch lag
//! distribution from an obs-on audit-while-serving run. Printed as a
//! table and (with `OROCHI_BENCH_JSON=path` or `--bench-json`) emitted
//! as the `streaming` row of the CI `BENCH_ci.json` artifact.
//!
//! Usage: `cargo run --release -p orochi_bench --bin streaming [flags]`
//! (the shared [`orochi_harness::Config`] flags apply: `--full`,
//! `--epoch-events <n>`, `--audit-threads <n|auto>`, `--bench-json
//! <path>`, …).
//!
//! Peak heap is measured by the counting global allocator
//! ([`TrackingAllocator`]): each arm resets the high-water mark, runs
//! the audit, and reports the peak growth over the pre-arm resident
//! set. The row carries two guards CI enforces:
//!
//! * `verdict_match` — the streaming verdict (and its
//!   requests-reexecuted count) is byte-identical to the batch audit;
//! * `peak_bounded` — the streaming audit's peak heap growth stays
//!   under half that of a batch audit over the *materialised* trace
//!   (every event copied out of the store first, then audited as one
//!   epoch): the bounded-carry claim at epoch-budget scale. The
//!   in-place batch audit is reported next to it but is not the
//!   yardstick — it scans the sealed segments without copying them, so
//!   it shrinks whenever that scan does, which says nothing about the
//!   carry.

use orochi_bench::cli::apply_skew_args;
use orochi_bench::json::Json;
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};
use orochi_core::Rejection;
use orochi_harness::experiments::shop_workload;
use orochi_harness::{
    run_audit_cold, run_audit_materialized, run_audit_streaming, serve, serve_and_audit,
    spill_bundle, AuditOptions, AuditRun, ServeOptions, Threads,
};
use orochi_trace::{TraceStoreReader, DEFAULT_SEGMENT_BYTES};
use std::time::Instant;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn verdict(run: &Result<AuditRun, Rejection>) -> String {
    match run {
        Ok(run) => format!("accept:{}", run.outcome.stats.requests_reexecuted),
        Err(r) => format!("reject:{r}"),
    }
}

fn main() {
    let config = apply_skew_args("streaming", std::env::args().skip(1));
    // An explicit --audit-threads is honored unclamped (measurement
    // bins want the requested pool even on small runners); auto
    // resolves to the hardware.
    let threads = match config.audit_threads {
        Threads::Exact(n) if n > 0 => n,
        _ => config.resolved_audit_threads(),
    };
    let epoch_events = if config.epoch_events != 0 {
        config.epoch_events
    } else if config.full {
        8192
    } else {
        256
    };
    let segment_budget = if config.segment_bytes != DEFAULT_SEGMENT_BYTES {
        config.segment_bytes
    } else if config.full {
        DEFAULT_SEGMENT_BYTES
    } else {
        64 * 1024
    };
    // Telemetry off for the measured arms so the clock-bearing layer
    // doesn't blur the memory comparison; a separate obs-on run below
    // collects the epoch-lag distribution.
    orochi_obs::set_enabled(false);

    let work = shop_workload(config.scale(), 42);
    let served = serve(&work, &ServeOptions::default());
    let events = served.bundle.trace.len();
    let dir = std::env::temp_dir().join(format!("orochi-bench-streaming-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    spill_bundle(&served.bundle, &dir, segment_budget).expect("spill");
    drop(served); // cold arms replay the sealed segments only

    let opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let reader = TraceStoreReader::open(&dir).expect("open store");

    // Materialised arm: the whole trace is copied out as owned events
    // before the audit — the yardstick for the bounded carry.
    let floor = alloc_tracking::current_bytes();
    alloc_tracking::reset_peak();
    let materialized = run_audit_materialized(&reader, &work, &opts);
    let materialized_peak = alloc_tracking::peak_bytes().saturating_sub(floor);
    let materialized_verdict = verdict(&materialized);
    drop(materialized);

    // Batch-cold arm: every segment's payload is resident at once,
    // scanned in place.
    let floor = alloc_tracking::current_bytes();
    alloc_tracking::reset_peak();
    let t0 = Instant::now();
    let batch = run_audit_cold(&reader, &work, &opts);
    let batch_wall = t0.elapsed();
    let batch_peak = alloc_tracking::peak_bytes().saturating_sub(floor);
    let batch_verdict = verdict(&batch);
    drop(batch);

    // Streaming-cold arm: same store, same pool, bounded carry.
    let floor = alloc_tracking::current_bytes();
    alloc_tracking::reset_peak();
    let t0 = Instant::now();
    let streaming = run_audit_streaming(&reader, &work, &opts, epoch_events);
    let streaming_wall = t0.elapsed();
    let streaming_peak = alloc_tracking::peak_bytes().saturating_sub(floor);
    let streaming_verdict = verdict(&streaming);
    drop(streaming);
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);

    let verdict_match = batch_verdict == streaming_verdict && batch_verdict == materialized_verdict;
    let peak_ratio = streaming_peak as f64 / materialized_peak.max(1) as f64;
    let peak_bounded = peak_ratio < 0.5;

    // Obs-on arm: audit-while-serving, sealing one store segment per
    // epoch, to populate the seal→epoch-verdict lag histogram.
    orochi_obs::set_enabled(true);
    let dir2 =
        std::env::temp_dir().join(format!("orochi-bench-streaming-sa-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let sa = serve_and_audit(
        &work,
        &ServeOptions::default(),
        &opts,
        &dir2,
        segment_budget,
        epoch_events,
    )
    .unwrap_or_else(|r| panic!("obs-on serve_and_audit rejected: {r}"));
    let _ = std::fs::remove_dir_all(&dir2);
    orochi_obs::set_enabled(false);
    let lag = orochi_obs::registry::histogram("audit_lag_ns").snapshot();
    let p99_epoch_lag_us = lag.quantile_est(99.0).map_or(0.0, |ns| ns / 1000.0);

    println!(
        "== streaming: batch vs epoch audit (events={events}, epoch_events={epoch_events}, \
         threads={threads}) =="
    );
    println!("{:<22} {:>12}", "epochs (obs run)", sa.epochs);
    println!(
        "{:<22} {:>9.3}ms",
        "audit (batch cold)",
        batch_wall.as_secs_f64() * 1000.0
    );
    println!(
        "{:<22} {:>9.3}ms",
        "audit (streaming)",
        streaming_wall.as_secs_f64() * 1000.0
    );
    println!("{:<22} {:>9} B", "peak heap (owned)", materialized_peak);
    println!("{:<22} {:>9} B", "peak heap (batch)", batch_peak);
    println!("{:<22} {:>9} B", "peak heap (streaming)", streaming_peak);
    println!("{:<22} {:>12.3}", "peak ratio", peak_ratio);
    println!("{:<22} {:>9.1}us", "p99 epoch lag", p99_epoch_lag_us);
    println!("verdict batch={batch_verdict} streaming={streaming_verdict} match={verdict_match}");
    assert!(
        verdict_match,
        "streaming verdict must match the batch audit"
    );
    assert!(
        peak_bounded,
        "streaming peak heap {streaming_peak} must stay under half the materialised batch peak {materialized_peak}"
    );

    if let Some(path) = &config.bench_json {
        let doc = Json::obj([
            ("experiment", Json::str("streaming")),
            ("events", Json::from(events)),
            ("epoch_events", Json::from(epoch_events)),
            ("epochs", Json::from(sa.epochs as usize)),
            ("batch_audit_wall_s", Json::Num(batch_wall.as_secs_f64())),
            (
                "streaming_audit_wall_s",
                Json::Num(streaming_wall.as_secs_f64()),
            ),
            ("materialized_peak_bytes", Json::from(materialized_peak)),
            ("batch_peak_bytes", Json::from(batch_peak)),
            ("streaming_peak_bytes", Json::from(streaming_peak)),
            ("peak_ratio", Json::Num(peak_ratio)),
            ("peak_bounded", Json::Bool(peak_bounded)),
            ("p99_epoch_lag_us", Json::Num(p99_epoch_lag_us)),
            ("audit_threads", Json::from(threads)),
            ("verdict_match", Json::Bool(verdict_match)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
