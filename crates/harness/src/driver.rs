//! Serving and auditing drivers shared by the tests, the examples and
//! the benchmark.
//!
//! All three serving modes — closed-loop ([`serve`]/[`serve_drained`]),
//! and open-loop ([`serve_open_loop_with`]) — are
//! drivers over one abstraction, the [`Frontend`]: a bounded admission
//! queue feeding a fixed worker pool.

use orochi_accphp::executor::ExecutorStats;
use orochi_accphp::AccPhpExecutor;
use orochi_apps::AppDefinition;
use orochi_core::audit::{AuditConfig, AuditOutcome, Rejection};
use orochi_core::streaming::{audit_streaming_source, StreamingAudit};
use orochi_core::{load_reports, spill_reports};
use orochi_obs::HistogramSnapshot;
use orochi_server::server::AuditBundle;
use orochi_server::{Frontend, FrontendConfig, Server, ServerConfig, ShedPolicy};
use orochi_trace::{TraceStoreError, TraceStoreReader, TraceStoreSummary, TraceStoreWriter};
use orochi_workload::{forum, hotcrp, mixed, shop, wiki, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// An application together with its workload and database seed.
pub struct AppWorkload {
    /// The application.
    pub app: AppDefinition,
    /// The request stream.
    pub workload: Workload,
    /// SQL to seed the initial database (also applied at the verifier).
    pub seed_sql: Vec<String>,
}

impl AppWorkload {
    /// The shop workload at `scale`.
    pub fn shop(scale: f64, seed: u64) -> AppWorkload {
        let params = shop::Params::scaled(scale);
        AppWorkload {
            app: orochi_apps::shop::app(),
            workload: shop::generate(&params, seed),
            seed_sql: shop::seed_sql(&params),
        }
    }

    /// The three paper workloads (wiki, forum, hotcrp) plus the shop at
    /// `scale`.
    pub fn paper(scale: f64, seed: u64) -> Vec<AppWorkload> {
        let forum_params = forum::Params::scaled(scale);
        vec![
            AppWorkload {
                app: orochi_apps::wiki::app(),
                workload: wiki::generate(&wiki::Params::scaled(scale), seed),
                seed_sql: Vec::new(),
            },
            AppWorkload {
                app: orochi_apps::forum::app(),
                workload: forum::generate(&forum_params, seed),
                seed_sql: forum::seed_sql(&forum_params),
            },
            AppWorkload {
                app: orochi_apps::hotcrp::app(),
                workload: hotcrp::generate(&hotcrp::Params::scaled(scale), seed),
                seed_sql: Vec::new(),
            },
            AppWorkload::shop(scale, seed),
        ]
    }

    /// The mixed four-app workload at `scale`: all tenants behind one
    /// front-end (`orochi_apps::mixed`), requests interleaved by
    /// `orochi_workload::mixed`.
    pub fn mixed(scale: f64, seed: u64) -> AppWorkload {
        let params = mixed::Params::scaled(scale);
        AppWorkload {
            app: orochi_apps::mixed::app(),
            workload: mixed::generate(&params, seed),
            seed_sql: mixed::seed_sql(&params),
        }
    }

    /// The initial database both sides start from.
    pub fn initial_db(&self) -> orochi_sqldb::Database {
        let mut db = self.app.initial_db();
        for sql in &self.seed_sql {
            db.execute_autocommit(sql)
                .0
                .unwrap_or_else(|e| panic!("seed statement failed: {e}"));
        }
        db
    }

    /// The audit configuration with the matching initial state.
    pub fn audit_config(&self) -> AuditConfig {
        let mut config = AuditConfig::new();
        config
            .initial_dbs
            .insert("db:main".to_string(), self.initial_db());
        config
    }
}

/// Serving options.
pub struct ServeOptions {
    /// Front-end worker threads for the measured phase.
    pub threads: usize,
    /// Admission-queue depth; `0` = unbounded.
    pub queue_depth: usize,
    /// Record reports (OROCHI) or run the baseline server.
    pub recording: bool,
    /// Server randomness seed.
    pub seed: u64,
}

impl Default for ServeOptions {
    /// Four workers, an unbounded queue, recording on, seed 42.
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            queue_depth: 0,
            recording: true,
            seed: 42,
        }
    }
}

/// Result of serving a workload.
pub struct ServeResult {
    /// Trace, reports, and final state.
    pub bundle: AuditBundle,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Server busy time (CPU-cost proxy).
    pub busy: Duration,
    /// Requests served.
    pub requests: u64,
    /// Requests refused at admission (only under a shedding open-loop
    /// front-end; always 0 for closed-loop backpressure serving).
    pub shed: u64,
    /// Scheduled-submission latency distribution in microseconds (log2
    /// buckets, merged across workers; empty for closed-loop serving).
    pub latency: HistogramSnapshot,
}

fn build_server(work: &AppWorkload, recording: bool, seed: u64) -> Server {
    let scripts = work.app.compile().expect("application compiles");
    let server = Server::new(ServerConfig {
        scripts,
        initial_db: work.initial_db(),
        recording,
        seed,
        ..Default::default()
    });
    for req in &work.workload.setup {
        server.handle(req.clone());
    }
    server
}

/// Serves a workload and returns the *drained* server (worker pool
/// joined) plus the measured-phase wall time. Callers that only need
/// the bundle should use [`serve`]; this variant exists so the
/// benchmark can time report assembly itself before consuming the
/// server.
///
/// The measured requests are fed straight off the borrowed workload
/// into the front-end's admission queue (one clone per request as it is
/// submitted — the request vector itself is never copied) with
/// backpressure, so every request is served.
pub fn serve_drained(work: &AppWorkload, opts: &ServeOptions) -> (Server, Duration) {
    let server = build_server(work, opts.recording, opts.seed);
    let frontend = Frontend::start(
        server,
        FrontendConfig {
            workers: opts.threads.max(1),
            queue_depth: opts.queue_depth,
            shed: ShedPolicy::Block,
        },
    );
    let t0 = Instant::now();
    for req in &work.workload.requests {
        frontend.submit(req.clone());
    }
    let report = frontend.drain();
    let wall = t0.elapsed();
    (report.server, wall)
}

/// Serves a workload: the setup phase runs sequentially (logins and
/// seeding), the measured phase goes through a [`Frontend`] pool of
/// `threads` workers.
pub fn serve(work: &AppWorkload, opts: &ServeOptions) -> ServeResult {
    let (server, wall) = serve_drained(work, opts);
    let busy = server.busy();
    let requests = server.requests_handled();
    ServeResult {
        bundle: server.into_bundle(),
        wall,
        busy,
        requests,
        shed: 0,
        latency: HistogramSnapshot::new(),
    }
}

/// Open-loop serving knobs beyond the arrival rate.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOptions {
    /// Front-end worker threads.
    pub pool: usize,
    /// Admission-queue depth; `0` = unbounded.
    pub queue_depth: usize,
    /// Refuse arrivals when the bounded queue is full (load shedding)
    /// instead of blocking the dispatcher (backpressure).
    pub shed: bool,
    /// Record reports (OROCHI) or run the baseline server.
    pub recording: bool,
    /// Server randomness and arrival-schedule seed.
    pub seed: u64,
}

/// Serves with an open-loop Poisson arrival schedule (Fig. 8 right):
/// the dispatcher releases each *batch* of due arrivals into the
/// front-end at its scheduled time (one sleep per batch, not per
/// request); workers record per-request latencies (queueing included)
/// into per-worker buffers merged at drain. Bound the queue and shed
/// (`opts`) so overload measures sustained capacity instead of queue
/// growth.
pub fn serve_open_loop_with(
    work: &AppWorkload,
    rate_per_sec: f64,
    opts: &OpenLoopOptions,
) -> (Vec<f64>, ServeResult) {
    let server = build_server(work, opts.recording, opts.seed);
    let frontend = Frontend::start(
        server,
        FrontendConfig {
            workers: opts.pool.max(1),
            queue_depth: opts.queue_depth,
            shed: if opts.shed {
                ShedPolicy::Shed
            } else {
                ShedPolicy::Block
            },
        },
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(opts.seed);
    let arrivals =
        orochi_workload::poisson_arrivals(rate_per_sec, work.workload.requests.len(), &mut rng);
    let requests = &work.workload.requests;
    let t0 = Instant::now();
    let mut i = 0;
    while i < requests.len() {
        let due = t0 + arrivals[i];
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        // Release everything that has become due as one batch.
        let now = Instant::now();
        while i < requests.len() {
            let scheduled = t0 + arrivals[i];
            if scheduled > now {
                break;
            }
            frontend.submit_at(requests[i].clone(), scheduled);
            i += 1;
        }
    }
    let report = frontend.drain();
    let wall = t0.elapsed();
    let busy = report.server.busy();
    let requests = report.server.requests_handled();
    (
        report.latencies,
        ServeResult {
            bundle: report.server.into_bundle(),
            wall,
            busy,
            requests,
            shed: report.shed,
            latency: report.latency,
        },
    )
}

/// One audit run's measurements.
pub struct AuditRun {
    /// Audit statistics (phase timings, dedup counters, redo stats).
    pub outcome: AuditOutcome,
    /// Executor statistics (grouped runs, scalar requests),
    /// merged across workers for parallel runs.
    pub exec_stats: ExecutorStats,
    /// Total audit wall time.
    pub wall: Duration,
}

/// Audit knobs: execution mode, deduplication, and the worker count.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// SIMD-on-demand grouped re-execution vs the scalar baseline.
    pub grouped: bool,
    /// Read-query deduplication (§4.5).
    pub dedup: bool,
    /// Re-execution worker threads; 1 = the sequential audit.
    pub threads: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            grouped: true,
            dedup: true,
            threads: 1,
        }
    }
}

/// The one audit runner behind every entry point below: builds the
/// executor pool `opts` describes, runs `audit` over it, and on a
/// verdict records the seal→verdict lag and merges the executors'
/// statistics.
fn run_on(
    work: &AppWorkload,
    opts: &AuditOptions,
    audit: impl FnOnce(&mut [AccPhpExecutor], &AuditConfig) -> Result<AuditOutcome, Rejection>,
) -> Result<AuditRun, Rejection> {
    let scripts = work.app.compile().expect("application compiles");
    let mut config = work.audit_config();
    config.query_dedup = opts.dedup;
    let mut executors: Vec<AccPhpExecutor> = (0..opts.threads.max(1))
        .map(|_| {
            let mut e = AccPhpExecutor::new(scripts.clone());
            e.force_scalar = !opts.grouped;
            e
        })
        .collect();
    let t0 = Instant::now();
    let outcome = audit(&mut executors, &config)?;
    let wall = t0.elapsed();
    orochi_obs::lag::record_verdict();
    let mut exec_stats = ExecutorStats::default();
    for e in &executors {
        exec_stats.merge(&e.stats);
    }
    Ok(AuditRun {
        outcome,
        exec_stats,
        wall,
    })
}

/// Audits a bundle. `grouped` selects SIMD-on-demand vs the scalar
/// baseline; `dedup` toggles read-query deduplication (§4.5). Runs the
/// sequential audit; use [`run_audit_with`] for the pooled variant.
pub fn run_audit(
    bundle: &AuditBundle,
    work: &AppWorkload,
    grouped: bool,
    dedup: bool,
) -> Result<AuditRun, Rejection> {
    run_audit_with(
        bundle,
        work,
        &AuditOptions {
            grouped,
            dedup,
            ..Default::default()
        },
    )
}

/// Audits a bundle with explicit [`AuditOptions`]. With `threads >= 2`
/// the control-flow groups re-execute across a worker pool; verdicts
/// and diagnostics are identical to the sequential audit at any thread
/// count.
pub fn run_audit_with(
    bundle: &AuditBundle,
    work: &AppWorkload,
    opts: &AuditOptions,
) -> Result<AuditRun, Rejection> {
    run_on(work, opts, |executors, config| {
        audit_streaming_source(&bundle.trace, &bundle.reports, executors, config, 0)
    })
}

/// Spills a served bundle's trace and reports into a segmented trace
/// store at `dir` (created if missing; refuses a dirty directory). The
/// bundle itself is untouched — callers wanting the cold-storage memory
/// profile drop `bundle.trace` after spilling.
pub fn spill_bundle(
    bundle: &AuditBundle,
    dir: impl AsRef<Path>,
    segment_bytes: usize,
) -> std::io::Result<TraceStoreSummary> {
    let mut writer = TraceStoreWriter::create(dir.as_ref(), segment_bytes)?;
    writer.append_trace(&bundle.trace)?;
    spill_reports(&mut writer, &bundle.reports)?;
    writer.finish()
}

/// Audits straight from a segmented trace store, as one epoch: the
/// trace streams out of the sealed segments and the reports load from
/// the sidecar blob. Verdicts and diagnostics are byte-identical to
/// [`run_audit_with`] over the in-RAM bundle.
pub fn run_audit_cold(
    reader: &TraceStoreReader,
    work: &AppWorkload,
    opts: &AuditOptions,
) -> Result<AuditRun, Rejection> {
    run_audit_streaming(reader, work, opts, 0)
}

/// Audits a segmented trace store in epochs of `epoch_events` events
/// (`0` = one epoch, i.e. batch), re-executing incrementally with
/// bounded carry. Verdicts and diagnostics are byte-identical to
/// [`run_audit_cold`] at any epoch budget.
pub fn run_audit_streaming(
    reader: &TraceStoreReader,
    work: &AppWorkload,
    opts: &AuditOptions,
    epoch_events: usize,
) -> Result<AuditRun, Rejection> {
    let reports = load_reports(reader).map_err(Rejection::TraceStore)?;
    run_on(work, opts, |executors, config| {
        audit_streaming_source(reader, &reports, executors, config, epoch_events)
    })
}

/// Result of [`serve_and_audit`].
pub struct ServeAudit {
    /// The streaming audit's measurements.
    pub run: AuditRun,
    /// Wall time of the serving phase.
    pub serve_wall: Duration,
    /// Epochs the audit consumed.
    pub epochs: u64,
    /// The trace store the epochs were sealed into.
    pub store: TraceStoreSummary,
}

/// Audit-while-serving: serves the workload, then interleaves trace
/// persistence and auditing at epoch granularity — each epoch of events
/// is appended to the segmented store, sealed (stamping the lag clock),
/// and immediately fed to the [`StreamingAudit`], so the verifier's
/// working set never holds the whole trace. The reports only exist once
/// the server drains, so the overlap is between store ingest and audit,
/// not with serving itself.
pub fn serve_and_audit(
    work: &AppWorkload,
    serve_opts: &ServeOptions,
    audit_opts: &AuditOptions,
    dir: impl AsRef<Path>,
    segment_bytes: usize,
    epoch_events: usize,
) -> Result<ServeAudit, Rejection> {
    let dir = dir.as_ref();
    let io_err = |e: std::io::Error| {
        Rejection::TraceStore(TraceStoreError::io(dir.display().to_string(), &e))
    };
    let (server, serve_wall) = serve_drained(work, serve_opts);
    let bundle = server.into_bundle();
    let mut writer = TraceStoreWriter::create(dir, segment_bytes).map_err(io_err)?;
    let budget = if epoch_events == 0 {
        bundle.trace.events.len().max(1)
    } else {
        epoch_events
    };
    let (mut epochs, mut store) = (0, None);
    let run = run_on(work, audit_opts, |executors, config| {
        let mut audit = StreamingAudit::new(&bundle.reports, config, executors.len());
        let mut feeding = true;
        for epoch in bundle.trace.events.chunks(budget) {
            for event in epoch {
                writer.append(event.clone()).map_err(io_err)?;
            }
            // Seal the epoch: durable on disk and stamped on the lag
            // clock before the verifier touches it.
            writer.seal().map_err(io_err)?;
            if feeding {
                feeding = audit.feed_epoch(epoch, executors);
            }
        }
        spill_reports(&mut writer, &bundle.reports).map_err(io_err)?;
        store = Some(writer.finish().map_err(io_err)?);
        epochs = audit.epochs();
        let reader = TraceStoreReader::open(dir).map_err(Rejection::TraceStore)?;
        audit.finish(&reader, executors)
    })?;
    Ok(ServeAudit {
        run,
        serve_wall,
        epochs,
        store: store.expect("the audit closure finished the store"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_workload::wiki;

    fn tiny_wiki() -> AppWorkload {
        AppWorkload {
            app: orochi_apps::wiki::app(),
            workload: wiki::generate(&wiki::Params::scaled(0.01), 1),
            seed_sql: Vec::new(),
        }
    }

    #[test]
    fn mixed_workload_serves_all_tenants() {
        let work = AppWorkload::mixed(0.01, 3);
        assert_eq!(work.app.name, "mixed");
        for t in ["/wiki/", "/forum/", "/hotcrp/", "/shop/"] {
            assert!(
                work.workload.requests.iter().any(|r| r.path.starts_with(t)),
                "missing tenant {t}"
            );
        }
        assert!(!work.seed_sql.is_empty(), "forum+shop seed SQL expected");
    }

    #[test]
    fn serve_then_audit_roundtrip() {
        let work = tiny_wiki();
        let served = serve(&work, &ServeOptions::default());
        assert_eq!(served.requests as usize, work.workload.len());
        let run = run_audit(&served.bundle, &work, true, true)
            .unwrap_or_else(|r| panic!("audit rejected: {r}"));
        assert!(run.outcome.stats.requests_reexecuted > 0);
        // Grouped mode must engage on a Zipf wiki workload.
        assert!(run.exec_stats.grouped > 0);
    }

    #[test]
    fn scalar_baseline_also_accepts_and_is_slower_conceptually() {
        let work = tiny_wiki();
        let served = serve(&work, &ServeOptions::default());
        let grouped = run_audit(&served.bundle, &work, true, true).unwrap();
        let scalar = run_audit(&served.bundle, &work, false, false).unwrap();
        assert_eq!(
            grouped.outcome.stats.requests_reexecuted,
            scalar.outcome.stats.requests_reexecuted
        );
        assert_eq!(scalar.exec_stats.grouped, 0);
    }

    #[test]
    fn cold_audit_matches_in_ram() {
        let work = tiny_wiki();
        let served = serve(&work, &ServeOptions::default());
        let dir = std::env::temp_dir().join(format!("orochi-driver-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = spill_bundle(&served.bundle, &dir, 64 * 1024).unwrap();
        assert_eq!(summary.events as usize, served.bundle.trace.len());
        let ram = run_audit(&served.bundle, &work, true, true).unwrap();
        drop(served); // the in-RAM trace is gone; only the segments remain
        let reader = TraceStoreReader::open(&dir).unwrap();
        let cold = run_audit_cold(&reader, &work, &AuditOptions::default()).unwrap();
        assert_eq!(
            cold.outcome.stats.requests_reexecuted,
            ram.outcome.stats.requests_reexecuted
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_and_audit_matches_batch() {
        let work = tiny_wiki();
        let dir = std::env::temp_dir().join(format!("orochi-serve-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sa = serve_and_audit(
            &work,
            &ServeOptions::default(),
            &AuditOptions::default(),
            &dir,
            64 * 1024,
            32,
        )
        .unwrap_or_else(|r| panic!("streaming audit rejected: {r}"));
        assert!(sa.epochs > 1, "a 32-event budget must yield many epochs");
        assert_eq!(sa.store.events as usize, work.workload.len() * 2);
        // The batch oracle must audit the *same* sealed store the
        // streaming audit consumed: group structure depends on the
        // serve interleaving (check-then-act branches shift control-
        // flow digests), so a second serve is not a valid oracle.
        let reader = TraceStoreReader::open(&dir).unwrap();
        let batch = run_audit_cold(&reader, &work, &AuditOptions::default()).unwrap();
        assert_eq!(
            sa.run.outcome.stats.requests_reexecuted,
            batch.outcome.stats.requests_reexecuted
        );
        assert_eq!(
            sa.run.outcome.stats.groups_executed,
            batch.outcome.stats.groups_executed
        );
        // The sealed store must also replay cold through the streaming
        // driver with a different epoch budget, to the same verdict.
        let cold = run_audit_streaming(&reader, &work, &AuditOptions::default(), 7).unwrap();
        assert_eq!(
            cold.outcome.stats.requests_reexecuted,
            batch.outcome.stats.requests_reexecuted
        );
        assert_eq!(
            cold.outcome.stats.groups_executed,
            batch.outcome.stats.groups_executed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_loop_latencies_collected() {
        let mut work = tiny_wiki();
        work.workload.requests.truncate(60);
        let (latencies, served) = serve_open_loop_with(
            &work,
            300.0,
            &OpenLoopOptions {
                pool: 4,
                queue_depth: 0,
                shed: false,
                recording: true,
                seed: 3,
            },
        );
        assert_eq!(latencies.len(), 60);
        assert!(latencies.iter().all(|&l| l >= 0.0));
        run_audit(&served.bundle, &work, true, true)
            .unwrap_or_else(|r| panic!("open-loop audit rejected: {r}"));
    }
}
