//! One function per paper table/figure (the per-experiment index in
//! DESIGN.md maps each to its bench target).

use crate::driver::{
    run_audit, run_audit_cold, run_audit_streaming, run_audit_with, serve, serve_drained,
    serve_open_loop, serve_open_loop_with, spill_bundle, vm_engine_from_env, AppWorkload,
    AuditOptions, OpenLoopOptions, ServeOptions,
};
use crate::mutation::{MutationPlan, MutationSite};
use crate::tamper;
use orochi_accphp::{AccPhpExecutor, VmEngine};
use orochi_common::metrics::percentile;
use orochi_core::audit::{audit, audit_parallel};
use orochi_core::streaming::audit_streaming_source;
use orochi_server::server::AuditBundle;
use orochi_trace::{Event, TraceStoreReader};
use orochi_workload::{forum, hotcrp, mixed, shop, skew, wiki};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Workload scale: the paper's full counts with `OROCHI_FULL=1`,
/// otherwise a CI-friendly fraction.
pub fn scale_from_env() -> f64 {
    match std::env::var("OROCHI_FULL") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => 1.0,
        _ => 0.05,
    }
}

/// Builds the shop workload at `scale` (the `OROCHI_WORKLOAD_SKEW` knob
/// applies, like the paper workloads).
pub fn shop_workload(scale: f64, seed: u64) -> AppWorkload {
    let params = shop::Params::scaled(scale).with_skew(&skew::from_env());
    AppWorkload {
        app: orochi_apps::shop::app(),
        workload: shop::generate(&params, seed),
        seed_sql: shop::seed_sql(&params),
    }
}

/// Builds the three paper workloads plus the shop at `scale`. The
/// shared `OROCHI_WORKLOAD_SKEW` knob (Zipf theta, session length)
/// applies to all four.
pub fn paper_workloads(scale: f64, seed: u64) -> Vec<AppWorkload> {
    let sk = skew::from_env();
    let forum_params = forum::Params::scaled(scale).with_skew(&sk);
    vec![
        AppWorkload {
            app: orochi_apps::wiki::app(),
            workload: wiki::generate(&wiki::Params::scaled(scale).with_skew(&sk), seed),
            seed_sql: Vec::new(),
        },
        AppWorkload {
            app: orochi_apps::forum::app(),
            workload: forum::generate(&forum_params, seed),
            seed_sql: forum::seed_sql(&forum_params),
        },
        AppWorkload {
            app: orochi_apps::hotcrp::app(),
            workload: hotcrp::generate(&hotcrp::Params::scaled(scale).with_skew(&sk), seed),
            seed_sql: Vec::new(),
        },
        shop_workload(scale, seed),
    ]
}

/// One row of the Fig. 8 (left) table.
#[derive(Debug)]
pub struct Fig8Row {
    /// Application name.
    pub app: &'static str,
    /// Requests in the audited window.
    pub requests: u64,
    /// Baseline audit time / OROCHI audit time.
    pub audit_speedup: f64,
    /// (recording server busy − baseline server busy) / baseline busy.
    pub server_cpu_overhead: f64,
    /// Average request-response pair size, bytes.
    pub avg_request_bytes: f64,
    /// Baseline per-request report bytes (nondeterminism only, §5.1).
    pub baseline_report_bytes: f64,
    /// OROCHI per-request report bytes.
    pub orochi_report_bytes: f64,
    /// (trace + OROCHI reports) / (trace + baseline reports).
    pub report_overhead: f64,
    /// Versioned-DB bytes / final-DB bytes during the audit ("temp").
    pub db_temp_overhead: f64,
    /// Post-audit DB overhead (always 1×: only the latest state kept).
    pub db_permanent_overhead: f64,
}

/// Experiment E1: the Fig. 8 (left) main-results table.
pub fn fig8_table(scale: f64, seed: u64) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for work in paper_workloads(scale, seed) {
        let name = work.app.name;
        // The audited bundle comes from a concurrent serve with
        // recording on (realistic trace concurrency).
        let orochi = serve(
            &work,
            &ServeOptions {
                recording: true,
                ..Default::default()
            },
        );
        // Server CPU overhead compares contention-free busy time
        // (single client thread). One discarded warm-up run, then the
        // arms alternate; min-of-3 per arm suppresses noise.
        let serve_once = |recording: bool| {
            serve(
                &work,
                &ServeOptions {
                    threads: 1,
                    recording,
                    seed: 42,
                    ..Default::default()
                },
            )
            .busy
        };
        let _ = serve_once(true);
        let mut base_runs = Vec::new();
        let mut rec_runs = Vec::new();
        for _ in 0..3 {
            base_runs.push(serve_once(false));
            rec_runs.push(serve_once(true));
        }
        let busy_baseline = base_runs.into_iter().min().expect("three runs");
        let busy_recording = rec_runs.into_iter().min().expect("three runs");
        // Audits: grouped+dedup (OROCHI) vs scalar+no-dedup ("simple
        // re-execution").
        let orochi_audit = run_audit(&orochi.bundle, &work, true, true)
            .unwrap_or_else(|r| panic!("{name}: OROCHI audit rejected: {r}"));
        let simple_audit = run_audit(&orochi.bundle, &work, false, false)
            .unwrap_or_else(|r| panic!("{name}: baseline audit rejected: {r}"));

        let trace_bytes = orochi.bundle.trace.wire_size() as f64;
        let report_bytes = orochi.bundle.reports.wire_size() as f64;
        let nondet_bytes = orochi.bundle.reports.nondet_wire_size() as f64;
        let n = orochi.requests as f64;
        let stats = &orochi_audit.outcome.stats;
        rows.push(Fig8Row {
            app: name,
            requests: orochi.requests,
            audit_speedup: simple_audit.wall.as_secs_f64() / orochi_audit.wall.as_secs_f64(),
            server_cpu_overhead: (busy_recording.as_secs_f64() - busy_baseline.as_secs_f64())
                / busy_baseline.as_secs_f64(),
            avg_request_bytes: trace_bytes / n,
            baseline_report_bytes: nondet_bytes / n,
            orochi_report_bytes: report_bytes / n,
            report_overhead: (trace_bytes + report_bytes) / (trace_bytes + nondet_bytes),
            db_temp_overhead: if stats.db_final_bytes > 0 {
                stats.db_versioned_bytes as f64 / stats.db_final_bytes as f64
            } else {
                1.0
            },
            db_permanent_overhead: 1.0,
        });
    }
    rows
}

/// Renders the Fig. 8 table like the paper's.
pub fn print_fig8(rows: &[Fig8Row]) {
    println!(
        "{:<10} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6}",
        "app",
        "requests",
        "speedup",
        "srv-ovhd",
        "req-bytes",
        "base-rep",
        "oro-rep",
        "rep-ovhd",
        "temp",
        "perm"
    );
    for r in rows {
        println!(
            "{:<10} {:>8} {:>8.1}x {:>8.1}% {:>9.1}B {:>9.1}B {:>9.1}B {:>7.1}% {:>5.1}x {:>5.1}x",
            r.app,
            r.requests,
            r.audit_speedup,
            r.server_cpu_overhead * 100.0,
            r.avg_request_bytes,
            r.baseline_report_bytes,
            r.orochi_report_bytes,
            (r.report_overhead - 1.0) * 100.0,
            r.db_temp_overhead,
            r.db_permanent_overhead,
        );
    }
}

/// One point of the Fig. 8 (right) latency/throughput plot.
#[derive(Debug)]
pub struct LatencyPoint {
    /// Offered rate, requests/second.
    pub offered_rate: f64,
    /// Achieved throughput, requests/second.
    pub throughput: f64,
    /// 50th percentile latency, ms.
    pub p50_ms: f64,
    /// 90th percentile latency, ms.
    pub p90_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
}

/// Experiment E2: latency vs throughput for the forum app, recording on
/// vs off (Fig. 8 right).
pub fn fig8_latency(scale: f64, seed: u64, rates: &[f64], recording: bool) -> Vec<LatencyPoint> {
    let params = forum::Params::scaled(scale);
    let mut out = Vec::new();
    for &rate in rates {
        let work = AppWorkload {
            app: orochi_apps::forum::app(),
            workload: forum::generate(&params, seed),
            seed_sql: forum::seed_sql(&params),
        };
        let (latencies, served) = serve_open_loop(&work, rate, 8, recording, seed);
        let throughput = served.requests as f64 / served.wall.as_secs_f64();
        out.push(LatencyPoint {
            offered_rate: rate,
            throughput,
            p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0),
            p90_ms: percentile(&latencies, 90.0).unwrap_or(0.0),
            p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0),
        });
    }
    out
}

/// One measured point of the saturation sweep.
#[derive(Debug)]
pub struct SaturationPoint {
    /// Offered rate, requests/second.
    pub offered_rate: f64,
    /// Achieved throughput, requests/second.
    pub throughput: f64,
    /// Median latency, ms (queueing included).
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Requests refused at admission (bounded queue, shedding).
    pub shed: u64,
    /// Requests actually served.
    pub requests: u64,
}

/// One (app × worker-count) arm of the saturation sweep.
#[derive(Debug)]
pub struct SaturationRow {
    /// Application name.
    pub app: &'static str,
    /// Front-end workers.
    pub workers: usize,
    /// Admission-queue depth used by the sweep.
    pub queue_depth: usize,
    /// Peak sustained throughput, requests/second: the saturating-burst
    /// probe (every arrival due immediately, backpressure admission) —
    /// the pool's capacity, with every request served.
    pub peak_sustained: f64,
    /// Offered rate at the p99 knee: the first swept rate whose p99
    /// blew past the unloaded p99 (or that had to shed); the last swept
    /// rate if the knee was never reached.
    pub knee_rate: f64,
    /// The swept open-loop points, in offered-rate order.
    pub points: Vec<SaturationPoint>,
}

/// Experiment E10: saturation sweep. For each paper workload and each
/// worker count, measure the pool's capacity with a saturating burst
/// probe, then sweep offered rates around that capacity (bounded queue,
/// load shedding) up to the p99 knee. The measured request stream is
/// truncated to `max_requests` per point so the sweep stays CI-sized;
/// the full-scale nightly run raises it.
pub fn saturation(
    scale: f64,
    seed: u64,
    worker_counts: &[usize],
    queue_depth: usize,
    max_requests: usize,
) -> Vec<SaturationRow> {
    let mut rows = Vec::new();
    for mut work in paper_workloads(scale, seed) {
        if max_requests > 0 {
            work.workload.requests.truncate(max_requests);
        }
        let n = work.workload.requests.len().max(1);
        for &workers in worker_counts {
            let workers = workers.max(1);
            let depth = if queue_depth == 0 {
                workers * 8
            } else {
                queue_depth
            };
            // Capacity probe: everything due at t=0, backpressure
            // admission, so the pool runs flat out and serves all n.
            let burst = OpenLoopOptions {
                pool: workers,
                queue_depth: depth,
                shed: false,
                recording: true,
                seed,
            };
            let (_, probe) = serve_open_loop_with(&work, 1e9, &burst);
            probe
                .bundle
                .trace
                .ensure_balanced()
                .expect("saturation probe produced an unbalanced trace");
            assert_eq!(probe.shed, 0, "backpressure admission never sheds");
            // Measured-phase count (ServeResult::requests also counts
            // the sequential setup phase).
            let peak_sustained = n as f64 / probe.wall.as_secs_f64().max(1e-9);

            // Sweep offered rates around the measured capacity with a
            // shedding front-end; stop one point past the p99 knee.
            let shed_opts = OpenLoopOptions {
                shed: true,
                ..burst
            };
            let mut points = Vec::new();
            let mut knee_rate = None;
            let mut unloaded_p99 = None;
            for mult in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0] {
                let rate = (peak_sustained * mult).max(1.0);
                let (_latencies, served) = serve_open_loop_with(&work, rate, &shed_opts);
                // Percentiles come from the log2 latency histogram the
                // front-end merged per run (the telemetry layer's
                // representation) instead of re-sorting the raw vector;
                // knee detection compares estimates against estimates,
                // so the bucket granularity cancels out of the ratio.
                let p99 = served
                    .latency
                    .quantile_est(99.0)
                    .map_or(0.0, |us| us / 1000.0);
                let handled = n as u64 - served.shed;
                let point = SaturationPoint {
                    offered_rate: rate,
                    throughput: handled as f64 / served.wall.as_secs_f64().max(1e-9),
                    p50_ms: served
                        .latency
                        .quantile_est(50.0)
                        .map_or(0.0, |us| us / 1000.0),
                    p99_ms: p99,
                    shed: served.shed,
                    requests: handled,
                };
                let base = *unloaded_p99.get_or_insert(p99.max(1e-3));
                let at_knee = point.shed > 0 || p99 > base * 10.0;
                let past_knee = knee_rate.is_some();
                if at_knee && knee_rate.is_none() {
                    knee_rate = Some(rate);
                }
                points.push(point);
                if past_knee {
                    break;
                }
            }
            let knee_rate = knee_rate
                .or_else(|| points.last().map(|p| p.offered_rate))
                .unwrap_or(0.0);
            // Surface the knee in the registry so downstream consumers
            // (exports, the obs snapshot) see it beside the shed
            // counters the front-end already published.
            orochi_obs::registry::gauge_owned(&format!(
                "saturation_knee_rate_{}_w{workers}",
                work.app.name
            ))
            .set(knee_rate.round() as i64);
            rows.push(SaturationRow {
                app: work.app.name,
                workers,
                queue_depth: depth,
                peak_sustained,
                knee_rate,
                points,
            });
        }
    }
    rows
}

/// Renders the saturation rows.
pub fn print_saturation(rows: &[SaturationRow]) {
    println!(
        "{:<10} {:>7} {:>6} {:>10} {:>10}",
        "app", "workers", "queue", "peak", "knee"
    );
    for r in rows {
        println!(
            "{:<10} {:>7} {:>6} {:>8.1}/s {:>8.1}/s",
            r.app, r.workers, r.queue_depth, r.peak_sustained, r.knee_rate
        );
        for p in &r.points {
            println!(
                "  rate {:>8.1}/s -> {:>8.1}/s  p50 {:>7.2}ms  p99 {:>7.2}ms  shed {}",
                p.offered_rate, p.throughput, p.p50_ms, p.p99_ms, p.shed
            );
        }
    }
}

/// One bar of the Fig. 9 decomposition.
#[derive(Debug)]
pub struct Fig9Row {
    /// Application name.
    pub app: &'static str,
    /// "ProcOpRep": Figs. 5/6 processing.
    pub proc_op_rep: Duration,
    /// The slice of "ProcOpRep" spent in the streamed two-pass CSR
    /// graph build (the graph-layer cost the `timeprec` ablation
    /// isolates).
    pub graph_build: Duration,
    /// Nodes in the audit graph (`2X + Y`).
    pub graph_nodes: usize,
    /// Edges in the audit graph.
    pub graph_edges: usize,
    /// "DB redo": versioned store construction.
    pub db_redo: Duration,
    /// "DB query": simulated reads during re-execution.
    pub db_query: Duration,
    /// "PHP": SIMD-on-demand + simulate-and-check execution.
    pub php: Duration,
    /// "Other": balance check, output comparison, initialization.
    pub other: Duration,
    /// Baseline (simple re-execution) total for the same bundle.
    pub baseline_total: Duration,
    /// VM dispatches the trace represents: Σ over groups of
    /// `n_c × ℓ_c` (what scalar re-execution would run).
    pub vm_dispatch_total: u64,
    /// VM dispatches actually executed after deduplication: univalent
    /// instructions once per group, multivalent ones per lane.
    pub vm_dispatch_executed: u64,
    /// Control-flow groups re-executed.
    pub groups: usize,
    /// SELECTs actually issued to the versioned store (dedup misses).
    pub db_queries_issued: u64,
    /// SELECTs answered from the dedup cache.
    pub db_queries_deduped: u64,
    /// SELECT results turned into PHP arrays during the audit
    /// (`accphp_result_conversions`): at most one per distinct result
    /// per group, so `<= db_queries_issued × groups`; a conversion per
    /// lane would put it near the query count instead.
    pub result_conversions: u64,
    /// Lanes of multivalent pure operations answered from another lane
    /// of the same instruction / computed (`accphp_lane_memo_*`).
    pub lane_memo_hits: u64,
    /// See `lane_memo_hits`.
    pub lane_memo_misses: u64,
}

/// The registry counters the grouped audit's sharing shows up in.
const SHARING_COUNTERS: [&str; 3] = [
    "accphp_result_conversions",
    "accphp_lane_memo_hits",
    "accphp_lane_memo_misses",
];

fn sharing_counters() -> [u64; 3] {
    SHARING_COUNTERS.map(|name| orochi_obs::registry::counter(name).get())
}

impl Fig9Row {
    /// The Fig. 10 dedup ratio: represented over executed dispatches
    /// (≥ 1; higher means grouping saved more work).
    pub fn dispatch_dedup(&self) -> f64 {
        self.vm_dispatch_total as f64 / (self.vm_dispatch_executed as f64).max(1.0)
    }
}

/// Experiment E3: audit-time CPU decomposition (Fig. 9).
pub fn fig9_decomposition(scale: f64, seed: u64) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for work in paper_workloads(scale, seed) {
        let name = work.app.name;
        let served = serve(&work, &ServeOptions::default());
        let before = sharing_counters();
        let orochi = run_audit(&served.bundle, &work, true, true)
            .unwrap_or_else(|r| panic!("{name}: audit rejected: {r}"));
        let [result_conversions, lane_memo_hits, lane_memo_misses] = {
            let after = sharing_counters();
            [0, 1, 2].map(|i| after[i] - before[i])
        };
        let simple = run_audit(&served.bundle, &work, false, false)
            .unwrap_or_else(|r| panic!("{name}: baseline audit rejected: {r}"));
        let stats = &orochi.outcome.stats;
        let phases = &stats.phases;
        rows.push(Fig9Row {
            app: name,
            proc_op_rep: phases.get("ProcOpRep"),
            graph_build: stats.graph_build,
            graph_nodes: stats.graph_nodes,
            graph_edges: stats.graph_edges,
            db_redo: phases.get("DB redo"),
            db_query: phases.get("DB query"),
            php: phases.get("ReExec"),
            other: phases.get("Balance") + phases.get("Output"),
            baseline_total: simple.wall,
            vm_dispatch_total: stats.vm_dispatch_total,
            vm_dispatch_executed: stats.vm_dispatch_executed,
            groups: stats.groups_executed,
            db_queries_issued: stats.db_queries_issued,
            db_queries_deduped: stats.db_queries_deduped,
            result_conversions,
            lane_memo_hits,
            lane_memo_misses,
        });
    }
    rows
}

/// Renders Fig. 9 (the "graph" column is the CSR-build slice of
/// "ProcOpRep", with the graph's node/edge counts alongside).
pub fn print_fig9(rows: &[Fig9Row]) {
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>18}",
        "app",
        "ProcOpRep",
        "graph",
        "DB redo",
        "DB query",
        "PHP",
        "Other",
        "baseline",
        "graph nodes/edges"
    );
    for r in rows {
        println!(
            "{:<10} {:>9.2}s {:>8.2}ms {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s {:>11.2}s {:>8}/{}",
            r.app,
            r.proc_op_rep.as_secs_f64(),
            r.graph_build.as_secs_f64() * 1000.0,
            r.db_redo.as_secs_f64(),
            r.db_query.as_secs_f64(),
            r.php.as_secs_f64(),
            r.other.as_secs_f64(),
            r.baseline_total.as_secs_f64(),
            r.graph_nodes,
            r.graph_edges,
        );
    }
    for r in rows {
        println!(
            "{:<10} vm dispatches: {} represented, {} executed ({:.2}x dedup)",
            r.app,
            r.vm_dispatch_total,
            r.vm_dispatch_executed,
            r.dispatch_dedup(),
        );
    }
    for r in rows {
        println!(
            "{:<10} sharing: {} result conversions for {} issued + {} deduped queries in {} \
             groups; lane memo {} hits / {} misses",
            r.app,
            r.result_conversions,
            r.db_queries_issued,
            r.db_queries_deduped,
            r.groups,
            r.lane_memo_hits,
            r.lane_memo_misses,
        );
    }
}

/// One row of the parallel-audit speedup experiment: the same bundle
/// audited sequentially and across a worker pool.
#[derive(Debug)]
pub struct ParallelRow {
    /// Application name.
    pub app: &'static str,
    /// Requests in the audited window.
    pub requests: u64,
    /// Worker threads used by the parallel arm.
    pub threads: usize,
    /// Sequential audit wall time.
    pub seq_wall: Duration,
    /// Parallel audit wall time.
    pub par_wall: Duration,
}

impl ParallelRow {
    /// Sequential / parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.seq_wall.as_secs_f64() / self.par_wall.as_secs_f64().max(1e-9)
    }
}

/// Experiment E8: audit wall time, sequential vs `threads`-worker
/// parallel, per paper workload. Both arms must accept and agree on
/// every determinism-relevant counter — a scheduling bug shows up here
/// before it shows up in CI numbers. Each arm is the min of two runs
/// (the same noise suppression the Fig. 8 serve arms use): CI-scale
/// audits finish in tens of milliseconds, where one scheduler hiccup on
/// a shared runner would otherwise swamp the ratio the CI job guards.
pub fn parallel_speedup(scale: f64, seed: u64, threads: usize) -> Vec<ParallelRow> {
    let mut rows = Vec::new();
    for work in paper_workloads(scale, seed) {
        let name = work.app.name;
        let served = serve(&work, &ServeOptions::default());
        let min_of_two = |opts: &AuditOptions, arm: &str| {
            let a = run_audit_with(&served.bundle, &work, opts)
                .unwrap_or_else(|r| panic!("{name}: {arm} audit rejected: {r}"));
            let b = run_audit_with(&served.bundle, &work, opts)
                .unwrap_or_else(|r| panic!("{name}: {arm} audit rejected: {r}"));
            if a.wall <= b.wall {
                a
            } else {
                b
            }
        };
        let seq = min_of_two(&AuditOptions::default(), "sequential");
        let par = min_of_two(
            &AuditOptions {
                threads,
                ..Default::default()
            },
            "parallel",
        );
        let (s, p) = (&seq.outcome.stats, &par.outcome.stats);
        assert_eq!(
            (
                s.requests_reexecuted,
                s.register_ops,
                s.kv_ops,
                s.db_txns,
                s.db_queries
            ),
            (
                p.requests_reexecuted,
                p.register_ops,
                p.kv_ops,
                p.db_txns,
                p.db_queries
            ),
            "{name}: parallel audit drifted from the sequential counters"
        );
        rows.push(ParallelRow {
            app: name,
            requests: served.requests,
            threads,
            seq_wall: seq.wall,
            par_wall: par.wall,
        });
    }
    rows
}

/// Renders the parallel speedup rows.
pub fn print_parallel(rows: &[ParallelRow]) {
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "app", "requests", "threads", "seq", "par", "speedup"
    );
    for r in rows {
        println!(
            "{:<10} {:>8} {:>8} {:>9.3}s {:>9.3}s {:>7.2}x",
            r.app,
            r.requests,
            r.threads,
            r.seq_wall.as_secs_f64(),
            r.par_wall.as_secs_f64(),
            r.speedup(),
        );
    }
}

/// Fig. 11 summary for the wiki workload.
#[derive(Debug)]
pub struct Fig11Summary {
    /// Total control-flow groups re-executed (grouped + scalar).
    pub total_groups: usize,
    /// Groups with more than one request.
    pub groups_gt1: usize,
    /// Distinct request URLs in the trace.
    pub unique_urls: usize,
    /// Per-group `(n, α, ℓ)` triples (grouped executions).
    pub triples: Vec<(usize, f64, u64)>,
}

/// Experiment E5: control-flow group characteristics (Fig. 11).
/// `threads` selects the audit worker pool (1 = sequential); the
/// triples are scheduling-independent either way.
pub fn fig11_groups(scale: f64, seed: u64, threads: usize) -> Fig11Summary {
    let work = AppWorkload {
        app: orochi_apps::wiki::app(),
        workload: wiki::generate(&wiki::Params::scaled(scale), seed),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let run = run_audit_with(
        &served.bundle,
        &work,
        &AuditOptions {
            threads: threads.max(1),
            ..Default::default()
        },
    )
    .unwrap_or_else(|r| panic!("fig11 audit rejected: {r}"));
    let mut urls = HashSet::new();
    for event in &served.bundle.trace.events {
        if let Event::Request(_, req) = event {
            urls.insert(req.url());
        }
    }
    let grouped = run.exec_stats.group_stats.len();
    // Scalar-executed requests are singleton groups by definition.
    let singleton = run.exec_stats.scalar_requests;
    let triples: Vec<(usize, f64, u64)> = run
        .exec_stats
        .group_stats
        .iter()
        .map(|g| (g.n, g.alpha(), g.len()))
        .collect();
    Fig11Summary {
        total_groups: grouped + singleton,
        groups_gt1: triples.iter().filter(|(n, _, _)| *n > 1).count(),
        unique_urls: urls.len(),
        triples,
    }
}

/// Renders the Fig. 11 summary.
pub fn print_fig11(s: &Fig11Summary) {
    println!(
        "groups={} groups(n>1)={} unique_urls={}",
        s.total_groups, s.groups_gt1, s.unique_urls
    );
    let min_alpha = s
        .triples
        .iter()
        .map(|(_, a, _)| *a)
        .fold(f64::INFINITY, f64::min);
    println!("min alpha over grouped executions: {min_alpha:.4}");
    println!("{:>6} {:>8} {:>10}", "n", "alpha", "len");
    let mut sorted = s.triples.clone();
    // Sort on the full triple: the collection order of the triples is
    // scheduling-dependent under a parallel audit, so ties on `n` must
    // not decide the printed order.
    sorted.sort_by(|a, b| b.0.cmp(&a.0).then(b.2.cmp(&a.2)).then(b.1.total_cmp(&a.1)));
    for (n, alpha, len) in sorted.iter().take(20) {
        println!("{n:>6} {alpha:>8.4} {len:>10}");
    }
}

/// One arm of the §5.2 sources-of-acceleration ablation.
#[derive(Debug)]
pub struct AblationArm {
    /// Arm label.
    pub label: &'static str,
    /// Audit wall time.
    pub wall: Duration,
    /// SELECTs answered from the dedup cache.
    pub deduped: u64,
    /// SELECTs actually issued.
    pub issued: u64,
    /// VM dispatches the trace represents (Σ `n_c × ℓ_c`).
    pub vm_dispatch_total: u64,
    /// VM dispatches executed after grouping collapsed the univalent
    /// share.
    pub vm_dispatch_executed: u64,
}

/// Experiment E7: {SIMD on/off} × {query dedup on/off} on the wiki
/// workload, plus the stack-engine baseline of the best arm (the
/// engine axis: same grouping, different bytecode ISA — note ℓ_c
/// differs between ISAs, so dispatch counts are comparable within an
/// engine, not across).
pub fn ablation(scale: f64, seed: u64) -> Vec<AblationArm> {
    let work = AppWorkload {
        app: orochi_apps::wiki::app(),
        workload: wiki::generate(&wiki::Params::scaled(scale), seed),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let arms = [
        ("grouped+dedup", true, true, VmEngine::Register),
        ("grouped", true, false, VmEngine::Register),
        ("scalar+dedup", false, true, VmEngine::Register),
        ("scalar", false, false, VmEngine::Register),
        ("grouped+dedup/stack", true, true, VmEngine::Stack),
    ];
    arms.iter()
        .map(|(label, grouped, dedup, engine)| {
            let opts = AuditOptions {
                grouped: *grouped,
                dedup: *dedup,
                threads: 1,
                engine: *engine,
            };
            let run = run_audit_with(&served.bundle, &work, &opts)
                .unwrap_or_else(|r| panic!("{label}: audit rejected: {r}"));
            AblationArm {
                label,
                wall: run.wall,
                deduped: run.outcome.stats.db_queries_deduped,
                issued: run.outcome.stats.db_queries_issued,
                vm_dispatch_total: run.outcome.stats.vm_dispatch_total,
                vm_dispatch_executed: run.outcome.stats.vm_dispatch_executed,
            }
        })
        .collect()
}

/// One tampering variant's outcome in the shop experiment.
#[derive(Debug)]
pub struct ShopTamperRow {
    /// Variant label (`forged_cart_total`, `stale_inventory_read`,
    /// `replayed_kv_write`).
    pub variant: &'static str,
    /// Rejected by both the sequential and the pooled audit.
    pub rejected: bool,
    /// The rejection diagnostic (identical at both thread counts).
    pub diagnostic: String,
    /// Wall time of the (rejecting) pooled audit.
    pub wall: Duration,
}

/// The shop experiment's results: honest audit walls, the
/// register/KV-path share, report-assembly timings, and one row per
/// tampering variant.
#[derive(Debug)]
pub struct ShopReport {
    /// Requests in the audited window.
    pub requests: u64,
    /// Operations recorded in register or KV sub-logs / all operations.
    pub reg_kv_share: f64,
    /// Worker threads for the pooled arms.
    pub threads: usize,
    /// Honest sequential audit wall time.
    pub honest_seq_wall: Duration,
    /// Honest pooled audit wall time.
    pub honest_par_wall: Duration,
    /// Report assembly (sub-log stitch), sequential.
    pub assembly_seq: Duration,
    /// Report assembly sharded by object across `threads` workers.
    pub assembly_par: Duration,
    /// Tampering variants, every one rejected identically at 1 and
    /// `threads` workers.
    pub tampers: Vec<ShopTamperRow>,
}

impl ShopReport {
    /// Sequential / pooled honest-audit wall ratio.
    pub fn audit_speedup(&self) -> f64 {
        self.honest_seq_wall.as_secs_f64() / self.honest_par_wall.as_secs_f64().max(1e-9)
    }

    /// Sequential / sharded report-assembly wall ratio.
    pub fn assembly_speedup(&self) -> f64 {
        self.assembly_seq.as_secs_f64() / self.assembly_par.as_secs_f64().max(1e-9)
    }
}

/// Applies one named tampering variant to a served shop bundle.
fn apply_shop_tamper(bundle: &mut AuditBundle, variant: &str) -> bool {
    match variant {
        "forged_cart_total" => tamper::forge_cart_total(&mut bundle.trace),
        "stale_inventory_read" => tamper::reorder_kv_read(&mut bundle.reports, "inv:"),
        "replayed_kv_write" => tamper::replay_kv_write(&mut bundle.reports, "inv:"),
        other => panic!("unknown shop tamper {other:?}"),
    }
}

/// Experiment E9: the shop workload end-to-end — honest audit
/// (sequential and pooled, min-of-two like E8), the register/KV-path
/// share the workload exists to provide, the sequential-vs-sharded
/// report assembly comparison, and one rejected audit per tampering
/// variant with the sequential and pooled diagnostics required to
/// agree.
///
/// # Panics
///
/// Panics if the honest audit rejects, a tampering variant finds no
/// site to tamper with, a variant is *accepted*, or the sequential and
/// pooled audits disagree — all of which mean the system (or the
/// workload) broke.
pub fn shop_experiment(scale: f64, seed: u64, threads: usize) -> ShopReport {
    let work = shop_workload(scale, seed);
    let (server, _wall) = serve_drained(&work, &ServeOptions::default());
    let requests = server.requests_handled();
    // Report assembly: min-of-3 alternating arms on the drained
    // recorder, then consume the server through the sharded stitch.
    let recorder = server.recorder();
    let time_stitch = |n: usize| {
        let t0 = Instant::now();
        let logs = recorder.stitch_with(n);
        let elapsed = t0.elapsed();
        (logs, elapsed)
    };
    // Each arm is a batch of stitches (min over 3 alternating batches):
    // a single CI-scale stitch is sub-millisecond, where timer and
    // scheduler noise would swamp the ratio the CI job guards.
    let batch = 8;
    let mut assembly_seq = Duration::MAX;
    let mut assembly_par = Duration::MAX;
    for _ in 0..3 {
        let mut seq_t = Duration::ZERO;
        let mut par_t = Duration::ZERO;
        for _ in 0..batch {
            let (seq_logs, t) = time_stitch(1);
            seq_t += t;
            let (par_logs, t) = time_stitch(threads);
            par_t += t;
            assert_eq!(
                seq_logs, par_logs,
                "sharded report assembly diverged from sequential"
            );
        }
        assembly_seq = assembly_seq.min(seq_t / batch);
        assembly_par = assembly_par.min(par_t / batch);
    }
    let bundle = server.into_bundle_with(threads);

    let mut reg_kv = 0usize;
    let mut total_ops = 0usize;
    for (_, name, log) in bundle.reports.op_logs.iter() {
        total_ops += log.len();
        if name.as_str().starts_with("reg:") || name.as_str().starts_with("kv:") {
            reg_kv += log.len();
        }
    }

    let audit_at = |bundle: &AuditBundle, threads: usize| {
        run_audit_with(
            bundle,
            &work,
            &AuditOptions {
                threads,
                ..Default::default()
            },
        )
    };
    let min_of_two = |threads: usize, arm: &str| {
        let a = audit_at(&bundle, threads)
            .unwrap_or_else(|r| panic!("shop: honest {arm} audit rejected: {r}"));
        let b = audit_at(&bundle, threads)
            .unwrap_or_else(|r| panic!("shop: honest {arm} audit rejected: {r}"));
        if a.wall <= b.wall {
            a
        } else {
            b
        }
    };
    let seq = min_of_two(1, "sequential");
    let par = min_of_two(threads, "pooled");
    let (s, p) = (&seq.outcome.stats, &par.outcome.stats);
    assert_eq!(
        (s.requests_reexecuted, s.register_ops, s.kv_ops, s.db_txns),
        (p.requests_reexecuted, p.register_ops, p.kv_ops, p.db_txns),
        "shop: pooled audit drifted from the sequential counters"
    );

    let mut tampers = Vec::new();
    for variant in [
        "forged_cart_total",
        "stale_inventory_read",
        "replayed_kv_write",
    ] {
        // Each variant tampers a fresh serve (of the same workload the
        // verifier holds) so mutations don't stack.
        let mut served = serve(&work, &ServeOptions::default());
        assert!(
            apply_shop_tamper(&mut served.bundle, variant),
            "shop workload offers no site for {variant} — grow the workload"
        );
        let seq_verdict = audit_at(&served.bundle, 1);
        let t0 = Instant::now();
        let par_verdict = audit_at(&served.bundle, threads);
        let wall = t0.elapsed();
        let (seq_err, par_err) = match (seq_verdict, par_verdict) {
            (Err(s), Err(p)) => (s, p),
            (s, p) => panic!(
                "shop: {variant} must be rejected at both thread counts, got {:?} / {:?}",
                s.map(|_| "accept").map_err(|e| e.to_string()),
                p.map(|_| "accept").map_err(|e| e.to_string()),
            ),
        };
        assert_eq!(
            seq_err.to_string(),
            par_err.to_string(),
            "shop: {variant} diagnostics diverged between thread counts"
        );
        tampers.push(ShopTamperRow {
            variant,
            rejected: true,
            diagnostic: seq_err.to_string(),
            wall,
        });
    }

    ShopReport {
        requests,
        reg_kv_share: if total_ops == 0 {
            0.0
        } else {
            reg_kv as f64 / total_ops as f64
        },
        threads,
        honest_seq_wall: seq.wall,
        honest_par_wall: par.wall,
        assembly_seq,
        assembly_par,
        tampers,
    }
}

/// Renders the shop experiment report.
pub fn print_shop(r: &ShopReport) {
    println!(
        "requests={} reg/kv share={:.1}% threads={}",
        r.requests,
        r.reg_kv_share * 100.0,
        r.threads
    );
    println!(
        "honest audit: seq {:.3}s, pooled {:.3}s ({:.2}x)",
        r.honest_seq_wall.as_secs_f64(),
        r.honest_par_wall.as_secs_f64(),
        r.audit_speedup(),
    );
    println!(
        "report assembly: seq {:.2}ms, sharded {:.2}ms ({:.2}x)",
        r.assembly_seq.as_secs_f64() * 1000.0,
        r.assembly_par.as_secs_f64() * 1000.0,
        r.assembly_speedup(),
    );
    for t in &r.tampers {
        println!(
            "tamper {:<22} rejected={} in {:.3}s: {}",
            t.variant,
            t.rejected,
            t.wall.as_secs_f64(),
            t.diagnostic
        );
    }
}

/// One arm of the streaming-equivalence experiment.
#[derive(Debug)]
pub struct StreamingRow {
    /// Variant label (`honest` or a shop tamper name).
    pub variant: &'static str,
    /// Whether every arm accepted.
    pub accepted: bool,
    /// The shared diagnostic (`accept` or the identical rejection).
    pub diagnostic: String,
    /// Batch (cold, pooled) audit wall time.
    pub batch_wall: Duration,
    /// Streaming (pooled) audit wall time.
    pub streaming_wall: Duration,
}

/// Experiment E11: streaming-epoch audit equivalence. Serves the shop
/// workload honestly and under every tampering variant, spills each
/// bundle to a segmented store, and audits it three ways — batch cold
/// (pooled), streaming sequential, streaming pooled at `epoch_events`
/// per epoch. Verdicts and diagnostics must be byte-identical across
/// all three arms, and the accepting arms must agree on every
/// determinism-relevant counter.
///
/// # Panics
///
/// Panics if any arm disagrees with the others, a tamper variant finds
/// no site, or a tampered run is accepted.
pub fn streaming_equivalence(
    scale: f64,
    seed: u64,
    threads: usize,
    epoch_events: usize,
) -> Vec<StreamingRow> {
    let work = shop_workload(scale, seed);
    let seq_opts = AuditOptions {
        threads: 1,
        ..Default::default()
    };
    let par_opts = AuditOptions {
        threads: threads.max(1),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for variant in [
        "honest",
        "forged_cart_total",
        "stale_inventory_read",
        "replayed_kv_write",
    ] {
        let mut served = serve(&work, &ServeOptions::default());
        if variant != "honest" {
            assert!(
                apply_shop_tamper(&mut served.bundle, variant),
                "shop workload offers no site for {variant} — grow the workload"
            );
        }
        let dir = std::env::temp_dir().join(format!(
            "orochi-streamdiff-{variant}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        spill_bundle(&served.bundle, &dir, 64 * 1024).expect("spill for streaming equivalence");
        drop(served);
        let reader = TraceStoreReader::open(&dir).expect("reopen spilled store");
        let t0 = Instant::now();
        let batch = run_audit_cold(&reader, &work, &par_opts);
        let batch_wall = t0.elapsed();
        let stream_seq = run_audit_streaming(&reader, &work, &seq_opts, epoch_events);
        let t0 = Instant::now();
        let stream_par = run_audit_streaming(&reader, &work, &par_opts, epoch_events);
        let streaming_wall = t0.elapsed();
        let row = match (batch, stream_seq, stream_par) {
            (Ok(b), Ok(s1), Ok(sp)) => {
                assert_eq!(
                    variant, "honest",
                    "tampered {variant} run accepted by every arm"
                );
                for (arm, s) in [("sequential", &s1), ("pooled", &sp)] {
                    assert_eq!(
                        (
                            b.outcome.stats.requests_reexecuted,
                            b.outcome.stats.groups_executed,
                            b.outcome.stats.register_ops,
                            b.outcome.stats.kv_ops,
                            b.outcome.stats.db_txns,
                            b.outcome.stats.db_queries,
                        ),
                        (
                            s.outcome.stats.requests_reexecuted,
                            s.outcome.stats.groups_executed,
                            s.outcome.stats.register_ops,
                            s.outcome.stats.kv_ops,
                            s.outcome.stats.db_txns,
                            s.outcome.stats.db_queries,
                        ),
                        "streaming {arm} audit drifted from the batch counters"
                    );
                }
                StreamingRow {
                    variant,
                    accepted: true,
                    diagnostic: "accept".to_string(),
                    batch_wall,
                    streaming_wall,
                }
            }
            (Err(b), Err(s1), Err(sp)) => {
                let (b, s1, sp) = (b.to_string(), s1.to_string(), sp.to_string());
                assert_eq!(b, s1, "{variant}: streaming sequential diagnostic diverged");
                assert_eq!(b, sp, "{variant}: streaming pooled diagnostic diverged");
                StreamingRow {
                    variant,
                    accepted: false,
                    diagnostic: b,
                    batch_wall,
                    streaming_wall,
                }
            }
            (b, s1, sp) => panic!(
                "{variant}: arms disagree on the verdict: batch {:?}, streaming-seq {:?}, \
                 streaming-par {:?}",
                b.map(|_| "accept").map_err(|e| e.to_string()),
                s1.map(|_| "accept").map_err(|e| e.to_string()),
                sp.map(|_| "accept").map_err(|e| e.to_string()),
            ),
        };
        rows.push(row);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Renders the streaming-equivalence rows.
pub fn print_streaming(rows: &[StreamingRow]) {
    for r in rows {
        println!(
            "{:<22} accepted={} batch {:.3}s streaming {:.3}s: {}",
            r.variant,
            r.accepted,
            r.batch_wall.as_secs_f64(),
            r.streaming_wall.as_secs_f64(),
            r.diagnostic
        );
    }
}

/// Builds the mixed four-app workload at `scale`: all tenants behind
/// one front-end (`orochi_apps::mixed`), requests interleaved by
/// `orochi_workload::mixed`. The shared skew knob applies to every
/// tenant.
pub fn mixed_workload(scale: f64, seed: u64) -> AppWorkload {
    let params = mixed::Params::scaled(scale).with_skew(&skew::from_env());
    AppWorkload {
        app: orochi_apps::mixed::app(),
        workload: mixed::generate(&params, seed),
        seed_sql: mixed::seed_sql(&params),
    }
}

/// A mutant the campaign could not catch — or caught with diverging
/// diagnostics. Everything needed to replay it is here verbatim.
#[derive(Debug, Clone)]
pub struct CampaignSurvivor {
    /// The plan seed that produced the mutant.
    pub seed: u64,
    /// The sites the plan mutated.
    pub sites: Vec<MutationSite>,
    /// Verdict of the sequential batch audit (`accept` or the
    /// rejection diagnostic).
    pub batch_seq: String,
    /// Verdict of the pooled batch audit.
    pub batch_par: String,
    /// Verdict of the pooled streaming audit.
    pub streaming: String,
}

/// The adversarial campaign's results.
#[derive(Debug)]
pub struct CampaignReport {
    /// Requests in the honest audited window.
    pub requests: u64,
    /// Mutated runs attempted.
    pub campaigns: usize,
    /// Individual mutation sites applied across all runs.
    pub sites: usize,
    /// Mutated runs rejected with byte-identical diagnostics on every
    /// arm.
    pub caught: usize,
    /// Per-operator application counts (deterministic order).
    pub operators: BTreeMap<&'static str, usize>,
    /// Mutants that escaped or produced diverging diagnostics.
    pub survivors: Vec<CampaignSurvivor>,
    /// The honest control accepted on every arm (batch cold 1/N and
    /// streaming, through the trace store).
    pub honest_ok: bool,
    /// Worker threads for the pooled arms.
    pub threads: usize,
    /// Wall time of the mutate-and-audit loop. The loop is CPU-bound
    /// in one process, so this is the report's CPU-second proxy for
    /// the mutations-caught-per-CPU-second figure.
    pub fuzz_wall: Duration,
}

impl CampaignReport {
    /// Caught mutants / attempted mutants.
    pub fn catch_rate(&self) -> f64 {
        if self.campaigns == 0 {
            return 1.0;
        }
        self.caught as f64 / self.campaigns as f64
    }

    /// Mutations caught per CPU-second of fuzzing (wall proxy).
    pub fn caught_per_cpu_s(&self) -> f64 {
        self.caught as f64 / self.fuzz_wall.as_secs_f64().max(1e-9)
    }
}

/// The verdict of one audit arm as a comparable string.
fn campaign_verdict<T>(run: &Result<T, orochi_core::Rejection>) -> String {
    match run {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject:{r}"),
    }
}

/// Experiment E12: the adversarial campaign. Serves the mixed four-app
/// workload once, spills it to a segmented trace store, and verifies
/// the honest control accepts through every path (batch cold at 1 and
/// `threads` workers, streaming at `threads`). Then, for `campaigns`
/// seeded runs, clones the honest trace+reports, applies a
/// [`MutationPlan`] of `k` operators on distinct objects (`k == 0`
/// cycles 1..=3), and audits the mutant three ways — batch sequential,
/// batch pooled, streaming pooled at `epoch_events` per epoch. A
/// mutant counts as *caught* only if all three arms reject with
/// byte-identical diagnostics; anything else lands in `survivors`
/// verbatim (seed, operator, site) so an escape is a reproducible
/// one-liner. The experiment records, it does not panic: the CI guard
/// on the `campaign` bench row enforces `catch_rate == 1.0`.
///
/// # Panics
///
/// Panics only on harness misuse: a plan that finds no site to mutate
/// (the workload is too small) or an honest serve that cannot spill.
pub fn campaign(
    scale: f64,
    seed: u64,
    campaigns: usize,
    k: usize,
    threads: usize,
    epoch_events: usize,
) -> CampaignReport {
    let work = mixed_workload(scale, seed);
    let threads = threads.max(1);
    let served = serve(&work, &ServeOptions::default());
    let requests = served.requests;
    let honest_trace = served.bundle.trace.clone();
    let honest_reports = served.bundle.reports.clone();

    // Honest control through the trace store: spill once, audit batch
    // cold at both thread counts and streaming; all must accept and
    // agree on the re-execution counters.
    let dir = std::env::temp_dir().join(format!("orochi-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    spill_bundle(&served.bundle, &dir, 64 * 1024).expect("spill campaign control");
    drop(served);
    let reader = TraceStoreReader::open(&dir).expect("reopen campaign store");
    let seq_opts = AuditOptions {
        threads: 1,
        ..Default::default()
    };
    let par_opts = AuditOptions {
        threads,
        ..Default::default()
    };
    let control = [
        run_audit_cold(&reader, &work, &seq_opts),
        run_audit_cold(&reader, &work, &par_opts),
        run_audit_streaming(&reader, &work, &par_opts, epoch_events),
    ];
    let honest_ok = control.iter().all(|r| r.is_ok())
        && control
            .iter()
            .flatten()
            .map(|r| r.outcome.stats.requests_reexecuted)
            .collect::<HashSet<_>>()
            .len()
            == 1;
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);

    // The mutation loop shares one compiled script table; executors
    // are rebuilt per arm (they carry per-audit caches and stats).
    let scripts = work.app.compile().expect("application compiles");
    let engine = vm_engine_from_env();
    let executors = |n: usize| -> Vec<AccPhpExecutor> {
        (0..n)
            .map(|_| {
                let mut e = AccPhpExecutor::new(scripts.clone());
                e.engine = engine;
                e
            })
            .collect()
    };
    let mut config = work.audit_config();
    config.query_dedup = true;

    let mut caught = 0usize;
    let mut sites_applied = 0usize;
    let mut operators: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut survivors = Vec::new();
    let t0 = Instant::now();
    for c in 0..campaigns {
        let plan_seed = seed
            .wrapping_add(c as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan_k = if k == 0 { 1 + c % 3 } else { k };
        let mut trace = honest_trace.clone();
        let mut reports = honest_reports.clone();
        let plan = MutationPlan {
            seed: plan_seed,
            k: plan_k,
        };
        let sites = plan.apply(&mut trace, &mut reports);
        assert!(
            !sites.is_empty(),
            "campaign {c}: no mutable site at scale {scale} — grow the workload"
        );
        sites_applied += sites.len();
        for s in &sites {
            *operators.entry(s.operator).or_insert(0) += 1;
        }
        let batch_seq = campaign_verdict(&audit(&trace, &reports, &mut executors(1)[0], &config));
        let batch_par = campaign_verdict(&audit_parallel(
            &trace,
            &reports,
            &mut executors(threads),
            &config,
        ));
        let streaming = campaign_verdict(&audit_streaming_source(
            &trace,
            &reports,
            &mut executors(threads),
            &config,
            epoch_events,
        ));
        let rejected = batch_seq.starts_with("reject:");
        if rejected && batch_seq == batch_par && batch_seq == streaming {
            caught += 1;
        } else {
            survivors.push(CampaignSurvivor {
                seed: plan_seed,
                sites,
                batch_seq,
                batch_par,
                streaming,
            });
        }
    }
    let fuzz_wall = t0.elapsed();

    CampaignReport {
        requests,
        campaigns,
        sites: sites_applied,
        caught,
        operators,
        survivors,
        honest_ok,
        threads,
        fuzz_wall,
    }
}

/// Renders the campaign report, any survivor verbatim.
pub fn print_campaign(r: &CampaignReport) {
    println!(
        "campaigns={} sites={} caught={} catch_rate={:.3} honest_ok={} threads={} \
         caught/cpu-s={:.1}",
        r.campaigns,
        r.sites,
        r.caught,
        r.catch_rate(),
        r.honest_ok,
        r.threads,
        r.caught_per_cpu_s()
    );
    let ops: Vec<String> = r
        .operators
        .iter()
        .map(|(name, n)| format!("{name}:{n}"))
        .collect();
    println!("operators [{}]: {}", r.operators.len(), ops.join(" "));
    for s in &r.survivors {
        println!(
            "SURVIVOR seed={:#x} batch_seq={} batch_par={} streaming={}",
            s.seed, s.batch_seq, s.batch_par, s.streaming
        );
        for site in &s.sites {
            println!("  {site}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_rows_have_sane_shapes() {
        let rows = fig8_table(0.01, 7);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.audit_speedup > 0.0,
                "{}: speedup {}",
                r.app,
                r.audit_speedup
            );
            assert!(r.orochi_report_bytes >= r.baseline_report_bytes);
            assert!(r.db_temp_overhead >= 0.99, "{}", r.db_temp_overhead);
            assert!((r.db_permanent_overhead - 1.0).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn fig11_summary_shapes() {
        let s = fig11_groups(0.02, 3, 1);
        assert!(s.total_groups > 0);
        assert!(s.groups_gt1 > 0, "Zipf traffic must produce real groups");
        assert!(s.unique_urls > 0);
        for (n, alpha, len) in &s.triples {
            assert!(*n >= 1);
            assert!((0.0..=1.0).contains(alpha));
            assert!(*len > 0);
        }
    }

    #[test]
    fn parallel_speedup_rows_have_sane_shapes() {
        // parallel_speedup itself asserts the parallel counters match
        // the sequential ones; this exercises it at CI scale.
        let rows = parallel_speedup(0.01, 7, 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.threads, 2);
            assert!(r.seq_wall.as_nanos() > 0);
            assert!(r.par_wall.as_nanos() > 0);
            assert!(r.speedup() > 0.0);
        }
    }

    #[test]
    fn saturation_rows_have_sane_shapes() {
        let rows = saturation(0.01, 7, &[1, 2], 4, 60);
        assert_eq!(rows.len(), 8, "4 apps x 2 worker counts");
        for r in &rows {
            assert!(r.peak_sustained > 0.0, "{}: no capacity measured", r.app);
            assert!(r.knee_rate > 0.0);
            assert!(!r.points.is_empty());
            for p in &r.points {
                assert!(p.offered_rate > 0.0);
                assert!(p.throughput > 0.0);
                assert!(p.requests as usize <= 60);
                assert_eq!(p.requests + p.shed, r.points[0].requests + r.points[0].shed);
            }
        }
    }

    #[test]
    fn serve_thread_resolution() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(crate::driver::resolve_serve_threads(0), hw);
        // Serving workers may oversubscribe (they block on the DB
        // lock), so explicit requests are honored, not clamped.
        assert_eq!(crate::driver::resolve_serve_threads(64), 64);
    }

    #[test]
    fn audit_thread_resolution_clamps() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(crate::driver::resolve_audit_threads(0), hw);
        assert_eq!(crate::driver::resolve_audit_threads(1), 1);
        assert_eq!(crate::driver::resolve_audit_threads(usize::MAX), hw);
    }

    #[test]
    fn streaming_equivalence_rows() {
        let rows = streaming_equivalence(0.01, 7, 2, 16);
        assert_eq!(rows.len(), 4);
        assert!(rows[0].accepted, "honest run must accept");
        for r in &rows[1..] {
            assert!(!r.accepted, "{} must reject", r.variant);
            assert!(!r.diagnostic.is_empty());
        }
    }

    #[test]
    fn campaign_catches_every_mutant_at_test_scale() {
        let r = campaign(0.01, 7, 6, 0, 2, 64);
        assert!(r.honest_ok, "honest mixed control must accept on every arm");
        assert_eq!(r.campaigns, 6);
        assert_eq!(r.caught, 6, "survivors: {:?}", r.survivors);
        assert!(r.sites >= 6, "k cycles 1..=3, so sites >= campaigns");
        assert!(r.survivors.is_empty());
        assert!(!r.operators.is_empty());
        assert!((r.catch_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn mixed_workload_serves_all_tenants() {
        let work = mixed_workload(0.01, 3);
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
    fn ablation_runs_all_arms() {
        let arms = ablation(0.01, 5);
        assert_eq!(arms.len(), 5);
        // Dedup arms must answer some SELECTs from cache.
        assert!(arms[0].deduped > 0);
        // No-dedup arms must not.
        assert_eq!(arms[1].deduped, 0);
        // Grouping must execute fewer dispatches than it represents;
        // the scalar arms run everything.
        assert!(arms[0].vm_dispatch_executed < arms[0].vm_dispatch_total);
        assert_eq!(arms[3].vm_dispatch_executed, arms[3].vm_dispatch_total);
        // The stack baseline groups just as well (its ℓ_c differs, so
        // only the ratio is comparable).
        assert!(arms[4].vm_dispatch_executed < arms[4].vm_dispatch_total);
    }
}
