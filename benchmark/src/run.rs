//! One run of one workload — the parent side. An untraced run reports
//! the end-to-end metrics (three set-ups, then rounds of fresh-process
//! trials with the arms interleaved); a traced run reports the
//! per-layer metrics from one pass with the span recorder on. Both
//! check every verdict: the honest bundle must be accepted on the
//! batch-sequential, batch-parallel and streaming paths with equal
//! counters, and one seeded mutant must be rejected on all three with
//! byte-identical diagnostics.

use crate::json::{self, Json};
use crate::layers;
use crate::metrics::{Decl, Samples, END_TO_END, PER_LAYER};
use crate::span::{self, spans_from_json, Span, Tracer};
use crate::stats::{median, Summary};
use crate::trial::{self, Arm, AUDIT_SPAN, GROUP_SPAN};
use crate::workloads::{epoch_size, pool_width, Spec};
use orochi_core::audit::{audit, audit_parallel};
use orochi_core::streaming::audit_streaming_source;
use orochi_harness::driver::{serve_drained, spill_bundle, AppWorkload, ServeOptions};
use orochi_harness::mutation::MutationPlan;
use orochi_server::server::AuditBundle;
use orochi_trace::{Event, TraceStoreSummary, DEFAULT_SEGMENT_BYTES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds of trials per untraced run: at least `MIN_ROUNDS`, then more
/// until `--seconds` have been measured.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 15;
/// The arms of one round; each round starts one arm further along, so
/// no arm always follows the same neighbour.
const ROUND: [Arm; 3] = [Arm::Audit, Arm::Reexec, Arm::Stream];

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    pub scale_mult: f64,
    /// Directory for scratch stores and `<workload>.trace.json`.
    pub out: PathBuf,
}

/// What one run found.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub summaries: Vec<(&'static Decl, Summary)>,
    /// Requests and trace events of the audited bundle.
    pub requests: u64,
    pub events: u64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Operations attempted and failed so far in a run: requests served
/// plus audits run. A 5xx or unserved request, a wrong verdict, or
/// counters/diagnostics that differ between audit paths each fail.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            eprintln!("FAILED ({n}): {why}");
        }
    }
}

/// A served, bundled and spilled workload.
pub struct Setup {
    pub work: AppWorkload,
    pub bundle: AuditBundle,
    pub store: PathBuf,
    pub summary: TraceStoreSummary,
    pub generate_s: f64,
    pub serve_wall_s: f64,
    pub busy_s: f64,
    pub into_bundle_s: f64,
    pub spill_s: f64,
    /// generate + compile + serve + `into_bundle` + spill.
    pub setup_s: f64,
    /// Requests the server handled, login/seeding phase included.
    pub handled: u64,
}

fn serve_options(spec: &Spec, seed: u64, recording: bool) -> ServeOptions {
    ServeOptions {
        threads: spec.serve_workers(),
        // Unbounded admission queue: the submitter enqueues everything
        // and gets out of the workers' way. A bounded queue wakes it
        // once per request, and on two cores that third thread made
        // `mixed-live` set-ups swing between 1.3 and 1.9 s.
        queue_depth: 0,
        recording,
        seed,
    }
}

pub fn set_up(args: &RunArgs, store: &Path, tracer: &Tracer) -> Setup {
    let spec = args.spec;
    let (setup, setup_s) = tracer.span("setup", || {
        let (work, generate_s) = tracer.span("workload.generate", || {
            spec.generate(args.scale_mult, args.seed)
        });
        let ((server, wall), _) = tracer.span("server.serve", || {
            serve_drained(&work, &serve_options(spec, args.seed, true))
        });
        let busy_s = server.busy().as_secs_f64();
        let handled = server.requests_handled();
        let (bundle, into_bundle_s) = tracer.span("server.into_bundle", || server.into_bundle());
        let _ = std::fs::remove_dir_all(store);
        let (summary, spill_s) = tracer.span("trace.spill", || {
            spill_bundle(&bundle, store, DEFAULT_SEGMENT_BYTES)
                .expect("spill into the scratch store")
        });
        Setup {
            work,
            bundle,
            store: store.to_path_buf(),
            summary,
            generate_s,
            serve_wall_s: wall.as_secs_f64(),
            busy_s,
            into_bundle_s,
            spill_s,
            setup_s: 0.0,
            handled,
        }
    });
    Setup { setup_s, ..setup }
}

impl Setup {
    /// Counts the served requests into `ops`: every generated request
    /// must have been handled, none with a 5xx.
    fn count_requests(&self, ops: &mut Ops) {
        let generated = self.work.workload.len() as u64;
        ops.attempted += generated;
        ops.fail(
            generated.saturating_sub(self.handled),
            "requests shed or never served",
        );
        let five_xx = self
            .bundle
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::Response(_, r) if r.status >= 500))
            .count() as u64;
        ops.fail(five_xx, "responses with a 5xx status");
    }

    fn report_bytes_per_req(&self) -> f64 {
        self.bundle.reports.wire_size() as f64 / self.handled as f64
    }

    fn store_bytes_per_event(&self) -> f64 {
        self.summary.segment_bytes as f64 / self.summary.events as f64
    }
}

/// Spawns one fresh-process trial and returns its result line.
fn spawn_trial(args: &RunArgs, store: &Path, arm: Arm, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("trial")
        .args(["--arm", arm.as_str()])
        .args(["--workload", args.spec.name])
        .args(["--scale-mult", &args.scale_mult.to_string()])
        .arg("--store")
        .arg(store)
        .args(["--threads", &pool_width().to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn trial {}: {e}", arm.as_str()))?;
    if !output.status.success() {
        return Err(format!(
            "trial {} exited with {}",
            arm.as_str(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| format!("trial {} printed no result: {e}", arm.as_str()))
}

/// Judges honest-bundle trials: each must accept, and all must agree
/// on how many requests and groups they re-executed.
#[derive(Default)]
struct HonestControl {
    counters: BTreeSet<(u64, u64)>,
}

impl HonestControl {
    /// Runs one trial, counts it, and returns its result if it accepted.
    fn trial(
        &mut self,
        ops: &mut Ops,
        args: &RunArgs,
        store: &Path,
        arm: Arm,
        traced: bool,
    ) -> Option<Json> {
        ops.attempted += 1;
        let result = match spawn_trial(args, store, arm, traced) {
            Ok(result) => result,
            Err(e) => {
                ops.fail(1, &e);
                return None;
            }
        };
        let verdict = result.get("verdict").and_then(Json::as_str).unwrap_or("");
        if verdict != "accept" {
            ops.fail(
                1,
                &format!("honest bundle, {} arm: {verdict}", arm.as_str()),
            );
            return None;
        }
        if let Some(stats) = result.get("stats") {
            let n = |key| stats.get(key).and_then(Json::as_f64).unwrap_or(-1.0) as u64;
            self.counters
                .insert((n("requests_reexecuted"), n("groups_executed")));
        }
        Some(result)
    }

    fn finish(self, ops: &mut Ops) {
        ops.fail(
            u64::from(self.counters.len() > 1),
            &format!(
                "audit paths disagree on (requests, groups): {:?}",
                self.counters
            ),
        );
    }
}

/// The tampered control: one seeded single-site mutant of the honest
/// bundle, audited in RAM on the three paths. Returns the seconds the
/// sequential batch audit took to reject it.
fn tamper_control(ops: &mut Ops, args: &RunArgs, setup: &Setup) -> f64 {
    let mut trace = setup.bundle.trace.clone();
    let mut reports = setup.bundle.reports.clone();
    let plan = MutationPlan {
        seed: args
            .seed
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        k: 1,
    };
    let sites = plan.apply(&mut trace, &mut reports);
    ops.attempted += 3;
    if sites.is_empty() {
        ops.fail(3, "the mutation plan found no site in this bundle");
        return 0.0;
    }
    let scripts = setup.work.app.compile().expect("application compiles");
    let config = setup.work.audit_config();
    let executors =
        |n: usize| -> Vec<_> { (0..n).map(|_| trial::executor(&scripts, true)).collect() };
    let started = Instant::now();
    let batch_seq = trial::verdict(&audit(&trace, &reports, &mut executors(1)[0], &config));
    let reject_wall_s = started.elapsed().as_secs_f64();
    let batch_par = trial::verdict(&audit_parallel(
        &trace,
        &reports,
        &mut executors(pool_width()),
        &config,
    ));
    let streaming = trial::verdict(&audit_streaming_source(
        &trace,
        &reports,
        &mut executors(1),
        &config,
        epoch_size(trace.len()),
    ));
    for (path, verdict) in [
        ("batch-seq", &batch_seq),
        ("batch-parallel", &batch_par),
        ("streaming", &streaming),
    ] {
        ops.fail(
            u64::from(!verdict.starts_with("reject:")),
            &format!("mutant {:?} accepted on {path}", sites[0]),
        );
    }
    ops.fail(
        u64::from(batch_seq != batch_par || batch_seq != streaming),
        &format!(
            "diagnostics differ for mutant {:?}: {batch_seq:?} / {batch_par:?} / {streaming:?}",
            sites[0]
        ),
    );
    reject_wall_s
}

fn scratch_dir(args: &RunArgs) -> PathBuf {
    args.out
        .join(format!("work-{}-{}", args.spec.name, std::process::id()))
}

/// The spans a traced trial child returned with its result.
fn child_spans(result: &Json) -> Vec<Span> {
    result
        .get("spans")
        .and_then(|s| spans_from_json(s).ok())
        .unwrap_or_default()
}

fn num(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(args: &RunArgs) -> RunReport {
    let scratch = scratch_dir(args);
    let mut samples = Samples::default();
    let mut ops = Ops::default();
    let tracer = Tracer::new();

    // Set-up, several times over: its median is `setup_s`, and the
    // serving and size metrics come from the same passes. The last
    // bundle is the one audited.
    let mut setup = None;
    for i in 0..args.setups.max(1) {
        // Free the previous bundle before serving the next one.
        drop(setup.take());
        let s = set_up(args, &scratch.join(format!("store-{i}")), &tracer);
        s.count_requests(&mut ops);
        samples.push("setup_s", s.setup_s);
        samples.push("report_bytes_per_req", s.report_bytes_per_req());
        samples.push("store_bytes_per_event", s.store_bytes_per_event());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");

    let mut honest = HonestControl::default();
    let measuring = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS
        || (round < MAX_ROUNDS && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        for i in 0..ROUND.len() {
            let arm = ROUND[(round + i) % ROUND.len()];
            let Some(result) = honest.trial(&mut ops, args, &setup.store, arm, false) else {
                continue;
            };
            match arm {
                Arm::Audit => {
                    samples.push("audit_wall_s", num(&result, "wall_s"));
                    samples.push("audit_peak_rss_mb", num(&result, "peak_rss_mb"));
                }
                Arm::Reexec => samples.push("reexec_wall_s", num(&result, "wall_s")),
                Arm::Stream => {
                    let stream = result.get("stream").unwrap_or(&Json::Null);
                    samples.push("stream_audit_wall_s", num(stream, "stream_wall_s"));
                    samples.push("seal_to_verdict_s", num(stream, "seal_to_verdict_s"));
                }
                Arm::Par | Arm::Prologue => unreachable!("not an end-to-end arm"),
            }
        }
        round += 1;
    }
    // The batch-parallel path is part of the verdict control, not of
    // the end-to-end metrics (its wall does not repeat on two cores).
    honest.trial(&mut ops, args, &setup.store, Arm::Par, false);
    honest.finish(&mut ops);
    tamper_control(&mut ops, args, &setup);
    let _ = std::fs::remove_dir_all(&scratch);

    if ops.failed == 0 {
        let ratio = median(samples.get("reexec_wall_s")) / median(samples.get("audit_wall_s"));
        println!(
            "derived.audit_speedup_x = {ratio:.2} x (reexec_wall_s / audit_wall_s; not gated)"
        );
    }
    report(ops, &samples, END_TO_END, &setup)
}

fn report(ops: Ops, samples: &Samples, table: &'static [Decl], setup: &Setup) -> RunReport {
    // A failed arm leaves its metrics unmeasured; report zeros beside
    // `failed > 0` rather than hiding the failure behind a panic.
    let summaries = if ops.failed == 0 {
        samples.summarize(table)
    } else {
        table
            .iter()
            .map(|d| (d, Summary::of(samples.get(d.name))))
            .collect()
    };
    RunReport {
        attempted: ops.attempted,
        failed: ops.failed,
        summaries,
        requests: setup.handled,
        events: setup.summary.events,
    }
}

/// The traced run: every per-layer metric, and `<workload>.trace.json`.
pub fn run_traced(args: &RunArgs) -> RunReport {
    let scratch = scratch_dir(args);
    let mut samples = Samples::default();
    let mut ops = Ops::default();
    let tracer = Tracer::new();
    let spec = args.spec;

    let setup = set_up(args, &scratch.join("store"), &tracer);
    setup.count_requests(&mut ops);
    let trace_bytes = setup.bundle.trace.wire_size() as f64;
    let reports = &setup.bundle.reports;
    samples.push("workload.generate_s", setup.generate_s);
    samples.push("workload.requests", setup.handled as f64);
    samples.push("workload.events", setup.summary.events as f64);
    samples.push("trace.spill_s", setup.spill_s);
    samples.push("trace.encode_mb_s", trace_bytes / 1e6 / setup.spill_s);
    samples.push("trace.segments", setup.summary.segments as f64);
    samples.push("server.into_bundle_s", setup.into_bundle_s);
    samples.push(
        "derived.report_overhead_pct",
        100.0 * (reports.wire_size() - reports.nondet_wire_size()) as f64
            / (trace_bytes + reports.nondet_wire_size() as f64),
    );

    // Recording overhead: busy time with recording on vs off, the arm
    // order alternating (set-up was "on"; then off, off, on).
    let measured = setup.work.workload.requests.len() as f64;
    let serve_again = |recording: bool| {
        let name = if recording {
            "server.serve"
        } else {
            "server.serve_baseline"
        };
        let (server, wall) = tracer
            .span(name, || {
                serve_drained(&setup.work, &serve_options(spec, args.seed, recording))
            })
            .0;
        (
            server.busy().as_secs_f64() * 1e6 / server.requests_handled() as f64,
            measured / wall.as_secs_f64(),
        )
    };
    let base = [serve_again(false).0, serve_again(false).0];
    let (rec_busy, rec_rps) = serve_again(true);
    let rec = median(&[setup.busy_s * 1e6 / setup.handled as f64, rec_busy]);
    let base = median(&base);
    samples.push(
        "server.serve_rps",
        median(&[measured / setup.serve_wall_s, rec_rps]),
    );
    samples.push("server.rec_busy_us_per_req", rec);
    samples.push("server.base_busy_us_per_req", base);
    samples.push("server.record_overhead_pct", 100.0 * (rec - base) / base);

    layers::replay(&setup, trace_bytes, &tracer, &mut samples);

    // Fresh-process trials. Audit children run in untraced/traced
    // pairs (order alternating) until `--seconds` have been measured:
    // their difference is the tracing overhead.
    let mut honest = HonestControl::default();
    let traced_trial = |ops: &mut Ops, honest: &mut HonestControl, arm: Arm| {
        let offset = tracer.now_ns();
        let (result, _) = tracer.span(&format!("trial.{}", arm.as_str()), || {
            let result = honest.trial(ops, args, &setup.store, arm, true);
            if let Some(result) = &result {
                tracer.adopt(child_spans(result), offset);
            }
            result
        });
        result
    };
    let measuring = Instant::now();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first_traced: Option<Json> = None;
    let mut pairs = 0;
    while pairs < 2 || (pairs < 6 && measuring.elapsed().as_secs_f64() < args.seconds) {
        for traced in [pairs % 2 == 1, pairs % 2 == 0] {
            if traced {
                if let Some(r) = traced_trial(&mut ops, &mut honest, Arm::Audit) {
                    traced_walls.push(num(&r, "wall_s"));
                    first_traced.get_or_insert(r);
                }
            } else if let Some(r) = honest.trial(&mut ops, args, &setup.store, Arm::Audit, false) {
                untraced_walls.push(num(&r, "wall_s"));
                samples.push("proc.audit_user_s", num(&r, "user_s"));
                samples.push("proc.audit_sys_s", num(&r, "sys_s"));
                samples.push("proc.audit_minflt", num(&r, "minflt"));
            }
        }
        pairs += 1;
    }
    let audit_wall_s = median(&untraced_walls);
    let reexec = traced_trial(&mut ops, &mut honest, Arm::Reexec);
    let par = honest.trial(&mut ops, args, &setup.store, Arm::Par, false);
    let prologue = traced_trial(&mut ops, &mut honest, Arm::Prologue);
    let stream = traced_trial(&mut ops, &mut honest, Arm::Stream);
    honest.finish(&mut ops);
    let reject_wall_s = tamper_control(&mut ops, args, &setup);

    let span_secs = |spans: &[Span], name: &str| span::durations(spans, name).iter().sum::<f64>();

    if let (Some(audit), Some(reexec), Some(par), Some(prologue), Some(stream)) =
        (&first_traced, &reexec, &par, &prologue, &stream)
    {
        let stats = audit.get("stats").unwrap_or(&Json::Null);
        let spans = child_spans(audit);
        let mut groups = span::durations(&spans, GROUP_SPAN);
        groups.sort_by(f64::total_cmp);
        let group_exec_s: f64 = groups.iter().sum();
        let executed = num(stats, "vm_dispatch_executed");
        let represented = num(stats, "vm_dispatch_total");
        let per = |secs: f64, n: f64| layers::per(secs, n, 1e9);
        samples.push("php.compile_ms", span_secs(&spans, "php.compile") * 1e3);
        samples.push("accphp.group_exec_s", group_exec_s);
        samples.push("accphp.group_exec_ms_p50", median(&groups) * 1e3);
        samples.push(
            "accphp.group_exec_ms_max",
            groups.last().copied().unwrap_or(0.0) * 1e3,
        );
        samples.push(
            "accphp.ns_per_dispatch_executed",
            per(group_exec_s, executed),
        );
        samples.push(
            "accphp.ns_per_dispatch_represented",
            per(group_exec_s, represented),
        );
        samples.push("accphp.dispatch_executed", executed);
        samples.push("accphp.dispatch_dedup_x", represented / executed.max(1.0));
        samples.push("accphp.fallback_requests", num(stats, "scalar_requests"));
        samples.push("sqldb.queries_issued", num(stats, "db_queries_issued"));
        let selects = num(stats, "db_queries_issued") + num(stats, "db_queries_deduped");
        samples.push(
            "sqldb.dedup_hit_rate",
            100.0 * num(stats, "db_queries_deduped") / selects.max(1.0),
        );
        samples.push("state.kv_ops", num(stats, "kv_ops"));
        samples.push("state.register_ops", num(stats, "register_ops"));
        samples.push("core.graph_nodes", num(stats, "graph_nodes"));
        samples.push("core.graph_edges", num(stats, "graph_edges"));
        samples.push("core.groups", num(stats, "groups_executed"));
        samples.push(
            "proc.audit_second_run_x",
            num(audit, "second_wall_s") / num(audit, "wall_s"),
        );

        let scalar_spans = child_spans(reexec);
        let scalar_exec_s = span_secs(&scalar_spans, GROUP_SPAN);
        let dispatch_total = num(
            reexec.get("stats").unwrap_or(&Json::Null),
            "vm_dispatch_total",
        );
        samples.push("php.scalar_exec_s", scalar_exec_s);
        samples.push(
            "php.scalar_ns_per_dispatch",
            per(scalar_exec_s, dispatch_total),
        );
        samples.push("php.dispatch_total", dispatch_total);
        samples.push("accphp.exec_speedup_x", scalar_exec_s / group_exec_s);
        samples.push("proc.reexec_peak_rss_mb", num(reexec, "peak_rss_mb"));
        samples.push(
            "derived.audit_speedup_x",
            num(reexec, "wall_s") / audit_wall_s,
        );

        let prologue_s = span_secs(&child_spans(prologue), "core.prologue");
        samples.push("core.prologue_s", prologue_s);
        // Audit − prologue − Σ group spans: the grouping pre-pass and
        // the output compare.
        let audit_self_s = spans
            .iter()
            .position(|s| s.name == AUDIT_SPAN)
            .map_or(0.0, |i| span::self_time_ns(&spans, i) as f64 / 1e9);
        samples.push("core.other_s", (audit_self_s - prologue_s).max(0.0));
        samples.push("core.audit_par_wall_s", num(par, "wall_s"));
        samples.push("core.par_speedup_x", audit_wall_s / num(par, "wall_s"));

        let s = stream.get("stream").unwrap_or(&Json::Null);
        let mut lags: Vec<f64> = s
            .get("epoch_lag_ms")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        lags.sort_by(f64::total_cmp);
        samples.push("core.stream.epochs", num(s, "epochs"));
        samples.push("core.stream.epoch_lag_ms_p50", median(&lags));
        samples.push(
            "core.stream.epoch_lag_ms_max",
            lags.last().copied().unwrap_or(0.0),
        );
        samples.push("core.stream.carry_peak_bytes", num(s, "carry_peak_bytes"));
        samples.push("core.stream.finish_s", num(s, "finish_s"));
        samples.push("core.reject_wall_s", reject_wall_s);
        samples.push(
            "bench.trace_overhead_pct",
            100.0 * (median(&traced_walls) - audit_wall_s) / audit_wall_s,
        );
    }

    let report = report(ops, &samples, PER_LAYER, &setup);
    let _ = std::fs::remove_dir_all(&scratch);
    let doc = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("unit", Json::str("ns since the traced run started")),
        ("spans", span::spans_to_json(&tracer.into_spans())),
    ]);
    let path = args.out.join(format!("{}.trace.json", spec.name));
    if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    report
}
