//! The child side of a trial. An audit *is* a one-shot process — open
//! the sealed store, reach a verdict, exit — so every timed arm runs in
//! a fresh child (`orochi-benchmark trial …`): first-touch allocator and
//! page-fault cost is inside the number, and what ran before in the
//! parent cannot change it. The child prints one JSON line; the parent
//! ([`crate::run`]) judges the verdict.

use crate::json::Json;
use crate::procfs;
use crate::span::{spans_to_json, Tracer};
use crate::workloads::{epoch_size, Spec};
use orochi_accphp::executor::ExecutorStats;
use orochi_accphp::{AccPhpExecutor, VmEngine};
use orochi_common::RequestId;
use orochi_core::audit::{
    audit_parallel_source, audit_source, AuditContext, AuditOutcome, Rejection,
};
use orochi_core::exec::GroupExecutor;
use orochi_core::streaming::StreamingAudit;
use orochi_core::{load_reports, spill_reports};
use orochi_php::CompiledScript;
use orochi_trace::{
    Event, HttpRequest, HttpResponse, TraceSource, TraceStoreReader, TraceStoreWriter,
    DEFAULT_SEGMENT_BYTES,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Grouped + deduplicated audit, one thread: the product.
    Audit,
    /// Scalar, no dedup, one thread: the paper's "simple re-execution".
    Reexec,
    /// [`Arm::Audit`] across `threads` workers.
    Par,
    /// Append/seal per epoch into a new store, feeding `StreamingAudit`.
    Stream,
    /// Only `AuditContext::prepare` (traced runs attribute it).
    Prologue,
}

impl Arm {
    pub const ALL: [Arm; 5] = [
        Arm::Audit,
        Arm::Reexec,
        Arm::Par,
        Arm::Stream,
        Arm::Prologue,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Arm::Audit => "audit",
            Arm::Reexec => "reexec",
            Arm::Par => "par",
            Arm::Stream => "stream",
            Arm::Prologue => "prologue",
        }
    }

    pub fn parse(s: &str) -> Option<Arm> {
        Arm::ALL.into_iter().find(|a| a.as_str() == s)
    }
}

pub struct TrialArgs {
    pub arm: Arm,
    pub spec: &'static Spec,
    pub scale_mult: f64,
    /// The sealed store the set-up phase spilled.
    pub store: PathBuf,
    /// Audit worker threads ([`Arm::Par`] only; other arms use 1).
    pub threads: usize,
    /// Wrap the executors in [`Timed`] and return the spans.
    pub traced: bool,
}

/// Span name of one `execute_group` call.
pub const GROUP_SPAN: &str = "accphp.execute_group";
/// Span name of the whole `audit_source` / `audit_parallel_source` call.
pub const AUDIT_SPAN: &str = "core.audit";

/// Times every `execute_group` call of the executor it wraps — the
/// benchmark-owned span at the `orochi_core` → `orochi_accphp` boundary.
struct Timed {
    inner: AccPhpExecutor,
    calls: Vec<(Instant, Instant)>,
}

impl GroupExecutor for Timed {
    fn execute_group(
        &mut self,
        requests: &[(RequestId, HttpRequest)],
        ctx: &mut AuditContext<'_>,
    ) -> Result<Vec<(RequestId, HttpResponse)>, Rejection> {
        let start = Instant::now();
        let out = self.inner.execute_group(requests, ctx);
        self.calls.push((start, Instant::now()));
        out
    }
}

/// An executor on the register engine, set explicitly (never from
/// `OROCHI_VM_ENGINE`).
pub fn executor(scripts: &HashMap<String, CompiledScript>, grouped: bool) -> AccPhpExecutor {
    let mut e = AccPhpExecutor::new(scripts.clone());
    e.force_scalar = !grouped;
    e.engine = VmEngine::Register;
    e
}

pub fn verdict<T>(result: &Result<T, Rejection>) -> String {
    match result {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject:{r}"),
    }
}

fn stats_json(outcome: &AuditOutcome, exec: &ExecutorStats) -> Json {
    let s = &outcome.stats;
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("requests_reexecuted", n(s.requests_reexecuted as u64)),
        ("groups_executed", n(s.groups_executed as u64)),
        ("vm_dispatch_total", n(s.vm_dispatch_total)),
        ("vm_dispatch_executed", n(s.vm_dispatch_executed)),
        ("register_ops", n(s.register_ops)),
        ("kv_ops", n(s.kv_ops)),
        ("db_txns", n(s.db_txns)),
        ("db_queries", n(s.db_queries)),
        ("db_queries_deduped", n(s.db_queries_deduped)),
        ("db_queries_issued", n(s.db_queries_issued)),
        ("graph_nodes", n(s.graph_nodes as u64)),
        ("graph_edges", n(s.graph_edges as u64)),
        ("scalar_requests", n(exec.scalar_requests as u64)),
    ])
}

fn merged_stats<'a>(executors: impl Iterator<Item = &'a AccPhpExecutor>) -> ExecutorStats {
    let mut merged = ExecutorStats::default();
    for e in executors {
        merged.merge(&e.stats);
    }
    merged
}

/// Store → verdict, the way a verifier process does it: open the
/// sealed store, load the reports, compile the application, build the
/// initial state, audit. Returns the verdict and the counters.
fn batch_audit(args: &TrialArgs, tracer: &Tracer) -> (String, Json) {
    let (grouped, dedup, threads) = match args.arm {
        Arm::Reexec => (false, false, 1),
        Arm::Par => (true, true, args.threads.max(1)),
        _ => (true, true, 1),
    };
    let work = args.spec.verifier_side(args.scale_mult);
    let reader = tracer
        .span("trace.open", || TraceStoreReader::open(&args.store))
        .0
        .expect("the set-up phase sealed this store");
    let reports = tracer
        .span("core.load_reports", || load_reports(&reader))
        .0
        .expect("the set-up phase spilled the reports");
    let scripts = tracer
        .span("php.compile", || work.app.compile())
        .0
        .expect("application compiles");
    let (mut config, _) = tracer.span("sqldb.initial_db", || work.audit_config());
    config.query_dedup = dedup;

    fn run<E: GroupExecutor + Send>(
        reader: &TraceStoreReader,
        reports: &orochi_core::Reports,
        executors: &mut [E],
        config: &orochi_core::AuditConfig,
    ) -> Result<AuditOutcome, Rejection> {
        if executors.len() == 1 {
            audit_source(reader, reports, &mut executors[0], config)
        } else {
            audit_parallel_source(reader, reports, executors, config)
        }
    }

    let (result, exec_stats) = if args.traced {
        let mut executors: Vec<Timed> = (0..threads)
            .map(|_| Timed {
                inner: executor(&scripts, grouped),
                calls: Vec::new(),
            })
            .collect();
        let (result, _) = tracer.span(AUDIT_SPAN, || {
            let result = run(&reader, &reports, &mut executors, &config);
            for (start, end) in executors.iter().flat_map(|e| e.calls.iter().copied()) {
                tracer.record(GROUP_SPAN, start, end);
            }
            result
        });
        (result, merged_stats(executors.iter().map(|e| &e.inner)))
    } else {
        let mut executors: Vec<AccPhpExecutor> =
            (0..threads).map(|_| executor(&scripts, grouped)).collect();
        let (result, _) = tracer.span(AUDIT_SPAN, || {
            run(&reader, &reports, &mut executors, &config)
        });
        (result, merged_stats(executors.iter()))
    };
    let stats = match &result {
        Ok(outcome) => stats_json(outcome, &exec_stats),
        Err(_) => Json::Null,
    };
    (verdict(&result), stats)
}

/// Audit-while-ingesting: the served trace is appended to a new store
/// and sealed one epoch at a time, each sealed epoch going straight to
/// the `StreamingAudit` (the shape of `driver::serve_and_audit`, with
/// the per-epoch lag and the carry set observed from outside).
fn stream_audit(args: &TrialArgs, tracer: &Tracer) -> (String, Json, Json) {
    let work = args.spec.verifier_side(args.scale_mult);
    let source = TraceStoreReader::open(&args.store).expect("the set-up phase sealed this store");
    let reports = load_reports(&source).expect("the set-up phase spilled the reports");
    // The events as the drained server holds them: in memory.
    let mut events: Vec<Event> = Vec::with_capacity(source.event_count());
    source
        .stream_events(&mut |e| {
            events.push(e);
            true
        })
        .expect("sealed segments decode");
    let scripts = work.app.compile().expect("application compiles");
    let config = work.audit_config();
    let mut executors = vec![executor(&scripts, true)];
    let dir = args
        .store
        .with_extension(format!("stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer =
        TraceStoreWriter::create(&dir, DEFAULT_SEGMENT_BYTES).expect("create the streamed store");

    let mut lags_ms = Vec::new();
    let mut carry_peak = 0usize;
    let mut last_seal = Instant::now();
    let mut finish_s = 0.0;
    let (result, stream_wall_s) = tracer.span("core.stream", || {
        let mut audit = tracer
            .span("core.stream.new", || {
                StreamingAudit::new(&reports, &config, 1)
            })
            .0;
        let mut feeding = true;
        for epoch in events.chunks(epoch_size(events.len())) {
            tracer.span("trace.append_seal", || {
                for event in epoch {
                    writer.append(event.clone()).expect("append");
                }
                writer.seal().expect("seal");
            });
            last_seal = Instant::now();
            if feeding {
                feeding = tracer
                    .span("core.stream.feed_epoch", || {
                        audit.feed_epoch(epoch, &mut executors)
                    })
                    .0;
                lags_ms.push(last_seal.elapsed().as_secs_f64() * 1e3);
                carry_peak = carry_peak.max(audit.carry_bytes());
            }
        }
        spill_reports(&mut writer, &reports).expect("spill reports");
        writer.finish().expect("finish the streamed store");
        let sealed = TraceStoreReader::open(&dir).expect("reopen the streamed store");
        let epochs = audit.epochs();
        let (result, secs) = tracer.span("core.stream.finish", || {
            audit.finish(&sealed, &mut executors)
        });
        finish_s = secs;
        result.map(|outcome| (outcome, epochs))
    });
    let seal_to_verdict_s = last_seal.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let (stats, epochs) = match &result {
        Ok((outcome, epochs)) => (
            stats_json(outcome, &merged_stats(executors.iter())),
            *epochs,
        ),
        Err(_) => (Json::Null, 0),
    };
    let stream = Json::obj([
        ("stream_wall_s", Json::Num(stream_wall_s)),
        ("seal_to_verdict_s", Json::Num(seal_to_verdict_s)),
        ("epochs", Json::Num(epochs as f64)),
        (
            "epoch_lag_ms",
            Json::Arr(lags_ms.into_iter().map(Json::Num).collect()),
        ),
        ("carry_peak_bytes", Json::Num(carry_peak as f64)),
        ("finish_s", Json::Num(finish_s)),
    ]);
    (verdict(&result), stats, stream)
}

/// Only the audit prologue (`AuditContext::prepare`): balance, report
/// processing, nondet validation, versioned-store builds.
fn prologue(args: &TrialArgs, tracer: &Tracer) -> String {
    let work = args.spec.verifier_side(args.scale_mult);
    let reader = TraceStoreReader::open(&args.store).expect("the set-up phase sealed this store");
    let reports = load_reports(&reader).expect("the set-up phase spilled the reports");
    let config = work.audit_config();
    let (ctx, _) = tracer.span("core.prologue", || {
        AuditContext::prepare(&reader, &reports, &config)
    });
    verdict(&ctx)
}

/// Runs one arm and returns the child's result line. `started` is the
/// first instant of the child's `main`.
pub fn run_child(args: &TrialArgs, started: Instant) -> Json {
    let tracer = Tracer::new();
    let mut fields: Vec<(&str, Json)> = vec![("arm", Json::str(args.arm.as_str()))];
    let verdict = match args.arm {
        Arm::Audit | Arm::Reexec | Arm::Par => {
            let (verdict, stats) = batch_audit(args, &tracer);
            fields.push(("stats", stats));
            verdict
        }
        Arm::Stream => {
            let (verdict, stats, stream) = stream_audit(args, &tracer);
            fields.push(("stats", stats));
            fields.push(("stream", stream));
            verdict
        }
        Arm::Prologue => prologue(args, &tracer),
    };
    // Child start → verdict, and the process counters at that moment.
    let wall_s = started.elapsed().as_secs_f64();
    let (stat, peak_rss_mb) = procfs::read_self();
    fields.extend([
        ("verdict", Json::str(verdict)),
        ("wall_s", Json::Num(wall_s)),
        ("user_s", Json::Num(stat.user_s)),
        ("sys_s", Json::Num(stat.sys_s)),
        ("minflt", Json::Num(stat.minflt as f64)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
    ]);
    if args.traced {
        if args.arm == Arm::Audit {
            // The same store → verdict path a second time in this
            // process: the run-order penalty ROADMAP measured, tracked.
            let again = Instant::now();
            batch_audit(args, &Tracer::new());
            fields.push(("second_wall_s", Json::Num(again.elapsed().as_secs_f64())));
        }
        fields.push(("spans", spans_to_json(&tracer.into_spans())));
    }
    Json::obj(fields)
}
