//! The serving front-end, end to end: a single-worker unbounded
//! front-end reproduces the sequential serve exactly (same bundle, same
//! honest accept, same tamper diagnostics), pooled front-ends stay
//! audit-clean, and shedding is accounted without ever unbalancing the
//! trace.

use orochi::harness::{
    run_audit_with, serve, serve_open_loop_with, tamper, AppWorkload, AuditOptions,
    OpenLoopOptions, ServeOptions,
};
use orochi::server::server::AuditBundle;
use orochi::server::{Server, ServerConfig};

fn shop() -> AppWorkload {
    AppWorkload::shop(0.02, 11)
}

/// The reference: every request handled sequentially on this thread.
fn direct_sequential_bundle(work: &AppWorkload) -> AuditBundle {
    let server = Server::new(ServerConfig {
        scripts: work.app.compile().unwrap(),
        initial_db: work.initial_db(),
        recording: true,
        seed: 42,
        ..Default::default()
    });
    for req in work
        .workload
        .setup
        .iter()
        .chain(work.workload.requests.iter())
    {
        server.handle(req.clone());
    }
    server.into_bundle()
}

fn audit(bundle: &AuditBundle, work: &AppWorkload, threads: usize) -> Result<(), String> {
    run_audit_with(
        bundle,
        work,
        &AuditOptions {
            threads,
            ..Default::default()
        },
    )
    .map(|_| ())
    .map_err(|r| r.to_string())
}

#[test]
fn single_worker_frontend_reproduces_sequential_serve() {
    let work = shop();
    let reference = direct_sequential_bundle(&work);
    let served = serve(
        &work,
        &ServeOptions {
            threads: 1,
            queue_depth: 0,
            recording: true,
            seed: 42,
        },
    );
    // One worker, FIFO admission: the very same request interleaving,
    // so the untrusted reports come out byte-identical.
    assert_eq!(served.bundle.reports, reference.reports);
    assert_eq!(
        served.bundle.trace.events.len(),
        reference.trace.events.len()
    );
    assert_eq!(served.shed, 0);
    audit(&served.bundle, &work, 1).expect("honest single-worker front-end accepted");
}

#[test]
fn single_worker_frontend_tampers_rejected_with_unchanged_diagnostics() {
    let work = shop();
    let reference = direct_sequential_bundle(&work);
    type Tamper = (&'static str, fn(&mut AuditBundle) -> bool);
    let variants: [Tamper; 3] = [
        ("forged_cart_total", |b| {
            tamper::forge_cart_total(&mut b.trace)
        }),
        ("stale_inventory_read", |b| {
            tamper::reorder_kv_read(&mut b.reports, "inv:")
        }),
        ("replayed_kv_write", |b| {
            tamper::replay_kv_write(&mut b.reports, "inv:")
        }),
    ];
    for (label, apply) in variants {
        let mut via_frontend = serve(
            &work,
            &ServeOptions {
                threads: 1,
                queue_depth: 0,
                recording: true,
                seed: 42,
            },
        )
        .bundle;
        let mut via_direct = AuditBundle {
            trace: reference.trace.clone(),
            reports: reference.reports.clone(),
            final_db: reference.final_db.deep_clone(),
            final_registers: reference.final_registers.clone(),
            final_kv: reference.final_kv.clone(),
            busy: reference.busy,
            requests: reference.requests,
        };
        assert!(apply(&mut via_frontend), "{label}: no tamper site");
        assert!(apply(&mut via_direct), "{label}: no tamper site");
        let fe_err = audit(&via_frontend, &work, 1).expect_err(label);
        let direct_err = audit(&via_direct, &work, 1).expect_err(label);
        assert_eq!(
            fe_err, direct_err,
            "{label}: diagnostics drifted between the front-end and the direct serve"
        );
    }
}

#[test]
fn pooled_bounded_frontend_stays_audit_clean() {
    let work = shop();
    for (workers, queue_depth) in [(2, 1), (4, 8), (8, 0)] {
        let served = serve(
            &work,
            &ServeOptions {
                threads: workers,
                queue_depth,
                recording: true,
                seed: 42,
            },
        );
        assert_eq!(served.shed, 0, "backpressure serving never sheds");
        served.bundle.trace.ensure_balanced().unwrap_or_else(|e| {
            panic!("workers {workers} depth {queue_depth}: unbalanced trace: {e}")
        });
        audit(&served.bundle, &work, 2).unwrap_or_else(|e| {
            panic!("workers {workers} depth {queue_depth}: honest run rejected: {e}")
        });
    }
}

#[test]
fn shedding_open_loop_accounts_and_stays_balanced() {
    let work = shop();
    let n = work.workload.requests.len() as u64;
    // A tiny queue and an absurd offered rate force real shedding.
    let (latencies, served) = serve_open_loop_with(
        &work,
        1e9,
        &OpenLoopOptions {
            pool: 2,
            queue_depth: 2,
            shed: true,
            recording: true,
            seed: 7,
        },
    );
    assert!(served.shed > 0, "overload with a depth-2 queue must shed");
    assert_eq!(latencies.len() as u64 + served.shed, n);
    // Shed requests never reached the collector: the trace stays
    // balanced and the audit of the served subset accepts.
    served.bundle.trace.ensure_balanced().unwrap();
    audit(&served.bundle, &work, 1).expect("honest shed run accepted");
}

#[test]
fn open_loop_latency_buffers_cover_every_admitted_request() {
    let mut work = shop();
    work.workload.requests.truncate(80);
    let (latencies, served) = serve_open_loop_with(
        &work,
        500.0,
        &OpenLoopOptions {
            pool: 3,
            queue_depth: 0,
            shed: false,
            recording: true,
            seed: 3,
        },
    );
    assert_eq!(latencies.len(), 80);
    assert_eq!(served.shed, 0);
    assert!(latencies.iter().all(|&l| l >= 0.0));
    audit(&served.bundle, &work, 1).expect("honest open-loop run accepted");
}
