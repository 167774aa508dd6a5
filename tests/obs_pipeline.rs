//! The telemetry layer across the whole pipeline. Alone in its file:
//! the enabled flag, the registry and the journal are process-wide, and
//! a neighbouring test's serve or audit would write into them.

use orochi::harness::{
    run_audit_cold, serve, spill_bundle, AppWorkload, AuditOptions, ServeOptions,
};
use orochi::obs::{journal, registry};
use orochi::trace::{TraceStoreReader, TraceStoreSummary};

/// Serve → spill → drop the in-RAM trace → cold audit at two threads.
fn run_pipeline(work: &AppWorkload) -> TraceStoreSummary {
    let dir = std::env::temp_dir().join(format!("orochi-obs-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let served = serve(work, &ServeOptions::default());
    let summary = spill_bundle(&served.bundle, &dir, 64 * 1024).expect("spill");
    drop(served);
    let reader = TraceStoreReader::open(&dir).expect("open store");
    let opts = AuditOptions {
        threads: 2,
        ..Default::default()
    };
    run_audit_cold(&reader, work, &opts).unwrap_or_else(|r| panic!("honest run rejected: {r}"));
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

fn lane_events(prefix: &str) -> usize {
    journal::lane_event_counts()
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, n)| *n)
        .sum()
}

#[test]
fn every_pipeline_actor_reports_when_enabled_and_nothing_is_journaled_when_disabled() {
    let work = AppWorkload::shop(0.02, 42);

    orochi::obs::set_enabled(true);
    let summary = run_pipeline(&work);
    for family in ["serve-worker-", "audit-worker-", "trace-store"] {
        assert!(lane_events(family) > 0, "no events in the {family}* lanes");
    }
    assert!(
        journal::chrome_trace_json().contains("\"ph\":\"X\""),
        "the chrome trace holds no complete event"
    );
    // This process has sealed one store, so the always-on trace-store
    // counters must equal what the spill reported.
    assert_eq!(
        registry::counter("tracestore_bytes_total").get(),
        summary.segment_bytes
    );
    assert_eq!(
        registry::counter("tracestore_events_total").get(),
        summary.events
    );
    for clocked in ["frontend_admission_wait_ns", "audit_lag_ns"] {
        assert!(
            registry::histogram(clocked).snapshot().count > 0,
            "{clocked} recorded nothing"
        );
    }
    for phase in [
        "audit_phase_balance_ns",
        "audit_phase_procoprep_ns",
        "audit_phase_db_redo_ns",
        "audit_phase_reexec_ns",
        "audit_phase_output_ns",
    ] {
        assert!(registry::counter(phase).get() > 0, "{phase} is zero");
    }

    orochi::obs::set_enabled(false);
    journal::clear();
    run_pipeline(&work);
    assert_eq!(lane_events(""), 0, "the disabled layer journaled events");
}
