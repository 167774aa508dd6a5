//! Peak-heap regression for the store-backed audit.
//!
//! The audit scans sealed segments in place: what it holds of the trace
//! is the segments' decompressed payloads, which store each distinct
//! string once. Auditing from the store must therefore cost, over and
//! above auditing a trace that is already resident, *less than half the
//! bytes of the events' own strings* — a bound no audit that
//! materialises the trace as owned events can meet, since those events
//! alone weigh more than their strings. Live heap bytes are counted at
//! the allocator seam ([`TrackingAllocator`]), so the test is exact and
//! has the process to itself: this file holds one test.

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_source, AuditOutcome};
use orochi::core::load_reports;
use orochi::harness::{serve, spill_bundle, AppWorkload, ServeOptions};
use orochi::trace::{Event, TraceStoreReader};
use orochi::workload::hotcrp;
use orochi_common::metrics::{alloc_tracking, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn pair_bytes(pairs: &[(String, String)]) -> usize {
    pairs.iter().map(|(k, v)| k.len() + v.len()).sum()
}

/// The bytes of every string of every event: the least an owned copy of
/// the trace can weigh.
fn string_bytes(events: &[Event]) -> usize {
    events
        .iter()
        .map(|event| match event {
            Event::Request(_, req) => {
                req.method.len()
                    + req.path.len()
                    + pair_bytes(&req.query)
                    + pair_bytes(&req.post)
                    + pair_bytes(&req.cookies)
            }
            Event::Response(_, resp) => resp.body.len() + pair_bytes(&resp.headers),
        })
        .sum()
}

/// The deterministic counters of an accepted run.
fn counters(outcome: &AuditOutcome) -> [u64; 12] {
    let s = &outcome.stats;
    [
        s.groups_executed as u64,
        s.requests_reexecuted as u64,
        s.register_ops,
        s.kv_ops,
        s.db_txns,
        s.db_queries,
        s.db_queries_deduped,
        s.db_queries_issued,
        s.vm_dispatch_total,
        s.vm_dispatch_executed,
        s.graph_nodes as u64,
        s.graph_edges as u64,
    ]
}

#[test]
fn cold_audit_holds_less_of_the_trace_than_its_strings() {
    let work = AppWorkload {
        app: orochi::apps::hotcrp::app(),
        workload: hotcrp::generate(&hotcrp::Params::scaled(0.05), 7),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let dir = std::env::temp_dir().join(format!("orochi-peak-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = spill_bundle(&served.bundle, &dir, 256 * 1024).unwrap();
    assert!(summary.segments > 2, "the fixture must span segments");

    let scripts = work.app.compile().unwrap();
    let config = work.audit_config();
    // Peak live heap of `run`, over what was live when it started.
    fn measured<T>(run: impl FnOnce() -> T) -> (T, usize) {
        let baseline = alloc_tracking::current_bytes();
        alloc_tracking::reset_peak();
        let out = run();
        (out, alloc_tracking::peak_bytes() - baseline)
    }

    let bundle = &served.bundle;
    let mut executor = AccPhpExecutor::new(scripts.clone());
    let (in_ram, ram_peak) =
        measured(|| audit(&bundle.trace, &bundle.reports, &mut executor, &config));
    let trace_strings = string_bytes(&bundle.trace.events);
    drop(served);

    let mut executor = AccPhpExecutor::new(scripts);
    let reader = TraceStoreReader::open(&dir).unwrap();
    let reports = load_reports(&reader).unwrap();
    let (cold, cold_peak) = measured(|| audit_source(&reader, &reports, &mut executor, &config));
    std::fs::remove_dir_all(&dir).unwrap();

    let (in_ram, cold) = (in_ram.expect("honest run"), cold.expect("honest run"));
    assert_eq!(counters(&cold), counters(&in_ram));
    assert!(
        cold_peak < ram_peak + trace_strings / 2,
        "auditing from the store peaked at {cold_peak} B, from RAM at {ram_peak} B; \
         the difference must stay under half the trace's {trace_strings} B of strings"
    );
}
