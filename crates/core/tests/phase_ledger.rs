//! One phase ledger: an audit's Fig. 9 rows are fields of its
//! `AuditStats`, and what it adds to the `audit_phase_*_ns` registry
//! counters is exactly those fields. Alone in its file: the registry is
//! process-wide, and a neighbouring test's audit would add to it.

use orochi_harness::{run_audit_with, serve, AppWorkload, AuditOptions, ServeOptions};
use orochi_obs::registry;
use orochi_workload::wiki;

const COUNTERS: [&str; 6] = [
    "audit_phase_balance_ns",
    "audit_phase_procoprep_ns",
    "audit_phase_db_redo_ns",
    "audit_phase_db_query_ns",
    "audit_phase_reexec_ns",
    "audit_phase_output_ns",
];

#[test]
fn an_audits_phase_fields_are_what_it_adds_to_the_phase_counters() {
    let params = wiki::Params {
        pages: 12,
        view_requests: 60,
        editors: 2,
        ..Default::default()
    };
    let work = AppWorkload {
        app: orochi_apps::wiki::app(),
        workload: wiki::generate(&params, 42),
        seed_sql: Vec::new(),
    };
    let served = serve(&work, &ServeOptions::default());
    let opts = AuditOptions {
        threads: 2,
        ..Default::default()
    };

    let before = COUNTERS.map(|name| registry::counter(name).get());
    let run = run_audit_with(&served.bundle, &work, &opts)
        .unwrap_or_else(|r| panic!("honest run rejected: {r}"));
    let rows = run.outcome.stats.phase_rows();
    for (i, name) in COUNTERS.into_iter().enumerate() {
        let delta = registry::counter(name).get() - before[i];
        let (row, wall) = rows[i];
        assert_eq!(delta, wall.as_nanos() as u64, "{row} vs {name}");
    }
    for (row, wall) in rows {
        assert!(!wall.is_zero(), "the {row} row is zero");
    }
}
