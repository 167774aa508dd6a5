//! Regenerates the Fig. 11 control-flow group characteristics for the
//! wiki workload.
//!
//! Usage: `cargo run --release -p orochi_bench --bin fig11_groups`
//! (`OROCHI_AUDIT_THREADS` selects the audit worker pool; the triples
//! are scheduling-independent, so any thread count reports the same
//! groups).

use orochi_harness::experiments::{fig11_groups, print_fig11, scale_from_env};
use orochi_harness::Config;

fn main() {
    let scale = scale_from_env();
    let threads = Config::from_env().resolved_audit_threads();
    println!(
        "== Fig. 11: control-flow groups, wiki workload (scale {scale}, {threads} audit threads) =="
    );
    let summary = fig11_groups(scale, 42, threads);
    print_fig11(&summary);
}
