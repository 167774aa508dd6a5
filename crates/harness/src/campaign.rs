//! The adversarial campaign: seeded mutation plans over one honest
//! serve of the mixed four-app workload, each mutant audited on every
//! path. `tests/campaign.rs` holds the sweeps CI and the nightly run.

use crate::driver::{
    run_audit_cold, run_audit_streaming, serve, spill_bundle, AppWorkload, AuditOptions,
    ServeOptions,
};
use crate::mutation::{MutationPlan, MutationSite};
use orochi_accphp::AccPhpExecutor;
use orochi_core::audit::{audit, audit_parallel};
use orochi_core::streaming::audit_streaming_source;
use orochi_trace::TraceStoreReader;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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
}

/// The verdict of one audit arm as a comparable string.
fn verdict<T>(run: &Result<T, orochi_core::Rejection>) -> String {
    match run {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject:{r}"),
    }
}

/// The honest control's spill directory. Unique per sweep — two sweeps
/// in one process must not share one — and removed on drop, so on
/// return and on every panic out of [`campaign`].
struct ControlDir(PathBuf);

impl ControlDir {
    fn new() -> ControlDir {
        static SWEEPS: AtomicU64 = AtomicU64::new(0);
        let n = SWEEPS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("orochi-campaign-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ControlDir(dir)
    }
}

impl Drop for ControlDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serves the mixed four-app workload once, spills it to a segmented
/// trace store, and verifies the honest control accepts through every
/// path (batch cold at 1 and `threads` workers, streaming at
/// `threads`). Then, for `campaigns` seeded runs, clones the honest
/// trace+reports, applies a [`MutationPlan`] of `k` operators on
/// distinct objects (`k == 0` cycles 1..=3), and audits the mutant
/// three ways — batch sequential, batch pooled, streaming pooled at
/// `epoch_events` per epoch. A mutant counts as *caught* only if all
/// three arms reject with byte-identical diagnostics; anything else
/// lands in `survivors` verbatim (seed, operator, site) so an escape is
/// a reproducible one-liner. The campaign records, it does not panic:
/// the sweeps in `tests/campaign.rs` assert on the report.
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
    let work = AppWorkload::mixed(scale, seed);
    let threads = threads.max(1);
    let served = serve(&work, &ServeOptions::default());
    let honest_trace = served.bundle.trace.clone();
    let honest_reports = served.bundle.reports.clone();

    // Honest control through the trace store: spill once, audit batch
    // cold at both thread counts and streaming; all must accept and
    // agree on the re-execution counters.
    let dir = ControlDir::new();
    spill_bundle(&served.bundle, &dir.0, 64 * 1024).expect("spill campaign control");
    drop(served);
    let reader = TraceStoreReader::open(&dir.0).expect("reopen campaign store");
    let seq_opts = AuditOptions::default();
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
    drop(dir);

    // The mutation loop shares one compiled script table; executors
    // are rebuilt per arm (they carry per-audit caches and stats).
    let scripts = work.app.compile().expect("application compiles");
    let executors = |n: usize| -> Vec<AccPhpExecutor> {
        (0..n)
            .map(|_| AccPhpExecutor::new(scripts.clone()))
            .collect()
    };
    let mut config = work.audit_config();
    config.query_dedup = true;

    let mut caught = 0usize;
    let mut sites_applied = 0usize;
    let mut operators: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut survivors = Vec::new();
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
        let batch_seq = verdict(&audit(&trace, &reports, &mut executors(1)[0], &config));
        let batch_par = verdict(&audit_parallel(
            &trace,
            &reports,
            &mut executors(threads),
            &config,
        ));
        let streaming = verdict(&audit_streaming_source(
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

    CampaignReport {
        campaigns,
        sites: sites_applied,
        caught,
        operators,
        survivors,
        honest_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_catches_every_mutant_at_test_scale() {
        let r = campaign(0.01, 7, 6, 0, 2, 64);
        assert!(r.honest_ok, "honest mixed control must accept on every arm");
        assert_eq!(r.campaigns, 6);
        assert_eq!(r.caught, 6, "survivors: {:?}", r.survivors);
        assert!(r.sites >= 6, "k cycles 1..=3, so sites >= campaigns");
        assert!(r.survivors.is_empty());
        assert!(!r.operators.is_empty());
    }
}
