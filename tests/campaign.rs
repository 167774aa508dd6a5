//! The adversarial campaign, property-tested: seeded mutation plans
//! over a served mixed four-app bundle must be rejected with
//! byte-identical diagnostics at 1 and 4 audit threads and across the
//! batch and streaming audit paths, while the honest bundle accepts
//! everywhere. A pinned-plan regression guards the seed-replay
//! contract: a `(seed, k)` pair must keep producing the same
//! `MutationSite` debug rendering across runs, or escape reports stop
//! being replayable. The two `#[ignore]`d sweeps are the soundness gate
//! at scale (CI runs the smoke one in release, the nightly both).

use orochi::accphp::AccPhpExecutor;
use orochi::core::audit::{audit, audit_parallel, AuditConfig, Rejection};
use orochi::core::nondet::{NondetLog, NondetValue};
use orochi::core::reports::Reports;
use orochi::core::streaming::audit_streaming_source;
use orochi::harness::campaign::campaign;
use orochi::harness::driver::{serve, AppWorkload, ServeOptions};
use orochi::harness::mutation::{MutationPlan, MutationSite};
use orochi::php::CompiledScript;
use orochi::state::{ObjectName, OpContents, OpLog, OpLogEntry, OpLogs};
use orochi::trace::{Event, HttpRequest, HttpResponse, Trace};
use orochi_common::ids::{CtlFlowTag, OpNum, RequestId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Epoch budget for the streaming arm: small enough that the CI-scale
/// trace spans several epochs.
const EPOCH_EVENTS: usize = 32;

type Fixture = (
    AppWorkload,
    Trace,
    Reports,
    HashMap<String, CompiledScript>,
    AuditConfig,
);

/// One honest serve of the mixed four-app workload, shared by every
/// proptest case — serving per case would dominate the suite.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let work = AppWorkload::mixed(0.004, 21);
        let scripts = work.app.compile().expect("mixed app compiles");
        let served = serve(&work, &ServeOptions::default());
        let mut config = work.audit_config();
        config.query_dedup = true;
        (
            work,
            served.bundle.trace.clone(),
            served.bundle.reports.clone(),
            scripts,
            config,
        )
    })
}

/// The campaign's verdict string: the rejection renders into it, so
/// byte-equality of verdicts is byte-equality of diagnostics.
fn verdict<T>(run: &Result<T, Rejection>) -> String {
    match run {
        Ok(_) => "accept".to_string(),
        Err(r) => format!("reject:{r}"),
    }
}

fn executors(scripts: &HashMap<String, CompiledScript>, n: usize) -> Vec<AccPhpExecutor> {
    (0..n)
        .map(|_| AccPhpExecutor::new(scripts.clone()))
        .collect()
}

/// Audits one (possibly mutated) bundle on all three paths and returns
/// the three verdict strings: batch sequential, batch pooled,
/// streaming pooled.
fn all_paths(trace: &Trace, reports: &Reports, threads: usize) -> [String; 3] {
    let (_, _, _, scripts, config) = fixture();
    let batch_seq = verdict(&audit(
        trace,
        reports,
        &mut executors(scripts, 1)[0],
        config,
    ));
    let batch_par = verdict(&audit_parallel(
        trace,
        reports,
        &mut executors(scripts, threads),
        config,
    ));
    let streaming = verdict(&audit_streaming_source(
        trace,
        reports,
        &mut executors(scripts, threads),
        config,
        EPOCH_EVENTS,
    ));
    [batch_seq, batch_par, streaming]
}

#[test]
fn honest_mixed_workload_accepts_on_every_path() {
    let (_, trace, reports, _, _) = fixture();
    for threads in [1usize, 4] {
        let verdicts = all_paths(trace, reports, threads);
        for (path, v) in ["batch-seq", "batch-par", "streaming"]
            .iter()
            .zip(&verdicts)
        {
            assert_eq!(
                v, "accept",
                "honest mixed bundle rejected on {path} at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every seeded plan of k mutations is rejected, and the rejection
    /// diagnostic is byte-identical sequentially, pooled, and streamed.
    #[test]
    fn mutated_bundles_reject_identically_on_every_path(
        seed in any::<u64>(),
        k in 1usize..4,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (_, trace, reports, _, _) = fixture();
        let mut trace = trace.clone();
        let mut reports = reports.clone();
        let sites = MutationPlan { seed, k }.apply(&mut trace, &mut reports);
        prop_assert!(!sites.is_empty(), "no mutable site in the served bundle");
        let [batch_seq, batch_par, streaming] = all_paths(&trace, &reports, threads);
        prop_assert!(
            batch_seq.starts_with("reject:"),
            "mutant accepted (sites {:?})", sites
        );
        prop_assert_eq!(
            &batch_seq, &batch_par,
            "pooled diagnostic diverged at {} threads (sites {:?})", threads, sites
        );
        prop_assert_eq!(
            &batch_seq, &streaming,
            "streaming diagnostic diverged (sites {:?})", sites
        );
    }

    /// Seed-replay: the same plan applied to fresh clones of the same
    /// bundle reproduces the same sites, byte for byte — the contract
    /// that makes a reported escape (operator, site, seed) replayable.
    #[test]
    fn plans_replay_byte_identically(seed in any::<u64>(), k in 1usize..4) {
        let (_, trace, reports, _, _) = fixture();
        let render = |_: ()| {
            let mut t = trace.clone();
            let mut r = reports.clone();
            format!("{:?}", MutationPlan { seed, k }.apply(&mut t, &mut r))
        };
        prop_assert_eq!(render(()), render(()));
    }
}

/// A tiny hand-built bundle for the pinned-site regression: synthetic
/// so the pin survives workload-generator changes.
fn synthetic() -> (Trace, Reports) {
    let entry = |rid: u64, opnum: u32, contents: OpContents| OpLogEntry {
        rid: RequestId(rid),
        opnum: OpNum(opnum),
        contents,
    };
    let mut events = Vec::new();
    for n in 1..=3u64 {
        events.push(Event::Request(RequestId(n), HttpRequest::get("/x", &[])));
        events.push(Event::Response(
            RequestId(n),
            HttpResponse::ok(RequestId(n), "ok"),
        ));
    }
    let mut op_logs = OpLogs::new();
    op_logs.push(
        ObjectName("kv:apc".into()),
        OpLog::from_entries(vec![
            entry(
                1,
                1,
                OpContents::KvSet {
                    key: "inv:1".into(),
                    value: Some(vec![10].into()),
                },
            ),
            entry(
                2,
                1,
                OpContents::KvSet {
                    key: "inv:1".into(),
                    value: Some(vec![9].into()),
                },
            ),
            entry(
                3,
                1,
                OpContents::KvGet {
                    key: "inv:1".into(),
                },
            ),
        ]),
    );
    op_logs.push(
        ObjectName("reg:sess:alice".into()),
        OpLog::from_entries(vec![
            entry(1, 2, OpContents::RegisterRead),
            entry(
                2,
                2,
                OpContents::RegisterWrite {
                    value: vec![7, 8].into(),
                },
            ),
        ]),
    );
    let mut op_counts = HashMap::new();
    op_counts.insert(RequestId(1), 2);
    op_counts.insert(RequestId(2), 2);
    op_counts.insert(RequestId(3), 1);
    let mut nondet = NondetLog::new();
    nondet.push(RequestId(1), NondetValue::Time(100));
    nondet.push(RequestId(1), NondetValue::Time(101));
    nondet.push(RequestId(2), NondetValue::Rand(5));
    let reports = Reports {
        groupings: vec![(
            CtlFlowTag(1),
            vec![RequestId(1), RequestId(2), RequestId(3)],
        )],
        op_logs,
        op_counts: op_counts.into_iter().collect(),
        nondet,
    };
    (Trace { events }, reports)
}

/// The pinned (seed, operator, site) regression: this exact debug
/// rendering is the replay contract for escape reports. If this test
/// breaks, seed replayability broke — fix the operator, don't repin,
/// unless the operator's site selection changed deliberately.
#[test]
fn pinned_plan_reproduces_its_sites_byte_for_byte() {
    let (mut trace, mut reports) = synthetic();
    let sites = MutationPlan {
        seed: 0xC0FFEE,
        k: 2,
    }
    .apply(&mut trace, &mut reports);
    assert_eq!(
        format!("{sites:?}"),
        "[MutationSite { operator: \"inject_response_header\", object: \"trace\", index: 5, \
         detail: \"injected header x-mutated: 1\" }, \
         MutationSite { operator: \"forge_op_count\", object: \"op_counts\", index: 2, \
         detail: \"forged M(RequestId(2)) 2 -> 3\" }]",
    );
    // And the individual fields stay addressable for escape reports.
    let MutationSite {
        operator,
        object,
        index,
        detail,
    } = sites[0].clone();
    assert!(!operator.is_empty() && !object.is_empty() && !detail.is_empty());
    let _ = index;
}

/// One sweep: `campaigns` seeded plans (k cycling 1–3) at two audit
/// threads. A survivor's `Debug` carries its plan seed, operators and
/// sites — the replay contract — so the failure message is the escape
/// report.
fn sweep(scale: f64, campaigns: usize, epoch_events: usize) {
    let r = campaign(scale, 0xC0FFEE, campaigns, 0, 2, epoch_events);
    assert!(
        r.honest_ok,
        "the honest mixed control must accept on batch-1, batch-N and streaming"
    );
    assert!(
        r.survivors.is_empty(),
        "{} of {} mutants escaped: {:#?}",
        r.survivors.len(),
        r.campaigns,
        r.survivors
    );
    assert!(r.campaigns >= 200, "a sweep is at least 200 mutants");
    assert!(
        r.operators.len() >= 10,
        "a sweep must exercise >= 10 distinct operators, got {:?}",
        r.operators
    );
}

/// CI sizing: `cargo test --release -q --test campaign -- --ignored
/// campaign_sweep_smoke`.
#[test]
#[ignore = "240 mutants; run in release"]
fn campaign_sweep_smoke() {
    sweep(0.01, 240, 64);
}

/// Nightly sizing.
#[test]
#[ignore = "1,000 mutants; run in release"]
fn campaign_sweep_full() {
    sweep(0.05, 1000, 512);
}
