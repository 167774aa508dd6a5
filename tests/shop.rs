//! The shop workload suite: the storefront app end-to-end.
//!
//! The shop exists to stress the register and versioned-KV audit paths
//! (per-session carts, check-then-act inventory counters, fragment
//! cache), so this suite pins three things:
//!
//! 1. honest serves are accepted at thread counts 1 and 8 with
//!    identical determinism-relevant counters,
//! 2. each tampering variant (forged cart total, stale inventory read,
//!    replayed KV write) is rejected with identical verdicts and
//!    diagnostics at thread counts 1 and 8, and
//! 3. the workload really is register/KV-heavy: at least half of all
//!    logged operations hit the register or KV sub-logs.

use orochi::harness::{run_audit_with, serve, AppWorkload, AuditOptions, ServeOptions};
use orochi::server::server::AuditBundle;
use orochi::trace::HttpRequest;
use orochi::workload::shop;

fn shop_work(scale: f64, seed: u64) -> AppWorkload {
    let params = shop::Params::scaled(scale);
    AppWorkload {
        app: orochi::apps::shop::app(),
        workload: shop::generate(&params, seed),
        seed_sql: shop::seed_sql(&params),
    }
}

/// Audits `bundle` at thread counts 1 and 8 and asserts both runs agree
/// exactly (verdict, diagnostics, determinism-relevant counters).
fn assert_audits_agree(
    label: &str,
    bundle: &AuditBundle,
    work: &AppWorkload,
) -> Result<(), String> {
    let at = |threads: usize| {
        run_audit_with(
            bundle,
            work,
            &AuditOptions {
                threads,
                ..Default::default()
            },
        )
    };
    let seq = at(1);
    let par = at(8);
    match (&seq, &par) {
        (Ok(s), Ok(p)) => {
            let (s, p) = (&s.outcome.stats, &p.outcome.stats);
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
                "{label}: counters diverged between 1 and 8 threads"
            );
            Ok(())
        }
        (Err(s), Err(p)) => {
            assert_eq!(
                s.to_string(),
                p.to_string(),
                "{label}: rejection diagnostics diverged between 1 and 8 threads"
            );
            Err(s.to_string())
        }
        _ => panic!(
            "{label}: verdict diverged: 1 thread {:?} vs 8 threads {:?}",
            seq.as_ref().err().map(|e| e.to_string()),
            par.as_ref().err().map(|e| e.to_string()),
        ),
    }
}

/// A small scripted flow covering every endpoint deterministically
/// (generator-independent, so failures localize to the app).
fn scripted_requests() -> Vec<HttpRequest> {
    let mut reqs = vec![
        HttpRequest::post("/login.php", &[], &[("user", "admin")]).with_cookie("sess", "admin"),
        HttpRequest::post("/login.php", &[], &[("user", "ada")]).with_cookie("sess", "c1"),
        HttpRequest::post("/login.php", &[], &[("user", "bob")]).with_cookie("sess", "c2"),
    ];
    // Browse (cold: seeds both KV entries; then warm hits).
    reqs.push(HttpRequest::get("/product.php", &[("id", "1")]).with_cookie("sess", "c1"));
    reqs.push(HttpRequest::get("/product.php", &[("id", "1")]).with_cookie("sess", "c2"));
    reqs.push(HttpRequest::get("/product.php", &[("id", "2")]));
    // Ada fills a cart and checks out.
    reqs.push(
        HttpRequest::post("/cart.php", &[], &[("id", "1"), ("qty", "2")]).with_cookie("sess", "c1"),
    );
    reqs.push(
        HttpRequest::post("/cart.php", &[], &[("id", "2"), ("qty", "1")]).with_cookie("sess", "c1"),
    );
    reqs.push(HttpRequest::post("/checkout.php", &[], &[]).with_cookie("sess", "c1"));
    // Bob abandons.
    reqs.push(
        HttpRequest::post("/cart.php", &[], &[("id", "1"), ("qty", "1")]).with_cookie("sess", "c2"),
    );
    reqs.push(HttpRequest::post("/logout.php", &[], &[]).with_cookie("sess", "c2"));
    // Admin restocks product 1 (invalidates its fragment), then a view
    // re-renders and re-caches it.
    reqs.push(
        HttpRequest::post(
            "/restock.php",
            &[],
            &[("id", "1"), ("stock", "50"), ("price", "17")],
        )
        .with_cookie("sess", "admin"),
    );
    reqs.push(HttpRequest::get("/product.php", &[("id", "1")]).with_cookie("sess", "c1"));
    // Missing product 404s.
    reqs.push(HttpRequest::get("/product.php", &[("id", "999")]));
    reqs
}

fn scripted_work() -> AppWorkload {
    let params = shop::Params::scaled(0.01);
    AppWorkload {
        app: orochi::apps::shop::app(),
        workload: orochi::workload::Workload {
            setup: Vec::new(),
            requests: scripted_requests(),
        },
        seed_sql: shop::seed_sql(&params),
    }
}

#[test]
fn scripted_flow_serves_and_audits() {
    let work = scripted_work();
    let served = serve(
        &work,
        &ServeOptions {
            threads: 1,
            ..Default::default()
        },
    );
    // The deterministic single-threaded serve lets us pin body shapes.
    let balanced = served.bundle.trace.ensure_balanced().unwrap();
    let bodies: Vec<String> = balanced
        .request_ids()
        .map(|rid| balanced.response(rid).body.clone())
        .collect();
    assert!(
        bodies.iter().any(|b| b.contains("total=32")),
        "checkout total: 2 x $10 + 1 x $12 = $32 (seed prices are 8 + 2*id)"
    );
    assert!(bodies.iter().any(|b| b.contains("1 item(s) abandoned")));
    assert!(bodies.iter().any(|b| b.contains("restocked to 50")));
    assert!(
        bodies.iter().any(|b| b.contains("$17")),
        "re-rendered fragment shows the new price"
    );
    assert_audits_agree("scripted", &served.bundle, &work).expect("honest scripted flow accepted");
}

#[test]
fn honest_generated_workload_accepts_at_1_and_8_threads() {
    let work = shop_work(0.02, 7);
    let served = serve(&work, &ServeOptions::default());
    assert_eq!(served.requests as usize, work.workload.len());
    assert_audits_agree("generated", &served.bundle, &work)
        .expect("honest generated workload accepted");
}

#[test]
fn majority_of_shop_ops_hit_register_or_kv_sublogs() {
    let work = shop_work(0.02, 11);
    let served = serve(&work, &ServeOptions::default());
    let mut reg_kv = 0usize;
    let mut total = 0usize;
    for (_, name, log) in served.bundle.reports.op_logs.iter() {
        total += log.len();
        if name.as_str().starts_with("reg:") || name.as_str().starts_with("kv:") {
            reg_kv += log.len();
        }
    }
    assert!(total > 0);
    let share = reg_kv as f64 / total as f64;
    assert!(
        share >= 0.5,
        "register/KV share {share:.3} below the 50% the shop exists to provide \
         ({reg_kv}/{total} ops)"
    );
}

#[test]
fn forged_cart_total_rejected_identically() {
    let work = shop_work(0.02, 13);
    let mut served = serve(&work, &ServeOptions::default());
    assert!(
        orochi::harness::tamper::forge_cart_total(&mut served.bundle.trace),
        "workload produces a checkout to forge"
    );
    let diag = assert_audits_agree("forged-total", &served.bundle, &work)
        .expect_err("forged cart total must be rejected");
    assert!(!diag.is_empty());
}

#[test]
fn stale_inventory_read_rejected_identically() {
    let work = shop_work(0.02, 17);
    let mut served = serve(&work, &ServeOptions::default());
    assert!(
        orochi::harness::tamper::reorder_kv_read(&mut served.bundle.reports, "inv:"),
        "workload produces an inventory read to make stale"
    );
    assert_audits_agree("stale-inventory", &served.bundle, &work)
        .expect_err("stale inventory read must be rejected");
}

#[test]
fn replayed_kv_write_rejected_identically() {
    let work = shop_work(0.02, 19);
    let mut served = serve(&work, &ServeOptions::default());
    assert!(
        orochi::harness::tamper::replay_kv_write(&mut served.bundle.reports, "inv:"),
        "workload produces a KV write to replay"
    );
    assert_audits_agree("replayed-write", &served.bundle, &work)
        .expect_err("replayed KV write must be rejected");
}
