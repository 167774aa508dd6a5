//! The mixed multi-tenant workload: all four applications interleaved
//! through one front-end.
//!
//! Each tenant's workload is generated by its own generator with a
//! tenant-derived seed, then *rebased* into the mixed application's
//! namespace: request paths move under `/<tenant>/…` (matching
//! `orochi_apps::mixed`'s script re-rooting) and session cookie values
//! gain a `<tenant>:` prefix so tenants land on disjoint register
//! objects (`reg:sess:<value>`). Setup phases run tenant-by-tenant in
//! route order; the measured bodies are interleaved by a seeded
//! proportional draw, so a shop checkout can land between two wiki
//! views and the audit's control-flow grouping sees a genuinely mixed
//! stream. Everything is deterministic in `(params, seed)`.

use crate::{forum, hotcrp, shop, wiki, Workload};
use orochi_trace::HttpRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tenant route prefixes, in the same order as `orochi_apps::all_apps`.
pub const TENANTS: [&str; 4] = ["wiki", "forum", "hotcrp", "shop"];

/// Per-tenant parameters for the mixed workload.
#[derive(Debug, Clone, Default)]
pub struct Params {
    /// Wiki tenant parameters.
    pub wiki: wiki::Params,
    /// Forum tenant parameters.
    pub forum: forum::Params,
    /// HotCRP tenant parameters.
    pub hotcrp: hotcrp::Params,
    /// Shop tenant parameters.
    pub shop: shop::Params,
}

impl Params {
    /// Paper-scale parameters shrunk by `f` for CI-sized runs, every
    /// tenant scaled the same way.
    pub fn scaled(f: f64) -> Self {
        Params {
            wiki: wiki::Params::scaled(f),
            forum: forum::Params::scaled(f),
            hotcrp: hotcrp::Params::scaled(f),
            shop: shop::Params::scaled(f),
        }
    }
}

/// SQL seed rows for the tenants that seed via SQL (forum topics/posts,
/// shop catalog); wiki and hotcrp seed through their own endpoints in
/// the setup phase. Table names are disjoint across tenants, so the
/// statements apply to the one shared database unchanged.
pub fn seed_sql(params: &Params) -> Vec<String> {
    let mut out = forum::seed_sql(&params.forum);
    out.extend(shop::seed_sql(&params.shop));
    out
}

/// Moves a request into a tenant's namespace: path under `/<tenant>`,
/// session cookie values prefixed `<tenant>:`. Cookie *values* are safe
/// to rewrite because the apps use them only as session identity (the
/// VM maps them to register object names) and never compare them to
/// request fields.
fn rebase(mut req: HttpRequest, tenant: &str) -> HttpRequest {
    req.path = format!("/{tenant}{}", req.path);
    for (name, value) in &mut req.cookies {
        if name == "sess" {
            *value = format!("{tenant}:{value}");
        }
    }
    req
}

/// Generates the mixed workload: per-tenant generation with derived
/// seeds, tenant-ordered setup, seeded proportional interleave of the
/// measured bodies.
pub fn generate(params: &Params, seed: u64) -> Workload {
    let tenant_seed = |i: u64| seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let parts = [
        wiki::generate(&params.wiki, tenant_seed(0)),
        forum::generate(&params.forum, tenant_seed(1)),
        hotcrp::generate(&params.hotcrp, tenant_seed(2)),
        shop::generate(&params.shop, tenant_seed(3)),
    ];

    let mut setup = Vec::new();
    let mut queues: Vec<std::collections::VecDeque<HttpRequest>> = Vec::new();
    for (tenant, part) in TENANTS.iter().zip(parts) {
        setup.extend(part.setup.into_iter().map(|r| rebase(r, tenant)));
        queues.push(
            part.requests
                .into_iter()
                .map(|r| rebase(r, tenant))
                .collect(),
        );
    }

    // Proportional interleave: at each step draw a tenant with
    // probability proportional to its remaining request count, so the
    // relative order *within* a tenant (and thus its session structure)
    // is preserved while the cross-tenant stream mixes evenly.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6D69_7865_6421);
    let mut requests = Vec::with_capacity(queues.iter().map(|q| q.len()).sum());
    let mut total: usize = queues.iter().map(|q| q.len()).sum();
    while total > 0 {
        let mut r = rng.random_range(0..total);
        for q in &mut queues {
            if r < q.len() {
                requests.push(q.pop_front().expect("non-empty queue"));
                total -= 1;
                break;
            }
            r -= q.len();
        }
    }

    Workload { setup, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_is_deterministic() {
        let p = Params::scaled(0.01);
        let a = generate(&p, 7);
        let b = generate(&p, 7);
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.requests, b.requests);
        let c = generate(&p, 8);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn every_request_is_rebased_under_a_tenant() {
        let p = Params::scaled(0.01);
        let w = generate(&p, 3);
        assert!(!w.is_empty());
        for req in w.setup.iter().chain(w.requests.iter()) {
            assert!(
                TENANTS
                    .iter()
                    .any(|t| req.path.starts_with(&format!("/{t}/"))),
                "unrooted path {}",
                req.path
            );
            if let Some(sess) = req.cookie("sess") {
                let tenant = req.path[1..].split('/').next().unwrap();
                assert!(
                    sess.starts_with(&format!("{tenant}:")),
                    "cookie {sess} not sharded for {}",
                    req.path
                );
            }
        }
    }

    #[test]
    fn all_four_tenants_appear_in_the_measured_body() {
        let p = Params::scaled(0.01);
        let w = generate(&p, 11);
        for t in TENANTS {
            assert!(
                w.requests
                    .iter()
                    .any(|r| r.path.starts_with(&format!("/{t}/"))),
                "tenant {t} missing from the mix"
            );
        }
    }

    #[test]
    fn interleave_preserves_per_tenant_order() {
        let p = Params::scaled(0.01);
        let seed = 5;
        let mixed = generate(&p, seed);
        let solo = wiki::generate(&p.wiki, seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mixed_wiki: Vec<&HttpRequest> = mixed
            .requests
            .iter()
            .filter(|r| r.path.starts_with("/wiki/"))
            .collect();
        let rebased: Vec<HttpRequest> = solo
            .requests
            .into_iter()
            .map(|r| super::rebase(r, "wiki"))
            .collect();
        assert_eq!(mixed_wiki.len(), rebased.len());
        for (got, want) in mixed_wiki.iter().zip(rebased.iter()) {
            assert_eq!(**got, *want);
        }
    }
}
