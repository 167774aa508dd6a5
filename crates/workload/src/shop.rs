//! The storefront workload: a session state machine over Zipf-skewed
//! products with a Poisson open-loop session mix.
//!
//! Unlike the three paper workloads (flat request mixes), the shop
//! generator synthesizes *sessions*: each customer logs in (setup),
//! then browses a geometric number of Zipf-popular products, adds some
//! to the cart, and finally checks out or abandons. Sessions arrive as
//! a Poisson process and think between steps, and the per-session
//! streams are merged in virtual-arrival order — so concurrent sessions
//! interleave on the shared inventory counters and fragment cache
//! exactly where the check-then-act KV races live. A thin admin stream
//! restocks hot products, exercising cache invalidation.
//!
//! Every request in the measured mix opens a session register and most
//! touch the KV store, which is the point: this workload front-loads
//! the register and versioned-KV audit paths the SQL-dominated
//! workloads underuse.

use crate::zipf::Zipf;
use crate::Workload;
use orochi_trace::HttpRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shop workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Catalog size.
    pub products: usize,
    /// Customer sessions in the measured window (one distinct session
    /// cookie each).
    pub sessions: usize,
    /// Zipf exponent over product popularity.
    pub zipf_theta: f64,
    /// Mean browse steps per session (geometric).
    pub mean_session_len: f64,
    /// Probability a logged-in browse step also adds to the cart.
    pub add_fraction: f64,
    /// Probability a non-empty cart checks out (vs abandons).
    pub checkout_fraction: f64,
    /// Fraction of sessions that browse anonymously (no cookie, no
    /// register traffic) — kept small; the shop is session-heavy.
    pub guest_fraction: f64,
    /// One admin restock request per this many sessions.
    pub restock_every: usize,
    /// Session arrivals per (virtual) second, for the interleave order.
    pub arrival_rate: f64,
    /// Think steps per (virtual) second within a session.
    pub think_rate: f64,
    /// Initial stock per product.
    pub initial_stock: i64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            products: 120,
            sessions: 3_000,
            zipf_theta: 0.95,
            mean_session_len: 4.0,
            add_fraction: 0.5,
            checkout_fraction: 0.35,
            guest_fraction: 0.2,
            restock_every: 25,
            arrival_rate: 40.0,
            think_rate: 2.0,
            initial_stock: 1_000,
        }
    }
}

impl Params {
    /// Default parameters with the session count scaled by `f` (catalog
    /// kept, like the other workloads' downsampling).
    pub fn scaled(f: f64) -> Self {
        let base = Params::default();
        Params {
            sessions: ((base.sessions as f64 * f) as usize).max(40),
            ..base
        }
    }
}

/// SQL seeding the catalog and inventory (applied on both the server
/// and the verifier sides). Prices follow `8 + 2*id` so tests can
/// predict cart totals.
pub fn seed_sql(params: &Params) -> Vec<String> {
    let mut out = Vec::new();
    for p in 1..=params.products {
        out.push(format!(
            "INSERT INTO products (name, price) VALUES ('Product {p}', {})",
            8 + 2 * p
        ));
        out.push(format!(
            "INSERT INTO inventory (product_id, stock) VALUES ({p}, {})",
            params.initial_stock
        ));
    }
    out
}

/// One session's requests, in order.
fn session_requests(
    params: &Params,
    cookie: Option<&str>,
    zipf: &Zipf,
    rng: &mut StdRng,
) -> Vec<HttpRequest> {
    let mut out = Vec::new();
    let mut cart_items = 0usize;
    // Geometric session length with the configured mean, at least one
    // browse step.
    let p_stop = 1.0 / params.mean_session_len.max(1.0);
    loop {
        let product = zipf.sample(rng).to_string();
        let browse = HttpRequest::get("/product.php", &[("id", &product)]);
        match cookie {
            Some(c) => {
                out.push(browse.with_cookie("sess", c));
                if rng.random::<f64>() < params.add_fraction {
                    let qty = rng.random_range(1..=3u32).to_string();
                    out.push(
                        HttpRequest::post("/cart.php", &[], &[("id", &product), ("qty", &qty)])
                            .with_cookie("sess", c),
                    );
                    cart_items += 1;
                }
            }
            None => out.push(browse),
        }
        if rng.random::<f64>() < p_stop {
            break;
        }
    }
    if let Some(c) = cookie {
        if cart_items > 0 && rng.random::<f64>() < params.checkout_fraction {
            out.push(HttpRequest::post("/checkout.php", &[], &[]).with_cookie("sess", c));
        } else {
            out.push(HttpRequest::post("/logout.php", &[], &[]).with_cookie("sess", c));
        }
    }
    out
}

/// Generates the shop workload. Setup logs the admin and every
/// registered customer in (sequentially, like the other workloads);
/// the measured mix is the Poisson-interleaved session stream.
pub fn generate(params: &Params, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(params.products, params.zipf_theta);

    let mut setup = vec![
        HttpRequest::post("/login.php", &[], &[("user", "admin")]).with_cookie("sess", "admin")
    ];
    // Decide each session's identity up front so setup can log in
    // exactly the customers that will shop.
    let logged_in: Vec<bool> = (0..params.sessions)
        .map(|_| rng.random::<f64>() >= params.guest_fraction)
        .collect();
    for (s, yes) in logged_in.iter().enumerate() {
        if *yes {
            let user = format!("cust{s}");
            setup.push(
                HttpRequest::post("/login.php", &[], &[("user", &user)])
                    .with_cookie("sess", &format!("c{s}")),
            );
        }
    }

    // Build per-session request streams stamped with virtual times:
    // session starts are a Poisson process, think gaps are exponential.
    let mut timed: Vec<(f64, usize, HttpRequest)> = Vec::new();
    let mut start = 0.0f64;
    for (s, yes) in logged_in.iter().enumerate() {
        let u: f64 = rng.random();
        start += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / params.arrival_rate;
        let cookie = format!("c{s}");
        let reqs = session_requests(params, yes.then_some(cookie.as_str()), &zipf, &mut rng);
        let mut t = start;
        for req in reqs {
            let u: f64 = rng.random();
            t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / params.think_rate;
            timed.push((t, timed.len(), req));
        }
        // A thin admin restock stream rides along, re-pricing a popular
        // product and invalidating its cached fragment.
        if params.restock_every > 0 && s % params.restock_every == params.restock_every - 1 {
            let product = zipf.sample(&mut rng).to_string();
            let stock = params.initial_stock.to_string();
            let price = rng.random_range(5..40u32).to_string();
            timed.push((
                start,
                timed.len(),
                HttpRequest::post(
                    "/restock.php",
                    &[],
                    &[("id", &product), ("stock", &stock), ("price", &price)],
                )
                .with_cookie("sess", "admin"),
            ));
        }
    }
    // Merge by virtual arrival; the insertion index breaks ties
    // deterministically. Per-session order is preserved because each
    // session's timestamps increase.
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let requests = timed.into_iter().map(|(_, _, req)| req).collect();
    Workload { setup, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = Params::scaled(0.02);
        let a = generate(&p, 5);
        let b = generate(&p, 5);
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.requests, b.requests);
        assert_ne!(generate(&p, 6).requests, a.requests);
    }

    #[test]
    fn sessions_keep_their_internal_order() {
        let w = generate(&Params::scaled(0.05), 3);
        // For every cookie, the terminal request (checkout or logout)
        // must come after all of that cookie's browses/adds.
        use std::collections::HashMap;
        let mut last_terminal: HashMap<&str, usize> = HashMap::new();
        let mut last_any: HashMap<&str, usize> = HashMap::new();
        for (i, r) in w.requests.iter().enumerate() {
            if let Some(c) = r.cookie("sess") {
                if c == "admin" {
                    continue;
                }
                last_any.insert(c, i);
                if r.path == "/checkout.php" || r.path == "/logout.php" {
                    last_terminal.insert(c, i);
                }
            }
        }
        assert!(!last_terminal.is_empty());
        for (c, t) in &last_terminal {
            assert_eq!(last_any[c], *t, "session {c}: terminal request is not last");
        }
    }

    #[test]
    fn popular_products_dominate() {
        let w = generate(&Params::scaled(0.25), 9);
        let mut head = 0usize;
        let mut total = 0usize;
        for r in &w.requests {
            if r.path != "/product.php" {
                continue;
            }
            total += 1;
            let id: usize = r.query_param("id").unwrap().parse().unwrap();
            if id <= 12 {
                head += 1;
            }
        }
        assert!(total > 0);
        assert!(
            head as f64 > total as f64 * 0.3,
            "Zipf head share {head}/{total}"
        );
    }

    #[test]
    fn most_sessions_are_registered() {
        let p = Params::scaled(0.25);
        let w = generate(&p, 4);
        let logins = w.setup.iter().filter(|r| r.path == "/login.php").count();
        // admin + roughly (1 - guest_fraction) of the sessions.
        let expect = 1.0 + p.sessions as f64 * (1.0 - p.guest_fraction);
        assert!(
            (logins as f64) > expect * 0.8 && (logins as f64) < expect * 1.2,
            "{logins} logins vs expected ~{expect}"
        );
    }
}
