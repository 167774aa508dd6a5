//! The MediaWiki-shaped workload (§5: 20,000 requests to 200 pages,
//! Zipf β = 0.53, read-dominated).

use crate::zipf::Zipf;
use crate::Workload;
use orochi_trace::HttpRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wiki workload parameters; defaults are the paper's.
#[derive(Debug, Clone)]
pub struct Params {
    /// Distinct pages (the paper downsamples to 200).
    pub pages: usize,
    /// View requests in the measured window (paper: 20,000).
    pub view_requests: usize,
    /// Zipf exponent over page popularity (paper: β = 0.53).
    pub zipf_beta: f64,
    /// Fraction of measured requests that are edits.
    pub edit_fraction: f64,
    /// Editors (each logs in during setup).
    pub editors: usize,
    /// Fraction of views carrying a session cookie (logged-in readers).
    pub logged_in_fraction: f64,
    /// Consecutive views a logged-in reader issues once they appear
    /// (their "session"); 1 reproduces the paper's independent draws.
    pub session_len: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            pages: 200,
            view_requests: 20_000,
            zipf_beta: 0.53,
            edit_fraction: 0.02,
            editors: 10,
            logged_in_fraction: 0.1,
            session_len: 1,
        }
    }
}

impl Params {
    /// The paper's parameters with the request count scaled by `f`
    /// (page count kept, so grouping opportunities shrink — pessimistic
    /// for the verifier, like the paper's downsampling note).
    pub fn scaled(f: f64) -> Self {
        let base = Params::default();
        Params {
            view_requests: ((base.view_requests as f64 * f) as usize).max(50),
            ..base
        }
    }
}

fn page_title(i: usize) -> String {
    format!("Page_{i}")
}

/// Generates the wiki workload.
pub fn generate(params: &Params, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(params.pages, params.zipf_beta);
    let mut setup = Vec::new();
    // Editors log in, then create every page.
    for e in 0..params.editors {
        let user = format!("editor{e}");
        setup.push(
            HttpRequest::post("/login.php", &[], &[("user", &user)]).with_cookie("sess", &user),
        );
    }
    for p in 0..params.pages {
        let editor = format!("editor{}", p % params.editors.max(1));
        let title = page_title(p);
        let body = format!(
            "This is revision 1 of {title}.\nIt has body text of moderate length \
             so rendered pages overlap across requests."
        );
        setup.push(
            HttpRequest::post("/edit.php", &[], &[("title", &title), ("body", &body)])
                .with_cookie("sess", &editor),
        );
    }
    // Measured mix: Zipf-distributed views with a small edit stream.
    // Logged-in readers read `session_len` consecutive pages once they
    // appear. By renewal-reward the logged-in share is p·L/(p·L+1−p),
    // so starting runs with p = f/(L − f·(L−1)) keeps the share at the
    // paper's `f` exactly, for any run length.
    let mut requests = Vec::with_capacity(params.view_requests);
    let session_len = params.session_len.max(1);
    let run_start_p = {
        let f = params.logged_in_fraction;
        let l = session_len as f64;
        f / (l - f * (l - 1.0))
    };
    let mut run: Option<(String, usize)> = None;
    for i in 0..params.view_requests {
        let roll: f64 = rng.random();
        if roll < params.edit_fraction {
            let p = zipf.sample(&mut rng) - 1;
            let editor = format!("editor{}", rng.random_range(0..params.editors.max(1)));
            let title = page_title(p);
            let body = format!("Edited body {i} of {title}.\nStill similar in shape.");
            requests.push(
                HttpRequest::post("/edit.php", &[], &[("title", &title), ("body", &body)])
                    .with_cookie("sess", &editor),
            );
        } else {
            let p = zipf.sample(&mut rng) - 1;
            let title = page_title(p);
            let req = HttpRequest::get("/wiki.php", &[("title", &title)]);
            if let Some((editor, left)) = run.take() {
                requests.push(req.with_cookie("sess", &editor));
                if left > 1 {
                    run = Some((editor, left - 1));
                }
            } else if rng.random::<f64>() < run_start_p {
                let editor = format!("editor{}", rng.random_range(0..params.editors.max(1)));
                requests.push(req.with_cookie("sess", &editor));
                if session_len > 1 {
                    run = Some((editor, session_len - 1));
                }
            } else {
                requests.push(req);
            }
        }
    }
    Workload { setup, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_creates_every_page() {
        let w = generate(&Params::scaled(0.01), 1);
        let edits = w.setup.iter().filter(|r| r.path == "/edit.php").count();
        assert_eq!(edits, Params::default().pages);
    }

    #[test]
    fn measured_mix_is_read_dominated() {
        let w = generate(&Params::scaled(0.1), 1);
        let views = w.requests.iter().filter(|r| r.path == "/wiki.php").count();
        assert!(views as f64 > w.requests.len() as f64 * 0.9);
    }

    #[test]
    fn popular_pages_dominate_views() {
        let w = generate(&Params::scaled(0.25), 5);
        let mut head = 0usize;
        let mut total = 0usize;
        for r in &w.requests {
            if r.path != "/wiki.php" {
                continue;
            }
            total += 1;
            let title = r.query_param("title").unwrap();
            let idx: usize = title.trim_start_matches("Page_").parse().unwrap();
            if idx < 20 {
                head += 1;
            }
        }
        assert!(head as f64 > total as f64 * 0.15);
    }
}
