//! Workload generators with the paper's published parameters (§5).
//!
//! The original traces are unavailable (the 2007 Wikipedia trace, the
//! CentOS forum scrape, the SIGCOMM'09 statistics), so these generators
//! reproduce the *distributions* the paper reports:
//!
//! * [`wiki`] — 20,000 requests over 200 pages with a Zipf distribution
//!   (β = 0.53), read-dominated with a small edit mix.
//! * [`forum`] — 63 posts in one popular topic area, 83 registered
//!   users, a 1:40 registered:guest view ratio, 30,000 requests.
//! * [`hotcrp`] — 269 papers, 58 reviewers, 820 reviews, 1–20 paper
//!   updates per author, two review versions, 100 page views per
//!   reviewer (~52,000 requests).
//! * [`shop`] — beyond the paper: a session-heavy storefront (Zipf
//!   products, Poisson-interleaved browse/add/checkout/abandon
//!   sessions) that front-loads the register and KV audit paths.
//!
//! Each generator produces a `Vec<HttpRequest>` the driver replays; all
//! sampling is seeded, so workloads are reproducible. The `scale`
//! parameter shrinks request counts for CI-sized runs (1.0 is the
//! paper's size).

pub mod forum;
pub mod hotcrp;
pub mod mixed;
pub mod poisson;
pub mod shop;
pub mod wiki;
pub mod zipf;

pub use poisson::poisson_arrivals;
pub use zipf::Zipf;

use orochi_trace::HttpRequest;

/// A generated workload: setup requests (run first, sequentially) and
/// the measured request body.
pub struct Workload {
    /// Setup phase: seeds application data through the application's own
    /// endpoints (runs before the audited window in real deployments;
    /// we keep it in the trace — the audit covers it too).
    pub setup: Vec<HttpRequest>,
    /// The measured request mix, in arrival order.
    pub requests: Vec<HttpRequest>,
}

impl Workload {
    /// All requests in order.
    pub fn all(self) -> Vec<HttpRequest> {
        let mut out = self.setup;
        out.extend(self.requests);
        out
    }

    /// Total request count.
    pub fn len(&self) -> usize {
        self.setup.len() + self.requests.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = wiki::generate(&wiki::Params::scaled(0.02), 1);
        let b = wiki::generate(&wiki::Params::scaled(0.02), 1);
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.requests, b.requests);
        let c = wiki::generate(&wiki::Params::scaled(0.02), 2);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn paper_parameters_are_default() {
        let w = wiki::Params::default();
        assert_eq!(w.pages, 200);
        assert_eq!(w.view_requests, 20_000);
        let f = forum::Params::default();
        assert_eq!(f.users, 83);
        assert_eq!(f.posts, 63);
        assert_eq!(f.requests, 30_000);
        let h = hotcrp::Params::default();
        assert_eq!(h.papers, 269);
        assert_eq!(h.reviewers, 58);
    }

    #[test]
    fn scaled_workloads_shrink() {
        let small = wiki::generate(&wiki::Params::scaled(0.01), 3);
        let large = wiki::generate(&wiki::Params::scaled(0.05), 3);
        assert!(small.requests.len() < large.requests.len());
        assert!(!small.is_empty());
    }
}
