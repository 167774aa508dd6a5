//! The HotCRP-shaped workload (§5: 269 papers, 58 reviewers, 820
//! reviews of average length 3,625 characters; one author submits one
//! paper with 1–20 updates; each paper gets 3 reviews, each submitted
//! twice; each reviewer views 100 pages — ~52,000 requests).

use crate::zipf::Zipf;
use crate::Workload;
use orochi_trace::HttpRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// HotCRP workload parameters; defaults are the paper's.
#[derive(Debug, Clone)]
pub struct Params {
    /// Submitted papers (paper: 269).
    pub papers: usize,
    /// Reviewers (paper: 58).
    pub reviewers: usize,
    /// Reviews per paper (paper: 3).
    pub reviews_per_paper: usize,
    /// Versions submitted per review (paper: 2).
    pub review_versions: usize,
    /// Page views per reviewer (paper: 100).
    pub views_per_reviewer: usize,
    /// Maximum updates per paper, uniform 1..=max (paper: 20).
    pub max_updates: usize,
    /// Page views per author. The paper's itemized parameters sum to
    /// ~11k requests against a stated total of 52k; we attribute the
    /// residual volume to paper-page views by authors (documented in
    /// DESIGN.md).
    pub views_per_author: usize,
    /// Average review body length in characters (paper: 3,625).
    pub review_len: usize,
    /// Zipf exponent over which papers reviewers browse (0 = uniform,
    /// the paper's implicit shape).
    pub view_theta: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            papers: 269,
            reviewers: 58,
            reviews_per_paper: 3,
            review_versions: 2,
            views_per_reviewer: 100,
            max_updates: 20,
            views_per_author: 155,
            review_len: 3_625,
            view_theta: 0.0,
        }
    }
}

impl Params {
    /// Scales the volume knobs while keeping the population shape.
    pub fn scaled(f: f64) -> Self {
        let base = Params::default();
        Params {
            papers: ((base.papers as f64 * f) as usize).max(5),
            reviewers: ((base.reviewers as f64 * f) as usize).max(3),
            views_per_reviewer: ((base.views_per_reviewer as f64 * f.sqrt()) as usize).max(5),
            max_updates: ((base.max_updates as f64 * f.sqrt()) as usize).max(2),
            views_per_author: ((base.views_per_author as f64 * f.sqrt()) as usize).max(3),
            review_len: ((base.review_len as f64 * f.max(0.05)) as usize).max(80),
            ..base
        }
    }
}

fn review_body(paper: usize, reviewer: usize, version: usize, len: usize) -> String {
    let seed =
        format!("Review v{version} of paper {paper} by reviewer {reviewer}: the approach is ");
    let filler = "sound and the evaluation is thorough. ";
    let mut body = seed;
    while body.len() < len {
        body.push_str(filler);
    }
    body.truncate(len);
    body
}

/// Generates the HotCRP workload.
pub fn generate(params: &Params, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup = Vec::new();
    // Authors (one per paper) and reviewers log in.
    for p in 0..params.papers {
        let who = format!("author{p}");
        setup
            .push(HttpRequest::post("/login.php", &[], &[("who", &who)]).with_cookie("sess", &who));
    }
    for r in 0..params.reviewers {
        let who = format!("rev{r}");
        setup
            .push(HttpRequest::post("/login.php", &[], &[("who", &who)]).with_cookie("sess", &who));
    }
    let mut requests = Vec::new();
    // Submissions: one valid paper per author, then 1..=max updates.
    for p in 0..params.papers {
        let who = format!("author{p}");
        let title = format!("Paper {p}");
        let updates = rng.random_range(1..=params.max_updates.max(1));
        for u in 0..=updates {
            let abstract_text =
                format!("Abstract (take {u}) of {title}: we audit untrusted servers efficiently.");
            requests.push(
                HttpRequest::post(
                    "/submit.php",
                    &[],
                    &[("title", &title), ("abstract", &abstract_text)],
                )
                .with_cookie("sess", &who),
            );
        }
    }
    // Reviews: round-robin reviewers over papers, two versions each.
    let mut review_no = 0usize;
    for p in 0..params.papers {
        for k in 0..params.reviews_per_paper {
            let reviewer = (p * params.reviews_per_paper + k) % params.reviewers;
            let who = format!("rev{reviewer}");
            let paper_id = (p + 1).to_string();
            for v in 1..=params.review_versions {
                let score = 1 + ((p + k + v) % 5);
                let body = review_body(p, reviewer, v, params.review_len);
                requests.push(
                    HttpRequest::post(
                        "/review.php",
                        &[],
                        &[
                            ("id", &paper_id),
                            ("score", &score.to_string()),
                            ("body", &body),
                        ],
                    )
                    .with_cookie("sess", &who),
                );
            }
            review_no += 1;
        }
    }
    let _ = review_no;
    // Page views: authors watch their own paper's page.
    for p in 0..params.papers {
        let who = format!("author{p}");
        let paper_id = (p + 1).to_string();
        for v in 0..params.views_per_author {
            if v % 20 == 0 {
                requests.push(HttpRequest::get("/list.php", &[]).with_cookie("sess", &who));
            } else {
                requests.push(
                    HttpRequest::get("/paper.php", &[("id", &paper_id)]).with_cookie("sess", &who),
                );
            }
        }
    }
    // Page views: each reviewer browses papers and the list. With
    // `view_theta` 0 the Zipf draw is uniform-ish (the paper's implicit
    // shape); a larger `view_theta` concentrates attention on hot papers.
    let view_zipf = Zipf::new(params.papers, params.view_theta);
    for r in 0..params.reviewers {
        let who = format!("rev{r}");
        for v in 0..params.views_per_reviewer {
            if v % 10 == 0 {
                requests.push(HttpRequest::get("/list.php", &[]).with_cookie("sess", &who));
            } else {
                let paper = view_zipf.sample(&mut rng);
                requests.push(
                    HttpRequest::get("/paper.php", &[("id", &paper.to_string())])
                        .with_cookie("sess", &who),
                );
            }
        }
    }
    Workload { setup, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_workload_matches_paper_scale() {
        let w = generate(&Params::default(), 1);
        // ~269 submissions × avg 11.5 updates + 269×3×2 reviews + 58×100
        // views ≈ 52k, the paper's figure.
        let total = w.len();
        assert!(
            (35_000..70_000).contains(&total),
            "total {total} out of expected envelope"
        );
    }

    #[test]
    fn reviews_have_requested_length() {
        let p = Params::scaled(0.05);
        let w = generate(&p, 2);
        let body_len = w
            .requests
            .iter()
            .filter(|r| r.path == "/review.php")
            .map(|r| {
                r.post
                    .iter()
                    .find(|(k, _)| k == "body")
                    .map(|(_, v)| v.len())
                    .unwrap_or(0)
            })
            .next()
            .unwrap();
        assert_eq!(body_len, p.review_len);
    }

    #[test]
    fn every_paper_gets_reviews() {
        let p = Params::scaled(0.05);
        let w = generate(&p, 3);
        let review_count = w
            .requests
            .iter()
            .filter(|r| r.path == "/review.php")
            .count();
        assert_eq!(
            review_count,
            p.papers * p.reviews_per_paper * p.review_versions
        );
    }
}
