//! The phpBB-shaped workload (§5: 63 posts, 83 users, 1:40
//! registered:guest view ratio, 30,000 requests).
//!
//! Our forum app has no admin endpoint for creating topics, so the setup
//! phase creates one topic per original post through replies from a
//! "seed" user — the shapes that matter (reads of a hot topic, counter
//! updates from registered viewers, reply transactions) are preserved.

use crate::zipf::Zipf;
use crate::Workload;
use orochi_trace::HttpRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forum workload parameters; defaults are the paper's.
#[derive(Debug, Clone)]
pub struct Params {
    /// Posts in the chosen topic area (paper: 63).
    pub posts: usize,
    /// Registered users (paper: 83, the distinct posters).
    pub users: usize,
    /// Measured requests (paper: 30,000).
    pub requests: usize,
    /// Guests per registered viewer (paper: 1:40).
    pub guest_ratio: u32,
    /// Fraction of measured requests that are replies.
    pub reply_fraction: f64,
    /// Zipf exponent over topic popularity ("tens to thousands of views
    /// per post" — previously a hardcoded cubed-uniform draw).
    pub topic_theta: f64,
    /// Consecutive topic views a registered viewer issues once they
    /// appear; 1 reproduces independent draws.
    pub session_len: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            posts: 63,
            users: 83,
            requests: 30_000,
            guest_ratio: 40,
            reply_fraction: 0.01,
            topic_theta: 1.3,
            session_len: 1,
        }
    }
}

impl Params {
    /// The paper's parameters with the measured request count scaled.
    pub fn scaled(f: f64) -> Self {
        let base = Params::default();
        Params {
            requests: ((base.requests as f64 * f) as usize).max(50),
            ..base
        }
    }
}

/// Generates the forum workload. Topics are seeded via the forum's own
/// database by the harness (see `seed_sql`); setup logs users in.
pub fn generate(params: &Params, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(params.posts, params.topic_theta);
    let mut setup = Vec::new();
    for u in 0..params.users {
        let name = format!("user{u}");
        setup.push(
            HttpRequest::post("/login.php", &[], &[("user", &name)]).with_cookie("sess", &name),
        );
    }
    let mut requests = Vec::with_capacity(params.requests);
    // Registered viewers read `session_len` consecutive pages once they
    // appear; the appearance rate shrinks accordingly so the overall
    // registered:guest ratio stays at the paper's 1:40.
    let mut run: Option<(String, usize)> = None;
    for i in 0..params.requests {
        let roll: f64 = rng.random();
        if roll < params.reply_fraction {
            let user = format!("user{}", rng.random_range(0..params.users));
            let topic = rng.random_range(1..=params.posts);
            let body = format!("reply {i} in topic {topic}\nagreeing with the above");
            requests.push(
                HttpRequest::post(
                    "/reply.php",
                    &[],
                    &[("id", &topic.to_string()), ("body", &body)],
                )
                .with_cookie("sess", &user),
            );
        } else if roll < params.reply_fraction + 0.1 {
            // Topic index views.
            let req = HttpRequest::get("/forum.php", &[]);
            requests.push(maybe_logged_in(req, params, &mut rng, &mut run));
        } else {
            // Topic views: hot topics get most of the traffic
            // ("tens to thousands of views per post").
            let topic = zipf.sample(&mut rng);
            let req = HttpRequest::get("/topic.php", &[("id", &topic.to_string())]);
            requests.push(maybe_logged_in(req, params, &mut rng, &mut run));
        }
    }
    Workload { setup, requests }
}

fn maybe_logged_in(
    req: HttpRequest,
    params: &Params,
    rng: &mut StdRng,
    run: &mut Option<(String, usize)>,
) -> HttpRequest {
    let session_len = params.session_len.max(1);
    if let Some((user, left)) = run.take() {
        let req = req.with_cookie("sess", &user);
        if left > 1 {
            *run = Some((user, left - 1));
        }
        return req;
    }
    // 1 registered viewer per `guest_ratio` guests, appearance rate
    // divided by the run length they will read (u64: the knob accepts
    // session lengths big enough to overflow the u32 product).
    if rng.random_range(0..=params.guest_ratio as u64 * session_len as u64) == 0 {
        let user = format!("user{}", rng.random_range(0..params.users));
        if session_len > 1 {
            *run = Some((user.clone(), session_len - 1));
        }
        req.with_cookie("sess", &user)
    } else {
        req
    }
}

/// SQL statements that seed the topics and original posts (run against
/// the initial database before serving, on both the server and the
/// verifier sides).
pub fn seed_sql(params: &Params) -> Vec<String> {
    let mut out = Vec::new();
    for t in 1..=params.posts {
        out.push(format!(
            "INSERT INTO topics (title, views, replies) VALUES ('Topic {t}', 0, 0)"
        ));
        out.push(format!(
            "INSERT INTO posts (topic_id, author, body, ts) VALUES \
             ({t}, 'user{}', 'original post of topic {t}', 1000)",
            t % Params::default().users
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_ratio_approximately_held() {
        let w = generate(&Params::scaled(0.5), 1);
        let mut logged_in = 0usize;
        let mut guests = 0usize;
        for r in &w.requests {
            if r.path == "/topic.php" || r.path == "/forum.php" {
                if r.cookie("sess").is_some() {
                    logged_in += 1;
                } else {
                    guests += 1;
                }
            }
        }
        let ratio = guests as f64 / logged_in.max(1) as f64;
        assert!(
            (20.0..=80.0).contains(&ratio),
            "guest:registered ratio {ratio}"
        );
    }

    #[test]
    fn seed_sql_covers_every_topic() {
        let sql = seed_sql(&Params::default());
        assert_eq!(sql.len(), 63 * 2);
    }

    #[test]
    fn replies_come_from_registered_users() {
        let w = generate(&Params::scaled(1.0), 2);
        for r in &w.requests {
            if r.path == "/reply.php" {
                assert!(r.cookie("sess").is_some());
            }
        }
    }
}
