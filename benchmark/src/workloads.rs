//! The four named workloads. Each is generated from `--seed` alone:
//! no `OROCHI_*` environment knob is read on any path the benchmark
//! takes (`skew::from_env` and the `*_from_env` helpers are never
//! called; parameters, engine and thread counts are passed
//! explicitly).

use orochi_harness::driver::AppWorkload;
use orochi_workload::{hotcrp, mixed, shop, wiki, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Wiki,
    Hotcrp,
    Shop,
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub app: App,
    /// Multiple of the paper-scale parameters (`Params::scaled`).
    pub scale: f64,
    /// Served by `W = min(nproc, 4)` workers (a concurrent,
    /// non-deterministic trace) instead of by one worker.
    pub live: bool,
    /// Why the workload is in the set (one line, repeated in
    /// `BENCHMARK.json` and the README).
    pub why: &'static str,
}

/// Sizes are a quarter of the request counts ISSUE 11 names, so that a
/// run (three set-ups, five rounds of four fresh-process audits, the
/// tamper control) fits the driver's time cap; see README.md.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "wiki-audit",
        app: App::Wiki,
        scale: 0.5,
        live: false,
        why: "wiki x0.5, 10.2k requests, 1 worker: read-mostly, highest dispatch dedup; trace decode/balance, output compare and the univalent group-VM path show here",
    },
    Spec {
        name: "hotcrp-audit",
        app: App::Hotcrp,
        scale: 0.25,
        live: false,
        why: "hotcrp x0.25, 6.8k requests, 1 worker: all transactional, a few huge groups; versioned-DB redo, query dedup and multivalent lanes do the work, KV/register paths idle",
    },
    Spec {
        name: "shop-audit",
        app: App::Shop,
        scale: 0.75,
        live: false,
        why: "shop x0.75, 16.4k requests, 1 worker: registers and KV dominate and SQL is nearly bypassed; an SQL-side gain must show no change here, orochi_state sets the prologue",
    },
    Spec {
        name: "mixed-live",
        app: App::Mixed,
        scale: 0.125,
        live: true,
        why: "mixed x0.125, 11.7k requests, min(nproc,4) workers: four tenants, a concurrent trace sealed per epoch for the streaming driver; store writes, carry set and serving path count",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Most events a streaming epoch may hold (a quarter of ISSUE 11's
/// 8,192, like the workload sizes, so the epoch loop still turns
/// several times).
pub const EPOCH_EVENTS: usize = 2048;

/// The epoch size for a trace of `events` events: the fewest epochs of
/// at most [`EPOCH_EVENTS`], all the same size (±1). A fixed size would
/// leave a last epoch of anything from 1 to 2,048 events depending on
/// the seed, and `seal_to_verdict_s` — which times that epoch — would
/// mostly measure the remainder.
pub fn epoch_size(events: usize) -> usize {
    let epochs = events.div_ceil(EPOCH_EVENTS).max(1);
    events.div_ceil(epochs).max(1)
}

/// Front-end workers for `live` workloads and audit threads for the
/// parallel arm: `min(nproc, 4)`.
pub fn pool_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

impl Spec {
    /// Front-end workers serving this workload.
    pub fn serve_workers(&self) -> usize {
        if self.live {
            pool_width()
        } else {
            1
        }
    }

    /// The application, its request stream for `seed`, and the SQL
    /// seeding the initial database. `scale_mult` shrinks the workload
    /// for smoke tests (1.0 in every measured run).
    pub fn generate(&self, scale_mult: f64, seed: u64) -> AppWorkload {
        let f = self.scale * scale_mult;
        let workload = match self.app {
            App::Wiki => wiki::generate(&wiki::Params::scaled(f), seed),
            App::Hotcrp => hotcrp::generate(&hotcrp::Params::scaled(f), seed),
            App::Shop => shop::generate(&shop::Params::scaled(f), seed),
            App::Mixed => mixed::generate(&mixed::Params::scaled(f), seed),
        };
        AppWorkload {
            workload,
            ..self.verifier_side(scale_mult)
        }
    }

    /// What the verifier holds before it opens the store: the
    /// application and the initial database, but no request stream
    /// (requests reach it only through the trace).
    pub fn verifier_side(&self, scale_mult: f64) -> AppWorkload {
        let f = self.scale * scale_mult;
        let (app, seed_sql) = match self.app {
            App::Wiki => (orochi_apps::wiki::app(), Vec::new()),
            App::Hotcrp => (orochi_apps::hotcrp::app(), Vec::new()),
            App::Shop => (
                orochi_apps::shop::app(),
                shop::seed_sql(&shop::Params::scaled(f)),
            ),
            App::Mixed => (
                orochi_apps::mixed::app(),
                mixed::seed_sql(&mixed::Params::scaled(f)),
            ),
        };
        AppWorkload {
            app,
            workload: Workload {
                setup: Vec::new(),
                requests: Vec::new(),
            },
            seed_sql,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_verifier_side_matches() {
        for spec in &SPECS {
            let a = spec.generate(0.02, 7);
            let b = spec.generate(0.02, 7);
            assert_eq!(a.workload.requests, b.workload.requests, "{}", spec.name);
            assert_eq!(a.workload.setup, b.workload.setup, "{}", spec.name);
            let c = spec.generate(0.02, 8);
            assert_ne!(a.workload.requests, c.workload.requests, "{}", spec.name);
            let v = spec.verifier_side(0.02);
            assert_eq!(v.seed_sql, a.seed_sql, "{}", spec.name);
            assert!(v.workload.is_empty());
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn epochs_are_equal_and_within_the_cap() {
        assert_eq!(epoch_size(0), 1);
        assert_eq!(epoch_size(2048), 2048);
        assert_eq!(epoch_size(2049), 1025);
        assert_eq!(epoch_size(20420), 2042);
        for events in [1usize, 100, 4097, 33058, 65536] {
            let size = epoch_size(events);
            assert!(size <= EPOCH_EVENTS);
            assert_eq!(events.div_ceil(size), events.div_ceil(EPOCH_EVENTS));
        }
    }
}
