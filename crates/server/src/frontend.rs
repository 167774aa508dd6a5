//! The serving front-end: a bounded admission queue feeding a fixed
//! worker pool.
//!
//! The online executor's concurrency model is one thread per request
//! (§3.2), but a production deployment does not spawn a thread per
//! arriving connection — it admits requests into a queue and serves
//! them from a fixed pool. [`Frontend`] is that spine, shared by every
//! serving mode in the harness:
//!
//! * **closed-loop** serving submits requests with backpressure
//!   ([`ShedPolicy::Block`]): a full queue stalls the submitter, never
//!   drops work;
//! * **open-loop** serving submits requests at their scheduled arrival
//!   times and may configure load shedding ([`ShedPolicy::Shed`]): when
//!   the bounded queue is full the request is refused at admission — it
//!   never reaches the collector, so the trace stays balanced and the
//!   audit is unaffected (a shed request is one the middlebox never saw
//!   enter the executor).
//!
//! Each worker owns its latency buffer and drives [`Server::handle_from`]
//! with its worker index, so the per-worker collector stripes and
//! report-row buffers never contend. [`Frontend::drain`] closes the
//! queue, joins the pool, and merges the per-worker buffers in worker
//! order — deterministic regardless of scheduling.

use crate::server::Server;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use orochi_obs::{HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram};
use orochi_trace::HttpRequest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests admitted into the queue (counters are always on; see the
/// overhead contract in `orochi_obs`).
static ADMITTED: LazyCounter = LazyCounter::new("frontend_admitted_total");
/// Requests refused at admission under [`ShedPolicy::Shed`].
static SHED: LazyCounter = LazyCounter::new("frontend_shed_total");
/// Requests the pool finished serving.
static SERVED: LazyCounter = LazyCounter::new("frontend_served_total");
/// Instantaneous admission-queue depth (admitted − picked up).
static QUEUE_DEPTH: LazyGauge = LazyGauge::new("frontend_queue_depth");
/// Enqueue→pickup wait (clock-bearing: only recorded when telemetry
/// is enabled).
static ADMISSION_WAIT_NS: LazyHistogram = LazyHistogram::new("frontend_admission_wait_ns");

/// What to do when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Block the submitter until a slot frees (backpressure).
    Block,
    /// Refuse the request at admission (load shedding).
    Shed,
}

/// Front-end construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Worker threads serving the queue (at least 1).
    pub workers: usize,
    /// Admission-queue depth; `0` = unbounded (shedding never fires).
    pub queue_depth: usize,
    /// Full-queue policy; irrelevant when the queue is unbounded.
    pub shed: ShedPolicy,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 4,
            queue_depth: 0,
            shed: ShedPolicy::Block,
        }
    }
}

struct Job {
    req: HttpRequest,
    /// Scheduled arrival time; latency is measured from here (queueing
    /// included). `None` for closed-loop submissions.
    scheduled: Option<Instant>,
    /// Admission timestamp, set only when telemetry is enabled; feeds
    /// the `frontend_admission_wait_ns` histogram at pickup.
    enqueued: Option<Instant>,
}

/// Per-worker buffers, merged at drain.
struct WorkerLog {
    latencies: Vec<f64>,
    latency_us: HistogramSnapshot,
    handled: u64,
}

/// A drained front-end: the server plus everything the pool measured.
pub struct FrontendReport {
    /// The drained server (all workers joined).
    pub server: Server,
    /// Per-request latencies in milliseconds (scheduled submissions
    /// only), merged in worker order.
    pub latencies: Vec<f64>,
    /// Requests handled by the pool.
    pub handled: u64,
    /// Requests refused at admission (full queue under
    /// [`ShedPolicy::Shed`]).
    pub shed: u64,
    /// Scheduled-submission latency distribution in microseconds — a
    /// per-run log2 histogram merged across workers, so consumers can
    /// read percentiles without re-sorting the raw latency vector.
    pub latency: HistogramSnapshot,
}

/// The bounded worker pool wrapping a [`Server`].
pub struct Frontend {
    server: Arc<Server>,
    tx: Sender<Job>,
    workers: Vec<JoinHandle<WorkerLog>>,
    shed_policy: ShedPolicy,
    bounded: bool,
    shed: AtomicU64,
}

impl Frontend {
    /// Starts the worker pool around `server`.
    pub fn start(server: Server, config: FrontendConfig) -> Self {
        let server = Arc::new(server);
        let (tx, rx) = if config.queue_depth == 0 {
            channel::unbounded::<Job>()
        } else {
            channel::bounded::<Job>(config.queue_depth)
        };
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let server = Arc::clone(&server);
                let rx: Receiver<Job> = rx.clone();
                std::thread::spawn(move || {
                    let mut log = WorkerLog {
                        latencies: Vec::new(),
                        latency_us: HistogramSnapshot::new(),
                        handled: 0,
                    };
                    // Lane and per-worker service histogram are resolved
                    // once per worker; the lane is only materialized when
                    // telemetry is on so disabled runs export no lanes.
                    let lane = orochi_obs::enabled()
                        .then(|| orochi_obs::journal::lane(&format!("serve-worker-{w}")));
                    let service_ns = orochi_obs::registry::histogram_owned(&format!(
                        "frontend_worker{w}_service_ns"
                    ));
                    while let Ok(job) = rx.recv() {
                        QUEUE_DEPTH.sub(1);
                        if let Some(enqueued) = job.enqueued {
                            ADMISSION_WAIT_NS.record_duration(enqueued.elapsed());
                        }
                        let span =
                            lane.and_then(|l| orochi_obs::span_timed(l, "serve", service_ns));
                        server.handle_from(w, job.req);
                        drop(span);
                        SERVED.inc();
                        if let Some(scheduled) = job.scheduled {
                            let elapsed = scheduled.elapsed();
                            log.latencies.push(elapsed.as_secs_f64() * 1000.0);
                            log.latency_us.record(elapsed.as_micros() as u64);
                        }
                        log.handled += 1;
                    }
                    log
                })
            })
            .collect();
        Frontend {
            server,
            tx,
            workers,
            shed_policy: config.shed,
            bounded: config.queue_depth > 0,
            shed: AtomicU64::new(0),
        }
    }

    /// Submits a request for eventual service. Returns `true` if the
    /// request was admitted; `false` if it was shed (bounded queue full
    /// under [`ShedPolicy::Shed`]). Under [`ShedPolicy::Block`] this
    /// blocks until a queue slot frees and always admits.
    pub fn submit(&self, req: HttpRequest) -> bool {
        self.enqueue(Job {
            req,
            scheduled: None,
            enqueued: None,
        })
    }

    /// [`Frontend::submit`] for an open-loop arrival: latency is
    /// measured from `scheduled` (queueing included).
    pub fn submit_at(&self, req: HttpRequest, scheduled: Instant) -> bool {
        self.enqueue(Job {
            req,
            scheduled: Some(scheduled),
            enqueued: None,
        })
    }

    fn enqueue(&self, mut job: Job) -> bool {
        if orochi_obs::enabled() {
            job.enqueued = Some(Instant::now());
        }
        let admitted = if self.bounded && self.shed_policy == ShedPolicy::Shed {
            match self.tx.try_send(job) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    SHED.inc();
                    false
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("front-end workers exited while accepting submissions")
                }
            }
        } else if self.tx.send(job).is_err() {
            panic!("front-end workers exited while accepting submissions")
        } else {
            true
        };
        if admitted {
            ADMITTED.inc();
            QUEUE_DEPTH.add(1);
        }
        admitted
    }

    /// The wrapped server (for busy-time or request counters mid-run).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Closes the queue, serves everything already admitted, joins the
    /// pool, and merges the per-worker buffers (worker order, so the
    /// result is independent of scheduling).
    pub fn drain(self) -> FrontendReport {
        let Frontend {
            server,
            tx,
            workers,
            shed,
            ..
        } = self;
        drop(tx);
        let mut latencies = Vec::new();
        let mut latency = HistogramSnapshot::new();
        let mut handled = 0u64;
        for handle in workers {
            let mut log = handle.join().expect("front-end worker panicked");
            latencies.append(&mut log.latencies);
            latency.merge(&log.latency_us);
            handled += log.handled;
        }
        let server = Arc::try_unwrap(server)
            .ok()
            .expect("all front-end workers joined");
        // Everything admitted has now been served and recorded: the
        // serve-side trace is sealed from the auditor's perspective.
        orochi_obs::lag::mark_sealed();
        FrontendReport {
            server,
            latencies,
            handled,
            shed: shed.into_inner(),
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use orochi_php::{compile, parse_script};
    use orochi_sqldb::Database;
    use std::collections::HashMap;

    fn counting_server() -> Server {
        let mut scripts = HashMap::new();
        scripts.insert(
            "/t.php".to_string(),
            compile(
                "/t.php",
                &parse_script("apc_store('k' . $_GET['i'], '1'); echo 'ok';").unwrap(),
            )
            .unwrap(),
        );
        Server::new(ServerConfig {
            scripts,
            initial_db: Database::new(),
            ..Default::default()
        })
    }

    fn req(i: usize) -> HttpRequest {
        HttpRequest::get("/t.php", &[("i", &i.to_string())])
    }

    #[test]
    fn block_policy_serves_everything() {
        let fe = Frontend::start(
            counting_server(),
            FrontendConfig {
                workers: 3,
                queue_depth: 2,
                shed: ShedPolicy::Block,
            },
        );
        for i in 0..40 {
            assert!(fe.submit(req(i)));
        }
        let report = fe.drain();
        assert_eq!(report.handled, 40);
        assert_eq!(report.shed, 0);
        assert!(report.latencies.is_empty(), "closed-loop: no schedule");
        let bundle = report.server.into_bundle();
        assert_eq!(bundle.requests, 40);
        bundle.trace.ensure_balanced().unwrap();
    }

    #[test]
    fn shed_policy_refuses_at_admission_and_accounts() {
        // One worker, depth-1 queue, and a burst far faster than the
        // worker can drain: some requests must be shed, and every shed
        // request is invisible to the collector (balanced trace).
        let fe = Frontend::start(
            counting_server(),
            FrontendConfig {
                workers: 1,
                queue_depth: 1,
                shed: ShedPolicy::Shed,
            },
        );
        let mut admitted = 0u64;
        for i in 0..200 {
            if fe.submit_at(req(i), Instant::now()) {
                admitted += 1;
            }
        }
        let report = fe.drain();
        assert_eq!(report.handled, admitted);
        assert_eq!(report.shed, 200 - admitted);
        assert_eq!(report.latencies.len(), admitted as usize);
        let bundle = report.server.into_bundle();
        assert_eq!(bundle.requests, admitted);
        bundle.trace.ensure_balanced().unwrap();
    }

    #[test]
    fn scheduled_submissions_measure_latency() {
        let fe = Frontend::start(
            counting_server(),
            FrontendConfig {
                workers: 2,
                queue_depth: 0,
                shed: ShedPolicy::Block,
            },
        );
        let t0 = Instant::now();
        for i in 0..10 {
            assert!(fe.submit_at(req(i), t0));
        }
        let report = fe.drain();
        assert_eq!(report.latencies.len(), 10);
        assert!(report.latencies.iter().all(|&l| l >= 0.0));
        // The per-run histogram sees exactly the scheduled submissions
        // and its percentile bounds bracket the exact percentile.
        assert_eq!(report.latency.count, 10);
        let exact_ms = orochi_common::metrics::percentile(&report.latencies, 99.0).unwrap();
        let (lo_us, hi_us) = report.latency.quantile_bounds(99.0).unwrap();
        let exact_us = exact_ms * 1000.0;
        assert!(
            lo_us as f64 <= exact_us.ceil() && exact_us.floor() <= hi_us as f64 + 1.0,
            "p99 {exact_us}us outside bucket [{lo_us}, {hi_us}]"
        );
    }

    #[test]
    fn shed_counter_reaches_registry() {
        let before = orochi_obs::registry::counter("frontend_shed_total").get();
        let fe = Frontend::start(
            counting_server(),
            FrontendConfig {
                workers: 1,
                queue_depth: 1,
                shed: ShedPolicy::Shed,
            },
        );
        for i in 0..200 {
            fe.submit_at(req(i), Instant::now());
        }
        let report = fe.drain();
        let after = orochi_obs::registry::counter("frontend_shed_total").get();
        // Other tests share the process-global registry, so assert a
        // delta lower bound rather than an exact value.
        assert!(after - before >= report.shed);
    }
}
