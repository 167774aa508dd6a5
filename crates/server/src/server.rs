//! The server proper: request handling, report assembly, and the audit
//! bundle.
//!
//! [`Server::handle`] is thread-safe; the workload driver calls it from
//! as many client threads as it likes (each request runs to completion
//! on the calling thread, matching the model's one-thread-per-request
//! concurrency, §3.2). When the workload is drained,
//! [`Server::into_bundle`] assembles the trace and the four report types
//! and snapshots the final state that seeds the next audit period
//! (§4.1).

use crate::backend::RecordingBackend;
use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_common::rng::SplitMix64;
use orochi_core::nondet::NondetLog;
use orochi_core::reports::Reports;
use orochi_php::bytecode::CompiledScript;
use orochi_php::vm::{not_found, run_request, RequestInput};
use orochi_sqldb::{Database, SharedDatabase};
use orochi_state::kv::KvStore;
use orochi_state::recorder::Recorder;
use orochi_state::register::RegisterBank;
use orochi_trace::{Collector, HttpRequest, HttpResponse, Trace};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Server construction parameters.
pub struct ServerConfig {
    /// Routing table: script path -> compiled script.
    pub scripts: HashMap<String, CompiledScript>,
    /// Initial database contents (the verifier holds the same copy).
    pub initial_db: Database,
    /// Record reports (true) or run as the unmodified baseline (false).
    pub recording: bool,
    /// Seed for the server's random draws.
    pub seed: u64,
    /// Lock stripes for the shared KV store and register-bank
    /// directory; `0` picks the default. `1` is the single-lock
    /// reference configuration the striping tests compare against.
    pub state_shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            scripts: HashMap::new(),
            initial_db: Database::new(),
            recording: true,
            seed: 42,
            state_shards: 0,
        }
    }
}

/// State shared by all request threads.
pub struct ServerShared {
    /// Session registers.
    pub registers: RegisterBank,
    /// The APC-style key-value store.
    pub kv: KvStore,
    /// The SQL database (global-lock strict serializability).
    pub db: SharedDatabase,
    /// The record library's sub-log collector.
    pub recorder: Recorder,
    /// Virtual clock, in microseconds; strictly increasing.
    clock_us: AtomicI64,
    /// Random source for `mt_rand`.
    rng: Mutex<SplitMix64>,
}

impl ServerShared {
    /// Monotonic wall-clock seconds for `time()`.
    pub fn clock_seconds(&self) -> i64 {
        self.clock_micros() / 1_000_000
    }

    /// Monotonic microseconds for `microtime()`/`uniqid()`.
    pub fn clock_micros(&self) -> i64 {
        // Each call advances the clock so values are strictly
        // increasing — the §4.6 monotonicity check holds by
        // construction for an honest server.
        self.clock_us.fetch_add(7, Ordering::Relaxed)
    }

    /// One raw draw for `mt_rand`.
    pub fn draw_random(&self) -> i64 {
        (self.rng.lock().next_u64() >> 1) as i64
    }
}

/// Accumulated per-request report rows.
#[derive(Default)]
struct ReportRows {
    /// (rid, control-flow tag) pairs.
    tags: Vec<(RequestId, CtlFlowTag)>,
    /// Operation counts.
    op_counts: HashMap<RequestId, u32>,
    /// Nondeterminism, merged across requests.
    nondet: NondetLog,
}

/// Stripe count for the per-worker report-row buffers. Matches the
/// collector's stripe count so one worker index addresses both.
const ROW_STRIPES: usize = orochi_trace::COLLECTOR_STRIPES;

/// The online executor.
pub struct Server {
    shared: ServerShared,
    scripts: HashMap<String, CompiledScript>,
    collector: Collector,
    /// Report rows, striped per worker (merged deterministically at
    /// [`Server::into_bundle_with`]): request threads holding different
    /// stripe hints never contend on a global rows lock.
    rows: Box<[Mutex<ReportRows>]>,
    recording: bool,
    /// Total busy time across request handling (CPU-cost proxy for the
    /// Fig. 8 server-overhead comparison).
    busy_ns: AtomicU64,
    requests_handled: AtomicU64,
}

/// Everything the audit needs, as produced by a drained server.
pub struct AuditBundle {
    /// The collector's trace.
    pub trace: Trace,
    /// The assembled (untrusted) reports.
    pub reports: Reports,
    /// Final database state (seeds the next audit period).
    pub final_db: Database,
    /// Final register contents.
    pub final_registers: Vec<(String, Option<Vec<u8>>)>,
    /// Final key-value contents.
    pub final_kv: Vec<(String, Vec<u8>)>,
    /// Total request-handling busy time.
    pub busy: Duration,
    /// Requests handled.
    pub requests: u64,
}

impl Server {
    /// Builds a server.
    pub fn new(config: ServerConfig) -> Self {
        let shards = if config.state_shards == 0 {
            orochi_state::kv::DEFAULT_KV_SHARDS
        } else {
            config.state_shards
        };
        Server {
            shared: ServerShared {
                registers: RegisterBank::with_shards(shards),
                kv: KvStore::with_shards(shards),
                db: SharedDatabase::new(config.initial_db),
                recorder: Recorder::new(),
                clock_us: AtomicI64::new(1_700_000_000_000_000),
                rng: Mutex::new(SplitMix64::new(config.seed)),
            },
            scripts: config.scripts,
            collector: Collector::new(),
            rows: (0..ROW_STRIPES)
                .map(|_| Mutex::new(ReportRows::default()))
                .collect(),
            recording: config.recording,
            busy_ns: AtomicU64::new(0),
            requests_handled: AtomicU64::new(0),
        }
    }

    /// Handles one request end-to-end on the calling thread: records the
    /// arrival, executes the script, records the response. Thread-safe.
    /// The collector stripe and row buffer are keyed by the calling
    /// thread; fixed worker pools should prefer [`Server::handle_from`].
    pub fn handle(&self, req: HttpRequest) -> HttpResponse {
        self.handle_from(thread_stripe(), req)
    }

    /// [`Server::handle`] with an explicit worker index: the trace
    /// collector stripe and the report-row buffer are both keyed by
    /// `worker`, so a fixed pool's workers never share a buffer lock.
    /// Any `usize` is accepted (reduced modulo the stripe count).
    pub fn handle_from(&self, worker: usize, req: HttpRequest) -> HttpResponse {
        let t0 = Instant::now();
        let rid = self.collector.record_request_in(worker, req.clone());
        let response = self.execute(worker, rid, &req);
        self.collector
            .record_response_in(worker, rid, response.clone());
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.requests_handled.fetch_add(1, Ordering::Relaxed);
        response
    }

    fn execute(&self, worker: usize, rid: RequestId, req: &HttpRequest) -> HttpResponse {
        let input = RequestInput {
            method: &req.method,
            path: &req.path,
            get: &req.query,
            post: &req.post,
            cookies: &req.cookies,
        };
        let pid = thread_pid();
        let mut backend = RecordingBackend::new(&self.shared, rid, pid, self.recording);
        let result = match self.scripts.get(&req.path) {
            Some(script) => run_request(script, &mut backend, &input)
                .expect("the recording backend never rejects"),
            // An unrouted path still gets a tag and an (empty) op count.
            None => not_found(&req.path),
        };
        if self.recording {
            let mut rows = self.rows[worker % ROW_STRIPES].lock();
            rows.tags.push((rid, result.tag()));
            rows.op_counts.insert(rid, backend.op_count());
            for v in backend.take_nondet() {
                rows.nondet.push(rid, v);
            }
        }
        HttpResponse {
            rid_label: rid,
            status: result.output.status,
            headers: result.output.headers,
            body: result.output.body,
        }
    }

    /// Total request-handling busy time so far.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Requests handled so far.
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled.load(Ordering::Relaxed)
    }

    /// The record library's sub-log collector. Exposed so harnesses can
    /// measure report assembly (sequential vs sharded stitch) on a
    /// drained server before consuming it with [`Server::into_bundle`].
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Drains the server: stitches the sub-logs (§4.7), assembles the
    /// four report types, and snapshots the final object state. Report
    /// assembly is sharded by object across every available core; see
    /// [`Server::into_bundle_with`] for an explicit worker count.
    pub fn into_bundle(self) -> AuditBundle {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.into_bundle_with(threads)
    }

    /// [`Server::into_bundle`] with an explicit stitch worker count.
    /// The assembled bundle is byte-identical at every thread count
    /// (objects assign the sequence numbers; sharding only moves the
    /// clone-and-sort work), mirroring how the audit prologue shards its
    /// versioned-store builds.
    pub fn into_bundle_with(self, threads: usize) -> AuditBundle {
        // Merge the per-worker row stripes in stripe order. The merge is
        // deterministic regardless of which worker served which request:
        // groupings are re-sorted below, op counts are keyed by rid, and
        // each rid's nondet values live wholly in one stripe.
        let mut rows = ReportRows::default();
        for stripe in self.rows.into_vec() {
            let mut stripe = stripe.into_inner();
            rows.tags.append(&mut stripe.tags);
            rows.op_counts.extend(stripe.op_counts);
            rows.nondet.merge(stripe.nondet);
        }
        // Groupings: requests sharing a control-flow tag form one group.
        let mut groups: HashMap<CtlFlowTag, Vec<RequestId>> = HashMap::new();
        for (rid, tag) in rows.tags {
            groups.entry(tag).or_default().push(rid);
        }
        let mut groupings: Vec<(CtlFlowTag, Vec<RequestId>)> = groups.into_iter().collect();
        groupings.sort_by_key(|(tag, _)| tag.0);
        for (_, rids) in groupings.iter_mut() {
            rids.sort();
        }
        let reports = Reports {
            groupings,
            op_logs: self.shared.recorder.stitch_with(threads),
            op_counts: rows.op_counts.into_iter().collect(),
            nondet: rows.nondet,
        };
        let busy = Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed));
        let requests = self.requests_handled.load(Ordering::Relaxed);
        AuditBundle {
            trace: self.collector.into_trace(),
            reports,
            final_db: self.shared.db.with(|db| db.deep_clone()),
            final_registers: self.shared.registers.snapshot(),
            final_kv: self.shared.kv.snapshot(),
            busy,
            requests,
        }
    }
}

/// A stable per-thread "process id" for `getpid` (constant within a
/// request because one thread runs the whole request).
fn thread_pid() -> i64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    (h.finish() & 0x7fff_ffff) as i64
}

/// Stripe hint for callers without an explicit worker identity.
/// Collisions only cost lock sharing, never correctness: the collector
/// orders by ticket and the row merge is order-insensitive.
fn thread_stripe() -> usize {
    thread_pid() as usize % ROW_STRIPES
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_php::{compile, parse_script};
    use std::sync::Arc;

    fn script(src: &str) -> CompiledScript {
        compile("/t.php", &parse_script(src).unwrap()).unwrap()
    }

    fn server_with(src: &str) -> Server {
        let mut scripts = HashMap::new();
        scripts.insert("/t.php".to_string(), script(src));
        let mut db = Database::new();
        db.execute_autocommit("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
            .0
            .unwrap();
        Server::new(ServerConfig {
            scripts,
            initial_db: db,
            recording: true,
            seed: 42,
            ..Default::default()
        })
    }

    #[test]
    fn handles_and_labels_responses() {
        let server = server_with("echo 'hi ' . $_GET['n'];");
        let resp = server.handle(HttpRequest::get("/t.php", &[("n", "1")]));
        assert_eq!(resp.body, "hi 1");
        assert_eq!(resp.status, 200);
        let bundle = server.into_bundle();
        assert_eq!(bundle.trace.events.len(), 2);
        assert_eq!(bundle.requests, 1);
        // Trace is balanced and the response is labeled.
        bundle.trace.ensure_balanced().unwrap();
    }

    #[test]
    fn unknown_path_yields_404() {
        let server = server_with("echo 1;");
        let resp = server.handle(HttpRequest::get("/missing.php", &[]));
        assert_eq!(resp.status, 404);
        let bundle = server.into_bundle();
        // 404s participate in groupings with zero ops.
        assert_eq!(bundle.reports.op_count(orochi_common::ids::RequestId(1)), 0);
        assert_eq!(bundle.reports.groupings.len(), 1);
    }

    #[test]
    fn groups_by_control_flow() {
        let server = server_with("if ($_GET['x'] == 1) { echo 'a'; } else { echo 'b'; }");
        for x in ["1", "1", "2", "3"] {
            server.handle(HttpRequest::get("/t.php", &[("x", x)]));
        }
        let bundle = server.into_bundle();
        // Two control flows: x==1 (2 requests) and else (2 requests).
        assert_eq!(bundle.reports.groupings.len(), 2);
        let mut sizes: Vec<usize> = bundle
            .reports
            .groupings
            .iter()
            .map(|(_, r)| r.len())
            .collect();
        sizes.sort();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn records_db_ops_and_counts() {
        let server = server_with(
            "db_query(\"INSERT INTO t (v) VALUES ('x')\");
             $rows = db_query('SELECT id, v FROM t');
             echo count($rows);",
        );
        server.handle(HttpRequest::get("/t.php", &[]));
        let bundle = server.into_bundle();
        assert_eq!(bundle.reports.total_ops(), 2);
        assert_eq!(bundle.reports.op_count(orochi_common::ids::RequestId(1)), 2);
        assert_eq!(bundle.final_db.row_count("t"), Some(1));
    }

    #[test]
    fn records_sessions_and_nondet() {
        let server = server_with(
            "session_start();
             $_SESSION['n'] = intval($_SESSION['n']) + 1;
             echo $_SESSION['n'], ':', time();",
        );
        let req = HttpRequest::get("/t.php", &[]).with_cookie("sess", "alice");
        let r1 = server.handle(req.clone());
        let r2 = server.handle(req);
        assert!(r1.body.starts_with("1:"));
        assert!(r2.body.starts_with("2:"));
        let bundle = server.into_bundle();
        // Each request: session read + session write = 2 register ops.
        assert_eq!(bundle.reports.total_ops(), 4);
        assert_eq!(bundle.reports.nondet.total(), 2);
        bundle.reports.nondet.validate().unwrap();
    }

    #[test]
    fn concurrent_requests_stay_consistent() {
        let mut scripts = HashMap::new();
        scripts.insert(
            "/t.php".to_string(),
            script(
                "db_begin();
                 $r = db_query('SELECT v FROM c WHERE id = 1');
                 $v = intval($r[0]['v']);
                 db_query('UPDATE c SET v = ' . ($v + 1) . ' WHERE id = 1');
                 db_commit();
                 echo 'ok';",
            ),
        );
        let mut db = Database::new();
        db.execute_autocommit("CREATE TABLE c (id INT PRIMARY KEY, v INT)")
            .0
            .unwrap();
        db.execute_autocommit("INSERT INTO c (id, v) VALUES (1, 0)")
            .0
            .unwrap();
        let server = Arc::new(Server::new(ServerConfig {
            scripts,
            initial_db: db,
            recording: true,
            seed: 1,
            ..Default::default()
        }));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let resp = server.handle(HttpRequest::get("/t.php", &[]));
                    assert_eq!(resp.body, "ok");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let server = Arc::try_unwrap(server).ok().expect("all threads joined");
        let bundle = server.into_bundle();
        // Read-modify-write under strict serializability: final count is
        // exactly 80.
        let mut final_db = bundle.final_db;
        let (r, _) = final_db.execute_autocommit("SELECT v FROM c WHERE id = 1");
        match r.unwrap() {
            orochi_sqldb::ExecOutcome::Rows { rows, .. } => {
                assert_eq!(rows[0][0], orochi_sqldb::SqlValue::Int(80));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        bundle.trace.ensure_balanced().unwrap();
        assert_eq!(bundle.reports.total_ops(), 80);
    }

    #[test]
    fn baseline_mode_records_nothing() {
        let mut scripts = HashMap::new();
        scripts.insert(
            "/t.php".to_string(),
            script("session_start(); $_SESSION['x'] = 1; echo time();"),
        );
        let server = Server::new(ServerConfig {
            scripts,
            initial_db: Database::new(),
            recording: false,
            seed: 9,
            ..Default::default()
        });
        server.handle(HttpRequest::get("/t.php", &[]).with_cookie("sess", "u"));
        let bundle = server.into_bundle();
        assert_eq!(bundle.reports.total_ops(), 0);
        assert!(bundle.reports.groupings.is_empty());
        assert_eq!(bundle.reports.nondet.total(), 0);
        // The trace is still collected (the collector is trusted and
        // separate from the reports).
        assert_eq!(bundle.trace.events.len(), 2);
    }

    #[test]
    fn failed_autocommit_is_logged_as_unsucceeded() {
        let server = server_with(
            "$ok = db_query('INSERT INTO t (id, v) VALUES (1, ' . \"'a'\" . ')');
             $dup = db_query('INSERT INTO t (id, v) VALUES (1, ' . \"'b'\" . ')');
             echo $ok ? 'y' : 'n', $dup ? 'y' : 'n';",
        );
        let resp = server.handle(HttpRequest::get("/t.php", &[]));
        assert_eq!(resp.body, "yn");
        let bundle = server.into_bundle();
        let log = bundle.reports.op_logs.log(0).unwrap();
        assert_eq!(log.len(), 2);
        match &log.entries()[1].contents {
            orochi_state::object::OpContents::DbOp { succeeded, .. } => {
                assert!(!succeeded);
            }
            other => panic!("expected DbOp, got {other:?}"),
        }
    }

    #[test]
    fn sharded_assembly_matches_sequential() {
        // The same request stream served twice must assemble identical
        // reports whether the stitch runs sequentially or sharded.
        let run = |threads: usize| {
            let server = server_with(
                "session_start();
                 $_SESSION['n'] = intval($_SESSION['n']) + 1;
                 apc_store('k' . $_GET['i'], strval($_SESSION['n']));
                 $v = apc_fetch('k' . $_GET['i']);
                 db_query(\"INSERT INTO t (v) VALUES ('x')\");
                 echo $v;",
            );
            for i in 0..20 {
                let who = format!("u{}", i % 4);
                server.handle(
                    HttpRequest::get("/t.php", &[("i", &(i % 6).to_string())])
                        .with_cookie("sess", &who),
                );
            }
            server.into_bundle_with(threads)
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq.reports.op_logs, par.reports.op_logs);
        assert_eq!(seq.reports.op_counts, par.reports.op_counts);
    }

    #[test]
    fn clock_is_strictly_increasing() {
        let server = server_with("echo microtime() < microtime() ? 'up' : 'down';");
        let resp = server.handle(HttpRequest::get("/t.php", &[]));
        assert_eq!(resp.body, "up");
    }
}
