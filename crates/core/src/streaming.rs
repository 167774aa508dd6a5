//! The audit engine: one driver for every way the audit runs.
//!
//! `SSCO_AUDIT2` (Fig. 12) is one algorithm, and Lemma 5 (§A) shows its
//! verdict is indifferent to the re-execution schedule. That licenses
//! running it sequentially, pooled, or a bounded epoch at a time — and
//! this module is the single implementation of all three:
//!
//! ```text
//! new ──► feed epoch ──► feed epoch ──► … ──► settle
//!  │       │ ingest: §3 balance scan, one event at a time
//!  │       │ run:    the (sub-)groups this epoch's responses completed,
//!  │       │         over the worker pool, outputs checked in-worker
//!  └ OpMap and versioned stores, from the reports alone
//! ```
//!
//! * **Batch is streaming with one epoch.** [`crate::audit::audit`] and
//!   friends feed the whole source as a single epoch; every group then
//!   runs whole, exactly once. (An epoch known to complete the trace is
//!   validated before its groups run, so this is Fig. 12's own order.)
//! * **Sequential is a pool of one.** With one executor (or one runnable
//!   group) the worker loop runs inline on the calling thread, in group
//!   index order; otherwise one scoped thread per executor claims units
//!   off a shared cursor, largest first.
//!
//! # The carry set
//!
//! The engine reads events in the borrowed shape a [`TraceSource`]
//! lends ([`Epoch`] / [`EventRef`]): balance looks at `(kind, rid,
//! label)` only; a planned member's request is copied out once —
//! executors take owned requests — when its unit runs, and dropped when
//! it is done; its traced response stays borrowed until the group's
//! output has been compared against it in place. Nothing else of an
//! event is ever copied, and no payload outlives its epoch except the
//! requests still unanswered at its end: those are copied into the
//! carry instead, and moved from there into the unit that runs them.
//!
//! Across an epoch boundary the engine keeps only: the requestID
//! interner and one `responded` bit per request ([`StreamingBalance`]);
//! the [`OpMap`]; the request payloads of group members whose response
//! has not arrived; a two-bit output verdict per request; per planned
//! group, its progress; and one `AuditCarry` (dedup caches, counters)
//! per worker. [`StreamingAudit::carry_bytes`] meters it. The OpMap and
//! the versioned stores are built once up front — they depend on the
//! reports alone — and the trace-dependent half of Fig. 5 runs once the
//! trace is complete.
//!
//! # Rejection precedence
//!
//! Fig. 12 walks balance → reports → nondeterminism → redo → groups in
//! order → outputs in arrival order and stops at the first failure. The
//! engine runs those checks in whatever order epochs and workers reach
//! them, records each failure under its `Stage`, and reports the
//! *minimum*: `Stage`'s `Ord` is the precedence, stated once.
//!
//! A group failure is only comparable with the sequential walk's if the
//! group ran *whole* against the *final* trace (a sub-group may trip on
//! a later member first). Batch failures always qualify. Otherwise
//! settling re-runs the group whole — payloads for every such group
//! collected in one pass over the source — and a re-run that passes
//! simply fills in the group's outputs.

use crate::audit::{
    assemble_outcome, AuditCarry, AuditConfig, AuditContext, AuditOutcome, AuditShared, AuditStats,
    Rejection,
};
use crate::exec::{GroupExecutor, OutputCheck};
use crate::graph::{process_op_reports_interned, OpMap};
use crate::reports::Reports;
use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_obs::LazyHistogram;
use orochi_trace::record::{BalanceError, RidInterner, StreamingBalance};
use orochi_trace::{
    Epoch, Event, EventRef, HttpRequest, HttpResponse, RequestRef, ResponseRef, TraceSource,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall time per epoch (ingest + re-execution).
static EPOCH_NS: LazyHistogram = LazyHistogram::new("audit_epoch_ns");

/// Where in Fig. 12's sequential walk a check sits. The derived `Ord`
/// *is* the rejection precedence: the verdict is the rejection recorded
/// under the smallest stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    /// §3: an in-stream violation, or a request left unanswered.
    Balance,
    /// Fig. 5 `ProcessOpReports` over the complete trace.
    Reports,
    /// §4.6 nondeterminism sanity.
    Nondet,
    /// §4.5 versioned redo.
    Redo,
    /// Position `g` of the walk over the planned groups.
    Walk(usize, WalkStep),
    /// Fig. 12 line 55: the first output problem in arrival order.
    Output,
}

/// The walk's first stage: a rejection recorded before it makes
/// re-execution moot.
const WALK: Stage = Stage::Walk(0, WalkStep::UnknownMember);

/// What the walk does at a position, in order: naming group `g`'s
/// requests hits the grouping cut before group `g` would execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WalkStep {
    UnknownMember,
    Execute,
}

/// The earliest-stage rejection recorded so far.
#[derive(Default)]
struct Verdict(Option<(Stage, Rejection)>);

impl Verdict {
    /// True while a failure at `stage` would still decide the verdict.
    fn open(&self, stage: Stage) -> bool {
        self.0.as_ref().is_none_or(|(s, _)| stage < *s)
    }

    fn record(&mut self, stage: Stage, rejection: Rejection) {
        if self.open(stage) {
            self.0 = Some((stage, rejection));
        }
    }
}

/// The claiming walk over `reports.groupings`: each request belongs to
/// the first group naming it (re-execution is idempotent, so duplicate
/// filtering is an optimization, not a check, §3.1), and groups left
/// empty vanish. Trace membership is *not* checked here — the trace is
/// unknown until the stream ends — so the plan may run past the
/// [`GroupPlan::cut`]; up to it, this is exactly the sequence of groups
/// the sequential walk executes.
struct GroupPlan {
    groups: Vec<(CtlFlowTag, Vec<RequestId>)>,
    /// rid -> (group index, within-group position).
    member_of: HashMap<RequestId, (u32, u32)>,
}

impl GroupPlan {
    fn new(groupings: &[(CtlFlowTag, Vec<RequestId>)]) -> Self {
        let mut plan = GroupPlan {
            groups: Vec::new(),
            member_of: HashMap::new(),
        };
        for (tag, rids) in groupings {
            let g = plan.groups.len() as u32;
            let mut seen_in_group = HashSet::new();
            let members: Vec<RequestId> = rids
                .iter()
                .copied()
                .filter(|rid| !plan.member_of.contains_key(rid) && seen_in_group.insert(*rid))
                .collect();
            if members.is_empty() {
                continue;
            }
            for (pos, rid) in members.iter().enumerate() {
                plan.member_of.insert(*rid, (g, pos as u32));
            }
            plan.groups.push((*tag, members));
        }
        plan
    }

    /// The first planned member, in walk order, that the trace never
    /// contained — where the sequential walk stops with
    /// [`Rejection::GroupUnknownRequest`] — and its group's index.
    fn cut(&self, interner: &RidInterner) -> Option<(usize, RequestId)> {
        self.groups.iter().enumerate().find_map(|(g, (_, rids))| {
            let unknown = rids.iter().find(|rid| interner.index_of(**rid).is_none());
            unknown.map(|rid| (g, *rid))
        })
    }
}

/// Why a planned group needs another look when the verdict settles.
enum Unsettled {
    /// The whole group ran and failed when the trace held `seen`
    /// requests: the sequential walk's own rejection for this group iff
    /// none arrived since.
    Failed { rejection: Rejection, seen: usize },
    /// A sub-group failed (it may have tripped on a later member
    /// first), or the group was skipped behind a lower-indexed failure:
    /// only a whole re-run can judge it.
    Rerun,
}

/// Per planned group: members re-executed so far, and what went wrong.
#[derive(Default)]
struct GroupProgress {
    executed: usize,
    unsettled: Option<Unsettled>,
}

/// A unit member's request on its way to the executor, which takes
/// owned requests.
enum Payload<'e> {
    /// Still in the epoch it arrived in: copied out when the unit runs.
    Lent(RequestRef<'e>),
    /// Already copied out — it outlived its epoch in the carry, or was
    /// collected for a whole re-run — and moved from here on. Boxed so
    /// that the common, lent case stays a handle's size.
    Owned(Box<HttpRequest>),
}

/// One pass's work unit: the members of one planned group whose
/// responses arrived this epoch, in within-group order.
struct Unit<'e> {
    group: usize,
    tag: CtlFlowTag,
    /// The members, in within-group order.
    rids: Vec<RequestId>,
    /// Per member, its request; taken by the worker that runs the unit
    /// (a pass runs a unit at most once).
    requests: Mutex<Vec<Payload<'e>>>,
    /// Per member, its dense index.
    indices: Vec<u32>,
    /// Per member, its traced response, still in the epoch it arrived
    /// in.
    expected: Vec<ResponseRef<'e>>,
    /// Covers every member of the planned group.
    whole: bool,
}

/// Rough heap size of a request payload, mirroring the trace store's
/// segment-budget estimate; used only for carry accounting.
fn request_bytes(req: &HttpRequest) -> usize {
    fn pairs(p: &[(String, String)]) -> usize {
        p.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>() + 2
    }
    12 + req.method.len()
        + req.path.len()
        + pairs(&req.query)
        + pairs(&req.post)
        + pairs(&req.cookies)
}

/// Epoch size for the passes that only scan the source (the standalone
/// prologue, payload collection for whole re-runs): any size gives the
/// same result; this one has a store-backed source hold a few segments
/// rather than all of them.
const SCAN_EVENTS: usize = 4096;

/// The executors a re-execution pass fans out over. A lone borrowed
/// executor never leaves the calling thread, so it need not be `Send`.
pub(crate) enum Pool<'p> {
    Solo(&'p mut dyn GroupExecutor),
    Threads(Vec<&'p mut (dyn GroupExecutor + Send)>),
}

impl<'p> Pool<'p> {
    pub(crate) fn threads<E: GroupExecutor + Send>(executors: &'p mut [E]) -> Self {
        assert!(
            !executors.is_empty(),
            "the audit requires at least one executor"
        );
        Pool::Threads(executors.iter_mut().map(|e| e as _).collect())
    }

    fn width(&self) -> usize {
        match self {
            Pool::Solo(_) => 1,
            Pool::Threads(executors) => executors.len(),
        }
    }
}

/// Re-executes one unit and runs the per-group driver checks — executor
/// protocol, output check, Fig. 12 line 51 op counts, leftover
/// nondeterminism — in the order the sequential walk applies them.
fn run_one_group(
    executor: &mut dyn GroupExecutor,
    ctx: &mut AuditContext<'_>,
    unit: &Unit<'_>,
) -> Result<Vec<OutputCheck>, Rejection> {
    // The one copy of a lent request's bytes, alive while the unit runs.
    let payloads = std::mem::take(&mut *unit.requests.lock().expect("unit poisoned"));
    let requests: Vec<(RequestId, HttpRequest)> = unit
        .rids
        .iter()
        .zip(payloads)
        .map(|(rid, payload)| match payload {
            Payload::Lent(req) => (*rid, req.to_owned()),
            Payload::Owned(req) => (*rid, *req),
        })
        .collect();
    ctx.claimed = unit.tag;
    let checked = executor.check_group(&requests, &unit.expected, ctx)?;
    drop(requests);
    if checked.len() != unit.rids.len() {
        return Err(Rejection::ExecutorProtocol(format!(
            "{} output checks for the {} requests of group {}",
            checked.len(),
            unit.rids.len(),
            unit.tag
        )));
    }
    for rid in &unit.rids {
        ctx.finish_request(*rid)?;
    }
    ctx.stats.requests_reexecuted += unit.rids.len();
    Ok(checked)
}

/// The audit engine. Feed sealed epochs with
/// [`StreamingAudit::feed_epoch`]; settle the verdict with
/// [`StreamingAudit::finish`]. [`audit_streaming_source`] wraps both
/// behind a pull loop over any [`TraceSource`].
pub struct StreamingAudit<'a> {
    reports: &'a Reports,
    balance: StreamingBalance,
    /// The OpMap, built from the reports up front.
    opmap: Arc<OpMap>,
    /// The prologue's products, built up front (store builds are
    /// trace-independent); `None` when that already failed, with the
    /// rejection recorded in `verdict`, or when the OpMap holds a defect
    /// that validation will reject.
    shared: Option<Arc<AuditShared<'a>>>,
    verdict: Verdict,
    plan: GroupPlan,
    /// Slot = planned-group index.
    groups: Vec<GroupProgress>,
    /// Request payloads of the planned members still unanswered at the
    /// end of the epoch they arrived in, by dense index.
    pending_req: HashMap<u32, HttpRequest>,
    pending_bytes: usize,
    /// Output-check verdict per dense index.
    out_state: Vec<OutputCheck>,
    /// One carry per worker slot, persisted across epochs.
    carries: Vec<AuditCarry>,
    /// The run's statistics outside the worker carries: the graph
    /// layer's, filled by validation, and the prologue's phase walls.
    stats: AuditStats,
    reexec_busy: Duration,
    epochs: u64,
    /// The trace's length, when the driver knows it: the epoch that
    /// completes it is validated *before* its groups run, so a batch
    /// audit rejects bad reports without re-executing anything.
    total_events: Option<usize>,
    validated: bool,
    lane: Option<orochi_obs::LaneId>,
}

impl<'a> StreamingAudit<'a> {
    /// Runs the trace-independent half of the prologue — the OpMap,
    /// nondeterminism sanity, then the versioned store builds — and plans
    /// the groups. A failure here waits in the verdict for
    /// [`Self::finish`]: balance and report validation outrank it. An
    /// OpMap defect means report validation rejects, so nothing after it
    /// is built.
    pub fn new(reports: &'a Reports, config: &'a AuditConfig, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut stats = AuditStats::default();
        let mut verdict = Verdict::default();
        let proc_t0 = Instant::now();
        let opmap = Arc::new(OpMap::build(reports));
        stats.proc_op_rep_wall = proc_t0.elapsed();
        let mut shared = None;
        if !opmap.is_defective() {
            let built = match reports.nondet.validate() {
                Err(rid) => Err((Stage::Nondet, Rejection::NondetInvalid(rid))),
                Ok(()) => {
                    let redo_t0 = Instant::now();
                    let built = AuditShared::build(reports, Arc::clone(&opmap), config, threads);
                    stats.db_redo_wall = redo_t0.elapsed();
                    built.map_err(|rejection| (Stage::Redo, rejection))
                }
            };
            match built {
                Ok(built) => shared = Some(Arc::new(built)),
                Err((stage, rejection)) => verdict.record(stage, rejection),
            }
        }
        let plan = GroupPlan::new(&reports.groupings);
        StreamingAudit {
            reports,
            balance: StreamingBalance::new(),
            opmap,
            shared,
            verdict,
            groups: plan.groups.iter().map(|_| Default::default()).collect(),
            plan,
            pending_req: HashMap::new(),
            pending_bytes: 0,
            out_state: Vec::new(),
            carries: Vec::new(),
            stats,
            reexec_busy: Duration::ZERO,
            epochs: 0,
            total_events: None,
            validated: false,
            lane: orochi_obs::enabled().then(|| orochi_obs::journal::lane("audit-stream")),
        }
    }

    /// Epochs fed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Bytes of state carried across the next epoch boundary: the
    /// interner + balance bits, the OpMap, open members' request
    /// payloads, the output bitmap, and the worker carry caches.
    pub fn carry_bytes(&self) -> usize {
        let carries: usize = self.carries.iter().map(AuditCarry::estimated_bytes).sum();
        self.balance.estimated_bytes()
            + self.opmap.estimated_bytes()
            + self.pending_bytes
            + self.out_state.len()
            + carries
    }

    /// Feeds one sealed epoch of events (in trace order) and runs the
    /// (sub-)groups it completes across `executors`. Returns `false`
    /// once the verdict can no longer change (an in-stream balance
    /// violation), meaning the caller may stop feeding.
    ///
    /// # Panics
    ///
    /// Panics if `executors` is empty.
    pub fn feed_epoch<E: GroupExecutor + Send>(
        &mut self,
        events: &[Event],
        executors: &mut [E],
    ) -> bool {
        self.feed(events.into(), &mut Pool::threads(executors))
    }

    /// Settles the verdict: the earliest-`Stage` rejection, or the
    /// statistics of an accepted run. `source` is only re-read when a
    /// group must re-run whole (see the module docs).
    pub fn finish<E: GroupExecutor + Send>(
        self,
        source: &dyn TraceSource,
        executors: &mut [E],
    ) -> Result<AuditOutcome, Rejection> {
        self.settle(source, &mut Pool::threads(executors))
    }

    /// The §3 balance scan for one event, which reads its kind, rid
    /// and label only; yields the dense index of the request the event
    /// belongs to. A violation outranks every other rejection, so
    /// nothing later in the stream matters.
    fn push_balance(&mut self, event: &EventRef<'_>) -> Option<u32> {
        let pushed = match event {
            EventRef::Request(rid, _) => self.balance.push_request(*rid),
            EventRef::Response(rid, resp) => self.balance.push_response(*rid, resp.rid_label()),
        };
        pushed
            .map_err(|e| {
                self.verdict
                    .record(Stage::Balance, Rejection::Unbalanced(e))
            })
            .ok()
    }

    fn feed(&mut self, epoch: Epoch<'_>, pool: &mut Pool<'_>) -> bool {
        if !self.verdict.open(Stage::Balance) {
            return false;
        }
        self.epochs += 1;
        let span = self
            .lane
            .and_then(|l| orochi_obs::span_timed(l, "epoch", EPOCH_NS.get()));

        let balance_t0 = Instant::now();
        let first_new = self.balance.num_requests();
        // Planned members' requests that arrived this epoch, by arrival
        // rank within it, and the planned members answered in it (none
        // of either once the verdict is out of re-execution's reach).
        let mut arrived: Vec<Option<RequestRef<'_>>> = Vec::new();
        let mut answered: Vec<(u32, ResponseRef<'_>)> = Vec::new();
        let runnable = self.verdict.open(WALK);
        for event in epoch.iter() {
            let Some(idx) = self.push_balance(&event) else {
                break;
            };
            let planned = runnable && self.plan.member_of.contains_key(&event.rid());
            match event {
                EventRef::Request(_, req) => {
                    arrived.push(planned.then_some(req));
                    self.out_state.push(OutputCheck::None);
                }
                EventRef::Response(_, resp) if planned => answered.push((idx, resp)),
                EventRef::Response(..) => {}
            }
        }
        self.stats.balance_wall += balance_t0.elapsed();

        if self.total_events == Some(self.balance.events_seen()) {
            self.validate();
        }
        // Pair each answered member with its request: lent by this epoch,
        // or carried in from an earlier one — those leave the carry here.
        let answered: Vec<(u32, Payload<'_>, ResponseRef<'_>)> = answered
            .into_iter()
            .map(|(idx, resp)| {
                let req = match (idx as usize).checked_sub(first_new) {
                    Some(rank) => arrived[rank].take().map(Payload::Lent),
                    None => self.pending_req.remove(&idx).map(|req| {
                        self.pending_bytes -= request_bytes(&req);
                        Payload::Owned(Box::new(req))
                    }),
                };
                let req = req.expect("a planned member's request precedes its response");
                (idx, req, resp)
            })
            .collect();
        // What is still unanswered outlives the epoch: into the carry.
        for (rank, req) in arrived.into_iter().enumerate() {
            if let Some(req) = req {
                let req = req.to_owned();
                self.pending_bytes += request_bytes(&req);
                self.pending_req.insert((first_new + rank) as u32, req);
            }
        }
        if self.verdict.open(WALK) && self.shared.is_some() {
            let units = self.form_units(answered);
            self.run_pass(&units, pool);
        }

        drop(span);
        orochi_obs::lag::mark_epoch(self.carry_bytes() as u64);
        self.verdict.open(Stage::Balance)
    }

    /// Groups this epoch's answered members into units.
    fn form_units<'e>(&self, answered: Vec<(u32, Payload<'e>, ResponseRef<'e>)>) -> Vec<Unit<'e>> {
        let interner = self.balance.interner();
        let mut by_group: BTreeMap<u32, Vec<(u32, u32, Payload<'e>, ResponseRef<'e>)>> =
            BTreeMap::new();
        for (idx, req, expected) in answered {
            let (g, pos) = self.plan.member_of[&interner.rid(idx)];
            // A group already in trouble re-runs whole when the verdict
            // settles; its later members need not run now.
            if self.groups[g as usize].unsettled.is_none() {
                by_group
                    .entry(g)
                    .or_default()
                    .push((pos, idx, req, expected));
            }
        }
        by_group
            .into_iter()
            .map(|(g, mut members)| {
                members.sort_by_key(|&(pos, ..)| pos);
                let (tag, planned) = &self.plan.groups[g as usize];
                Unit {
                    group: g as usize,
                    tag: *tag,
                    whole: members.len() == planned.len(),
                    indices: members.iter().map(|m| m.1).collect(),
                    expected: members.iter().map(|m| m.3).collect(),
                    rids: members.iter().map(|m| interner.rid(m.1)).collect(),
                    requests: Mutex::new(members.into_iter().map(|m| m.2).collect()),
                }
            })
            .collect()
    }

    /// The one worker-pool loop: each lane rebuilds an [`AuditContext`]
    /// from its carry and claims units off a shared cursor — in group
    /// order on one lane, largest first (LPT, so a Zipf-head group
    /// started last cannot serialize the tail) on several. The schedule
    /// is free to vary: units touch disjoint per-request state, and the
    /// verdict picks rejections by [`Stage`], not by schedule position.
    fn run_pass(&mut self, units: &[Unit<'_>], pool: &mut Pool<'_>) {
        if units.is_empty() {
            return;
        }
        if self.carries.len() < pool.width() {
            self.carries.resize_with(pool.width(), AuditCarry::default);
        }
        let shared = self.shared.as_ref().expect("a pass needs the prologue");
        let lanes = pool.width().min(units.len());
        let mut schedule: Vec<usize> = (0..units.len()).collect();
        if lanes > 1 {
            schedule.sort_by_key(|&k| Reverse(units[k].rids.len()));
        }
        let cursor = AtomicUsize::new(0);
        // The lowest group that failed whole this pass: the sequential
        // walk stops there, so higher groups cannot reach the verdict
        // unless that failure is later re-run — and then so are they.
        let first_failed = AtomicUsize::new(usize::MAX);
        // Per unit: its output checks or rejection; absent when skipped.
        type Ran = (usize, Result<Vec<OutputCheck>, Rejection>);
        let done: Mutex<(Vec<Ran>, Duration)> = Mutex::default();
        let worker = |w: usize, executor: &mut dyn GroupExecutor, carry: &mut AuditCarry| {
            let t0 = Instant::now();
            let lane = orochi_obs::enabled()
                .then(|| orochi_obs::journal::lane(&format!("audit-worker-{w}")));
            let group_ns = orochi_obs::registry::histogram("audit_group_ns");
            let mut ctx = AuditContext::new(Arc::clone(shared), std::mem::take(carry));
            let mut ran: Vec<Ran> = Vec::new();
            while let Some(&k) = schedule.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let unit = &units[k];
                if unit.group > first_failed.load(Ordering::Relaxed) {
                    continue;
                }
                let span = lane.and_then(|l| orochi_obs::span_timed(l, "group", group_ns));
                let result = run_one_group(executor, &mut ctx, unit);
                drop(span);
                if result.is_err() && unit.whole {
                    first_failed.fetch_min(unit.group, Ordering::Relaxed);
                }
                ran.push((k, result));
            }
            *carry = ctx.into_carry();
            let mut done = done.lock().expect("results poisoned");
            done.0.extend(ran);
            done.1 += t0.elapsed();
        };
        match pool {
            Pool::Threads(executors) if lanes > 1 => crossbeam::thread::scope(|s| {
                let slots = executors.iter_mut().zip(self.carries.iter_mut());
                for (w, (executor, carry)) in slots.take(lanes).enumerate() {
                    s.spawn(move |_| worker(w, &mut **executor, carry));
                }
            })
            .expect("audit worker pool"),
            Pool::Threads(executors) => worker(0, &mut *executors[0], &mut self.carries[0]),
            Pool::Solo(executor) => worker(0, &mut **executor, &mut self.carries[0]),
        }
        let (ran, busy) = done.into_inner().expect("results poisoned");
        self.reexec_busy += busy;
        let seen = self.balance.num_requests();
        // A unit that reports nothing was skipped.
        for unit in units {
            self.groups[unit.group].unsettled = Some(Unsettled::Rerun);
        }
        for (k, result) in ran {
            let (unit, progress) = (&units[k], &mut self.groups[units[k].group]);
            match result {
                Ok(checked) => {
                    progress.unsettled = None;
                    progress.executed += checked.len();
                    for (&idx, check) in unit.indices.iter().zip(checked) {
                        self.out_state[idx as usize] = check;
                    }
                }
                Err(rejection) if unit.whole => {
                    progress.unsettled = Some(Unsettled::Failed { rejection, seen });
                }
                Err(_) => {}
            }
        }
    }

    /// The trace-dependent half of the prologue, once the whole trace
    /// is in: every request answered, then the Fig. 5 checks that need
    /// the trace, over the final interner and the prologue's OpMap.
    fn validate(&mut self) {
        if std::mem::replace(&mut self.validated, true) {
            return;
        }
        if let Some(rid) = self.balance.first_unresponded() {
            let e = BalanceError::RequestWithoutResponse(rid);
            self.verdict
                .record(Stage::Balance, Rejection::Unbalanced(e));
        }
        if !self.verdict.open(Stage::Reports) {
            return;
        }
        let proc_t0 = Instant::now();
        let validated =
            process_op_reports_interned(self.balance.interner(), self.reports, &self.opmap);
        self.stats.proc_op_rep_wall += proc_t0.elapsed();
        match validated {
            Err(e) => self.verdict.record(Stage::Reports, Rejection::Graph(e)),
            Ok(graph) => {
                self.stats.graph_nodes = graph.num_nodes();
                self.stats.graph_edges = graph.num_edges();
                self.stats.graph_build = graph.build_wall();
            }
        }
    }

    /// The prologue standalone ([`AuditContext::prepare`]): balance over
    /// the whole source, validation, and a context over the result.
    pub(crate) fn into_context(
        mut self,
        source: &dyn TraceSource,
    ) -> Result<AuditContext<'a>, Rejection> {
        source
            .for_each_epoch(SCAN_EVENTS, &mut |epoch| {
                epoch.iter().all(|e| self.push_balance(&e).is_some())
            })
            .map_err(Rejection::TraceStore)?;
        self.validate();
        match (self.verdict.0, self.shared) {
            (Some((_, rejection)), _) => Err(rejection),
            (None, Some(shared)) => Ok(AuditContext::new(shared, AuditCarry::default())),
            (None, None) => unreachable!("an OpMap defect or a failed store build rejects"),
        }
    }

    fn settle(
        mut self,
        source: &dyn TraceSource,
        pool: &mut Pool<'_>,
    ) -> Result<AuditOutcome, Rejection> {
        self.validate();
        if self.verdict.open(WALK) {
            self.settle_walk(source, pool)?;
        }
        let mut output_scan = Duration::ZERO;
        if self.verdict.open(Stage::Output) {
            let output_t0 = Instant::now();
            if let Some(k) = self.out_state.iter().position(|&s| s != OutputCheck::Match) {
                let rid = self.balance.interner().rid(k as u32);
                let rejection = match self.out_state[k] {
                    OutputCheck::None => Rejection::MissingOutput { rid },
                    _ => Rejection::OutputMismatch { rid },
                };
                self.verdict.record(Stage::Output, rejection);
            }
            output_scan = output_t0.elapsed();
        }
        if let Some((_, rejection)) = self.verdict.0 {
            return Err(rejection);
        }
        let mut stats = self.stats;
        for carry in &self.carries {
            stats.absorb(&carry.stats);
        }
        let finished = |g: &usize| self.groups[*g].executed == self.plan.groups[*g].1.len();
        stats.groups_executed = (0..self.groups.len()).filter(finished).count();
        // Phase rows keep Fig. 9's CPU-decomposition meaning: summed
        // worker busy time, not wall time.
        let in_workers = stats.db_query_wall + stats.output_wall;
        stats.reexec_wall = self.reexec_busy.saturating_sub(in_workers);
        stats.output_wall += output_scan;
        let shared = self.shared.expect("an open verdict implies the prologue");
        Ok(assemble_outcome(&shared, stats))
    }

    /// Records what the walk over the planned groups contributes: the
    /// grouping cut, and every group failure below it that is the
    /// sequential walk's own — re-running whole, first, the groups
    /// whose standing is not ([`Unsettled`]).
    fn settle_walk(
        &mut self,
        source: &dyn TraceSource,
        pool: &mut Pool<'_>,
    ) -> Result<(), Rejection> {
        let seen = self.balance.num_requests();
        let cut = self.plan.cut(self.balance.interner());
        let mut horizon = cut.map_or(self.groups.len(), |(g, _)| g);
        let mut rerun = Vec::new();
        for g in 0..horizon {
            match &self.groups[g].unsettled {
                Some(Unsettled::Failed { seen: then, .. }) if *then == seen => {
                    horizon = g + 1;
                    break;
                }
                Some(_) => rerun.push(g),
                None => {}
            }
        }
        if !rerun.is_empty() {
            self.rerun_whole(&rerun, source, pool)?;
        }
        for (g, progress) in self.groups[..horizon].iter().enumerate() {
            if let Some(Unsettled::Failed { rejection, .. }) = &progress.unsettled {
                let stage = Stage::Walk(g, WalkStep::Execute);
                self.verdict.record(stage, rejection.clone());
            }
        }
        if let Some((g, rid)) = cut {
            let stage = Stage::Walk(g, WalkStep::UnknownMember);
            self.verdict
                .record(stage, Rejection::GroupUnknownRequest { rid });
        }
        Ok(())
    }

    /// Re-runs the planned groups `rerun` whole against the final
    /// state, collecting every payload they need in one pass over the
    /// source. All of them lie below the grouping cut of a balanced
    /// trace, so each member has both its events.
    fn rerun_whole(
        &mut self,
        rerun: &[usize],
        source: &dyn TraceSource,
        pool: &mut Pool<'_>,
    ) -> Result<(), Rejection> {
        let members = |g: usize| self.plan.groups[g].1.iter();
        let mut requests: HashMap<RequestId, HttpRequest> = HashMap::new();
        let mut responses: HashMap<RequestId, HttpResponse> = HashMap::new();
        let wanted: HashSet<RequestId> = rerun.iter().flat_map(|&g| members(g)).copied().collect();
        source
            .for_each_epoch(SCAN_EVENTS, &mut |epoch| {
                for event in epoch.iter().filter(|e| wanted.contains(&e.rid())) {
                    match event {
                        EventRef::Request(rid, req) => {
                            requests.insert(rid, req.to_owned());
                        }
                        EventRef::Response(rid, resp) => {
                            responses.insert(rid, resp.to_owned());
                        }
                    }
                }
                responses.len() < wanted.len()
            })
            .map_err(Rejection::TraceStore)?;
        let interner = self.balance.interner();
        let units: Vec<Unit<'_>> = rerun
            .iter()
            .map(|&g| Unit {
                group: g,
                tag: self.plan.groups[g].0,
                whole: true,
                indices: members(g)
                    .map(|rid| interner.index_of(*rid).expect("below the cut"))
                    .collect(),
                expected: members(g)
                    .map(|rid| ResponseRef::from(&responses[rid]))
                    .collect(),
                rids: members(g).copied().collect(),
                requests: Mutex::new(
                    members(g)
                        .map(|rid| requests.remove(rid).expect("below the cut"))
                        .map(|req| Payload::Owned(Box::new(req)))
                        .collect(),
                ),
            })
            .collect();
        for &g in rerun {
            self.groups[g] = GroupProgress::default();
        }
        self.run_pass(&units, pool);
        Ok(())
    }
}

/// Every audit entry point: cuts `source` into epochs of at most
/// `epoch_events` events (`0` = one epoch spanning the whole trace —
/// the batch audit) and drives the engine over them.
pub(crate) fn drive(
    source: &dyn TraceSource,
    reports: &Reports,
    mut pool: Pool<'_>,
    config: &AuditConfig,
    epoch_events: usize,
) -> Result<AuditOutcome, Rejection> {
    let mut engine = StreamingAudit::new(reports, config, pool.width());
    engine.total_events = Some(source.event_count());
    let budget = if epoch_events == 0 {
        usize::MAX
    } else {
        epoch_events
    };
    source
        .for_each_epoch(budget, &mut |epoch| engine.feed(epoch, &mut pool))
        .map_err(Rejection::TraceStore)?;
    engine.settle(source, &mut pool)
}

/// The pull-based streaming audit: [`crate::audit::audit_parallel_source`]
/// with the trace cut into epochs of at most `epoch_events` events
/// (`0` = one epoch, i.e. exactly that batch audit). Verdicts and
/// diagnostics are byte-identical at every epoch budget.
///
/// # Panics
///
/// Panics if `executors` is empty.
pub fn audit_streaming_source<E: GroupExecutor + Send>(
    source: &dyn TraceSource,
    reports: &Reports,
    executors: &mut [E],
    config: &AuditConfig,
    epoch_events: usize,
) -> Result<AuditOutcome, Rejection> {
    drive(
        source,
        reports,
        Pool::threads(executors),
        config,
        epoch_events,
    )
}
