//! The generative tamper-mutation engine behind the adversarial
//! campaign (DESIGN.md, "The adversarial campaign").
//!
//! A [`MutationOp`] is one seed-deterministic way a cheating executor
//! could doctor what it hands the verifier: a trace event forged, a
//! sub-log entry dropped/duplicated/reordered/retargeted, an op count
//! inflated, a nondeterminism record tampered with. Each operator
//! enumerates its candidate sites in a deterministic order, picks one
//! with the caller's [`SplitMix64`], applies the edit, and returns a
//! structured [`MutationSite`] naming exactly what it touched — so any
//! surviving mutant is a reproducible one-liner (operator, site, seed).
//!
//! Every operator is *individually sufficient*: the edit it makes is
//! guaranteed to be rejected by the audit (the table in DESIGN.md maps
//! each operator to the check that catches it). A [`MutationPlan`]
//! composes k operators while keeping their touched objects disjoint,
//! so stacked mutations cannot cancel each other back to an accepting
//! run (e.g. a replayed write followed by a drop of the same entry).
//!
//! The deterministic single-site wrappers in [`crate::tamper`] are
//! front-ends over the same site primitives (`*_positions` +
//! `apply_*`): the soundness battery pins exact sites, the campaign
//! draws them from a seed.

use orochi_common::ids::RequestId;
use orochi_common::rng::SplitMix64;
use orochi_core::nondet::{NondetLog, NondetValue};
use orochi_core::reports::Reports;
use orochi_state::object::{ObjectName, OpContents};
use orochi_state::oplog::{OpLog, OpLogEntry};
use orochi_trace::{Event, Trace};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// What a mutation operator touched: the operator's name, the object it
/// edited (a log name, `"trace"`, `"op_counts"`, or `"nondet"`), the
/// 0-based index of the edited entry/event within that object, and a
/// human-readable detail. The `Debug` rendering is the replay contract:
/// for a pinned (seed, k) pair it must be byte-stable across runs and
/// builds (`tests/campaign.rs` pins one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationSite {
    /// Operator name, e.g. `"drop_kv_write"`.
    pub operator: &'static str,
    /// The object the edit landed on.
    pub object: String,
    /// 0-based index of the edited entry within the object.
    pub index: usize,
    /// What changed, in words.
    pub detail: String,
}

impl fmt::Display for MutationSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}[{}]: {}",
            self.operator, self.object, self.index, self.detail
        )
    }
}

/// The operator library. Operators are grouped by the report surface
/// they attack; every one is caught by a specific audit check (see the
/// operator table in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Remove a `KvSet` from the KV log (a write the server "forgot").
    DropKvWrite,
    /// Duplicate a `KvSet` in place (the recorder reported it twice).
    ReplayKvWrite,
    /// Move a `KvGet` behind an older write of a different value.
    ReorderKvRead,
    /// Rename a `KvSet`'s key (the write lands on the wrong cell).
    RetargetKvWrite,
    /// Flip one bit of a `KvSet` payload.
    BitflipKvValue,
    /// Remove a `RegisterWrite` from a session-register log.
    DropRegisterWrite,
    /// Duplicate a `RegisterWrite` in place.
    ReplayRegisterWrite,
    /// Flip one bit of a `RegisterWrite` payload.
    BitflipRegisterWrite,
    /// Reverse a sub-log extent spanning two same-request entries.
    SpliceSublog,
    /// Drop a suffix of one op log.
    TruncateOpLog,
    /// Off-by-one a single entry's opnum.
    ShiftOpnum,
    /// Move an entry from one object's log into another's.
    MoveOpAcrossLogs,
    /// Inflate one request's claimed op count `M` by one.
    ForgeOpCount,
    /// Append a space to one logged SQL statement.
    RewriteDbQuery,
    /// Flip a transaction's logged commit/abort flag.
    FlipDbCommit,
    /// Bump a logged write result (affected rows / insert id).
    ForgeDbWriteResult,
    /// Change a delivered response's status code.
    ForgeResponseStatus,
    /// Append a byte to a delivered response body.
    ForgeResponseBody,
    /// Inject a header the program never set.
    InjectResponseHeader,
    /// Swap the requestID labels of two responses.
    SwapRidLabels,
    /// Delete a response event from the trace.
    DropResponse,
    /// Drop the last recorded nondet value of one request.
    TruncateNondet,
    /// Append an extra nondet value to one request.
    AppendNondet,
    /// Make a request's recorded time sequence regress.
    RegressNondetTime,
}

impl MutationOp {
    /// Every operator, in a fixed order (the plan's draw space).
    pub const ALL: [MutationOp; 24] = [
        MutationOp::DropKvWrite,
        MutationOp::ReplayKvWrite,
        MutationOp::ReorderKvRead,
        MutationOp::RetargetKvWrite,
        MutationOp::BitflipKvValue,
        MutationOp::DropRegisterWrite,
        MutationOp::ReplayRegisterWrite,
        MutationOp::BitflipRegisterWrite,
        MutationOp::SpliceSublog,
        MutationOp::TruncateOpLog,
        MutationOp::ShiftOpnum,
        MutationOp::MoveOpAcrossLogs,
        MutationOp::ForgeOpCount,
        MutationOp::RewriteDbQuery,
        MutationOp::FlipDbCommit,
        MutationOp::ForgeDbWriteResult,
        MutationOp::ForgeResponseStatus,
        MutationOp::ForgeResponseBody,
        MutationOp::InjectResponseHeader,
        MutationOp::SwapRidLabels,
        MutationOp::DropResponse,
        MutationOp::TruncateNondet,
        MutationOp::AppendNondet,
        MutationOp::RegressNondetTime,
    ];

    /// The operator's stable name (used in sites, BENCH rows, and
    /// escape reports).
    pub fn name(&self) -> &'static str {
        match self {
            MutationOp::DropKvWrite => "drop_kv_write",
            MutationOp::ReplayKvWrite => "replay_kv_write",
            MutationOp::ReorderKvRead => "reorder_kv_read",
            MutationOp::RetargetKvWrite => "retarget_kv_write",
            MutationOp::BitflipKvValue => "bitflip_kv_value",
            MutationOp::DropRegisterWrite => "drop_register_write",
            MutationOp::ReplayRegisterWrite => "replay_register_write",
            MutationOp::BitflipRegisterWrite => "bitflip_register_write",
            MutationOp::SpliceSublog => "splice_sublog",
            MutationOp::TruncateOpLog => "truncate_op_log",
            MutationOp::ShiftOpnum => "shift_opnum",
            MutationOp::MoveOpAcrossLogs => "move_op_across_logs",
            MutationOp::ForgeOpCount => "forge_op_count",
            MutationOp::RewriteDbQuery => "rewrite_db_query",
            MutationOp::FlipDbCommit => "flip_db_commit",
            MutationOp::ForgeDbWriteResult => "forge_db_write_result",
            MutationOp::ForgeResponseStatus => "forge_response_status",
            MutationOp::ForgeResponseBody => "forge_response_body",
            MutationOp::InjectResponseHeader => "inject_response_header",
            MutationOp::SwapRidLabels => "swap_rid_labels",
            MutationOp::DropResponse => "drop_response",
            MutationOp::TruncateNondet => "truncate_nondet",
            MutationOp::AppendNondet => "append_nondet",
            MutationOp::RegressNondetTime => "regress_nondet_time",
        }
    }

    /// Applies the operator to one rng-chosen site not already claimed
    /// by `touched`. Returns `None` when no eligible site exists (the
    /// plan then draws another operator); on success the touched
    /// object(s) are recorded so later operators in the same plan
    /// cannot edit — and possibly cancel — the same object.
    pub fn apply(
        &self,
        trace: &mut Trace,
        reports: &mut Reports,
        rng: &mut SplitMix64,
        touched: &mut HashSet<String>,
    ) -> Option<MutationSite> {
        match self {
            MutationOp::DropKvWrite => kv_op(reports, rng, touched, self.name(), |log, pos| {
                let key = entry_key(&log.entries()[pos]);
                apply_drop(log, pos);
                format!("dropped KvSet {key}")
            }),
            MutationOp::ReplayKvWrite => kv_op(reports, rng, touched, self.name(), |log, pos| {
                let key = entry_key(&log.entries()[pos]);
                apply_duplicate(log, pos);
                format!("replayed KvSet {key}")
            }),
            MutationOp::ReorderKvRead => {
                let name = ObjectName::kv("apc").0;
                if touched.contains(&name) {
                    return None;
                }
                let i = reports.op_logs.index_of(&ObjectName::kv("apc"))?;
                let log = reports.op_logs.log_mut(i).expect("index from lookup");
                let pairs = stale_read_pairs(log, "");
                let &(read, write) = pick(rng, &pairs)?;
                let key = entry_key(&log.entries()[read]);
                apply_move_read(log, read, write);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: read,
                    detail: format!("moved KvGet {key} behind the write at {write}"),
                })
            }
            MutationOp::RetargetKvWrite => kv_op(reports, rng, touched, self.name(), |log, pos| {
                let mut entries = log.entries();
                let detail;
                if let OpContents::KvSet { key, .. } = &mut entries[pos].contents {
                    detail = format!("retargeted KvSet {key} -> {key}~");
                    *key = format!("{key}~").into();
                } else {
                    unreachable!("candidate positions are KvSet");
                }
                *log = OpLog::from_entries(entries);
                detail
            }),
            MutationOp::BitflipKvValue => {
                let name = ObjectName::kv("apc").0;
                if touched.contains(&name) {
                    return None;
                }
                let i = reports.op_logs.index_of(&ObjectName::kv("apc"))?;
                let log = reports.op_logs.log_mut(i).expect("index from lookup");
                let candidates: Vec<usize> = log
                    .entries()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| {
                        matches!(&e.contents,
                            OpContents::KvSet { value: Some(v), .. } if !v.is_empty())
                    })
                    .map(|(p, _)| p)
                    .collect();
                let &pos = pick(rng, &candidates)?;
                let mut entries = log.entries();
                let key = entry_key(&entries[pos]);
                if let OpContents::KvSet { value: Some(v), .. } = &mut entries[pos].contents {
                    *v = flip_first_bit(v);
                }
                *log = OpLog::from_entries(entries);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: pos,
                    detail: format!("flipped bit 0 of KvSet {key}"),
                })
            }
            MutationOp::DropRegisterWrite => {
                register_op(reports, rng, touched, self.name(), |log, pos| {
                    apply_drop(log, pos);
                    "dropped RegisterWrite".to_string()
                })
            }
            MutationOp::ReplayRegisterWrite => {
                register_op(reports, rng, touched, self.name(), |log, pos| {
                    apply_duplicate(log, pos);
                    "replayed RegisterWrite".to_string()
                })
            }
            MutationOp::BitflipRegisterWrite => {
                // Same shape as the generic register op but restricted
                // to non-empty payloads.
                let candidates: Vec<(usize, usize)> = reports
                    .op_logs
                    .iter()
                    .filter(|(_, name, _)| name.0.starts_with("reg:") && !touched.contains(&name.0))
                    .flat_map(|(i, _, log)| {
                        log.iter()
                            .map(|(_, e)| e)
                            .enumerate()
                            .filter(|(_, e)| {
                                matches!(e.contents,
                                    OpContents::RegisterWrite { value } if !value.is_empty())
                            })
                            .map(move |(p, _)| (i, p))
                    })
                    .collect();
                let &(i, pos) = pick(rng, &candidates)?;
                let name = reports.op_logs.name(i).expect("index from scan").0.clone();
                let log = reports.op_logs.log_mut(i).expect("index from scan");
                let mut entries = log.entries();
                if let OpContents::RegisterWrite { value } = &mut entries[pos].contents {
                    *value = flip_first_bit(value);
                }
                *log = OpLog::from_entries(entries);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: pos,
                    detail: "flipped bit 0 of RegisterWrite".to_string(),
                })
            }
            MutationOp::SpliceSublog => {
                // Reverse the extent between a request's first two
                // entries in one log: those entries then carry
                // descending opnums, which the consistent-ordering
                // check refuses regardless of what sits between them.
                let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
                for (i, name, log) in reports.op_logs.iter() {
                    if touched.contains(&name.0) {
                        continue;
                    }
                    let entries = log.entries();
                    let mut seen: Vec<(RequestId, usize)> = Vec::new();
                    for (q, e) in entries.iter().enumerate() {
                        if let Some(&(_, p)) = seen.iter().find(|(rid, _)| *rid == e.rid) {
                            if entries[p].opnum != e.opnum {
                                candidates.push((i, p, q));
                            }
                        } else {
                            seen.push((e.rid, q));
                        }
                    }
                }
                let &(i, p, q) = pick(rng, &candidates)?;
                let name = reports.op_logs.name(i).expect("index from scan").0.clone();
                let log = reports.op_logs.log_mut(i).expect("index from scan");
                let mut entries = log.entries();
                let rid = entries[p].rid;
                entries[p..=q].reverse();
                *log = OpLog::from_entries(entries);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: p,
                    detail: format!("reversed extent [{p}..={q}] spanning {rid:?}"),
                })
            }
            MutationOp::TruncateOpLog => {
                let candidates = nonempty_logs(reports, touched);
                let &i = pick(rng, &candidates)?;
                let name = reports.op_logs.name(i).expect("index from scan").0.clone();
                let log = reports.op_logs.log_mut(i).expect("index from scan");
                let len = log.len();
                // Keep at least the first entry empty-proof: cut
                // anywhere in 0..len, dropping len-cut entries.
                let cut = rng.next_below(len as u64) as usize;
                let mut entries = log.entries();
                entries.truncate(cut);
                *log = OpLog::from_entries(entries);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: cut,
                    detail: format!("truncated {len} entries to {cut}"),
                })
            }
            MutationOp::ShiftOpnum => {
                let candidates = nonempty_logs(reports, touched);
                let &i = pick(rng, &candidates)?;
                let name = reports.op_logs.name(i).expect("index from scan").0.clone();
                let log = reports.op_logs.log_mut(i).expect("index from scan");
                let pos = rng.next_below(log.len() as u64) as usize;
                let mut entries = log.entries();
                let rid = entries[pos].rid;
                let old = entries[pos].opnum.0;
                entries[pos].opnum.0 = old + 1;
                *log = OpLog::from_entries(entries);
                touched.insert(name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: name,
                    index: pos,
                    detail: format!("shifted {rid:?} opnum {old} -> {}", old + 1),
                })
            }
            MutationOp::MoveOpAcrossLogs => {
                let candidates = nonempty_logs(reports, touched);
                if candidates.len() < 2 {
                    return None;
                }
                let from_pick = rng.next_below(candidates.len() as u64) as usize;
                let from = candidates[from_pick];
                let to = candidates[(from_pick + 1) % candidates.len()];
                let from_name = reports.op_logs.name(from).expect("scan").0.clone();
                let to_name = reports.op_logs.name(to).expect("scan").0.clone();
                let from_log = reports.op_logs.log_mut(from).expect("scan");
                let pos = rng.next_below(from_log.len() as u64) as usize;
                let moved = apply_drop(from_log, pos);
                let rid = moved.rid;
                let opnum = moved.opnum.0;
                let to_log = reports.op_logs.log_mut(to).expect("scan");
                to_log.push(moved);
                touched.insert(from_name.clone());
                touched.insert(to_name.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object: from_name.clone(),
                    index: pos,
                    detail: format!("moved {rid:?} op {opnum} from {from_name} to {to_name}"),
                })
            }
            MutationOp::ForgeOpCount => {
                let object = "op_counts".to_string();
                if touched.contains(&object) {
                    return None;
                }
                let mut rids: Vec<RequestId> = reports.op_counts.keys().copied().collect();
                rids.sort();
                let &rid = pick(rng, &rids)?;
                let count = reports.op_counts.get_mut(&rid).expect("key from scan");
                let old = *count;
                *count = old + 1;
                touched.insert(object.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object,
                    index: rid.0 as usize,
                    detail: format!("forged M({rid:?}) {old} -> {}", old + 1),
                })
            }
            MutationOp::RewriteDbQuery => db_op(
                reports,
                rng,
                touched,
                self.name(),
                |e| matches!(&e.contents, OpContents::DbOp { queries, .. } if !queries.is_empty()),
                |entries, pos, rng| {
                    let OpContents::DbOp { queries, .. } = &mut entries[pos].contents else {
                        unreachable!("candidates are DbOps");
                    };
                    let q = rng.next_below(queries.len() as u64) as usize;
                    queries[q] = format!("{} ", queries[q]).into();
                    format!("appended a space to query {q}")
                },
            ),
            MutationOp::FlipDbCommit => db_op(
                reports,
                rng,
                touched,
                self.name(),
                |e| matches!(&e.contents, OpContents::DbOp { .. }),
                |entries, pos, _| {
                    let OpContents::DbOp { succeeded, .. } = &mut entries[pos].contents else {
                        unreachable!("candidates are DbOps");
                    };
                    *succeeded = !*succeeded;
                    format!("flipped commit flag to {}", *succeeded)
                },
            ),
            MutationOp::ForgeDbWriteResult => db_op(
                reports,
                rng,
                touched,
                self.name(),
                |e| {
                    matches!(&e.contents,
                        OpContents::DbOp { succeeded: true, write_results, .. }
                            if write_results.iter().any(|r| r.is_some()))
                },
                |entries, pos, _| {
                    let OpContents::DbOp { write_results, .. } = &mut entries[pos].contents else {
                        unreachable!("candidates are DbOps");
                    };
                    let q = write_results
                        .iter()
                        .position(|r| r.is_some())
                        .expect("candidate has a write result");
                    let r = write_results[q].as_mut().expect("position of Some");
                    r.affected += 1;
                    format!("bumped affected rows of write {q}")
                },
            ),
            MutationOp::ForgeResponseStatus => {
                trace_op(trace, rng, touched, self.name(), |events, pos| {
                    let Event::Response(_, resp) = &mut events[pos] else {
                        unreachable!("candidates are responses");
                    };
                    resp.status += 1;
                    format!("status {} -> {}", resp.status - 1, resp.status)
                })
            }
            MutationOp::ForgeResponseBody => {
                trace_op(trace, rng, touched, self.name(), |events, pos| {
                    let Event::Response(_, resp) = &mut events[pos] else {
                        unreachable!("candidates are responses");
                    };
                    resp.body.push('!');
                    "appended '!' to the body".to_string()
                })
            }
            MutationOp::InjectResponseHeader => {
                trace_op(trace, rng, touched, self.name(), |events, pos| {
                    let Event::Response(_, resp) = &mut events[pos] else {
                        unreachable!("candidates are responses");
                    };
                    resp.headers
                        .push(("x-mutated".to_string(), "1".to_string()));
                    "injected header x-mutated: 1".to_string()
                })
            }
            MutationOp::SwapRidLabels => {
                let object = "trace".to_string();
                if touched.contains(&object) {
                    return None;
                }
                let responses = response_positions(trace);
                if responses.len() < 2 {
                    return None;
                }
                let a_pick = rng.next_below(responses.len() as u64) as usize;
                let a = responses[a_pick];
                let b = responses[(a_pick + 1) % responses.len()];
                let label_b = match &trace.events[b] {
                    Event::Response(_, resp) => resp.rid_label,
                    _ => unreachable!("candidates are responses"),
                };
                let label_a = match &mut trace.events[a] {
                    Event::Response(_, resp) => {
                        let l = resp.rid_label;
                        resp.rid_label = label_b;
                        l
                    }
                    _ => unreachable!("candidates are responses"),
                };
                if let Event::Response(_, resp) = &mut trace.events[b] {
                    resp.rid_label = label_a;
                }
                touched.insert(object.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object,
                    index: a,
                    detail: format!("swapped labels {label_a:?} <-> {label_b:?}"),
                })
            }
            MutationOp::DropResponse => {
                let object = "trace".to_string();
                if touched.contains(&object) {
                    return None;
                }
                let responses = response_positions(trace);
                let &pos = pick(rng, &responses)?;
                let rid = trace.events[pos].rid();
                trace.events.remove(pos);
                touched.insert(object.clone());
                Some(MutationSite {
                    operator: self.name(),
                    object,
                    index: pos,
                    detail: format!("dropped the response to {rid:?}"),
                })
            }
            MutationOp::TruncateNondet => nondet_op(
                trace,
                reports,
                rng,
                touched,
                self.name(),
                |values| !values.is_empty(),
                |values| {
                    let last = values.pop().expect("candidate is non-empty");
                    format!("dropped the last value ({})", last.kind())
                },
            ),
            MutationOp::AppendNondet => nondet_op(
                trace,
                reports,
                rng,
                touched,
                self.name(),
                |values| !values.is_empty(),
                |values| {
                    values.push(NondetValue::Rand(0x5EED));
                    "appended an extra rand value".to_string()
                },
            ),
            MutationOp::RegressNondetTime => nondet_op(
                trace,
                reports,
                rng,
                touched,
                self.name(),
                |values| {
                    values
                        .iter()
                        .filter(|v| matches!(v, NondetValue::Time(_)))
                        .count()
                        >= 2
                },
                |values| {
                    let first = values
                        .iter()
                        .find_map(|v| match v {
                            NondetValue::Time(t) => Some(*t),
                            _ => None,
                        })
                        .expect("candidate has times");
                    let last = values
                        .iter_mut()
                        .rev()
                        .find_map(|v| match v {
                            NondetValue::Time(t) => Some(t),
                            _ => None,
                        })
                        .expect("candidate has times");
                    *last = first - 1;
                    format!("regressed the last time to {}", first - 1)
                },
            ),
        }
    }
}

/// A seeded plan: draw operators from [`MutationOp::ALL`] until `k`
/// have landed on distinct objects (or the attempt budget runs out —
/// tiny fixtures may not offer k disjoint sites). The returned sites
/// are the full record of what changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationPlan {
    /// Seed for operator and site selection.
    pub seed: u64,
    /// Number of distinct-object mutations to apply.
    pub k: usize,
}

impl MutationPlan {
    /// Applies the plan, returning the sites actually mutated (at most
    /// `k`; fewer only when the bundle lacks enough disjoint sites).
    pub fn apply(&self, trace: &mut Trace, reports: &mut Reports) -> Vec<MutationSite> {
        let mut rng = SplitMix64::new(self.seed);
        let mut touched = HashSet::new();
        let mut sites = Vec::new();
        let mut attempts = 0usize;
        while sites.len() < self.k && attempts < 64 {
            attempts += 1;
            let op = MutationOp::ALL[rng.next_below(MutationOp::ALL.len() as u64) as usize];
            if let Some(site) = op.apply(trace, reports, &mut rng, &mut touched) {
                sites.push(site);
            }
        }
        sites
    }
}

// ---- site primitives (shared with `crate::tamper`) ------------------

/// Positions of `KvSet` entries whose key starts with `key_prefix`.
pub fn kv_set_positions(log: &OpLog, key_prefix: &str) -> Vec<usize> {
    log.entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(&e.contents, OpContents::KvSet { key, .. } if key.starts_with(key_prefix))
        })
        .map(|(p, _)| p)
        .collect()
}

/// `(read, older_write)` pairs where moving the read to just after the
/// older write changes the value it observes: the write visible to the
/// read and the older write hold different values, so the reorder is
/// guaranteed to diverge re-execution (the refusal-when-values-agree
/// contract of the original hand-written tamper).
pub fn stale_read_pairs(log: &OpLog, key_prefix: &str) -> Vec<(usize, usize)> {
    let entries = log.entries();
    let mut pairs = Vec::new();
    for (g, e) in entries.iter().enumerate() {
        let OpContents::KvGet { key } = &e.contents else {
            continue;
        };
        if !key.starts_with(key_prefix) {
            continue;
        }
        let mut visible: Option<&Option<Arc<[u8]>>> = None;
        for (w, we) in entries.iter().enumerate().take(g).rev() {
            let OpContents::KvSet { key: wk, value } = &we.contents else {
                continue;
            };
            if wk != key {
                continue;
            }
            match visible {
                None => visible = Some(value),
                Some(v) => {
                    if v != value {
                        pairs.push((g, w));
                        break;
                    }
                }
            }
        }
    }
    pairs
}

/// Removes and returns the entry at `pos`.
pub fn apply_drop(log: &mut OpLog, pos: usize) -> OpLogEntry {
    let mut entries = log.entries();
    let removed = entries.remove(pos);
    *log = OpLog::from_entries(entries);
    removed
}

/// Duplicates the entry at `pos` in place (the copy lands at `pos+1`).
pub fn apply_duplicate(log: &mut OpLog, pos: usize) {
    let mut entries = log.entries();
    let dup = entries[pos].clone();
    entries.insert(pos + 1, dup);
    *log = OpLog::from_entries(entries);
}

/// Moves the read at `read` to just after the write at `write < read`.
pub fn apply_move_read(log: &mut OpLog, read: usize, write: usize) {
    let mut entries = log.entries();
    let moved = entries.remove(read);
    entries.insert(write + 1, moved);
    *log = OpLog::from_entries(entries);
}

// ---- internal helpers ----------------------------------------------

fn pick<'a, T>(rng: &mut SplitMix64, candidates: &'a [T]) -> Option<&'a T> {
    if candidates.is_empty() {
        None
    } else {
        Some(&candidates[rng.next_below(candidates.len() as u64) as usize])
    }
}

fn entry_key(entry: &OpLogEntry) -> String {
    match &entry.contents {
        OpContents::KvSet { key, .. } | OpContents::KvGet { key } => key.to_string(),
        _ => String::new(),
    }
}

/// A copy of a logged value with bit 0 of its first byte flipped: other
/// entries may share the handle, so it is replaced, never written.
fn flip_first_bit(value: &[u8]) -> Arc<[u8]> {
    let mut flipped = value.to_vec();
    flipped[0] ^= 1;
    flipped.into()
}

/// Indexes of non-empty logs not yet claimed by the plan.
fn nonempty_logs(reports: &Reports, touched: &HashSet<String>) -> Vec<usize> {
    reports
        .op_logs
        .iter()
        .filter(|(_, name, log)| !log.is_empty() && !touched.contains(&name.0))
        .map(|(i, _, _)| i)
        .collect()
}

/// An edit to one rng-chosen `KvSet` of the APC log.
fn kv_op(
    reports: &mut Reports,
    rng: &mut SplitMix64,
    touched: &mut HashSet<String>,
    operator: &'static str,
    edit: impl FnOnce(&mut OpLog, usize) -> String,
) -> Option<MutationSite> {
    let name = ObjectName::kv("apc");
    if touched.contains(&name.0) {
        return None;
    }
    let i = reports.op_logs.index_of(&name)?;
    let log = reports.op_logs.log_mut(i).expect("index from lookup");
    let positions = kv_set_positions(log, "");
    let &pos = pick(rng, &positions)?;
    let detail = edit(log, pos);
    touched.insert(name.0.clone());
    Some(MutationSite {
        operator,
        object: name.0,
        index: pos,
        detail,
    })
}

/// An edit to one rng-chosen `RegisterWrite` across all register logs.
fn register_op(
    reports: &mut Reports,
    rng: &mut SplitMix64,
    touched: &mut HashSet<String>,
    operator: &'static str,
    edit: impl FnOnce(&mut OpLog, usize) -> String,
) -> Option<MutationSite> {
    let candidates: Vec<(usize, usize)> = reports
        .op_logs
        .iter()
        .filter(|(_, name, _)| name.0.starts_with("reg:") && !touched.contains(&name.0))
        .flat_map(|(i, _, log)| {
            log.iter()
                .map(|(_, e)| e)
                .enumerate()
                .filter(|(_, e)| matches!(e.contents, OpContents::RegisterWrite { .. }))
                .map(move |(p, _)| (i, p))
        })
        .collect();
    let &(i, pos) = pick(rng, &candidates)?;
    let name = reports.op_logs.name(i).expect("index from scan").0.clone();
    let log = reports.op_logs.log_mut(i).expect("index from scan");
    let detail = edit(log, pos);
    touched.insert(name.clone());
    Some(MutationSite {
        operator,
        object: name,
        index: pos,
        detail,
    })
}

/// An edit to one rng-chosen entry of the main DB log.
fn db_op(
    reports: &mut Reports,
    rng: &mut SplitMix64,
    touched: &mut HashSet<String>,
    operator: &'static str,
    eligible: impl Fn(&OpLogEntry) -> bool,
    edit: impl FnOnce(&mut Vec<OpLogEntry>, usize, &mut SplitMix64) -> String,
) -> Option<MutationSite> {
    let name = ObjectName::db("main");
    if touched.contains(&name.0) {
        return None;
    }
    let i = reports.op_logs.index_of(&name)?;
    let log = reports.op_logs.log_mut(i).expect("index from lookup");
    let candidates: Vec<usize> = log
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| eligible(e))
        .map(|(p, _)| p)
        .collect();
    let &pos = pick(rng, &candidates)?;
    let mut entries = log.entries();
    let detail = edit(&mut entries, pos, rng);
    *log = OpLog::from_entries(entries);
    touched.insert(name.0.clone());
    Some(MutationSite {
        operator,
        object: name.0,
        index: pos,
        detail,
    })
}

/// Positions of `Response` events in the trace.
fn response_positions(trace: &Trace) -> Vec<usize> {
    trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Response(..)))
        .map(|(p, _)| p)
        .collect()
}

/// An edit to one rng-chosen response event.
fn trace_op(
    trace: &mut Trace,
    rng: &mut SplitMix64,
    touched: &mut HashSet<String>,
    operator: &'static str,
    edit: impl FnOnce(&mut Vec<Event>, usize) -> String,
) -> Option<MutationSite> {
    let object = "trace".to_string();
    if touched.contains(&object) {
        return None;
    }
    let positions = response_positions(trace);
    let &pos = pick(rng, &positions)?;
    let detail = edit(&mut trace.events, pos);
    touched.insert(object.clone());
    Some(MutationSite {
        operator,
        object,
        index: pos,
        detail,
    })
}

/// An edit to one rng-chosen request's nondeterminism record. The log
/// is rebuilt from the trace's request order (stable under every other
/// operator: none of them remove `Request` events), so candidate
/// enumeration never depends on `HashMap` iteration order.
fn nondet_op(
    trace: &Trace,
    reports: &mut Reports,
    rng: &mut SplitMix64,
    touched: &mut HashSet<String>,
    operator: &'static str,
    eligible: impl Fn(&[NondetValue]) -> bool,
    edit: impl FnOnce(&mut Vec<NondetValue>) -> String,
) -> Option<MutationSite> {
    let object = "nondet".to_string();
    if touched.contains(&object) {
        return None;
    }
    let rids: Vec<RequestId> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Request(rid, _) => Some(*rid),
            Event::Response(..) => None,
        })
        .collect();
    let candidates: Vec<(usize, RequestId)> = rids
        .iter()
        .enumerate()
        .filter(|(_, rid)| eligible(reports.nondet.for_request(**rid)))
        .map(|(i, rid)| (i, *rid))
        .collect();
    let &(index, target) = pick(rng, &candidates)?;
    let mut rebuilt = NondetLog::new();
    let mut detail = String::new();
    let mut edit = Some(edit);
    for rid in &rids {
        let mut values = reports.nondet.for_request(*rid).to_vec();
        if *rid == target {
            let apply = edit.take().expect("request ids are unique in a trace");
            detail = format!("{:?}: {}", target, apply(&mut values));
        }
        for v in values {
            rebuilt.push(*rid, v);
        }
    }
    reports.nondet = rebuilt;
    touched.insert(object.clone());
    Some(MutationSite {
        operator,
        object,
        index,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_common::ids::{CtlFlowTag, OpNum};
    use orochi_state::oplog::OpLogs;
    use orochi_trace::{HttpRequest, HttpResponse};

    fn entry(rid: u64, opnum: u32, contents: OpContents) -> OpLogEntry {
        OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(opnum),
            contents,
        }
    }

    fn set(key: &str, v: u8) -> OpContents {
        OpContents::KvSet {
            key: key.into(),
            value: Some(vec![v].into()),
        }
    }

    /// A small synthetic bundle exercising every operator's surface:
    /// a KV log with a stale-read candidate, a register log, a DB log
    /// with a committed write, three requests with responses, and a
    /// nondet record with two times.
    fn fixture() -> (Trace, Reports) {
        let r1 = RequestId(1);
        let r2 = RequestId(2);
        let r3 = RequestId(3);
        let trace = Trace {
            events: vec![
                Event::Request(r1, HttpRequest::get("/a.php", &[])),
                Event::Response(r1, HttpResponse::ok(r1, "one")),
                Event::Request(r2, HttpRequest::get("/b.php", &[])),
                Event::Response(r2, HttpResponse::ok(r2, "two")),
                Event::Request(r3, HttpRequest::get("/c.php", &[])),
                Event::Response(r3, HttpResponse::ok(r3, "three")),
            ],
        };
        let mut kv = OpLog::new();
        kv.push(entry(1, 1, set("inv:1", 10)));
        kv.push(entry(1, 2, set("inv:1", 9)));
        kv.push(entry(
            2,
            1,
            OpContents::KvGet {
                key: "inv:1".into(),
            },
        ));
        let mut reg = OpLog::new();
        reg.push(entry(2, 2, OpContents::RegisterRead));
        reg.push(entry(
            2,
            3,
            OpContents::RegisterWrite {
                value: vec![7, 8].into(),
            },
        ));
        let mut db = OpLog::new();
        db.push(entry(
            3,
            1,
            OpContents::DbOp {
                queries: vec!["INSERT INTO t (v) VALUES (1)".into()],
                succeeded: true,
                write_results: vec![Some(orochi_state::object::DbWriteResult {
                    affected: 1,
                    last_insert_id: Some(1),
                })],
            },
        ));
        let mut op_logs = OpLogs::new();
        op_logs.push(ObjectName::kv("apc"), kv);
        op_logs.push(ObjectName::session("alice"), reg);
        op_logs.push(ObjectName::db("main"), db);
        let mut nondet = NondetLog::new();
        nondet.push(r1, NondetValue::Time(100));
        nondet.push(r1, NondetValue::Time(101));
        nondet.push(r2, NondetValue::Rand(5));
        let reports = Reports {
            groupings: vec![(CtlFlowTag(1), vec![r1, r2, r3])],
            op_logs,
            op_counts: [(r1, 2), (r2, 3), (r3, 1)].into_iter().collect(),
            nondet,
        };
        (trace, reports)
    }

    #[test]
    fn every_operator_finds_a_site_on_the_fixture() {
        for op in MutationOp::ALL {
            // Several seeds, because some operators draw a site first
            // and check eligibility second only via the candidate list.
            let mut landed = false;
            for seed in 0..8u64 {
                let (mut trace, mut reports) = fixture();
                let mut rng = SplitMix64::new(seed);
                let mut touched = HashSet::new();
                if let Some(site) = op.apply(&mut trace, &mut reports, &mut rng, &mut touched) {
                    assert_eq!(site.operator, op.name());
                    assert!(!touched.is_empty(), "{}", op.name());
                    // The edit must have actually changed the bundle.
                    let (t0, r0) = fixture();
                    assert!(
                        trace != t0 || reports != r0,
                        "{} claimed a site but changed nothing",
                        op.name()
                    );
                    landed = true;
                    break;
                }
            }
            assert!(landed, "{} never found a site on the fixture", op.name());
        }
    }

    #[test]
    fn operators_are_seed_deterministic() {
        for op in MutationOp::ALL {
            let (mut ta, mut ra) = fixture();
            let (mut tb, mut rb) = fixture();
            let sa = op.apply(
                &mut ta,
                &mut ra,
                &mut SplitMix64::new(9),
                &mut HashSet::new(),
            );
            let sb = op.apply(
                &mut tb,
                &mut rb,
                &mut SplitMix64::new(9),
                &mut HashSet::new(),
            );
            assert_eq!(sa, sb, "{}", op.name());
            assert_eq!(ta, tb, "{}", op.name());
            assert_eq!(ra, rb, "{}", op.name());
        }
    }

    #[test]
    fn operators_respect_the_touched_set() {
        for op in MutationOp::ALL {
            let (mut trace, mut reports) = fixture();
            let mut rng = SplitMix64::new(3);
            let mut touched: HashSet<String> = [
                "kv:apc",
                "reg:sess:alice",
                "db:main",
                "trace",
                "op_counts",
                "nondet",
            ]
            .into_iter()
            .map(String::from)
            .collect();
            assert_eq!(
                op.apply(&mut trace, &mut reports, &mut rng, &mut touched),
                None,
                "{} mutated a claimed object",
                op.name()
            );
        }
    }

    #[test]
    fn plan_applies_distinct_objects() {
        for seed in 0..32u64 {
            let (mut trace, mut reports) = fixture();
            let sites = MutationPlan { seed, k: 3 }.apply(&mut trace, &mut reports);
            assert!(!sites.is_empty(), "seed {seed} produced no mutations");
            let mut objects: Vec<&String> = sites.iter().map(|s| &s.object).collect();
            objects.sort();
            objects.dedup();
            assert_eq!(
                objects.len(),
                sites.len(),
                "seed {seed} reused an object: {sites:?}"
            );
        }
    }

    #[test]
    fn plan_is_replayable_from_its_seed() {
        let (mut ta, mut ra) = fixture();
        let (mut tb, mut rb) = fixture();
        let plan = MutationPlan {
            seed: 0xC0FFEE,
            k: 2,
        };
        assert_eq!(plan.apply(&mut ta, &mut ra), plan.apply(&mut tb, &mut rb));
        assert_eq!(ta, tb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn stale_read_pairs_refuse_agreeing_values() {
        let mut log = OpLog::new();
        log.push(entry(1, 1, set("inv:1", 7)));
        log.push(entry(2, 1, set("inv:1", 7)));
        log.push(entry(
            3,
            1,
            OpContents::KvGet {
                key: "inv:1".into(),
            },
        ));
        assert!(stale_read_pairs(&log, "inv:").is_empty());
    }
}
