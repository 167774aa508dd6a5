//! Deterministic single-site tampers for the soundness batteries.
//!
//! These are the hand-written ancestors of the generative operator
//! library in [`crate::mutation`], kept as thin front-ends over the
//! same site primitives: each helper addresses one *specific* site (a
//! key prefix plus a last-match rule) instead of drawing one from a
//! seed, so `tests/soundness.rs` and the per-app tamper batteries can
//! pin exact sites and exact diagnostics. Each helper returns whether
//! it found a site (callers assert `true`, so a workload that stops
//! producing the targeted structure fails loudly instead of silently
//! testing nothing). The KV helpers target the versioned-KV audit path
//! (§4.5, §A.7): reads are fed from `kv.get(k, s)`, so reordering or
//! dropping log entries changes what re-execution observes — an honest
//! trace then cannot be reproduced and the audit must reject.

use crate::mutation::{
    apply_drop, apply_duplicate, apply_move_read, kv_set_positions, stale_read_pairs,
};
use orochi_core::reports::Reports;
use orochi_state::object::ObjectName;
use orochi_state::oplog::OpLog;
use orochi_trace::{Event, Trace};

/// The APC key-value log, if any.
fn kv_log(reports: &mut Reports) -> Option<&mut OpLog> {
    let i = reports.op_logs.index_of(&ObjectName::kv("apc"))?;
    reports.op_logs.log_mut(i)
}

/// Drops the last `KvSet` whose key starts with `key_prefix` from the
/// KV log (a write the server performed but "forgot" to report).
pub fn drop_kv_write(reports: &mut Reports, key_prefix: &str) -> bool {
    let Some(log) = kv_log(reports) else {
        return false;
    };
    let Some(&pos) = kv_set_positions(log, key_prefix).last() else {
        return false;
    };
    apply_drop(log, pos);
    true
}

/// Makes a KV read stale: finds a key with two writes of different
/// values and a read observing the newer one, then moves the read to
/// just after the older write. Re-execution feeds the read the older
/// version, so the response the server actually delivered can no
/// longer be reproduced. Refuses (returns `false`) when every
/// reorderable pair holds equal values — moving such a read changes
/// nothing observable.
pub fn reorder_kv_read(reports: &mut Reports, key_prefix: &str) -> bool {
    let Some(log) = kv_log(reports) else {
        return false;
    };
    let Some(&(read, write)) = stale_read_pairs(log, key_prefix).first() else {
        return false;
    };
    apply_move_read(log, read, write);
    true
}

/// Replays a KV write: duplicates the last `KvSet` whose key starts
/// with `key_prefix`, as if the server's recorder reported the same
/// operation twice.
pub fn replay_kv_write(reports: &mut Reports, key_prefix: &str) -> bool {
    let Some(log) = kv_log(reports) else {
        return false;
    };
    let Some(&pos) = kv_set_positions(log, key_prefix).last() else {
        return false;
    };
    apply_duplicate(log, pos);
    true
}

/// Forges a checkout total in the trace: finds the first response body
/// containing `total=<n>` and adds 1 to the number (the storefront
/// charging more than the order the program computed).
pub fn forge_cart_total(trace: &mut Trace) -> bool {
    for event in trace.events.iter_mut() {
        let Event::Response(_, resp) = event else {
            continue;
        };
        let Some(at) = resp.body.find("total=") else {
            continue;
        };
        let digits_start = at + "total=".len();
        let digits_len = resp.body[digits_start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .count();
        if digits_len == 0 {
            continue;
        }
        let total: u64 = resp.body[digits_start..digits_start + digits_len]
            .parse()
            .expect("ascii digits");
        resp.body.replace_range(
            digits_start..digits_start + digits_len,
            &(total + 1).to_string(),
        );
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use orochi_common::ids::{OpNum, RequestId, SeqNum};
    use orochi_state::object::OpContents;
    use orochi_state::oplog::{OpLogEntry, OpLogs};
    use orochi_trace::{HttpRequest, HttpResponse};

    fn kv_entry(rid: u64, opnum: u32, contents: OpContents) -> OpLogEntry {
        OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(opnum),
            contents,
        }
    }

    fn reports_with_kv(entries: Vec<OpLogEntry>) -> Reports {
        let mut op_logs = OpLogs::new();
        op_logs.push(ObjectName("kv:apc".into()), OpLog::from_entries(entries));
        Reports {
            op_logs,
            ..Default::default()
        }
    }

    fn set(key: &str, v: u8) -> OpContents {
        OpContents::KvSet {
            key: key.into(),
            value: Some(vec![v].into()),
        }
    }

    #[test]
    fn reorder_moves_read_behind_older_differing_write() {
        let mut reports = reports_with_kv(vec![
            kv_entry(1, 1, set("inv:1", 10)),
            kv_entry(2, 1, set("inv:1", 9)),
            kv_entry(
                3,
                1,
                OpContents::KvGet {
                    key: "inv:1".into(),
                },
            ),
        ]);
        assert!(reorder_kv_read(&mut reports, "inv:"));
        let log = reports.op_logs.log(0).unwrap();
        // The read now sits right after the older write.
        assert!(matches!(
            log.get(SeqNum(2)).unwrap().contents,
            OpContents::KvGet { .. }
        ));
    }

    #[test]
    fn reorder_refuses_when_values_agree() {
        // Two writes with the same value: moving the read changes
        // nothing observable, so the helper must not claim success.
        let mut reports = reports_with_kv(vec![
            kv_entry(1, 1, set("inv:1", 7)),
            kv_entry(2, 1, set("inv:1", 7)),
            kv_entry(
                3,
                1,
                OpContents::KvGet {
                    key: "inv:1".into(),
                },
            ),
        ]);
        assert!(!reorder_kv_read(&mut reports, "inv:"));
    }

    #[test]
    fn drop_and_replay_target_kv_sets() {
        let mut reports = reports_with_kv(vec![
            kv_entry(1, 1, set("frag:1", 1)),
            kv_entry(2, 1, set("inv:1", 2)),
        ]);
        assert!(drop_kv_write(&mut reports, "inv:"));
        assert_eq!(reports.op_logs.log(0).unwrap().len(), 1);
        assert!(replay_kv_write(&mut reports, "frag:"));
        assert_eq!(reports.op_logs.log(0).unwrap().len(), 2);
        assert!(!drop_kv_write(&mut reports, "nope:"));
        assert!(!replay_kv_write(&mut reports, "nope:"));
    }

    #[test]
    fn replay_addresses_its_site_by_prefix() {
        // Two writes with distinct prefixes: the selector must pick the
        // requested one, not the last write overall.
        let mut reports = reports_with_kv(vec![
            kv_entry(1, 1, set("inv:1", 1)),
            kv_entry(2, 1, set("frag:9", 2)),
        ]);
        assert!(replay_kv_write(&mut reports, "inv:"));
        let log = reports.op_logs.log(0).unwrap();
        assert_eq!(log.len(), 3);
        // The duplicate landed right after the inv: write.
        assert!(matches!(&log.get(SeqNum(2)).unwrap().contents,
                OpContents::KvSet { key, .. } if &**key == "inv:1"));
    }

    #[test]
    fn forge_total_bumps_digits() {
        let rid = RequestId(1);
        let mut trace = Trace {
            events: vec![
                Event::Request(rid, HttpRequest::get("/checkout.php", &[])),
                Event::Response(
                    rid,
                    HttpResponse::ok(rid, "<p>order 3 placed by ada total=32</p>"),
                ),
            ],
        };
        assert!(forge_cart_total(&mut trace));
        let Event::Response(_, resp) = &trace.events[1] else {
            panic!("expected a response event");
        };
        assert!(resp.body.contains("total=33"));
        let mut empty = Trace::new();
        assert!(!forge_cart_total(&mut empty));
    }
}
