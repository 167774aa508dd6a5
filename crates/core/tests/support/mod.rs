//! A hostile but valid bundle shared by the dictionary tests: one
//! 256 KiB SELECT text that every read query of every committed
//! transaction references.

use orochi_common::ids::{OpNum, RequestId};
use orochi_core::Reports;
use orochi_state::object::{ObjectName, OpContents};
use orochi_state::oplog::{OpLog, OpLogEntry};
use std::sync::Arc;

/// Requests, one committed transaction each.
pub const TXNS: u64 = 1_000;
/// Read queries per transaction, all one text.
pub const READS_PER_TXN: usize = 100;
/// Bytes of the SELECT text.
pub const SELECT_BYTES: usize = 256 << 10;

/// `SELECT v FROM t WHERE v = 'xxx…'`, padded to [`SELECT_BYTES`].
pub fn big_select() -> Arc<str> {
    let head = "SELECT v FROM t WHERE v = '";
    let pad = SELECT_BYTES - head.len() - 1;
    format!("{head}{}'", "x".repeat(pad)).into()
}

/// [`TXNS`] requests (rids 1..), each one committed transaction of
/// [`READS_PER_TXN`] reads of one [`big_select`] handle.
pub fn big_select_reports() -> Reports {
    let select = big_select();
    let mut log = OpLog::new();
    for rid in 1..=TXNS {
        log.push(OpLogEntry {
            rid: RequestId(rid),
            opnum: OpNum(1),
            contents: OpContents::DbOp {
                queries: vec![Arc::clone(&select); READS_PER_TXN],
                succeeded: true,
                write_results: vec![None; READS_PER_TXN],
            },
        });
    }
    let mut reports = Reports::new();
    reports.op_logs.push(ObjectName::db("main"), log);
    reports.op_counts = (1..=TXNS).map(|rid| (RequestId(rid), 1)).collect();
    reports
}
