//! The untrusted reports the executor hands the verifier (§3, §4.6).
//!
//! Four report types:
//!
//! 1. **Control-flow groupings** `C`: an opaque tag per request;
//!    same-tag requests are supposed to share a control-flow path.
//! 2. **Operation logs** `OL_i`: one ordered log per shared object.
//! 3. **Operation counts** `M`: the number of object operations each
//!    request issued.
//! 4. **Nondeterminism** (OROCHI's addition): recorded return values of
//!    nondeterministic builtins.
//!
//! All of it is untrusted; the audit validates it as a whole.
//!
//! The bundle has one encoding, its [`Wire`] bytes: they are what
//! [`Reports::wire_size`] counts (Fig. 8's report column) and what
//! [`spill_reports`] stores beside a sealed trace as the
//! [`REPORTS_BLOB`] blob. One encoder (and one decoder) runs over the
//! whole bundle, so its first-use dictionary spans every log: each
//! distinct SELECT text and logged value crosses the wire once (see
//! `orochi_state::object` for what is shared and why).

use crate::nondet::NondetLog;
use orochi_common::codec::{prealloc, Decoder, Encoder, Wire, WireError};
use orochi_common::ids::{CtlFlowTag, RequestId};
use orochi_state::oplog::OpLogs;
use orochi_trace::{TraceStoreError, TraceStoreReader, TraceStoreWriter};

/// Blob name under which the report bundle is stored.
pub const REPORTS_BLOB: &str = "reports";

/// The full report bundle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reports {
    /// `C`: control-flow tag -> requestIDs (§3.1).
    pub groupings: Vec<(CtlFlowTag, Vec<RequestId>)>,
    /// `OL_1..OL_n`: per-object operation logs (§3.3).
    pub op_logs: OpLogs,
    /// `M`: requestID -> total object-operation count (§3.3).
    pub op_counts: OpCounts,
    /// Recorded nondeterministic builtin results (§4.6).
    pub nondet: NondetLog,
}

impl Reports {
    /// Creates an empty report bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// `M(rid)`: the claimed operation count, defaulting to 0 for
    /// requests the executor did not mention.
    pub fn op_count(&self, rid: RequestId) -> u32 {
        self.op_counts.get(&rid).copied().unwrap_or(0)
    }

    /// Total operations across all logs (the paper's `Y`).
    pub fn total_ops(&self) -> usize {
        self.op_logs.total_ops()
    }

    /// Total encoded size in bytes (the Fig. 8 "reports" column).
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }

    /// Encoded size of the nondeterminism report alone — the paper's
    /// stand-in for what a baseline record-replay system would ship
    /// (§5.1: "we capture the baseline's report size with OROCHI's
    /// non-deterministic reports").
    pub fn nondet_wire_size(&self) -> usize {
        self.nondet.to_wire_bytes().len()
    }
}

impl Wire for Reports {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.groupings.len() as u64);
        for (tag, rids) in &self.groupings {
            tag.encode(enc);
            rids.encode(enc);
        }
        self.op_logs.encode(enc);
        enc.u64(self.op_counts.len() as u64);
        for (rid, count) in self.op_counts.iter() {
            rid.encode(enc);
            enc.u64(*count as u64);
        }
        self.nondet.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.u64()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Malformed("grouping count exceeds buffer"));
        }
        let mut groupings = Vec::with_capacity(prealloc::<(CtlFlowTag, Vec<RequestId>)>(n));
        for _ in 0..n {
            groupings.push((CtlFlowTag::decode(dec)?, Vec::<RequestId>::decode(dec)?));
        }
        let op_logs = OpLogs::decode(dec)?;
        let m = dec.u64()? as usize;
        if m > dec.remaining() {
            return Err(WireError::Malformed("count entries exceed buffer"));
        }
        // The encoder writes `M` strictly increasing by requestID, so the
        // columns fill in order; anything else (a repeat included) is
        // malformed.
        let mut op_counts = OpCounts {
            rids: Vec::with_capacity(prealloc::<RequestId>(m)),
            counts: Vec::with_capacity(prealloc::<u32>(m)),
        };
        for _ in 0..m {
            let rid = RequestId::decode(dec)?;
            let count = dec.u64()?;
            if count > u32::MAX as u64 {
                return Err(WireError::Malformed("op count out of range"));
            }
            if op_counts.rids.last().is_some_and(|&last| rid <= last) {
                return Err(WireError::Malformed("op counts out of requestID order"));
            }
            op_counts.rids.push(rid);
            op_counts.counts.push(count as u32);
        }
        op_counts.rids.shrink_to_fit();
        op_counts.counts.shrink_to_fit();
        let nondet = NondetLog::decode(dec)?;
        Ok(Self {
            groupings,
            op_logs,
            op_counts,
            nondet,
        })
    }
}

/// `M`: the claimed operation count of each request the executor
/// names, as two columns sorted by requestID (4 bytes of count and 8 of
/// requestID per request, found by binary search).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    rids: Vec<RequestId>,
    counts: Vec<u32>,
}

impl OpCounts {
    /// No counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests with a count.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// True if no request has a count.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    fn find(&self, rid: &RequestId) -> Result<usize, usize> {
        self.rids.binary_search(rid)
    }

    /// The count of `rid`, if it has one.
    pub fn get(&self, rid: &RequestId) -> Option<&u32> {
        self.find(rid).ok().map(|i| &self.counts[i])
    }

    /// The count of `rid`, mutably.
    pub fn get_mut(&mut self, rid: &RequestId) -> Option<&mut u32> {
        self.find(rid).ok().map(|i| &mut self.counts[i])
    }

    /// Sets the count of `rid`, returning the one it replaces.
    pub fn insert(&mut self, rid: RequestId, count: u32) -> Option<u32> {
        match self.find(&rid) {
            Ok(i) => Some(std::mem::replace(&mut self.counts[i], count)),
            Err(i) => {
                self.rids.insert(i, rid);
                self.counts.insert(i, count);
                None
            }
        }
    }

    /// Removes the count of `rid`, returning it.
    pub fn remove(&mut self, rid: &RequestId) -> Option<u32> {
        let i = self.find(rid).ok()?;
        self.rids.remove(i);
        Some(self.counts.remove(i))
    }

    /// The requests with a count, in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = &RequestId> {
        self.rids.iter()
    }

    /// `(rid, count)` pairs in increasing requestID order.
    pub fn iter(&self) -> impl Iterator<Item = (&RequestId, &u32)> {
        self.rids.iter().zip(&self.counts)
    }

    /// [`OpCounts::iter`] with the counts mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&RequestId, &mut u32)> {
        self.rids.iter().zip(&mut self.counts)
    }
}

impl FromIterator<(RequestId, u32)> for OpCounts {
    /// Collects pairs in any order; a later pair for a request replaces
    /// an earlier one, as in a map.
    fn from_iter<I: IntoIterator<Item = (RequestId, u32)>>(pairs: I) -> Self {
        let mut pairs: Vec<(RequestId, u32)> = pairs.into_iter().collect();
        // Stable, so equal requestIDs keep their order and the last wins.
        pairs.sort_by_key(|&(rid, _)| rid);
        let mut out = OpCounts::new();
        for (rid, count) in pairs {
            if out.rids.last() == Some(&rid) {
                *out.counts.last_mut().expect("parallel columns") = count;
            } else {
                out.rids.push(rid);
                out.counts.push(count);
            }
        }
        out
    }
}

/// Spills `reports` into `writer`'s directory as the [`REPORTS_BLOB`]
/// checksummed blob: the bundle's wire bytes.
pub fn spill_reports(writer: &mut TraceStoreWriter, reports: &Reports) -> std::io::Result<()> {
    writer.write_blob(REPORTS_BLOB, &reports.to_wire_bytes())
}

/// Loads the report bundle spilled next to `reader`'s segments.
pub fn load_reports(reader: &TraceStoreReader) -> Result<Reports, TraceStoreError> {
    let bytes = reader.read_blob(REPORTS_BLOB)?;
    Reports::from_wire_bytes(&bytes).map_err(|e| {
        TraceStoreError::corrupt(
            reader.dir().join("reports.blob").display().to_string(),
            format!("reports blob malformed: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nondet::NondetValue;
    use orochi_common::ids::OpNum;
    use orochi_state::object::{ObjectName, OpContents};
    use orochi_state::oplog::{OpLog, OpLogEntry};

    fn sample() -> Reports {
        let mut log = OpLog::new();
        log.push(OpLogEntry {
            rid: RequestId(1),
            opnum: OpNum(1),
            contents: OpContents::KvGet { key: "k".into() },
        });
        let mut nondet = NondetLog::new();
        nondet.push(RequestId(1), NondetValue::Time(99));
        Reports {
            groupings: vec![(CtlFlowTag(0xabc), vec![RequestId(1), RequestId(2)])],
            op_logs: OpLogs::from_pairs(vec![(ObjectName::kv("apc"), log)]),
            op_counts: [(RequestId(1), 1), (RequestId(2), 0)].into_iter().collect(),
            nondet,
        }
    }

    #[test]
    fn op_count_defaults_to_zero() {
        let r = sample();
        assert_eq!(r.op_count(RequestId(1)), 1);
        assert_eq!(r.op_count(RequestId(999)), 0);
    }

    #[test]
    fn wire_roundtrip() {
        let r = sample();
        let bytes = r.to_wire_bytes();
        assert_eq!(Reports::from_wire_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn sizes_are_positive_and_ordered() {
        let r = sample();
        assert!(r.wire_size() > r.nondet_wire_size());
        assert_eq!(r.total_ops(), 1);
    }

    /// A bundle whose `M` lists `rids` in the order given.
    fn counts_blob(rids: &[u64]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(0);
        OpLogs::new().encode(&mut enc);
        enc.u64(rids.len() as u64);
        for &rid in rids {
            RequestId(rid).encode(&mut enc);
            enc.u64(1);
        }
        NondetLog::new().encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn op_counts_decode_only_in_increasing_order() {
        let decoded = Reports::from_wire_bytes(&counts_blob(&[1, 2, 5])).unwrap();
        assert_eq!(decoded.op_count(RequestId(5)), 1);
        for rids in [&[2, 1][..], &[1, 3, 3]] {
            assert_eq!(
                Reports::from_wire_bytes(&counts_blob(rids)),
                Err(WireError::Malformed("op counts out of requestID order"))
            );
        }
    }
}
