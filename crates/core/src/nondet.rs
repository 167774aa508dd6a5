//! Nondeterminism reports (§4.6).
//!
//! OROCHI's fourth report type: the return values of nondeterministic PHP
//! builtins (`time`, `microtime`, `getpid`, `mt_rand`, `uniqid`). The
//! server records them online; the verifier feeds them back during
//! re-execution **and** checks them against expected behaviour — time
//! queries must be monotonically non-decreasing and the process id
//! constant within a request. As the paper notes, these checks are
//! best-effort: the executor retains discretion over the actual values
//! (§4.6, §5.5).

use orochi_common::codec::{prealloc, Decoder, Encoder, Wire, WireError};
use orochi_common::ids::RequestId;
use std::collections::HashMap;

/// One recorded nondeterministic return value.
#[derive(Debug, Clone, PartialEq)]
pub enum NondetValue {
    /// `time()` — seconds since the epoch.
    Time(i64),
    /// `microtime(true)` — fractional seconds.
    Microtime(f64),
    /// `getpid()`.
    Pid(i64),
    /// `mt_rand()` / `rand()`.
    Rand(i64),
    /// `uniqid()`.
    Uniqid(String),
}

impl NondetValue {
    /// A short tag for mismatch diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            NondetValue::Time(_) => "time",
            NondetValue::Microtime(_) => "microtime",
            NondetValue::Pid(_) => "pid",
            NondetValue::Rand(_) => "rand",
            NondetValue::Uniqid(_) => "uniqid",
        }
    }
}

impl Wire for NondetValue {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            NondetValue::Time(v) => {
                enc.byte(0);
                enc.i64(*v);
            }
            NondetValue::Microtime(v) => {
                enc.byte(1);
                enc.f64(*v);
            }
            NondetValue::Pid(v) => {
                enc.byte(2);
                enc.i64(*v);
            }
            NondetValue::Rand(v) => {
                enc.byte(3);
                enc.i64(*v);
            }
            NondetValue::Uniqid(v) => {
                enc.byte(4);
                enc.str(v);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.byte()? {
            0 => NondetValue::Time(dec.i64()?),
            1 => NondetValue::Microtime(dec.f64()?),
            2 => NondetValue::Pid(dec.i64()?),
            3 => NondetValue::Rand(dec.i64()?),
            4 => NondetValue::Uniqid(dec.str()?),
            _ => return Err(WireError::Malformed("unknown nondet tag")),
        })
    }
}

/// Per-request sequences of recorded nondeterministic values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NondetLog {
    entries: HashMap<RequestId, Vec<NondetValue>>,
}

impl NondetLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a recorded value for `rid`.
    pub fn push(&mut self, rid: RequestId, value: NondetValue) {
        self.entries.entry(rid).or_default().push(value);
    }

    /// The recorded sequence for `rid` (empty if none).
    pub fn for_request(&self, rid: RequestId) -> &[NondetValue] {
        self.entries.get(&rid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The requests with recorded values, in no particular order.
    pub fn requests(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.entries.keys().copied()
    }

    /// Total recorded values across requests.
    pub fn total(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Validates the §4.6 sanity conditions for every request: `time` and
    /// `microtime` non-decreasing within the request, `pid` constant
    /// within the request. Returns the offending request on failure: the
    /// first in ascending rid order (the order of the log's `Wire`
    /// bytes), so every audit of one log names the same one.
    pub fn validate(&self) -> Result<(), RequestId> {
        let mut rids: Vec<&RequestId> = self.entries.keys().collect();
        rids.sort();
        for rid in rids {
            let values = &self.entries[rid];
            let mut last_time: Option<i64> = None;
            let mut last_micro: Option<f64> = None;
            let mut pid: Option<i64> = None;
            for v in values {
                match v {
                    NondetValue::Time(t) => {
                        if last_time.is_some_and(|prev| *t < prev) {
                            return Err(*rid);
                        }
                        last_time = Some(*t);
                    }
                    NondetValue::Microtime(t) => {
                        if last_micro.is_some_and(|prev| *t < prev) {
                            return Err(*rid);
                        }
                        last_micro = Some(*t);
                    }
                    NondetValue::Pid(p) => {
                        if pid.is_some_and(|prev| *p != prev) {
                            return Err(*rid);
                        }
                        pid = Some(*p);
                    }
                    NondetValue::Rand(_) | NondetValue::Uniqid(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Merges another log (used when assembling reports from per-thread
    /// recorders).
    pub fn merge(&mut self, other: NondetLog) {
        for (rid, mut values) in other.entries {
            self.entries.entry(rid).or_default().append(&mut values);
        }
    }
}

impl Wire for NondetLog {
    fn encode(&self, enc: &mut Encoder) {
        let mut rids: Vec<&RequestId> = self.entries.keys().collect();
        rids.sort();
        enc.u64(rids.len() as u64);
        for rid in rids {
            rid.encode(enc);
            self.entries[rid].encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.u64()? as usize;
        if n > dec.remaining() {
            return Err(WireError::Malformed("nondet count exceeds buffer"));
        }
        let mut entries = HashMap::with_capacity(prealloc::<(RequestId, Vec<NondetValue>)>(n));
        for _ in 0..n {
            let rid = RequestId::decode(dec)?;
            let values = Vec::<NondetValue>::decode(dec)?;
            if entries.insert(rid, values).is_some() {
                return Err(WireError::Malformed("duplicate rid in nondet log"));
            }
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_time_accepted() {
        let mut log = NondetLog::new();
        let rid = RequestId(1);
        log.push(rid, NondetValue::Time(100));
        log.push(rid, NondetValue::Time(100));
        log.push(rid, NondetValue::Time(101));
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn decreasing_time_rejected() {
        let mut log = NondetLog::new();
        let rid = RequestId(2);
        log.push(rid, NondetValue::Time(100));
        log.push(rid, NondetValue::Time(99));
        assert_eq!(log.validate(), Err(rid));
    }

    #[test]
    fn changing_pid_rejected() {
        let mut log = NondetLog::new();
        let rid = RequestId(3);
        log.push(rid, NondetValue::Pid(10));
        log.push(rid, NondetValue::Rand(5));
        log.push(rid, NondetValue::Pid(11));
        assert_eq!(log.validate(), Err(rid));
    }

    #[test]
    fn the_lowest_offending_request_is_named_whatever_the_insertion_order() {
        // Each log hashes its rids with its own random keys, so 32 logs
        // walk the two offenders in both orders many times over.
        for k in 0..32 {
            let mut log = NondetLog::new();
            let offenders = if k % 2 == 0 { [3, 9] } else { [9, 3] };
            for rid in offenders.map(RequestId) {
                log.push(rid, NondetValue::Pid(1));
                log.push(rid, NondetValue::Pid(2));
            }
            assert_eq!(log.validate(), Err(RequestId(3)), "log {k}");
        }
    }

    #[test]
    fn pid_may_differ_across_requests() {
        let mut log = NondetLog::new();
        log.push(RequestId(1), NondetValue::Pid(10));
        log.push(RequestId(2), NondetValue::Pid(11));
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn wire_roundtrip() {
        let mut log = NondetLog::new();
        log.push(RequestId(1), NondetValue::Time(5));
        log.push(RequestId(1), NondetValue::Uniqid("u1".into()));
        log.push(RequestId(7), NondetValue::Microtime(1.25));
        let bytes = log.to_wire_bytes();
        assert_eq!(NondetLog::from_wire_bytes(&bytes).unwrap(), log);
    }

    #[test]
    fn merge_appends_sequences() {
        let mut a = NondetLog::new();
        a.push(RequestId(1), NondetValue::Rand(1));
        let mut b = NondetLog::new();
        b.push(RequestId(1), NondetValue::Rand(2));
        b.push(RequestId(2), NondetValue::Rand(3));
        a.merge(b);
        assert_eq!(a.for_request(RequestId(1)).len(), 2);
        assert_eq!(a.total(), 3);
    }
}
