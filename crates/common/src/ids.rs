//! Identifier newtypes used throughout the audit pipeline.
//!
//! The paper identifies every request/response pair with a unique
//! `requestID` (§3), every state operation with a `(requestID, opnum)`
//! pair (§3.3), and every shared object with an index `i`. These newtypes
//! make it impossible to confuse the three in function signatures.

use crate::codec::{Decoder, Encoder, Wire, WireError};
use std::fmt;

/// Unique identifier of a request/response pair in a trace.
///
/// A well-behaved executor labels every response with the requestID of the
/// request that produced it (§3); the verifier checks uniqueness while
/// ensuring the trace is balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Per-request operation number.
///
/// A correct executor tracks and increments the opnum as the request
/// executes (§3.3); operation `(rid, opnum)` is globally unique. Opnum 0
/// and [`OpNum::INFINITY`] are reserved by the audit graph for the arrival
/// of the request and the departure of the response respectively (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpNum(pub u32);

impl OpNum {
    /// Sentinel representing the departure-of-response node `(rid, ∞)`.
    pub const INFINITY: OpNum = OpNum(u32::MAX);

    /// Returns true if this is the `∞` sentinel.
    pub fn is_infinity(self) -> bool {
        self == Self::INFINITY
    }
}

impl fmt::Display for OpNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinity() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Index of a shared object (register, key-value store, or database).
///
/// Each shared object `i` has its own operation log `OL_i` (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Sequence number of an entry within a single operation log.
///
/// The paper indexes logs from 1 (`OL_i : N+ → …`, §3.3); we keep that
/// convention, so a `SeqNum` of 0 never appears in a well-formed log index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqNum(pub u64);

/// Opaque control-flow tag recorded by the server for each request (§3.1).
///
/// Requests that induce the same control flow are supposed to receive the
/// same tag; the verifier re-executes each tag's request set as one group.
/// The tag is untrusted advice: every re-execution recomputes it, and a
/// wrong grouping is rejected as a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtlFlowTag(pub u64);

impl fmt::Display for CtlFlowTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cf{:016x}", self.0)
    }
}

impl Wire for RequestId {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(RequestId(dec.u64()?))
    }
}

impl Wire for OpNum {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.0 as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let v = dec.u64()?;
        if v > u32::MAX as u64 {
            return Err(WireError::Malformed("opnum out of range"));
        }
        Ok(OpNum(v as u32))
    }
}

impl Wire for ObjectId {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.0 as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let v = dec.u64()?;
        if v > u32::MAX as u64 {
            return Err(WireError::Malformed("object id out of range"));
        }
        Ok(ObjectId(v as u32))
    }
}

impl Wire for SeqNum {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SeqNum(dec.u64()?))
    }
}

impl Wire for CtlFlowTag {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(CtlFlowTag(dec.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opnum_infinity_is_distinguished() {
        assert!(OpNum::INFINITY.is_infinity());
        assert!(!OpNum(0).is_infinity());
        assert!(!OpNum(u32::MAX - 1).is_infinity());
    }

    #[test]
    fn display_formats() {
        assert_eq!(RequestId(7).to_string(), "r7");
        assert_eq!(OpNum(3).to_string(), "3");
        assert_eq!(OpNum::INFINITY.to_string(), "∞");
        assert_eq!(ObjectId(2).to_string(), "obj2");
    }

    #[test]
    fn ordering_matches_inner() {
        assert!(RequestId(1) < RequestId(2));
        assert!(OpNum(1) < OpNum::INFINITY);
        assert!(SeqNum(9) < SeqNum(10));
    }
}
