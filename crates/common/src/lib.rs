//! Shared foundations for the orochi-rs workspace.
//!
//! This crate holds the small pieces every other crate needs: identifier
//! newtypes for requests, operations and shared objects; the hand-rolled
//! wire codec used to serialize traces and reports; a percentile and a
//! counting allocator for tests that measure; and a tiny deterministic
//! RNG used where the `rand` crate would be too heavy a dependency.
//!
//! Nothing in this crate is specific to the audit algorithm; see
//! `orochi-core` for SSCO itself.

pub mod codec;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod rng;

pub use codec::{Decoder, Encoder, Wire, WireError};
pub use hash::fnv1a;
pub use ids::{CtlFlowTag, ObjectId, OpNum, RequestId, SeqNum};
pub use metrics::percentile;
pub use rng::SplitMix64;
