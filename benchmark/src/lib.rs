//! The one benchmark of the audit pipeline. See `README.md` beside this
//! crate for the workloads, the metrics and how a run is put together.
//!
//! ```text
//! orochi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the driver contract's result
//! orochi-benchmark suite [--seed n] [--seconds s] [--results path]
//!     all four workloads, untraced + traced, into results.json
//! orochi-benchmark compare A.json B.json
//!     judges two sets against each metric's bound
//! orochi-benchmark trial …
//!     (internal) one arm in this fresh process
//! ```

pub mod cli;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod run;
pub mod span;
pub mod stats;
pub mod suite;
pub mod trial;
pub mod workloads;
