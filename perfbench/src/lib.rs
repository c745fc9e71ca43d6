//! Host-speed benchmark of the CGCT simulator and model checker.
//!
//! Four workloads run against the public API of `cgct-system`,
//! `cgct-cpu`, `cgct-workloads` and `cgct-verify`; see `README.md` for
//! the metrics and how to run one workload.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ the repository's clippy.toml keeps clocks and the environment out of
// the simulator; timing the host is this package's whole job.

pub mod harness;
pub mod report;
pub mod stats;
pub mod traced;
pub mod workload;
