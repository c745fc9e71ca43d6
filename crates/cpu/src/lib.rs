//! Out-of-order processor core model for the CGCT reproduction.
//!
//! Models the Table 3 core: 4-wide fetch/issue/commit, a 16-entry fetch
//! queue, 15-stage pipeline, gshare + BTB + return-address-stack branch
//! prediction, a 64-entry ROB, a 32-entry issue window, a 32-entry
//! load/store queue, one memory port, and the paper's two prefetchers
//! (Power4-style stream prefetching and MIPS R10000-style exclusive
//! prefetching — the latter via the `store_intent` hint on loads).
//!
//! The core is *trace-driven*: a [`UopSource`] supplies a dynamic
//! instruction stream (the synthetic workloads), and a [`MemoryInterface`]
//! — implemented by the system crate over the caches, RCA, and
//! interconnect — answers each instruction fetch and data access with its
//! completion time. Wrong-path instructions are not simulated; a branch
//! misprediction costs the pipeline-refill bubble.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bpred;
pub mod config;
pub mod core;
pub mod prefetch;
pub mod uop;

pub use bpred::BranchPredictor;
pub use config::CoreConfig;
pub use core::{Core, CoreStats, MemoryInterface, Wakeup};
pub use prefetch::{PrefetchRequest, StreamPrefetcher};
pub use uop::{BranchKind, Uop, UopKind, UopSource};
