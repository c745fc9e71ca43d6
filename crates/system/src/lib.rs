//! The full multiprocessor system simulator for the CGCT reproduction.
//!
//! Assembles the substrate crates into the paper's machine: four
//! out-of-order cores (2 per chip), per-core L1I/L1D and an inclusive
//! MOESI L2, a broadcast address network with Fireplane-like latencies,
//! region-interleaved memory controllers — and, per configuration, a
//! Region Coherence Array per processor implementing Coarse-Grain
//! Coherence Tracking (or the scaled-back / RegionScout variants).
//!
//! The crate also contains the oracle broadcast classifier behind
//! Figure 2, the metrics behind Figures 7–10, the multi-seed runner with
//! 95% confidence intervals, and a driver for every experiment in the
//! paper's evaluation.
//!
//! # Examples
//!
//! ```no_run
//! use cgct_system::{Machine, SystemConfig, CoherenceMode};
//! use cgct_workloads::by_name;
//!
//! let cfg = SystemConfig::paper_default(CoherenceMode::Cgct { region_bytes: 512, sets: 8192 });
//! let spec = by_name("tpc-w").unwrap();
//! let mut machine = Machine::new(cfg, &spec, 1);
//! let result = machine.run(50_000, 10_000_000);
//! println!("runtime: {} cycles", result.runtime_cycles);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod directory;
pub mod energy;
pub mod experiments;
pub mod invariants;
pub mod machine;
pub mod memsys;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod request;
pub mod runner;

pub use checkpoint::CheckpointRun;
pub use config::{CoherenceMode, SystemConfig};
pub use machine::{Machine, RunResult};
pub use memsys::MemorySystem;
pub use metrics::{MemMetrics, RequestBreakdown, RequestCategory};
pub use oracle::classify;
pub use runner::{run_averaged, run_cells, run_once, AggregateResult, RunPlan};
