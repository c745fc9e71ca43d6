//! Exhaustive model checking for the MOESI × RCA coherence protocol.
//!
//! In the spirit of the Murphi-style verification the original
//! ASIM/PHARMsim infrastructure relied on, this crate enumerates *every*
//! reachable global state of a small configuration (2–4 nodes sharing
//! one region of 1–8 lines) and checks a set of safety invariants at
//! each one. Crucially, the transitions are computed by the **real**
//! protocol code — [`cgct_cache::snoop_line`] /
//! [`cgct_cache::requester_next_state`] at the line grain and a live
//! [`cgct::RegionCoherenceArray`] at the region grain — sequenced the
//! way `cgct_system::MemorySystem` sequences them. The checker therefore
//! verifies the shipped implementation, not a parallel model of it.
//!
//! The three layers:
//!
//! * [`model`] — the abstract machine, its events, and the bridge that
//!   drives the production transition functions (plus deliberate
//!   [`model::Mutation`]s for checker self-tests);
//! * [`invariants`] — the safety properties I1–I6 (single-writer,
//!   region-state conservatism, RCA/L2 inclusion, snoop-response
//!   consistency, permission-oracle soundness, directory integrity),
//!   written once in `cgct_system::invariants` and read here through
//!   the model state's view;
//! * [`checker`] — breadth-first exploration with exact-state dedup and
//!   shortest-path counterexample traces.
//!
//! The `cgct-verify` binary wraps [`checker::explore`] for CI; the
//! runtime sanitizer in `cgct-system` runs the same invariant code on
//! live simulations (`CGCT_SANITIZE=1`).
//!
//! # Examples
//!
//! ```
//! use cgct_verify::{checker, model::ModelConfig};
//!
//! let mut cfg = ModelConfig::default_3x2();
//! cfg.lines = 1; // keep the doctest fast
//! let result = checker::explore(&cfg);
//! assert!(result.clean());
//! assert!(result.states > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checker;
pub mod invariants;
pub mod model;

pub use checker::{explore, ExploreResult, Violation};
pub use model::{GlobalState, ModelConfig, Mutation, Protocol};
