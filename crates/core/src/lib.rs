//! Coarse-Grain Coherence Tracking (CGCT) — the contribution of
//! *"Improving Multiprocessor Performance with Coarse-Grain Coherence
//! Tracking"* (Cantin, Lipasti, Smith — ISCA 2005).
//!
//! A conventional snooping multiprocessor broadcasts every memory request
//! so other caches can be checked, yet on average 67% of those broadcasts
//! find no cached copies anywhere. CGCT adds a **Region Coherence Array
//! (RCA)** beside each processor's L2 tags that tracks coherence status for
//! large aligned *regions* (4–16 cache lines). When the region state proves
//! no other processor caches lines of a region, requests are sent directly
//! to the memory controller — or, for upgrades and `dcbz`, completed with
//! no external request at all — without violating coherence.
//!
//! This crate contains the protocol itself, independent of simulation
//! timing:
//!
//! * [`RegionState`] — the seven stable states of Table 1 and their
//!   broadcast rules;
//! * [`protocol`] — the transition functions of Figures 3–5;
//! * [`RegionSnoopResponse`] — the two extra snoop-response bits (§3.4);
//! * [`RegionCoherenceArray`] — the RCA with line counts, inclusion,
//!   empty-region-favoring replacement, and self-invalidation (§3.2);
//! * [`overhead`] — the storage-overhead model of Table 2;
//! * [`scaled`] — the scaled-back one-bit/three-state variant (§3.4);
//! * [`regionscout`] — a RegionScout-style imprecise filter (related work,
//!   §2) for comparison.
//!
//! # Examples
//!
//! ```
//! use cgct::{RegionState, RegionPermission};
//! use cgct_cache::ReqKind;
//!
//! // A region held Dirty-Invalid: this processor may have modified lines,
//! // nobody else caches the region — stores need no broadcast.
//! let s = RegionState::DirtyInvalid;
//! assert_eq!(s.permission(ReqKind::ReadExclusive), RegionPermission::DirectToMemory);
//! assert_eq!(s.permission(ReqKind::Upgrade), RegionPermission::CompleteLocally);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod jetty;
pub mod overhead;
pub mod protocol;
pub mod rca;
pub mod regionscout;
pub mod response;
pub mod scaled;
pub mod state;

pub use jetty::JettyFilter;
pub use overhead::{OverheadRow, StorageModel};
pub use protocol::{external_next_state, local_fill_next_state, FillKind};
pub use rca::{LocalFill, RcaConfig, RcaStats, RegionCoherenceArray, RegionEntry, RegionEviction};
pub use regionscout::RegionScout;
pub use response::RegionSnoopResponse;
pub use scaled::{ScaledRca, ScaledRegionState};
pub use state::{ExternalPart, LocalPart, RegionPermission, RegionState};
