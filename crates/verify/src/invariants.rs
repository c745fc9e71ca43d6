//! The global safety invariants checked at every explored state.
//!
//! I1–I6 are written once, in [`cgct_system::invariants`]; the runtime
//! sanitizer of `cgct-system` checks the same code against the live
//! machine. Here the model's global state — one region of `L` lines,
//! line `l` being `LineAddr(l)` — is a [`RegionView`] of its own.

use crate::model::GlobalState;
use cgct_cache::LineAddr;
use cgct_system::directory::DirEntry;
use cgct_system::invariants::{LineCopy, RegionEntry, RegionView};

/// Checks every invariant on `state`; returns the first violation.
///
/// # Errors
///
/// Returns a human-readable description of the violated invariant.
pub fn check(state: &GlobalState) -> Result<(), String> {
    cgct_system::invariants::check(std::slice::from_ref(state))
}

impl RegionView for GlobalState {
    fn copies(&self) -> impl Iterator<Item = LineCopy> + '_ {
        // Line by line, node by node.
        let (mut l, mut node) = (0, 0);
        std::iter::from_fn(move || loop {
            if node == self.nodes.len() {
                (l, node) = (l + 1, 0);
            }
            let state = *self.nodes.get(node)?.lines.get(l)?;
            node += 1;
            if state.is_valid() {
                let (line, node) = (LineAddr(l as u64), node - 1);
                return Some(LineCopy { line, node, state });
            }
        })
    }

    fn entries(&self) -> impl Iterator<Item = RegionEntry> + '_ {
        let valid = (0..).zip(&self.nodes).filter(|(_, n)| n.region.is_valid());
        valid.map(|(node, n)| {
            let (state, count) = (n.region, n.line_count);
            RegionEntry { node, state, count }
        })
    }

    fn tracks_regions(&self) -> bool {
        true
    }

    fn home(&self, line: LineAddr) -> Option<DirEntry> {
        self.home.as_ref()?.lines.get(line.0 as usize).copied()
    }

    fn dir_cache_mask(&self) -> Option<u64> {
        self.home.as_ref()?.cache_mask.map(u64::from)
    }

    fn home_entries(&self) -> impl Iterator<Item = DirEntry> + '_ {
        self.home.iter().flat_map(|home| home.lines.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HomeState, ModelConfig, NodeState};
    use cgct::RegionState;
    use cgct_cache::MoesiState;
    use cgct_system::invariants::{
        directory_integrity, permission_oracle_soundness, snoop_response_consistency,
    };

    fn node(lines: Vec<MoesiState>, region: RegionState, count: u32) -> NodeState {
        NodeState {
            lines,
            region,
            line_count: count,
        }
    }

    #[test]
    fn initial_state_is_clean() {
        let cfg = ModelConfig::default_3x2();
        check(&GlobalState::initial(&cfg)).unwrap();
    }

    #[test]
    fn catches_double_writer() {
        use MoesiState::*;
        let s = GlobalState {
            nodes: vec![
                node(vec![Modified, Invalid], RegionState::DirtyDirty, 1),
                node(vec![Exclusive, Invalid], RegionState::DirtyDirty, 1),
            ],
            home: None,
        };
        let err = check(&s).unwrap_err();
        assert!(err.starts_with("I1"), "{err}");
    }

    #[test]
    fn catches_stale_exclusive_claim() {
        use MoesiState::*;
        let s = GlobalState {
            nodes: vec![
                node(vec![Shared, Invalid], RegionState::CleanInvalid, 1),
                node(vec![Shared, Invalid], RegionState::CleanDirty, 1),
            ],
            home: None,
        };
        let err = check(&s).unwrap_err();
        assert!(err.starts_with("I2"), "{err}");
    }

    #[test]
    fn catches_count_drift() {
        use MoesiState::*;
        let s = GlobalState {
            nodes: vec![
                node(vec![Shared, Invalid], RegionState::CleanClean, 2),
                node(vec![Shared, Invalid], RegionState::CleanClean, 1),
            ],
            home: None,
        };
        let err = check(&s).unwrap_err();
        assert!(err.starts_with("I3"), "{err}");
    }

    #[test]
    fn catches_unsafe_externally_clean_claim() {
        use MoesiState::*;
        // Node 0 claims the region externally clean while node 1 holds a
        // modifiable copy — an ifetch would go direct and read stale data.
        let s = GlobalState {
            nodes: vec![
                node(vec![Shared, Invalid], RegionState::CleanClean, 1),
                node(vec![Invalid, Exclusive], RegionState::DirtyClean, 1),
            ],
            home: None,
        };
        let err = check(&s).unwrap_err();
        assert!(err.starts_with("I2"), "{err}");
    }

    #[test]
    fn catches_lying_snoop_response() {
        use MoesiState::*;
        // A locally-clean region state answers Region-Clean, but the node
        // holds an Owned (dirty) line. I2 and I4 both describe it; the
        // conservatism check fires first.
        let s = GlobalState {
            nodes: vec![
                node(vec![Owned, Invalid], RegionState::CleanDirty, 1),
                node(vec![Shared, Invalid], RegionState::CleanDirty, 1),
            ],
            home: None,
        };
        let err = check(&s).unwrap_err();
        assert!(err.starts_with("I2"), "{err}");
        let err = snoop_response_consistency(&s).unwrap_err();
        assert!(err.starts_with("I4"), "{err}");
    }

    #[test]
    fn catches_unsound_direct_permission() {
        use MoesiState::*;
        // Node 0's DI region would send loads direct while node 1 holds a
        // copy of a line in it. I2 fires on the exclusivity claim; the
        // dedicated oracle check fires on the same state.
        let s = GlobalState {
            nodes: vec![
                node(vec![Exclusive, Invalid], RegionState::DirtyInvalid, 1),
                node(vec![Invalid, Shared], RegionState::CleanDirty, 1),
            ],
            home: None,
        };
        let err = permission_oracle_soundness(&s).unwrap_err();
        assert!(err.starts_with("I5"), "{err}");
    }

    #[test]
    fn directory_machine_initial_state_is_clean() {
        let cfg = ModelConfig::directory_3x2();
        check(&GlobalState::initial(&cfg)).unwrap();
    }

    #[test]
    fn catches_unlisted_copy_at_the_home() {
        use MoesiState::*;
        // Node 1 caches line 0 but the home lists only node 0 — the
        // directory would skip node 1's cache on the next conflicting
        // request.
        let s = GlobalState {
            nodes: vec![
                node(vec![Shared, Invalid], RegionState::CleanClean, 1),
                node(vec![Shared, Invalid], RegionState::CleanClean, 1),
            ],
            home: Some(HomeState {
                lines: vec![
                    DirEntry {
                        owner: Some(0),
                        sharers: 0,
                    },
                    DirEntry::default(),
                ],
                cache_mask: Some(0b01),
            }),
        };
        let err = directory_integrity(&s).unwrap_err();
        assert!(
            err.starts_with("I6") && err.contains("does not list"),
            "{err}"
        );
    }

    #[test]
    fn catches_unrecorded_owner() {
        use MoesiState::*;
        // Node 1 holds the line Modified but the home thinks node 0 owns
        // it.
        let s = GlobalState {
            nodes: vec![
                node(vec![Invalid, Invalid], RegionState::Invalid, 0),
                node(vec![Modified, Invalid], RegionState::DirtyInvalid, 1),
            ],
            home: Some(HomeState {
                lines: vec![
                    DirEntry {
                        owner: Some(0),
                        sharers: 0b10,
                    },
                    DirEntry::default(),
                ],
                cache_mask: Some(0b11),
            }),
        };
        let err = directory_integrity(&s).unwrap_err();
        assert!(
            err.starts_with("I6") && err.contains("records owner"),
            "{err}"
        );
    }

    #[test]
    fn catches_drifted_region_directory_cache() {
        use MoesiState::*;
        // The per-line entries say node 1 caches the region, but the
        // region-grain cache mask was never refreshed — the next request
        // from node 0 would bypass the lookup and skip node 1.
        let s = GlobalState {
            nodes: vec![
                node(vec![Invalid, Invalid], RegionState::Invalid, 0),
                node(vec![Shared, Invalid], RegionState::CleanInvalid, 1),
            ],
            home: Some(HomeState {
                lines: vec![
                    DirEntry {
                        owner: Some(1),
                        sharers: 0,
                    },
                    DirEntry::default(),
                ],
                cache_mask: Some(0b01),
            }),
        };
        let err = directory_integrity(&s).unwrap_err();
        assert!(err.starts_with("I6") && err.contains("mask"), "{err}");
    }

    #[test]
    fn stale_extra_sharers_are_tolerated() {
        use MoesiState::*;
        // A silent clean eviction leaves node 0 listed as a sharer while
        // it caches nothing — the standard full-map conservatism; only
        // missing bits are violations.
        let s = GlobalState {
            nodes: vec![
                node(vec![Invalid, Invalid], RegionState::Invalid, 0),
                node(vec![Shared, Invalid], RegionState::CleanInvalid, 1),
            ],
            home: Some(HomeState {
                lines: vec![
                    DirEntry {
                        owner: Some(1),
                        sharers: 0b01,
                    },
                    DirEntry::default(),
                ],
                cache_mask: Some(0b11),
            }),
        };
        directory_integrity(&s).unwrap();
    }
}
