//! Whole-system configuration (Table 3 defaults) and the host
//! environment-variable seam ([`env_knobs`]).

use cgct::RcaConfig;
use cgct_cache::{Geometry, HierarchyConfig};
use cgct_cpu::CoreConfig;
use cgct_interconnect::{LatencyModel, Topology};

/// Which coherence-tracking scheme supplements the line-grain MOESI
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Conventional broadcast snooping only.
    Baseline,
    /// Coarse-Grain Coherence Tracking with a full 7-state RCA.
    Cgct {
        /// Region size in bytes (256/512/1024 in the paper).
        region_bytes: u64,
        /// RCA sets (8192 main configuration, 4096 in Figure 9).
        sets: usize,
    },
    /// The scaled-back 3-state / one-response-bit variant (§3.4).
    Scaled {
        /// Region size in bytes.
        region_bytes: u64,
        /// Array sets.
        sets: usize,
    },
    /// RegionScout-style imprecise filter (related work, §2).
    RegionScout {
        /// Region size in bytes.
        region_bytes: u64,
    },
    /// A full-map directory protocol (no broadcasts at all): the
    /// alternative system organization the paper compares against, with
    /// its three-hop cache-to-cache transfers.
    Directory,
    /// The full-map directory augmented with per-node RCAs (§1.2 "much
    /// of the benefit of a directory-based system"): region-granular
    /// non-shared knowledge lets requests bypass the home-directory
    /// lookup and go direct to memory, and a region-grain directory
    /// cache at each memory controller short-circuits per-line DRAM
    /// directory lookups for regions it knows are uncached elsewhere.
    DirectoryCgct {
        /// Region size in bytes.
        region_bytes: u64,
        /// RCA sets (also sizes the per-controller region directory
        /// cache).
        sets: usize,
    },
    /// A two-level hierarchical machine: nodes snoop a cluster-local
    /// bus, and an inter-cluster region-grain directory at the home
    /// memory controller filters which *other* clusters a request must
    /// visit (BedRock-style hierarchy). Clusters map to topology
    /// boards.
    Hierarchical {
        /// Region size in bytes.
        region_bytes: u64,
        /// RCA sets per node.
        sets: usize,
    },
}

impl CoherenceMode {
    /// The region size this mode tracks (line size for the baseline,
    /// which tracks nothing).
    pub fn region_bytes(&self) -> u64 {
        match *self {
            CoherenceMode::Baseline | CoherenceMode::Directory => 64,
            CoherenceMode::Cgct { region_bytes, .. }
            | CoherenceMode::Scaled { region_bytes, .. }
            | CoherenceMode::RegionScout { region_bytes }
            | CoherenceMode::DirectoryCgct { region_bytes, .. }
            | CoherenceMode::Hierarchical { region_bytes, .. } => region_bytes,
        }
    }

    /// True for the modes whose line-grain bookkeeping lives in a
    /// full-map [`crate::directory::DirectoryController`] (and therefore in a
    /// `u64` sharer bit-vector).
    pub fn uses_directory(&self) -> bool {
        matches!(
            self,
            CoherenceMode::Directory | CoherenceMode::DirectoryCgct { .. }
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match *self {
            CoherenceMode::Baseline => "baseline".into(),
            CoherenceMode::Cgct { region_bytes, sets } => {
                if sets == 8192 {
                    format!("cgct-{region_bytes}B")
                } else {
                    format!("cgct-{region_bytes}B-{}sets", sets)
                }
            }
            CoherenceMode::Scaled { region_bytes, .. } => format!("scaled-{region_bytes}B"),
            CoherenceMode::RegionScout { region_bytes } => {
                format!("regionscout-{region_bytes}B")
            }
            CoherenceMode::Directory => "directory".into(),
            CoherenceMode::DirectoryCgct { region_bytes, .. } => {
                format!("dir-cgct-{region_bytes}B")
            }
            CoherenceMode::Hierarchical { region_bytes, .. } => {
                format!("hier-{region_bytes}B")
            }
        }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core/chip/switch/board arrangement.
    pub topology: Topology,
    /// Per-core cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Interconnect latencies.
    pub latency: LatencyModel,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Coherence tracking scheme.
    pub mode: CoherenceMode,
    /// Enable the Power4-style stream prefetcher.
    pub stream_prefetch: bool,
    /// Enable R10000-style exclusive prefetching (store-intent loads
    /// fetch modifiable copies).
    pub exclusive_prefetch: bool,
    /// Region self-invalidation (ablation; CGCT modes only).
    pub self_invalidation: bool,
    /// Empty-region-favoring RCA replacement (ablation).
    pub favor_empty_replacement: bool,
    /// Route write-backs directly using the region's MC index (§5.1).
    pub direct_writebacks: bool,
    /// §6 future work: drop hardware prefetches into externally-dirty
    /// regions ("the region coherence state can indicate when lines may
    /// be externally dirty and hence may not be good candidates for
    /// prefetching").
    pub region_prefetch_filter: bool,
    /// Fit each node with a Jetty snoop filter (related work §2): skips
    /// snoop-induced tag lookups for lines provably absent. Affects
    /// energy accounting only — Jetty never avoids the broadcast itself.
    pub jetty_filter: bool,
    /// §3.1 future work: let data loads in externally-clean regions
    /// (CC/DC) fetch a *shared* copy directly from memory instead of
    /// broadcasting for an exclusive one. Avoids those broadcasts at the
    /// cost of later upgrade requests when the data is written ("an
    /// alternative approach can avoid broadcasts by accessing the data
    /// directly and putting the line into a shared state, however this
    /// can cause a large number of upgrades").
    pub shared_read_bypass: bool,
    /// §6 future work: predict the supplier of externally-dirty regions
    /// and send data reads point-to-point to it, skipping the broadcast
    /// when the prediction hits ("the region state can also indicate
    /// where cached copies of data may exist, creating opportunities for
    /// improved cache-to-cache transfers").
    pub owner_prediction: bool,
    /// §6 future work: skip the speculative DRAM access that the baseline
    /// starts in parallel with every snoop when the region state predicts
    /// a cache-to-cache supply ("knowledge of whether data is likely to
    /// be cached in the system can be used to avoid unnecessary DRAM
    /// accesses").
    pub dram_speculation_filter: bool,
    /// Per-processor data-network port occupancy per 64-byte line
    /// transfer, in CPU cycles. Table 3: 2.4 GB/s per processor =
    /// 16 B per system cycle, so a line occupies the port for 4 system
    /// cycles (40 CPU cycles). Zero disables bandwidth modeling.
    pub data_port_occupancy: u64,
    /// Maximum random perturbation added to memory-request completion
    /// times, in CPU cycles (the paper's run-perturbation methodology).
    pub perturbation: u64,
    /// Traffic measurement window in CPU cycles (Figure 10: 100,000).
    pub traffic_window: u64,
}

impl SystemConfig {
    /// Table 3 configuration with the chosen coherence mode.
    pub fn paper_default(mode: CoherenceMode) -> Self {
        SystemConfig {
            topology: Topology::paper_default(),
            hierarchy: HierarchyConfig::paper_default(),
            latency: LatencyModel::paper_default(),
            core: CoreConfig::paper_default(),
            mode,
            stream_prefetch: true,
            exclusive_prefetch: true,
            self_invalidation: true,
            favor_empty_replacement: true,
            direct_writebacks: true,
            data_port_occupancy: 40,
            region_prefetch_filter: false,
            jetty_filter: false,
            shared_read_bypass: false,
            owner_prediction: false,
            dram_speculation_filter: false,
            perturbation: 3,
            traffic_window: 100_000,
        }
    }

    /// The line/region geometry implied by the mode.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.hierarchy.l2.line_bytes, self.mode.region_bytes())
    }

    /// Stable fingerprint of this configuration: FNV-1a over its
    /// canonical `Debug` rendering. Guards machine snapshots and
    /// result-cache entries against being applied under a different
    /// configuration.
    pub fn fingerprint(&self) -> u64 {
        cgct_sim::hash::fnv1a(format!("{self:?}").as_bytes())
    }

    /// A quarter-scale memory system: 256 KB L2 with a 2K-set RCA. The
    /// RCA-reach-to-cache ratio (8:1 at 512 B regions) matches the paper's
    /// full-size configuration, so RCA eviction statistics (§3.2) reach
    /// steady state within simulatable run lengths.
    pub fn quarter_scale(mode: CoherenceMode) -> Self {
        let mode = match mode {
            CoherenceMode::Cgct { region_bytes, .. } => CoherenceMode::Cgct {
                region_bytes,
                sets: 2048,
            },
            CoherenceMode::Scaled { region_bytes, .. } => CoherenceMode::Scaled {
                region_bytes,
                sets: 2048,
            },
            CoherenceMode::DirectoryCgct { region_bytes, .. } => CoherenceMode::DirectoryCgct {
                region_bytes,
                sets: 2048,
            },
            CoherenceMode::Hierarchical { region_bytes, .. } => CoherenceMode::Hierarchical {
                region_bytes,
                sets: 2048,
            },
            other => other,
        };
        let mut cfg = Self::paper_default(mode);
        cfg.hierarchy.l2.capacity_bytes = 256 * 1024;
        cfg
    }

    /// The RCA configuration for CGCT modes (including the
    /// directory-backed and hierarchical machines, whose nodes carry
    /// the same 7-state RCA).
    pub fn rca_config(&self) -> Option<RcaConfig> {
        match self.mode {
            CoherenceMode::Cgct { region_bytes, sets }
            | CoherenceMode::DirectoryCgct { region_bytes, sets }
            | CoherenceMode::Hierarchical { region_bytes, sets } => Some(RcaConfig {
                sets,
                ways: 2,
                geometry: Geometry::new(self.hierarchy.l2.line_bytes, region_bytes),
                self_invalidation: self.self_invalidation,
                favor_empty_replacement: self.favor_empty_replacement,
            }),
            _ => None,
        }
    }

    /// Checks the configuration for shapes the implementation cannot
    /// represent. Called by `MemorySystem::new`, which panics with the
    /// returned message; callers building configurations dynamically
    /// (sweeps, CLIs) can check ahead of time and report cleanly.
    ///
    /// Today the one hard limit is the directory sharer vector:
    /// `DirEntry::sharers` is a `u64` bit-vector, so any mode that
    /// tracks per-node state in it (directory-backed modes, and the
    /// hierarchical machine whose verification bridge reuses the same
    /// node masks) supports at most 64 nodes.
    pub fn validate(&self) -> Result<(), String> {
        let cores = self.topology.total_cores();
        let needs_node_mask =
            self.mode.uses_directory() || matches!(self.mode, CoherenceMode::Hierarchical { .. });
        if needs_node_mask && cores > 64 {
            return Err(format!(
                "mode '{}' tracks per-node state in a u64 bit-vector \
                 (DirEntry::sharers) and supports at most 64 nodes, but the \
                 topology has {cores} cores; shrink the topology or use a \
                 snooping mode",
                self.mode.label()
            ));
        }
        Ok(())
    }
}

/// A snapshot of every `CGCT_*` host-environment knob the system layer
/// honors, read through this one policy-sanctioned seam (lint rule
/// D004: `env::var` anywhere else in a pure crate is a finding).
///
/// The complete knob table for the workspace:
///
/// | variable                 | meaning                                            | default        | read at |
/// |--------------------------|----------------------------------------------------|----------------|---------|
/// | `CGCT_TRACE`             | request-lifetime tracing (`1` on)                  | off            | here    |
/// | `CGCT_SANITIZE`          | per-request invariant sanitizer (`1` on)           | off            | here    |
/// | `CGCT_SANITIZE_INTERVAL` | requests between full invariant walks (min 1)      | 65536          | here    |
/// | `CGCT_CACHE`             | result cache (`0`/empty disables)                  | on             | here    |
/// | `CGCT_CACHE_DIR`         | result-cache root directory                        | `.cgct-cache`  | here    |
/// | `CGCT_JOBS`              | run-level worker-pool width                        | host cores     | [`cgct_sim::pool::jobs`] |
/// | `CGCT_TEST_SEED`         | root seed for property tests                       | fixed          | `cgct_sim::check::root_seed` |
///
/// Every knob is a host-side execution-strategy or observability
/// toggle: by construction (and verified by the A/B smokes in
/// `scripts/ci.sh`) none of them may change simulated outcomes, only
/// whether/how fast/with what instrumentation they are produced.
///
/// Values are read fresh on every call — the `experiments` binary
/// rewrites some of these while handling its own flags, and callers
/// must observe the update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvKnobs {
    /// `CGCT_TRACE`: request-lifetime tracing is on.
    pub trace: bool,
    /// `CGCT_SANITIZE`: the memory-system invariant sanitizer is on.
    pub sanitize: bool,
    /// `CGCT_SANITIZE_INTERVAL`: requests between full invariant walks.
    pub sanitize_interval: u64,
    /// `CGCT_CACHE` set to empty/`0`: the result cache is disabled.
    pub cache_disabled: bool,
    /// `CGCT_CACHE_DIR`: result-cache root (when set and non-empty).
    pub cache_dir: Option<String>,
}

/// True when `name` is set to something other than empty or `0`.
#[allow(clippy::disallowed_methods)] // clippy mirror of D004: this IS the seam
fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).ok().as_deref(),
        Some(v) if !v.is_empty() && v != "0"
    )
}

/// Reads the current [`EnvKnobs`] snapshot. See the type-level table.
#[allow(clippy::disallowed_methods)] // clippy mirror of D004: this IS the seam
pub fn env_knobs() -> EnvKnobs {
    EnvKnobs {
        trace: env_flag("CGCT_TRACE"),
        sanitize: env_flag("CGCT_SANITIZE"),
        sanitize_interval: std::env::var("CGCT_SANITIZE_INTERVAL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(65_536)
            .max(1),
        cache_disabled: matches!(
            std::env::var("CGCT_CACHE").ok().as_deref(),
            Some(v) if v.is_empty() || v == "0"
        ),
        cache_dir: std::env::var("CGCT_CACHE_DIR")
            .ok()
            .filter(|d| !d.is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods)] // probing the ambient env is the point
    fn env_knobs_defaults() {
        // The test harness never sets the sanitize-interval knob, so the
        // documented defaults must come back. (Flag knobs are exercised
        // by ci.sh's A/B smokes, which do set them.)
        let k = env_knobs();
        if std::env::var("CGCT_SANITIZE_INTERVAL").is_err() {
            assert_eq!(k.sanitize_interval, 65_536);
        }
        assert!(k.sanitize_interval >= 1);
    }

    #[test]
    fn paper_default_shape() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        assert_eq!(cfg.topology.total_cores(), 4);
        assert_eq!(cfg.geometry().region_bytes(), 64);
        assert!(cfg.rca_config().is_none());
    }

    #[test]
    fn cgct_mode_builds_rca_config() {
        let cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        let rca = cfg.rca_config().unwrap();
        assert_eq!(rca.entries(), 16384);
        assert_eq!(rca.geometry.lines_per_region(), 8);
        assert_eq!(cfg.geometry().region_bytes(), 512);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(CoherenceMode::Baseline.label(), "baseline");
        assert_eq!(
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192
            }
            .label(),
            "cgct-512B"
        );
        assert_eq!(
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 4096
            }
            .label(),
            "cgct-512B-4096sets"
        );
        assert_eq!(
            CoherenceMode::RegionScout { region_bytes: 512 }.label(),
            "regionscout-512B"
        );
    }

    #[test]
    fn scalable_mode_labels_and_rca() {
        let dc = CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        };
        let hier = CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        };
        assert_eq!(dc.label(), "dir-cgct-512B");
        assert_eq!(hier.label(), "hier-512B");
        assert!(dc.uses_directory());
        assert!(CoherenceMode::Directory.uses_directory());
        assert!(!hier.uses_directory());
        for mode in [dc, hier] {
            let cfg = SystemConfig::paper_default(mode);
            let rca = cfg.rca_config().expect("scalable modes carry RCAs");
            assert_eq!(rca.geometry.region_bytes(), 512);
            assert_eq!(cfg.geometry().region_bytes(), 512);
        }
    }

    #[test]
    fn validate_rejects_more_than_64_directory_nodes() {
        use cgct_interconnect::Topology;
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Directory);
        // 2 cores/chip x 2 chips/switch x 2 switches/board x 9 boards = 72.
        cfg.topology = Topology {
            cores_per_chip: 2,
            chips_per_switch: 2,
            switches_per_board: 2,
            boards: 9,
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("72 cores"),
            "message should name the count: {err}"
        );
        assert!(err.contains("64"), "message should name the limit: {err}");

        // Exactly 64 nodes is representable.
        cfg.topology.boards = 8;
        assert_eq!(cfg.topology.total_cores(), 64);
        assert!(cfg.validate().is_ok());

        // Snooping modes have no sharer vector, so no limit applies.
        cfg.topology.boards = 9;
        cfg.mode = CoherenceMode::Baseline;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn region_bytes_by_mode() {
        assert_eq!(CoherenceMode::Baseline.region_bytes(), 64);
        assert_eq!(
            CoherenceMode::Scaled {
                region_bytes: 1024,
                sets: 8192
            }
            .region_bytes(),
            1024
        );
    }
}
