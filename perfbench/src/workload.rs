//! The four benchmark workloads and the cells each one runs.

use cgct_interconnect::Topology;
use cgct_system::{CoherenceMode, Machine, SystemConfig};
use cgct_verify::{ModelConfig, Protocol};

/// CGCT with 512-byte regions and the paper's 8K-set RCA.
const CGCT_512: CoherenceMode = CoherenceMode::Cgct {
    region_bytes: 512,
    sets: 8192,
};

/// One named set of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4-node bus, private L2-resident streams: core- and generator-bound.
    Bus4Private,
    /// 4-node bus, migratory and shared data: the RCA broadcast-or-direct
    /// decision on reads and writes alike.
    Bus4Shared,
    /// 16 nodes, directory and hierarchy: external-request-bound.
    Scale16,
    /// The exhaustive model checker on four small protocol models.
    Verify,
}

/// Instruction quotas of a simulated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPlan {
    /// Cache-warming instructions per core before statistics start.
    pub warmup_per_core: u64,
    /// Measured instructions per core.
    pub measured_per_core: u64,
    /// Cycle cap; reaching it fails the cell.
    pub max_cycles: u64,
}

/// One simulated machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCell {
    /// Benchmark name in the workload registry.
    pub benchmark: &'static str,
    /// Coherence mode.
    pub mode: CoherenceMode,
    /// Node count (`Topology::for_cores`).
    pub cores: usize,
}

/// One model-checker run with its golden counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyCell {
    /// Label for reports.
    pub label: &'static str,
    /// The model explored.
    pub model: ModelConfig,
    /// Reachable states the model must reach.
    pub golden_states: u64,
    /// Transitions the model must take.
    pub golden_transitions: u64,
}

/// What a workload runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cells {
    /// Simulated machines, all under one plan.
    Sim(SimPlan, Vec<SimCell>),
    /// Model-checker runs.
    Verify(Vec<VerifyCell>),
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Bus4Private,
        Workload::Bus4Shared,
        Workload::Scale16,
        Workload::Verify,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bus4Private => "bus4-private",
            Workload::Bus4Shared => "bus4-shared",
            Workload::Scale16 => "scale16",
            Workload::Verify => "verify",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells this workload runs, in canonical order.
    pub fn cells(self) -> Cells {
        let bus4 = SimPlan {
            warmup_per_core: 60_000,
            measured_per_core: 40_000,
            max_cycles: 40_000_000,
        };
        let sim = |benchmarks: &[&'static str], modes: [CoherenceMode; 2], cores| {
            benchmarks
                .iter()
                .flat_map(|&benchmark| {
                    modes.map(|mode| SimCell {
                        benchmark,
                        mode,
                        cores,
                    })
                })
                .collect()
        };
        match self {
            Workload::Bus4Private => Cells::Sim(
                bus4,
                sim(
                    &["specint2000rate", "ocean"],
                    [CoherenceMode::Baseline, CGCT_512],
                    4,
                ),
            ),
            Workload::Bus4Shared => Cells::Sim(
                bus4,
                sim(
                    &["tpc-b", "tpc-w", "specjbb2000"],
                    [CoherenceMode::Baseline, CGCT_512],
                    4,
                ),
            ),
            Workload::Scale16 => Cells::Sim(
                SimPlan {
                    warmup_per_core: 8_000,
                    measured_per_core: 8_000,
                    max_cycles: 40_000_000,
                },
                sim(
                    &["tpc-w", "barnes"],
                    [
                        CoherenceMode::DirectoryCgct {
                            region_bytes: 512,
                            sets: 8192,
                        },
                        CoherenceMode::Hierarchical {
                            region_bytes: 512,
                            sets: 8192,
                        },
                    ],
                    16,
                ),
            ),
            Workload::Verify => {
                let base = ModelConfig::default_3x2();
                let directory = |nodes, lines| ModelConfig {
                    protocol: Protocol::DirectoryCgct,
                    nodes,
                    lines,
                    ..base
                };
                Cells::Verify(vec![
                    VerifyCell {
                        label: "dir-cgct-4x1",
                        model: directory(4, 1),
                        golden_states: 10_951,
                        golden_transitions: 189_160,
                    },
                    VerifyCell {
                        label: "snoop-3x2",
                        model: base,
                        golden_states: 4_947,
                        golden_transitions: 116_040,
                    },
                    VerifyCell {
                        label: "hier-3x2",
                        model: ModelConfig::hierarchical_3x2(),
                        golden_states: 4_947,
                        golden_transitions: 116_040,
                    },
                    VerifyCell {
                        label: "dir-cgct-2x2",
                        model: directory(2, 2),
                        golden_states: 4_700,
                        golden_transitions: 74_978,
                    },
                ])
            }
        }
    }
}

impl SimCell {
    /// `benchmark/mode/Nc`, for reports.
    pub fn label(&self) -> String {
        format!("{}/{}/{}c", self.benchmark, self.mode.label(), self.cores)
    }

    /// The paper's Table 3 machine in this cell's mode and node count.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(self.mode);
        cfg.topology = Topology::for_cores(self.cores);
        cfg
    }

    /// Builds the cell's machine with the engine pinned: event-driven
    /// cycle skipping, the single-threaded engine, no request tracing and
    /// no sanitizer, whatever the environment says.
    pub fn machine(&self, seed: u64) -> Machine {
        let spec = cgct_workloads::by_name(self.benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {}", self.benchmark));
        let mut m = Machine::new(self.config(), &spec, seed);
        m.set_cycle_skip(true);
        m.set_intra(None);
        m.set_trace(false);
        m.set_sanitize(false);
        m
    }
}
