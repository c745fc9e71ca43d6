//! The latency model of Table 3 and Figure 6.
//!
//! All scenario latencies are returned in **CPU cycles** (1.5 GHz); the
//! underlying parameters are in 150 MHz system cycles as the paper quotes
//! them. Figure 6's scenario totals (in system cycles):
//!
//! | scenario | snoop | direct |
//! |---|---|---|
//! | own memory        | 25 | ~18 |
//! | same data switch  | 25 | 20 |
//! | same board        | 30 | 27 |
//! | remote            | 35 | 34 |
//!
//! A snooped access overlaps DRAM with the snoop, paying only the
//! 7-system-cycle DRAM remainder after the 16-cycle snoop; a direct access
//! pays the full 16-cycle DRAM latency after a short request delivery.

use cgct_sim::SystemCycle;

/// Physical distance between a requester and a responder (memory
/// controller or cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistanceClass {
    /// On the requester's own chip.
    SameChip,
    /// On another chip attached to the same data switch.
    SameSwitch,
    /// On another data switch of the same board.
    SameBoard,
    /// On another board.
    Remote,
}

impl DistanceClass {
    /// All four classes, nearest first.
    pub const ALL: [DistanceClass; 4] = [
        DistanceClass::SameChip,
        DistanceClass::SameSwitch,
        DistanceClass::SameBoard,
        DistanceClass::Remote,
    ];
}

/// The interconnect latency parameters (Table 3), with scenario
/// compositions (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Snoop latency: request broadcast until snoop response (16 sc).
    pub snoop: SystemCycle,
    /// Full DRAM access latency (16 sc).
    pub dram: SystemCycle,
    /// DRAM remainder after a snoop when the access was overlapped with
    /// the broadcast (7 sc).
    pub dram_after_snoop: SystemCycle,
    /// Critical-word data transfer per distance class, in system cycles.
    /// Figure 6 charges 2 cycles on-chip/same-switch, 7 same-board, 12
    /// remote.
    pub transfer: [SystemCycle; 4],
    /// Direct request delivery per distance class, in **CPU** cycles:
    /// 1 cycle on-chip (0.7 ns), then 2/4/6 system cycles (Table 3).
    pub direct_request_cpu: [u64; 4],
}

impl LatencyModel {
    /// Table 3 / Figure 6 parameters.
    pub fn paper_default() -> Self {
        LatencyModel {
            snoop: SystemCycle(16),
            dram: SystemCycle(16),
            dram_after_snoop: SystemCycle(7),
            transfer: [
                SystemCycle(2),
                SystemCycle(2),
                SystemCycle(7),
                SystemCycle(12),
            ],
            direct_request_cpu: [
                1,
                SystemCycle(2).as_cpu_cycles(),
                SystemCycle(4).as_cpu_cycles(),
                SystemCycle(6).as_cpu_cycles(),
            ],
        }
    }

    /// Critical-word transfer latency in CPU cycles.
    pub fn transfer_cpu(&self, dist: DistanceClass) -> u64 {
        self.transfer[dist as usize].as_cpu_cycles()
    }

    /// Direct request delivery latency in CPU cycles.
    pub fn direct_request(&self, dist: DistanceClass) -> u64 {
        self.direct_request_cpu[dist as usize]
    }

    /// Snoop latency in CPU cycles.
    pub fn snoop_cpu(&self) -> u64 {
        self.snoop.as_cpu_cycles()
    }

    /// Figure 6 top rows: a broadcast request serviced from memory at
    /// `dist`, with the DRAM access overlapped with the snoop.
    /// Total CPU cycles from broadcast grant to critical word.
    pub fn snoop_memory_access(&self, dist: DistanceClass) -> u64 {
        self.snoop.as_cpu_cycles() + self.dram_after_snoop.as_cpu_cycles() + self.transfer_cpu(dist)
    }

    /// Figure 6 bottom rows: a direct request to the memory controller at
    /// `dist` — request delivery, full DRAM access, then the transfer.
    pub fn direct_memory_access(&self, dist: DistanceClass) -> u64 {
        self.direct_request(dist) + self.dram.as_cpu_cycles() + self.transfer_cpu(dist)
    }

    /// A broadcast request serviced by another cache (M/O owner) at
    /// `dist`: snoop plus cache-to-cache critical-word transfer.
    pub fn cache_to_cache(&self, dist: DistanceClass) -> u64 {
        self.snoop.as_cpu_cycles() + self.transfer_cpu(dist)
    }

    /// Snoop latency of the two-level hierarchical machine, in CPU
    /// cycles. A cluster-local request arbitrates and snoops only its
    /// own cluster bus (the flat snoop latency). A cluster-crossing
    /// request additionally pays a remote request delivery to the other
    /// clusters' buses and a remote response back — two
    /// [`DistanceClass::Remote`] direct-request legs around the remote
    /// snoop.
    pub fn cluster_snoop(&self, crosses_clusters: bool) -> u64 {
        let local = self.snoop.as_cpu_cycles();
        if crosses_clusters {
            local + 2 * self.direct_request(DistanceClass::Remote)
        } else {
            local
        }
    }

    /// Latency advantage of the direct path for memory at `dist`
    /// (positive = direct is faster).
    pub fn direct_advantage(&self, dist: DistanceClass) -> i64 {
        self.snoop_memory_access(dist) as i64 - self.direct_memory_access(dist) as i64
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DistanceClass::*;

    #[test]
    fn figure6_snoop_scenarios() {
        let m = LatencyModel::paper_default();
        // In system cycles: 25, 25, 30, 35.
        assert_eq!(m.snoop_memory_access(SameChip), 250);
        assert_eq!(m.snoop_memory_access(SameSwitch), 250);
        assert_eq!(m.snoop_memory_access(SameBoard), 300);
        assert_eq!(m.snoop_memory_access(Remote), 350);
    }

    #[test]
    fn figure6_direct_scenarios() {
        let m = LatencyModel::paper_default();
        // "~18 cycles" own memory: 1 CPU cycle + 16 sc DRAM + 2 sc xfer.
        assert_eq!(m.direct_memory_access(SameChip), 181);
        assert_eq!(m.direct_memory_access(SameSwitch), 200);
        assert_eq!(m.direct_memory_access(SameBoard), 270);
        assert_eq!(m.direct_memory_access(Remote), 340);
    }

    #[test]
    fn direct_is_always_at_least_as_fast() {
        let m = LatencyModel::paper_default();
        for d in DistanceClass::ALL {
            assert!(m.direct_advantage(d) >= 0, "{d:?}");
        }
        // The advantage shrinks with distance (§4: "the reduction in
        // overhead versus snooping is offset somewhat by the latency of
        // sending requests to the memory controller").
        assert!(m.direct_advantage(SameChip) > m.direct_advantage(Remote));
    }

    #[test]
    fn cache_to_cache_latencies() {
        let m = LatencyModel::paper_default();
        assert_eq!(m.cache_to_cache(SameSwitch), 180);
        assert_eq!(m.cache_to_cache(Remote), 280);
    }

    #[test]
    fn cluster_snoop_latencies() {
        let m = LatencyModel::paper_default();
        // Local = the flat 16-sc snoop; crossing adds two Remote
        // request legs (6 sc each): 16 + 12 = 28 sc.
        assert_eq!(m.cluster_snoop(false), 160);
        assert_eq!(m.cluster_snoop(true), 160 + 2 * m.direct_request(Remote));
        assert!(m.cluster_snoop(true) > m.cluster_snoop(false));
    }

    #[test]
    fn distance_ordering() {
        assert!(SameChip < SameSwitch && SameSwitch < SameBoard && SameBoard < Remote);
    }
}
