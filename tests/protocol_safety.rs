//! Property-based safety tests: arbitrary request interleavings must
//! preserve every coherence, inclusion, and exclusivity invariant — and
//! debug builds additionally assert that no broadcast bypass is ever
//! unsafe (see `MemorySystem::assert_direct_is_safe`).

use cgct_cache::Addr;
use cgct_interconnect::{CoreId, Topology};
use cgct_sim::check::{check, gen_vec};
use cgct_sim::{Cycle, Xoshiro256pp};
use cgct_system::{CoherenceMode, MemorySystem, SystemConfig};

/// One memory operation in a generated scenario.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load { core: u8, slot: u16, intent: bool },
    Store { core: u8, slot: u16 },
    Ifetch { core: u8, slot: u16 },
    Dcbz { core: u8, slot: u16 },
}

fn gen_op(g: &mut Xoshiro256pp, cores: u8, slots: u16) -> Op {
    let core = g.gen_range(0..cores);
    let slot = g.gen_range(0..slots);
    match g.gen_range(0u8..4) {
        0 => Op::Load {
            core,
            slot,
            intent: g.gen_bool(0.5),
        },
        1 => Op::Store { core, slot },
        2 => Op::Ifetch { core, slot },
        _ => Op::Dcbz { core, slot },
    }
}

/// Maps slots to addresses that deliberately collide in regions and in
/// cache sets: slots cover few regions so cores constantly interact.
fn addr_of(slot: u16) -> Addr {
    // 64 lines spread over 8 regions (512 B) with set collisions.
    let line = (slot as u64) % 64;
    Addr(0x10_000 + line * 64)
}

fn apply(mem: &mut MemorySystem, now: Cycle, op: Op) {
    match op {
        Op::Load { core, slot, intent } => {
            mem.load(CoreId(core as usize), now, addr_of(slot), intent);
        }
        Op::Store { core, slot } => {
            mem.store(CoreId(core as usize), now, addr_of(slot));
        }
        Op::Ifetch { core, slot } => {
            mem.ifetch(CoreId(core as usize), now, addr_of(slot));
        }
        Op::Dcbz { core, slot } => {
            mem.dcbz(CoreId(core as usize), now, addr_of(slot));
        }
    }
}

fn run_scenario(cfg: &SystemConfig, ops: &[Op]) {
    let mut mem = MemorySystem::new(cfg.clone(), 1);
    let mut now = Cycle(0);
    for (i, op) in ops.iter().enumerate() {
        apply(&mut mem, now, *op);
        now += 7;
        if i % 64 == 63 {
            mem.check_invariants().expect("mid-run invariants");
        }
    }
    mem.check_invariants().expect("final invariants");
}

/// Runs `cases` generated scenarios of up to `max_ops` ops in `mode`
/// on the paper's 4-core machine.
fn check_mode(name: &str, mode: CoherenceMode, max_ops: usize) {
    check_machine(name, mode, 4, max_ops);
}

/// Runs generated scenarios of up to `max_ops` ops in `mode` on a
/// machine of `cores` cores, every core issuing requests.
fn check_machine(name: &str, mode: CoherenceMode, cores: usize, max_ops: usize) {
    let mut cfg = SystemConfig::paper_default(mode);
    cfg.topology = Topology::for_cores(cores);
    cfg.perturbation = 0;
    check(name, 64, |g| {
        let ops = gen_vec(g, 1..max_ops, |g| gen_op(g, cores as u8, 256));
        run_scenario(&cfg, &ops);
    });
}

#[test]
fn cgct_invariants_hold_for_arbitrary_interleavings() {
    check_mode(
        "safety::cgct_invariants_hold_for_arbitrary_interleavings",
        CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
        400,
    );
}

#[test]
fn cgct_small_regions_invariants() {
    check_mode(
        "safety::cgct_small_regions_invariants",
        CoherenceMode::Cgct {
            region_bytes: 256,
            sets: 8192,
        },
        300,
    );
}

#[test]
fn cgct_large_regions_invariants() {
    check_mode(
        "safety::cgct_large_regions_invariants",
        CoherenceMode::Cgct {
            region_bytes: 1024,
            sets: 8192,
        },
        300,
    );
}

#[test]
fn scaled_protocol_invariants() {
    check_mode(
        "safety::scaled_protocol_invariants",
        CoherenceMode::Scaled {
            region_bytes: 512,
            sets: 8192,
        },
        300,
    );
}

#[test]
fn regionscout_invariants() {
    check_mode(
        "safety::regionscout_invariants",
        CoherenceMode::RegionScout { region_bytes: 512 },
        300,
    );
}

#[test]
fn baseline_invariants() {
    check_mode("safety::baseline_invariants", CoherenceMode::Baseline, 300);
}

#[test]
fn directory_invariants() {
    check_mode(
        "safety::directory_invariants",
        CoherenceMode::Directory,
        300,
    );
}

#[test]
fn directory_cgct_invariants() {
    check_mode(
        "safety::directory_cgct_invariants",
        CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        },
        300,
    );
}

/// Sixteen cores on two boards, so the inter-cluster region directory
/// filters which clusters a snoop visits.
#[test]
fn hierarchical_invariants() {
    check_machine(
        "safety::hierarchical_invariants",
        CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        },
        16,
        300,
    );
}

/// All §6 extensions enabled at once (owner prediction, prefetch
/// filter, DRAM-speculation filter) must preserve every invariant.
#[test]
fn extensions_preserve_invariants() {
    check("safety::extensions_preserve_invariants", 64, |g| {
        let ops = gen_vec(g, 1..300, |g| gen_op(g, 4, 256));
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        cfg.owner_prediction = true;
        cfg.region_prefetch_filter = true;
        cfg.dram_speculation_filter = true;
        cfg.shared_read_bypass = true;
        let mut mem = MemorySystem::new(cfg, 1);
        let mut now = Cycle(0);
        for op in &ops {
            apply(&mut mem, now, *op);
            now += 7;
        }
        mem.check_invariants().expect("invariants with extensions");
    });
}

/// A tiny RCA (2 sets) forces constant region evictions and
/// inclusion flushes — the stress case for the line counts.
#[test]
fn tiny_rca_forces_inclusion_machinery() {
    check("safety::tiny_rca_forces_inclusion_machinery", 64, |g| {
        let ops = gen_vec(g, 1..300, |g| gen_op(g, 4, 512));
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        // Shrink the RCA indirectly by shrinking its source config: use a
        // dedicated mode with few sets.
        cfg.mode = CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 2,
        };
        let mut mem = MemorySystem::new(cfg, 1);
        let mut now = Cycle(0);
        for op in &ops {
            apply(&mut mem, now, *op);
            now += 7;
        }
        mem.check_invariants().expect("invariants with tiny RCA");
    });
}

#[test]
fn deterministic_scenario_replay() {
    // The same scenario must produce byte-identical metrics.
    let ops: Vec<Op> = (0..200)
        .map(|i| match i % 4 {
            0 => Op::Load {
                core: (i % 4) as u8,
                slot: (i * 7 % 256) as u16,
                intent: i % 8 == 0,
            },
            1 => Op::Store {
                core: (i % 3) as u8,
                slot: (i * 13 % 256) as u16,
            },
            2 => Op::Ifetch {
                core: (i % 4) as u8,
                slot: (i * 3 % 64) as u16,
            },
            _ => Op::Dcbz {
                core: (i % 2) as u8,
                slot: (i * 11 % 256) as u16,
            },
        })
        .collect();
    let snapshot = |ops: &[Op]| {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        let mut mem = MemorySystem::new(cfg, 9);
        let mut now = Cycle(0);
        for op in ops {
            apply(&mut mem, now, *op);
            now += 5;
        }
        (
            mem.metrics.broadcasts,
            mem.metrics.requests.total(),
            mem.metrics.direct.total(),
            mem.metrics.local.total(),
        )
    };
    assert_eq!(snapshot(&ops), snapshot(&ops));
}
