//! The exhaustive model checker in the tier-1 gate: the faithful
//! protocol explores to its golden fixpoint on every machine, and a
//! seeded fault on each machine is caught with an invariant violation.
//! The large shapes (the directory machine at 3 nodes x 2 lines) run in
//! `crates/verify/tests/exhaustive.rs`.

use cgct_verify::model::{ModelConfig, Mutation, Protocol};
use cgct_verify::{explore, GlobalState};

/// The directory machine at 2 nodes x 2 lines.
fn directory_2x2() -> ModelConfig {
    ModelConfig {
        nodes: 2,
        protocol: Protocol::DirectoryCgct,
        ..ModelConfig::default_3x2()
    }
}

#[test]
fn every_machine_reaches_its_golden_fixpoint() {
    for (cfg, states, transitions) in [
        (ModelConfig::default_3x2(), 4_947, 116_040),
        (ModelConfig::hierarchical_3x2(), 4_947, 116_040),
        (directory_2x2(), 4_700, 74_978),
    ] {
        let r = explore(&cfg);
        let label = cfg.protocol.name();
        if let Some(v) = &r.violation {
            panic!("{label}: {}", v.render(&GlobalState::initial(&cfg)));
        }
        assert_eq!((r.states, r.transitions), (states, transitions), "{label}");
    }
}

#[test]
fn a_seeded_fault_on_every_machine_is_caught() {
    for (base, mutation, invariant) in [
        (ModelConfig::default_3x2(), Mutation::KeepStaleSharers, "I1"),
        (directory_2x2(), Mutation::StaleRegionDirCache, "I6"),
        (
            ModelConfig::hierarchical_3x2(),
            Mutation::SkipClusterInvalidation,
            "I1",
        ),
    ] {
        let cfg = ModelConfig { mutation, ..base };
        let label = format!("{}/{}", cfg.protocol.name(), mutation.name());
        let v = explore(&cfg)
            .violation
            .unwrap_or_else(|| panic!("{label} must be caught"));
        assert!(v.message.starts_with(invariant), "{label}: {}", v.message);
        assert!(!v.trace.is_empty(), "{label}: empty trace");
    }
}
