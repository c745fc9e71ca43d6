//! The per-crate purity policy map: which files each rule applies to.
//!
//! The workspace layers split cleanly into *pure* crates — everything
//! that runs between a seed and a results artifact, where byte-identical
//! reproducibility is load-bearing — and *host-facing* code (the bench
//! crate, `src/bin` targets, examples) that may read the clock, parse
//! argv, and print progress. Test code gets the loosest policy: tests
//! may use `std` hash containers and `unwrap` freely because their
//! output never feeds an artifact.

/// How a file is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Simulation/library code on the seed → artifact path. All
    /// determinism rules apply.
    Pure,
    /// Binaries, benches, and examples: may touch the host environment
    /// (clock, argv, env) by design. Only crate-hygiene rules apply.
    HostFacing,
    /// Integration-test code: exempt from determinism rules.
    TestCode,
}

/// Classifies a repo-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return FileClass::TestCode;
    }
    if rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.contains("/benches/")
        || rel.starts_with("crates/bench/")
    {
        return FileClass::HostFacing;
    }
    FileClass::Pure
}

/// Files that hold per-event statistics accumulation state — the D005
/// integer-milli-unit rule applies only here. Everything downstream
/// (report rows, cross-run aggregation) derives values from these
/// integer accumulators in canonical order at report time.
pub const ACCUMULATION_FILES: &[&str] = &[
    "crates/sim/src/stats.rs",
    "crates/system/src/metrics.rs",
    "crates/system/src/energy.rs",
    "crates/interconnect/src/bus.rs",
    "crates/interconnect/src/memctrl.rs",
];

/// Library coherence paths reachable from `run_once` — the D006
/// no-`unwrap`/`expect` rule applies only here. A panic on these paths
/// kills a sweep cell mid-simulation, so every one must be an
/// explicitly justified fail-stop invariant.
pub const COHERENCE_PATH_PREFIXES: &[&str] = &[
    "crates/cache/src/",
    "crates/core/src/",
    "crates/cpu/src/",
    "crates/interconnect/src/",
    "crates/workloads/src/",
];

/// Individual `cgct-system` files on the coherence path (the rest of
/// that crate — config, reports, experiment tables — is report-layer).
pub const COHERENCE_PATH_FILES: &[&str] = &[
    "crates/system/src/memsys.rs",
    "crates/system/src/machine.rs",
    "crates/system/src/oracle.rs",
    "crates/system/src/directory.rs",
    "crates/system/src/invariants.rs",
];

/// Whether D005 (float accumulation) applies to `rel`.
pub fn is_accumulation_file(rel: &str) -> bool {
    ACCUMULATION_FILES.contains(&rel)
}

/// Whether D006 (unwrap/expect) applies to `rel`.
pub fn is_coherence_path(rel: &str) -> bool {
    COHERENCE_PATH_FILES.contains(&rel)
        || COHERENCE_PATH_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) && !rel.contains("/bin/"))
}

/// The one sanctioned `env::var` seam outside binaries: the typed knob
/// reader. `cgct_sim::pool` / `cgct_sim::check` carry their own inline
/// justified allows (they sit below `cgct-system` in the crate DAG).
pub const ENV_SEAM_FILES: &[&str] = &["crates/system/src/config.rs"];

/// The one sanctioned thread-creation site: the deterministic pool.
pub const SPAWN_SEAM_FILES: &[&str] = &["crates/sim/src/pool.rs"];

/// Whether `rel` is a crate root that must carry the hygiene headers
/// (`#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`, rule D007).
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/sim/src/rng.rs"), FileClass::Pure);
        assert_eq!(classify("crates/system/src/memsys.rs"), FileClass::Pure);
        assert_eq!(
            classify("crates/bench/src/timing.rs"),
            FileClass::HostFacing
        );
        assert_eq!(
            classify("crates/verify/src/bin/cgct-verify.rs"),
            FileClass::HostFacing
        );
        assert_eq!(classify("examples/design_space.rs"), FileClass::HostFacing);
        assert_eq!(
            classify("crates/cache/tests/mshr_props.rs"),
            FileClass::TestCode
        );
        assert_eq!(classify("tests/machine_semantics.rs"), FileClass::TestCode);
    }

    #[test]
    fn coherence_paths() {
        assert!(is_coherence_path("crates/cache/src/protocol.rs"));
        assert!(is_coherence_path("crates/system/src/memsys.rs"));
        // The invariant walk runs inside sanitized simulation cells.
        assert!(is_coherence_path("crates/system/src/invariants.rs"));
        assert!(!is_coherence_path("crates/system/src/report.rs"));
        assert!(!is_coherence_path("crates/sim/src/json.rs"));
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/lib.rs"));
        assert!(!is_crate_root("crates/lint/src/lexer.rs"));
    }
}
