//! Benchmark harness for the CGCT reproduction.
//!
//! * `src/bin/experiments.rs` — regenerates every table and figure of the
//!   paper (run `cargo run --release -p cgct-bench --bin experiments -- all`).
//! * [`timing`] — the per-item wall-clock log `experiments` writes.
//!
//! This library exposes the shared experiment scales, so every binary
//! agrees on what "quick" and "full" mean.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ clippy mirror of D001/D004 (clippy.toml): the bench harness is
// host-facing by policy (wall-clock timing is its whole job), exactly
// as cgct-lint exempts crates/bench.

use cgct_system::RunPlan;

pub mod timing;

/// The scaled-down plan used by `--quick` runs: small but large enough
/// that every figure's qualitative shape (who wins, roughly by how much)
/// is already visible.
pub fn quick_plan() -> RunPlan {
    RunPlan {
        warmup_per_core: 60_000,
        instructions_per_core: 20_000,
        max_cycles: 40_000_000,
        runs: 2,
        base_seed: 1,
    }
}

/// The full evaluation plan used for `EXPERIMENTS.md` numbers.
pub fn full_plan() -> RunPlan {
    RunPlan {
        warmup_per_core: 250_000,
        instructions_per_core: 150_000,
        max_cycles: 200_000_000,
        runs: 4,
        base_seed: 1,
    }
}

/// Ensures the `--json` output directory exists and is writable
/// *before* any experiment runs, so a bad path fails in milliseconds
/// with an actionable message instead of panicking after minutes of
/// simulation.
///
/// Creates the directory (and parents) if missing, then probes it with
/// a throwaway write.
pub fn prepare_output_dir(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create --json output directory '{dir}': {e}"))?;
    let probe = std::path::Path::new(dir).join(".cgct-write-probe");
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--json output directory '{dir}' is not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_ordered() {
        assert!(quick_plan().instructions_per_core < full_plan().instructions_per_core);
        assert!(quick_plan().runs <= full_plan().runs);
    }

    #[test]
    fn prepare_output_dir_creates_missing_directories() {
        let dir = std::env::temp_dir().join(format!("cgct-json-{}/nested", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        assert!(prepare_output_dir(dir_s).is_ok());
        assert!(dir.is_dir());
        // No probe file left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn prepare_output_dir_reports_unusable_paths() {
        // A path *under a regular file* can never be a directory: the
        // clear-error case for a mistyped --json argument.
        let file = std::env::temp_dir().join(format!("cgct-blocker-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let bad = format!("{}/sub", file.to_str().unwrap());
        let err = prepare_output_dir(&bad).unwrap_err();
        assert!(
            err.contains("cannot create") && err.contains(&bad),
            "unexpected message: {err}"
        );
        std::fs::remove_file(&file).unwrap();
    }
}
