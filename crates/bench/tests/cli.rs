//! End-to-end argument handling of the `experiments` binary: a typo in
//! a command is a usage error, never a silent run that writes nothing.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = experiments(&["bogus-cmd", "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command bogus-cmd"), "{stderr}");
    assert!(!stderr.contains("total "), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = experiments(&["table1", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
}

#[test]
fn help_lists_the_scale_out_modes_and_sweep() {
    let out = experiments(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("dir-cgct-<N>B | hier-<N>B"), "{stdout}");
    assert!(stdout.contains("4-64-node scale-out sweep"), "{stdout}");
    assert!(!stdout.contains("16-core two-board"), "{stdout}");
}

#[test]
fn analytic_table_runs() {
    let out = experiments(&["table1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("## Table 1"), "{stdout}");
}

#[test]
fn energy_matches_the_committed_quick_results() {
    // results/quick/ is the committed output of `experiments all
    // --quick`; the energy section alone must reproduce its file.
    let dir = std::env::temp_dir().join(format!("cgct-energy-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["energy", "--quick", "--json", dir.to_str().unwrap()])
        .env("CGCT_JOBS", "2")
        .output()
        .expect("experiments runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(dir.join("energy.json")).unwrap();
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/quick/energy.json"
    ))
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        fresh == committed,
        "energy.json differs from results/quick/energy.json; regenerate results/quick/"
    );
}
