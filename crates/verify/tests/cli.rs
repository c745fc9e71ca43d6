//! End-to-end runs of the `cgct-verify` binary: argument errors exit 1
//! with a usage message (never a panic), and a clean run prints its
//! throughput.

use std::process::{Command, Output};

fn cgct_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cgct-verify"))
        .args(args)
        .output()
        .expect("cgct-verify runs")
}

#[test]
fn oversized_state_key_is_a_usage_error_not_a_panic() {
    // 3 nodes x 8 lines on the directory machine need a 154-bit key.
    let out = cgct_verify(&["--protocol", "dir-cgct", "--lines", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("154-bit state key"), "{stderr}");
    assert!(stderr.contains("usage: cgct-verify"), "{stderr}");
}

#[test]
fn clean_run_reports_counts_and_throughput() {
    let out = cgct_verify(&["--nodes", "2", "--lines", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("explored 581 states, 8848 transitions in "))
        .unwrap_or_else(|| panic!("no summary line in {stdout}"));
    assert!(summary.contains(" states/s, "), "{summary}");
    assert!(summary.ends_with(" transitions/s)"), "{summary}");
}
