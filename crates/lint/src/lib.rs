//! `cgct-lint` — an in-tree, zero-dependency determinism & purity
//! static analyzer for the CGCT workspace.
//!
//! Every load-bearing guarantee in this repo (byte-identical artifacts
//! across `CGCT_JOBS`, sound result-cache hits,
//! checkpoint/resume byte-equality) rests on source-level hygiene: no
//! wall-clock reads, no randomized-iteration containers, no stray
//! `env::var` outside the config seams, integer milli-unit statistics
//! accumulation. The dynamic layers (cgct-verify, the byte-compare A/B
//! smokes) catch violations *after* they ship; this analyzer catches
//! them at the source line, before a run ever starts.
//!
//! The analyzer lexes the workspace's own Rust sources with a real
//! lexer ([`lexer`] — nested block comments, raw strings, char
//! literals; no regex hacks) and enforces repo-specific rules
//! ([`rules::RULES`]) under a per-crate purity policy ([`policy`]).
//! Suppressions are spelled
//! `// cgct-lint: allow(<rule>) <justification>` and the justification
//! is mandatory; an unjustified or unused allow is itself an error.
//! Output (human or JSON) is canonically ordered, so lint output is
//! itself byte-stable. A [`baseline`] file may grandfather findings,
//! with a ratchet: the baseline may only shrink. [`selftest`] injects
//! seeded violations into fixture sources and asserts every rule fires
//! with the exact expected span.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod selftest;

use rules::Finding;
use std::path::{Path, PathBuf};

/// The directories (relative to the workspace root) the analyzer walks.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Collects all `.rs` files under the scan roots, as sorted
/// `(repo-relative path, absolute path)` pairs. Hidden directories and
/// build/cache output are skipped.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry in {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix: {e}"))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Analyzes the whole workspace under `root`. Findings come back in
/// canonical `(path, line, col, rule)` order; `files_scanned` makes the
/// "clean" summary honest.
pub fn analyze_tree(root: &Path) -> Result<(Vec<Finding>, usize), String> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let scanned = files.len();
    for (rel, abs) in files {
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        findings.extend(rules::analyze_source(&rel, &src));
    }
    findings.sort();
    Ok((findings, scanned))
}

/// Renders findings in the requested format. Both formats are
/// byte-stable for a given finding set.
pub fn render(findings: &[Finding], scanned: usize, format: OutputFormat) -> String {
    match format {
        OutputFormat::Human => {
            let mut out = String::new();
            for f in findings {
                out.push_str(&f.human());
                out.push('\n');
            }
            out.push_str(&format!(
                "cgct-lint: {} finding(s) in {} file(s) scanned\n",
                findings.len(),
                scanned
            ));
            out
        }
        OutputFormat::Json => {
            use cgct_sim::json::Json;
            let arr = Json::Array(
                findings
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("path", Json::str(&f.path)),
                            ("line", Json::u64(f.line as u64)),
                            ("col", Json::u64(f.col as u64)),
                            ("rule", Json::str(&f.rule)),
                            ("message", Json::str(&f.message)),
                        ])
                    })
                    .collect(),
            );
            let obj = Json::obj([
                ("files_scanned", Json::u64(scanned as u64)),
                ("findings", arr),
            ]);
            format!("{}\n", obj.dump_pretty())
        }
    }
}

/// Output format selector for [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// `path:line:col: rule: message` lines plus a summary.
    Human,
    /// Canonical JSON (`{files_scanned, findings: [...]}`).
    Json,
}
