//! snap-vet: workspace-local static analysis for the snap stack.
//!
//! The lock-free protocols (epoch-coupled validity, the parallel
//! runtime's claims, pin-based reclamation) rest on the prose invariants
//! in `ARCHITECTURE.md` and over a hundred atomic-ordering call sites. A silent ordering bug in
//! this serving regime corrupts results under load instead of crashing
//! — so the invariants are enforced by a tool that fails CI, not a
//! document that asks nicely.
//!
//! The scanner is hand-rolled and lexical (no reachable crates registry
//! means no `syn`): [`lexer`] splits each line into code vs comment and
//! tracks `#[cfg(test)]` regions, [`rules`] enforces the rule set, and
//! [`registry`] reads the `vet.toml` exception registry. Run it as
//! `cargo run -p snap-vet -- --workspace`.

#![deny(missing_docs)]

pub mod lexer;
pub mod registry;
pub mod rules;

use registry::Registry;
use rules::{Finding, SiteStats};
use std::path::{Path, PathBuf};

/// Aggregate result of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Violations after registry filtering, sorted by path then line.
    pub findings: Vec<Finding>,
    /// `[[allow]]`-suppressed occurrences, for `--verbose` reporting.
    pub allowed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Total source lines scanned.
    pub lines: usize,
    /// Site statistics across the scan.
    pub stats: SiteStats,
}

/// Scan one in-memory source file (used by the fixture tests).
pub fn scan_source(path_rel: &str, source: &str, reg: &Registry) -> Vec<Finding> {
    let whole_test = file_is_test_context(path_rel);
    let lines = lexer::lex(source, whole_test);
    let mut stats = SiteStats::default();
    rules::check_file(path_rel, &lines, reg, &mut stats)
}

/// Scan the workspace rooted at `root` using registry `reg`.
pub fn scan_workspace(root: &Path, reg: &Registry) -> std::io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let mut files = Vec::new();
    for r in &reg.roots {
        collect_rs_files(&root.join(r), root, reg, &mut files)?;
    }
    files.sort();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let whole_test = file_is_test_context(&rel);
        let lines = lexer::lex(&source, whole_test);
        report.files += 1;
        report.lines += lines.len();
        let found = rules::check_file(&rel, &lines, reg, &mut report.stats);
        // Apply [[allow]] entries: each entry absorbs up to `max`
        // occurrences (unlimited when max is omitted).
        let mut absorbed: std::collections::HashMap<&str, usize> = Default::default();
        for f in found {
            if let Some(allow) = reg.allows_for(f.rule, &f.path) {
                let n = absorbed.entry(f.rule).or_insert(0);
                if allow.max.is_none_or(|m| *n < m) {
                    *n += 1;
                    report.allowed.push(f);
                    continue;
                }
            }
            report.findings.push(f);
        }
    }
    Ok(report)
}

/// Whole-file test context: integration tests, benches, and examples.
fn file_is_test_context(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

fn collect_rs_files(
    dir: &Path,
    root: &Path,
    reg: &Registry,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = match path.strip_prefix(root) {
            Ok(p) => p.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        if reg.path_skipped(&rel) || rel.split('/').any(|s| s == "target") {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, root, reg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root by walking up from `start` until a
/// `vet.toml` is found next to a `Cargo.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("vet.toml").exists() && dir.join("Cargo.toml").exists() {
            return Some(dir);
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}
