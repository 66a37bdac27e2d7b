//! Fixture tests for the snap-vet scanner: one violating and one clean
//! fixture per rule, plus the self-check that the committed workspace
//! passes with zero violations (which is what makes the CI gate
//! meaningful — the tool is tested against the code it guards).

use snap_vet::registry::Registry;
use snap_vet::scan_source;

/// Rules fired by `src`, scanned as non-test library code.
fn rules_for(src: &str) -> Vec<&'static str> {
    let reg = Registry::default();
    scan_source("crates/core/src/fixture.rs", src, &reg)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// Rules fired by `src` under a whole-file test context path.
fn rules_for_test_file(src: &str) -> Vec<&'static str> {
    let reg = Registry::default();
    scan_source("tests/fixture.rs", src, &reg)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// --- unsafe-needs-safety -------------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_for(src), vec!["unsafe-needs-safety"]);
}

#[test]
fn unsafe_with_safety_comment_above_is_clean() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

#[test]
fn safety_marker_covers_multiline_statements() {
    // The marker sits on the first line of the statement; the `unsafe`
    // appears two lines later, still within the same statement.
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    let x = Some(p)\n        .map(|p| unsafe { *p })\n        .unwrap_or(0);\n    x\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

#[test]
fn unsafe_in_string_literal_is_not_flagged() {
    let src = "pub fn f() -> &'static str {\n    \"unsafe unsafe unsafe\"\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

// --- ordering-needs-note -------------------------------------------------

#[test]
fn bare_ordering_site_is_flagged() {
    let src = "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Acquire)\n}\n";
    assert_eq!(rules_for(src), vec!["ordering-needs-note"]);
}

#[test]
fn ordering_with_note_is_clean() {
    let src = "fn f(a: &AtomicUsize) -> usize {\n    // ordering: Acquire — pairs with the Release publish (invariant 1).\n    a.load(Ordering::Acquire)\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

#[test]
fn ordering_rule_applies_inside_test_modules_too() {
    // Ordering notes are required even in tests: a test encoding the
    // wrong ordering documents the wrong protocol.
    let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) -> usize {\n        a.load(Ordering::Relaxed)\n    }\n}\n";
    assert_eq!(rules_for(src), vec!["ordering-needs-note"]);
}

#[test]
fn non_atomic_ordering_paths_are_ignored() {
    // `cmp::Ordering` variants must not trip the atomic rule.
    let src = "fn f(a: u32, b: u32) -> Ordering {\n    if a < b { Ordering::Less } else { Ordering::Greater }\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

// --- unwrap-needs-note ---------------------------------------------------

#[test]
fn bare_unwrap_in_library_code_is_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(rules_for(src), vec!["unwrap-needs-note"]);
}

#[test]
fn expect_with_panics_note_is_clean() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // panics: unreachable — the caller checked is_some().\n    x.expect(\"checked above\")\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
}

#[test]
fn unwrap_is_exempt_in_test_context() {
    let bare = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    // Whole-file test context (tests/ dir)...
    assert_eq!(rules_for_test_file(bare), Vec::<&str>::new());
    // ...and #[cfg(test)] modules inside library files.
    let in_mod =
        "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 {\n        x.unwrap()\n    }\n}\n";
    assert_eq!(rules_for(in_mod), Vec::<&str>::new());
}

// --- no-static-mut -------------------------------------------------------

#[test]
fn static_mut_is_flagged_everywhere() {
    let src = "static mut COUNTER: u32 = 0;\n";
    // Flagged in library code AND in test context: there is no sound
    // use of `static mut` anywhere in this workspace.
    assert_eq!(rules_for(src), vec!["no-static-mut"]);
    assert_eq!(rules_for_test_file(src), vec!["no-static-mut"]);
}

// --- no-thread-sleep -----------------------------------------------------

#[test]
fn thread_sleep_in_library_code_is_flagged() {
    let src = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(10));\n}\n";
    assert_eq!(rules_for(src), vec!["no-thread-sleep"]);
}

#[test]
fn thread_sleep_is_allowed_in_tests() {
    let src = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(10));\n}\n";
    assert_eq!(rules_for_test_file(src), Vec::<&str>::new());
}

// --- suppression mechanisms ----------------------------------------------

#[test]
fn inline_allow_suppresses_one_rule_only() {
    let src = "fn f() {\n    // vet: allow(no-thread-sleep) — fixture exercising suppression.\n    std::thread::sleep(d);\n}\n";
    assert_eq!(rules_for(src), Vec::<&str>::new());
    // The marker names a specific rule; a different rule on the same
    // line still fires.
    let src = "fn f(a: &AtomicUsize) {\n    // vet: allow(no-thread-sleep)\n    a.store(1, Ordering::Release);\n}\n";
    assert_eq!(rules_for(src), vec!["ordering-needs-note"]);
}

#[test]
fn registry_rule_skip_exempts_a_path_prefix() {
    let reg = Registry::parse("[rules.no-thread-sleep]\nskip = [\"crates/bench\"]\n")
        .expect("registry parses");
    let src = "fn f() {\n    std::thread::sleep(d);\n}\n";
    let in_bench = scan_source("crates/bench/src/lib.rs", src, &reg);
    assert!(in_bench.is_empty(), "skipped prefix must be exempt");
    let in_core = scan_source("crates/core/src/lib.rs", src, &reg);
    assert_eq!(in_core.len(), 1, "other paths still enforced");
}

// --- findings carry actionable positions ---------------------------------

#[test]
fn findings_report_rule_path_and_line() {
    let reg = Registry::default();
    let src = "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Acquire)\n}\n";
    let f = &scan_source("crates/core/src/fixture.rs", src, &reg)[0];
    assert_eq!(f.rule, "ordering-needs-note");
    assert_eq!(f.path, "crates/core/src/fixture.rs");
    assert_eq!(f.line, 2);
    assert!(f.msg.contains("ordering:"), "message must name the fix");
}

// --- the committed workspace passes its own gate -------------------------

#[test]
fn workspace_scans_clean() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = snap_vet::find_root(here).expect("workspace root with vet.toml");
    let reg = Registry::parse(
        &std::fs::read_to_string(root.join("vet.toml")).expect("vet.toml readable"),
    )
    .expect("vet.toml parses");
    let report = snap_vet::scan_workspace(&root, &reg).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace must pass snap-vet clean; violations:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.path, f.line, f.rule, f.msg))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Only vendored code may leave the scan: a skipped crate of ours
    // fails here.
    assert!(
        reg.skip.iter().all(|p| p.starts_with("crates/shims")),
        "vet.toml skips more than the vendored shims: {:?}",
        reg.skip
    );
    // The scan covers the workspace: every `.rs` file under the roots,
    // counted by an independent walk, less the skipped prefixes.
    let mut files = Vec::new();
    for r in &reg.roots {
        rs_files(&root.join(r), &mut files);
    }
    let rel = |path: &std::path::PathBuf| {
        let rel = path.strip_prefix(&root).expect("under the root");
        rel.to_string_lossy().replace('\\', "/")
    };
    let scanned = files.iter().filter(|p| !reg.path_skipped(&rel(p))).count();
    assert!(scanned > 0, "the walk must find the workspace's sources");
    assert_eq!(report.files, scanned, "scan must cover the workspace");
    // A floor that moves with the code: a scanned library file whose
    // code names an `Ordering::` holds at least one ordering site.
    let naming = files
        .iter()
        .filter(|path| {
            let rel = rel(path);
            let library = !rel
                .split('/')
                .any(|s| ["tests", "benches", "examples"].contains(&s));
            let source = std::fs::read_to_string(path).expect("source readable");
            library
                && !reg.path_skipped(&rel)
                && snap_vet::lexer::lex(&source, false)
                    .iter()
                    .any(|l| !l.in_test && l.code.contains("Ordering::"))
        })
        .count();
    assert!(naming > 0, "the walk must find the library's atomics");
    assert!(
        report.stats.ordering_sites >= naming,
        "{} ordering sites scanned, but {naming} library files name an `Ordering::`",
        report.stats.ordering_sites
    );
}

/// Every `.rs` file under `dir`, outside build output.
fn rs_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() && !path.ends_with("target") {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
