//! The vet rule set.
//!
//! Every rule here mechanizes one of the prose concurrency invariants in
//! `ARCHITECTURE.md` (see the "Static analysis & invariant enforcement"
//! section there for the rule -> invariant map). Rules are line-level:
//! they consume the lexer's code/comment split, never raw text, so a
//! banned token inside a string or doc comment cannot fire and a marker
//! inside a string cannot satisfy.

use crate::lexer::Line;
use crate::registry::Registry;

/// A rule violation at a source line (1-indexed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable kebab-case rule id (what `[[allow]]` entries name).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Human-readable description with the fix spelled out.
    pub msg: String,
}

/// Per-file site statistics, accumulated across a scan.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteStats {
    /// Lines carrying at least one atomic-`Ordering` site.
    pub ordering_lines: usize,
    /// Individual atomic-`Ordering` occurrences.
    pub ordering_sites: usize,
    /// Lines carrying the `unsafe` keyword.
    pub unsafe_lines: usize,
    /// Non-test lines carrying `.unwrap()` / `.expect(`.
    pub panic_lines: usize,
}

/// All rule ids, for `--list-rules` and registry validation.
pub const RULE_IDS: &[&str] = &[
    "unsafe-needs-safety",
    "ordering-needs-note",
    "unwrap-needs-note",
    "no-static-mut",
    "no-thread-sleep",
];

const ATOMIC_ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// Run every rule over one lexed file. Registry `[rules.*] skip` and
/// `[[allow]]` filtering happens in the caller (`scan`), which also
/// counts allowance consumption; inline `// vet: allow(rule)` markers
/// are honored here because they are positional.
pub fn check_file(
    path: &str,
    lines: &[Line],
    reg: &Registry,
    stats: &mut SiteStats,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();

        // --- unsafe-needs-safety -------------------------------------
        if has_word(code, "unsafe") {
            stats.unsafe_lines += 1;
            if !marker_near(lines, idx, "safety:")
                && !inline_allow(lines, idx, "unsafe-needs-safety")
            {
                push(&mut out, reg, path, idx, "unsafe-needs-safety",
                    "`unsafe` without a `// SAFETY:` justification on the site or the statement's leading comment".to_string());
            }
        }

        // --- ordering-needs-note -------------------------------------
        let sites = ordering_sites(code);
        if sites > 0 {
            stats.ordering_lines += 1;
            stats.ordering_sites += sites;
            if !marker_near(lines, idx, "ordering:")
                && !inline_allow(lines, idx, "ordering-needs-note")
            {
                push(&mut out, reg, path, idx, "ordering-needs-note",
                    "atomic `Ordering` site without an `// ordering:` justification naming the invariant it serves".to_string());
            }
        }

        // --- unwrap-needs-note (non-test code only) ------------------
        if !line.in_test && (code.contains(".unwrap()") || code.contains(".expect(")) {
            stats.panic_lines += 1;
            if !marker_near(lines, idx, "panics:") && !inline_allow(lines, idx, "unwrap-needs-note")
            {
                push(&mut out, reg, path, idx, "unwrap-needs-note",
                    "`.unwrap()`/`.expect(` in non-test code without a `// panics:` note stating why the panic is unreachable or intended".to_string());
            }
        }

        // --- no-static-mut -------------------------------------------
        if code.contains("static mut ") && !inline_allow(lines, idx, "no-static-mut") {
            push(&mut out, reg, path, idx, "no-static-mut",
                "`static mut` is banned: use an atomic or a lock (every shared-state protocol in this workspace is lock-free or lock-documented)".to_string());
        }

        // --- no-thread-sleep (non-test code only) --------------------
        if !line.in_test
            && code.contains("thread::sleep")
            && !inline_allow(lines, idx, "no-thread-sleep")
        {
            push(&mut out, reg, path, idx, "no-thread-sleep",
                "`thread::sleep` in library code: sleeping hides synchronization bugs and stalls the writer; use a blocking primitive or a yield loop".to_string());
        }
    }
    out
}

fn push(
    out: &mut Vec<Finding>,
    reg: &Registry,
    path: &str,
    idx: usize,
    rule: &'static str,
    msg: String,
) {
    if reg.rule_skipped(rule, path) {
        return;
    }
    out.push(Finding {
        rule,
        path: path.to_string(),
        line: idx + 1,
        msg,
    });
}

/// Count atomic-`Ordering` occurrences in a code view.
fn ordering_sites(code: &str) -> usize {
    let mut n = 0;
    let mut rest = code;
    while let Some(pos) = rest.find("Ordering::") {
        let after = &rest[pos + "Ordering::".len()..];
        if ATOMIC_ORDERINGS
            .iter()
            .any(|o| after.starts_with(o) && !is_ident_char(after[o.len()..].chars().next()))
        {
            n += 1;
        }
        rest = &rest[pos + "Ordering::".len()..];
    }
    n
}

fn is_ident_char(c: Option<char>) -> bool {
    matches!(c, Some(c) if c.is_alphanumeric() || c == '_')
}

/// Word-boundary containment check on the code view.
fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before = code[..abs].chars().next_back();
        let after = code[abs + word.len()..].chars().next();
        if !is_ident_char(before) && !is_ident_char(after) {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// True when `marker` (matched case-insensitively) appears in a comment
/// associated with line `idx`: on the line itself, on any line of the
/// same multi-line statement, or in the comment/attribute run
/// immediately above the statement's first line.
fn marker_near(lines: &[Line], idx: usize, marker: &str) -> bool {
    let start = statement_start(lines, idx);
    for line in &lines[start..=idx] {
        if comment_has(&line.comment, marker) {
            return true;
        }
    }
    let mut r = start;
    while r > 0 {
        let prev = &lines[r - 1];
        if prev.is_comment_only() || prev.is_attr_only() {
            if comment_has(&prev.comment, marker) {
                return true;
            }
            r -= 1;
        } else {
            break;
        }
    }
    false
}

/// True when an inline `vet: allow(<rule>)` suppression is associated
/// with line `idx` (same placement rules as justification markers).
fn inline_allow(lines: &[Line], idx: usize, rule: &str) -> bool {
    marker_near(lines, idx, &format!("vet: allow({rule})"))
}

fn comment_has(comment: &str, marker: &str) -> bool {
    comment
        .to_ascii_lowercase()
        .contains(&marker.to_ascii_lowercase())
}

/// First line of the (possibly multi-line) statement containing `idx`:
/// walk upward while the previous line is code that does not end a
/// statement or open a block.
fn statement_start(lines: &[Line], idx: usize) -> usize {
    let mut s = idx;
    while s > 0 {
        let prev = &lines[s - 1];
        if prev.is_blank() || prev.is_comment_only() || prev.is_attr_only() {
            break;
        }
        let t = prev.code.trim_end();
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            break;
        }
        s -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::registry::Registry;

    fn run(src: &str) -> Vec<Finding> {
        let reg = Registry::default();
        let lines = lex(src, false);
        let mut stats = SiteStats::default();
        check_file("test.rs", &lines, &reg, &mut stats)
    }

    #[test]
    fn unsafe_without_safety_fires() {
        let f = run("fn f() { unsafe { g(); } }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-needs-safety");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_with_leading_safety_passes() {
        let f = run("// SAFETY: g is sound here\nfn f() { unsafe { g(); } }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn multiline_statement_comment_covers_continuations() {
        let src = "// ordering: AcqRel/Acquire — CAS pairs with the release store\nlet r = x.compare_exchange(\n    a,\n    b,\n    Ordering::AcqRel,\n    Ordering::Acquire,\n);\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn ordering_without_note_fires_per_line() {
        let src = "x.store(1, Ordering::Relaxed);\ny.store(2, Ordering::Relaxed);\n";
        let f = run(src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "ordering-needs-note"));
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        assert!(run("let o = Ordering::Less; a.cmp(b) == Ordering::Greater;\n").is_empty());
    }

    #[test]
    fn unwrap_in_test_region_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unwrap_in_lib_without_note_fires() {
        let f = run("fn f() { x().unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unwrap-needs-note");
    }

    #[test]
    fn expect_with_panics_note_passes() {
        let src = "fn f() {\n    // panics: poisoned lock means a writer already panicked\n    x().expect(\"writer alive\");\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn static_mut_banned_everywhere() {
        let f = run("static mut COUNTER: u32 = 0;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-static-mut");
    }

    #[test]
    fn sleep_banned_in_lib_allowed_in_tests() {
        let f = run("fn f() { std::thread::sleep(d); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-thread-sleep");
        let src = "#[test]\nfn t() { std::thread::sleep(d); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn f() {\n    // vet: allow(no-thread-sleep) — backoff documented in module doc\n    std::thread::sleep(d);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn banned_token_in_string_or_comment_never_fires() {
        let src = "fn f() {\n    let s = \"static mut thread::sleep .unwrap()\";\n    // mentions thread::sleep and unsafe in prose\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn marker_inside_string_does_not_satisfy() {
        let f = run("fn f() { log(\"SAFETY: nope\"); unsafe { g(); } }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-needs-safety");
    }

    #[test]
    fn trailing_same_line_marker_satisfies() {
        let src = "x.store(1, Ordering::Relaxed); // ordering: counter, no cross-thread order\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn registry_rule_skip_filters() {
        let mut reg = Registry::default();
        reg.rule_skip
            .insert("no-thread-sleep".into(), vec!["crates/bench".into()]);
        let lines = lex("fn f() { std::thread::sleep(d); }\n", false);
        let mut stats = SiteStats::default();
        let f = check_file("crates/bench/src/x.rs", &lines, &reg, &mut stats);
        assert!(f.is_empty());
        let f2 = check_file("crates/core/src/x.rs", &lines, &reg, &mut stats);
        assert_eq!(f2.len(), 1);
    }
}
