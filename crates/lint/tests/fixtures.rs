//! Fixture-based self-tests: every rule catches its `bad.rs`, passes its
//! `good.rs`, and honors the inline allow in `allowed.rs`; the human
//! output is locked by a snapshot.

use std::fs;
use std::path::PathBuf;

use storm_lint::{analyze_source, render_human, Config, FileClass, Finding};

/// Each rule with a file class that puts it in scope. `iscsi` is there
/// for the determinism scope's dependency closure (`config::tests`): it
/// was reached before only through the call graph. `stale-allow` has no
/// `allowed.rs`, since an allow cannot excuse itself.
const CASES: [(&str, &str); 8] = [
    ("no-wall-clock", "crates/net/src/fixture.rs"),
    ("no-ambient-rand", "crates/net/src/fixture.rs"),
    ("no-hash-iter", "crates/net/src/fixture.rs"),
    ("no-hash-iter", "crates/iscsi/src/fixture.rs"),
    ("no-hot-path-copy", "crates/net/src/tcp.rs"),
    ("no-panic", "crates/net/src/tcp.rs"),
    ("forbid-unsafe", "crates/net/src/lib.rs"),
    ("stale-allow", "crates/net/src/fixture.rs"),
];

fn fixture_path(rule: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(name)
}

fn fixture(rule: &str, name: &str) -> String {
    let path = fixture_path(rule, name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run(rule: &str, class_path: &str, name: &str) -> Vec<Finding> {
    let class = FileClass::from_rel_path(class_path);
    analyze_source(&class, &fixture(rule, name), &Config::default())
}

#[test]
fn bad_fixtures_are_caught() {
    for (rule, class_path) in CASES {
        let findings = run(rule, class_path, "bad.rs");
        assert!(!findings.is_empty(), "{rule}: bad.rs produced no findings");
        assert!(
            findings.iter().all(|f| f.rule == rule),
            "{rule}: bad.rs tripped other rules: {findings:?}"
        );
        for f in &findings {
            assert!(f.line >= 1 && f.col >= 1, "{rule}: zero span in {f:?}");
            assert!(!f.suggestion.is_empty(), "{rule}: missing suggestion");
        }
    }
}

#[test]
fn good_fixtures_pass() {
    for (rule, class_path) in CASES {
        let findings = run(rule, class_path, "good.rs");
        assert!(findings.is_empty(), "{rule}: good.rs flagged: {findings:?}");
    }
}

#[test]
fn inline_allow_is_honored() {
    for (rule, class_path) in CASES.into_iter().filter(|(r, _)| *r != "stale-allow") {
        let findings = run(rule, class_path, "allowed.rs");
        assert!(
            findings.is_empty(),
            "{rule}: allowed.rs still flagged: {findings:?}"
        );
    }
}

/// `storm_sim::IdMap` is a `HashMap` under another name: iterating an
/// `IdMap` field leaks hasher order just the same, both ways of writing it.
#[test]
fn id_map_iteration_is_caught() {
    let findings = run("no-hash-iter", "crates/net/src/fixture.rs", "id_map.rs");
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [9, 14], "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-hash-iter"));
}

/// Regression (lexer line-map): an allow stays in force across a
/// multi-line block comment sitting between it and the code line.
#[test]
fn allow_covers_through_block_comment() {
    let findings = run(
        "no-wall-clock",
        "crates/net/src/fixture.rs",
        "allowed_block_comment.rs",
    );
    assert!(
        findings.is_empty(),
        "allow did not survive the block comment: {findings:?}"
    );
}

#[test]
fn test_code_is_exempt() {
    let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v: Vec<u8> = Vec::new();\n        v.first().unwrap();\n        let w = v.to_vec();\n        assert!(w.is_empty());\n    }\n}\n";
    let class = FileClass::from_rel_path("crates/net/src/tcp.rs");
    let findings = analyze_source(&class, src, &Config::default());
    assert!(findings.is_empty(), "test module flagged: {findings:?}");
}

#[test]
fn config_path_allowlist_suppresses() {
    let mut cfg = Config::default();
    cfg.allow_paths
        .push((storm_lint::Rule::NoPanic, "net/src/tcp.rs".to_string()));
    let class = FileClass::from_rel_path("crates/net/src/tcp.rs");
    let findings = analyze_source(&class, "fn f(v: &[u8]) { v.first().unwrap(); }\n", &cfg);
    assert!(
        findings.is_empty(),
        "allowlisted file flagged: {findings:?}"
    );
}

/// Locks the diagnostics byte-for-byte. Regenerate with
/// `STORM_LINT_BLESS=1 cargo test -p storm-lint --test fixtures`.
#[test]
fn human_snapshot() {
    let class = FileClass::from_rel_path("crates/net/src/fixture.rs");
    let input = fixture("snapshot", "input.rs");
    let findings = analyze_source(&class, &input, &Config::default());
    assert!(!findings.is_empty(), "snapshot input must produce findings");
    let doc = render_human(&findings, 1);
    let path = fixture_path("snapshot", "expected.txt");
    if std::env::var_os("STORM_LINT_BLESS").is_some() {
        fs::write(&path, &doc).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless first)", path.display()));
    assert_eq!(doc, expected, "human output drifted; re-bless if intended");
}
