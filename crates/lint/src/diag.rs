//! Findings and their compiler-style human rendering.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name (`no-hash-iter`, ...).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: &'static str,
}

/// Renders findings as compiler-style human diagnostics.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "error[{}]: {}\n  --> {}:{}:{}",
            f.rule, f.message, f.file, f.line, f.col
        );
        let _ = writeln!(out, "  = help: {}", f.suggestion);
    }
    if findings.is_empty() {
        let _ = writeln!(out, "storm-lint: clean ({files_scanned} files scanned)");
    } else {
        let _ = writeln!(
            out,
            "storm-lint: {} finding(s) across {} file(s) ({} files scanned)",
            findings.len(),
            findings
                .iter()
                .map(|f| f.file.as_str())
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            files_scanned
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "no-panic",
            file: "crates/net/src/tcp.rs".to_string(),
            line: 3,
            col: 7,
            message: "`.unwrap()` can abort the datapath".to_string(),
            suggestion: "return a typed error",
        }
    }

    #[test]
    fn human_output_mentions_location() {
        let text = render_human(&[sample()], 4);
        assert!(text.contains("error[no-panic]"));
        assert!(text.contains("crates/net/src/tcp.rs:3:7"));
        assert!(text.contains("1 finding(s)"));
    }

    #[test]
    fn clean_output() {
        let text = render_human(&[], 9);
        assert!(text.contains("clean (9 files scanned)"));
    }
}
