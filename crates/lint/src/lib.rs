//! `storm-lint`: static enforcement of StorM's dataplane invariants.
//!
//! The evaluation figures only reproduce because two properties survive
//! every refactor: simulation runs are **bit-for-bit deterministic**
//! (equal seeds produce byte-identical traces) and the active-relay
//! datapath stays **zero-copy** (`bytes_copied_per_pdu = 0`). Runtime
//! tests (`tests/trace_determinism.rs`, `tests/zero_copy_relay.rs`)
//! catch violations late; this crate catches them at the source level in
//! seconds, the way verification-oriented dataplane work (Dobrescu &
//! Argyraki, NSDI'14) checks invariants statically.
//!
//! Because the offline build vendors no parser crates, the scanner is a
//! small hand-rolled token lexer ([`lexer`]) rather than a `syn` AST
//! walk, and every rule is lexical: one pass per file, `lex` →
//! [`rules::check_file`] → stale-allow. A call out of a determinism
//! crate needs no call graph to be checked, because the determinism
//! scope is closed under crate dependencies (tested in [`config`]).
//!
//! # Rules
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `no-wall-clock` | determinism crates | no `SystemTime`/`Instant`/`std::time` |
//! | `no-ambient-rand` | determinism crates | no `thread_rng`/`OsRng`/`rand::random` |
//! | `no-hash-iter` | determinism crates | no iteration over `HashMap`/`HashSet`/`IdMap` |
//! | `no-hot-path-copy` | datapath modules | no `.to_vec()`/`copy_from_slice`/`extend_from_slice` |
//! | `no-panic` | datapath modules | no `unwrap`/`expect`/`panic!` |
//! | `forbid-unsafe` | every crate root and binary | `#![forbid(unsafe_code)]` present |
//! | `stale-allow` | every file | every allow-comment suppresses something in its file |
//!
//! Escape hatches: a per-rule path allowlist in [`Config`], and inline
//! `// storm-lint: allow(<rule>): <why>` comments covering their own
//! line and the next code line (the justification may continue over
//! further comment lines). Test code (`#[cfg(test)]` / `#[test]` items)
//! is exempt from all location rules. Allows that suppress nothing, or
//! name no rule, are themselves findings (`stale-allow`).
//!
//! # Invocation
//!
//! ```text
//! cargo run -p storm-lint -- --workspace   # exit 0 clean, 1 findings, 2 usage/I/O
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use config::{Config, FileClass};
pub use diag::{render_human, Finding};
pub use rules::{Rule, ALL_RULES};

use std::fs;
use std::io;
use std::path::Path;

/// Analyzes one file's source text under `class`: every rule, then the
/// stale allows. Findings come out in source order.
pub fn analyze_source(class: &FileClass, source: &str, cfg: &Config) -> Vec<Finding> {
    let mut lexed = lexer::lex(source);
    let mut out = Vec::new();
    rules::check_file(class, &mut lexed, cfg, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Scans the whole workspace rooted at `root`, one file at a time.
/// Returns the findings sorted by `(file, line, col, rule)` and the number
/// of files scanned.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<(Vec<Finding>, usize)> {
    let files = walk::workspace_files(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        findings.extend(analyze_source(&FileClass::from_rel_path(rel), &source, cfg));
    }
    Ok((findings, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_class(name: &str) -> FileClass {
        FileClass::from_rel_path(&format!("crates/net/src/{name}"))
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n";
        let out = analyze_source(&net_class("clean.rs"), src, &Config::default());
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn findings_sorted_in_source_order() {
        let src = "fn f() {\n    let t = SystemTime::now();\n    let r = thread_rng();\n}\n";
        let out = analyze_source(&net_class("dirty.rs"), src, &Config::default());
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
        assert_eq!(out[0].rule, "no-wall-clock");
        assert_eq!(out[1].rule, "no-ambient-rand");
    }

    #[test]
    fn stale_and_unknown_allows_are_reported() {
        let src = "// storm-lint: allow(no-wall-clock): nothing here\n// storm-lint: allow(no-such-rule): typo\npub fn quiet() {}\n";
        let out = analyze_source(&net_class("quiet.rs"), src, &Config::default());
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "stale-allow"));
        assert!(out[0].message.starts_with("stale allow: `no-wall-clock`"));
        assert!(out[1].message.starts_with("unknown rule `no-such-rule`"));
    }

    #[test]
    fn out_of_scope_crate_is_untouched() {
        let src = "fn f() { let t = SystemTime::now(); }\n";
        let class = FileClass::from_rel_path("crates/workloads/src/x.rs");
        assert!(analyze_source(&class, src, &Config::default()).is_empty());
    }
}
