//! Workspace-mode tests over the mini-workspace in
//! `fixtures/interproc/`: chains, conservative resolution, allow
//! escapes, stale allows, and the metric registry.
//! JSON and SARIF output are locked by snapshots; regenerate with
//! `STORM_LINT_BLESS=1 cargo test -p storm-lint --test interproc`.

use std::fs;
use std::path::PathBuf;

use storm_lint::{analyze_workspace, render_json, render_sarif, Config, Finding};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("interproc")
}

fn scan() -> (Vec<Finding>, usize) {
    analyze_workspace(&fixture_root(), &Config::default()).expect("fixture workspace scans")
}

fn chain_names(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|fr| fr.fn_name.as_str()).collect()
}

/// The acceptance-criterion test: a transitive finding whose diagnostic
/// carries the full call chain from the scoped caller to the source.
#[test]
fn transitive_chain_is_reported_in_full() {
    let (findings, _) = scan();
    let f = findings
        .iter()
        .find(|f| {
            f.rule == "no-transitive-nondeterminism" && chain_names(f).first() == Some(&"tick")
        })
        .expect("tick chain reported");
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert_eq!(
        chain_names(&f.clone()),
        ["tick", "sample", "leaf", "`Instant`"]
    );
    assert_eq!(
        f.chain.last().unwrap().file,
        "crates/workloads/src/probe.rs"
    );
    assert!(f.message.contains("reads-wall-clock"), "{}", f.message);
}

#[test]
fn trait_method_dispatch_is_linked() {
    let (findings, _) = scan();
    let f = findings
        .iter()
        .find(|f| {
            f.rule == "no-transitive-nondeterminism" && chain_names(f).first() == Some(&"observe")
        })
        .expect("trait dispatch chain reported");
    assert!(chain_names(f).contains(&"read"), "{:?}", f.chain);
    assert_eq!(chain_names(f).last(), Some(&"`SystemTime`"));
}

#[test]
fn ambiguous_resolution_is_conservative() {
    let (findings, _) = scan();
    let f = findings
        .iter()
        .find(|f| {
            f.rule == "no-transitive-nondeterminism" && chain_names(f).first() == Some(&"audit")
        })
        .expect("ambiguous plain call still reported");
    assert!(chain_names(f).contains(&"latency"), "{:?}", f.chain);
}

#[test]
fn no_cascade_and_no_scoped_source_duplicates() {
    let (findings, _) = scan();
    // Exactly the three boundary findings; unscoped intermediates and
    // the allowed `setup` chain produce nothing.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "no-transitive-nondeterminism")
            .count(),
        3,
        "{findings:#?}"
    );
}

#[test]
fn allow_on_intermediate_frame_escapes_and_is_used() {
    let (findings, _) = scan();
    assert!(
        !findings
            .iter()
            .any(|f| chain_names(f).contains(&"cold_init")),
        "allowed chain still reported: {findings:#?}"
    );
    assert!(
        !findings
            .iter()
            .any(|f| f.rule == "stale-allow" && f.file.contains("probe.rs")),
        "used chain allow reported stale: {findings:#?}"
    );
}

#[test]
fn stale_allow_is_reported() {
    let (findings, _) = scan();
    let stale: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "stale-allow")
        .collect();
    assert_eq!(stale.len(), 1, "{findings:#?}");
    assert_eq!(stale[0].file, "crates/sim/src/lib.rs");
    assert!(stale[0].message.contains("no-hash-iter"));
}

#[test]
fn metric_typo_is_caught_registered_names_pass() {
    let (findings, _) = scan();
    let metric: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "metric-name-registry")
        .collect();
    assert_eq!(metric.len(), 1, "{findings:#?}");
    assert!(metric[0].message.contains("storm_relay_pdus_totl"));
    assert_eq!(metric[0].file, "crates/telemetry/src/lib.rs");
}

#[test]
fn alloc_on_datapath_direct_and_transitive() {
    let (findings, _) = scan();
    let alloc: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "no-alloc-on-datapath")
        .collect();
    assert_eq!(alloc.len(), 2, "{findings:#?}");
    assert!(alloc.iter().all(|f| f.file == "crates/net/src/tcp.rs"));
    assert!(alloc.iter().any(|f| f.message.contains("`vec!`")));
    assert!(alloc.iter().any(|f| f.message.contains("via `log_drop`")));
}

fn snapshot(name: &str, rendered: &str) {
    let path = fixture_root().join(name);
    if std::env::var_os("STORM_LINT_BLESS").is_some() {
        fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless first)", path.display()));
    assert_eq!(rendered, expected, "{name} drifted; re-bless if intended");
}

#[test]
fn json_and_sarif_snapshots() {
    let (findings, scanned) = scan();
    snapshot("expected.json", &render_json(&findings, scanned));
    snapshot("expected.sarif", &render_sarif(&findings));
}
