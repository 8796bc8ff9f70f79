//! Scope and allowlist configuration.
//!
//! The scopes are part of the invariant story, so they live in code
//! (reviewed like any other change) rather than in a config file:
//!
//! - **Determinism rules** cover every crate whose state feeds the
//!   simulation, traces or metrics, and every crate those depend on: the
//!   scope is closed under `[dependencies]` (a test below checks it), so
//!   a call out of scoped code always lands in code the rules scan.
//! - **Datapath rules** cover the modules on the relay fast path, where
//!   PR 3's `bytes_copied_per_pdu = 0` result and the no-abort
//!   guarantee are measured.

use crate::rules::Rule;

/// How a scanned file is classified. Paths are workspace-relative with
/// `/` separators (`crates/net/src/tcp.rs`).
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Short crate name: `net`, `sim`, ... (`storm` for the root crate).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// True for a crate root: `src/lib.rs`, `src/main.rs` or a
    /// `src/bin/*.rs` binary.
    pub is_crate_root: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileClass {
        let rel = rel_path.replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("storm")
            .to_string();
        let is_crate_root = rel.ends_with("src/lib.rs")
            || rel.ends_with("src/main.rs")
            || rel
                .rsplit_once('/')
                .is_some_and(|(dir, _)| dir.ends_with("src/bin"));
        FileClass {
            crate_name,
            rel_path: rel,
            is_crate_root,
        }
    }
}

/// Lint configuration: rule scopes and per-rule path allowlists.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose code must be deterministic (wall-clock, ambient
    /// randomness and hash-order rules).
    pub determinism_crates: Vec<String>,
    /// Individual files under determinism rules in crates that are
    /// otherwise exempt (e.g. the fleet model inside storm-bench, whose
    /// smoke binary legitimately reads wall clocks).
    pub determinism_files: Vec<String>,
    /// Path suffixes of zero-copy / no-panic datapath modules.
    pub datapath_files: Vec<String>,
    /// `(rule, path suffix)` pairs exempting whole files from a rule.
    pub allow_paths: Vec<(Rule, String)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            determinism_crates: [
                "sim",
                "net",
                "core",
                "cloud",
                "telemetry",
                "faults",
                "qos",
                "services",
                "nvmeq",
                "iscsi",
                "block",
                "extfs",
                "crypto",
            ]
            .map(String::from)
            .to_vec(),
            determinism_files: ["crates/bench/src/fleet.rs"].map(String::from).to_vec(),
            datapath_files: [
                "crates/core/src/relay/active.rs",
                "crates/core/src/relay/edge.rs",
                "crates/core/src/relay/passive.rs",
                "crates/core/src/semantics.rs",
                "crates/extfs/src/dirent.rs",
                "crates/extfs/src/inode.rs",
                "crates/extfs/src/layout.rs",
                "crates/iscsi/src/exchange.rs",
                "crates/iscsi/src/stream.rs",
                "crates/iscsi/src/target.rs",
                "crates/nvmeq/src/stream.rs",
                "crates/nvmeq/src/target.rs",
                "crates/net/src/tcp.rs",
                "crates/net/src/frame.rs",
                "crates/services/src/cache.rs",
                "crates/services/src/dedup.rs",
                "crates/services/src/compress.rs",
                "crates/services/src/lz.rs",
                "crates/services/src/snapshot.rs",
                "crates/services/src/encryption.rs",
                "crates/services/src/monitor.rs",
                "crates/services/src/replication.rs",
                "crates/cloud/src/target.rs",
            ]
            .map(String::from)
            .to_vec(),
            // The parsers of tenant-written filesystem bytes are on the
            // list for the panic rule. None forwards a payload: the
            // Reconstructor's one copy is its bounded stash of blocks
            // written before their inode, `write_dirent` is the guest
            // filesystem's writer, and the inode / superblock / group
            // descriptor `write_to` methods are field serialisers. The
            // codec is there for the same rule, on tenant-written frames:
            // a literal-run emit or a header field is the transform's
            // output, not a payload copied on its way through.
            allow_paths: [
                "crates/core/src/semantics.rs",
                "crates/extfs/src/dirent.rs",
                "crates/extfs/src/inode.rs",
                "crates/extfs/src/layout.rs",
                "crates/services/src/lz.rs",
            ]
            .map(|f| (Rule::NoHotPathCopy, f.to_string()))
            .to_vec(),
        }
    }
}

impl Config {
    /// Whether determinism rules apply to `class`.
    pub fn is_determinism_scoped(&self, class: &FileClass) -> bool {
        self.determinism_crates
            .iter()
            .any(|c| c == &class.crate_name)
            || self
                .determinism_files
                .iter()
                .any(|f| class.rel_path.ends_with(f.as_str()))
    }

    /// Whether `class` is a datapath module (zero-copy + panic rules).
    pub fn is_datapath(&self, class: &FileClass) -> bool {
        self.datapath_files
            .iter()
            .any(|f| class.rel_path.ends_with(f.as_str()))
    }

    /// Whether `rule` is allowlisted for this file by configuration.
    pub fn is_path_allowed(&self, rule: Rule, class: &FileClass) -> bool {
        self.allow_paths
            .iter()
            .any(|(r, p)| *r == rule && class.rel_path.ends_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    #[test]
    fn classify_crate_and_root() {
        let bin = FileClass::from_rel_path("crates/bench/src/bin/bench_smoke.rs");
        assert_eq!(bin.crate_name, "bench");
        assert!(bin.is_crate_root);
        assert!(FileClass::from_rel_path("crates/lint/src/main.rs").is_crate_root);
        let c = FileClass::from_rel_path("crates/net/src/tcp.rs");
        assert_eq!(c.crate_name, "net");
        assert!(!c.is_crate_root);
        let r = FileClass::from_rel_path("crates/sim/src/lib.rs");
        assert!(r.is_crate_root);
        let top = FileClass::from_rel_path("src/lib.rs");
        assert_eq!(top.crate_name, "storm");
        assert!(top.is_crate_root);
    }

    #[test]
    fn default_scopes() {
        let cfg = Config::default();
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/sim/src/rng.rs")));
        assert!(
            !cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/workloads/src/fio.rs"))
        );
        // The fleet model is determinism-scoped by file even though the
        // rest of storm-bench (wall-clock measurement) is exempt.
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/bench/src/fleet.rs")));
        assert!(!cfg.is_determinism_scoped(&FileClass::from_rel_path(
            "crates/bench/src/bin/bench_smoke.rs"
        )));
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/net/src/frame.rs")));
        assert!(!cfg.is_datapath(&FileClass::from_rel_path("crates/net/src/nat.rs")));
        // The multi-queue wire path and the relay's edge codec are datapath;
        // the whole nvmeq crate is determinism-scoped.
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/nvmeq/src/stream.rs")));
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/core/src/relay/edge.rs")));
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/nvmeq/src/codec.rs")));
    }

    /// The guarantee the transitive determinism rule gave, as a property
    /// of the scope: every `[dependencies]` entry of a determinism crate is
    /// itself a determinism crate, so its code is scanned by the same
    /// rules. Vendored stand-ins are outside every scan (see `walk`).
    #[test]
    fn determinism_scope_is_closed_under_dependencies() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = Config::default();
        for krate in &cfg.determinism_crates {
            let manifest = root.join("crates").join(krate).join("Cargo.toml");
            let toml = fs::read_to_string(&manifest).unwrap();
            let deps = toml
                .split("\n[")
                .find_map(|section| section.strip_prefix("dependencies]"))
                .unwrap_or_default();
            let vendored = |dep: &str| root.join("vendor").join(dep).is_dir();
            for dep in deps.lines().filter_map(|l| l.split(['.', '=', ' ']).next()) {
                if dep.is_empty() || dep.starts_with('#') || vendored(dep) {
                    continue;
                }
                let dep_crate = dep.strip_prefix("storm-").unwrap_or(dep);
                assert!(
                    cfg.determinism_crates.iter().any(|c| c == dep_crate),
                    "{krate} depends on {dep}, which is outside the determinism scope"
                );
            }
        }
    }

    #[test]
    fn path_allowlist() {
        let mut cfg = Config::default();
        cfg.allow_paths
            .push((Rule::NoPanic, "net/src/tcp.rs".to_string()));
        let c = FileClass::from_rel_path("crates/net/src/tcp.rs");
        assert!(cfg.is_path_allowed(Rule::NoPanic, &c));
        assert!(!cfg.is_path_allowed(Rule::NoHashIter, &c));
    }
}
