//! Every workspace member inherits the root `[workspace.lints]`: a member
//! without `[lints] workspace = true` silently loses the `clippy.toml`
//! bans and the `unsafe_code` forbid (DESIGN.md §3.11).

use std::process::Command;

#[test]
fn every_member_inherits_the_workspace_lints() {
    let mut cargo = Command::new(env!("CARGO"));
    cargo.args(["metadata", "--no-deps", "--offline", "--format-version=1"]);
    let out = cargo.output().expect("cargo metadata runs");
    let json = String::from_utf8_lossy(&out.stdout);
    let values = |key: &str| -> Vec<String> {
        let after = format!("\"{key}\":\"");
        (json.split(&after).skip(1))
            .filter_map(|v| v.split('"').next())
            .map(String::from)
            .collect()
    };
    let mut members = values("manifest_path");
    // The metadata must list every member and nothing else: the root,
    // each crate under `crates/` and each vendored stand-in (a path
    // dependency inside the workspace is a member). The root is the one
    // the same call reports, so a test binary built in another checkout
    // compares like with like.
    let root = values("workspace_root")
        .pop()
        .expect("metadata names the root");
    let mut expected: Vec<String> = ["crates", "vendor"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(format!("{root}/{dir}")).expect("directory lists"))
        .map(|e| e.expect("entry reads").path().join("Cargo.toml"))
        .filter(|manifest| manifest.exists())
        .map(|manifest| manifest.display().to_string())
        .chain([format!("{root}/Cargo.toml")])
        .collect();
    members.sort();
    expected.sort();
    assert_eq!(members, expected, "{json}");
    for manifest in &members {
        let toml = std::fs::read_to_string(manifest).expect("member manifest reads");
        let inherits = toml.contains("\n[lints]\nworkspace = true\n");
        assert!(inherits, "{manifest} lacks `[lints] workspace = true`");
    }
}

/// The block transport layer is protocol-neutral: `storm-block` depends on
/// no wire protocol, and the nvmeq transport and the services, which speak
/// its block vocabulary, do not depend on iSCSI (DESIGN.md §2).
#[test]
fn protocol_neutral_crates_list_no_protocol_crate() {
    let rules: [(&str, &[&str]); 3] = [
        ("block", &["storm-iscsi", "storm-nvmeq"]),
        ("nvmeq", &["storm-iscsi"]),
        ("services", &["storm-iscsi"]),
    ];
    for (member, banned) in rules {
        let manifest = format!("{}/crates/{member}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
        let toml = std::fs::read_to_string(&manifest).expect("member manifest reads");
        let keys: Vec<&str> = toml
            .lines()
            .filter_map(|l| l.split(['.', ' ', '=']).next())
            .collect();
        for dep in banned {
            assert!(!keys.contains(dep), "{manifest} lists {dep}");
        }
    }
}
