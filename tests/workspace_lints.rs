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
    let members: Vec<&str> = json.split("\"manifest_path\":\"").skip(1).collect();
    assert!(members.len() > 15, "{json}");
    for manifest in members.iter().filter_map(|m| m.split('"').next()) {
        let toml = std::fs::read_to_string(manifest).expect("member manifest reads");
        let inherits = toml.contains("\n[lints]\nworkspace = true\n");
        assert!(inherits, "{manifest} lacks `[lints] workspace = true`");
    }
}
