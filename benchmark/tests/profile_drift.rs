//! The benchmark must measure the binary users build: its release profile
//! is a copy of the root workspace's, and this test fails when they drift.

use std::path::Path;

/// The `key = value` lines of the `[profile.release]` table of a manifest,
/// sorted; comments and blank lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_is_the_root_workspaces() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    let root = release_profile(&here.join("../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest"
    );
}
