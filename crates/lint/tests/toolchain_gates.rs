//! The determinism rules this crate no longer checks are the toolchain's
//! job: rustc and clippy enforce them through the root manifest's
//! `[workspace.lints]` and the lists in `clippy.toml`. These tests pin
//! that configuration, so deleting a list entry or a lint level is a
//! failing test rather than a silently weaker gate.

use std::path::Path;

fn repo_file(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn workspace_lints_forbid_unsafe_and_deny_the_clippy_lists() {
    let manifest = repo_file("Cargo.toml");
    for line in [
        "[workspace.lints.rust]",
        "unsafe_code = \"forbid\"",
        "[workspace.lints.clippy]",
        "disallowed_types = \"deny\"",
        "disallowed_methods = \"deny\"",
    ] {
        assert!(manifest.contains(line), "root Cargo.toml lost `{line}`");
    }
}

#[test]
fn clippy_toml_lists_every_determinism_breaker_with_a_reason() {
    let conf = repo_file("clippy.toml");
    let atomics = [
        "AtomicBool",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
    ]
    .map(|a| format!("std::sync::atomic::{a}"));
    let listed = [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::OnceLock",
        "std::sync::LazyLock",
        "std::cell::Cell",
        "std::cell::RefCell",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ]
    .map(String::from);
    for path in listed.iter().chain(&atomics) {
        let entry = conf
            .lines()
            .find(|l| l.contains(&format!("path = \"{path}\"")))
            .unwrap_or_else(|| panic!("clippy.toml does not list `{path}`"));
        assert!(entry.contains("reason = \""), "`{path}` has no reason");
    }
}

#[test]
fn every_crate_but_the_pool_inherits_the_workspace_lints() {
    let manifest = repo_file("Cargo.toml");
    assert!(
        manifest.contains("[lints]\nworkspace = true"),
        "facade crate"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("list crates") {
            let krate = entry.expect("dir entry").path();
            let Ok(text) = std::fs::read_to_string(krate.join("Cargo.toml")) else {
                continue;
            };
            let name = krate.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "rayon" {
                assert!(
                    text.contains("undocumented_unsafe_blocks = \"deny\""),
                    "the pool must deny undocumented unsafe blocks"
                );
            } else {
                assert!(
                    text.contains("[lints]\nworkspace = true"),
                    "{dir}/{name} does not inherit the workspace lints"
                );
            }
        }
    }
}
