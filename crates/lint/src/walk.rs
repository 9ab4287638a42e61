//! Workspace traversal: which `.rs` files are scanned, and the crate
//! name each one gets.
//!
//! The layout is path-derived, not manifest-derived, so the linter
//! works on fixture trees (and on a broken workspace) without parsing
//! any `Cargo.toml`:
//!
//! * `crates/<name>/src/**` and `vendor/<name>/src/**` — library code;
//! * root `src/**` — the facade crate, reported under the name `repro`;
//! * nothing else: tests, benches and examples never run in metered
//!   paths and carry no panic budget, so no rule applies to them;
//! * `target/`, `.git/`, and any directory named `fixture` are skipped
//!   (the linter's own test fixtures contain *seeded violations*).

use crate::rules::FileCtx;
use std::path::{Path, PathBuf};

/// Crates whose library code feeds the metered paths whose counters the
/// paper's Table 1 bounds are checked against.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["baselines", "codec", "core", "obs", "serve", "sim", "trie"];

/// One file to scan.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Absolute (or root-joined) path on disk.
    pub abs: PathBuf,
    /// Rule context derived from the relative path.
    pub ctx: FileCtx,
}

/// Collect every `.rs` file under `root` in sorted order, classified.
pub fn collect(root: &Path) -> std::io::Result<Vec<WorkItem>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | ".git" | "fixture") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for abs in files {
        let rel = abs.strip_prefix(root).unwrap_or(&abs);
        if let Some(ctx) = classify(rel) {
            out.push(WorkItem { abs, ctx });
        }
    }
    Ok(out)
}

/// Derive the rule context from a workspace-relative path; `None` for
/// files outside library sources (tests, examples, stray scripts,
/// `build.rs` at the workspace root, editor droppings).
pub fn classify(rel: &Path) -> Option<FileCtx> {
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    let krate = match parts.as_slice() {
        ["crates" | "vendor", krate, "src", ..] => *krate,
        ["src", ..] => "repro",
        _ => return None,
    };
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    Some(FileCtx {
        path: parts.join("/"),
        krate: krate.to_string(),
        deterministic,
        // `workloads` generators feed the metered runs, so their float
        // use is checked even though the crate is not on the metered
        // list
        float_checked: deterministic || krate == "workloads",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = classify(Path::new("crates/core/src/ops.rs")).unwrap();
        assert_eq!(c.krate, "core");
        assert!(c.deterministic && c.float_checked);

        let c = classify(Path::new("vendor/rayon/src/pool.rs")).unwrap();
        assert_eq!(c.krate, "rayon");
        assert!(!c.deterministic);

        let c = classify(Path::new("crates/workloads/src/lib.rs")).unwrap();
        assert!(!c.deterministic && c.float_checked);

        let c = classify(Path::new("src/lib.rs")).unwrap();
        assert_eq!(c.krate, "repro");

        // tests, benches and examples carry no rule
        assert!(classify(Path::new("crates/bench/benches/skew.rs")).is_none());
        assert!(classify(Path::new("crates/core/tests/e2e.rs")).is_none());
        assert!(classify(Path::new("examples/quickstart.rs")).is_none());
        assert!(classify(Path::new("build.rs")).is_none());
        assert!(classify(Path::new("crates/core/Cargo.toml")).is_none());
    }
}
