//! Workspace traversal: which `.rs` files are scanned, and the crate
//! name + file class each one gets.
//!
//! The layout is path-derived, not manifest-derived, so the linter
//! works on fixture trees (and on a broken workspace) without parsing
//! any `Cargo.toml`:
//!
//! * `crates/<name>/src/**` and `vendor/<name>/src/**` — library code,
//!   all rules apply;
//! * `…/tests/**`, `…/benches/**`, `…/examples/**` — auxiliary code,
//!   only `safety-comment` applies;
//! * root `src/**`, `tests/**`, `examples/**` — the facade crate,
//!   reported under the name `repro`;
//! * `target/`, `.git/`, and any directory named `fixture` are skipped
//!   (the linter's own test fixtures contain *seeded violations*).

use crate::rules::{FileClass, FileCtx};
use std::path::{Path, PathBuf};

/// Crates whose library code must stay free of unordered iteration:
/// they feed the metered paths whose counters the paper's Table 1
/// bounds are checked against.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["baselines", "codec", "core", "obs", "serve", "sim", "trie"];

/// Crates allowed to read the wall clock (they *measure* time).
pub const TIMING_CRATES: &[&str] = &["bench"];

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
/// files outside the recognised layout (stray scripts, `build.rs` at
/// the workspace root, editor droppings).
pub fn classify(rel: &Path) -> Option<FileCtx> {
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    let (krate, class) = match parts.as_slice() {
        ["crates" | "vendor", krate, sub, ..] => (*krate, class_of(sub)?),
        [sub @ ("src" | "tests" | "examples" | "benches"), ..] => ("repro", class_of(sub)?),
        _ => return None,
    };
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    Some(FileCtx {
        path: parts.join("/"),
        krate: krate.to_string(),
        class,
        deterministic,
        owns_timing: TIMING_CRATES.contains(&krate),
        // `workloads` generators feed the metered runs, so their float
        // use is checked even though the crate is not on the metered
        // unordered-iter list
        float_checked: deterministic || krate == "workloads",
    })
}

fn class_of(sub: &str) -> Option<FileClass> {
    match sub {
        "src" => Some(FileClass::Src),
        "tests" | "benches" | "examples" => Some(FileClass::Aux),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let c = classify(Path::new("crates/core/src/ops.rs")).unwrap();
        assert_eq!(c.krate, "core");
        assert_eq!(c.class, FileClass::Src);
        assert!(c.deterministic);
        assert!(!c.owns_timing);

        let c = classify(Path::new("vendor/rayon/src/pool.rs")).unwrap();
        assert_eq!(c.krate, "rayon");
        assert!(!c.deterministic);

        let c = classify(Path::new("crates/bench/benches/skew.rs")).unwrap();
        assert_eq!(c.class, FileClass::Aux);
        assert!(c.owns_timing);

        let c = classify(Path::new("src/lib.rs")).unwrap();
        assert_eq!(c.krate, "repro");

        assert!(classify(Path::new("build.rs")).is_none());
        assert!(classify(Path::new("crates/core/Cargo.toml")).is_none());
    }
}
