//! End-to-end check of the lint binary over the seeded fixture trees.
//!
//! `tests/fixture/bad` plants exactly one violation of each rule (plus
//! a waived one, a reason-less waiver, and both ratchet regressions);
//! `tests/fixture/clean` carries the same constructs correctly audited.
//! The walker skips any directory named `fixture`, so these seeded
//! violations are invisible to the real workspace scan.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixture")
        .join(which)
}

fn run_lint(root: &Path, json_to: Option<&Path>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pimtrie-lint"));
    cmd.arg("--root")
        .arg(root)
        .arg("--ratchet")
        .arg(root.join("ratchet.json"));
    if let Some(p) = json_to {
        cmd.arg("--json").arg(p);
    }
    let out = cmd.output().expect("spawn pimtrie-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn bad_tree_reports_the_exact_seeded_findings() {
    let json_path =
        std::env::temp_dir().join(format!("pimtrie-lint-fixture-{}.jsonl", std::process::id()));
    let (code, human) = run_lint(&fixture("bad"), Some(&json_path));
    assert_eq!(code, 1, "seeded violations must fail the run:\n{human}");

    let jsonl = std::fs::read_to_string(&json_path).expect("read JSONL artifact");
    let _ = std::fs::remove_file(&json_path);
    let lines: Vec<&str> = jsonl.lines().collect();

    // (rule, file, line, waived) for every expected finding, in the
    // sorted (file, line, rule) order the JSONL guarantees.
    let expected: &[(&str, &str, u32, bool)] = &[
        ("wire-spec-drift", "WIRE_FORMAT.md", 11, false),
        ("wire-spec-drift", "WIRE_FORMAT.md", 12, false),
        ("doc-drift", "crates/bench/src/bin/repro.rs", 1, false),
        ("float-determinism", "crates/core/src/hot.rs", 2, false),
        ("float-determinism", "crates/core/src/lib.rs", 2, true),
        ("float-determinism", "crates/core/src/lib.rs", 4, false),
        ("metering-honesty", "crates/core/src/sneak.rs", 3, false),
        ("dead-waiver", "crates/core/src/stale.rs", 1, false),
        ("panic-ratchet", "ratchet.json", 0, false),
        ("waiver-ratchet", "ratchet.json", 0, false),
    ];
    assert_eq!(
        lines.len(),
        expected.len(),
        "finding count mismatch:\n{jsonl}"
    );
    for (line, (rule, file, lno, waived)) in lines.iter().zip(expected) {
        let prefix = format!("{{\"rule\":\"{rule}\",\"file\":\"{file}\",\"line\":{lno},");
        assert!(line.starts_with(&prefix), "expected {prefix}… got {line}");
        assert!(
            line.contains(&format!("\"waived\":{waived}")),
            "waived flag wrong in {line}"
        );
    }

    // the spec's vanished identifiers are named: one gone from the
    // codec, one gone from the message schema
    assert!(
        lines[0].contains("`put_warp_drive`") && lines[1].contains("`DroppedPayloadMsg`"),
        "wire-spec-drift must name the identifier: {} / {}",
        lines[0],
        lines[1]
    );
    // the undocumented experiment is named
    assert!(
        lines[2].contains("`ghost`"),
        "doc-drift must name the experiment: {}",
        lines[2]
    );
    // the waived finding carries its written reason
    assert!(
        lines[4].contains("\"reason\":\"rendered for humans only, never compared\""),
        "waiver reason missing: {}",
        lines[4]
    );
    // the reason-less waiver is called out, not honoured
    assert!(
        lines[5].contains("missing a reason"),
        "reason-less waiver not flagged: {}",
        lines[5]
    );
    // the private-copy metering dodge is diagnosed as such
    assert!(
        lines[6].contains("privately constructed stat struct"),
        "metering-honesty verdict wrong: {}",
        lines[6]
    );
    // both ratchet regressions name the crate and both counts
    assert!(
        lines[8].contains("\"crate\":\"core\"") && lines[8].contains("2 unwrap"),
        "panic-ratchet message wrong: {}",
        lines[8]
    );
    assert!(
        lines[9].contains("3 lint waiver sites") && lines[9].contains("budget of 2"),
        "waiver-ratchet message wrong: {}",
        lines[9]
    );
}

#[test]
fn clean_tree_exits_zero() {
    let (code, human) = run_lint(&fixture("clean"), None);
    assert_eq!(code, 0, "clean tree must pass:\n{human}");
    // the waived finding is still *reported*
    assert!(
        human.contains("waived"),
        "waived findings must stay visible:\n{human}"
    );
}

#[test]
fn usage_and_io_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_pimtrie-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(env!("CARGO_BIN_EXE_pimtrie-lint"))
        .arg("--root")
        .arg("/definitely/not/a/dir")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
