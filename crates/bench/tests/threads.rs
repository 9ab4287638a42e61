//! Thread-count determinism, end to end: the full `repro --quick`
//! harness — stdout, the `--json` summary, and a `cost-guard`
//! comparison — must be byte-identical at 1, 2, and 8 worker threads.
//!
//! This is the PR-gating proof that the parallel engine cannot perturb
//! the metering: `repro` touches every experiment (and thus every batch
//! op, the fault layer, and the metric reduction), so any
//! schedule-dependent counter anywhere in the stack shows up as a byte
//! diff here.

use std::process::Command;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pimtrie_threads_{}_{name}", std::process::id()))
}

/// Run the full quick harness at `threads`, returning (stdout, json).
/// The JSON path is the same for every thread count — it is echoed on
/// stdout, and stdout must be byte-identical across runs.
fn repro_at(threads: usize) -> (String, String) {
    let json = tmp("summary.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--p", "8", "--threads", &threads.to_string()])
        .arg("--json")
        .arg(&json)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = std::fs::read_to_string(&json).expect("json summary written");
    std::fs::remove_file(&json).ok();
    (
        String::from_utf8(out.stdout).expect("stdout is utf-8"),
        summary,
    )
}

#[test]
#[ignore = "runs the full quick repro three times (~2 min in debug); CI's thread matrix runs it with --include-ignored"]
fn full_repro_output_is_byte_identical_at_1_2_and_8_threads() {
    let (out1, json1) = repro_at(1);
    let (out2, json2) = repro_at(2);
    let (out8, json8) = repro_at(8);

    assert_eq!(out1, out2, "stdout differs between 1 and 2 threads");
    assert_eq!(out1, out8, "stdout differs between 1 and 8 threads");
    assert_eq!(json1, json2, "JSON summary differs between 1 and 2 threads");
    assert_eq!(json1, json8, "JSON summary differs between 1 and 8 threads");

    // cost-guard agrees at zero tolerance: the multi-threaded run is a
    // valid "current" against the single-threaded run as "baseline".
    let base = tmp("base.json");
    let cur = tmp("cur.json");
    std::fs::write(&base, &json1).unwrap();
    std::fs::write(&cur, &json8).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_cost-guard"))
        .arg("--baseline")
        .arg(&base)
        .arg("--current")
        .arg(&cur)
        .args(["--tolerance", "0"])
        .status()
        .unwrap();
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&cur).ok();
    assert!(
        status.success(),
        "cost-guard rejects an 8-thread run against a 1-thread baseline"
    );
}
