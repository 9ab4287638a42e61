//! Acceptance gate for `pimtrie-report` / `repro --obs-report`:
//!
//! * the report (stdout and folded stacks) is byte-identical across
//!   runs and thread counts;
//! * it names the top critical-path phase and the worst-balance module
//!   for every traced experiment;
//! * the balance alarm fires on the skewed range-part run and the
//!   shed-rate alarm on the overloaded serving run, while both stay
//!   silent on the uniform batch and the steady scenario.

use std::process::Command;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pimtrie_obs_{}_{name}", std::process::id()))
}

/// Run `pimtrie-report` at `threads`, returning (report, folded stacks).
fn report_at(threads: usize) -> (String, String) {
    let folded = tmp(&format!("t{threads}.folded"));
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--quick", "--p", "8", "--threads", &threads.to_string()])
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("report runs");
    assert!(
        out.status.success(),
        "report --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stacks = std::fs::read_to_string(&folded).expect("folded stacks written");
    std::fs::remove_file(&folded).ok();
    (
        String::from_utf8(out.stdout).expect("report is utf-8"),
        stacks,
    )
}

/// The report section for one `-- label --` block.
fn section<'a>(report: &'a str, label: &str) -> &'a str {
    let start = report
        .find(&format!("-- {label} --"))
        .unwrap_or_else(|| panic!("report has no section '{label}'"));
    let rest = &report[start + label.len() + 6..];
    match rest.find("\n-- ") {
        Some(end) => &rest[..end],
        None => rest,
    }
}

#[test]
fn report_is_byte_identical_across_thread_counts_and_diagnoses_skew() {
    let (rep1, folded1) = report_at(1);
    let (rep4, folded4) = report_at(4);
    assert_eq!(rep1, rep4, "report differs between 1 and 4 threads");
    assert_eq!(folded1, folded4, "folded stacks differ across threads");

    // every traced run gets a named top phase and worst-balance module
    for label in [
        "pim-trie/uniform",
        "range-part/uniform",
        "pim-trie/zipf0.99",
        "range-part/zipf0.99",
        "pim-trie/same-path",
        "range-part/same-path",
    ] {
        let s = section(&rep1, label);
        assert!(s.contains("top phase: lcp:"), "{label}: no top phase");
        assert!(
            s.contains("worst balance:") && s.contains("(module m"),
            "{label}: no worst-balance module"
        );
    }

    // alarm contrast: skew trips io-balance on the range-part baseline,
    // benign runs stay quiet (the paper's skew-resistance story)
    assert!(
        section(&rep1, "range-part/same-path").contains("io-balance"),
        "balance alarm silent on the skewed range-part run"
    );
    for label in ["pim-trie/uniform", "range-part/uniform"] {
        assert!(
            section(&rep1, label).contains("(no alarms fired)"),
            "{label}: alarm fired on a benign run"
        );
    }
    assert!(
        section(&rep1, "pim-trie/uniform").contains("resident top:"),
        "no resident-set line"
    );

    // serving contrast: overload sheds and alarms, steady stays quiet
    assert!(
        section(&rep1, "overload").contains("shed-rate"),
        "shed-rate alarm silent under overload"
    );
    assert!(
        section(&rep1, "steady").contains("(no alarms fired)"),
        "alarm fired on the steady scenario"
    );

    // folded stacks cover both structures and carry the op;phase chain
    assert!(folded1.contains("pim-trie/zipf0.99;lcp;"));
    assert!(folded1.contains("range-part/same-path;"));
}

#[test]
fn repro_obs_report_is_byte_identical_and_recorded_in_json() {
    // one JSON path for every thread count: it is echoed on stdout,
    // and stdout must be byte-identical across runs
    let json_path = tmp("repro.json");
    let run = |threads: usize| -> (String, String) {
        let json = json_path.clone();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "--quick",
                "--p",
                "8",
                "--threads",
                &threads.to_string(),
                "--obs-report",
                "skew",
            ])
            .arg("--json")
            .arg(&json)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro --obs-report failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = std::fs::read_to_string(&json).expect("json written");
        std::fs::remove_file(&json).ok();
        (
            String::from_utf8(out.stdout).expect("stdout is utf-8"),
            summary,
        )
    };
    let (out1, json1) = run(1);
    let (out4, json4) = run(4);
    assert_eq!(out1, out4, "repro --obs-report differs across threads");
    assert_eq!(json1, json4, "JSON summary differs across threads");
    assert!(json1.contains("\"experiment\":\"obs-skew\""));
    assert!(json1.contains("\"experiment\":\"obs-serve\""));
    assert!(json1.contains("\"alarms\""));
}
