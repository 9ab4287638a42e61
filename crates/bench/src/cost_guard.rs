//! The deterministic cost-regression gate.
//!
//! The simulator's counters are exact functions of (seed, P, workload),
//! so instead of wall-clock benchmarking with noise bands, CI checks a
//! checked-in `BENCH_repro.json` baseline against a fresh run and fails
//! on *unexplained* drift:
//!
//! * round counts and fault counters must match **exactly** — a changed
//!   round count is an algorithmic change and must be re-baselined
//!   deliberately;
//! * word / time / space / balance columns get a small relative
//!   tolerance band ([`DEFAULT_TOLERANCE`]) so hash-seed-adjacent noise
//!   from intentional constant tweaks doesn't demand a re-baseline;
//! * structural drift (missing experiments, rows, or columns, or a
//!   schema-version mismatch) always fails.
//!
//! The `cost-guard` binary wraps [`compare`] for CI; regenerate the
//! baseline with `repro --quick --p 8 --json <path>` after a deliberate
//! cost change.

use pim_sim::Json;

/// Relative tolerance band for non-exact (word/time/space/balance)
/// columns: `|cur - base| <= tol·|base| + 1e-9`.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// True for columns compared exactly: BSP round counts, fault/retry
/// counters, exactness counters, sweep parameters, and every `serve`
/// column (the serving schedule is a pure function of seed/P/config, so
/// its counts and latency percentiles are gated at tolerance 0).
/// Everything else (words, times, space, balance ratios) gets the
/// tolerance band.
pub fn is_exact_col(name: &str) -> bool {
    matches!(
        name,
        "io_rounds"
            | "xtra_rounds"
            | "maint_rounds"
            | "assemble_rounds"
            | "probe_rounds"
            | "block_rounds"
            | "read_rounds"
            | "keys"
            | "result_keys"
            | "injected"
            | "detected"
            | "retries"
            | "rebuilds"
            | "redo_paths"
            | "wrong"
            | "l"
            | "P"
            | "batch"
            | "width"
            | "flip_rate"
            | "clients"
            | "submitted"
            | "admitted"
            | "rejected"
            | "expired"
            | "completed"
            | "failed"
            | "epochs"
            | "lcp_p50"
            | "lcp_p99"
            | "get_p50"
            | "get_p99"
            | "insert_p50"
            | "insert_p99"
            | "delete_p50"
            | "delete_p99"
    )
}

fn num_field(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(|v| v.as_num())
}

/// Compare a current `BENCH_repro.json` summary against the baseline.
/// Returns a list of human-readable violations — empty means the gate
/// passes. `tolerance` is the relative band for non-exact columns.
pub fn compare(baseline: &Json, current: &Json, tolerance: f64) -> Vec<String> {
    let mut v = Vec::new();
    for key in ["schema_version", "p"] {
        let (b, c) = (num_field(baseline, key), num_field(current, key));
        if b != c {
            v.push(format!("{key} mismatch: baseline {b:?}, current {c:?}"));
        }
    }
    if baseline.get("quick") != current.get("quick") {
        v.push("quick-mode mismatch between baseline and current run".into());
    }
    if !v.is_empty() {
        // run parameters differ — per-column diffs would be noise
        return v;
    }

    let empty: [Json; 0] = [];
    let b_exps = baseline
        .get("experiments")
        .and_then(|e| e.as_arr())
        .unwrap_or(&empty);
    let c_exps = current
        .get("experiments")
        .and_then(|e| e.as_arr())
        .unwrap_or(&empty);
    let name_of = |e: &Json| {
        e.get("experiment")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let b_names: Vec<String> = b_exps.iter().map(name_of).collect();
    let c_names: Vec<String> = c_exps.iter().map(name_of).collect();
    for n in &b_names {
        if !c_names.contains(n) {
            v.push(format!("experiment '{n}' missing from current run"));
        }
    }
    for n in &c_names {
        if !b_names.contains(n) {
            v.push(format!("experiment '{n}' not in baseline (re-baseline?)"));
        }
    }

    for b_exp in b_exps {
        let name = name_of(b_exp);
        let Some(c_exp) = c_exps.iter().find(|e| name_of(e) == name) else {
            continue; // already reported above
        };
        let b_rows = b_exp.get("rows").and_then(|r| r.as_arr()).unwrap_or(&empty);
        let c_rows = c_exp.get("rows").and_then(|r| r.as_arr()).unwrap_or(&empty);
        if b_rows.len() != c_rows.len() {
            v.push(format!(
                "{name}: row count changed {} -> {}",
                b_rows.len(),
                c_rows.len()
            ));
            continue;
        }
        for (i, (br, cr)) in b_rows.iter().zip(c_rows).enumerate() {
            let b_label = br.get("label").and_then(|l| l.as_str()).unwrap_or("?");
            let c_label = cr.get("label").and_then(|l| l.as_str()).unwrap_or("?");
            if b_label != c_label {
                v.push(format!(
                    "{name}[{i}]: label changed '{b_label}' -> '{c_label}'"
                ));
                continue;
            }
            let (Some(Json::Obj(b_cols)), Some(Json::Obj(c_cols))) =
                (br.get("cols"), cr.get("cols"))
            else {
                v.push(format!("{name}/{b_label}: malformed cols object"));
                continue;
            };
            for (col, bv) in b_cols {
                let Some(bx) = bv.as_num() else { continue };
                let Some(cx) = c_cols
                    .iter()
                    .find(|(n, _)| n == col)
                    .and_then(|(_, x)| x.as_num())
                else {
                    v.push(format!("{name}/{b_label}: column '{col}' disappeared"));
                    continue;
                };
                if is_exact_col(col) {
                    if bx != cx {
                        v.push(format!(
                            "{name}/{b_label}: {col} changed exactly-gated value {bx} -> {cx}"
                        ));
                    }
                } else {
                    let band = tolerance * bx.abs() + 1e-9;
                    if (cx - bx).abs() > band {
                        v.push(format!(
                            "{name}/{b_label}: {col} drifted {bx} -> {cx} \
                             (>{:.1}% band)",
                            tolerance * 100.0
                        ));
                    }
                }
            }
            for (col, _) in c_cols {
                if !b_cols.iter().any(|(n, _)| n == col) {
                    v.push(format!(
                        "{name}/{b_label}: new column '{col}' not in baseline (re-baseline?)"
                    ));
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;
    use crate::Row;

    fn mini_summary(rounds: f64, words: f64) -> Json {
        let row = Row {
            label: "pim-trie/uniform".into(),
            cols: vec![("io_rounds", rounds), ("words/op", words)],
        };
        export::summary(8, true, vec![export::record("skew", &[row])])
    }

    #[test]
    fn identical_summaries_pass() {
        let a = mini_summary(12.0, 96.5);
        assert!(compare(&a, &a, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn round_change_fails_exactly() {
        let a = mini_summary(12.0, 96.5);
        let b = mini_summary(13.0, 96.5);
        let v = compare(&a, &b, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("io_rounds"), "{v:?}");
    }

    #[test]
    fn words_within_band_pass_outside_fail() {
        let a = mini_summary(12.0, 100.0);
        assert!(compare(&a, &mini_summary(12.0, 101.5), DEFAULT_TOLERANCE).is_empty());
        let v = compare(&a, &mini_summary(12.0, 103.0), DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("words/op"), "{v:?}");
    }

    #[test]
    fn structural_drift_fails() {
        let a = mini_summary(12.0, 100.0);
        let b = export::summary(8, true, vec![]);
        assert!(!compare(&a, &b, DEFAULT_TOLERANCE).is_empty());
        // parameter mismatch short-circuits
        let c = export::summary(16, true, vec![]);
        let v = compare(&a, &c, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains('p'), "{v:?}");
    }
}
