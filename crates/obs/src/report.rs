//! Shared deterministic renderers: aligned tables and the folded-stack
//! (flamegraph-compatible) exporter.
//!
//! `pimtrie-report` and the timeline/critical renderers all use the
//! same layout rule — first column left-aligned, every other column
//! right-aligned, each column exactly as wide as its widest cell — so
//! side-by-side sections line up and every byte is a pure function of
//! the cell contents.

use crate::critical::PhaseCost;

/// Render one aligned table. `headers.len()` fixes the column count;
/// rows must match. First column left-aligned, rest right-aligned.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        assert!(row.len() == cols, "row width {} != {cols}", row.len());
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<w$}", w = width[0]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = width[i]));
            }
        }
        out.push('\n');
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    render_row(&mut out, &hdr);
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Folded-stack export of phase barrier time: one line per non-zero
/// phase, `root;op;phase time`, in the phase list's order. The format
/// is what `flamegraph.pl` / speedscope ingest; `root` labels the run
/// (e.g. `skew/range-part-zipf0.99`).
pub fn folded(root: &str, phases: &[PhaseCost]) -> String {
    let mut out = String::new();
    for p in phases {
        if p.time == 0 {
            continue;
        }
        out.push_str(&format!("{root};{};{} {}\n", p.op, p.phase, p.time));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_pads() {
        let t = table(
            &["name", "n"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == lines[1].len()));
        assert_eq!(lines[2], "longer  12345");
        assert_eq!(lines[1], "a           1");
    }

    #[test]
    fn folded_skips_zero_and_prefixes_root() {
        let mk = |op: &str, phase: &str, time: u64| PhaseCost {
            op: op.into(),
            phase: phase.into(),
            rounds: 1,
            io_time: time,
            pim_time: 0,
            time,
            balance: 1.0,
            worst_module: 0,
            barrier_rounds: 1,
            straggler_delay: 0,
        };
        let f = folded("skew/x", &[mk("get", "get/read", 7), mk("get", "host", 0)]);
        assert_eq!(f, "skew/x;get;get/read 7\n");
    }
}
