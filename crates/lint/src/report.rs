//! Finding output: machine-readable JSONL and the human report.
//!
//! The JSONL follows the workspace's `sim::json` conventions (compact,
//! insertion-ordered keys, integers printed as integers) without
//! depending on `pim-sim` — the linter must stay buildable when the
//! rest of the tree is not. One finding per line:
//!
//! ```json
//! {"rule":"float-determinism","file":"crates/core/src/ops.rs","line":12,"crate":"core","msg":"…","waived":false,"reason":null}
//! ```

use crate::rules::Finding;

/// JSON-escape a string (the subset `sim::json::write_str` emits).
fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render findings as JSONL, sorted by (file, line, rule) so reruns are
/// byte-identical.
pub fn jsonl(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let mut out = String::new();
    for f in sorted {
        out.push_str("{\"rule\":");
        esc(f.rule, &mut out);
        out.push_str(",\"file\":");
        esc(&f.path, &mut out);
        out.push_str(&format!(",\"line\":{},\"crate\":", f.line));
        esc(&f.krate, &mut out);
        out.push_str(",\"msg\":");
        esc(&f.msg, &mut out);
        out.push_str(&format!(",\"waived\":{},\"reason\":", f.waived.is_some()));
        match &f.waived {
            Some(r) => esc(r, &mut out),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Render the human report: findings grouped by rule, then the summary.
pub fn human(findings: &[Finding], notices: &[String], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    for rule in rules {
        let mut of_rule: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
        of_rule.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        let active = of_rule.iter().filter(|f| f.waived.is_none()).count();
        out.push_str(&format!(
            "[{rule}] {active} finding{} ({} waived)\n",
            if active == 1 { "" } else { "s" },
            of_rule.len() - active
        ));
        for f in of_rule {
            match &f.waived {
                Some(reason) => out.push_str(&format!(
                    "  waived {}:{} — {} (reason: {reason})\n",
                    f.path, f.line, f.msg
                )),
                None => out.push_str(&format!("  {}:{} — {}\n", f.path, f.line, f.msg)),
            }
        }
    }
    for n in notices {
        out.push_str(&format!("note: {n}\n"));
    }
    let active = findings.iter().filter(|f| f.waived.is_none()).count();
    let waived = findings.len() - active;
    out.push_str(&format!(
        "pimtrie-lint: {active} finding{} ({waived} waived) across {files_scanned} files\n",
        if active == 1 { "" } else { "s" },
    ));
    out
}
