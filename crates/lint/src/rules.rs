//! The invariant rules, applied to one lexed file at a time.
//!
//! | rule             | invariant it protects                                      |
//! |------------------|------------------------------------------------------------|
//! | `panic-ratchet`  | `unwrap`/`expect`/`panic!` per library crate may only decrease (see [`crate::ratchet`]) |
//! | `float-determinism` | no `f32`/`f64` types or float literals in the determinism-checked crates — platform- and flag-sensitive float rounding breaks cross-arch byte-identity of the metered counters; decision math belongs in integers |
//!
//! Rules the compiler can state live in the toolchain instead: the
//! workspace's `[workspace.lints]` forbid `unsafe` code and deny the
//! `clippy.toml` lists of disallowed types (hash-ordered collections,
//! interior mutability, atomics) and methods (wall-clock reads), the
//! tracer's `&'static str` signatures keep metric names closed, and
//! `pim_sim::in_op` closes every op span it opens. See DESIGN.md
//! "Static analysis & invariants".
//!
//! Further rules need cross-file facts and live in [`crate::analysis`]:
//! `metering-honesty`, `dead-waiver`, `doc-drift`, `wire-spec-drift`.
//!
//! A finding can be **waived** in place with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory and the
//! waiver must sit on the offending line or the line directly above it.
//! A whole file can be waived for one rule with
//! `// lint: allow-file(<rule>) — <reason>` (reporting-heavy files such
//! as the JSON exporters carry one instead of fifty line waivers).
//! Waived findings are still reported (and land in the JSONL export with
//! `"waived":true`) but do not fail the run; a waiver that suppresses
//! *nothing* is itself a `dead-waiver` finding. `panic-ratchet` has no
//! waiver syntax — its budget is the committed baseline file.

use crate::lexer::{lex, Lexed, Tok};
use crate::parser::{self, Parsed};
use std::collections::{BTreeMap, BTreeSet};

/// Per-file context the rules need.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (stable across hosts).
    pub path: String,
    /// Crate short name (directory under `crates/` or `vendor/`).
    pub krate: String,
    /// Whether the crate is on the deterministic-metering list.
    pub deterministic: bool,
    /// Whether the crate is checked for float determinism (the
    /// deterministic list plus `workloads`, whose generators feed the
    /// metered runs).
    pub float_checked: bool,
}

/// One rule violation (possibly waived).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`float-determinism`, `metering-honesty`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Crate short name.
    pub krate: String,
    /// Human-readable description.
    pub msg: String,
    /// Set when an inline waiver with a written reason covers this
    /// finding; carries the reason.
    pub waived: Option<String>,
}

/// `unwrap`/`expect`/`panic!` occurrences found in one file (library
/// code outside `#[cfg(test)]` only).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PanicCount {
    /// Number of sites.
    pub count: u64,
}

/// One `lint: allow(…)` / `lint: allow-file(…)` comment found in a
/// file. The workspace phase flags sites that suppressed nothing
/// (`dead-waiver`) and tallies the per-crate waiver ratchet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaiverSite {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The rule it names.
    pub rule: String,
    /// True for the file-scope `allow-file` form.
    pub file_scope: bool,
}

/// Everything one file contributes to the run.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule findings, in source order.
    pub findings: Vec<Finding>,
    /// Panic-ratchet contribution.
    pub panics: PanicCount,
    /// Waiver comments present in the file.
    pub waiver_sites: Vec<WaiverSite>,
    /// Waiver sites that suppressed at least one finding, keyed by
    /// (line, rule).
    pub waivers_used: BTreeSet<(u32, String)>,
}

/// Lexed + parsed view of one file, shared by the per-file rules and
/// the workspace analysis phase.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Token stream, comments, code lines.
    pub lexed: Lexed,
    /// Structural items (fns, structs, scopes).
    pub parsed: Parsed,
    /// Per-token `#[cfg(test)]` verdict.
    pub in_test: Vec<bool>,
    /// Every waiver comment in the file.
    pub waiver_sites: Vec<WaiverSite>,
    /// File-scope waivers: rule → (line, reason).
    pub file_waivers: BTreeMap<String, (u32, String)>,
}

/// Lex and parse one file, collecting its waiver comments.
pub fn analyze(src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let in_test = test_region_mask(&lexed.toks);
    let parsed = parser::parse(&lexed.toks, &in_test);
    let (waiver_sites, file_waivers) = collect_waivers(&lexed);
    FileAnalysis {
        lexed,
        parsed,
        in_test,
        waiver_sites,
        file_waivers,
    }
}

/// Scan the comment map for `lint: allow(…)` / `lint: allow-file(…)`
/// sites; returns them plus the file-scope map (rule → line, reason).
fn collect_waivers(lexed: &Lexed) -> (Vec<WaiverSite>, BTreeMap<String, (u32, String)>) {
    let mut sites = Vec::new();
    let mut file_scope = BTreeMap::new();
    for (&line, text) in &lexed.comments {
        // doc comments *describe* the waiver syntax (this module does);
        // only plain comments can carry a live waiver
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| text.starts_with(d))
        {
            continue;
        }
        for (tag, is_file) in [("lint: allow-file(", true), ("lint: allow(", false)] {
            // the two tags cannot match at the same offset: `allow(`
            // requires `(` right after `allow`, `allow-file(` a `-`
            let mut rest = text.as_str();
            while let Some(at) = rest.find(tag) {
                let after = &rest[at + tag.len()..];
                if let Some(close) = after.find(')') {
                    let rule = after[..close].trim().to_string();
                    // a real rule name, not prose like `allow(<rule>)`
                    let plausible = rule
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                        && rule.starts_with(|c: char| c.is_ascii_lowercase());
                    if plausible {
                        if is_file {
                            let reason = after[close + 1..]
                                .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
                                .trim()
                                .to_string();
                            file_scope.entry(rule.clone()).or_insert((line, reason));
                        }
                        sites.push(WaiverSite {
                            line,
                            rule,
                            file_scope: is_file,
                        });
                    }
                    rest = &after[close + 1..];
                } else {
                    break;
                }
            }
        }
    }
    sites.sort_by_key(|s| (s.line, s.rule.clone(), s.file_scope));
    sites.dedup();
    (sites, file_scope)
}

const RULE_FLOAT: &str = "float-determinism";

/// Run every per-file rule over one file's source text. Convenience
/// wrapper around [`analyze`] + [`check`] for callers (and tests) that
/// do not need the workspace phase.
pub fn check_file(ctx: &FileCtx, src: &str) -> FileReport {
    check(ctx, &analyze(src))
}

/// Run every per-file rule over one analyzed file.
pub fn check(ctx: &FileCtx, fa: &FileAnalysis) -> FileReport {
    let mut rep = FileReport {
        waiver_sites: fa.waiver_sites.clone(),
        ..FileReport::default()
    };
    rule_panic_ratchet(&fa.lexed, &fa.in_test, &mut rep);
    rule_float_determinism(ctx, fa, &fa.in_test, &mut rep);
    rep
}

// ---------------------------------------------------------------------
// `#[cfg(test)] mod …` tracking
// ---------------------------------------------------------------------

/// For each token, whether it sits inside a `#[cfg(test)] mod … { … }`
/// region. Test-only code is exempt from the rules: it never runs in
/// metered paths.
pub fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut depth = 0usize;
    // brace depths at which a cfg(test) mod body opened
    let mut regions: Vec<usize> = Vec::new();
    let mut pending_attr = false; // saw #[cfg(test)]-style attribute
    let mut pending_mod = false; // … followed by `mod`, awaiting `{`

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_sym('#') && toks.get(i + 1).is_some_and(|t| t.is_sym('[')) {
            // scan the attribute for `cfg` … `test` up to the matching `]`
            let mut j = i + 2;
            let mut bracket = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < toks.len() && bracket > 0 {
                let a = &toks[j];
                if a.is_sym('[') {
                    bracket += 1;
                } else if a.is_sym(']') {
                    bracket -= 1;
                } else if a.is_ident("cfg") {
                    saw_cfg = true;
                } else if a.is_ident("test") {
                    saw_test = true;
                } else if a.is_ident("not") {
                    saw_not = true; // `#[cfg(not(test))]` is NOT test code
                }
                j += 1;
            }
            if saw_cfg && saw_test && !saw_not {
                pending_attr = true;
            }
            let inside = !regions.is_empty();
            for m in mask.iter_mut().take(j.min(toks.len())).skip(i) {
                *m = inside;
            }
            i = j;
            continue;
        }
        if pending_attr && t.is_ident("mod") {
            pending_mod = true;
            pending_attr = false;
        } else if pending_attr && (t.is_ident("fn") || t.is_sym(';')) {
            // `#[cfg(test)]` on a lone item (fn, use, …): treat the
            // next braced body as test code too, via the same path
            if t.is_ident("fn") {
                pending_mod = true;
            }
            pending_attr = false;
        }
        if pending_mod && t.is_sym(';') {
            pending_mod = false; // `mod tests;` — out-of-line module
        }
        if t.is_sym('{') {
            depth += 1;
            if pending_mod {
                regions.push(depth);
                pending_mod = false;
            }
        }
        mask[i] = !regions.is_empty();
        if t.is_sym('}') {
            if regions.last() == Some(&depth) {
                regions.pop();
            }
            depth = depth.saturating_sub(1);
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------

/// Look for `lint: allow(<rule>)` covering `line` (same line or the
/// line directly above, which must be comment-only). Returns the
/// waiver's own line plus the written reason — an empty reason means
/// the waiver is malformed (missing reason) and the caller reports
/// that in the finding.
fn waiver_for(lexed: &Lexed, line: u32, rule: &str) -> Option<(u32, String)> {
    let try_line = |l: u32| -> Option<(u32, String)> {
        let text = lexed.comments.get(&l)?;
        let tag = format!("lint: allow({rule})");
        let at = text.find(&tag)?;
        let rest = text[at + tag.len()..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        Some((l, rest.to_string()))
    };
    if let Some(r) = try_line(line) {
        return Some(r);
    }
    // Walk the contiguous comment-only block directly above, so a
    // waiver's reason may wrap across lines.
    let mut l = line;
    while l > 1 && lexed.is_comment_only(l - 1) {
        l -= 1;
        if let Some(r) = try_line(l) {
            return Some(r);
        }
    }
    None
}

/// Apply the waiver protocol: push the finding, marked waived when a
/// well-formed line waiver (or a file-scope `allow-file` waiver)
/// covers it; a reason-less waiver is itself called out in the
/// message. Used waivers are recorded so the workspace phase can flag
/// the dead ones.
pub(crate) fn push_with_waiver(rep: &mut FileReport, fa: &FileAnalysis, mut f: Finding) {
    match waiver_for(&fa.lexed, f.line, f.rule) {
        Some((wline, reason)) if !reason.is_empty() => {
            f.waived = Some(reason);
            rep.waivers_used.insert((wline, f.rule.to_string()));
        }
        Some((wline, _)) => {
            f.msg
                .push_str(" [waiver present but missing a reason — write `lint: allow(…) — why`]");
            // malformed, but it did target this finding: not dead
            rep.waivers_used.insert((wline, f.rule.to_string()));
        }
        None => {
            if let Some((wline, reason)) = fa.file_waivers.get(f.rule) {
                if !reason.is_empty() {
                    f.waived = Some(reason.clone());
                }
                rep.waivers_used.insert((*wline, f.rule.to_string()));
            }
        }
    }
    rep.findings.push(f);
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// `panic-ratchet`: count `.unwrap(`, `.expect(`, `panic!` sites. The
/// comparison against the committed per-crate budget happens in
/// [`crate::ratchet`] once all files are tallied.
fn rule_panic_ratchet(lexed: &Lexed, in_test: &[bool], rep: &mut FileReport) {
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let prev_dot = i > 0 && lexed.toks[i - 1].is_sym('.');
        let next_paren = lexed.toks.get(i + 1).is_some_and(|n| n.is_sym('('));
        let next_bang = lexed.toks.get(i + 1).is_some_and(|n| n.is_sym('!'));
        let hit = ((t.is_ident("unwrap") || t.is_ident("expect")) && prev_dot && next_paren)
            || (t.is_ident("panic") && next_bang);
        if hit {
            rep.panics.count += 1;
        }
    }
}

/// `float-determinism`: `f32`/`f64` type mentions and float literals
/// in float-checked crates. Float rounding depends on target arch,
/// `-C target-feature` flags, and libm versions, so any float on a
/// metered decision path can silently fork the cost counters across
/// hosts. Decision math belongs in integers; genuinely presentational
/// floats (JSON exporters, histogram bounds) take a waiver with the
/// determinism argument written out.
///
/// One finding per source line: a line like `let x: f64 = 0.5;` is a
/// single offence, not three.
fn rule_float_determinism(
    ctx: &FileCtx,
    fa: &FileAnalysis,
    in_test: &[bool],
    rep: &mut FileReport,
) {
    let lexed = &fa.lexed;
    if !ctx.float_checked {
        return;
    }
    let mut seen_lines = BTreeSet::new();
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let what = if t.is_ident("f32") || t.is_ident("f64") {
            t.ident()
        } else if t.is_float_lit() {
            Some("float literal")
        } else {
            None
        };
        let Some(what) = what else { continue };
        if !seen_lines.insert(t.line) {
            continue;
        }
        push_with_waiver(
            rep,
            fa,
            Finding {
                rule: RULE_FLOAT,
                path: ctx.path.clone(),
                line: t.line,
                krate: ctx.krate.clone(),
                msg: format!(
                    "{what} in float-checked crate `{}` — float rounding is arch/flag-sensitive; \
                     keep decision math in integers, or waive with the determinism \
                     argument",
                    ctx.krate
                ),
                waived: None,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_src() -> FileCtx {
        FileCtx {
            path: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            deterministic: true,
            // off by default so rule tests can use float literals as
            // innocuous values; float-determinism tests opt in
            float_checked: false,
        }
    }

    fn float_src() -> FileCtx {
        FileCtx {
            float_checked: true,
            ..det_src()
        }
    }

    fn rules_of(rep: &FileReport) -> Vec<&'static str> {
        rep.findings
            .iter()
            .filter(|f| f.waived.is_none())
            .map(|f| f.rule)
            .collect()
    }

    // ---- waivers ----

    #[test]
    fn waiver_with_reason_waives() {
        let src = "// lint: allow(float-determinism) — JSON output only, never compared\n\
                   fn f(x: f64) -> f64 { x }\n";
        let rep = check_file(&float_src(), src);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(
            rep.findings[0].waived.as_deref(),
            Some("JSON output only, never compared")
        );
        assert!(rules_of(&rep).is_empty());
    }

    #[test]
    fn waiver_reason_may_wrap_lines() {
        let src = "// lint: allow(float-determinism) — a reason whose tail\n\
                   // wraps onto the following comment line\n\
                   fn f(x: f64) -> f64 { x }\n";
        assert!(rules_of(&check_file(&float_src(), src)).is_empty());
    }

    #[test]
    fn waiver_without_reason_stays_active() {
        let src = "fn f(x: f64) -> f64 { x } // lint: allow(float-determinism)\n";
        let rep = check_file(&float_src(), src);
        assert_eq!(rules_of(&rep), ["float-determinism"]);
        assert!(rep.findings[0].msg.contains("missing a reason"));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_apply() {
        let src = "// lint: allow(metering-honesty) — wrong rule\n\
                   fn f(x: f64) -> f64 { x }\n";
        assert_eq!(
            rules_of(&check_file(&float_src(), src)),
            ["float-determinism"]
        );
    }

    // ---- panic-ratchet ----

    #[test]
    fn panic_sites_counted_outside_tests_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { z.unwrap(); }\n}\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rep.panics.count, 3);
        // bare idents that merely *mention* the names do not count
        let rep = check_file(&det_src(), "fn unwrap() {}\nlet expect = 1;\n");
        assert_eq!(rep.panics.count, 0);
    }

    #[test]
    fn test_region_mask_handles_out_of_line_mod() {
        // `#[cfg(test)] mod tests;` must not mark following items
        let src = "#[cfg(test)]\nmod tests;\nfn f() { x.unwrap(); }\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rep.panics.count, 1);
    }

    // ---- float-determinism ----

    #[test]
    fn float_types_and_literals_flagged_when_checked() {
        for src in [
            "fn f(x: f64) -> f64 { x }\n",
            "fn f() { let x: f32 = g(); }\n",
            "fn f() { let x = 0.5; }\n",
            "fn f() { let x = 1e-3; }\n",
            "fn f() { let x = 2f64; }\n",
        ] {
            assert_eq!(
                rules_of(&check_file(&float_src(), src)),
                ["float-determinism"],
                "should flag: {src}"
            );
        }
        // integer literals (incl. hex with an `e` digit) are fine
        for src in [
            "fn f() { let x = 0xfe; }\n",
            "fn f() { let x = 10usize; }\n",
            "fn f() { let x = 1..3; }\n",
        ] {
            assert!(
                rules_of(&check_file(&float_src(), src)).is_empty(),
                "should pass: {src}"
            );
        }
    }

    #[test]
    fn float_findings_dedup_per_line() {
        // one finding for the line, not one per token
        let src = "fn f(x: f64) -> f64 { x * 0.5 }\n";
        let rep = check_file(&float_src(), src);
        assert_eq!(rules_of(&rep), ["float-determinism"]);
        let two = "fn f(x: f64) -> f64 {\n    x * 0.5\n}\n";
        assert_eq!(check_file(&float_src(), two).findings.len(), 2);
    }

    #[test]
    fn float_rule_scoped_and_waivable() {
        let src = "fn f(x: f64) -> f64 { x }\n";
        // not float-checked (e.g. crates/bench): no finding
        assert!(rules_of(&check_file(&det_src(), src)).is_empty());
        // test code exempt
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> f64 { x }\n}\n";
        assert!(rules_of(&check_file(&float_src(), test_src)).is_empty());
        // …but cfg(not(test)) is live code
        let live = "#[cfg(not(test))]\nmod m {\n    fn f(x: f64) -> f64 { x }\n}\n";
        assert_eq!(
            rules_of(&check_file(&float_src(), live)),
            ["float-determinism"]
        );
        // line waiver
        let waived = "// lint: allow(float-determinism) — JSON output only, never compared\n\
                      fn f(x: f64) -> f64 { x }\n";
        let rep = check_file(&float_src(), waived);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].waived.is_some());
    }

    #[test]
    fn allow_file_waives_every_finding_of_that_rule() {
        let src = "// lint: allow-file(float-determinism) — exporter: floats are output-only\n\
                   fn f(x: f64) -> f64 { x }\n\
                   fn g() { let y = 0.25; }\n";
        let rep = check_file(&float_src(), src);
        assert_eq!(rep.findings.len(), 2);
        assert!(rep.findings.iter().all(|f| f.waived.is_some()));
        assert!(rules_of(&rep).is_empty());
        // …and only findings of that rule
        let other = "// lint: allow-file(metering-honesty) — exporter\n\
                     fn f(x: f64) -> f64 { x }\n";
        assert_eq!(
            rules_of(&check_file(&float_src(), other)),
            ["float-determinism"]
        );
    }
}
