//! The invariant rules, applied to one lexed file at a time.
//!
//! | rule             | invariant it protects                                      |
//! |------------------|------------------------------------------------------------|
//! | `safety-comment` | every `unsafe` block/impl carries a written `// SAFETY:` audit |
//! | `unordered-iter` | no `HashMap`/`HashSet` in the deterministic crates (their iteration order is seeded per process and would leak into metered counters) |
//! | `wallclock`      | `Instant::now`/`SystemTime` only in the timing-owned crate (`crates/bench`) — counters stay exact functions of (seed, P, workload) |
//! | `global-state`   | no `static mut` / interior-mutable statics (hidden cross-run or cross-thread coupling) |
//! | `panic-ratchet`  | `unwrap`/`expect`/`panic!` per library crate may only decrease (see [`crate::ratchet`]) |
//! | `serve-channel-panic` | in `crates/serve`, no `.unwrap()`/`.expect()` on channel send/recv or lock results — the serving front-end's contract is that every failure becomes a typed outcome, never a panic that silently drops admitted requests |
//! | `metric-cardinality` | metric/phase names handed to the tracer or registry (`set_phase`, `begin_op`, `counter_add`, `gauge_set`, `observe`) must be `'static` string literals or `SCREAMING_CASE` consts — a data-dependent name unbounds the exposition's label set and breaks its byte-determinism |
//! | `float-determinism` | no `f32`/`f64` types or float literals in the determinism-checked crates — platform- and flag-sensitive float rounding breaks cross-arch byte-identity of the metered counters; decision math belongs in integers |
//! | `span-balance` | `begin_op`/`end_op` (and the `t_op`/`trace_op` wrappers, `set_retry(true/false)`) must pair up on every control path of a fn body — an early return between them leaves the tracer in a wedged span |
//!
//! Two further rules need cross-file facts and live in
//! [`crate::analysis`]: `metering-honesty`, `dead-waiver`, `doc-drift`.
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

/// Where a file sits in its crate, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library/binary sources (`src/**`): all rules apply.
    Src,
    /// Integration tests, benches, examples: only `safety-comment`
    /// applies (they neither run in metered paths nor ship).
    Aux,
}

/// Per-file context the rules need.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (stable across hosts).
    pub path: String,
    /// Crate short name (directory under `crates/` or `vendor/`).
    pub krate: String,
    /// File classification.
    pub class: FileClass,
    /// Whether the crate is on the deterministic-metering list.
    pub deterministic: bool,
    /// Whether the crate owns timing (wall-clock reads allowed).
    pub owns_timing: bool,
    /// Whether the crate is checked for float determinism (the
    /// deterministic list plus `workloads`, whose generators feed the
    /// metered runs).
    pub float_checked: bool,
}

/// One rule violation (possibly waived).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`safety-comment`, `unordered-iter`, …).
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

const RULE_SAFETY: &str = "safety-comment";
const RULE_UNORDERED: &str = "unordered-iter";
const RULE_WALLCLOCK: &str = "wallclock";
const RULE_GLOBAL: &str = "global-state";
const RULE_SERVE_PANIC: &str = "serve-channel-panic";
const RULE_METRIC: &str = "metric-cardinality";
const RULE_FLOAT: &str = "float-determinism";
const RULE_SPAN: &str = "span-balance";

/// (open, close) span method pairs that must balance on every control
/// path of a fn body. `set_retry(true)`/`set_retry(false)` is tracked
/// as a fourth, argument-keyed pair.
const SPAN_PAIRS: &[(&str, &str)] = &[
    ("begin_op", "end_op"),
    ("t_op", "t_op_end"),
    ("trace_op", "trace_op_end"),
];

/// Tracer/registry methods whose *name* argument must come from a
/// closed set. For `set_phase`/`begin_op` that is the only argument;
/// for the registry writers it is the first of two.
const METRIC_NAME_METHODS: &[&str] = &[
    "set_phase",
    "begin_op",
    "counter_add",
    "gauge_set",
    "observe",
];

/// Methods whose `Result` must not be `.unwrap()`/`.expect()`ed in the
/// serving crate: channel endpoints, lock acquisition, and thread
/// joins. Their failures (peer hung up, poisoned lock, worker panic)
/// are exactly the overload/fault conditions the front-end exists to
/// turn into typed per-request outcomes.
const SERVE_FALLIBLE_METHODS: &[&str] = &[
    "send",
    "try_send",
    "recv",
    "try_recv",
    "recv_timeout",
    "lock",
    "try_lock",
    "read",
    "write",
    "join",
];

/// Interior-mutability wrappers that make a `static` shared mutable
/// state. (`OnceLock`/`OnceCell`/`LazyLock` are included: even
/// idempotent init is cross-thread coupling worth an explicit waiver.)
const INTERIOR_MUTABLE: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Cell",
    "LazyCell",
    "LazyLock",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "RwLock",
    "UnsafeCell",
];

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
    let lexed = &fa.lexed;
    let in_test = &fa.in_test;

    rule_safety_comment(ctx, lexed, &mut rep);
    if ctx.class == FileClass::Src {
        rule_unordered_iter(ctx, fa, in_test, &mut rep);
        rule_wallclock(ctx, fa, in_test, &mut rep);
        rule_global_state(ctx, fa, in_test, &mut rep);
        rule_panic_ratchet(lexed, in_test, &mut rep);
        rule_serve_channel_panic(ctx, fa, in_test, &mut rep);
        rule_metric_cardinality(ctx, fa, in_test, &mut rep);
        rule_float_determinism(ctx, fa, in_test, &mut rep);
        rule_span_balance(ctx, fa, &mut rep);
    }
    rep
}

// ---------------------------------------------------------------------
// `#[cfg(test)] mod …` tracking
// ---------------------------------------------------------------------

/// For each token, whether it sits inside a `#[cfg(test)] mod … { … }`
/// region. Test-only code is exempt from the determinism rules (it
/// never runs in metered paths) though not from `safety-comment`.
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

/// `safety-comment`: each `unsafe` block or `unsafe impl` needs
/// `SAFETY:` in a comment on its own line or in the contiguous
/// comment block directly above. `unsafe fn`/`unsafe trait`
/// declarations are exempt (their contract belongs in `# Safety` docs;
/// each *use* is a block and is checked).
fn rule_safety_comment(ctx: &FileCtx, lexed: &Lexed, rep: &mut FileReport) {
    for (i, t) in lexed.toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let what = match lexed.toks.get(i + 1) {
            Some(n) if n.is_sym('{') => "unsafe block",
            Some(n) if n.is_ident("impl") => "unsafe impl",
            Some(n) if n.is_ident("fn") || n.is_ident("trait") || n.is_ident("extern") => continue,
            _ => "unsafe",
        };
        // Accept the justification on the `unsafe` line, above it, or
        // above the start of the enclosing statement (rustfmt wraps
        // `let x = unsafe { … }` across lines). The statement start is
        // the first token after the previous `;` / `{` / `}` — or the
        // file's first token when there is no such boundary.
        let stmt_line = lexed.toks[..i]
            .iter()
            .rposition(|p| p.is_sym(';') || p.is_sym('{') || p.is_sym('}'))
            .and_then(|j| lexed.toks.get(j + 1))
            .or(lexed.toks.first())
            .map_or(t.line, |s| s.line);
        if has_safety_comment(lexed, t.line) || has_safety_comment(lexed, stmt_line) {
            continue;
        }
        rep.findings.push(Finding {
            rule: RULE_SAFETY,
            path: ctx.path.clone(),
            line: t.line,
            krate: ctx.krate.clone(),
            msg: format!("{what} without a `// SAFETY:` justification directly above"),
            waived: None,
        });
    }
}

fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    let contains = |l: u32| lexed.comments.get(&l).is_some_and(|c| c.contains("SAFETY"));
    if contains(line) {
        return true;
    }
    // walk the contiguous pure-comment block directly above
    let mut l = line;
    while l > 1 && lexed.is_comment_only(l - 1) {
        l -= 1;
        if contains(l) {
            return true;
        }
    }
    false
}

/// `unordered-iter`: any `HashMap`/`HashSet` mention in a deterministic
/// crate's library code. Hash iteration order is seeded per process, so
/// one stray loop silently un-pins every counter the cost model proves;
/// membership-only uses may stay, but must say so in a waiver.
fn rule_unordered_iter(ctx: &FileCtx, fa: &FileAnalysis, in_test: &[bool], rep: &mut FileReport) {
    let lexed = &fa.lexed;
    if !ctx.deterministic {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if name == "HashMap" || name == "HashSet" {
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_UNORDERED,
                    path: ctx.path.clone(),
                    line: t.line,
                    krate: ctx.krate.clone(),
                    msg: format!(
                        "{name} in deterministic crate `{}` — use BTreeMap/BTreeSet (or waive a \
                         provably non-iterated use)",
                        ctx.krate
                    ),
                    waived: None,
                },
            );
        }
    }
}

/// `wallclock`: `Instant::now` / `SystemTime` outside the crates that
/// own timing. A wall-clock read anywhere else can leak scheduling into
/// results that must be exact functions of (seed, P, workload).
fn rule_wallclock(ctx: &FileCtx, fa: &FileAnalysis, in_test: &[bool], rep: &mut FileReport) {
    let lexed = &fa.lexed;
    if ctx.owns_timing {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let hit = if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if t.is_ident("Instant")
            && lexed.toks.get(i + 1).is_some_and(|a| a.is_sym(':'))
            && lexed.toks.get(i + 2).is_some_and(|a| a.is_sym(':'))
            && lexed.toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            Some("Instant::now")
        } else {
            None
        };
        if let Some(what) = hit {
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_WALLCLOCK,
                    path: ctx.path.clone(),
                    line: t.line,
                    krate: ctx.krate.clone(),
                    msg: format!("{what} outside the timing-owned crate (crates/bench)"),
                    waived: None,
                },
            );
        }
    }
}

/// `global-state`: `static mut`, and `static X: T` where `T` mentions an
/// interior-mutability wrapper. Thread-locals count too — per-thread
/// state still decouples results from (seed, P, workload) unless argued
/// otherwise in a waiver.
fn rule_global_state(ctx: &FileCtx, fa: &FileAnalysis, in_test: &[bool], rep: &mut FileReport) {
    let lexed = &fa.lexed;
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] || !t.is_ident("static") {
            continue;
        }
        // `unsafe` blocks aside, `static` as an ident only opens a
        // static item here (lifetimes are not emitted as idents).
        let msg = if lexed.toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            Some("`static mut` item".to_string())
        } else {
            // scan `name : <type tokens> = | ;` for wrapper names
            let mut j = i + 1;
            let mut saw_colon = false;
            let mut wrapper = None;
            while j < lexed.toks.len() && wrapper.is_none() {
                let a = &lexed.toks[j];
                if a.is_sym('=') || a.is_sym(';') || a.is_sym('{') {
                    break;
                }
                if a.is_sym(':') {
                    saw_colon = true;
                } else if saw_colon {
                    if let Some(id) = a.ident() {
                        if INTERIOR_MUTABLE.contains(&id) {
                            wrapper = Some(id.to_string());
                        }
                    }
                }
                j += 1;
            }
            wrapper.map(|w| format!("interior-mutable static (`{w}`)"))
        };
        if let Some(what) = msg {
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_GLOBAL,
                    path: ctx.path.clone(),
                    line: t.line,
                    krate: ctx.krate.clone(),
                    msg: format!("{what} — global mutable state needs an explicit waiver"),
                    waived: None,
                },
            );
        }
    }
}

/// `serve-channel-panic`: in the `serve` crate's library code, flag
/// `.unwrap()`/`.expect()` whose receiver is a direct call to a channel
/// or lock method ([`SERVE_FALLIBLE_METHODS`]). A disconnected channel
/// or poisoned lock inside the serving front-end must become a typed
/// outcome for the affected requests, not a panic that drops everything
/// admitted behind them. (`unwrap_or_else` and friends are fine — they
/// are how those failures get converted.)
fn rule_serve_channel_panic(
    ctx: &FileCtx,
    fa: &FileAnalysis,
    in_test: &[bool],
    rep: &mut FileReport,
) {
    let lexed = &fa.lexed;
    if ctx.krate != "serve" {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let is_panicky = (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && lexed.toks[i - 1].is_sym('.')
            && lexed.toks.get(i + 1).is_some_and(|n| n.is_sym('('));
        if !is_panicky {
            continue;
        }
        // the receiver must itself be a call: `…method(args).unwrap(`
        if i < 2 || !lexed.toks[i - 2].is_sym(')') {
            continue;
        }
        // walk back over the argument list to the matching `(`
        let mut depth = 0usize;
        let mut open = None;
        for j in (0..=i - 2).rev() {
            let a = &lexed.toks[j];
            if a.is_sym(')') {
                depth += 1;
            } else if a.is_sym('(') {
                depth -= 1;
                if depth == 0 {
                    open = Some(j);
                    break;
                }
            }
        }
        let Some(open) = open else { continue };
        let Some(method) = open.checked_sub(1).and_then(|j| lexed.toks[j].ident()) else {
            continue;
        };
        if SERVE_FALLIBLE_METHODS.contains(&method) {
            let what = t.ident().unwrap_or("unwrap");
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_SERVE_PANIC,
                    path: ctx.path.clone(),
                    line: t.line,
                    krate: ctx.krate.clone(),
                    msg: format!(
                        "`.{what}()` on `{method}(…)` in the serving front-end — convert \
                         channel/lock failures into typed outcomes (ServeError), never panic"
                    ),
                    waived: None,
                },
            );
        }
    }
}

/// `metric-cardinality`: in deterministic crates, the name handed to a
/// tracer/registry write ([`METRIC_NAME_METHODS`]) must be a `'static`
/// string literal or a const path ending in a `SCREAMING_CASE` ident
/// (e.g. `names::IO_ROUNDS`). A name built from data makes the metric
/// label set data-dependent: the exposition's closed registered set no
/// longer bounds it, and its byte-determinism contract dies.
///
/// A literal first argument shows up as a single string-literal token
/// (optionally behind `&`). Value-only calls such as
/// `Log2Hist::observe(v)` (one argument, no top-level comma) carry no
/// name and are exempt.
fn rule_metric_cardinality(
    ctx: &FileCtx,
    fa: &FileAnalysis,
    in_test: &[bool],
    rep: &mut FileReport,
) {
    let lexed = &fa.lexed;
    if !ctx.deterministic {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let Some(method) = t.ident() else { continue };
        if !METRIC_NAME_METHODS.contains(&method)
            || i == 0
            || !lexed.toks[i - 1].is_sym('.')
            || !lexed.toks.get(i + 1).is_some_and(|n| n.is_sym('('))
        {
            continue;
        }
        // scan the argument list: first-arg token span + top-level commas
        let mut depth = 1usize;
        let mut commas = 0usize;
        let mut first_end = None; // token index just past the first arg
        let mut j = i + 2;
        while j < lexed.toks.len() && depth > 0 {
            let a = &lexed.toks[j];
            if a.is_sym('(') || a.is_sym('[') || a.is_sym('{') {
                depth += 1;
            } else if a.is_sym(')') || a.is_sym(']') || a.is_sym('}') {
                depth -= 1;
            } else if a.is_sym(',') && depth == 1 {
                commas += 1;
                first_end.get_or_insert(j);
            }
            j += 1;
        }
        first_end.get_or_insert(j.saturating_sub(1).max(i + 2));
        let name_ok = match method {
            // registry writers take (name, value); with no top-level
            // comma this is a value-only histogram/inner call — no name
            "counter_add" | "gauge_set" | "observe" if commas == 0 => continue,
            // a 'static literal name, or a const path whose last
            // segment is SCREAMING_CASE (an empty arg carries no name)
            _ => {
                let arg = &lexed.toks[i + 2..first_end.unwrap_or(i + 2)];
                let lit = match arg {
                    [t] => t.str_lit().is_some(),
                    [amp, t] => amp.is_sym('&') && t.str_lit().is_some(),
                    _ => false,
                };
                arg.is_empty() || lit || is_const_path(arg)
            }
        };
        if !name_ok {
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_METRIC,
                    path: ctx.path.clone(),
                    line: t.line,
                    krate: ctx.krate.clone(),
                    msg: format!(
                        "dynamic metric/phase name passed to `.{method}(…)` — use a 'static \
                         literal or a registered `SCREAMING_CASE` const so the exposition's \
                         label set stays closed"
                    ),
                    waived: None,
                },
            );
        }
    }
}

/// `names::IO_ROUNDS`-shaped: idents joined by `::`, last one
/// `SCREAMING_CASE` (uppercase/digits/underscores, at least one letter).
fn is_const_path(toks: &[Tok]) -> bool {
    if toks.is_empty() || !toks.iter().all(|t| t.ident().is_some() || t.is_sym(':')) {
        return false;
    }
    let Some(last) = toks.last().and_then(|t| t.ident()) else {
        return false;
    };
    last.chars().any(|c| c.is_ascii_uppercase())
        && last
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

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

/// `span-balance`: within each fn body in a deterministic crate, the
/// [`SPAN_PAIRS`] calls (plus `set_retry(true)`/`set_retry(false)`)
/// must net to zero, and no `return`/`?` may fire while a span is
/// open — an early exit between `begin_op` and `end_op` leaves the
/// tracer wedged in a phantom span that corrupts every op recorded
/// after it.
///
/// Scope rules: closures and nested fns are separate bodies (a stored
/// callback legitimately closes a span its definer opened), `#[cfg(test)]`
/// fns are exempt, and so is a fn *named* after a pair member (that is
/// the implementation, not a use). Conditional opens (`match` arms that
/// each open) can confuse the net counter — that is what waivers are
/// for.
fn rule_span_balance(ctx: &FileCtx, fa: &FileAnalysis, rep: &mut FileReport) {
    let lexed = &fa.lexed;
    if !ctx.deterministic {
        return;
    }
    let mut pairs: Vec<(&str, &str)> = SPAN_PAIRS.to_vec();
    pairs.push(("set_retry(true)", "set_retry(false)"));
    let retry = pairs.len() - 1;

    'fns: for f in &fa.parsed.fns {
        if f.in_test || f.name == "set_retry" {
            continue;
        }
        for (a, b) in SPAN_PAIRS {
            if f.name == *a || f.name == *b {
                continue 'fns;
            }
        }
        // per-pair stack of opener lines; a close pops its opener
        let mut open: Vec<Vec<u32>> = vec![Vec::new(); pairs.len()];
        let mut exit_lines = BTreeSet::new();
        let push = |rep: &mut FileReport, line: u32, msg: String| {
            push_with_waiver(
                rep,
                fa,
                Finding {
                    rule: RULE_SPAN,
                    path: ctx.path.clone(),
                    line,
                    krate: ctx.krate.clone(),
                    msg,
                    waived: None,
                },
            );
        };
        for i in f.body.token_indices(false) {
            let t = &lexed.toks[i];
            if t.is_sym('?') {
                if let Some(first) = open.iter().flatten().min() {
                    if exit_lines.insert(t.line) {
                        push(
                            rep,
                            t.line,
                            format!(
                                "`?` may exit fn `{}` while the span opened at line {first} is \
                                 still open — close it on every control path",
                                f.name
                            ),
                        );
                    }
                }
                continue;
            }
            let Some(name) = t.ident() else { continue };
            if name == "return" {
                if let Some(first) = open.iter().flatten().min() {
                    if exit_lines.insert(t.line) {
                        push(
                            rep,
                            t.line,
                            format!(
                                "`return` exits fn `{}` while the span opened at line {first} is \
                                 still open — close it on every control path",
                                f.name
                            ),
                        );
                    }
                }
                continue;
            }
            if !lexed.toks.get(i + 1).is_some_and(|n| n.is_sym('(')) {
                continue;
            }
            // which pair (if any) does this call act on, and which side?
            let (p, opens) = if name == "set_retry" {
                match lexed.toks.get(i + 2).and_then(|a| a.ident()) {
                    Some("true") => (retry, true),
                    Some("false") => (retry, false),
                    _ => continue,
                }
            } else if let Some(p) = SPAN_PAIRS.iter().position(|(a, _)| *a == name) {
                (p, true)
            } else if let Some(p) = SPAN_PAIRS.iter().position(|(_, b)| *b == name) {
                (p, false)
            } else {
                continue;
            };
            if opens {
                open[p].push(t.line);
            } else if open[p].pop().is_none() {
                push(
                    rep,
                    t.line,
                    format!(
                        "`{}` in fn `{}` without a preceding `{}` — span close with no open",
                        pairs[p].1, f.name, pairs[p].0
                    ),
                );
            }
        }
        for (p, stack) in open.iter().enumerate() {
            for &line in stack {
                push(
                    rep,
                    line,
                    format!(
                        "`{}` at line {line} is never closed by `{}` on the fall-through path \
                         of fn `{}`",
                        pairs[p].0, pairs[p].1, f.name
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(deterministic: bool, owns_timing: bool, class: FileClass) -> FileCtx {
        FileCtx {
            path: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            class,
            deterministic,
            owns_timing,
            // off by default so rule tests can use float literals as
            // innocuous values; float-determinism tests opt in
            float_checked: false,
        }
    }

    fn det_src() -> FileCtx {
        ctx(true, false, FileClass::Src)
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

    // ---- safety-comment ----

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let rep = check_file(&det_src(), "fn f() { unsafe { g() } }\n");
        assert_eq!(rules_of(&rep), ["safety-comment"]);

        let ok = "fn f() {\n    // SAFETY: g is sound here\n    unsafe { g() }\n}\n";
        assert!(check_file(&det_src(), ok).findings.is_empty());
    }

    #[test]
    fn safety_comment_above_statement_start() {
        // rustfmt wraps `let x = unsafe {…}` — the audit sits above `let`.
        let src = "// SAFETY: disjoint indices\nlet s =\n    unsafe { go() };\n";
        assert!(check_file(&det_src(), src).findings.is_empty());
    }

    #[test]
    fn unsafe_impl_checked_fn_exempt() {
        let rep = check_file(&det_src(), "unsafe impl Send for T {}\n");
        assert_eq!(rules_of(&rep), ["safety-comment"]);
        // `unsafe fn` / `unsafe trait` carry their contract in docs instead
        assert!(
            check_file(&det_src(), "unsafe fn f() {}\nunsafe trait T {}\n")
                .findings
                .is_empty()
        );
    }

    #[test]
    fn unsafe_in_raw_string_or_comment_ignored() {
        let src = "// unsafe { }\nlet s = r#\"unsafe { }\"#;\n/* unsafe */\n";
        assert!(check_file(&det_src(), src).findings.is_empty());
    }

    // ---- unordered-iter ----

    #[test]
    fn hashmap_flagged_only_in_deterministic_src() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&check_file(&det_src(), src)), ["unordered-iter"]);
        assert!(check_file(&ctx(false, false, FileClass::Src), src)
            .findings
            .is_empty());
        assert!(check_file(&ctx(true, false, FileClass::Aux), src)
            .findings
            .is_empty());
    }

    #[test]
    fn hashmap_in_cfg_test_mod_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(check_file(&det_src(), src).findings.is_empty());
        // …but cfg(not(test)) is live code
        let live = "#[cfg(not(test))]\nmod m {\n    use std::collections::HashSet;\n}\n";
        assert_eq!(rules_of(&check_file(&det_src(), live)), ["unordered-iter"]);
    }

    #[test]
    fn waiver_with_reason_waives() {
        let src = "// lint: allow(unordered-iter) — probed by key, never iterated\n\
                   use std::collections::HashMap;\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(
            rep.findings[0].waived.as_deref(),
            Some("probed by key, never iterated")
        );
        assert!(rules_of(&rep).is_empty());
    }

    #[test]
    fn waiver_reason_may_wrap_lines() {
        let src = "// lint: allow(unordered-iter) — a reason whose tail\n\
                   // wraps onto the following comment line\n\
                   use std::collections::HashMap;\n";
        assert!(rules_of(&check_file(&det_src(), src)).is_empty());
    }

    #[test]
    fn waiver_without_reason_stays_active() {
        let src = "use std::collections::HashMap; // lint: allow(unordered-iter)\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rules_of(&rep), ["unordered-iter"]);
        assert!(rep.findings[0].msg.contains("missing a reason"));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_apply() {
        let src = "// lint: allow(wallclock) — wrong rule\n\
                   use std::collections::HashMap;\n";
        assert_eq!(rules_of(&check_file(&det_src(), src)), ["unordered-iter"]);
    }

    // ---- wallclock ----

    #[test]
    fn wallclock_outside_timing_crates() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules_of(&check_file(&det_src(), src)), ["wallclock"]);
        assert!(check_file(&ctx(false, true, FileClass::Src), src)
            .findings
            .is_empty());
        // `Instant` without `::now` (e.g. a type position) is fine
        assert!(check_file(&det_src(), "fn f(t: Instant) {}\n")
            .findings
            .is_empty());
        assert_eq!(
            rules_of(&check_file(&det_src(), "let t = SystemTime::now();\n")),
            ["wallclock"]
        );
    }

    #[test]
    fn wallclock_in_tests_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        assert!(check_file(&det_src(), src).findings.is_empty());
    }

    // ---- global-state ----

    #[test]
    fn static_mut_and_interior_mutable_statics() {
        assert_eq!(
            rules_of(&check_file(&det_src(), "static mut X: u32 = 0;\n")),
            ["global-state"]
        );
        assert_eq!(
            rules_of(&check_file(
                &det_src(),
                "static C: OnceLock<u32> = OnceLock::new();\n"
            )),
            ["global-state"]
        );
        // a plain immutable static is fine, as is a local `let`
        assert!(check_file(&det_src(), "static N: u32 = 3;\nlet x = 1;\n")
            .findings
            .is_empty());
        // the initializer is not scanned: `= AtomicU32::new(0)` after a
        // plain type must not trip the wrapper check
        assert!(
            check_file(&det_src(), "static N: u32 = f(AtomicU32::new(0));\n")
                .findings
                .is_empty()
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

    // ---- serve-channel-panic ----

    fn serve_src() -> FileCtx {
        FileCtx {
            path: "crates/serve/src/lib.rs".into(),
            krate: "serve".into(),
            class: FileClass::Src,
            deterministic: true,
            owns_timing: false,
            float_checked: false,
        }
    }

    #[test]
    fn channel_and_lock_unwraps_flagged_in_serve() {
        for src in [
            "fn f() { rx.recv().unwrap(); }\n",
            "fn f() { tx.send(x).unwrap(); }\n",
            "fn f() { rx.try_recv().expect(\"m\"); }\n",
            "fn f() { rx.recv_timeout(d).unwrap(); }\n",
            "fn f() { m.lock().unwrap(); }\n",
            "fn f() { l.read().unwrap(); }\n",
            "fn f() { l.write().expect(\"w\"); }\n",
            "fn f() { h.join().unwrap(); }\n",
            // nested args inside the receiver call still resolve
            "fn f() { tx.send((a, g(b))).unwrap(); }\n",
        ] {
            assert_eq!(
                rules_of(&check_file(&serve_src(), src)),
                ["serve-channel-panic"],
                "should flag: {src}"
            );
        }
    }

    #[test]
    fn serve_rule_scoped_to_serve_crate_and_live_code() {
        let src = "fn f() { rx.recv().unwrap(); }\n";
        // other crates: panic-ratchet territory, not this rule
        assert!(rules_of(&check_file(&det_src(), src)).is_empty());
        // serve test modules are exempt
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { rx.recv().unwrap(); }\n}\n";
        assert!(rules_of(&check_file(&serve_src(), test_src)).is_empty());
    }

    #[test]
    fn converting_handlers_and_other_receivers_pass() {
        for src in [
            // unwrap_or_else is the sanctioned conversion path
            "fn f() { m.lock().unwrap_or_else(|e| e.into_inner()); }\n",
            // unwrap on a non-channel call
            "fn f() { q.pop().unwrap(); }\n",
            // unwrap on a plain binding (ratchet counts it, not this rule)
            "fn f() { x.unwrap(); }\n",
            // a channel method *mention* without the panicking tail
            "fn f() { let r = rx.recv(); drop(r); }\n",
        ] {
            assert!(
                rules_of(&check_file(&serve_src(), src)).is_empty(),
                "should pass: {src}"
            );
        }
    }

    // ---- metric-cardinality ----

    #[test]
    fn dynamic_metric_names_flagged_in_deterministic_src() {
        for src in [
            "fn f(t: &mut Tracer, p: &str) { t.set_phase(p); }\n",
            "fn f(t: &mut Tracer, op: &str) { t.begin_op(op); t.end_op(); }\n",
            "fn f(t: &mut Tracer, p: &String) { t.set_phase(&p); }\n",
            "fn f(t: &mut Tracer) { t.set_phase(format!(\"lcp/{n}\")); }\n",
            "fn f(r: &mut Registry, n: &'static str) { r.counter_add(n, 1); }\n",
            "fn f(r: &mut Registry, n: &'static str) { r.gauge_set(n, 1.0); }\n",
            "fn f(r: &mut Registry, n: &'static str, v: u64) { r.observe(n, v); }\n",
        ] {
            assert_eq!(
                rules_of(&check_file(&det_src(), src)),
                ["metric-cardinality"],
                "should flag: {src}"
            );
        }
    }

    #[test]
    fn literal_and_const_metric_names_pass() {
        for src in [
            // literal names lex away to an empty argument gap
            "fn f(t: &mut Tracer) { t.set_phase(\"lcp/local-scan\"); }\n",
            "fn f(t: &mut Tracer) { t.begin_op(\"lcp\"); t.end_op(); }\n",
            "fn f(r: &mut Registry) { r.counter_add(\"pimtrie_io_rounds_total\", 1); }\n",
            // const paths ending in a SCREAMING_CASE ident
            "fn f(r: &mut Registry) { r.counter_add(names::IO_ROUNDS, 1); }\n",
            "fn f(r: &mut Registry) { r.gauge_set(obs::names::IO_BALANCE, 2.0); }\n",
            "fn f(r: &mut Registry, v: u64) { r.observe(names::ROUND_IO_TIME, v); }\n",
            // value-only observe (histogram internals) carries no name
            "fn f(h: &mut Log2Hist, v: u64) { h.observe(v); }\n",
            "fn f(h: &mut Log2Hist) { h.observe(2); }\n",
            // method *definitions* are not calls
            "pub fn set_phase(&mut self, name: &'static str) {}\n",
        ] {
            assert!(
                rules_of(&check_file(&det_src(), src)).is_empty(),
                "should pass: {src}"
            );
        }
    }

    #[test]
    fn metric_rule_scoped_to_deterministic_live_code() {
        let src = "fn f(t: &mut Tracer, p: &str) { t.set_phase(p); }\n";
        assert!(rules_of(&check_file(&ctx(false, false, FileClass::Src), src)).is_empty());
        assert!(rules_of(&check_file(&ctx(true, false, FileClass::Aux), src)).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(t: &mut Tracer, p: &str) { t.set_phase(p); }\n}\n";
        assert!(rules_of(&check_file(&det_src(), test_src)).is_empty());
    }

    #[test]
    fn metric_rule_honours_waivers() {
        let src = "// lint: allow(metric-cardinality) — forwards literals from call sites\n\
                   fn f(t: &mut Tracer, p: &str) { t.set_phase(p); }\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].waived.is_some());
        assert!(rules_of(&rep).is_empty());
    }

    #[test]
    fn serve_rule_honours_waivers() {
        let src = "// lint: allow(serve-channel-panic) — startup only, before any admission\n\
                   fn f() { h.join().unwrap(); }\n";
        let rep = check_file(&serve_src(), src);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].waived.is_some());
        assert!(rules_of(&rep).is_empty());
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
        // …but not findings of other rules
        let mixed = "// lint: allow-file(float-determinism) — exporter\n\
                     use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&check_file(&float_src(), mixed)),
            ["unordered-iter"]
        );
    }

    // ---- span-balance ----

    #[test]
    fn balanced_spans_pass() {
        for src in [
            "fn f(t: &mut Tracer) { t.begin_op(\"get\"); work(); t.end_op(); }\n",
            // balanced inside a loop body
            "fn f(t: &mut Tracer) { for x in xs { t.begin_op(\"g\"); t.end_op(); } }\n",
            // nested distinct pairs
            "fn f(m: &mut M) { m.t_op(\"a\"); m.trace_op(\"b\");\n\
             m.trace_op_end(); m.t_op_end(); }\n",
            "fn f(t: &mut T) { t.set_retry(true); go(); t.set_retry(false); }\n",
            // final `return` after the span closed is fine
            "fn f(t: &mut T) -> u32 { t.begin_op(\"x\"); t.end_op(); return 1; }\n",
        ] {
            assert!(
                rules_of(&check_file(&det_src(), src)).is_empty(),
                "should pass: {src}"
            );
        }
    }

    #[test]
    fn early_return_and_question_mark_leaks_flagged() {
        let ret = "fn f(t: &mut T) -> u32 {\n    t.begin_op(\"get\");\n\
                   if bad { return 0; }\n    t.end_op();\n    1\n}\n";
        let rep = check_file(&det_src(), ret);
        assert_eq!(rules_of(&rep), ["span-balance"]);
        assert_eq!(rep.findings[0].line, 3);
        assert!(rep.findings[0].msg.contains("`return`"));

        let q = "fn f(t: &mut T) -> Result<(), E> {\n    t.t_op(\"get\");\n\
                 let v = load()?;\n    t.t_op_end();\n    Ok(())\n}\n";
        let rep = check_file(&det_src(), q);
        assert_eq!(rules_of(&rep), ["span-balance"]);
        assert!(rep.findings[0].msg.contains("`?`"));
    }

    #[test]
    fn unclosed_and_unopened_spans_flagged() {
        let unclosed = "fn f(t: &mut T) {\n    t.begin_op(\"get\");\n    work();\n}\n";
        let rep = check_file(&det_src(), unclosed);
        assert_eq!(rules_of(&rep), ["span-balance"]);
        assert_eq!(rep.findings[0].line, 2);
        assert!(rep.findings[0].msg.contains("never closed"));

        let unopened = "fn f(t: &mut T) { t.end_op(); }\n";
        let rep = check_file(&det_src(), unopened);
        assert_eq!(rules_of(&rep), ["span-balance"]);
        assert!(rep.findings[0].msg.contains("no open"));

        let retry = "fn f(t: &mut T) { t.set_retry(true); }\n";
        assert_eq!(rules_of(&check_file(&det_src(), retry)), ["span-balance"]);
    }

    #[test]
    fn span_scope_boundaries_respected() {
        // a closure that closes a span its definer opened is a separate
        // body on both sides — neither is flagged
        let closure = "fn f(t: &mut T) {\n    t.begin_op(\"get\");\n\
                       let fin = move || t.end_op();\n    fin();\n}\n";
        let rep = check_file(&det_src(), closure);
        // begin_op in the outer body has no close in that body…
        assert_eq!(rules_of(&rep), ["span-balance"]);
        // …but the closure's lone end_op is NOT also flagged
        assert_eq!(rep.findings.len(), 1);

        // the pair's own implementations are exempt
        let impls = "impl Tracer {\n    pub fn begin_op(&mut self, op: &str) { self.d += 1; }\n\
                     pub fn end_op(&mut self) { self.d -= 1; }\n}\n";
        assert!(rules_of(&check_file(&det_src(), impls)).is_empty());

        // non-deterministic crates are out of scope
        let src = "fn f(t: &mut T) { t.begin_op(\"x\"); }\n";
        assert!(rules_of(&check_file(&ctx(false, false, FileClass::Src), src)).is_empty());

        // test fns are exempt
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(t: &mut T) { t.begin_op(\"x\"); }\n}\n";
        assert!(rules_of(&check_file(&det_src(), test_src)).is_empty());
    }

    #[test]
    fn span_waiver_applies_at_opener_line() {
        let src = "fn f(t: &mut T) {\n\
                   // lint: allow(span-balance) — closed by the stored finisher callback\n\
                   t.begin_op(\"get\");\n}\n";
        let rep = check_file(&det_src(), src);
        assert_eq!(rep.findings.len(), 1);
        assert!(rep.findings[0].waived.is_some());
        assert!(rules_of(&rep).is_empty());
    }
}
