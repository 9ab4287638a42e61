//! The workspace-level analysis phase: rules that need cross-file
//! facts, run after every file has been individually analyzed.
//!
//! | rule               | invariant it protects                                  |
//! |--------------------|--------------------------------------------------------|
//! | `metering-honesty` | stat-struct counters (`Metrics`, `FaultStats`, `ResidentStats`, `ServeStats`) are mutated only through the `sim` metering API — a layer that bumps `host_matches` on a private copy reports costs it never paid |
//! | `dead-waiver`      | every `lint: allow(…)` comment suppresses at least one finding — a waiver that outlived its violation is camouflage for the next real one |
//! | `doc-drift`        | every experiment in `repro`'s KNOWN list is named in its `--help` text, in EXPERIMENTS.md, and in the committed cost-baseline — an experiment the docs forgot is an experiment nobody re-runs |
//! | `wire-spec-drift`  | every identifier in WIRE_FORMAT.md's "Wire vocabulary" table exists in the wire-layer sources (`crates/codec`, `crates/sim`, `crates/core/src/schema.rs`) — a spec that names vanished machinery is worse than no spec |
//!
//! The phase consumes the per-file [`FileAnalysis`]/[`FileReport`]
//! pairs the driver built with [`crate::rules::analyze`] and
//! [`crate::rules::check`], aggregates a symbol table
//! ([`Facts`]), then pushes its findings through the same waiver
//! protocol as the per-file rules.

use crate::rules::{push_with_waiver, FileAnalysis, FileCtx, FileReport, Finding};
use std::collections::BTreeSet;

/// The stat structs whose counters the honesty rule guards. `Metrics`
/// owns the rest; the others are its embedded per-layer counter blocks.
pub const STAT_STRUCTS: &[&str] = &["FaultStats", "Metrics", "ResidentStats", "ServeStats"];

const RULE_METERING: &str = "metering-honesty";
const RULE_DEAD_WAIVER: &str = "dead-waiver";
const RULE_DOC_DRIFT: &str = "doc-drift";
const RULE_WIRE_SPEC: &str = "wire-spec-drift";

/// The crates whose library sources are "the wire layer" for
/// `wire-spec-drift`: the bit-level codec and the simulator that
/// negotiates, meters, and fault-indexes it.
const WIRE_CRATES: &[&str] = &["codec", "sim"];

/// The third wire-layer source: the one field table of every protocol
/// message and payload struct, so the spec cannot keep naming a message
/// the protocol dropped.
const WIRE_SCHEMA: &str = "crates/core/src/schema.rs";

/// One file's full state flowing through the run: context, analysis,
/// and the report the rules accumulate into.
#[derive(Debug)]
pub struct Unit {
    /// Path-derived rule context.
    pub ctx: FileCtx,
    /// Lexed + parsed view.
    pub fa: FileAnalysis,
    /// Findings and tallies, extended in place by this phase.
    pub rep: FileReport,
}

/// Cross-file symbol table for `metering-honesty`.
#[derive(Debug, Default)]
pub struct Facts {
    /// Field names declared by the stat structs themselves
    /// (`fills`, `retries`, `admitted`, …).
    stat_fields: BTreeSet<String>,
    /// Field names (of *any* struct, anywhere) whose declared type
    /// mentions a stat struct — walking through one of these reaches a
    /// stat struct without going through the metering API.
    stats_typed_fields: BTreeSet<String>,
    /// Fns whose return type mentions a stat struct: the sanctioned
    /// accessors (`metrics_mut`, `serve_stats_mut`, `fault_stats`, …).
    accessors: BTreeSet<String>,
    /// Files that define a stat struct (the metering API's home —
    /// everything in them is sanctioned).
    defining_files: BTreeSet<String>,
}

/// Build the symbol table from every analyzed file, test code included
/// (a test-only accessor is still an accessor).
pub fn collect_facts(units: &[Unit]) -> Facts {
    let mut facts = Facts::default();
    for u in units {
        for s in &u.fa.parsed.structs {
            if STAT_STRUCTS.contains(&s.name.as_str()) {
                facts.defining_files.insert(u.ctx.path.clone());
                for f in &s.fields {
                    facts.stat_fields.insert(f.name.clone());
                }
            }
            for f in &s.fields {
                if f.ty_idents
                    .iter()
                    .any(|t| STAT_STRUCTS.contains(&t.as_str()))
                {
                    facts.stats_typed_fields.insert(f.name.clone());
                }
            }
        }
        for f in &u.fa.parsed.fns {
            if f.ret_idents
                .iter()
                .any(|t| STAT_STRUCTS.contains(&t.as_str()))
            {
                facts.accessors.insert(f.name.clone());
            }
        }
    }
    facts
}

/// Run the whole phase over the workspace. `experiments_md`,
/// `cost_baseline`, and `wire_spec` are the contents of EXPERIMENTS.md,
/// `crates/bench/baselines/cost-baseline.json`, and `WIRE_FORMAT.md`
/// under the scanned root (`None` when missing — every KNOWN entry then
/// drifts, and a wire layer without its spec is itself a finding).
pub fn run(
    units: &mut [Unit],
    experiments_md: Option<&str>,
    cost_baseline: Option<&str>,
    wire_spec: Option<&str>,
) {
    let facts = collect_facts(units);
    for u in units.iter_mut() {
        apply_metering(&facts, u);
        doc_drift(u, experiments_md, cost_baseline);
    }
    wire_spec_drift(units, wire_spec);
    dead_waiver(units);
}

// ---------------------------------------------------------------------
// metering-honesty
// ---------------------------------------------------------------------

/// One segment of a method/field receiver chain, innermost-last:
/// `self.sys.metrics_mut().rounds` → `[self, sys, metrics_mut()]`.
struct Seg {
    name: String,
    is_call: bool,
}

/// Flag assignments to stat-struct fields whose receiver chain reaches
/// the struct without going through a sanctioned accessor.
///
/// Evidence ladder, deliberately conservative (a field *name* shared
/// with a stat struct must not convict unrelated code):
///
/// 1. fn is sanctioned (impl on a stat struct, or defined in a file
///    that defines one) → skip the whole body;
/// 2. chain contains a call to a known accessor → sanctioned;
/// 3. chain walks through a field whose declared type is a stat
///    struct → finding (the API was bypassed);
/// 4. chain is a single local binding → look at its `let` initializer:
///    accessor call → sanctioned; names a stat struct (a private
///    copy) → finding; anything else → no verdict.
fn metering_honesty(facts: &Facts, u: &Unit) -> Vec<Finding> {
    let mut out = Vec::new();
    if !u.ctx.deterministic {
        return out;
    }
    let toks = &u.fa.lexed.toks;
    for f in &u.fa.parsed.fns {
        if f.in_test {
            continue;
        }
        let sanctioned_fn = f
            .impl_target
            .as_deref()
            .is_some_and(|t| STAT_STRUCTS.contains(&t))
            || facts.defining_files.contains(&u.ctx.path);
        if sanctioned_fn {
            continue;
        }
        let body = &f.body;
        for &i in body {
            let Some(field) = toks[i].ident() else {
                continue;
            };
            if !facts.stat_fields.contains(field)
                || i == 0
                || !toks[i - 1].is_sym('.')
                || !is_assign_op(toks, i + 1)
            {
                continue;
            }
            let Some(chain) = receiver_chain(toks, i - 1) else {
                continue;
            };
            if chain
                .iter()
                .any(|s| s.is_call && facts.accessors.contains(&s.name))
            {
                continue; // went through the metering API
            }
            // the root segment is a path root (a local binding or
            // `self`), never a field — only the segments reached *via*
            // `.` can be stats-typed field accesses
            let verdict = if chain[1..]
                .iter()
                .any(|s| !s.is_call && facts.stats_typed_fields.contains(&s.name))
            {
                Some("reached through a stat-struct field, bypassing the accessor API")
            } else if let [root] = chain.as_slice() {
                if root.is_call || root.name == "self" {
                    None
                } else {
                    binding_verdict(facts, toks, body, &root.name)
                }
            } else {
                None
            };
            if let Some(how) = verdict {
                out.push(Finding {
                    rule: RULE_METERING,
                    path: u.ctx.path.clone(),
                    line: toks[i].line,
                    krate: u.ctx.krate.clone(),
                    msg: format!(
                        "direct mutation of stat field `.{field}` in fn `{}` ({how}) — counters \
                         must be bumped through the sim metering API so every cost is honestly \
                         charged",
                        f.name
                    ),
                    waived: None,
                });
            }
        }
    }
    out
}

/// Does token `j` start an assignment operator? `=` (not `==`/`=>`),
/// or a compound `+=`/`-=`/`*=`/`/=`/`%=`/`|=`/`&=`/`^=`.
fn is_assign_op(toks: &[crate::lexer::Tok], j: usize) -> bool {
    let Some(t) = toks.get(j) else { return false };
    if t.is_sym('=') {
        return !toks
            .get(j + 1)
            .is_some_and(|n| n.is_sym('=') || n.is_sym('>'));
    }
    ['+', '-', '*', '/', '%', '|', '&', '^']
        .iter()
        .any(|&c| t.is_sym(c))
        && toks.get(j + 1).is_some_and(|n| n.is_sym('='))
}

/// Walk the receiver chain leftwards from the `.` at `dot`. Returns the
/// segments outermost-first, or `None` when the receiver has a shape we
/// do not model (indexing, derefs, parenthesised expressions) — the
/// caller then stays silent rather than guess.
fn receiver_chain(toks: &[crate::lexer::Tok], dot: usize) -> Option<Vec<Seg>> {
    let mut segs = Vec::new();
    let mut j = dot; // index of the `.` left of the current segment
    loop {
        let k = j.checked_sub(1)?;
        let start = if toks[k].is_sym(')') {
            // a call: match back to its `(`, method name sits before it
            let mut depth = 0usize;
            let mut open = None;
            for m in (0..=k).rev() {
                if toks[m].is_sym(')') {
                    depth += 1;
                } else if toks[m].is_sym('(') {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(m);
                        break;
                    }
                }
            }
            let open = open?;
            let name_at = open.checked_sub(1)?;
            segs.push(Seg {
                name: toks[name_at].ident()?.to_string(),
                is_call: true,
            });
            name_at
        } else {
            segs.push(Seg {
                name: toks[k].ident()?.to_string(),
                is_call: false,
            });
            k
        };
        if start == 0 || !toks[start - 1].is_sym('.') {
            segs.reverse();
            return Some(segs);
        }
        j = start - 1;
    }
}

/// For `x.field += …` with a lone binding receiver: find `let x = init`
/// in the same body and judge the initializer.
fn binding_verdict(
    facts: &Facts,
    toks: &[crate::lexer::Tok],
    body: &[usize],
    root: &str,
) -> Option<&'static str> {
    for (pos, &i) in body.iter().enumerate() {
        if !toks[i].is_ident("let") {
            continue;
        }
        // `let [mut] root = init ;`
        let mut w = pos + 1;
        if body.get(w).is_some_and(|&x| toks[x].is_ident("mut")) {
            w += 1;
        }
        if !body.get(w).is_some_and(|&x| toks[x].is_ident(root))
            || !body.get(w + 1).is_some_and(|&x| toks[x].is_sym('='))
        {
            continue;
        }
        let mut saw_accessor = false;
        let mut saw_struct = false;
        for &x in &body[w + 2..] {
            let t = &toks[x];
            if t.is_sym(';') {
                break;
            }
            if let Some(id) = t.ident() {
                saw_accessor |= facts.accessors.contains(id);
                saw_struct |= STAT_STRUCTS.contains(&id);
            }
        }
        if saw_accessor {
            return None; // borrowed from the metering API
        }
        if saw_struct {
            return Some(
                "mutates a privately constructed stat struct that the metering pipeline \
                 never sees",
            );
        }
        return None;
    }
    None
}

// ---------------------------------------------------------------------
// doc-drift
// ---------------------------------------------------------------------

/// Where `repro`'s experiment registry lives: any scanned file ending
/// in `/bin/repro.rs` with a `KNOWN` array of string literals.
fn doc_drift(u: &mut Unit, experiments_md: Option<&str>, cost_baseline: Option<&str>) {
    if !u.ctx.path.ends_with("/bin/repro.rs") {
        return;
    }
    let toks = &u.fa.lexed.toks;
    // locate `KNOWN … = [ "a", "b", … ]`
    let Some(at) = toks.iter().position(|t| t.is_ident("KNOWN")) else {
        return;
    };
    let Some(eq) = (at..toks.len()).find(|&i| toks[i].is_sym('=')) else {
        return;
    };
    let Some(open) = (eq..toks.len()).find(|&i| toks[i].is_sym('[')) else {
        return;
    };
    let mut close = open;
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_sym('[') {
            depth += 1;
        } else if t.is_sym(']') {
            depth -= 1;
            if depth == 0 {
                close = i;
                break;
            }
        }
    }
    let names: Vec<(u32, String)> = toks[open..=close]
        .iter()
        .filter_map(|t| t.str_lit().map(|s| (t.line, s.to_string())))
        .collect();

    // the binary's own help/docs: every comment plus every string
    // literal *outside* the KNOWN array itself (its entries must not
    // self-certify)
    let mut help_text = String::new();
    for text in u.fa.lexed.comments.values() {
        help_text.push_str(text);
        help_text.push('\n');
    }
    for (i, t) in toks.iter().enumerate() {
        if (open..=close).contains(&i) {
            continue;
        }
        if let Some(s) = t.str_lit() {
            help_text.push_str(s);
            help_text.push('\n');
        }
    }

    let mut findings = Vec::new();
    for (line, name) in &names {
        if name == "all" {
            continue; // the meta-entry, not an experiment
        }
        let mut missing = Vec::new();
        if !help_text.contains(name.as_str()) {
            missing.push("the --help text");
        }
        if !experiments_md.is_some_and(|t| t.contains(name.as_str())) {
            missing.push("EXPERIMENTS.md");
        }
        if !cost_baseline.is_some_and(|t| t.contains(&format!("\"{name}\""))) {
            missing.push("cost-baseline.json");
        }
        if !missing.is_empty() {
            findings.push(Finding {
                rule: RULE_DOC_DRIFT,
                path: u.ctx.path.clone(),
                line: *line,
                krate: u.ctx.krate.clone(),
                msg: format!(
                    "experiment `{name}` is in the KNOWN list but missing from {} — document \
                     it (or retire the experiment)",
                    missing.join(" and ")
                ),
                waived: None,
            });
        }
    }
    for f in findings {
        push_with_waiver(&mut u.rep, &u.fa, f);
    }
}

// ---------------------------------------------------------------------
// wire-spec-drift
// ---------------------------------------------------------------------

/// Extract the vocabulary table of WIRE_FORMAT.md's
/// `## Wire vocabulary` section: for each table row, the first
/// backticked identifier with its 1-based line number. `None` when the
/// section (or any identifier in it) is absent.
fn spec_vocabulary(spec: &str) -> Option<Vec<(u32, String)>> {
    let mut in_section = false;
    let mut out = Vec::new();
    for (i, line) in spec.lines().enumerate() {
        if let Some(h) = line.strip_prefix("## ") {
            in_section = h.trim() == "Wire vocabulary";
            continue;
        }
        if !in_section || !line.starts_with('|') {
            continue;
        }
        let Some(start) = line.find('`') else {
            continue;
        };
        let rest = &line[start + 1..];
        let Some(end) = rest.find('`') else { continue };
        let ident = &rest[..end];
        if !ident.is_empty() && ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            out.push((i as u32 + 1, ident.to_string()));
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Hold WIRE_FORMAT.md to the code: every identifier its vocabulary
/// table names must occur as a token somewhere in the wire-layer
/// library sources. Findings anchor on the spec file itself (there is
/// no Rust line to waive them on, so they bypass the waiver protocol —
/// the spec must simply be correct) and are reported under the first
/// wire-layer unit. Silent when the tree has no wire layer (fixture
/// trees, pre-codec checkouts).
fn wire_spec_drift(units: &mut [Unit], wire_spec: Option<&str>) {
    let is_wire =
        |u: &Unit| WIRE_CRATES.contains(&u.ctx.krate.as_str()) || u.ctx.path == WIRE_SCHEMA;
    let mut tokens = BTreeSet::new();
    for u in units.iter().filter(|u| is_wire(u)) {
        for t in &u.fa.lexed.toks {
            if let Some(id) = t.ident() {
                tokens.insert(id.to_string());
            }
        }
    }
    let Some(anchor) = units.iter_mut().find(|u| is_wire(u)) else {
        return;
    };
    let krate = anchor.ctx.krate.clone();
    let mut push = |line: u32, msg: String| {
        anchor.rep.findings.push(Finding {
            rule: RULE_WIRE_SPEC,
            path: "WIRE_FORMAT.md".to_string(),
            line,
            krate: krate.clone(),
            msg,
            waived: None,
        });
    };
    let Some(spec) = wire_spec else {
        push(
            1,
            "the wire layer (crates/codec, crates/sim, crates/core/src/schema.rs) exists but \
             WIRE_FORMAT.md is missing — the codecs must stay specified"
                .to_string(),
        );
        return;
    };
    let Some(vocab) = spec_vocabulary(spec) else {
        push(
            1,
            "WIRE_FORMAT.md has no `## Wire vocabulary` table — the drift check has nothing \
             to hold the spec to"
                .to_string(),
        );
        return;
    };
    for (line, ident) in vocab {
        if !tokens.contains(&ident) {
            push(
                line,
                format!(
                    "`{ident}` is named in WIRE_FORMAT.md's vocabulary but does not appear in \
                     the wire-layer sources (crates/codec, crates/sim, \
                     crates/core/src/schema.rs) — update the spec or restore the identifier"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// dead-waiver
// ---------------------------------------------------------------------

/// Flag every waiver site that suppressed nothing. Sites whose rule is
/// `dead-waiver` itself are judged last, so a meta-waiver covering a
/// deliberately kept dead waiver registers as used first.
fn dead_waiver(units: &mut [Unit]) {
    for u in units.iter_mut() {
        for pass in [false, true] {
            // pass 0: ordinary rules; pass 1: allow(dead-waiver) sites
            let dead: Vec<(u32, String)> = u
                .rep
                .waiver_sites
                .iter()
                .filter(|s| (s.rule == RULE_DEAD_WAIVER) == pass)
                .filter(|s| !u.rep.waivers_used.contains(&(s.line, s.rule.clone())))
                .map(|s| (s.line, s.rule.clone()))
                .collect();
            for (line, rule) in dead {
                let f = Finding {
                    rule: RULE_DEAD_WAIVER,
                    path: u.ctx.path.clone(),
                    line,
                    krate: u.ctx.krate.clone(),
                    msg: format!(
                        "`lint: allow({rule})` here suppresses no finding — delete the stale \
                         waiver (it would camouflage the next real violation)"
                    ),
                    waived: None,
                };
                push_with_waiver(&mut u.rep, &u.fa, f);
            }
        }
    }
}

// ---------------------------------------------------------------------

/// Append one `metering_honesty` batch through the waiver protocol —
/// split out so the borrow of `u.fa` ends before `u.rep` is extended.
pub fn apply_metering(facts: &Facts, u: &mut Unit) {
    for f in metering_honesty(facts, u) {
        push_with_waiver(&mut u.rep, &u.fa, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{analyze, check};
    use crate::walk::classify;
    use std::path::Path;

    fn unit(path: &str, src: &str) -> Unit {
        let ctx = classify(Path::new(path)).expect("classifiable path");
        let fa = analyze(src);
        let rep = check(&ctx, &fa);
        Unit { ctx, fa, rep }
    }

    const METRICS_RS: &str = "\
        pub struct FaultStats {\n    pub retries: u64,\n    pub rebuilds: u64,\n}\n\
        pub struct ResidentStats {\n    pub host_matches: u64,\n    pub fills: u64,\n}\n\
        pub struct Metrics {\n    rounds: u64,\n    faults: FaultStats,\n    resident: ResidentStats,\n}\n\
        impl Metrics {\n\
            pub fn add_round(&mut self) { self.rounds += 1; }\n\
            pub fn fault_stats_mut(&mut self) -> &mut FaultStats { &mut self.faults }\n\
            pub fn resident_stats_mut(&mut self) -> &mut ResidentStats { &mut self.resident }\n\
        }\n";

    fn run_units(mut units: Vec<Unit>) -> Vec<Unit> {
        run(&mut units, None, None, None);
        units
    }

    fn active<'a>(u: &'a Unit, rule: &str) -> Vec<&'a Finding> {
        u.rep
            .findings
            .iter()
            .filter(|f| f.rule == rule && f.waived.is_none())
            .collect()
    }

    // ---- metering-honesty ----

    #[test]
    fn accessor_chains_and_defining_file_are_sanctioned() {
        let core = "\
            impl Ops {\n\
                fn recover(&mut self) {\n\
                    self.sys.metrics_mut().fault_stats_mut().rebuilds += 1;\n\
                    let rs = self.sys.metrics_mut().resident_stats_mut();\n\
                    rs.host_matches += 1;\n\
                }\n\
            }\n";
        let units = run_units(vec![
            unit("crates/sim/src/metrics.rs", METRICS_RS),
            unit("crates/core/src/ops.rs", core),
        ]);
        for u in &units {
            assert!(
                active(u, "metering-honesty").is_empty(),
                "false positive in {}: {:?}",
                u.ctx.path,
                u.rep.findings
            );
        }
    }

    #[test]
    fn private_copy_and_field_bypass_are_flagged() {
        let copy = "\
            fn sneak() {\n\
                let mut st = ResidentStats::default();\n\
                st.host_matches += 1;\n\
            }\n";
        let bypass = "\
            struct Layer { metrics: Metrics }\n\
            impl Layer {\n\
                fn sneak(&mut self) { self.metrics.resident.host_matches += 1; }\n\
            }\n";
        let units = run_units(vec![
            unit("crates/sim/src/metrics.rs", METRICS_RS),
            unit("crates/core/src/a.rs", copy),
            unit("crates/core/src/b.rs", bypass),
        ]);
        assert_eq!(active(&units[1], "metering-honesty").len(), 1);
        assert_eq!(active(&units[2], "metering-honesty").len(), 1);
    }

    #[test]
    fn binding_named_like_a_stats_typed_field_passes() {
        // some struct somewhere has `stats: ServeStats`; a *local*
        // named `stats` bound from an accessor must not convict
        let holder = "pub struct Report { pub stats: Metrics }\n";
        let core = "\
            impl Ops {\n\
                fn meter(&mut self) {\n\
                    let stats = self.sys.metrics_mut().fault_stats_mut();\n\
                    stats.retries += 1;\n\
                }\n\
            }\n";
        let units = run_units(vec![
            unit("crates/sim/src/metrics.rs", METRICS_RS),
            unit("crates/obs/src/report.rs", holder),
            unit("crates/core/src/ops.rs", core),
        ]);
        assert!(
            active(&units[2], "metering-honesty").is_empty(),
            "local binding convicted as a field: {:?}",
            units[2].rep.findings
        );
    }

    #[test]
    fn unrelated_fields_with_shared_names_pass() {
        // `retries` is also a FaultStats field name; a serve-local
        // struct's field of the same name must not convict
        let serve = "\
            struct Scoped { retries: u64 }\n\
            impl Server {\n\
                fn note(&mut self) { self.scoped.retries += 1; }\n\
                fn local(&mut self) { self.retries += 1; }\n\
            }\n";
        let units = run_units(vec![
            unit("crates/sim/src/metrics.rs", METRICS_RS),
            unit("crates/serve/src/server.rs", serve),
        ]);
        assert!(active(&units[1], "metering-honesty").is_empty());
    }

    #[test]
    fn metering_honesty_waivable_and_test_exempt() {
        let waived = "\
            fn sneak() {\n\
                let mut st = ResidentStats::default();\n\
                // lint: allow(metering-honesty) — scratch copy folded back via the API\n\
                st.host_matches += 1;\n\
            }\n";
        let test_only = "\
            #[cfg(test)]\nmod tests {\n\
                fn t() { let mut st = ResidentStats::default(); st.host_matches += 1; }\n\
            }\n";
        let units = run_units(vec![
            unit("crates/sim/src/metrics.rs", METRICS_RS),
            unit("crates/core/src/a.rs", waived),
            unit("crates/core/src/b.rs", test_only),
        ]);
        assert!(active(&units[1], "metering-honesty").is_empty());
        assert_eq!(
            units[1]
                .rep
                .findings
                .iter()
                .filter(|f| f.waived.is_some())
                .count(),
            1
        );
        assert!(active(&units[2], "metering-honesty").is_empty());
    }

    // ---- dead-waiver ----

    #[test]
    fn unused_waivers_flagged_used_ones_not() {
        let src = "\
            // lint: allow(float-determinism) — exporter output, never compared\n\
            fn ratio(x: f64) -> f64 { x }\n\
            // lint: allow(float-determinism) — nothing here uses a float\n\
            fn quiet() {}\n";
        let units = run_units(vec![unit("crates/core/src/a.rs", src)]);
        let dead = active(&units[0], "dead-waiver");
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].line, 3);
        assert!(dead[0].msg.contains("allow(float-determinism)"));
    }

    #[test]
    fn meta_waiver_keeps_a_deliberate_dead_waiver() {
        let src = "\
            // lint: allow(dead-waiver) — template kept for the next port\n\
            // lint: allow(float-determinism) — nothing here uses a float\n\
            fn quiet() {}\n";
        let units = run_units(vec![unit("crates/core/src/a.rs", src)]);
        // the float-determinism waiver is dead but its finding is waived by the
        // meta-waiver; the meta-waiver is then used, so nothing active
        assert!(active(&units[0], "dead-waiver").is_empty());
        assert_eq!(units[0].rep.findings.len(), 1);
        assert!(units[0].rep.findings[0].waived.is_some());
    }

    // ---- doc-drift ----

    const REPRO_OK: &str = "\
        //! Runs t1-space and skew.\n\
        const KNOWN: [&str; 3] = [\"all\", \"t1-space\", \"skew\"];\n\
        fn usage() { println!(\"experiments: t1-space, skew\"); }\n";

    #[test]
    fn documented_experiments_pass() {
        let mut units = vec![unit("crates/bench/src/bin/repro.rs", REPRO_OK)];
        run(
            &mut units,
            Some("## t1-space\n## skew\n"),
            Some("{\"experiment\":\"t1-space\"},{\"experiment\":\"skew\"}"),
            None,
        );
        assert!(active(&units[0], "doc-drift").is_empty());
    }

    #[test]
    fn undocumented_experiment_drifts() {
        let src = "\
            const KNOWN: [&str; 2] = [\"all\", \"skew\"];\n\
            fn usage() { println!(\"experiments: skew\"); }\n";
        // named in help, absent from EXPERIMENTS.md and the baseline
        let mut units = vec![unit("crates/bench/src/bin/repro.rs", src)];
        run(&mut units, Some("nothing here"), Some("{}"), None);
        let d = active(&units[0], "doc-drift");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("EXPERIMENTS.md and cost-baseline.json"));
        assert!(!d[0].msg.contains("--help"));
    }

    #[test]
    fn known_entries_do_not_self_certify_help() {
        // the KNOWN literal itself must not count as help text
        let src = "const KNOWN: [&str; 2] = [\"all\", \"skew\"];\n";
        let mut units = vec![unit("crates/bench/src/bin/repro.rs", src)];
        run(&mut units, Some("skew"), Some("\"skew\""), None);
        let d = active(&units[0], "doc-drift");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("--help"));
    }

    #[test]
    fn doc_drift_only_looks_at_repro() {
        let src = "const KNOWN: [&str; 2] = [\"all\", \"skew\"];\n";
        let mut units = vec![unit("crates/core/src/lib.rs", src)];
        run(&mut units, None, None, None);
        assert!(active(&units[0], "doc-drift").is_empty());
    }

    // ---- wire-spec-drift ----

    const CODEC_RS: &str = "pub enum WireCodec { Plain, Compact }\npub fn put_varint() {}\n";

    #[test]
    fn spec_vocabulary_backed_by_code_passes() {
        let spec = "## Wire vocabulary\n\
                    | identifier | meaning |\n|---|---|\n\
                    | `WireCodec` | versions |\n| `put_varint` | LEB128 |\n";
        let mut units = vec![unit("crates/codec/src/lib.rs", CODEC_RS)];
        run(&mut units, None, None, Some(spec));
        assert!(
            active(&units[0], "wire-spec-drift").is_empty(),
            "false positive: {:?}",
            units[0].rep.findings
        );
    }

    #[test]
    fn vanished_identifier_drifts_with_its_spec_line() {
        let spec = "## Wire vocabulary\n\
                    | identifier | meaning |\n|---|---|\n\
                    | `put_label_shared` | gone from the code |\n";
        let mut units = vec![unit("crates/codec/src/lib.rs", CODEC_RS)];
        run(&mut units, None, None, Some(spec));
        let d = active(&units[0], "wire-spec-drift");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "WIRE_FORMAT.md");
        assert_eq!(d[0].line, 4);
        assert!(d[0].msg.contains("put_label_shared"));
    }

    #[test]
    fn missing_spec_or_table_is_itself_a_finding() {
        let mut units = vec![unit("crates/codec/src/lib.rs", CODEC_RS)];
        run(&mut units, None, None, None);
        let d = active(&units[0], "wire-spec-drift");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("WIRE_FORMAT.md is missing"));

        let mut units = vec![unit("crates/sim/src/wire.rs", CODEC_RS)];
        run(&mut units, None, None, Some("# prose without the table\n"));
        let d = active(&units[0], "wire-spec-drift");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("Wire vocabulary"));
    }

    #[test]
    fn schema_table_is_a_wire_source() {
        let spec = "## Wire vocabulary\n\
                    | identifier | meaning |\n|---|---|\n\
                    | `PutMetaMsg` | live payload |\n| `DroppedPayloadMsg` | retired payload |\n";
        let schema = "wire_schema! { struct PutMetaMsg { nodes, root_idx } words = 3; }\n";
        let mut units = vec![
            unit("crates/codec/src/lib.rs", CODEC_RS),
            unit("crates/core/src/schema.rs", schema),
            // not a wire source: naming it here must not rescue the spec
            unit(
                "crates/core/src/module.rs",
                "pub struct DroppedPayloadMsg;\n",
            ),
        ];
        run(&mut units, None, None, Some(spec));
        let d = active(&units[0], "wire-spec-drift");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(d[0].msg.contains("DroppedPayloadMsg"));
    }

    #[test]
    fn no_wire_layer_means_no_spec_obligation() {
        let spec = "## Wire vocabulary\n| `Ghost` | not real |\n";
        let mut units = vec![unit("crates/core/src/lib.rs", "fn f() {}\n")];
        run(&mut units, None, None, Some(spec));
        assert!(active(&units[0], "wire-spec-drift").is_empty());
    }
}
