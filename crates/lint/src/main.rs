//! Binary front-end: scan the workspace, apply the rules, report.
//!
//! ```text
//! pimtrie-lint [--root DIR] [--json FILE] [--ratchet FILE] [--write-ratchet] [--quiet]
//! ```
//!
//! Exit codes: `0` clean (all findings waived, ratchet respected),
//! `1` at least one active finding or ratchet regression, `2` usage or
//! I/O error. CI treats anything non-zero as a failed gate.

use pimtrie_lint::analysis::{self, Unit};
use pimtrie_lint::rules::{self, Finding};
use pimtrie_lint::{ratchet, report, walk};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    json: Option<PathBuf>,
    ratchet: Option<PathBuf>,
    write_ratchet: bool,
    quiet: bool,
}

const USAGE: &str = "usage: pimtrie-lint [--root DIR] [--json FILE] [--ratchet FILE] \
                     [--write-ratchet] [--quiet]

Scans the workspace's library sources for violations of the
determinism invariants the compiler cannot state. Per-file rules:
panic-ratchet, float-determinism. Workspace rules
(cross-file facts): metering-honesty, dead-waiver, doc-drift,
wire-spec-drift, plus the panic and waiver ratchets. rustc and clippy
enforce the rest (workspace lints, clippy.toml). See DESIGN.md
\"Static analysis & invariants\".

  --root DIR        workspace root to scan (default: .)
  --json FILE       also write findings as JSONL (includes waived ones)
  --ratchet FILE    ratchet baseline (default: ROOT/crates/lint/ratchet.json)
  --write-ratchet   rewrite the baseline to the observed counts and exit
  --quiet           suppress the human report (exit code still set)";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: None,
        ratchet: None,
        write_ratchet: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--root" => opts.root = path_arg(&mut args)?,
            "--json" => opts.json = Some(path_arg(&mut args)?),
            "--ratchet" => opts.ratchet = Some(path_arg(&mut args)?),
            "--write-ratchet" => opts.write_ratchet = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<ExitCode, String> {
    let items =
        walk::collect(&opts.root).map_err(|e| format!("scanning {}: {e}", opts.root.display()))?;
    if items.is_empty() {
        return Err(format!(
            "no Rust sources found under {}",
            opts.root.display()
        ));
    }

    // pass 1: lex/parse every file and run the per-file rules
    let mut units: Vec<Unit> = Vec::with_capacity(items.len());
    for item in &items {
        let src = std::fs::read_to_string(&item.abs)
            .map_err(|e| format!("reading {}: {e}", item.abs.display()))?;
        let fa = rules::analyze(&src);
        let rep = rules::check(&item.ctx, &fa);
        units.push(Unit {
            ctx: item.ctx.clone(),
            fa,
            rep,
        });
    }

    // pass 2: workspace rules over the aggregated facts
    let experiments_md = std::fs::read_to_string(opts.root.join("EXPERIMENTS.md")).ok();
    let cost_baseline =
        std::fs::read_to_string(opts.root.join("crates/bench/baselines/cost-baseline.json")).ok();
    let wire_spec = std::fs::read_to_string(opts.root.join("WIRE_FORMAT.md")).ok();
    analysis::run(
        &mut units,
        experiments_md.as_deref(),
        cost_baseline.as_deref(),
        wire_spec.as_deref(),
    );

    let mut findings: Vec<Finding> = Vec::new();
    let mut counts = ratchet::Ratchet::new();
    let mut waiver_counts = ratchet::Ratchet::new();
    for u in units {
        // tally every library crate, including clean ones at 0, so new
        // crates land in the baseline pinned to zero rather than
        // reading as stale entries
        *counts.entry(u.ctx.krate.clone()).or_insert(0) += u.rep.panics.count;
        *waiver_counts.entry(u.ctx.krate.clone()).or_insert(0) += u.rep.waiver_sites.len() as u64;
        findings.extend(u.rep.findings);
    }

    let ratchet_path = opts
        .ratchet
        .clone()
        .unwrap_or_else(|| opts.root.join("crates/lint/ratchet.json"));
    let ratchet_rel = ratchet_path
        .strip_prefix(&opts.root)
        .unwrap_or(&ratchet_path)
        .display()
        .to_string();

    if opts.write_ratchet {
        std::fs::write(
            &ratchet_path,
            ratchet::render_baseline(&counts, &waiver_counts),
        )
        .map_err(|e| format!("writing {}: {e}", ratchet_path.display()))?;
        if !opts.quiet {
            println!(
                "wrote panic+waiver ratchet baseline for {} crates to {}",
                counts.len(),
                ratchet_path.display()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut notices = Vec::new();
    match std::fs::read_to_string(&ratchet_path) {
        Ok(text) => {
            let baseline = ratchet::parse_baseline(&text)?;
            let (f, n) = ratchet::check(&counts, &baseline.panics, &ratchet_rel);
            findings.extend(f);
            notices.extend(n);
            match &baseline.waivers {
                Some(w) => {
                    let (f, n) = ratchet::check_waivers(&waiver_counts, w, &ratchet_rel);
                    findings.extend(f);
                    notices.extend(n);
                }
                None => notices.push(format!(
                    "{ratchet_rel} is a legacy panics-only baseline — run with --write-ratchet \
                     to add the waiver ratchet (waiver check skipped)"
                )),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => notices.push(format!(
            "no ratchet baseline at {} — run with --write-ratchet to create one \
             (ratchet rules skipped)",
            ratchet_path.display()
        )),
        Err(e) => return Err(format!("reading {}: {e}", ratchet_path.display())),
    }

    if let Some(json_path) = &opts.json {
        std::fs::write(json_path, report::jsonl(&findings))
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }
    if !opts.quiet {
        print!("{}", report::human(&findings, &notices, items.len()));
    }
    let active = findings.iter().filter(|f| f.waived.is_none()).count();
    Ok(if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pimtrie-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pimtrie-lint: {e}");
            ExitCode::from(2)
        }
    }
}
