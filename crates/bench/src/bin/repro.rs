//! The reproduction harness: regenerates every table/figure experiment of
//! the PIM-trie paper on the simulator and prints the measured rows.
//!
//! Usage:
//! ```text
//! repro [--quick] [--p N] [--threads N] [--json PATH] [--trace PATH] [EXPERIMENT ...]
//! ```
//!
//! `EXPERIMENT` is any of `t1-space`, `t1-rounds`, `t1-comm`, `skew`,
//! `space-balance`, `scale-p`, `descent`, `batch`, `verify`, `ablate`, `faults`,
//! `compress`, `serve`, or `all` (the default). `--json` writes a deterministic
//! `BENCH_repro.json` summary (one record per experiment run — the
//! `cost-guard` baseline format); `--trace` writes the canonical traced
//! run's JSONL event log.

use pim_sim::Json;
use pimtrie_bench as bench;

/// Every experiment the harness knows, in run order. `all` runs the rest.
const KNOWN: [&str; 14] = [
    "all",
    "t1-space",
    "t1-rounds",
    "t1-comm",
    "skew",
    "space-balance",
    "scale-p",
    "descent",
    "batch",
    "verify",
    "ablate",
    "faults",
    "compress",
    "serve",
];

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--p N] [--threads N] \
         [--clients N] [--deadline T] [--queue-cap N] [--json PATH] [--trace PATH] [EXPERIMENT ...]\n\
         \n\
         Regenerates the PIM-trie paper's tables and figures on the simulator.\n\
         \n\
         options:\n\
         \x20 --quick        reduced sizes (CI scale)\n\
         \x20 --p N          module count (default 16)\n\
         \x20 --threads N    worker threads for module dispatch and batch ops\n\
         \x20                (default 0 = RAYON_NUM_THREADS, else all cores);\n\
         \x20                every measured counter is identical for any N\n\
         \x20 --clients N    closed-loop client population for the `serve`\n\
         \x20                experiment (default 16)\n\
         \x20 --deadline T   latency budget in simulated PIM time units for\n\
         \x20                the `serve` experiment's deadline row (default 600)\n\
         \x20 --queue-cap N  admission-queue depth for the `serve` experiment's\n\
         \x20                overload and deadline rows (default 4)\n\
         \x20 --json PATH    write a deterministic BENCH_repro.json summary\n\
         \x20                (the cost-guard baseline format)\n\
         \x20 --trace PATH   write the canonical traced run as JSONL events\n\
         \x20 --obs-report   append the X-obs diagnosis report (critical\n\
         \x20                paths, timelines, alarms)\n\
         \x20 --folded PATH  with --obs-report: write folded stacks\n\
         \x20                (flamegraph.pl input) to PATH\n\
         \x20 --help         this text\n\
         \n\
         experiments: {}",
        KNOWN.join(", ")
    )
}

struct Args {
    quick: bool,
    p: usize,
    threads: usize,
    clients: usize,
    deadline: u64,
    queue_cap: usize,
    json: Option<String>,
    trace: Option<String>,
    obs_report: bool,
    folded: Option<String>,
    what: Vec<String>,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        quick: false,
        p: 16,
        threads: 0,
        clients: 16,
        deadline: 600,
        queue_cap: 4,
        json: None,
        trace: None,
        obs_report: false,
        folded: None,
        what: Vec::new(),
    };
    let mut i = 0;
    while i < raw.len() {
        let a = raw[i].as_str();
        let mut value = |name: &str| -> String {
            i += 1;
            match raw.get(i) {
                Some(v) => v.clone(),
                None => {
                    eprintln!("error: {name} needs a value\n{}", usage());
                    std::process::exit(2);
                }
            }
        };
        match a {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--quick" => args.quick = true,
            "--p" => match value("--p").parse::<usize>() {
                Ok(v) if v >= 1 => args.p = v,
                _ => {
                    eprintln!("error: --p needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--threads" => match value("--threads").parse::<usize>() {
                Ok(v) => args.threads = v,
                _ => {
                    eprintln!("error: --threads needs a non-negative integer");
                    std::process::exit(2);
                }
            },
            "--clients" => match value("--clients").parse::<usize>() {
                Ok(v) if v >= 1 => args.clients = v,
                _ => {
                    eprintln!("error: --clients needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--deadline" => match value("--deadline").parse::<u64>() {
                Ok(v) if v >= 1 => args.deadline = v,
                _ => {
                    eprintln!("error: --deadline needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--queue-cap" => match value("--queue-cap").parse::<usize>() {
                Ok(v) if v >= 1 => args.queue_cap = v,
                _ => {
                    eprintln!("error: --queue-cap needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--json" => args.json = Some(value("--json")),
            "--trace" => args.trace = Some(value("--trace")),
            "--obs-report" => args.obs_report = true,
            "--folded" => args.folded = Some(value("--folded")),
            _ if a.starts_with("--") => {
                eprintln!("error: unknown flag '{a}'\n{}", usage());
                std::process::exit(2);
            }
            _ => args.what.push(a.to_string()),
        }
        i += 1;
    }
    if args.what.is_empty() {
        args.what.push("all".into());
    }
    for w in &args.what {
        if !KNOWN.contains(&w.as_str()) {
            eprintln!(
                "error: unknown experiment '{w}'. Known: {}",
                KNOWN.join(", ")
            );
            std::process::exit(2);
        }
    }
    args
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args = parse_args();
    // All parallel work below runs on this pool. The thread count is
    // deliberately NOT printed: the output (stdout, --json, --trace) is
    // byte-identical for every --threads value, and the determinism
    // test diffs full outputs across thread counts to prove it.
    let threads = args.threads;
    pim_trie::with_threads(threads, move || run(args));
}

fn run(args: Args) {
    let (p, quick) = (args.p, args.quick);
    let run =
        |name: &str| args.what.iter().any(|w| w == "all") || args.what.iter().any(|w| w == name);

    println!(
        "PIM-trie reproduction harness (P = {p}{})",
        if quick { ", quick" } else { "" }
    );

    // each entry prints its table and contributes one JSON record
    let mut records: Vec<Json> = Vec::new();
    let mut emit = |name: &str, title: &str, rows: &[bench::Row]| {
        bench::print_table(title, rows);
        records.push(bench::export::record(name, rows));
    };

    if run("t1-space") {
        emit(
            "t1-space",
            "T1-space — Table 1 'Space': measured words per key",
            &bench::t1_space(p, quick),
        );
    }
    if run("t1-rounds") {
        emit(
            "t1-rounds",
            "T1-rounds — Table 1 'IO rounds' (LCP on depth-l chain data)",
            &bench::t1_rounds(p, quick),
        );
        emit(
            "t1-rounds-updates",
            "T1-rounds — Insert/Delete/Subtree/Get (PIM-trie, amortized)",
            &bench::t1_rounds_updates(p, quick),
        );
    }
    if run("t1-comm") {
        emit(
            "t1-comm",
            "T1-comm — Table 1 'Communication': words per op vs key length",
            &bench::t1_comm(p, quick),
        );
    }
    if run("skew") {
        emit(
            "skew",
            "X-skew — load balance under adversarial workloads (max/mean per-module IO)",
            &bench::skew(p, quick),
        );
    }
    if run("space-balance") {
        emit(
            "space-balance",
            "X-space-balance — per-module space under benign/adversarial data (Lemma 2.1)",
            &bench::space_balance(p, quick),
        );
    }
    if run("scale-p") {
        emit(
            "scale-p",
            "X-scaleP — IO time per op and rounds as P grows",
            &bench::scale_p(quick),
        );
    }
    if run("descent") {
        emit(
            "descent",
            "X-descent — meta-descent IO rounds vs tree height as n grows (host master table)",
            &bench::descent(p, quick),
        );
    }
    if run("batch") {
        emit(
            "batch",
            "X-batch — balance vs batch size (Theorem 4.3's Ω(P log⁵P) condition)",
            &bench::batch_size(p, quick),
        );
    }
    if run("verify") {
        emit(
            "verify",
            "X-verify — §4.4.3: narrow digests, collisions, redo work, exactness",
            &bench::verify(p, quick),
        );
    }
    if run("ablate") {
        emit(
            "ablate",
            "X-ablate — push-pull & K_B ablations + fast vs pointer-chase path",
            &bench::ablate(p, quick),
        );
    }
    if run("faults") {
        let rows = bench::faults(p, quick);
        emit(
            "faults",
            "X-faults — fault-rate sweep → recovery overhead (seeded flips/drops/crash)",
            &rows,
        );
        println!("{}", bench::rows_json("faults", &rows));
    }

    if run("compress") {
        emit(
            "compress",
            "X-compress — compact wire codec vs Plain (words/op)",
            &bench::compress(p, quick),
        );
    }

    if run("serve") {
        emit(
            "serve",
            "X-serve — overload-safe serving: admission, deadlines, per-key scoping",
            &bench::serve(p, quick, args.clients, args.deadline, args.queue_cap),
        );
    }

    if args.obs_report {
        let rep = bench::obs::obs_report(p, quick);
        print!("\n{}", rep.text);
        records.push(bench::export::record("obs-skew", &rep.skew_rows));
        records.push(bench::export::record("obs-serve", &rep.serve_rows));
        if let Some(path) = &args.folded {
            write_file(path, &rep.folded);
            println!("\nfolded stacks written to {path}");
        }
    } else if args.folded.is_some() {
        eprintln!("error: --folded needs --obs-report");
        std::process::exit(2);
    }

    if let Some(path) = &args.trace {
        let traced = bench::export::trace_all(p, quick).tracer;
        write_file(path, &traced.to_jsonl());
        records.push(Json::obj(vec![
            ("experiment", Json::str("trace-phases")),
            ("trace", traced.summary_json()),
        ]));
        println!("\ntrace events written to {path}");
    }
    if let Some(path) = &args.json {
        let summary = bench::export::summary(p, quick, records);
        write_file(path, &summary.dump());
        println!("\nJSON summary written to {path}");
    }
}
