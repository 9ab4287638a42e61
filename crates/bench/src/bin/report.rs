//! `pimtrie-report` — the human-facing diagnosis report.
//!
//! Re-runs the X-obs skew and serve scenarios with tracing and alarms
//! enabled and prints what the `obs` crate diagnoses: per-phase
//! critical paths, per-module timelines and alarm firings. Output is
//! byte-deterministic for fixed `--p`/`--quick` at any `--threads`
//! value.
//!
//! Usage:
//! ```text
//! report [--quick] [--p N] [--threads N] [--folded PATH] [--out PATH]
//! ```

use pimtrie_bench as bench;

fn usage() -> String {
    "usage: report [--quick] [--p N] [--threads N] [--folded PATH] [--out PATH]\n\
     \n\
     Renders the X-obs diagnosis report (critical paths, timelines,\n\
     alarms) for the skew and serve scenarios.\n\
     \n\
     options:\n\
     \x20 --quick        reduced sizes (CI scale)\n\
     \x20 --p N          module count (default 16)\n\
     \x20 --threads N    worker threads (default 0 = RAYON_NUM_THREADS,\n\
     \x20                else all cores); output is identical for any N\n\
     \x20 --folded PATH  also write folded stacks (flamegraph.pl input)\n\
     \x20 --out PATH     write the report to PATH instead of stdout\n\
     \x20 --help         this text"
        .to_string()
}

struct Args {
    quick: bool,
    p: usize,
    threads: usize,
    folded: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        quick: false,
        p: 16,
        threads: 0,
        folded: None,
        out: None,
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
            "--folded" => args.folded = Some(value("--folded")),
            "--out" => args.out = Some(value("--out")),
            _ => {
                eprintln!("error: unknown argument '{a}'\n{}", usage());
                std::process::exit(2);
            }
        }
        i += 1;
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
    let (p, quick, threads) = (args.p, args.quick, args.threads);
    let report = pim_trie::with_threads(threads, move || bench::obs::obs_report(p, quick));
    match &args.out {
        Some(path) => write_file(path, &report.text),
        None => print!("{}", report.text),
    }
    if let Some(path) = &args.folded {
        write_file(path, &report.folded);
        eprintln!("folded stacks written to {path}");
    }
}
