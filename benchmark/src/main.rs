//! Command line of the benchmark; see `README.md` in this directory.

use std::path::Path;
use std::process::ExitCode;

use pimtrie_benchmark::spec::{Scale, Workload};
use pimtrie_benchmark::{compare, print_human, run, RunArgs};

const USAGE: &str = "\
usage: pimtrie-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                         [--scale full|smoke]
       pimtrie-benchmark compare [--seed N] [--seconds S] [--scale full|smoke]
workloads: uniform-read url-zipf-compact write-churn serve-mixed";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<(bool, RunArgs), String> {
    let mut args = RunArgs::new(Workload::UniformRead);
    let mut workload = None;
    let mut compare = false;
    while let Some(flag) = argv.next() {
        if flag == "compare" {
            compare = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match workload {
        Some(w) => args.workload = w,
        None if compare => {}
        None => return Err("--workload is required".to_string()),
    }
    Ok((compare, args))
}

fn main() -> ExitCode {
    let (compare_mode, args) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if compare_mode {
        let benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        return match compare::compare(&args, &benchmark_json) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            print_human(&out.record);
            println!("{}", out.summary.dump());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}
