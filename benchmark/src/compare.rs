//! The repeatability tool: run the full set twice on the same build
//! (plus one traced run) and hold the pairs against the bounds in
//! `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use pim_sim::Json;

use crate::spec::{Workload, END_TO_END};
use crate::stats::SIM_TRAFFIC;
use crate::RunArgs;

/// Run this executable once as a child (so peak memory is per run) and
/// parse the last line it prints.
fn child_run(args: &RunArgs, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", args.scale.name()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    Json::parse(last).map_err(|e| format!("{workload}: unparsable result line: {e:?}"))
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

fn failed(result: &Json) -> f64 {
    result
        .get("failed")
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

/// `bound` of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark_json: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect())
}

/// Run every workload twice untraced and once traced with `args`' seed,
/// scale and seconds; print both values, their relative difference and
/// the bound per workload × end-to-end metric. Host metrics must agree
/// within their bound; `sim_*` metrics must be bit-equal, between the
/// two runs and with the traced run's `trace.sim_*`. Returns whether
/// everything held.
pub fn compare(args: &RunArgs, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let mut all_ok = true;
    println!(
        "{:<18} {:<26} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "run 1", "run 2", "rel diff", "bound"
    );
    for w in Workload::ALL {
        let first = child_run(args, w, false)?;
        let second = child_run(args, w, false)?;
        let traced = child_run(args, w, true)?;
        for (metric, _) in END_TO_END {
            let (a, b) = (value(&first, metric), value(&second, metric));
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(f64::NAN, |(_, b)| *b);
            let rel = (b - a).abs() / a.abs();
            let exact = metric.starts_with("sim_");
            let ok = if exact { a == b } else { rel <= bound };
            all_ok &= ok;
            println!(
                "{:<18} {:<26} {:>16.4} {:>16.4} {:>8.2}% {:>6.2}  {}",
                w.name(),
                metric,
                a,
                b,
                100.0 * rel,
                bound,
                match (ok, exact) {
                    (true, true) => "bit-equal",
                    (true, false) => "within bound",
                    (false, true) => "NOT bit-equal",
                    (false, false) => "OUTSIDE bound",
                }
            );
        }
        for metric in SIM_TRAFFIC {
            let (a, t) = (
                value(&first, metric),
                value(&traced, &format!("trace.{metric}")),
            );
            let ok = a == t;
            all_ok &= ok;
            println!(
                "{:<18} {:<26} {:>16.4} {:>16.4} {:>26}",
                w.name(),
                format!("trace.{metric}"),
                a,
                t,
                if ok {
                    "traced run bit-equal"
                } else {
                    "traced run NOT bit-equal"
                }
            );
        }
        let fails = failed(&first) + failed(&second) + failed(&traced);
        all_ok &= fails == 0.0;
        println!("{:<18} failed ops over the three runs: {fails}", w.name());
    }
    Ok(all_ok)
}
