//! The machine a result was taken on, recorded with every result.

use std::process::Command;

use pim_sim::Json;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `cmd`'s standard output, or `"unknown"` (the driver's
/// checkout is not a git repository, and a machine may lack `rustc` on
/// the path once the binary is built).
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, threads used, CPU model, compiler and commit.
pub fn record(threads: usize) -> Json {
    Json::obj(vec![
        ("nproc", Json::num(nproc() as f64)),
        ("threads", Json::num(threads as f64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
