//! The host block every run prints, and the process's peak memory.
//! Everything is read from `/proc` and the checkout; nothing is spawned.

use std::path::Path;

/// Cores this process may run on; every thread-dependent result is
/// reported next to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
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

/// The checked-out commit, when the benchmark runs inside a git checkout
/// (the driver's copy is not one).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| reference.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

pub fn describe() -> String {
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        nproc(),
        cpu_model(),
        env!("BENCH_RUSTC_VERSION"),
        commit()
    )
}

/// `VmHWM` of this process, MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
