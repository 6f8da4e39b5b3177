//! What the harness reads from the host: peak memory, stolen CPU time,
//! core count, compiler version.

/// A `key: <n> kB` line of `/proc/self/status`.
fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`); `None` without
/// `/proc`. Each workload runs in a process of its own, so the high-water
/// mark belongs to that workload alone.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Cumulative steal ticks of the host (`/proc/stat`, 8th field of the
/// `cpu` line): time the hypervisor ran someone else while this guest
/// wanted the CPU. A repetition during which it advances is flagged
/// `disturbed`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `"unknown"` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
