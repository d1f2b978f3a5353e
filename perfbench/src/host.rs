//! What the numbers were measured on.

/// Host identity stamped on every report.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// Source revision, as handed over by `run.py`.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
        Host { nproc, cpu, commit }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
