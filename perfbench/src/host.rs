//! Host fingerprint and process memory, read from `/proc`.
//!
//! Numbers from different hosts must never be compared silently, so every
//! result carries the CPU count, CPU model, kernel and `CN_THREADS` it was
//! measured with.

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// The `CN_THREADS` value the workspace kernels run with.
    pub cn_threads: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host.
    pub fn detect() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            cn_threads: std::env::var("CN_THREADS").unwrap_or_else(|_| "unset".to_string()),
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MiB, if `/proc` reports it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        assert!(Fingerprint::detect().nproc >= 1);
    }
}
