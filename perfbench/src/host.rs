//! Host fingerprint, process memory, and the hermetic environment.

use crate::report::json_str;

/// What a result set was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

/// The host's available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read the fingerprint. Runs `rustc -V` to completion.
pub fn fingerprint() -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Fingerprint {
        nproc: nproc(),
        cpu_model,
        rustc,
        kernel,
    }
}

impl Fingerprint {
    /// As a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"kernel\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.kernel)
        )
    }
}

/// The workload's memory high-water mark in MiB: the process's
/// `VmHWM` less the calibration table ([`crate::calib::TABLE_MIB`]),
/// which every run allocates before its workload starts.
pub fn workload_peak_rss_mb() -> f64 {
    (peak_rss_mb() - crate::calib::TABLE_MIB).max(0.0)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or 0
/// where `/proc` does not report it.
fn peak_rss_mb() -> f64 {
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

/// Remove every `EM2_*` variable from the process environment, so no
/// ambient setting (`EM2_OBS`, `EM2_RT_WORKERS`, `EM2_NET_COALESCE`,
/// …) can change a result. Returns the removed `(name, value)` pairs
/// for the result record. Call before any other thread starts.
pub fn clear_em2_env() -> Vec<(String, String)> {
    let removed: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("EM2_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    for (k, _) in &removed {
        std::env::remove_var(k);
    }
    removed
}

/// One line per thread of this process: name, scheduler state, and the
/// kernel function it waits in. Printed when a run wedges.
pub fn thread_states() -> String {
    let mut out = String::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for t in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(t.path().join(f)).unwrap_or_default();
        let state = read("status")
            .lines()
            .find(|l| l.starts_with("State:"))
            .map(|l| l.trim_start_matches("State:").trim().to_string())
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<24} {:<14} {}\n",
            read("comm").trim(),
            state,
            read("wchan")
        ));
    }
    out
}
