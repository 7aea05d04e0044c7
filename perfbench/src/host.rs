//! The host record written beside every run's metrics, and process
//! memory readings.

use std::process::{Command, Stdio};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured: `git rev-parse HEAD` where the working
/// directory is itself a git checkout, otherwise `"unknown"`. Git is
/// kept from searching the directories above it.
pub fn git_sha() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, in KiB; 0 when
/// unreadable.
pub fn vm_hwm_kib() -> u64 {
    vm_hwm_kib_of("self")
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in KiB; 0 when unreadable.
pub fn vm_hwm_kib_of(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`; zeros when unreadable. Steal is time the
/// hypervisor gave this machine's virtual CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

unsafe extern "C" {
    /// `sync(2)` from the C library the standard library already links.
    fn sync();
}

/// Write every file system's dirty data back to disk, so a timed write
/// does not also pay for the write-back of what ran before it.
pub fn flush_file_systems() {
    // SAFETY: sync(2) takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}
