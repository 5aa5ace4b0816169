//! Run context and process memory, read from the OS.

use std::path::Path;

use crate::Res;

/// Reset the peak-RSS high-water mark to the current RSS (Linux
/// `clear_refs` code 5). Returns the mark it was reset to (MiB), or
/// `None` when the reset did not take effect.
pub fn reset_peak_rss() -> Option<f64> {
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    peak_rss_mb().ok()
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Cores the program's worker fan-outs see. Profile evaluation and cold
/// scans fan out to this many threads whatever the session's thread
/// count, so set-up and prepare timings depend on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` under `repo` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
