//! Small statistics and process-accounting helpers, std only.

use std::fs;
use std::time::Duration;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples; NaN
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time of this process so far, summed over its live threads from
/// `/proc/self/task/*/schedstat` (nanosecond resolution). Threads that have
/// exited no longer count, so deltas are taken only across intervals in
/// which no thread ends.
pub fn process_cpu() -> Duration {
    let tasks = fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        // A thread may end between listing and reading: skip it.
        if let Ok(stat) = fs::read_to_string(task.path().join("schedstat")) {
            nanos += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Duration::from_nanos(nanos)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
