//! Small statistics and process-measurement helpers.

/// Mean and 95 % confidence half-width of a sample (normal approximation,
/// as the paper's error bars).
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let ci = 1.96 * (var / n).sqrt();
    (mean, ci)
}

/// Repeats per timed bench row. Rows that finish in fractions of a
/// millisecond are dominated by scheduler luck in any single sample
/// (thread-spawn latency, a neighbour's cache pressure). The **median**
/// wall across repeats discards one bad sample without the minimum's bias
/// (the minimum rewards serial rows, whose best case has no thread-spawn
/// floor, and would skew parallel-speedup ratios).
pub const REPEATS: usize = 5;

/// Runs `f` [`REPEATS`] times and returns the median wall seconds with the
/// last run's result. The rows it times are deterministic, so every repeat
/// does identical work.
pub fn median_wall<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t0 = std::time::Instant::now();
        last = Some(f());
        walls.push(t0.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    (walls[walls.len() / 2], last.expect("REPEATS > 0"))
}

/// The process's peak resident set ("VmHWM") in KiB, from
/// `/proc/self/status`; `None` off-Linux.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_ci() {
        let (m, ci) = mean_ci95(&[10.0, 10.0, 10.0]);
        assert_eq!(m, 10.0);
        assert_eq!(ci, 0.0);
        let (m, ci) = mean_ci95(&[9.0, 11.0]);
        assert_eq!(m, 10.0);
        assert!(ci > 0.0);
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn median_wall_runs_every_repeat_and_keeps_the_last_result() {
        let mut calls = 0;
        let (secs, last) = median_wall(|| {
            calls += 1;
            calls
        });
        assert_eq!(calls, REPEATS);
        assert_eq!(last, REPEATS);
        assert!(secs >= 0.0);
    }

    #[test]
    fn hwm_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_hwm_kb().unwrap_or(0) > 0);
        }
    }
}
