//! Statistics, clocks and the environment block shared by every
//! workload. Every timing is kept as raw samples and reported as a
//! median plus a tail percentile, each with its sample count.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-quantile (`0.0..=1.0`) of `samples`, by linear interpolation
/// between closest ranks. Panics on no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    (
        quantile(samples, 0.25),
        quantile(samples, 0.5),
        quantile(samples, 0.75),
    )
}

/// The highest percentile (as a fraction) that still has
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n >= 2 * TAIL_MIN_BEYOND).then(|| 1.0 - TAIL_MIN_BEYOND as f64 / n as f64)
}

/// The tail percentile to report from `n` samples: `wanted` when enough
/// samples lie beyond it, otherwise the highest percentile that has
/// (the median at worst).
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    highest_supported_percentile(n).map_or(0.5, |h| h.min(wanted))
}

/// Which way a statistic is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The mean of the better half of `values` (the middle one included):
/// the estimate of a repeated measurement on a shared host. Whatever
/// else runs on the host only ever slows a repetition down, so the
/// better half is the half least disturbed; its mean moves less from run
/// to run than a single low quantile does. Panics on no values.
pub fn quiet(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quiet estimate of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let half = &sorted[..sorted.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// Position by position, the [`quiet`] latency over `repetitions` of one
/// fixed sequence of operations (as long as the shortest repetition).
/// What recurs at the same position in every repetition stays; a stall
/// that does not recur goes.
pub fn quiet_profile(repetitions: &[&[f64]]) -> Vec<f64> {
    let len = repetitions.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let at: Vec<f64> = repetitions.iter().map(|r| r[i]).collect();
            quiet(&at, Better::Lower)
        })
        .collect()
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Calls `f` until `seconds` have passed and at least `min_calls` calls
/// were made; returns each call's duration in seconds.
pub fn sample_for(seconds: f64, min_calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the benchmark keeps what it writes: traces, result files and
/// the scratch directories of durable services. Inside the build
/// directory, so it is never committed and always inside the checkout.
pub fn bench_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("bench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type `path` lives on (longest matching mount point).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The environment a result was measured in.
pub fn environment(pool_width: usize, tmp: &Path) -> Json {
    Json::object([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("pool_width", Json::from(pool_width as f64)),
        ("tmp_filesystem", Json::from(filesystem_of(tmp))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        // 100 samples support p90, not p95; 400 support p95.
        assert_eq!(tail_percentile(100, 0.95), 0.9);
        assert_eq!(tail_percentile(400, 0.95), 0.95);
        assert_eq!(tail_percentile(5, 0.95), 0.5);
        let hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert!((quantile(&hundred, tail_percentile(100, 0.95)) - 89.1).abs() < 1e-9);
    }

    #[test]
    fn quiet_takes_the_better_half() {
        assert_eq!(quiet(&[5.0, 1.0, 9.0, 3.0], Better::Lower), 2.0);
        assert_eq!(quiet(&[5.0, 1.0, 9.0, 3.0], Better::Higher), 7.0);
        // The middle value counts on an odd number.
        assert_eq!(quiet(&[1.0, 2.0, 30.0], Better::Lower), 1.5);
        assert_eq!(quiet(&[4.0], Better::Lower), 4.0);
        // One disturbed repetition in three leaves the profile alone.
        let profile = quiet_profile(&[&[1.0, 2.0, 3.0], &[1.0, 50.0, 3.0, 9.0], &[1.0, 2.0, 3.0]]);
        assert_eq!(profile, vec![1.0, 2.0, 3.0]);
        assert!(quiet_profile(&[]).is_empty());
    }

    #[test]
    fn sample_for_honours_both_limits() {
        let mut calls = 0;
        let s = sample_for(0.0, 5, || calls += 1);
        assert_eq!((s.len(), calls), (5, 5));
        let s = sample_for(0.02, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(s.len() >= 2 && s.iter().sum::<f64>() >= 0.02);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
