//! Host calibration: reported CPUs, measured effective parallelism and
//! peak resident memory.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// CPUs the host reports (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed amount of CPU-bound work (~20 ms on a current core).
fn busy_work() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(6_000_000u64) {
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x)
}

fn time_threads(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(busy_work);
        }
    });
    t.elapsed().as_secs_f64()
}

/// How many cores' worth of work `nproc()` busy threads actually get:
/// `nproc × T(1 thread) / T(nproc threads)`, each thread doing the same
/// fixed work, median of five alternating trials. A host whose CPUs
/// are shared reads below `nproc()`.
pub fn effective_parallelism() -> f64 {
    let n = nproc();
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let one = time_threads(1);
        let all = time_threads(n);
        ratios.push(n as f64 * one / all);
    }
    median(&ratios)
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process
/// when `None`, in MiB. `None` when `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
