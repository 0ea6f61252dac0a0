//! Minimal self-timing: [`measure`] warms up, then runs a fixed number
//! of timed samples and reports min / median / mean. It needs no
//! external dependency, so the workspace builds with zero network
//! access. `speed_comparison` and `mtk repro sec6-2` time with it.
//!
//! Earlier versions timed a *single* wall-clock pass that included
//! one-time setup, so a cold cache or an unlucky scheduler quantum
//! landed straight in the reported number. Warm-up runs are excluded
//! and the headline statistic is the median, which is robust to one
//! slow outlier sample.

use std::time::Instant;

/// Timing statistics of one measured benchmark, in seconds per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest sample.
    pub min: f64,
    /// Median sample — the headline number (robust to outliers).
    pub median: f64,
    /// Mean over all samples.
    pub mean: f64,
    /// Number of timed samples (warm-up runs excluded).
    pub samples: usize,
}

/// Runs `f` `warmup` untimed times, then `samples` timed times, and
/// returns the [`Stats`] of the timed runs. At least one sample is
/// always taken.
pub fn measure<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Stats {
        min: times[0],
        median: times[times.len() / 2],
        mean: times.iter().sum::<f64>() / times.len() as f64,
        samples: times.len(),
    }
}

/// Formats a duration in seconds with an auto-selected unit.
pub fn human(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_units() {
        assert!(human(5e-9).ends_with("ns"));
        assert!(human(5e-6).ends_with("us"));
        assert!(human(5e-3).ends_with("ms"));
        assert!(human(5.0).ends_with('s'));
    }

    #[test]
    fn measure_excludes_warmup_and_orders_stats() {
        let mut count = 0u32;
        let stats = measure(2, 5, || count += 1);
        assert_eq!(count, 7, "2 warm-up + 5 timed");
        assert_eq!(stats.samples, 5);
        assert!(stats.min <= stats.median && stats.median <= stats.mean * 5.0);
        assert!(stats.min >= 0.0);
    }

    #[test]
    fn measure_always_takes_one_sample() {
        let mut count = 0u32;
        let stats = measure(0, 0, || count += 1);
        assert_eq!(count, 1);
        assert_eq!(stats.samples, 1);
    }
}
