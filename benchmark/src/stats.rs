//! Order statistics with the reporting rule every timing follows: the
//! median is always given, a higher percentile only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` (0–100] in `n`
/// sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the percentile-`p` sample.
fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Whether percentile `p` of `n` samples may be reported.
pub fn reportable(p: f64, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// Percentile `p` of an ascending slice (nearest rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One line describing a latency sample set in milliseconds: the count,
/// the median, and each of p90/p95/p99 that the rule allows.
pub fn describe_ms(label: &str, samples_s: &[f64]) -> String {
    if samples_s.is_empty() {
        return format!("{label}: n=0");
    }
    let mut sorted = samples_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut line = format!(
        "{label}: n={} p25={:.3} ms p50={:.3} ms",
        sorted.len(),
        percentile(&sorted, 25.0) * 1e3,
        median(&sorted) * 1e3
    );
    for p in [90.0, 95.0, 99.0] {
        if reportable(p, sorted.len()) {
            line.push_str(&format!(" p{p}={:.3} ms", percentile(&sorted, p) * 1e3));
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples: rank 190, so exactly 10 lie beyond.
        assert_eq!(beyond(95.0, 200), 10);
        assert!(reportable(95.0, 200));
        assert!(!reportable(95.0, 199));
        // p90 needs 100, p99 needs 1000.
        assert!(reportable(90.0, 100) && !reportable(90.0, 99));
        assert!(reportable(99.0, 1000) && !reportable(99.0, 999));
        // The median of 3 has a single sample beyond it.
        assert_eq!(beyond(50.0, 3), 1);
        assert_eq!(beyond(50.0, 0), 0);
    }

    #[test]
    fn describe_omits_unreportable_tails() {
        let few = vec![0.001; 50];
        let line = describe_ms("x", &few);
        assert!(line.contains("n=50") && line.contains("p50="));
        assert!(!line.contains("p90"), "{line}");
        let many: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        let line = describe_ms("x", &many);
        assert!(line.contains("p90=180.000 ms") && line.contains("p95=190.000 ms"));
        assert!(!line.contains("p99"), "{line}");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 100.0), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 1.0);
    }
}
