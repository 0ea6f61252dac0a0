//! Plain-text reporting: aligned tables and sampled series, printed in
//! the same rows/columns the paper's tables and figure axes use.

use mtk_core::hybrid::HybridReport;
use mtk_num::waveform::Pwl;

/// Prints an aligned table with a title, headers, and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

/// Renders an aligned table with a title, headers, and rows: a blank
/// line, `== title ==`, then right-aligned columns.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let mut out = format!("\n== {title} ==\n");
    let mut line = |cells: &[String]| {
        let mut s = String::new();
        for (k, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(k).copied().unwrap_or(8)
            ));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|&w| "-".repeat(w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// The SPICE column of a hybrid finding at `rank` in `report`: its
/// degradation, `quarantined` when the verification tier quarantined
/// it, else `no switch` (no probe switched at the transistor level).
pub fn verified_cell(report: &HybridReport, rank: usize) -> String {
    let quarantined = report.verify_health.quarantined_indices().contains(&rank);
    match report.findings[rank].verified {
        Some(v) => pct(v.degradation()),
        None if quarantined => "quarantined".to_string(),
        None => "no switch".to_string(),
    }
}

/// Formats seconds as engineering-notation nanoseconds.
pub fn ns(t: f64) -> String {
    format!("{:.4}", t * 1e9)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    if x.is_finite() {
        format!("{:.1}%", x * 100.0)
    } else {
        "inf".to_string()
    }
}

/// Renders a waveform as `t_ns, volts` CSV rows sampled at `n` uniform
/// points (figure-series output), one line each, without a trailing
/// newline.
pub fn series(label: &str, w: &Pwl, n: usize) -> String {
    let (Some(t0), Some(t1)) = (w.start_time(), w.end_time()) else {
        return format!("# {label}: empty");
    };
    let row = |t: f64| format!("\n{:.5},{:.6}", t * 1e9, w.value_at(t));
    let mut out = format!("# series: {label}\nt_ns,volts");
    if t1 <= t0 || n < 2 {
        return out + &row(t0);
    }
    let dt = (t1 - t0) / (n - 1) as f64;
    for k in 0..n {
        out.push_str(&row(t0 + k as f64 * dt));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ns(1.5e-9), "1.5000");
        assert_eq!(pct(0.048), "4.8%");
        assert_eq!(pct(f64::INFINITY), "inf");
    }

    #[test]
    fn table_and_series_render() {
        let table = render_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        assert_eq!(table, "\n== t ==\n a  b\n--  -\n 1  2\n30  4\n");
        let w: Pwl = [(0.0, 0.0), (1e-9, 1.0)].into_iter().collect();
        assert_eq!(
            series("w", &w, 3),
            "# series: w\nt_ns,volts\n0.00000,0.000000\n0.50000,0.500000\n1.00000,1.000000"
        );
        assert_eq!(series("empty", &Pwl::new(), 5), "# empty: empty");
    }

    /// A finding without a SPICE measurement reads `quarantined` only
    /// when the verification tier quarantined its rank; otherwise no
    /// probe switched in SPICE.
    #[test]
    fn unverified_findings_are_quarantined_only_when_the_verify_tier_says_so() {
        use mtk_core::health::{QuarantinedItem, SweepHealth};
        use mtk_core::hybrid::HybridFinding;
        use mtk_core::sizing::DelayPair;
        let pair = |mtcmos| DelayPair { cmos: 1.0, mtcmos };
        let finding = |index, verified| HybridFinding {
            index,
            screened: pair(2.0),
            verified,
            delta: None,
            op_gmin_fallback_stages: 0,
            dt_halvings: 0,
        };
        let report = HybridReport {
            findings: vec![
                finding(7, Some(pair(1.25))),
                finding(3, None),
                finding(9, None),
            ],
            survivors: 3,
            screen_health: SweepHealth::default(),
            verify_health: SweepHealth {
                quarantined: vec![QuarantinedItem {
                    index: 2,
                    retried: false,
                    error: mtk_core::CoreError::InvalidOptions("injected".into()),
                }],
                ..SweepHealth::default()
            },
            screen_workers: Vec::new(),
            verify_workers: Vec::new(),
            screen_wall: 0.0,
            verify_wall: 0.0,
        };
        let cells: Vec<String> = (0..3).map(|k| verified_cell(&report, k)).collect();
        assert_eq!(cells, ["25.0%", "no switch", "quarantined"]);
    }
}
