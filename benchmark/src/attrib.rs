//! Attribution of a traced run's wall time to the layers it crossed.
//!
//! The traced run wraps each unit operation in a root span named
//! [`ROOT`] and every call into the library in a child span named
//! `"<layer>/<call>"`. A span's self time is its duration minus that of
//! its children; summing self times per layer splits the wall, and the
//! roots' own self time — time spent in benchmark code between library
//! calls — is the unattributed remainder.

use mtk_trace::Span;
use std::collections::BTreeMap;

/// Name of the span wrapping one unit operation.
pub const ROOT: &str = "op";

/// Per-layer self time of a set of traced operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Summed duration of the root spans, seconds.
    pub wall_s: f64,
    /// Self time per layer, seconds.
    pub layers: BTreeMap<String, f64>,
    /// Self time of the root spans (no layer claims it), seconds.
    pub unattributed_s: f64,
}

impl Attribution {
    /// Attributes a forest of root spans.
    pub fn of(roots: &[Span]) -> Attribution {
        let mut out = Attribution::default();
        for root in roots {
            out.wall_s += root.wall_s;
            out.add(root);
        }
        out
    }

    fn add(&mut self, span: &Span) {
        let own = span.wall_s - span.children.iter().map(|c| c.wall_s).sum::<f64>();
        if span.name == ROOT {
            self.unattributed_s += own;
        } else {
            let layer = span.name.split('/').next().unwrap_or(&span.name);
            *self.layers.entry(layer.to_string()).or_default() += own;
        }
        for child in &span.children {
            self.add(child);
        }
    }

    /// Share of the traced wall no layer span covers, percent.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_s / self.wall_s
    }

    /// Layers by self time, largest first.
    pub fn ranked(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = self.layers.iter().map(|(k, &s)| (k.as_str(), s)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

/// Tracing overhead: how much longer the traced run took than the
/// untraced one, percent of the untraced wall.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (traced_s - untraced_s) / untraced_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, wall_s: f64, children: Vec<Span>) -> Span {
        Span {
            name: name.into(),
            wall_s,
            children,
        }
    }

    #[test]
    fn self_times_partition_the_wall() {
        // op 10 s = spice 6 s (of which netlist 1 s) + store 2 s + 2 s gap.
        let roots = vec![span(
            ROOT,
            10.0,
            vec![
                span(
                    "mtk_spice/transient",
                    6.0,
                    vec![span("mtk_netlist/x", 1.0, vec![])],
                ),
                span("mtk_store/get", 2.0, vec![]),
            ],
        )];
        let a = Attribution::of(&roots);
        assert_eq!(a.wall_s, 10.0);
        assert_eq!(a.layers["mtk_spice"], 5.0);
        assert_eq!(a.layers["mtk_netlist"], 1.0);
        assert_eq!(a.layers["mtk_store"], 2.0);
        assert_eq!(a.unattributed_s, 2.0);
        assert_eq!(a.unattributed_pct(), 20.0);
        let total: f64 = a.layers.values().sum::<f64>() + a.unattributed_s;
        assert_eq!(total, a.wall_s);
        assert_eq!(a.ranked()[0], ("mtk_spice", 5.0));
    }

    #[test]
    fn layers_sum_across_operations() {
        let roots = vec![
            span(ROOT, 2.0, vec![span("mtk_fe/parse_str", 1.5, vec![])]),
            span(ROOT, 4.0, vec![span("mtk_fe/to_mtk", 3.5, vec![])]),
        ];
        let a = Attribution::of(&roots);
        assert_eq!(a.layers["mtk_fe"], 5.0);
        assert_eq!(a.unattributed_s, 1.0);
        assert!((a.unattributed_pct() - 100.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_relative_to_untraced() {
        assert_eq!(overhead_pct(11.0, 10.0), 10.0);
        assert_eq!(overhead_pct(9.5, 10.0), -5.0);
    }
}
