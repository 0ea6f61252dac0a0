//! The metric registry — the single list `BENCHMARK.json` must match —
//! and the result line every run ends with.

use mtk_trace::json::JsonValue;

/// End-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit)`. What one "operation" is depends on the workload (see
/// `README.md`). Latency is reported as the lower quartile because
/// interference from other tenants of a shared host only ever slows an
/// operation; the median and tails are printed beside it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p25_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("fe.parse_us.adder3", "us"),
    ("fe.parse_us.alu4", "us"),
    ("fe.parse_us.mul16", "us"),
    ("fe.write_us.mul16", "us"),
    ("json.parse_us.req_small", "us"),
    ("json.parse_us.req_large", "us"),
    ("json.encode_us.req_large", "us"),
    ("trace.to_json_us.hybrid", "us"),
    ("vbsim.engine_new_us.adder3", "us"),
    ("vbsim.engine_new_us.mul16", "us"),
    ("vbsim.us_per_vector.adder3", "us"),
    ("vbsim.us_per_vector.mul16", "us"),
    ("vbsim.breakpoints_per_vector.adder3", "count"),
    ("vbsim.breakpoints_per_vector.mul16", "count"),
    ("vbsim.ns_per_breakpoint.adder3", "ns"),
    ("vbsim.ns_per_breakpoint.mul16", "ns"),
    ("vx.solve_us.9gates", "us"),
    ("sizing.legs_simulated", "count"),
    ("sizing.cache_hits", "count"),
    ("sizing.cache_hit_ratio", "ratio"),
    ("par.utilization.screen", "ratio"),
    ("par.utilization.verify", "ratio"),
    ("expand.us.alu4", "us"),
    ("expand.us.mul8", "us"),
    ("spice.tran_ms.alu4", "ms"),
    ("spice.steps.alu4", "count"),
    ("spice.newton_per_step.alu4", "ratio"),
    ("spice.unknowns.alu4", "count"),
    ("spice.unknowns.mul8", "count"),
    ("spice.unknowns.mul16", "count"),
    ("spice.stamp_us.alu4", "us"),
    ("spice.stamp_us.mul8", "us"),
    ("spice.stamp_us.mul16", "us"),
    ("spice.lu_us.alu4", "us"),
    ("spice.lu_us.mul8", "us"),
    ("spice.lu_us.mul16", "us"),
    ("spice.lu_fill_nnz.alu4", "count"),
    ("spice.lu_fill_nnz.mul8", "count"),
    ("spice.lu_fill_nnz.mul16", "count"),
    ("store.open_ms.size", "ms"),
    ("store.records.size", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("serve.status_rtt_ms", "ms"),
];

/// The metric-name grammar: a letter or digit, then at most 63 of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Which registry a run reports.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values collected by one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records a value. Names outside both registries are a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(valid_name(name), "metric name {name} breaks the grammar");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The recorded value of a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: every metric of the registry, in registry
    /// order, with its unit. Errors name what is missing or not finite.
    pub fn result_line(
        &self,
        trace: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in registry(trace) {
            let value = self
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let entry = JsonValue::Object(vec![
                ("value".into(), JsonValue::Number(value)),
                ("unit".into(), JsonValue::String(unit.into())),
            ]);
            metrics.push((name.to_string(), entry));
        }
        let line = JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(correct)),
            ("attempted".into(), JsonValue::Number(attempted as f64)),
            ("failed".into(), JsonValue::Number(failed as f64)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ]);
        Ok(line.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_trace::json::parse;

    #[test]
    fn name_grammar() {
        for good in ["setup_s", "spice.lu_us.mul16", "a-b_c.d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` at the checkout root lists exactly the metrics
    /// the harness prints, with the same units, and vice versa, and
    /// exactly its workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, printed, "{key} in BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_registered_metric() {
        for trace in [false, true] {
            let mut m = Metrics::default();
            for (i, (name, _)) in registry(trace).iter().enumerate() {
                m.set(name, i as f64 + 0.5);
            }
            let line = m.result_line(trace, true, 3, 0).unwrap();
            let v = parse(&line).unwrap();
            let metrics = v.get("metrics").and_then(JsonValue::as_object).unwrap();
            assert_eq!(metrics.len(), registry(trace).len());
            for (name, unit) in registry(trace) {
                let entry = v.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(*unit));
            }
            assert_eq!(v.get("attempted").unwrap().as_u64(), Some(3));
        }
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m
            .result_line(false, true, 1, 0)
            .unwrap_err()
            .contains("peak_rss_mb"));
        for (name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        m.set("op_p25_ms", f64::NAN);
        assert!(m.result_line(false, true, 1, 0).is_err());
    }
}
