//! DC operating-point analysis.

use crate::circuit::{Circuit, DeviceKind, NodeId};
use crate::solver::{NewtonOptions, NewtonSolver, StampMode};
use crate::Result;
use mtk_num::sparse::ReplayStats;

/// Options for the operating-point solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DcOptions {
    /// The g<sub>min</sub> continuation ladder, largest first. The solve
    /// walks the ladder re-using each stage's solution to warm-start the
    /// next, which is what lets Newton converge on stiff stacked-MOSFET
    /// circuits from a cold start.
    pub gmin_steps: Vec<f64>,
    /// Newton iteration controls.
    pub newton: NewtonOptions,
    /// Whether declared initial conditions are forced during the solve.
    pub force_ics: bool,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            gmin_steps: vec![1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12],
            newton: NewtonOptions::default(),
            force_ics: true,
        }
    }
}

/// A solved operating point.
#[derive(Debug, Clone)]
pub struct DcResult {
    x: Vec<f64>,
    n_nodes: usize,
    /// Branch currents by voltage-source name, in device order.
    branch_names: Vec<String>,
    /// g<sub>min</sub> continuation stages the solve needed: `0` when the
    /// direct solve at the final g<sub>min</sub> converged from a cold
    /// start, the full ladder length when continuation was required.
    pub gmin_fallback_stages: usize,
    /// Newton iterations spent over the whole solve, including a failed
    /// direct attempt that forced the continuation ladder.
    pub newton_iterations: usize,
    /// Factorizations that reused the solver's cached symbolic phase
    /// (sparsity pattern + ordering), see
    /// [`crate::solver::NewtonSolver::lu_pattern_reuses`].
    pub lu_pattern_reuses: usize,
    /// How the solve's factorizations went: replayed, served by the
    /// fallback, diverged replays and general eliminations, see
    /// [`crate::solver::NewtonSolver::lu_stats`]. Not a trace key.
    pub lu_stats: ReplayStats,
}

impl DcResult {
    /// Voltage of a node.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Current through the `k`-th voltage source (device order). The sign
    /// convention is the MNA branch current: positive flows *into* the
    /// positive terminal from the external circuit.
    pub fn branch_current(&self, k: usize) -> Option<f64> {
        self.x.get(self.n_nodes + k).copied()
    }

    /// Current through a voltage source identified by name.
    pub fn source_current(&self, name: &str) -> Option<f64> {
        let k = self.branch_names.iter().position(|n| n == name)?;
        self.branch_current(k)
    }

    /// The raw unknown vector (node voltages then branch currents) — the
    /// warm start used by transient analysis.
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }

    /// This solve's effort and fallback counters as entries in the
    /// [`mtk_trace`] registry.
    pub fn counters(&self) -> mtk_trace::CounterSet {
        let mut set = mtk_trace::CounterSet::new();
        set.add(
            mtk_trace::CounterId::GminFallbackStages,
            self.gmin_fallback_stages as u64,
        );
        set.add(
            mtk_trace::CounterId::NewtonIterations,
            self.newton_iterations as u64,
        );
        set.add(
            mtk_trace::CounterId::LuPatternReuses,
            self.lu_pattern_reuses as u64,
        );
        set
    }
}

/// Computes the DC operating point with g<sub>min</sub> stepping.
///
/// # Errors
///
/// * [`crate::SpiceError::NewtonFailed`] if any continuation stage fails.
/// * [`crate::SpiceError::Singular`] for structurally singular circuits.
pub fn operating_point(circuit: &Circuit, opts: &DcOptions) -> Result<DcResult> {
    let mut solver = NewtonSolver::new(circuit);
    let steps = if opts.gmin_steps.is_empty() {
        &[1e-12][..]
    } else {
        &opts.gmin_steps[..]
    };
    let final_gmin = *steps.last().expect("steps is non-empty");

    // Fast path: most circuits converge directly at the final gmin from
    // a cold start, skipping the whole continuation ladder.
    let direct = solver.solve(
        &vec![0.0; solver.unknowns()],
        StampMode::Dc {
            gmin: final_gmin,
            force_ics: opts.force_ics,
        },
        &opts.newton,
        "dc operating point (direct)",
    );
    let (x, gmin_fallback_stages) = match direct {
        Ok((x, _)) => (x, 0),
        Err(_) => {
            // Fallback: walk the full ladder, warm-starting each stage
            // from the previous one — what lets Newton converge on stiff
            // stacked-MOSFET circuits.
            let mut x = vec![0.0; solver.unknowns()];
            for (stage, &gmin) in steps.iter().enumerate() {
                let mode = StampMode::Dc {
                    gmin,
                    force_ics: opts.force_ics,
                };
                let ctx = format!("dc operating point (gmin stage {stage}: {gmin:.1e})");
                let (x_new, _) = solver.solve(&x, mode, &opts.newton, &ctx)?;
                x = x_new;
            }
            (x, steps.len())
        }
    };
    let branch_names = circuit
        .devices()
        .iter()
        .filter(|d| matches!(d.kind, DeviceKind::Vsource { .. }))
        .map(|d| d.name.clone())
        .collect();
    Ok(DcResult {
        x,
        n_nodes: circuit.node_count() - 1,
        branch_names,
        gmin_fallback_stages,
        newton_iterations: solver.total_iterations(),
        lu_pattern_reuses: solver.lu_pattern_reuses(),
        lu_stats: solver.lu_stats(),
    })
}

/// Sweeps the DC value of one voltage source and solves the operating
/// point at each step, warm-starting each solve from the previous one —
/// the classic `.dc` analysis used for transfer curves (VTCs).
///
/// The source's original waveform is restored conceptually by the
/// caller owning the circuit mutably; this function leaves the source at
/// the *last* swept value.
///
/// # Errors
///
/// * [`crate::SpiceError::InvalidParameter`] when `source` is not a
///   voltage source or `values` is empty.
/// * Propagates operating-point failures.
pub fn dc_sweep(
    circuit: &mut Circuit,
    source: crate::circuit::DeviceId,
    values: &[f64],
    opts: &DcOptions,
) -> Result<Vec<DcResult>> {
    use crate::SpiceError;
    if values.is_empty() {
        return Err(SpiceError::InvalidParameter(
            "dc sweep needs at least one value".into(),
        ));
    }
    let mut results = Vec::with_capacity(values.len());
    // The first point uses the full gmin ladder; later points warm-start
    // by re-running the ladder's tail from the previous solution, which
    // the NewtonSolver handles internally via the solve-from-x path.
    for &v in values {
        circuit.set_vsource_wave(source, v)?;
        results.push(operating_point(circuit, opts)?);
    }
    Ok(results)
}

/// Extracts an input→output transfer curve from a [`dc_sweep`]:
/// `(input_value, output_voltage)` pairs.
pub fn transfer_curve(results: &[DcResult], inputs: &[f64], output: NodeId) -> Vec<(f64, f64)> {
    inputs
        .iter()
        .zip(results)
        .map(|(&vin, r)| (vin, r.voltage(output)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::mos::{MosModel, Subthreshold};

    #[test]
    fn divider_operating_point() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, 5.0);
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 1000.0);
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        assert!((op.voltage(mid) - 2.5).abs() < 1e-6);
        assert!((op.voltage(top) - 5.0).abs() < 1e-9);
        assert!((op.voltage(Circuit::GND)).abs() == 0.0);
        // 2.5 mA drawn from the source.
        assert!((op.source_current("v1").unwrap() + 0.0025).abs() < 1e-8);
        assert!(op.source_current("nope").is_none());
    }

    #[test]
    fn inverter_vtc_endpoints() {
        let build = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let out = c.node("out");
            let inp = c.node("in");
            let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
            let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
            c.vsource("vdd", vdd, Circuit::GND, 1.2);
            c.vsource("vin", inp, Circuit::GND, vin);
            c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
            c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
            (c, out)
        };
        let (c_low, out) = build(0.0);
        let op = operating_point(&c_low, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 1.2).abs() < 1e-3, "{}", op.voltage(out));
        let (c_high, out) = build(1.2);
        let op = operating_point(&c_high, &DcOptions::default()).unwrap();
        assert!(op.voltage(out).abs() < 1e-3, "{}", op.voltage(out));
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let mut last = f64::INFINITY;
        for step in 0..=12 {
            let vin = 1.2 * step as f64 / 12.0;
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let out = c.node("out");
            let inp = c.node("in");
            let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
            let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
            c.vsource("vdd", vdd, Circuit::GND, 1.2);
            c.vsource("vin", inp, Circuit::GND, vin);
            c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
            c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
            let op = operating_point(&c, &DcOptions::default()).unwrap();
            let v = op.voltage(out);
            assert!(
                v <= last + 1e-6,
                "VTC not monotone at vin={vin}: {v} > {last}"
            );
            last = v;
        }
    }

    #[test]
    fn dc_sweep_traces_full_vtc() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd, Circuit::GND, 1.2);
        let vin = c.vsource("vin", inp, Circuit::GND, 0.0);
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        let inputs: Vec<f64> = (0..=24).map(|k| 1.2 * k as f64 / 24.0).collect();
        let results = dc_sweep(&mut c, vin, &inputs, &DcOptions::default()).unwrap();
        let vtc = transfer_curve(&results, &inputs, out);
        assert_eq!(vtc.len(), 25);
        // Rails at the ends, monotone decreasing, switching threshold in
        // the middle third.
        assert!((vtc[0].1 - 1.2).abs() < 1e-3);
        assert!(vtc[24].1.abs() < 1e-3);
        assert!(vtc.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-6));
        let vm = vtc
            .windows(2)
            .find(|w| w[0].1 >= 0.6 && w[1].1 < 0.6)
            .map(|w| w[0].0)
            .unwrap();
        assert!(vm > 0.3 && vm < 0.9, "switching threshold {vm}");
    }

    #[test]
    fn dc_sweep_validates_inputs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = c.resistor("r", a, Circuit::GND, 1.0);
        let v = c.vsource("v", a, Circuit::GND, 1.0);
        assert!(dc_sweep(&mut c, v, &[], &DcOptions::default()).is_err());
        assert!(dc_sweep(&mut c, r, &[1.0], &DcOptions::default()).is_err());
    }

    #[test]
    fn easy_circuit_skips_the_gmin_ladder() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, 5.0);
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 1000.0);
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        assert_eq!(
            op.gmin_fallback_stages, 0,
            "linear circuit must solve directly"
        );
    }

    /// An inverter biased near its switching threshold is a high-gain
    /// operating point: the direct cold-start Newton solve at the final
    /// gmin needs 8 iterations, while no warm-started continuation stage
    /// needs more than 6. A budget of 7 therefore forces the ladder to
    /// run — and the fallback counter must say so.
    #[test]
    fn high_gain_circuit_requires_gmin_continuation() {
        let build = || {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let out = c.node("out");
            let inp = c.node("in");
            let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
            let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
            c.vsource("vdd", vdd, Circuit::GND, 1.2);
            c.vsource("vin", inp, Circuit::GND, 0.5);
            c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
            c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
            (c, out)
        };
        let (c, out) = build();
        let opts = DcOptions {
            newton: NewtonOptions {
                max_iter: 7,
                ..NewtonOptions::default()
            },
            ..DcOptions::default()
        };
        let op = operating_point(&c, &opts).unwrap();
        assert!(
            op.gmin_fallback_stages >= 2,
            "expected the ladder to run, got {} stages",
            op.gmin_fallback_stages
        );
        // The fallback lands on the same operating point as an unlimited
        // direct solve.
        let (c2, out2) = build();
        let reference = operating_point(&c2, &DcOptions::default()).unwrap();
        assert_eq!(reference.gmin_fallback_stages, 0);
        assert!(
            (op.voltage(out) - reference.voltage(out2)).abs() < 1e-4,
            "ladder {} vs direct {}",
            op.voltage(out),
            reference.voltage(out2)
        );
    }

    #[test]
    fn mtcmos_sleep_mode_leakage_is_tiny() {
        // Inverter with a high-Vt NMOS sleep device, gate low (sleep).
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let vgnd = c.node("vgnd");
        let sleep = c.node("sleep_ctl");
        let sub = Subthreshold::default();
        let nm = c.add_model(MosModel::nmos(0.2, 100e-6).with_subthreshold(sub));
        let pm = c.add_model(MosModel::pmos(0.2, 40e-6).with_subthreshold(sub));
        let hvt = c.add_model(MosModel::nmos(0.7, 100e-6).with_subthreshold(sub));
        c.vsource("vdd", vdd, Circuit::GND, 1.0);
        c.vsource("vin", inp, Circuit::GND, 1.0); // NMOS path would conduct
        c.vsource("vsleep", sleep, Circuit::GND, 0.0); // sleep mode
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, vgnd, Circuit::GND, nm, 4.0);
        c.mosfet("msleep", vgnd, sleep, Circuit::GND, Circuit::GND, hvt, 10.0);
        let op = operating_point(&c, &DcOptions::default()).unwrap();
        let leak = op.source_current("vdd").unwrap().abs();
        // Leakage through the off high-Vt device must be far below the
        // low-Vt device's own subthreshold current.
        assert!(leak < 1e-9, "sleep leakage {leak}");
        // Virtual ground floats up toward the rail in sleep.
        assert!(op.voltage(vgnd) > 0.3, "vgnd {}", op.voltage(vgnd));
    }
}
