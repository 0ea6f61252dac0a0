//! Transient analysis.
//!
//! A fixed nominal time step with: source-breakpoint alignment (steps
//! always land on PWL/pulse corners), per-step Newton iteration warm
//! started from the previous solution, and automatic step halving when a
//! step fails to converge.

use crate::circuit::{Circuit, DeviceKind, NodeId};
use crate::dc::{operating_point, DcOptions};
use crate::solver::{
    collect_dyn_caps, CapState, Integrator, NewtonOptions, NewtonSolver, StampMode,
};
use crate::{Result, SpiceError};
use mtk_num::sparse::ReplayStats;
use mtk_num::waveform::Pwl;

/// Which node voltages a transient run records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Record every node (default; fine for small circuits).
    #[default]
    All,
    /// Record only the listed nodes (large circuits, long sweeps).
    Nodes(Vec<NodeId>),
}

/// Options for [`transient`].
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Nominal step, seconds.
    pub dt: f64,
    /// Smallest step the halving fallback may reach.
    pub dt_min: f64,
    /// Integration method.
    pub method: Integrator,
    /// Newton controls for each step.
    pub newton: NewtonOptions,
    /// DC options for the initial operating point.
    pub dc: DcOptions,
    /// Baseline g<sub>min</sub> during time stepping.
    pub gmin: f64,
    /// Which node voltages to record.
    pub record: RecordMode,
}

impl TranOptions {
    /// Creates options running to `t_stop` with a default step of
    /// `t_stop / 1000`.
    pub fn to(t_stop: f64) -> Self {
        TranOptions {
            t_stop,
            dt: t_stop / 1000.0,
            dt_min: t_stop / 1e7,
            method: Integrator::default(),
            newton: NewtonOptions::default(),
            dc: DcOptions::default(),
            gmin: 1e-12,
            record: RecordMode::default(),
        }
    }

    /// Sets the nominal step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self.dt_min = self.dt_min.min(dt / 1e4);
        self
    }

    /// Sets the integration method.
    pub fn with_method(mut self, method: Integrator) -> Self {
        self.method = method;
        self
    }

    /// Restricts recording to the given nodes. Duplicates are dropped
    /// (first occurrence wins), so callers composing probe lists — e.g.
    /// outputs plus virtual ground that may alias — need not dedupe.
    pub fn with_probes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut unique: Vec<NodeId> = Vec::new();
        for n in nodes {
            if !unique.contains(&n) {
                unique.push(n);
            }
        }
        self.record = RecordMode::Nodes(unique);
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.t_stop > 0.0 && self.t_stop.is_finite()) {
            return Err(SpiceError::InvalidParameter(format!(
                "t_stop must be positive, got {}",
                self.t_stop
            )));
        }
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(SpiceError::InvalidParameter(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        // Step halving stops at `dt_min`: at zero or below it never
        // stops, because `0.0 * 0.5 >= 0.0`.
        if !(self.dt_min > 0.0 && self.dt_min.is_finite()) {
            return Err(SpiceError::InvalidParameter(format!(
                "dt_min must be positive, got {}",
                self.dt_min
            )));
        }
        Ok(())
    }
}

/// The sampled output of a transient run.
#[derive(Debug, Clone)]
pub struct TranResult {
    time: Vec<f64>,
    /// Recorded node ids, parallel with `node_data`.
    nodes: Vec<NodeId>,
    node_names: Vec<String>,
    /// `node_data[k][step]` = voltage of `nodes[k]`.
    node_data: Vec<Vec<f64>>,
    /// Voltage-source branch currents: names and per-step samples.
    branch_names: Vec<String>,
    branch_data: Vec<Vec<f64>>,
    /// Newton iterations accumulated over all accepted steps.
    pub total_newton_iterations: usize,
    /// Number of accepted steps.
    pub steps: usize,
    /// Times the step-halving fallback fired (a step failed to converge
    /// and was retried at half the size).
    pub dt_halvings: usize,
    /// g<sub>min</sub> continuation stages the initial operating point
    /// needed (see [`crate::dc::DcResult::gmin_fallback_stages`]).
    pub op_gmin_fallback_stages: usize,
    /// Factorizations (operating point + transient stepping) that reused
    /// a solver's cached symbolic phase, see
    /// [`crate::solver::NewtonSolver::lu_pattern_reuses`].
    pub lu_pattern_reuses: usize,
    /// How the factorizations (operating point + transient stepping)
    /// went: replayed, served by the fallback, diverged replays and
    /// general eliminations, see
    /// [`crate::solver::NewtonSolver::lu_stats`]. Not a trace key.
    pub lu_stats: ReplayStats,
}

impl TranResult {
    /// Time points of the accepted steps (starting at `t = 0`).
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Names of the recorded nodes, in recording order (parallel with
    /// [`Self::node_series`]).
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    /// Per-step voltage samples of recorded node `k` (parallel with
    /// [`Self::time`]). `None` when `k` is out of range.
    pub fn node_series(&self, k: usize) -> Option<&[f64]> {
        self.node_data.get(k).map(Vec::as_slice)
    }

    /// Names of the voltage sources whose branch currents were recorded.
    pub fn branch_names(&self) -> &[String] {
        &self.branch_names
    }

    /// Per-step branch-current samples of recorded source `k` (parallel
    /// with [`Self::time`]). `None` when `k` is out of range.
    pub fn branch_series(&self, k: usize) -> Option<&[f64]> {
        self.branch_data.get(k).map(Vec::as_slice)
    }

    /// The waveform of a recorded node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node was not recorded.
    pub fn waveform(&self, node: NodeId) -> Result<Pwl> {
        let k = self.nodes.iter().position(|&n| n == node).ok_or_else(|| {
            SpiceError::UnknownNode(format!("node #{} not recorded", node.index()))
        })?;
        Ok(self
            .time
            .iter()
            .zip(&self.node_data[k])
            .map(|(&t, &v)| (t, v))
            .collect())
    }

    /// The waveform of a recorded node, looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if no recorded node has the name.
    pub fn waveform_by_name(&self, name: &str) -> Result<Pwl> {
        let k = self
            .node_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))?;
        Ok(self
            .time
            .iter()
            .zip(&self.node_data[k])
            .map(|(&t, &v)| (t, v))
            .collect())
    }

    /// This run's effort and fallback counters as entries in the
    /// [`mtk_trace`] registry: accepted steps, dt halvings, Newton
    /// iterations, and the initial operating point's g<sub>min</sub>
    /// continuation stages.
    pub fn counters(&self) -> mtk_trace::CounterSet {
        let mut set = mtk_trace::CounterSet::new();
        set.add(mtk_trace::CounterId::SpiceSteps, self.steps as u64);
        set.add(mtk_trace::CounterId::DtHalvings, self.dt_halvings as u64);
        set.add(
            mtk_trace::CounterId::NewtonIterations,
            self.total_newton_iterations as u64,
        );
        set.add(
            mtk_trace::CounterId::GminFallbackStages,
            self.op_gmin_fallback_stages as u64,
        );
        set.add(
            mtk_trace::CounterId::LuPatternReuses,
            self.lu_pattern_reuses as u64,
        );
        set
    }

    /// The branch-current waveform of a voltage source, by name. Positive
    /// current flows into the source's positive terminal.
    pub fn source_current(&self, name: &str) -> Option<Pwl> {
        let k = self.branch_names.iter().position(|n| n == name)?;
        Some(
            self.time
                .iter()
                .zip(&self.branch_data[k])
                .map(|(&t, &v)| (t, v))
                .collect(),
        )
    }
}

/// Runs a transient analysis.
///
/// The run starts from the DC operating point at `t = 0` (with declared
/// initial conditions forced), then steps to `opts.t_stop`.
///
/// # Errors
///
/// * [`SpiceError::InvalidParameter`] for bad options.
/// * [`SpiceError::NewtonFailed`] when a step cannot converge even at
///   `dt_min`.
/// * [`SpiceError::Singular`] for structurally singular circuits.
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult> {
    opts.validate()?;
    let n_nodes = circuit.node_count() - 1;

    // Initial operating point.
    let op = operating_point(circuit, &opts.dc)?;
    let mut x = op.unknowns().to_vec();

    // Lowered capacitances (explicit devices + MOSFET intrinsics) with
    // histories consistent with the OP (no current at DC).
    let dyn_caps = collect_dyn_caps(circuit);
    let mut cap_states: Vec<CapState> = dyn_caps
        .iter()
        .map(|c| CapState {
            v: voltage_of(&x, c.a) - voltage_of(&x, c.b),
            i: 0.0,
        })
        .collect();

    // Source breakpoints within the window, deduplicated and sorted.
    let mut breakpoints: Vec<f64> = circuit
        .devices()
        .iter()
        .flat_map(|d| match &d.kind {
            DeviceKind::Vsource { wave, .. } | DeviceKind::Isource { wave, .. } => {
                wave.breakpoints(opts.t_stop)
            }
            _ => Vec::new(),
        })
        .filter(|&t| t > 0.0)
        .collect();
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

    let recorded_nodes: Vec<NodeId> = match &opts.record {
        RecordMode::All => (1..circuit.node_count()).map(NodeId).collect(),
        RecordMode::Nodes(ns) => ns.clone(),
    };
    let node_names: Vec<String> = recorded_nodes
        .iter()
        .map(|&n| circuit.node_name(n).to_string())
        .collect();
    let branch_names: Vec<String> = circuit
        .devices()
        .iter()
        .filter(|d| matches!(d.kind, DeviceKind::Vsource { .. }))
        .map(|d| d.name.clone())
        .collect();

    let mut result = TranResult {
        time: Vec::new(),
        nodes: recorded_nodes,
        node_names,
        node_data: Vec::new(),
        branch_names,
        branch_data: Vec::new(),
        total_newton_iterations: 0,
        steps: 0,
        dt_halvings: 0,
        op_gmin_fallback_stages: op.gmin_fallback_stages,
        lu_pattern_reuses: op.lu_pattern_reuses,
        lu_stats: op.lu_stats,
    };
    result.node_data = vec![Vec::new(); result.nodes.len()];
    result.branch_data = vec![Vec::new(); result.branch_names.len()];

    let record = |t: f64, x: &[f64], result: &mut TranResult| {
        result.time.push(t);
        for (k, &node) in result.nodes.iter().enumerate() {
            result.node_data[k].push(voltage_of(x, node));
        }
        for k in 0..result.branch_names.len() {
            result.branch_data[k].push(x[n_nodes + k]);
        }
    };
    record(0.0, &x, &mut result);

    let mut solver = NewtonSolver::new(circuit);
    let mut t = 0.0f64;
    let mut bp_iter = breakpoints.into_iter().peekable();
    let mut dt_cur = opts.dt;
    // The very first step — and the first step after every source
    // breakpoint — uses backward Euler: it needs no capacitor-current
    // history, which is unknown at t = 0 and invalid across a slope
    // discontinuity. This is the classic SPICE restart rule.
    let mut be_restart = true;

    while t < opts.t_stop - 1e-18 {
        // Aim for the next nominal point, but never step across a source
        // breakpoint.
        while let Some(&bp) = bp_iter.peek() {
            if bp <= t + 1e-18 {
                bp_iter.next();
            } else {
                break;
            }
        }
        let mut target = (t + dt_cur).min(opts.t_stop);
        if let Some(&bp) = bp_iter.peek() {
            if bp < target {
                target = bp;
            }
        }
        let dt = target - t;
        let method = if be_restart {
            Integrator::BackwardEuler
        } else {
            opts.method
        };
        let mode = StampMode::Tran {
            t: target,
            dt,
            gmin: opts.gmin,
            method,
            caps: &dyn_caps,
            cap_states: &cap_states,
        };
        let ctx = format_args!("transient @ t={target:.4e}");
        match solver.solve(&x, mode, &opts.newton, ctx) {
            Ok((x_new, iters)) => {
                result.total_newton_iterations += iters;
                result.steps += 1;
                // Accept: update capacitor histories.
                for (idx, cap) in dyn_caps.iter().enumerate() {
                    let v_new = voltage_of(&x_new, cap.a) - voltage_of(&x_new, cap.b);
                    let st = &mut cap_states[idx];
                    let i_new = match method {
                        Integrator::Trapezoidal => 2.0 * cap.farads / dt * (v_new - st.v) - st.i,
                        Integrator::BackwardEuler => cap.farads / dt * (v_new - st.v),
                    };
                    st.v = v_new;
                    st.i = i_new;
                }
                x = x_new;
                t = target;
                record(t, &x, &mut result);
                // Restart integration (BE) after landing on a breakpoint;
                // otherwise resume the requested method.
                be_restart = bp_iter.peek().is_some_and(|&bp| (bp - t).abs() <= 1e-18);
                // Ease the step back toward nominal after a halving.
                dt_cur = (dt_cur * 2.0).min(opts.dt);
            }
            Err(e @ SpiceError::Singular { .. }) => return Err(e),
            Err(_) if dt_cur * 0.5 >= opts.dt_min => {
                dt_cur *= 0.5;
                result.dt_halvings += 1;
            }
            Err(e) => return Err(e),
        }
    }
    result.lu_pattern_reuses += solver.lu_pattern_reuses();
    result.lu_stats += solver.lu_stats();
    Ok(result)
}

fn voltage_of(x: &[f64], node: NodeId) -> f64 {
    if node.is_ground() {
        0.0
    } else {
        x[node.index() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::MosModel;
    use crate::source::SourceWave;
    use mtk_num::waveform::Edge;

    #[test]
    fn with_probes_dedupes_keeping_first_occurrence() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let opts = TranOptions::to(1e-6).with_probes([a, b, a, b, b]);
        assert_eq!(opts.record, RecordMode::Nodes(vec![a, b]));
    }

    /// A step that never converges used to halve `dt` to zero and then
    /// loop forever when `dt_min` was not positive.
    #[test]
    fn non_positive_or_nan_dt_min_is_rejected() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        let wave = SourceWave::pulse(1.0, f64::NAN, 1e-9, 0.0, 0.0, 1e-9, 0.0);
        c.vsource("v1", n1, Circuit::GND, wave);
        c.resistor("r", n1, Circuit::GND, 1000.0);
        for dt_min in [0.0, -1.0, f64::NAN] {
            let opts = TranOptions {
                dt_min,
                ..TranOptions::to(4e-9)
            };
            match transient(&c, &opts) {
                Err(SpiceError::InvalidParameter(msg)) => {
                    assert!(msg.contains("dt_min"), "{dt_min}: {msg}")
                }
                other => panic!("dt_min {dt_min}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    /// The symbolic LU phase must actually be reused while stepping: a
    /// transient run factors once per Newton iteration, and every
    /// factorization after the first per stamp pattern (operating point
    /// vs. transient companions) must hit the cached pattern.
    #[test]
    fn transient_reuses_the_symbolic_lu_phase() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.resistor("r", n1, Circuit::GND, 1000.0);
        c.capacitor("c", n1, Circuit::GND, 1e-9);
        c.set_ic(n1, 1.0);
        let res = transient(&c, &TranOptions::to(1e-6).with_dt(5e-9)).unwrap();
        let factorizations = res.total_newton_iterations + res.steps; // ≥ op + tran iters
        assert!(
            res.lu_pattern_reuses > 0,
            "no symbolic-phase reuse over {factorizations}+ factorizations"
        );
        // At most two symbolic phases exist here (DC pattern, transient
        // pattern): every other Newton iteration reuses one of them.
        let total_iters = res.total_newton_iterations;
        assert!(
            res.lu_pattern_reuses + 2 >= total_iters,
            "reuses {} should cover all but two of the {} transient iterations",
            res.lu_pattern_reuses,
            total_iters
        );
    }

    /// RC discharge from an IC matches the analytic exponential.
    #[test]
    fn rc_discharge_matches_analytic() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        c.resistor("r", n1, Circuit::GND, 1000.0);
        c.capacitor("c", n1, Circuit::GND, 1e-9);
        c.set_ic(n1, 1.0);
        let tau = 1e-6f64;
        let res = transient(&c, &TranOptions::to(3e-6).with_dt(5e-9)).unwrap();
        let w = res.waveform(n1).unwrap();
        for &frac in &[0.5, 1.0, 2.0] {
            let t = frac * tau;
            let expect = (-t / tau).exp();
            let got = w.value_at(t);
            assert!(
                (got - expect).abs() < 5e-3,
                "v({t}) = {got}, expect {expect}"
            );
        }
    }

    /// RC charge through a resistor from a stepped source.
    #[test]
    fn rc_charge_through_source_step() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1e-7, 1e-9, 0.0, 1.0),
        );
        c.resistor("r", inp, out, 1000.0);
        c.capacitor("c", out, Circuit::GND, 1e-9);
        let res = transient(&c, &TranOptions::to(10e-6).with_dt(5e-9)).unwrap();
        let w = res.waveform(out).unwrap();
        // Starts at 0, settles to 1 after ~9 time constants.
        assert!(w.value_at(0.0).abs() < 1e-6);
        assert!((w.final_value().unwrap() - 1.0).abs() < 1e-3);
        // 63% point one tau after the step.
        let v_tau = w.value_at(1e-7 + 1e-9 + 1e-6);
        assert!((v_tau - 0.632).abs() < 0.01, "{v_tau}");
    }

    /// Trapezoidal integration should be dramatically more accurate than
    /// backward Euler at equal step on a smooth RC decay.
    #[test]
    fn trapezoidal_beats_backward_euler() {
        let run = |method: Integrator| {
            let mut c = Circuit::new();
            let n1 = c.node("n1");
            c.resistor("r", n1, Circuit::GND, 1000.0);
            c.capacitor("c", n1, Circuit::GND, 1e-9);
            c.set_ic(n1, 1.0);
            let res =
                transient(&c, &TranOptions::to(2e-6).with_dt(5e-8).with_method(method)).unwrap();
            let w = res.waveform(n1).unwrap();
            (w.value_at(1e-6) - (-1.0f64).exp()).abs()
        };
        let err_trap = run(Integrator::Trapezoidal);
        let err_be = run(Integrator::BackwardEuler);
        assert!(
            err_trap * 5.0 < err_be,
            "trap err {err_trap}, BE err {err_be}"
        );
    }

    /// CMOS inverter switching: output falls when input rises, delay on
    /// the order of CL*Vdd/(2 Id_sat).
    #[test]
    fn inverter_fall_delay_matches_hand_estimate() {
        let mut c = Circuit::new();
        let vdd_n = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel {
            lambda: 0.0,
            gamma: 0.0,
            ..MosModel::nmos(0.35, 100e-6)
        });
        let pm = c.add_model(MosModel {
            lambda: 0.0,
            gamma: 0.0,
            ..MosModel::pmos(0.35, 40e-6)
        });
        let vdd = 1.2;
        let cl = 50e-15;
        c.vsource("vdd", vdd_n, Circuit::GND, vdd);
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1e-10, 1e-11, 0.0, vdd),
        );
        c.mosfet("mp", out, inp, vdd_n, vdd_n, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        c.capacitor("cl", out, Circuit::GND, cl);
        let res = transient(&c, &TranOptions::to(3e-9).with_dt(2e-12)).unwrap();
        let w_in = res.waveform(inp).unwrap();
        let w_out = res.waveform(out).unwrap();
        let d = mtk_num::waveform::propagation_delay(&w_in, &w_out, vdd / 2.0, 0.0).unwrap();
        // Hand estimate: tphl ≈ CL*Vdd/2 / Isat; Isat = 0.5*kp*W/L*(vdd-vt)^2.
        let isat = 0.5 * 100e-6 * 4.0 * (vdd - 0.35f64).powi(2);
        let est = cl * vdd / 2.0 / isat;
        assert!(
            d > 0.3 * est && d < 3.0 * est,
            "delay {d:.3e} vs estimate {est:.3e}"
        );
        // Output must settle low.
        assert!(w_out.final_value().unwrap() < 0.05);
    }

    /// Steps land exactly on PWL breakpoints, so sharp edges are not
    /// smeared past their corner times.
    #[test]
    fn breakpoints_are_honoured() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1.05e-7, 1e-9, 0.0, 1.0),
        );
        c.resistor("r", inp, Circuit::GND, 1000.0);
        let res = transient(&c, &TranOptions::to(3e-7).with_dt(4e-8)).unwrap();
        assert!(res.time().iter().any(|&t| (t - 1.05e-7).abs() < 1e-15));
        let w = res.waveform(inp).unwrap();
        let crossing = w.first_crossing(0.5, Edge::Rising, 0.0).unwrap();
        assert!((crossing.time - 1.055e-7).abs() < 1e-9, "{}", crossing.time);
    }

    #[test]
    fn probes_limit_recording() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("v", a, Circuit::GND, 1.0);
        c.resistor("r1", a, b, 1000.0);
        c.resistor("r2", b, Circuit::GND, 1000.0);
        c.capacitor("cb", b, Circuit::GND, 1e-12);
        let res = transient(&c, &TranOptions::to(1e-8).with_probes([b])).unwrap();
        assert!(res.waveform(b).is_ok());
        assert!(res.waveform(a).is_err());
        assert!(res.waveform_by_name("b").is_ok());
        assert!(res.waveform_by_name("a").is_err());
    }

    #[test]
    fn source_current_is_recorded() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("v", a, Circuit::GND, 2.0);
        c.resistor("r", a, Circuit::GND, 1000.0);
        let res = transient(&c, &TranOptions::to(1e-8)).unwrap();
        let i = res.source_current("v").unwrap();
        // 2 mA out of the source → branch current −2 mA by convention.
        assert!((i.final_value().unwrap() + 0.002).abs() < 1e-8);
        assert!(res.source_current("zz").is_none());
    }

    /// With intrinsic MOSFET capacitances enabled, the driving source
    /// must supply gate current, the output shows Miller kickback, and
    /// the delay grows relative to the cap-free device at equal explicit
    /// load.
    #[test]
    fn intrinsic_mos_caps_load_the_driver() {
        use crate::mos::MosCaps;
        let build = |with_caps: bool| {
            let mut c = Circuit::new();
            let vdd_n = c.node("vdd");
            let out = c.node("out");
            let inp = c.node("in");
            let mut nm = MosModel::nmos(0.35, 100e-6);
            let mut pm = MosModel::pmos(0.35, 40e-6);
            if with_caps {
                let caps = MosCaps::split(1.7e-15, 1.0e-15);
                nm = nm.with_caps(caps);
                pm = pm.with_caps(caps);
            }
            let nmid = c.add_model(nm);
            let pmid = c.add_model(pm);
            c.vsource("vdd", vdd_n, Circuit::GND, 1.2);
            // Drive through a resistor so gate current is observable as
            // an RC delay on the gate node.
            let drv = c.node("drv");
            c.vsource(
                "vin",
                drv,
                Circuit::GND,
                SourceWave::ramp(0.2e-9, 0.05e-9, 0.0, 1.2),
            );
            c.resistor("rg", drv, inp, 5_000.0);
            c.mosfet("mp", out, inp, vdd_n, vdd_n, pmid, 8.0);
            c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nmid, 4.0);
            c.capacitor("cl", out, Circuit::GND, 20e-15);
            // A tiny keeper cap so the gate node is never purely
            // resistive in the cap-free variant.
            c.capacitor("cg0", inp, Circuit::GND, 1e-18);
            (c, inp, out)
        };
        let run = |with_caps: bool| {
            let (c, inp, out) = build(with_caps);
            let res = transient(&c, &TranOptions::to(6e-9).with_dt(2e-12)).unwrap();
            let w_in = res.waveform(inp).unwrap();
            let w_out = res.waveform(out).unwrap();
            let d = mtk_num::waveform::propagation_delay(&w_in, &w_out, 0.6, 0.0).unwrap();
            // Gate arrival: when the gate node itself crosses 50%.
            let gate_cross = w_in
                .first_crossing(0.6, mtk_num::waveform::Edge::Rising, 0.0)
                .unwrap()
                .time;
            (d, gate_cross, w_out.max_value().unwrap())
        };
        let (d0, g0, peak0) = run(false);
        let (d1, g1, peak1) = run(true);
        // Gate RC: with real gate capacitance the gate node lags.
        assert!(g1 > g0 + 1e-12, "gate crossing {g1} vs {g0}");
        // Miller kickback: the falling output is coupled upward first.
        assert!(peak1 > peak0 + 1e-4, "miller peak {peak1} vs {peak0}");
        let _ = (d0, d1);
    }

    #[test]
    fn dyn_caps_collects_mosfet_intrinsics() {
        use crate::mos::MosCaps;
        use crate::solver::collect_dyn_caps;
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let m_plain = c.add_model(MosModel::nmos(0.35, 100e-6));
        let m_caps =
            c.add_model(MosModel::nmos(0.35, 100e-6).with_caps(MosCaps::split(2e-15, 1e-15)));
        c.capacitor("c1", d, Circuit::GND, 5e-15);
        c.mosfet("m1", d, g, Circuit::GND, Circuit::GND, m_plain, 2.0);
        c.mosfet("m2", d, g, Circuit::GND, Circuit::GND, m_caps, 2.0);
        let caps = collect_dyn_caps(&c);
        // 1 explicit + 3 intrinsic for m2 (csb collapses: s == b are both
        // ground → same node, dropped).
        assert_eq!(caps.len(), 4, "{caps:?}");
        assert!((caps[0].farads - 5e-15).abs() < 1e-21);
        // cgs = 1e-15 * 2.0 (per-W/L times W/L).
        assert!((caps[1].farads - 2e-15).abs() < 1e-21);
    }

    /// A tight Newton budget on a hard-switching inverter forces the
    /// step-halving fallback: at the nominal dt the per-step voltage
    /// swing exceeds what the damped iteration budget can cover, so
    /// steps fail, halve, and the counter records it.
    #[test]
    fn crippled_newton_forces_dt_halving() {
        let mut c = Circuit::new();
        let vdd_n = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        let vdd = 1.2;
        c.vsource("vdd", vdd_n, Circuit::GND, vdd);
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1e-10, 1e-11, 0.0, vdd),
        );
        c.mosfet("mp", out, inp, vdd_n, vdd_n, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        c.capacitor("cl", out, Circuit::GND, 50e-15);
        let mut opts = TranOptions::to(3e-9).with_dt(5e-11);
        opts.newton = NewtonOptions {
            max_iter: 2,
            max_dv: 0.005,
            ..NewtonOptions::default()
        };
        // The initial operating point keeps the default (healthy) Newton
        // budget — only the stepping is crippled.
        let healthy = transient(&c, &TranOptions::to(3e-9).with_dt(5e-11)).unwrap();
        assert_eq!(healthy.dt_halvings, 0, "healthy run must not halve");
        let res = transient(&c, &opts).unwrap();
        assert!(res.dt_halvings > 0, "expected halvings, got none");
        // Degraded stepping still reaches the right settled state.
        let w_out = res.waveform(out).unwrap();
        assert!(w_out.final_value().unwrap() < 0.05);
    }

    /// With halving ruled out, a failed step surfaces the Newton failure
    /// with the step's context text, formatted only on that failure.
    #[test]
    fn failed_step_names_its_time_in_the_error() {
        let mut c = Circuit::new();
        let vdd_n = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd_n, Circuit::GND, 1.2);
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1e-10, 1e-11, 0.0, 1.2),
        );
        c.mosfet("mp", out, inp, vdd_n, vdd_n, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        c.capacitor("cl", out, Circuit::GND, 50e-15);
        let mut opts = TranOptions::to(3e-9).with_dt(5e-11);
        opts.dt_min = opts.dt;
        opts.newton = NewtonOptions {
            max_iter: 2,
            max_dv: 0.005,
            ..NewtonOptions::default()
        };
        match transient(&c, &opts) {
            Err(SpiceError::NewtonFailed {
                context,
                iterations,
            }) => {
                assert_eq!(context, "transient @ t=1.1000e-10");
                assert_eq!(iterations, 2);
            }
            other => panic!("expected a Newton failure, got {other:?}"),
        }
    }

    #[test]
    fn invalid_options_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("r", a, Circuit::GND, 1.0);
        assert!(transient(&c, &TranOptions::to(-1.0)).is_err());
        let mut o = TranOptions::to(1.0);
        o.dt = 0.0;
        assert!(transient(&c, &o).is_err());
    }
}
