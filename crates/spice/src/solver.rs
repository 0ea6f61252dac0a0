//! MNA assembly and the Newton–Raphson solve shared by every analysis.
//!
//! The unknown vector is laid out as all non-ground node voltages
//! (node `k` ↦ index `k − 1`) followed by one branch current per voltage
//! source, in device order.
//!
//! Every Newton iteration re-stamps the same `(row, col)` triplet
//! sequence with new values. [`NewtonSolver`] therefore sorts the stamps
//! once per sequence into a [`StampMap`] and afterwards scatters values
//! straight into the RCM-permuted matrix; only the stamping, the scatter
//! and the numeric LU (pivot search included) run per iteration.

use crate::circuit::{Circuit, DeviceKind, NodeId};
use crate::mos::mos_eval;
use crate::{Result, SpiceError};
use mtk_num::ordering::reverse_cuthill_mckee;
use mtk_num::sparse::{LuWorkspace, SparseRows, StampMap, Triplets};
use std::fmt;

/// Integration method for the capacitor companion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Trapezoidal rule (second order; the default).
    #[default]
    Trapezoidal,
    /// Backward Euler (first order, more damped).
    BackwardEuler,
}

/// Per-capacitor dynamic state carried between time steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapState {
    /// Voltage across the capacitor at the last accepted step.
    pub v: f64,
    /// Current through the capacitor at the last accepted step.
    pub i: f64,
}

/// A lowered linear capacitance the transient engine integrates: explicit
/// capacitor devices plus the intrinsic terminal capacitances of MOSFETs
/// whose model enables them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynCap {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Capacitance in farads.
    pub farads: f64,
}

/// Lowers a circuit's capacitive content into a flat [`DynCap`] list
/// (explicit capacitors in device order, then per-MOSFET intrinsic caps).
pub fn collect_dyn_caps(circuit: &Circuit) -> Vec<DynCap> {
    let mut out = Vec::new();
    for dev in circuit.devices() {
        match &dev.kind {
            DeviceKind::Capacitor { a, b, farads } => out.push(DynCap {
                a: *a,
                b: *b,
                farads: *farads,
            }),
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w_over_l,
            } => {
                if let Some(caps) = circuit.model(*model).caps {
                    for (na, nb, c_per) in [
                        (*g, *s, caps.cgs),
                        (*g, *d, caps.cgd),
                        (*d, *b, caps.cdb),
                        (*s, *b, caps.csb),
                    ] {
                        let farads = c_per * w_over_l;
                        if farads > 0.0 && na != nb {
                            out.push(DynCap {
                                a: na,
                                b: nb,
                                farads,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// What the stamps should describe.
#[derive(Debug, Clone, Copy)]
pub enum StampMode<'a> {
    /// DC operating point: capacitors open, sources at `t = 0` (or their
    /// DC value), optional forcing of initial-condition nodes.
    Dc {
        /// Extra conductance to ground on every node (g<sub>min</sub>
        /// stepping).
        gmin: f64,
        /// When true, initial conditions are forced through a large
        /// conductance.
        force_ics: bool,
    },
    /// A transient step from the previous accepted state to time `t`.
    Tran {
        /// Time being solved for (end of the step).
        t: f64,
        /// Step size.
        dt: f64,
        /// Baseline conductance to ground on every node.
        gmin: f64,
        /// Integration method.
        method: Integrator,
        /// The lowered capacitances (see [`collect_dyn_caps`]).
        caps: &'a [DynCap],
        /// Capacitor states at the previous accepted step, parallel to
        /// `caps`.
        cap_states: &'a [CapState],
    },
}

/// Index of a node voltage in the unknown vector, or `None` for ground.
fn node_index(n: NodeId) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Computes the branch-unknown index for each voltage source, in device
/// order, offset past the node voltages.
pub fn branch_indices(circuit: &Circuit) -> Vec<Option<usize>> {
    let base = circuit.node_count() - 1;
    let mut next = 0usize;
    circuit
        .devices()
        .iter()
        .map(|d| {
            if matches!(d.kind, DeviceKind::Vsource { .. }) {
                let idx = base + next;
                next += 1;
                Some(idx)
            } else {
                None
            }
        })
        .collect()
}

/// Conductance used to force initial-condition nodes during the OP solve.
const IC_FORCE_G: f64 = 1e6;

/// Assembles the linearized MNA system `J Δ… = rhs` about the iterate `x`.
///
/// On return `a` holds the Jacobian and `rhs` the full Newton right-hand
/// side (for the standard "solve for next iterate directly" formulation:
/// `J x_next = rhs`).
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    mode: StampMode<'_>,
    branches: &[Option<usize>],
    a: &mut Triplets,
    rhs: &mut [f64],
) {
    a.clear();
    rhs.fill(0.0);
    let v = |n: NodeId| -> f64 {
        match node_index(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    };
    // Baseline gmin on every node keeps floating internal nodes solvable.
    let gmin = match mode {
        StampMode::Dc { gmin, .. } => gmin,
        StampMode::Tran { gmin, .. } => gmin,
    };
    for i in 0..(circuit.node_count() - 1) {
        a.add(i, i, gmin);
    }
    if let StampMode::Dc {
        force_ics: true, ..
    } = mode
    {
        for &(node, volts) in circuit.initial_conditions() {
            if let Some(i) = node_index(node) {
                a.add(i, i, IC_FORCE_G);
                rhs[i] += IC_FORCE_G * volts;
            }
        }
    }

    let t_now = match mode {
        StampMode::Dc { .. } => 0.0,
        StampMode::Tran { t, .. } => t,
    };

    // Capacitive companions (transient only), over the lowered cap list.
    if let StampMode::Tran {
        dt,
        method,
        caps,
        cap_states,
        ..
    } = mode
    {
        for (k, cap) in caps.iter().enumerate() {
            let state = cap_states[k];
            let (geq, ieq) = match method {
                Integrator::Trapezoidal => {
                    let geq = 2.0 * cap.farads / dt;
                    (geq, -geq * state.v - state.i)
                }
                Integrator::BackwardEuler => {
                    let geq = cap.farads / dt;
                    (geq, -geq * state.v)
                }
            };
            // i = geq * v + ieq flowing a→b inside the capacitor.
            stamp_conductance(a, node_index(cap.a), node_index(cap.b), geq);
            stamp_current(rhs, node_index(cap.a), node_index(cap.b), ieq);
        }
    }

    for (dev_idx, dev) in circuit.devices().iter().enumerate() {
        match &dev.kind {
            DeviceKind::Resistor {
                a: na,
                b: nb,
                conductance,
            } => {
                stamp_conductance(a, node_index(*na), node_index(*nb), *conductance);
            }
            DeviceKind::Capacitor { .. } => {
                // Handled via the lowered cap list above; open at DC.
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                let bi = branches[dev_idx].expect("vsource must have a branch");
                if let Some(p) = node_index(*pos) {
                    a.add(p, bi, 1.0);
                    a.add(bi, p, 1.0);
                }
                if let Some(n) = node_index(*neg) {
                    a.add(n, bi, -1.0);
                    a.add(bi, n, -1.0);
                }
                rhs[bi] += wave.value(t_now);
            }
            DeviceKind::Isource { from, to, wave } => {
                let i = wave.value(t_now);
                // Current leaves `from`, enters `to`.
                stamp_current(rhs, node_index(*from), node_index(*to), i);
            }
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w_over_l,
            } => {
                let m = circuit.model(*model);
                let ev = mos_eval(m, *w_over_l, v(*g), v(*d), v(*s), v(*b));
                // Linearized drain current:
                //   id ≈ ev.id + Σ ∂id/∂vt · (vt_next − vt_now)
                // KCL: +id leaves node d, enters node s.
                let ieq =
                    ev.id - ev.d_vg * v(*g) - ev.d_vd * v(*d) - ev.d_vs * v(*s) - ev.d_vb * v(*b);
                for (node, gpart) in [(*g, ev.d_vg), (*d, ev.d_vd), (*s, ev.d_vs), (*b, ev.d_vb)] {
                    if let Some(col) = node_index(node) {
                        if let Some(row) = node_index(*d) {
                            a.add(row, col, gpart);
                        }
                        if let Some(row) = node_index(*s) {
                            a.add(row, col, -gpart);
                        }
                    }
                }
                stamp_current(rhs, node_index(*d), node_index(*s), ieq);
            }
        }
    }
}

fn stamp_conductance(a: &mut Triplets, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(i) = ia {
        a.add(i, i, g);
        if let Some(j) = ib {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = ib {
        a.add(j, j, g);
        if let Some(i) = ia {
            a.add(j, i, -g);
        }
    }
}

/// Stamps a current `i` flowing out of node `from` into node `to`
/// (through the device) into the right-hand side.
fn stamp_current(rhs: &mut [f64], from: Option<usize>, to: Option<usize>, i: f64) {
    if let Some(f) = from {
        rhs[f] -= i;
    }
    if let Some(t) = to {
        rhs[t] += i;
    }
}

/// Convergence and iteration options for the Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Relative tolerance on unknown updates.
    pub reltol: f64,
    /// Absolute voltage tolerance, volts.
    pub vabstol: f64,
    /// Absolute current tolerance (branch unknowns), amperes.
    pub iabstol: f64,
    /// Per-iteration clamp on voltage updates, volts (Newton damping).
    pub max_dv: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 120,
            reltol: 1e-4,
            vabstol: 1e-7,
            iabstol: 1e-10,
            max_dv: 0.5,
        }
    }
}

/// A reusable Newton solver for one circuit: owns the workspace and the
/// fill-reducing ordering (computed once from the first assembled
/// pattern).
///
/// Factorization is split into a *symbolic* phase and a *numeric*
/// phase. The symbolic phase derives the RCM ordering from the first
/// assembled pattern ever seen, and builds a [`StampMap`] for the
/// current triplet `(row, col)` sequence. It reruns only when that
/// sequence changes, e.g. from operating-point to transient stamps.
/// Every later iteration compares the sequence and scatters the new
/// values straight into the permuted matrix. The partial-pivot *search*
/// still runs inside every numeric factorization — freezing the pivot
/// sequence would change rounding the moment values drift — so the
/// results are bitwise-identical to assembling, permuting and factoring
/// from scratch.
///
/// [`NewtonSolver::lu_pattern_reuses`] counts factorizations whose
/// *assembled* pattern equals the previous one, as it did before the
/// stamp map existed: a new triplet sequence that assembles to the same
/// pattern (forced initial conditions add duplicate diagonal stamps)
/// rebuilds the map but still counts as a reuse.
#[derive(Debug)]
pub struct NewtonSolver {
    branches: Vec<Option<usize>>,
    n: usize,
    a: Triplets,
    rhs: Vec<f64>,
    order: Option<Vec<usize>>,
    /// Inverse of `order`: position of each original unknown.
    pos: Vec<usize>,
    /// Newton iterations spent over the solver's whole lifetime,
    /// converged or not — the raw material of the
    /// `newton_iterations` trace counter.
    total_iterations: usize,
    /// Where each stamp of the current triplet sequence lands in `perm`.
    map: Option<StampMap>,
    /// The assembled matrix under the symmetric RCM permutation, buffers
    /// reused while the triplet sequence is unchanged.
    perm: SparseRows,
    /// Reusable numeric factor-and-solve buffers.
    lu: LuWorkspace,
    rhs_perm: Vec<f64>,
    y: Vec<f64>,
    x_new: Vec<f64>,
    /// Factorizations that reused the cached symbolic phase.
    pattern_reuses: usize,
}

impl NewtonSolver {
    /// Creates a solver sized for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.unknown_count();
        NewtonSolver {
            branches: branch_indices(circuit),
            n,
            a: Triplets::new(n),
            rhs: vec![0.0; n],
            order: None,
            pos: Vec::new(),
            total_iterations: 0,
            map: None,
            perm: SparseRows::empty(n),
            lu: LuWorkspace::new(),
            rhs_perm: Vec::new(),
            y: Vec::new(),
            x_new: Vec::new(),
            pattern_reuses: 0,
        }
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.n
    }

    /// Newton iterations spent across every [`NewtonSolver::solve`] call
    /// on this solver, including non-converged attempts (that work was
    /// still paid for). Feeds the `newton_iterations` counter of the
    /// [`mtk_trace`] registry.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// Factorizations whose assembled sparsity pattern equalled the
    /// previous factorization's, over this solver's lifetime (the first
    /// factorization never counts). Feeds the `lu_pattern_reuses`
    /// counter of the [`mtk_trace`] registry.
    pub fn lu_pattern_reuses(&self) -> usize {
        self.pattern_reuses
    }

    /// Runs Newton iteration from `x0` for the given stamp mode.
    ///
    /// Returns the converged solution and the number of iterations used.
    /// `context` names the solve in error messages; it is formatted only
    /// when an error is built, so `format_args!` costs nothing on success.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NewtonFailed`] if the iteration does not converge.
    /// * [`SpiceError::Singular`] if the Jacobian is singular.
    pub fn solve(
        &mut self,
        circuit: &Circuit,
        x0: &[f64],
        mode: StampMode<'_>,
        opts: &NewtonOptions,
        context: impl fmt::Display,
    ) -> Result<(Vec<f64>, usize)> {
        let n = self.n;
        let n_nodes = circuit.node_count() - 1;
        let mut x = x0.to_vec();
        debug_assert_eq!(x.len(), n);
        for iter in 0..opts.max_iter {
            assemble(
                circuit,
                &x,
                mode,
                &self.branches,
                &mut self.a,
                &mut self.rhs,
            );
            self.factor_and_solve(circuit, &context)?;
            let x_new = &self.x_new;
            // Convergence check + damping.
            let mut converged = true;
            for i in 0..n {
                let mut dx = x_new[i] - x[i];
                let is_voltage = i < n_nodes;
                let tol = if is_voltage {
                    opts.vabstol + opts.reltol * x_new[i].abs().max(x[i].abs())
                } else {
                    opts.iabstol + opts.reltol * x_new[i].abs().max(x[i].abs())
                };
                // `>` is false for NaN, so a non-finite iterate is
                // rejected on its own.
                if dx.abs() > tol || !x_new[i].is_finite() {
                    converged = false;
                }
                // The first step is taken undamped so linear parts of the
                // circuit (sources, dividers) land exactly; later
                // corrections are clamped to keep the MOSFET linearization
                // honest.
                if iter > 0 && is_voltage && dx.abs() > opts.max_dv {
                    dx = dx.signum() * opts.max_dv;
                }
                x[i] += dx;
            }
            if converged {
                self.total_iterations += iter + 1;
                return Ok((x, iter + 1));
            }
        }
        self.total_iterations += opts.max_iter;
        Err(SpiceError::NewtonFailed {
            context: context.to_string(),
            iterations: opts.max_iter,
        })
    }

    /// Assembles, factors and solves the current linearization into
    /// `self.x_new`, reusing the stamp map when the triplet sequence is
    /// unchanged since the previous call.
    fn factor_and_solve(&mut self, circuit: &Circuit, context: &dyn fmt::Display) -> Result<()> {
        let first = self.order.is_none();
        if first {
            // Derive the ordering from the first pattern ever seen (stamp
            // modes that add entries, e.g. transient cap companions, keep
            // the original ordering — RCM quality barely changes and the
            // permutation staying put keeps results reproducible across
            // call sequences).
            let order = reverse_cuthill_mckee(&self.a.to_rows().symmetric_adjacency());
            let mut pos = vec![0usize; order.len()];
            for (k, &orig) in order.iter().enumerate() {
                pos[orig] = k;
            }
            self.order = Some(order);
            self.pos = pos;
        }
        match &self.map {
            Some(map) if map.matches(&self.a) => {
                self.pattern_reuses += 1;
                map.scatter(&self.a, &mut self.perm);
            }
            _ => {
                let (map, perm) = StampMap::new(&self.a, &self.pos);
                if !first && self.perm.same_pattern(&perm.pattern()) {
                    self.pattern_reuses += 1;
                }
                self.map = Some(map);
                self.perm = perm;
            }
        }
        let order = self.order.as_ref().expect("order just computed");
        self.rhs_perm.clear();
        self.rhs_perm.extend(order.iter().map(|&i| self.rhs[i]));
        self.lu
            .factor_solve(&self.perm, &self.rhs_perm, &mut self.y)
            .map_err(|e| match e {
                mtk_num::NumError::SingularMatrix { step } => SpiceError::Singular {
                    unknown: self
                        .describe_unknown(circuit, order.get(step).copied().unwrap_or(step)),
                },
                other => SpiceError::InvalidParameter(format!("{context}: {other}")),
            })?;
        self.x_new.clear();
        let (x_new, y, pos) = (&mut self.x_new, &self.y, &self.pos);
        x_new.extend(pos.iter().map(|&p| y[p]));
        Ok(())
    }

    fn describe_unknown(&self, circuit: &Circuit, idx: usize) -> String {
        let n_nodes = circuit.node_count() - 1;
        if idx < n_nodes {
            format!("v({})", circuit.node_name(NodeId(idx + 1)))
        } else {
            format!("branch current #{}", idx - n_nodes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{operating_point, DcOptions};
    use crate::mos::MosModel;
    use crate::source::SourceWave;
    use crate::tran::{transient, TranOptions};

    #[test]
    fn branch_indices_follow_device_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor("r", a, b, 1.0);
        c.vsource("v1", a, Circuit::GND, 1.0);
        c.vsource("v2", b, Circuit::GND, 2.0);
        let bi = branch_indices(&c);
        assert_eq!(bi, vec![None, Some(2), Some(3)]);
    }

    #[test]
    fn linear_divider_solves_in_one_iteration_family() {
        // v1 -- r1 -- mid -- r2 -- gnd, 10 V across 1k + 4k: mid = 8 V.
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, 10.0);
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 4000.0);
        let mut s = NewtonSolver::new(&c);
        let x0 = vec![0.0; s.unknowns()];
        let (x, iters) = s
            .solve(
                &c,
                &x0,
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: false,
                },
                &NewtonOptions::default(),
                "test",
            )
            .unwrap();
        assert!((x[mid.index() - 1] - 8.0).abs() < 1e-6, "{x:?}");
        assert!((x[top.index() - 1] - 10.0).abs() < 1e-9);
        // Branch current = 10 V / 5 kΩ = 2 mA flowing out of the source's
        // positive terminal into the divider (sign: into pos node).
        assert!((x[2] + 0.002).abs() < 1e-9, "{x:?}");
        // Linear circuit: must converge immediately after the damping pass.
        assert!(iters <= 3, "{iters}");
    }

    #[test]
    fn floating_node_survives_via_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let float = c.node("float");
        c.vsource("v1", a, Circuit::GND, 1.0);
        c.resistor("r1", a, Circuit::GND, 100.0);
        // `float` has no DC path: only gmin holds it at 0.
        c.capacitor("c1", float, Circuit::GND, 1e-12);
        let mut s = NewtonSolver::new(&c);
        let x0 = vec![0.0; s.unknowns()];
        let (x, _) = s
            .solve(
                &c,
                &x0,
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: false,
                },
                &NewtonOptions::default(),
                "test",
            )
            .unwrap();
        assert!(x[float.index() - 1].abs() < 1e-9);
    }

    #[test]
    fn nonlinear_inverter_op_converges() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd, Circuit::GND, 1.2);
        c.vsource("vin", inp, Circuit::GND, 0.0);
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        let mut s = NewtonSolver::new(&c);
        let x0 = vec![0.0; s.unknowns()];
        let (x, _) = s
            .solve(
                &c,
                &x0,
                StampMode::Dc {
                    gmin: 1e-9,
                    force_ics: false,
                },
                &NewtonOptions::default(),
                "test",
            )
            .unwrap();
        // Input low → output pulled to vdd by the PMOS.
        assert!((x[out.index() - 1] - 1.2).abs() < 1e-3, "{x:?}");
    }

    /// `lu_pattern_reuses` counts factorizations whose *assembled* pattern
    /// equals the previous one, not reuses of the stamp map: forced ICs
    /// change the triplet keys (duplicate diagonal stamps) but not the
    /// pattern, so every forced-IC iteration counts, while the transient
    /// companions' new off-diagonal entries cost exactly one miss. The
    /// counter feeds deterministic traces, so its definition is pinned.
    #[test]
    fn pattern_reuses_count_assembled_patterns_not_stamp_sequences() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd, Circuit::GND, 1.2);
        c.vsource("vin", inp, Circuit::GND, 0.0);
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        c.capacitor("cm", out, inp, 5e-15);
        c.set_ic(out, 1.2);
        let caps = collect_dyn_caps(&c);
        let states = vec![CapState::default(); caps.len()];
        let dc = StampMode::Dc {
            gmin: 1e-12,
            force_ics: false,
        };
        let ic = StampMode::Dc {
            gmin: 1e-12,
            force_ics: true,
        };
        let tran = StampMode::Tran {
            t: 1e-11,
            dt: 1e-11,
            gmin: 1e-12,
            method: Integrator::Trapezoidal,
            caps: &caps,
            cap_states: &states,
        };

        // The premise: keys change at every mode switch, the assembled
        // pattern only at the transient one.
        let n = c.unknown_count();
        let branches = branch_indices(&c);
        let stamps = |mode| {
            let mut t = Triplets::new(n);
            assemble(
                &c,
                &vec![0.0; n],
                mode,
                &branches,
                &mut t,
                &mut vec![0.0; n],
            );
            t
        };
        let (t_dc, t_ic, t_tran) = (stamps(dc), stamps(ic), stamps(tran));
        assert_ne!(t_dc.len(), t_ic.len());
        assert_eq!(t_dc.to_rows().pattern(), t_ic.to_rows().pattern());
        assert_ne!(t_ic.to_rows().pattern(), t_tran.to_rows().pattern());

        let mut s = NewtonSolver::new(&c);
        let opts = NewtonOptions::default();
        let (x, n_dc) = s.solve(&c, &vec![0.0; n], dc, &opts, "dc").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1);
        let (x, n_ic) = s.solve(&c, &x, ic, &opts, "ic").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1 + n_ic);
        let (_, n_tran) = s.solve(&c, &x, tran, &opts, "tran").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1 + n_ic + n_tran - 1);
        assert!(n_ic > 0 && n_tran > 1, "{n_ic} {n_tran}");
    }

    /// A divider fed by `wave`; where the source reads NaN, so does
    /// every Newton iterate.
    fn nan_divider(wave: SourceWave) -> Circuit {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, wave);
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 4000.0);
        c.capacitor("c1", mid, Circuit::GND, 1e-15);
        c
    }

    /// A NaN update used to pass the `dx > tol` test, so the operating
    /// point returned `Ok` with NaN node voltages after one iteration.
    #[test]
    fn nan_iterate_never_converges_at_dc() {
        let c = nan_divider(SourceWave::Dc(f64::NAN));
        match operating_point(&c, &DcOptions::default()) {
            Err(SpiceError::NewtonFailed { context, .. }) => {
                assert!(context.contains("gmin stage"), "{context}")
            }
            other => panic!("expected NewtonFailed, got {other:?}"),
        }
    }

    /// A source that turns NaN mid-run: the transient halves its step
    /// down to the floor and then fails, instead of recording NaN samples
    /// that `TranResult::waveform` would panic on.
    #[test]
    fn nan_iterate_fails_a_transient_step() {
        let c = nan_divider(SourceWave::pulse(1.0, f64::NAN, 1e-9, 0.0, 0.0, 1e-9, 0.0));
        match transient(&c, &TranOptions::to(4e-9)) {
            Err(SpiceError::NewtonFailed { context, .. }) => {
                assert!(context.contains("transient"), "{context}")
            }
            other => panic!("expected NewtonFailed, got {other:?}"),
        }
    }

    #[test]
    fn ic_forcing_pins_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("r", a, Circuit::GND, 1e9);
        c.set_ic(a, 0.7);
        let mut s = NewtonSolver::new(&c);
        let x0 = vec![0.0; s.unknowns()];
        let (x, _) = s
            .solve(
                &c,
                &x0,
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: true,
                },
                &NewtonOptions::default(),
                "test",
            )
            .unwrap();
        assert!((x[0] - 0.7).abs() < 1e-3);
    }
}
