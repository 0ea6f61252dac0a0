//! MNA assembly and the Newton–Raphson solve shared by every analysis.
//!
//! The unknown vector is laid out as all non-ground node voltages
//! (node `k` ↦ index `k − 1`) followed by one branch current per voltage
//! source, in device order.
//!
//! Assembly runs in two steps. Lowering turns the circuit once into flat
//! stamp records, one per device in device order (`u32` unknown indices
//! with a ground sentinel, the model card, W/L, the branch index), and
//! `(a, b, farads)` per capacitance. One emitter, generic over its sink, then writes an
//! iterate's stamps in a fixed order: g<sub>min</sub>, forced initial
//! conditions, capacitor companions, then the devices in device order.
//! [`assemble`] lowers and emits into [`Triplets`]. [`NewtonSolver`]
//! lowers once, when it is built, and its iterations emit values only.
//!
//! The `(row, col)` sequence the emitter writes depends only on the
//! circuit and the mode's shape: DC, DC with forced initial conditions,
//! or transient with its capacitor list. A [`NewtonSolver`] therefore
//! sorts the sequence into a [`StampMap`] once per shape, checking the
//! shape once per [`NewtonSolver::solve`] call. Each iteration then
//! gathers the values straight into the RCM-permuted matrix's entries in
//! flat form (the map's [`CsrPattern`](mtk_num::sparse::CsrPattern) plus
//! one value per entry), summing every slot's duplicates in the order
//! [`Triplets::assemble_into`] would, and hands that form to the LU as it
//! is. Only the value emission, the gather and the numeric LU (pivot
//! search included) run per iteration.

use crate::circuit::{Circuit, DeviceKind, NodeId};
use crate::mos::{mos_eval_with, MosConsts, MosModel};
use crate::source::SourceWave;
use crate::{Result, SpiceError};
use mtk_num::ordering::reverse_cuthill_mckee;
use mtk_num::sparse::{LuWorkspace, ReplayStats, SparseRows, StampMap, Triplets};
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
/// `J x_next = rhs`). Each call lowers the circuit afresh; a
/// [`NewtonSolver`] lowers once and emits the same values without the
/// `(row, col)` keys.
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    mode: StampMode<'_>,
    branches: &[Option<usize>],
    a: &mut Triplets,
    rhs: &mut [f64],
) {
    a.clear();
    let caps = match mode {
        StampMode::Dc { .. } => Vec::new(),
        StampMode::Tran { caps, .. } => lower_caps(caps),
    };
    Lowered::new(circuit, branches).emit(x, mode, &caps, a, rhs);
}

/// An unknown index in a lowered stamp record, or [`GND`].
type Slot = u32;

/// The ground node in a lowered stamp record: it has no unknown, so its
/// stamps are dropped and its voltage reads as `0.0`.
const GND: Slot = u32::MAX;

/// The unknown index of a node voltage, or [`GND`].
fn slot(n: NodeId) -> Slot {
    if n.is_ground() {
        GND
    } else {
        Slot::try_from(n.index() - 1).expect("node index fits in u32")
    }
}

/// A lowered capacitance between `a` and `b`.
#[derive(Debug, Clone, Copy)]
struct Cap {
    a: Slot,
    b: Slot,
    farads: f64,
}

/// Lowers a capacitance list (see [`collect_dyn_caps`]).
fn lower_caps(caps: &[DynCap]) -> Vec<Cap> {
    caps.iter()
        .map(|c| Cap {
            a: slot(c.a),
            b: slot(c.b),
            farads: c.farads,
        })
        .collect()
}

/// A lowered device that stamps in the device loop (capacitors stamp
/// through the lowered capacitance list instead).
#[derive(Debug, Clone, Copy)]
enum Dev<'c> {
    Resistor {
        a: Slot,
        b: Slot,
        conductance: f64,
    },
    /// `branch` is the source's branch unknown.
    Vsource {
        pos: Slot,
        neg: Slot,
        branch: Slot,
        wave: &'c SourceWave,
    },
    /// The current leaves `from` and enters `to`.
    Isource {
        from: Slot,
        to: Slot,
        wave: &'c SourceWave,
    },
    /// `consts` are the model card's and W/L's, computed at lowering.
    Mosfet {
        d: Slot,
        g: Slot,
        s: Slot,
        b: Slot,
        model: &'c MosModel,
        w_over_l: f64,
        consts: MosConsts,
    },
}

/// A circuit lowered into flat stamp records.
#[derive(Debug)]
struct Lowered<'c> {
    n_nodes: usize,
    /// Initial conditions on non-ground nodes, in declaration order.
    ics: Vec<(Slot, f64)>,
    /// The stamping devices, in device order.
    devs: Vec<Dev<'c>>,
}

/// Where an emitter writes its matrix stamps.
trait Sink {
    fn add(&mut self, row: Slot, col: Slot, value: f64);
}

impl Sink for Triplets {
    fn add(&mut self, row: Slot, col: Slot, value: f64) {
        Triplets::add(self, row as usize, col as usize, value);
    }
}

/// The values-only sink: stamp `k` of the sequence goes to slot `k` of
/// a buffer that holds one slot per stamp.
struct Values<'a>(std::slice::IterMut<'a, f64>);

impl Sink for Values<'_> {
    fn add(&mut self, _row: Slot, _col: Slot, value: f64) {
        *self.0.next().expect("one slot per stamp") = value;
    }
}

impl<'c> Lowered<'c> {
    /// Lowers `circuit`, whose voltage sources own the branch unknowns
    /// `branches` (see [`branch_indices`]).
    ///
    /// # Panics
    ///
    /// Panics if a voltage source has no branch, or if the unknowns do
    /// not fit in `u32`.
    fn new(circuit: &'c Circuit, branches: &[Option<usize>]) -> Self {
        assert!(
            circuit.unknown_count() < GND as usize,
            "unknown indices must fit in u32"
        );
        let devs = circuit
            .devices()
            .iter()
            .enumerate()
            .filter_map(|(dev_idx, dev)| {
                Some(match &dev.kind {
                    &DeviceKind::Resistor { a, b, conductance } => Dev::Resistor {
                        a: slot(a),
                        b: slot(b),
                        conductance,
                    },
                    DeviceKind::Capacitor { .. } => return None,
                    DeviceKind::Vsource { pos, neg, wave } => Dev::Vsource {
                        pos: slot(*pos),
                        neg: slot(*neg),
                        branch: branches[dev_idx].expect("vsource must have a branch") as Slot,
                        wave,
                    },
                    DeviceKind::Isource { from, to, wave } => Dev::Isource {
                        from: slot(*from),
                        to: slot(*to),
                        wave,
                    },
                    &DeviceKind::Mosfet {
                        d,
                        g,
                        s,
                        b,
                        model,
                        w_over_l,
                    } => {
                        let model = circuit.model(model);
                        Dev::Mosfet {
                            d: slot(d),
                            g: slot(g),
                            s: slot(s),
                            b: slot(b),
                            model,
                            w_over_l,
                            consts: MosConsts::new(model, w_over_l),
                        }
                    }
                })
            })
            .collect();
        Lowered {
            n_nodes: circuit.node_count() - 1,
            ics: circuit
                .initial_conditions()
                .iter()
                .filter(|(node, _)| !node.is_ground())
                .map(|&(node, volts)| (slot(node), volts))
                .collect(),
            devs,
        }
    }

    /// Stamps the linearization about `x` in `mode` into `sink` and
    /// `rhs`, reading the capacitances from `caps` (the lowered
    /// `mode.caps`), in a sequence that depends only on the lowered
    /// records and the mode's shape.
    fn emit(
        &self,
        x: &[f64],
        mode: StampMode<'_>,
        caps: &[Cap],
        sink: &mut impl Sink,
        rhs: &mut [f64],
    ) {
        rhs.fill(0.0);
        let v = |n: Slot| if n == GND { 0.0 } else { x[n as usize] };
        // Baseline gmin on every node keeps floating internal nodes solvable.
        let (gmin, t_now) = match mode {
            StampMode::Dc { gmin, .. } => (gmin, 0.0),
            StampMode::Tran { gmin, t, .. } => (gmin, t),
        };
        for i in 0..self.n_nodes as Slot {
            sink.add(i, i, gmin);
        }
        if let StampMode::Dc {
            force_ics: true, ..
        } = mode
        {
            for &(i, volts) in &self.ics {
                sink.add(i, i, IC_FORCE_G);
                rhs[i as usize] += IC_FORCE_G * volts;
            }
        }

        // Capacitive companions (transient only), over the lowered cap list.
        if let StampMode::Tran {
            dt,
            method,
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
                stamp_conductance(sink, cap.a, cap.b, geq);
                stamp_current(rhs, cap.a, cap.b, ieq);
            }
        }

        for dev in &self.devs {
            match *dev {
                Dev::Resistor { a, b, conductance } => {
                    stamp_conductance(sink, a, b, conductance);
                }
                Dev::Vsource {
                    pos,
                    neg,
                    branch,
                    wave,
                } => {
                    if pos != GND {
                        sink.add(pos, branch, 1.0);
                        sink.add(branch, pos, 1.0);
                    }
                    if neg != GND {
                        sink.add(neg, branch, -1.0);
                        sink.add(branch, neg, -1.0);
                    }
                    rhs[branch as usize] += wave.value(t_now);
                }
                Dev::Isource { from, to, wave } => {
                    stamp_current(rhs, from, to, wave.value(t_now));
                }
                Dev::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    model,
                    w_over_l,
                    consts,
                } => {
                    let (vg, vd, vs, vb) = (v(g), v(d), v(s), v(b));
                    let ev = mos_eval_with(model, w_over_l, consts, vg, vd, vs, vb);
                    // Linearized drain current:
                    //   id ≈ ev.id + Σ ∂id/∂vt · (vt_next − vt_now)
                    // KCL: +id leaves node d, enters node s.
                    let ieq = ev.id - ev.d_vg * vg - ev.d_vd * vd - ev.d_vs * vs - ev.d_vb * vb;
                    for (col, gpart) in [(g, ev.d_vg), (d, ev.d_vd), (s, ev.d_vs), (b, ev.d_vb)] {
                        if col != GND {
                            if d != GND {
                                sink.add(d, col, gpart);
                            }
                            if s != GND {
                                sink.add(s, col, -gpart);
                            }
                        }
                    }
                    stamp_current(rhs, d, s, ieq);
                }
            }
        }
    }
}

fn stamp_conductance(sink: &mut impl Sink, a: Slot, b: Slot, g: f64) {
    if a != GND {
        sink.add(a, a, g);
        if b != GND {
            sink.add(a, b, -g);
        }
    }
    if b != GND {
        sink.add(b, b, g);
        if a != GND {
            sink.add(b, a, -g);
        }
    }
}

/// Stamps a current `i` flowing out of node `from` into node `to`
/// (through the device) into the right-hand side.
fn stamp_current(rhs: &mut [f64], from: Slot, to: Slot, i: f64) {
    if from != GND {
        rhs[from as usize] -= i;
    }
    if to != GND {
        rhs[to as usize] += i;
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

/// A reusable Newton solver for one circuit: owns the lowered stamps,
/// the workspace and the fill-reducing ordering (computed once from the
/// first assembled pattern).
///
/// The solver borrows its circuit and lowers it once, when it is built
/// (see the [module docs](self)), so an iteration emits stamp values
/// only. The `(row, col)` sequence behind those values is fixed by the
/// mode's *shape*: DC, DC with forced initial conditions, or transient
/// with its capacitor list. Each [`NewtonSolver::solve`] call compares
/// its mode's shape, capacitor list included, with the one the current
/// [`StampMap`] was built for, and rebuilds the map when they differ.
/// The initial conditions are the borrowed circuit's, so they cannot
/// change under a solver.
///
/// Factorization is split into a *symbolic* phase and a *numeric*
/// phase. The symbolic phase derives the RCM ordering from the first
/// assembled pattern ever seen, and builds the [`StampMap`] of the
/// current shape, which holds the permuted matrix's pattern. Every later
/// iteration gathers the new values straight into the permuted matrix's
/// entries, summing each slot's duplicates in the order
/// [`Triplets::assemble_into`] would, and the [`LuWorkspace`] factors
/// that flat form as it is. The partial-pivot *search* still
/// runs inside every numeric factorization — freezing the pivot sequence
/// would change rounding the moment values drift — so the results are
/// bitwise-identical to assembling, permuting and factoring from
/// scratch.
///
/// [`NewtonSolver::lu_pattern_reuses`] counts factorizations whose
/// *assembled* pattern equals the previous one, as it did before the
/// stamp map existed: a new shape that assembles to the same pattern
/// (forced initial conditions add duplicate diagonal stamps) rebuilds
/// the map but still counts as a reuse.
#[derive(Debug)]
pub struct NewtonSolver<'c> {
    circuit: &'c Circuit,
    stamps: Lowered<'c>,
    n: usize,
    /// The shape of the current mode; `None` before the first load.
    shape: Option<Shape>,
    /// Whether `map` was built for another shape than `shape`.
    stale: bool,
    /// The lowered capacitance list of the current transient shape.
    caps: Vec<Cap>,
    /// One iteration's stamp values, in emission order: one slot per
    /// stamp of the current shape.
    values: Vec<f64>,
    rhs: Vec<f64>,
    order: Option<Vec<usize>>,
    /// Inverse of `order`: position of each original unknown.
    pos: Vec<usize>,
    /// Newton iterations spent over the solver's whole lifetime,
    /// converged or not — the raw material of the
    /// `newton_iterations` trace counter.
    total_iterations: usize,
    /// Where each stamp of the last shape loaded lands in the permuted
    /// matrix, and that matrix's pattern; `None` before the first load.
    map: Option<StampMap>,
    /// The permuted matrix's entries, row-major in `map`'s pattern.
    entries: Vec<f64>,
    /// The last [`NewtonSolver::linearize`]'s matrix.
    linearized: SparseRows,
    /// Reusable numeric factor-and-solve buffers.
    lu: LuWorkspace,
    rhs_perm: Vec<f64>,
    y: Vec<f64>,
    x_new: Vec<f64>,
    /// Factorizations that reused the cached symbolic phase.
    pattern_reuses: usize,
    /// Stamp maps built over the solver's lifetime.
    map_builds: usize,
}

/// What fixes a [`StampMode`]'s `(row, col)` sequence, besides the
/// circuit (a transient's capacitor list is held beside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Dc,
    DcForcedIcs,
    Tran,
}

impl<'c> NewtonSolver<'c> {
    /// Creates a solver for the circuit, lowering its stamps.
    pub fn new(circuit: &'c Circuit) -> Self {
        let n = circuit.unknown_count();
        NewtonSolver {
            circuit,
            stamps: Lowered::new(circuit, &branch_indices(circuit)),
            n,
            shape: None,
            stale: true,
            caps: Vec::new(),
            values: Vec::new(),
            rhs: vec![0.0; n],
            order: None,
            pos: Vec::new(),
            total_iterations: 0,
            map: None,
            entries: Vec::new(),
            linearized: SparseRows::empty(n),
            lu: LuWorkspace::new(),
            rhs_perm: Vec::new(),
            y: Vec::new(),
            x_new: Vec::new(),
            pattern_reuses: 0,
            map_builds: 0,
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

    /// [`StampMap`]s built over this solver's lifetime: one per change of
    /// the mode's shape (see the [type docs](NewtonSolver)). Every other
    /// iteration emits values only.
    pub fn stamp_map_builds(&self) -> usize {
        self.map_builds
    }

    /// How this solver's factorizations went: replays of an outcome plan,
    /// live-bit replays of a symbolic plan (the fallback), diverged
    /// replay attempts, and general eliminations (see [`LuWorkspace`]).
    pub fn lu_stats(&self) -> ReplayStats {
        self.lu.stats()
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
        x0: &[f64],
        mode: StampMode<'_>,
        opts: &NewtonOptions,
        context: impl fmt::Display,
    ) -> Result<(Vec<f64>, usize)> {
        let n = self.n;
        let n_nodes = self.stamps.n_nodes;
        let mut x = x0.to_vec();
        debug_assert_eq!(x.len(), n);
        self.set_shape(mode);
        for iter in 0..opts.max_iter {
            if self.load(&x, mode) {
                self.pattern_reuses += 1;
            }
            self.factor_and_solve(&context)?;
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

    /// The linear system a [`NewtonSolver::solve`] iteration at `x`
    /// factors: the Jacobian under the solver's fill-reducing
    /// permutation, the right-hand side in unknown order, and the inverse
    /// permutation (`pos[unknown]` is its row and column in the matrix).
    /// The first call fixes the ordering, as a first solve would; the
    /// call counts toward no solver counter.
    pub fn linearize(&mut self, x: &[f64], mode: StampMode<'_>) -> (&SparseRows, &[f64], &[usize]) {
        self.set_shape(mode);
        self.load(x, mode);
        let map = self.map.as_ref().expect("a load builds the map");
        self.linearized = SparseRows::from_csr(map.pattern(), &self.entries);
        (&self.linearized, &self.rhs, &self.pos)
    }

    /// Marks the stamp map stale when `mode`'s shape differs from the one
    /// the map was built for, lowering a transient's new capacitance
    /// list. The list is compared whole, farads by their bits.
    fn set_shape(&mut self, mode: StampMode<'_>) {
        let (shape, caps) = match mode {
            StampMode::Dc {
                force_ics: false, ..
            } => (Shape::Dc, &[][..]),
            StampMode::Dc {
                force_ics: true, ..
            } => (Shape::DcForcedIcs, &[][..]),
            StampMode::Tran { caps, .. } => (Shape::Tran, caps),
        };
        let same_caps = || {
            self.caps.len() == caps.len()
                && self.caps.iter().zip(caps).all(|(l, c)| {
                    (l.a, l.b, l.farads.to_bits()) == (slot(c.a), slot(c.b), c.farads.to_bits())
                })
        };
        if self.shape == Some(shape) && (shape != Shape::Tran || same_caps()) {
            return;
        }
        if shape == Shape::Tran {
            self.caps = lower_caps(caps);
        }
        self.shape = Some(shape);
        self.stale = true;
    }

    /// Stamps the linearization about `x` into `self.entries` and
    /// `self.rhs`: values only through the stamp map of the current
    /// shape, or, when it is stale, keyed stamps that build a new one
    /// (and, the first time, the ordering). Returns whether the assembled
    /// pattern equals the previous call's.
    fn load(&mut self, x: &[f64], mode: StampMode<'_>) -> bool {
        if !self.stale {
            let map = self.map.as_ref().expect("a fresh map exists");
            let mut values = Values(self.values.iter_mut());
            self.stamps
                .emit(x, mode, &self.caps, &mut values, &mut self.rhs);
            debug_assert!(values.0.next().is_none(), "one value per stamp");
            map.gather(&self.values, &mut self.entries);
            return true;
        }
        let mut a = Triplets::new(self.n);
        self.stamps.emit(x, mode, &self.caps, &mut a, &mut self.rhs);
        if self.order.is_none() {
            // Derive the ordering from the first pattern ever seen (stamp
            // modes that add entries, e.g. transient cap companions, keep
            // the original ordering — RCM quality barely changes and the
            // permutation staying put keeps results reproducible across
            // call sequences).
            let order = reverse_cuthill_mckee(&a.to_rows().symmetric_adjacency());
            let mut pos = vec![0usize; order.len()];
            for (k, &orig) in order.iter().enumerate() {
                pos[orig] = k;
            }
            self.order = Some(order);
            self.pos = pos;
        }
        let map = StampMap::new(&a, &self.pos);
        self.map_builds += 1;
        self.values.clear();
        self.values.extend(a.entries().iter().map(|&(_, _, v)| v));
        map.gather(&self.values, &mut self.entries);
        let same = self
            .map
            .as_ref()
            .is_some_and(|old| old.pattern() == map.pattern());
        self.map = Some(map);
        self.stale = false;
        same
    }

    /// Factors and solves the loaded linearization into `self.x_new`.
    fn factor_and_solve(&mut self, context: &dyn fmt::Display) -> Result<()> {
        let order = self.order.as_ref().expect("order fixed by the first load");
        let map = self.map.as_ref().expect("a load builds the map");
        self.rhs_perm.clear();
        self.rhs_perm.extend(order.iter().map(|&i| self.rhs[i]));
        self.lu
            .factor_solve_csr(map.pattern(), &self.entries, &self.rhs_perm, &mut self.y)
            .map_err(|e| match e {
                mtk_num::NumError::SingularMatrix { step } => SpiceError::Singular {
                    unknown: self.describe_unknown(order.get(step).copied().unwrap_or(step)),
                },
                other => SpiceError::InvalidParameter(format!("{context}: {other}")),
            })?;
        self.x_new.clear();
        let (x_new, y, pos) = (&mut self.x_new, &self.y, &self.pos);
        x_new.extend(pos.iter().map(|&p| y[p]));
        Ok(())
    }

    fn describe_unknown(&self, idx: usize) -> String {
        let n_nodes = self.stamps.n_nodes;
        if idx < n_nodes {
            format!("v({})", self.circuit.node_name(NodeId(idx + 1)))
        } else {
            format!("branch current #{}", idx - n_nodes)
        }
    }
}

/// The reference assembly the lowered emitter must reproduce bit for
/// bit, on the matrix triplets and the right-hand side alike: a match on
/// the device kind and an `Option` node index per stamp, straight into
/// [`Triplets`], as [`assemble`] worked before the circuit was lowered.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::mos::mos_eval;

    /// Index of a node voltage in the unknown vector, or `None` for ground.
    fn node_index(n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    pub(super) fn assemble(
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
                    let ieq = ev.id
                        - ev.d_vg * v(*g)
                        - ev.d_vd * v(*d)
                        - ev.d_vs * v(*s)
                        - ev.d_vb * v(*b);
                    for (node, gpart) in
                        [(*g, ev.d_vg), (*d, ev.d_vd), (*s, ev.d_vs), (*b, ev.d_vb)]
                    {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{operating_point, DcOptions};
    use crate::mos::{MosCaps, MosModel, Subthreshold};
    use crate::source::SourceWave;
    use crate::tran::{transient, TranOptions};
    use mtk_num::prng::Xoshiro256pp;
    use mtk_num::waveform::Pwl;

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

    /// An inverter with a Miller capacitor and an initial condition on
    /// its output.
    fn inverter_with_ic() -> Circuit {
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
        c
    }

    /// `lu_pattern_reuses` counts factorizations whose *assembled* pattern
    /// equals the previous one, not reuses of the stamp map: forced ICs
    /// change the triplet keys (duplicate diagonal stamps) but not the
    /// pattern, so every forced-IC iteration counts, while the transient
    /// companions' new off-diagonal entries cost exactly one miss. The
    /// counter feeds deterministic traces, so its definition is pinned.
    #[test]
    fn pattern_reuses_count_assembled_patterns_not_stamp_sequences() {
        let c = inverter_with_ic();
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
        let (x, n_dc) = s.solve(&vec![0.0; n], dc, &opts, "dc").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1);
        let (x, n_ic) = s.solve(&x, ic, &opts, "ic").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1 + n_ic);
        let (_, n_tran) = s.solve(&x, tran, &opts, "tran").unwrap();
        assert_eq!(s.lu_pattern_reuses(), n_dc - 1 + n_ic + n_tran - 1);
        assert!(n_ic > 0 && n_tran > 1, "{n_ic} {n_tran}");
    }

    /// One shape builds one stamp map however many `solve` calls and
    /// iterations run under it, and switching the integrator keeps the
    /// map: every other iteration takes the values-only path. The LU
    /// counters account for every iteration.
    #[test]
    fn one_shape_builds_one_stamp_map() {
        let c = inverter_with_ic();
        let caps = collect_dyn_caps(&c);
        let states = vec![CapState::default(); caps.len()];
        let dc = StampMode::Dc {
            gmin: 1e-12,
            force_ics: false,
        };
        let tran = |method| StampMode::Tran {
            t: 1e-11,
            dt: 1e-11,
            gmin: 1e-12,
            method,
            caps: &caps,
            cap_states: &states,
        };
        let mut s = NewtonSolver::new(&c);
        let opts = NewtonOptions::default();
        let (x, _) = s.solve(&vec![0.0; s.unknowns()], dc, &opts, "dc").unwrap();
        let (x, _) = s.solve(&x, dc, &opts, "dc again").unwrap();
        assert_eq!(s.stamp_map_builds(), 1, "repeated DC solves");
        let be = tran(Integrator::BackwardEuler);
        let trap = tran(Integrator::Trapezoidal);
        let (x, _) = s.solve(&x, be, &opts, "be").unwrap();
        let (x, _) = s.solve(&x, trap, &opts, "trap").unwrap();
        s.solve(&x, trap, &opts, "trap again").unwrap();
        assert_eq!(s.stamp_map_builds(), 2, "backward Euler then trapezoidal");
        assert!(s.total_iterations() > 5, "{}", s.total_iterations());
        // Every iteration factors once, by a replay of either kind or the
        // general kernel.
        let lu = s.lu_stats();
        let factored = lu.replayed + lu.fallback + lu.general;
        assert_eq!(factored, s.total_iterations(), "{lu:?}");
        assert!(lu.replayed > 0 && lu.general > 0, "{lu:?}");
    }

    /// Every stamp kind the emitter lowers, each terminal of each kind
    /// grounded somewhere and not elsewhere: MOSFETs with intrinsic caps
    /// (the NMOS also subthreshold), a grounded-source sleep device, a
    /// floating voltage source, a PWL input, resistors and current
    /// sources to ground and between nodes, explicit capacitors, and
    /// initial conditions on a node and on ground.
    fn every_kind() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        let vgnd = c.node("vgnd");
        let tap = c.node("tap");
        let caps = MosCaps::split(2e-15, 0.5e-15);
        let nm = c.add_model(
            MosModel::nmos(0.35, 100e-6)
                .with_subthreshold(Subthreshold::default())
                .with_caps(caps),
        );
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6).with_caps(caps));
        c.vsource("vdd", vdd, Circuit::GND, 1.2);
        let ramp = Pwl::from_points([(0.0, 0.0), (1e-9, 0.0), (1.2e-9, 1.2)]).unwrap();
        c.vsource("vin", inp, Circuit::GND, SourceWave::Pwl(ramp));
        c.mosfet("mp1", mid, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn1", mid, inp, vgnd, Circuit::GND, nm, 4.0);
        c.resistor("rfoot", vgnd, Circuit::GND, 20e3);
        c.isource("ileak", mid, Circuit::GND, 2e-6);
        c.mosfet("mp2", out, mid, vdd, vdd, pm, 8.0);
        c.mosfet("mn2", out, mid, vgnd, Circuit::GND, nm, 4.0);
        c.mosfet("msleep", vgnd, vdd, Circuit::GND, Circuit::GND, nm, 6.0);
        c.vsource("vtap", tap, out, 0.1);
        c.resistor("rtap", tap, mid, 1e5);
        c.isource("ipump", Circuit::GND, tap, 1e-6);
        c.capacitor("cl", out, Circuit::GND, 10e-15);
        c.capacitor("cm", mid, out, 1e-15);
        c.set_ic(mid, 1.2);
        c.set_ic(Circuit::GND, 0.0);
        c
    }

    fn triplet_bits(t: &Triplets) -> Vec<(usize, usize, u64)> {
        t.entries()
            .iter()
            .map(|&(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    fn rows_bits(m: &SparseRows) -> Vec<Vec<(usize, u64)>> {
        m.pattern()
            .iter()
            .enumerate()
            .map(|(r, cols)| cols.iter().map(|&c| (c, m.get(r, c).to_bits())).collect())
            .collect()
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An iterate over (and past) the rails with exact zeros, so the
    /// MOSFETs land in every region, cutoff included.
    fn random_iterate(rng: &mut Xoshiro256pp, c: &Circuit) -> Vec<f64> {
        let n_nodes = c.node_count() - 1;
        (0..c.unknown_count())
            .map(|i| match (i < n_nodes, rng.next_index(4)) {
                (true, 0) => 0.0,
                (true, _) => rng.next_f64_in(-0.2, 1.4),
                (false, _) => rng.next_f64_in(-1e-3, 1e-3),
            })
            .collect()
    }

    /// The reference assembly of `mode` at `x`, permuted by `pos`.
    fn reference_system(
        c: &Circuit,
        x: &[f64],
        mode: StampMode<'_>,
        pos: &[usize],
    ) -> (Triplets, SparseRows, Vec<f64>) {
        let n = c.unknown_count();
        let (mut t, mut rhs) = (Triplets::new(n), vec![0.0; n]);
        reference::assemble(c, x, mode, &branch_indices(c), &mut t, &mut rhs);
        let mut perm = SparseRows::empty(n);
        t.to_rows().permute_symmetric_into(pos, &mut perm);
        (t, perm, rhs)
    }

    /// Checks the solver's compiled system and the public `assemble`
    /// against the reference at `x` in `mode`.
    fn check_against_reference(
        s: &mut NewtonSolver<'_>,
        c: &Circuit,
        x: &[f64],
        mode: StampMode<'_>,
        label: &str,
    ) {
        let (perm, rhs, pos) = s.linearize(x, mode);
        let (want_t, want_perm, want_rhs) = reference_system(c, x, mode, pos);
        assert_eq!(rows_bits(perm), rows_bits(&want_perm), "{label}: matrix");
        assert_eq!(vec_bits(rhs), vec_bits(&want_rhs), "{label}: rhs");
        let n = c.unknown_count();
        let (mut t, mut rhs) = (Triplets::new(n), vec![0.0; n]);
        assemble(c, x, mode, &branch_indices(c), &mut t, &mut rhs);
        assert_eq!(triplet_bits(&t), triplet_bits(&want_t), "{label}: triplets");
        assert_eq!(vec_bits(&rhs), vec_bits(&want_rhs), "{label}: assemble rhs");
    }

    /// The lowered emitter, through `assemble`'s triplets and through the
    /// solver's values-only gather, reproduces the reference assembly
    /// on `to_bits` over the mode sequence DC → forced-IC DC → backward
    /// Euler → trapezoidal, at several iterates per mode.
    #[test]
    fn compiled_stamps_match_the_reference_assembly() {
        let c = every_kind();
        let mut rng = Xoshiro256pp::seed_from_u64(0x05A3_B1E5);
        let caps = collect_dyn_caps(&c);
        let states: Vec<CapState> = (0..caps.len())
            .map(|_| CapState {
                v: rng.next_f64_in(-1.2, 1.2),
                i: rng.next_f64_in(-1e-4, 1e-4),
            })
            .collect();
        let tran = |method, t| StampMode::Tran {
            t,
            dt: 2e-11,
            gmin: 1e-12,
            method,
            caps: &caps,
            cap_states: &states,
        };
        let mut s = NewtonSolver::new(&c);
        // Each mode with the stamp maps built by the end of it: the
        // integrator switch keeps the transient's map.
        for (label, mode, builds) in [
            (
                "dc",
                StampMode::Dc {
                    gmin: 1e-3,
                    force_ics: false,
                },
                1,
            ),
            (
                "dc-ic",
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: true,
                },
                2,
            ),
            ("tran-be", tran(Integrator::BackwardEuler, 1.1e-9), 3),
            ("tran-trap", tran(Integrator::Trapezoidal, 3e-9), 3),
        ] {
            for k in 0..4 {
                let x = if k == 0 {
                    vec![0.0; c.unknown_count()]
                } else {
                    random_iterate(&mut rng, &c)
                };
                check_against_reference(&mut s, &c, &x, mode, &format!("{label} #{k}"));
            }
            assert_eq!(s.stamp_map_builds(), builds, "{label}: stamp maps built");
        }
    }

    /// A transient solve whose capacitor list differs from the one the
    /// stamp map was built for, in a terminal, in its length or in farads
    /// alone, rebuilds the map (exactly once) instead of gathering stale
    /// stamps; forcing the initial conditions after a transient rebuilds
    /// too.
    #[test]
    fn a_changed_shape_rebuilds_the_stamp_map() {
        let c = every_kind();
        let mut rng = Xoshiro256pp::seed_from_u64(0xCA95);
        let caps = collect_dyn_caps(&c);
        let mut moved = caps.clone();
        let k = moved.iter().position(|cap| !cap.b.is_ground()).unwrap();
        moved[k].b = Circuit::GND;
        let shorter = caps[1..].to_vec();
        let mut doubled = caps.clone();
        doubled[0].farads *= 2.0;
        let states = vec![CapState { v: 0.3, i: 1e-6 }; caps.len()];
        let tran = |caps| StampMode::Tran {
            t: 2e-9,
            dt: 1e-11,
            gmin: 1e-12,
            method: Integrator::Trapezoidal,
            caps,
            cap_states: &states,
        };
        let mut s = NewtonSolver::new(&c);
        for (label, mode) in [
            ("tran", tran(&caps)),
            ("moved terminal", tran(&moved)),
            ("shorter list", tran(&shorter)),
            ("doubled farads", tran(&doubled)),
            ("tran again", tran(&caps)),
            (
                "dc-ic",
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: true,
                },
            ),
        ] {
            let before = s.stamp_map_builds();
            for _ in 0..2 {
                let x = random_iterate(&mut rng, &c);
                check_against_reference(&mut s, &c, &x, mode, label);
            }
            assert_eq!(
                s.stamp_map_builds(),
                before + 1,
                "{label}: stamp maps built"
            );
        }
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
