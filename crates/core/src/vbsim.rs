//! The variable-breakpoint switch-level simulator (paper §5.2).
//!
//! Every gate is reduced to an equivalent inverter discharging (or
//! charging) its lumped load capacitance with a piecewise-constant
//! current, so every node voltage is piecewise linear. *Breakpoints*
//! occur whenever any gate starts or stops switching: at a breakpoint the
//! virtual-ground equilibrium (Eq. 5) is re-solved, every active gate's
//! slope is updated, and the expected threshold-crossing / finish times
//! are recomputed — "the breakpoint times for individual gates are not
//! fixed because if another gate switches first, then the speed of the
//! subsequent gate will change".
//!
//! Gates begin switching exactly when an input crosses V<sub>dd</sub>/2
//! and their logic function says the output changes; a gate whose target
//! flips mid-swing reverses from its current voltage (glitching, §6.3).

use crate::health::RunHealth;
use crate::model::{self, VxOptions};
use crate::CoreError;
use mtk_netlist::cell::equivalent_inverter;
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{CellId, NetId, Netlist};
use mtk_netlist::tech::Technology;
use mtk_netlist::NetlistError;
use mtk_num::waveform::{check_point, segment_crossing, Pwl};

/// How the sleep path is modelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepNetwork {
    /// Conventional CMOS: zero resistance to ground.
    Cmos,
    /// An explicit linear resistance (§2.1 approximation).
    Resistance(f64),
    /// A high-V<sub>t</sub> sleep transistor of the given W/L, converted
    /// to its triode resistance.
    Transistor {
        /// Sleep device W/L.
        w_over_l: f64,
    },
}

impl SleepNetwork {
    /// The effective resistance under a technology.
    pub fn resistance(&self, tech: &Technology) -> f64 {
        match *self {
            SleepNetwork::Cmos => 0.0,
            SleepNetwork::Resistance(r) => r,
            SleepNetwork::Transistor { w_over_l } => tech.sleep_resistance(w_over_l),
        }
    }
}

/// A per-module sleep assignment: each cell belongs to one module, and
/// each module has its own sleep network (the paper's future-work
/// hierarchical structure; see [`crate::cluster`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedSleep {
    /// Module index per cell (parallel to `Netlist::cells()`).
    pub assignment: Vec<usize>,
    /// Sleep network per module.
    pub networks: Vec<SleepNetwork>,
}

/// Which breakpoint loop implementation a run uses.
///
/// Both kernels implement the same §5.2 variable-breakpoint algorithm
/// and produce **bit-identical** observables (waveforms, virtual-ground
/// staircase, sleep current, breakpoint counts, health counters); they
/// differ only in how much work each breakpoint costs. The dense kernel
/// is kept as the executable specification the event kernel is tested
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VbsimKernel {
    /// Event-driven loop with deferred advance: a lower-bound calendar
    /// (rising gates keyed in time, falling gates in their sleep group's
    /// accumulated drive) picks the few gates that could set the next
    /// breakpoint or fire at it, and only those are evaluated; every
    /// other gate's `v += s·dt` steps are replayed later from the run's
    /// step log, in order and with the same operands. The breakpoint is
    /// a deterministic min-reduction over the evaluated candidates
    /// (`f64::total_cmp`, insertion-order free). V<sub>x</sub> re-solves
    /// touch only sleep groups whose drive set changed, the falling list
    /// is kept sorted incrementally, one overdrive power is taken per
    /// sleep group instead of one per gate, and per-run scratch reuse
    /// keeps the warm loop allocation-free.
    #[default]
    EventDriven,
    /// The original dense loop: every breakpoint rescans all gates and
    /// re-solves every group's equilibrium from scratch.
    DenseScan,
}

/// Options for a switch-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct VbsimOptions {
    /// Sleep-path model.
    pub sleep: SleepNetwork,
    /// Include the body effect in the V<sub>x</sub> equilibrium
    /// (paper §5.3 extension; the paper's simple tool omits it).
    pub body_effect: bool,
    /// Pin discharged outputs to V<sub>x</sub> instead of 0 V
    /// (the §2.3 reverse-conduction behaviour; extension, default off).
    pub reverse_conduction: bool,
    /// Hard stop time, seconds.
    pub t_stop: f64,
    /// Hard cap on processed breakpoints (guards glitch storms).
    pub max_events: usize,
    /// Breakpoint-loop implementation (results are identical either way).
    pub kernel: VbsimKernel,
}

impl Default for VbsimOptions {
    fn default() -> Self {
        VbsimOptions {
            sleep: SleepNetwork::Cmos,
            body_effect: false,
            reverse_conduction: false,
            t_stop: 1e-6,
            max_events: 200_000,
            kernel: VbsimKernel::default(),
        }
    }
}

impl VbsimOptions {
    /// MTCMOS mode with a sleep transistor of the given W/L.
    pub fn mtcmos(w_over_l: f64) -> Self {
        VbsimOptions {
            sleep: SleepNetwork::Transistor { w_over_l },
            ..VbsimOptions::default()
        }
    }

    /// Conventional-CMOS mode (the degradation baseline).
    pub fn cmos() -> Self {
        VbsimOptions::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Rising,
    Falling,
}

/// A reusable simulator for one netlist: per-cell equivalent inverters,
/// load capacitances, and fanout lists are computed once, so large
/// vector sweeps (the 4096-transition adder experiment) pay only the
/// per-run event processing.
#[derive(Debug)]
pub struct Engine<'a> {
    netlist: &'a Netlist,
    tech: &'a Technology,
    /// Per-cell effective pull-down β.
    beta_n: Vec<f64>,
    /// Per-cell effective pull-up β.
    beta_p: Vec<f64>,
    /// Per-cell output load capacitance.
    cl: Vec<f64>,
    /// Per-cell output net index (hoisted out of the breakpoint loop).
    out_of: Vec<usize>,
    /// Per-cell charging slope, pull-up current over load — independent
    /// of V<sub>x</sub>, so a pure function of the cell, precomputed with
    /// the same division the dense kernel performs per breakpoint.
    rise_slope: Vec<f64>,
    /// Per-cell β-dependent factor of the discharge current
    /// ([`model::discharge_scale`]); the V<sub>x</sub>-dependent factor
    /// is shared by every cell of a sleep group.
    disch_scale: Vec<f64>,
    /// Per-net list of reading cells (deduplicated).
    fanout: Vec<Vec<CellId>>,
    /// Topological cell order, computed once (`None` = combinational
    /// loop, reported as the same error [`Netlist::evaluate`] raises).
    /// The event kernel settles logic itself instead of paying
    /// `evaluate`'s per-call order rebuild.
    topo: Option<Vec<CellId>>,
    /// The technology fingerprint, hashed once per engine instead of
    /// once per run (it stamps the cross-run V<sub>x</sub> memo).
    tech_stamp: u64,
    /// Lazily computed netlist fingerprint (the screening-cache key
    /// component); hashing a large netlist once per engine, not per run.
    fingerprint: std::sync::OnceLock<u64>,
}

impl<'a> Engine<'a> {
    /// Prepares an engine for a netlist under a technology.
    pub fn new(netlist: &'a Netlist, tech: &'a Technology) -> Self {
        let loads = netlist.net_loads(tech);
        let n_cells = netlist.cells().len();
        let mut beta_n = Vec::with_capacity(n_cells);
        let mut beta_p = Vec::with_capacity(n_cells);
        let mut cl = Vec::with_capacity(n_cells);
        let mut out_of = Vec::with_capacity(n_cells);
        let mut rise_slope = Vec::with_capacity(n_cells);
        let mut disch_scale = Vec::with_capacity(n_cells);
        for cell in netlist.cells() {
            let eq = equivalent_inverter(cell.kind, cell.drive, tech);
            beta_n.push(eq.beta_n);
            beta_p.push(eq.beta_p);
            let load = loads.cap[cell.output.index()].max(1e-18);
            cl.push(load);
            out_of.push(cell.output.index());
            rise_slope.push(model::charge_current(tech, eq.beta_p) / load);
            disch_scale.push(model::discharge_scale(tech, eq.beta_n));
        }
        let fanout = loads.readers;
        Engine {
            netlist,
            tech,
            beta_n,
            beta_p,
            cl,
            out_of,
            rise_slope,
            disch_scale,
            fanout,
            topo: netlist.topo_order().ok(),
            tech_stamp: tech.fingerprint(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// The netlist this engine simulates.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The technology the engine was prepared under.
    pub fn tech(&self) -> &Technology {
        self.tech
    }

    /// The technology's fingerprint ([`Technology::fingerprint`]),
    /// hashed once when the engine was built.
    pub fn tech_stamp(&self) -> u64 {
        self.tech_stamp
    }

    /// The netlist's structural fingerprint
    /// ([`Netlist::fingerprint`]), computed on first use and cached for
    /// the engine's lifetime.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.netlist.fingerprint())
    }

    /// Simulates one input-vector transition: the circuit is settled at
    /// `from`, and at `t = 0` the primary inputs step to `to`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownState`] when the settled state under `from`
    ///   (or `to`) contains `X` nets.
    /// * [`CoreError::EventOverflow`] when `max_events` is exceeded.
    /// * Netlist evaluation errors are passed through.
    pub fn run(
        &self,
        from: &[Logic],
        to: &[Logic],
        opts: &VbsimOptions,
    ) -> Result<VbsimRun, CoreError> {
        self.run_partitioned(from, to, None, opts)
    }

    /// Like [`Engine::run`], but with an optional per-module sleep
    /// partition: each module has its own virtual ground and sleep
    /// network, so modules only interact through logic, not through a
    /// shared rail. With `None`, `opts.sleep` applies globally.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`], plus [`CoreError::UnknownState`] when the
    /// partition's shape disagrees with the netlist.
    pub fn run_partitioned(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        opts: &VbsimOptions,
    ) -> Result<VbsimRun, CoreError> {
        match opts.kernel {
            VbsimKernel::DenseScan => self.run_partitioned_dense(from, to, partition, opts),
            VbsimKernel::EventDriven => {
                let mut scratch = VbsimScratch::new();
                self.run_partitioned_event(from, to, partition, opts, &mut scratch)
            }
        }
    }

    /// Like [`Engine::run`], but reusing caller-owned scratch so a sweep
    /// of many transitions allocates nothing per run after the first.
    /// The scratch also carries the cross-run V<sub>x</sub>-equilibrium
    /// memo, so repeated drive sets skip the Brent solve entirely.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run_with(
        &self,
        from: &[Logic],
        to: &[Logic],
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<VbsimRun, CoreError> {
        self.run_partitioned_with(from, to, None, opts, scratch)
    }

    /// [`Engine::run_partitioned`] with caller-owned scratch (see
    /// [`Engine::run_with`]). The [`VbsimKernel::DenseScan`] kernel
    /// ignores the scratch — it exists as the allocation-heavy reference
    /// implementation.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_partitioned`].
    pub fn run_partitioned_with(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<VbsimRun, CoreError> {
        match opts.kernel {
            VbsimKernel::DenseScan => self.run_partitioned_dense(from, to, partition, opts),
            VbsimKernel::EventDriven => {
                self.run_partitioned_event(from, to, partition, opts, scratch)
            }
        }
    }

    /// Runs one transition (like [`Engine::run_partitioned_with`]) but
    /// records only what delay measurement reads — the last
    /// V<sub>dd</sub>/2 crossing of each probe, the stall and truncation
    /// flags, the peak virtual-ground bounce and the health counters —
    /// instead of every net's waveform. Sizing, screening, clustering and
    /// Monte Carlo legs read nothing else, so they skip building (and
    /// then discarding) the waveforms.
    ///
    /// The result equals [`VbsimRun::summary`] of the waveform run
    /// bit-for-bit, errors included; under [`VbsimKernel::DenseScan`] it
    /// is computed exactly that way. Warm reruns on one scratch reuse
    /// every buffer; the returned crossing list and new V<sub>x</sub>-memo
    /// entries are their only allocations.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_partitioned`].
    ///
    /// # Panics
    ///
    /// When a probe is not a net of the netlist.
    pub fn run_summary_with(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        probes: &[NetId],
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<RunSummary, CoreError> {
        match opts.kernel {
            VbsimKernel::DenseScan => Ok(self
                .run_partitioned_dense(from, to, partition, opts)?
                .summary(probes)),
            VbsimKernel::EventDriven => {
                let mut rec = std::mem::take(&mut scratch.summary);
                rec.threshold = self.tech.vdd / 2.0;
                let out = self.run_event(from, to, partition, opts, scratch, &mut rec);
                let summary = out.map(|out| RunSummary {
                    crossings: probes
                        .iter()
                        .map(|n| rec.nets[n.index()].crossing)
                        .collect(),
                    stalled: out.stalled,
                    truncated: out.truncated,
                    peak_vgnd: rec.peak_vgnd.unwrap_or(0.0),
                    health: out.health,
                });
                scratch.summary = rec;
                summary
            }
        }
    }

    /// The original dense-scan breakpoint loop, kept verbatim as the
    /// executable specification: every breakpoint rescans all gates,
    /// rebuilds every group's β list, and re-solves every equilibrium.
    /// `tests/vbsim_kernel_equivalence.rs` pins the event kernel to this
    /// one bit-for-bit.
    fn run_partitioned_dense(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        opts: &VbsimOptions,
    ) -> Result<VbsimRun, CoreError> {
        if !(opts.t_stop.is_finite() && opts.t_stop > 0.0) {
            return Err(CoreError::InvalidOptions(format!(
                "t_stop must be positive and finite, got {}",
                opts.t_stop
            )));
        }
        if opts.max_events == 0 {
            return Err(CoreError::InvalidOptions(
                "max_events must be > 0".to_string(),
            ));
        }
        let nl = self.netlist;
        let tech = self.tech;
        let vdd = tech.vdd;
        let vth_sw = tech.v_switch();
        let (group_of, rs): (Vec<usize>, Vec<f64>) = match partition {
            Some(p) => {
                if p.assignment.len() != nl.cells().len() {
                    return Err(CoreError::UnknownState(format!(
                        "partition covers {} cells, netlist has {}",
                        p.assignment.len(),
                        nl.cells().len()
                    )));
                }
                if let Some(&bad) = p.assignment.iter().find(|&&g| g >= p.networks.len()) {
                    return Err(CoreError::UnknownState(format!(
                        "partition group {bad} has no sleep network"
                    )));
                }
                (
                    p.assignment.clone(),
                    p.networks.iter().map(|n| n.resistance(tech)).collect(),
                )
            }
            None => (vec![0; nl.cells().len()], vec![opts.sleep.resistance(tech)]),
        };
        let n_groups = rs.len();
        let vx_opts = VxOptions {
            body_effect: opts.body_effect,
        };

        // Settled initial state.
        let init = nl.evaluate(from).map_err(CoreError::Netlist)?;
        let mut digital: Vec<bool> = Vec::with_capacity(init.len());
        for (idx, lv) in init.iter().enumerate() {
            match lv.to_bool() {
                Some(b) => digital.push(b),
                None => return Err(CoreError::UnknownState(nl.nets()[idx].name.clone())),
            }
        }
        // The destination state must also be fully defined (it's the
        // caller's contract that the vector pair is meaningful).
        let _ = nl.evaluate(to).map_err(CoreError::Netlist)?;

        let n_nets = nl.nets().len();
        let mut v: Vec<f64> = digital.iter().map(|&b| if b { vdd } else { 0.0 }).collect();
        let mut slope = vec![0.0f64; n_nets];
        let mut wave: Vec<Pwl> = v
            .iter()
            .map(|&vv| {
                let mut w = Pwl::new();
                w.push(0.0, vv);
                w
            })
            .collect();
        let mut dir: Vec<Option<Dir>> = vec![None; nl.cells().len()];
        let mut vgnd = Pwl::new();
        vgnd.push(0.0, 0.0);
        let mut i_total_wave = Pwl::new();
        i_total_wave.push(0.0, 0.0);

        // Apply the input step.
        let mut reeval: Vec<CellId> = Vec::new();
        if from.len() != to.len() {
            return Err(CoreError::UnknownState(format!(
                "vector widths differ: {} vs {}",
                from.len(),
                to.len()
            )));
        }
        for (pos, &ni) in nl.primary_inputs().iter().enumerate() {
            let new = to[pos].to_bool().ok_or_else(|| {
                CoreError::UnknownState(format!("input '{}' driven to X", nl.net(ni).name))
            })?;
            if new != digital[ni.index()] {
                let idx = ni.index();
                wave[idx].push(0.0, v[idx]);
                v[idx] = if new { vdd } else { 0.0 };
                wave[idx].push(0.0, v[idx]);
                digital[idx] = new;
                reeval.extend(self.fanout[idx].iter().copied());
            }
        }

        let mut t = 0.0f64;
        let mut vx = vec![0.0f64; n_groups];
        let mut breakpoints = 0usize;
        let mut glitch_reversals = 0usize;
        let mut vx_fallbacks = 0usize;
        let mut stalled = false;
        let mut truncated = false;
        let mut max_falling = 0usize;

        // Scratch: which cells are switching (kept as a dense scan; the
        // circuits here are small enough that scans beat queue churn).
        loop {
            // (1) Gate re-evaluation from threshold crossings.
            reeval.sort_unstable();
            reeval.dedup();
            for &ci in &reeval {
                if self.update_gate(ci, &digital, &v, &mut dir, vdd) {
                    glitch_reversals += 1;
                }
            }
            reeval.clear();

            // (2) Re-solve each module's virtual-ground equilibrium from
            // its currently discharging gates.
            let mut betas_by_group: Vec<Vec<f64>> = vec![Vec::new(); n_groups];
            let mut n_falling = 0usize;
            for (ci, d) in dir.iter().enumerate() {
                if *d == Some(Dir::Falling) {
                    betas_by_group[group_of[ci]].push(self.beta_n[ci]);
                    n_falling += 1;
                }
            }
            max_falling = max_falling.max(n_falling);
            let mut any_vx_change = false;
            for g in 0..n_groups {
                let (new_vx, fell_back) =
                    model::solve_vx_tracked(tech, rs[g], &betas_by_group[g], vx_opts)?;
                if fell_back {
                    vx_fallbacks += 1;
                }
                if (new_vx - vx[g]).abs() > 1e-12 {
                    if g == 0 {
                        vgnd.push(t, vx[g]);
                        vgnd.push(t, new_vx);
                    }
                    vx[g] = new_vx;
                    any_vx_change = true;
                }
            }
            if any_vx_change && opts.reverse_conduction {
                // Reverse conduction: idle low outputs ride their own
                // module's bounce.
                for (ci, d) in dir.iter().enumerate() {
                    if d.is_none() {
                        let vxg = vx[group_of[ci]];
                        let out = self.netlist.cells()[ci].output.index();
                        if !digital[out] && (v[out] - vxg).abs() > 1e-12 && v[out] < vth_sw {
                            wave[out].push(t, v[out]);
                            v[out] = vxg.min(vth_sw * 0.999);
                            wave[out].push(t, v[out]);
                        }
                    }
                }
            }

            // (3) Update slopes and find the earliest next event.
            let mut i_total = 0.0f64;
            let mut dt_min = f64::INFINITY;
            let mut any_switching = false;
            for (ci, d) in dir.iter().enumerate() {
                let Some(d) = *d else { continue };
                any_switching = true;
                let vxg = vx[group_of[ci]];
                let floor = if opts.reverse_conduction { vxg } else { 0.0 };
                let out = self.netlist.cells()[ci].output.index();
                let (s, target) = match d {
                    Dir::Falling => {
                        let i =
                            model::discharge_current(tech, self.beta_n[ci], vxg, opts.body_effect);
                        i_total += i;
                        (-i / self.cl[ci], floor)
                    }
                    Dir::Rising => {
                        let i = model::charge_current(tech, self.beta_p[ci]);
                        (i / self.cl[ci], vdd)
                    }
                };
                slope[out] = s;
                if s == 0.0 {
                    continue; // stalled: waits for vx to drop
                }
                // Threshold crossing still ahead?
                let crossing_ahead = match d {
                    Dir::Falling => v[out] > vth_sw,
                    Dir::Rising => v[out] < vth_sw,
                };
                if crossing_ahead {
                    let dt = (vth_sw - v[out]) / s;
                    if dt >= 0.0 {
                        dt_min = dt_min.min(dt);
                    }
                }
                // Finish.
                let dt_fin = (target - v[out]) / s;
                if dt_fin >= 0.0 {
                    dt_min = dt_min.min(dt_fin);
                }
            }
            i_total_wave.push(t, i_total);

            if !any_switching {
                break; // settled
            }
            if !dt_min.is_finite() {
                // Every active gate is stalled and nothing can unstick
                // them: the circuit has logically failed at this sizing.
                stalled = true;
                break;
            }
            let t_next = t + dt_min;
            if t_next > opts.t_stop {
                truncated = true;
                break;
            }
            breakpoints += 1;
            if breakpoints > opts.max_events {
                return Err(CoreError::EventOverflow {
                    events: breakpoints,
                    t: t_next,
                });
            }

            // (4) Advance all moving nets to the breakpoint.
            for (ci, d) in dir.iter().enumerate() {
                if d.is_none() {
                    continue;
                }
                let out = self.netlist.cells()[ci].output.index();
                if slope[out] != 0.0 {
                    v[out] += slope[out] * dt_min;
                    wave[out].push(t_next, v[out]);
                }
            }
            t = t_next;

            // (5) Fire events that landed on this breakpoint.
            let eps = 1e-15 + vdd * 1e-12;
            for ci in 0..dir.len() {
                let Some(d) = dir[ci] else { continue };
                let out = self.netlist.cells()[ci].output.index();
                if slope[out] == 0.0 {
                    continue;
                }
                let floor = if opts.reverse_conduction {
                    vx[group_of[ci]]
                } else {
                    0.0
                };
                let (target, rail_digital) = match d {
                    Dir::Falling => (floor, false),
                    Dir::Rising => (vdd, true),
                };
                // Threshold event.
                let crossed_now = match d {
                    Dir::Falling => v[out] <= vth_sw + eps && digital[out],
                    Dir::Rising => v[out] >= vth_sw - eps && !digital[out],
                };
                if crossed_now {
                    digital[out] = rail_digital;
                    reeval.extend(self.fanout[out].iter().copied());
                }
                // Finish event.
                let finished = match d {
                    Dir::Falling => v[out] <= target + eps,
                    Dir::Rising => v[out] >= target - eps,
                };
                if finished {
                    v[out] = target;
                    // Re-emit the clamped endpoint to kill rounding drift.
                    wave[out].push(t, v[out]);
                    dir[ci] = None;
                    slope[out] = 0.0;
                }
            }
        }

        // Final flat segment so every waveform spans [0, t].
        for (idx, w) in wave.iter_mut().enumerate() {
            if w.end_time().unwrap_or(0.0) < t {
                w.push(t, v[idx]);
            }
        }
        vgnd.push(t, vx[0]);
        i_total_wave.push(t, 0.0);

        Ok(VbsimRun {
            waveforms: wave,
            vgnd,
            sleep_current: i_total_wave,
            breakpoints,
            stalled,
            truncated,
            max_simultaneous_discharging: max_falling,
            t_end: t,
            vdd,
            health: RunHealth {
                breakpoints,
                max_events: opts.max_events,
                glitch_reversals,
                vx_fallbacks,
                ..RunHealth::default()
            },
        })
    }

    /// Re-evaluates a gate after one of its inputs crossed the switching
    /// threshold, starting or reversing its output swing as needed.
    /// Returns `true` when the gate reversed mid-swing (a glitch).
    fn update_gate(
        &self,
        ci: CellId,
        digital: &[bool],
        v: &[f64],
        dir: &mut [Option<Dir>],
        vdd: f64,
    ) -> bool {
        let cell = &self.netlist.cells()[ci.index()];
        let mut ins: Vec<Logic> = Vec::with_capacity(cell.inputs.len());
        ins.extend(
            cell.inputs
                .iter()
                .map(|&n| Logic::from_bool(digital[n.index()])),
        );
        let target = cell
            .kind
            .eval(&ins)
            .to_bool()
            .expect("boolean inputs give boolean outputs");
        let out = cell.output.index();
        let want = if target { Dir::Rising } else { Dir::Falling };
        match dir[ci.index()] {
            Some(current) => {
                if current != want {
                    dir[ci.index()] = Some(want); // reverse mid-swing
                    return true;
                }
                false
            }
            None => {
                let at_target_rail = if target {
                    v[out] >= vdd * 0.999
                } else {
                    v[out] <= vdd * 0.001 + 1e-12
                };
                if target != digital[out] || !at_target_rail {
                    dir[ci.index()] = Some(want);
                }
                false
            }
        }
    }

    /// [`Engine::run_partitioned_with`] for the event kernel: the
    /// breakpoint loop recording full waveforms, with buffers drawn from
    /// (and the pool handed back to) the scratch.
    fn run_partitioned_event(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<VbsimRun, CoreError> {
        let mut rec = WaveRecorder::from_pool(scratch);
        let out = self.run_event(from, to, partition, opts, scratch, &mut rec);
        let WaveRecorder {
            waveforms,
            vgnd,
            sleep_current,
            pool,
        } = rec;
        scratch.pwl_pool = pool;
        let out = out?;
        Ok(VbsimRun {
            waveforms,
            vgnd,
            sleep_current,
            breakpoints: out.health.breakpoints,
            stalled: out.stalled,
            truncated: out.truncated,
            max_simultaneous_discharging: out.max_falling,
            t_end: out.t_end,
            vdd: self.tech.vdd,
            health: out.health,
        })
    }

    /// The event-driven breakpoint loop (see [`VbsimKernel::EventDriven`]),
    /// generic over what it records: [`WaveRecorder`] keeps every point,
    /// [`SummaryRecorder`] only what delay measurement reads. Both see the
    /// identical point sequence, so the choice changes no result.
    ///
    /// A breakpoint evaluates only the switching cells the [`Calendar`]
    /// says could set it or fire at it; every other cell's `v += s·dt`
    /// steps wait in the run's step log and are replayed later, in order,
    /// with the operands the dense kernel uses. Bit-identity with the
    /// dense kernel rests on these invariants:
    ///
    /// * A cell is replayed up to now ([`Calendar::replay`]) before
    ///   anything reads or changes its voltage: when the calendar pops
    ///   it, before a reversal, before it is re-keyed and at run end. Each
    ///   replayed step uses the slope that breakpoint gave the cell —
    ///   `rise_slope`, or `−(scale·drive)/C` with the drive logged for its
    ///   group at that step — and a zero-slope step advances nothing and
    ///   emits no point, exactly as the dense kernel skips it. So every
    ///   net receives the dense kernel's point sequence.
    /// * Calendar keys are lower bounds ([`Calendar::file`]): a cell left
    ///   in the calendar has every candidate later than the chosen
    ///   breakpoint and fires nothing at it. The breakpoint is a
    ///   `total_cmp` min-reduction over the evaluated cells' candidates,
    ///   which performs no arithmetic and is order-free, so it is the
    ///   dense kernel's fold over every cell.
    /// * Candidates are *relative* times computed from the replayed
    ///   voltages, as in the dense kernel; keys only decide who is
    ///   evaluated, never a time that is used.
    /// * The falling list is kept sorted by cell index, so scale lists and
    ///   the sleep-current sum add the same terms in the same order as the
    ///   dense whole-netlist scans. The sum is recomputed whenever the
    ///   falling set or a group's drive changes.
    /// * A group's equilibrium is replayed from its cached solution only
    ///   while its falling-drive set is unchanged — and
    ///   [`model::solve_vx_scaled`] (bit-identical to the dense kernel's
    ///   [`model::solve_vx_tracked`] on the βs) is a pure function of
    ///   `(tech, r, scales, body_effect)`, which is exactly the memo key.
    ///   Only `Ok` solutions are memoized, so error paths re-execute.
    /// * A discharge current is [`model::discharge_scale`] (per cell,
    ///   precomputed) times [`model::discharge_drive`] (per group, taken
    ///   once per distinct V<sub>x</sub>): the expression tree
    ///   [`model::discharge_current`] evaluates.
    ///
    /// Every exit, the overflow error included, first replays every
    /// switching cell, so a point the dense kernel's recorder would reject
    /// is rejected here too.
    fn run_event<R: Recorder>(
        &self,
        from: &[Logic],
        to: &[Logic],
        partition: Option<&PartitionedSleep>,
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
        rec: &mut R,
    ) -> Result<KernelOut, CoreError> {
        if !(opts.t_stop.is_finite() && opts.t_stop > 0.0) {
            return Err(CoreError::InvalidOptions(format!(
                "t_stop must be positive and finite, got {}",
                opts.t_stop
            )));
        }
        if opts.max_events == 0 {
            return Err(CoreError::InvalidOptions(
                "max_events must be > 0".to_string(),
            ));
        }
        let nl = self.netlist;
        let tech = self.tech;
        let vdd = tech.vdd;
        let vth_sw = tech.v_switch();
        scratch.group_of.clear();
        scratch.rs.clear();
        match partition {
            Some(p) => {
                if p.assignment.len() != nl.cells().len() {
                    return Err(CoreError::UnknownState(format!(
                        "partition covers {} cells, netlist has {}",
                        p.assignment.len(),
                        nl.cells().len()
                    )));
                }
                if let Some(&bad) = p.assignment.iter().find(|&&g| g >= p.networks.len()) {
                    return Err(CoreError::UnknownState(format!(
                        "partition group {bad} has no sleep network"
                    )));
                }
                scratch.group_of.extend_from_slice(&p.assignment);
                scratch
                    .rs
                    .extend(p.networks.iter().map(|n| n.resistance(tech)));
            }
            None => {
                scratch.group_of.resize(nl.cells().len(), 0);
                scratch.rs.push(opts.sleep.resistance(tech));
            }
        }
        let n_groups = scratch.rs.len();
        let vx_opts = VxOptions {
            body_effect: opts.body_effect,
        };

        // The Vx memo survives across runs (and engines) but not across
        // technologies: key bit patterns only identify a solution under
        // the technology they were computed for.
        let stamp = self.tech_stamp;
        if scratch.memo_stamp != Some(stamp) {
            scratch.vx_memo.clear();
            scratch.memo_words = 0;
            scratch.memo_stamp = Some(stamp);
        }

        // Settled initial state, converted to booleans/voltages and the
        // per-net series in one pass.
        self.settle_digital(from, scratch)?;
        let n_nets = nl.nets().len();
        let n_cells = nl.cells().len();
        rec.begin(n_nets);
        {
            let VbsimScratch {
                logic, digital, v, ..
            } = &mut *scratch;
            digital.clear();
            v.clear();
            for (idx, lv) in logic.iter().enumerate() {
                match lv.to_bool() {
                    Some(b) => {
                        digital.push(b);
                        let vv = if b { vdd } else { 0.0 };
                        v.push(vv);
                        rec.open_net(vv);
                    }
                    None => return Err(CoreError::UnknownState(nl.nets()[idx].name.clone())),
                }
            }
        }
        // The destination vector must also be well-formed (the dense
        // kernel evaluates it and discards the values; the only errors
        // that evaluation can raise are the arity mismatch checked here
        // and the combinational loop `settle_digital` already ruled out).
        if to.len() != nl.primary_inputs().len() {
            return Err(CoreError::Netlist(NetlistError::ArityMismatch {
                cell: format!("{} primary inputs", nl.name()),
                expected: nl.primary_inputs().len(),
                actual: to.len(),
            }));
        }

        scratch.dir.clear();
        scratch.dir.resize(n_cells, None);
        scratch.n_active = 0;
        scratch.falling.clear();
        scratch.sum_dirty = true;
        scratch.reeval.clear();
        scratch.vx.clear();
        scratch.vx.resize(n_groups, 0.0);
        scratch.vx_sol.clear();
        scratch.vx_sol.resize(n_groups, 0.0);
        scratch.vx_fell.clear();
        scratch.vx_fell.resize(n_groups, false);
        scratch.dirty.clear();
        scratch.dirty.resize(n_groups, true);
        if scratch.scales.len() < n_groups {
            scratch.scales.resize_with(n_groups, Vec::new);
        }
        scratch.drive.clear();
        scratch.drive.resize(
            n_groups,
            model::discharge_drive(tech, 0.0, opts.body_effect),
        );
        scratch
            .cal
            .reset(n_cells, &scratch.drive, Keys::new(tech, opts));

        rec.vgnd(0.0, 0.0);
        rec.sleep_current(0.0, 0.0);

        // Apply the input step.
        if from.len() != to.len() {
            return Err(CoreError::UnknownState(format!(
                "vector widths differ: {} vs {}",
                from.len(),
                to.len()
            )));
        }
        for (pos, &ni) in nl.primary_inputs().iter().enumerate() {
            let new = to[pos].to_bool().ok_or_else(|| {
                CoreError::UnknownState(format!("input '{}' driven to X", nl.net(ni).name))
            })?;
            if new != scratch.digital[ni.index()] {
                let idx = ni.index();
                rec.net(idx, 0.0, scratch.v[idx]);
                scratch.v[idx] = if new { vdd } else { 0.0 };
                rec.net(idx, 0.0, scratch.v[idx]);
                scratch.digital[idx] = new;
                scratch.reeval.extend(self.fanout[idx].iter().copied());
            }
        }

        let mut t = 0.0f64;
        let mut breakpoints = 0usize;
        let mut glitch_reversals = 0usize;
        let mut vx_fallbacks = 0usize;
        let mut stalled = false;
        let mut truncated = false;
        let mut max_falling = 0usize;

        let ended = 'run: loop {
            // (1) Gate re-evaluation from threshold crossings. Most
            // breakpoints wake zero or one gate, where a sort is a
            // no-op not worth its dispatch cost.
            if scratch.reeval.len() > 1 {
                scratch.reeval.sort_unstable();
                scratch.reeval.dedup();
            }
            for k in 0..scratch.reeval.len() {
                let ci = scratch.reeval[k];
                if self.update_gate_event(ci, scratch, rec) {
                    glitch_reversals += 1;
                }
            }
            scratch.reeval.clear();

            // (2) Re-solve only the equilibria whose falling-drive set
            // changed since their last solve; clean groups replay the
            // cached solution (including its fallback flag — the dense
            // kernel re-solves every iteration, so the counter must tick
            // on replays too).
            if scratch.dirty[..n_groups].iter().any(|&d| d) {
                let VbsimScratch {
                    falling,
                    group_of,
                    dirty,
                    scales,
                    ..
                } = &mut *scratch;
                for (g, b) in scales.iter_mut().enumerate().take(n_groups) {
                    if dirty[g] {
                        b.clear();
                    }
                }
                for &ci in falling.iter() {
                    let g = group_of[ci];
                    if dirty[g] {
                        scales[g].push(self.disch_scale[ci]);
                    }
                }
            }
            max_falling = max_falling.max(scratch.falling.len());
            let mut any_vx_change = false;
            for g in 0..n_groups {
                let (new_vx, fell_back) = if scratch.dirty[g] {
                    let sol = match self.solve_group_memoized(g, opts, vx_opts, scratch) {
                        Ok(sol) => sol,
                        Err(e) => break 'run Err(e),
                    };
                    scratch.vx_sol[g] = sol.0;
                    scratch.vx_fell[g] = sol.1;
                    scratch.dirty[g] = false;
                    sol
                } else {
                    (scratch.vx_sol[g], scratch.vx_fell[g])
                };
                if fell_back {
                    vx_fallbacks += 1;
                }
                if (new_vx - scratch.vx[g]).abs() > 1e-12 {
                    if g == 0 {
                        rec.vgnd(t, scratch.vx[g]);
                        rec.vgnd(t, new_vx);
                    }
                    scratch.vx[g] = new_vx;
                    any_vx_change = true;
                    // Vx moves only at breakpoints, so the overdrive power
                    // is taken once per group per distinct Vx.
                    let drive = model::discharge_drive(tech, new_vx, opts.body_effect);
                    scratch.drive[g] = drive;
                    scratch.cal.log_drive(g, drive);
                    scratch.sum_dirty = true;
                }
            }
            if any_vx_change && opts.reverse_conduction {
                // Reverse conduction: idle low outputs ride their own
                // module's bounce.
                let VbsimScratch {
                    dir,
                    group_of,
                    vx,
                    v,
                    digital,
                    ..
                } = &mut *scratch;
                for (ci, d) in dir.iter().enumerate() {
                    if d.is_none() {
                        let vxg = vx[group_of[ci]];
                        let out = self.out_of[ci];
                        if !digital[out] && (v[out] - vxg).abs() > 1e-12 && v[out] < vth_sw {
                            rec.net(out, t, v[out]);
                            v[out] = vxg.min(vth_sw * 0.999);
                            rec.net(out, t, v[out]);
                        }
                    }
                }
            }

            // (3) The sleep current, then the next breakpoint from the
            // cells the calendar pops.
            if scratch.sum_dirty {
                let VbsimScratch {
                    falling,
                    group_of,
                    drive,
                    ..
                } = &*scratch;
                let mut i_total = 0.0f64;
                for &ci in falling {
                    i_total +=
                        model::discharge_current_with(self.disch_scale[ci], drive[group_of[ci]]);
                }
                scratch.i_total = i_total;
                scratch.sum_dirty = false;
            }
            rec.sleep_current(t, scratch.i_total);

            if scratch.n_active == 0 {
                break Ok(()); // settled
            }
            let dt_min = self.next_breakpoint(opts, scratch, rec);
            if !dt_min.is_finite() {
                // Every active gate is stalled and nothing can unstick
                // them: the circuit has logically failed at this sizing.
                stalled = true;
                break Ok(());
            }
            let t_next = t + dt_min;
            if t_next > opts.t_stop {
                truncated = true;
                break Ok(());
            }
            breakpoints += 1;
            if breakpoints > opts.max_events {
                break Err(CoreError::EventOverflow {
                    events: breakpoints,
                    t: t_next,
                });
            }
            t = t_next;
            scratch.cal.commit(t, dt_min, &scratch.drive);

            // (4+5) Advance the evaluated cells to the breakpoint and fire
            // the events that landed on it. Per-cell effects are disjoint
            // (each cell owns its output net), and wake-ups are sorted
            // before use, so the order is immaterial.
            self.fire_due(opts, scratch, rec);
        };

        // Replay every switching cell's deferred steps, on every exit.
        {
            let VbsimScratch {
                cal,
                dir,
                group_of,
                v,
                ..
            } = &mut *scratch;
            for (ci, d) in dir.iter().enumerate() {
                if let Some(d) = *d {
                    cal.replay(self, ci, d, group_of[ci], &mut v[self.out_of[ci]], rec);
                }
            }
        }
        ended?;

        // Final flat segment so every series spans [0, t].
        for idx in 0..n_nets {
            if rec.net_end(idx) < t {
                rec.net(idx, t, scratch.v[idx]);
            }
        }
        rec.vgnd(t, scratch.vx[0]);
        rec.sleep_current(t, 0.0);

        Ok(KernelOut {
            stalled,
            truncated,
            max_falling,
            t_end: t,
            health: RunHealth {
                breakpoints,
                max_events: opts.max_events,
                glitch_reversals,
                vx_fallbacks,
                ..RunHealth::default()
            },
        })
    }

    /// Evaluates the cells the calendar pops for the next breakpoint:
    /// each is replayed up to now, and its crossing and finish candidates
    /// (relative times from its current voltage, exactly the dense
    /// kernel's) enter a `total_cmp` min-reduction. Popping stops when no
    /// calendar source is due against the smallest candidate so far.
    /// Returns that candidate, `∞` when no popped cell has a finite one;
    /// the popped cells and their slopes are left in `cal.due`.
    fn next_breakpoint<R: Recorder>(
        &self,
        opts: &VbsimOptions,
        scratch: &mut VbsimScratch,
        rec: &mut R,
    ) -> f64 {
        let VbsimScratch {
            cal,
            dir,
            group_of,
            vx,
            v,
            drive,
            ..
        } = &mut *scratch;
        let Keys {
            vdd, vth: vth_sw, ..
        } = cal.keys;
        cal.due.clear();
        let mut dt_min = f64::INFINITY;
        let consider = |dt_min: &mut f64, dt: f64| {
            if dt.total_cmp(dt_min).is_lt() {
                *dt_min = dt;
            }
        };
        while let Some(ci) = cal.pop_due(dt_min, drive) {
            let d = dir[ci].expect("the calendar holds switching cells only");
            let g = group_of[ci];
            let out = self.out_of[ci];
            cal.replay(self, ci, d, g, &mut v[out], rec);
            let floor = if opts.reverse_conduction { vx[g] } else { 0.0 };
            let (s, target) = match d {
                Dir::Falling => {
                    let i = model::discharge_current_with(self.disch_scale[ci], drive[g]);
                    (-i / self.cl[ci], floor)
                }
                Dir::Rising => (self.rise_slope[ci], vdd),
            };
            cal.due.push((ci, s));
            if s == 0.0 {
                continue; // stalled: waits for vx to drop
            }
            let vo = v[out];
            // Threshold crossing still ahead? When the swing's target
            // lies beyond the threshold, the finish time is the same
            // division with a numerator no smaller in magnitude, so
            // (rounding being monotone) it can never undercut the
            // crossing candidate: skip it.
            let (crossing_ahead, target_beyond) = match d {
                Dir::Falling => (vo > vth_sw, target < vth_sw),
                Dir::Rising => (vo < vth_sw, target > vth_sw),
            };
            if crossing_ahead {
                let dt = (vth_sw - vo) / s;
                if dt >= 0.0 {
                    consider(&mut dt_min, dt);
                    if target_beyond {
                        continue;
                    }
                }
            }
            // Finish.
            let dt_fin = (target - vo) / s;
            if dt_fin >= 0.0 {
                consider(&mut dt_min, dt_fin);
            }
        }
        #[cfg(test)]
        {
            cal.stats.evaluated += cal.due.len();
        }
        dt_min
    }

    /// Advances the cells [`Engine::next_breakpoint`] evaluated to the
    /// breakpoint just committed and fires the threshold and finish
    /// events that landed on it; cells still switching are re-keyed.
    fn fire_due<R: Recorder>(&self, opts: &VbsimOptions, scratch: &mut VbsimScratch, rec: &mut R) {
        let VbsimScratch {
            cal,
            dir,
            group_of,
            vx,
            v,
            digital,
            reeval,
            falling,
            dirty,
            n_active,
            sum_dirty,
            ..
        } = &mut *scratch;
        #[cfg(test)]
        {
            cal.stats.breakpoints += 1;
        }
        let Keys {
            vdd,
            vth: vth_sw,
            eps,
            ..
        } = cal.keys;
        let t = cal.now();
        for j in 0..cal.due.len() {
            let (ci, s) = cal.due[j];
            let d = dir[ci].expect("popped cells are switching");
            let g = group_of[ci];
            let out = self.out_of[ci];
            cal.replay(self, ci, d, g, &mut v[out], rec);
            if s != 0.0 {
                let floor = if opts.reverse_conduction { vx[g] } else { 0.0 };
                let (target, rail_digital) = match d {
                    Dir::Falling => (floor, false),
                    Dir::Rising => (vdd, true),
                };
                // Threshold event.
                let crossed_now = match d {
                    Dir::Falling => v[out] <= vth_sw + eps && digital[out],
                    Dir::Rising => v[out] >= vth_sw - eps && !digital[out],
                };
                if crossed_now {
                    digital[out] = rail_digital;
                    reeval.extend(self.fanout[out].iter().copied());
                }
                // Finish event.
                let finished = match d {
                    Dir::Falling => v[out] <= target + eps,
                    Dir::Rising => v[out] >= target - eps,
                };
                if finished {
                    v[out] = target;
                    // Re-emit the clamped endpoint to kill rounding drift.
                    rec.net(out, t, v[out]);
                    dir[ci] = None;
                    *n_active -= 1;
                    if d == Dir::Falling {
                        remove_sorted(falling, ci);
                        dirty[g] = true;
                        *sum_dirty = true;
                    }
                    continue;
                }
            }
            cal.file(self, ci, d, g, v[out], digital[out]);
        }
    }

    /// [`Netlist::evaluate`] over the engine's precomputed topological
    /// order, writing into scratch buffers: identical values and
    /// identical errors (arity mismatch, combinational loop), but no
    /// per-call order rebuild and no allocation once warm. Settled net
    /// values land in `scratch.logic`.
    fn settle_digital(
        &self,
        inputs: &[Logic],
        scratch: &mut VbsimScratch,
    ) -> Result<(), CoreError> {
        let nl = self.netlist;
        if inputs.len() != nl.primary_inputs().len() {
            return Err(CoreError::Netlist(NetlistError::ArityMismatch {
                cell: format!("{} primary inputs", nl.name()),
                expected: nl.primary_inputs().len(),
                actual: inputs.len(),
            }));
        }
        let order = self.topo.as_ref().ok_or_else(|| {
            CoreError::Netlist(NetlistError::CombinationalLoop(nl.name().to_string()))
        })?;
        let VbsimScratch { logic, ins, .. } = &mut *scratch;
        logic.clear();
        logic.resize(nl.nets().len(), Logic::X);
        for (net, &v) in nl.primary_inputs().iter().zip(inputs) {
            logic[net.index()] = v;
        }
        for (idx, net) in nl.nets().iter().enumerate() {
            if let Some(t) = net.tie {
                logic[idx] = t;
            }
        }
        for &ci in order {
            let cell = &nl.cells()[ci.index()];
            ins.clear();
            ins.extend(cell.inputs.iter().map(|&n| logic[n.index()]));
            logic[cell.output.index()] = cell.kind.eval(ins);
        }
        Ok(())
    }

    /// Solves one group's equilibrium through the cross-run memo. The
    /// key is exactly the solver's argument list — `(r, body effect,
    /// scales in ascending cell order)` — and the technology stamp is
    /// checked at run start, so a hit replays the identical solution the
    /// dense kernel would recompute. Only `Ok` solutions are cached.
    fn solve_group_memoized(
        &self,
        g: usize,
        opts: &VbsimOptions,
        vx_opts: VxOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<(f64, bool), CoreError> {
        let r = scratch.rs[g];
        if r <= 0.0 || scratch.scales[g].is_empty() {
            // The solver's own fast path; not worth a memo entry.
            return Ok((0.0, false));
        }
        scratch.key_buf.clear();
        scratch.key_buf.push(r.to_bits());
        scratch.key_buf.push(opts.body_effect as u64);
        scratch
            .key_buf
            .extend(scratch.scales[g].iter().map(|b| b.to_bits()));
        if let Some(&hit) = scratch.vx_memo.get(scratch.key_buf.as_slice()) {
            return Ok(hit);
        }
        let sol = model::solve_vx_scaled(self.tech, r, &scratch.scales[g], vx_opts)?;
        if scratch.memo_words + scratch.key_buf.len() > VX_MEMO_WORDS {
            scratch.vx_memo.clear();
            scratch.memo_words = 0;
        }
        scratch.memo_words += scratch.key_buf.len();
        scratch.vx_memo.insert(scratch.key_buf.clone(), sol);
        Ok(sol)
    }

    /// [`Engine::update_gate`] for the event kernel: the same decision
    /// logic, backed by scratch buffers and charged with maintaining the
    /// kernel's incremental state (switching count, sorted falling list,
    /// dirty flags, calendar keys). A reversing cell is replayed up to now
    /// before its direction changes.
    fn update_gate_event<R: Recorder>(
        &self,
        ci: CellId,
        scratch: &mut VbsimScratch,
        rec: &mut R,
    ) -> bool {
        let cell = &self.netlist.cells()[ci.index()];
        {
            let VbsimScratch { ins, digital, .. } = &mut *scratch;
            ins.clear();
            ins.extend(
                cell.inputs
                    .iter()
                    .map(|&n| Logic::from_bool(digital[n.index()])),
            );
        }
        let target = cell
            .kind
            .eval(&scratch.ins)
            .to_bool()
            .expect("boolean inputs give boolean outputs");
        let out = cell.output.index();
        let want = if target { Dir::Rising } else { Dir::Falling };
        let idx = ci.index();
        let g = scratch.group_of[idx];
        match scratch.dir[idx] {
            Some(current) => {
                if current == want {
                    return false;
                }
                scratch
                    .cal
                    .replay(self, idx, current, g, &mut scratch.v[out], rec);
                scratch.dir[idx] = Some(want); // reverse mid-swing
                match want {
                    Dir::Falling => insert_sorted(&mut scratch.falling, idx),
                    Dir::Rising => remove_sorted(&mut scratch.falling, idx),
                }
                scratch.dirty[g] = true;
                scratch.sum_dirty = true;
                let (v, digital) = (scratch.v[out], scratch.digital[out]);
                scratch.cal.file(self, idx, want, g, v, digital);
                true
            }
            None => {
                let vdd = self.tech.vdd;
                let at_target_rail = if target {
                    scratch.v[out] >= vdd * 0.999
                } else {
                    scratch.v[out] <= vdd * 0.001 + 1e-12
                };
                if target != scratch.digital[out] || !at_target_rail {
                    scratch.dir[idx] = Some(want);
                    scratch.n_active += 1;
                    scratch.cal.start(idx);
                    if want == Dir::Falling {
                        insert_sorted(&mut scratch.falling, idx);
                        scratch.dirty[g] = true;
                        scratch.sum_dirty = true;
                    }
                    let (v, digital) = (scratch.v[out], scratch.digital[out]);
                    scratch.cal.file(self, idx, want, g, v, digital);
                }
                false
            }
        }
    }
}

/// Inserts `ci` into an ascending list that does not hold it.
fn insert_sorted(list: &mut Vec<usize>, ci: usize) {
    if let Err(pos) = list.binary_search(&ci) {
        list.insert(pos, ci);
    }
}

/// Removes `ci` from an ascending list, if present.
fn remove_sorted(list: &mut Vec<usize>, ci: usize) {
    if let Ok(pos) = list.binary_search(&ci) {
        list.remove(pos);
    }
}

/// Machine epsilons of horizon widening per breakpoint a run may take;
/// see [`Keys::rel`].
const CALENDAR_ULPS: f64 = 16.0;

/// The constants [`Calendar::file`] keys cells against and
/// [`Calendar::pop_due`] compares keys with.
#[derive(Debug, Clone, Copy, Default)]
struct Keys {
    vdd: f64,
    /// The switching threshold.
    vth: f64,
    /// The tolerance within which a threshold or finish event fires, in
    /// volts.
    eps: f64,
    /// Relative widening of every horizon a key is compared with.
    ///
    /// A key is an estimate from a linear model: a rising cell's voltage
    /// grows as `rise_slope · t`, a falling cell's drops as
    /// `(scale/C) · Φ_g`. What the kernel computes differs from that model
    /// only by rounding, and over `K` breakpoints that rounding is at most
    /// about `K` units of roundoff relative to `t` (each `t + dt` rounds
    /// once), to `Φ_g` (each `Φ + drive·dt` rounds once), and to `Vdd`
    /// for the replayed voltage (each `v + s·dt` rounds once, and the
    /// per-step products add a few units over the whole swing). `K` is at
    /// most `max_events + 1`, about 2e-11 relative at the default 200 k.
    /// `rel` is [`CALENDAR_ULPS`] machine epsilons (two units of
    /// roundoff each) per possible breakpoint, about 7e-10 at 200 k, so
    /// it dominates that bound 32-fold; the cost is that a cell is popped
    /// that fraction of the run early.
    rel: f64,
    /// `rel · Vdd`: the voltage a key's distance is shortened by.
    margin_v: f64,
    /// Falling finish targets ride V<sub>x</sub>, so falling keys are
    /// always due.
    reverse_conduction: bool,
}

impl Keys {
    fn new(tech: &Technology, opts: &VbsimOptions) -> Self {
        let vdd = tech.vdd;
        let rel = CALENDAR_ULPS * (opts.max_events as f64 + 2.0) * f64::EPSILON;
        Keys {
            vdd,
            vth: tech.v_switch(),
            eps: 1e-15 + vdd * 1e-12,
            rel,
            margin_v: rel * vdd,
            reverse_conduction: opts.reverse_conduction,
        }
    }
}

/// A calendar entry: a key's bit pattern (keys are non-negative, so the
/// bits order like the values), the cell, and the generation the cell
/// was filed under. `Reverse` makes the heap pop the earliest key.
type Entry = std::cmp::Reverse<(u64, u32, u32)>;

/// The deferred-advance state of one event-kernel run: the log every
/// deferred step is replayed from, and the lower-bound calendar that
/// decides which switching cells a breakpoint evaluates.
///
/// A cell's key never lies later than the moment it could produce the
/// next breakpoint or fire at one: the time (rising cells, whose slope is
/// constant) or the group's accumulated drive Φ<sub>g</sub> (falling
/// cells) at which its voltage comes within the fire tolerance, less a
/// margin, of the nearer of
///
/// * the threshold, while the voltage is on its pre-threshold side (a
///   crossing candidate exists) or the crossing has not fired yet — the
///   rule reads the voltage, not the digital state, because a rising
///   output left one ulp under the threshold after its crossing fired
///   still yields a (zero-length) breakpoint;
/// * otherwise, the rail the swing finishes on.
///
/// Every falling cell of a group shares Φ<sub>g</sub>, so a
/// V<sub>x</sub> change re-keys nothing, and a starved group (drive
/// `None`: its cells have zero slope, no candidate and no event) is
/// skipped whole.
#[derive(Debug, Clone, Default)]
struct Calendar {
    /// `(t, dt)` of every breakpoint taken; step `k` (from 1) is at `k − 1`.
    steps: Vec<(f64, f64)>,
    /// Per sleep group, `(first step, drive)` at every drive change; the
    /// first entry covers step 1. One entry per change, not per step, so
    /// many-group and long runs stay small.
    drives: Vec<Vec<(usize, Option<f64>)>>,
    /// Per group, Φ<sub>g</sub> = Σ drive·dt over the steps taken.
    phi: Vec<f64>,
    /// Per cell, how many steps its output has had applied.
    applied: Vec<usize>,
    /// Per cell, the generation of its live entry; entries filed under an
    /// older generation are stale and skipped.
    gen: Vec<u32>,
    /// Rising cells, keyed in time.
    rising: std::collections::BinaryHeap<Entry>,
    /// Per group, falling cells keyed in Φ<sub>g</sub>.
    falling: Vec<std::collections::BinaryHeap<Entry>>,
    /// The cells popped for the breakpoint being chosen, with the slope
    /// it gives each.
    due: Vec<(usize, f64)>,
    /// The run's keying constants.
    keys: Keys,
    #[cfg(test)]
    stats: CalendarStats,
}

/// How much work the calendar saved, for the unit tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CalendarStats {
    /// Breakpoints taken.
    breakpoints: usize,
    /// Cells evaluated, summed over breakpoints.
    evaluated: usize,
    /// Steps applied to outputs by replay.
    replayed: usize,
}

impl Calendar {
    /// Empties the calendar for a run of `n_cells` cells whose groups
    /// start at `drive`, keyed against `keys`.
    fn reset(&mut self, n_cells: usize, drive: &[Option<f64>], keys: Keys) {
        let n_groups = drive.len();
        self.steps.clear();
        if self.drives.len() < n_groups {
            self.drives.resize_with(n_groups, Vec::new);
            self.falling
                .resize_with(n_groups, std::collections::BinaryHeap::new);
        }
        for (g, &d) in drive.iter().enumerate() {
            self.drives[g].clear();
            self.drives[g].push((1, d));
            self.falling[g].clear();
        }
        self.phi.clear();
        self.phi.resize(n_groups, 0.0);
        self.applied.resize(n_cells, 0);
        self.gen.resize(n_cells, 0);
        self.rising.clear();
        self.due.clear();
        self.keys = keys;
    }

    /// Marks cell `ci` as starting to switch now: no step is owed to it.
    fn start(&mut self, ci: usize) {
        self.applied[ci] = self.steps.len();
    }

    /// The time of the last breakpoint taken (0 before the first).
    fn now(&self) -> f64 {
        self.steps.last().map_or(0.0, |&(t, _)| t)
    }

    /// Logs group `g`'s drive for the steps from the next one on.
    fn log_drive(&mut self, g: usize, drive: Option<f64>) {
        let next = self.steps.len() + 1;
        let log = &mut self.drives[g];
        match log.last_mut() {
            Some(last) if last.0 == next => last.1 = drive,
            _ => log.push((next, drive)),
        }
    }

    /// Logs a breakpoint taken at `t` after `dt`, advancing every
    /// non-starved group's Φ<sub>g</sub> by its current `drive`.
    fn commit(&mut self, t: f64, dt: f64, drive: &[Option<f64>]) {
        self.steps.push((t, dt));
        for (phi, d) in self.phi.iter_mut().zip(drive) {
            if let Some(d) = *d {
                *phi += d * dt;
            }
        }
    }

    /// Applies every step cell `ci` (switching in direction `d`, in
    /// group `g`) has not had yet to its output voltage `v`, recording
    /// each point: `v += s·dt` with the slope each step gave it, skipping
    /// zero-slope steps as the dense kernel does.
    fn replay<R: Recorder>(
        &mut self,
        eng: &Engine,
        ci: usize,
        d: Dir,
        g: usize,
        v: &mut f64,
        rec: &mut R,
    ) {
        let (from, to) = (self.applied[ci], self.steps.len());
        if from == to {
            return;
        }
        self.applied[ci] = to;
        let out = eng.out_of[ci];
        let mut apply = |s: f64, steps: &[(f64, f64)]| {
            if s != 0.0 {
                for &(t, dt) in steps {
                    *v += s * dt;
                    rec.net(out, t, *v);
                }
            }
        };
        match d {
            Dir::Rising => apply(eng.rise_slope[ci], &self.steps[from..to]),
            Dir::Falling => {
                let log = &self.drives[g];
                let mut i = log.partition_point(|&(first, _)| first <= from + 1) - 1;
                let mut k = from;
                while k < to {
                    let end = log.get(i + 1).map_or(to, |&(first, _)| (first - 1).min(to));
                    let current = model::discharge_current_with(eng.disch_scale[ci], log[i].1);
                    apply(-current / eng.cl[ci], &self.steps[k..end]);
                    k = end;
                    i += 1;
                }
            }
        }
        #[cfg(test)]
        {
            self.stats.replayed += to - from;
        }
    }

    /// Files cell `ci` — switching in direction `d` in group `g`, with
    /// output voltage `v` and digital state `digital` now — under its
    /// lower-bound key (see [`Calendar`]), dropping any entry it had. A
    /// cell whose slope is always zero is not filed: it never moves and
    /// never fires. Slopes are otherwise positive (rising) or negative
    /// (falling) by construction.
    fn file(&mut self, eng: &Engine, ci: usize, d: Dir, g: usize, v: f64, digital: bool) {
        self.gen[ci] = self.gen[ci].wrapping_add(1);
        let k = self.keys;
        let key = match d {
            Dir::Rising => {
                let s = eng.rise_slope[ci];
                if s == 0.0 {
                    return;
                }
                let target = if v < k.vth || !digital {
                    k.vth - k.eps
                } else {
                    k.vdd - k.eps
                };
                self.now() + (target - v - k.margin_v).max(0.0) / s
            }
            Dir::Falling => {
                let scale = eng.disch_scale[ci];
                if scale == 0.0 {
                    return;
                }
                if k.reverse_conduction {
                    0.0
                } else {
                    let target = if v > k.vth || digital {
                        k.vth + k.eps
                    } else {
                        k.eps
                    };
                    self.phi[g] + (v - target - k.margin_v).max(0.0) * (eng.cl[ci] / scale)
                }
            }
        };
        let entry = std::cmp::Reverse((key.to_bits(), ci as u32, self.gen[ci]));
        match d {
            Dir::Rising => self.rising.push(entry),
            Dir::Falling => self.falling[g].push(entry),
        }
    }

    /// Pops the cell with the earliest estimated time among the sources
    /// (the rising heap, each non-starved group's heap) whose top key is
    /// due: inside the horizon `now + dt_min` — in Φ<sub>g</sub>, the
    /// group's Φ advanced by its current `drive` over `dt_min` — widened
    /// by [`Keys::rel`]. With no candidate yet (`dt_min` infinite) every
    /// filed cell is due. `None` once no source is due.
    fn pop_due(&mut self, dt_min: f64, drive: &[Option<f64>]) -> Option<usize> {
        let (t, rel) = (self.now(), self.keys.rel);
        let due = |key: f64, base: f64, rate: f64| {
            dt_min == f64::INFINITY || key <= (base + rate * dt_min) * (1.0 + rel)
        };
        let mut best: Option<(f64, Option<usize>)> = None;
        if let Some(key) = live_top(&mut self.rising, &self.gen) {
            if due(key, t, 1.0) {
                best = Some((key, None));
            }
        }
        for (g, heap) in self.falling.iter_mut().enumerate().take(drive.len()) {
            let Some(d) = drive[g] else { continue };
            let Some(key) = live_top(heap, &self.gen) else {
                continue;
            };
            if due(key, self.phi[g], d) {
                let est = t + (key - self.phi[g]) / d;
                if best.is_none_or(|(b, _)| est.total_cmp(&b).is_lt()) {
                    best = Some((est, Some(g)));
                }
            }
        }
        let heap = match best?.1 {
            None => &mut self.rising,
            Some(g) => &mut self.falling[g],
        };
        heap.pop().map(|std::cmp::Reverse((_, ci, _))| ci as usize)
    }
}

/// The key of a heap's earliest live entry, discarding stale ones.
fn live_top(heap: &mut std::collections::BinaryHeap<Entry>, gen: &[u32]) -> Option<f64> {
    while let Some(&std::cmp::Reverse((key, ci, g))) = heap.peek() {
        if gen[ci as usize] == g {
            return Some(f64::from_bits(key));
        }
        heap.pop();
    }
    None
}

/// Upper bound on the cross-run V<sub>x</sub> memo's key storage, in
/// `u64` words (512 KiB); the memo is cleared (not evicted) at the cap.
/// Bounding words rather than entries keeps the memo cache-sized on
/// large netlists, whose long keys (one word per falling gate) rarely
/// recur beyond the drive sets of the run in progress, while small
/// circuits' short keys still fit every recurring drive set.
const VX_MEMO_WORDS: usize = 1 << 16;

/// Reusable working memory for the event-driven kernel (see
/// [`Engine::run_with`]). One scratch serves any number of runs of any
/// engine — buffers are resized to the current netlist at run start, so
/// the warm breakpoint loop performs no allocation. The scratch also
/// carries the cross-run V<sub>x</sub>-equilibrium memo, keyed by
/// `(r_sleep, body effect, discharge-scale list)` and stamped with the
/// technology fingerprint.
#[derive(Debug, Clone, Default)]
pub struct VbsimScratch {
    digital: Vec<bool>,
    /// Net voltages; a switching cell's output may lag behind by the
    /// steps its calendar entry defers.
    v: Vec<f64>,
    dir: Vec<Option<Dir>>,
    /// How many cells are switching (`dir` set).
    n_active: usize,
    /// Cells currently discharging, sorted by index: the scale lists and
    /// the sleep-current sum walk it in the dense kernel's scan order.
    falling: Vec<usize>,
    /// Whether `i_total` must be re-summed (the falling set or a drive
    /// changed since).
    sum_dirty: bool,
    /// The sleep current: every falling cell's discharge current.
    i_total: f64,
    /// The deferred-advance log and lower-bound calendar.
    cal: Calendar,
    reeval: Vec<CellId>,
    ins: Vec<Logic>,
    group_of: Vec<usize>,
    rs: Vec<f64>,
    vx: Vec<f64>,
    /// Last computed equilibrium per group, replayed while clean.
    vx_sol: Vec<f64>,
    vx_fell: Vec<bool>,
    /// Whether a group's falling-drive set changed since its last solve.
    dirty: Vec<bool>,
    /// Per group, the [`model::discharge_scale`] of each falling cell in
    /// ascending cell order: the solver input and the memo key.
    scales: Vec<Vec<f64>>,
    /// Per group, [`model::discharge_drive`] at its current `vx`.
    drive: Vec<Option<f64>>,
    key_buf: Vec<u64>,
    /// Short key-word lists hashed once per breakpoint, a word at a time
    /// by the leg cache's hasher, where SipHash's per-call setup cost is
    /// measurable and its DoS resistance buys nothing (the simulator
    /// makes the keys).
    vx_memo: std::collections::HashMap<Vec<u64>, (f64, bool), mtk_store::WordState>,
    /// Key words held by `vx_memo` (bounded by [`VX_MEMO_WORDS`]).
    memo_words: usize,
    memo_stamp: Option<u64>,
    /// Settled logic values (the event kernel's zero-alloc stand-in for
    /// [`Netlist::evaluate`]'s return vector).
    logic: Vec<Logic>,
    /// Recycled waveform buffers ([`VbsimScratch::recycle`]); popped at
    /// run start so warm sweeps reuse capacity instead of allocating.
    pwl_pool: Vec<Pwl>,
    wave_pool: Vec<Vec<Pwl>>,
    /// The summary recorder's per-net buffers ([`Engine::run_summary_with`]).
    summary: SummaryRecorder,
}

impl VbsimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        VbsimScratch::default()
    }

    /// Returns a finished run's waveform buffers to the scratch pool.
    ///
    /// Entirely optional — a [`VbsimRun`] is self-contained and can
    /// simply be dropped — but hot loops that extract a measurement and
    /// discard the run (vector screening, sizing bisection, benchmark
    /// sweeps) should recycle it: the next [`Engine::run_with`] on this
    /// scratch then reuses the retained capacity and the warm loop
    /// performs no heap allocation at all.
    pub fn recycle(&mut self, run: VbsimRun) {
        let VbsimRun {
            mut waveforms,
            mut vgnd,
            mut sleep_current,
            ..
        } = run;
        for mut w in waveforms.drain(..) {
            w.clear();
            self.pwl_pool.push(w);
        }
        self.wave_pool.push(waveforms);
        vgnd.clear();
        self.pwl_pool.push(vgnd);
        sleep_current.clear();
        self.pwl_pool.push(sleep_current);
    }
}

/// What one event-kernel run reports besides its recorded series.
struct KernelOut {
    stalled: bool,
    truncated: bool,
    max_falling: usize,
    t_end: f64,
    health: RunHealth,
}

/// Where the event kernel sends the points it produces: per-net output
/// voltages, the group-0 virtual ground and the total sleep current.
/// Every series starts with a point at `t = 0`.
trait Recorder {
    /// Starts a run whose nets will be opened next, in index order.
    fn begin(&mut self, n_nets: usize);
    /// Opens the next net's series at `(0, v)`.
    fn open_net(&mut self, v: f64);
    /// Appends a point to net `net`'s series.
    fn net(&mut self, net: usize, t: f64, v: f64);
    /// The time of net `net`'s last point.
    fn net_end(&self, net: usize) -> f64;
    /// Appends a point to the virtual-ground series.
    fn vgnd(&mut self, t: f64, v: f64);
    /// Appends a point to the sleep-current series.
    fn sleep_current(&mut self, t: f64, i: f64);
}

/// Records every point: the waveforms of a [`VbsimRun`]. Buffers come
/// from the scratch pool ([`VbsimScratch::recycle`]), so a warm sweep
/// refills retained capacity instead of allocating.
struct WaveRecorder {
    waveforms: Vec<Pwl>,
    vgnd: Pwl,
    sleep_current: Pwl,
    pool: Vec<Pwl>,
}

impl WaveRecorder {
    fn from_pool(scratch: &mut VbsimScratch) -> Self {
        let mut pool = std::mem::take(&mut scratch.pwl_pool);
        let mut take = || {
            let mut w = pool.pop().unwrap_or_default();
            w.clear();
            w
        };
        let (vgnd, sleep_current) = (take(), take());
        WaveRecorder {
            waveforms: scratch.wave_pool.pop().unwrap_or_default(),
            vgnd,
            sleep_current,
            pool,
        }
    }
}

impl Recorder for WaveRecorder {
    fn begin(&mut self, n_nets: usize) {
        self.waveforms.reserve(n_nets);
    }

    fn open_net(&mut self, v: f64) {
        let mut w = self.pool.pop().unwrap_or_default();
        w.clear();
        w.push(0.0, v);
        self.waveforms.push(w);
    }

    fn net(&mut self, net: usize, t: f64, v: f64) {
        self.waveforms[net].push(t, v);
    }

    fn net_end(&self, net: usize) -> f64 {
        self.waveforms[net].end_time().unwrap_or(0.0)
    }

    fn vgnd(&mut self, t: f64, v: f64) {
        self.vgnd.push(t, v);
    }

    fn sleep_current(&mut self, t: f64, i: f64) {
        self.sleep_current.push(t, i);
    }
}

/// Records per net only the last point and the last crossing of
/// `threshold`, plus the running maximum of the virtual ground: what
/// [`VbsimRun::summary`] reads from the full waveforms, computed with
/// the same arithmetic ([`segment_crossing`], the `max` fold of
/// [`Pwl::max_value`]). Every point passes [`Pwl::push`]'s check, with
/// its panic text, so a run that would panic building waveforms panics
/// here too.
#[derive(Debug, Clone, Default)]
struct SummaryRecorder {
    threshold: f64,
    nets: Vec<NetTail>,
    vgnd_end: Option<f64>,
    peak_vgnd: Option<f64>,
    current_end: Option<f64>,
}

/// The summary recorder's state for one net.
#[derive(Debug, Clone, Copy)]
struct NetTail {
    t: f64,
    v: f64,
    crossing: Option<f64>,
}

/// [`Pwl::push`]'s validation of a point after one at `last_t`, with the
/// formatting and panic kept off the hot path.
#[inline]
fn check_push(last_t: Option<f64>, t: f64, v: f64) {
    if !(t.is_finite() && v.is_finite() && last_t.is_none_or(|last| t >= last)) {
        reject_point(last_t, t, v);
    }
}

#[cold]
#[inline(never)]
fn reject_point(last_t: Option<f64>, t: f64, v: f64) {
    check_point(last_t, t, v).expect("invalid waveform point");
}

impl Recorder for SummaryRecorder {
    fn begin(&mut self, n_nets: usize) {
        self.nets.clear();
        self.nets.reserve(n_nets);
        self.vgnd_end = None;
        self.peak_vgnd = None;
        self.current_end = None;
    }

    fn open_net(&mut self, v: f64) {
        check_push(None, 0.0, v);
        self.nets.push(NetTail {
            t: 0.0,
            v,
            crossing: None,
        });
    }

    fn net(&mut self, net: usize, t: f64, v: f64) {
        let tail = &mut self.nets[net];
        check_push(Some(tail.t), t, v);
        if let Some(c) = segment_crossing((tail.t, tail.v), (t, v), self.threshold) {
            tail.crossing = Some(c.time);
        }
        tail.t = t;
        tail.v = v;
    }

    fn net_end(&self, net: usize) -> f64 {
        self.nets[net].t
    }

    fn vgnd(&mut self, t: f64, v: f64) {
        check_push(self.vgnd_end, t, v);
        self.vgnd_end = Some(t);
        self.peak_vgnd = Some(self.peak_vgnd.map_or(v, |m| m.max(v)));
    }

    fn sleep_current(&mut self, t: f64, i: f64) {
        check_push(self.current_end, t, i);
        self.current_end = Some(t);
    }
}

/// The recorded output of one switch-level run.
#[derive(Debug, Clone)]
pub struct VbsimRun {
    /// Piecewise-linear voltage per net (indexed by `NetId::index()`).
    pub waveforms: Vec<Pwl>,
    /// The stepwise virtual-ground voltage (Fig 11's characteristic
    /// staircase).
    pub vgnd: Pwl,
    /// Total discharge current through the sleep path over time
    /// (stepwise), used for the §4 peak-current analysis.
    pub sleep_current: Pwl,
    /// Breakpoints processed.
    pub breakpoints: usize,
    /// True when active gates stalled with no way to finish (sleep
    /// device too small — logical failure).
    pub stalled: bool,
    /// True when the run hit `t_stop` before settling.
    pub truncated: bool,
    /// The largest number of gates discharging through the sleep path at
    /// any instant — the §4 "how many gates switch simultaneously"
    /// co-discharge metric that separates vector A from vector B.
    pub max_simultaneous_discharging: usize,
    /// Final simulated time.
    pub t_end: f64,
    vdd: f64,
    /// Per-run health counters (budget use, glitch reversals, fallback
    /// solves) for sweep-level telemetry.
    pub health: RunHealth,
}

impl VbsimRun {
    /// The waveform of a net.
    pub fn waveform(&self, net: NetId) -> &Pwl {
        &self.waveforms[net.index()]
    }

    /// Time of the *last* V<sub>dd</sub>/2 crossing of a net (the paper's
    /// delay reference for glitchy nodes), or `None` if it never crosses.
    pub fn last_crossing_time(&self, net: NetId) -> Option<f64> {
        self.waveforms[net.index()]
            .last_crossing(self.vdd / 2.0, mtk_num::waveform::Edge::Any)
            .map(|c| c.time)
    }

    /// The worst (largest) settling delay over a set of nets: inputs step
    /// at `t = 0`, so the delay is simply the latest crossing time.
    /// `None` when none of the nets switches.
    ///
    /// A net that never crosses V<sub>dd</sub>/2 drops out of the
    /// max-fold entirely — which is correct only when that net was not
    /// supposed to switch. When a CMOS baseline run is available, score
    /// the run with [`mtcmos_delay`] instead so a gate stalled by
    /// virtual-ground bounce is reported as infinite delay rather than
    /// silently vanishing.
    pub fn delay_over(&self, nets: &[NetId]) -> Option<f64> {
        nets.iter()
            .filter_map(|&n| self.last_crossing_time(n))
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// The measurements [`Engine::run_summary_with`] returns, read off
    /// this run's waveforms.
    pub fn summary(&self, probes: &[NetId]) -> RunSummary {
        RunSummary {
            crossings: probes.iter().map(|&n| self.last_crossing_time(n)).collect(),
            stalled: self.stalled,
            truncated: self.truncated,
            peak_vgnd: self.peak_vgnd(),
            health: self.health,
        }
    }

    /// Peak total discharge current (§4's worst-case current analysis).
    pub fn peak_sleep_current(&self) -> f64 {
        self.sleep_current.max_value().unwrap_or(0.0)
    }

    /// Peak virtual-ground bounce.
    pub fn peak_vgnd(&self) -> f64 {
        self.vgnd.max_value().unwrap_or(0.0)
    }
}

/// What a delay measurement reads from one run
/// ([`Engine::run_summary_with`], [`VbsimRun::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-probe time of the last V<sub>dd</sub>/2 crossing, index-aligned
    /// with the probe list; `None` when that probe never crossed.
    pub crossings: Vec<Option<f64>>,
    /// As [`VbsimRun::stalled`].
    pub stalled: bool,
    /// As [`VbsimRun::truncated`].
    pub truncated: bool,
    /// As [`VbsimRun::peak_vgnd`].
    pub peak_vgnd: f64,
    /// As [`VbsimRun::health`].
    pub health: RunHealth,
}

/// The latest of per-probe crossing times — the worst settling delay
/// of one run, as [`VbsimRun::delay_over`] computes it from the
/// waveforms. `None` when no probe crossed.
pub fn latest_crossing(crossings: &[Option<f64>]) -> Option<f64> {
    crossings
        .iter()
        .flatten()
        .fold(None, |acc, &t| Some(acc.map_or(t, |a: f64| a.max(t))))
}

/// The worst settling delay of an observed (possibly degraded) run
/// against a baseline, from per-probe last-crossing times: a probe that
/// crossed in the baseline but not in the observed run stalled and
/// contributes `f64::INFINITY` instead of dropping out of the max-fold;
/// a probe that crossed in neither is skipped (it was never meant to
/// switch); a crossing only the observed run saw still counts. `None`
/// when every probe is skipped. Both tiers reach it through
/// [`mtcmos_delay`], so they report stalls identically.
pub fn worst_delay_vs_baseline(baseline: &[Option<f64>], observed: &[Option<f64>]) -> Option<f64> {
    baseline
        .iter()
        .zip(observed)
        .filter_map(|pair| match pair {
            (Some(_), Some(t)) | (None, Some(t)) => Some(*t),
            (Some(_), None) => Some(f64::INFINITY),
            (None, None) => None,
        })
        .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
}

/// The delay of one MTCMOS leg — its per-probe `crossings` and whether
/// it `stalled` or was `truncated` at its breakpoint budget — scored
/// against the CMOS `baseline` crossings, whose latest is `d_cmos`: a
/// stalled or truncated run is infinitely slow; otherwise the leg's
/// [`worst_delay_vs_baseline`], or `d_cmos` when no probe switched in
/// either run. The one leg score of both tiers: screening, sizing,
/// cluster evaluation and Monte Carlo, and the SPICE legs of
/// [`crate::hybrid`] (whose transients pass `false` for both flags),
/// which all run through its private `run_reused`.
pub fn mtcmos_delay(
    d_cmos: f64,
    baseline: &[Option<f64>],
    crossings: &[Option<f64>],
    stalled: bool,
    truncated: bool,
) -> f64 {
    if stalled || truncated {
        f64::INFINITY
    } else {
        worst_delay_vs_baseline(baseline, crossings).unwrap_or(d_cmos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use mtk_circuits::adder::RippleAdder;
    use mtk_circuits::multiplier::{ArrayMultiplier, MultiplierSpec};
    use mtk_circuits::tree::{InverterTree, TreeSpec};

    fn tech07() -> Technology {
        Technology::l07()
    }

    #[test]
    fn stalled_probe_reports_infinite_delay_against_baseline() {
        // A probe that switched in the baseline but never crossed in the
        // observed run must surface as infinite delay, not vanish.
        let baseline = [Some(1e-9), Some(2e-9), None];
        let stalled = [Some(1.5e-9), None, None];
        assert_eq!(
            worst_delay_vs_baseline(&baseline, &stalled),
            Some(f64::INFINITY)
        );
        let healthy = [Some(1.5e-9), Some(3e-9), None];
        assert_eq!(worst_delay_vs_baseline(&baseline, &healthy), Some(3e-9));
        // A probe quiet in both legs is skipped, not infinite.
        assert_eq!(worst_delay_vs_baseline(&[None], &[None]), None);
        // A crossing only the observed leg saw (e.g. an MTCMOS-induced
        // glitch) still counts toward the worst case.
        assert_eq!(worst_delay_vs_baseline(&[None], &[Some(4e-9)]), Some(4e-9));
    }

    #[test]
    fn engine_fingerprint_matches_netlist() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        assert_eq!(engine.fingerprint(), tree.netlist.fingerprint());
        assert_eq!(engine.fingerprint(), engine.fingerprint());
    }

    #[test]
    fn cmos_tree_delay_matches_constant_current_model() {
        // A 1-stage "tree" is just an inverter: the vbsim delay must equal
        // the Eq. 3 hand calculation exactly (same constant-current model).
        let tree = InverterTree::new(&TreeSpec {
            fanout: 1,
            stages: 1,
            load_cap: 50e-15,
            drive: 1.0,
        })
        .unwrap();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let run = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::cmos())
            .unwrap();
        let d = run.last_crossing_time(tree.probe()).unwrap();
        let cl = tree.netlist.load_cap(tree.probe(), &tech);
        let i = tech.nmos_isat(tech.unit_wn, 0.0, false);
        let expect = model::constant_current_delay(&tech, cl, i);
        assert!((d - expect).abs() / expect < 1e-9, "{d} vs {expect}");
        assert!(!run.stalled && !run.truncated);
    }

    #[test]
    fn cmos_mode_equals_zero_resistance_mtcmos() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let a = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::cmos())
            .unwrap();
        let b = engine
            .run(
                &[Logic::Zero],
                &[Logic::One],
                &VbsimOptions {
                    sleep: SleepNetwork::Resistance(0.0),
                    ..VbsimOptions::default()
                },
            )
            .unwrap();
        for net in tree.netlist.net_ids() {
            let (ta, tb) = (a.last_crossing_time(net), b.last_crossing_time(net));
            match (ta, tb) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-18),
                (None, None) => {}
                other => panic!("crossing mismatch on {net:?}: {other:?}"),
            }
        }
        assert_eq!(a.peak_vgnd(), 0.0);
    }

    #[test]
    fn sleep_transistor_slows_discharging_tree() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let cmos = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::cmos())
            .unwrap();
        let mt = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(5.0))
            .unwrap();
        let d_cmos = cmos.delay_over(tree.leaves()).unwrap();
        let d_mt = mt.delay_over(tree.leaves()).unwrap();
        assert!(d_mt > d_cmos * 1.05, "{d_mt} vs {d_cmos}");
        assert!(mt.peak_vgnd() > 0.01);
        // The vgnd staircase shows the third-stage bump larger than the
        // first-stage bump (the Fig 5 signature): max comes after the
        // first step.
        let first_step = mt.vgnd.crossings(mt.peak_vgnd() * 0.99);
        assert!(!first_step.is_empty());
    }

    #[test]
    fn rising_transition_unaffected_by_sleep_device() {
        // Input 1 -> 0 makes the leaf outputs charge (pull-up), which an
        // NMOS sleep device does not slow (§2.1).
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let cmos = engine
            .run(&[Logic::One], &[Logic::Zero], &VbsimOptions::cmos())
            .unwrap();
        let mt = engine
            .run(&[Logic::One], &[Logic::Zero], &VbsimOptions::mtcmos(3.0))
            .unwrap();
        let d_cmos = cmos.delay_over(tree.leaves()).unwrap();
        let d_mt = mt.delay_over(tree.leaves()).unwrap();
        // Stage 2 (middle) still discharges, so some slowdown leaks into
        // the path, but the final charging edge dominates: the penalty
        // must be far smaller than for the discharging direction.
        let fall_cmos = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::cmos())
            .unwrap()
            .delay_over(tree.leaves())
            .unwrap();
        let fall_mt = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(3.0))
            .unwrap()
            .delay_over(tree.leaves())
            .unwrap();
        let rise_penalty = (d_mt - d_cmos) / d_cmos;
        let fall_penalty = (fall_mt - fall_cmos) / fall_cmos;
        assert!(
            rise_penalty < fall_penalty * 0.6,
            "rise {rise_penalty} vs fall {fall_penalty}"
        );
    }

    #[test]
    fn tiny_sleep_device_cripples_the_tree() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let cmos = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::cmos())
            .unwrap()
            .delay_over(tree.leaves())
            .unwrap();
        // W/L = 0.05 → R ≈ 0.9 MΩ: the nine leaves starve. The
        // equilibrium never reaches a literal stall (some trickle always
        // flows), but the delay explodes by orders of magnitude — or the
        // run is truncated by t_stop.
        let run = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(0.05))
            .unwrap();
        if !(run.stalled || run.truncated) {
            let d = run.delay_over(tree.leaves()).unwrap();
            assert!(d > 20.0 * cmos, "crippled delay {d} vs cmos {cmos}");
        }
    }

    #[test]
    fn vgnd_is_staircase_and_bounded() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let run = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(8.0))
            .unwrap();
        let vg = &run.vgnd;
        assert!(vg.max_value().unwrap() < tech.vdd);
        assert!(vg.min_value().unwrap() >= 0.0);
        // Ends settled at 0 (no current at the end).
        assert!(vg.final_value().unwrap().abs() < 1e-12);
        assert!(run.peak_sleep_current() > 0.0);
    }

    #[test]
    fn adder_vbsim_reaches_correct_logic_state() {
        let add = RippleAdder::paper();
        let tech = tech07();
        let engine = Engine::new(&add.netlist, &tech);
        for &(a0, b0, a1, b1) in &[(0u64, 0u64, 7u64, 5u64), (3, 4, 1, 6), (7, 7, 0, 1)] {
            let run = engine
                .run(
                    &add.input_values(a0, b0),
                    &add.input_values(a1, b1),
                    &VbsimOptions::mtcmos(10.0),
                )
                .unwrap();
            assert!(!run.stalled && !run.truncated);
            // Final analog state must encode a1 + b1.
            let expect = a1 + b1;
            let mut got = 0u64;
            for (k, &s) in add.sum.iter().enumerate() {
                let v = run.waveform(s).final_value().unwrap();
                got |= ((v > tech.v_switch()) as u64) << k;
            }
            let vc = run.waveform(add.cout).final_value().unwrap();
            got |= ((vc > tech.v_switch()) as u64) << add.bits();
            assert_eq!(got, expect, "{a0}+{b0} -> {a1}+{b1}");
        }
    }

    #[test]
    fn multiplier_vector_a_bounces_more_than_b() {
        // §4: vector A (00,00)->(FF,81) causes many simultaneous internal
        // transitions; vector B (7F,81)->(FF,81) ripples. A must draw a
        // larger current spike and bounce the virtual ground harder.
        let m = ArrayMultiplier::new(&MultiplierSpec {
            bits: 8,
            ..MultiplierSpec::default()
        })
        .unwrap();
        let tech = Technology::l03();
        let engine = Engine::new(&m.netlist, &tech);
        let opts = VbsimOptions::mtcmos(170.0);
        let run_a = engine
            .run(
                &m.input_values(0x00, 0x00),
                &m.input_values(0xFF, 0x81),
                &opts,
            )
            .unwrap();
        let run_b = engine
            .run(
                &m.input_values(0x7F, 0x81),
                &m.input_values(0xFF, 0x81),
                &opts,
            )
            .unwrap();
        assert!(
            run_a.peak_sleep_current() > run_b.peak_sleep_current() * 1.5,
            "A {} vs B {}",
            run_a.peak_sleep_current(),
            run_b.peak_sleep_current()
        );
        assert!(run_a.peak_vgnd() > run_b.peak_vgnd());
        // The underlying mechanism (§4): many more gates co-discharge
        // under vector A than under the rippling vector B.
        assert!(
            run_a.max_simultaneous_discharging > run_b.max_simultaneous_discharging,
            "A {} vs B {} simultaneous",
            run_a.max_simultaneous_discharging,
            run_b.max_simultaneous_discharging
        );
    }

    #[test]
    fn reverse_conduction_pins_low_outputs() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let opts = VbsimOptions {
            reverse_conduction: true,
            ..VbsimOptions::mtcmos(2.0)
        };
        let run = engine.run(&[Logic::Zero], &[Logic::One], &opts).unwrap();
        // Stage-0 output falls first and sits at logic low while the
        // third stage discharges: with reverse conduction it must ride
        // above 0 V at some point.
        let s0 = tree.stage_outputs[0][0];
        let w = run.waveform(s0);
        let tail_min = w
            .points()
            .iter()
            .filter(|&&(t, _)| t > run.t_end * 0.2)
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        let _ = tail_min;
        assert!(w.max_value().unwrap() >= 0.0, "waveform exists");
        // The pinned floor shows up as a nonzero final-phase voltage on
        // some low net while vgnd is bounced; check against the plain run.
        let plain = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(2.0))
            .unwrap();
        let area = |p: &mtk_num::waveform::Pwl| -> f64 { p.points().iter().map(|&(_, v)| v).sum() };
        assert!(area(run.waveform(s0)) >= area(plain.waveform(s0)) - 1e-12);
    }

    #[test]
    fn body_effect_increases_delay() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let plain = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(5.0))
            .unwrap();
        let body = engine
            .run(
                &[Logic::Zero],
                &[Logic::One],
                &VbsimOptions {
                    body_effect: true,
                    ..VbsimOptions::mtcmos(5.0)
                },
            )
            .unwrap();
        assert!(body.delay_over(tree.leaves()).unwrap() > plain.delay_over(tree.leaves()).unwrap());
    }

    #[test]
    fn no_op_transition_produces_no_events() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let run = engine
            .run(&[Logic::One], &[Logic::One], &VbsimOptions::mtcmos(10.0))
            .unwrap();
        assert_eq!(run.breakpoints, 0);
        assert!(run.delay_over(tree.leaves()).is_none());
    }

    #[test]
    fn x_state_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let float = nl.add_net("float").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.add_cell(
            "g",
            mtk_netlist::cell::CellKind::Nand2,
            vec![a, float],
            y,
            1.0,
        )
        .unwrap();
        let tech = tech07();
        let engine = Engine::new(&nl, &tech);
        let err = engine
            .run(&[Logic::One], &[Logic::Zero], &VbsimOptions::cmos())
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownState(_)), "{err}");
    }

    #[test]
    fn mismatched_vector_widths_rejected() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        assert!(engine
            .run(&[Logic::Zero], &[], &VbsimOptions::cmos())
            .is_err());
    }

    #[test]
    fn sleep_network_resistances() {
        let tech = tech07();
        assert_eq!(SleepNetwork::Cmos.resistance(&tech), 0.0);
        assert_eq!(SleepNetwork::Resistance(42.0).resistance(&tech), 42.0);
        let r = SleepNetwork::Transistor { w_over_l: 10.0 }.resistance(&tech);
        assert!((r - tech.sleep_resistance(10.0)).abs() < 1e-9);
    }

    /// For any adder vector pair: vbsim settles to the logic value the
    /// zero-delay evaluator predicts, in both CMOS and MTCMOS modes.
    #[test]
    fn adder_settles_to_logic_prediction() {
        let mut rng = mtk_num::prng::Xoshiro256pp::seed_from_u64(0x5E77);
        let add = RippleAdder::paper();
        let tech = tech07();
        let engine = Engine::new(&add.netlist, &tech);
        for _ in 0..16 {
            let a0 = rng.next_below(8);
            let b0 = rng.next_below(8);
            let a1 = rng.next_below(8);
            let b1 = rng.next_below(8);
            let mt = rng.next_bool();
            let opts = if mt {
                VbsimOptions::mtcmos(10.0)
            } else {
                VbsimOptions::cmos()
            };
            let run = engine
                .run(&add.input_values(a0, b0), &add.input_values(a1, b1), &opts)
                .unwrap();
            assert!(!run.stalled);
            let expect = add.netlist.evaluate(&add.input_values(a1, b1)).unwrap();
            for net in add.netlist.net_ids() {
                if add.netlist.net(net).tie.is_some() {
                    continue;
                }
                let v = run.waveform(net).final_value().unwrap();
                let dig = v > tech.v_switch();
                if let Some(e) = expect[net.index()].to_bool() {
                    assert_eq!(dig, e, "net {} at {}", add.netlist.net(net).name, v);
                }
            }
        }
    }

    /// Asserts every observable of two runs matches bit-for-bit —
    /// waveform points compared on their `f64` bit patterns, so even a
    /// `-0.0` vs `0.0` discrepancy fails.
    fn assert_runs_identical(a: &VbsimRun, b: &VbsimRun, what: &str) {
        let pwl_bits = |w: &Pwl| -> Vec<(u64, u64)> {
            w.points()
                .iter()
                .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                .collect()
        };
        assert_eq!(a.waveforms.len(), b.waveforms.len(), "{what}: net count");
        for (i, (wa, wb)) in a.waveforms.iter().zip(&b.waveforms).enumerate() {
            assert_eq!(pwl_bits(wa), pwl_bits(wb), "{what}: waveform of net {i}");
        }
        assert_eq!(pwl_bits(&a.vgnd), pwl_bits(&b.vgnd), "{what}: vgnd");
        assert_eq!(
            pwl_bits(&a.sleep_current),
            pwl_bits(&b.sleep_current),
            "{what}: sleep current"
        );
        assert_eq!(a.breakpoints, b.breakpoints, "{what}: breakpoints");
        assert_eq!(a.stalled, b.stalled, "{what}: stalled");
        assert_eq!(a.truncated, b.truncated, "{what}: truncated");
        assert_eq!(
            a.max_simultaneous_discharging, b.max_simultaneous_discharging,
            "{what}: co-discharge metric"
        );
        assert_eq!(a.t_end.to_bits(), b.t_end.to_bits(), "{what}: t_end");
        assert_eq!(a.vdd.to_bits(), b.vdd.to_bits(), "{what}: vdd");
        assert_eq!(a.health, b.health, "{what}: health counters");
    }

    /// The event kernel is bit-identical to the dense-scan kernel across
    /// sleep models, the body-effect/reverse-conduction extensions, and
    /// scratch reuse.
    #[test]
    fn event_kernel_matches_dense_scan_bitwise() {
        let add = RippleAdder::paper();
        let tech = tech07();
        let engine = Engine::new(&add.netlist, &tech);
        let variants: Vec<VbsimOptions> = vec![
            VbsimOptions::cmos(),
            VbsimOptions::mtcmos(10.0),
            VbsimOptions::mtcmos(0.6),
            VbsimOptions {
                body_effect: true,
                ..VbsimOptions::mtcmos(5.0)
            },
            VbsimOptions {
                reverse_conduction: true,
                ..VbsimOptions::mtcmos(3.0)
            },
        ];
        let mut scratch = VbsimScratch::new();
        for opts in &variants {
            for (a0, b0, a1, b1) in [(0u64, 0u64, 7u64, 5u64), (3, 4, 1, 6), (7, 7, 0, 1)] {
                let from = add.input_values(a0, b0);
                let to = add.input_values(a1, b1);
                let dense = engine
                    .run(
                        &from,
                        &to,
                        &VbsimOptions {
                            kernel: VbsimKernel::DenseScan,
                            ..opts.clone()
                        },
                    )
                    .unwrap();
                let event = engine.run(&from, &to, opts).unwrap();
                let what = format!("{a0}{b0}->{a1}{b1}");
                assert_runs_identical(&dense, &event, &what);
                // Reused scratch (warm memo, recycled buffers) must not
                // change a single bit either.
                let warm = engine.run_with(&from, &to, opts, &mut scratch).unwrap();
                assert_runs_identical(&dense, &warm, &format!("warm {what}"));
            }
        }
    }

    /// The calendar prunes: on 16×16 multiplier legs — the sizing
    /// workload — a breakpoint evaluates a handful of the ~100 switching
    /// cells and the rest advance by replay. A calendar that degenerated
    /// to a full scan would stay bit-identical, so only this catches it.
    #[test]
    fn calendar_evaluates_few_cells_per_breakpoint_on_mul16() {
        let m = ArrayMultiplier::new(&MultiplierSpec {
            bits: 16,
            ..MultiplierSpec::default()
        })
        .unwrap();
        let tech = Technology::l03();
        let engine = Engine::new(&m.netlist, &tech);
        let probes = m.netlist.primary_outputs().to_vec();
        let inputs = m.netlist.primary_inputs().len();
        let mut rng = mtk_num::prng::Xoshiro256pp::seed_from_u64(0xCA1E);
        let mut side = || -> Vec<Logic> {
            (0..inputs)
                .map(|_| Logic::from_bool(rng.next_bool()))
                .collect()
        };
        let legs: Vec<_> = (0..3).map(|_| (side(), side())).collect();
        for wl in [2947.0, 10.0] {
            let mut scratch = VbsimScratch::new();
            let opts = VbsimOptions::mtcmos(wl);
            for (from, to) in &legs {
                let s = engine
                    .run_summary_with(from, to, None, &probes, &opts, &mut scratch)
                    .unwrap();
                assert!(!s.stalled && !s.truncated, "W/L {wl}");
            }
            let stats = scratch.cal.stats;
            assert!(stats.breakpoints > 1000, "W/L {wl}: {stats:?}");
            let per_bp = stats.evaluated as f64 / stats.breakpoints as f64;
            assert!(per_bp <= 4.0, "W/L {wl}: {per_bp} cells per breakpoint");
            assert!(
                stats.replayed > 10 * stats.evaluated,
                "W/L {wl}: most steps are deferred: {stats:?}"
            );
        }
    }

    /// Delay through the tree is monotone non-increasing in sleep W/L.
    #[test]
    fn tree_delay_monotone_in_sleep_size() {
        let tree = InverterTree::paper();
        let tech = tech07();
        let engine = Engine::new(&tree.netlist, &tech);
        let mut last = f64::INFINITY;
        for wl in [2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0] {
            let run = engine
                .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(wl))
                .unwrap();
            let d = run.delay_over(tree.leaves()).unwrap();
            assert!(d <= last + 1e-15, "delay rose at wl={wl}");
            last = d;
        }
    }
}

#[cfg(test)]
mod partition_invariants {
    use super::*;
    use mtk_circuits::adder::RippleAdder;
    use mtk_netlist::tech::Technology;

    /// A single-group partition must be bit-identical to the plain run.
    #[test]
    fn single_group_partition_equals_plain_run() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let opts = VbsimOptions::mtcmos(10.0);
        let partition = PartitionedSleep {
            assignment: vec![0; add.netlist.cells().len()],
            networks: vec![SleepNetwork::Transistor { w_over_l: 10.0 }],
        };
        for (a0, b0, a1, b1) in [(0u64, 0u64, 7u64, 5u64), (3, 4, 1, 6)] {
            let from = add.input_values(a0, b0);
            let to = add.input_values(a1, b1);
            let plain = engine.run(&from, &to, &opts).unwrap();
            let part = engine
                .run_partitioned(&from, &to, Some(&partition), &VbsimOptions::cmos())
                .unwrap();
            assert_eq!(plain.breakpoints, part.breakpoints);
            for net in add.netlist.net_ids() {
                assert_eq!(
                    plain.waveform(net).points(),
                    part.waveform(net).points(),
                    "net {}",
                    add.netlist.net(net).name
                );
            }
            assert_eq!(plain.vgnd.points(), part.vgnd.points());
        }
    }

    /// Bad partitions are rejected.
    #[test]
    fn partition_validation() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let from = add.input_values(0, 0);
        let to = add.input_values(7, 7);
        let short = PartitionedSleep {
            assignment: vec![0; 3],
            networks: vec![SleepNetwork::Cmos],
        };
        assert!(engine
            .run_partitioned(&from, &to, Some(&short), &VbsimOptions::cmos())
            .is_err());
        let bad_group = PartitionedSleep {
            assignment: vec![9; add.netlist.cells().len()],
            networks: vec![SleepNetwork::Cmos],
        };
        assert!(engine
            .run_partitioned(&from, &to, Some(&bad_group), &VbsimOptions::cmos())
            .is_err());
    }
}
