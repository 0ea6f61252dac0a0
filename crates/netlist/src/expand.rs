//! Gate-level → transistor-level expansion of MTCMOS blocks.
//!
//! Every cell's pull-up network is instantiated between V<sub>dd</sub>
//! and its output, and its pull-down network between the output and the
//! shared *virtual ground* rail. A single high-V<sub>t</sub> NMOS sleep
//! transistor (or, for §2.1 studies, an explicit resistor) connects the
//! virtual ground to real ground — the Figure 1 structure of the paper.
//! Primary inputs become voltage sources whose waveforms the experiments
//! overwrite per input-vector transition.

use crate::cell::Network;
use crate::logic::Logic;
use crate::netlist::{NetId, Netlist};
use crate::tech::Technology;
use crate::NetlistError;
use mtk_spice::circuit::{Circuit, DeviceId, ModelId, NodeId};
use mtk_spice::source::SourceWave;

/// How the sleep path is implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepImpl {
    /// No sleep device: the pull-downs connect straight to ground
    /// (the conventional-CMOS baseline).
    AlwaysOn,
    /// A high-V<sub>t</sub> NMOS of the given aspect ratio, gate tied to
    /// an (active-high) sleep-control source — the real MTCMOS structure.
    Transistor {
        /// Sleep device W/L.
        w_over_l: f64,
    },
    /// A linear resistor, the paper's §2.1 approximation.
    Resistor {
        /// Resistance in ohms.
        ohms: f64,
    },
}

/// Options controlling the expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandOptions {
    /// Sleep-path implementation.
    pub sleep: SleepImpl,
    /// Extra lumped capacitance on the virtual-ground rail (§2.2 studies).
    pub vgnd_extra_cap: f64,
    /// Whether MOSFETs model subthreshold leakage.
    pub with_leakage: bool,
    /// Whether junction capacitance is attached to virtual ground
    /// (SOI has almost none — §2.2).
    pub vgnd_junction_cap: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            sleep: SleepImpl::AlwaysOn,
            vgnd_extra_cap: 0.0,
            with_leakage: false,
            vgnd_junction_cap: true,
        }
    }
}

impl ExpandOptions {
    /// MTCMOS with a sleep transistor of the given W/L.
    pub fn mtcmos(w_over_l: f64) -> Self {
        ExpandOptions {
            sleep: SleepImpl::Transistor { w_over_l },
            ..ExpandOptions::default()
        }
    }

    /// Conventional CMOS (no sleep device).
    pub fn cmos() -> Self {
        ExpandOptions::default()
    }
}

/// The result of an expansion: the transistor-level circuit plus the
/// bookkeeping experiments need to drive and probe it.
#[derive(Debug)]
pub struct Expanded {
    /// The transistor-level circuit.
    pub circuit: Circuit,
    /// SPICE node of each net, indexed by [`NetId`].
    pub net_nodes: Vec<NodeId>,
    /// Input-driver voltage source per primary input, in
    /// [`Netlist::primary_inputs`] order.
    pub input_sources: Vec<DeviceId>,
    /// The virtual-ground node (`None` for [`SleepImpl::AlwaysOn`]).
    pub vgnd: Option<NodeId>,
    /// The sleep transistor (only for [`SleepImpl::Transistor`]).
    pub sleep_device: Option<DeviceId>,
    /// Supply voltage used for input waveforms.
    pub vdd: f64,
    /// Default input slew used by [`Expanded::set_input_transition`].
    pub default_slew: f64,
    /// Gate capacitance per unit W/L, for rescaling the sleep device.
    sleep_gate_cap_per_unit: f64,
}

impl Expanded {
    /// Programs a primary input (by its position in
    /// [`Netlist::primary_inputs`]) to transition between logic levels at
    /// `t0` with the expansion's default slew.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownInput`] for a bad index or an `X`
    /// level.
    pub fn set_input_transition(
        &mut self,
        input_pos: usize,
        from: Logic,
        to: Logic,
        t0: f64,
    ) -> Result<(), NetlistError> {
        let level = |l: Logic| -> Result<f64, NetlistError> {
            match l {
                Logic::Zero => Ok(0.0),
                Logic::One => Ok(self.vdd),
                Logic::X => Err(NetlistError::UnknownInput(format!(
                    "input #{input_pos} cannot be driven to X"
                ))),
            }
        };
        let dev = *self
            .input_sources
            .get(input_pos)
            .ok_or_else(|| NetlistError::UnknownInput(format!("input #{input_pos}")))?;
        let v0 = level(from)?;
        let v1 = level(to)?;
        let wave = if v0 == v1 {
            SourceWave::Dc(v0)
        } else {
            SourceWave::ramp(t0, self.default_slew, v0, v1)
        };
        self.circuit
            .set_vsource_wave(dev, wave)
            .expect("input_sources holds only vsources");
        Ok(())
    }

    /// Rescales the sleep transistor (and its explicit gate capacitance).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownInput`] when the expansion has no
    /// sleep transistor.
    pub fn set_sleep_w_over_l(&mut self, w_over_l: f64) -> Result<(), NetlistError> {
        let dev = self.sleep_device.ok_or_else(|| {
            NetlistError::UnknownInput("expansion has no sleep transistor".to_string())
        })?;
        self.circuit
            .set_mosfet_w_over_l(dev, w_over_l)
            .map_err(|e| NetlistError::UnknownInput(e.to_string()))?;
        if let Some(cap) = self.circuit.find_device("c_sleep_gate") {
            self.circuit
                .set_capacitance(cap, self.sleep_gate_cap_per_unit * w_over_l)
                .map_err(|e| NetlistError::UnknownInput(e.to_string()))?;
        }
        Ok(())
    }

    /// SPICE node of a net.
    pub fn node_of(&self, net: NetId) -> NodeId {
        self.net_nodes[net.index()]
    }

    /// Declares the settled logic state as initial conditions for the
    /// operating point that seeds a transient run. Solving a stacked-
    /// MOSFET netlist's DC state from a cold start is fragile; the
    /// gate-level evaluation already knows every net's rail, so the OP
    /// only has to fill in internal stack nodes.
    ///
    /// `values` is indexed by `NetId` (as returned by
    /// [`Netlist::evaluate`]); unknown (`X`) nets are skipped.
    pub fn apply_initial_state(&mut self, values: &[Logic]) {
        let vdd = self.vdd;
        for (idx, &node) in self.net_nodes.iter().enumerate() {
            if node.is_ground() {
                continue;
            }
            if let Some(b) = values.get(idx).and_then(|l| l.to_bool()) {
                self.circuit.set_ic(node, if b { vdd } else { 0.0 });
            }
        }
        if let Some(vg) = self.vgnd {
            self.circuit.set_ic(vg, 0.0);
        }
    }
}

/// Expands a gate-level netlist with one sleep transistor *per module*:
/// `assignment[cell]` selects the module, each module gets its own
/// virtual-ground rail and a sleep device of `w_over_ls[module]` — the
/// transistor-level counterpart of
/// `mtk-core`'s partitioned switch-level simulation.
///
/// All modules share one active-high sleep-control source (`vsleep`).
///
/// # Errors
///
/// * [`NetlistError::UnknownInput`] when the assignment shape is wrong.
/// * As [`expand`] otherwise.
pub fn expand_partitioned(
    netlist: &Netlist,
    tech: &Technology,
    assignment: &[usize],
    w_over_ls: &[f64],
    opts: &ExpandOptions,
) -> Result<Expanded, NetlistError> {
    if assignment.len() != netlist.cells().len() {
        return Err(NetlistError::UnknownInput(format!(
            "partition covers {} cells, netlist has {}",
            assignment.len(),
            netlist.cells().len()
        )));
    }
    if let Some(&bad) = assignment.iter().find(|&&g| g >= w_over_ls.len()) {
        return Err(NetlistError::UnknownInput(format!(
            "partition group {bad} has no sleep size"
        )));
    }
    expand_inner(netlist, tech, opts, Some((assignment, w_over_ls)))
}

/// Expands a gate-level netlist into a transistor-level circuit.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] for cyclic netlists (the
/// expansion itself is structural, but the consistency check runs first).
pub fn expand(
    netlist: &Netlist,
    tech: &Technology,
    opts: &ExpandOptions,
) -> Result<Expanded, NetlistError> {
    expand_inner(netlist, tech, opts, None)
}

fn expand_inner(
    netlist: &Netlist,
    tech: &Technology,
    opts: &ExpandOptions,
    partition: Option<(&[usize], &[f64])>,
) -> Result<Expanded, NetlistError> {
    netlist.topo_order()?;
    let mut c = Circuit::new();
    let vdd_node = c.node("vdd");
    c.vsource("vdd", vdd_node, Circuit::GND, SourceWave::Dc(tech.vdd));

    let nmos = c.add_model(tech.nmos_model(opts.with_leakage));
    let pmos = c.add_model(tech.pmos_model(opts.with_leakage));

    // Virtual ground and the sleep path(s).
    let mut module_rails: Vec<NodeId> = Vec::new();
    if let Some((_, w_over_ls)) = partition {
        let sleep_ctl = c.node("sleep_ctl");
        let hvt = c.add_model(tech.sleep_model(opts.with_leakage));
        c.vsource("vsleep", sleep_ctl, Circuit::GND, SourceWave::Dc(tech.vdd));
        for (g, &wl) in w_over_ls.iter().enumerate() {
            let rail = c.node(&format!("vgnd{g}"));
            c.mosfet(
                &format!("msleep{g}"),
                rail,
                sleep_ctl,
                Circuit::GND,
                Circuit::GND,
                hvt,
                wl,
            );
            c.capacitor(
                &format!("c_sleep_gate{g}"),
                sleep_ctl,
                Circuit::GND,
                tech.c_gate * wl,
            );
            module_rails.push(rail);
        }
    }
    let (vgnd_node, sleep_device) = if partition.is_some() {
        (Some(module_rails[0]), None)
    } else {
        match opts.sleep {
            SleepImpl::AlwaysOn => (None, None),
            SleepImpl::Transistor { w_over_l } => {
                let vgnd = c.node("vgnd");
                let sleep_ctl = c.node("sleep_ctl");
                let hvt = c.add_model(tech.sleep_model(opts.with_leakage));
                // Active mode by default: gate high.
                c.vsource("vsleep", sleep_ctl, Circuit::GND, SourceWave::Dc(tech.vdd));
                let dev = c.mosfet(
                    "msleep",
                    vgnd,
                    sleep_ctl,
                    Circuit::GND,
                    Circuit::GND,
                    hvt,
                    w_over_l,
                );
                // The Level-1 model has no intrinsic gate capacitance; attach
                // the sleep device's gate load explicitly so sleep/wake
                // control energy (§2.1 "switching energy overhead") is
                // physical.
                c.capacitor(
                    "c_sleep_gate",
                    sleep_ctl,
                    Circuit::GND,
                    tech.c_gate * w_over_l,
                );
                (Some(vgnd), Some(dev))
            }
            SleepImpl::Resistor { ohms } => {
                let vgnd = c.node("vgnd");
                c.resistor("rsleep", vgnd, Circuit::GND, ohms);
                (Some(vgnd), None)
            }
        }
    };
    let rail = vgnd_node.unwrap_or(Circuit::GND);

    // Nets → nodes. Tied nets collapse onto the rails.
    let net_nodes: Vec<NodeId> = netlist
        .nets()
        .iter()
        .map(|net| match net.tie {
            Some(Logic::One) => vdd_node,
            Some(_) => Circuit::GND,
            None => c.node(&format!("n_{}", net.name)),
        })
        .collect();

    // Primary-input drivers.
    let input_sources: Vec<DeviceId> = netlist
        .primary_inputs()
        .iter()
        .map(|&ni| {
            let name = format!("vin_{}", netlist.net(ni).name);
            c.vsource(
                &name,
                net_nodes[ni.index()],
                Circuit::GND,
                SourceWave::Dc(0.0),
            )
        })
        .collect();

    // Cells.
    let mut vgnd_junction_units = 0.0f64;
    let mut module_junction_units = vec![0.0f64; module_rails.len()];
    for (cell_idx, cell) in netlist.cells().iter().enumerate() {
        let rail = match partition {
            Some((assignment, _)) => {
                module_junction_units[assignment[cell_idx]] += tech.unit_wn * cell.drive;
                module_rails[assignment[cell_idx]]
            }
            None => rail,
        };
        let out = net_nodes[cell.output.index()];
        let gates: Vec<NodeId> = cell.inputs.iter().map(|&n| net_nodes[n.index()]).collect();
        let wn = tech.unit_wn * cell.drive;
        let wp = tech.unit_wp * cell.drive;
        // Pull-up: vdd → out.
        emit_network(
            &mut c,
            &cell.kind.pun(),
            &format!("{}_p", cell.name),
            vdd_node,
            out,
            &gates,
            pmos,
            wp,
            vdd_node,
            tech,
        );
        // Pull-down: out → virtual ground. Bodies stay on *real* ground so
        // virtual-ground bounce produces the §2.1 body effect.
        emit_network(
            &mut c,
            &cell.kind.pdn(),
            &format!("{}_n", cell.name),
            out,
            rail,
            &gates,
            nmos,
            wn,
            Circuit::GND,
            tech,
        );
        vgnd_junction_units += wn;
    }

    // Per-net lumped loads (gate + drain + wire capacitance).
    let loads = netlist.net_loads(tech);
    for (idx, net) in netlist.nets().iter().enumerate() {
        if net.tie.is_some() {
            continue;
        }
        let cap = loads.cap[idx];
        if cap > 0.0 {
            c.capacitor(
                &format!("cl_{}", net.name),
                net_nodes[idx],
                Circuit::GND,
                cap,
            );
        }
    }

    // Virtual-ground parasitics (§2.2): junction caps of the bottom
    // transistors plus any explicit extra.
    if partition.is_some() {
        for (g, &rail) in module_rails.iter().enumerate() {
            let mut cap = opts.vgnd_extra_cap / module_rails.len() as f64;
            if opts.vgnd_junction_cap {
                cap += module_junction_units[g] * tech.c_drain;
            }
            if cap > 0.0 {
                c.capacitor(&format!("c_vgnd{g}"), rail, Circuit::GND, cap);
            }
        }
    } else if let Some(vg) = vgnd_node {
        let mut cap = opts.vgnd_extra_cap;
        if opts.vgnd_junction_cap {
            cap += vgnd_junction_units * tech.c_drain;
        }
        if cap > 0.0 {
            c.capacitor("c_vgnd", vg, Circuit::GND, cap);
        }
    }

    Ok(Expanded {
        circuit: c,
        net_nodes,
        input_sources,
        vgnd: vgnd_node,
        sleep_device,
        vdd: tech.vdd,
        default_slew: default_slew(tech),
        sleep_gate_cap_per_unit: tech.c_gate,
    })
}

/// The default input slew: a fast but finite edge, ~2 % of a unit-gate
/// delay scale derived from the technology.
fn default_slew(tech: &Technology) -> f64 {
    // CL ~ a fanout-of-1 gate load; I ~ unit NMOS saturation current.
    let cl = (tech.unit_wn + tech.unit_wp) * tech.c_gate;
    let i = tech.nmos_isat(tech.unit_wn, 0.0, false).max(1e-9);
    (cl * tech.vdd / i) * 0.1
}

/// Recursively instantiates a series/parallel network between `top` and
/// `bottom`.
#[allow(clippy::too_many_arguments)]
fn emit_network(
    c: &mut Circuit,
    net: &Network,
    prefix: &str,
    top: NodeId,
    bottom: NodeId,
    gates: &[NodeId],
    model: ModelId,
    w_over_l: f64,
    body: NodeId,
    tech: &Technology,
) {
    match net {
        Network::T(i) => {
            // Drain/source labelling is electrically symmetric in the
            // Level-1 model; use top as drain by convention.
            c.mosfet(prefix, top, gates[*i], bottom, body, model, w_over_l);
        }
        Network::Parallel(parts) => {
            for (k, p) in parts.iter().enumerate() {
                emit_network(
                    c,
                    p,
                    &format!("{prefix}{k}"),
                    top,
                    bottom,
                    gates,
                    model,
                    w_over_l,
                    body,
                    tech,
                );
            }
        }
        Network::Series(parts) => {
            let mut upper = top;
            for (k, p) in parts.iter().enumerate() {
                let lower = if k + 1 == parts.len() {
                    bottom
                } else {
                    let n = c.node(&format!("{prefix}x{k}"));
                    // Small junction parasitic keeps internal stack nodes
                    // physical (and numerically tame).
                    c.capacitor(
                        &format!("{prefix}cx{k}"),
                        n,
                        Circuit::GND,
                        w_over_l * tech.c_drain * 0.5,
                    );
                    n
                };
                emit_network(
                    c,
                    p,
                    &format!("{prefix}s{k}"),
                    upper,
                    lower,
                    gates,
                    model,
                    w_over_l,
                    body,
                    tech,
                );
                upper = lower;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use mtk_spice::tran::{transient, TranOptions};

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let input = nl.add_net("in").unwrap();
        nl.mark_primary_input(input).unwrap();
        let mut prev = input;
        for i in 0..n {
            let out = nl.add_net(&format!("n{i}")).unwrap();
            nl.add_cell(&format!("i{i}"), CellKind::Inv, vec![prev], out, 1.0)
                .unwrap();
            prev = out;
        }
        nl.mark_primary_output(prev);
        nl
    }

    #[test]
    fn cmos_expansion_structure() {
        let nl = inv_chain(2);
        let tech = Technology::l07();
        let ex = expand(&nl, &tech, &ExpandOptions::cmos()).unwrap();
        assert!(ex.vgnd.is_none());
        assert!(ex.sleep_device.is_none());
        assert_eq!(ex.input_sources.len(), 1);
        // 4 transistors + vdd + vin + 3 net caps (in, n0, n1).
        assert_eq!(
            ex.circuit
                .devices()
                .iter()
                .filter(|d| matches!(d.kind, mtk_spice::circuit::DeviceKind::Mosfet { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn mtcmos_expansion_adds_sleep_path() {
        let nl = inv_chain(2);
        let tech = Technology::l07();
        let ex = expand(&nl, &tech, &ExpandOptions::mtcmos(10.0)).unwrap();
        assert!(ex.vgnd.is_some());
        assert!(ex.sleep_device.is_some());
    }

    #[test]
    fn resistor_sleep_path() {
        let nl = inv_chain(1);
        let tech = Technology::l07();
        let opts = ExpandOptions {
            sleep: SleepImpl::Resistor { ohms: 1000.0 },
            ..ExpandOptions::default()
        };
        let ex = expand(&nl, &tech, &opts).unwrap();
        assert!(ex.vgnd.is_some());
        assert!(ex.sleep_device.is_none());
    }

    #[test]
    fn expanded_chain_inverts_transiently() {
        let nl = inv_chain(1);
        let tech = Technology::l07();
        let mut ex = expand(&nl, &tech, &ExpandOptions::cmos()).unwrap();
        ex.set_input_transition(0, Logic::Zero, Logic::One, 0.2e-9)
            .unwrap();
        let out_node = ex.node_of(nl.find_net("n0").unwrap());
        let res = transient(&ex.circuit, &TranOptions::to(6e-9).with_dt(5e-12)).unwrap();
        let w = res.waveform(out_node).unwrap();
        // Starts high (input low), ends low.
        assert!(w.value_at(0.0) > tech.vdd * 0.9, "{}", w.value_at(0.0));
        assert!(w.final_value().unwrap() < tech.vdd * 0.1);
    }

    #[test]
    fn mtcmos_chain_discharges_through_sleep_device() {
        let nl = inv_chain(1);
        let tech = Technology::l07();
        let mut ex = expand(&nl, &tech, &ExpandOptions::mtcmos(5.0)).unwrap();
        ex.set_input_transition(0, Logic::Zero, Logic::One, 0.2e-9)
            .unwrap();
        let out_node = ex.node_of(nl.find_net("n0").unwrap());
        let vgnd = ex.vgnd.unwrap();
        let res = transient(&ex.circuit, &TranOptions::to(8e-9).with_dt(5e-12)).unwrap();
        let w_out = res.waveform(out_node).unwrap();
        let w_vgnd = res.waveform(vgnd).unwrap();
        assert!(w_out.final_value().unwrap() < tech.vdd * 0.1);
        // Virtual ground bounced during the discharge.
        assert!(
            w_vgnd.max_value().unwrap() > 0.005,
            "{:?}",
            w_vgnd.max_value()
        );
    }

    #[test]
    fn tied_nets_collapse_to_rails() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let one = nl.add_net("one").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.tie_net(one, Logic::One).unwrap();
        nl.add_cell("g", CellKind::Nand2, vec![a, one], y, 1.0)
            .unwrap();
        let tech = Technology::l07();
        let ex = expand(&nl, &tech, &ExpandOptions::cmos()).unwrap();
        // The tied net maps to the vdd node (node index of "vdd").
        let vdd_node = ex.net_nodes[one.index()];
        assert_eq!(ex.circuit.node_name(vdd_node), "vdd");
    }

    #[test]
    fn input_transition_validation() {
        let nl = inv_chain(1);
        let tech = Technology::l07();
        let mut ex = expand(&nl, &tech, &ExpandOptions::cmos()).unwrap();
        assert!(ex
            .set_input_transition(5, Logic::Zero, Logic::One, 0.0)
            .is_err());
        assert!(ex
            .set_input_transition(0, Logic::X, Logic::One, 0.0)
            .is_err());
        assert!(ex.set_sleep_w_over_l(10.0).is_err()); // CMOS: no sleep dev
    }

    #[test]
    fn sleep_resize_works() {
        let nl = inv_chain(1);
        let tech = Technology::l07();
        let mut ex = expand(&nl, &tech, &ExpandOptions::mtcmos(5.0)).unwrap();
        ex.set_sleep_w_over_l(12.0).unwrap();
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::cell::CellKind;
    use mtk_spice::tran::{transient, TranOptions};

    fn two_chains() -> Netlist {
        let mut nl = Netlist::new("two_chains");
        for k in 0..2 {
            let input = nl.add_net(&format!("in{k}")).unwrap();
            nl.mark_primary_input(input).unwrap();
            let out = nl.add_net(&format!("y{k}")).unwrap();
            nl.add_cell(&format!("i{k}"), CellKind::Inv, vec![input], out, 1.0)
                .unwrap();
            nl.add_extra_cap(out, 30e-15);
            nl.mark_primary_output(out);
        }
        nl
    }

    #[test]
    fn partitioned_expansion_builds_separate_rails() {
        let nl = two_chains();
        let tech = Technology::l07();
        let ex =
            expand_partitioned(&nl, &tech, &[0, 1], &[5.0, 8.0], &ExpandOptions::cmos()).unwrap();
        assert!(ex.circuit.find_node("vgnd0").is_ok());
        assert!(ex.circuit.find_node("vgnd1").is_ok());
        assert!(ex.circuit.find_device("msleep0").is_some());
        assert!(ex.circuit.find_device("msleep1").is_some());
    }

    #[test]
    fn partition_shape_is_validated() {
        let nl = two_chains();
        let tech = Technology::l07();
        assert!(expand_partitioned(&nl, &tech, &[0], &[5.0], &ExpandOptions::cmos()).is_err());
        assert!(expand_partitioned(&nl, &tech, &[0, 7], &[5.0], &ExpandOptions::cmos()).is_err());
    }

    /// Separate rails decouple the modules: discharging chain 0 bounces
    /// vgnd0 but leaves vgnd1 quiet.
    #[test]
    fn separate_rails_are_decoupled() {
        let nl = two_chains();
        let tech = Technology::l07();
        let mut ex =
            expand_partitioned(&nl, &tech, &[0, 1], &[3.0, 3.0], &ExpandOptions::cmos()).unwrap();
        ex.set_input_transition(0, Logic::Zero, Logic::One, 0.2e-9)
            .unwrap();
        // Input 1 held low: chain 1's output stays high, no discharge.
        ex.set_input_transition(1, Logic::Zero, Logic::Zero, 0.2e-9)
            .unwrap();
        let res = transient(&ex.circuit, &TranOptions::to(20e-9).with_dt(10e-12)).unwrap();
        let vg0 = res
            .waveform(ex.circuit.find_node("vgnd0").unwrap())
            .unwrap();
        let vg1 = res
            .waveform(ex.circuit.find_node("vgnd1").unwrap())
            .unwrap();
        assert!(vg0.max_value().unwrap() > 0.02, "{:?}", vg0.max_value());
        assert!(vg1.max_value().unwrap() < 0.005, "{:?}", vg1.max_value());
    }
}
