//! Ablations of the modelling choices the paper calls out (§2.2, §2.3,
//! §4, §5.3): each toggles one decision and measures the shift.

use super::{vector_label, Bench, Ctx, Output};
use crate::report::{ns, pct};
use crate::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::tree::InverterTree;
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::hybrid::{spice_transition, SpiceRunConfig};
use mtk_core::model::{n_inverter_delay, solve_vx, VxOptions};
use mtk_core::sizing::{screen_vectors_par_quarantined, vbsim_delay_pair, DelayPair, Transition};
use mtk_core::sta::Sta;
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::expand::SleepImpl;
use mtk_netlist::tech::Technology;
use mtk_num::waveform::{propagation_delay, Edge, Pwl};
use mtk_spice::circuit::{Circuit, NodeId};
use mtk_spice::mos::MosCaps;
use mtk_spice::source::SourceWave;
use mtk_spice::tran::{transient, TranOptions};

/// ABL-BODY: the tree delay and the V<sub>x</sub> equilibrium with vs
/// without the body effect, against SPICE (which always has it).
pub fn body(_: &Ctx) -> Output {
    let t = Bench::tree(Technology::l07());
    let mut out = Output::default();
    out.line("ABL-BODY: body effect in the Vx equilibrium (Fig 4 tree, input 0->1)");
    let sizes = [2.0, 5.0, 11.0, 20.0];
    let opts = |body_effect| {
        move |wl| VbsimOptions {
            body_effect,
            ..VbsimOptions::mtcmos(wl)
        }
    };
    let (sp, plain) = t.sweep(&sizes, 60e-9, opts(false));
    let with_body = t.vbsim_delays(&sizes, opts(true));
    let mut rows = Vec::new();
    let mut least_gain = f64::INFINITY;
    for k in 0..sizes.len() {
        let [e_plain, e_body] = [plain[k], with_body[k]].map(|d| (d / sp[k] - 1.0).abs());
        least_gain = least_gain.min((e_plain - e_body) * 100.0);
        let mut row = vec![format!("{}", sizes[k])];
        row.extend([sp[k], plain[k], with_body[k]].map(ns));
        row.extend([e_plain, e_body].map(|e| format!("{:.1}%", e * 100.0)));
        rows.push(row);
    }
    let title = "tree delay: SPICE vs simulator without/with body effect (|error| vs SPICE)";
    let headers = "W/L, SPICE [ns], sim plain [ns], sim +body [ns], err plain, err +body";
    out.table(title, headers, rows);

    // V_x itself, for nine discharging unit inverters.
    let tech = &t.tech;
    let betas = vec![tech.kp_n * tech.unit_wn; 9];
    let vx = |wl, body_effect| {
        let r = tech.sleep_resistance(wl);
        solve_vx(tech, r, &betas, VxOptions { body_effect }).unwrap()
    };
    let row = |&wl: &f64| {
        let plain = format!("{:.4}", vx(wl, false));
        vec![format!("{wl}"), plain, format!("{:.4}", vx(wl, true))]
    };
    let rows = sizes.iter().map(row).collect();
    let title = "Vx equilibrium for 9 discharging unit inverters";
    out.table(title, "W/L, Vx plain [V], Vx +body [V]", rows);
    out.check("|error| cut by body [pp]", "> 0", least_gain, (2.41, 3.27));
    out
}

/// ABL-ALPHA: square-law (α = 2) vs short-channel alpha-power exponents
/// in the first-order delay model: lower α (stronger velocity saturation)
/// loses relatively less drive to the same bounce.
pub fn alpha(_: &Ctx) -> Output {
    let tech = Technology::l07();
    let mut out = Output::default();
    out.line("ABL-ALPHA: alpha-power exponent in the first-order model");
    let (r, beta) = (tech.sleep_resistance(8.0), tech.kp_n * tech.unit_wn);
    let mut degradations = Vec::new();
    let mut rows = Vec::new();
    for alpha in [2.0, 1.7, 1.4, 1.1] {
        let t_alpha = Technology {
            alpha,
            ..tech.clone()
        };
        let vx = VxOptions { body_effect: false };
        let delay = |r| n_inverter_delay(&t_alpha, r, 9, beta, 50e-15, vx).unwrap();
        let (d, d0) = (delay(r), delay(0.0));
        degradations.push(d / d0 - 1.0);
        let degr = format!("{:.1}%", (d / d0 - 1.0) * 100.0);
        rows.push(vec![format!("{alpha}"), ns(d0), ns(d), degr]);
    }
    let title = "9-inverter model delay at sleep W/L=8 vs alpha (CMOS baseline alongside)";
    out.table(title, "alpha, cmos [ns], mtcmos [ns], degradation", rows);
    let ratio = degradations[3] / degradations[0];
    out.check("degradation, alpha 1.1 / 2", "< 1", ratio, (0.651, 0.881));
    out
}

/// ABL-REVCOND: reverse-conduction pinning on/off. A logic-low output
/// rides the virtual-ground bounce in SPICE (§2.3); the extension
/// reproduces the ride (and overestimates it), the paper's simple model
/// pins it at 0 V.
pub fn revcond(_: &Ctx) -> Output {
    let t = Bench::tree(Technology::l07());
    let engine = t.engine();
    let mut out = Output::default();
    out.line("ABL-REVCOND: reverse-conduction pinning (§2.3)");
    // Stage 0's output is low while the third stage discharges.
    let wl = 3.0;
    let s0 = [InverterTree::paper().stage_outputs[0][0]];
    let cfg = SpiceRunConfig::window(60e-9);
    let sleep = SleepImpl::Transistor { w_over_l: wl };
    let sp = spice_transition(&t.netlist, &t.tech, &t.tr, Some(&s0), sleep, &cfg);
    let sp = sp.expect("spice run");
    // Peak of the stage-0 output *after* it has fallen (its low phase).
    let low_phase_peak = |w: &Pwl, t_from: f64| {
        let pts = w.points().iter().filter(|&&(t, _)| t > t_from);
        pts.map(|&(_, v)| v).fold(0.0, f64::max)
    };
    let last_fall = |w: &Pwl| w.last_crossing(0.1, Edge::Falling).map(|c| c.time);
    let sp_w = &sp.probe_waveforms[0];
    let sp_peak = low_phase_peak(sp_w, last_fall(sp_w).unwrap_or(sp.t_ref));
    let run = |reverse_conduction| {
        let opts = VbsimOptions {
            reverse_conduction,
            ..VbsimOptions::mtcmos(wl)
        };
        engine.run(&t.tr.from, &t.tr.to, &opts).expect("vbsim run")
    };
    let (plain, rcond) = (run(false), run(true));
    let t_fall = last_fall(plain.waveform(s0[0])).unwrap_or(0.0);
    let plain_peak = low_phase_peak(plain.waveform(s0[0]), t_fall);
    let rcond_peak = low_phase_peak(rcond.waveform(s0[0]), t_fall);
    let models = [
        "SPICE",
        "simulator, plain",
        "simulator, +reverse-conduction",
    ];
    let peaks = [sp_peak, plain_peak, rcond_peak];
    let rows = (0..3).map(|k| vec![models[k].to_string(), format!("{:.4} V", peaks[k])]);
    let title =
        format!("stage-0 (logic-low) output peak during the third-stage discharge, W/L={wl}");
    out.table(title, "model, low-phase peak", rows.collect());
    out.check("SPICE low-phase ride [V]", "> 0", sp_peak, (0.0847, 0.115));
    out.check("paper model's ride [V]", "0", plain_peak, (0.0, 1e-9));
    out
}

/// ABL-CX (§2.2): capacitance on the virtual-ground rail filters the
/// bounce, but rescuing a small sleep device needs picofarads and slows
/// the rail's recovery; sizing the device up is "much easier".
pub fn cx(_: &Ctx) -> Output {
    let t = Bench::tree(Technology::l07());
    let wl = 3.0; // deliberately small sleep device
    let mut out = Output::default();
    out.line(format!(
        "ABL-CX (§2.2): virtual-ground capacitance sweep, tree @ sleep W/L={wl}"
    ));
    let mut rows = Vec::new();
    let (mut delays, mut recoveries) = (Vec::new(), Vec::new());
    for cx in [0.0, 50e-15, 200e-15, 1e-12, 5e-12] {
        let cfg = SpiceRunConfig::window(200e-9);
        let cfg = SpiceRunConfig {
            vgnd_extra_cap: cx,
            ..cfg
        };
        let res = t.spice(SleepImpl::Transistor { w_over_l: wl }, &cfg);
        let vg = res.vgnd.as_ref().expect("vgnd probed");
        let peak = vg.max_value().unwrap_or(0.0);
        // Recovery: time from the peak until the bounce is below 10 mV.
        let mut pts = vg.points().iter();
        let t_peak = pts
            .clone()
            .find(|&&(_, v)| v >= peak * 0.999)
            .map_or(0.0, |p| p.0);
        let recovery = pts
            .find(|&&(t, v)| t > t_peak && v < 0.01)
            .map(|p| p.0 - t_peak);
        let d = res.delay.expect("switches");
        let shown = recovery.map_or("> window".to_string(), |t| format!("{:.1} ns", t * 1e9));
        let cx_text = format!("{:.0} fF", cx * 1e15);
        rows.push(vec![cx_text, ns(d), format!("{peak:.3}"), shown]);
        delays.push(d);
        recoveries.push(recovery.unwrap_or(f64::NAN));
    }
    let title = "delay, peak bounce, and bounce recovery vs extra vgnd capacitance (SPICE)";
    out.table(
        title,
        "Cx, tphl [ns], peak vgnd [V], recovery to <10mV",
        rows,
    );

    // The paper's alternative to the biggest capacitor: size the device up.
    let cfg = SpiceRunConfig::window(200e-9);
    let res = t.spice(SleepImpl::Transistor { w_over_l: wl * 4.0 }, &cfg);
    let d_sized = res.delay.expect("switches");
    let bounce = res.vgnd.and_then(|w| w.max_value()).unwrap_or(0.0);
    out.line(format!(
        "\nfor comparison, no extra Cx but 4x the sleep width (W/L={}): tphl {} ns, peak \
         bounce {bounce:.3} V — the sizing route the paper recommends",
        wl * 4.0,
        ns(d_sized),
    ));
    let (cx_gain, sized_gain) = (delays[4] / delays[0], d_sized / delays[0]);
    out.check("tphl, 5 pF / none", "< 1", cx_gain, (0.367, 0.497));
    let slower = recoveries[3] / recoveries[0];
    out.check("recovery, 1 pF / none", "> 1", slower, (1.63, 2.22));
    out.check("tphl, 4x W/L / 1x", "< 1", sized_gain, (0.466, 0.632));
    out
}

/// ABL-STA (§4): a conventional STA reports one vector- and sizing-blind
/// delay, while the true MTCMOS delay moves with the sleep size, and the
/// STA-style carry-ripple vector is not the MTCMOS-worst one.
pub fn sta(_: &Ctx) -> Output {
    let tech = Technology::l07();
    let mut out = Output::default();

    // (a) The tree: STA vs vbsim, worst over the leaves, across sleep sizes.
    let probes = InverterTree::paper().leaves().to_vec();
    let t = Bench {
        probes,
        ..Bench::tree(tech.clone())
    };
    let sta = Sta::analyze(&t.netlist, &tech).expect("sta");
    let (critical, gates) = (sta.critical_delay(), sta.critical_path().len());
    out.line(format!(
        "ABL-STA (a): Fig 4 tree — STA critical delay vs actual MTCMOS delay\n\
         STA critical path: {gates} gates, {} ns (vector- and sizing-blind)",
        ns(critical)
    ));
    let sizes = [20.0, 8.0, 2.0];
    let delays = t.vbsim_delays(&sizes, VbsimOptions::mtcmos);
    let error = |d: f64| (d / critical - 1.0) * 100.0;
    let row = |k: usize| {
        let err = format!("{:+.0}%", error(delays[k]));
        vec![format!("{}", sizes[k]), ns(critical), ns(delays[k]), err]
    };
    let rows = (0..sizes.len()).map(row).collect();
    out.table(
        "STA is constant; reality is not",
        "sleep W/L, STA [ns], vbsim worst [ns], STA error",
        rows,
    );

    // (b) The adder: is the STA critical path the MTCMOS worst case?
    let add = RippleAdder::paper();
    let sta = Sta::analyze(&add.netlist, &tech).expect("sta");
    let engine = Engine::new(&add.netlist, &tech);
    out.line(format!(
        "\nABL-STA (b): 3-bit adder — STA critical delay {} ns (path through {} gates)",
        ns(sta.critical_delay()),
        sta.critical_path().len()
    ));
    // The classic STA-driven test vector: provoke the full carry ripple
    // (a = 111, b = 001 -> carry propagates through every FA).
    let ripple_vector = Transition::new(add.input_values(7, 0), add.input_values(7, 1));
    let (wl, base) = (10.0, VbsimOptions::default());
    let sleep = SleepNetwork::Transistor { w_over_l: wl };
    let ripple = vbsim_delay_pair(&engine, &ripple_vector, None, sleep, &base);
    let ripple = ripple.expect("run").expect("switches");
    // The true MTCMOS-worst vector from exhaustive screening.
    let trs: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| transition_of(p, 6))
        .collect();
    let screened = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &trs,
        None,
        wl,
        &base,
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    );
    let worst = screened.expect("screen").0[0];
    let row =
        |name: String, d: DelayPair| vec![name, ns(d.cmos), ns(d.mtcmos), pct(d.degradation())];
    let worst_name = format!("screened worst ({})", vector_label(worst.index, 6));
    let rows = vec![
        row("carry-ripple (STA-style) vector".into(), ripple),
        row(worst_name, worst.delays),
    ];
    let title = format!("adder @ sleep W/L={wl}: the STA-style vector vs the screened worst");
    out.table(title, "vector, CMOS [ns], MTCMOS [ns], degradation", rows);
    let sta_error = error(delays[2]);
    out.check("STA error @ W/L=2 [%]", "large", sta_error, (125.0, 170.0));
    let degr = ripple.degradation() * 100.0;
    out.check("STA-style vector [%]", "< worst", degr, (10.2, 14.0));
    out
}

const STAGES: usize = 4;
const FANOUT_CAP_UNITS: f64 = 3.0; // pretend each stage drives 3 gates

/// A `STAGES`-long inverter chain with equal total loading whether the
/// devices carry intrinsic caps (`distributed`) or not; returns the
/// circuit and its input and output nodes.
fn chain(tech: &Technology, distributed: bool) -> (Circuit, NodeId, NodeId) {
    let mut c = Circuit::new();
    let vdd_n = c.node("vdd");
    c.vsource("vdd", vdd_n, Circuit::GND, SourceWave::Dc(tech.vdd));
    let mut nm = tech.nmos_model(false);
    let mut pm = tech.pmos_model(false);
    if distributed {
        let caps = MosCaps::split(tech.c_gate, tech.c_drain);
        nm = nm.with_caps(caps);
        pm = pm.with_caps(caps);
    }
    let (nmid, pmid) = (c.add_model(nm), c.add_model(pm));
    let inp = c.node("in");
    let ramp = SourceWave::ramp(0.5e-9, 0.1e-9, 0.0, tech.vdd);
    c.vsource("vin", inp, Circuit::GND, ramp);
    let (mut prev, mut out, gnd) = (inp, inp, Circuit::GND);
    for k in 0..STAGES {
        out = c.node(&format!("s{k}"));
        c.mosfet(
            &format!("mp{k}"),
            out,
            prev,
            vdd_n,
            vdd_n,
            pmid,
            tech.unit_wp,
        );
        c.mosfet(&format!("mn{k}"), out, prev, gnd, gnd, nmid, tech.unit_wn);
        // Equal total loading in both variants: the fanout gate load is
        // lumped when the devices are cap-free, and reduced by the
        // next stage's own intrinsic input cap when distributed.
        let next_stage_gate = (tech.unit_wn + tech.unit_wp) * tech.c_gate;
        let own = if distributed && k + 1 < STAGES {
            next_stage_gate
        } else {
            0.0
        };
        let lumped = FANOUT_CAP_UNITS * next_stage_gate - own;
        if lumped > 0.0 {
            c.capacitor(&format!("cl{k}"), out, gnd, lumped);
        }
        prev = out;
    }
    (c, inp, out)
}

/// ABL-CAPS: the same inverter chain with lumped load caps vs intrinsic
/// per-terminal MOSFET caps at equal total capacitance. The distributed
/// run shows the Miller kickback and junction load the lumped convention
/// both engines share never counts — part of the Figs 10/13 offset.
pub fn caps(_: &Ctx) -> Output {
    let tech = Technology::l07();
    let mut out = Output::default();
    out.line(format!(
        "ABL-CAPS: {STAGES}-stage inverter chain, equal total capacitance"
    ));
    let mut rows = Vec::new();
    let mut delays = Vec::new();
    let mut overshoot_mv = 0.0;
    for (label, distributed) in [("lumped", false), ("distributed", true)] {
        let (c, inp, node_out) = chain(&tech, distributed);
        let opts = TranOptions::to(25e-9).with_dt(5e-12);
        let res = transient(&c, &opts).expect("transient");
        let w_in = res.waveform(inp).expect("in");
        let w_out = res.waveform(node_out).expect("out");
        let d = propagation_delay(&w_in, &w_out, tech.v_switch(), 0.0).expect("delay");
        let over = (w_out.max_value().unwrap() - tech.vdd).max(0.0);
        let under = (-w_out.min_value().unwrap()).max(0.0);
        overshoot_mv = (over + under) * 1e3;
        rows.push(vec![
            label.to_string(),
            ns(d),
            format!("{overshoot_mv:.1} mV"),
        ]);
        delays.push(d);
    }
    let title = "chain delay and rail overshoot (Miller kickback)";
    out.table(title, "cap model, delay [ns], overshoot", rows);
    let slower = ((delays[1] - delays[0]) / delays[0] * 100.0).abs();
    out.line(format!(
        "\nthe distributed run is {slower:.0}% slower at equal nominal capacitance"
    ));
    out.check("distributed slowdown [%]", "> 0", slower, (49.9, 67.6));
    out.check("Miller overshoot [mV]", "> 0", overshoot_mv, (31.1, 42.2));
    out
}
