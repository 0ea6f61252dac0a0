//! End-to-end bit witness for the SPICE engine: FNV-1a over the
//! `f64::to_bits` of every sample a `transient` records (time, every
//! node voltage, every source branch current), plus its step, Newton
//! iteration and `lu_pattern_reuses` counts. Covers the CMOS and the
//! MTCMOS (W/L 10) expansions of the inverter tree, the 3-bit adder and
//! one ALU transition, plus one hand-built circuit with the stamp kinds
//! the expansions never emit (MOSFET intrinsic caps, subthreshold
//! conduction, a current source, a resistor and a PWL source) under both
//! integrators.
//!
//! The golden digests were computed before the LU kernel learned to
//! replay recorded eliminations, and the hand-built circuit's before the
//! Newton solver compiled its stamps, so any change that moves one bit
//! of the stamp, the sparse LU or the Newton loop fails here, not only
//! in the benchmark's hybrid digest. A change meant to move SPICE bits
//! must update them on purpose.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtcmos_suite::netlist::logic::{bits_lsb_first, Logic};
use mtcmos_suite::num::waveform::Pwl;
use mtcmos_suite::spice::circuit::Circuit;
use mtcmos_suite::spice::mos::{MosCaps, MosModel, Subthreshold};
use mtcmos_suite::spice::solver::Integrator;
use mtcmos_suite::spice::source::SourceWave;
use mtcmos_suite::spice::tran::{transient, TranOptions, TranResult};

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs one transition of golden design `stem` under `sleep` over a
/// `t_stop` window of 1000 nominal steps, the input switching at 2 % of
/// it, and digests everything the run recorded.
fn digest(stem: &str, sleep: SleepImpl, from: &[Logic], to: &[Logic], t_stop: f64) -> u64 {
    let (_, design) = golden_designs()
        .into_iter()
        .find(|(s, _)| *s == stem)
        .unwrap_or_else(|| panic!("no golden design {stem}"));
    let opts = ExpandOptions {
        sleep,
        ..ExpandOptions::default()
    };
    let mut ex = expand(&design.netlist, &design.tech, &opts).expect("expands");
    for (pos, (&a, &b)) in from.iter().zip(to).enumerate() {
        ex.set_input_transition(pos, a, b, t_stop * 0.02)
            .expect("drives the input");
    }
    let settled = design.netlist.evaluate(from).expect("settles");
    ex.apply_initial_state(&settled);
    let res = transient(
        &ex.circuit,
        &TranOptions::to(t_stop).with_dt(t_stop / 1000.0),
    )
    .unwrap_or_else(|e| panic!("{stem}: {e}"));
    digest_run(&res)
}

/// Digests the counts and every recorded sample of one run.
fn digest_run(res: &TranResult) -> u64 {
    let mut h = Fnv::new();
    for count in [
        res.steps,
        res.total_newton_iterations,
        res.lu_pattern_reuses,
    ] {
        h.word(count as u64);
    }
    for &t in res.time() {
        h.word(t.to_bits());
    }
    let nodes = (0..res.node_names().len()).map(|k| res.node_series(k));
    let branches = (0..res.branch_names().len()).map(|k| res.branch_series(k));
    for series in nodes.chain(branches) {
        for &v in series.expect("recorded") {
            h.word(v.to_bits());
        }
    }
    h.0
}

fn check(stem: &str, from: &[Logic], to: &[Logic], t_stop: f64, want: [u64; 2]) {
    let got = [
        digest(stem, SleepImpl::AlwaysOn, from, to, t_stop),
        digest(
            stem,
            SleepImpl::Transistor { w_over_l: 10.0 },
            from,
            to,
            t_stop,
        ),
    ];
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "{stem}: [CMOS, MTCMOS W/L 10] transient digests moved"
    );
}

#[test]
fn invtree_transient_bits_are_pinned() {
    check(
        "invtree",
        &[Logic::Zero],
        &[Logic::One],
        40e-9,
        [0x8491_461e_98ee_3776, 0x3e49_e025_daa2_3d6a],
    );
}

#[test]
fn adder3_transient_bits_are_pinned() {
    // 0 + 0 -> 7 + 1: the carry ripples through every bit.
    check(
        "adder3",
        &bits_lsb_first(0, 6),
        &bits_lsb_first(0b001_111, 6),
        40e-9,
        [0xb01e_ee75_01ec_7b92, 0xae1e_06d1_90e7_0d2d],
    );
}

#[test]
fn alu4_transient_bits_are_pinned() {
    let (_, alu) = golden_designs()
        .into_iter()
        .find(|(s, _)| *s == "alu4")
        .expect("alu4 golden");
    let add = &alu.vectors[1];
    // The benchmark's hybrid window.
    check(
        "alu4",
        &add.from,
        &add.to,
        80e-9,
        [0x9c1c_c239_13ee_1e43, 0x905c_6425_d093_6c81],
    );
}

/// A sleep-gated two-inverter chain whose MOSFETs carry intrinsic caps
/// (the NMOS card also subthreshold conduction), driven by a PWL pulse,
/// with a footer resistor beside the sleep device, a current source
/// leaking out of the first output and grounded body and source
/// terminals throughout.
fn every_stamp_kind() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let mid = c.node("mid");
    let out = c.node("out");
    let vgnd = c.node("vgnd");
    let sleep = c.node("sleep");
    let caps = MosCaps::split(2e-15, 0.5e-15);
    let nm = c.add_model(
        MosModel::nmos(0.35, 100e-6)
            .with_subthreshold(Subthreshold::default())
            .with_caps(caps),
    );
    let pm = c.add_model(MosModel::pmos(0.35, 40e-6).with_caps(caps));
    let hvt = c.add_model(MosModel::nmos(0.6, 100e-6));
    c.vsource("vdd", vdd, Circuit::GND, 1.2);
    c.vsource("vsleep", sleep, Circuit::GND, 1.2);
    let pulse = Pwl::from_points([
        (0.0, 0.0),
        (1e-9, 0.0),
        (1.2e-9, 1.2),
        (4e-9, 1.2),
        (4.3e-9, 0.0),
    ])
    .expect("increasing times");
    c.vsource("vin", inp, Circuit::GND, SourceWave::Pwl(pulse));
    c.mosfet("mp1", mid, inp, vdd, vdd, pm, 8.0);
    c.mosfet("mn1", mid, inp, vgnd, Circuit::GND, nm, 4.0);
    c.mosfet("mp2", out, mid, vdd, vdd, pm, 8.0);
    c.mosfet("mn2", out, mid, vgnd, Circuit::GND, nm, 4.0);
    c.mosfet("msleep", vgnd, sleep, Circuit::GND, Circuit::GND, hvt, 6.0);
    c.resistor("rfoot", vgnd, Circuit::GND, 20e3);
    c.isource("ileak", mid, Circuit::GND, 2e-6);
    c.capacitor("cl", out, Circuit::GND, 10e-15);
    c.capacitor("cv", vgnd, Circuit::GND, 5e-15);
    c.set_ic(mid, 1.2);
    c
}

#[test]
fn every_stamp_kind_transient_bits_are_pinned() {
    let c = every_stamp_kind();
    let got = [Integrator::Trapezoidal, Integrator::BackwardEuler].map(|method| {
        let opts = TranOptions::to(8e-9).with_dt(8e-12).with_method(method);
        let res = transient(&c, &opts).unwrap_or_else(|e| panic!("{method:?}: {e}"));
        format!("{:#018x}", digest_run(&res))
    });
    assert_eq!(
        got,
        ["0xa45ed6e209f05e4b", "0x114b5d744e114e35"],
        "[trapezoidal, backward Euler] transient digests moved"
    );
}
