//! End-to-end bit witness for the SPICE engine: FNV-1a over the
//! `f64::to_bits` of every sample a `transient` records (time, every
//! node voltage, every source branch current), plus its step, Newton
//! iteration and `lu_pattern_reuses` counts. Covers the CMOS and the
//! MTCMOS (W/L 10) expansions of the inverter tree, the 3-bit adder and
//! one ALU transition.
//!
//! The digests were computed before the LU kernel learned to replay
//! recorded eliminations, so any change that moves one bit of the stamp,
//! the sparse LU or the Newton loop fails here, not only in the
//! benchmark's hybrid digest. A change meant to move SPICE bits must
//! update them on purpose.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtcmos_suite::netlist::logic::{bits_lsb_first, Logic};
use mtcmos_suite::spice::tran::{transient, TranOptions};

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
