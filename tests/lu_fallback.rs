//! Guards the sparse LU's fallback tier without timing it: on the alu4
//! witness transients (the benchmark's hybrid window, CMOS and MTCMOS at
//! W/L 10), a cancellation flip under an unchanged pivot order is served
//! by the live-bit replay of a symbolic plan, so each transient runs the
//! general elimination at most twice: once for the operating point's
//! pattern and once for the stepping pattern. The same runs must keep
//! the bits `tests/spice_bits.rs` pins.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtcmos_suite::spice::tran::{transient, TranOptions, TranResult};

/// FNV-1a 64 over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest `tests/spice_bits.rs` pins: the counts, then every
/// recorded sample.
fn digest(res: &TranResult) -> u64 {
    let counts = [
        res.steps,
        res.total_newton_iterations,
        res.lu_pattern_reuses,
    ];
    let nodes = (0..res.node_names().len()).map(|k| res.node_series(k));
    let branches = (0..res.branch_names().len()).map(|k| res.branch_series(k));
    let samples = nodes
        .chain(branches)
        .flat_map(|series| series.expect("recorded").iter().map(|v| v.to_bits()));
    fnv(counts
        .iter()
        .map(|&c| c as u64)
        .chain(res.time().iter().map(|t| t.to_bits()))
        .chain(samples))
}

/// The alu4 witness transition (golden vector 1) under `sleep`, over the
/// benchmark's 80 ns window of 1000 nominal steps.
fn alu4_witness(sleep: SleepImpl) -> TranResult {
    let (_, alu) = golden_designs()
        .into_iter()
        .find(|(s, _)| *s == "alu4")
        .expect("alu4 golden");
    let add = &alu.vectors[1];
    let t_stop = 80e-9;
    let opts = ExpandOptions {
        sleep,
        ..ExpandOptions::default()
    };
    let mut ex = expand(&alu.netlist, &alu.tech, &opts).expect("expands");
    for (pos, (&a, &b)) in add.from.iter().zip(&add.to).enumerate() {
        ex.set_input_transition(pos, a, b, t_stop * 0.02)
            .expect("drives the input");
    }
    let settled = alu.netlist.evaluate(&add.from).expect("settles");
    ex.apply_initial_state(&settled);
    transient(
        &ex.circuit,
        &TranOptions::to(t_stop).with_dt(t_stop / 1000.0),
    )
    .expect("alu4 runs")
}

#[test]
fn alu4_witness_transients_run_at_most_two_general_eliminations() {
    for (sleep, want) in [
        (SleepImpl::AlwaysOn, 0x9c1c_c239_13ee_1e43u64),
        (
            SleepImpl::Transistor { w_over_l: 10.0 },
            0x905c_6425_d093_6c81,
        ),
    ] {
        let res = alu4_witness(sleep);
        let lu = res.lu_stats;
        assert_eq!(
            format!("{:#018x}", digest(&res)),
            format!("{want:#018x}"),
            "{sleep:?}: transient digest moved"
        );
        assert!(lu.general <= 2, "{sleep:?}: {lu:?}");
        assert!(
            lu.fallback > 0 && lu.replayed > lu.fallback,
            "{sleep:?}: {lu:?}"
        );
    }
}
