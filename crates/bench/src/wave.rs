//! Waveform export glue: SPICE rawfiles from transistor-level
//! transients and VCD dumps from switch-level runs.
//!
//! Every export here is deterministic — fixed `Date:`/`$date` strings,
//! a uniform sample grid derived from the run configuration, and
//! change lists ordered by `(time, signal)` — so the emitted bytes are
//! a pure function of the design, the vector, and the flags, exactly
//! like every other artifact of the suite.

use mtk_core::hybrid::{spice_transition, SpiceRunConfig};
use mtk_core::sizing::Transition;
use mtk_core::vbsim::VbsimRun;
use mtk_core::CoreError;
use mtk_fe::Design;
use mtk_netlist::expand::SleepImpl;
use mtk_spice::tran::TranResult;
use mtk_wave::rawfile::{RawFile, Variable};
use mtk_wave::vcd::{Vcd, VcdValue};

/// The fixed `Date:`/`$date` text of deterministic exports.
pub const DETERMINISTIC_DATE: &str = "deterministic";

/// Runs one transistor-level transient of the design under the given
/// vector, behind a sleep device of `w_over_l`, and packs the analog
/// waveforms as a rawfile: `time`, one
/// `v(<output>)` per primary output, `v(vgnd)` and `i(vdd)` when the
/// run produced them — all sampled on the uniform `cfg.dt` grid.
///
/// # Errors
///
/// As [`spice_transition`] (expansion problems, analysis failures, a
/// vector driving an input to `X`).
pub fn raw_from_transition(
    design: &Design,
    tr: &Transition,
    w_over_l: f64,
    cfg: &SpiceRunConfig,
) -> Result<RawFile, CoreError> {
    let sleep = SleepImpl::Transistor { w_over_l };
    let run = spice_transition(&design.netlist, &design.tech, tr, None, sleep, cfg)?;
    let n = (cfg.t_stop / cfg.dt).round().max(1.0) as usize;
    let times: Vec<f64> = (0..=n).map(|k| k as f64 * cfg.dt).collect();
    let mut variables = vec![Variable::new("time", "time")];
    let mut data = vec![times.clone()];
    for (probe, wave) in design
        .netlist
        .primary_outputs()
        .iter()
        .zip(&run.probe_waveforms)
    {
        let name = &design.netlist.net(*probe).name;
        variables.push(Variable::new(format!("v({name})"), "voltage"));
        data.push(times.iter().map(|&t| wave.value_at(t)).collect());
    }
    if let Some(vgnd) = &run.vgnd {
        variables.push(Variable::new("v(vgnd)", "voltage"));
        data.push(times.iter().map(|&t| vgnd.value_at(t)).collect());
    }
    if let Some(supply) = &run.supply_current {
        variables.push(Variable::new("i(vdd)", "current"));
        data.push(times.iter().map(|&t| supply.value_at(t)).collect());
    }
    Ok(RawFile {
        title: format!("{} transient", design.netlist.name()),
        date: DETERMINISTIC_DATE.into(),
        plotname: "Transient Analysis".into(),
        variables,
        data,
    })
}

/// Packs a raw SPICE transient result (the `mtk import --raw` fallback
/// path, where no gate-level design exists) as a rawfile: the solver's
/// own time points, every recorded node voltage, every branch current.
pub fn raw_from_tran(result: &TranResult, title: &str) -> RawFile {
    let mut variables = vec![Variable::new("time", "time")];
    let mut data = vec![result.time().to_vec()];
    for (k, name) in result.node_names().iter().enumerate() {
        if let Some(series) = result.node_series(k) {
            variables.push(Variable::new(format!("v({name})"), "voltage"));
            data.push(series.to_vec());
        }
    }
    for (k, name) in result.branch_names().iter().enumerate() {
        if let Some(series) = result.branch_series(k) {
            variables.push(Variable::new(format!("i({name})"), "current"));
            data.push(series.to_vec());
        }
    }
    RawFile {
        title: title.into(),
        date: DETERMINISTIC_DATE.into(),
        plotname: "Transient Analysis".into(),
        variables,
        data,
    }
}

/// Digitizes an analog level against the rails: below 45 % of
/// V<sub>dd</sub> is `0`, above 55 % is `1`, the mid band is `x`.
pub fn digitize(v: f64, vdd: f64) -> VcdValue {
    if v < 0.45 * vdd {
        VcdValue::Zero
    } else if v > 0.55 * vdd {
        VcdValue::One
    } else {
        VcdValue::X
    }
}

/// Converts one switch-level run into a VCD dump: every net of the
/// design becomes a 1-bit wire (declaration order = net id order), the
/// settled pre-step levels form the `$dumpvars` block, and each
/// waveform breakpoint that crosses the digitization bands becomes a
/// value change. Times are picoseconds; same-picosecond updates of one
/// signal keep the last value.
pub fn vcd_from_run(design: &Design, run: &VbsimRun) -> Vcd {
    let vdd = design.tech.vdd;
    let nets = design.netlist.nets();
    let signals: Vec<String> = nets.iter().map(|n| n.name.clone()).collect();
    let mut initial = Vec::with_capacity(nets.len());
    let mut changes: Vec<(u64, usize, VcdValue)> = Vec::new();
    for (k, wave) in run.waveforms.iter().enumerate().take(nets.len()) {
        let first = digitize(wave.value_at(0.0), vdd);
        initial.push(first);
        let mut prev = first;
        for &(t, v) in wave.points() {
            let d = digitize(v, vdd);
            if t <= 0.0 {
                prev = d;
                continue;
            }
            if d != prev {
                let t_ps = (t * 1e12).round() as u64;
                match changes.last_mut() {
                    Some(last) if last.0 == t_ps && last.1 == k => last.2 = d,
                    _ => changes.push((t_ps, k, d)),
                }
                prev = d;
            }
        }
    }
    changes.sort_by_key(|&(t, k, _)| (t, k));
    Vcd {
        date: DETERMINISTIC_DATE.into(),
        version: "mtk-wave".into(),
        timescale: "1ps".into(),
        scope: design.netlist.name().to_string(),
        signals,
        initial,
        changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_core::vbsim::{Engine, VbsimOptions};
    use mtk_netlist::cell::CellKind;
    use mtk_netlist::logic::Logic;
    use mtk_netlist::netlist::Netlist;
    use mtk_netlist::tech::Technology;

    fn chain() -> Design {
        let mut nl = Netlist::new("chain");
        let a = nl.add_net("a").unwrap();
        let m = nl.add_net("m").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.add_cell("i1", CellKind::Inv, vec![a], m, 1.0).unwrap();
        nl.add_cell("i2", CellKind::Inv, vec![m], y, 1.0).unwrap();
        nl.mark_primary_output(y);
        Design::new(nl, Technology::l07())
    }

    #[test]
    fn spice_transient_exports_a_valid_round_tripping_rawfile() {
        let d = chain();
        let tr = Transition {
            from: vec![Logic::Zero],
            to: vec![Logic::One],
        };
        let raw = raw_from_transition(&d, &tr, 10.0, &SpiceRunConfig::window(20e-9)).unwrap();
        raw.check().unwrap();
        assert_eq!(raw.points(), 1001);
        assert!(raw.series("v(y)").is_some());
        assert!(raw.series("v(vgnd)").is_some());
        assert!(raw.series("i(vdd)").is_some());
        let bytes = raw.to_bytes().unwrap();
        let back = RawFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, raw);
        assert_eq!(back.to_bytes().unwrap(), bytes, "byte-exact round trip");
        // The output settles high after a falling-through-rising chain.
        let y = raw.series("v(y)").unwrap();
        assert!(y[raw.points() - 1] > 0.9 * d.tech.vdd, "{}", y[1000]);
    }

    #[test]
    fn vbsim_run_exports_a_validating_vcd() {
        let d = chain();
        let engine = Engine::new(&d.netlist, &d.tech);
        let run = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(10.0))
            .unwrap();
        let vcd = vcd_from_run(&d, &run);
        assert_eq!(vcd.signals, ["a", "m", "y"]);
        let text = vcd.render().unwrap();
        let summary = mtk_wave::vcd::validate(&text).unwrap();
        assert_eq!(summary.vars, 3);
        // a rises, m falls, y rises: at least one change per net beyond
        // the initial block.
        assert!(summary.changes >= 6, "{summary:?}");
    }

    #[test]
    fn digitize_bands_are_exclusive() {
        assert_eq!(digitize(0.0, 3.3), VcdValue::Zero);
        assert_eq!(digitize(3.3, 3.3), VcdValue::One);
        assert_eq!(digitize(1.65, 3.3), VcdValue::X);
    }
}
