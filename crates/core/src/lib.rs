//! The paper's contribution: MTCMOS delay analysis and sleep-transistor
//! sizing.
//!
//! Multi-threshold CMOS gates a block of low-V<sub>t</sub> logic with one
//! high-V<sub>t</sub> *sleep transistor* between virtual and real ground.
//! This crate implements the DAC '97 methodology for sizing that device:
//!
//! * [`model`] — the first-order delay model (§5.1): the virtual-ground
//!   equilibrium V<sub>x</sub> (Eq. 5) and the constant-current gate
//!   delay (Eq. 3), with the body effect as an optional extension.
//! * [`vbsim`] — the **variable-breakpoint switch-level simulator**
//!   (§5.2): every gate is an equivalent inverter driving a piecewise-
//!   linear output; breakpoints fire whenever any gate starts or stops
//!   switching and all currents are re-solved.
//! * [`sizing`] — degradation sweeps, vector-space screening, sizing to a
//!   target degradation, and the two conservative baselines the paper
//!   criticises (sum-of-widths and peak-current sizing).
//! * [`hybrid`] — the screen-with-vbsim / verify-with-SPICE flow (§7),
//!   backed by the `mtk-spice` transistor-level engine.
//! * [`sta`] — a conventional vector-blind static timing analyzer, the
//!   tool §4 argues is *not adequate* for MTCMOS, for comparison.
//! * [`mc`] — Monte Carlo yield analysis: per-trial technology
//!   perturbations from splittable PRNG streams, degradation/bounce
//!   distributions, and pass-rate-vs-sleep-width yield curves.
//! * [`search`] — worst-vector search heuristics for circuits whose
//!   transition space cannot be enumerated, parallelized with
//!   per-work-item PRNG streams so results are thread-count-invariant.
//! * [`par`] — the std-only scoped-thread executor behind the parallel
//!   screening and search phases, with per-worker cost counters.
//! * [`cluster`] — one sleep transistor per cluster of cells, from
//!   mutually exclusive discharge patterns, logic depth or the caller's
//!   own partition (the paper's future-work direction).
//! * [`energy`] — sleep-device switching-energy overhead, standby
//!   leakage savings, and break-even idle time (§2.1's cost triangle).
//!
//! # Example
//!
//! Measuring how much a small sleep transistor slows the paper's Fig 4
//! inverter tree:
//!
//! ```
//! use mtk_circuits::tree::InverterTree;
//! use mtk_core::sizing::{vbsim_delay_pair, Transition};
//! use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
//! use mtk_netlist::logic::Logic;
//! use mtk_netlist::tech::Technology;
//!
//! let tree = InverterTree::paper();
//! let tech = Technology::l07();
//! let engine = Engine::new(&tree.netlist, &tech);
//! let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
//! let pair = vbsim_delay_pair(
//!     &engine,
//!     &tr,
//!     None,
//!     SleepNetwork::Transistor { w_over_l: 5.0 },
//!     &VbsimOptions::default(),
//! )
//! .unwrap()
//! .unwrap();
//! assert!(pair.mtcmos > pair.cmos);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod energy;
pub mod health;
pub mod hybrid;
pub mod mc;
pub mod model;
pub mod par;
mod record;
pub mod search;
pub mod sizing;
pub mod sta;
pub mod vbsim;

use std::error::Error;
use std::fmt;

/// Errors produced by the MTCMOS analysis tools.
#[derive(Debug)]
pub enum CoreError {
    /// A numerical routine failed (equilibrium solve).
    Numeric(mtk_num::NumError),
    /// The underlying netlist was inconsistent.
    Netlist(mtk_netlist::NetlistError),
    /// A SPICE verification run failed.
    Spice(mtk_spice::SpiceError),
    /// The settled circuit state contained an unknown (`X`) net.
    UnknownState(String),
    /// The switch-level run exceeded its breakpoint budget (usually a
    /// glitch storm caused by an unstable configuration).
    EventOverflow {
        /// Breakpoints processed before giving up.
        events: usize,
        /// Simulated time at which the budget ran out.
        t: f64,
    },
    /// No size within the search bracket meets the degradation target.
    SizingInfeasible {
        /// Requested fractional degradation.
        target: f64,
        /// Largest size tried.
        at_w_over_l: f64,
    },
    /// Caller-supplied options were rejected up front (e.g. a
    /// non-positive `t_stop` or a zero breakpoint budget).
    InvalidOptions(String),
    /// A fault deliberately injected by a [`health::FaultPlan`] —
    /// only ever produced by the fault-injection test harness.
    FaultInjected {
        /// Index of the work item the fault was scheduled for.
        index: usize,
    },
    /// A worker closure panicked; the panic was caught at the work-item
    /// boundary instead of aborting the sweep.
    WorkerPanic {
        /// Index of the panicking work item.
        index: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A quarantining sweep exceeded its failure cap.
    TooManyFailures {
        /// Items quarantined.
        failures: usize,
        /// The cap from [`health::FailurePolicy::Quarantine`].
        max_failures: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Numeric(e) => write!(f, "numeric failure: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist failure: {e}"),
            CoreError::Spice(e) => write!(f, "spice failure: {e}"),
            CoreError::UnknownState(n) => {
                write!(f, "circuit state contains unknown net '{n}'")
            }
            CoreError::EventOverflow { events, t } => {
                write!(
                    f,
                    "switch-level run exceeded {events} breakpoints at t={t:.3e}s"
                )
            }
            CoreError::SizingInfeasible {
                target,
                at_w_over_l,
            } => write!(
                f,
                "no size up to W/L={at_w_over_l} meets {:.1}% degradation",
                target * 100.0
            ),
            CoreError::InvalidOptions(msg) => {
                write!(f, "invalid options: {msg}")
            }
            CoreError::FaultInjected { index } => {
                write!(f, "fault injected at work item {index}")
            }
            CoreError::WorkerPanic { index, message } => {
                write!(f, "worker panicked on item {index}: {message}")
            }
            CoreError::TooManyFailures {
                failures,
                max_failures,
            } => write!(
                f,
                "sweep quarantined {failures} items, more than the allowed {max_failures}"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Numeric(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            CoreError::Spice(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mtk_num::NumError> for CoreError {
    fn from(e: mtk_num::NumError) -> Self {
        CoreError::Numeric(e)
    }
}

impl From<mtk_netlist::NetlistError> for CoreError {
    fn from(e: mtk_netlist::NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<mtk_spice::SpiceError> for CoreError {
    fn from(e: mtk_spice::SpiceError) -> Self {
        CoreError::Spice(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<CoreError> = vec![
            CoreError::Numeric(mtk_num::NumError::InvalidArgument("x".into())),
            CoreError::Netlist(mtk_netlist::NetlistError::DuplicateNet("n".into())),
            CoreError::Spice(mtk_spice::SpiceError::UnknownNode("n".into())),
            CoreError::UnknownState("n".into()),
            CoreError::EventOverflow {
                events: 10,
                t: 1e-9,
            },
            CoreError::SizingInfeasible {
                target: 0.05,
                at_w_over_l: 100.0,
            },
            CoreError::InvalidOptions("t_stop must be positive".into()),
            CoreError::FaultInjected { index: 3 },
            CoreError::WorkerPanic {
                index: 4,
                message: "boom".into(),
            },
            CoreError::TooManyFailures {
                failures: 5,
                max_failures: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
