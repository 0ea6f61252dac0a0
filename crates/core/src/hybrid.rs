//! The hybrid flow: switch-level screening → SPICE verification.
//!
//! The paper's intended use of the tool (§5, §7): the fast simulator
//! narrows the input-vector space to the candidates that are sensitive to
//! MTCMOS, and "after the design and simulation space is narrowed
//! sufficiently, the designer could then use a more detailed simulator
//! like SPICE to verify circuit details". This module provides the
//! SPICE side: running a vector transition through the transistor-level
//! expansion and measuring the same delay the switch-level engine
//! reports.

use crate::health::{
    fold_item_reports, FailurePolicy, FaultPlan, ItemReport, RunHealth, SweepHealth,
};
use crate::par::{try_parallel_map_with, WorkerStats};
use crate::sizing::{screen_vectors_par_quarantined, DelayPair, ScreenedVector, Transition};
use crate::vbsim::{latest_crossing, mtcmos_delay, VbsimOptions};
use crate::CoreError;
use mtk_netlist::expand::{expand, ExpandOptions, Expanded, SleepImpl};
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;
use mtk_num::waveform::Pwl;
use mtk_spice::tran::{transient, TranOptions, TranResult};
use std::time::Instant;

/// Configuration of a SPICE verification run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpiceRunConfig {
    /// Simulation window, seconds.
    pub t_stop: f64,
    /// Nominal time step, seconds.
    pub dt: f64,
    /// Time at which the input vector transitions.
    pub t0: f64,
    /// Whether devices model subthreshold leakage.
    pub with_leakage: bool,
    /// Extra virtual-ground capacitance (§2.2 studies).
    pub vgnd_extra_cap: f64,
}

impl SpiceRunConfig {
    /// A window of `t_stop` seconds with 1000 nominal steps and the
    /// transition at 2 % of the window.
    pub fn window(t_stop: f64) -> Self {
        SpiceRunConfig {
            t_stop,
            dt: t_stop / 1000.0,
            t0: t_stop * 0.02,
            with_leakage: false,
            vgnd_extra_cap: 0.0,
        }
    }
}

/// The outcome of one SPICE transition run.
#[derive(Debug, Clone)]
pub struct SpiceTransition {
    /// Worst settling delay over the probes (last V<sub>dd</sub>/2
    /// crossing after the input reference edge), or `None` if no probe
    /// switched.
    pub delay: Option<f64>,
    /// Per-probe settling delay, parallel to the probe list; `None`
    /// where that probe never crossed after the reference edge. This is
    /// what baseline comparisons need: a probe that switched in CMOS but
    /// is `None` under MTCMOS is a stalled gate, not a quiet one.
    pub probe_delays: Vec<Option<f64>>,
    /// Per-probe waveforms, parallel to the probe list.
    pub probe_waveforms: Vec<Pwl>,
    /// Virtual-ground waveform (`None` for the CMOS baseline).
    pub vgnd: Option<Pwl>,
    /// Supply-current waveform (through the V<sub>dd</sub> source,
    /// sign-flipped so positive means current drawn from the supply).
    pub supply_current: Option<Pwl>,
    /// The input reference time used for delay measurement.
    pub t_ref: f64,
    /// Gmin-continuation stages the operating point needed (0 = the
    /// direct solve converged).
    pub op_gmin_fallback_stages: usize,
    /// Time steps the transient integrator had to halve to converge.
    pub dt_halvings: usize,
}

/// Runs one input-vector transition at the transistor level.
///
/// `sleep` selects the MTCMOS implementation ([`SleepImpl::AlwaysOn`]
/// for the CMOS baseline). Probes default to the primary outputs.
///
/// # Errors
///
/// * [`CoreError::Netlist`] for expansion problems.
/// * [`CoreError::Spice`] for analysis failures.
/// * [`CoreError::UnknownState`] when a vector drives an input to `X`.
pub fn spice_transition(
    netlist: &Netlist,
    tech: &Technology,
    tr: &Transition,
    probes: Option<&[NetId]>,
    sleep: SleepImpl,
    cfg: &SpiceRunConfig,
) -> Result<SpiceTransition, CoreError> {
    let mut ex =
        expand(netlist, tech, &verify_expand_options(sleep, cfg)).map_err(CoreError::Netlist)?;
    let probe_nets = crate::sizing::probe_nets(netlist, probes);
    let (probe_delays, res) = run_reused(&mut ex, netlist, tech, tr, &probe_nets, cfg)?;
    let probe_waveforms = probe_nets
        .iter()
        .map(|&n| res.waveform(ex.node_of(n)))
        .collect::<Result<_, _>>()
        .map_err(CoreError::Spice)?;
    let vgnd = ex
        .vgnd
        .map(|vg| res.waveform(vg))
        .transpose()
        .map_err(CoreError::Spice)?;
    let supply_current = res.source_current("vdd").map(|w| {
        // Branch current flows into the source's positive terminal;
        // current *drawn from* the supply is its negation.
        w.points().iter().map(|&(t, i)| (t, -i)).collect()
    });
    Ok(SpiceTransition {
        delay: latest_crossing(&probe_delays),
        probe_delays,
        probe_waveforms,
        vgnd,
        supply_current,
        t_ref: input_ref_time(&ex, cfg),
        op_gmin_fallback_stages: res.op_gmin_fallback_stages,
        dt_halvings: res.dt_halvings,
    })
}

/// Measures the CMOS-vs-MTCMOS delay pair for one transition entirely in
/// SPICE (the reference methodology the switch-level tool is validated
/// against in Figs 10/13/14). The MTCMOS circuit is expanded only when
/// the CMOS leg switches.
///
/// Returns `None` when no probe switches.
///
/// # Errors
///
/// Propagates [`CoreError`] from either run.
pub fn spice_delay_pair(
    netlist: &Netlist,
    tech: &Technology,
    tr: &Transition,
    probes: Option<&[NetId]>,
    w_over_l: f64,
    cfg: &SpiceRunConfig,
) -> Result<Option<DelayPair>, CoreError> {
    let probe_nets = crate::sizing::probe_nets(netlist, probes);
    let leg = |sleep| {
        let mut ex = expand(netlist, tech, &verify_expand_options(sleep, cfg))
            .map_err(CoreError::Netlist)?;
        run_reused(&mut ex, netlist, tech, tr, &probe_nets, cfg)
    };
    let mt = SleepImpl::Transistor { w_over_l };
    Ok(score_pair(|| leg(SleepImpl::AlwaysOn), || leg(mt))?.pair)
}

/// Configuration of [`run_hybrid`].
#[derive(Debug, Clone)]
pub struct HybridOptions {
    /// Sleep transistor W/L used by both tiers.
    pub w_over_l: f64,
    /// How many top-ranked screened survivors get SPICE verification.
    pub top_k: usize,
    /// Worker threads for both the screening and verification fan-outs.
    pub threads: usize,
    /// Probed nets (`None` = primary outputs).
    pub probes: Option<Vec<NetId>>,
    /// Switch-level simulator options for the screening tier.
    pub base: VbsimOptions,
    /// SPICE window for the verification tier.
    pub spice: SpiceRunConfig,
    /// Failure routing shared by both tiers.
    pub policy: FailurePolicy,
    /// Deterministic fault injection into the screening tier (tests).
    pub fault: FaultPlan,
    /// Deterministic fault injection into the verification tier (tests).
    pub verify_fault: FaultPlan,
}

impl HybridOptions {
    /// Defaults at a given sleep size and SPICE window: top-10
    /// verification, serial, primary-output probes, fail-fast, no
    /// injected faults.
    pub fn at_size(w_over_l: f64, spice: SpiceRunConfig) -> Self {
        HybridOptions {
            w_over_l,
            top_k: 10,
            threads: 1,
            probes: None,
            base: VbsimOptions::default(),
            spice,
            policy: FailurePolicy::FailFast,
            fault: FaultPlan::none(),
            verify_fault: FaultPlan::none(),
        }
    }
}

/// One verified candidate of a hybrid run, in rank order (worst screened
/// degradation first).
#[derive(Debug, Clone, PartialEq)]
pub struct HybridFinding {
    /// Index into the caller's transition list.
    pub index: usize,
    /// The switch-level screening measurement.
    pub screened: DelayPair,
    /// The SPICE measurement; `None` when no probe switched at the
    /// transistor level or the verification was quarantined.
    pub verified: Option<DelayPair>,
    /// `verified.degradation() − screened.degradation()` when both are
    /// finite — the screening tier's signed error for this vector.
    pub delta: Option<f64>,
    /// Gmin-continuation stages the two SPICE operating points needed.
    pub op_gmin_fallback_stages: usize,
    /// Time-step halvings the two SPICE transients needed.
    pub dt_halvings: usize,
}

/// The merged report of one [`run_hybrid`] call.
#[derive(Debug)]
pub struct HybridReport {
    /// Verified candidates, worst screened degradation first.
    pub findings: Vec<HybridFinding>,
    /// Screened survivors before deduplication and the top-k cut.
    pub survivors: usize,
    /// Sweep health of the screening tier (quarantines, retries, cache
    /// and simulator counters).
    pub screen_health: SweepHealth,
    /// Sweep health of the verification tier.
    pub verify_health: SweepHealth,
    /// Per-worker counters of the screening tier.
    pub screen_workers: Vec<WorkerStats>,
    /// Per-worker counters of the verification tier (`vectors` counts
    /// candidates verified).
    pub verify_workers: Vec<WorkerStats>,
    /// Wall time of the screening tier, seconds.
    pub screen_wall: f64,
    /// Wall time of the verification tier, seconds.
    pub verify_wall: f64,
}

impl HybridReport {
    /// The screening tier as a `"screen"` [`mtk_trace::PhaseTrace`].
    pub fn screen_phase(&self) -> mtk_trace::PhaseTrace {
        let mut phase = self
            .screen_health
            .phase("screen")
            .with_wall(self.screen_wall);
        phase.workers = crate::par::worker_traces(&self.screen_workers);
        phase
    }

    /// The verification tier as a `"verify"` [`mtk_trace::PhaseTrace`].
    ///
    /// On top of the sweep health this folds in the SPICE solver-stress
    /// counters the findings carried back (g<sub>min</sub> continuation
    /// stages and dt halvings), summed in finding order.
    pub fn verify_phase(&self) -> mtk_trace::PhaseTrace {
        let mut phase = self
            .verify_health
            .phase("verify")
            .with_wall(self.verify_wall);
        phase.workers = crate::par::worker_traces(&self.verify_workers);
        for finding in &self.findings {
            phase.counters.add(
                mtk_trace::CounterId::GminFallbackStages,
                finding.op_gmin_fallback_stages as u64,
            );
            phase
                .counters
                .add(mtk_trace::CounterId::DtHalvings, finding.dt_halvings as u64);
        }
        phase
    }

    /// The whole hybrid run as a [`mtk_trace::TraceReport`] with the
    /// canonical `screen` → `verify` phases.
    pub fn to_trace(&self, tool: &str) -> mtk_trace::TraceReport {
        let mut report = mtk_trace::TraceReport::new(tool);
        report.push_phase(self.screen_phase());
        report.push_phase(self.verify_phase());
        report
    }
}

/// What one SPICE verification of one candidate measured.
#[derive(Debug, Clone, Default, PartialEq)]
struct VerifiedDelays {
    pair: Option<DelayPair>,
    op_gmin_fallback_stages: usize,
    dt_halvings: usize,
}

/// A worker's pair of reusable transistor-level circuits. Expansion is
/// paid once per worker; each candidate only reprograms input waveforms
/// and initial conditions.
struct SpiceVerifier {
    cmos: Expanded,
    mtcmos: Expanded,
}

/// Expansion options of one SPICE leg.
fn verify_expand_options(sleep: SleepImpl, cfg: &SpiceRunConfig) -> ExpandOptions {
    ExpandOptions {
        sleep,
        vgnd_extra_cap: cfg.vgnd_extra_cap,
        with_leakage: cfg.with_leakage,
        vgnd_junction_cap: true,
    }
}

/// The input reference edge delays are measured from: the stimulus
/// ramp's 50 % point.
fn input_ref_time(ex: &Expanded, cfg: &SpiceRunConfig) -> f64 {
    cfg.t0 + ex.default_slew / 2.0
}

/// One SPICE leg: per-probe settling delays (last V<sub>dd</sub>/2
/// crossing after the input reference edge) and the transient itself.
type SpiceLeg = (Vec<Option<f64>>, TranResult);

/// The one transistor-level leg: programs an expanded circuit, fresh or
/// reused, for one transition and runs the transient, recording the
/// probes and the virtual ground. Input waves are *replaced*, and the
/// previous vector's initial conditions are cleared before this vector's
/// settled logic state seeds the operating point (stacked MOSFETs are
/// fragile to solve from a cold start) —
/// [`mtk_spice::circuit::Circuit::set_ic`] appends, so stale rails
/// would otherwise keep tugging on the operating point.
fn run_reused(
    ex: &mut Expanded,
    netlist: &Netlist,
    tech: &Technology,
    tr: &Transition,
    probe_nets: &[NetId],
    cfg: &SpiceRunConfig,
) -> Result<SpiceLeg, CoreError> {
    if tr.from.len() != netlist.primary_inputs().len() {
        return Err(CoreError::UnknownState(format!(
            "vector width {} != {} primary inputs",
            tr.from.len(),
            netlist.primary_inputs().len()
        )));
    }
    for pos in 0..tr.from.len() {
        ex.set_input_transition(pos, tr.from[pos], tr.to[pos], cfg.t0)
            .map_err(CoreError::Netlist)?;
    }
    let settled = netlist.evaluate(&tr.from).map_err(CoreError::Netlist)?;
    ex.circuit.clear_ics();
    ex.apply_initial_state(&settled);
    let mut probe_nodes: Vec<_> = probe_nets.iter().map(|&n| ex.node_of(n)).collect();
    if let Some(vg) = ex.vgnd {
        probe_nodes.push(vg);
    }
    let tran_opts = TranOptions::to(cfg.t_stop)
        .with_dt(cfg.dt)
        .with_probes(probe_nodes);
    let res = transient(&ex.circuit, &tran_opts).map_err(CoreError::Spice)?;
    let t_ref = input_ref_time(ex, cfg);
    let v_half = tech.v_switch();
    let mut delays = Vec::with_capacity(probe_nets.len());
    for &n in probe_nets {
        let w = res.waveform(ex.node_of(n)).map_err(CoreError::Spice)?;
        delays.push(
            w.crossings(v_half)
                .into_iter()
                .rfind(|c| c.time >= t_ref)
                .map(|c| c.time - t_ref),
        );
    }
    Ok((delays, res))
}

/// Runs one transition's CMOS leg and, only when a probe switched there,
/// its MTCMOS leg, and scores the pair with [`mtcmos_delay`], the leg
/// score of the switch-level tier (a transient neither stalls nor
/// truncates). The solver-stress counters sum over the legs that ran;
/// each leg's transient is dropped before the next leg runs.
fn score_pair(
    cmos: impl FnOnce() -> Result<SpiceLeg, CoreError>,
    mtcmos: impl FnOnce() -> Result<SpiceLeg, CoreError>,
) -> Result<VerifiedDelays, CoreError> {
    let stress = |(delays, res): SpiceLeg| (delays, res.op_gmin_fallback_stages, res.dt_halvings);
    let (baseline, mut op_gmin_fallback_stages, mut dt_halvings) = cmos().map(stress)?;
    let pair = match latest_crossing(&baseline) {
        None => None,
        Some(d_cmos) => {
            let (crossings, stages, halvings) = mtcmos().map(stress)?;
            op_gmin_fallback_stages += stages;
            dt_halvings += halvings;
            Some(DelayPair {
                cmos: d_cmos,
                mtcmos: mtcmos_delay(d_cmos, &baseline, &crossings, false, false),
            })
        }
    };
    Ok(VerifiedDelays {
        pair,
        op_gmin_fallback_stages,
        dt_halvings,
    })
}

/// The batched hybrid pipeline (§5, §7): screen every transition with
/// the switch-level simulator, rank and dedupe the survivors, then fan
/// the top `top_k` candidates out as SPICE verifications over the same
/// deterministic executor.
///
/// Both tiers share the executor's contracts: per-worker engines /
/// expanded circuits, index-ordered folds, panic isolation, and
/// [`FailurePolicy`] routing, so findings, quarantine sets, and both
/// [`SweepHealth`]s are bit-identical at any thread count. Survivors
/// whose transitions are duplicates keep only the best-ranked instance.
///
/// # Errors
///
/// * Screening failures per [`screen_vectors_par_quarantined`] — among
///   them [`CoreError::InvalidOptions`] for an `opts.w_over_l` that is
///   not finite and positive, before anything is simulated or expanded.
/// * [`CoreError::Netlist`] when the netlist cannot be expanded to the
///   transistor level (checked once, before workers spawn).
/// * Verification failures routed per `opts.policy`, fail-fast errors
///   deterministically reporting the lowest-ranked failing candidate.
pub fn run_hybrid(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    opts: &HybridOptions,
) -> Result<HybridReport, CoreError> {
    let (screened, screen_report) = screen_vectors_par_quarantined(
        netlist,
        tech,
        transitions,
        opts.probes.as_deref(),
        opts.w_over_l,
        &opts.base,
        opts.threads,
        opts.policy,
        &opts.fault,
    )?;
    let survivors = screened.len();

    // Rank order is already worst-first; keep the first (best-ranked)
    // instance of each distinct transition.
    let mut seen = std::collections::HashSet::new();
    let mut candidates: Vec<ScreenedVector> = Vec::new();
    for s in &screened {
        if candidates.len() == opts.top_k {
            break;
        }
        let tr = &transitions[s.index];
        if seen.insert((&tr.from[..], &tr.to[..])) {
            candidates.push(*s);
        }
    }

    // Validate both expansions once up front so worker initialisation
    // (which cannot return an error) is infallible.
    let cmos_opts = verify_expand_options(SleepImpl::AlwaysOn, &opts.spice);
    let mt_opts = verify_expand_options(
        SleepImpl::Transistor {
            w_over_l: opts.w_over_l,
        },
        &opts.spice,
    );
    expand(netlist, tech, &cmos_opts).map_err(CoreError::Netlist)?;
    expand(netlist, tech, &mt_opts).map_err(CoreError::Netlist)?;

    let probe_nets = crate::sizing::probe_nets(netlist, opts.probes.as_deref());
    let t0 = Instant::now();
    let (reports, verify_workers) = try_parallel_map_with(
        opts.threads,
        1,
        &candidates,
        || SpiceVerifier {
            cmos: expand(netlist, tech, &cmos_opts).expect("validated above"),
            mtcmos: expand(netlist, tech, &mt_opts).expect("validated above"),
        },
        |ver, rank, cand, stats| -> ItemReport<VerifiedDelays> {
            stats.vectors += 1;
            let (tr, cfg) = (&transitions[cand.index], &opts.spice);
            let value = opts.verify_fault.check(rank, 0).and_then(|()| {
                score_pair(
                    || run_reused(&mut ver.cmos, netlist, tech, tr, &probe_nets, cfg),
                    || run_reused(&mut ver.mtcmos, netlist, tech, tr, &probe_nets, cfg),
                )
            });
            ItemReport {
                value,
                retried: false,
                run: RunHealth::default(),
            }
        },
    );
    let (values, verify_health) = fold_item_reports(reports, opts.policy)?;
    let verify_wall = t0.elapsed().as_secs_f64();

    let findings = candidates
        .iter()
        .zip(values)
        .map(|(cand, v)| {
            // A quarantined candidate measured nothing.
            let v = v.unwrap_or_default();
            let delta = v.pair.and_then(|p| {
                let (s, v) = (cand.delays.degradation(), p.degradation());
                (s.is_finite() && v.is_finite()).then_some(v - s)
            });
            HybridFinding {
                index: cand.index,
                screened: cand.delays,
                verified: v.pair,
                delta,
                op_gmin_fallback_stages: v.op_gmin_fallback_stages,
                dt_halvings: v.dt_halvings,
            }
        })
        .collect();
    Ok(HybridReport {
        findings,
        survivors,
        screen_health: screen_report.health,
        verify_health,
        screen_workers: screen_report.workers,
        verify_workers,
        screen_wall: screen_report.wall,
        verify_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::tree::{InverterTree, TreeSpec};
    use mtk_netlist::logic::Logic;

    fn small_tree() -> InverterTree {
        InverterTree::new(&TreeSpec {
            fanout: 2,
            stages: 2,
            load_cap: 20e-15,
            drive: 1.0,
        })
        .unwrap()
    }

    #[test]
    fn spice_cmos_delay_is_measured() {
        let tree = small_tree();
        let tech = Technology::l07();
        let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
        let res = spice_transition(
            &tree.netlist,
            &tech,
            &tr,
            None,
            SleepImpl::AlwaysOn,
            &SpiceRunConfig::window(30e-9),
        )
        .unwrap();
        let d = res.delay.expect("outputs must switch");
        assert!(d > 0.0 && d < 30e-9, "{d}");
        assert!(res.vgnd.is_none());
    }

    #[test]
    fn spice_mtcmos_slower_than_cmos() {
        let tree = small_tree();
        let tech = Technology::l07();
        let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
        let pair = spice_delay_pair(
            &tree.netlist,
            &tech,
            &tr,
            None,
            4.0,
            &SpiceRunConfig::window(40e-9),
        )
        .unwrap()
        .unwrap();
        assert!(
            pair.mtcmos > pair.cmos,
            "MTCMOS {} vs CMOS {}",
            pair.mtcmos,
            pair.cmos
        );
        assert!(pair.degradation() > 0.01, "{}", pair.degradation());
    }

    #[test]
    fn vgnd_waveform_bounces() {
        let tree = small_tree();
        let tech = Technology::l07();
        let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
        let res = spice_transition(
            &tree.netlist,
            &tech,
            &tr,
            None,
            SleepImpl::Transistor { w_over_l: 4.0 },
            &SpiceRunConfig::window(40e-9),
        )
        .unwrap();
        let vg = res.vgnd.unwrap();
        assert!(vg.max_value().unwrap() > 0.01, "{:?}", vg.max_value());
        // And it recovers toward 0 at the end.
        assert!(vg.final_value().unwrap() < 0.05);
    }

    #[test]
    fn wrong_vector_width_rejected() {
        let tree = small_tree();
        let tech = Technology::l07();
        let tr = Transition::new(vec![], vec![]);
        assert!(spice_transition(
            &tree.netlist,
            &tech,
            &tr,
            None,
            SleepImpl::AlwaysOn,
            &SpiceRunConfig::window(10e-9),
        )
        .is_err());
    }
}
