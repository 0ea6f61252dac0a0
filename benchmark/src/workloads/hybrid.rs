//! `hybrid-alu4`: the screen → SPICE-verify flow on the 4-bit ALU slice.
//! Each call screens 64 transitions of its own seeded stream and
//! verifies the top 8 in SPICE.

use super::{check_digest, Workload};
use crate::run::{failed, paired, serial, Ctx, Failure, TraceRun, Window};
use crate::util::{digest_words, golden, random_transitions, Golden};
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::hybrid::{run_hybrid, HybridFinding, HybridOptions, HybridReport, SpiceRunConfig};
use mtk_core::sizing::{screen_vectors_par_quarantined, vbsim_delay_pair, DelayPair, Transition};
use mtk_core::vbsim::{worst_delay_vs_baseline, Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::expand::{expand, ExpandOptions, Expanded, SleepImpl};
use mtk_spice::tran::{transient, TranOptions};
use mtk_trace::SpanRecorder;
use std::cell::RefCell;
use std::collections::HashMap;

const W_OVER_L: f64 = 10.0;
const TOP_K: usize = 8;
const THREADS: usize = 2;
/// FNV of the `--seed 1` findings (index and delay bits).
const FINDINGS_SEED1: u64 = 0xbf4f_64c7_4cd8_8b34;

pub struct Hybrid {
    golden: Golden,
    seed: u64,
    count: usize,
    top_k: usize,
    /// Call 0's findings, computed at set-up.
    reference: Vec<HybridFinding>,
}

/// Options of one call at `threads` workers.
pub fn options(top_k: usize, threads: usize, items: usize) -> HybridOptions {
    HybridOptions {
        top_k,
        threads,
        policy: FailurePolicy::quarantine(items),
        ..HybridOptions::at_size(W_OVER_L, SpiceRunConfig::window(80e-9))
    }
}

/// Counts quarantined items of either tier as a failure.
fn clean(report: &HybridReport) -> Result<(), Failure> {
    let n = report.screen_health.quarantined.len() + report.verify_health.quarantined.len();
    if n == 0 {
        Ok(())
    } else {
        Err(Failure::Failed(format!("{n} hybrid items quarantined")))
    }
}

impl Hybrid {
    pub fn setup(ctx: &Ctx) -> Result<Hybrid, String> {
        let (count, top_k) = if ctx.smoke { (16, 2) } else { (64, TOP_K) };
        let mut hybrid = Hybrid {
            golden: golden("alu4")?,
            seed: ctx.seed,
            count,
            top_k,
            reference: Vec::new(),
        };
        hybrid.reference = hybrid
            .call(0, THREADS)
            .map_err(|f| format!("call 0: {f:?}"))?;
        Ok(hybrid)
    }

    /// The transitions of call `op`.
    fn transitions(&self, op: usize) -> Vec<Transition> {
        let inputs = self.golden.design.netlist.primary_inputs().len();
        random_transitions(inputs, self.seed, op, self.count)
    }

    fn call(&self, op: usize, threads: usize) -> Result<Vec<HybridFinding>, Failure> {
        let d = &self.golden.design;
        let opts = options(self.top_k, threads, self.count);
        let report =
            run_hybrid(&d.netlist, &d.tech, &self.transitions(op), &opts).map_err(failed)?;
        clean(&report)?;
        Ok(report.findings)
    }

    /// Call 0 must repeat the set-up findings exactly; every call's
    /// screened pairs must equal a direct switch-level measurement.
    fn check(&self, op: usize, findings: &[HybridFinding]) -> Result<(), Failure> {
        if op == 0 && findings != self.reference {
            return Err(Failure::Mismatch(
                "call 0 findings differ from set-up".into(),
            ));
        }
        let d = &self.golden.design;
        let engine = Engine::new(&d.netlist, &d.tech);
        let transitions = self.transitions(op);
        let sleep = SleepNetwork::Transistor { w_over_l: W_OVER_L };
        for f in findings {
            let direct = vbsim_delay_pair(
                &engine,
                &transitions[f.index],
                None,
                sleep,
                &VbsimOptions::default(),
            )
            .map_err(failed)?;
            if direct != Some(f.screened) {
                return Err(Failure::Mismatch(format!(
                    "call {op}: screened pair of transition {} differs from vbsim",
                    f.index
                )));
            }
        }
        Ok(())
    }

    /// `run_hybrid` rebuilt from its public pieces, one span per call,
    /// mirroring the library's screen → dedupe → per-candidate verify.
    fn composed(&self, op: usize, rec: &mut SpanRecorder) -> Result<Vec<HybridFinding>, Failure> {
        let d = &self.golden.design;
        let (netlist, tech) = (&d.netlist, &d.tech);
        let opts = options(self.top_k, 1, self.count);
        let transitions = self.transitions(op);
        let (screened, report) = rec
            .time("mtk_core::sizing/screen_vectors_par_quarantined", || {
                screen_vectors_par_quarantined(
                    netlist,
                    tech,
                    &transitions,
                    None,
                    W_OVER_L,
                    &opts.base,
                    1,
                    opts.policy,
                    &FaultPlan::none(),
                )
            })
            .map_err(failed)?;
        if !report.health.quarantined.is_empty() {
            return Err(Failure::Failed("screening quarantined items".into()));
        }
        let mut seen = std::collections::HashSet::new();
        let candidates: Vec<_> = screened
            .iter()
            .filter(|s| {
                let tr = &transitions[s.index];
                seen.insert((tr.from.clone(), tr.to.clone()))
            })
            .take(self.top_k)
            .collect();
        let expand_opts = |sleep| ExpandOptions {
            sleep,
            vgnd_extra_cap: opts.spice.vgnd_extra_cap,
            with_leakage: opts.spice.with_leakage,
            vgnd_junction_cap: true,
        };
        let mut cmos = rec
            .time("mtk_netlist::expand/expand", || {
                expand(netlist, tech, &expand_opts(SleepImpl::AlwaysOn))
            })
            .map_err(failed)?;
        let mut mtcmos = rec
            .time("mtk_netlist::expand/expand", || {
                expand(
                    netlist,
                    tech,
                    &expand_opts(SleepImpl::Transistor { w_over_l: W_OVER_L }),
                )
            })
            .map_err(failed)?;
        let mut findings = Vec::new();
        for cand in candidates {
            let tr = &transitions[cand.index];
            let base = self.leg(rec, &mut cmos, tr, &opts.spice)?;
            let worst = base.0.iter().flatten().copied().reduce(f64::max);
            let (pair, stages, halvings) = match worst {
                None => (None, base.1, base.2),
                Some(d_cmos) => {
                    let mt = self.leg(rec, &mut mtcmos, tr, &opts.spice)?;
                    let d_mt = worst_delay_vs_baseline(&base.0, &mt.0).unwrap_or(d_cmos);
                    let pair = DelayPair {
                        cmos: d_cmos,
                        mtcmos: d_mt,
                    };
                    (Some(pair), base.1 + mt.1, base.2 + mt.2)
                }
            };
            let delta = pair.and_then(|p| {
                let (s, v) = (cand.delays.degradation(), p.degradation());
                (s.is_finite() && v.is_finite()).then_some(v - s)
            });
            findings.push(HybridFinding {
                index: cand.index,
                screened: cand.delays,
                verified: pair,
                delta,
                op_gmin_fallback_stages: stages,
                dt_halvings: halvings,
            });
        }
        Ok(findings)
    }

    /// One SPICE leg on a reused expansion: per-probe settling delays,
    /// g<sub>min</sub> stages and dt halvings.
    fn leg(
        &self,
        rec: &mut SpanRecorder,
        ex: &mut Expanded,
        tr: &Transition,
        cfg: &SpiceRunConfig,
    ) -> Result<(Vec<Option<f64>>, usize, usize), Failure> {
        let netlist = &self.golden.design.netlist;
        rec.time("mtk_netlist::expand/set_input_transition", || {
            (0..tr.from.len())
                .try_for_each(|pos| ex.set_input_transition(pos, tr.from[pos], tr.to[pos], cfg.t0))
        })
        .map_err(failed)?;
        let settled = rec
            .time("mtk_netlist/evaluate", || netlist.evaluate(&tr.from))
            .map_err(failed)?;
        rec.time("mtk_spice/clear_ics", || ex.circuit.clear_ics());
        rec.time("mtk_netlist::expand/apply_initial_state", || {
            ex.apply_initial_state(&settled)
        });
        let probes = netlist.primary_outputs();
        let mut nodes: Vec<_> = probes.iter().map(|&n| ex.node_of(n)).collect();
        nodes.extend(ex.vgnd);
        let tran = TranOptions::to(cfg.t_stop)
            .with_dt(cfg.dt)
            .with_probes(nodes);
        let res = rec
            .time("mtk_spice/transient", || transient(&ex.circuit, &tran))
            .map_err(failed)?;
        let t_ref = cfg.t0 + ex.default_slew / 2.0;
        let v_half = self.golden.design.tech.v_switch();
        let delays = rec.time("mtk_spice/waveform", || {
            probes
                .iter()
                .map(|&n| {
                    let w = res.waveform(ex.node_of(n))?;
                    Ok(w.crossings(v_half)
                        .into_iter()
                        .rfind(|c| c.time >= t_ref)
                        .map(|c| c.time - t_ref))
                })
                .collect::<Result<Vec<_>, mtk_spice::SpiceError>>()
        });
        let delays = delays.map_err(failed)?;
        Ok((delays, res.op_gmin_fallback_stages, res.dt_halvings))
    }

    fn gates(&self, ctx: &Ctx, w: &mut Window) {
        let bits = |p: Option<DelayPair>| {
            p.map_or([u64::MAX; 2], |p| [p.cmos.to_bits(), p.mtcmos.to_bits()])
        };
        let digest = digest_words(self.reference.iter().flat_map(|f| {
            let [sc, sm] = bits(Some(f.screened));
            let [vc, vm] = bits(f.verified);
            [f.index as u64, sc, sm, vc, vm]
        }));
        check_digest(ctx, "hybrid findings", digest, FINDINGS_SEED1, w);
        let max_err = self
            .reference
            .iter()
            .filter_map(|f| f.delta)
            .map(f64::abs)
            .fold(0.0, f64::max);
        w.note(format!(
            "hybrid: call 0 has {} findings, max |verified - screened| degradation {max_err:.6}, digest {digest:#018x}",
            self.reference.len()
        ));
    }
}

impl Workload for Hybrid {
    fn measure(&mut self, ctx: &Ctx) -> Window {
        let mut w = serial(ctx.seconds, |op| self.check(op, &self.call(op, THREADS)?));
        self.gates(ctx, &mut w);
        w
    }

    fn trace(&mut self, ctx: &Ctx) -> TraceRun {
        // The traced composition of call `op` must equal the untraced
        // `run_hybrid` of the same call, whichever of the two ran first.
        let pending = RefCell::new(HashMap::new());
        let meet = |op: usize, findings: Vec<HybridFinding>| {
            let other = pending.borrow_mut().remove(&op);
            match other {
                None => {
                    pending.borrow_mut().insert(op, findings);
                    Ok(())
                }
                Some(other) if other == findings => Ok(()),
                Some(_) => Err(Failure::Mismatch(format!(
                    "composed call {op} differs from run_hybrid"
                ))),
            }
        };
        let mut run = paired(
            ctx,
            |op| {
                let findings = self.call(op, 1)?;
                self.check(op, &findings)?;
                meet(op, findings)
            },
            |rec, op| meet(op, self.composed(op, rec)?),
            |_, _, _| {},
        );
        self.gates(ctx, &mut run.window);
        run
    }
}
