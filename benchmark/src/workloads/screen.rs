//! `screen-adder3`: the paper's §6.2 exhaustive sweep, screened in
//! passes of all 4096 transitions of the 3-bit adder at two threads.

use super::{check_digest, Workload};
use crate::run::{failed, paired, serial, Ctx, Failure, TraceRun, Window};
use crate::util::{digest_words, golden, Golden};
use mtk_bench::transition_of;
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::sizing::{screen_vectors_par_quarantined, ScreenedVector, Transition};
use mtk_core::vbsim::VbsimOptions;
use mtk_num::prng::Xoshiro256pp;

const W_OVER_L: f64 = 10.0;
const THREADS: usize = 2;

/// FNV of the ranking of a `--seed 1` pass (index, degradation bits).
const RANKING_SEED1: u64 = 0x291f_8e6d_083a_4be1;
/// FNV of the (transition, degradation bits) set, sorted by
/// transition: the same for every seed, since every seed screens the
/// same 4096 transitions in a different order.
const SET_ANY_SEED: u64 = 0xd629_c178_7b5e_48d0;

pub struct Screen {
    golden: Golden,
    transitions: Vec<Transition>,
    /// Packed `from << 6 | to` of each transition.
    codes: Vec<u64>,
    /// The ranking of the warm-up pass every later pass must equal.
    reference: Vec<ScreenedVector>,
}

impl Screen {
    pub fn setup(ctx: &Ctx) -> Result<Screen, String> {
        let golden = golden("adder3")?;
        let step = if ctx.smoke { 16 } else { 1 };
        let mut pairs: Vec<_> = exhaustive_transitions(6)
            .into_iter()
            .step_by(step)
            .collect();
        // Seeded Fisher–Yates: swap `i` draws from stream (seed, i).
        for i in (1..pairs.len()).rev() {
            let j = Xoshiro256pp::stream(ctx.seed, i as u64).next_index(i + 1);
            pairs.swap(i, j);
        }
        let mut screen = Screen {
            golden,
            transitions: pairs.iter().map(|&p| transition_of(p, 6)).collect(),
            codes: pairs.iter().map(|p| p.from << 6 | p.to).collect(),
            reference: Vec::new(),
        };
        screen.reference = screen
            .pass(THREADS)
            .map_err(|f| format!("warm-up pass: {f:?}"))?;
        Ok(screen)
    }

    fn pass(&self, threads: usize) -> Result<Vec<ScreenedVector>, Failure> {
        let d = &self.golden.design;
        let (ranked, report) = screen_vectors_par_quarantined(
            &d.netlist,
            &d.tech,
            &self.transitions,
            None,
            W_OVER_L,
            &VbsimOptions::default(),
            threads,
            FailurePolicy::quarantine(self.transitions.len()),
            &FaultPlan::none(),
        )
        .map_err(failed)?;
        match report.health.quarantined.len() {
            0 => Ok(ranked),
            n => Err(Failure::Failed(format!("{n} transitions quarantined"))),
        }
    }

    fn check(&self, ranked: Vec<ScreenedVector>) -> Result<(), Failure> {
        if ranked == self.reference {
            Ok(())
        } else {
            Err(Failure::Mismatch(
                "pass ranking differs from the warm-up pass".into(),
            ))
        }
    }

    fn checked_pass(&self, threads: usize) -> Result<(), Failure> {
        self.check(self.pass(threads)?)
    }

    fn gates(&self, ctx: &Ctx, w: &mut Window) {
        let ranking = digest_words(
            self.reference
                .iter()
                .flat_map(|s| [s.index as u64, s.delays.degradation().to_bits()]),
        );
        check_digest(ctx, "screen ranking", ranking, RANKING_SEED1, w);
        let mut set: Vec<(u64, u64)> = self
            .reference
            .iter()
            .map(|s| (self.codes[s.index], s.delays.degradation().to_bits()))
            .collect();
        set.sort_unstable();
        let set = digest_words(set.into_iter().flat_map(|(c, d)| [c, d]));
        if !ctx.smoke && set != SET_ANY_SEED {
            w.count(Failure::Mismatch(format!(
                "screened set digest {set:#018x}, committed {SET_ANY_SEED:#018x}"
            )));
        }
        w.note(format!(
            "screen: {} transitions, {} switching; ranking digest {ranking:#018x}, set digest {set:#018x}",
            self.transitions.len(),
            self.reference.len()
        ));
    }
}

impl Workload for Screen {
    fn measure(&mut self, ctx: &Ctx) -> Window {
        let mut w = serial(ctx.seconds, |_| self.checked_pass(THREADS));
        self.gates(ctx, &mut w);
        w
    }

    fn trace(&mut self, ctx: &Ctx) -> TraceRun {
        let mut run = paired(
            ctx,
            |_| self.checked_pass(1),
            |rec, _| {
                let ranked = rec.time("mtk_core::sizing/screen_vectors_par_quarantined", || {
                    self.pass(1)
                })?;
                self.check(ranked)
            },
            |_, _, _| {},
        );
        self.gates(ctx, &mut run.window);
        run
    }
}
