//! `size-mul16` and `replay-mul16`: sizing the 16×16 multiplier's sleep
//! transistor to a 5 % degradation target — cold (fresh cache, every
//! leg simulated) and warm (every leg replayed from a store filled at
//! set-up).
//!
//! One sizing problem is the first 16 transitions of the operation's
//! seeded stream that switch the outputs and meet the target at the top
//! of the bracket: a few random transitions glitch so that no size meets
//! 5 %, which would make the solve fail. The screening at the top of the
//! bracket goes through the solve's own cache, so the bisection replays
//! it instead of paying for it twice.

use super::{check_digest, Workload};
use crate::run::{failed, paired, serial, Ctx, Failure, TraceRun, Window};
use crate::util::{golden, random_transition, Golden, ScratchDir};
use mtk_core::sizing::{
    size_for_target_cached, vbsim_delay_pair_cached, CacheSnapshot, ScreeningCache, Transition,
};
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_store::Store;
use mtk_trace::SpanRecorder;
use std::path::{Path, PathBuf};

const TARGET: f64 = 0.05;
const BRACKET: (f64, f64) = (1.0, 20000.0);
/// Candidates drawn per kept transition before a problem counts as failed.
const MAX_DRAWS_PER_KEPT: usize = 8;
/// The `--seed 1` solution's W/L bits (operation 0).
const WL_SEED1: u64 = 0x40a7_0612_b835_6ffc;

/// The mul16 design and how many transitions one problem keeps.
struct Problems {
    golden: Golden,
    count: usize,
    seed: u64,
}

/// One solved problem.
struct Solved {
    w_over_l: f64,
    transitions: Vec<Transition>,
}

impl Problems {
    fn new(ctx: &Ctx) -> Result<Problems, String> {
        Ok(Problems {
            golden: golden("mul16")?,
            count: if ctx.smoke { 4 } else { 16 },
            seed: ctx.seed,
        })
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(&self.golden.design.netlist, &self.golden.design.tech)
    }

    /// Worst degradation over `transitions` at `w_over_l` through
    /// `cache`, or `None` when none of them switches an output.
    fn worst(
        engine: &Engine<'_>,
        transitions: &[Transition],
        w_over_l: f64,
        cache: &ScreeningCache,
    ) -> Result<Option<f64>, Failure> {
        let mut worst = None;
        for tr in transitions {
            let sleep = SleepNetwork::Transistor { w_over_l };
            let (pair, _) =
                vbsim_delay_pair_cached(engine, tr, None, sleep, &VbsimOptions::default(), cache)
                    .map_err(failed)?;
            if let Some(p) = pair {
                worst = Some(p.degradation().max(worst.unwrap_or(0.0)));
            }
        }
        Ok(worst)
    }

    /// Picks and solves problem `op` through `cache`, with spans when
    /// `rec` is enabled.
    fn solve(
        &self,
        engine: &Engine<'_>,
        cache: &ScreeningCache,
        op: usize,
        rec: &mut SpanRecorder,
    ) -> Result<Solved, Failure> {
        let inputs = self.golden.design.netlist.primary_inputs().len();
        let mut transitions = Vec::with_capacity(self.count);
        for j in 0..self.count * MAX_DRAWS_PER_KEPT {
            if transitions.len() == self.count {
                break;
            }
            let tr = random_transition(inputs, self.seed, op, j);
            let worst = rec.time("mtk_core::sizing/vbsim_delay_pair_cached", || {
                Self::worst(engine, std::slice::from_ref(&tr), BRACKET.1, cache)
            })?;
            if worst.is_some_and(|d| d <= TARGET) {
                transitions.push(tr);
            }
        }
        if transitions.len() < self.count {
            return Err(Failure::Failed(format!(
                "problem {op}: too few feasible transitions"
            )));
        }
        let (w_over_l, _) = rec
            .time("mtk_core::sizing/size_for_target_cached", || {
                size_for_target_cached(
                    engine,
                    &transitions,
                    None,
                    TARGET,
                    BRACKET,
                    &VbsimOptions::default(),
                    cache,
                )
            })
            .map_err(failed)?;
        Ok(Solved {
            w_over_l,
            transitions,
        })
    }
}

/// Requires `wl` to carry `want`'s exact bits.
fn same_bits(what: &str, wl: f64, want: f64) -> Result<(), Failure> {
    if wl.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(Failure::Mismatch(format!(
            "{what} W/L {wl} differs from {want}"
        )))
    }
}

fn gates(ctx: &Ctx, wl: f64, w: &mut Window) {
    check_digest(ctx, "sizing W/L", wl.to_bits(), WL_SEED1, w);
    w.note(format!(
        "size: problem 0 W/L {wl} (bits {:#018x})",
        wl.to_bits()
    ));
}

pub struct Size {
    problems: Problems,
    /// Problem 0's answer, solved at set-up.
    reference: f64,
}

impl Size {
    pub fn setup(ctx: &Ctx) -> Result<Size, String> {
        let problems = Problems::new(ctx)?;
        let solved = problems
            .solve(
                &problems.engine(),
                &ScreeningCache::new(),
                0,
                &mut SpanRecorder::new(false),
            )
            .map_err(|f| format!("problem 0: {f:?}"))?;
        Ok(Size {
            reference: solved.w_over_l,
            problems,
        })
    }

    /// One cold solve of problem `op`. Problem 0 must repeat the set-up
    /// answer bit for bit; every answer must meet the target (checked
    /// through the solve's cache, so without new simulation).
    fn cold(&self, op: usize, rec: &mut SpanRecorder) -> Result<(), Failure> {
        let engine = rec.time("mtk_core::vbsim/Engine::new", || self.problems.engine());
        let cache = ScreeningCache::new();
        let s = self.problems.solve(&engine, &cache, op, rec)?;
        if op == 0 {
            same_bits("problem 0", s.w_over_l, self.reference)?;
        }
        match Problems::worst(&engine, &s.transitions, s.w_over_l, &cache)? {
            Some(d) if d <= TARGET && s.w_over_l <= BRACKET.1 => Ok(()),
            d => Err(Failure::Mismatch(format!(
                "problem {op}: W/L {} leaves degradation {d:?}",
                s.w_over_l
            ))),
        }
    }
}

impl Workload for Size {
    fn measure(&mut self, ctx: &Ctx) -> Window {
        let mut w = serial(ctx.seconds, |op| {
            self.cold(op, &mut SpanRecorder::new(false))
        });
        gates(ctx, self.reference, &mut w);
        w
    }

    fn trace(&mut self, ctx: &Ctx) -> TraceRun {
        let mut run = paired(
            ctx,
            |op| self.cold(op, &mut SpanRecorder::new(false)),
            |rec, op| self.cold(op, rec),
            |_, _, _| {},
        );
        gates(ctx, self.reference, &mut run.window);
        run
    }
}

pub struct Replay {
    problems: Problems,
    store: PathBuf,
    /// Problem 0's cold answer, which filled the store.
    cold: f64,
}

/// Solves problem 0 cold through a cache backed by the store at `path`,
/// returning the answer and the cache's counts.
pub fn fill_store(ctx: &Ctx, path: &Path) -> Result<(f64, CacheSnapshot), String> {
    let problems = Problems::new(ctx)?;
    let cache = ScreeningCache::with_store(Store::open(path).map_err(|e| e.to_string())?);
    let solved = problems
        .solve(&problems.engine(), &cache, 0, &mut SpanRecorder::new(false))
        .map_err(|f| format!("filling the store: {f:?}"))?;
    Ok((solved.w_over_l, cache.snapshot()))
}

impl Replay {
    pub fn setup(ctx: &Ctx, scratch: &ScratchDir) -> Result<Replay, String> {
        let store = scratch.join("size.store");
        let (cold, _) = fill_store(ctx, &store)?;
        Ok(Replay {
            problems: Problems::new(ctx)?,
            store,
            cold,
        })
    }

    /// One replay of problem 0 on an engine built before the window, so
    /// the operation is the store read path alone.
    fn warm(&self, engine: &Engine<'_>, rec: &mut SpanRecorder) -> Result<(), Failure> {
        let store = rec
            .time("mtk_store/Store::open", || Store::open(&self.store))
            .map_err(failed)?;
        let cache = ScreeningCache::with_store(store);
        let s = self.problems.solve(engine, &cache, 0, rec)?;
        if cache.misses() > 0 {
            return Err(Failure::Mismatch(format!(
                "warm replay simulated {} legs",
                cache.misses()
            )));
        }
        same_bits("warm replay", s.w_over_l, self.cold)
    }
}

impl Workload for Replay {
    fn measure(&mut self, ctx: &Ctx) -> Window {
        let engine = self.problems.engine();
        let mut w = serial(ctx.seconds, |_| {
            self.warm(&engine, &mut SpanRecorder::new(false))
        });
        gates(ctx, self.cold, &mut w);
        w
    }

    fn trace(&mut self, ctx: &Ctx) -> TraceRun {
        let engine = self.problems.engine();
        let mut run = paired(
            ctx,
            |_| self.warm(&engine, &mut SpanRecorder::new(false)),
            |rec, _| self.warm(&engine, rec),
            |_, _, _| {},
        );
        gates(ctx, self.cold, &mut run.window);
        run
    }
}
