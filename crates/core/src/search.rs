//! Worst-case input-vector search for circuits too large to enumerate.
//!
//! §4: "Although one could exhaustively simulate all possible input
//! transitions with SPICE for smaller circuits, it soon becomes
//! impossible with more complicated logic blocks." Even the fast
//! switch-level simulator cannot enumerate 2³² transitions of an 8×8
//! multiplier, so the sizing flow needs a search heuristic: random
//! sampling to seed, then bit-flip hill climbing on the transition
//! endpoints, with restarts.
//!
//! Both phases are embarrassingly parallel and run on the
//! [`crate::par`] executor. Determinism is independent of the thread
//! count: every random sample `i` draws from PRNG stream `(seed, i)` and
//! every restart `r` from stream `(seed, R | r)`, so the set of evaluated
//! transitions — and therefore the result — is a pure function of
//! [`SearchOptions`], no matter how the work is sharded.

use crate::health::{charge_overflow, fold_item_reports, retry_item, FailurePolicy, FaultPlan};
use crate::health::{ItemReport, RunHealth, SweepHealth};
use crate::par::{merge_stats, try_parallel_map_with, WorkerStats};
use crate::sizing::{delay_pair, Transition};
use crate::vbsim::{Engine, SleepNetwork, VbsimOptions, VbsimScratch};
use crate::CoreError;
use mtk_netlist::logic::bits_lsb_first;
use mtk_netlist::netlist::NetId;
use mtk_num::prng::Xoshiro256pp;

/// Stream-id namespace for restart points (disjoint from the sample
/// indices, which start at 0).
const RESTART_STREAM: u64 = 1 << 62;

/// Options for [`search_worst_vector`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Sleep size the degradation is evaluated at.
    pub sleep: SleepNetwork,
    /// Random seeds to draw before climbing.
    pub random_samples: usize,
    /// Hill-climbing restarts (restart 0 climbs from the best random
    /// sample, the rest from fresh random points).
    pub restarts: usize,
    /// Maximum climbing passes per restart (each pass tries every
    /// single-bit flip of both endpoints).
    pub max_passes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the sampling and restart phases
    /// (`0` = all available cores, `1` = run inline). The result is
    /// identical at any setting.
    pub threads: usize,
    /// Probes for the delay measurement (`None` = primary outputs).
    pub probes: Option<Vec<NetId>>,
    /// Base simulator options.
    pub base: VbsimOptions,
    /// What to do when a work item (sample or restart climb) fails.
    pub policy: FailurePolicy,
    /// Deterministic fault injection for tests. The item index space is
    /// samples first (`0..random_samples`), then restarts
    /// (`random_samples..random_samples + restarts`).
    pub fault: FaultPlan,
}

impl SearchOptions {
    /// A reasonable default budget at a given sleep size.
    pub fn at_sleep(sleep: SleepNetwork) -> Self {
        SearchOptions {
            sleep,
            random_samples: 200,
            restarts: 3,
            max_passes: 8,
            seed: 0xDAC97,
            threads: 1,
            probes: None,
            base: VbsimOptions::default(),
            policy: FailurePolicy::FailFast,
            fault: FaultPlan::none(),
        }
    }
}

/// The outcome of a search.
#[derive(Debug)]
pub struct SearchResult {
    /// The worst transition found.
    pub transition: Transition,
    /// Its fractional degradation.
    pub degradation: f64,
    /// Simulator runs spent.
    pub evaluations: usize,
    /// Per-worker execution counters (vectors, breakpoints, busy wall
    /// time), merged over both phases. Reporting only — the fields above
    /// never depend on the schedule.
    pub workers: Vec<WorkerStats>,
    /// Sweep-level health merged over both phases: quarantined items
    /// (sample indices first, then `random_samples + r` for restart
    /// `r`), retries, recovered panics, and run counters.
    pub health: SweepHealth,
}

impl SearchResult {
    /// This search as a [`mtk_trace::PhaseTrace`]: the merged health
    /// counters (deterministic) plus the per-worker sinks of both
    /// search phases (timing section).
    pub fn to_phase(&self, name: &str) -> mtk_trace::PhaseTrace {
        let mut phase = self.health.phase(name);
        phase.workers = crate::par::worker_traces(&self.workers);
        phase
    }
}

/// A candidate transition as packed endpoint words plus its score.
type Candidate = (u64, u64, f64);

/// One work-item body: evaluate under the given options, recording
/// health and per-worker stats into the provided scratch.
type ItemBody<'a> = dyn Fn(
        &VbsimOptions,
        &mut RunHealth,
        &mut WorkerStats,
        &mut VbsimScratch,
    ) -> Result<Candidate, CoreError>
    + 'a;

/// Searches for the transition with the largest MTCMOS degradation.
///
/// # Errors
///
/// Propagates simulator errors; returns [`CoreError::UnknownState`] if
/// the circuit has no primary inputs.
pub fn search_worst_vector(
    engine: &Engine<'_>,
    opts: &SearchOptions,
) -> Result<SearchResult, CoreError> {
    let n_bits = engine.netlist().primary_inputs().len() as u32;
    if n_bits == 0 {
        return Err(CoreError::UnknownState(
            "circuit has no primary inputs".to_string(),
        ));
    }
    let probes = opts.probes.as_deref();
    let mask = if n_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << n_bits) - 1
    };

    // One simulator evaluation. Counts into the calling worker's stats
    // and the item's run health; the returned score is
    // schedule-independent.
    let score = |from: u64,
                 to: u64,
                 base: &VbsimOptions,
                 run: &mut RunHealth,
                 stats: &mut WorkerStats,
                 scratch: &mut VbsimScratch|
     -> Result<f64, CoreError> {
        stats.vectors += 1;
        let tr = Transition::new(bits_lsb_first(from, n_bits), bits_lsb_first(to, n_bits));
        let (pair, health) = delay_pair(engine, &tr, probes, opts.sleep, base, None, scratch)
            .inspect_err(|e| charge_overflow(e, base.max_events, run, stats))?;
        run.absorb(&health);
        stats.breakpoints += health.breakpoints as u64;
        Ok(match pair {
            Some(p) => p.degradation(),
            None => f64::NEG_INFINITY, // doesn't exercise the probes
        })
    };

    // Runs one whole work item (a sample evaluation or a full climb)
    // under the retry ladder: retried once at a relaxed breakpoint budget
    // if any evaluation inside it overflowed. Retry-then-quarantine is
    // decided per item, so the outcome is a pure function of the item
    // index.
    let run_item = |index: usize,
                    stats: &mut WorkerStats,
                    scratch: &mut VbsimScratch,
                    body: &ItemBody<'_>|
     -> ItemReport<Candidate> {
        retry_item(index, &opts.fault, &opts.base, |_, base, run| {
            body(base, run, stats, scratch)
        })
    };

    // Phase 1: random sampling. Sample i draws from stream (seed, i).
    let sample_ids: Vec<u64> = (0..opts.random_samples.max(1) as u64).collect();
    let (sample_reports, sample_stats) = try_parallel_map_with(
        opts.threads,
        8,
        &sample_ids,
        VbsimScratch::new,
        |scratch, _, &i, stats| {
            run_item(i as usize, stats, scratch, &|base, run, stats, scratch| {
                let mut rng = Xoshiro256pp::stream(opts.seed, i);
                let from = rng.next_u64() & mask;
                let to = rng.next_u64() & mask;
                score(from, to, base, run, stats, scratch).map(|s| (from, to, s))
            })
        },
    );
    let (samples, mut health) = fold_item_reports(sample_reports, opts.policy)?;
    let mut best: Candidate = (0, 0, f64::NEG_INFINITY);
    for cand in samples.into_iter().flatten() {
        if cand.2 > best.2 {
            best = cand;
        }
    }

    // Phase 2: hill climbing with restarts. Each restart is an
    // independent deterministic climb; restart 0 starts from the phase-1
    // best, the rest from fresh random points on their own streams.
    let restart_ids: Vec<u64> = (0..opts.restarts as u64).collect();
    let (climb_reports, climb_stats) = try_parallel_map_with(
        opts.threads,
        1,
        &restart_ids,
        VbsimScratch::new,
        |scratch, _, &r, stats| {
            run_item(
                opts.random_samples + r as usize,
                stats,
                scratch,
                &|base, run, stats, scratch| {
                    // Climbing revisits transitions whenever a pass
                    // undoes an earlier flip; scores are pure per
                    // attempt, so memoise them. The memo is attempt-
                    // local: a retry at a relaxed budget re-evaluates
                    // everything, keeping the outcome a pure function of
                    // the item index.
                    let mut memo: std::collections::HashMap<(u64, u64), f64> =
                        std::collections::HashMap::new();
                    let from_best = r == 0 || best.2 == f64::NEG_INFINITY;
                    if from_best {
                        memo.insert((best.0, best.1), best.2);
                    }
                    let mut score_memo = |f: u64,
                                          t: u64,
                                          run: &mut RunHealth,
                                          stats: &mut WorkerStats,
                                          scratch: &mut VbsimScratch|
                     -> Result<f64, CoreError> {
                        if let Some(&s) = memo.get(&(f, t)) {
                            return Ok(s);
                        }
                        let s = score(f, t, base, run, stats, scratch)?;
                        memo.insert((f, t), s);
                        Ok(s)
                    };
                    let (mut from, mut to, mut cur) = if from_best {
                        best
                    } else {
                        let mut rng = Xoshiro256pp::stream(opts.seed, RESTART_STREAM | r);
                        let f = rng.next_u64() & mask;
                        let t = rng.next_u64() & mask;
                        let s = score_memo(f, t, run, stats, scratch)?;
                        (f, t, s)
                    };
                    for _ in 0..opts.max_passes {
                        let mut improved = false;
                        for bit in 0..n_bits {
                            for endpoint in 0..2 {
                                let (nf, nt) = if endpoint == 0 {
                                    (from ^ (1 << bit), to)
                                } else {
                                    (from, to ^ (1 << bit))
                                };
                                let s = score_memo(nf, nt, run, stats, scratch)?;
                                if s > cur {
                                    from = nf;
                                    to = nt;
                                    cur = s;
                                    improved = true;
                                }
                            }
                        }
                        if !improved {
                            break;
                        }
                    }
                    Ok((from, to, cur))
                },
            )
        },
    );
    let (climbs, mut climb_health) = fold_item_reports(climb_reports, opts.policy)?;
    for q in &mut climb_health.quarantined {
        q.index += opts.random_samples;
    }
    health.absorb(climb_health);
    for cand in climbs.into_iter().flatten() {
        if cand.2 > best.2 {
            best = cand;
        }
    }

    let workers = merge_stats(&[sample_stats, climb_stats]);
    let evaluations = workers.iter().map(|w| w.vectors).sum::<u64>() as usize;
    Ok(SearchResult {
        transition: Transition::new(
            bits_lsb_first(best.0, n_bits),
            bits_lsb_first(best.1, n_bits),
        ),
        degradation: best.2,
        evaluations,
        workers,
        health,
    })
}

/// Helper: did the found transition at least match a reference
/// degradation within a tolerance fraction?
pub fn found_at_least(result: &SearchResult, reference: f64, tolerance: f64) -> bool {
    result.degradation >= reference * (1.0 - tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::screen_vectors_par_quarantined;
    use mtk_circuits::adder::RippleAdder;
    use mtk_circuits::vectors::exhaustive_transitions;
    use mtk_netlist::tech::Technology;

    #[test]
    fn search_approaches_exhaustive_worst_on_small_adder() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let sleep = SleepNetwork::Transistor { w_over_l: 10.0 };

        // Ground truth from exhaustive screening.
        let transitions: Vec<Transition> = exhaustive_transitions(6)
            .into_iter()
            .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
            .collect();
        let (screened, _) = screen_vectors_par_quarantined(
            &add.netlist,
            &tech,
            &transitions,
            None,
            10.0,
            &VbsimOptions::default(),
            1,
            FailurePolicy::FailFast,
            &FaultPlan::none(),
        )
        .unwrap();
        let true_worst = screened[0].delays.degradation();

        let result = search_worst_vector(
            &engine,
            &SearchOptions {
                random_samples: 120,
                restarts: 2,
                max_passes: 6,
                ..SearchOptions::at_sleep(sleep)
            },
        )
        .unwrap();
        assert!(result.evaluations < 4096, "must beat exhaustive cost");
        // The global worst can be a needle (a glitch-amplified vector the
        // paper's §6.3 discusses); the search must at least land in the
        // top 2% of the exhaustive degradation distribution.
        let p98 = screened[screened.len() * 2 / 100].delays.degradation();
        assert!(
            result.degradation >= p98,
            "search found {:.3}, 98th percentile {:.3}, exhaustive worst {:.3}",
            result.degradation,
            p98,
            true_worst
        );
        assert!(found_at_least(&result, p98, 0.0));
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let opts = SearchOptions {
            random_samples: 30,
            restarts: 1,
            max_passes: 2,
            ..SearchOptions::at_sleep(SleepNetwork::Transistor { w_over_l: 10.0 })
        };
        let a = search_worst_vector(&engine, &opts).unwrap();
        let b = search_worst_vector(&engine, &opts).unwrap();
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.transition, b.transition);
    }

    #[test]
    fn search_result_is_identical_across_thread_counts() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let base = SearchOptions {
            random_samples: 24,
            restarts: 2,
            max_passes: 2,
            ..SearchOptions::at_sleep(SleepNetwork::Transistor { w_over_l: 10.0 })
        };
        let serial = search_worst_vector(&engine, &base).unwrap();
        for threads in [2usize, 5] {
            let par = search_worst_vector(
                &engine,
                &SearchOptions {
                    threads,
                    ..base.clone()
                },
            )
            .unwrap();
            assert_eq!(par.transition, serial.transition, "threads={threads}");
            assert_eq!(par.degradation, serial.degradation, "threads={threads}");
            assert_eq!(par.evaluations, serial.evaluations, "threads={threads}");
        }
    }

    #[test]
    fn worker_counters_account_for_every_evaluation() {
        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let result = search_worst_vector(
            &engine,
            &SearchOptions {
                random_samples: 16,
                restarts: 1,
                max_passes: 1,
                threads: 2,
                ..SearchOptions::at_sleep(SleepNetwork::Transistor { w_over_l: 10.0 })
            },
        )
        .unwrap();
        let vectors: u64 = result.workers.iter().map(|w| w.vectors).sum();
        assert_eq!(vectors as usize, result.evaluations);
        let breakpoints: u64 = result.workers.iter().map(|w| w.breakpoints).sum();
        assert!(breakpoints > 0, "adder runs must solve breakpoints");
    }

    #[test]
    fn no_inputs_is_an_error() {
        let nl = mtk_netlist::netlist::Netlist::new("empty");
        let tech = Technology::l07();
        let engine = Engine::new(&nl, &tech);
        let opts = SearchOptions::at_sleep(SleepNetwork::Cmos);
        assert!(search_worst_vector(&engine, &opts).is_err());
    }
}
