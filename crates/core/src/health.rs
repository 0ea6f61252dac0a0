//! Run- and sweep-level health telemetry plus the quarantine machinery
//! behind the fault-tolerant screening/search pipeline.
//!
//! The paper's tool exists to *screen thousands of input vectors* per
//! circuit (§5.2, §7). At that scale one pathological vector — a glitch
//! storm that blows the breakpoint budget, a singular equilibrium, or an
//! outright worker panic — must not discard the thousands of healthy
//! results already computed. This module defines:
//!
//! * [`RunHealth`] — per-simulator-run counters (breakpoints used vs.
//!   budget, glitch reversals, V<sub>x</sub>-solve fallbacks).
//! * [`SweepHealth`] — sweep-level aggregation: which items were
//!   quarantined and why, retries taken, panics recovered, and the summed
//!   per-run counters.
//! * [`FailurePolicy`] — fail-fast (the historical `?` behaviour) vs.
//!   quarantine-with-a-cap.
//! * [`FaultPlan`] — a deterministic fault-injection harness, keyed off
//!   [`mtk_num::prng`] per-index streams, used by tests to drive every
//!   degraded path without touching the simulator itself.
//! * `retry_item` — the retry ladder every quarantining sweep runs one
//!   work item under, and `charge_overflow`, the cost a real
//!   breakpoint-budget overflow adds to the counters.
//! * [`fold_item_reports`] — the index-ordered fold that turns per-item
//!   outcomes into `(survivors, SweepHealth)` under a policy. Because the
//!   fold runs in item order over results keyed by index, the quarantine
//!   set and every surviving result are bit-identical at any thread
//!   count — the same contract [`crate::par`] pins for healthy sweeps.

use crate::par::{ItemPanic, WorkerStats};
use crate::vbsim::VbsimOptions;
use crate::CoreError;
use mtk_num::prng::Xoshiro256pp;
use mtk_trace::{CounterId, CounterSet, Histogram, PhaseTrace};

/// Factor by which the breakpoint budget is relaxed for the single
/// automatic retry of an [`CoreError::EventOverflow`] item.
pub const RETRY_BUDGET_FACTOR: usize = 4;

/// Observability counters for one switch-level simulator run. These
/// describe *fallback machinery that fired*, not results: two runs with
/// equal waveforms may differ here only if one needed a relaxed
/// V<sub>x</sub> solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Breakpoints processed.
    pub breakpoints: usize,
    /// The budget those breakpoints were counted against
    /// (`VbsimOptions::max_events`; the largest budget seen when
    /// aggregated over runs).
    pub max_events: usize,
    /// Mid-swing direction reversals (glitches, §6.3) — the mechanism
    /// behind breakpoint-budget blowups.
    pub glitch_reversals: usize,
    /// Virtual-ground equilibrium solves that only converged under the
    /// relaxed fallback tolerances.
    pub vx_fallbacks: usize,
    /// Simulator legs served from a [`crate::sizing::ScreeningCache`]
    /// instead of re-simulated. Always 0 on the health of a raw engine
    /// run; only the `_cached` sizing entry points count here.
    pub cache_hits: usize,
    /// Simulator legs computed and inserted into a screening cache.
    pub cache_misses: usize,
}

impl RunHealth {
    /// Fraction of the breakpoint budget consumed (0 when no budget).
    pub fn budget_used(&self) -> f64 {
        if self.max_events == 0 {
            0.0
        } else {
            self.breakpoints as f64 / self.max_events as f64
        }
    }

    /// Merges another run's counters into this one (budget keeps the max
    /// so `budget_used` stays a per-run worst-case style bound).
    pub fn absorb(&mut self, other: &RunHealth) {
        self.breakpoints += other.breakpoints;
        self.max_events = self.max_events.max(other.max_events);
        self.glitch_reversals += other.glitch_reversals;
        self.vx_fallbacks += other.vx_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// These counters as entries in the [`mtk_trace`] registry — the
    /// simulator's contribution to the one telemetry spine.
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        set.add(CounterId::Breakpoints, self.breakpoints as u64);
        set.add(CounterId::MaxEvents, self.max_events as u64);
        set.add(CounterId::GlitchReversals, self.glitch_reversals as u64);
        set.add(CounterId::VxFallbacks, self.vx_fallbacks as u64);
        set.add(CounterId::CacheHits, self.cache_hits as u64);
        set.add(CounterId::CacheMisses, self.cache_misses as u64);
        set
    }
}

/// What a sweep does when one work item fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the whole sweep on the lowest-indexed failing item — the
    /// historical `?` behaviour, still deterministic at any thread count.
    #[default]
    FailFast,
    /// Collect failing items (index-ordered) and keep going; abort only
    /// when more than `max_failures` items fail.
    Quarantine {
        /// Largest tolerated number of quarantined items.
        max_failures: usize,
    },
}

impl FailurePolicy {
    /// Quarantine with the given cap — shorthand for binaries.
    pub fn quarantine(max_failures: usize) -> Self {
        FailurePolicy::Quarantine { max_failures }
    }
}

/// One quarantined work item: its index in the caller's item list and
/// the error that condemned it.
#[derive(Debug)]
pub struct QuarantinedItem {
    /// Index into the sweep's item slice.
    pub index: usize,
    /// Whether the relaxed-budget retry was attempted before giving up.
    pub retried: bool,
    /// The error of the *final* attempt.
    pub error: CoreError,
}

/// Sweep-level health report: what fallback machinery fired across a
/// whole screening/search phase.
#[derive(Debug, Default)]
pub struct SweepHealth {
    /// Work items submitted.
    pub items: usize,
    /// Items that produced a result.
    pub completed: usize,
    /// Items that failed after all fallbacks, index-ordered.
    pub quarantined: Vec<QuarantinedItem>,
    /// Relaxed-budget retries attempted (for `EventOverflow` items).
    pub retries: usize,
    /// Retries whose second attempt succeeded.
    pub retry_successes: usize,
    /// Worker panics converted into quarantined items instead of
    /// aborting the process.
    pub panics_recovered: usize,
    /// Per-run counters summed over every attempt of every item.
    pub runs: RunHealth,
    /// Distribution of breakpoints per work item (every attempted item
    /// contributes, quarantined ones included — the cost was paid).
    /// Recorded by the index-ordered fold, so deterministic.
    pub breakpoints_per_item: Histogram,
}

impl SweepHealth {
    /// Indices of the quarantined items, in order.
    pub fn quarantined_indices(&self) -> Vec<usize> {
        self.quarantined.iter().map(|q| q.index).collect()
    }

    /// True when nothing degraded: no quarantine, no retry, no panic,
    /// no relaxed solve.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.retries == 0
            && self.panics_recovered == 0
            && self.runs.vx_fallbacks == 0
    }

    /// Merges another phase's sweep health into this one (quarantined
    /// items keep their indices — offset them first if the phases share
    /// an index space).
    pub fn absorb(&mut self, other: SweepHealth) {
        self.items += other.items;
        self.completed += other.completed;
        self.quarantined.extend(other.quarantined);
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
        self.panics_recovered += other.panics_recovered;
        self.runs.absorb(&other.runs);
        self.breakpoints_per_item
            .absorb(&other.breakpoints_per_item);
    }

    /// These counters as entries in the [`mtk_trace`] registry: the
    /// sweep-level counts plus everything [`RunHealth::counters`]
    /// contributes.
    pub fn counters(&self) -> CounterSet {
        let mut set = self.runs.counters();
        set.add(CounterId::Items, self.items as u64);
        set.add(CounterId::Completed, self.completed as u64);
        set.add(CounterId::Quarantined, self.quarantined.len() as u64);
        set.add(CounterId::Retries, self.retries as u64);
        set.add(CounterId::RetrySuccesses, self.retry_successes as u64);
        set.add(CounterId::PanicsRecovered, self.panics_recovered as u64);
        set
    }

    /// This sweep as one named phase of a [`mtk_trace::TraceReport`] —
    /// the deterministic half only; callers attach wall time and worker
    /// sinks where they have them.
    pub fn phase(&self, name: &str) -> PhaseTrace {
        PhaseTrace {
            name: name.to_string(),
            counters: self.counters(),
            breakpoints_per_item: self.breakpoints_per_item.clone(),
            extra_histograms: Vec::new(),
            quarantined: self.quarantined_indices(),
            wall_s: None,
            workers: Vec::new(),
        }
    }

    /// One-line footer for the experiment binaries, rendered by the
    /// shared [`mtk_trace`] renderer (single source of the footer
    /// format).
    pub fn summary(&self) -> String {
        format!("run health: {}", self.phase("run").health_line())
    }
}

/// The outcome of one work item after its own fallbacks (at most one
/// relaxed-budget retry) ran. Produced inside worker closures, folded
/// index-ordered by [`fold_item_reports`].
#[derive(Debug)]
pub struct ItemReport<R> {
    /// The final result (or the final attempt's error).
    pub value: Result<R, CoreError>,
    /// Whether a relaxed-budget retry was attempted.
    pub retried: bool,
    /// Per-run counters accumulated over every attempt of this item.
    pub run: RunHealth,
}

/// Runs one work item under the retry ladder (DESIGN.md §9): the fault
/// plan's check and attempt 0 at `base`'s breakpoint budget, then —
/// only for [`CoreError::EventOverflow`] — the check and attempt 1 at
/// that budget relaxed by [`RETRY_BUDGET_FACTOR`]. `attempt` gets the
/// attempt number, the options of that attempt and the item's run
/// health, which accumulates over both attempts.
pub(crate) fn retry_item<R>(
    index: usize,
    fault: &FaultPlan,
    base: &VbsimOptions,
    mut attempt: impl FnMut(usize, &VbsimOptions, &mut RunHealth) -> Result<R, CoreError>,
) -> ItemReport<R> {
    let mut run = RunHealth::default();
    let mut value = fault
        .check(index, 0)
        .and_then(|()| attempt(0, base, &mut run));
    let retried = matches!(value, Err(CoreError::EventOverflow { .. }));
    if retried {
        let relaxed = VbsimOptions {
            max_events: base.max_events.saturating_mul(RETRY_BUDGET_FACTOR),
            ..base.clone()
        };
        value = fault
            .check(index, 1)
            .and_then(|()| attempt(1, &relaxed, &mut run));
    }
    ItemReport {
        value,
        retried,
        run,
    }
}

/// Charges a simulator run that overflowed its breakpoint budget
/// `max_events`: the breakpoints it burned are real cost, so they go to
/// the item's run health and its worker's counters, and the budget to
/// the run health. Any other error charges nothing — nor does an
/// injected overflow, which never reaches a simulator.
pub(crate) fn charge_overflow(
    e: &CoreError,
    max_events: usize,
    run: &mut RunHealth,
    stats: &mut WorkerStats,
) {
    if let CoreError::EventOverflow { events, .. } = *e {
        run.breakpoints += events;
        run.max_events = run.max_events.max(max_events);
        stats.breakpoints += events as u64;
    }
}

/// Folds per-item outcomes into `(survivors, SweepHealth)` under a
/// policy. `reports` must be keyed by item index (the executor's output
/// order), which makes the fold — and therefore the quarantine set —
/// independent of the worker schedule.
///
/// # Errors
///
/// * Under [`FailurePolicy::FailFast`], the error (or
///   [`CoreError::WorkerPanic`]) of the lowest-indexed failing item.
/// * Under [`FailurePolicy::Quarantine`],
///   [`CoreError::TooManyFailures`] when the cap is exceeded (checked
///   after the full fold, so the count is schedule-independent).
pub fn fold_item_reports<R>(
    reports: Vec<Result<ItemReport<R>, ItemPanic>>,
    policy: FailurePolicy,
) -> Result<(Vec<Option<R>>, SweepHealth), CoreError> {
    let mut health = SweepHealth {
        items: reports.len(),
        ..SweepHealth::default()
    };
    let mut out: Vec<Option<R>> = Vec::with_capacity(reports.len());
    for (index, report) in reports.into_iter().enumerate() {
        match report {
            Err(panic) => {
                let error = CoreError::WorkerPanic {
                    index: panic.index,
                    message: panic.message,
                };
                if policy == FailurePolicy::FailFast {
                    return Err(error);
                }
                health.panics_recovered += 1;
                health.quarantined.push(QuarantinedItem {
                    index,
                    retried: false,
                    error,
                });
                out.push(None);
            }
            Ok(rep) => {
                health.runs.absorb(&rep.run);
                health
                    .breakpoints_per_item
                    .record(rep.run.breakpoints as u64);
                if rep.retried {
                    health.retries += 1;
                }
                match rep.value {
                    Ok(v) => {
                        health.completed += 1;
                        if rep.retried {
                            health.retry_successes += 1;
                        }
                        out.push(Some(v));
                    }
                    Err(error) => {
                        if policy == FailurePolicy::FailFast {
                            return Err(error);
                        }
                        health.quarantined.push(QuarantinedItem {
                            index,
                            retried: rep.retried,
                            error,
                        });
                        out.push(None);
                    }
                }
            }
        }
    }
    if let FailurePolicy::Quarantine { max_failures } = policy {
        if health.quarantined.len() > max_failures {
            return Err(CoreError::TooManyFailures {
                failures: health.quarantined.len(),
                max_failures,
            });
        }
    }
    Ok((out, health))
}

/// A fault injected at one work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// `EventOverflow` on the first attempt only — exercises the
    /// relaxed-budget retry path end-to-end (the retry succeeds).
    TransientOverflow,
    /// `EventOverflow` on every attempt — retry fires, then quarantine.
    PersistentOverflow,
    /// A structured [`CoreError::FaultInjected`] — straight to
    /// quarantine, no retry.
    Error,
    /// A worker panic — exercises the `catch_unwind` isolation.
    Panic,
}

/// Deterministic fault-injection plan. Faults are a pure function of
/// `(plan, item index)`: explicit index lists take priority, then a
/// per-index draw from PRNG stream `(seed, index)` decides rate-based
/// transient overflows — so the injected set is identical however the
/// sweep is sharded across threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Base seed of the per-index decision streams.
    pub seed: u64,
    /// Items that overflow on their first attempt only.
    pub overflow_at: Vec<usize>,
    /// Items that overflow on every attempt.
    pub persistent_overflow_at: Vec<usize>,
    /// Items that fail with [`CoreError::FaultInjected`].
    pub error_at: Vec<usize>,
    /// Items whose worker closure panics.
    pub panic_at: Vec<usize>,
    /// Probability of a transient overflow for indices not listed above,
    /// drawn from stream `(seed, index)`.
    pub transient_overflow_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault can ever fire.
    pub fn is_empty(&self) -> bool {
        self.overflow_at.is_empty()
            && self.persistent_overflow_at.is_empty()
            && self.error_at.is_empty()
            && self.panic_at.is_empty()
            && self.transient_overflow_rate <= 0.0
    }

    /// The fault (if any) scheduled for an item index.
    pub fn fault_at(&self, index: usize) -> Option<InjectedFault> {
        if self.panic_at.contains(&index) {
            return Some(InjectedFault::Panic);
        }
        if self.error_at.contains(&index) {
            return Some(InjectedFault::Error);
        }
        if self.persistent_overflow_at.contains(&index) {
            return Some(InjectedFault::PersistentOverflow);
        }
        if self.overflow_at.contains(&index) {
            return Some(InjectedFault::TransientOverflow);
        }
        if self.transient_overflow_rate > 0.0 {
            let draw = Xoshiro256pp::stream(self.seed, index as u64).next_f64();
            if draw < self.transient_overflow_rate {
                return Some(InjectedFault::TransientOverflow);
            }
        }
        None
    }

    /// Applies the plan at the entry of attempt `attempt` of item
    /// `index`: panics, returns the injected error, or passes.
    ///
    /// # Errors
    ///
    /// The injected [`CoreError`], when one is scheduled for this
    /// `(index, attempt)`.
    ///
    /// # Panics
    ///
    /// When the plan schedules [`InjectedFault::Panic`] at `index` —
    /// that is the point: the caller's `catch_unwind` isolation is what
    /// is under test.
    pub fn check(&self, index: usize, attempt: usize) -> Result<(), CoreError> {
        match self.fault_at(index) {
            Some(InjectedFault::Panic) => panic!("injected panic at item {index}"),
            Some(InjectedFault::Error) => Err(CoreError::FaultInjected { index }),
            Some(InjectedFault::PersistentOverflow) => {
                Err(CoreError::EventOverflow { events: 0, t: 0.0 })
            }
            Some(InjectedFault::TransientOverflow) if attempt == 0 => {
                Err(CoreError::EventOverflow { events: 0, t: 0.0 })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_report(v: u32) -> Result<ItemReport<u32>, ItemPanic> {
        Ok(ItemReport {
            value: Ok(v),
            retried: false,
            run: RunHealth {
                breakpoints: 10,
                max_events: 100,
                ..RunHealth::default()
            },
        })
    }

    fn err_report(retried: bool) -> Result<ItemReport<u32>, ItemPanic> {
        Ok(ItemReport {
            value: Err(CoreError::EventOverflow {
                events: 99,
                t: 1e-9,
            }),
            retried,
            run: RunHealth::default(),
        })
    }

    #[test]
    fn fold_all_healthy() {
        let reports = vec![ok_report(1), ok_report(2), ok_report(3)];
        let (out, health) = fold_item_reports(reports, FailurePolicy::FailFast).unwrap();
        assert_eq!(out, vec![Some(1), Some(2), Some(3)]);
        assert_eq!(health.completed, 3);
        assert!(health.is_clean());
        assert_eq!(health.runs.breakpoints, 30);
        assert_eq!(health.runs.max_events, 100);
    }

    #[test]
    fn fail_fast_returns_lowest_indexed_error() {
        let reports = vec![ok_report(1), err_report(false), err_report(true)];
        let err = fold_item_reports(reports, FailurePolicy::FailFast).unwrap_err();
        assert!(matches!(err, CoreError::EventOverflow { events: 99, .. }));
    }

    #[test]
    fn quarantine_collects_in_index_order() {
        let reports = vec![
            ok_report(1),
            err_report(true),
            ok_report(2),
            Err(ItemPanic {
                index: 3,
                message: "boom".into(),
            }),
        ];
        let (out, health) = fold_item_reports(reports, FailurePolicy::quarantine(4)).unwrap();
        assert_eq!(out, vec![Some(1), None, Some(2), None]);
        assert_eq!(health.quarantined_indices(), vec![1, 3]);
        assert_eq!(health.retries, 1);
        assert_eq!(health.retry_successes, 0);
        assert_eq!(health.panics_recovered, 1);
        assert!(matches!(
            health.quarantined[1].error,
            CoreError::WorkerPanic { index: 3, .. }
        ));
        assert!(!health.is_clean());
        assert!(health.summary().contains("2 quarantined"));
    }

    #[test]
    fn quarantine_cap_is_enforced_after_full_fold() {
        let reports = vec![err_report(false), err_report(false), ok_report(7)];
        let err = fold_item_reports(reports, FailurePolicy::quarantine(1)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::TooManyFailures {
                failures: 2,
                max_failures: 1
            }
        ));
    }

    #[test]
    fn retry_success_is_counted() {
        let reports = vec![Ok(ItemReport {
            value: Ok(5u32),
            retried: true,
            run: RunHealth::default(),
        })];
        let (_, health) = fold_item_reports(reports, FailurePolicy::quarantine(0)).unwrap();
        assert_eq!(health.retries, 1);
        assert_eq!(health.retry_successes, 1);
    }

    #[test]
    fn run_health_absorb_and_budget() {
        let mut a = RunHealth {
            breakpoints: 50,
            max_events: 100,
            glitch_reversals: 2,
            vx_fallbacks: 1,
            cache_hits: 3,
            cache_misses: 2,
        };
        let b = RunHealth {
            breakpoints: 10,
            max_events: 400,
            glitch_reversals: 1,
            vx_fallbacks: 0,
            cache_hits: 1,
            cache_misses: 0,
        };
        a.absorb(&b);
        assert_eq!(a.breakpoints, 60);
        assert_eq!(a.max_events, 400);
        assert_eq!(a.glitch_reversals, 3);
        assert_eq!(a.vx_fallbacks, 1);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.cache_misses, 2);
        assert!((a.budget_used() - 0.15).abs() < 1e-12);
        assert_eq!(RunHealth::default().budget_used(), 0.0);
    }

    #[test]
    fn fault_plan_explicit_indices() {
        let plan = FaultPlan {
            overflow_at: vec![7],
            persistent_overflow_at: vec![9],
            error_at: vec![5],
            panic_at: vec![3],
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.fault_at(3), Some(InjectedFault::Panic));
        assert_eq!(plan.fault_at(5), Some(InjectedFault::Error));
        assert_eq!(plan.fault_at(7), Some(InjectedFault::TransientOverflow));
        assert_eq!(plan.fault_at(9), Some(InjectedFault::PersistentOverflow));
        assert_eq!(plan.fault_at(0), None);
        // Transient clears on the retry attempt; persistent does not.
        assert!(plan.check(7, 0).is_err());
        assert!(plan.check(7, 1).is_ok());
        assert!(plan.check(9, 1).is_err());
        assert!(plan.check(0, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "injected panic at item 2")]
    fn fault_plan_panics_on_schedule() {
        let plan = FaultPlan {
            panic_at: vec![2],
            ..FaultPlan::default()
        };
        let _ = plan.check(2, 0);
    }

    #[test]
    fn fault_plan_rate_is_deterministic_per_index() {
        let plan = FaultPlan {
            seed: 42,
            transient_overflow_rate: 0.25,
            ..FaultPlan::default()
        };
        let picks: Vec<bool> = (0..512).map(|i| plan.fault_at(i).is_some()).collect();
        let again: Vec<bool> = (0..512).map(|i| plan.fault_at(i).is_some()).collect();
        assert_eq!(
            picks, again,
            "injection must be a pure function of the index"
        );
        let hits = picks.iter().filter(|&&b| b).count();
        assert!(
            (64..192).contains(&hits),
            "rate 0.25 over 512 items hit {hits} times"
        );
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().fault_at(0), None);
    }
}
