//! The batched hybrid screen→verify pipeline must be a deterministic
//! merge of its two tiers: rankings, quarantine sets, and health
//! telemetry bit-identical at any thread count, SPICE results from the
//! per-worker reusable circuits identical to fresh single-shot runs, and
//! the screening cache a pure memo — warm reruns simulate nothing and
//! change nothing.

use mtcmos_suite::circuits::adder::RippleAdder;
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan, SweepHealth};
use mtcmos_suite::core::hybrid::{
    run_hybrid, spice_delay_pair, spice_transition, HybridOptions, HybridReport, SpiceRunConfig,
};
use mtcmos_suite::core::sizing::{
    screen_vectors_par_quarantined, size_for_target_cached, ScreeningCache, Transition,
};
use mtcmos_suite::core::vbsim::{Engine, VbsimOptions};
use mtcmos_suite::netlist::expand::SleepImpl;
use mtcmos_suite::netlist::logic::bits_lsb_first;
use mtcmos_suite::netlist::tech::Technology;

const W_OVER_L: f64 = 10.0;

fn adder_transitions(stride: usize) -> Vec<Transition> {
    exhaustive_transitions(6)
        .into_iter()
        .step_by(stride)
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect()
}

/// A coarse SPICE window keeps the verification tier affordable in tests
/// while still resolving the delays it measures.
fn test_spice_config() -> SpiceRunConfig {
    let mut cfg = SpiceRunConfig::window(40e-9);
    cfg.dt = 40e-9 / 250.0;
    cfg
}

fn assert_same_sweep_health(a: &SweepHealth, b: &SweepHealth, what: &str) {
    assert_eq!(a.items, b.items, "{what}: items");
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(
        a.quarantined_indices(),
        b.quarantined_indices(),
        "{what}: quarantine set"
    );
    let retried = |h: &SweepHealth| h.quarantined.iter().map(|q| q.retried).collect::<Vec<_>>();
    assert_eq!(retried(a), retried(b), "{what}: quarantine retry flags");
    assert_eq!(a.retries, b.retries, "{what}: retries");
    assert_eq!(
        a.retry_successes, b.retry_successes,
        "{what}: retry successes"
    );
    assert_eq!(a.panics_recovered, b.panics_recovered, "{what}: panics");
    assert_eq!(a.runs, b.runs, "{what}: run counters");
}

fn run_at(threads: usize) -> HybridReport {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(31);
    let opts = HybridOptions {
        threads,
        top_k: 3,
        policy: FailurePolicy::quarantine(8),
        // One hard error, one transient overflow (retried), one worker
        // panic in the screening tier; one hard error on verification
        // candidate rank 1.
        fault: FaultPlan {
            error_at: vec![5],
            overflow_at: vec![9],
            panic_at: vec![12],
            ..FaultPlan::none()
        },
        verify_fault: FaultPlan {
            error_at: vec![1],
            ..FaultPlan::none()
        },
        ..HybridOptions::at_size(W_OVER_L, test_spice_config())
    };
    run_hybrid(&add.netlist, &tech, &transitions, &opts).expect("hybrid run")
}

#[test]
fn hybrid_report_is_bit_identical_at_any_thread_count() {
    let serial = run_at(1);

    // The injected faults must actually have fired, or the invariance
    // claim is vacuous.
    assert_eq!(serial.screen_health.quarantined_indices(), vec![5, 12]);
    assert_eq!(serial.screen_health.panics_recovered, 1);
    assert_eq!(serial.screen_health.retry_successes, 1);
    assert_eq!(serial.verify_health.quarantined_indices(), vec![1]);
    assert_eq!(serial.findings.len(), 3);
    assert!(serial.findings[0].verified.is_some());
    assert!(
        serial.findings[1].verified.is_none(),
        "quarantined candidate must have no verdict"
    );
    assert!(serial.findings[2].verified.is_some());
    // The screening tier really ranked: worst screened degradation first.
    assert!(serial.findings[0].screened.degradation() >= serial.findings[2].screened.degradation());
    // Screened-vs-verified deltas exist exactly where both tiers
    // measured a finite degradation (a stalled gate on either tier has
    // no meaningful signed error).
    for f in &serial.findings {
        let both_finite = f.screened.degradation().is_finite()
            && f.verified.is_some_and(|v| v.degradation().is_finite());
        assert_eq!(f.delta.is_some(), both_finite, "finding {}", f.index);
    }

    for threads in [2usize, 8] {
        let par = run_at(threads);
        assert_eq!(par.findings, serial.findings, "threads={threads}");
        assert_eq!(par.survivors, serial.survivors, "threads={threads}");
        assert_same_sweep_health(
            &par.screen_health,
            &serial.screen_health,
            &format!("screen, threads={threads}"),
        );
        assert_same_sweep_health(
            &par.verify_health,
            &serial.verify_health,
            &format!("verify, threads={threads}"),
        );
        let candidates =
            |r: &HybridReport| -> u64 { r.verify_workers.iter().map(|w| w.vectors).sum() };
        assert_eq!(candidates(&par), candidates(&serial), "threads={threads}");
    }
}

#[test]
fn hybrid_verification_matches_fresh_spice_runs() {
    // The per-worker circuits are reprogrammed between candidates
    // (replaced input waves, cleared+reapplied initial conditions); the
    // measurements, solver-stress counters included, must be
    // indistinguishable from building a fresh circuit per run.
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(211);
    // One nominal step over the whole window makes the integrator halve
    // its way through the switching, so the counters are not all zero.
    let mut coarse = test_spice_config();
    coarse.dt = coarse.t_stop;
    let mut halvings_seen = 0;
    for cfg in [test_spice_config(), coarse] {
        let opts = HybridOptions {
            top_k: 3,
            threads: 2,
            ..HybridOptions::at_size(W_OVER_L, cfg.clone())
        };
        let report = run_hybrid(&add.netlist, &tech, &transitions, &opts).expect("hybrid run");
        assert_eq!(report.findings.len(), 3);
        for f in &report.findings {
            let tr = &transitions[f.index];
            let fresh = spice_delay_pair(&add.netlist, &tech, tr, None, W_OVER_L, &cfg)
                .expect("fresh spice run");
            assert_eq!(f.verified, fresh, "candidate {}", f.index);
            // The counters sum the legs that ran: the MTCMOS leg only
            // where the CMOS leg switched.
            let leg = |sleep| {
                spice_transition(&add.netlist, &tech, tr, None, sleep, &cfg)
                    .expect("fresh spice leg")
            };
            let cmos = leg(SleepImpl::AlwaysOn);
            let (mut stages, mut halvings) = (cmos.op_gmin_fallback_stages, cmos.dt_halvings);
            if cmos.delay.is_some() {
                let mt = leg(SleepImpl::Transistor { w_over_l: W_OVER_L });
                stages += mt.op_gmin_fallback_stages;
                halvings += mt.dt_halvings;
            }
            assert_eq!(f.op_gmin_fallback_stages, stages, "candidate {}", f.index);
            assert_eq!(f.dt_halvings, halvings, "candidate {}", f.index);
            halvings_seen += halvings;
        }
    }
    assert!(halvings_seen > 0, "the coarse window must halve steps");
}

#[test]
fn cached_sizing_rerun_is_free_and_bit_identical() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&add.netlist, &tech);
    let base = VbsimOptions::default();
    // The two worst screened transitions drive the sizing, as in the
    // paper's flow.
    let transitions = adder_transitions(31);
    let (screened, _) = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &transitions,
        None,
        W_OVER_L,
        &base,
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    )
    .expect("screen");
    let worst: Vec<Transition> = screened[..2]
        .iter()
        .map(|s| transitions[s.index].clone())
        .collect();

    let cache = ScreeningCache::new();
    let (cold, cold_health) =
        size_for_target_cached(&engine, &worst, None, 0.10, (1.0, 5000.0), &base, &cache)
            .expect("cold sizing");
    assert!(cold_health.cache_misses > 0);
    // Within one bisection each transition's CMOS baseline is computed
    // once and then served from the cache.
    assert!(cold_health.cache_hits > 0);

    let misses_before = cache.misses();
    let (warm, warm_health) =
        size_for_target_cached(&engine, &worst, None, 0.10, (1.0, 5000.0), &base, &cache)
            .expect("warm sizing");
    assert_eq!(warm, cold, "warm rerun must be bit-identical");
    assert_eq!(
        cache.misses(),
        misses_before,
        "warm rerun must perform zero redundant simulator runs"
    );
    assert_eq!(warm_health.cache_misses, 0);
    assert!(warm_health.cache_hits > 0);
    // The stored telemetry replays identically.
    assert_eq!(warm_health.breakpoints, cold_health.breakpoints);
    assert_eq!(warm_health.glitch_reversals, cold_health.glitch_reversals);
    assert_eq!(warm_health.vx_fallbacks, cold_health.vx_fallbacks);
}
