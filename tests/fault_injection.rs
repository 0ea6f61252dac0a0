//! The fault-tolerant sweep contract: injected failures — overflows,
//! structured errors, outright worker panics — must be quarantined
//! deterministically. The quarantine set and every *surviving* result
//! must be bit-identical at any thread count, and identical to the
//! fault-free run minus the condemned indices. A panic inside one work
//! item must never take down the process.

use mtcmos_suite::circuits::adder::RippleAdder;
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::cluster::{exclusive_partition, size_clusters_for_target, ClusterOptions};
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan, SweepHealth};
use mtcmos_suite::core::mc::{run_mc, McOptions};
use mtcmos_suite::core::search::{search_worst_vector, SearchOptions};
use mtcmos_suite::core::sizing::{screen_vectors_par_quarantined, ScreenedVector, Transition};
use mtcmos_suite::core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtcmos_suite::core::CoreError;
use mtcmos_suite::netlist::logic::bits_lsb_first;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::trace::{PhaseTrace, TraceMode, TraceReport};

const W_OVER_L: f64 = 10.0;

fn adder_transitions(n: usize) -> Vec<Transition> {
    exhaustive_transitions(6)
        .into_iter()
        .take(n)
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect()
}

/// panic at 3, structured error at 5, transient overflow at 7 (recovers
/// via the relaxed-budget retry), persistent overflow at 9 (retried,
/// then quarantined).
fn faults() -> FaultPlan {
    FaultPlan {
        panic_at: vec![3],
        error_at: vec![5],
        overflow_at: vec![7],
        persistent_overflow_at: vec![9],
        ..FaultPlan::default()
    }
}

fn assert_same_survivors(faulted: &[ScreenedVector], reference: &[ScreenedVector], ctx: &str) {
    assert_eq!(faulted.len(), reference.len(), "{ctx}: survivor count");
    for (f, r) in faulted.iter().zip(reference) {
        assert_eq!(f.index, r.index, "{ctx}: ranking order");
        assert_eq!(
            f.delays.cmos.to_bits(),
            r.delays.cmos.to_bits(),
            "{ctx}: cmos delay not bit-identical at index {}",
            f.index
        );
        assert_eq!(
            f.delays.mtcmos.to_bits(),
            r.delays.mtcmos.to_bits(),
            "{ctx}: mtcmos delay not bit-identical at index {}",
            f.index
        );
    }
}

#[test]
fn quarantine_set_and_survivors_are_thread_count_invariant() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(32);
    let base = VbsimOptions::default();

    // Fault-free reference, minus the indices the plan will condemn.
    let (clean, clean_report) = screen_vectors_par_quarantined(
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
    .expect("fault-free screen");
    assert!(clean_report.health.is_clean());
    let reference: Vec<ScreenedVector> = clean
        .into_iter()
        .filter(|e| ![3usize, 5, 9].contains(&e.index))
        .collect();

    for threads in [1usize, 2, 8] {
        let (screened, report) = screen_vectors_par_quarantined(
            &add.netlist,
            &tech,
            &transitions,
            None,
            W_OVER_L,
            &base,
            threads,
            FailurePolicy::quarantine(8),
            &faults(),
        )
        .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        let ctx = format!("threads={threads}");

        assert_eq!(
            report.health.quarantined_indices(),
            vec![3, 5, 9],
            "{ctx}: quarantine set"
        );
        // Index 7's transient overflow and index 9's persistent overflow
        // each trigger the relaxed-budget retry; only 7's succeeds.
        assert_eq!(report.health.retries, 2, "{ctx}: retries");
        assert_eq!(report.health.retry_successes, 1, "{ctx}: retry successes");
        assert_eq!(report.health.panics_recovered, 1, "{ctx}: panics recovered");
        assert_eq!(report.health.items, transitions.len());
        assert_eq!(report.health.completed, transitions.len() - 3);
        let q9 = report
            .health
            .quarantined
            .iter()
            .find(|q| q.index == 9)
            .expect("index 9 quarantined");
        assert!(q9.retried, "{ctx}: persistent overflow must be retried");
        assert!(
            matches!(q9.error, CoreError::EventOverflow { .. }),
            "{ctx}: {:?}",
            q9.error
        );

        assert_same_survivors(&screened, &reference, &ctx);
    }
}

#[test]
fn fail_fast_surfaces_a_worker_panic_without_aborting() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(8);
    let err = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &transitions,
        None,
        W_OVER_L,
        &VbsimOptions::default(),
        2,
        FailurePolicy::FailFast,
        &FaultPlan {
            panic_at: vec![3],
            ..FaultPlan::default()
        },
    )
    .expect_err("panic must fail the sweep under FailFast");
    match err {
        CoreError::WorkerPanic { index, message } => {
            assert_eq!(index, 3);
            assert!(message.contains("injected panic"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn quarantine_cap_aborts_with_too_many_failures() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(12);
    let err = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &transitions,
        None,
        W_OVER_L,
        &VbsimOptions::default(),
        2,
        FailurePolicy::quarantine(2),
        &FaultPlan {
            error_at: vec![1, 4, 6],
            ..FaultPlan::default()
        },
    )
    .expect_err("three failures must blow a cap of two");
    match err {
        CoreError::TooManyFailures {
            failures,
            max_failures,
        } => {
            assert_eq!((failures, max_failures), (3, 2));
        }
        other => panic!("expected TooManyFailures, got {other:?}"),
    }
}

#[test]
fn faulted_search_is_thread_count_invariant() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&add.netlist, &tech);
    let run = |threads: usize| {
        search_worst_vector(
            &engine,
            &SearchOptions {
                random_samples: 16,
                restarts: 1,
                max_passes: 2,
                threads,
                policy: FailurePolicy::quarantine(8),
                fault: FaultPlan {
                    panic_at: vec![2],
                    error_at: vec![5],
                    ..FaultPlan::default()
                },
                ..SearchOptions::at_sleep(SleepNetwork::Transistor { w_over_l: W_OVER_L })
            },
        )
        .expect("faulted search must still produce a result")
    };
    let serial = run(1);
    assert_eq!(serial.health.quarantined_indices(), vec![2, 5]);
    assert_eq!(serial.health.panics_recovered, 1);
    for threads in [2usize, 8] {
        let par = run(threads);
        assert_eq!(par.transition, serial.transition, "threads={threads}");
        assert_eq!(
            par.degradation.to_bits(),
            serial.degradation.to_bits(),
            "threads={threads}"
        );
        assert_eq!(
            par.health.quarantined_indices(),
            serial.health.quarantined_indices(),
            "threads={threads}"
        );
        assert_eq!(
            par.health.panics_recovered, serial.health.panics_recovered,
            "threads={threads}"
        );
    }
}

/// FNV-1a of a string: one number pins a whole trace.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The FNV-1a of one phase's deterministic trace JSON.
fn trace_fnv(phase: PhaseTrace) -> u64 {
    let mut trace = TraceReport::new("fault_injection");
    trace.push_phase(phase);
    fnv(&trace.to_json(TraceMode::Deterministic))
}

/// Default options with a breakpoint budget small enough that some
/// items overflow for real, on top of the injected overflows.
fn tight(max_events: usize) -> VbsimOptions {
    VbsimOptions {
        max_events,
        ..VbsimOptions::default()
    }
}

/// `(retries, retry successes, quarantined indices)` of a sweep.
fn degraded(health: &SweepHealth) -> (usize, usize, Vec<usize>) {
    (
        health.retries,
        health.retry_successes,
        health.quarantined_indices(),
    )
}

/// Golden deterministic traces of the four quarantining sweeps — the
/// screen, the worst-vector search, the cluster co-optimisation and
/// Monte Carlo — each under `faults()` and a budget that some items
/// overflow for real. The retry counts show the real overflows on top
/// of the injected ones; the FNVs pin every counter of the trace, so a
/// charge counted twice or dropped in `breakpoints`, `max_events`,
/// `retries` or `retry_successes` fails here, which comparing thread
/// counts with each other cannot catch.
#[test]
fn faulted_sweep_traces_match_their_goldens() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let (_, screen) = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &adder_transitions(32),
        None,
        W_OVER_L,
        &tight(20),
        2,
        FailurePolicy::quarantine(32),
        &faults(),
    )
    .expect("faulted screen");
    assert_eq!(degraded(&screen.health), (7, 6, vec![3, 5, 9]));
    assert_eq!(trace_fnv(screen.to_phase("screen")), 0x18d1_944f_752d_b3af);

    let engine = Engine::new(&add.netlist, &tech);
    let search = search_worst_vector(
        &engine,
        &SearchOptions {
            random_samples: 16,
            restarts: 1,
            max_passes: 2,
            threads: 2,
            policy: FailurePolicy::quarantine(32),
            fault: faults(),
            base: tight(20),
            ..SearchOptions::at_sleep(SleepNetwork::Transistor { w_over_l: W_OVER_L })
        },
    )
    .expect("faulted search");
    assert_eq!(degraded(&search.health), (5, 4, vec![3, 5, 9]));
    assert_eq!(trace_fnv(search.to_phase("search")), 0x5dc1_b5ba_d5a9_2c8d);

    // Every 61st transition of the exhaustive space: glitchy enough that
    // a mid-bisection MTCMOS leg outgrows every CMOS baseline.
    let spread: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .step_by(61)
        .take(32)
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect();
    let partition = exclusive_partition(&add.netlist, &spread, 12).expect("partition");
    let opts = ClusterOptions {
        base: tight(36),
        threads: 2,
        policy: FailurePolicy::quarantine(32),
        fault: faults(),
        ..ClusterOptions::at_target(0.05, (0.5, 2000.0))
    };
    let (sizing, cluster) =
        size_clusters_for_target(&add.netlist, &tech, &spread, &partition, &opts, None)
            .expect("faulted cluster sizing");
    assert_eq!(degraded(&cluster.health), (1, 1, vec![3, 5]));
    assert_eq!(
        trace_fnv(cluster.to_phase("cluster", &sizing)),
        0xb1b3_c326_12ff_ff74
    );

    let varied = Technology {
        sigma_vt: 0.03,
        sigma_kp: 0.05,
        sigma_w: 0.04,
        ..Technology::l07()
    };
    let mc = run_mc(
        &add.netlist,
        &varied,
        &spread[..8],
        None,
        &McOptions {
            trials: 16,
            threads: 2,
            widths: vec![10.0, 40.0],
            target: 0.25,
            policy: FailurePolicy::quarantine(32),
            base: tight(25),
            ..McOptions::default()
        },
        None,
        &faults(),
    )
    .expect("faulted mc");
    assert_eq!(degraded(&mc.health), (9, 8, vec![3, 5, 9]));
    assert_eq!(trace_fnv(mc.to_phase("mc")), 0xd8c0_d03d_5053_9a72);
}
