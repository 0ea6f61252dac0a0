//! The event-driven kernel is a pure optimization of the dense-scan
//! kernel: for any circuit, any option set, and any scratch state, every
//! observable of a run — waveform points, virtual-ground staircase,
//! sleep current, breakpoint count, health counters — must match the
//! dense kernel bit-for-bit. These tests pin that contract directly on
//! engine runs and end-to-end through the fault-tolerant parallel
//! screener's deterministic trace.
//!
//! The summary recorder ([`Engine::run_summary_with`]) is pinned the same
//! way: its crossings, flags, bounce peak, health and errors must equal
//! what the waveform run of the same transition reports.

use mtcmos_suite::circuits::adder::RippleAdder;
use mtcmos_suite::circuits::multiplier::ArrayMultiplier;
use mtcmos_suite::circuits::random_logic::{RandomLogic, RandomLogicSpec};
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan};
use mtcmos_suite::core::sizing::{screen_vectors_par_quarantined, Transition};
use mtcmos_suite::core::vbsim::{
    Engine, PartitionedSleep, RunSummary, SleepNetwork, VbsimKernel, VbsimOptions, VbsimRun,
    VbsimScratch,
};
use mtcmos_suite::core::CoreError;
use mtcmos_suite::fe::parse_str;
use mtcmos_suite::netlist::logic::{bits_lsb_first, Logic};
use mtcmos_suite::netlist::netlist::{NetId, Netlist};
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::num::prng::Xoshiro256pp;
use mtcmos_suite::num::waveform::Pwl;
use mtcmos_suite::trace::{TraceMode, TraceReport};

/// Bit patterns of a waveform's points, so `-0.0` vs `0.0` or any ULP
/// of drift fails the comparison.
fn pwl_bits(w: &Pwl) -> Vec<(u64, u64)> {
    w.points()
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

fn assert_runs_identical(dense: &VbsimRun, event: &VbsimRun, ctx: &str) {
    assert_eq!(
        dense.waveforms.len(),
        event.waveforms.len(),
        "{ctx}: net count"
    );
    for (i, (wd, we)) in dense.waveforms.iter().zip(&event.waveforms).enumerate() {
        assert_eq!(pwl_bits(wd), pwl_bits(we), "{ctx}: waveform of net {i}");
    }
    assert_eq!(pwl_bits(&dense.vgnd), pwl_bits(&event.vgnd), "{ctx}: vgnd");
    assert_eq!(
        pwl_bits(&dense.sleep_current),
        pwl_bits(&event.sleep_current),
        "{ctx}: sleep current"
    );
    assert_eq!(dense.breakpoints, event.breakpoints, "{ctx}: breakpoints");
    assert_eq!(dense.stalled, event.stalled, "{ctx}: stalled");
    assert_eq!(dense.truncated, event.truncated, "{ctx}: truncated");
    assert_eq!(
        dense.max_simultaneous_discharging, event.max_simultaneous_discharging,
        "{ctx}: co-discharge metric"
    );
    assert_eq!(dense.t_end.to_bits(), event.t_end.to_bits(), "{ctx}: t_end");
    assert_eq!(dense.health, event.health, "{ctx}: health counters");
}

/// Asserts a summary run reports exactly what the waveform run of the
/// same transition does, compared on `f64` bit patterns.
fn assert_summary_matches(run: &VbsimRun, summary: &RunSummary, probes: &[NetId], ctx: &str) {
    let bits = |c: Option<f64>| c.map(f64::to_bits);
    let want: Vec<_> = probes
        .iter()
        .map(|&n| bits(run.last_crossing_time(n)))
        .collect();
    let got: Vec<_> = summary.crossings.iter().map(|&c| bits(c)).collect();
    assert_eq!(got, want, "{ctx}: probe crossings");
    assert_eq!(summary.stalled, run.stalled, "{ctx}: stalled");
    assert_eq!(summary.truncated, run.truncated, "{ctx}: truncated");
    assert_eq!(
        summary.peak_vgnd.to_bits(),
        run.peak_vgnd().to_bits(),
        "{ctx}: peak vgnd"
    );
    assert_eq!(summary.health, run.health, "{ctx}: health counters");
}

/// A run's outcome with errors rendered, so error values (and which
/// error wins when several apply) compare too.
fn outcome<T>(r: Result<T, CoreError>) -> Result<T, String> {
    r.map_err(|e| format!("{e:?}"))
}

/// The option sets the kernels must agree under: plain CMOS, the paper's
/// MTCMOS sizes (well- and under-sized), and both §5.3/§2.3 extensions.
fn option_variants() -> Vec<VbsimOptions> {
    vec![
        VbsimOptions::cmos(),
        VbsimOptions::mtcmos(10.0),
        VbsimOptions::mtcmos(0.6),
        VbsimOptions {
            body_effect: true,
            ..VbsimOptions::mtcmos(5.0)
        },
        VbsimOptions {
            reverse_conduction: true,
            ..VbsimOptions::mtcmos(3.0)
        },
    ]
}

/// Runs every `(transition, options)` combination through both kernels —
/// the event kernel twice, once with a fresh scratch and once with a
/// scratch reused (and recycled into) across the whole sweep, so warm
/// memo tables and pooled buffers are proven not to leak into results.
/// Each combination is also run through the summary recorder under both
/// kernels (on its own warm scratch, probing every net) and checked
/// against the waveform run.
fn assert_kernels_agree(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[(Vec<Logic>, Vec<Logic>)],
) {
    let engine = Engine::new(netlist, tech);
    let probes: Vec<NetId> = netlist.net_ids().collect();
    let mut warm = VbsimScratch::new();
    let mut warm_summary = VbsimScratch::new();
    for (k, opts) in option_variants().iter().enumerate() {
        let dense_opts = VbsimOptions {
            kernel: VbsimKernel::DenseScan,
            ..opts.clone()
        };
        for (i, (from, to)) in transitions.iter().enumerate() {
            let ctx = format!("{} variant {k} transition {i}", netlist.name());
            let dense = engine.run(from, to, &dense_opts).expect("dense run");
            let cold = engine.run(from, to, opts).expect("cold event run");
            assert_runs_identical(&dense, &cold, &format!("cold {ctx}"));
            let hot = engine
                .run_with(from, to, opts, &mut warm)
                .expect("warm event run");
            assert_runs_identical(&dense, &hot, &format!("warm {ctx}"));
            warm.recycle(hot);
            for kernel_opts in [opts, &dense_opts] {
                let summary = engine
                    .run_summary_with(from, to, None, &probes, kernel_opts, &mut warm_summary)
                    .expect("summary run");
                let ctx = format!("summary {:?} {ctx}", kernel_opts.kernel);
                assert_summary_matches(&dense, &summary, &probes, &ctx);
            }
        }
    }
}

#[test]
fn adder_runs_are_bit_identical_across_kernels() {
    let add = RippleAdder::paper();
    let transitions: Vec<_> = [
        (0u64, 0u64, 7u64, 5u64),
        (3, 4, 1, 6),
        (7, 7, 0, 1),
        (5, 2, 2, 5),
    ]
    .iter()
    .map(|&(a0, b0, a1, b1)| (add.input_values(a0, b0), add.input_values(a1, b1)))
    .collect();
    assert_kernels_agree(&add.netlist, &Technology::l07(), &transitions);
}

#[test]
fn random_logic_runs_are_bit_identical_across_kernels() {
    for seed in [7u64, 19, 1234] {
        let rl = RandomLogic::new(&RandomLogicSpec {
            inputs: 6,
            gates: 24,
            seed,
            ..RandomLogicSpec::default()
        })
        .expect("random logic");
        let transitions: Vec<_> = exhaustive_transitions(6)
            .into_iter()
            .step_by(509)
            .map(|p| (bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
            .collect();
        assert_kernels_agree(&rl.netlist, &Technology::l07(), &transitions);
    }
}

#[test]
fn multiplier_runs_are_bit_identical_across_kernels() {
    // The glitch-heavy 8×8 array multiplier drives the deepest event
    // cascades (hundreds of breakpoints, mid-swing reversals).
    let mult = ArrayMultiplier::paper();
    let transitions: Vec<_> = [
        (0u64, 0u64, 255u64, 255u64),
        (170, 85, 85, 170),
        (19, 200, 19, 201),
    ]
    .iter()
    .map(|&(x0, y0, x1, y1)| (mult.input_values(x0, y0), mult.input_values(x1, y1)))
    .collect();
    assert_kernels_agree(&mult.netlist, &Technology::l07(), &transitions);
}

/// The 16×16 multiplier of `examples/mul16.mtk` — the sizing workload,
/// where a breakpoint evaluates about two of its ~100 switching cells and
/// replays the rest later. Two seeded transitions at CMOS, at the
/// solve's W/L (2947) and starved (W/L 10), and under a two-group
/// partition of different W/L, so the per-group calendar keys run side
/// by side: waveform and summary runs match the dense kernel on bits.
/// A `t_stop` cut and an overflow half-way through a run end identically
/// too, and the case set includes mid-swing reversals.
#[test]
fn mul16_runs_are_bit_identical_across_kernels() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/mul16.mtk");
    let text = std::fs::read_to_string(&path).expect("read examples/mul16.mtk");
    let design = parse_str(&text, "mul16.mtk").expect("mul16 parses");
    let (nl, tech) = (&design.netlist, &design.tech);
    let engine = Engine::new(nl, tech);
    let probes = nl.primary_outputs().to_vec();
    let inputs = nl.primary_inputs().len();
    let mut rng = Xoshiro256pp::seed_from_u64(0x1616);
    let mut side = || -> Vec<Logic> {
        (0..inputs)
            .map(|_| Logic::from_bool(rng.next_bool()))
            .collect()
    };
    let transitions: Vec<_> = (0..2).map(|_| (side(), side())).collect();
    let partition = PartitionedSleep {
        assignment: (0..nl.cells().len()).map(|c| c % 2).collect(),
        networks: vec![
            SleepNetwork::Transistor { w_over_l: 2947.0 },
            SleepNetwork::Transistor { w_over_l: 10.0 },
        ],
    };
    let cases = [
        ("CMOS", None, VbsimOptions::cmos()),
        ("W/L 2947", None, VbsimOptions::mtcmos(2947.0)),
        ("W/L 10", None, VbsimOptions::mtcmos(10.0)),
        ("partitioned", Some(&partition), VbsimOptions::default()),
    ];
    let dense_of = |opts: &VbsimOptions| VbsimOptions {
        kernel: VbsimKernel::DenseScan,
        ..opts.clone()
    };
    let mut scratch = VbsimScratch::new();
    let mut reversals = 0usize;
    for (what, part, opts) in &cases {
        for (i, (from, to)) in transitions.iter().enumerate() {
            let ctx = format!("mul16 {what} transition {i}");
            let dense = engine
                .run_partitioned(from, to, *part, &dense_of(opts))
                .expect("dense run");
            let event = engine
                .run_partitioned_with(from, to, *part, opts, &mut scratch)
                .expect("event run");
            assert_runs_identical(&dense, &event, &ctx);
            scratch.recycle(event);
            let summary = engine
                .run_summary_with(from, to, *part, &probes, opts, &mut scratch)
                .expect("summary run");
            assert_summary_matches(&dense, &summary, &probes, &format!("summary {ctx}"));
            assert!(dense.breakpoints > 1000, "{ctx}: {}", dense.breakpoints);
            reversals += dense.health.glitch_reversals;
        }
    }
    assert!(reversals > 0, "no mid-swing reversal in the mul16 cases");

    // Cut short half-way: by `t_stop`, and by the breakpoint budget.
    let (from, to) = &transitions[0];
    let opts = VbsimOptions::mtcmos(10.0);
    let full = engine
        .run(from, to, &dense_of(&opts))
        .expect("full dense run");
    let cut = VbsimOptions {
        t_stop: full.t_end / 2.0,
        ..opts.clone()
    };
    let dense = engine.run(from, to, &dense_of(&cut)).expect("dense cut");
    assert!(dense.truncated && dense.breakpoints > 100, "t_stop cut");
    let event = engine
        .run_with(from, to, &cut, &mut scratch)
        .expect("event cut");
    assert_runs_identical(&dense, &event, "mul16 t_stop cut");
    let summary = engine
        .run_summary_with(from, to, None, &probes, &cut, &mut scratch)
        .expect("summary cut");
    assert_summary_matches(&dense, &summary, &probes, "summary mul16 t_stop cut");
    let budget = VbsimOptions {
        max_events: full.breakpoints / 2,
        ..opts
    };
    let dense = outcome(engine.run(from, to, &dense_of(&budget)));
    assert!(
        matches!(dense, Err(ref e) if e.starts_with("EventOverflow")),
        "{dense:?}"
    );
    let event = outcome(engine.run_with(from, to, &budget, &mut scratch));
    assert_eq!(event.map(|_| ()), dense.clone().map(|_| ()), "overflow");
    let summary = outcome(engine.run_summary_with(from, to, None, &probes, &budget, &mut scratch));
    assert_eq!(summary.map(|_| ()), dense.map(|_| ()), "summary overflow");
}

/// A per-module sleep partition: the summary run matches the
/// partitioned waveform run under both kernels.
#[test]
fn partitioned_summary_matches_the_waveform_run() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&add.netlist, &tech);
    let partition = PartitionedSleep {
        assignment: (0..add.netlist.cells().len()).map(|c| c % 2).collect(),
        networks: vec![
            SleepNetwork::Transistor { w_over_l: 4.0 },
            SleepNetwork::Transistor { w_over_l: 12.0 },
        ],
    };
    let probes = add.netlist.primary_outputs().to_vec();
    let mut scratch = VbsimScratch::new();
    let mut bounced = 0usize;
    for kernel in [VbsimKernel::EventDriven, VbsimKernel::DenseScan] {
        let opts = VbsimOptions {
            kernel,
            ..VbsimOptions::default()
        };
        for (a0, b0, a1, b1) in [(0u64, 0u64, 7u64, 5u64), (3, 4, 1, 6), (7, 7, 0, 1)] {
            let (from, to) = (add.input_values(a0, b0), add.input_values(a1, b1));
            let run = engine
                .run_partitioned(&from, &to, Some(&partition), &opts)
                .expect("partitioned run");
            let summary = engine
                .run_summary_with(&from, &to, Some(&partition), &probes, &opts, &mut scratch)
                .expect("partitioned summary");
            let ctx = format!("{kernel:?} {a0}{b0}->{a1}{b1}");
            assert_summary_matches(&run, &summary, &probes, &ctx);
            bounced += usize::from(run.peak_vgnd() > 0.0);
        }
    }
    assert!(bounced > 0, "group 0 never bounced");
}

/// Failing runs fail identically through the summary recorder: the same
/// error value, and the same error when several apply at once.
#[test]
fn summary_errors_match_the_waveform_run() {
    let mult = ArrayMultiplier::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&mult.netlist, &tech);
    let probes = mult.netlist.primary_outputs().to_vec();
    let from = mult.input_values(0, 0);
    let to = mult.input_values(255, 255);
    let mut with_x = to.clone();
    with_x[3] = Logic::X;
    let short = &to[..to.len() - 1];
    let mtcmos = VbsimOptions::mtcmos(10.0);
    let cases: Vec<(&str, &[Logic], &[Logic], VbsimOptions)> = vec![
        (
            "event overflow",
            &from,
            &to,
            VbsimOptions {
                max_events: 5,
                ..mtcmos.clone()
            },
        ),
        (
            "bad t_stop",
            &from,
            &to,
            VbsimOptions {
                t_stop: f64::NAN,
                ..mtcmos.clone()
            },
        ),
        ("X input", &from, &with_x, mtcmos.clone()),
        ("X settled state", &with_x, &to, mtcmos.clone()),
        ("arity mismatch", &from, short, mtcmos.clone()),
        ("arity mismatch in from", short, &to, mtcmos.clone()),
        (
            "bad t_stop and X input",
            &from,
            &with_x,
            VbsimOptions {
                t_stop: -1.0,
                ..mtcmos.clone()
            },
        ),
        ("X input and arity mismatch", &with_x, short, mtcmos.clone()),
    ];
    let mut scratch = VbsimScratch::new();
    for (what, from, to, opts) in &cases {
        let mut seen = Vec::new();
        for kernel in [VbsimKernel::EventDriven, VbsimKernel::DenseScan] {
            let opts = VbsimOptions {
                kernel,
                ..opts.clone()
            };
            let run = outcome(engine.run(from, to, &opts));
            let summary =
                outcome(engine.run_summary_with(from, to, None, &probes, &opts, &mut scratch));
            let (Err(run_err), Err(summary_err)) = (&run, &summary) else {
                panic!("{what} ({kernel:?}): expected errors, got {run:?} / {summary:?}");
            };
            assert_eq!(summary_err, run_err, "{what} ({kernel:?})");
            seen.push(run_err.clone());
        }
        assert_eq!(seen[0], seen[1], "{what}: kernels disagree");
    }
    // The scratch survives failed runs: a healthy run afterwards matches.
    let run = engine.run(&from, &to, &mtcmos).expect("run");
    let summary = engine
        .run_summary_with(&from, &to, None, &probes, &mtcmos, &mut scratch)
        .expect("summary");
    assert_summary_matches(&run, &summary, &probes, "after errors");
}

/// End-to-end: the fault-tolerant parallel screener must produce a
/// byte-identical deterministic trace no matter which kernel runs the
/// legs and no matter the thread count — including under injected
/// panics, errors, and overflow retries.
#[test]
fn faulted_screen_trace_is_kernel_and_thread_invariant() {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .take(32)
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect();
    let faults = FaultPlan {
        panic_at: vec![3],
        error_at: vec![5],
        overflow_at: vec![7],
        persistent_overflow_at: vec![9],
        ..FaultPlan::default()
    };

    let trace_of = |kernel: VbsimKernel, threads: usize| -> String {
        let opts = VbsimOptions {
            kernel,
            ..VbsimOptions::default()
        };
        let (_screened, report) = screen_vectors_par_quarantined(
            &add.netlist,
            &tech,
            &transitions,
            None,
            10.0,
            &opts,
            threads,
            FailurePolicy::quarantine(8),
            &faults,
        )
        .expect("screen");
        let mut trace = TraceReport::new("vbsim_kernel_equivalence");
        trace.push_phase(report.to_phase("screen"));
        trace.to_json(TraceMode::Deterministic)
    };

    let reference = trace_of(VbsimKernel::DenseScan, 1);
    assert!(reference.contains("\"quarantined\": ["));
    for kernel in [VbsimKernel::DenseScan, VbsimKernel::EventDriven] {
        for threads in [1usize, 2, 8] {
            let got = trace_of(kernel, threads);
            assert_eq!(
                got, reference,
                "deterministic trace differs for {kernel:?} at threads={threads}"
            );
        }
    }
}
