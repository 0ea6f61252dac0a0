//! The switch-level kernels' speed gate: the exhaustive 4096-vector
//! adder sweep of §6.2 and the multiplier scaling probes, written to and
//! gated against the committed `BENCH_speed.json`. The paper's CPU-time
//! ratio against SPICE is `mtk repro sec6-2`.
//!
//! Both switch-level kernels are measured: the legacy dense-scan kernel
//! and the event-driven kernel (the default), which must agree
//! bit-for-bit (`tests/vbsim_kernel_equivalence.rs`) while skipping the
//! dense kernel's whole-netlist scans, per-breakpoint equilibrium
//! re-solves, and per-run allocations.
//!
//! Every timing is median-of-N with warm-up runs excluded
//! ([`mtk_bench::timing::measure`]); earlier versions reported a single
//! cold wall-clock pass, which bundled one-time construction and cache
//! warm-up into the number.
//!
//! Two secondary workloads probe how the kernels scale with circuit
//! size and switching activity: the 8×8 array multiplier (384 cells)
//! under whole-vector transitions (glitch-heavy, most gates switch) and
//! under single-bit input toggles (small activity cone, the event
//! kernel's best case). The whole-vector sweep is also timed through
//! `Engine::run_summary_with` — the crossings-only recording every
//! sizing, screening, clustering and Monte Carlo leg uses — so the gap
//! between it and the waveform-recording event run is the cost of
//! building waveforms. A third probe times that summary path on the
//! 16×16 multiplier (1536 cells) at the W/L its sizing solve lands on:
//! 16 seeded transitions, the legs `size_for_target_cached` runs.
//!
//! Flags:
//!
//! * `--samples N` / `--warmup N` — timed / untimed sweep repetitions
//!   (default 5 / 1).
//! * `--json PATH` — write the measurements as a versioned
//!   `BENCH_speed.json` ([`mtk_bench::speedfile`]).
//! * `--check-against PATH` — load a committed baseline (before any
//!   timing, so a bad path fails at once) and exit 1 if any shared
//!   bench regressed beyond `--tolerance` (default 4.0×, generous
//!   because hosts differ) or the event-vs-dense speedup fell below
//!   `--min-speedup` (default 1.5 — a floor under the ~2–2.5× median
//!   this sweep actually measures; the kernels share the bit-pinned Vₓ
//!   solver and must emit identical waveforms, which bounds the gap on
//!   a 12-cell netlist — see the speed table notes in `EXPERIMENTS.md`).
//!
//! An unreadable or invalid baseline, an unwritable `--json` path, an
//! undeclared, repeated or malformed flag, or any positional exits 2
//! with an `error:` line.

use mtk_bench::cli::Kind::{Int, Num, Str};
use mtk_bench::cli::{die, Args, Flag};
use mtk_bench::report::print_table;
use mtk_bench::repro::adder_event_sweep;
use mtk_bench::speedfile::{check_regressions, SpeedFile};
use mtk_bench::timing::{human, measure};
use mtk_bench::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::multiplier::{ArrayMultiplier, MultiplierSpec};
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::vbsim::{Engine, VbsimKernel, VbsimOptions, VbsimScratch};
use mtk_netlist::logic::Logic;
use mtk_netlist::tech::Technology;
use mtk_num::prng::Xoshiro256pp;

/// Every flag this binary takes.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--samples", Int), ("--warmup", Int), ("--json", Str), ("--check-against", Str),
    ("--tolerance", Num), ("--min-speedup", Num),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse("speed_comparison", &argv, &[FLAGS]).unwrap_or_else(|e| die(e));
    args.at_most(0).unwrap_or_else(|e| die(e));
    let samples = args.int("--samples", 5);
    let warmup = args.int("--warmup", 1);
    let json_path = args.str("--json");
    let baseline = args.str("--check-against").map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("read baseline {path}: {e}")));
        let file =
            SpeedFile::parse(&text).unwrap_or_else(|e| die(format!("parse baseline {path}: {e}")));
        (path, file)
    });
    let tolerance = args.num("--tolerance", 4.0);
    let min_speedup = args.num("--min-speedup", 1.5);

    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&add.netlist, &tech);
    let all = exhaustive_transitions(6);
    let opts = VbsimOptions::mtcmos(10.0);
    let dense_opts = VbsimOptions {
        kernel: VbsimKernel::DenseScan,
        ..opts
    };

    println!("SPEED (§6.2): exhaustive 4096-vector sweep of the 3-bit adder");
    println!("median of {samples} samples after {warmup} warm-up run(s)\n");

    // Switch-level: the full sweep through each kernel. The event kernel
    // reuses one scratch across the whole sweep, which is exactly how the
    // sizing/search hot paths drive it.
    let mut total_breakpoints = 0usize;
    let mut scratch = VbsimScratch::new();
    let event = measure(warmup, samples, || {
        total_breakpoints = adder_event_sweep(&engine, &all, &opts, &mut scratch);
    });
    let dense = measure(warmup, samples, || {
        for pair in &all {
            let tr = transition_of(*pair, 6);
            engine
                .run(&tr.from, &tr.to, &dense_opts)
                .expect("vbsim dense run");
        }
    });
    let speedup = dense.median / event.median;

    // Scaling probes on the 8×8 array multiplier: 64 whole-vector
    // transitions (high activity) and 64 single-bit toggles (small
    // activity cone). The operand sequence is a fixed Weyl-style hash so
    // every host times the same work.
    let mult = ArrayMultiplier::paper();
    let meng = Engine::new(&mult.netlist, &tech);
    let mult_pairs: Vec<(u64, u64, u64, u64)> = (0..64u64)
        .map(|i| {
            let a = i.wrapping_mul(2_654_435_761) & 0xffff;
            let b = i.wrapping_mul(40_503).wrapping_add(12_345) & 0xffff;
            (a & 0xff, a >> 8, b & 0xff, b >> 8)
        })
        .collect();
    let bit_pairs: Vec<(u64, u64, u64, u64)> = (0..64u64)
        .map(|i| {
            let x = i.wrapping_mul(2_654_435_761) & 0xff;
            let y = i.wrapping_mul(40_503).wrapping_add(12_345) & 0xff;
            (x, y, x ^ (1 << (i % 8)), y)
        })
        .collect();
    let probes = mult.netlist.primary_outputs().to_vec();
    let mut time_mult = |pairs: &[(u64, u64, u64, u64)], how: MultRun| {
        measure(warmup, samples, || {
            for &(x0, y0, x1, y1) in pairs {
                let from = mult.input_values(x0, y0);
                let to = mult.input_values(x1, y1);
                match how {
                    MultRun::Dense => {
                        meng.run(&from, &to, &dense_opts).expect("mult dense run");
                    }
                    MultRun::Event => {
                        let run = meng
                            .run_with(&from, &to, &opts, &mut scratch)
                            .expect("mult event run");
                        scratch.recycle(run);
                    }
                    MultRun::Summary => {
                        meng.run_summary_with(&from, &to, None, &probes, &opts, &mut scratch)
                            .expect("mult summary run");
                    }
                }
            }
        })
    };
    let mult_event = time_mult(&mult_pairs, MultRun::Event);
    let mult_dense = time_mult(&mult_pairs, MultRun::Dense);
    let mult_summary = time_mult(&mult_pairs, MultRun::Summary);
    let bit_event = time_mult(&bit_pairs, MultRun::Event);
    let bit_dense = time_mult(&bit_pairs, MultRun::Dense);

    // The sizing legs' path on the 16×16 multiplier: 16 seeded
    // transitions, crossings only, at W/L 2947.
    let mul16 = ArrayMultiplier::new(&MultiplierSpec {
        bits: 16,
        ..MultiplierSpec::default()
    })
    .expect("16x16 multiplier");
    let tech03 = Technology::l03();
    let eng16 = Engine::new(&mul16.netlist, &tech03);
    let probes16 = mul16.netlist.primary_outputs().to_vec();
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut side = || -> Vec<Logic> {
        (0..mul16.netlist.primary_inputs().len())
            .map(|_| Logic::from_bool(rng.next_bool()))
            .collect()
    };
    let legs16: Vec<_> = (0..16).map(|_| (side(), side())).collect();
    let opts16 = VbsimOptions::mtcmos(2947.0);
    let mul16_summary = measure(warmup, samples, || {
        for (from, to) in &legs16 {
            eng16
                .run_summary_with(from, to, None, &probes16, &opts16, &mut scratch)
                .expect("mul16 summary run");
        }
    });

    let rows = vec![
        vec![
            "switch-level, event kernel (default)".into(),
            format!("{:.3} s", event.median),
            "13.5 s (Sparc 5)".into(),
        ],
        vec![
            "switch-level, dense-scan kernel".into(),
            format!("{:.3} s", dense.median),
            "13.5 s (Sparc 5)".into(),
        ],
        vec![
            "event-vs-dense speedup".into(),
            format!("{speedup:.1}x"),
            "-".into(),
        ],
        vec![
            "mult 8x8, 64 vectors: event / dense".into(),
            format!(
                "{:.3} s / {:.3} s ({:.1}x)",
                mult_event.median,
                mult_dense.median,
                mult_dense.median / mult_event.median
            ),
            "-".into(),
        ],
        vec![
            "mult 8x8, 64 vectors: crossings-only summary".into(),
            format!(
                "{:.3} s ({:.1}x the waveform event run)",
                mult_summary.median,
                mult_event.median / mult_summary.median
            ),
            "-".into(),
        ],
        vec![
            "mult 16x16, 16 vectors at W/L 2947: crossings-only summary".into(),
            format!("{:.3} s", mul16_summary.median),
            "-".into(),
        ],
        vec![
            "mult 8x8, 64 one-bit toggles: event / dense".into(),
            format!(
                "{:.3} s / {:.3} s ({:.1}x)",
                bit_event.median,
                bit_dense.median,
                bit_dense.median / bit_event.median
            ),
            "-".into(),
        ],
    ];
    print_table(
        "switch-level CPU time (medians)",
        &["engine", "this host", "paper"],
        &rows,
    );
    println!(
        "\nevent sweep processed {} breakpoints ({} per vector, {} per sweep min)",
        total_breakpoints,
        human(event.median / all.len() as f64),
        human(event.min),
    );

    // Machine-readable output + regression gate.
    let mut file = SpeedFile::new();
    file.push("adder4096_event", event);
    file.push("adder4096_dense", dense);
    file.push("mult8x8_64vec_event", mult_event);
    file.push("mult8x8_64vec_dense", mult_dense);
    file.push("mult8x8_64vec_summary", mult_summary);
    file.push("mult8x8_1bit_event", bit_event);
    file.push("mult8x8_1bit_dense", bit_dense);
    file.push("mult16x16_16vec_summary", mul16_summary);
    file.push_derived("event_vs_dense_speedup", speedup);
    if let Some(path) = &json_path {
        let text = file.to_json();
        SpeedFile::parse(&text).expect("self-written speed file must validate");
        std::fs::write(path, text).unwrap_or_else(|e| die(format!("write {path}: {e}")));
        println!("wrote {path}");
    }
    if let Some((path, baseline)) = &baseline {
        let violations = check_regressions(baseline, &file, tolerance, min_speedup);
        if violations.is_empty() {
            println!(
                "regression gate vs {path}: PASS (tolerance {tolerance}x, min speedup {min_speedup}x)"
            );
        } else {
            eprintln!("regression gate vs {path}: FAIL");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

/// How one multiplier sweep runs its transitions.
#[derive(Clone, Copy)]
enum MultRun {
    /// The dense-scan kernel, recording waveforms.
    Dense,
    /// The event kernel, recording waveforms (recycled into the scratch).
    Event,
    /// The event kernel through the crossings-only summary recorder.
    Summary,
}
