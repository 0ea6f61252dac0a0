//! End-to-end and per-layer benchmark of the MTCMOS suite.
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Run from the checkout root. With `--workload`, one workload is set up
//! (several times, for `setup_s`), measured for `--seconds`, checked,
//! and reported; the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! same inputs run at one thread, untraced and traced in turn, the
//! traced wall is attributed to layers, every layer's entry points are
//! timed on their own, and the metrics are the per-layer ones. Without
//! `--workload`, every workload runs in a process of its own. The exit
//! code is 0 only when every operation succeeded and every output was
//! correct; usage errors exit 2.

mod attrib;
mod layers;
mod metrics;
mod run;
mod stats;
mod util;
mod workloads;

use attrib::{overhead_pct, Attribution};
use metrics::Metrics;
use run::{Ctx, Window};
use stats::{describe_ms, median, percentile};
use util::{peak_rss_mb, secs, ScratchDir};
use workloads::WORKLOADS;

/// Set-ups per run: at least `MIN_SETUPS`, more while the set-ups so far
/// took under `SETUP_BUDGET_S`, so a cheap set-up's median rests on many
/// samples. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;
/// Share of the traced wall above which the accounting gap is printed.
const GAP_PCT: f64 = 10.0;

struct Args {
    workload: Option<String>,
    ctx: Ctx,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
    );
    eprintln!("workloads: {}", WORKLOADS.join(", "));
    std::process::exit(2);
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        ctx: Ctx {
            seed: 1,
            seconds: 10.0,
            smoke: false,
        },
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.ctx.smoke = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--seed" => args.ctx.seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => {
                args.ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--workload" => bad(&flag, &value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if args.ctx.smoke {
        args.ctx.seconds = args.ctx.seconds.min(1.0);
    }
    args
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        Some(name) => match run_one(name, &args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                1
            }
        },
        None => run_all(),
    };
    std::process::exit(code);
}

/// Runs every workload in its own process with this process's flags.
fn run_all() -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut code = 0;
    for name in WORKLOADS {
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {name} exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {name}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Sets up, measures (or traces) and reports one workload; `Ok(true)`
/// when every operation succeeded and every output was correct.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let ctx = &args.ctx;
    let (min_setups, setup_budget_s) = if args.trace || ctx.smoke {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_BUDGET_S)
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    let t_setups = std::time::Instant::now();
    while setup_s.len() < min_setups
        || (secs(t_setups) < setup_budget_s && setup_s.len() < MAX_SETUPS)
    {
        // Drop the previous set-up (and its files) before the next.
        drop(state.take());
        let scratch = ScratchDir::new(name)?;
        let t0 = std::time::Instant::now();
        let w = workloads::setup(name, ctx, &scratch)?;
        setup_s.push(secs(t0));
        state = Some((w, scratch));
    }
    let (mut w, scratch) = state.expect("at least one set-up");
    let mut m = Metrics::default();
    let window = if args.trace {
        trace(name, ctx, w.as_mut(), &scratch, &mut m)?
    } else {
        let window = w.measure(ctx);
        m.set("setup_s", median(&setup_s));
        let mut sorted = window.op_s.clone();
        sorted.sort_by(f64::total_cmp);
        m.set("op_p25_ms", percentile(&sorted, 25.0) * 1e3);
        println!("{name}: {}", describe_ms("op latency", &window.op_s));
        println!(
            "{name}: {} ops in {:.3} s; set-up median {:.3} s of {}",
            window.op_s.len(),
            window.wall_s,
            median(&setup_s),
            setup_s.len()
        );
        window
    };
    drop(w);
    drop(scratch);
    if !args.trace {
        m.set("peak_rss_mb", peak_rss_mb());
    }
    for note in &window.notes {
        println!("{name}: {note}");
    }
    println!(
        "{}",
        m.result_line(
            args.trace,
            window.mismatches == 0,
            window.attempted,
            window.failed
        )?
    );
    Ok(window.failed == 0)
}

/// The `--trace 1` run: attribution of the traced composition, then the
/// per-layer probes.
fn trace(
    name: &str,
    ctx: &Ctx,
    w: &mut dyn workloads::Workload,
    scratch: &ScratchDir,
    m: &mut Metrics,
) -> Result<Window, String> {
    let mut run = w.trace(ctx);
    let a = Attribution::of(&run.roots);
    let overhead = overhead_pct(run.traced_s(), run.untraced_s);
    println!(
        "{name}: {} ops at 1 thread: untraced {:.3} s, traced {:.3} s (overhead {overhead:.2} %)",
        run.roots.len(),
        run.untraced_s,
        run.traced_s()
    );
    println!("{name}: layer self time, share of the untraced wall:");
    for (layer, s) in a.ranked() {
        println!(
            "{name}:   {layer:<28} {s:>10.4} s {:>7.2} %",
            100.0 * s / run.untraced_s
        );
    }
    let gap = a.unattributed_pct();
    println!(
        "{name}:   {:<28} {:>10.4} s {gap:>7.2} % of traced",
        "unattributed", a.unattributed_s
    );
    if gap > GAP_PCT {
        println!(
            "{name}: accounting gap: {gap:.2} % of the traced wall lies outside every layer span"
        );
    }
    m.set("trace.unattributed_pct", gap);
    m.set("trace.overhead_pct", overhead);
    let t0 = std::time::Instant::now();
    layers::probe(ctx, scratch, m, &mut run.window)?;
    println!("{name}: layer probes took {:.2} s", secs(t0));
    Ok(run.window)
}
