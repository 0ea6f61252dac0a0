//! `mtk` — the unified driver: run the sizing tool on `.mtk` netlists,
//! serve it, and reproduce the paper.
//!
//! The flow commands load a `.mtk` netlist file (grammar in DESIGN.md
//! §11) and route it through the same deterministic machinery as the
//! built-in generators, so an externally supplied circuit gets the exact
//! same flow — and, under `--trace-deterministic`, the byte-identical
//! JSON trace — as a programmatically built one.
//!
//! Usage: `mtk <command> <file.mtk> [flags]`
//!
//! * `mtk lint <file>` — parse and lint; findings one per line with the
//!   source line of the offending declaration. Exits 1 on findings
//!   (`--warn-only` downgrades to 0), 2 on parse errors.
//! * `mtk sta <file>` — static timing: critical-path delay and the path
//!   itself.
//! * `mtk screen <file>` — parallel switch-level screening of the
//!   vector space (`--threads`, `--w-over-l`, `--top`).
//! * `mtk size <file>` — bisect the sleep-transistor W/L to a target
//!   degradation (`--target`, `--lo`, `--hi`). With `--clusters N` the
//!   run routes through the cluster co-optimizer instead (same flags as
//!   `mtk cluster`).
//! * `mtk cluster <file>` — partition gates into mutually-exclusive
//!   clusters inferred from the vector set, give each cluster its own
//!   virtual-ground sleep device, and co-optimize the widths to the
//!   target (`--clusters`, `--target`, `--lo`, `--hi`, `--threads`,
//!   `--store`; `--smoke` thins the vector set for CI). The
//!   single-device solution is always computed too and returned when it
//!   uses no more total width (the never-worse rule).
//! * `mtk hybrid <file>` — screen, then SPICE-verify the top-k
//!   survivors (`--threads`, `--top-k`, `--w-over-l`).
//! * `mtk mc <file>` — Monte Carlo yield analysis under process
//!   variation (`--trials`, `--seed`, `--corner`, `--widths`,
//!   `--target`, `--store`; `--smoke` shrinks the sweep for CI). The
//!   technology's `tech.sigma_*` fields set the variation; trial `i`
//!   draws from PRNG stream `(seed, i)`, so results are bit-identical
//!   at any `--threads` and a `--store` rerun replays every trial.
//! * `mtk repro [--list | --all | <id>…] [--full]` — run the paper's
//!   tables and figures, the ablations and the extensions (the
//!   `mtk_bench::repro` ledger): each prints its tables, then a check
//!   table of the paper's claims against committed bands. Exits 1 on a
//!   `MISS`, or on a `PASS` of a check marked as a known defect; 2 on an
//!   unknown id. `--full`
//!   adds the long variants: Table 1 SPICE rows, every FIG14 S2 vector,
//!   all 4096 SEC6-2 SPICE runs, and the FIG5/FIG11 CSV series.
//! * `mtk gen [--list | --all [--dir D] | <stem>]` — export the
//!   built-in generators as golden `.mtk` files (the `examples/`
//!   directory; CI regenerates and diffs them).
//! * `mtk export <file.mtk>` — serialize the transistor-level expansion
//!   as a SPICE deck with embedded `* mtk:` hints (`--w-over-l`,
//!   `--cmos` for no footer, `--out PATH`). Importing the result
//!   reproduces the design byte-exactly.
//! * `mtk import <file.ckt>` — read a SPICE deck (subcircuits are
//!   flattened), recover the gate-level design by structural
//!   recognition, and print/write canonical `.mtk` (`--out PATH`,
//!   `--tech PRESET` for hint-less decks). When recognition fails the
//!   command reports the reason and — with `--raw PATH` — still runs a
//!   SPICE-only transient and writes the rawfile; otherwise exits 1.
//!
//! `sta`, `screen`, `size` and `hybrid` take `--raw PATH` / `--vcd
//! PATH` to export deterministic waveforms of the most interesting
//! vector (the worst-ranked one where a ranking exists): a binary SPICE
//! rawfile from a transistor-level transient, a VCD dump from the
//! switch-level run.
//!
//! Vector sourcing for `screen`/`size`/`hybrid`, in precedence order:
//! `vector` lines from the file; the exhaustive transition space when
//! the circuit has ≤ 6 primary inputs (subsample with `--stride N`);
//! otherwise a seeded random sample (`--samples N`, default 256 —
//! sample i comes from PRNG stream (seed, i), so the set is identical
//! at any thread count).
//!
//! All commands lint on load: findings are printed to stderr as
//! warnings (only `lint` turns them into an exit code). Parse errors
//! print a `file:line:col: error[E0xx]` diagnostic and exit 2 — never a
//! panic. The flow commands take `--max-failures N` / `--fail-fast` and
//! `--trace-json PATH` / `--trace-deterministic` (DESIGN.md §10).
//! `screen`, `size`, `cluster` and `hybrid` exit 2 on a `--flag` they do
//! not declare, naming it.

use mtk_bench::cli::{
    bool_flag, die, emit_trace, f64_flag, flag, reject_unknown_flags, str_flag, threads_label,
    trace_config,
};
use mtk_bench::design_transitions;
use mtk_bench::job::{Job, JobKind, JobOpts, JobOutput};
use mtk_bench::report::{ns, pct, print_table, verified_cell};
use mtk_bench::repro::{self, Ctx, EXPERIMENTS};
use mtk_bench::serve::{self, ServeConfig, Server};
use mtk_circuits::golden::{generator_catalog, golden_designs};
use mtk_core::health::FaultPlan;
use mtk_core::hybrid::SpiceRunConfig;
use mtk_core::mc::{run_mc, McOptions};
use mtk_core::sizing::{ScreeningCache, Transition};
use mtk_core::sta::Sta;
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_fe::interop::{export_deck, import_deck, Imported};
use mtk_fe::Design;
use mtk_store::Store;
use mtk_trace::{CounterId, PhaseTrace, SpanRecorder, TraceReport};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mtk <lint|sta|screen|size|cluster|hybrid|mc|export> <file.mtk> [flags]\n\
         \x20      mtk import <file.ckt> [--out F] [--tech PRESET] [--raw F]\n\
         \x20      mtk gen [--list | --all [--dir D] | <stem>]\n\
         \x20      mtk repro [--list | --all | <id>...] [--full]\n\
         \x20      mtk serve [--addr H:P] [--store PATH] [--threads N] [--job-slots N]\n\
         \x20      mtk client <host:port> <status|shutdown|import|screen|size|cluster|hybrid> [file] [flags]\n\
         run `mtk` on a .mtk netlist; grammar and flags in DESIGN.md §11, protocol in §13"
    );
    std::process::exit(2);
}

/// A `--w-over-l` sleep size, held to the core screen's rule: one that
/// is not finite and positive is a usage error.
fn positive_w_over_l(w_over_l: f64) -> f64 {
    if w_over_l.is_finite() && w_over_l > 0.0 {
        w_over_l
    } else {
        die(format!(
            "--w-over-l: sleep W/L must be finite and positive, got {w_over_l}"
        ))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // A `--trace-json` with no path is a usage error before any work runs.
    str_flag("--trace-json");
    let cmd = args.get(1).map(String::as_str).unwrap_or("");
    if cmd == "gen" {
        return cmd_gen(&args[2..]);
    }
    if cmd == "repro" {
        return cmd_repro(&args[2..]);
    }
    if cmd == "serve" {
        return cmd_serve();
    }
    if cmd == "client" {
        return cmd_client(&args[2..]);
    }
    if cmd == "import" {
        return cmd_import(&args[2..]);
    }
    let path = match args.get(2) {
        Some(p) if !p.starts_with("--") => p.clone(),
        _ => usage(),
    };
    let design = load(&path);
    match cmd {
        "lint" => cmd_lint(&design),
        "sta" => cmd_sta(&design),
        "mc" => cmd_mc(&design),
        "export" => cmd_export(&design),
        _ => match JobKind::parse(cmd) {
            Some(kind) => cmd_job(kind, design),
            None => usage(),
        },
    }
}

/// Reads and parses a `.mtk` file; any failure is a diagnostic on
/// stderr and exit 2, never a panic.
fn load(path: &str) -> Design {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => die(format!("{path}: {e}")),
    };
    match mtk_fe::parse_str(&src, path) {
        Ok(d) => d,
        Err(e) => die(e),
    }
}

/// Lint-on-load for the flow commands: findings go to stderr as
/// warnings, the run continues.
fn warn_lint(design: &Design) {
    for line in design.render_lint(&design.lint()) {
        eprintln!("{line}");
    }
}

fn cmd_lint(design: &Design) {
    let issues = design.lint();
    for line in design.render_lint(&issues) {
        println!("{line}");
    }
    if issues.is_empty() {
        println!(
            "{}: clean ({} cells, {} nets)",
            design.source.file,
            design.netlist.cells().len(),
            design.netlist.nets().len()
        );
    } else if !bool_flag("--warn-only") {
        std::process::exit(1);
    }
}

fn cmd_sta(design: &Design) {
    warn_lint(design);
    let sta = match Sta::analyze(&design.netlist, &design.tech) {
        Ok(s) => s,
        Err(e) => die(e),
    };
    println!(
        "STA of {} ({}): critical delay {}",
        design.netlist.name(),
        design.tech.name,
        ns(sta.critical_delay())
    );
    print_table(
        "critical path (inputs toward the latest net)",
        &["cell", "kind", "output", "arrival"],
        &sta.critical_path()
            .iter()
            .map(|&cid| {
                let cell = design.netlist.cell(cid);
                vec![
                    cell.name.clone(),
                    cell.kind.name().to_string(),
                    design.netlist.net(cell.output).name.clone(),
                    ns(sta.arrival[cell.output.index()]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if str_flag("--raw").is_some() || str_flag("--vcd").is_some() {
        // The vector sourcing and sleep size of a screen job.
        let o = JobOpts::from_flags(JobOpts::default());
        let (transitions, _) = design_transitions(design, o.stride, o.samples);
        export_waves(
            design,
            transitions.first(),
            Some(positive_w_over_l(o.w_over_l)),
        );
    }
}

/// Handles `--raw PATH` / `--vcd PATH` on the flow commands: one
/// deterministic waveform export of the given transition — a binary
/// rawfile from a transistor-level transient, a VCD dump from a
/// switch-level run. Returns `(raw points, vcd changes)` written, for
/// the trace counters.
fn export_waves(design: &Design, tr: Option<&Transition>, w_over_l: Option<f64>) -> (u64, u64) {
    let raw_path = str_flag("--raw");
    let vcd_path = str_flag("--vcd");
    if raw_path.is_none() && vcd_path.is_none() {
        return (0, 0);
    }
    let Some(tr) = tr else {
        eprintln!("warning: no transition to export waveforms for");
        return (0, 0);
    };
    let mut raw_points = 0u64;
    let mut vcd_changes = 0u64;
    if let Some(path) = raw_path {
        let cfg = SpiceRunConfig::window(f64_flag("--t-stop", 80e-9));
        let raw = match mtk_bench::wave::raw_from_transition(design, tr, w_over_l, &cfg) {
            Ok(r) => r,
            Err(e) => die(format!("--raw: {e}")),
        };
        let bytes = match raw.to_bytes() {
            Ok(b) => b,
            Err(e) => die(format!("--raw: {e}")),
        };
        if let Err(e) = std::fs::write(&path, &bytes) {
            die(format!("--raw {path}: {e}"));
        }
        raw_points = raw.points() as u64;
        println!(
            "wrote {path}: {} variable(s), {} point(s)",
            raw.variables.len(),
            raw.points()
        );
    }
    if let Some(path) = vcd_path {
        let opts = match w_over_l {
            Some(w) => VbsimOptions::mtcmos(w),
            None => VbsimOptions::cmos(),
        };
        let engine = Engine::new(&design.netlist, &design.tech);
        let run = match engine.run(&tr.from, &tr.to, &opts) {
            Ok(r) => r,
            Err(e) => die(format!("--vcd: {e}")),
        };
        let vcd = mtk_bench::wave::vcd_from_run(design, &run);
        let text = match vcd.render() {
            Ok(t) => t,
            Err(e) => die(format!("--vcd: {e}")),
        };
        if let Err(e) = std::fs::write(&path, text) {
            die(format!("--vcd {path}: {e}"));
        }
        vcd_changes = (vcd.initial.len() + vcd.changes.len()) as u64;
        println!(
            "wrote {path}: {} signal(s), {vcd_changes} change(s)",
            vcd.signals.len()
        );
    }
    (raw_points, vcd_changes)
}

/// Adds the waveform-export counters to a trace phase.
fn count_waves(phase: &mut PhaseTrace, raw_points: u64, vcd_changes: u64) {
    phase.counters.add(CounterId::WaveRawPoints, raw_points);
    phase.counters.add(CounterId::WaveVcdChanges, vcd_changes);
}

/// Opens `--store PATH` for the commands that write through it; an
/// unopenable store is a diagnostic and exit 2.
fn open_store() -> Option<Store> {
    str_flag("--store").map(|path| match Store::open(&path) {
        Ok(s) => s,
        Err(e) => die(format!("--store {path}: {e}")),
    })
}

/// The flags every job command takes besides [`JobOpts::flag_names`]:
/// the trace export and the waveform export.
const JOB_FLAGS: [&str; 5] = [
    "--trace-json",
    "--trace-deterministic",
    "--raw",
    "--vcd",
    "--t-stop",
];

/// The flags of the job commands that run cluster or size jobs (`size`,
/// `cluster`, and `hybrid`, whose `--clusters` composes a cluster job):
/// the store and the cluster smoke.
const STORE_FLAGS: [&str; 2] = ["--store", "--smoke"];

/// `mtk screen|size|cluster|hybrid`: one [`Job`] from the flags (the
/// same one `mtk client` sends and `mtk serve` runs), rendered as text
/// plus the §10 footer/JSON. `hybrid --clusters N` is composed as a
/// cluster job, then a hybrid job at the clustered total width — a
/// conservative lumping (one device of equal width sinks at least the
/// current of the split devices), so the verification stays meaningful
/// without teaching the SPICE netlister about partitions.
fn cmd_job(kind: JobKind, design: Design) {
    let mut known = JobOpts::flag_names();
    known.extend(JOB_FLAGS.map(String::from));
    if kind != JobKind::Screen {
        known.extend(STORE_FLAGS.map(String::from));
    }
    reject_unknown_flags(&format!("mtk {}", kind.name()), &known);
    warn_lint(&design);
    let mut job = Job::from_flags(kind, design);
    let mut spans = SpanRecorder::new(trace_config().spans);
    let mut cluster_phases = Vec::new();
    if job.kind == JobKind::Hybrid && str_flag("--clusters").is_some() {
        let cluster = Job::from_flags(JobKind::Cluster, job.design().clone());
        let (out, _) = run_job(&cluster, &mut spans);
        if let JobOutput::Cluster { sizing, .. } = &out {
            let total = sizing.total_width();
            println!("hybrid verifies at the clustered total W/L = {total:.2}");
            job.opts.w_over_l = total;
        }
        cluster_phases = out.trace().phases;
    }
    let (out, transitions) = run_job(&job, &mut spans);
    let (design, o) = (job.design(), &job.opts);
    let mut trace = out.trace();
    match &out {
        JobOutput::Screen {
            screened, report, ..
        } => {
            println!(
                "screened {} transition(s) in {:.2} s wall; {} switch an output",
                transitions.len(),
                report.wall,
                screened.len()
            );
            print_table(
                &format!(
                    "worst {} of the screened ranking",
                    o.top.min(screened.len())
                ),
                &["rank", "vector", "degradation"],
                &screened
                    .iter()
                    .take(o.top)
                    .enumerate()
                    .map(|(k, e)| {
                        vec![
                            format!("{}", k + 1),
                            format!("#{}", e.index),
                            pct(e.delays.degradation()),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
            let worst = screened.first().map(|e| &transitions[e.index]);
            let (rp, vc) = export_waves(design, worst.or(transitions.first()), Some(o.w_over_l));
            count_waves(&mut trace.phases[0], rp, vc);
        }
        JobOutput::Size { w_over_l, .. } => {
            let (rp, vc) = export_waves(design, transitions.first(), Some(*w_over_l));
            count_waves(&mut trace.phases[0], rp, vc);
        }
        JobOutput::Cluster { sizing, report } => {
            print_table(
                "per-cluster sleep devices of the returned solution",
                &["cluster", "W/L"],
                &sizing
                    .w_over_ls
                    .iter()
                    .enumerate()
                    .map(|(g, wl)| vec![format!("{g}"), format!("{wl:.2}")])
                    .collect::<Vec<_>>(),
            );
            let single = sizing
                .single_w_over_l
                .map_or("infeasible".to_string(), |w| format!("{w:.2}"));
            println!(
                "clustered total W/L = {:.2} over {} transition(s); single-device W/L = {single}; returned the {} solution ({:.2} s wall)",
                sizing.clustered_width(),
                transitions.len(),
                if sizing.fell_back { "single-device" } else { "clustered" },
                report.wall
            );
        }
        JobOutput::Hybrid(report) => {
            println!(
                "screened {} transition(s) ({} switch an output) in {:.2} s; verified {} in {:.2} s",
                transitions.len(),
                report.survivors,
                report.screen_wall,
                report.findings.len(),
                report.verify_wall
            );
            print_table(
                "screened top-k, SPICE-verified",
                &["rank", "vector", "simulator degr", "SPICE degr", "delta"],
                &report
                    .findings
                    .iter()
                    .enumerate()
                    .map(|(k, f)| {
                        vec![
                            format!("{}", k + 1),
                            format!("#{}", f.index),
                            pct(f.screened.degradation()),
                            verified_cell(report, k),
                            f.delta.map_or("-".to_string(), pct),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
            let worst = report.findings.first().map(|f| &transitions[f.index]);
            let (rp, vc) = export_waves(design, worst.or(transitions.first()), Some(o.w_over_l));
            if rp + vc > 0 {
                let mut phase = PhaseTrace::new("wave");
                count_waves(&mut phase, rp, vc);
                trace.push_phase(phase);
            }
        }
    }
    trace.phases.extend(cluster_phases);
    trace.spans = spans.finish();
    emit_trace(&trace);
}

/// Prints a job's header, runs it inside a wall-clock span named after
/// its kind (a failed run is a diagnostic and exit 2), and prints what
/// the run reports before any table: the size result, the partition, and
/// the `--store` traffic. Returns the output and the job's transitions.
fn run_job(job: &Job, spans: &mut SpanRecorder) -> (JobOutput, Vec<Transition>) {
    let (design, o) = (job.design(), &job.opts);
    let (name, tech) = (design.netlist.name(), &design.tech.name);
    let (transitions, label) = job.transitions();
    let threads = threads_label(o.threads);
    match job.kind {
        JobKind::Screen => println!(
            "mtk screen: {name} under {tech} — {label}, sleep W/L={}, {threads} thread(s)",
            o.w_over_l
        ),
        JobKind::Size => println!(
            "mtk size: {name} under {tech} — bisect sleep W/L in [{}, {}] to ≤{} degradation over {label}",
            o.lo,
            o.hi,
            pct(o.target)
        ),
        JobKind::Cluster => println!(
            "mtk cluster: {name} under {tech} — ≤{} cluster(s) over {label}, target {}, W/L in [{}, {}], {threads} thread(s)",
            o.clusters,
            pct(o.target),
            o.lo,
            o.hi
        ),
        JobKind::Hybrid => println!(
            "mtk hybrid: {name} under {tech} — screen {label}, SPICE-verify the top {}, {threads} thread(s)",
            o.top_k
        ),
    }
    // `--store PATH` makes warm reruns free across processes: a size job
    // writes every simulated leg through to the crash-safe log, a cluster
    // job every evaluation, and a later run replays them bit-identically.
    let store = matches!(job.kind, JobKind::Size | JobKind::Cluster)
        .then(open_store)
        .flatten();
    let cache = store.map_or_else(ScreeningCache::new, ScreeningCache::with_store);
    let out = match spans.time(job.kind.name(), || job.run(&cache)) {
        Ok(out) => out,
        Err(e) => die(e),
    };
    match &out {
        JobOutput::Size { w_over_l, wall, .. } => {
            println!("sleep transistor W/L = {w_over_l:.2} ({wall:.2} s wall)");
            if cache.store().is_some() {
                let snap = cache.snapshot();
                println!(
                    "store: {} leg(s) replayed, {} simulated and written through",
                    snap.store_hits, snap.misses
                );
            }
        }
        JobOutput::Cluster { report, .. } => {
            println!(
                "partitioned {} cell(s) into {} cluster(s) ({} conflict edge(s), {} cell(s) folded by the cap)",
                design.netlist.cells().len(),
                report.n_clusters,
                report.conflict_edges,
                report.folded
            );
            if cache.store().is_some() {
                println!(
                    "store: {} evaluation(s) replayed, {} simulated and written through",
                    report.health.runs.cache_hits, report.health.runs.cache_misses
                );
            }
        }
        JobOutput::Screen { .. } | JobOutput::Hybrid(_) => {}
    }
    (out, transitions)
}

/// `mtk mc`: Monte Carlo yield analysis under process variation. The
/// sweep is deterministic per `(design, seed, flags)` at any thread
/// count; `--store PATH` writes every simulated trial through to the
/// crash-safe log so a warm rerun replays the whole sweep without
/// touching the simulator.
fn cmd_mc(design: &Design) {
    warn_lint(design);
    let smoke = bool_flag("--smoke");
    let trials = flag("--trials", if smoke { 64 } else { 256 });
    // The job options mc shares (`--threads`, `--w-over-l`, `--target`,
    // `--stride`, `--samples`, the failure policy); `--smoke` thins the
    // exhaustive transition space so the CI sweep stays fast, and an
    // explicit `--stride` still wins.
    let mut defaults = JobOpts::default();
    if smoke {
        defaults.stride = 256;
    }
    let o = JobOpts::from_flags(defaults);
    let (threads, w_over_l, target) = (o.threads, o.w_over_l, o.target);
    let widths: Vec<f64> = match str_flag("--widths") {
        Some(list) => list
            .split(',')
            .map(|w| match w.trim().parse::<f64>() {
                Ok(v) => v,
                Err(_) => die(format!("--widths: `{w}` is not a number")),
            })
            .collect(),
        None => vec![5.0, 10.0, 20.0, 40.0],
    };
    let corner = str_flag("--corner");
    let mut tech = match &corner {
        Some(name) => match design.tech.at_corner(name) {
            Some(t) => t,
            None => die(format!(
                "--corner: unknown corner `{name}` (available: {})",
                mtk_netlist::tech::Technology::corner_names().join(", ")
            )),
        },
        None => design.tech.clone(),
    };
    // The design's `tech.sigma_*` fields set the variation; these flags
    // override them for what-if sweeps without editing the file.
    tech.sigma_vt = f64_flag("--sigma-vt", tech.sigma_vt);
    tech.sigma_kp = f64_flag("--sigma-kp", tech.sigma_kp);
    tech.sigma_w = f64_flag("--sigma-w", tech.sigma_w);
    let (transitions, label) = design_transitions(design, o.stride, o.samples);
    let opts = McOptions {
        trials,
        seed: flag("--seed", 0x4D43) as u64,
        w_over_l,
        widths,
        target,
        threads,
        policy: o.policy,
        base: VbsimOptions::default(),
    };
    println!(
        "mtk mc: {} under {}{} — {trials} trial(s) over {label}, nominal W/L={w_over_l}, target {}, {} thread(s)",
        design.netlist.name(),
        tech.name,
        corner.map(|c| format!(" at corner {c}")).unwrap_or_default(),
        pct(target),
        threads_label(threads)
    );
    let store = open_store();
    let mut spans = SpanRecorder::new(trace_config().spans);
    let report = spans.time("mc", || {
        run_mc(
            &design.netlist,
            &tech,
            &transitions,
            None,
            &opts,
            store.as_ref(),
            &FaultPlan::none(),
        )
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => die(e),
    };
    println!(
        "{} of {} trial(s) within target at W/L={w_over_l} ({:.2} s wall); degradation p50/p95/p99 = {}/{}/{} bp, bounce p99 = {} uV",
        report.passed(),
        report.completed().count(),
        report.wall,
        report.degradation_percentile_bp(50.0),
        report.degradation_percentile_bp(95.0),
        report.degradation_percentile_bp(99.0),
        report.bounce_percentile_uv(99.0),
    );
    print_table(
        "yield vs sleep width",
        &["W/L", "pass rate"],
        &report
            .yield_curve()
            .iter()
            .map(|&(w, y)| vec![format!("{w}"), pct(y)])
            .collect::<Vec<_>>(),
    );
    if store.is_some() {
        println!(
            "store: {} trial(s) replayed, {} simulated and written through",
            report.store_hits(),
            report.store_misses()
        );
    }
    let mut trace = TraceReport::new("mtk_mc");
    trace.push_phase(report.to_phase("mc"));
    trace.spans = spans.finish();
    emit_trace(&trace);
}

/// `mtk gen`: serialize the golden designs. `--list` prints the stems,
/// `--all` writes `<dir>/<stem>.mtk` for every design (`--dir`,
/// default `examples`), a bare stem prints that design to stdout.
fn cmd_gen(rest: &[String]) {
    let designs = golden_designs();
    if bool_flag("--list") {
        // The stems and descriptions come from `generator_catalog`, the
        // same single source DESIGN.md §5 renders — a drift-guard test
        // pins it against `golden_designs`.
        for (stem, desc) in generator_catalog() {
            println!("{stem:<12} {desc}");
        }
        return;
    }
    if bool_flag("--all") {
        let dir = str_flag("--dir").unwrap_or_else(|| "examples".to_string());
        if let Err(e) = std::fs::create_dir_all(&dir) {
            die(format!("{dir}: {e}"));
        }
        for (stem, design) in &designs {
            let path = format!("{dir}/{stem}.mtk");
            if let Err(e) = std::fs::write(&path, design.to_mtk()) {
                die(format!("{path}: {e}"));
            }
            println!("wrote {path}");
        }
        return;
    }
    let stem = match rest.iter().find(|a| !a.starts_with("--")) {
        Some(s) => s.as_str(),
        None => usage(),
    };
    match designs.iter().find(|(s, _)| *s == stem) {
        Some((_, design)) => print!("{}", design.to_mtk()),
        None => {
            let stems: Vec<&str> = designs.iter().map(|(s, _)| *s).collect();
            die(format!(
                "unknown golden design `{stem}` (available: {})",
                stems.join(", ")
            ));
        }
    }
}

/// `mtk repro`: run the chosen experiments (`--all`, or ids in order),
/// printing each one's tables as it finishes, then one check table.
/// Exits 1 when any check fails the run, 2 on an unknown id.
fn cmd_repro(rest: &[String]) {
    if bool_flag("--list") {
        for e in EXPERIMENTS {
            println!("{:<12} {}", e.id, e.paper_section);
        }
        return;
    }
    let unknown = |id| {
        die(format!(
            "unknown experiment `{id}` (see `mtk repro --list`)"
        ))
    };
    let ids = rest.iter().filter(|a| !a.starts_with("--"));
    let chosen: Vec<&repro::Experiment> = if bool_flag("--all") {
        EXPERIMENTS.iter().collect()
    } else {
        ids.map(|id| repro::find(id).unwrap_or_else(|| unknown(id)))
            .collect()
    };
    if chosen.is_empty() {
        usage();
    }
    let ctx = Ctx::new(bool_flag("--full"));
    let mut checks = Vec::new();
    for e in chosen {
        let out = (e.run)(&ctx);
        println!("{}", out.text);
        checks.extend(out.checks.into_iter().map(|c| (e.id, c)));
    }
    print!("{}", repro::render_checks(&checks));
    if checks.iter().any(|(_, c)| c.fails_run()) {
        std::process::exit(1);
    }
}

/// `mtk export`: serialize the transistor-level expansion of a `.mtk`
/// design as a SPICE deck with embedded `* mtk:` hint comments, so the
/// deck re-imports byte-exactly (`mtk import` reproduces the canonical
/// `.mtk`). `--w-over-l` sizes the footer, `--cmos` omits it, `--out`
/// writes a file instead of stdout.
fn cmd_export(design: &Design) {
    warn_lint(design);
    let sleep = if bool_flag("--cmos") {
        None
    } else {
        Some(positive_w_over_l(f64_flag(
            "--w-over-l",
            JobOpts::default().w_over_l,
        )))
    };
    let deck = match export_deck(design, sleep) {
        Ok(d) => d,
        Err(e) => die(e),
    };
    match str_flag("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &deck) {
                die(format!("--out {path}: {e}"));
            }
            println!("wrote {path}: {} line(s)", deck.lines().count());
        }
        None => print!("{deck}"),
    }
}

/// `mtk import`: parse a SPICE deck (flattening subcircuits), recover
/// the gate-level design by structural recognition, and emit canonical
/// `.mtk`. Falls back to SPICE-only analysis when recognition fails:
/// the reason is reported, `--raw PATH` still runs a transient on the
/// raw circuit and writes the rawfile, and without `--raw` the exit
/// code is 1.
fn cmd_import(rest: &[String]) {
    let path = match rest.first() {
        Some(p) if !p.starts_with("--") => p.clone(),
        _ => usage(),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => die(format!("{path}: {e}")),
    };
    let name = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("imported")
        .to_string();
    let tech_name = str_flag("--tech").unwrap_or_else(|| "l07".to_string());
    let tech = match mtk_netlist::tech::Technology::preset(&tech_name) {
        Some(t) => t,
        None => die(format!("--tech: unknown preset `{tech_name}`")),
    };
    let imported = match import_deck(&text, &name, &tech) {
        Ok(i) => i,
        Err(e) => die(e),
    };
    let stats = imported.stats().clone();
    let mut trace = TraceReport::new("mtk_import");
    let mut phase = PhaseTrace::new("import");
    phase
        .counters
        .add(CounterId::ImportCards, stats.deck.cards as u64);
    phase.counters.add(
        CounterId::ImportSubcktsFlattened,
        stats.deck.instances_flattened as u64,
    );
    phase.counters.add(
        CounterId::ImportGatesRecognized,
        stats.cells_recognized as u64,
    );
    phase
        .counters
        .add(CounterId::ImportFallbacks, stats.fallback as u64);
    match imported {
        Imported::Design {
            design,
            sleep_w_over_l,
            ..
        } => {
            eprintln!(
                "{path}: {} card(s), {} subckt instance(s) flattened (depth {}), {} gate(s) recognized{}",
                stats.deck.cards,
                stats.deck.instances_flattened,
                stats.deck.max_instance_depth,
                stats.cells_recognized,
                sleep_w_over_l
                    .map(|w| format!(", sleep W/L={w}"))
                    .unwrap_or_default()
            );
            let mtk = design.to_mtk();
            match str_flag("--out") {
                Some(out) => {
                    if let Err(e) = std::fs::write(&out, &mtk) {
                        die(format!("--out {out}: {e}"));
                    }
                    println!("wrote {out}: {} line(s)", mtk.lines().count());
                }
                None => print!("{mtk}"),
            }
            trace.push_phase(phase);
            emit_trace(&trace);
        }
        Imported::SpiceOnly {
            circuit, reason, ..
        } => {
            eprintln!("{path}: gate recognition failed ({reason}); SPICE-only analysis available");
            let raw_path = str_flag("--raw");
            let fell_through = raw_path.is_none();
            if let Some(out) = raw_path {
                let opts = mtk_spice::tran::TranOptions::to(f64_flag("--t-stop", 80e-9));
                let result = match mtk_spice::tran::transient(&circuit, &opts) {
                    Ok(r) => r,
                    Err(e) => die(format!("--raw: {e}")),
                };
                let raw = mtk_bench::wave::raw_from_tran(&result, &name);
                phase
                    .counters
                    .add(CounterId::WaveRawPoints, raw.points() as u64);
                let bytes = match raw.to_bytes() {
                    Ok(b) => b,
                    Err(e) => die(format!("--raw: {e}")),
                };
                if let Err(e) = std::fs::write(&out, &bytes) {
                    die(format!("--raw {out}: {e}"));
                }
                println!(
                    "wrote {out}: {} variable(s), {} point(s)",
                    raw.variables.len(),
                    raw.points()
                );
            }
            trace.push_phase(phase);
            emit_trace(&trace);
            if fell_through {
                std::process::exit(1);
            }
        }
    }
}

/// Drain flag set by the SIGTERM handler; polled by a watcher thread
/// (the handler itself must stay async-signal-safe: one atomic store).
static TERM_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Installs the SIGTERM handler via the libc `signal(2)` symbol (std
/// links libc on every supported platform; no crate dependency).
fn install_sigterm() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

/// `mtk serve`: bind, print the bound address (port 0 picks an
/// ephemeral one), accept until SIGTERM or a `shutdown` request, drain
/// in-flight work, exit 0. Protocol and hardening contract in
/// DESIGN.md §13.
fn cmd_serve() {
    let cfg = ServeConfig {
        addr: str_flag("--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        threads: flag("--threads", 1),
        job_slots: flag("--job-slots", 2).max(1),
        read_timeout: Duration::from_millis(flag("--read-timeout-ms", 5000) as u64),
        write_timeout: Duration::from_millis(flag("--write-timeout-ms", 5000) as u64),
        max_request_bytes: flag("--max-request-bytes", 8 * 1024 * 1024),
        store_path: str_flag("--store").map(std::path::PathBuf::from),
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => die(e),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => die(e),
    };
    install_sigterm();
    let state = server.state();
    {
        let state = std::sync::Arc::clone(&state);
        std::thread::spawn(move || loop {
            if TERM_REQUESTED.load(std::sync::atomic::Ordering::Relaxed) {
                state.request_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        });
    }
    println!("mtk serve: listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        die(e);
    }
    let counters = state.counter_snapshot();
    println!(
        "mtk serve: drained ({} store hit(s), {} store miss(es), {} rejected, {} conn timeout(s))",
        counters.get(mtk_trace::CounterId::StoreHits),
        counters.get(mtk_trace::CounterId::StoreMisses),
        counters.get(mtk_trace::CounterId::RequestsRejected),
        counters.get(mtk_trace::CounterId::ConnTimeouts),
    );
}

/// `mtk client <host:port> <status|shutdown|screen|size|cluster|hybrid>
/// [file.mtk] [flags]`: builds the request line (job designs are sent
/// in canonical `.mtk` form so identical circuits dedup server-side),
/// prints the response line, exits 0 on `ok`, 3 on `busy`, 1 on
/// `error`, 2 on transport failures.
fn cmd_client(rest: &[String]) {
    let addr = match rest.first() {
        Some(a) if !a.starts_with("--") => a.clone(),
        _ => usage(),
    };
    let cmd = match rest.get(1) {
        Some(c) if !c.starts_with("--") => c.as_str(),
        _ => usage(),
    };
    let line = match cmd {
        "status" | "shutdown" => format!("{{\"cmd\":\"{cmd}\"}}"),
        "import" => {
            let path = match rest.get(2) {
                Some(p) if !p.starts_with("--") => p,
                _ => usage(),
            };
            let deck = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => die(format!("{path}: {e}")),
            };
            mtk_trace::json::JsonValue::Object(vec![
                (
                    "cmd".to_string(),
                    mtk_trace::json::JsonValue::String("import".to_string()),
                ),
                ("deck".to_string(), mtk_trace::json::JsonValue::String(deck)),
            ])
            .to_compact()
        }
        cmd => match JobKind::parse(cmd) {
            Some(kind) => {
                let path = match rest.get(2) {
                    Some(p) if !p.starts_with("--") => p,
                    _ => usage(),
                };
                Job::from_flags(kind, load(path)).to_request()
            }
            None => usage(),
        },
    };
    let timeout = Duration::from_millis(flag("--timeout-ms", 120_000) as u64);
    let response = match serve::request(&addr, &line, timeout) {
        Ok(r) => r,
        Err(e) => die(format!("{addr}: {e}")),
    };
    println!("{response}");
    let status = mtk_trace::json::parse(&response)
        .ok()
        .and_then(|v| v.get("status").and_then(|s| s.as_str().map(String::from)))
        .unwrap_or_default();
    match status.as_str() {
        "ok" => {}
        "busy" => std::process::exit(3),
        _ => std::process::exit(1),
    }
}
