//! `mtk` — the unified driver: run the sizing tool on `.mtk` netlists,
//! serve it, and reproduce the paper.
//!
//! The flow commands load a `.mtk` netlist file (grammar in DESIGN.md
//! §11) and route it through the same deterministic machinery as the
//! built-in generators, so an externally supplied circuit gets the exact
//! same flow — and, under `--trace-deterministic`, the byte-identical
//! JSON trace — as a programmatically built one.
//!
//! [`COMMANDS`] declares every command: the positionals and flags it
//! takes (a job command those of every job it can resolve to), and its
//! line of the usage text `mtk` prints with no arguments (DESIGN.md
//! §11.4). A command's arguments are parsed once, before any work runs:
//! an undeclared, repeated or malformed flag, a stray positional, or a
//! flag the resolved job does not read (DESIGN.md §11's read sets) exits
//! 2 with a message naming it.
//!
//! `sta`, `screen`, `size` and `hybrid` take `--raw PATH` / `--vcd
//! PATH` to export deterministic waveforms of the most interesting
//! vector (the worst-ranked one where a ranking exists): a binary SPICE
//! rawfile from a transistor-level transient, a VCD dump from the
//! switch-level run. A cluster job exports none.
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

use mtk_bench::cli::Kind::{Int, Num, Str, Switch};
use mtk_bench::cli::{die, emit_trace, threads_label, trace_config, Args, Flag};
use mtk_bench::design_transitions;
use mtk_bench::job::{declared, Job, JobKind, JobOpts, JobOutput};
use mtk_bench::job::{POLICY, SOURCING, STORE, TARGET, THREADS, TIMEOUT, TRACE, WAVES, W_OVER_L};
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
use mtk_fe::interop::{export_deck, Imported};
use mtk_fe::Design;
use mtk_store::Store;
use mtk_trace::{CounterId, PhaseTrace, SpanRecorder, TraceReport};
use mtk_wave::rawfile::RawFile;
use std::io::Write;
use std::time::Duration;

/// The synopsis of the commands that take one `.mtk` file.
const FILE: &str = "<file.mtk> [flags]";
/// The job options `mc` reads through [`JobOpts::from_flags`].
const MC_SWEEP: &[&[Flag]] = &[THREADS, W_OVER_L, TARGET, SOURCING, POLICY];

/// One `mtk` command: its name, the usage synopsis of its arguments, the
/// least and most positionals it takes, the flag groups it declares (a
/// job command's from its jobs' read sets, [`declared`]), and
/// the function that runs it on the parsed arguments.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    positionals: (usize, usize),
    flags: fn() -> Vec<&'static [Flag]>,
    run: fn(&Args),
}

/// Every command, in usage order.
#[rustfmt::skip]
const COMMANDS: [Command; 13] = [
    Command { name: "lint", synopsis: FILE, positionals: (1, 1),
        flags: || vec![&[("--warn-only", Switch)]], run: cmd_lint },
    Command { name: "sta", synopsis: FILE, positionals: (1, 1),
        flags: || vec![WAVES, SOURCING, W_OVER_L], run: cmd_sta },
    Command { name: "screen", synopsis: FILE, positionals: (1, 1),
        flags: || declared(&[JobKind::Screen], false),
        run: |a| cmd_job(a, JobKind::Screen) },
    Command { name: "size", synopsis: FILE, positionals: (1, 1),
        flags: || declared(&[JobKind::Size], false),
        run: |a| cmd_job(a, JobKind::Size) },
    Command { name: "cluster", synopsis: FILE, positionals: (1, 1),
        flags: || declared(&[JobKind::Cluster], false),
        run: |a| cmd_job(a, JobKind::Cluster) },
    Command { name: "hybrid", synopsis: FILE, positionals: (1, 1),
        flags: || declared(&[JobKind::Hybrid], false),
        run: |a| cmd_job(a, JobKind::Hybrid) },
    Command { name: "mc", synopsis: FILE, positionals: (1, 1),
        flags: || [MC_SWEEP, &[TRACE, STORE, &[("--smoke", Switch), ("--trials", Int),
            ("--seed", Int), ("--widths", Str), ("--corner", Str), ("--sigma-vt", Num),
            ("--sigma-kp", Num), ("--sigma-w", Num)]]].concat(),
        run: cmd_mc },
    Command { name: "export", synopsis: FILE, positionals: (1, 1),
        flags: || vec![&[("--cmos", Switch), ("--w-over-l", Num), ("--out", Str)]],
        run: cmd_export },
    Command { name: "import", synopsis: "<file.ckt> [--out F] [--tech PRESET] [--raw F]",
        positionals: (1, 1),
        flags: || vec![TRACE, &[("--out", Str), ("--tech", Str), ("--raw", Str),
            ("--t-stop", Num)]],
        run: cmd_import },
    Command { name: "gen", synopsis: "[--list | --all [--dir D] | <stem>]", positionals: (0, 1),
        flags: || vec![&[("--list", Switch), ("--all", Switch), ("--dir", Str)]], run: cmd_gen },
    Command { name: "repro", synopsis: "[--list | --all | <id>...] [--full]",
        positionals: (0, usize::MAX),
        flags: || vec![&[("--list", Switch), ("--all", Switch), ("--full", Switch)]],
        run: cmd_repro },
    Command { name: "serve", synopsis: "[--addr H:P] [--store PATH] [--threads N] [--job-slots N]",
        positionals: (0, 0),
        flags: || vec![&[("--addr", Str), ("--store", Str), ("--threads", Int),
            ("--job-slots", Int), ("--read-timeout-ms", Int), ("--write-timeout-ms", Int),
            ("--max-request-bytes", Int)]],
        run: cmd_serve },
    Command { name: "client",
        synopsis: "<host:port> <status|shutdown|import|screen|size|cluster|hybrid> [file] [flags]",
        positionals: (2, 3),
        flags: || declared(&JobKind::ALL, true),
        run: cmd_client },
];

/// Prints the usage text on stderr and exits 2.
fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// The usage text: one line per run of commands that share a synopsis.
fn usage_text() -> String {
    let mut text = String::from("usage:");
    let runs = COMMANDS.chunk_by(|a, b| a.synopsis == b.synopsis);
    for (i, run) in runs.enumerate() {
        let names = run.iter().map(|c| c.name).collect::<Vec<_>>().join("|");
        let name = if run.len() > 1 {
            format!("<{names}>")
        } else {
            names
        };
        let indent = if i == 0 { " " } else { "       " };
        text += &format!("{indent}mtk {name} {}\n", run[0].synopsis);
    }
    text + "run `mtk` on a .mtk netlist; `mtk <command> --help` lists its flags; \
            grammar in DESIGN.md §11, protocol in §13\n"
}

/// `mtk <command> --help`: the command's usage line and every flag it
/// declares, with the kind of value each takes.
fn help(cmd: &Command) -> String {
    let groups = (cmd.flags)();
    let flags = groups.iter().flat_map(|group| group.iter());
    let flags = flags.map(|&(name, kind)| match kind {
        Switch => name.to_string(),
        Int => format!("{name} N"),
        Num => format!("{name} X"),
        Str => format!("{name} S"),
    });
    let flags = flags.collect::<Vec<_>>().join(" ");
    format!(
        "usage: mtk {} {}\nflags: {}\n",
        cmd.name,
        cmd.synopsis,
        if flags.is_empty() { "none" } else { &flags }
    )
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

/// Finds the command, parses its arguments against its flag table before
/// any work runs (an undeclared, repeated or malformed flag, or a stray
/// positional, exits 2), and runs it. `--help` prints the usage text, or
/// after a command that command's help, on stdout and exits 0.
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("", String::as_str);
    if name == "--help" {
        print!("{}", usage_text());
        return;
    }
    let cmd = COMMANDS.iter().find(|c| c.name == name);
    let cmd = cmd.unwrap_or_else(|| usage());
    if argv[1..].iter().any(|a| a == "--help") {
        print!("{}", help(cmd));
        return;
    }
    let args = Args::parse(&format!("mtk {}", cmd.name), &argv[1..], &(cmd.flags)());
    let args = args.unwrap_or_else(|e| die(e));
    let (least, most) = cmd.positionals;
    if args.at_most(most).unwrap_or_else(|e| die(e)).len() < least {
        usage();
    }
    (cmd.run)(&args);
}

/// Reads and parses a `.mtk` file; any failure is a diagnostic on
/// stderr and exit 2, never a panic.
fn load(path: &str) -> Design {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("{path}: {e}")));
    mtk_fe::parse_str(&src, path).unwrap_or_else(|e| die(e))
}

/// Lint-on-load for the flow commands: findings go to stderr as
/// warnings, the run continues.
fn warn_lint(design: &Design) {
    for line in design.render_lint(&design.lint()) {
        eprintln!("{line}");
    }
}

/// `mtk lint`: parse and lint; findings one per line with the source line
/// of the offending declaration. Exits 1 on findings (`--warn-only`
/// downgrades to 0), 2 on parse errors.
fn cmd_lint(args: &Args) {
    let design = load(&args.positionals[0]);
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
    } else if !args.has("--warn-only") {
        std::process::exit(1);
    }
}

/// `mtk sta`: static timing — the critical-path delay and the path
/// itself.
fn cmd_sta(args: &Args) {
    let waves = args.has("--raw") || args.has("--vcd");
    let need = |flag, partners: &[&str]| args.needs(flag, partners).unwrap_or_else(|e| die(e));
    for flag in ["--stride", "--samples", "--w-over-l"] {
        need(flag, &["--raw", "--vcd"]);
    }
    need("--t-stop", &["--raw"]);
    // The vector sourcing and sleep size of a screen job.
    let o = JobOpts::from_flags(args, &[SOURCING, W_OVER_L], JobOpts::default());
    let w_over_l = positive_w_over_l(o.w_over_l);
    let design = &load(&args.positionals[0]);
    warn_lint(design);
    let sta = Sta::analyze(&design.netlist, &design.tech).unwrap_or_else(|e| die(e));
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
    if waves {
        let (transitions, _) = design_transitions(design, o.stride, o.samples);
        export_waves(args, design, transitions.first(), w_over_l);
    }
}

/// Handles `--raw PATH` / `--vcd PATH` on the flow commands: one
/// deterministic waveform export of the given transition — a binary
/// rawfile from a transistor-level transient, a VCD dump from a
/// switch-level run. Returns `(raw points, vcd changes)` written, for
/// the trace counters.
fn export_waves(
    args: &Args,
    design: &Design,
    tr: Option<&Transition>,
    w_over_l: f64,
) -> (u64, u64) {
    let (raw_path, vcd_path) = (args.str("--raw"), args.str("--vcd"));
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
        let cfg = SpiceRunConfig::window(args.num("--t-stop", 80e-9));
        let raw = mtk_bench::wave::raw_from_transition(design, tr, w_over_l, &cfg)
            .unwrap_or_else(|e| die(format!("--raw: {e}")));
        raw_points = write_raw(path, &raw, &mut std::io::stdout());
    }
    if let Some(path) = vcd_path {
        let opts = VbsimOptions::mtcmos(w_over_l);
        let engine = Engine::new(&design.netlist, &design.tech);
        let run = engine
            .run(&tr.from, &tr.to, &opts)
            .unwrap_or_else(|e| die(format!("--vcd: {e}")));
        let vcd = mtk_bench::wave::vcd_from_run(design, &run);
        let text = vcd.render().unwrap_or_else(|e| die(format!("--vcd: {e}")));
        std::fs::write(path, text).unwrap_or_else(|e| die(format!("--vcd {path}: {e}")));
        vcd_changes = (vcd.initial.len() + vcd.changes.len()) as u64;
        println!(
            "wrote {path}: {} signal(s), {vcd_changes} change(s)",
            vcd.signals.len()
        );
    }
    (raw_points, vcd_changes)
}

/// Writes the `--raw PATH` rawfile, reports it on `say`, and returns its
/// point count (the `WaveRawPoints` counter).
fn write_raw(path: &str, raw: &RawFile, say: &mut dyn Write) -> u64 {
    let bytes = raw
        .to_bytes()
        .unwrap_or_else(|e| die(format!("--raw: {e}")));
    std::fs::write(path, &bytes).unwrap_or_else(|e| die(format!("--raw {path}: {e}")));
    let (variables, points) = (raw.variables.len(), raw.points());
    let _ = writeln!(
        say,
        "wrote {path}: {variables} variable(s), {points} point(s)"
    );
    points as u64
}

/// Adds the waveform-export counters to a trace phase.
fn count_waves(phase: &mut PhaseTrace, raw_points: u64, vcd_changes: u64) {
    phase.counters.add(CounterId::WaveRawPoints, raw_points);
    phase.counters.add(CounterId::WaveVcdChanges, vcd_changes);
}

/// Opens `--store PATH` for the commands that write through it; an
/// unopenable store is a diagnostic and exit 2.
fn open_store(args: &Args) -> Option<Store> {
    let open = |path| Store::open(path).unwrap_or_else(|e| die(format!("--store {path}: {e}")));
    args.str("--store").map(open)
}

/// `mtk screen|size|cluster|hybrid`: one [`Job`] from the flags (the
/// same one `mtk client` sends and `mtk serve` runs), rendered as text
/// plus the §10 footer/JSON. `size` bisects one sleep W/L to the target;
/// `cluster` gives each mutually-exclusive cluster of gates its own
/// sleep device and co-optimizes the widths, returning the single device
/// when that uses no more total width (the never-worse rule).
/// `hybrid --clusters N` is composed as a
/// cluster job, then a hybrid job at the clustered total width — a
/// conservative lumping (one device of equal width sinks at least the
/// current of the split devices). It verifies a lumped device because
/// the hybrid flow screens and verifies at one sleep W/L
/// (`HybridOptions::w_over_l`): its screening tier has no partitioned
/// ranking to hand SPICE, although `expand_partitioned` could build the
/// per-cluster transistor-level circuit.
fn cmd_job(args: &Args, kind: JobKind) {
    let (leg, mut job) = Job::from_flags(kind, false, args, || {
        let design = load(&args.positionals[0]);
        warn_lint(&design);
        design
    });
    let mut spans = SpanRecorder::new(trace_config(args).spans);
    let mut cluster_phases = Vec::new();
    if let Some(cluster) = leg {
        let (out, _) = run_job(args, &cluster, &mut spans);
        if let JobOutput::Cluster { sizing, .. } = &out {
            let total = sizing.total_width();
            println!("hybrid verifies at the clustered total W/L = {total:.2}");
            job.opts.w_over_l = total;
        }
        cluster_phases = out.trace().phases;
    }
    let (out, transitions) = run_job(args, &job, &mut spans);
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
            let worst = worst.or(transitions.first());
            let (rp, vc) = export_waves(args, design, worst, o.w_over_l);
            count_waves(&mut trace.phases[0], rp, vc);
        }
        JobOutput::Size { w_over_l, .. } => {
            let (rp, vc) = export_waves(args, design, transitions.first(), *w_over_l);
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
            let worst = worst.or(transitions.first());
            let (rp, vc) = export_waves(args, design, worst, o.w_over_l);
            if rp + vc > 0 {
                let mut phase = PhaseTrace::new("wave");
                count_waves(&mut phase, rp, vc);
                trace.push_phase(phase);
            }
        }
    }
    trace.phases.extend(cluster_phases);
    trace.spans = spans.finish();
    emit_trace(args, &trace, &mut std::io::stdout());
}

/// Prints a job's header, runs it inside a wall-clock span named after
/// its kind (a failed run is a diagnostic and exit 2), and prints what
/// the run reports before any table: the size result, the partition, and
/// the `--store` traffic. Returns the output and the job's transitions.
fn run_job(args: &Args, job: &Job, spans: &mut SpanRecorder) -> (JobOutput, Vec<Transition>) {
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
        .then(|| open_store(args))
        .flatten();
    let cache = store.map_or_else(ScreeningCache::new, ScreeningCache::with_store);
    let out = spans
        .time(job.kind.name(), || job.run(&cache))
        .unwrap_or_else(|e| die(e));
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
fn cmd_mc(args: &Args) {
    let design = &load(&args.positionals[0]);
    warn_lint(design);
    let smoke = args.has("--smoke");
    let trials = args.int("--trials", if smoke { 64 } else { 256 });
    // `--smoke` thins the exhaustive transition space so the CI sweep
    // stays fast, and an explicit `--stride` still wins.
    let d = JobOpts::default();
    let stride = if smoke { 256 } else { d.stride };
    let o = JobOpts::from_flags(args, MC_SWEEP, JobOpts { stride, ..d });
    let (threads, w_over_l, target) = (o.threads, o.w_over_l, o.target);
    let widths: Vec<f64> = match args.str("--widths") {
        Some(list) => list
            .split(',')
            .map(|w| match w.trim().parse::<f64>() {
                Ok(v) => v,
                Err(_) => die(format!("--widths: `{w}` is not a number")),
            })
            .collect(),
        None => vec![5.0, 10.0, 20.0, 40.0],
    };
    let corner = args.str("--corner");
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
    tech.sigma_vt = args.num("--sigma-vt", tech.sigma_vt);
    tech.sigma_kp = args.num("--sigma-kp", tech.sigma_kp);
    tech.sigma_w = args.num("--sigma-w", tech.sigma_w);
    let (transitions, label) = design_transitions(design, o.stride, o.samples);
    let opts = McOptions {
        trials,
        seed: args.int("--seed", 0x4D43) as u64,
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
    let store = open_store(args);
    let mut spans = SpanRecorder::new(trace_config(args).spans);
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
    let report = report.unwrap_or_else(|e| die(e));
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
    emit_trace(args, &trace, &mut std::io::stdout());
}

/// `mtk gen`: serialize the golden designs. `--list` prints the stems,
/// `--all` writes `<dir>/<stem>.mtk` for every design (`--dir`,
/// default `examples`), a bare stem prints that design to stdout.
fn cmd_gen(args: &Args) {
    let designs = golden_designs();
    if args.has("--list") {
        // The stems and descriptions come from `generator_catalog`, the
        // same single source DESIGN.md §5 renders — a drift-guard test
        // pins it against `golden_designs`.
        for (stem, desc) in generator_catalog() {
            println!("{stem:<12} {desc}");
        }
        return;
    }
    if args.has("--all") {
        let dir = args.str("--dir").unwrap_or("examples");
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("{dir}: {e}")));
        for (stem, design) in &designs {
            let path = format!("{dir}/{stem}.mtk");
            std::fs::write(&path, design.to_mtk()).unwrap_or_else(|e| die(format!("{path}: {e}")));
            println!("wrote {path}");
        }
        return;
    }
    let Some(stem) = args.positionals.first() else {
        usage()
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
/// Exits 1 when any check fails the run, 2 on an unknown id. `--full`
/// adds the long variants: Table 1 SPICE rows, every FIG14 S2 vector,
/// all 4096 SEC6-2 SPICE runs, and the FIG5/FIG11 CSV series.
fn cmd_repro(args: &Args) {
    if args.has("--list") {
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
    let chosen: Vec<&repro::Experiment> = if args.has("--all") {
        EXPERIMENTS.iter().collect()
    } else {
        (args.positionals.iter())
            .map(|id| repro::find(id).unwrap_or_else(|| unknown(id)))
            .collect()
    };
    if chosen.is_empty() {
        usage();
    }
    let ctx = Ctx::new(args.has("--full"));
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
fn cmd_export(args: &Args) {
    let cmos = args.has("--cmos");
    if cmos {
        let refused = args.refuse_unread("a CMOS export (--cmos)", |f| f != "--w-over-l");
        refused.unwrap_or_else(|e| die(e));
    }
    let w_over_l = JobOpts::from_flags(args, &[W_OVER_L], JobOpts::default()).w_over_l;
    let sleep = (!cmos).then(|| positive_w_over_l(w_over_l));
    let design = load(&args.positionals[0]);
    warn_lint(&design);
    let deck = export_deck(&design, sleep).unwrap_or_else(|e| die(e));
    match args.str("--out") {
        Some(path) => {
            std::fs::write(path, &deck).unwrap_or_else(|e| die(format!("--out {path}: {e}")));
            println!("wrote {path}: {} line(s)", deck.lines().count());
        }
        None => print!("{deck}"),
    }
}

/// `mtk import`: parse a SPICE deck (flattening subcircuits), recover
/// the gate-level design by structural recognition, and emit canonical
/// `.mtk` — on stdout, which then carries nothing else (every report
/// line goes to stderr), or to `--out F`. `--raw PATH` runs a transient
/// on the deck circuit and writes the rawfile whichever way recognition
/// goes. When recognition fails, the reason is reported and SPICE-only
/// analysis remains: without `--raw` the exit code is 1.
fn cmd_import(args: &Args) {
    args.needs("--t-stop", &["--raw"])
        .unwrap_or_else(|e| die(e));
    let path = &args.positionals[0];
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("imported")
        .to_string();
    let tech_name = args.str("--tech").unwrap_or("l07");
    let tech = match mtk_netlist::tech::Technology::preset(tech_name) {
        Some(t) => t,
        None => die(format!("--tech: unknown preset `{tech_name}`")),
    };
    let mut trace = TraceReport::new("mtk_import");
    let mut phase = PhaseTrace::new("import");
    let count = |id, n| phase.counters.add(id, n);
    let imported = mtk_bench::import_counted(&text, &name, &tech, count).unwrap_or_else(|e| die(e));
    let stats = imported.stats().clone();
    let (circuit, mtk_on_stdout) = match imported {
        Imported::Design {
            design,
            circuit,
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
            match args.str("--out") {
                Some(out) => {
                    std::fs::write(out, &mtk).unwrap_or_else(|e| die(format!("--out {out}: {e}")));
                    println!("wrote {out}: {} line(s)", mtk.lines().count());
                }
                None => print!("{mtk}"),
            }
            (circuit, args.str("--out").is_none())
        }
        Imported::SpiceOnly {
            circuit, reason, ..
        } => {
            eprintln!("{path}: gate recognition failed ({reason}); SPICE-only analysis available");
            (circuit, false)
        }
    };
    let (mut stdout, mut stderr) = (std::io::stdout(), std::io::stderr());
    let say: &mut dyn Write = if mtk_on_stdout {
        &mut stderr
    } else {
        &mut stdout
    };
    let raw_path = args.str("--raw");
    if let Some(out) = raw_path {
        let opts = mtk_spice::tran::TranOptions::to(args.num("--t-stop", 80e-9));
        let result = mtk_spice::tran::transient(&circuit, &opts)
            .unwrap_or_else(|e| die(format!("--raw: {e}")));
        let raw = mtk_bench::wave::raw_from_tran(&result, &name);
        let points = write_raw(out, &raw, say);
        phase.counters.add(CounterId::WaveRawPoints, points);
    }
    trace.push_phase(phase);
    emit_trace(args, &trace, say);
    if stats.fallback && raw_path.is_none() {
        std::process::exit(1);
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
fn cmd_serve(args: &Args) {
    let ms = |name, default| Duration::from_millis(args.int(name, default) as u64);
    let cfg = ServeConfig {
        addr: args.str("--addr").unwrap_or("127.0.0.1:0").to_string(),
        threads: args.int("--threads", 1),
        job_slots: args.int("--job-slots", 2).max(1),
        read_timeout: ms("--read-timeout-ms", 5000),
        write_timeout: ms("--write-timeout-ms", 5000),
        max_request_bytes: args.int("--max-request-bytes", 8 * 1024 * 1024),
        store_path: args.str("--store").map(std::path::PathBuf::from),
    };
    let server = Server::bind(cfg).unwrap_or_else(|e| die(e));
    let addr = server.local_addr().unwrap_or_else(|e| die(e));
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
fn cmd_client(args: &Args) {
    let (addr, cmd) = (&args.positionals[0], args.positionals[1].as_str());
    // `status` and `shutdown` take no file; `import` and the jobs need one.
    let file = || args.positionals.get(2).unwrap_or_else(|| usage());
    // A request that is not a job reads no job flag.
    let no_job_flags = || {
        let refused = args.refuse_unread(&format!("{cmd} requests"), |f| f == TIMEOUT[0].0);
        refused.unwrap_or_else(|e| die(e));
    };
    let line = match cmd {
        "status" | "shutdown" => {
            args.at_most(2).unwrap_or_else(|e| die(e));
            no_job_flags();
            format!("{{\"cmd\":\"{cmd}\"}}")
        }
        "import" => {
            no_job_flags();
            let path = file();
            let deck =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("{path}: {e}")));
            let deck = mtk_trace::json::JsonValue::String(deck).to_compact();
            format!("{{\"cmd\":\"import\",\"deck\":{deck}}}")
        }
        cmd => match JobKind::parse(cmd) {
            Some(kind) => Job::from_flags(kind, true, args, || load(file()))
                .1
                .to_request(),
            None => usage(),
        },
    };
    let timeout = Duration::from_millis(args.int("--timeout-ms", 120_000) as u64);
    let response =
        serve::request(addr, &line, timeout).unwrap_or_else(|e| die(format!("{addr}: {e}")));
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
