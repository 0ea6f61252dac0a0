//! The one job model behind `mtk screen|size|cluster|hybrid`, `mtk
//! client` and `mtk serve`: a [`Job`] built from CLI flags or a serve
//! request keys the store, serializes to a request line, and runs once
//! into a typed [`JobOutput`] that each front end renders — text on the
//! CLI, the `{"result","trace"}` payload over the wire.

use crate::cli::Kind::{Int, Num, Str, Switch};
use crate::cli::{die, failure_policy, Args, Flag};
use crate::design_transitions;
use mtk_core::cluster::{
    exclusive_partition, size_clusters_for_target, ClusterOptions, ClusterReport, ClusterSizing,
};
use mtk_core::health::{FailurePolicy, FaultPlan, RunHealth};
use mtk_core::hybrid::{run_hybrid, HybridOptions, HybridReport, SpiceRunConfig};
use mtk_core::par;
use mtk_core::sizing::{
    screen_vectors_par_quarantined, size_for_target_cached, ScreenReport, ScreenedVector,
    ScreeningCache, Transition,
};
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_core::CoreError;
use mtk_fe::Design;
use mtk_trace::json::JsonValue;
use mtk_trace::{PhaseTrace, TraceReport};
use std::time::Instant;

/// Tag prefix of request-level records in the store, versioned
/// separately from the container: bump when the request fingerprint or
/// payload layout changes so stale records read as misses.
const REQUEST_RECORD_TAG: &[u8; 5] = b"req2:";

/// Which flow a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Parallel switch-level screening of the vector set.
    Screen,
    /// Bisect one sleep device to the target degradation.
    Size,
    /// Per-cluster sleep devices, co-optimized to the target.
    Cluster,
    /// Screen, then SPICE-verify the top-k survivors.
    Hybrid,
}

impl JobKind {
    /// Every kind, in usage order.
    pub const ALL: [JobKind; 4] = [Self::Screen, Self::Size, Self::Cluster, Self::Hybrid];

    /// The kind named by a CLI command or request `cmd`.
    pub fn parse(cmd: &str) -> Option<JobKind> {
        Self::ALL.into_iter().find(|k| k.name() == cmd)
    }

    /// The command / request `cmd` name (also the CLI span name).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Screen => "screen",
            JobKind::Size => "size",
            JobKind::Cluster => "cluster",
            JobKind::Hybrid => "hybrid",
        }
    }
}

/// The CLI flag of the option field `field`: `--<field>` with `_`
/// spelled `-`.
fn flag_name(field: &str) -> String {
    format!("--{}", field.replace('_', "-"))
}

// The flag groups of the job read sets (`Resolved::row`).
/// Worker threads.
pub const THREADS: &[Flag] = &[("--threads", Int)];
/// Sleep W/L of screening and hybrid verification.
pub const W_OVER_L: &[Flag] = &[("--w-over-l", Num)];
/// Vector sourcing: the stride and the seeded sample count.
pub const SOURCING: &[Flag] = &[("--stride", Int), ("--samples", Int)];
/// The failure policy ([`failure_policy`]).
pub const POLICY: &[Flag] = &[("--max-failures", Int), ("--fail-fast", Switch)];
/// The degradation target.
pub const TARGET: &[Flag] = &[("--target", Num)];
/// The store size and cluster jobs write through.
pub const STORE: &[Flag] = &[("--store", Str)];
/// The JSON trace export ([`crate::cli::emit_trace`]).
pub const TRACE: &[Flag] = &[("--trace-json", Str), ("--trace-deterministic", Switch)];
/// The waveform export; `--t-stop` stops the `--raw` transient.
pub const WAVES: &[Flag] = &[("--raw", Str), ("--vcd", Str), ("--t-stop", Num)];
/// How long `mtk client` waits for the response, on any request.
pub const TIMEOUT: &[Flag] = &[("--timeout-ms", Int)];
const BRACKET: &[Flag] = &[("--lo", Num), ("--hi", Num)];
const TOP: &[Flag] = &[("--top", Int)];
const TOP_K: &[Flag] = &[("--top-k", Int)];
/// The cluster cap, and `--smoke`, which thins a cluster job's vectors.
const CLUSTERS: &[Flag] = &[("--clusters", Int), ("--smoke", Switch)];

/// The groups `mtk client` does not send: serve runs a job under its own
/// policy, store and trace, and exports no waveform.
const CLI_ONLY: [&[Flag]; 4] = [POLICY, STORE, TRACE, WAVES];

/// True when one of the groups `reads` holds the flag `name`.
fn reads_flag(reads: &[&[Flag]], name: &str) -> bool {
    reads.iter().flat_map(|g| g.iter()).any(|(n, _)| *n == name)
}

/// A job as the flags of `mtk <kind>` or `mtk client … <kind>` resolve it:
/// `size --clusters N` is a cluster job, and `mtk hybrid --clusters N` a
/// cluster leg, then a hybrid job at its total width (serve runs no such
/// composition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Screen,
    Size,
    Cluster,
    Hybrid,
    ClusteredHybrid,
}

impl Resolved {
    /// The job of `kind` with or without `--clusters`, sent by `mtk
    /// client` when `client`.
    fn of(kind: JobKind, clusters: bool, client: bool) -> Resolved {
        match kind {
            JobKind::Screen => Resolved::Screen,
            JobKind::Size if !clusters => Resolved::Size,
            JobKind::Size | JobKind::Cluster => Resolved::Cluster,
            JobKind::Hybrid if clusters && !client => Resolved::ClusteredHybrid,
            JobKind::Hybrid => Resolved::Hybrid,
        }
    }

    /// The job's row of DESIGN.md §11's read-set table: its name in a
    /// refusal and the flag groups it reads on the CLI.
    #[rustfmt::skip]
    fn row(self) -> (&'static str, &'static [&'static [Flag]]) {
        use Resolved::*;
        match self {
            Screen => ("a screen job", &[THREADS, W_OVER_L, SOURCING, POLICY, TOP, TRACE, WAVES]),
            Size => ("a plain size job", &[TARGET, BRACKET, SOURCING, STORE, TRACE, WAVES]),
            Cluster => ("a cluster job",
                &[CLUSTERS, TARGET, BRACKET, SOURCING, THREADS, POLICY, STORE, TRACE]),
            Hybrid => ("a plain hybrid job",
                &[W_OVER_L, TOP_K, THREADS, SOURCING, POLICY, TRACE, WAVES]),
            // Both legs', less the `--w-over-l` the clustered total overwrites.
            ClusteredHybrid => ("a hybrid job after a cluster leg", &[CLUSTERS, TARGET, BRACKET,
                SOURCING, THREADS, POLICY, STORE, TOP_K, TRACE, WAVES]),
        }
    }

    /// The flag groups the job reads; over `mtk client`, less the CLI-only
    /// groups and with [`TIMEOUT`].
    fn reads(self, client: bool) -> Vec<&'static [Flag]> {
        let sent = |g: &&[Flag]| !(client && CLI_ONLY.contains(g));
        let groups = self.row().1.iter().copied().filter(sent);
        groups.chain(client.then_some(TIMEOUT)).collect()
    }
}

/// The flags `mtk <kind>` declares (`mtk client` when `client`, for each
/// of `kinds`): the union of the read sets of every job they resolve to
/// (DESIGN.md §11), so the parse table and `--help` are what runs.
pub fn declared(kinds: &[JobKind], client: bool) -> Vec<&'static [Flag]> {
    let jobs = kinds
        .iter()
        .flat_map(|&k| [false, true].map(|c| Resolved::of(k, c, client)));
    let mut union = Vec::new();
    for group in jobs.flat_map(|job| job.reads(client)) {
        if !union.contains(&group) {
            union.push(group);
        }
    }
    union
}

/// Every option of a job. The first nine key the result (and the store);
/// `threads` and `policy` only affect execution. Each keyed field is the
/// request field of the same name and the CLI flag `--<name>` with `_`
/// spelled `-` (DESIGN.md §13.2).
#[derive(Debug, Clone, Copy)]
pub struct JobOpts {
    /// Sleep W/L of screening and hybrid verification.
    pub w_over_l: f64,
    /// Survivors SPICE-verified by a hybrid job.
    pub top_k: usize,
    /// Degradation target of size and cluster jobs.
    pub target: f64,
    /// Lower end of the sizing bracket.
    pub lo: f64,
    /// Upper end of the sizing bracket.
    pub hi: f64,
    /// Subsampling stride of an exhaustive transition space.
    pub stride: usize,
    /// Seeded random samples when the space is too large to enumerate.
    pub samples: usize,
    /// Ranked vectors a screen job reports.
    pub top: usize,
    /// Cluster cap of a cluster job (at least 1).
    pub clusters: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Failure routing of the parallel sweeps.
    pub policy: FailurePolicy,
}

impl Default for JobOpts {
    fn default() -> Self {
        JobOpts {
            w_over_l: 10.0,
            top_k: 10,
            target: 0.05,
            lo: 1.0,
            hi: 2000.0,
            stride: 1,
            samples: 256,
            top: 10,
            clusters: 8,
            threads: 1,
            policy: FailurePolicy::quarantine(32),
        }
    }
}

impl JobOpts {
    /// Reads every numeric option by field name, falling back to
    /// `defaults`. The first failing field's error wins (`threads` first).
    fn read<E>(
        defaults: JobOpts,
        num: impl Fn(&str, f64) -> Result<f64, E>,
        int: impl Fn(&str, usize) -> Result<usize, E>,
    ) -> Result<JobOpts, E> {
        Ok(JobOpts {
            threads: int("threads", defaults.threads)?,
            w_over_l: num("w_over_l", defaults.w_over_l)?,
            top_k: int("top_k", defaults.top_k)?,
            target: num("target", defaults.target)?,
            lo: num("lo", defaults.lo)?,
            hi: num("hi", defaults.hi)?,
            stride: int("stride", defaults.stride)?,
            samples: int("samples", defaults.samples)?,
            top: int("top", defaults.top)?,
            clusters: int("clusters", defaults.clusters)?.max(1),
            policy: defaults.policy,
        })
    }

    /// The options of a CLI invocation: each field whose `--<field>` flag
    /// is in `reads` from `args`, over `defaults`, and the failure policy
    /// when `reads` holds [`POLICY`]. Every other field keeps its default.
    pub fn from_flags(args: &Args, reads: &[&[Flag]], defaults: JobOpts) -> JobOpts {
        let read = |k: &str| Some(flag_name(k)).filter(|f| reads_flag(reads, f));
        let Ok(opts) = JobOpts::read::<std::convert::Infallible>(
            defaults,
            |k, d| Ok(read(k).map_or(d, |f| args.num(&f, d))),
            |k, d| Ok(read(k).map_or(d, |f| args.int(&f, d))),
        );
        let policy = reads.contains(&POLICY).then(|| failure_policy(args));
        JobOpts {
            policy: policy.unwrap_or(defaults.policy),
            ..opts
        }
    }

    /// The options of a serve request: each numeric field of the same
    /// name over the defaults, `threads` defaulting to `default_threads`
    /// and capped at the host's cores ([`par::num_threads`]`(0)`), so a
    /// request cannot make the server spawn a thread per transition.
    /// The cap is exact: results are thread-count invariant and `threads`
    /// does not key the store.
    ///
    /// # Errors
    ///
    /// The message of the first malformed field.
    fn from_json(req: &JsonValue, default_threads: usize) -> Result<JobOpts, String> {
        let defaults = JobOpts {
            threads: default_threads,
            ..JobOpts::default()
        };
        let num = |key: &str, default: f64| match req.get(key) {
            None => Ok(default),
            Some(v) => (v.as_f64().filter(|x| x.is_finite()))
                .ok_or_else(|| format!("field `{key}` must be a finite number")),
        };
        let int = |key: &str, default: usize| match req.get(key) {
            None => Ok(default),
            Some(v) => (v.as_u64().map(|x| x as usize))
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
        };
        let opts = JobOpts::read(defaults, num, int)?;
        Ok(JobOpts {
            threads: opts.threads.min(par::num_threads(0)),
            ..opts
        })
    }

    /// Checks the options a job of `kind` reads. Size, cluster and hybrid
    /// jobs (a hybrid job passes its bracket to the cluster job
    /// `--clusters` composes) need a finite bracket with `0 < lo < hi`.
    ///
    /// # Errors
    ///
    /// The message naming the bad bracket.
    pub fn check(&self, kind: JobKind) -> Result<(), String> {
        let sizes = matches!(kind, JobKind::Size | JobKind::Cluster | JobKind::Hybrid);
        let bracket_ok = self.lo > 0.0 && self.hi > self.lo && self.hi.is_finite();
        if sizes && !bracket_ok {
            return Err(format!(
                "sizing bracket needs 0 < lo < hi, got lo = {} and hi = {}",
                self.lo, self.hi
            ));
        }
        Ok(())
    }
}

/// One validated job: the flow `kind`, the parsed design with its
/// canonical `.mtk` text (what keys the store and what the client sends;
/// private so the two cannot disagree), and every option.
#[derive(Debug, Clone)]
pub struct Job {
    pub kind: JobKind,
    design: Design,
    canonical: String,
    pub opts: JobOpts,
}

/// A JSON object from `(key, value)` pairs, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `cmd`, the design text, optionally `threads`, then the nine keyed
/// fields in store-key order.
fn request_fields(kind: JobKind, design: &str, o: &JobOpts, threads: bool) -> JsonValue {
    let n = JsonValue::Number;
    let mut fields = vec![
        ("cmd", JsonValue::String(kind.name().into())),
        ("design", JsonValue::String(design.into())),
    ];
    fields.extend(threads.then(|| ("threads", n(o.threads as f64))));
    fields.extend([
        ("w_over_l", n(o.w_over_l)),
        ("top_k", n(o.top_k as f64)),
        ("target", n(o.target)),
        ("lo", n(o.lo)),
        ("hi", n(o.hi)),
        ("stride", n(o.stride as f64)),
        ("samples", n(o.samples as f64)),
        ("top", n(o.top as f64)),
        ("clusters", n(o.clusters as f64)),
    ]);
    object(fields)
}

/// The store key of a job of `kind` over the design text `design`: tag +
/// compact JSON of the text and every result-determining option,
/// `threads` deliberately excluded (results are thread-count invariant).
fn request_key(kind: JobKind, design: &str, opts: &JobOpts) -> Vec<u8> {
    let fields = request_fields(kind, design, opts, false).to_compact();
    [&REQUEST_RECORD_TAG[..], fields.as_bytes()].concat()
}

/// The job kind a serve request names.
fn request_kind(req: &JsonValue) -> Option<JobKind> {
    req.get("cmd")
        .and_then(JsonValue::as_str)
        .and_then(JobKind::parse)
}

/// The `design` text of a serve request, as sent.
fn request_design(req: &JsonValue) -> Option<&str> {
    req.get("design").and_then(JsonValue::as_str)
}

/// The store key a serve request has if its design text is canonical,
/// built from the text as sent without parsing it. Every stored request
/// key is built from canonical text, and canonical text is a
/// parse→write fixpoint, so a store hit on this key is exactly the hit
/// [`Job::store_key`] would get; a non-canonical text only misses.
/// `None` when the request is not a job, has no design, or carries
/// options [`Job::from_json`] rejects.
pub fn presumed_key(req: &JsonValue) -> Option<Vec<u8>> {
    let kind = request_kind(req)?;
    let design = request_design(req)?;
    let opts = JobOpts::from_json(req, JobOpts::default().threads).ok()?;
    opts.check(kind).ok()?;
    Some(request_key(kind, design, &opts))
}

impl Job {
    /// A job over `design`; the canonical text is derived from it.
    fn new(kind: JobKind, design: Design, opts: JobOpts) -> Job {
        let canonical = design.to_mtk();
        Job {
            kind,
            design,
            canonical,
            opts,
        }
    }

    /// The job of a serve request: `cmd`, the `design` text, and the
    /// optional numeric fields (`JobOpts::from_json`).
    ///
    /// # Errors
    ///
    /// The message of a missing or unparsable design, a non-job `cmd`,
    /// the first malformed numeric field, or options [`JobOpts::check`]
    /// rejects.
    pub fn from_json(req: &JsonValue, default_threads: usize) -> Result<Job, String> {
        let kind = request_kind(req).ok_or("not a job (want screen|size|cluster|hybrid)")?;
        let text = request_design(req).ok_or("missing `design` (the .mtk netlist text)")?;
        let design = mtk_fe::parse_str(text, "<request>").map_err(|e| e.to_string())?;
        let opts = JobOpts::from_json(req, default_threads)?;
        opts.check(kind)?;
        Ok(Job::new(kind, design, opts))
    }

    /// The job of `mtk <kind>` (of `mtk client … <kind>` when `client`),
    /// after the cluster leg `mtk hybrid --clusters N` runs first. Before
    /// `design` loads, it exits 2 on the first flag the resolved job does
    /// not read, on `--t-stop` without `--raw`, and on options
    /// [`JobOpts::check`] rejects. `--smoke` thins a cluster job's vectors.
    pub fn from_flags(
        kind: JobKind,
        client: bool,
        args: &Args,
        design: impl FnOnce() -> Design,
    ) -> (Option<Job>, Job) {
        let clusters = matches!(kind, JobKind::Size | JobKind::Hybrid) && args.has("--clusters");
        let resolved = Resolved::of(kind, clusters, client);
        let reads = resolved.reads(client);
        let refused = args.refuse_unread(resolved.row().0, |f| reads_flag(&reads, f));
        let refused = refused.and_then(|()| args.needs("--t-stop", &["--raw"]));
        refused.unwrap_or_else(|e| die(e));
        let read = |kind, reads: &[&[Flag]]| {
            let mut defaults = JobOpts::default();
            if kind == JobKind::Cluster && args.has("--smoke") {
                (defaults.stride, defaults.samples) = (64, 8);
            }
            let opts = JobOpts::from_flags(args, reads, defaults);
            opts.check(kind).unwrap_or_else(|e| die(e));
            opts
        };
        let kind = match resolved {
            Resolved::Cluster => JobKind::Cluster,
            _ => kind,
        };
        let opts = read(kind, &reads);
        let leg = (resolved == Resolved::ClusteredHybrid)
            .then(|| read(JobKind::Cluster, &Resolved::Cluster.reads(false)));
        let job = Job::new(kind, design(), opts);
        let leg = leg.map(|opts| Job::new(JobKind::Cluster, job.design.clone(), opts));
        (leg, job)
    }

    /// Content-addressed request fingerprint: tag + compact JSON of the
    /// canonical design and every result-determining option, `threads`
    /// excluded. [`presumed_key`] builds it from a request's text.
    pub fn store_key(&self) -> Vec<u8> {
        request_key(self.kind, &self.canonical, &self.opts)
    }

    /// The serve request line of this job (what `mtk client` sends).
    pub fn to_request(&self) -> String {
        request_fields(self.kind, &self.canonical, &self.opts, true).to_compact()
    }

    /// The parsed design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The transitions this job runs plus a label of their source
    /// ([`design_transitions`]).
    pub fn transitions(&self) -> (Vec<Transition>, String) {
        design_transitions(&self.design, self.opts.stride, self.opts.samples)
    }

    /// Runs the job against `cache`, the leg cache size jobs share. Its
    /// optional store also takes the evaluations cluster jobs write
    /// through, so one process holds one handle on the log.
    ///
    /// # Errors
    ///
    /// Propagates the flow's [`CoreError`].
    pub fn run(&self, cache: &ScreeningCache) -> Result<JobOutput, CoreError> {
        let (transitions, _) = self.transitions();
        let (netlist, tech) = (&self.design.netlist, &self.design.tech);
        let o = &self.opts;
        let base = VbsimOptions::default();
        Ok(match self.kind {
            JobKind::Screen => {
                let (screened, report) = screen_vectors_par_quarantined(
                    netlist,
                    tech,
                    &transitions,
                    None,
                    o.w_over_l,
                    &base,
                    o.threads,
                    o.policy,
                    &FaultPlan::none(),
                )?;
                JobOutput::Screen {
                    top: o.top,
                    screened,
                    report,
                }
            }
            JobKind::Size => {
                let engine = Engine::new(netlist, tech);
                let t0 = Instant::now();
                let (w_over_l, health) = size_for_target_cached(
                    &engine,
                    &transitions,
                    None,
                    o.target,
                    (o.lo, o.hi),
                    &base,
                    cache,
                )?;
                JobOutput::Size {
                    w_over_l,
                    health,
                    wall: t0.elapsed().as_secs_f64(),
                }
            }
            JobKind::Cluster => {
                let partition = exclusive_partition(netlist, &transitions, o.clusters)?;
                let opts = ClusterOptions {
                    threads: o.threads,
                    policy: o.policy,
                    ..ClusterOptions::at_target(o.target, (o.lo, o.hi))
                };
                let (sizing, report) = size_clusters_for_target(
                    netlist,
                    tech,
                    &transitions,
                    &partition,
                    &opts,
                    cache.store(),
                )?;
                JobOutput::Cluster { sizing, report }
            }
            JobKind::Hybrid => {
                let opts = HybridOptions {
                    top_k: o.top_k,
                    threads: o.threads,
                    policy: o.policy,
                    ..HybridOptions::at_size(o.w_over_l, SpiceRunConfig::window(80e-9))
                };
                JobOutput::Hybrid(run_hybrid(netlist, tech, &transitions, &opts)?)
            }
        })
    }
}

/// The typed result of one [`Job::run`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one value per run, never stored in bulk
pub enum JobOutput {
    /// The vectors that switch an output, worst first, of which the
    /// result reports the `top`.
    Screen {
        top: usize,
        screened: Vec<ScreenedVector>,
        report: ScreenReport,
    },
    /// The smallest single-device W/L meeting the target, with the
    /// bisection's simulator/cache counters and wall seconds.
    Size {
        w_over_l: f64,
        health: RunHealth,
        wall: f64,
    },
    /// The returned per-cluster sizing (never worse than one device).
    Cluster {
        sizing: ClusterSizing,
        report: ClusterReport,
    },
    /// The screened and SPICE-verified top-k findings.
    Hybrid(HybridReport),
}

impl JobOutput {
    /// The `result` object of a serve response.
    pub fn result_json(&self) -> JsonValue {
        let num = JsonValue::Number;
        let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Number);
        match self {
            JobOutput::Screen {
                top,
                screened,
                report,
            } => {
                let top = screened
                    .iter()
                    .take(*top)
                    .map(|s| {
                        object([
                            ("index", num(s.index as f64)),
                            ("degradation", num(s.delays.degradation())),
                        ])
                    })
                    .collect();
                object([
                    ("transitions", num(report.health.items as f64)),
                    ("switching", num(screened.len() as f64)),
                    ("top", JsonValue::Array(top)),
                ])
            }
            JobOutput::Size { w_over_l, .. } => object([("w_over_l", num(*w_over_l))]),
            JobOutput::Cluster { sizing, report } => object([
                ("clusters", num(report.n_clusters as f64)),
                ("conflict_edges", num(report.conflict_edges as f64)),
                ("folded", num(report.folded as f64)),
                (
                    "w_over_ls",
                    JsonValue::Array(sizing.w_over_ls.iter().map(|&w| num(w)).collect()),
                ),
                ("clustered_width", num(sizing.clustered_width())),
                ("single_w_over_l", opt_num(sizing.single_w_over_l)),
                ("fell_back", JsonValue::Bool(sizing.fell_back)),
                ("total_width", num(sizing.total_width())),
            ]),
            JobOutput::Hybrid(report) => {
                let findings = report
                    .findings
                    .iter()
                    .map(|f| {
                        object([
                            ("index", num(f.index as f64)),
                            ("screened", num(f.screened.degradation())),
                            ("verified", opt_num(f.verified.map(|v| v.degradation()))),
                            ("delta", opt_num(f.delta)),
                        ])
                    })
                    .collect();
                object([
                    ("transitions", num(report.screen_health.items as f64)),
                    ("survivors", num(report.survivors as f64)),
                    ("findings", JsonValue::Array(findings)),
                ])
            }
        }
    }

    /// The run's trace report (tool `mtk_<kind>`), without spans.
    pub fn trace(&self) -> TraceReport {
        let single = |tool: &str, phase: PhaseTrace| {
            let mut trace = TraceReport::new(tool);
            trace.push_phase(phase);
            trace
        };
        match self {
            JobOutput::Screen { report, .. } => single("mtk_screen", report.to_phase("screen")),
            JobOutput::Size { health, wall, .. } => {
                let mut phase = PhaseTrace::new("size").with_wall(*wall);
                phase.counters = health.counters();
                single("mtk_size", phase)
            }
            JobOutput::Cluster { sizing, report } => {
                single("mtk_cluster", report.to_phase("cluster", sizing))
            }
            JobOutput::Hybrid(report) => report.to_trace("mtk_hybrid"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: &str = "mtk 1\ncircuit chain\ntech l07\nnet a\nnet y\ninput a\noutput y\n\
                         cell i1 inv a -> y\nend\n";

    #[test]
    fn store_key_is_the_documented_golden() {
        let design = JsonValue::String(CHAIN.into()).to_compact();
        let req = mtk_trace::json::parse(&format!(
            "{{\"cmd\":\"screen\",\"design\":{design},\"threads\":4,\"top\":3}}"
        ))
        .unwrap();
        let job = Job::from_json(&req, 1).unwrap();
        let key = String::from_utf8(job.store_key()).unwrap();
        assert_eq!(
            key,
            "req2:{\"cmd\":\"screen\",\"design\":\"mtk 1\\ncircuit chain\\ntech l07\\nnet a\\n\
             net y\\ninput a\\noutput y\\ncell i1 inv a -> y\\nend\\n\",\"w_over_l\":10,\
             \"top_k\":10,\"target\":0.05,\"lo\":1,\"hi\":2000,\"stride\":1,\"samples\":256,\
             \"top\":3,\"clusters\":8}"
        );
    }

    const KINDS: [JobKind; 4] = [
        JobKind::Screen,
        JobKind::Size,
        JobKind::Cluster,
        JobKind::Hybrid,
    ];

    /// The request a client sends for `job`, parsed as the server reads it.
    fn request_of(job: &Job) -> JsonValue {
        mtk_trace::json::parse(&job.to_request()).unwrap()
    }

    #[test]
    fn a_canonical_request_presumes_its_store_key() {
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        // Every keyed option off its default.
        let moved = JobOpts {
            w_over_l: 7.5,
            top_k: 3,
            target: 0.08,
            lo: 2.0,
            hi: 900.0,
            stride: 5,
            samples: 17,
            top: 4,
            clusters: 3,
            ..JobOpts::default()
        };
        let mut goldens = 0;
        for entry in std::fs::read_dir(examples).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("mtk") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let design = mtk_fe::parse_str(&text, &path.display().to_string()).unwrap();
            for (kind, opts) in KINDS
                .into_iter()
                .flat_map(|k| [(k, JobOpts::default()), (k, moved)])
            {
                let job = Job::new(kind, design.clone(), opts);
                let req = request_of(&job);
                assert_eq!(
                    presumed_key(&req),
                    Some(job.store_key()),
                    "{} {}",
                    path.display(),
                    kind.name()
                );
                let served = Job::from_json(&req, 1).unwrap();
                assert_eq!(served.store_key(), job.store_key());
            }
            goldens += 1;
        }
        assert!(goldens >= 8, "only {goldens} goldens under {examples}");
    }

    #[test]
    fn a_non_canonical_text_presumes_another_key_but_keys_the_same_job() {
        let job = Job::new(
            JobKind::Size,
            mtk_fe::parse_str(CHAIN, "chain").unwrap(),
            JobOpts::default(),
        );
        assert_eq!(job.canonical, CHAIN, "CHAIN is canonical");
        for variant in [
            CHAIN.replace("net a\n", "# a comment line\nnet a\n"),
            CHAIN.replace("net a\n", "net   a  \n"),
            CHAIN.replace("tech l07\n", "tech l07\ncorner typ\n"),
        ] {
            let design = JsonValue::String(variant.clone()).to_compact();
            let req = mtk_trace::json::parse(&format!("{{\"cmd\":\"size\",\"design\":{design}}}"))
                .unwrap();
            let presumed = presumed_key(&req).unwrap();
            assert_ne!(presumed, job.store_key(), "{variant:?}");
            assert_eq!(
                Job::from_json(&req, 1).unwrap().store_key(),
                job.store_key()
            );
        }
    }

    #[test]
    fn a_rejected_request_presumes_no_key() {
        let design = JsonValue::String(CHAIN.into()).to_compact();
        for fields in [
            "\"cmd\":\"status\"".to_string(),
            "\"cmd\":\"size\"".to_string(),
            format!("\"cmd\":\"size\",\"design\":{design},\"target\":\"x\""),
            format!("\"cmd\":\"size\",\"design\":{design},\"threads\":-1"),
            format!("\"cmd\":\"size\",\"design\":{design},\"lo\":0"),
        ] {
            let req = mtk_trace::json::parse(&format!("{{{fields}}}")).unwrap();
            assert_eq!(presumed_key(&req), None, "{fields}");
            assert!(Job::from_json(&req, 1).is_err(), "{fields}");
        }
    }

    #[test]
    fn a_served_job_runs_at_most_one_thread_per_core() {
        let cores = par::num_threads(0);
        let design = JsonValue::String(CHAIN.into()).to_compact();
        for (threads, want) in [(1, 1), (cores, cores), (cores + 1, cores), (1 << 40, cores)] {
            let req = mtk_trace::json::parse(&format!(
                "{{\"cmd\":\"screen\",\"design\":{design},\"threads\":{threads}}}"
            ))
            .unwrap();
            let job = Job::from_json(&req, 1).unwrap();
            assert_eq!(job.opts.threads, want, "threads {threads}");
            assert_eq!(
                presumed_key(&req),
                Some(job.store_key()),
                "threads is not keyed"
            );
        }
        let req =
            mtk_trace::json::parse(&format!("{{\"cmd\":\"screen\",\"design\":{design}}}")).unwrap();
        assert_eq!(Job::from_json(&req, 1 << 20).unwrap().opts.threads, cores);
        assert_eq!(
            Job::from_json(&req, 0).unwrap().opts.threads,
            0,
            "0 = all cores"
        );
    }

    /// Every flag a job command declares.
    fn job_table() -> Vec<&'static [Flag]> {
        declared(&KINDS, false)
    }

    #[test]
    fn every_job_flag_is_declared_and_reaches_its_field() {
        let argv: Vec<String> = "--threads 3 --w-over-l 7.5 --top-k 3 --target 0.08 --lo 2 \
                                 --hi 900 --stride 5 --samples 17 --top 4 --clusters 3 --fail-fast"
            .split_whitespace()
            .map(String::from)
            .collect();
        let table = job_table();
        let args = Args::parse("mtk t", &argv, &table).unwrap();
        let o = JobOpts::from_flags(&args, &table, JobOpts::default());
        let (kind, design) = (JobKind::Hybrid, mtk_fe::parse_str(CHAIN, "chain").unwrap());
        let want = JobOpts {
            w_over_l: 7.5,
            top_k: 3,
            target: 0.08,
            lo: 2.0,
            hi: 900.0,
            stride: 5,
            samples: 17,
            top: 4,
            clusters: 3,
            ..JobOpts::default()
        };
        assert_eq!(
            Job::new(kind, design.clone(), o).to_request(),
            Job::new(kind, design.clone(), JobOpts { threads: 3, ..want }).to_request()
        );
        assert_eq!(o.policy, FailurePolicy::FailFast);
        // A read set reads its own fields only; the rest keep the defaults.
        let o = JobOpts::from_flags(&args, &Resolved::Size.reads(false), JobOpts::default());
        let size = JobOpts {
            target: 0.08,
            lo: 2.0,
            hi: 900.0,
            stride: 5,
            samples: 17,
            ..JobOpts::default()
        };
        assert_eq!(
            Job::new(kind, design.clone(), o).to_request(),
            Job::new(kind, design, size).to_request()
        );
        assert_eq!(o.policy, JobOpts::default().policy);
        let argv = ["--max-failures", "4"].map(String::from).to_vec();
        let args = Args::parse("mtk t", &argv, &table).unwrap();
        let o = JobOpts::from_flags(&args, &table, JobOpts::default());
        assert_eq!(o.policy, FailurePolicy::quarantine(4));
    }

    /// The read-set table of DESIGN.md §11 is `Resolved::row`, row for
    /// row, so the documented rule cannot drift from what runs.
    #[test]
    fn design_read_set_table_is_the_code() {
        let names = |groups: Vec<&[Flag]>| {
            let names: Vec<&str> = groups.iter().flat_map(|g| g.iter()).map(|f| f.0).collect();
            format!("`{}`", names.join(" "))
        };
        let sent: Vec<Resolved> = (KINDS.iter())
            .flat_map(|&k| [false, true].map(|c| Resolved::of(k, c, true)))
            .collect();
        let mut want = String::from("| resolved job | `mtk` reads | `mtk client` reads |\n");
        want += "|---|---|---|\n";
        use Resolved::*;
        for job in [Screen, Size, Cluster, Hybrid, ClusteredHybrid] {
            let client = match sent.contains(&job) {
                true => names(job.reads(true)),
                false => "no such request".to_string(),
            };
            let cli = names(job.reads(false));
            want += &format!("| {} | {cli} | {client} |\n", job.row().0);
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).unwrap();
        let at = design
            .find("| resolved job |")
            .expect("the read-set table in DESIGN.md");
        assert!(
            design[at..].starts_with(&want),
            "DESIGN.md §11's read-set table and `Resolved::row` diverged; the code gives\n{want}"
        );
    }
}
