//! Monte Carlo yield analysis over process variation — "does the sized
//! sleep transistor still meet the degradation target when the dice
//! roll badly?"
//!
//! The DAC '97 flow sizes the sleep device against *nominal* process
//! parameters. This module closes the loop the paper leaves open: it
//! perturbs the technology per trial (threshold voltages, process
//! transconductances, and a common width factor, each scaled by the
//! technology's `sigma_*` fields), re-measures the worst delay
//! degradation and virtual-ground bounce through the switch-level
//! simulator, and reports pass-rate-vs-sleep-width *yield curves* plus
//! degradation/bounce distributions.
//!
//! # Determinism contract
//!
//! Trial `i` draws its perturbation from PRNG stream `(seed, i)`
//! ([`Xoshiro256pp::stream`]), runs as one work item of the shared
//! [`crate::par`] executor, and is folded index-ordered by
//! [`fold_item_reports`] — so the sample set, the yield curves, the
//! percentiles, and the deterministic trace are bit-identical at any
//! thread count. [`perturb_technology`] draws **exactly six** gaussians
//! per trial whatever the sigmas are, so adding a sigma never shifts
//! another field's draw.
//!
//! Degraded paths route through the standard machinery: an
//! `EventOverflow` trial gets one retry at a budget relaxed by
//! [`crate::health::RETRY_BUDGET_FACTOR`], failures land in the
//! [`SweepHealth`] quarantine under the caller's [`FailurePolicy`], and
//! everything observable flows through the [`mtk_trace`] registry —
//! never stderr.
//!
//! # Persistent store
//!
//! [`run_mc`] optionally writes every simulated trial through to a
//! crash-safe [`mtk_store::Store`], keyed by the netlist and technology
//! fingerprints, the transition set, the seed, and every option the
//! trial reads. A warm rerun replays the stored samples — *including*
//! the stored [`RunHealth`] and retry flag, which is what makes the
//! warm deterministic trace byte-identical to the cold one — and does
//! zero simulator work. Store write failures degrade to recompute-only
//! and are never surfaced as errors.

use crate::health::{charge_overflow, fold_item_reports, retry_item, FailurePolicy, FaultPlan};
use crate::health::{ItemReport, RunHealth, SweepHealth};
use crate::par::{try_parallel_map_with, WorkerStats};
use crate::record;
use crate::sizing::{leg_degradation, probe_nets, require_sleep_size, Transition};
use crate::vbsim::{latest_crossing, Engine, SleepNetwork};
use crate::vbsim::{VbsimOptions, VbsimScratch};
use crate::CoreError;
use mtk_netlist::netlist::{Fnv1a, NetId, Netlist};
use mtk_netlist::tech::Technology;
use mtk_num::prng::Xoshiro256pp;
use mtk_trace::{CounterId, Histogram, PhaseTrace};
use std::time::Instant;

/// Options for one Monte Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct McOptions {
    /// Number of trials. Trial `i` is a pure function of `(seed, i)`,
    /// so raising the count extends the sample set without moving the
    /// existing samples.
    pub trials: usize,
    /// PRNG seed; stream `(seed, i)` drives trial `i`.
    pub seed: u64,
    /// Nominal sleep W/L the degradation/bounce distributions are
    /// measured at.
    pub w_over_l: f64,
    /// Sleep W/L points of the yield curve (pass-rate per width).
    pub widths: Vec<f64>,
    /// Fractional degradation a trial must stay within to pass
    /// (e.g. `0.05` for the paper's 5 % criterion).
    pub target: f64,
    /// Worker threads (`0`/`1` run inline).
    pub threads: usize,
    /// What happens when a trial fails after its fallbacks.
    pub policy: FailurePolicy,
    /// Base simulator options; the sleep network field is replaced per
    /// leg and `max_events` is relaxed on the overflow retry.
    pub base: VbsimOptions,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            trials: 256,
            seed: 0x4D43, // "MC"
            w_over_l: 10.0,
            widths: vec![5.0, 10.0, 20.0, 40.0],
            target: 0.05,
            threads: 1,
            policy: FailurePolicy::FailFast,
            base: VbsimOptions::default(),
        }
    }
}

/// One Monte Carlo trial's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSample {
    /// Worst fractional delay degradation over the transitions at the
    /// nominal width (`f64::INFINITY` when a gate stalled; `0.0` when
    /// no transition switched a probe).
    pub degradation: f64,
    /// Worst peak virtual-ground bounce over the MTCMOS legs at the
    /// nominal width, volts.
    pub bounce: f64,
    /// Per [`McOptions::widths`] entry: worst degradation at that width
    /// within [`McOptions::target`].
    pub pass_at_width: Vec<bool>,
    /// The sample was replayed from the persistent store rather than
    /// simulated.
    pub from_store: bool,
}

/// Perturbs a technology with one trial's process variation. Draws
/// **exactly six** standard gaussians in a fixed order (V<sub>tn</sub>,
/// V<sub>tp</sub>, high-V<sub>t</sub>, k'<sub>n</sub>, k'<sub>p</sub>,
/// width) whatever the sigmas are, so the draw layout is part of the
/// determinism contract. Returns the perturbed technology plus the
/// common width factor, which the caller must also apply to the sleep
/// device's W/L (the sleep transistor is drawn on the same wafer).
///
/// Clamps keep the result physical: thresholds stay inside
/// `[10 mV, 0.95·Vdd]`, transconductance and width factors stay at or
/// above 5 % of nominal. With all sigmas zero the output technology is
/// bit-identical to the input (the draws are still consumed).
pub fn perturb_technology(tech: &Technology, rng: &mut Xoshiro256pp) -> (Technology, f64) {
    let g_vtn = rng.next_gaussian();
    let g_vtp = rng.next_gaussian();
    let g_vth = rng.next_gaussian();
    let g_kpn = rng.next_gaussian();
    let g_kpp = rng.next_gaussian();
    let g_w = rng.next_gaussian();
    let clamp_vt = |v: f64| v.clamp(0.01, tech.vdd * 0.95);
    let clamp_scale = |s: f64| s.max(0.05);
    let mut t = tech.clone();
    t.vtn = clamp_vt(tech.vtn + tech.sigma_vt * g_vtn);
    t.vtp = clamp_vt(tech.vtp + tech.sigma_vt * g_vtp);
    t.vt_high = clamp_vt(tech.vt_high + tech.sigma_vt * g_vth);
    t.kp_n = tech.kp_n * clamp_scale(1.0 + tech.sigma_kp * g_kpn);
    t.kp_p = tech.kp_p * clamp_scale(1.0 + tech.sigma_kp * g_kpp);
    let w_scale = clamp_scale(1.0 + tech.sigma_w * g_w);
    t.unit_wn = tech.unit_wn * w_scale;
    t.unit_wp = tech.unit_wp * w_scale;
    (t, w_scale)
}

/// The shared prefix of every trial's store key: the `mct1` tag and
/// everything a trial's result depends on except the trial index, which
/// [`trial_key`] appends. Equal prefixes mean equal sweeps, so a warm
/// rerun of the same sweep hits every record.
fn mc_key_prefix(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    opts: &McOptions,
) -> Vec<u8> {
    let mut transitions_digest = Fnv1a::default();
    for tr in transitions {
        for &l in tr.from.iter().chain(&tr.to) {
            transitions_digest.write(&[record::level(l)]);
        }
        transitions_digest.write(&[0xFF]);
    }
    let probes_digest = probes.map_or(u64::MAX, |p| {
        let mut h = Fnv1a::default();
        for n in p {
            h.write_u64(n.index() as u64);
        }
        h.finish()
    });
    let mut prefix = Vec::with_capacity(96);
    prefix.extend_from_slice(record::TRIAL_TAG);
    prefix.extend_from_slice(&netlist.fingerprint().to_le_bytes());
    prefix.extend_from_slice(&tech.fingerprint().to_le_bytes());
    prefix.extend_from_slice(&(transitions.len() as u64).to_le_bytes());
    prefix.extend_from_slice(&transitions_digest.finish().to_le_bytes());
    prefix.extend_from_slice(&probes_digest.to_le_bytes());
    prefix.extend_from_slice(&opts.seed.to_le_bytes());
    prefix.extend_from_slice(&opts.w_over_l.to_bits().to_le_bytes());
    prefix.extend_from_slice(&opts.target.to_bits().to_le_bytes());
    prefix.extend_from_slice(&(opts.widths.len() as u32).to_le_bytes());
    for &w in &opts.widths {
        prefix.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    prefix.extend_from_slice(&record::sim_key(&opts.base));
    prefix
}

/// The store key of trial `index` of the sweep keyed by `prefix`.
fn trial_key(prefix: &[u8], index: usize) -> Vec<u8> {
    [prefix, &(index as u64).to_le_bytes()].concat()
}

/// Byte encoding of one stored trial: the sample, the retry flag, and
/// the [`RunHealth`] counters.
pub(crate) fn encode_trial(sample: &TrialSample, retried: bool, run: &RunHealth) -> Vec<u8> {
    let n = sample.pass_at_width.len();
    let mut out = Vec::with_capacity(21 + n + record::HEALTH_LEN);
    out.extend_from_slice(&sample.degradation.to_bits().to_le_bytes());
    out.extend_from_slice(&sample.bounce.to_bits().to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend(sample.pass_at_width.iter().map(|&p| p as u8));
    out.push(retried as u8);
    record::put_health(&mut out, run);
    out
}

/// Inverse of [`encode_trial`], with `from_store` set. `None` on any
/// length or flag mismatch — a malformed record is a miss, never served.
pub(crate) fn decode_trial(bytes: &[u8]) -> Option<(TrialSample, bool, RunHealth)> {
    let mut r = record::Reader::new(bytes);
    let degradation = r.f64()?;
    let bounce = r.f64()?;
    let pass_at_width = (0..r.count(1)?).map(|_| r.flag()).collect::<Option<_>>()?;
    let sample = TrialSample {
        degradation,
        bounce,
        pass_at_width,
        from_store: true,
    };
    let (retried, run) = (r.flag()?, r.health()?);
    r.end((sample, retried, run))
}

/// Everything the trials of one [`run_mc`] sweep share: the design,
/// its transitions and probes, the options, the fault plan, and the
/// store with the sweep's key prefix.
struct McSweep<'a> {
    netlist: &'a Netlist,
    tech: &'a Technology,
    transitions: &'a [Transition],
    probes: Option<&'a [NetId]>,
    opts: &'a McOptions,
    fault: &'a FaultPlan,
    store: Option<&'a mtk_store::Store>,
    key_prefix: Vec<u8>,
}

impl McSweep<'_> {
    /// One attempt at trial `index` under `base`, the trial's simulator
    /// options at this attempt's breakpoint budget.
    fn attempt(
        &self,
        base: &VbsimOptions,
        index: usize,
        scratch: &mut VbsimScratch,
        run: &mut RunHealth,
        stats: &mut WorkerStats,
    ) -> Result<TrialSample, CoreError> {
        let opts = self.opts;
        let mut rng = Xoshiro256pp::stream(opts.seed, index as u64);
        let (tech_p, w_scale) = perturb_technology(self.tech, &mut rng);
        let engine = Engine::new(self.netlist, &tech_p);
        let outputs = probe_nets(self.netlist, self.probes);
        let leg_opts = |sleep: SleepNetwork| VbsimOptions {
            sleep,
            ..base.clone()
        };
        let mt_opts = |w: f64| {
            leg_opts(SleepNetwork::Transistor {
                w_over_l: w * w_scale,
            })
        };
        let mut worst_nominal: Option<f64> = None;
        let mut worst_bounce = 0.0f64;
        let mut worst_at_width: Vec<Option<f64>> = vec![None; opts.widths.len()];
        let fold = |acc: &mut Option<f64>, d: f64| {
            *acc = Some(acc.map_or(d, |a| a.max(d)));
        };
        // One leg, counted like a screening leg: an overflowing run's
        // cost still counts.
        let mut leg = |tr: &Transition, opts: &VbsimOptions| {
            let leg = engine
                .run_summary_with(&tr.from, &tr.to, None, &outputs, opts, scratch)
                .inspect_err(|e| charge_overflow(e, opts.max_events, run, stats))?;
            run.absorb(&leg.health);
            stats.breakpoints += leg.health.breakpoints as u64;
            Ok::<_, CoreError>(leg)
        };
        for tr in self.transitions {
            let cmos = leg(tr, &leg_opts(SleepNetwork::Cmos))?;
            let Some(d_cmos) = latest_crossing(&cmos.crossings) else {
                // The transition never switches a probe; nothing to degrade.
                continue;
            };
            let nominal = leg(tr, &mt_opts(opts.w_over_l))?;
            let d_nominal = leg_degradation(d_cmos, &cmos.crossings, &nominal);
            fold(&mut worst_nominal, d_nominal);
            worst_bounce = worst_bounce.max(nominal.peak_vgnd);
            for (i, &w) in opts.widths.iter().enumerate() {
                // The nominal-width leg doubles as its curve point.
                let d = if w == opts.w_over_l {
                    d_nominal
                } else {
                    leg_degradation(d_cmos, &cmos.crossings, &leg(tr, &mt_opts(w))?)
                };
                fold(&mut worst_at_width[i], d);
            }
        }
        Ok(TrialSample {
            degradation: worst_nominal.unwrap_or(0.0),
            bounce: worst_bounce,
            pass_at_width: worst_at_width
                .iter()
                .map(|d| d.unwrap_or(0.0) <= opts.target)
                .collect(),
            from_store: false,
        })
    }

    /// Trial `index` as one work item: a stored trial replays with its
    /// retry flag and health; otherwise the trial runs under the retry
    /// ladder and a completed one is written through
    /// ([`record::through`]). A failed trial is never stored.
    fn item(
        &self,
        scratch: &mut VbsimScratch,
        index: usize,
        stats: &mut WorkerStats,
    ) -> ItemReport<TrialSample> {
        stats.vectors += 1;
        let found = record::through(
            self.store,
            &trial_key(&self.key_prefix, index),
            decode_trial,
            || {
                let report = retry_item(index, self.fault, &self.opts.base, |_, base, run| {
                    self.attempt(base, index, scratch, run, stats)
                });
                match report.value {
                    Ok(sample) => Ok((sample, report.retried, report.run)),
                    Err(e) => Err(ItemReport {
                        value: Err(e),
                        ..report
                    }),
                }
            },
            |(sample, retried, run)| encode_trial(sample, *retried, run),
        );
        match found {
            Ok(((sample, retried, run), _)) => ItemReport {
                value: Ok(sample),
                retried,
                run,
            },
            Err(failed) => failed,
        }
    }
}

/// Result of one [`run_mc`] sweep.
#[derive(Debug)]
pub struct McReport {
    /// Per-trial samples, indexed by trial; `None` = quarantined.
    pub samples: Vec<Option<TrialSample>>,
    /// The yield-curve widths the samples were measured at.
    pub widths: Vec<f64>,
    /// The pass criterion the samples were judged against.
    pub target: f64,
    /// Sweep-level health (quarantine, retries, summed run counters).
    pub health: SweepHealth,
    /// Per-worker cost counters.
    pub workers: Vec<WorkerStats>,
    /// End-to-end wall time, seconds.
    pub wall: f64,
}

/// A degradation as basis points (`0.05` → 500), saturating: a stalled
/// trial (infinite degradation) reports `u64::MAX`.
pub fn degradation_bp(d: f64) -> u64 {
    saturating_units(d, 1e4)
}

/// A bounce voltage as whole microvolts, saturating like
/// [`degradation_bp`].
pub fn bounce_uv(v: f64) -> u64 {
    saturating_units(v, 1e6)
}

/// `x · scale` rounded to a whole count (negative `x` counts 0), and
/// `u64::MAX` for a non-finite `x` or a count past it (`as` saturates).
fn saturating_units(x: f64, scale: f64) -> u64 {
    if x.is_finite() {
        (x.max(0.0) * scale).round() as u64
    } else {
        u64::MAX
    }
}

/// Nearest-rank percentile of an unsorted sample set (`0` when empty).
fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl McReport {
    /// The completed samples, trial-index-ordered.
    pub fn completed(&self) -> impl Iterator<Item = &TrialSample> {
        self.samples.iter().flatten()
    }

    /// Trials whose nominal-width degradation meets the target.
    pub fn passed(&self) -> usize {
        self.completed()
            .filter(|s| s.degradation <= self.target)
            .count()
    }

    /// Trials replayed from the persistent store.
    pub fn store_hits(&self) -> usize {
        self.completed().filter(|s| s.from_store).count()
    }

    /// Trials that had to be simulated (zero on a fully warm rerun).
    pub fn store_misses(&self) -> usize {
        self.completed().count() - self.store_hits()
    }

    /// Pass rate per sleep width: `(w_over_l, fraction of completed
    /// trials within target)` — the paper's sizing criterion as a yield
    /// curve under process variation.
    pub fn yield_curve(&self) -> Vec<(f64, f64)> {
        let n = self.completed().count();
        self.widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let pass = self
                    .completed()
                    .filter(|s| s.pass_at_width.get(i).copied().unwrap_or(false))
                    .count();
                (w, if n == 0 { 0.0 } else { pass as f64 / n as f64 })
            })
            .collect()
    }

    /// Nearest-rank percentile of the nominal-width degradation
    /// distribution, in basis points.
    pub fn degradation_percentile_bp(&self, p: f64) -> u64 {
        let values: Vec<u64> = self
            .completed()
            .map(|s| degradation_bp(s.degradation))
            .collect();
        percentile(&values, p)
    }

    /// Nearest-rank percentile of the bounce distribution, microvolts.
    pub fn bounce_percentile_uv(&self, p: f64) -> u64 {
        let values: Vec<u64> = self.completed().map(|s| bounce_uv(s.bounce)).collect();
        percentile(&values, p)
    }

    /// This sweep as one phase of a [`mtk_trace::TraceReport`]: the
    /// sweep health plus the Monte Carlo counters, store traffic, and
    /// the degradation (basis points) and bounce (millivolts)
    /// distribution histograms.
    pub fn to_phase(&self, name: &str) -> PhaseTrace {
        let mut phase = self.health.phase(name).with_wall(self.wall);
        phase.workers = crate::par::worker_traces(&self.workers);
        phase
            .counters
            .add(CounterId::McTrials, self.samples.len() as u64);
        phase
            .counters
            .add(CounterId::McPassed, self.passed() as u64);
        phase
            .counters
            .add(CounterId::McP50DegrBp, self.degradation_percentile_bp(50.0));
        phase
            .counters
            .add(CounterId::McP95DegrBp, self.degradation_percentile_bp(95.0));
        phase
            .counters
            .add(CounterId::McP99DegrBp, self.degradation_percentile_bp(99.0));
        phase
            .counters
            .add(CounterId::McP99BounceUv, self.bounce_percentile_uv(99.0));
        phase
            .counters
            .add(CounterId::StoreHits, self.store_hits() as u64);
        phase
            .counters
            .add(CounterId::StoreMisses, self.store_misses() as u64);
        let mut degr = Histogram::new();
        let mut bounce = Histogram::new();
        for s in self.completed() {
            degr.record(degradation_bp(s.degradation));
            bounce.record(bounce_uv(s.bounce) / 1000);
        }
        phase.extra_histograms = vec![
            ("mc_degradation_bp".to_string(), degr),
            ("mc_bounce_mv".to_string(), bounce),
        ];
        phase
    }
}

/// Runs a Monte Carlo sweep: `opts.trials` perturbed copies of the
/// technology, each re-measured over the transitions, sharded across
/// `opts.threads` workers. See the module docs for the determinism and
/// store contracts.
///
/// # Errors
///
/// * [`CoreError::InvalidOptions`] on zero trials or non-finite /
///   non-positive widths and targets.
/// * Under [`FailurePolicy::FailFast`], the first failing trial's error
///   (lowest-indexed, deterministically).
/// * Under [`FailurePolicy::Quarantine`],
///   [`CoreError::TooManyFailures`] when the cap is exceeded.
pub fn run_mc(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    opts: &McOptions,
    store: Option<&mtk_store::Store>,
    fault: &FaultPlan,
) -> Result<McReport, CoreError> {
    if opts.trials == 0 {
        return Err(CoreError::InvalidOptions(
            "mc needs at least one trial".into(),
        ));
    }
    if !(opts.target.is_finite() && opts.target >= 0.0) {
        return Err(CoreError::InvalidOptions(format!(
            "mc target must be finite and non-negative, got {}",
            opts.target
        )));
    }
    for &w in opts.widths.iter().chain([&opts.w_over_l]) {
        require_sleep_size(w)?;
    }
    let t0 = Instant::now();
    let sweep = McSweep {
        netlist,
        tech,
        transitions,
        probes,
        opts,
        fault,
        store,
        key_prefix: mc_key_prefix(netlist, tech, transitions, probes, opts),
    };
    let items: Vec<usize> = (0..opts.trials).collect();
    let (reports, workers) = try_parallel_map_with(
        opts.threads,
        4,
        &items,
        VbsimScratch::new,
        |scratch, index, _trial, stats| sweep.item(scratch, index, stats),
    );
    let (samples, health) = fold_item_reports(reports, opts.policy)?;
    Ok(McReport {
        samples,
        widths: opts.widths.clone(),
        target: opts.target,
        health,
        workers,
        wall: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::tree::InverterTree;
    use mtk_netlist::logic::Logic;

    fn tech_with_sigmas() -> Technology {
        Technology {
            sigma_vt: 0.03,
            sigma_kp: 0.05,
            sigma_w: 0.04,
            ..Technology::l07()
        }
    }

    fn small_opts(trials: usize, threads: usize) -> McOptions {
        McOptions {
            trials,
            threads,
            w_over_l: 10.0,
            widths: vec![2.0, 10.0, 50.0],
            ..McOptions::default()
        }
    }

    fn tree_transitions() -> Vec<Transition> {
        vec![
            Transition::new(vec![Logic::Zero], vec![Logic::One]),
            Transition::new(vec![Logic::One], vec![Logic::Zero]),
        ]
    }

    #[test]
    fn perturbation_draws_exactly_six_gaussians_and_respects_sigmas() {
        let tech = tech_with_sigmas();
        let mut rng = Xoshiro256pp::stream(7, 3);
        let (p, w_scale) = perturb_technology(&tech, &mut rng);
        // Same stream, six manual draws: the next value after perturb
        // must equal the seventh draw of a fresh stream.
        let mut probe = Xoshiro256pp::stream(7, 3);
        for _ in 0..6 {
            probe.next_gaussian();
        }
        assert_eq!(rng.next_u64(), probe.next_u64());
        assert_ne!(p.fingerprint(), tech.fingerprint());
        assert!(p.vtn > 0.0 && p.vt_high < p.vdd);
        assert!(p.kp_n > 0.0 && p.kp_p > 0.0);
        assert!(w_scale > 0.0);
        // Width variation moves both unit widths by the same factor.
        assert!((p.unit_wn / tech.unit_wn - w_scale).abs() < 1e-12);
        assert!((p.unit_wp / tech.unit_wp - w_scale).abs() < 1e-12);
    }

    #[test]
    fn zero_sigmas_perturb_to_the_identical_technology() {
        let tech = Technology::l07();
        let mut rng = Xoshiro256pp::stream(1, 0);
        let (p, w_scale) = perturb_technology(&tech, &mut rng);
        assert_eq!(p.fingerprint(), tech.fingerprint());
        assert_eq!(w_scale, 1.0);
    }

    #[test]
    fn mc_is_deterministic_across_thread_counts() {
        let tree = InverterTree::paper();
        let tech = tech_with_sigmas();
        let transitions = tree_transitions();
        let opts1 = small_opts(32, 1);
        let r1 = run_mc(
            &tree.netlist,
            &tech,
            &transitions,
            None,
            &opts1,
            None,
            &FaultPlan::none(),
        )
        .unwrap();
        for threads in [2, 8] {
            let opts = McOptions {
                threads,
                ..opts1.clone()
            };
            let r = run_mc(
                &tree.netlist,
                &tech,
                &transitions,
                None,
                &opts,
                None,
                &FaultPlan::none(),
            )
            .unwrap();
            assert_eq!(r.samples, r1.samples, "threads={threads}");
            assert_eq!(r.yield_curve(), r1.yield_curve());
            assert_eq!(
                r.to_phase("mc").counters.iter().collect::<Vec<_>>(),
                r1.to_phase("mc").counters.iter().collect::<Vec<_>>()
            );
        }
        // The sweep actually measured something.
        assert_eq!(r1.samples.len(), 32);
        assert!(r1.completed().count() == 32);
        assert!(r1.completed().any(|s| s.degradation > 0.0));
        // Yield is monotone in sleep width on this circuit: a wider
        // device can only help.
        let curve = r1.yield_curve();
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1), "{curve:?}");
    }

    #[test]
    fn variation_widens_the_distribution_but_typ_trials_agree() {
        let tree = InverterTree::paper();
        let transitions = tree_transitions();
        // With zero sigmas every trial measures the nominal circuit, so
        // the distribution collapses to a point.
        let tech0 = Technology::l07();
        let opts = small_opts(12, 2);
        let r0 = run_mc(
            &tree.netlist,
            &tech0,
            &transitions,
            None,
            &opts,
            None,
            &FaultPlan::none(),
        )
        .unwrap();
        let d0: Vec<u64> = r0
            .completed()
            .map(|s| degradation_bp(s.degradation))
            .collect();
        assert!(d0.windows(2).all(|w| w[0] == w[1]), "{d0:?}");
        assert_eq!(
            r0.degradation_percentile_bp(50.0),
            r0.degradation_percentile_bp(99.0)
        );
        // With sigmas the same seed produces a spread.
        let r1 = run_mc(
            &tree.netlist,
            &tech_with_sigmas(),
            &transitions,
            None,
            &opts,
            None,
            &FaultPlan::none(),
        )
        .unwrap();
        let d1: Vec<u64> = r1
            .completed()
            .map(|s| degradation_bp(s.degradation))
            .collect();
        assert!(d1.iter().any(|&d| d != d1[0]), "{d1:?}");
    }

    #[test]
    fn warm_store_rerun_replays_every_trial_without_simulating() {
        let dir = std::env::temp_dir().join(format!("mtk_mc_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mc.log");
        let tree = InverterTree::paper();
        let tech = tech_with_sigmas();
        let transitions = tree_transitions();
        let opts = small_opts(16, 2);
        let cold = {
            let store = mtk_store::Store::open(&path).unwrap();
            run_mc(
                &tree.netlist,
                &tech,
                &transitions,
                None,
                &opts,
                Some(&store),
                &FaultPlan::none(),
            )
            .unwrap()
        };
        assert_eq!(cold.store_hits(), 0);
        assert_eq!(cold.store_misses(), 16);
        let warm = {
            let store = mtk_store::Store::open(&path).unwrap();
            run_mc(
                &tree.netlist,
                &tech,
                &transitions,
                None,
                &opts,
                Some(&store),
                &FaultPlan::none(),
            )
            .unwrap()
        };
        assert_eq!(warm.store_hits(), 16, "every trial must replay");
        assert_eq!(warm.store_misses(), 0);
        // Samples agree except for provenance, and the deterministic
        // telemetry (health counters, histograms) is bit-identical
        // because the stored RunHealth replays.
        let strip = |r: &McReport| -> Vec<TrialSample> {
            r.completed()
                .map(|s| TrialSample {
                    from_store: false,
                    ..s.clone()
                })
                .collect()
        };
        assert_eq!(strip(&warm), strip(&cold));
        assert_eq!(warm.health.runs.breakpoints, cold.health.runs.breakpoints);
        // A different seed misses: trials are keyed by their stream.
        let reseeded = McOptions {
            seed: opts.seed + 1,
            ..opts.clone()
        };
        let store = mtk_store::Store::open(&path).unwrap();
        let other = run_mc(
            &tree.netlist,
            &tech,
            &transitions,
            None,
            &reseeded,
            Some(&store),
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(other.store_hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_route_through_quarantine_and_retry_like_every_sweep() {
        let tree = InverterTree::paper();
        let tech = tech_with_sigmas();
        let transitions = tree_transitions();
        let opts = McOptions {
            policy: FailurePolicy::quarantine(4),
            ..small_opts(8, 2)
        };
        let fault = FaultPlan {
            error_at: vec![1],
            panic_at: vec![5],
            ..FaultPlan::none()
        };
        let r = run_mc(
            &tree.netlist,
            &tech,
            &transitions,
            None,
            &opts,
            None,
            &fault,
        )
        .unwrap();
        assert_eq!(r.health.quarantined_indices(), vec![1, 5]);
        assert_eq!(r.health.panics_recovered, 1);
        assert!(r.samples[1].is_none() && r.samples[5].is_none());
        assert_eq!(r.completed().count(), 6);
        // A transient overflow retries and succeeds without quarantine.
        let fault = FaultPlan {
            overflow_at: vec![2],
            ..FaultPlan::none()
        };
        let r = run_mc(
            &tree.netlist,
            &tech,
            &transitions,
            None,
            &opts,
            None,
            &fault,
        )
        .unwrap();
        assert_eq!(r.health.retries, 1);
        assert_eq!(r.health.retry_successes, 1);
        assert!(r.health.quarantined.is_empty());
        assert_eq!(r.completed().count(), 8);
    }

    #[test]
    fn invalid_options_are_rejected_up_front() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let transitions = tree_transitions();
        let bad = [
            McOptions {
                trials: 0,
                ..McOptions::default()
            },
            McOptions {
                target: f64::NAN,
                ..McOptions::default()
            },
            McOptions {
                w_over_l: 0.0,
                ..McOptions::default()
            },
            McOptions {
                widths: vec![10.0, f64::INFINITY],
                ..McOptions::default()
            },
        ];
        for opts in bad {
            let r = run_mc(
                &tree.netlist,
                &tech,
                &transitions,
                None,
                &opts,
                None,
                &FaultPlan::none(),
            );
            assert!(matches!(r, Err(CoreError::InvalidOptions(_))), "{opts:?}");
        }
    }

    #[test]
    fn percentiles_and_units_saturate_sanely() {
        assert_eq!(degradation_bp(0.05), 500);
        assert_eq!(degradation_bp(f64::INFINITY), u64::MAX);
        assert_eq!(degradation_bp(-0.01), 0);
        assert_eq!(bounce_uv(0.0521), 52_100);
        // A count past `u64::MAX`, and a NaN, saturate too.
        assert_eq!(degradation_bp(f64::NAN), u64::MAX);
        assert_eq!(degradation_bp(1e300), u64::MAX);
        assert_eq!(bounce_uv(f64::MAX), u64::MAX);
        assert_eq!(bounce_uv(1.8e13), 18_000_000_000_000_000_000);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let vals: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&vals, 50.0), 50);
        assert_eq!(percentile(&vals, 99.0), 99);
        assert_eq!(percentile(&vals, 100.0), 100);
    }
}
