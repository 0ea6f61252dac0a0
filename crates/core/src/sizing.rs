//! The sleep-transistor sizing methodology.
//!
//! The paper's flow (§4–§5): the switch-level simulator rapidly computes
//! MTCMOS delay degradation over a *large* input-vector space, the worst
//! vectors are identified, and the sleep transistor is sized so the worst
//! degradation meets a target. Two conservative baselines the paper
//! criticises are also implemented: sizing from the sum of internal NMOS
//! widths, and sizing from the worst-case peak current (§4: "almost three
//! times larger than necessary").
//!
//! Five sweep entry points cover the four operations: one delay pair
//! ([`vbsim_delay_pair`], [`vbsim_delay_pair_cached`]), a size sweep of
//! one transition ([`degradation_sweep_cached`]), the screen
//! ([`screen_vectors_par_quarantined`]) and sizing to a target
//! ([`size_for_target_cached`]).

use crate::health::{charge_overflow, fold_item_reports, retry_item, FailurePolicy, FaultPlan};
use crate::health::{RunHealth, SweepHealth};
use crate::par::{try_parallel_map_with, WorkerStats};
use crate::record::{self, Source};
use crate::vbsim::{latest_crossing, mtcmos_delay, Engine, RunSummary, SleepNetwork};
use crate::vbsim::{VbsimOptions, VbsimScratch};
use crate::CoreError;
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;
use std::time::Instant;

/// One input-vector transition, as primary-input logic levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Settled levels before the step.
    pub from: Vec<Logic>,
    /// Levels after the step at `t = 0`.
    pub to: Vec<Logic>,
}

impl Transition {
    /// Creates a transition.
    pub fn new(from: Vec<Logic>, to: Vec<Logic>) -> Self {
        Transition { from, to }
    }
}

/// A CMOS-vs-MTCMOS delay pair for one transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPair {
    /// Baseline delay with no sleep device, seconds.
    pub cmos: f64,
    /// Delay through the sized sleep device, seconds.
    pub mtcmos: f64,
}

impl DelayPair {
    /// Fractional degradation `(mtcmos − cmos) / cmos`.
    ///
    /// A zero (or negative) baseline is a broken measurement, not "no
    /// degradation": if the MTCMOS leg still took time, the degradation
    /// is reported as `f64::INFINITY` so sizing treats the pair as
    /// worst-case instead of silently ranking it harmless. Only when
    /// both legs are ≤ 0 (nothing switched in either) is it 0.
    pub fn degradation(&self) -> f64 {
        if self.cmos > 0.0 {
            (self.mtcmos - self.cmos) / self.cmos
        } else if self.mtcmos > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// Measures the CMOS and MTCMOS delays of one transition with the
/// switch-level simulator. `probes` restricts the delay measurement
/// (`None` = the netlist's primary outputs). Returns `None` when no
/// probed net switches (the transition does not exercise the probes).
///
/// A stalled MTCMOS run reports `f64::INFINITY` delay.
///
/// # Errors
///
/// Propagates simulator errors ([`CoreError`]).
pub fn vbsim_delay_pair(
    engine: &Engine<'_>,
    tr: &Transition,
    probes: Option<&[NetId]>,
    sleep: SleepNetwork,
    base: &VbsimOptions,
) -> Result<Option<DelayPair>, CoreError> {
    let mut scratch = VbsimScratch::new();
    delay_pair(engine, tr, probes, sleep, base, None, &mut scratch).map(|(p, _)| p)
}

/// [`vbsim_delay_pair`] through a [`ScreeningCache`]: each of the two
/// legs is served from the cache when an identical leg was measured
/// before. The returned pair is bit-identical to the uncached call; the
/// returned health is the summed [`RunHealth`] of both legs plus
/// [`RunHealth::cache_hits`] / [`RunHealth::cache_misses`] for the legs
/// this call needed.
///
/// # Errors
///
/// As [`vbsim_delay_pair`].
pub fn vbsim_delay_pair_cached(
    engine: &Engine<'_>,
    tr: &Transition,
    probes: Option<&[NetId]>,
    sleep: SleepNetwork,
    base: &VbsimOptions,
    cache: &ScreeningCache,
) -> Result<(Option<DelayPair>, RunHealth), CoreError> {
    let mut scratch = VbsimScratch::new();
    delay_pair(engine, tr, probes, sleep, base, Some(cache), &mut scratch)
}

/// The delay pair of one transition plus the summed [`RunHealth`] of its
/// legs, with caller-owned simulator scratch (see [`Engine::run_with`])
/// so a sweep allocates nothing per measurement. The legs come from
/// `cache` when there is one — its per-leg hit/miss counts then join the
/// health — and straight from the simulator otherwise. The pair is
/// bit-identical either way, and to a fresh scratch.
pub(crate) fn delay_pair(
    engine: &Engine<'_>,
    tr: &Transition,
    probes: Option<&[NetId]>,
    sleep: SleepNetwork,
    base: &VbsimOptions,
    cache: Option<&ScreeningCache>,
    scratch: &mut VbsimScratch,
) -> Result<(Option<DelayPair>, RunHealth), CoreError> {
    let outputs = probe_nets(engine.netlist(), probes);
    let mut counts = RunHealth::default();
    let mut leg = |sleep: SleepNetwork, scratch: &mut VbsimScratch| match cache {
        None => run_leg(engine, tr, &outputs, &leg_options(sleep, base), scratch),
        Some(cache) => {
            let (leg, hit) = cache.leg(engine, tr, &outputs, sleep, base, scratch)?;
            if hit {
                counts.cache_hits += 1;
            } else {
                counts.cache_misses += 1;
            }
            Ok(leg)
        }
    };
    let cmos = leg(SleepNetwork::Cmos, scratch)?;
    let mut health = cmos.health;
    let pair = match latest_crossing(&cmos.crossings) {
        None => None,
        Some(d_cmos) => {
            // Probes that crossed in the baseline but never under MTCMOS
            // stalled: `mtcmos_delay` scores them infinite.
            let mt = leg(sleep, scratch)?;
            health.absorb(&mt.health);
            Some(DelayPair {
                cmos: d_cmos,
                mtcmos: mtcmos_delay(
                    d_cmos,
                    &cmos.crossings,
                    &mt.crossings,
                    mt.stalled,
                    mt.truncated,
                ),
            })
        }
    };
    health.absorb(&counts);
    Ok((pair, health))
}

/// The degradation of one MTCMOS leg summary against its CMOS baseline
/// crossings, whose latest is `d_cmos`, scored as every delay pair is
/// ([`mtcmos_delay`], [`DelayPair::degradation`]).
pub(crate) fn leg_degradation(d_cmos: f64, baseline: &[Option<f64>], mt: &RunSummary) -> f64 {
    let d_mt = mtcmos_delay(d_cmos, baseline, &mt.crossings, mt.stalled, mt.truncated);
    DelayPair {
        cmos: d_cmos,
        mtcmos: d_mt,
    }
    .degradation()
}

/// The nets a delay measurement probes: `probes`, or the netlist's
/// primary outputs when `None`.
pub(crate) fn probe_nets(netlist: &Netlist, probes: Option<&[NetId]>) -> Vec<NetId> {
    probes.unwrap_or(netlist.primary_outputs()).to_vec()
}

/// The caller's base options with one leg's sleep network swapped in.
fn leg_options(sleep: SleepNetwork, base: &VbsimOptions) -> VbsimOptions {
    VbsimOptions {
        sleep,
        ..base.clone()
    }
}

/// Everything delay extraction needs from one simulator leg (one engine
/// run at one sleep configuration) — the unit a [`ScreeningCache`]
/// stores. Keeping the *stored* [`RunHealth`] alongside the crossings is
/// what makes cached reruns bit-identical: a cache hit replays the
/// original run's telemetry instead of re-measuring it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LegResult {
    /// Per-probe last V<sub>dd</sub>/2 crossing time, index-aligned with
    /// the probe list; `None` when that probe never switched.
    pub(crate) crossings: Vec<Option<f64>>,
    /// The run stalled (a discharge path was cut off by the sleep device).
    pub(crate) stalled: bool,
    /// The run hit its breakpoint budget before settling.
    pub(crate) truncated: bool,
    /// The run's own health counters.
    pub(crate) health: RunHealth,
}

/// Runs one leg through the simulator's summary recorder: the probes'
/// crossings, flags and health are all sizing reads, so no waveform is
/// built.
fn run_leg(
    engine: &Engine<'_>,
    tr: &Transition,
    outputs: &[NetId],
    opts: &VbsimOptions,
    scratch: &mut VbsimScratch,
) -> Result<LegResult, CoreError> {
    let run = engine.run_summary_with(&tr.from, &tr.to, None, outputs, opts, scratch)?;
    Ok(LegResult {
        crossings: run.crossings,
        stalled: run.stalled,
        truncated: run.truncated,
        health: run.health,
    })
}

impl LegResult {
    /// Byte encoding of one stored leg: crossings (presence byte +
    /// `f64::to_bits`), flags, then the [`RunHealth`] counters.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.crossings.len() * 9 + record::HEALTH_LEN);
        out.extend_from_slice(&(self.crossings.len() as u32).to_le_bytes());
        for c in &self.crossings {
            out.push(c.is_some() as u8);
            out.extend_from_slice(&c.unwrap_or(0.0).to_bits().to_le_bytes());
        }
        out.push(self.stalled as u8);
        out.push(self.truncated as u8);
        record::put_health(&mut out, &self.health);
        out
    }

    /// Inverse of [`LegResult::encode`]. Returns `None` on any length or
    /// flag mismatch — a malformed record is treated as a cache miss,
    /// never served.
    pub(crate) fn decode(bytes: &[u8]) -> Option<LegResult> {
        let mut r = record::Reader::new(bytes);
        let n = r.count(9)?;
        let mut crossings = Vec::with_capacity(n);
        for _ in 0..n {
            crossings.push(r.flag()?.then_some(r.f64()?));
        }
        let leg = LegResult {
            crossings,
            stalled: r.flag()?,
            truncated: r.flag()?,
            health: r.health()?,
        };
        r.end(leg)
    }
}

/// The exact inputs that determine one leg's result, as the bytes that
/// key it in a [`ScreeningCache`] and in a persistent store: the `leg1`
/// tag, the netlist and technology fingerprints (the engine's
/// [`Engine::tech_stamp`] — the same netlist under different process
/// parameters must not share legs), the probes, the transition, the
/// sleep network (discriminant plus the parameter's bits, 0 for CMOS),
/// and every [`VbsimOptions`] field the simulator reads, little-endian
/// with length-prefixed variable parts. Two legs with equal keys produce
/// bit-identical [`LegResult`]s, so a lookup can stand in for a
/// re-simulation.
fn leg_key(
    engine: &Engine<'_>,
    outputs: &[NetId],
    tr: &Transition,
    sleep: SleepNetwork,
    base: &VbsimOptions,
) -> Vec<u8> {
    fn levels(out: &mut Vec<u8>, side: &[Logic]) {
        out.extend_from_slice(&(side.len() as u32).to_le_bytes());
        out.extend(side.iter().map(|&l| record::level(l)));
    }
    let (tag, param) = match sleep {
        SleepNetwork::Cmos => (0u8, 0),
        SleepNetwork::Resistance(r) => (1, r.to_bits()),
        SleepNetwork::Transistor { w_over_l } => (2, w_over_l.to_bits()),
    };
    // Fixed fields: tag 4, fingerprints 16, three lengths 12, sleep 9,
    // simulator options 18.
    let len = 59 + 8 * outputs.len() + tr.from.len() + tr.to.len();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(record::LEG_TAG);
    out.extend_from_slice(&engine.fingerprint().to_le_bytes());
    out.extend_from_slice(&engine.tech_stamp().to_le_bytes());
    out.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
    for n in outputs {
        out.extend_from_slice(&(n.index() as u64).to_le_bytes());
    }
    levels(&mut out, &tr.from);
    levels(&mut out, &tr.to);
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
    out.extend_from_slice(&record::sim_key(base));
    debug_assert_eq!(out.len(), len);
    out
}

/// A deterministic memo of switch-level simulator legs, keyed by
/// everything that determines a leg's result (the bytes of its `leg1`
/// store key, hashed with [`mtk_store::word_hash`]). The sizing
/// entry points (`*_cached`) consult it before simulating, so a
/// bisection that probes the same transition at many sleep sizes pays
/// for its CMOS baseline once, and a repeated sweep pays for nothing.
///
/// Determinism contract: a hit returns the *stored* `LegResult` —
/// crossings **and** [`RunHealth`] — so warm reruns are bit-identical to
/// cold ones, including aggregated telemetry. Hit/miss totals are
/// exposed here and per-call in [`RunHealth::cache_hits`] /
/// [`RunHealth::cache_misses`]. The cache is `Sync`, but the counters
/// are only schedule-independent when each key is driven from one
/// thread (the serial sizing loops); racing computes of the same key
/// stay correct but may double-count misses.
///
/// # Persistence
///
/// By default the memo is in-memory only and dies with the process.
/// [`ScreeningCache::with_store`] / [`ScreeningCache::persistent`]
/// attach a crash-safe [`mtk_store::Store`] tier consulted between the
/// memory map and the simulator: a store hit decodes the stored leg
/// (replaying its [`RunHealth`] bit-identically, exactly like a memory
/// hit), and every simulated leg is written through. Store write
/// failures are counted ([`CacheSnapshot::store_put_errors`]), never
/// propagated — a broken disk degrades to an in-memory cache, it does
/// not fail sizing.
#[derive(Debug, Default)]
pub struct ScreeningCache {
    legs: std::sync::Mutex<std::collections::HashMap<Vec<u8>, LegResult, mtk_store::WordState>>,
    hits: std::sync::atomic::AtomicUsize,
    misses: std::sync::atomic::AtomicUsize,
    store: Option<mtk_store::Store>,
    store_hits: std::sync::atomic::AtomicUsize,
    store_misses: std::sync::atomic::AtomicUsize,
    store_put_errors: std::sync::atomic::AtomicUsize,
}

/// A point-in-time health snapshot of a [`ScreeningCache`], the unit
/// `mtk serve` reports in its status response. All counters are
/// **process-lifetime** (since the cache was constructed), except
/// [`CacheSnapshot::store`], which reflects the persistent log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Distinct legs in the in-memory map right now.
    pub legs: usize,
    /// Legs served from memory or store since construction.
    pub hits: usize,
    /// Legs simulated since construction.
    pub misses: usize,
    /// Legs decoded from the persistent store (subset of `hits`).
    pub store_hits: usize,
    /// Legs simulated because the attached store had no usable record.
    /// Zero when no store is attached.
    pub store_misses: usize,
    /// Store writes that failed and were swallowed (cache degraded to
    /// memory-only for those legs).
    pub store_put_errors: usize,
    /// Health of the attached persistent store, when there is one.
    pub store: Option<mtk_store::StoreStats>,
}

impl ScreeningCache {
    /// An empty in-memory cache (no persistence).
    pub fn new() -> Self {
        ScreeningCache::default()
    }

    /// An empty cache backed by an already-open persistent store.
    pub fn with_store(store: mtk_store::Store) -> Self {
        ScreeningCache {
            store: Some(store),
            ..ScreeningCache::default()
        }
    }

    /// Opens (or creates) the store log at `path` and attaches it.
    ///
    /// # Errors
    ///
    /// Any [`mtk_store::StoreError`] from [`mtk_store::Store::open`].
    pub fn persistent(path: impl AsRef<std::path::Path>) -> Result<Self, mtk_store::StoreError> {
        Ok(ScreeningCache::with_store(mtk_store::Store::open(path)?))
    }

    /// The attached persistent store, when there is one.
    pub fn store(&self) -> Option<&mtk_store::Store> {
        self.store.as_ref()
    }

    /// Total legs served from the cache (memory or store) since
    /// construction. **Process-lifetime**, not persistent: a new process
    /// starts at zero even when it reuses a store log.
    pub fn hits(&self) -> usize {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total legs simulated and inserted since construction
    /// (**process-lifetime**, like [`ScreeningCache::hits`]).
    pub fn misses(&self) -> usize {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of distinct legs in the in-memory map. Store records not
    /// yet touched by this process are not counted — see
    /// [`ScreeningCache::snapshot`] for the store's own occupancy.
    pub fn len(&self) -> usize {
        self.legs.lock().unwrap().len()
    }

    /// Whether the in-memory map holds no legs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent point-in-time health snapshot (occupancy, hit/miss
    /// totals, store tier) for status reporting.
    pub fn snapshot(&self) -> CacheSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        CacheSnapshot {
            legs: self.len(),
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            store_hits: self.store_hits.load(Relaxed),
            store_misses: self.store_misses.load(Relaxed),
            store_put_errors: self.store_put_errors.load(Relaxed),
            store: self.store.as_ref().map(|s| s.stats()),
        }
    }

    /// Looks up or computes one leg. The boolean reports a hit. Only
    /// successful runs are cached; errors always propagate fresh.
    fn leg(
        &self,
        engine: &Engine<'_>,
        tr: &Transition,
        outputs: &[NetId],
        sleep: SleepNetwork,
        base: &VbsimOptions,
        scratch: &mut VbsimScratch,
    ) -> Result<(LegResult, bool), CoreError> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = leg_key(engine, outputs, tr, sleep, base);
        if let Some(found) = self.legs.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Relaxed);
            return Ok((found, true));
        }
        // Then the persistent store, then the simulator — without
        // holding the lock: concurrent misses on the same key both
        // compute (identical results, so last-write-wins is harmless).
        let found = record::through(
            self.store.as_ref(),
            &key,
            LegResult::decode,
            || run_leg(engine, tr, outputs, &leg_options(sleep, base), scratch),
            LegResult::encode,
        );
        let from_store = matches!(found, Ok((_, Source::Stored)));
        if self.store.is_some() {
            let tier = if from_store {
                &self.store_hits
            } else {
                &self.store_misses
            };
            tier.fetch_add(1, Relaxed);
        }
        let (leg, source) = found?;
        match source {
            Source::Stored => &self.hits,
            Source::Computed => &self.misses,
            Source::PutFailed => {
                self.store_put_errors.fetch_add(1, Relaxed);
                &self.misses
            }
        }
        .fetch_add(1, Relaxed);
        self.legs.lock().unwrap().insert(key, leg.clone());
        Ok((leg, from_store))
    }
}

/// One leg through an optional borrowed store ([`record::through`]),
/// under the same `leg1` records a store-backed [`ScreeningCache`]
/// keeps: a stored leg replays with its stored health, a simulated one
/// is written through.
pub(crate) fn stored_leg(
    engine: &Engine<'_>,
    tr: &Transition,
    outputs: &[NetId],
    sleep: SleepNetwork,
    base: &VbsimOptions,
    store: Option<&mtk_store::Store>,
    scratch: &mut VbsimScratch,
) -> Result<(LegResult, Source), CoreError> {
    let key = leg_key(engine, outputs, tr, sleep, base);
    record::through(
        store,
        &key,
        LegResult::decode,
        || run_leg(engine, tr, outputs, &leg_options(sleep, base), scratch),
        LegResult::encode,
    )
}

/// One point of a sizing sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Sleep transistor W/L.
    pub w_over_l: f64,
    /// Delays at this size.
    pub delays: DelayPair,
}

/// Sweeps sleep-transistor sizes for one transition (the Fig 7 / Fig 10 /
/// Fig 13 x-axis) through a caller-owned [`ScreeningCache`]: the CMOS
/// baseline is simulated at most once, and legs already in the cache
/// (e.g. from a previous sweep of the same transition) are not rerun.
/// Sweep points are bit-identical to per-size [`vbsim_delay_pair`]
/// calls; the summed [`RunHealth`] reports the per-leg cache traffic.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn degradation_sweep_cached(
    engine: &Engine<'_>,
    tr: &Transition,
    probes: Option<&[NetId]>,
    sizes: &[f64],
    base: &VbsimOptions,
    cache: &ScreeningCache,
) -> Result<(Vec<SweepPoint>, RunHealth), CoreError> {
    let mut health = RunHealth::default();
    let mut out = Vec::with_capacity(sizes.len());
    let mut scratch = VbsimScratch::new();
    for &wl in sizes {
        let sleep = SleepNetwork::Transistor { w_over_l: wl };
        let (pair, h) = delay_pair(engine, tr, probes, sleep, base, Some(cache), &mut scratch)?;
        health.absorb(&h);
        if let Some(delays) = pair {
            out.push(SweepPoint {
                w_over_l: wl,
                delays,
            });
        }
    }
    Ok((out, health))
}

/// A screened vector: its index in the caller's transition list and its
/// measured delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenedVector {
    /// Index into the transition slice passed to
    /// [`screen_vectors_par_quarantined`].
    pub index: usize,
    /// Delays at the screening size.
    pub delays: DelayPair,
}

/// Execution report of one [`screen_vectors_par_quarantined`] call.
#[derive(Debug)]
pub struct ScreenReport {
    /// Per-worker counters (vectors simulated, breakpoints solved, busy
    /// seconds).
    pub workers: Vec<WorkerStats>,
    /// End-to-end wall time of the screening phase, seconds.
    pub wall: f64,
    /// Sweep-level health: quarantined vectors, retries, recovered
    /// panics, and summed per-run counters.
    pub health: SweepHealth,
}

impl ScreenReport {
    /// This screening phase as a [`mtk_trace::PhaseTrace`]: the health
    /// counters (deterministic) plus this report's wall time and
    /// per-worker sinks (timing section).
    pub fn to_phase(&self, name: &str) -> mtk_trace::PhaseTrace {
        let mut phase = self.health.phase(name).with_wall(self.wall);
        phase.workers = crate::par::worker_traces(&self.workers);
        phase
    }
}

/// The screening tool (§5, §7): runs every transition through the
/// switch-level simulator at a fixed sleep size and returns those that
/// switch the probes, sorted worst-degradation first (stable, so ties
/// keep transition-index order). The top of this list is what one then
/// verifies "with a more detailed simulator like SPICE".
///
/// The transitions are sharded across `threads` workers (`1` runs
/// inline), each owning its own [`Engine`] over the shared
/// netlist/technology. Each transition is one work item under the
/// retry ladder: an `EventOverflow` gets one retry at a relaxed
/// breakpoint budget. Failures — panics included, caught at the item
/// boundary — land index-ordered in `report.health` under `policy`, so
/// the ranking *and* the quarantine set are bit-identical at any thread
/// count. `fault` injects deterministic failures for testing
/// ([`FaultPlan::none`] in production).
///
/// # Errors
///
/// * [`CoreError::InvalidOptions`] when `w_over_l` is not finite and
///   positive, before any transition runs.
/// * Under [`FailurePolicy::FailFast`], the error of the lowest-indexed
///   failing transition.
/// * Under [`FailurePolicy::Quarantine`],
///   [`CoreError::TooManyFailures`] when more than `max_failures`
///   transitions fail.
#[allow(clippy::too_many_arguments)]
pub fn screen_vectors_par_quarantined(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    w_over_l: f64,
    base: &VbsimOptions,
    threads: usize,
    policy: FailurePolicy,
    fault: &FaultPlan,
) -> Result<(Vec<ScreenedVector>, ScreenReport), CoreError> {
    require_sleep_size(w_over_l)?;
    let sleep = SleepNetwork::Transistor { w_over_l };
    let t0 = Instant::now();
    let (reports, workers) = try_parallel_map_with(
        threads,
        8,
        transitions,
        || (Engine::new(netlist, tech), VbsimScratch::new()),
        |(engine, scratch), index, tr, stats| {
            stats.vectors += 1;
            retry_item(index, fault, base, |_, opts, run| {
                let (pair, health) = delay_pair(engine, tr, probes, sleep, opts, None, scratch)
                    .inspect_err(|e| charge_overflow(e, opts.max_events, run, stats))?;
                run.absorb(&health);
                stats.breakpoints += health.breakpoints as u64;
                Ok(pair.map(|delays| ScreenedVector { index, delays }))
            })
        },
    );
    let (values, health) = fold_item_reports(reports, policy)?;
    let mut out: Vec<ScreenedVector> = values.into_iter().flatten().flatten().collect();
    out.sort_by(|a, b| {
        b.delays
            .degradation()
            .partial_cmp(&a.delays.degradation())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok((
        out,
        ScreenReport {
            workers,
            wall: t0.elapsed().as_secs_f64(),
            health,
        },
    ))
}

/// Log-space bisection of `[lo, hi]` for the smallest size `exceeds`
/// rejects no more: at most `max_iter` probes, stopping once
/// `hi / lo < ratio`. Returns the final passing end `hi`, which is never
/// probed here (the caller has established that `hi` passes).
///
/// # Errors
///
/// The first error `exceeds` returns.
pub(crate) fn log_bisect(
    (lo, hi): (f64, f64),
    max_iter: usize,
    ratio: f64,
    mut exceeds: impl FnMut(f64) -> Result<bool, CoreError>,
) -> Result<f64, CoreError> {
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..max_iter {
        let mid = (lo * hi).sqrt();
        if exceeds(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < ratio {
            break;
        }
    }
    Ok(hi)
}

/// Moves `order[k]` to the front, keeping the rest in their order: the
/// transition that just failed a probe runs first in the next one.
pub(crate) fn move_to_front(order: &mut [usize], k: usize) {
    order[..=k].rotate_right(1);
}

/// The sweep entry points' rejection of a sleep W/L the device model
/// cannot build: anything not finite and positive.
pub(crate) fn require_sleep_size(w_over_l: f64) -> Result<(), CoreError> {
    if !(w_over_l.is_finite() && w_over_l > 0.0) {
        return Err(CoreError::InvalidOptions(format!(
            "sleep W/L must be finite and positive, got {w_over_l}"
        )));
    }
    Ok(())
}

/// The sizing entry points' rejection of an empty transition list: with
/// nothing to simulate, any size would "meet" the target.
pub(crate) fn require_transitions(transitions: &[Transition]) -> Result<(), CoreError> {
    if transitions.is_empty() {
        return Err(CoreError::InvalidOptions(
            "sizing needs at least one transition".into(),
        ));
    }
    Ok(())
}

/// One bisection of [`size_for_target_cached`]: what its probes read,
/// and the scratch, transition order and summed health they share.
struct Bisection<'a> {
    engine: &'a Engine<'a>,
    transitions: &'a [Transition],
    probes: Option<&'a [NetId]>,
    target: f64,
    base: &'a VbsimOptions,
    cache: &'a ScreeningCache,
    scratch: VbsimScratch,
    order: Vec<usize>,
    health: RunHealth,
}

impl Bisection<'_> {
    /// One probe as the decision the bisection reads: does the worst
    /// degradation over the transitions at `w_over_l` exceed the target?
    ///
    /// Exact early exit: `max(0, d₁, …, dₙ) > target` holds iff `0 >
    /// target` or some `dᵢ > target` (a NaN degradation exceeds nothing,
    /// exactly as `f64::max` skips it), so the probe returns at the first
    /// over-target transition and [`move_to_front`]s it in the order. A
    /// passing probe still measures every transition.
    fn exceeds(&mut self, w_over_l: f64) -> Result<bool, CoreError> {
        if 0.0 > self.target {
            return Ok(true);
        }
        let sleep = SleepNetwork::Transistor { w_over_l };
        for k in 0..self.order.len() {
            let tr = &self.transitions[self.order[k]];
            let (pair, h) = delay_pair(
                self.engine,
                tr,
                self.probes,
                sleep,
                self.base,
                Some(self.cache),
                &mut self.scratch,
            )?;
            self.health.absorb(&h);
            if pair.is_some_and(|p| p.degradation() > self.target) {
                move_to_front(&mut self.order, k);
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Binary-searches the smallest sleep W/L whose worst degradation over
/// the given transitions is at most `target` (e.g. `0.05` for the
/// paper's 5 % criterion), within `[lo, hi]`, through a caller-owned
/// [`ScreeningCache`]: each transition's CMOS baseline is simulated at
/// most once across the whole bisection, and a repeated run with the
/// same cache re-simulates nothing. The summed [`RunHealth`] reports the
/// per-leg cache traffic.
///
/// Each probe stops at its first over-target transition, trying the
/// most recent failer first: the answer is the one
/// a full evaluation of every probe gives, with fewer legs simulated. A
/// passing probe measures every transition, so the returned size's legs
/// are all in `cache`.
///
/// # Errors
///
/// * [`CoreError::InvalidOptions`] when `transitions` is empty.
/// * [`CoreError::SizingInfeasible`] when even `hi` misses the target
///   (at once, simulating nothing, when `target < 0`).
/// * Propagates simulator errors of the legs the search runs. A leg
///   that an earlier over-target transition made unnecessary never runs,
///   so it raises nothing: a transition that would overflow its
///   breakpoint budget only at sizes another transition already rejects
///   does not fail the search.
///
/// # Panics
///
/// Panics unless `0 < lo < hi`.
pub fn size_for_target_cached(
    engine: &Engine<'_>,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    target: f64,
    (lo, hi): (f64, f64),
    base: &VbsimOptions,
    cache: &ScreeningCache,
) -> Result<(f64, RunHealth), CoreError> {
    assert!(lo > 0.0 && hi > lo, "invalid sizing bracket");
    require_transitions(transitions)?;
    let mut bisection = Bisection {
        engine,
        transitions,
        probes,
        target,
        base,
        cache,
        scratch: VbsimScratch::new(),
        order: (0..transitions.len()).collect(),
        health: RunHealth::default(),
    };
    if bisection.exceeds(hi)? {
        return Err(CoreError::SizingInfeasible {
            target,
            at_w_over_l: hi,
        });
    }
    let wl = log_bisect((lo, hi), 40, 1.005, |wl| bisection.exceeds(wl))?;
    Ok((wl, bisection.health))
}

/// The peak-current sizing baseline (§4): size the sleep device so a
/// *sustained* current `i_peak` bounces the virtual ground by at most
/// `vx_budget` volts:
/// `W/L = i_peak / (kp_n · (vdd − vt_high) · vx_budget)`.
///
/// The paper shows this is ≈3× conservative because real current peaks
/// are brief.
pub fn peak_current_w_over_l(tech: &Technology, i_peak: f64, vx_budget: f64) -> f64 {
    assert!(
        i_peak > 0.0 && vx_budget > 0.0,
        "need positive current and budget"
    );
    let r_needed = vx_budget / i_peak;
    1.0 / (tech.kp_n * (tech.vdd - tech.vt_high) * r_needed)
}

/// The sum-of-widths sizing baseline (§2: "can produce unnecessarily
/// large estimates"): W/L equal to the total internal low-V<sub>t</sub>
/// NMOS width.
pub fn sum_of_widths_w_over_l(netlist: &Netlist, tech: &Technology) -> f64 {
    netlist.total_nmos_width_units(tech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::tree::InverterTree;

    fn tree_transition(_tree: &InverterTree) -> Transition {
        Transition::new(vec![Logic::Zero], vec![Logic::One])
    }

    #[test]
    fn degradation_with_zero_baseline_is_infinite() {
        // Regression: a broken (zero) baseline with a real MTCMOS delay
        // used to report 0.0 — "no degradation" — and rank the vector
        // harmless. It must rank worst-case instead.
        let broken = DelayPair {
            cmos: 0.0,
            mtcmos: 1e-9,
        };
        assert_eq!(broken.degradation(), f64::INFINITY);
        let negative = DelayPair {
            cmos: -1e-12,
            mtcmos: 1e-9,
        };
        assert_eq!(negative.degradation(), f64::INFINITY);
        // Only when neither leg took time is there genuinely nothing to
        // degrade.
        let quiet = DelayPair {
            cmos: 0.0,
            mtcmos: 0.0,
        };
        assert_eq!(quiet.degradation(), 0.0);
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_reuses_legs() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let tr = tree_transition(&tree);
        let base = VbsimOptions::default();
        let sizes = [20.0, 11.0, 5.0];

        // The uncached reference: one fresh delay pair per size.
        let plain: Vec<SweepPoint> = sizes
            .iter()
            .map(|&w_over_l| {
                let sleep = SleepNetwork::Transistor { w_over_l };
                let delays = vbsim_delay_pair(&engine, &tr, None, sleep, &base);
                SweepPoint {
                    w_over_l,
                    delays: delays.unwrap().unwrap(),
                }
            })
            .collect();
        let cache = ScreeningCache::new();
        let (cold, cold_health) =
            degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &cache).unwrap();
        assert_eq!(cold, plain);
        // Cold run: one CMOS baseline leg + one MTCMOS leg per size, and
        // the shared baseline already hits after its first computation.
        assert_eq!(cold_health.cache_misses, 1 + sizes.len());
        assert_eq!(cold_health.cache_hits, sizes.len() - 1);
        assert_eq!(cache.misses(), 1 + sizes.len());

        let misses_before = cache.misses();
        let (warm, warm_health) =
            degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &cache).unwrap();
        assert_eq!(warm, cold, "warm rerun must be bit-identical");
        assert_eq!(
            cache.misses(),
            misses_before,
            "warm rerun simulated nothing"
        );
        assert_eq!(warm_health.cache_misses, 0);
        // Two leg lookups per size, all served from the cache.
        assert_eq!(warm_health.cache_hits, 2 * sizes.len());
        // Stored telemetry replays identically: apart from the cache
        // counters themselves, warm health equals cold health.
        assert_eq!(warm_health.breakpoints, cold_health.breakpoints);
        assert_eq!(warm_health.glitch_reversals, cold_health.glitch_reversals);
        assert_eq!(warm_health.vx_fallbacks, cold_health.vx_fallbacks);
    }

    /// Satellite regression for the `.mtk` frontend: every field the
    /// parser can set — technology parameters, primary-output markers,
    /// per-cell drive overrides — must produce distinct cache keys.
    /// Before the technology fingerprint joined the leg key, two engines
    /// over the same netlist under different processes shared legs.
    #[test]
    fn cache_keys_distinguish_parser_settable_fields() {
        use mtk_netlist::cell::CellKind;
        use mtk_netlist::netlist::Netlist;

        fn chain(drive: f64, extra_po: bool) -> Netlist {
            let mut nl = Netlist::new("chain");
            let a = nl.add_net("a").unwrap();
            let m = nl.add_net("m").unwrap();
            let y = nl.add_net("y").unwrap();
            nl.mark_primary_input(a).unwrap();
            nl.add_cell("i1", CellKind::Inv, vec![a], m, drive).unwrap();
            nl.add_cell("i2", CellKind::Inv, vec![m], y, 1.0).unwrap();
            nl.mark_primary_output(y);
            if extra_po {
                nl.mark_primary_output(m);
            }
            nl
        }

        let cache = ScreeningCache::new();
        let base = VbsimOptions::default();
        let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
        let sleep = SleepNetwork::Transistor { w_over_l: 10.0 };
        let t07 = Technology::l07();
        let t03 = Technology::l03();

        let nl = chain(1.0, false);
        let probes = [nl.find_net("y").unwrap()];
        let e1 = Engine::new(&nl, &t07);
        vbsim_delay_pair_cached(&e1, &tr, Some(&probes), sleep, &base, &cache).unwrap();
        let per_engine = cache.len();
        assert!(per_engine > 0);

        // The same engine again adds no keys (pure hits).
        vbsim_delay_pair_cached(&e1, &tr, Some(&probes), sleep, &base, &cache).unwrap();
        assert_eq!(cache.len(), per_engine, "identical engine must hit");

        // Same netlist, different technology: all legs re-keyed.
        let e2 = Engine::new(&nl, &t03);
        vbsim_delay_pair_cached(&e2, &tr, Some(&probes), sleep, &base, &cache).unwrap();
        assert_eq!(
            cache.len(),
            2 * per_engine,
            "technology change must not share cached legs"
        );

        // Identical except for an extra primary-output marker (probing
        // the same net, so only the netlist fingerprint differs).
        let nl_po = chain(1.0, true);
        let probes_po = [nl_po.find_net("y").unwrap()];
        let e3 = Engine::new(&nl_po, &t07);
        vbsim_delay_pair_cached(&e3, &tr, Some(&probes_po), sleep, &base, &cache).unwrap();
        assert_eq!(
            cache.len(),
            3 * per_engine,
            "primary-output marking must not share cached legs"
        );

        // Identical except for one cell's drive override.
        let nl_drive = chain(2.0, false);
        let probes_drive = [nl_drive.find_net("y").unwrap()];
        let e4 = Engine::new(&nl_drive, &t07);
        vbsim_delay_pair_cached(&e4, &tr, Some(&probes_drive), sleep, &base, &cache).unwrap();
        assert_eq!(
            cache.len(),
            4 * per_engine,
            "cell drive must not share cached legs"
        );
    }

    #[test]
    fn degradation_positive_and_monotone() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let tr = tree_transition(&tree);
        let (sweep, _) = degradation_sweep_cached(
            &engine,
            &tr,
            None,
            &[20.0, 11.0, 5.0, 2.0],
            &VbsimOptions::default(),
            &ScreeningCache::new(),
        )
        .unwrap();
        assert_eq!(sweep.len(), 4);
        let mut last = 0.0;
        for p in &sweep {
            let d = p.delays.degradation();
            assert!(d >= last - 1e-9, "degradation not monotone: {sweep:?}");
            assert!(d > 0.0);
            last = d;
        }
    }

    #[test]
    fn size_for_target_meets_target() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let tr = tree_transition(&tree);
        let base = VbsimOptions::default();
        let (wl, _) = size_for_target_cached(
            &engine,
            std::slice::from_ref(&tr),
            None,
            0.30,
            (1.0, 5000.0),
            &base,
            &ScreeningCache::new(),
        )
        .unwrap();
        let p = vbsim_delay_pair(
            &engine,
            &tr,
            None,
            SleepNetwork::Transistor { w_over_l: wl },
            &base,
        )
        .unwrap()
        .unwrap();
        assert!(p.degradation() <= 0.30 + 1e-6, "{}", p.degradation());
        // And a 2x smaller device misses it (minimality within the
        // bisection tolerance).
        let p_small = vbsim_delay_pair(
            &engine,
            &tr,
            None,
            SleepNetwork::Transistor { w_over_l: wl / 2.0 },
            &base,
        )
        .unwrap()
        .unwrap();
        assert!(p_small.degradation() > 0.30 * 0.8);
    }

    #[test]
    fn infeasible_target_reported() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let tr = tree_transition(&tree);
        let err = size_for_target_cached(
            &engine,
            &[tr],
            None,
            1e-9, // impossible within the tiny bracket below
            (0.1, 0.2),
            &VbsimOptions::default(),
            &ScreeningCache::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SizingInfeasible { .. }));
    }

    #[test]
    fn sizing_over_no_transitions_is_rejected() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let cache = ScreeningCache::new();
        let base = VbsimOptions::default();
        let err = size_for_target_cached(&engine, &[], None, 0.05, (1.0, 2000.0), &base, &cache);
        assert!(matches!(err, Err(CoreError::InvalidOptions(_))), "{err:?}");
        assert_eq!(cache.misses(), 0, "nothing simulated");
    }

    /// The full-evaluation reference the early-exit search must match
    /// bit for bit: every probe measures every transition and compares
    /// `max(0, …)` with the target. Returns the size and the legs it
    /// simulated.
    fn size_for_target_oracle(
        engine: &Engine<'_>,
        transitions: &[Transition],
        target: f64,
        (lo, hi): (f64, f64),
        base: &VbsimOptions,
    ) -> (Result<f64, CoreError>, usize) {
        let cache = ScreeningCache::new();
        let mut scratch = VbsimScratch::new();
        let mut worst_degradation = |wl: f64| -> Result<f64, CoreError> {
            let mut worst = 0.0f64;
            for tr in transitions {
                let sleep = SleepNetwork::Transistor { w_over_l: wl };
                let (pair, _) =
                    delay_pair(engine, tr, None, sleep, base, Some(&cache), &mut scratch)?;
                if let Some(p) = pair {
                    worst = worst.max(p.degradation());
                }
            }
            Ok(worst)
        };
        let mut search = || {
            if worst_degradation(hi)? > target {
                return Err(CoreError::SizingInfeasible {
                    target,
                    at_w_over_l: hi,
                });
            }
            let (mut lo, mut hi) = (lo, hi);
            for _ in 0..40 {
                let mid = (lo * hi).sqrt();
                if worst_degradation(mid)? > target {
                    lo = mid;
                } else {
                    hi = mid;
                }
                if hi / lo < 1.005 {
                    break;
                }
            }
            Ok(hi)
        };
        let result = search();
        (result, cache.misses())
    }

    /// Sizes `transitions` both ways and requires the same answer to the
    /// bit (or the same error), with no more legs simulated. Returns the
    /// early-exit search's health and the two leg counts.
    fn assert_matches_oracle(
        engine: &Engine<'_>,
        transitions: &[Transition],
        target: f64,
        bracket: (f64, f64),
    ) -> (RunHealth, usize, usize) {
        let base = VbsimOptions::default();
        let (want, oracle_legs) =
            size_for_target_oracle(engine, transitions, target, bracket, &base);
        let cache = ScreeningCache::new();
        let got = size_for_target_cached(engine, transitions, None, target, bracket, &base, &cache);
        let health = match (&want, &got) {
            (Ok(w), Ok((g, health))) => {
                assert_eq!(w.to_bits(), g.to_bits(), "W/L {g} vs oracle {w}");
                *health
            }
            (Err(w), Err(g)) => {
                assert_eq!(format!("{w:?}"), format!("{g:?}"));
                RunHealth::default()
            }
            _ => panic!("early exit {got:?} vs oracle {want:?}"),
        };
        assert!(cache.misses() <= oracle_legs);
        (health, cache.misses(), oracle_legs)
    }

    /// `count` seeded random transitions over `inputs` primary inputs.
    fn random_transitions(inputs: usize, seed: u64, count: usize) -> Vec<Transition> {
        let level = |b: bool| if b { Logic::One } else { Logic::Zero };
        (0..count as u64)
            .map(|k| {
                let mut rng = mtk_num::prng::Xoshiro256pp::stream(seed, k);
                let from = (0..inputs).map(|_| level(rng.next_bool())).collect();
                let to = (0..inputs).map(|_| level(rng.next_bool())).collect();
                Transition::new(from, to)
            })
            .collect()
    }

    #[test]
    fn early_exit_matches_the_oracle_on_the_exhaustive_adder() {
        use mtk_circuits::adder::RippleAdder;
        use mtk_circuits::vectors::exhaustive_transitions;
        use mtk_netlist::logic::bits_lsb_first;

        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let transitions: Vec<Transition> = exhaustive_transitions(6)
            .into_iter()
            .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
            .collect();
        let (health, legs, oracle_legs) =
            assert_matches_oracle(&engine, &transitions, 0.05, (1.0, 2000.0));
        // Glitchy transitions are part of the set, and failing probes
        // really stopped early.
        assert!(health.glitch_reversals > 0);
        assert!(
            legs < oracle_legs,
            "{legs} legs vs the oracle's {oracle_legs}"
        );
    }

    #[test]
    fn early_exit_matches_the_oracle_on_multiplier_problems() {
        use mtk_circuits::multiplier::{ArrayMultiplier, MultiplierSpec};

        let mul = ArrayMultiplier::new(&MultiplierSpec {
            bits: 16,
            ..MultiplierSpec::default()
        })
        .unwrap();
        let tech = Technology::l07();
        let engine = Engine::new(&mul.netlist, &tech);
        let inputs = mul.netlist.primary_inputs().len();
        for seed in [1u64, 2] {
            let transitions = random_transitions(inputs, seed, 6);
            assert_matches_oracle(&engine, &transitions, 0.05, (1.0, 20000.0));
        }
    }

    #[test]
    fn early_exit_matches_the_oracle_on_random_logic_and_any_target() {
        use mtk_circuits::random_logic::{RandomLogic, RandomLogicSpec};

        let tech = Technology::l07();
        for seed in [1u64, 7] {
            let block = RandomLogic::new(&RandomLogicSpec {
                seed,
                ..RandomLogicSpec::default()
            })
            .unwrap();
            let engine = Engine::new(&block.netlist, &tech);
            let transitions = random_transitions(block.inputs.len(), seed, 48);
            // Loose, paper and tight targets (an infeasible one
            // included), and a negative target no size can meet.
            for target in [0.3, 0.05, 0.01, 1e-6, -0.1] {
                assert_matches_oracle(&engine, &transitions, target, (1.0, 2000.0));
            }
        }
    }

    #[test]
    fn a_leg_that_never_runs_raises_nothing() {
        use mtk_circuits::adder::RippleAdder;
        use mtk_netlist::logic::bits_lsb_first;

        let add = RippleAdder::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&add.netlist, &tech);
        let outputs = probe_nets(&add.netlist, None);
        let wl = 5.0;
        let generous = VbsimOptions::default();
        // The larger breakpoint count of a transition's two legs.
        let events = |tr: &Transition| {
            [
                SleepNetwork::Cmos,
                SleepNetwork::Transistor { w_over_l: wl },
            ]
            .into_iter()
            .map(|sleep| {
                let opts = leg_options(sleep, &generous);
                let leg = run_leg(&engine, tr, &outputs, &opts, &mut VbsimScratch::new());
                leg.unwrap().health.breakpoints
            })
            .max()
            .unwrap()
        };
        let adder =
            |from: u64, to: u64| Transition::new(bits_lsb_first(from, 6), bits_lsb_first(to, 6));
        // Transition 0 is far over a tight target at this size;
        // transition 1 takes more breakpoints than transition 0, so a
        // budget that just fits transition 0 overflows on it.
        let transitions = [adder(0b000_000, 0b000_001), adder(0b000_000, 0b111_111)];
        let over = vbsim_delay_pair(
            &engine,
            &transitions[0],
            None,
            SleepNetwork::Transistor { w_over_l: wl },
            &generous,
        );
        let target = 1e-6;
        assert!(over.unwrap().unwrap().degradation() > target);
        let tight = VbsimOptions {
            max_events: events(&transitions[0]),
            ..VbsimOptions::default()
        };
        assert!(
            events(&transitions[1]) > tight.max_events,
            "need a costlier leg"
        );

        // The full evaluation raises the overflow; the early exit decides
        // at transition 0 and never runs transition 1's legs.
        let (oracle, _) = size_for_target_oracle(&engine, &transitions, target, (1.0, wl), &tight);
        assert!(
            matches!(oracle, Err(CoreError::EventOverflow { .. })),
            "{oracle:?}"
        );
        let cache = ScreeningCache::new();
        let exceeds = Bisection {
            engine: &engine,
            transitions: &transitions,
            probes: None,
            target,
            base: &tight,
            cache: &cache,
            scratch: VbsimScratch::new(),
            order: vec![0, 1],
            health: RunHealth::default(),
        }
        .exceeds(wl);
        assert!(matches!(exceeds, Ok(true)), "{exceeds:?}");
        assert_eq!(cache.misses(), 2, "only transition 0's legs ran");
        // The search as a whole reports the target missed, not the
        // overflow.
        let sized = size_for_target_cached(
            &engine,
            &transitions,
            None,
            target,
            (1.0, wl),
            &tight,
            &ScreeningCache::new(),
        );
        assert!(
            matches!(sized, Err(CoreError::SizingInfeasible { .. })),
            "{sized:?}"
        );
    }

    #[test]
    fn peak_current_formula() {
        let tech = Technology::l03();
        // The paper's own numbers: 1.174 mA, 50 mV budget → W/L ≈ 500
        // (with the paper's implied kp). With our kp of 150 µA/V² and
        // 0.3 V of sleep-gate drive the formula is checked structurally.
        let wl = peak_current_w_over_l(&tech, 1.174e-3, 0.05);
        let r = 0.05 / 1.174e-3;
        assert!((wl - 1.0 / (tech.kp_n * 0.3 * r)).abs() < 1e-9);
    }

    #[test]
    fn parallel_screen_matches_serial_at_any_thread_count() {
        use mtk_circuits::adder::RippleAdder;
        use mtk_circuits::vectors::exhaustive_transitions;
        use mtk_netlist::logic::bits_lsb_first;

        let add = RippleAdder::paper();
        let tech = Technology::l07();
        // A slice of the exhaustive space keeps the test fast while still
        // exercising chunked sharding.
        let transitions: Vec<Transition> = exhaustive_transitions(6)
            .into_iter()
            .step_by(17)
            .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
            .collect();
        let base = VbsimOptions::default();
        let screen = |threads: usize| {
            screen_vectors_par_quarantined(
                &add.netlist,
                &tech,
                &transitions,
                None,
                10.0,
                &base,
                threads,
                FailurePolicy::FailFast,
                &FaultPlan::none(),
            )
            .unwrap()
        };
        let (serial, _) = screen(1);
        for threads in [1usize, 3, 8] {
            let (par, report) = screen(threads);
            assert_eq!(par, serial, "threads={threads}");
            let vectors: u64 = report.workers.iter().map(|w| w.vectors).sum();
            assert_eq!(vectors as usize, transitions.len());
            assert!(report.workers.iter().map(|w| w.breakpoints).sum::<u64>() > 0);
        }
    }

    /// The screen over the Fig 4 tree's two transitions at `w_over_l`,
    /// inline.
    fn screen_tree(w_over_l: f64) -> Result<Vec<ScreenedVector>, CoreError> {
        let tree = InverterTree::paper();
        // 0->1 discharges all nine leaves (bad); 1->0 charges them (good:
        // the NMOS sleep device does not slow pull-ups).
        let trs = vec![
            Transition::new(vec![Logic::One], vec![Logic::Zero]),
            Transition::new(vec![Logic::Zero], vec![Logic::One]),
        ];
        screen_vectors_par_quarantined(
            &tree.netlist,
            &Technology::l07(),
            &trs,
            None,
            w_over_l,
            &VbsimOptions::default(),
            1,
            FailurePolicy::quarantine(32),
            &FaultPlan::none(),
        )
        .map(|(screened, _)| screened)
    }

    #[test]
    fn a_non_positive_sleep_size_is_rejected_before_any_item_runs() {
        for w_over_l in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = screen_tree(w_over_l);
            assert!(
                matches!(err, Err(CoreError::InvalidOptions(_))),
                "W/L {w_over_l}: {err:?}"
            );
        }
    }

    #[test]
    fn screen_sorts_worst_first() {
        let screened = screen_tree(5.0).unwrap();
        assert_eq!(screened.len(), 2);
        assert_eq!(screened[0].index, 1, "rising input must be worse");
        assert!(screened[0].delays.degradation() > screened[1].delays.degradation());
    }
}
