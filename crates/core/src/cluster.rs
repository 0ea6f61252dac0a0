//! Cluster-based sleep-transistor sizing from mutually-exclusive
//! discharge patterns.
//!
//! The paper's future-work direction (developed in the authors' 1998
//! follow-up) observes that gates which never discharge *at the same
//! time* can share one sleep transistor sized for the worst single
//! current instead of the sum. This module derives that structure from
//! the tool's own vector set — no new simulation semantics:
//!
//! * [`exclusive_partition`] — evaluates every transition with the
//!   existing logic evaluator, marks the cells whose outputs fall, and
//!   builds a conflict graph (two cells conflict iff some vector
//!   discharges both). A deterministic first-fit colouring in cell-id
//!   order groups mutually exclusive cells into clusters, folding into
//!   `max_clusters` when the conflict structure demands more colours.
//! * [`ExclusivePartition::by_depth`] — a structural partition source
//!   that reads no vectors: cells grouped by logic depth
//!   (pipeline-stage style). A caller may also build a partition from
//!   its own hierarchy, as EXT-MODULES does with one cluster per module.
//! * [`size_clusters_for_target`] — one virtual-ground sleep device per
//!   cluster, co-optimised under a shared degradation budget: each
//!   cluster's device is bisected as an independent, fault-tolerant
//!   `mtk_core::par` work item (index-ordered fold, quarantine, retry),
//!   then the joint solution is verified and uniformly scaled up.
//!   The **never-worse rule**: the single-device solution for the same
//!   target is always computed too, and whichever uses less total width
//!   wins — clusters on one sequential path split the delay budget and
//!   can genuinely need *more* total width than one shared device (the
//!   clustered candidate, [`ClusterSizing::clustered_w_over_ls`], shows
//!   it), so clustered sizing must not silently regress the area it
//!   exists to save.
//! * [`worst_degradation_partitioned`] — the full evaluation of one
//!   per-cluster sizing, to verify a returned solution.
//!
//! Every evaluation decision can be written through a persistent
//! [`mtk_store::Store`] under its own record tag, so a warm rerun
//! replays the whole co-optimisation — including its [`RunHealth`]
//! telemetry, bit-identically — without simulating anything.

use crate::health::{charge_overflow, fold_item_reports, retry_item, FailurePolicy, FaultPlan};
use crate::health::{ItemReport, RunHealth, SweepHealth};
use crate::par::{try_parallel_map_with, WorkerStats};
use crate::record::{self, Source};
use crate::sizing::{leg_degradation, log_bisect, move_to_front, probe_nets, stored_leg};
use crate::sizing::{require_transitions, Transition};
use crate::vbsim::{latest_crossing, Engine, PartitionedSleep, SleepNetwork};
use crate::vbsim::{VbsimOptions, VbsimScratch};
use crate::CoreError;
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;
use std::time::Instant;

/// A partition of a netlist's cells into clusters of (mostly) mutually
/// exclusive discharging gates, as produced by [`exclusive_partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusivePartition {
    /// Cluster index per cell, indexed by `CellId::index()`.
    pub assignment: Vec<usize>,
    /// Number of clusters (colours used by the first-fit colouring).
    pub n_clusters: usize,
    /// Edges of the conflict graph: unordered cell pairs that discharge
    /// together on at least one vector.
    pub conflict_edges: usize,
    /// Cells placed into a cluster they conflict with because the
    /// colouring needed more than `max_clusters` colours. Zero means
    /// every cluster is genuinely conflict-free.
    pub folded: usize,
}

impl ExclusivePartition {
    /// The per-cluster sleep configuration for a vector of device sizes
    /// (one W/L per cluster), ready for
    /// [`Engine::run_partitioned`].
    ///
    /// # Panics
    ///
    /// Panics when `w_over_ls.len() != self.n_clusters`.
    pub fn to_sleep(&self, w_over_ls: &[f64]) -> PartitionedSleep {
        assert_eq!(w_over_ls.len(), self.n_clusters, "one size per cluster");
        partitioned(&self.assignment, w_over_ls)
    }

    /// A structural partition source (pipeline-stage style): every cell
    /// goes to one of `n_groups` clusters by logic depth, so gates that
    /// switch at different times land in different clusters. It reads no
    /// vectors, so it has no conflict graph: `conflict_edges` and
    /// `folded` are 0, and a cluster may be empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if `n_groups == 0`.
    pub fn by_depth(netlist: &Netlist, n_groups: usize) -> Result<Self, CoreError> {
        assert!(n_groups > 0, "need at least one group");
        let order = netlist.topo_order().map_err(CoreError::Netlist)?;
        let mut depth_of_net = vec![0usize; netlist.nets().len()];
        let mut depth_of_cell = vec![0usize; netlist.cells().len()];
        let mut max_depth = 1usize;
        for ci in order {
            let cell = netlist.cell(ci);
            let inputs = cell.inputs.iter().map(|&n| depth_of_net[n.index()]);
            let d = inputs.max().unwrap_or(0) + 1;
            depth_of_cell[ci.index()] = d;
            depth_of_net[cell.output.index()] = d;
            max_depth = max_depth.max(d);
        }
        Ok(ExclusivePartition {
            assignment: depth_of_cell
                .into_iter()
                .map(|d| ((d - 1) * n_groups / max_depth).min(n_groups - 1))
                .collect(),
            n_clusters: n_groups,
            conflict_edges: 0,
            folded: 0,
        })
    }
}

/// One sleep transistor per cluster: cluster `assignment[cell]` of each
/// cell gets the device of W/L `w_over_ls[cluster]`.
fn partitioned(assignment: &[usize], w_over_ls: &[f64]) -> PartitionedSleep {
    PartitionedSleep {
        assignment: assignment.to_vec(),
        networks: w_over_ls
            .iter()
            .map(|&wl| SleepNetwork::Transistor { w_over_l: wl })
            .collect(),
    }
}

/// Worst degradation over `transitions` of one per-cluster sizing:
/// cluster `assignment[cell]` of each cell gets the device of W/L
/// `w_over_ls[cluster]`, against CMOS baselines at the default options.
/// The full evaluation, every transition simulated, that verifies a
/// solution the early-exit co-optimisation returned.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn worst_degradation_partitioned(
    engine: &Engine<'_>,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    assignment: &[usize],
    w_over_ls: &[f64],
    base: &VbsimOptions,
) -> Result<f64, CoreError> {
    let outputs = probe_nets(engine.netlist(), probes);
    let partition = partitioned(assignment, w_over_ls);
    let (cmos_opts, mut scratch) = (VbsimOptions::cmos(), VbsimScratch::new());
    let mut worst = 0.0f64;
    for tr in transitions {
        let (from, to) = (&tr.from, &tr.to);
        let cmos = engine.run_summary_with(from, to, None, &outputs, &cmos_opts, &mut scratch)?;
        let Some(d_cmos) = latest_crossing(&cmos.crossings) else {
            continue;
        };
        let mt =
            engine.run_summary_with(from, to, Some(&partition), &outputs, base, &mut scratch)?;
        worst = worst.max(leg_degradation(d_cmos, &cmos.crossings, &mt));
    }
    Ok(worst)
}

/// Whether a cell output moving `from → to` may pull current through
/// the sleep path. `X` on either side is treated conservatively as a
/// possible discharge.
fn may_discharge(from: Logic, to: Logic) -> bool {
    matches!(from, Logic::One | Logic::X) && matches!(to, Logic::Zero | Logic::X)
}

/// Partitions the netlist's cells into clusters of mutually-exclusive
/// discharging gates, inferred from the given vector set.
///
/// Two cells *conflict* when some transition discharges both (their
/// outputs settle high before the step and low after it, with `X`
/// counted conservatively on either side); conflicting cells must not
/// share a sleep device, so a first-fit colouring in cell-id order
/// assigns each cell the lowest conflict-free cluster. When the
/// conflict structure needs more than `max_clusters` colours, the cell
/// is folded into the existing cluster it conflicts with least (ties:
/// lowest cluster index) and counted in
/// [`ExclusivePartition::folded`] — per-cluster sizing simulates real
/// currents, so a folded cluster is sized correctly, just less tightly.
///
/// The result is a pure function of the netlist and the transition
/// list: no randomness, no schedule dependence.
///
/// # Errors
///
/// Propagates logic-evaluation errors ([`CoreError::Netlist`]) — cyclic
/// netlists, transitions whose width disagrees with the primary inputs.
///
/// # Panics
///
/// Panics when `max_clusters == 0`.
///
/// # Example
///
/// ```
/// use mtk_core::cluster::exclusive_partition;
/// use mtk_core::sizing::Transition;
/// use mtk_netlist::cell::CellKind;
/// use mtk_netlist::logic::Logic;
/// use mtk_netlist::netlist::Netlist;
///
/// let mut nl = Netlist::new("pair");
/// let a = nl.add_net("a")?;
/// let b = nl.add_net("b")?;
/// nl.mark_primary_input(a)?;
/// nl.mark_primary_input(b)?;
/// let x = nl.add_net("x")?;
/// let y = nl.add_net("y")?;
/// nl.add_cell("i1", CellKind::Inv, vec![a], x, 1.0)?;
/// nl.add_cell("i2", CellKind::Inv, vec![b], y, 1.0)?;
///
/// // a and b never rise together, so the two inverters never
/// // discharge at once and can share one cluster (and one device).
/// let exclusive = [
///     Transition::new(vec![Logic::Zero, Logic::One], vec![Logic::One, Logic::One]),
///     Transition::new(vec![Logic::One, Logic::Zero], vec![Logic::One, Logic::One]),
/// ];
/// let p = exclusive_partition(&nl, &exclusive, 8)?;
/// assert_eq!(p.assignment, vec![0, 0]);
/// assert_eq!((p.n_clusters, p.conflict_edges), (1, 0));
///
/// // One vector that switches both at once forces them apart.
/// let both = [Transition::new(
///     vec![Logic::Zero, Logic::Zero],
///     vec![Logic::One, Logic::One],
/// )];
/// let p = exclusive_partition(&nl, &both, 8)?;
/// assert_eq!(p.assignment, vec![0, 1]);
/// assert_eq!((p.n_clusters, p.conflict_edges), (2, 1));
/// # Ok::<(), mtk_core::CoreError>(())
/// ```
pub fn exclusive_partition(
    netlist: &Netlist,
    transitions: &[Transition],
    max_clusters: usize,
) -> Result<ExclusivePartition, CoreError> {
    assert!(max_clusters > 0, "need at least one cluster");
    let n_cells = netlist.cells().len();
    let words = n_cells.div_ceil(64);
    // Conflict adjacency as one bitset row per cell.
    let mut rows = vec![0u64; n_cells * words];
    let mut discharge = vec![0u64; words];
    let mut discharging: Vec<usize> = Vec::new();
    for tr in transitions {
        let before = netlist.evaluate(&tr.from).map_err(CoreError::Netlist)?;
        let after = netlist.evaluate(&tr.to).map_err(CoreError::Netlist)?;
        discharge.iter_mut().for_each(|w| *w = 0);
        discharging.clear();
        for (ci, cell) in netlist.cells().iter().enumerate() {
            let out = cell.output.index();
            if may_discharge(before[out], after[out]) {
                discharge[ci / 64] |= 1u64 << (ci % 64);
                discharging.push(ci);
            }
        }
        for &ci in &discharging {
            let row = &mut rows[ci * words..(ci + 1) * words];
            for (r, d) in row.iter_mut().zip(&discharge) {
                *r |= d;
            }
        }
    }
    // A cell does not conflict with itself.
    for ci in 0..n_cells {
        rows[ci * words + ci / 64] &= !(1u64 << (ci % 64));
    }
    let conflict_edges = rows.iter().map(|w| w.count_ones() as usize).sum::<usize>() / 2;

    // First-fit colouring in cell-id order; colours therefore appear in
    // increasing order of first use, so the labelling is canonical.
    let mut members: Vec<Vec<u64>> = Vec::new();
    let mut assignment = vec![0usize; n_cells];
    let mut folded = 0usize;
    for ci in 0..n_cells {
        let row = &rows[ci * words..(ci + 1) * words];
        let free =
            (0..members.len()).find(|&k| row.iter().zip(&members[k]).all(|(r, m)| r & m == 0));
        let k = match free {
            Some(k) => k,
            None if members.len() < max_clusters => {
                members.push(vec![0u64; words]);
                members.len() - 1
            }
            None => {
                // Fold into the least-conflicting existing cluster.
                folded += 1;
                (0..members.len())
                    .min_by_key(|&k| {
                        row.iter()
                            .zip(&members[k])
                            .map(|(r, m)| (r & m).count_ones())
                            .sum::<u32>()
                    })
                    .expect("max_clusters > 0 so at least one cluster exists")
            }
        };
        members[k][ci / 64] |= 1u64 << (ci % 64);
        assignment[ci] = k;
    }
    Ok(ExclusivePartition {
        assignment,
        n_clusters: members.len(),
        conflict_edges,
        folded,
    })
}

/// Byte encoding of one stored decision: the index plus one of the
/// transition that exceeded the target (0 when none did), then the
/// [`RunHealth`] counters — the stored index lets a replay reorder the
/// transitions exactly as the simulation did.
pub(crate) fn encode_eval(failed: Option<usize>, health: &RunHealth) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + record::HEALTH_LEN);
    out.extend_from_slice(&failed.map_or(0, |i| i as u64 + 1).to_le_bytes());
    record::put_health(&mut out, health);
    out
}

/// Inverse of [`encode_eval`] over `n_transitions` transitions; `None`
/// on any shape mismatch or out-of-range index — a malformed record is
/// a miss, never an answer.
pub(crate) fn decode_eval(
    bytes: &[u8],
    n_transitions: usize,
) -> Option<(Option<usize>, RunHealth)> {
    let mut r = record::Reader::new(bytes);
    let failed = match r.u64()? {
        0 => None,
        k if k <= n_transitions as u64 => Some(k as usize - 1),
        _ => return None,
    };
    let health = r.health()?;
    r.end((failed, health))
}

/// The digest in a `clu2` key: FNV-1a's offset basis and byte loop with
/// the multiplier `0x1000_0000_01b3`, which is not FNV's prime
/// (`0x100_0000_01b3`). The decisions in existing logs are keyed by it,
/// so it is not [`mtk_netlist::netlist::Fnv1a`].
fn clu2_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Everything the evaluations of one co-optimisation share at one
/// breakpoint budget and one assignment: the transitions with their
/// CMOS baselines (simulated once, read-only), the probes, the cluster
/// count, the caller's options (target, bracket, fault plan) and the
/// store with this evaluator's key prefix.
struct Evaluator<'a> {
    transitions: &'a [Transition],
    baselines: &'a [Vec<Option<f64>>],
    outputs: &'a [NetId],
    assignment: &'a [usize],
    /// The options at this evaluator's breakpoint budget: `opts.base`,
    /// or its relaxed copy on a retry.
    base: &'a VbsimOptions,
    n_clusters: usize,
    opts: &'a ClusterOptions,
    store: Option<&'a mtk_store::Store>,
    /// The `clu2` tag, netlist and technology fingerprints, a digest over
    /// probes, transitions, assignment and the [`VbsimOptions`] fields
    /// the simulator reads, then the target's bits. The per-evaluation
    /// suffix is the sizes vector itself.
    prefix: Vec<u8>,
}

impl Evaluator<'_> {
    /// This evaluator with its store-key prefix computed for `engine`.
    fn keyed(mut self, engine: &Engine<'_>) -> Self {
        fn word(out: &mut Vec<u8>, v: usize) {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        let mut d = Vec::new();
        word(&mut d, self.outputs.len());
        for n in self.outputs {
            word(&mut d, n.index());
        }
        word(&mut d, self.transitions.len());
        for tr in self.transitions {
            word(&mut d, tr.from.len());
            d.extend(tr.from.iter().chain(&tr.to).map(|&l| record::level(l)));
        }
        word(&mut d, self.assignment.len());
        for &g in self.assignment {
            word(&mut d, g);
        }
        d.extend_from_slice(&record::sim_key(self.base));
        let mut out = Vec::with_capacity(4 + 32);
        out.extend_from_slice(record::CLUSTER_TAG);
        out.extend_from_slice(&engine.fingerprint().to_le_bytes());
        out.extend_from_slice(&engine.tech_stamp().to_le_bytes());
        out.extend_from_slice(&clu2_digest(&d).to_le_bytes());
        out.extend_from_slice(&self.opts.target.to_bits().to_le_bytes());
        self.prefix = out;
        self
    }

    /// Each transition's CMOS baseline crossings at `base`'s budget — the
    /// legs every evaluation at that budget shares, whatever the sleep
    /// sizes — read from the store's `leg1` records when there is one
    /// (a hit or miss counted per leg) and simulated otherwise. Their
    /// health goes into `run` once, here.
    fn cmos_baselines(
        &self,
        engine: &Engine<'_>,
        scratch: &mut VbsimScratch,
        base: &VbsimOptions,
        run: &mut RunHealth,
        stats: &mut WorkerStats,
    ) -> Result<Vec<Vec<Option<f64>>>, CoreError> {
        let cmos = SleepNetwork::Cmos;
        let (outputs, store) = (self.outputs, self.store);
        self.transitions
            .iter()
            .map(|tr| {
                let (leg, source) = stored_leg(engine, tr, outputs, cmos, base, store, scratch)
                    .inspect_err(|e| charge_overflow(e, base.max_events, run, stats))?;
                run.absorb(&leg.health);
                stats.breakpoints += leg.health.breakpoints as u64;
                if store.is_some() {
                    if source == Source::Stored {
                        run.cache_hits += 1;
                    } else {
                        run.cache_misses += 1;
                    }
                }
                Ok(leg.crossings)
            })
            .collect()
    }

    /// Whether the worst degradation over the transitions at one
    /// per-cluster sizes vector exceeds the target — served from the
    /// store when the same decision was recorded before (replaying its
    /// stored health), simulated and written through otherwise
    /// ([`record::through`]).
    ///
    /// The same exact early exit as the single-device bisection: the
    /// answer is `0 > target` or some transition over the target, so the
    /// simulation stops at the first one and moves it to the front of
    /// `order` (a replayed record moves the transition it names). A
    /// passing decision measures every transition.
    fn exceeds(
        &self,
        engine: &Engine<'_>,
        scratch: &mut VbsimScratch,
        sizes: &[f64],
        order: &mut [usize],
        run: &mut RunHealth,
        stats: &mut WorkerStats,
    ) -> Result<bool, CoreError> {
        if 0.0 > self.opts.target {
            return Ok(true);
        }
        let mut key = self.prefix.clone();
        for &s in sizes {
            key.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        let ((failed, health), source) = record::through(
            self.store,
            &key,
            |b| decode_eval(b, self.transitions.len()),
            || {
                let mut local = RunHealth::default();
                let result = self.first_failure(engine, scratch, sizes, order, &mut local, stats);
                run.absorb(&local);
                result
                    .map(|failed| (failed, local))
                    .inspect_err(|e| charge_overflow(e, self.base.max_events, run, stats))
            },
            |&(failed, local)| encode_eval(failed, &local),
        )?;
        if source == Source::Stored {
            run.absorb(&health);
            run.cache_hits += 1;
            stats.breakpoints += health.breakpoints as u64;
            if let Some(i) = failed {
                let k = order.iter().position(|&j| j == i);
                move_to_front(order, k.expect("order holds every transition"));
            }
        } else if self.store.is_some() {
            run.cache_misses += 1;
        }
        Ok(failed.is_some())
    }

    /// The simulation behind a decision [`Evaluator::exceeds`] did not
    /// find stored: the first transition in `order` over the target at
    /// `sizes`, moved to the front, with every leg's health in `local`.
    fn first_failure(
        &self,
        engine: &Engine<'_>,
        scratch: &mut VbsimScratch,
        sizes: &[f64],
        order: &mut [usize],
        local: &mut RunHealth,
        stats: &mut WorkerStats,
    ) -> Result<Option<usize>, CoreError> {
        let partition = partitioned(self.assignment, sizes);
        for k in 0..order.len() {
            let i = order[k];
            stats.vectors += 1;
            let cmos = &self.baselines[i];
            let Some(d_cmos) = latest_crossing(cmos) else {
                continue;
            };
            let tr = &self.transitions[i];
            let mt = engine.run_summary_with(
                &tr.from,
                &tr.to,
                Some(&partition),
                self.outputs,
                self.base,
                scratch,
            )?;
            local.absorb(&mt.health);
            stats.breakpoints += mt.health.breakpoints as u64;
            if leg_degradation(d_cmos, cmos, &mt) > self.opts.target {
                move_to_front(order, k);
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// One bisection attempt for cluster `g`: a log-space bisection of
    /// that cluster's device with every other cluster pinned at `hi`,
    /// under its own transition order.
    fn attempt(
        &self,
        engine: &Engine<'_>,
        scratch: &mut VbsimScratch,
        g: usize,
        run: &mut RunHealth,
        stats: &mut WorkerStats,
    ) -> Result<f64, CoreError> {
        let (lo, hi) = (self.opts.lo, self.opts.hi);
        let mut order: Vec<usize> = (0..self.transitions.len()).collect();
        log_bisect((lo, hi), 24, 1.02, |mid| {
            let mut trial = vec![hi; self.n_clusters];
            trial[g] = mid;
            self.exceeds(engine, scratch, &trial, &mut order, run, stats)
        })
    }

    /// Cluster `g`'s work item under the retry ladder. Its relaxed-budget
    /// attempt recomputes its own CMOS baselines: a run truncated at one
    /// budget can differ under a larger one.
    fn item(
        &self,
        engine: &Engine<'_>,
        scratch: &mut VbsimScratch,
        g: usize,
        stats: &mut WorkerStats,
    ) -> ItemReport<f64> {
        retry_item(g, &self.opts.fault, self.base, |attempt, opts, run| {
            if attempt == 0 {
                return self.attempt(engine, scratch, g, run, stats);
            }
            let baselines = self.cmos_baselines(engine, scratch, opts, run, stats)?;
            let ev = Evaluator {
                baselines: &baselines,
                base: opts,
                prefix: Vec::new(),
                ..*self
            }
            .keyed(engine);
            ev.attempt(engine, scratch, g, run, stats)
        })
    }
}

/// The chosen sleep configuration of one [`size_clusters_for_target`]
/// call.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSizing {
    /// Cluster index per cell of the *returned* solution — the
    /// partition's assignment, or all zeros when the single-device
    /// fallback won.
    pub assignment: Vec<usize>,
    /// W/L per cluster of the returned solution.
    pub w_over_ls: Vec<f64>,
    /// W/L per cluster of the clustered candidate (before the
    /// never-worse comparison), whichever solution was returned.
    pub clustered_w_over_ls: Vec<f64>,
    /// The single shared device sized for the same target, when
    /// feasible — the never-worse comparison baseline.
    pub single_w_over_l: Option<f64>,
    /// True when the single device used no more total width than the
    /// clustered candidate and was returned instead.
    pub fell_back: bool,
}

impl ClusterSizing {
    /// Total sleep width of the returned solution.
    pub fn total_width(&self) -> f64 {
        self.w_over_ls.iter().sum()
    }

    /// Total sleep width of the clustered candidate.
    pub fn clustered_width(&self) -> f64 {
        self.clustered_w_over_ls.iter().sum()
    }
}

/// Execution report of one [`size_clusters_for_target`] call.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-worker counters of the parallel per-cluster bisection phase.
    pub workers: Vec<WorkerStats>,
    /// End-to-end wall time, seconds.
    pub wall: f64,
    /// Sweep-level health: quarantined clusters, retries, recovered
    /// panics, summed run counters (serial verification and the
    /// single-device baseline included).
    pub health: SweepHealth,
    /// Number of clusters sized.
    pub n_clusters: usize,
    /// Conflict-graph edges of the partition.
    pub conflict_edges: usize,
    /// Cells folded into conflicting clusters by the colouring cap.
    pub folded: usize,
}

impl ClusterReport {
    /// This co-optimisation as a [`mtk_trace::PhaseTrace`]: the health
    /// counters plus the cluster registry counters, a `cluster_w_over_l`
    /// histogram of the returned per-cluster sizes, this report's wall
    /// time and per-worker sinks (timing section).
    pub fn to_phase(&self, name: &str, sizing: &ClusterSizing) -> mtk_trace::PhaseTrace {
        let mut phase = self.health.phase(name).with_wall(self.wall);
        phase.workers = crate::par::worker_traces(&self.workers);
        phase
            .counters
            .add(mtk_trace::CounterId::Clusters, self.n_clusters as u64);
        phase.counters.add(
            mtk_trace::CounterId::ClusterConflicts,
            self.conflict_edges as u64,
        );
        phase
            .counters
            .add(mtk_trace::CounterId::ClusterFolds, self.folded as u64);
        phase.counters.add(
            mtk_trace::CounterId::ClusterFallbacks,
            sizing.fell_back as u64,
        );
        let mut widths = mtk_trace::Histogram::new();
        for &wl in &sizing.w_over_ls {
            widths.record(wl.round().max(0.0) as u64);
        }
        phase
            .extra_histograms
            .push(("cluster_w_over_l".to_string(), widths));
        phase
    }
}

/// Configuration of [`size_clusters_for_target`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOptions {
    /// Probed nets (`None` = primary outputs).
    pub probes: Option<Vec<NetId>>,
    /// Fractional degradation every decision is made against (e.g.
    /// `0.05` for the paper's 5 % criterion).
    pub target: f64,
    /// Lower end of every bisection bracket.
    pub lo: f64,
    /// Upper end of every bisection bracket: the size feasibility is
    /// checked at and a quarantined cluster's device keeps.
    pub hi: f64,
    /// Switch-level simulator options; the sleep devices come from the
    /// partition, and `max_events` is relaxed on a cluster's overflow
    /// retry.
    pub base: VbsimOptions,
    /// Worker threads of the per-cluster bisections.
    pub threads: usize,
    /// Failure routing of the per-cluster work items.
    pub policy: FailurePolicy,
    /// Deterministic fault injection into the per-cluster work items
    /// (tests).
    pub fault: FaultPlan,
}

impl ClusterOptions {
    /// Defaults at a given target and bracket `(lo, hi)`: primary-output
    /// probes, default simulator options, serial, fail-fast, no injected
    /// faults.
    pub fn at_target(target: f64, (lo, hi): (f64, f64)) -> Self {
        ClusterOptions {
            probes: None,
            target,
            lo,
            hi,
            base: VbsimOptions::default(),
            threads: 1,
            policy: FailurePolicy::FailFast,
            fault: FaultPlan::none(),
        }
    }
}

/// Sizes one sleep transistor per cluster so the worst degradation over
/// `transitions` is at most `opts.target`, then applies the never-worse
/// rule against the single shared device.
///
/// Strategy: feasibility at all-`hi`, per-cluster log-bisection in
/// `[lo, hi]` with the other clusters pinned at `hi` — run as
/// independent [`crate::par`] work items (deterministic at any
/// `opts.threads`, with quarantine/retry under `opts.policy` and
/// `opts.fault`) — then joint verification with uniform ×1.2 scale-up,
/// and finally the single-device solution for the same target;
/// whichever candidate uses less total width is returned. A
/// quarantined cluster's device conservatively stays at `hi`.
///
/// Every evaluation is a decision against the target that stops at its
/// first over-target transition, as in
/// [`crate::sizing::size_for_target_cached`], and each transition's CMOS
/// baseline is simulated once per call, not once per evaluation.
///
/// With `store`, every decision is written through a persistent log
/// under the `clu2` tag, and every CMOS baseline as a screening
/// leg; a warm rerun replays all of them — stored health included — so
/// its deterministic telemetry is bit-identical to the cold run apart
/// from the hit/miss counters, and nothing is simulated.
///
/// # Errors
///
/// * [`CoreError::InvalidOptions`] when `transitions` is empty.
/// * [`CoreError::SizingInfeasible`] when even all-`hi` misses the
///   target.
/// * Under [`FailurePolicy::FailFast`], the error of the
///   lowest-indexed failing cluster; under
///   [`FailurePolicy::Quarantine`], [`CoreError::TooManyFailures`]
///   past the cap.
/// * Propagates simulator errors of the baselines and of the legs the
///   decisions run; a leg an earlier over-target transition made
///   unnecessary never runs and raises nothing.
///
/// # Panics
///
/// Panics on an empty netlist, a partition whose assignment length
/// disagrees with the cell count, or an invalid bracket.
pub fn size_clusters_for_target(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    partition: &ExclusivePartition,
    opts: &ClusterOptions,
    store: Option<&mtk_store::Store>,
) -> Result<(ClusterSizing, ClusterReport), CoreError> {
    assert!(
        partition.assignment.len() == netlist.cells().len() && !partition.assignment.is_empty(),
        "partition must cover a non-empty netlist"
    );
    let (lo, hi, target) = (opts.lo, opts.hi, opts.target);
    assert!(lo > 0.0 && hi > lo, "invalid sizing bracket");
    require_transitions(transitions)?;
    let t0 = Instant::now();
    let n = partition.n_clusters;
    let outputs = probe_nets(netlist, opts.probes.as_deref());
    let engine = Engine::new(netlist, tech);
    let mut serial_scratch = VbsimScratch::new();
    let mut serial_run = RunHealth::default();
    let mut serial_stats = WorkerStats::default();
    let unkeyed = Evaluator {
        transitions,
        baselines: &[],
        outputs: &outputs,
        assignment: &partition.assignment,
        base: &opts.base,
        n_clusters: n,
        opts,
        store,
        prefix: Vec::new(),
    };
    let baselines = unkeyed.cmos_baselines(
        &engine,
        &mut serial_scratch,
        &opts.base,
        &mut serial_run,
        &mut serial_stats,
    )?;
    let clustered = Evaluator {
        baselines: &baselines,
        ..unkeyed
    }
    .keyed(&engine);
    // The serial phases each own a transition order, as every parallel
    // work item does, so the decisions' health is schedule-independent.
    let mut order: Vec<usize> = (0..transitions.len()).collect();
    let mut serial_exceeds = |ev: &Evaluator<'_>, sizes: &[f64], order: &mut [usize]| {
        ev.exceeds(
            &engine,
            &mut serial_scratch,
            sizes,
            order,
            &mut serial_run,
            &mut serial_stats,
        )
    };
    // Feasibility: even with every cluster at hi?
    if serial_exceeds(&clustered, &vec![hi; n], &mut order)? {
        return Err(CoreError::SizingInfeasible {
            target,
            at_w_over_l: hi,
        });
    }
    // Per-cluster bisection as independent, fault-tolerant work items.
    let items: Vec<usize> = (0..n).collect();
    let (reports, workers) = try_parallel_map_with(
        opts.threads,
        1,
        &items,
        || (Engine::new(netlist, tech), VbsimScratch::new()),
        |(engine, scratch), _index, &g, stats| clustered.item(engine, scratch, g, stats),
    );
    let (values, mut health) = fold_item_reports(reports, opts.policy)?;
    let mut sizes: Vec<f64> = values.into_iter().map(|v| v.unwrap_or(hi)).collect();
    // Joint verification with uniform scale-up: the per-cluster
    // bisections assumed everyone else at hi, so cross-cluster logic
    // interaction can push the joint worst case past the target.
    let mut joint_ok = false;
    for _ in 0..12 {
        if !serial_exceeds(&clustered, &sizes, &mut order)? {
            joint_ok = true;
            break;
        }
        for s in &mut sizes {
            *s = (*s * 1.2).min(hi);
        }
    }
    if !joint_ok {
        sizes = vec![hi; n];
    }
    // The never-worse rule: a single shared device sized for the same
    // target with the same machinery. Sequential paths split the delay
    // budget across clusters, so the clustered candidate can genuinely
    // need more total width — in that case the single device wins.
    let single_assignment = vec![0usize; netlist.cells().len()];
    let single = Evaluator {
        assignment: &single_assignment,
        n_clusters: 1,
        prefix: Vec::new(),
        ..clustered
    }
    .keyed(&engine);
    let mut order: Vec<usize> = (0..transitions.len()).collect();
    let single_w_over_l = if serial_exceeds(&single, &[hi], &mut order)? {
        None
    } else {
        Some(log_bisect((lo, hi), 24, 1.02, |wl| {
            serial_exceeds(&single, &[wl], &mut order)
        })?)
    };
    let clustered_width: f64 = sizes.iter().sum();
    let fell_back = single_w_over_l.is_some_and(|s| s <= clustered_width);
    let (assignment, w_over_ls) = match single_w_over_l {
        Some(single) if fell_back => (single_assignment, vec![single]),
        _ => (partition.assignment.clone(), sizes.clone()),
    };
    let sizing = ClusterSizing {
        assignment,
        w_over_ls,
        clustered_w_over_ls: sizes,
        single_w_over_l,
        fell_back,
    };
    // Serial phases (feasibility, joint verify, single baseline) are
    // identical at any thread count, so merging their counters after
    // the fold keeps the whole report deterministic.
    health.runs.absorb(&serial_run);
    Ok((
        sizing,
        ClusterReport {
            workers,
            wall: t0.elapsed().as_secs_f64(),
            health,
            n_clusters: n,
            conflict_edges: partition.conflict_edges,
            folded: partition.folded,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::tree::InverterTree;
    use mtk_netlist::cell::CellKind;

    fn two_inverters() -> Netlist {
        let mut nl = Netlist::new("pair");
        let a = nl.add_net("a").unwrap();
        let b = nl.add_net("b").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.mark_primary_input(b).unwrap();
        let x = nl.add_net("x").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_cell("i1", CellKind::Inv, vec![a], x, 1.0).unwrap();
        nl.add_cell("i2", CellKind::Inv, vec![b], y, 1.0).unwrap();
        nl.mark_primary_output(x);
        nl.mark_primary_output(y);
        nl
    }

    fn tr(from: &[Logic], to: &[Logic]) -> Transition {
        Transition::new(from.to_vec(), to.to_vec())
    }

    use Logic::{One, Zero};

    #[test]
    fn exclusive_gates_share_a_cluster() {
        let nl = two_inverters();
        let p = exclusive_partition(
            &nl,
            &[tr(&[Zero, One], &[One, One]), tr(&[One, Zero], &[One, One])],
            8,
        )
        .unwrap();
        assert_eq!(p.assignment, vec![0, 0]);
        assert_eq!(p.n_clusters, 1);
        assert_eq!(p.conflict_edges, 0);
        assert_eq!(p.folded, 0);
    }

    #[test]
    fn co_discharging_gates_are_separated() {
        let nl = two_inverters();
        let p = exclusive_partition(&nl, &[tr(&[Zero, Zero], &[One, One])], 8).unwrap();
        assert_eq!(p.assignment, vec![0, 1]);
        assert_eq!(p.n_clusters, 2);
        assert_eq!(p.conflict_edges, 1);
    }

    #[test]
    fn x_levels_are_conservative() {
        // An X→X output may discharge, so it conflicts with anything
        // that discharges on the same vector.
        let mut nl = two_inverters();
        let u = nl.add_net("u").unwrap(); // undriven: evaluates to X
        let z = nl.add_net("z").unwrap();
        nl.add_cell("i3", CellKind::Inv, vec![u], z, 1.0).unwrap();
        let p = exclusive_partition(&nl, &[tr(&[Zero, One], &[One, One])], 8).unwrap();
        // i1 discharges (x falls), i2 does not, i3 is conservatively
        // counted as discharging.
        assert_eq!(p.assignment[0], 0);
        assert_eq!(p.assignment[1], 0);
        assert_ne!(p.assignment[2], p.assignment[0]);
    }

    #[test]
    fn colouring_folds_at_the_cap_deterministically() {
        // Three gates that all discharge together need three colours;
        // capped at two, the third folds and is counted.
        let mut nl = Netlist::new("trio");
        let a = nl.add_net("a").unwrap();
        nl.mark_primary_input(a).unwrap();
        for i in 0..3 {
            let o = nl.add_net(&format!("o{i}")).unwrap();
            nl.add_cell(&format!("g{i}"), CellKind::Inv, vec![a], o, 1.0)
                .unwrap();
            nl.mark_primary_output(o);
        }
        let full = exclusive_partition(&nl, &[tr(&[Zero], &[One])], 8).unwrap();
        assert_eq!(full.assignment, vec![0, 1, 2]);
        assert_eq!(full.conflict_edges, 3);
        let capped = exclusive_partition(&nl, &[tr(&[Zero], &[One])], 2).unwrap();
        assert_eq!(capped.n_clusters, 2);
        assert_eq!(capped.folded, 1);
        assert!(capped.assignment.iter().all(|&g| g < 2));
        // Deterministic: same inputs, same partition.
        let again = exclusive_partition(&nl, &[tr(&[Zero], &[One])], 2).unwrap();
        assert_eq!(capped, again);
    }

    #[test]
    fn partition_is_a_pure_function_of_inputs() {
        let tree = InverterTree::paper();
        let trs = [tr(&[Zero], &[One]), tr(&[One], &[Zero])];
        let a = exclusive_partition(&tree.netlist, &trs, 16).unwrap();
        let b = exclusive_partition(&tree.netlist, &trs, 16).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.assignment.len(), tree.netlist.cells().len());
        // The tree's stages lie on one path: stage 1 and stage 3 both
        // discharge on the rising input, so they must be separated.
        assert!(a.n_clusters > 1);
    }

    #[test]
    fn depth_partition_is_valid_and_ordered() {
        let add = mtk_circuits::adder::RippleAdder::paper();
        let p = ExclusivePartition::by_depth(&add.netlist, 3).unwrap();
        assert_eq!(p.assignment.len(), add.netlist.cells().len());
        assert_eq!((p.n_clusters, p.conflict_edges, p.folded), (3, 0, 0));
        assert!(p.assignment.iter().all(|&g| g < p.n_clusters));
        // All groups populated for a deep enough circuit.
        for g in 0..3 {
            assert!(p.assignment.contains(&g), "group {g} empty: {p:?}");
        }
    }

    #[test]
    fn tree_stage_partition_decouples_stages() {
        // In the Fig 4 tree, stage 0 and stage 2 both discharge on a
        // rising input. With one shared device they interact; with one
        // device per stage (same per-device size!) each stage sees only
        // its own current, so the delay improves.
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let wl = 5.0;
        let single = engine
            .run(&[Zero], &[One], &VbsimOptions::mtcmos(wl))
            .unwrap();
        let stages = ExclusivePartition::by_depth(&tree.netlist, 3).unwrap();
        let partition = stages.to_sleep(&[wl; 3]);
        let multi = engine
            .run_partitioned(&[Zero], &[One], Some(&partition), &VbsimOptions::cmos())
            .unwrap();
        let d_single = single.delay_over(tree.leaves()).unwrap();
        let d_multi = multi.delay_over(tree.leaves()).unwrap();
        assert!(
            d_multi < d_single,
            "partitioned {d_multi} should beat shared {d_single}"
        );
    }

    #[test]
    fn per_stage_devices_track_their_stage_current() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let trs = [tr(&[Zero], &[One])];
        let stages = ExclusivePartition::by_depth(&tree.netlist, 3).unwrap();
        let base = VbsimOptions::cmos(); // sleep comes from the partition
        let target = 0.20;
        let opts = ClusterOptions {
            base: base.clone(),
            ..ClusterOptions::at_target(target, (0.5, 400.0))
        };
        let (sizing, _) =
            size_clusters_for_target(&tree.netlist, &tech, &trs, &stages, &opts, None).unwrap();
        let sizes = &sizing.clustered_w_over_ls;
        let engine = Engine::new(&tree.netlist, &tech);
        let assignment = &stages.assignment;
        let worst = worst_degradation_partitioned(&engine, &trs, None, assignment, sizes, &base);
        let worst = worst.unwrap();
        assert!(worst <= target + 1e-9, "worst {worst}");
        // The allocation must track per-stage current: the third stage
        // (nine discharging gates) needs the widest device, the first
        // stage (one gate) the narrowest. The stages lie on one path, so
        // the delay budget is *split* across them (each local device buys
        // only part of the 20%) — the sequential-path caveat that makes
        // the never-worse rule return the single device here.
        assert!(
            sizes[2] > sizes[0],
            "nine-gate stage must be widest: {sizes:?}"
        );
        let single = sizing.single_w_over_l.expect("single device feasible");
        assert!(sizing.fell_back && single < sizing.clustered_width());
    }

    /// The constructor's defaults are the values a `cluster` job passed
    /// positionally before the options struct: primary-output probes,
    /// default simulator options, no injected faults — and serial,
    /// fail-fast, where a job sets its own threads and policy.
    #[test]
    fn cluster_options_default_to_the_job_values() {
        let opts = ClusterOptions::at_target(0.05, (1.0, 2000.0));
        assert_eq!(
            opts,
            ClusterOptions {
                probes: None,
                target: 0.05,
                lo: 1.0,
                hi: 2000.0,
                base: VbsimOptions::default(),
                threads: 1,
                policy: FailurePolicy::FailFast,
                fault: FaultPlan::none(),
            }
        );
    }

    #[test]
    fn bad_transition_width_is_reported() {
        let nl = two_inverters();
        let err = exclusive_partition(&nl, &[tr(&[Zero], &[One])], 4).unwrap_err();
        assert!(matches!(err, CoreError::Netlist(_)));
    }

    fn size_tree(
        threads: usize,
        policy: FailurePolicy,
        fault: &FaultPlan,
        store: Option<&mtk_store::Store>,
    ) -> Result<(ClusterSizing, ClusterReport), CoreError> {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let trs = [tr(&[Zero], &[One]), tr(&[One], &[Zero])];
        let partition = exclusive_partition(&tree.netlist, &trs, 4).unwrap();
        let opts = ClusterOptions {
            base: VbsimOptions::cmos(),
            threads,
            policy,
            fault: fault.clone(),
            ..ClusterOptions::at_target(0.20, (0.5, 400.0))
        };
        size_clusters_for_target(&tree.netlist, &tech, &trs, &partition, &opts, store)
    }

    #[test]
    fn clustered_sizing_meets_target_and_is_never_worse() {
        let (sizing, report) =
            size_tree(1, FailurePolicy::FailFast, &FaultPlan::none(), None).unwrap();
        assert_eq!(report.n_clusters, 4);
        assert!(sizing.total_width() > 0.0);
        // Never-worse: whatever was returned uses no more total width
        // than the feasible single device.
        if let Some(single) = sizing.single_w_over_l {
            assert!(
                sizing.total_width() <= single + 1e-9,
                "returned {} vs single {single}",
                sizing.total_width()
            );
        }
        // And the returned solution actually meets the target.
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let worst = worst_degradation_partitioned(
            &engine,
            &[tr(&[Zero], &[One]), tr(&[One], &[Zero])],
            None,
            &sizing.assignment,
            &sizing.w_over_ls,
            &VbsimOptions::cmos(),
        )
        .unwrap();
        assert!(worst <= 0.20 + 1e-9, "worst {worst}");
    }

    #[test]
    fn sizing_is_identical_at_any_thread_count() {
        let (s1, r1) = size_tree(1, FailurePolicy::FailFast, &FaultPlan::none(), None).unwrap();
        for threads in [2usize, 8] {
            let (s, r) =
                size_tree(threads, FailurePolicy::FailFast, &FaultPlan::none(), None).unwrap();
            assert_eq!(s, s1, "threads={threads}");
            assert_eq!(r.health.runs, r1.health.runs, "threads={threads}");
            assert_eq!(
                r.health.breakpoints_per_item, r1.health.breakpoints_per_item,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn quarantined_cluster_falls_back_to_hi_deterministically() {
        let fault = FaultPlan {
            error_at: vec![1],
            ..FaultPlan::none()
        };
        let (sizing, report) = size_tree(2, FailurePolicy::quarantine(2), &fault, None).unwrap();
        assert_eq!(report.health.quarantined_indices(), vec![1]);
        if !sizing.fell_back {
            assert_eq!(
                sizing.w_over_ls[1], 400.0,
                "quarantined cluster stays at hi"
            );
        }
        // Same outcome at another thread count.
        let (s8, r8) = size_tree(8, FailurePolicy::quarantine(2), &fault, None).unwrap();
        assert_eq!(s8, sizing);
        assert_eq!(r8.health.quarantined_indices(), vec![1]);
    }

    #[test]
    fn infeasible_target_is_reported() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let trs = [tr(&[Zero], &[One])];
        let partition = exclusive_partition(&tree.netlist, &trs, 4).unwrap();
        let opts = ClusterOptions {
            base: VbsimOptions::cmos(),
            ..ClusterOptions::at_target(1e-9, (0.1, 0.2))
        };
        let err = size_clusters_for_target(&tree.netlist, &tech, &trs, &partition, &opts, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::SizingInfeasible { .. }));
    }

    #[test]
    fn sizing_over_no_transitions_is_rejected() {
        let tree = InverterTree::paper();
        let stages = ExclusivePartition::by_depth(&tree.netlist, 2).unwrap();
        let opts = ClusterOptions {
            base: VbsimOptions::cmos(),
            ..ClusterOptions::at_target(0.20, (0.5, 400.0))
        };
        let tech = Technology::l07();
        let err = size_clusters_for_target(&tree.netlist, &tech, &[], &stages, &opts, None);
        assert!(matches!(err, Err(CoreError::InvalidOptions(_))), "{err:?}");
    }

    #[test]
    fn warm_store_rerun_replays_everything_without_simulating() {
        let dir = std::env::temp_dir().join(format!("mtk_cluster_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.log");
        let _ = std::fs::remove_file(&path);

        let store = mtk_store::Store::open(&path).unwrap();
        let (cold_sizing, cold_report) =
            size_tree(2, FailurePolicy::FailFast, &FaultPlan::none(), Some(&store)).unwrap();
        let cold = cold_report.health.runs;
        assert!(cold.cache_misses > 0, "cold run must simulate");
        assert_eq!(cold.cache_hits, 0);
        drop(store);

        // A fresh process over the same log replays every evaluation.
        let store = mtk_store::Store::open(&path).unwrap();
        let (warm_sizing, warm_report) =
            size_tree(8, FailurePolicy::FailFast, &FaultPlan::none(), Some(&store)).unwrap();
        let warm = warm_report.health.runs;
        assert_eq!(warm_sizing, cold_sizing, "warm result must be identical");
        assert_eq!(warm.cache_misses, 0, "warm rerun simulated nothing");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        // Replayed telemetry is bit-identical apart from the hit/miss
        // counters themselves.
        assert_eq!(warm.breakpoints, cold.breakpoints);
        assert_eq!(warm.glitch_reversals, cold.glitch_reversals);
        assert_eq!(warm.vx_fallbacks, cold.vx_fallbacks);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    fn tree_prefix(assignment: &[usize], target: f64) -> Vec<u8> {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let trs = [tr(&[Zero], &[One])];
        let outputs = tree.netlist.primary_outputs().to_vec();
        let base = VbsimOptions::cmos();
        Evaluator {
            transitions: &trs,
            baselines: &[],
            outputs: &outputs,
            assignment,
            base: &base,
            n_clusters: 1,
            opts: &ClusterOptions::at_target(target, (0.5, 400.0)),
            store: None,
            prefix: Vec::new(),
        }
        .keyed(&engine)
        .prefix
    }

    #[test]
    fn store_keys_do_not_alias_other_record_namespaces() {
        let tree = InverterTree::paper();
        let flat = vec![0usize; tree.netlist.cells().len()];
        let prefix = tree_prefix(&flat, 0.2);
        assert_eq!(&prefix[..4], record::CLUSTER_TAG);
        for other in [b"leg1" as &[u8], b"req2", b"mct1", b"clu1"] {
            assert_ne!(&prefix[..4], other, "cluster records need their own tag");
        }
        // Different assignments (clustered vs flat) never share keys.
        let clustered = exclusive_partition(&tree.netlist, &[tr(&[Zero], &[One])], 4).unwrap();
        assert_ne!(prefix, tree_prefix(&clustered.assignment, 0.2));
        // A decision holds at its own target only.
        assert_ne!(prefix, tree_prefix(&flat, 0.1));
    }
}
