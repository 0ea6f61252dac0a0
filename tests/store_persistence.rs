//! The persistence contract (ISSUE 7 / DESIGN.md §13): a warm rerun
//! **across processes** does zero simulator work — a fresh
//! `ScreeningCache` attached to an existing store log replays every leg
//! bit-identically, results *and* stored `RunHealth` telemetry — and a
//! torn final record loses at most that record, visibly.

use mtcmos_suite::circuits::tree::InverterTree;
use mtcmos_suite::core::cluster::{
    exclusive_partition, size_clusters_for_target, ClusterOptions, ClusterReport, ClusterSizing,
};
use mtcmos_suite::core::health::FaultPlan;
use mtcmos_suite::core::mc::{run_mc, McOptions, McReport};
use mtcmos_suite::core::sizing::{
    degradation_sweep_cached, size_for_target_cached, ScreeningCache, Transition,
};
use mtcmos_suite::core::vbsim::{Engine, VbsimOptions};
use mtcmos_suite::netlist::logic::Logic;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::store::Store;
use mtcmos_suite::trace::{TraceMode, TraceReport};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mtk_persist_{}_{name}.log", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut lock = self.0.clone().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(PathBuf::from(lock));
    }
}

#[test]
fn warm_rerun_across_processes_does_zero_simulator_work() {
    let path = scratch("warm");
    let _c = Cleanup(path.clone());
    let tree = InverterTree::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&tree.netlist, &tech);
    let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
    let base = VbsimOptions::default();
    let sizes = [20.0, 11.0, 5.0];

    // "Process 1": cold run against an empty store.
    let cold_cache = ScreeningCache::persistent(&path).unwrap();
    let (cold, cold_health) =
        degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &cold_cache).unwrap();
    let cold_snap = cold_cache.snapshot();
    assert_eq!(cold_snap.misses, 1 + sizes.len(), "cold run simulates");
    assert_eq!(cold_snap.store_hits, 0);
    assert_eq!(cold_snap.store_misses, cold_snap.misses);
    assert_eq!(cold_snap.store_put_errors, 0);
    assert_eq!(
        cold_snap.store.unwrap().live_records,
        cold_snap.misses,
        "every simulated leg was written through"
    );
    drop(cold_cache);

    // "Process 2": a fresh cache over the same log. Zero simulator work,
    // and the replay is bit-identical — sweep points and telemetry.
    let warm_cache = ScreeningCache::persistent(&path).unwrap();
    assert!(warm_cache.is_empty(), "memory tier starts empty");
    let (warm, warm_health) =
        degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &warm_cache).unwrap();
    assert_eq!(warm, cold, "cross-process warm rerun must be bit-identical");
    let warm_snap = warm_cache.snapshot();
    assert_eq!(warm_snap.misses, 0, "zero simulator work");
    assert_eq!(warm_snap.store_misses, 0);
    assert_eq!(
        warm_snap.store_hits,
        1 + sizes.len(),
        "every distinct leg decoded from the store once"
    );
    assert_eq!(warm_snap.hits, 2 * sizes.len(), "one lookup per leg use");
    // Stored telemetry replays identically (modulo the cache counters
    // themselves, which describe *this* run's traffic).
    assert_eq!(warm_health.breakpoints, cold_health.breakpoints);
    assert_eq!(warm_health.glitch_reversals, cold_health.glitch_reversals);
    assert_eq!(warm_health.vx_fallbacks, cold_health.vx_fallbacks);
    assert_eq!(warm_health.max_events, cold_health.max_events);
    assert_eq!(warm_health.cache_hits, 2 * sizes.len());
    assert_eq!(warm_health.cache_misses, 0);
}

#[test]
fn sizing_bisection_is_identical_with_and_without_store() {
    let path = scratch("sizing");
    let _c = Cleanup(path.clone());
    let tree = InverterTree::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&tree.netlist, &tech);
    let transitions = [Transition::new(vec![Logic::Zero], vec![Logic::One])];
    let base = VbsimOptions::default();

    let memory = ScreeningCache::new();
    let (wl_mem, _) = size_for_target_cached(
        &engine,
        &transitions,
        None,
        1.05,
        (0.5, 200.0),
        &base,
        &memory,
    )
    .unwrap();

    let stored = ScreeningCache::persistent(&path).unwrap();
    let (wl_cold, _) = size_for_target_cached(
        &engine,
        &transitions,
        None,
        1.05,
        (0.5, 200.0),
        &base,
        &stored,
    )
    .unwrap();
    assert_eq!(wl_cold.to_bits(), wl_mem.to_bits());
    drop(stored);

    // Replayed entirely from disk: same size to the last bit.
    let replay = ScreeningCache::persistent(&path).unwrap();
    let (wl_warm, _) = size_for_target_cached(
        &engine,
        &transitions,
        None,
        1.05,
        (0.5, 200.0),
        &base,
        &replay,
    )
    .unwrap();
    assert_eq!(wl_warm.to_bits(), wl_mem.to_bits());
    assert_eq!(replay.snapshot().misses, 0, "bisection replayed from disk");
}

#[test]
fn torn_final_record_loses_only_that_leg_and_is_counted() {
    let path = scratch("torn");
    let _c = Cleanup(path.clone());
    let tree = InverterTree::paper();
    let tech = Technology::l07();
    let engine = Engine::new(&tree.netlist, &tech);
    let tr = Transition::new(vec![Logic::Zero], vec![Logic::One]);
    let base = VbsimOptions::default();
    let sizes = [20.0, 11.0, 5.0];

    let cache = ScreeningCache::persistent(&path).unwrap();
    let (full, _) = degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &cache).unwrap();
    let records = cache.snapshot().store.unwrap().live_records;
    drop(cache);

    // Tear the last record mid-way, as a crash during the final append
    // would.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

    let recovered = ScreeningCache::persistent(&path).unwrap();
    let stats = recovered.snapshot().store.unwrap();
    assert_eq!(stats.live_records, records - 1, "only the torn leg lost");
    assert_eq!(stats.corrupt_records, 1, "and the loss is visible");
    // The rerun heals: same answer, exactly one leg re-simulated.
    let (again, _) =
        degradation_sweep_cached(&engine, &tr, None, &sizes, &base, &recovered).unwrap();
    assert_eq!(again, full, "recovery must not change the answer");
    assert_eq!(recovered.snapshot().misses, 1, "one leg re-simulated");
    drop(recovered);
    let healed = Store::open(&path).unwrap();
    assert_eq!(healed.stats().live_records, records);
    assert_eq!(healed.stats().corrupt_records, 0, "log healed by the put");
}

#[test]
fn store_tier_is_transparent_to_in_memory_callers() {
    // A cache with no store attached reports a store-free snapshot —
    // the documented `snapshot()` health surface for `mtk serve` status.
    let cache = ScreeningCache::new();
    let snap = cache.snapshot();
    assert_eq!(snap.legs, 0);
    assert_eq!(snap.store, None);
    assert_eq!(
        snap.store_hits + snap.store_misses + snap.store_put_errors,
        0
    );
}

/// `data/legs_v1.log` is the version 1 log that a store-backed sizing
/// solve wrote before store format 2 (commit 2edca5b): the solve of
/// [`solve_tree`] under `l07`, 22 `leg1` records. The leg keys did not
/// change with the format, so a rerun over that log simulates nothing and
/// returns the cold W/L to the bit, appending nothing; a technology that
/// differs in one parameter keys every leg apart, so all of them miss.
#[test]
fn leg_records_of_a_version_1_log_replay_and_stay_keyed_by_technology() {
    let path = scratch("legs_v1");
    let _c = Cleanup(path.clone());
    let fixture = include_bytes!("data/legs_v1.log");
    assert_eq!(fixture[8..12], 1u32.to_le_bytes(), "a version 1 log");
    std::fs::write(&path, fixture).unwrap();
    let tree = InverterTree::paper();
    let tech = Technology::l07();

    let cold = solve_tree(&tree, &tech, &ScreeningCache::new()).0;
    let replay = ScreeningCache::persistent(&path).unwrap();
    let (warm, snap) = solve_tree(&tree, &tech, &replay);
    assert_eq!(warm.to_bits(), cold.to_bits(), "the cold W/L bits");
    assert_eq!(snap.misses, 0, "0 legs simulated");
    assert_eq!(snap.store_hits, 22, "every stored leg replayed");
    drop(replay);
    assert_eq!(std::fs::read(&path).unwrap(), fixture, "nothing appended");

    let mut other = Technology::l07();
    other.vt_high += 0.01;
    let moved = ScreeningCache::persistent(&path).unwrap();
    let snap = solve_tree(&tree, &other, &moved).1;
    assert_eq!(snap.store_hits, 0, "no leg of another technology hits");
    assert!(snap.misses > 0);
    drop(moved);
    // Its legs were appended in the log's own version 1 form.
    let log = Store::open(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap()[8..12], 1u32.to_le_bytes());
    assert_eq!(log.verify().unwrap(), log.stats());
    assert_eq!(log.stats().live_records, 22 + snap.misses);
}

/// Sizes the paper's inverter tree over both input edges to 105 % in
/// [0.5, 200] through `cache`: the W/L and the cache's snapshot.
fn solve_tree(
    tree: &InverterTree,
    tech: &Technology,
    cache: &ScreeningCache,
) -> (f64, mtcmos_suite::core::sizing::CacheSnapshot) {
    let engine = Engine::new(&tree.netlist, tech);
    let transitions = [
        Transition::new(vec![Logic::Zero], vec![Logic::One]),
        Transition::new(vec![Logic::One], vec![Logic::Zero]),
    ];
    let base = VbsimOptions::default();
    let (wl, _) = size_for_target_cached(
        &engine,
        &transitions,
        None,
        1.05,
        (0.5, 200.0),
        &base,
        cache,
    )
    .unwrap();
    (wl, cache.snapshot())
}

/// `data/mc_cluster_v2.log` is the version 2 log that [`mc_tree`] and
/// [`cluster_tree`] wrote, in that order, into one fresh store at commit
/// c926a9c: 4 `mct1` trial records, then the cluster solve's `leg1` CMOS
/// baselines and its `clu2` decisions. A rerun over that log simulates
/// nothing, appends nothing and returns what a store-free run returns;
/// a cold run into an empty store writes the log again byte for byte, so
/// the keys and the value encodings of both namespaces stay pinned.
#[test]
fn mc_and_cluster_records_of_a_version_2_log_replay_and_are_rewritten_byte_for_byte() {
    let fixture = include_bytes!("data/mc_cluster_v2.log");
    assert_eq!(fixture[8..12], 2u32.to_le_bytes(), "a version 2 log");
    let (free_mc, (free_sizing, free_cluster)) = (mc_tree(None), cluster_tree(None));

    let cold = scratch("mc_cluster_cold");
    let _cold = Cleanup(cold.clone());
    {
        let store = Store::open(&cold).unwrap();
        mc_tree(Some(&store));
        cluster_tree(Some(&store));
    }
    let written = std::fs::read(&cold).unwrap();
    assert!(
        written == fixture,
        "a cold run rewrites the fixture byte for byte"
    );

    let path = scratch("mc_cluster_v2");
    let _c = Cleanup(path.clone());
    std::fs::write(&path, fixture).unwrap();
    let store = Store::open(&path).unwrap();
    let mut mc = mc_tree(Some(&store));
    let (sizing, mut cluster) = cluster_tree(Some(&store));
    drop(store);
    assert_eq!(std::fs::read(&path).unwrap(), fixture, "nothing appended");

    assert_eq!(mc.store_hits(), 4, "every trial replayed");
    assert_eq!(mc.store_misses(), 0, "0 trials simulated");
    assert!(cluster.health.runs.cache_hits > 0);
    assert_eq!(cluster.health.runs.cache_misses, 0, "0 decisions simulated");
    assert_eq!(sizing, free_sizing);
    // Replayed records carry their stored health, so once the store
    // traffic is set aside the traces are those of the store-free runs.
    for s in mc.samples.iter_mut().flatten() {
        s.from_store = false;
    }
    assert_eq!(mc_trace(&mc), mc_trace(&free_mc));
    cluster.health.runs.cache_hits = 0;
    assert_eq!(
        cluster_trace(&cluster, &sizing),
        cluster_trace(&free_cluster, &free_sizing)
    );
}

/// A four-trial Monte Carlo sweep of the paper's inverter tree over both
/// input edges at three yield-curve widths, on one thread.
fn mc_tree(store: Option<&Store>) -> McReport {
    let tree = InverterTree::paper();
    let tech = Technology {
        sigma_vt: 0.03,
        sigma_kp: 0.05,
        sigma_w: 0.04,
        ..Technology::l07()
    };
    let opts = McOptions {
        trials: 4,
        threads: 1,
        widths: vec![2.0, 10.0, 50.0],
        ..McOptions::default()
    };
    run_mc(
        &tree.netlist,
        &tech,
        &tree_edges(),
        None,
        &opts,
        store,
        &FaultPlan::none(),
    )
    .unwrap()
}

/// The paper's inverter tree sized per exclusive cluster to 20 % over
/// both input edges in [0.5, 800], on one thread.
fn cluster_tree(store: Option<&Store>) -> (ClusterSizing, ClusterReport) {
    let tree = InverterTree::paper();
    let transitions = tree_edges();
    let partition = exclusive_partition(&tree.netlist, &transitions, 4).unwrap();
    let opts = ClusterOptions::at_target(0.2, (0.5, 800.0));
    let tech = Technology::l07();
    size_clusters_for_target(&tree.netlist, &tech, &transitions, &partition, &opts, store).unwrap()
}

fn tree_edges() -> Vec<Transition> {
    vec![
        Transition::new(vec![Logic::Zero], vec![Logic::One]),
        Transition::new(vec![Logic::One], vec![Logic::Zero]),
    ]
}

fn mc_trace(report: &McReport) -> String {
    let mut trace = TraceReport::new("store_persistence");
    trace.push_phase(report.to_phase("mc"));
    trace.to_json(TraceMode::Deterministic)
}

fn cluster_trace(report: &ClusterReport, sizing: &ClusterSizing) -> String {
    let mut trace = TraceReport::new("store_persistence");
    trace.push_phase(report.to_phase("cluster", sizing));
    trace.to_json(TraceMode::Deterministic)
}
