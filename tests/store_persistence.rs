//! The persistence contract (ISSUE 7 / DESIGN.md §13): a warm rerun
//! **across processes** does zero simulator work — a fresh
//! `ScreeningCache` attached to an existing store log replays every leg
//! bit-identically, results *and* stored `RunHealth` telemetry — and a
//! torn final record loses at most that record, visibly.

use mtcmos_suite::circuits::tree::InverterTree;
use mtcmos_suite::core::sizing::{
    degradation_sweep_cached, size_for_target_cached, ScreeningCache, Transition,
};
use mtcmos_suite::core::vbsim::{Engine, VbsimOptions};
use mtcmos_suite::netlist::logic::Logic;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::store::Store;
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
