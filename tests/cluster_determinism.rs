//! The cluster co-optimisation contract (DESIGN.md §15), pinned end to
//! end on the ALU generator whose mutually-exclusive functional units
//! the partitioner exists for:
//!
//! 1. The clustered deterministic trace is **byte-identical at any
//!    thread count**, including under injected faults with a
//!    quarantined cluster — the workspace determinism contract extended
//!    to the cluster phase.
//! 2. The returned solution obeys the **never-worse rule** against the
//!    single shared device.
//! 3. With a persistent store, a warm rerun **replays every
//!    evaluation** — zero simulations — and returns the identical
//!    sizing; a cold store-backed run at any thread count matches it.
//! 4. Stored evaluations are decisions at one target: a store shared by
//!    runs at two targets gives each the answer it gets without one.

use mtcmos_suite::circuits::alu::{AluOp, AluSlice, AluSpec};
use mtcmos_suite::core::cluster::{
    exclusive_partition, size_clusters_for_target, ClusterOptions, ClusterReport, ClusterSizing,
};
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan};
use mtcmos_suite::core::sizing::Transition;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::store::Store;
use mtcmos_suite::trace::{TraceMode, TraceReport};
use std::path::PathBuf;

const TARGET: f64 = 0.20;
const BRACKET: (f64, f64) = (0.5, 800.0);

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mtk_cluster_{}_{name}.log", std::process::id()))
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

fn alu() -> AluSlice {
    AluSlice::new(&AluSpec {
        bits: 2,
        ..AluSpec::default()
    })
    .expect("generator is self-consistent")
}

/// Per-opcode operand swings: the same `(a, b)` transition under a
/// logic opcode and under ADD discharge different functional units, so
/// the partitioner has real exclusivity to find.
fn alu_transitions(alu: &AluSlice) -> Vec<Transition> {
    let mut out = Vec::new();
    for op in [AluOp::And, AluOp::Or, AluOp::Add] {
        out.push(Transition::new(
            alu.input_values(0, 0, op),
            alu.input_values(3, 1, op),
        ));
        out.push(Transition::new(
            alu.input_values(3, 3, op),
            alu.input_values(1, 2, op),
        ));
    }
    out
}

fn size_alu(
    threads: usize,
    policy: FailurePolicy,
    fault: &FaultPlan,
    store: Option<&Store>,
) -> (ClusterSizing, ClusterReport) {
    size_alu_at(TARGET, threads, policy, fault, store)
}

fn size_alu_at(
    target: f64,
    threads: usize,
    policy: FailurePolicy,
    fault: &FaultPlan,
    store: Option<&Store>,
) -> (ClusterSizing, ClusterReport) {
    let alu = alu();
    let transitions = alu_transitions(&alu);
    let partition = exclusive_partition(&alu.netlist, &transitions, 6).expect("partition");
    assert!(partition.n_clusters > 1, "ALU must yield real clusters");
    let opts = ClusterOptions {
        threads,
        policy,
        fault: fault.clone(),
        ..ClusterOptions::at_target(target, BRACKET)
    };
    let tech = Technology::l07();
    size_clusters_for_target(&alu.netlist, &tech, &transitions, &partition, &opts, store)
        .expect("cluster sizing")
}

/// Co-optimises the ALU under an injected fault plan and returns the
/// deterministic-mode trace JSON plus the sizing.
fn faulted_cluster_trace(threads: usize) -> (String, ClusterSizing) {
    let fault = FaultPlan {
        error_at: vec![1],
        ..FaultPlan::none()
    };
    let (sizing, report) = size_alu(threads, FailurePolicy::quarantine(4), &fault, None);
    let mut trace = TraceReport::new("cluster_determinism");
    trace.push_phase(report.to_phase("cluster", &sizing));
    (trace.to_json(TraceMode::Deterministic), sizing)
}

#[test]
fn clustered_deterministic_trace_is_byte_identical_across_thread_counts() {
    let (serial, s1) = faulted_cluster_trace(1);
    // The fault must actually bite (cluster 1 quarantined), or this
    // test pins nothing.
    assert!(serial.contains("\"quarantined\": ["), "{serial}");
    for threads in [2usize, 8] {
        let (par, s) = faulted_cluster_trace(threads);
        assert_eq!(
            par, serial,
            "deterministic cluster trace differs at threads={threads}"
        );
        assert_eq!(s, s1, "sizing differs at threads={threads}");
    }
}

#[test]
fn returned_solution_is_never_worse_than_the_single_device() {
    let (sizing, report) = size_alu(2, FailurePolicy::FailFast, &FaultPlan::none(), None);
    assert!(report.n_clusters > 1);
    if let Some(single) = sizing.single_w_over_l {
        assert!(
            sizing.total_width() <= single + 1e-9,
            "returned {} vs single {single}",
            sizing.total_width()
        );
    }
}

#[test]
fn warm_store_rerun_replays_every_evaluation() {
    let path = scratch("warm");
    let _c = Cleanup(path.clone());

    let cold_store = Store::open(&path).expect("open");
    let (cold, cold_report) = size_alu(
        2,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
        Some(&cold_store),
    );
    assert!(cold_report.health.runs.cache_misses > 0, "cold run writes");
    drop(cold_store);

    // Reopen: every evaluation replays, nothing is simulated, and the
    // sizing is identical — even at a different thread count.
    let warm_store = Store::open(&path).expect("reopen");
    let (warm, warm_report) = size_alu(
        8,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
        Some(&warm_store),
    );
    assert_eq!(warm_report.health.runs.cache_misses, 0, "warm run is free");
    assert_eq!(
        warm_report.health.runs.cache_hits,
        cold_report.health.runs.cache_hits + cold_report.health.runs.cache_misses,
        "every cold evaluation replays warm"
    );
    assert_eq!(warm, cold, "warm sizing must be identical");
}

#[test]
fn cold_store_runs_at_any_thread_count_match_the_warm_replay() {
    let paths: Vec<PathBuf> = [1usize, 2, 8]
        .iter()
        .map(|t| scratch(&format!("cold{t}")))
        .collect();
    let _c: Vec<Cleanup> = paths.iter().cloned().map(Cleanup).collect();
    let cold: Vec<(ClusterSizing, ClusterReport)> = [1usize, 2, 8]
        .iter()
        .zip(&paths)
        .map(|(&threads, path)| {
            let store = Store::open(path).expect("open");
            size_alu(
                threads,
                FailurePolicy::FailFast,
                &FaultPlan::none(),
                Some(&store),
            )
        })
        .collect();
    let (sizing, report) = &cold[0];
    for (s, r) in &cold[1..] {
        assert_eq!(s, sizing);
        assert_eq!(r.health.runs, report.health.runs);
        assert_eq!(
            r.health.breakpoints_per_item,
            report.health.breakpoints_per_item
        );
    }
    let store = Store::open(&paths[0]).expect("reopen");
    let (warm, warm_report) =
        size_alu(8, FailurePolicy::FailFast, &FaultPlan::none(), Some(&store));
    assert_eq!(&warm, sizing);
    let (w, c) = (warm_report.health.runs, report.health.runs);
    assert_eq!(w.cache_misses, 0, "warm run is free");
    assert_eq!(
        (
            w.breakpoints,
            w.glitch_reversals,
            w.vx_fallbacks,
            w.max_events
        ),
        (
            c.breakpoints,
            c.glitch_reversals,
            c.vx_fallbacks,
            c.max_events
        ),
        "replayed telemetry matches the cold run"
    );
}

#[test]
fn one_store_serves_each_target_its_own_answer() {
    let path = scratch("targets");
    let _c = Cleanup(path.clone());
    let store = Store::open(&path).expect("open");
    // Alternate the targets so each run finds the other's records.
    for target in [TARGET, 0.35, TARGET, 0.35] {
        let (stored, _) = size_alu_at(
            target,
            2,
            FailurePolicy::FailFast,
            &FaultPlan::none(),
            Some(&store),
        );
        let (fresh, _) = size_alu_at(target, 2, FailurePolicy::FailFast, &FaultPlan::none(), None);
        assert_eq!(stored, fresh, "target {target}");
    }
}
