//! A small std-only parallel executor for the screening/search hot path.
//!
//! The paper's workflow is embarrassingly parallel: thousands of input
//! vectors, each simulated independently by the switch-level simulator —
//! and, in the hybrid flow ([`crate::hybrid::run_hybrid`]), the top
//! screened candidates each verified independently by a SPICE transient
//! on a per-worker reusable circuit.
//! This module shards an indexed work list across scoped worker threads.
//! Work items are handed out dynamically (an atomic cursor over fixed
//! chunks), but results are keyed by item index, so the *output* is
//! independent of the schedule: any randomness a work item needs must
//! come from a per-index [`mtk_num::prng::Xoshiro256pp::stream`], never
//! from a worker-local generator — that is what makes screening and
//! search bit-identical at any thread count.
//!
//! Each worker also keeps observability counters (vectors simulated,
//! vbsim breakpoints solved, busy wall time) so binaries can report the
//! realised speedup.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A work item whose closure panicked. The panic was caught at the
/// item boundary, so the rest of the sweep kept running; `message` is
/// the panic payload when it was a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Index of the panicking item.
    pub index: usize,
    /// Stringified panic payload (`"<non-string panic payload>"` when
    /// the payload was not a `&str`/`String`).
    pub message: String,
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Observability counters for one worker thread. These describe the
/// *schedule* (which is nondeterministic under dynamic sharding) — the
/// computed results never depend on them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Input-vector transitions simulated (CMOS + MTCMOS pairs count 1).
    pub vectors: u64,
    /// Switch-level breakpoints solved across all runs.
    pub breakpoints: u64,
    /// Seconds this worker spent busy.
    pub wall: f64,
}

impl WorkerStats {
    /// Merges another worker's counters into this one (used when a
    /// multi-phase computation reports one line per worker).
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.vectors += other.vectors;
        self.breakpoints += other.breakpoints;
        self.wall += other.wall;
    }

    /// This worker's counters as a [`mtk_trace::WorkerTrace`] entry of
    /// the timing section (worker sinks are schedule-dependent, so they
    /// never enter the deterministic part of a trace).
    pub fn to_trace(&self) -> mtk_trace::WorkerTrace {
        mtk_trace::WorkerTrace {
            worker: self.worker as u64,
            items: self.vectors,
            breakpoints: self.breakpoints,
            busy_s: self.wall,
        }
    }
}

/// Converts per-worker stats into timing-section entries, preserving
/// worker index order.
pub fn worker_traces(workers: &[WorkerStats]) -> Vec<mtk_trace::WorkerTrace> {
    workers.iter().map(WorkerStats::to_trace).collect()
}

/// Resolves a `threads` knob: `0` means "all available cores".
///
/// The core count is looked up once per process
/// ([`std::thread::available_parallelism`] reads cgroup files on every
/// call) and cached, so a later change of the process's CPU quota or
/// affinity is not seen. Results never depend on the thread count, so
/// a stale count costs speed only.
pub fn num_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if requested > 0 {
        requested
    } else {
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Maps `f` over `items`, sharded across `threads` scoped workers, with a
/// per-worker context built once by `init` (e.g. a worker-owned
/// [`crate::vbsim::Engine`] over a shared netlist). Results are returned
/// in item order; `stats` reports one entry per worker.
///
/// `chunk` is the number of consecutive indices claimed per cursor
/// increment: 1 for heavy items (one vbsim run each), larger for cheap
/// ones.
pub fn parallel_map_with<C, T, R, Init, F>(
    threads: usize,
    chunk: usize,
    items: &[T],
    init: Init,
    f: F,
) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    Init: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T, &mut WorkerStats) -> R + Sync,
{
    let (results, stats) = try_parallel_map_with(threads, chunk, items, init, f);
    let out = results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("worker panicked on item {}: {}", p.index, p.message),
        })
        .collect();
    (out, stats)
}

/// [`parallel_map_with`] with per-item panic isolation: each call to `f`
/// runs under `catch_unwind`, so one panicking item becomes an
/// [`ItemPanic`] in its result slot instead of tearing down the sweep.
/// The per-worker context is rebuilt (via `init`) after a caught panic,
/// since the panicking call may have left it mid-update; items are still
/// keyed by index, so output remains schedule-independent.
pub fn try_parallel_map_with<C, T, R, Init, F>(
    threads: usize,
    chunk: usize,
    items: &[T],
    init: Init,
    f: F,
) -> (Vec<Result<R, ItemPanic>>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    Init: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T, &mut WorkerStats) -> R + Sync,
{
    let threads = num_threads(threads).min(items.len().max(1));
    let chunk = chunk.max(1);

    let run_item =
        |ctx: &mut C, idx: usize, item: &T, stats: &mut WorkerStats| -> Result<R, ItemPanic> {
            match catch_unwind(AssertUnwindSafe(|| f(&mut *ctx, idx, item, &mut *stats))) {
                Ok(v) => Ok(v),
                Err(payload) => {
                    *ctx = init();
                    Err(ItemPanic {
                        index: idx,
                        message: panic_message(payload),
                    })
                }
            }
        };

    if threads <= 1 {
        // Inline fast path: no thread spawn, same per-index semantics.
        let t0 = Instant::now();
        let mut ctx = init();
        let mut stats = WorkerStats::default();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, item)| run_item(&mut ctx, i, item, &mut stats))
            .collect();
        stats.wall = t0.elapsed().as_secs_f64();
        return (out, vec![stats]);
    }

    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<R, ItemPanic>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut all_stats = vec![WorkerStats::default(); threads];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cursor = &cursor;
            let run_item = &run_item;
            let init = &init;
            handles.push(scope.spawn(move || {
                let t0 = Instant::now();
                let mut ctx = init();
                let mut stats = WorkerStats {
                    worker,
                    ..WorkerStats::default()
                };
                let mut local: Vec<(usize, Result<R, ItemPanic>)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items[start..end].iter().enumerate() {
                        let idx = start + i;
                        local.push((idx, run_item(&mut ctx, idx, item, &mut stats)));
                    }
                }
                stats.wall = t0.elapsed().as_secs_f64();
                (local, stats)
            }));
        }
        for handle in handles {
            let (local, stats) = handle.join().expect("worker thread panicked");
            let worker = stats.worker;
            all_stats[worker] = stats;
            for (idx, r) in local {
                results[idx] = Some(r);
            }
        }
    });

    let out = results
        .into_iter()
        .map(|r| r.expect("executor covered every index"))
        .collect();
    (out, all_stats)
}

/// [`parallel_map_with`] without a per-worker context.
pub fn parallel_map<T, R, F>(
    threads: usize,
    chunk: usize,
    items: &[T],
    f: F,
) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
{
    parallel_map_with(threads, chunk, items, || (), |(), i, item, s| f(i, item, s))
}

/// Merges per-phase worker stats into one line per worker index (phases
/// may use different thread counts; the result is as long as the widest
/// phase).
pub fn merge_stats(phases: &[Vec<WorkerStats>]) -> Vec<WorkerStats> {
    let width = phases.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut out: Vec<WorkerStats> = (0..width)
        .map(|worker| WorkerStats {
            worker,
            ..WorkerStats::default()
        })
        .collect();
    for phase in phases {
        for s in phase {
            out[s.worker].absorb(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let (got, stats) = parallel_map(threads, 4, &items, |_, &x, s| {
                s.vectors += 1;
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
            let total: u64 = stats.iter().map(|s| s.vectors).sum();
            assert_eq!(total, items.len() as u64);
        }
    }

    #[test]
    fn per_worker_context_is_reused() {
        // Count context constructions: one per worker, not per item.
        let builds = AtomicUsize::new(0);
        let items = vec![(); 64];
        let (got, stats) = parallel_map_with(
            2,
            1,
            &items,
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |ctx, i, (), _| {
                *ctx += 1;
                i
            },
        );
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        assert!(builds.load(Ordering::Relaxed) <= stats.len());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let (got, stats) = parallel_map(4, 1, &items, |_, &x, _| x);
        assert!(got.is_empty());
        assert_eq!(stats.len(), 1, "clamped to one (inline) worker");
    }

    #[test]
    fn num_threads_resolves_zero_to_available() {
        assert!(num_threads(0) >= 1);
        assert_eq!(num_threads(3), 3);
    }

    #[test]
    fn panicking_item_is_isolated_at_any_thread_count() {
        let items: Vec<u64> = (0..64).collect();
        let mut expect: Vec<Result<u64, ItemPanic>> = items.iter().map(|&x| Ok(x * 2)).collect();
        expect[13] = Err(ItemPanic {
            index: 13,
            message: "injected panic at item 13".into(),
        });
        for threads in [1, 2, 8] {
            let (got, _) = try_parallel_map_with(
                threads,
                4,
                &items,
                || (),
                |(), i, &x, _| {
                    if i == 13 {
                        panic!("injected panic at item {i}");
                    }
                    x * 2
                },
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn context_is_rebuilt_after_panic() {
        // A panicking item must not leak a half-updated context into the
        // items that follow it on the same worker.
        let items: Vec<u32> = (0..8).collect();
        let (got, _) = try_parallel_map_with(
            1,
            1,
            &items,
            || 0u32,
            |ctx, i, _, _| {
                *ctx += 1;
                if i == 3 {
                    panic!("poisoned");
                }
                *ctx
            },
        );
        // Context counts items since the last rebuild: 1,2,3,panic,1,2,...
        let values: Vec<Option<u32>> = got.into_iter().map(|r| r.ok()).collect();
        assert_eq!(
            values,
            vec![
                Some(1),
                Some(2),
                Some(3),
                None,
                Some(1),
                Some(2),
                Some(3),
                Some(4)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "worker panicked on item 5")]
    fn strict_map_repanics_with_item_index() {
        let items: Vec<u32> = (0..16).collect();
        let _ = parallel_map(1, 1, &items, |i, &x, _| {
            if i == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn merge_stats_sums_by_worker() {
        let a = vec![
            WorkerStats {
                worker: 0,
                vectors: 2,
                breakpoints: 10,
                wall: 0.5,
            },
            WorkerStats {
                worker: 1,
                vectors: 3,
                breakpoints: 20,
                wall: 0.6,
            },
        ];
        let b = vec![WorkerStats {
            worker: 0,
            vectors: 5,
            breakpoints: 1,
            wall: 0.1,
        }];
        let merged = merge_stats(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].vectors, 7);
        assert_eq!(merged[0].breakpoints, 11);
        assert_eq!(merged[1].vectors, 3);
    }
}
