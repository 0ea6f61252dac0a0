//! The measuring loops every workload shares: a timed window of unit
//! operations, and the paired untraced/traced runs of `--trace 1`.

use crate::attrib::ROOT;
use crate::util::secs;
use mtk_trace::{Span, SpanRecorder};
use std::time::Instant;

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Shrunken inputs for a quick functional check.
    pub smoke: bool,
}

/// Why one operation did not count as a success.
#[derive(Debug)]
pub enum Failure {
    /// The library returned an error, quarantined an item, or a server
    /// refused the request.
    Failed(String),
    /// The operation completed but a correctness gate rejected its
    /// output.
    Mismatch(String),
}

/// A library error as a failed operation.
pub fn failed(e: impl std::fmt::Display) -> Failure {
    Failure::Failed(e.to_string())
}

/// Notes kept per run, so a systematic failure cannot flood the output.
const MAX_NOTES: usize = 8;

/// The outcome of a run's operations.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each operation, seconds.
    pub op_s: Vec<f64>,
    /// Wall time of the measured window, seconds.
    pub wall_s: f64,
    /// Operations attempted (requests, on a server).
    pub attempted: u64,
    /// Operations that failed (errors, refusals, quarantines).
    pub failed: u64,
    /// Correctness-gate mismatches (each also counts as a failure).
    pub mismatches: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Window {
    /// Records one finished operation and its latency.
    pub fn record(&mut self, latency_s: f64, result: Result<(), Failure>) {
        self.op_s.push(latency_s);
        self.tally(result);
    }

    /// Counts one finished operation.
    pub fn tally(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = result {
            self.count(f);
        }
    }

    /// Counts a failure outside an operation's latency (a post-window
    /// cross-check).
    pub fn count(&mut self, failure: Failure) {
        let line = match failure {
            Failure::Failed(msg) => format!("FAILED: {msg}"),
            Failure::Mismatch(msg) => {
                self.mismatches += 1;
                format!("MISMATCH: {msg}")
            }
        };
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(line);
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Operations a window runs however long they take, so its lower
/// quartile rests on more than one sample.
const MIN_OPS: usize = 3;

/// Runs `op` back to back until `seconds` have passed and at least
/// [`MIN_OPS`] operations completed.
pub fn serial(seconds: f64, mut op: impl FnMut(usize) -> Result<(), Failure>) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let result = op(i);
        w.record(secs(t), result);
        if secs(t0) >= seconds && i + 1 >= MIN_OPS {
            break;
        }
    }
    w.wall_s = secs(t0);
    w
}

/// The paired runs of `--trace 1`: the same operations at one thread,
/// untraced and with a span around every library call.
#[derive(Debug, Default)]
pub struct TraceRun {
    /// Wall of the untraced operations, seconds.
    pub untraced_s: f64,
    /// One root span per traced operation.
    pub roots: Vec<Span>,
    /// Counts and notes of both passes.
    pub window: Window,
}

impl TraceRun {
    /// Wall of the traced operations, seconds.
    pub fn traced_s(&self) -> f64 {
        self.roots.iter().map(|r| r.wall_s).sum()
    }
}

/// Runs operation `i` untraced and traced in alternating order (so
/// warm-up and drifts of the host load fall on both sides alike) for
/// `i = 0, 1, …` until half the window has passed. Each traced operation
/// runs inside a root span, which `after` may still amend.
pub fn paired(
    ctx: &Ctx,
    mut untraced: impl FnMut(usize) -> Result<(), Failure>,
    mut traced: impl FnMut(&mut SpanRecorder, usize) -> Result<(), Failure>,
    mut after: impl FnMut(usize, &mut Span, &mut Window),
) -> TraceRun {
    let mut run = TraceRun::default();
    let t0 = Instant::now();
    for i in 0.. {
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for is_traced in order {
            if is_traced {
                let mut rec = SpanRecorder::new(true);
                rec.begin(ROOT);
                let result = traced(&mut rec, i);
                rec.end();
                let mut root = rec.finish().pop().expect("the root span");
                after(i, &mut root, &mut run.window);
                run.roots.push(root);
                run.window.tally(result);
            } else {
                let t = Instant::now();
                let result = untraced(i);
                run.untraced_s += secs(t);
                run.window.tally(result);
            }
        }
        if secs(t0) >= ctx.seconds / 2.0 {
            break;
        }
    }
    run
}
