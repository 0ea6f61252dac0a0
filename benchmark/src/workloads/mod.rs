//! The workloads: each sets itself up from the seed, runs a measured
//! window of unit operations checking every output, and can run the
//! same operations traced for attribution.

mod hybrid;
mod screen;
mod serve;
mod size;

pub use hybrid::options as hybrid_options;
pub use serve::screen_line;
pub use size::fill_store;

use crate::run::{Ctx, TraceRun, Window};
use crate::util::ScratchDir;

/// One workload after set-up.
pub trait Workload {
    /// Runs the measured window: unit operations back to back (or, for
    /// a server, from its clients) for `ctx.seconds`.
    fn measure(&mut self, ctx: &Ctx) -> Window;

    /// Runs the same inputs at one thread, untraced and traced in turn.
    fn trace(&mut self, ctx: &Ctx) -> TraceRun;
}

/// Every workload, in run order. What one operation of each is, and
/// why it was chosen, is in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: &[&str] = &[
    "screen-adder3",
    "size-mul16",
    "replay-mul16",
    "hybrid-alu4",
    "serve-mix",
];

/// Sets up the named workload, keeping any files under `scratch`.
pub fn setup(name: &str, ctx: &Ctx, scratch: &ScratchDir) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "screen-adder3" => Box::new(screen::Screen::setup(ctx)?),
        "size-mul16" => Box::new(size::Size::setup(ctx)?),
        "replay-mul16" => Box::new(size::Replay::setup(ctx, scratch)?),
        "hybrid-alu4" => Box::new(hybrid::Hybrid::setup(ctx)?),
        "serve-mix" => Box::new(serve::ServeMix::setup(ctx, scratch)?),
        _ => return Err(format!("unknown workload {name}")),
    })
}

/// The committed digest a `--seed 1` run must reproduce, checked only
/// on full-size (non-smoke) inputs.
fn check_digest(ctx: &Ctx, what: &str, got: u64, want: u64, w: &mut Window) {
    if ctx.smoke || ctx.seed != 1 {
        return;
    }
    if got == want {
        w.note(format!(
            "gate: {what} digest {got:#018x} matches the committed seed-1 value"
        ));
    } else {
        w.count(crate::run::Failure::Mismatch(format!(
            "{what} digest {got:#018x}, committed {want:#018x}"
        )));
    }
}
