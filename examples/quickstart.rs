//! Quickstart: how much does a sleep transistor cost?
//!
//! Builds the paper's Fig 4 inverter tree, runs the variable-breakpoint
//! switch-level simulator across a range of sleep-transistor sizes, and
//! prints delay and virtual-ground bounce per size.
//!
//! Run with: `cargo run --release --example quickstart`

use mtcmos_suite::circuits::tree::InverterTree;
use mtcmos_suite::core::sizing::{degradation_sweep_cached, ScreeningCache, Transition};
use mtcmos_suite::core::vbsim::{Engine, VbsimOptions};
use mtcmos_suite::netlist::logic::Logic;
use mtcmos_suite::netlist::tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 1→3→9 inverter tree: when the input rises, all nine
    // third-stage inverters discharge through the shared sleep device.
    let tree = InverterTree::paper();
    let tech = Technology::l07();
    println!(
        "circuit: {} ({} gates, {} transistors), technology {} (Vdd={} V)",
        tree.netlist.name(),
        tree.netlist.cells().len(),
        tree.netlist.total_transistors(),
        tech.name,
        tech.vdd
    );

    let engine = Engine::new(&tree.netlist, &tech);
    let rising_input = Transition::new(vec![Logic::Zero], vec![Logic::One]);

    // Sweep the paper's Fig 5 sizes; the cache simulates the shared
    // CMOS baseline once.
    let (sweep, _) = degradation_sweep_cached(
        &engine,
        &rising_input,
        None,
        &[20.0, 17.0, 14.0, 11.0, 8.0, 5.0, 2.0],
        &VbsimOptions::default(),
        &ScreeningCache::new(),
    )?;

    println!("\n W/L   delay [ns]   degradation   peak bounce [V]");
    for point in &sweep {
        let run = engine.run(
            &rising_input.from,
            &rising_input.to,
            &VbsimOptions::mtcmos(point.w_over_l),
        )?;
        println!(
            "{:>4}   {:>10.3}   {:>10.1}%   {:>14.3}",
            point.w_over_l,
            point.delays.mtcmos * 1e9,
            point.delays.degradation() * 100.0,
            run.peak_vgnd()
        );
    }
    println!(
        "\nCMOS baseline delay: {:.3} ns — shrink the sleep device and the shared \
         virtual ground bounces, starving every discharging gate at once.",
        sweep[0].delays.cmos * 1e9
    );
    Ok(())
}
