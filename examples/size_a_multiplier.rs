//! The full sizing methodology on a carry-save multiplier.
//!
//! 1. Screen a large random vector space with the switch-level simulator
//!    to find the MTCMOS-sensitive transitions (§2.4: the worst CMOS
//!    vector is *not* the worst MTCMOS vector).
//! 2. Size the sleep transistor so the worst screened vector meets a 5 %
//!    degradation target.
//! 3. Compare against the two conservative baselines the paper
//!    criticises: peak-current sizing and sum-of-internal-widths sizing.
//!
//! Run with: `cargo run --release --example size_a_multiplier`

use mtcmos_suite::circuits::multiplier::{ArrayMultiplier, MultiplierSpec};
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan};
use mtcmos_suite::core::sizing::{peak_current_w_over_l, sum_of_widths_w_over_l};
use mtcmos_suite::core::sizing::{screen_vectors_par_quarantined, size_for_target_cached};
use mtcmos_suite::core::sizing::{ScreeningCache, Transition};
use mtcmos_suite::core::vbsim::{Engine, VbsimOptions};
use mtcmos_suite::netlist::logic::bits_lsb_first;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::num::prng::Xoshiro256pp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = ArrayMultiplier::new(&MultiplierSpec {
        bits: 6,
        ..MultiplierSpec::default()
    })?;
    let tech = Technology::l03();
    let engine = Engine::new(&m.netlist, &tech);
    let total_bits = 2 * m.bits() as u32;
    println!(
        "6x6 carry-save multiplier: {} transistors, Vdd={} V",
        m.netlist.total_transistors(),
        tech.vdd
    );

    // --- Step 1: screen 400 random vector transitions (in parallel;
    // sample i draws from PRNG stream (seed, i), so the sample set is
    // reproducible and independent of the thread count). ---
    let transitions: Vec<Transition> = (0..400u64)
        .map(|i| {
            let mut rng = Xoshiro256pp::stream(0xD_AC_19_97, i);
            let from = rng.next_below(1u64 << total_bits);
            let to = rng.next_below(1u64 << total_bits);
            Transition::new(
                bits_lsb_first(from, total_bits),
                bits_lsb_first(to, total_bits),
            )
        })
        .collect();
    let (screened, report) = screen_vectors_par_quarantined(
        &m.netlist,
        &tech,
        &transitions,
        None,
        100.0,
        &VbsimOptions::default(),
        0, // all cores
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    )?;
    println!(
        "screened {} random transitions across {} worker(s) in {:.2} s; {} exercise the outputs",
        transitions.len(),
        report.workers.len(),
        report.wall,
        screened.len()
    );
    println!("worst five at W/L=100:");
    for entry in screened.iter().take(5) {
        println!(
            "  #{:<4} degradation {:>6.2}%  (CMOS {:.3} ns -> MTCMOS {:.3} ns)",
            entry.index,
            entry.delays.degradation() * 100.0,
            entry.delays.cmos * 1e9,
            entry.delays.mtcmos * 1e9
        );
    }

    // --- Step 2: size for 5 % on the worst ten screened vectors. ---
    let worst: Vec<Transition> = screened
        .iter()
        .take(10)
        .map(|e| transitions[e.index].clone())
        .collect();
    let (wl, _) = size_for_target_cached(
        &engine,
        &worst,
        None,
        0.05,
        (10.0, 5000.0),
        &VbsimOptions::default(),
        &ScreeningCache::new(),
    )?;
    println!("\nsized for <=5% worst-case degradation: sleep W/L = {wl:.0}");

    // --- Step 3: the conservative baselines. The peak-current rule
    // sizes for the largest current the block can draw, so take the
    // maximum over the screened worst set. ---
    let mut i_peak: f64 = 0.0;
    for tr in &worst {
        let cmos_run = engine.run(&tr.from, &tr.to, &VbsimOptions::cmos())?;
        i_peak = i_peak.max(cmos_run.peak_sleep_current());
    }
    let wl_peak = peak_current_w_over_l(&tech, i_peak, 0.05);
    let wl_sum = sum_of_widths_w_over_l(&m.netlist, &tech);
    println!(
        "peak-current sizing (Ipeak={:.2} mA, 50 mV budget): W/L = {wl_peak:.0}  ({:.1}x over)",
        i_peak * 1e3,
        wl_peak / wl
    );
    println!(
        "sum-of-widths sizing:                               W/L = {wl_sum:.0}  ({:.1}x over)",
        wl_sum / wl
    );
    println!(
        "\nthe methodology recovers a {:.0}% / {:.0}% area saving over the naive rules — \
         the paper's core argument.",
        (1.0 - wl / wl_peak) * 100.0,
        (1.0 - wl / wl_sum) * 100.0
    );
    Ok(())
}
