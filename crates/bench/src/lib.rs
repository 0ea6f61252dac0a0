//! Experiment harness for the paper reproduction.
//!
//! [`repro`] holds every data-bearing table and figure of the paper, plus
//! the ablations and extensions of `DESIGN.md` §5, as one table of typed
//! experiments that `mtk repro` runs and gates. The crate also holds the
//! `mtk` driver's job model and server, plain-text table reporting, the
//! statistics used to compare the two engines, and the median-of-N
//! timing that `mtk repro sec6-2` and the `speed_comparison` gate share.

pub mod cli;
pub mod job;
pub mod report;
pub mod repro;
pub mod serve;
pub mod speedfile;
pub mod stats;
pub mod timing;
pub mod wave;

use mtk_circuits::vectors::VectorPair;
use mtk_core::sizing::Transition;
use mtk_fe::interop::{import_deck, Imported, InteropError};
use mtk_netlist::logic::{bits_lsb_first, Logic};
use mtk_netlist::tech::Technology;
use mtk_num::prng::Xoshiro256pp;
use mtk_trace::CounterId;

/// Stream seed for the seeded random vector sample (`--samples` and the
/// `samples` request field) — sample *i* comes from PRNG stream
/// `(SAMPLE_SEED, i)`, so the set is identical at any thread count.
pub const SAMPLE_SEED: u64 = 0x4D_54_4B; // "MTK"

/// The transitions a flow command or serve job runs, per the documented
/// precedence — `vector` lines from the file, else the exhaustive
/// transition space when the circuit has ≤ 6 primary inputs (subsampled
/// by `stride`), else `samples` seeded random pairs — plus a human label
/// for where they came from. Shared by the `mtk` CLI and `mtk serve` so
/// a design means the same workload on both paths.
pub fn design_transitions(
    design: &mtk_fe::Design,
    stride: usize,
    samples: usize,
) -> (Vec<Transition>, String) {
    if !design.vectors.is_empty() {
        let trs = design
            .vectors
            .iter()
            .map(|s| Transition::new(s.from.clone(), s.to.clone()))
            .collect::<Vec<_>>();
        let label = format!("{} vector(s) from the file", trs.len());
        return (trs, label);
    }
    let n = design.netlist.primary_inputs().len() as u32;
    if n <= 6 {
        let stride = stride.max(1);
        let trs: Vec<Transition> = mtk_circuits::vectors::exhaustive_transitions(n)
            .into_iter()
            .step_by(stride)
            .map(|p| transition_of(p, n))
            .collect();
        let label = format!(
            "{} exhaustive transition(s) of {n} input(s), stride {stride}",
            trs.len()
        );
        return (trs, label);
    }
    let bit = |rng: &mut Xoshiro256pp| {
        if rng.next_u64() & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    };
    let trs: Vec<Transition> = (0..samples as u64)
        .map(|i| {
            let mut rng = Xoshiro256pp::stream(SAMPLE_SEED, i);
            Transition::new(
                (0..n).map(|_| bit(&mut rng)).collect(),
                (0..n).map(|_| bit(&mut rng)).collect(),
            )
        })
        .collect();
    let label = format!("{samples} seeded random sample(s) over {n} inputs");
    (trs, label)
}

/// Imports the SPICE deck `text` as `name` ([`import_deck`]) and ticks
/// the four `Import*` counters through `count`: the one import path of
/// `mtk import` and serve's `import` request.
///
/// # Errors
///
/// The deck's parse error.
pub fn import_counted(
    text: &str,
    name: &str,
    tech: &Technology,
    mut count: impl FnMut(CounterId, u64),
) -> Result<Imported, InteropError> {
    let imported = import_deck(text, name, tech)?;
    let (stats, deck) = (imported.stats(), &imported.stats().deck);
    for (id, n) in [
        (CounterId::ImportCards, deck.cards),
        (CounterId::ImportSubcktsFlattened, deck.instances_flattened),
        (CounterId::ImportGatesRecognized, stats.cells_recognized),
        (CounterId::ImportFallbacks, stats.fallback as usize),
    ] {
        count(id, n as u64);
    }
    Ok(imported)
}

/// Converts a packed [`VectorPair`] into a [`Transition`] over a circuit
/// with `total_bits` primary inputs (the adder/multiplier generators
/// declare inputs in exactly the packed bit order).
pub fn transition_of(pair: VectorPair, total_bits: u32) -> Transition {
    Transition::new(
        bits_lsb_first(pair.from, total_bits),
        bits_lsb_first(pair.to, total_bits),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_netlist::logic::Logic;

    #[test]
    fn transition_bit_order_matches_generators() {
        let tr = transition_of(VectorPair::new(0b000001, 0b110101), 6);
        assert_eq!(tr.from[0], Logic::One);
        assert_eq!(tr.from[1], Logic::Zero);
        assert_eq!(tr.to[0], Logic::One);
        assert_eq!(tr.to[2], Logic::One);
        assert_eq!(tr.to[5], Logic::One);
    }
}
