//! Golden `.mtk` exports of the built-in generators.
//!
//! Each entry pairs a file stem (`adder3` → `examples/adder3.mtk`) with
//! the [`Design`] the generator produces, including the technology the
//! paper ran that circuit under and, where the paper names specific
//! stimulus vectors, those vectors. The `mtk gen` subcommand serializes
//! these; CI regenerates them and fails on any diff, so the files on
//! disk are pinned to the generators (and, transitively, the writer's
//! canonical form).

use crate::adder::{AdderSpec, ChainedAdder, RippleAdder};
use crate::alu::{AluOp, AluSlice, AluSpec};
use crate::multiplier::{ArrayMultiplier, MultiplierSpec};
use crate::nand_adder::{NandAdderSpec, NandRippleAdder};
use crate::random_logic::{RandomLogic, RandomLogicSpec};
use crate::tree::InverterTree;
use crate::vectors::{multiplier_vector_a, multiplier_vector_b, tree_rising_input, VectorPair};
use mtk_fe::{Design, Stimulus};
use mtk_netlist::logic::bits_lsb_first;
use mtk_netlist::tech::Technology;

/// Converts a packed [`VectorPair`] into a [`Stimulus`] over `width`
/// primary inputs (LSB first — matching every generator's input
/// declaration order).
pub fn stimulus_of(pair: VectorPair, width: u32) -> Stimulus {
    Stimulus {
        from: bits_lsb_first(pair.from, width),
        to: bits_lsb_first(pair.to, width),
    }
}

/// The generator catalog: `(file stem, one-line description)` in the
/// order [`golden_designs`] produces them. This is the **single source
/// of truth** consumed by both the `mtk gen` listing and the
/// documentation's generator table — keeping the CLI help and the docs
/// from drifting apart.
pub fn generator_catalog() -> Vec<(&'static str, &'static str)> {
    vec![
        ("adder3", "the paper's 3-bit mirror-adder (Fig 12), 0.7 um"),
        ("nand_adder3", "NAND-only 3-bit adder, 0.7 um"),
        (
            "invtree",
            "Fig 4 inverter tree with its rising-input stimulus, 0.7 um",
        ),
        (
            "mul8",
            "8x8 carry-save multiplier (Fig 6) with the paper's vectors A and B, 0.3 um",
        ),
        ("rand8x40", "default seeded random block, 0.7 um"),
        ("adder32", "flat 32-bit mirror-adder, 0.7 um"),
        (
            "adder64",
            "hierarchical 64-bit adder: two chained 32-bit module instances, 0.7 um",
        ),
        (
            "mul16",
            "16x16 carry-save multiplier with vectors A and B scaled to 16 bits, 0.3 um",
        ),
        (
            "alu4",
            "4-bit AND/OR/XOR/ADD ALU slice with per-opcode stimulus vectors, 0.7 um",
        ),
    ]
}

/// The golden designs, as `(file stem, design)` pairs — one per
/// [`generator_catalog`] entry, in the same order.
pub fn golden_designs() -> Vec<(&'static str, Design)> {
    let adder = RippleAdder::paper();
    let nand_adder =
        NandRippleAdder::new(&NandAdderSpec::default()).expect("generator is self-consistent");
    let tree = InverterTree::paper();
    let tree_width = tree.netlist.primary_inputs().len() as u32;
    let mul = ArrayMultiplier::paper();
    let mul_width = mul.netlist.primary_inputs().len() as u32;
    let rand = RandomLogic::new(&RandomLogicSpec::default()).expect("generator is self-consistent");
    let adder32 = RippleAdder::new(&AdderSpec {
        bits: 32,
        ..AdderSpec::default()
    })
    .expect("generator is self-consistent");
    let adder64 = ChainedAdder::new(
        &AdderSpec {
            bits: 64,
            ..AdderSpec::default()
        },
        32,
    )
    .expect("generator is self-consistent");
    let mul16 = ArrayMultiplier::new(&MultiplierSpec {
        bits: 16,
        ..MultiplierSpec::default()
    })
    .expect("generator is self-consistent");
    let mul16_width = mul16.netlist.primary_inputs().len() as u32;
    let alu = AluSlice::new(&AluSpec::default()).expect("generator is self-consistent");
    // Stimuli exercising mutually-exclusive functional units: the same
    // operand swing under a logic opcode and under ADD.
    let alu_vectors = vec![
        Stimulus {
            from: alu.input_values(0, 0, AluOp::And),
            to: alu.input_values(0xF, 0x9, AluOp::And),
        },
        Stimulus {
            from: alu.input_values(0, 0, AluOp::Add),
            to: alu.input_values(0xF, 0x9, AluOp::Add),
        },
    ];
    vec![
        ("adder3", Design::new(adder.netlist, Technology::l07())),
        (
            "nand_adder3",
            Design::new(nand_adder.netlist, Technology::l07()),
        ),
        (
            "invtree",
            Design::new(tree.netlist, Technology::l07())
                .with_vectors(vec![stimulus_of(tree_rising_input(), tree_width)]),
        ),
        (
            "mul8",
            Design::new(mul.netlist, Technology::l03()).with_vectors(vec![
                stimulus_of(multiplier_vector_a(), mul_width),
                stimulus_of(multiplier_vector_b(), mul_width),
            ]),
        ),
        ("rand8x40", Design::new(rand.netlist, Technology::l07())),
        ("adder32", Design::new(adder32.netlist, Technology::l07())),
        ("adder64", Design::new(adder64.netlist, Technology::l07())),
        (
            "mul16",
            Design::new(mul16.netlist, Technology::l03()).with_vectors(vec![
                stimulus_of(
                    VectorPair::from_operands((0, 0), (0xFFFF, 0x8001), 16),
                    mul16_width,
                ),
                stimulus_of(
                    VectorPair::from_operands((0x7FFF, 0x8001), (0xFFFF, 0x8001), 16),
                    mul16_width,
                ),
            ]),
        ),
        (
            "alu4",
            Design::new(alu.netlist, Technology::l07()).with_vectors(alu_vectors),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_netlist::logic::Logic;

    #[test]
    fn stems_are_unique_and_designs_round_trip() {
        let designs = golden_designs();
        assert_eq!(designs.len(), 9);
        let mut stems: Vec<_> = designs.iter().map(|(s, _)| *s).collect();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), 9, "duplicate golden stems");
        for (stem, design) in &designs {
            let text = design.to_mtk();
            let parsed =
                mtk_fe::parse_str(&text, &format!("{stem}.mtk")).expect("golden must parse");
            assert_eq!(parsed.netlist, design.netlist, "{stem}: netlist round trip");
            assert_eq!(parsed.tech, design.tech, "{stem}: tech round trip");
            assert_eq!(parsed.vectors, design.vectors, "{stem}: vector round trip");
            assert_eq!(
                parsed.netlist.fingerprint(),
                design.netlist.fingerprint(),
                "{stem}: fingerprint identity"
            );
            assert_eq!(parsed.to_mtk(), text, "{stem}: canonical fixpoint");
        }
    }

    /// The one-pass [`Netlist::net_loads`] lists the same readers as the
    /// per-net `fanout_of` (repeats dropped), for every committed example
    /// design.
    ///
    /// [`Netlist::net_loads`]: mtk_netlist::netlist::Netlist::net_loads
    #[test]
    fn net_loads_readers_match_fanout_of_on_every_example() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("examples dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("mtk") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read example");
            let name = path.display().to_string();
            let design = mtk_fe::parse_str(&text, &name).expect("example parses");
            let (nl, tech) = (&design.netlist, &design.tech);
            let loads = nl.net_loads(tech);
            assert_eq!(loads.readers.len(), nl.nets().len(), "{name}");
            assert_eq!(loads.cap.len(), nl.nets().len(), "{name}");
            for net in nl.net_ids() {
                let mut readers: Vec<_> = nl.fanout_of(net).into_iter().map(|(c, _)| c).collect();
                readers.dedup();
                assert_eq!(loads.readers[net.index()], readers, "{name}: readers");
            }
            seen += 1;
        }
        assert_eq!(seen, golden_designs().len(), "every golden has an example");
    }

    #[test]
    fn catalog_matches_designs_exactly() {
        // The catalog drives `mtk gen` help and the docs; if it drifts
        // from the actual designs, both lie.
        let catalog = generator_catalog();
        let designs = golden_designs();
        assert_eq!(
            catalog.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            designs.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            "generator_catalog and golden_designs disagree"
        );
        for (_, desc) in &catalog {
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn multiplier_vectors_match_the_paper() {
        let designs = golden_designs();
        let (_, mul) = designs.iter().find(|(s, _)| *s == "mul8").unwrap();
        assert_eq!(mul.vectors.len(), 2);
        // Vector A starts from all-zero operands.
        assert!(mul.vectors[0].from.iter().all(|&l| l == Logic::Zero));
        assert_eq!(mul.vectors[0].from.len(), 16);
    }

    #[test]
    fn stimulus_of_is_lsb_first() {
        let s = stimulus_of(VectorPair::new(0b01, 0b10), 2);
        assert_eq!(s.from, vec![Logic::One, Logic::Zero]);
        assert_eq!(s.to, vec![Logic::Zero, Logic::One]);
    }
}
