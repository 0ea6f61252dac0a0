//! Cross-front-end equivalence for the standard-format interop path:
//! a design exported as a SPICE deck and re-imported (subcircuit
//! flattening + structural gate recognition) must be
//! **indistinguishable** from the `.mtk`-parsed original — the same
//! canonical bytes, the same netlist fingerprint, and the same
//! byte-identical deterministic screen trace at any thread count. This
//! is the `fe_roundtrip` tentpole guarantee extended to the third
//! front door (SPICE decks). A deck stripped of its hints (a foreign
//! deck) imports to pinned `.mtk` bytes.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan};
use mtcmos_suite::core::sizing::{screen_vectors_par_quarantined, Transition};
use mtcmos_suite::core::vbsim::VbsimOptions;
use mtcmos_suite::fe::interop::{export_deck, import_deck, Imported, HINT_PREFIX};
use mtcmos_suite::fe::{parse_str, Design};
use mtcmos_suite::netlist::logic::bits_lsb_first;
use mtcmos_suite::netlist::netlist::Netlist;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::store::fnv1a;
use mtcmos_suite::trace::{TraceMode, TraceReport};

/// Export with a footer and re-import, demanding the gate-level path.
fn round_trip(design: &Design, stem: &str) -> Design {
    let deck = export_deck(design, Some(8.0)).unwrap_or_else(|e| panic!("{stem}: {e}"));
    // The fallback technology is deliberately wrong (l03): hints must
    // carry the real one.
    match import_deck(&deck, &format!("{stem}.ckt"), &Technology::l03()) {
        Ok(Imported::Design {
            design: back,
            sleep_w_over_l,
            stats,
            ..
        }) => {
            assert_eq!(sleep_w_over_l, Some(8.0), "{stem}: footer W/L recovered");
            assert!(!stats.fallback, "{stem}");
            assert_eq!(
                stats.cells_recognized,
                design.netlist.cells().len(),
                "{stem}: every cell recognized"
            );
            *back
        }
        Ok(Imported::SpiceOnly { reason, .. }) => panic!("{stem} fell back: {reason}"),
        Err(e) => panic!("{stem}: {e}"),
    }
}

#[test]
fn every_golden_survives_deck_export_import_byte_exactly() {
    for (stem, design) in golden_designs() {
        let back = round_trip(&design, stem);
        assert_eq!(back.to_mtk(), design.to_mtk(), "{stem}: canonical bytes");
        assert_eq!(
            back.netlist.fingerprint(),
            design.netlist.fingerprint(),
            "{stem}: fingerprint identity"
        );
        assert_eq!(back.vectors, design.vectors, "{stem}: vectors survive");
        assert_eq!(back.tech, design.tech, "{stem}: technology survives");
    }
}

/// Screens the first 48 exhaustive transitions and returns the
/// deterministic-mode trace JSON (what `mtk screen
/// --trace-deterministic` writes).
fn screen_trace(netlist: &Netlist, tech: &Technology, threads: usize) -> String {
    let n_pi = netlist.primary_inputs().len() as u32;
    let transitions: Vec<Transition> = exhaustive_transitions(n_pi)
        .into_iter()
        .take(48)
        .map(|p| Transition::new(bits_lsb_first(p.from, n_pi), bits_lsb_first(p.to, n_pi)))
        .collect();
    let (_screened, report) = screen_vectors_par_quarantined(
        netlist,
        tech,
        &transitions,
        None,
        10.0,
        &VbsimOptions::default(),
        threads,
        FailurePolicy::quarantine(8),
        &FaultPlan::none(),
    )
    .expect("screen");
    let mut trace = TraceReport::new("mtk_screen");
    trace.push_phase(report.to_phase("screen"));
    trace.to_json(TraceMode::Deterministic)
}

#[test]
fn imported_designs_trace_byte_identically_to_the_fe_path() {
    for stem in ["adder3", "invtree", "rand8x40"] {
        let (_, design) = golden_designs()
            .into_iter()
            .find(|(s, _)| *s == stem)
            .unwrap();
        let back = round_trip(&design, stem);
        let reference = screen_trace(&design.netlist, &design.tech, 1);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                screen_trace(&back.netlist, &back.tech, threads),
                reference,
                "{stem}: imported trace differs at threads={threads}"
            );
        }
    }
}

/// The `.mtk` a golden's hint-stripped deck imports as: every golden
/// exported with a W/L-10 footer, its `* mtk: ` lines removed (a deck
/// from a foreign tool), imported under `l07` as `<stem>_foreign` —
/// what `mtk export` then `mtk import` of the stripped deck writes.
fn foreign_import(stem: &str) -> String {
    let path = format!("{}/examples/{stem}.mtk", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let design = parse_str(&text, &path).unwrap_or_else(|e| panic!("{e}"));
    let deck = export_deck(&design, Some(10.0)).unwrap_or_else(|e| panic!("{stem}: {e}"));
    let foreign: String = deck
        .lines()
        .filter(|l| !l.starts_with(HINT_PREFIX))
        .flat_map(|l| [l, "\n"])
        .collect();
    let name = format!("{stem}_foreign");
    match import_deck(&foreign, &name, &Technology::l07()) {
        Ok(Imported::Design { design, .. }) => design.to_mtk(),
        Ok(Imported::SpiceOnly { reason, .. }) => panic!("{stem} fell back: {reason}"),
        Err(e) => panic!("{stem}: {e}"),
    }
}

#[test]
fn every_golden_imports_from_a_hintless_deck_to_pinned_bytes() {
    for (stem, digest) in [
        ("adder3", 0xcd92_25aa_0803_af5a_u64),
        ("adder32", 0xaa0f_42af_becc_8fd0),
        ("adder64", 0x956e_a76c_5ff8_36e0),
        ("alu4", 0x7d37_6766_dd99_3af6),
        ("invtree", 0x230f_a782_654a_43ef),
        ("mul8", 0xbf02_d336_a732_0171),
        ("mul16", 0x42c4_09fc_8b63_b34e),
        ("nand_adder3", 0x1ec9_efd5_8463_8a06),
        ("rand8x40", 0x6729_47f3_625b_5dec),
    ] {
        let mtk = foreign_import(stem);
        assert_eq!(
            fnv1a(mtk.as_bytes()),
            digest,
            "{stem}: foreign import bytes moved:\n{mtk}"
        );
        let reparsed = parse_str(&mtk, stem).expect("reparse");
        assert_eq!(reparsed.to_mtk(), mtk, "{stem}: not a canonical fixpoint");
    }
}
