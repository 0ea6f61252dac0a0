//! Seeded-mutation fuzz of the SPICE deck importer
//! ([`import_deck`], with `interop::recognize` behind it).
//!
//! Every golden's exported deck, with and without its `* mtk: ` hint
//! lines, and a hand-written `.subckt` deck with a sleep footer go
//! through byte flips, truncations, line splices and token renames
//! drawn from one seeded [`Xoshiro256pp`] stream. The contract on every mutant:
//!
//! * the importer never panics;
//! * it returns `Err` only when the deck parser itself rejects the text
//!   (everything past the parse degrades to `SpiceOnly`);
//! * every recovered design is a canonical `.mtk` fixpoint: parsing its
//!   text and writing it again gives the same bytes.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::fe::interop::{export_deck, import_deck, Imported, HINT_PREFIX};
use mtcmos_suite::fe::parse_str;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::num::prng::Xoshiro256pp;
use mtcmos_suite::spice::deck::from_deck;

/// A two-stage buffer built from a `.subckt` under an MTCMOS footer
/// (the deck `mtk_cli`'s `a_subckt_deck_imports_and_sizes` imports).
const SUBCKT_DECK: &str = "\
* two-stage buffer from a subckt, mtcmos footer
.model mn nmos level=1 vto=0.55 kp=110u gamma=0.4 phi=0.8 lambda=0.04
.model mp pmos level=1 vto=-0.55 kp=55u gamma=0.4 phi=0.8 lambda=0.04
.model msleep nmos level=1 vto=0.8 kp=110u gamma=0.4 phi=0.8 lambda=0.04
.subckt inv in out vss
m_n out in vss vss mn w=1u l=1u
m_p out in vdd vdd mp w=2u l=1u
.ends
.global vdd
vdd vdd 0 dc 3.3
vsleep sleep 0 dc 3.3
msl vgnd sleep 0 0 msleep w=12u l=1u
vin_a a 0 dc 0
xu1 a m vgnd inv
xu2 m y vgnd inv
";

/// Deck bytes each seed's mutants add up to (at least one mutant, at
/// most 48): an import costs time in proportion to the deck's size, so
/// this keeps the whole run to seconds under a debug build.
const MUTANT_BYTES_PER_DECK: usize = 400_000;

/// The seed decks: every golden exported with a footer, hinted and
/// hint-stripped, plus the `.subckt` deck.
fn seed_decks() -> Vec<(String, String)> {
    let mut decks = Vec::new();
    for (stem, design) in golden_designs() {
        let hinted = export_deck(&design, Some(10.0)).expect("golden exports");
        let foreign: String = hinted
            .lines()
            .filter(|l| !l.starts_with(HINT_PREFIX))
            .flat_map(|l| [l, "\n"])
            .collect();
        decks.push((format!("{stem} (hinted)"), hinted));
        decks.push((format!("{stem} (foreign)"), foreign));
    }
    decks.push(("subckt".to_string(), SUBCKT_DECK.to_string()));
    decks
}

/// One mutant of `deck`: flipped bits, a truncation, a spliced line
/// (one line copied over, or in front of, another), or a renamed token.
///
/// A rename changes one byte of a token everywhere the token stands
/// alone, so a node keeps its connections under a name that may mean
/// something else to the `.mtk` grammar (`#` opens a comment there,
/// `=` an attribute).
fn mutate(deck: &str, rng: &mut Xoshiro256pp) -> String {
    let mut bytes = deck.as_bytes().to_vec();
    match rng.next_below(4) {
        0 => {
            for _ in 0..1 + rng.next_index(4) {
                let at = rng.next_index(bytes.len());
                bytes[at] ^= 1 << rng.next_below(8);
            }
        }
        1 => bytes.truncate(rng.next_index(bytes.len())),
        2 => {
            let mut lines: Vec<&str> = deck.lines().collect();
            let from = lines[rng.next_index(lines.len())];
            let to = rng.next_index(lines.len());
            if rng.next_bool() {
                lines[to] = from;
            } else {
                lines.insert(to, from);
            }
            bytes = lines.join("\n").into_bytes();
        }
        _ => {
            let tokens: Vec<&str> = deck.split_whitespace().collect();
            let old = tokens[rng.next_index(tokens.len())];
            let mut new = old.as_bytes().to_vec();
            let at = rng.next_index(new.len());
            new[at] = b"#="[rng.next_index(2)];
            let new = String::from_utf8_lossy(&new).into_owned();
            let rename = |t: &str| if t == old { new.clone() } else { t.to_string() };
            let lines = deck
                .lines()
                .map(|l| l.split(' ').map(rename).collect::<Vec<_>>().join(" "));
            bytes = lines.collect::<Vec<_>>().join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks the import contract on one deck: whether it recovered a
/// design, or a message naming what broke.
fn check(deck: &str) -> Result<bool, String> {
    let parses = from_deck(deck).is_ok();
    let imported = import_deck(deck, "fuzz", &Technology::l07());
    match imported {
        Err(e) if parses => Err(format!("import failed on a deck that parses: {e}")),
        Ok(_) if !parses => Err("import succeeded on a deck that does not parse".into()),
        Ok(Imported::Design { design, .. }) => {
            let mtk = design.to_mtk();
            let again = parse_str(&mtk, "fuzz.mtk").map_err(|e| format!("{e}\n{mtk}"))?;
            match again.to_mtk() == mtk {
                true => Ok(true),
                false => Err(format!("not a canonical fixpoint:\n{mtk}")),
            }
        }
        Err(_) | Ok(Imported::SpiceOnly { .. }) => Ok(false),
    }
}

#[test]
fn mutated_decks_never_panic_fail_only_to_parse_and_import_to_fixpoints() {
    let mut rng = Xoshiro256pp::stream(0x6465_636b, 0);
    let mut recovered = 0;
    for (label, deck) in seed_decks() {
        check(&deck).unwrap_or_else(|e| panic!("{label}, unmutated: {e}"));
        for k in 0..(MUTANT_BYTES_PER_DECK / deck.len()).clamp(1, 48) {
            let mutant = mutate(&deck, &mut rng);
            match std::panic::catch_unwind(|| check(&mutant)) {
                Ok(Ok(design)) => recovered += usize::from(design),
                Ok(Err(e)) => panic!("{label}, mutant {k}: {e}\n--- deck ---\n{mutant}"),
                Err(_) => {
                    panic!("{label}, mutant {k}: the importer panicked\n--- deck ---\n{mutant}")
                }
            }
        }
    }
    // The mutants must reach the gate-level path, not only the parser.
    assert!(recovered > 0, "no mutant imported as a design");
}
