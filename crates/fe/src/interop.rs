//! Standard-format interop: SPICE deck export with embedded `.mtk`
//! hints, and the matching importer that recovers a full [`Design`]
//! from a deck.
//!
//! The exporter writes the transistor-level expansion of a design as a
//! plain SPICE deck ([`mtk_spice::deck::to_deck`] cards), preceded by
//! `* mtk: <line>` comment cards carrying every non-`cell` line of the
//! design's canonical `.mtk` serialization. SPICE tools ignore the
//! comments; the importer uses them to recover net names, technology
//! parameters, port directions, and stimulus vectors exactly, while the
//! gate-level structure itself is *re-derived from the transistors* by
//! [`mtk_netlist::interop::recognize`] — so a deck whose devices were
//! edited by hand re-imports as the edited circuit, not the stale hint.
//!
//! Decks without hints (foreign SPICE) still import: recognition runs
//! against a caller-supplied technology preset, net names are taken
//! from the deck's node names, and port directions are inferred
//! structurally (sources drive inputs, unconsumed gate outputs are
//! outputs). Either way the recovered design is built through the
//! netlist builder and checked by one canonical write and re-parse, so
//! [`crate::write`] stays the only code that spells the `.mtk` format.
//! When recognition fails — a non-CMOS topology, resistive
//! devices, partitioned sleep rails — the importer degrades to
//! [`Imported::SpiceOnly`] carrying the parsed transistor circuit and
//! the reason, so callers can still run SPICE-level analyses. Fallback
//! is policy, not a panic or a print.

use crate::{parse_str, Design};
use mtk_netlist::expand::{expand, ExpandOptions};
use mtk_netlist::interop::{recognize, RecognizedCircuit};
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;
use mtk_netlist::NetlistError;
use mtk_spice::circuit::{Circuit, NodeId};
use mtk_spice::deck::{from_deck_with_stats, to_deck, DeckStats};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The comment prefix carrying one canonical `.mtk` line inside an
/// exported deck.
pub const HINT_PREFIX: &str = "* mtk: ";

/// A hard interop failure: the deck (or the design being exported)
/// could not be processed at all. Recognition failures are *not* errors
/// — they come back as [`Imported::SpiceOnly`].
#[derive(Debug, Clone, PartialEq)]
pub struct InteropError(pub String);

impl std::fmt::Display for InteropError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for InteropError {}

/// Counters describing one import, mirrored into `mtk_trace` by the
/// CLI layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Deck-level statistics (cards, subckts flattened, depth).
    pub deck: DeckStats,
    /// `* mtk:` hint lines found.
    pub hint_lines: usize,
    /// Gates recovered by structural recognition.
    pub cells_recognized: usize,
    /// Whether the import fell back to SPICE-only analysis.
    pub fallback: bool,
}

/// The importer's result: a full gate-level design, or — when gate
/// recognition fails — the transistor circuit alone plus the reason.
#[derive(Debug)]
pub enum Imported {
    /// Recognition succeeded: the deck round-trips into the gate-level
    /// flow (lint, STA, screening, sizing).
    Design {
        /// The recovered design.
        design: Box<Design>,
        /// The parsed transistor circuit it was recognized from.
        circuit: Box<Circuit>,
        /// Footer sleep-transistor W/L recovered from the deck, if a
        /// footer was present.
        sleep_w_over_l: Option<f64>,
        /// Import counters.
        stats: ImportStats,
    },
    /// Recognition failed: only transistor-level (SPICE) analyses are
    /// possible.
    SpiceOnly {
        /// The parsed transistor circuit.
        circuit: Box<Circuit>,
        /// Why gate recognition was not possible.
        reason: String,
        /// Import counters.
        stats: ImportStats,
    },
}

impl Imported {
    /// The import counters, whichever way the import went.
    pub fn stats(&self) -> &ImportStats {
        match self {
            Imported::Design { stats, .. } | Imported::SpiceOnly { stats, .. } => stats,
        }
    }
}

/// Serializes a design as a SPICE deck with embedded `.mtk` hints.
///
/// The deck is `to_deck(expand(netlist))` — MOSFET cards, the supply
/// and input sources, extracted caps, and (when `sleep_w_over_l` is
/// `Some`) the high-V<sub>t</sub> footer — with one `* mtk:` comment
/// card per non-`cell` line of [`Design::to_mtk`] spliced after the
/// title. Importing the result reproduces the design byte-exactly
/// (same canonical `.mtk`, same netlist fingerprint).
///
/// # Errors
///
/// [`InteropError`] when the design cannot be serialized (non-finite
/// values) or expanded (combinational loop).
pub fn export_deck(design: &Design, sleep_w_over_l: Option<f64>) -> Result<String, InteropError> {
    let mtk = design
        .try_to_mtk()
        .map_err(|e| InteropError(format!("cannot export: {e}")))?;
    let opts = match sleep_w_over_l {
        Some(w) => ExpandOptions::mtcmos(w),
        None => ExpandOptions::cmos(),
    };
    let ex = expand(&design.netlist, &design.tech, &opts)
        .map_err(|e| InteropError(format!("cannot expand: {e}")))?;
    let deck = to_deck(&ex.circuit, design.netlist.name());
    let mut out = String::new();
    let mut lines = deck.lines();
    if let Some(title) = lines.next() {
        out.push_str(title);
        out.push('\n');
    }
    for line in mtk.lines() {
        if !line.starts_with("cell ") {
            let _ = writeln!(out, "{HINT_PREFIX}{line}");
        }
    }
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Imports a SPICE deck, recovering a gate-level [`Design`] when the
/// transistor topology is recognizable static CMOS (plus an optional
/// sleep footer), and falling back to [`Imported::SpiceOnly`] when not.
///
/// `name` is used as the diagnostics file name and — for decks without
/// hints — the circuit name. `fallback_tech` supplies technology
/// parameters when the deck carries no `* mtk:` hints (its `vdd` is
/// replaced by the deck's actual supply voltage).
///
/// # Errors
///
/// [`InteropError`] when the deck itself does not parse. Everything
/// past that point degrades to `SpiceOnly` instead of erroring.
pub fn import_deck(
    text: &str,
    name: &str,
    fallback_tech: &Technology,
) -> Result<Imported, InteropError> {
    let (circuit, deck_stats) =
        from_deck_with_stats(text).map_err(|e| InteropError(format!("{name}: {e}")))?;
    let hints: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim_end().strip_prefix(HINT_PREFIX))
        .collect();
    let mut stats = ImportStats {
        deck: deck_stats,
        hint_lines: hints.len(),
        cells_recognized: 0,
        fallback: false,
    };
    let fall = |circuit: Circuit, mut stats: ImportStats, reason: String| {
        stats.fallback = true;
        Ok(Imported::SpiceOnly {
            circuit: Box::new(circuit),
            reason,
            stats,
        })
    };

    // Technology: from the hint block when present, else the caller's.
    let hint_design = if hints.is_empty() {
        None
    } else {
        let src = hints.join("\n") + "\n";
        match parse_str(&src, name) {
            Ok(d) => Some(d),
            Err(e) => return fall(circuit, stats, format!("bad interop hints: {e}")),
        }
    };
    let tech = hint_design
        .as_ref()
        .map(|d| d.tech.clone())
        .unwrap_or_else(|| fallback_tech.clone());

    let rec = match recognize(&circuit, &tech) {
        Ok(rec) => rec,
        Err(e) => return fall(circuit, stats, e.0),
    };
    stats.cells_recognized = rec.cells.len();

    // The canonical writer and the parser are the validation step: a
    // recovered netlist the grammar cannot carry (say, a node name that
    // is not a token) falls back instead of importing.
    let checked = recovered_design(&circuit, &rec, hint_design, &tech, name).and_then(|design| {
        let mtk = design.try_to_mtk().map_err(|e| e.to_string());
        let reparsed = mtk.and_then(|mtk| parse_str(&mtk, name).map_err(|e| e.to_string()));
        reparsed.map_err(|e| format!("recovered netlist rejected: {e}"))
    });
    match checked {
        Ok(design) => Ok(Imported::Design {
            design: Box::new(design),
            circuit: Box::new(circuit),
            sleep_w_over_l: rec.sleep_w_over_l,
            stats,
        }),
        Err(reason) => fall(circuit, stats, reason),
    }
}

/// Builds the recovered design: the recognized gates, one cell each in
/// recognition order, on the nets of `hinted` or — for a hint-less
/// (foreign) deck — on nets named after the deck's nodes.
///
/// A hinted deck keeps the hint design's nets, ports, ties, technology
/// and vectors. Expansion names every non-tied net's node `n_<net>`;
/// ties collapse onto the rails, so a rail resolves to the (unique) net
/// tied to its level.
///
/// A foreign deck gets a netlist called `name` under `tech` with the
/// deck's supply voltage. Its nets are the source-driven inputs and the
/// gate outputs in node order (the deck's first-mention order), then a
/// `const0`/`const1` tie net for each rail used as a gate input. Its
/// inputs are the sources' nodes in source order, and its outputs the
/// unconsumed gate outputs in node order.
fn recovered_design(
    circuit: &Circuit,
    rec: &RecognizedCircuit,
    hinted: Option<Design>,
    tech: &Technology,
    name: &str,
) -> Result<Design, String> {
    let rejected = |e: NetlistError| format!("recovered netlist rejected: {e}");
    let mut net_of: HashMap<NodeId, NetId> = HashMap::new();
    let mut tied = [Vec::new(), Vec::new()]; // [to 0, to 1]
    let mut design = match hinted {
        Some(hinted) => {
            let nl = &hinted.netlist;
            for id in nl.net_ids() {
                let net = nl.net(id);
                match net.tie {
                    None => {
                        let node = circuit.find_node(&format!("n_{}", net.name)).map_err(|_| {
                            format!("hint net '{}' has no node in the deck", net.name)
                        })?;
                        net_of.entry(node).or_insert(id);
                    }
                    Some(Logic::Zero) => tied[0].push(id),
                    Some(Logic::One) => tied[1].push(id),
                    Some(Logic::X) => unreachable!("parser rejects ties to X"),
                }
            }
            hinted
        }
        None => {
            let mut nodes: Vec<NodeId> = rec.inputs.iter().map(|&(_, n)| n).collect();
            for cell in &rec.cells {
                if !nodes.contains(&cell.output) {
                    nodes.push(cell.output);
                }
            }
            nodes.sort_by_key(|n| n.index());
            let mut nl = Netlist::new(name);
            for &node in &nodes {
                let nm = circuit.node_name(node);
                let id = nl
                    .add_net(nm)
                    .map_err(|_| format!("duplicate net name '{nm}'"))?;
                net_of.insert(node, id);
            }
            for (rail, tie_name, level) in [
                (Circuit::GND, "const0", Logic::Zero),
                (rec.vdd_node, "const1", Logic::One),
            ] {
                if rec.cells.iter().any(|c| c.inputs.contains(&rail)) {
                    let id = nl
                        .add_net(tie_name)
                        .map_err(|_| format!("net name '{tie_name}' collides with a tie net"))?;
                    nl.tie_net(id, level).map_err(rejected)?;
                    net_of.entry(rail).or_insert(id);
                }
            }
            for &(_, node) in &rec.inputs {
                nl.mark_primary_input(net_of[&node]).map_err(rejected)?;
            }
            let consumed = |n: &NodeId| rec.cells.iter().any(|c| c.inputs.contains(n));
            for node in &nodes {
                if rec.cells.iter().any(|c| c.output == *node) && !consumed(node) {
                    nl.mark_primary_output(net_of[node]);
                }
            }
            let mut tech = tech.clone();
            tech.vdd = rec.vdd;
            Design::new(nl, tech)
        }
    };
    let net = |node: NodeId| -> Result<NetId, String> {
        if let Some(&id) = net_of.get(&node) {
            return Ok(id);
        }
        let rail = if node == Circuit::GND {
            Some(&tied[0])
        } else if node == rec.vdd_node {
            Some(&tied[1])
        } else {
            None
        };
        match rail {
            Some(ids) if ids.len() == 1 => Ok(ids[0]),
            Some(ids) => Err(format!(
                "gate terminal on rail '{}' maps to {} tied nets",
                circuit.node_name(node),
                ids.len()
            )),
            None => Err(format!(
                "gate terminal on unnamed node '{}'",
                circuit.node_name(node)
            )),
        }
    };
    for cell in &rec.cells {
        let inputs = cell
            .inputs
            .iter()
            .map(|&n| net(n))
            .collect::<Result<_, _>>()?;
        let output = net(cell.output)?;
        design
            .netlist
            .add_cell(&cell.name, cell.kind, inputs, output, cell.drive)
            .map_err(rejected)?;
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_netlist::cell::CellKind;
    use mtk_netlist::netlist::Netlist;

    fn demo() -> Design {
        let mut nl = Netlist::new("demo");
        let a = nl.add_net("a").unwrap();
        let b = nl.add_net("b").unwrap();
        let c0 = nl.add_net("c0").unwrap();
        let m = nl.add_net("m").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.mark_primary_input(b).unwrap();
        nl.tie_net(c0, Logic::Zero).unwrap();
        nl.add_cell("u1", CellKind::Nand2, vec![a, b], m, 2.0)
            .unwrap();
        nl.add_cell("u2", CellKind::Nor2, vec![m, c0], y, 1.0)
            .unwrap();
        nl.add_extra_cap(y, 2e-14);
        nl.mark_primary_output(y);
        Design::new(nl, Technology::l07()).with_vectors(vec![crate::Stimulus {
            from: vec![Logic::Zero, Logic::One],
            to: vec![Logic::One, Logic::One],
        }])
    }

    #[test]
    fn export_import_is_the_identity_on_the_canonical_form() {
        let d = demo();
        let deck = export_deck(&d, Some(7.5)).unwrap();
        assert!(deck.contains("* mtk: circuit demo"), "{deck}");
        assert!(!deck.contains("* mtk: cell"), "cell hints must be omitted");
        match import_deck(&deck, "demo.ckt", &Technology::l03()).unwrap() {
            Imported::Design {
                design,
                sleep_w_over_l,
                stats,
                ..
            } => {
                assert_eq!(design.to_mtk(), d.to_mtk());
                assert_eq!(
                    design.netlist.fingerprint(),
                    d.netlist.fingerprint(),
                    "fingerprint identity"
                );
                assert_eq!(design.vectors, d.vectors);
                // Hints win over the fallback tech (l03 above).
                assert_eq!(design.tech, d.tech);
                assert_eq!(sleep_w_over_l, Some(7.5));
                assert_eq!(stats.cells_recognized, 2);
                assert!(!stats.fallback);
                assert!(stats.hint_lines >= 10);
            }
            Imported::SpiceOnly { reason, .. } => panic!("fell back: {reason}"),
        }
    }

    #[test]
    fn cmos_export_without_footer_reimports_too() {
        let d = demo();
        let deck = export_deck(&d, None).unwrap();
        match import_deck(&deck, "demo.ckt", &Technology::l07()).unwrap() {
            Imported::Design {
                design,
                sleep_w_over_l,
                ..
            } => {
                assert_eq!(design.to_mtk(), d.to_mtk());
                assert_eq!(sleep_w_over_l, None);
            }
            Imported::SpiceOnly { reason, .. } => panic!("fell back: {reason}"),
        }
    }

    #[test]
    fn foreign_deck_without_hints_imports_structurally() {
        // Hand-written flat deck: two inverters a -> m -> y at drive 1.
        let deck = "\
* two inverter chain
.model mn nmos level=1 vto=0.55 kp=110u gamma=0.4 phi=0.8 lambda=0.04
.model mp pmos level=1 vto=-0.55 kp=55u gamma=0.4 phi=0.8 lambda=0.04
vdd vdd 0 dc 3.3
vin_a a 0 dc 0
minv1_n m a 0 0 mn w=1u l=1u
minv1_p m a vdd vdd mp w=2u l=1u
minv2_n y m 0 0 mn w=1u l=1u
minv2_p y m vdd vdd mp w=2u l=1u
";
        match import_deck(deck, "chain", &Technology::l07()).unwrap() {
            Imported::Design { design, stats, .. } => {
                let mtk = design.to_mtk();
                assert!(mtk.contains("circuit chain"), "{mtk}");
                assert!(mtk.contains("tech.vdd 3.3"), "deck vdd wins: {mtk}");
                assert!(mtk.contains("input a"), "{mtk}");
                assert!(mtk.contains("output y"), "{mtk}");
                assert!(mtk.contains("cell inv1 inv a -> m"), "{mtk}");
                assert!(mtk.contains("cell inv2 inv m -> y"), "{mtk}");
                assert_eq!(stats.cells_recognized, 2);
                assert_eq!(stats.hint_lines, 0);
                // The recovered text is itself canonical (fixpoint).
                let re = parse_str(&mtk, "chain.mtk").unwrap();
                assert_eq!(re.to_mtk(), mtk);
            }
            Imported::SpiceOnly { reason, .. } => panic!("fell back: {reason}"),
        }
    }

    #[test]
    fn unrecognizable_deck_degrades_to_spice_only() {
        let deck = "\
* rc ladder, no gates
v1 in 0 dc 1
r1 in mid 1k
c1 mid 0 1p
r2 mid out 1k
c2 out 0 1p
";
        match import_deck(deck, "ladder", &Technology::l07()).unwrap() {
            Imported::SpiceOnly {
                circuit,
                reason,
                stats,
            } => {
                assert!(!reason.is_empty());
                assert!(stats.fallback);
                assert_eq!(stats.cells_recognized, 0);
                assert!(circuit.find_node("mid").is_ok());
            }
            Imported::Design { .. } => panic!("an RC ladder is not a gate netlist"),
        }
    }

    #[test]
    fn unparseable_deck_is_a_hard_error() {
        let err = import_deck("* t\nq1 a b c qmod\n", "bad", &Technology::l07()).unwrap_err();
        assert!(err.to_string().contains("bad"), "{err}");
    }
}
