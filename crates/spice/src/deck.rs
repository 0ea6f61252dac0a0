//! SPICE-deck serialization and parsing.
//!
//! Circuits can be exported as classic SPICE decks (so experiments can
//! be cross-checked against an external simulator) and parsed back from
//! a practical subset of the format: `R`/`C`/`V`/`I`/`M` cards,
//! `.subckt`/`.ends` definitions with `X` instance cards (positional
//! port binding, nested instantiation), `.model` Level-1 MOSFET cards,
//! `.global` nodes, `DC`/`PULSE`/`PWL` sources, `.ic` lines, `+`
//! continuations, `*` comments, and engineering suffixes.
//!
//! Subcircuits are flattened deterministically at parse time: an
//! instance `Xfoo … sub` contributes its body devices as `foo/<name>`
//! and its internal nodes as `foo/<node>` — the same `inst/local`
//! naming contract `mtk_netlist::hier` uses for module flattening.
//! Ground (`0`/`gnd`) and `.global` nodes are never prefixed.
//!
//! Per SPICE convention the first line of a deck is a title. To stay
//! compatible with decks that start directly with a card, the parser
//! first tries the leading line as a card and only treats it as a title
//! when that fails ([`DeckStats::title_skipped`] reports which way it
//! went). A leading line that happens to parse as a valid card is taken
//! as one — start decks with a `*` comment (as [`to_deck`] does) to
//! avoid the inherent ambiguity.
//!
//! Geometry convention: `W` and `L` are written in micrometres with
//! `L = 1U`, so `W/L` survives the round trip exactly; only the aspect
//! ratio is electrically meaningful to the Level-1 model. The parser
//! divides same-unit `W`/`L` pairs mantissa-first, so the ratio is
//! recovered bit-exactly regardless of the unit scale.

use crate::circuit::{Circuit, DeviceKind, ModelId};
use crate::mos::{MosModel, Polarity, Subthreshold};
use crate::source::SourceWave;
use crate::{Result, SpiceError};
use mtk_num::waveform::Pwl;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes a circuit to a SPICE deck.
pub fn to_deck(circuit: &Circuit, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {title}");
    // Collect the distinct models actually referenced.
    let mut used_models: Vec<ModelId> = Vec::new();
    for dev in circuit.devices() {
        if let DeviceKind::Mosfet { model, .. } = dev.kind {
            if !used_models.contains(&model) {
                used_models.push(model);
            }
        }
    }
    // Canonical numbering: models appear as m0, m1, … in first-use
    // order, so a parse→serialize round trip is a fixed point.
    for (canon, &mid) in used_models.iter().enumerate() {
        let m = circuit.model(mid);
        let kind = match m.polarity {
            Polarity::Nmos => "NMOS",
            Polarity::Pmos => "PMOS",
        };
        let _ = writeln!(
            out,
            ".model m{canon} {kind} (level=1 vto={} kp={} gamma={} phi={} lambda={})",
            m.vt0, m.kp, m.gamma, m.phi, m.lambda
        );
    }
    for dev in circuit.devices() {
        let name = &dev.name;
        match &dev.kind {
            DeviceKind::Resistor { a, b, conductance } => {
                let _ = writeln!(
                    out,
                    "R{name} {} {} {}",
                    circuit.node_name(*a),
                    circuit.node_name(*b),
                    1.0 / conductance
                );
            }
            DeviceKind::Capacitor { a, b, farads } => {
                let _ = writeln!(
                    out,
                    "C{name} {} {} {}",
                    circuit.node_name(*a),
                    circuit.node_name(*b),
                    farads
                );
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                let _ = writeln!(
                    out,
                    "V{name} {} {} {}",
                    circuit.node_name(*pos),
                    circuit.node_name(*neg),
                    wave_text(wave)
                );
            }
            DeviceKind::Isource { from, to, wave } => {
                let _ = writeln!(
                    out,
                    "I{name} {} {} {}",
                    circuit.node_name(*from),
                    circuit.node_name(*to),
                    wave_text(wave)
                );
            }
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w_over_l,
            } => {
                let canon = used_models
                    .iter()
                    .position(|m| m == model)
                    .expect("model collected in the first pass");
                let _ = writeln!(
                    out,
                    "M{name} {} {} {} {} m{canon} W={}U L=1U",
                    circuit.node_name(*d),
                    circuit.node_name(*g),
                    circuit.node_name(*s),
                    circuit.node_name(*b),
                    w_over_l
                );
            }
        }
    }
    for &(node, volts) in circuit.initial_conditions() {
        let _ = writeln!(out, ".ic V({})={}", circuit.node_name(node), volts);
    }
    out.push_str(".end\n");
    out
}

fn wave_text(wave: &SourceWave) -> String {
    match wave {
        SourceWave::Dc(v) => format!("DC {v}"),
        SourceWave::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        } => format!("PULSE({v1} {v2} {delay} {rise} {fall} {width} {period})"),
        SourceWave::Pwl(w) => {
            let mut s = "PWL(".to_string();
            for (k, &(t, v)) in w.points().iter().enumerate() {
                if k > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{t} {v}");
            }
            s.push(')');
            s
        }
    }
}

/// Parses a numeric value with SPICE engineering suffixes
/// (`f p n u m k meg g t`, case-insensitive; trailing unit letters are
/// ignored, so `50fF`, `1K`, `0.7U` all work).
///
/// # Errors
///
/// Returns [`SpiceError::InvalidParameter`] for malformed numbers; for
/// non-alphabetic trailing garbage after the number (`1.5k3`, `2p%`),
/// since a suffix must be letters only; and for values that are not
/// finite (`nan`, `inf`, `1e308meg`).
pub fn parse_value(token: &str) -> Result<f64> {
    let (base, scale) = parse_value_parts(token)?;
    Ok(base * scale)
}

/// [`parse_value`] split into `(mantissa, scale)` so callers that take
/// a *ratio* of two same-unit values (the `W`/`L` of a MOSFET card) can
/// divide mantissas first and recover the ratio bit-exactly instead of
/// rounding through the unit multiplication twice.
///
/// # Errors
///
/// As [`parse_value`].
pub fn parse_value_parts(token: &str) -> Result<(f64, f64)> {
    let t = token.trim().to_ascii_lowercase();
    let (num_str, suffix) = split_numeric(&t);
    let base: f64 = num_str
        .parse()
        .map_err(|_| SpiceError::InvalidParameter(format!("bad numeric value '{token}'")))?;
    // A legal suffix is letters only: an engineering scale (with `meg`
    // taking precedence over `m`) optionally followed by unit letters
    // (`10pf`, `3.3v`). Anything else is trailing garbage, named in the
    // error rather than silently truncated.
    if let Some(bad) = suffix.chars().find(|c| !c.is_ascii_alphabetic()) {
        return Err(SpiceError::InvalidParameter(format!(
            "trailing garbage '{suffix}' after number in '{token}' (unexpected '{bad}')"
        )));
    }
    let scale = if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('f') => 1e-15,
            Some('p') => 1e-12,
            Some('n') => 1e-9,
            Some('u') => 1e-6,
            Some('m') => 1e-3,
            Some('k') => 1e3,
            Some('g') => 1e9,
            Some('t') => 1e12,
            Some(_) => 1.0, // unit letter like 'v', 'a', 's'
        }
    };
    // `f64::from_str` accepts `nan` and `inf`, and a scale can overflow
    // a finite mantissa; neither is a value a circuit can carry.
    if !(base * scale).is_finite() {
        return Err(SpiceError::InvalidParameter(format!(
            "non-finite numeric value '{token}'"
        )));
    }
    Ok((base, scale))
}

fn split_numeric(t: &str) -> (&str, &str) {
    // Split at the longest parseable numeric prefix: 'e' inside a float
    // exponent is numeric ("1e-12"), the same letter after "10p" is a
    // unit.
    for end in (1..=t.len()).rev() {
        if t.is_char_boundary(end) && t[..end].parse::<f64>().is_ok() {
            return (&t[..end], &t[end..]);
        }
    }
    ("", t)
}

/// Parse-time statistics of one [`from_deck_with_stats`] call: how much
/// preprocessing (title skip, subcircuit flattening) the deck needed.
/// Importer health lands in `mtk_trace` counters built from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeckStats {
    /// The leading line did not parse as a card and was consumed as the
    /// SPICE title line.
    pub title_skipped: bool,
    /// Logical cards after comment stripping and continuation joining
    /// (including `.subckt` bodies, before flattening).
    pub cards: usize,
    /// Distinct `.subckt` definitions.
    pub subckt_defs: usize,
    /// `X` instances flattened (counting nested instantiations).
    pub instances_flattened: usize,
    /// Deepest instantiation nesting level (0 for a flat deck).
    pub max_instance_depth: usize,
}

/// Parses a SPICE deck (the subset documented at module level) into a
/// [`Circuit`].
///
/// # Errors
///
/// Returns [`SpiceError::InvalidParameter`] for cards outside the
/// supported subset or malformed syntax.
pub fn from_deck(text: &str) -> Result<Circuit> {
    from_deck_with_stats(text).map(|(c, _)| c)
}

/// [`from_deck`] plus [`DeckStats`] describing what the parse did.
///
/// # Errors
///
/// As [`from_deck`].
pub fn from_deck_with_stats(text: &str) -> Result<(Circuit, DeckStats)> {
    // Join continuations, strip comments; remember each logical card's
    // raw line number so the title heuristic can tell whether the deck
    // really starts with its first card.
    let mut entries: Vec<(usize, String)> = Vec::new();
    for (raw_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('+') {
            if let Some((_, last)) = entries.last_mut() {
                last.push(' ');
                last.push_str(rest);
                continue;
            }
        }
        entries.push((raw_no, line.to_string()));
    }
    match parse_entries(&entries) {
        Ok(done) => Ok(done),
        // SPICE convention: the first line of a deck is a title. When
        // the very first raw line fails to parse as a card, consume it
        // as the title and re-parse; any other failure is a real error.
        Err((Some(0), _)) if entries.first().is_some_and(|(raw, _)| *raw == 0) => {
            match parse_entries(&entries[1..]) {
                Ok((c, stats)) => Ok((
                    c,
                    DeckStats {
                        title_skipped: true,
                        cards: stats.cards + 1,
                        ..stats
                    },
                )),
                Err((_, e)) => Err(e),
            }
        }
        Err((_, e)) => Err(e),
    }
}

/// A `.subckt` definition: lowercased port names plus the body cards
/// (each with its index into the entry slice, for error attribution).
struct SubcktDef {
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Instantiation depth bound — far above any real hierarchy, it exists
/// to turn pathological nesting into a clean error.
const MAX_INSTANCE_DEPTH: usize = 32;

type EntryResult<T> = std::result::Result<T, (Option<usize>, SpiceError)>;

fn fail<T>(idx: usize, msg: String) -> EntryResult<T> {
    Err((Some(idx), SpiceError::InvalidParameter(msg)))
}

/// Splits the entry list into `.subckt` definitions, `.global` node
/// names, and top-level cards (kept with their entry indices).
#[allow(clippy::type_complexity)]
fn partition_subckts(
    entries: &[(usize, String)],
) -> EntryResult<(
    HashMap<String, SubcktDef>,
    Vec<String>,
    Vec<(usize, String)>,
)> {
    let mut defs: HashMap<String, SubcktDef> = HashMap::new();
    let mut globals: Vec<String> = Vec::new();
    let mut top: Vec<(usize, String)> = Vec::new();
    let mut open: Option<(usize, String, SubcktDef)> = None;
    for (idx, (_, line)) in entries.iter().enumerate() {
        let lower = line.to_ascii_lowercase();
        let mut toks = lower.split_whitespace();
        let card = toks.next().unwrap_or("");
        if card == ".subckt" {
            if let Some((_, name, _)) = &open {
                return fail(
                    idx,
                    format!("nested .subckt definition inside '{name}' is not supported"),
                );
            }
            let Some(name) = toks.next() else {
                return fail(idx, ".subckt without a name".into());
            };
            if defs.contains_key(name) {
                return fail(idx, format!("duplicate .subckt definition '{name}'"));
            }
            let ports: Vec<String> = toks.map(str::to_string).collect();
            if ports.iter().any(|p| p.contains('=')) {
                return fail(
                    idx,
                    format!("parameterised .subckt '{name}' is not supported"),
                );
            }
            open = Some((
                idx,
                name.to_string(),
                SubcktDef {
                    ports,
                    body: Vec::new(),
                },
            ));
        } else if card == ".ends" {
            let Some((_, name, def)) = open.take() else {
                return fail(idx, ".ends without a matching .subckt".into());
            };
            if let Some(end_name) = toks.next() {
                if end_name != name {
                    return fail(
                        idx,
                        format!(".ends '{end_name}' does not close .subckt '{name}'"),
                    );
                }
            }
            defs.insert(name, def);
        } else if card == ".global" {
            if open.is_some() {
                return fail(idx, ".global inside a .subckt body is not supported".into());
            }
            globals.extend(toks.map(str::to_string));
        } else if let Some((_, _, def)) = &mut open {
            def.body.push((idx, line.clone()));
        } else {
            top.push((idx, line.clone()));
        }
    }
    if let Some((idx, name, _)) = open {
        return fail(idx, format!(".subckt '{name}' is never closed by .ends"));
    }
    Ok((defs, globals, top))
}

/// Rewrites one node token into the instance scope: bound ports resolve
/// to the caller's nodes, ground and `.global` nodes stay global, and
/// everything else becomes `inst/local` — the `mtk_netlist::hier`
/// naming contract.
fn map_node(
    tok: &str,
    binding: &HashMap<String, String>,
    globals: &[String],
    path: &str,
) -> String {
    if let Some(bound) = binding.get(tok) {
        return bound.clone();
    }
    if tok == "0" || tok == "gnd" || globals.iter().any(|g| g == tok) {
        return tok.to_string();
    }
    format!("{path}/{tok}")
}

/// Expands one `X` instance card into flat device cards, recursively.
#[allow(clippy::too_many_arguments)]
fn expand_instance(
    idx: usize,
    path: &str,
    sub_name: &str,
    bound: Vec<String>,
    defs: &HashMap<String, SubcktDef>,
    globals: &[String],
    out: &mut Vec<(usize, String)>,
    stats: &mut DeckStats,
    active: &mut Vec<String>,
) -> EntryResult<()> {
    let Some(def) = defs.get(sub_name) else {
        return fail(idx, format!("unknown subcircuit '{sub_name}'"));
    };
    if active.iter().any(|s| s == sub_name) {
        return fail(
            idx,
            format!("recursive instantiation of subcircuit '{sub_name}'"),
        );
    }
    if active.len() >= MAX_INSTANCE_DEPTH {
        return fail(
            idx,
            format!("subcircuit nesting deeper than {MAX_INSTANCE_DEPTH}"),
        );
    }
    if bound.len() != def.ports.len() {
        return fail(
            idx,
            format!(
                "instance '{path}' binds {} nodes, subckt '{sub_name}' has {} ports",
                bound.len(),
                def.ports.len()
            ),
        );
    }
    let binding: HashMap<String, String> = def.ports.iter().cloned().zip(bound).collect();
    active.push(sub_name.to_string());
    stats.instances_flattened += 1;
    stats.max_instance_depth = stats.max_instance_depth.max(active.len());
    for (bidx, line) in &def.body {
        let lower = line.to_ascii_lowercase();
        let mut toks = lower.split_whitespace();
        let Some(card) = toks.next() else { continue };
        let first = card.chars().next().unwrap_or(' ');
        let local = &card[first.len_utf8()..];
        match first {
            '.' => {
                // Models are global (collected in the model pass);
                // analysis and .ic cards make no sense per-instance.
                if card != ".model" {
                    return fail(
                        *bidx,
                        format!("control card '{card}' inside a .subckt body is not supported"),
                    );
                }
            }
            'x' => {
                let rest: Vec<&str> = toks.collect();
                let (nodes, inner_sub) = split_x_card(*bidx, local, &rest)?;
                let mapped: Vec<String> = nodes
                    .iter()
                    .map(|n| map_node(n, &binding, globals, path))
                    .collect();
                expand_instance(
                    *bidx,
                    &format!("{path}/{local}"),
                    inner_sub,
                    mapped,
                    defs,
                    globals,
                    out,
                    stats,
                    active,
                )?;
            }
            'r' | 'c' | 'v' | 'i' => {
                let a = toks.next().ok_or_else(|| (Some(*bidx), missing(card)))?;
                let b = toks.next().ok_or_else(|| (Some(*bidx), missing(card)))?;
                let rest: Vec<&str> = toks.collect();
                let mut flat = format!(
                    "{first}{path}/{local} {} {}",
                    map_node(a, &binding, globals, path),
                    map_node(b, &binding, globals, path)
                );
                for r in rest {
                    flat.push(' ');
                    flat.push_str(r);
                }
                out.push((*bidx, flat));
            }
            'm' => {
                let mut nodes = Vec::with_capacity(4);
                for _ in 0..4 {
                    let n = toks.next().ok_or_else(|| (Some(*bidx), missing(card)))?;
                    nodes.push(map_node(n, &binding, globals, path));
                }
                let mut flat = format!("m{path}/{local}");
                for n in &nodes {
                    flat.push(' ');
                    flat.push_str(n);
                }
                for r in toks {
                    flat.push(' ');
                    flat.push_str(r);
                }
                out.push((*bidx, flat));
            }
            other => {
                return fail(*bidx, format!("unsupported element '{other}' in '{line}'"));
            }
        }
    }
    active.pop();
    Ok(())
}

/// Splits an `X` card's operand tokens into bound nodes + subckt name
/// (the last plain token, per standard SPICE positional syntax).
fn split_x_card<'a>(
    idx: usize,
    name: &str,
    rest: &[&'a str],
) -> EntryResult<(Vec<&'a str>, &'a str)> {
    if name.is_empty() {
        return fail(idx, "X card without an instance name".into());
    }
    let Some((&sub, nodes)) = rest.split_last() else {
        return fail(idx, format!("instance 'x{name}' names no subcircuit"));
    };
    if sub.contains('=') || nodes.iter().any(|n| n.contains('=')) {
        return fail(
            idx,
            format!("parameterised X card 'x{name}' is not supported"),
        );
    }
    Ok((nodes.to_vec(), sub))
}

/// Parses preprocessed entries; errors carry the failing entry index so
/// the caller can apply the title-line heuristic.
fn parse_entries(entries: &[(usize, String)]) -> EntryResult<(Circuit, DeckStats)> {
    let mut stats = DeckStats {
        cards: entries.len(),
        ..DeckStats::default()
    };
    let (defs, globals, top) = partition_subckts(entries)?;
    stats.subckt_defs = defs.len();

    // Flatten X instances into plain cards.
    let mut lines: Vec<(usize, String)> = Vec::new();
    for (idx, line) in top {
        let lower = line.to_ascii_lowercase();
        let mut toks = lower.split_whitespace();
        let Some(card) = toks.next() else { continue };
        if let Some(inst) = card.strip_prefix('x') {
            let rest: Vec<&str> = toks.collect();
            let (nodes, sub) = split_x_card(idx, inst, &rest)?;
            let bound: Vec<String> = nodes.iter().map(|n| (*n).to_string()).collect();
            expand_instance(
                idx,
                inst,
                sub,
                bound,
                &defs,
                &globals,
                &mut lines,
                &mut stats,
                &mut Vec::new(),
            )?;
        } else {
            lines.push((idx, line));
        }
    }

    let mut c = Circuit::new();
    let mut models: HashMap<String, ModelId> = HashMap::new();
    // Two passes: models first (M cards may appear before .model), over
    // every entry so definitions inside .subckt bodies stay global.
    for (idx, (_, line)) in entries.iter().enumerate() {
        parse_model_card(&mut c, &mut models, line).map_err(|e| (Some(idx), e))?;
    }
    for (idx, line) in &lines {
        parse_card(&mut c, &models, line).map_err(|e| (Some(*idx), e))?;
    }
    Ok((c, stats))
}

/// Handles one `.model` card (no-op for any other line).
fn parse_model_card(
    c: &mut Circuit,
    models: &mut HashMap<String, ModelId>,
    line: &str,
) -> Result<()> {
    let lower = line.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix(".model") {
        let cleaned = rest.replace(['(', ')'], " ");
        let mut toks = cleaned.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| SpiceError::InvalidParameter(".model without name".into()))?
            .to_string();
        let kind = toks
            .next()
            .ok_or_else(|| SpiceError::InvalidParameter(".model without type".into()))?
            .to_string();
        let polarity = match kind.as_str() {
            "nmos" => Polarity::Nmos,
            "pmos" => Polarity::Pmos,
            other => {
                return Err(SpiceError::InvalidParameter(format!(
                    "unsupported model type '{other}'"
                )))
            }
        };
        let mut m = MosModel {
            polarity,
            vt0: 0.5,
            kp: 50e-6,
            gamma: 0.0,
            phi: 0.6,
            lambda: 0.0,
            subthreshold: None,
            caps: None,
        };
        for tok in toks {
            let Some((k, v)) = tok.split_once('=') else {
                continue;
            };
            let val = parse_value(v)?;
            match k {
                "vto" | "vt0" => m.vt0 = val,
                "kp" => m.kp = val,
                "gamma" => m.gamma = val,
                "phi" => m.phi = val,
                "lambda" => m.lambda = val,
                "level" if val != 1.0 => {
                    return Err(SpiceError::InvalidParameter(format!(
                        "only level=1 models supported, got {val}"
                    )));
                }
                "n_sub" => {
                    m.subthreshold.get_or_insert_with(Subthreshold::default).n = val;
                }
                "i0_sub" => {
                    m.subthreshold.get_or_insert_with(Subthreshold::default).i0 = val;
                }
                _ => {}
            }
        }
        let id = c.add_model(m);
        models.insert(name, id);
    }
    Ok(())
}

/// Handles one flat element or control card.
fn parse_card(c: &mut Circuit, models: &HashMap<String, ModelId>, line: &str) -> Result<()> {
    let lower = line.to_ascii_lowercase();
    let mut toks = lower.split_whitespace();
    let Some(card) = toks.next() else {
        return Ok(());
    };
    let first = card.chars().next().unwrap_or(' ');
    match first {
        '.' => {
            if card == ".ic" {
                // .ic V(node)=value [V(node)=value ...]
                for tok in lower.split_whitespace().skip(1) {
                    let t = tok.trim();
                    let inner = t
                        .strip_prefix("v(")
                        .and_then(|r| r.split_once(")="))
                        .ok_or_else(|| {
                            SpiceError::InvalidParameter(format!("bad .ic entry '{t}'"))
                        })?;
                    let node = c.node(inner.0);
                    c.set_ic(node, parse_value(inner.1)?);
                }
            } else if card == ".end" || card == ".model" || card == ".tran" || card == ".op" {
                // .model handled in pass 1; analyses are ignored
                // (driven programmatically).
            } else {
                return Err(SpiceError::InvalidParameter(format!(
                    "unsupported control card '{card}'"
                )));
            }
        }
        'r' => {
            let (a, b, rest) = two_nodes(c, &mut toks, card)?;
            let ohms = parse_value(&rest.ok_or_else(|| missing(card))?)?;
            if ohms <= 0.0 {
                return Err(SpiceError::InvalidParameter(format!(
                    "resistor '{card}' has non-positive resistance"
                )));
            }
            c.resistor(&card[1..], a, b, ohms);
        }
        'c' => {
            let (a, b, rest) = two_nodes(c, &mut toks, card)?;
            let farads = parse_value(&rest.ok_or_else(|| missing(card))?)?;
            if farads < 0.0 {
                return Err(SpiceError::InvalidParameter(format!(
                    "capacitor '{card}' has negative capacitance"
                )));
            }
            c.capacitor(&card[1..], a, b, farads);
        }
        'v' | 'i' => {
            let pos = toks.next().ok_or_else(|| missing(card))?.to_string();
            let neg = toks.next().ok_or_else(|| missing(card))?.to_string();
            let rest: Vec<&str> = toks.collect();
            let wave = parse_wave(&rest.join(" "))?;
            let (np, nn) = (c.node(&pos), c.node(&neg));
            if first == 'v' {
                c.vsource(&card[1..], np, nn, wave);
            } else {
                c.isource(&card[1..], np, nn, wave);
            }
        }
        'm' => {
            let d = c.node(toks.next().ok_or_else(|| missing(card))?);
            let g = c.node(toks.next().ok_or_else(|| missing(card))?);
            let s = c.node(toks.next().ok_or_else(|| missing(card))?);
            let b = c.node(toks.next().ok_or_else(|| missing(card))?);
            let model_name = toks.next().ok_or_else(|| missing(card))?;
            let model = *models.get(model_name).ok_or_else(|| {
                SpiceError::InvalidParameter(format!("unknown model '{model_name}'"))
            })?;
            let mut w = (1.0, 1.0);
            let mut l = (1.0, 1.0);
            for tok in toks {
                if let Some((k, v)) = tok.split_once('=') {
                    match k {
                        "w" => w = parse_value_parts(v)?,
                        "l" => l = parse_value_parts(v)?,
                        _ => {}
                    }
                }
            }
            if l.0 * l.1 <= 0.0 {
                return Err(SpiceError::InvalidParameter(format!(
                    "mosfet '{card}' has non-positive L"
                )));
            }
            // Same unit on W and L (the canonical `U`/`U` convention):
            // divide mantissas so the aspect ratio is bit-exact.
            let w_over_l = if w.1 == l.1 {
                w.0 / l.0
            } else {
                (w.0 * w.1) / (l.0 * l.1)
            };
            if !(w_over_l.is_finite() && w_over_l > 0.0) {
                return Err(SpiceError::InvalidParameter(format!(
                    "mosfet '{card}' needs a positive finite W/L, got {w_over_l}"
                )));
            }
            c.mosfet(&card[1..], d, g, s, b, model, w_over_l);
        }
        'x' => {
            // Flattening consumed every X card; reaching one here means
            // a caller bypassed `parse_entries`.
            return Err(SpiceError::InvalidParameter(format!(
                "unexpanded instance card '{card}'"
            )));
        }
        other => {
            return Err(SpiceError::InvalidParameter(format!(
                "unsupported element '{other}' in '{line}'"
            )));
        }
    }
    Ok(())
}

fn missing(card: &str) -> SpiceError {
    SpiceError::InvalidParameter(format!("card '{card}' is missing fields"))
}

fn two_nodes<'a, I: Iterator<Item = &'a str>>(
    c: &mut Circuit,
    toks: &mut I,
    card: &str,
) -> Result<(
    crate::circuit::NodeId,
    crate::circuit::NodeId,
    Option<String>,
)> {
    let a = toks.next().ok_or_else(|| missing(card))?.to_string();
    let b = toks.next().ok_or_else(|| missing(card))?.to_string();
    let rest = toks.next().map(str::to_string);
    Ok((c.node(&a), c.node(&b), rest))
}

fn parse_wave(text: &str) -> Result<SourceWave> {
    let t = text.trim();
    if t.is_empty() {
        return Ok(SourceWave::Dc(0.0));
    }
    if let Some(rest) = t.strip_prefix("dc") {
        return Ok(SourceWave::Dc(parse_value(rest.trim())?));
    }
    if let Some(args) = strip_call(t, "pulse") {
        let vals: Vec<f64> = args
            .split_whitespace()
            .map(parse_value)
            .collect::<Result<_>>()?;
        if vals.len() < 7 {
            return Err(SpiceError::InvalidParameter(
                "PULSE needs 7 parameters".into(),
            ));
        }
        return Ok(SourceWave::Pulse {
            v1: vals[0],
            v2: vals[1],
            delay: vals[2],
            rise: vals[3],
            fall: vals[4],
            width: vals[5],
            period: vals[6],
        });
    }
    if let Some(args) = strip_call(t, "pwl") {
        let vals: Vec<f64> = args
            .split_whitespace()
            .map(parse_value)
            .collect::<Result<_>>()?;
        if !vals.len().is_multiple_of(2) {
            return Err(SpiceError::InvalidParameter(
                "PWL needs time/value pairs".into(),
            ));
        }
        let mut w = Pwl::new();
        for pair in vals.chunks(2) {
            w.try_push(pair[0], pair[1])
                .map_err(|e| SpiceError::InvalidParameter(format!("PWL: {e}")))?;
        }
        return Ok(SourceWave::Pwl(w));
    }
    // Bare value = DC.
    Ok(SourceWave::Dc(parse_value(t)?))
}

fn strip_call<'a>(t: &'a str, name: &str) -> Option<&'a str> {
    let rest = t.strip_prefix(name)?.trim_start();
    let inner = rest.strip_prefix('(')?;
    Some(inner.strip_suffix(')').unwrap_or(inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{operating_point, DcOptions};

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("50f").unwrap(), 50e-15);
        assert_eq!(parse_value("1.5K").unwrap(), 1500.0);
        assert_eq!(parse_value("2meg").unwrap(), 2e6);
        assert_eq!(parse_value("0.7u").unwrap(), 0.7e-6);
        assert_eq!(parse_value("1e-12").unwrap(), 1e-12);
        assert_eq!(parse_value("50fF").unwrap(), 50e-15);
        assert_eq!(parse_value("3.3v").unwrap(), 3.3);
        assert!(parse_value("abc").is_err());
    }

    /// `f64::from_str` takes `nan` and `inf`, and a scale can overflow a
    /// finite mantissa: all three are rejected, not imported.
    #[test]
    fn non_finite_values_are_rejected() {
        for token in ["nan", "inf", "1e308meg"] {
            match parse_value(token) {
                Err(SpiceError::InvalidParameter(msg)) => {
                    assert!(msg.contains("non-finite"), "{token}: {msg}")
                }
                other => panic!("{token}: {other:?}"),
            }
        }
        assert!(parse_value("1e302meg").unwrap().is_finite());
    }

    /// Device values the circuit builder refuses are card errors, not
    /// panics: a zero or negative resistance, a negative capacitance,
    /// and a W/L that is zero or overflows.
    #[test]
    fn out_of_range_device_values_are_errors() {
        const MODEL: &str = ".model mn nmos level=1 vto=0.5 kp=100u\n";
        for (card, what) in [
            ("r1 a 0 0", "non-positive resistance"),
            ("r1 a 0 -1k", "non-positive resistance"),
            ("c1 a 0 -1p", "negative capacitance"),
            ("m1 d g 0 0 mn w=0u l=1u", "positive finite W/L"),
            ("m1 d g 0 0 mn w=1e300 l=1e-300", "positive finite W/L"),
        ] {
            match from_deck(&format!("* t\n{MODEL}{card}\n")) {
                Err(SpiceError::InvalidParameter(msg)) => {
                    assert!(msg.contains(what), "{card}: {msg}")
                }
                other => panic!("{card}: {other:?}"),
            }
        }
        assert!(from_deck(&format!("* t\n{MODEL}c1 a 0 0\n")).is_ok());
    }

    #[test]
    fn deck_roundtrip_preserves_structure() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd, Circuit::GND, SourceWave::Dc(1.2));
        c.vsource(
            "vin",
            inp,
            Circuit::GND,
            SourceWave::ramp(1e-9, 1e-10, 0.0, 1.2),
        );
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        c.capacitor("cl", out, Circuit::GND, 50e-15);
        c.resistor("rx", out, Circuit::GND, 1e9);
        c.set_ic(out, 1.2);

        let deck = to_deck(&c, "inverter");
        // The parser ignores analysis cards such as `.tran`.
        let with_tran = deck.replace(".end\n", ".tran 1e-11 1e-8\n.end\n");
        assert!(with_tran.contains(".tran 1e-11 1e-8\n.end\n"));
        let parsed = from_deck(&with_tran).expect("parse back");
        assert_eq!(parsed.device_count(), c.device_count());
        assert_eq!(parsed.node_count(), c.node_count());
        assert_eq!(parsed.initial_conditions().len(), 1);
        // The re-serialized deck is identical (canonical form).
        assert_eq!(to_deck(&parsed, "inverter"), deck);
    }

    #[test]
    fn parsed_circuit_solves_like_original() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, SourceWave::Dc(6.0));
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 2000.0);
        let parsed = from_deck(&to_deck(&c, "divider")).unwrap();
        let op = operating_point(&parsed, &DcOptions::default()).unwrap();
        let mid_parsed = parsed.find_node("mid").unwrap();
        assert!((op.voltage(mid_parsed) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn continuation_and_comments() {
        let deck = "* title comment\n\
                    R1 a 0 1k\n\
                    * a comment\n\
                    C1 a\n\
                    + 0 1p\n\
                    .end\n";
        let c = from_deck(deck).unwrap();
        assert_eq!(c.device_count(), 2);
    }

    #[test]
    fn pulse_and_pwl_sources() {
        let deck = "Vp in 0 PULSE(0 1.2 1n 0.1n 0.1n 4n 10n)\n\
                    Vq c 0 PWL(0 0 1n 1.2 2n 0)\n\
                    R1 in 0 1k\nR2 c 0 1k\n.end\n";
        let c = from_deck(deck).unwrap();
        let devs = c.devices();
        match &devs[0].kind {
            DeviceKind::Vsource { wave, .. } => {
                assert_eq!(wave.value(2e-9), 1.2);
            }
            _ => panic!("expected vsource"),
        }
        match &devs[1].kind {
            DeviceKind::Vsource { wave, .. } => {
                assert!((wave.value(0.5e-9) - 0.6).abs() < 1e-12);
            }
            _ => panic!("expected vsource"),
        }
    }

    #[test]
    fn mosfet_geometry_is_aspect_ratio() {
        let deck = ".model mynmos NMOS (level=1 vto=0.35 kp=100u)\n\
                    M1 d g 0 0 mynmos W=4U L=2U\n\
                    Vg g 0 DC 1.2\nVd d 0 DC 1.2\n.end\n";
        let c = from_deck(deck).unwrap();
        let m = c
            .devices()
            .iter()
            .find_map(|d| match &d.kind {
                DeviceKind::Mosfet { w_over_l, .. } => Some(*w_over_l),
                _ => None,
            })
            .unwrap();
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn errors_on_unsupported_cards() {
        // A leading `*` comment pins the next line as a card — without
        // it the title heuristic would consume the bad first line.
        assert!(from_deck("* t\nLbad a 0 1u\n.end\n").is_err());
        assert!(from_deck("* t\n.model md NMOS (level=2)\n.end\n").is_err());
        assert!(from_deck("* t\nM1 d g 0 0 nomodel W=1U L=1U\n.end\n").is_err());
        assert!(from_deck("* t\n.lib models.sp\n.end\n").is_err());
    }

    #[test]
    fn title_line_is_skipped_when_it_fails_as_a_card() {
        let (c, stats) =
            from_deck_with_stats("my inverter testbench\nR1 a 0 1k\n.end\n").expect("title deck");
        assert_eq!(c.device_count(), 1);
        assert!(stats.title_skipped);
        assert_eq!(stats.cards, 3);
    }

    #[test]
    fn deck_without_title_parses_every_line_as_a_card() {
        let (c, stats) = from_deck_with_stats("R1 a 0 1k\n.end\n").expect("no-title deck");
        assert_eq!(c.device_count(), 1);
        assert!(!stats.title_skipped);
        assert_eq!(stats.cards, 2);
    }

    #[test]
    fn title_retry_does_not_mask_errors_past_the_first_line() {
        // The heuristic only ever consumes raw line 0; a bad card later
        // in the deck stays an error even when line 0 is a title.
        assert!(from_deck("a title line\nR1 a 0 1k\nLbad a 0 1u\n.end\n").is_err());
    }

    #[test]
    fn value_suffix_hardening() {
        // meg vs m: three letters of magnitude apart.
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("1m").unwrap(), 1e-3);
        assert_eq!(parse_value("2.5MEG").unwrap(), 2.5e6);
        // Embedded units after the scale letter.
        assert_eq!(parse_value("10pf").unwrap(), 10e-12);
        assert_eq!(parse_value("2.5k").unwrap(), 2500.0);
        assert_eq!(parse_value("2.5kohm").unwrap(), 2500.0);
        assert_eq!(parse_value("1meghz").unwrap(), 1e6);
        // Mantissa/scale split for bit-exact ratios.
        assert_eq!(parse_value_parts("4u").unwrap(), (4.0, 1e-6));
        assert_eq!(parse_value_parts("7").unwrap(), (7.0, 1.0));
        // Trailing garbage is a named-token error, not silent truncation.
        for bad in ["1.5k3", "2p%", "3.3v!", "--2"] {
            let err = parse_value(bad).unwrap_err().to_string();
            assert!(
                err.contains(bad),
                "error for '{bad}' names the token: {err}"
            );
        }
        let err = parse_value("1.5k3").unwrap_err().to_string();
        assert!(err.contains("trailing garbage"), "{err}");
        assert!(err.contains('3'), "{err}");
    }

    #[test]
    fn subckt_instances_flatten_with_hier_naming() {
        let deck = "* rc ladder via subckt\n\
                    .subckt rcpair a b\n\
                    Rr a mid 1k\n\
                    Cc mid b 1p\n\
                    .ends rcpair\n\
                    Xu1 n1 0 rcpair\n\
                    Xu2 n1 0 rcpair\n\
                    .end\n";
        let (c, stats) = from_deck_with_stats(deck).expect("subckt deck");
        assert_eq!(c.device_count(), 4);
        // Internal nodes carry the inst/local prefix; ports bind to the
        // caller's nodes.
        assert!(c.find_node("u1/mid").is_ok());
        assert!(c.find_node("u2/mid").is_ok());
        assert!(c.find_node("n1").is_ok());
        assert!(c.find_node("mid").is_err());
        assert_eq!(stats.subckt_defs, 1);
        assert_eq!(stats.instances_flattened, 2);
        assert_eq!(stats.max_instance_depth, 1);
        assert!(!stats.title_skipped);
        // Device names carry the same prefix.
        assert!(c.devices().iter().any(|d| d.name == "u1/r"));
        assert!(c.devices().iter().any(|d| d.name == "u2/c"));
    }

    #[test]
    fn nested_subckt_instantiation_flattens_recursively() {
        let deck = "* nested hierarchy\n\
                    .subckt inner a b\n\
                    Rr a b 1k\n\
                    .ends\n\
                    .subckt outer a b\n\
                    Xi a m inner\n\
                    Xj m b inner\n\
                    .ends\n\
                    Xtop p 0 outer\n\
                    .end\n";
        let (c, stats) = from_deck_with_stats(deck).expect("nested deck");
        assert_eq!(c.device_count(), 2);
        assert!(c.find_node("top/m").is_ok());
        assert!(c.devices().iter().any(|d| d.name == "top/i/r"));
        assert!(c.devices().iter().any(|d| d.name == "top/j/r"));
        assert_eq!(stats.subckt_defs, 2);
        assert_eq!(stats.instances_flattened, 3);
        assert_eq!(stats.max_instance_depth, 2);
    }

    #[test]
    fn global_nodes_stay_unprefixed_inside_subckts() {
        let deck = "* global rail\n\
                    .global vdd\n\
                    .model mn NMOS (level=1 vto=0.35 kp=100u)\n\
                    .subckt pull o g\n\
                    M1 o g vdd vdd mn W=2U L=1U\n\
                    .ends\n\
                    Xa out in pull\n\
                    Vdd vdd 0 DC 1.2\n\
                    .end\n";
        let c = from_deck(deck).expect("global deck");
        assert!(c.find_node("vdd").is_ok());
        assert!(c.find_node("a/vdd").is_err());
        let m = c.devices().iter().find(|d| d.name == "a/1").expect("mos");
        match &m.kind {
            DeviceKind::Mosfet { w_over_l, .. } => assert_eq!(*w_over_l, 2.0),
            k => panic!("expected mosfet, got {k:?}"),
        }
    }

    #[test]
    fn subckt_mosfet_ratio_survives_via_mantissa_division() {
        // 0.3/0.1 is inexact through (x*1e-6)/(y*1e-6) float rounding;
        // the parser divides mantissas first so the ratio is bit-exact.
        let deck = "* ratio\n\
                    .model mn NMOS (level=1 vto=0.35 kp=100u)\n\
                    M1 d g 0 0 mn W=0.3U L=0.1U\n\
                    .end\n";
        let c = from_deck(deck).expect("ratio deck");
        match &c.devices()[0].kind {
            DeviceKind::Mosfet { w_over_l, .. } => assert_eq!(*w_over_l, 0.3 / 0.1),
            k => panic!("expected mosfet, got {k:?}"),
        }
    }

    #[test]
    fn subckt_error_cases_are_named() {
        let cases: &[(&str, &str)] = &[
            ("* t\nXu a b nosuch\n.end\n", "unknown subcircuit"),
            (
                "* t\n.subckt s a b\nRr a b 1k\n.ends\nXu n1 s\n.end\n",
                "binds 1 nodes",
            ),
            (
                "* t\n.subckt s a\nXq a s\n.ends\nXu n1 s\n.end\n",
                "recursive instantiation",
            ),
            ("* t\n.subckt s a\nRr a 0 1k\n.end\n", "never closed"),
            ("* t\n.subckt s a\n.ends t\n.end\n", "does not close"),
            ("* t\n.ends\n.end\n", "without a matching"),
            (
                "* t\n.subckt s a\n.subckt q b\n.ends\n.ends\n.end\n",
                "nested .subckt",
            ),
            (
                "* t\n.subckt s a\nRr a 0 1k\n.ends\n.subckt s b\n.ends\n.end\n",
                "duplicate .subckt",
            ),
            (
                "* t\n.subckt s a w=2\nRr a 0 1k\n.ends\nXu n1 s\n.end\n",
                "parameterised .subckt",
            ),
            (
                "* t\n.subckt s a\nRr a 0 1k\n.ends\nXu n1 s w=2\n.end\n",
                "parameterised X card",
            ),
            (
                "* t\n.subckt s a\n.ic V(a)=1\n.ends\nXu n1 s\n.end\n",
                "inside a .subckt body",
            ),
            (
                "* t\n.subckt s a\n.global vdd\n.ends\nXu n1 s\n.end\n",
                "inside a .subckt body",
            ),
        ];
        for (deck, want) in cases {
            let err = from_deck(deck).expect_err(want).to_string();
            assert!(err.contains(want), "expected '{want}' in: {err}");
        }
    }
}
