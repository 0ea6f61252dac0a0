//! Gate-level netlists.
//!
//! A [`Netlist`] is a combinational network of library cells
//! ([`crate::cell::CellKind`]) connected by nets. It supports logic
//! evaluation (for functional checks and for deciding which gates switch
//! under an input-vector transition), capacitance extraction, and is the
//! common input to both the transistor-level expansion
//! ([`crate::expand`]) and the switch-level simulator in `mtk-core`.

use crate::cell::CellKind;
use crate::logic::Logic;
use crate::tech::Technology;
use crate::NetlistError;
use std::collections::HashMap;

/// Identifier of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a cell instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) usize);

impl CellId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A net (wire) in the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Unique name.
    pub name: String,
    /// Additional lumped capacitance on the net (wiring, explicit load),
    /// farads.
    pub extra_cap: f64,
    /// Constant logic value for tied nets (`None` for driven nets).
    pub tie: Option<Logic>,
}

/// A cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Library cell type.
    pub kind: CellKind,
    /// Input nets, in the cell's input order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Drive-strength multiplier applied to the unit transistor sizes.
    pub drive: f64,
}

/// Per-net fanout and load capacitance ([`Netlist::net_loads`]),
/// indexed by `NetId::index()`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLoads {
    /// The cells reading each net, ascending, each once.
    pub readers: Vec<Vec<CellId>>,
    /// Each net's total load capacitance: its extra (wire/explicit)
    /// cap, the gate capacitance of every cell input it feeds, and the
    /// drain junction capacitance of its driver.
    pub cap: Vec<f64>,
}

/// A combinational gate-level netlist.
///
/// # Examples
///
/// ```
/// use mtk_netlist::netlist::Netlist;
/// use mtk_netlist::cell::CellKind;
/// use mtk_netlist::logic::Logic;
///
/// let mut nl = Netlist::new("buf2");
/// let a = nl.add_net("a").unwrap();
/// let m = nl.add_net("mid").unwrap();
/// let y = nl.add_net("y").unwrap();
/// nl.mark_primary_input(a).unwrap();
/// nl.add_cell("i1", CellKind::Inv, vec![a], m, 1.0).unwrap();
/// nl.add_cell("i2", CellKind::Inv, vec![m], y, 1.0).unwrap();
/// let values = nl.evaluate(&[Logic::One]).unwrap();
/// assert_eq!(values[y.index()], Logic::One);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    names: HashMap<String, NetId>,
    cells: Vec<Cell>,
    /// Driving cell per net.
    driver: Vec<Option<CellId>>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            nets: Vec::new(),
            names: HashMap::new(),
            cells: Vec::new(),
            driver: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the name is taken.
    pub fn add_net(&mut self, name: &str) -> Result<NetId, NetlistError> {
        if self.names.contains_key(name) {
            return Err(NetlistError::DuplicateNet(name.to_string()));
        }
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            name: name.to_string(),
            extra_cap: 0.0,
            tie: None,
        });
        self.names.insert(name.to_string(), id);
        self.driver.push(None);
        Ok(id)
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.names.get(name).copied()
    }

    /// Adds a cell instance.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] when `inputs.len()` disagrees with
    ///   the cell kind.
    /// * [`NetlistError::MultipleDrivers`] when the output net already has
    ///   a driver or is tied/primary-input.
    /// * [`NetlistError::InvalidDrive`] for a non-positive drive strength.
    pub fn add_cell(
        &mut self,
        name: &str,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
        drive: f64,
    ) -> Result<CellId, NetlistError> {
        if inputs.len() != kind.n_inputs() {
            return Err(NetlistError::ArityMismatch {
                cell: name.to_string(),
                expected: kind.n_inputs(),
                actual: inputs.len(),
            });
        }
        if !(drive.is_finite() && drive > 0.0) {
            return Err(NetlistError::InvalidDrive {
                cell: name.to_string(),
                drive,
            });
        }
        if self.driver[output.0].is_some()
            || self.nets[output.0].tie.is_some()
            || self.primary_inputs.contains(&output)
        {
            return Err(NetlistError::MultipleDrivers(
                self.nets[output.0].name.clone(),
            ));
        }
        let id = CellId(self.cells.len());
        self.cells.push(Cell {
            name: name.to_string(),
            kind,
            inputs,
            output,
            drive,
        });
        self.driver[output.0] = Some(id);
        Ok(id)
    }

    /// Declares a net as a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the net is driven or
    /// tied.
    pub fn mark_primary_input(&mut self, net: NetId) -> Result<(), NetlistError> {
        if self.driver[net.0].is_some() || self.nets[net.0].tie.is_some() {
            return Err(NetlistError::MultipleDrivers(self.nets[net.0].name.clone()));
        }
        if !self.primary_inputs.contains(&net) {
            self.primary_inputs.push(net);
        }
        Ok(())
    }

    /// Declares a net as a primary output (informational).
    pub fn mark_primary_output(&mut self, net: NetId) {
        if !self.primary_outputs.contains(&net) {
            self.primary_outputs.push(net);
        }
    }

    /// Ties a net to a constant logic level.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the net is driven or a
    /// primary input, or [`NetlistError::InvalidTie`] for an `X` tie.
    pub fn tie_net(&mut self, net: NetId, value: Logic) -> Result<(), NetlistError> {
        if value == Logic::X {
            return Err(NetlistError::InvalidTie(self.nets[net.0].name.clone()));
        }
        if self.driver[net.0].is_some() || self.primary_inputs.contains(&net) {
            return Err(NetlistError::MultipleDrivers(self.nets[net.0].name.clone()));
        }
        self.nets[net.0].tie = Some(value);
        Ok(())
    }

    /// Adds lumped capacitance to a net.
    pub fn add_extra_cap(&mut self, net: NetId, farads: f64) {
        self.nets[net.0].extra_cap += farads;
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All net ids, in index order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId)
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The driving cell of a net, if any.
    pub fn driver_of(&self, net: NetId) -> Option<CellId> {
        self.driver[net.0]
    }

    /// All `(cell, input_position)` pairs that read a net.
    pub fn fanout_of(&self, net: NetId) -> Vec<(CellId, usize)> {
        let mut out = Vec::new();
        for (ci, cell) in self.cells.iter().enumerate() {
            for (pos, &inp) in cell.inputs.iter().enumerate() {
                if inp == net {
                    out.push((CellId(ci), pos));
                }
            }
        }
        out
    }

    /// Cells in topological order (inputs before the cells that read
    /// them).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the netlist has a
    /// cycle.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        // Kahn's algorithm over cell→cell dependencies.
        let n = self.cells.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (ci, cell) in self.cells.iter().enumerate() {
            for &inp in &cell.inputs {
                if let Some(drv) = self.driver[inp.0] {
                    indegree[ci] += 1;
                    dependents[drv.0].push(ci);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let ci = queue[head];
            head += 1;
            order.push(CellId(ci));
            for &dep in &dependents[ci] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    queue.push(dep);
                }
            }
        }
        if order.len() != n {
            return Err(NetlistError::CombinationalLoop(self.name.clone()));
        }
        Ok(order)
    }

    /// Evaluates the netlist for the given primary-input values
    /// (parallel to [`Netlist::primary_inputs`]). Returns the value of
    /// every net; undriven, untied, non-input nets read `X`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] when `input_values.len()`
    ///   disagrees with the declared primary inputs.
    /// * [`NetlistError::CombinationalLoop`] for cyclic netlists.
    pub fn evaluate(&self, input_values: &[Logic]) -> Result<Vec<Logic>, NetlistError> {
        if input_values.len() != self.primary_inputs.len() {
            return Err(NetlistError::ArityMismatch {
                cell: format!("{} primary inputs", self.name),
                expected: self.primary_inputs.len(),
                actual: input_values.len(),
            });
        }
        let mut values = vec![Logic::X; self.nets.len()];
        for (net, &v) in self.primary_inputs.iter().zip(input_values) {
            values[net.0] = v;
        }
        for net in &self.nets {
            if let Some(t) = net.tie {
                values[self.names[&net.name].0] = t;
            }
        }
        let order = self.topo_order()?;
        let mut scratch = Vec::new();
        for ci in order {
            let cell = &self.cells[ci.0];
            scratch.clear();
            scratch.extend(cell.inputs.iter().map(|&n| values[n.0]));
            values[cell.output.0] = cell.kind.eval(&scratch);
        }
        Ok(values)
    }

    /// Total load capacitance on a net, [`NetLoads::cap`]. Both
    /// simulation engines use this same number; to read it for many
    /// nets, call [`Netlist::net_loads`] once.
    pub fn load_cap(&self, net: NetId, tech: &Technology) -> f64 {
        self.net_loads(tech).cap[net.0]
    }

    /// Every net's readers and load capacitance in one pass over the
    /// pins. Pins are visited in ascending (cell, pin) order, the order
    /// [`Netlist::fanout_of`] lists them, so `readers[n]` is
    /// `fanout_of(n)`'s cells with repeats dropped and every `cap[n]`
    /// adds its gate terms in that same order. Calling `fanout_of` per
    /// net scans every pin once per net.
    pub fn net_loads(&self, tech: &Technology) -> NetLoads {
        let mut readers: Vec<Vec<CellId>> = vec![Vec::new(); self.nets.len()];
        let mut cap: Vec<f64> = self.nets.iter().map(|n| n.extra_cap).collect();
        for (ci, cell) in self.cells.iter().enumerate() {
            let units = cell.kind.input_load_units(tech);
            for (pos, &inp) in cell.inputs.iter().enumerate() {
                cap[inp.0] += units[pos] * cell.drive * tech.c_gate;
                let r = &mut readers[inp.0];
                if r.last() != Some(&CellId(ci)) {
                    r.push(CellId(ci));
                }
            }
        }
        for (c, drv) in cap.iter_mut().zip(&self.driver) {
            if let Some(drv) = drv {
                let cell = &self.cells[drv.0];
                *c += (tech.unit_wn + tech.unit_wp) * cell.drive * tech.c_drain;
            }
        }
        NetLoads { readers, cap }
    }

    /// Total transistor count over all cells.
    pub fn total_transistors(&self) -> usize {
        self.cells.iter().map(|c| c.kind.transistor_count()).sum()
    }

    /// Sum of all low-V<sub>t</sub> NMOS aspect ratios, the paper's
    /// "sum the widths of internal low V<sub>t</sub> transistors" sizing
    /// baseline (§2: an unnecessarily large estimate).
    pub fn total_nmos_width_units(&self, tech: &Technology) -> f64 {
        self.cells
            .iter()
            .map(|c| c.kind.pdn().transistor_count() as f64 * tech.unit_wn * c.drive)
            .sum()
    }

    /// A stable 64-bit structural fingerprint: FNV-1a over the netlist
    /// name, every net (name, extra capacitance, tie), every cell (name,
    /// kind, pin connections, drive), and the port lists. Netlists built
    /// identically fingerprint identically in any process, so caches can
    /// key simulation results by circuit identity without holding a
    /// reference to the netlist itself.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_bytes(self.name.as_bytes());
        h.write_u64(self.nets.len() as u64);
        for net in &self.nets {
            h.write_bytes(net.name.as_bytes());
            h.write_u64(net.extra_cap.to_bits());
            h.write_u64(match net.tie {
                None => 0,
                Some(Logic::Zero) => 1,
                Some(Logic::One) => 2,
                Some(Logic::X) => 3,
            });
        }
        h.write_u64(self.cells.len() as u64);
        for cell in &self.cells {
            h.write_bytes(cell.name.as_bytes());
            h.write_bytes(cell.kind.name().as_bytes());
            h.write_u64(cell.inputs.len() as u64);
            for &inp in &cell.inputs {
                h.write_u64(inp.0 as u64);
            }
            h.write_u64(cell.output.0 as u64);
            h.write_u64(cell.drive.to_bits());
        }
        h.write_u64(self.primary_inputs.len() as u64);
        for &pi in &self.primary_inputs {
            h.write_u64(pi.0 as u64);
        }
        h.write_u64(self.primary_outputs.len() as u64);
        for &po in &self.primary_outputs {
            h.write_u64(po.0 as u64);
        }
        h.finish()
    }
}

/// A minimal FNV-1a 64 hasher (std's `DefaultHasher` makes no cross-
/// version stability promise; this one is pinned by tests). It backs the
/// netlist and technology fingerprints and the digests in downstream
/// store keys, so each of them is hashed by the same primitive.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hashes `bytes` as they are, with no length prefix.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a variable-length field: its length as a `u64`, then its
    /// bytes, so adjacent fields cannot alias.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// Hashes `v`'s little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::{One, Zero, X};

    fn inv_chain(n: usize) -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("chain");
        let input = nl.add_net("in").unwrap();
        nl.mark_primary_input(input).unwrap();
        let mut prev = input;
        let mut last = input;
        for i in 0..n {
            let out = nl.add_net(&format!("n{i}")).unwrap();
            nl.add_cell(&format!("i{i}"), CellKind::Inv, vec![prev], out, 1.0)
                .unwrap();
            prev = out;
            last = out;
        }
        nl.mark_primary_output(last);
        (nl, input, last)
    }

    #[test]
    fn chain_evaluation_parity() {
        let (nl, _, last) = inv_chain(5);
        let v = nl.evaluate(&[Zero]).unwrap();
        assert_eq!(v[last.index()], One); // odd inversions
        let v = nl.evaluate(&[One]).unwrap();
        assert_eq!(v[last.index()], Zero);
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_net("a").unwrap();
        assert!(matches!(
            nl.add_net("a"),
            Err(NetlistError::DuplicateNet(_))
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.add_cell("i1", CellKind::Inv, vec![a], y, 1.0).unwrap();
        assert!(matches!(
            nl.add_cell("i2", CellKind::Inv, vec![a], y, 1.0),
            Err(NetlistError::MultipleDrivers(_))
        ));
        // Driving a primary input is also rejected.
        assert!(nl.add_cell("i3", CellKind::Inv, vec![y], a, 1.0).is_err());
    }

    #[test]
    fn arity_and_drive_validated() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let y = nl.add_net("y").unwrap();
        assert!(matches!(
            nl.add_cell("bad", CellKind::Nand2, vec![a], y, 1.0),
            Err(NetlistError::ArityMismatch { .. })
        ));
        assert!(matches!(
            nl.add_cell("bad2", CellKind::Inv, vec![a], y, 0.0),
            Err(NetlistError::InvalidDrive { .. })
        ));
    }

    #[test]
    fn tie_propagates_constant() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.tie_net(a, Zero).unwrap();
        nl.add_cell("i", CellKind::Inv, vec![a], y, 1.0).unwrap();
        let v = nl.evaluate(&[]).unwrap();
        assert_eq!(v[y.index()], One);
        assert!(nl.tie_net(y, One).is_err()); // already driven
        let z = nl.add_net("z").unwrap();
        assert!(nl.tie_net(z, X).is_err());
    }

    #[test]
    fn undriven_net_reads_x() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let float = nl.add_net("float").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.add_cell("g", CellKind::Nand2, vec![a, float], y, 1.0)
            .unwrap();
        let v = nl.evaluate(&[One]).unwrap();
        assert_eq!(v[y.index()], X);
        let v = nl.evaluate(&[Zero]).unwrap();
        assert_eq!(v[y.index()], One); // 0 kills the NAND regardless of X
    }

    #[test]
    fn wrong_input_count_rejected() {
        let (nl, _, _) = inv_chain(2);
        assert!(nl.evaluate(&[]).is_err());
        assert!(nl.evaluate(&[One, One]).is_err());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (nl, _, _) = inv_chain(6);
        let order = nl.topo_order().unwrap();
        let pos: HashMap<usize, usize> = order
            .iter()
            .enumerate()
            .map(|(k, c)| (c.index(), k))
            .collect();
        for (ci, cell) in nl.cells().iter().enumerate() {
            for &inp in &cell.inputs {
                if let Some(drv) = nl.driver_of(inp) {
                    assert!(pos[&drv.index()] < pos[&ci]);
                }
            }
        }
    }

    #[test]
    fn fanout_and_driver_lookups() {
        let (nl, input, _) = inv_chain(3);
        let fan = nl.fanout_of(input);
        assert_eq!(fan.len(), 1);
        assert_eq!(fan[0].1, 0);
        assert!(nl.driver_of(input).is_none());
        let n0 = nl.find_net("n0").unwrap();
        assert!(nl.driver_of(n0).is_some());
        assert!(nl.find_net("zzz").is_none());
    }

    #[test]
    fn load_cap_accumulates_fanout() {
        let tech = Technology::l07();
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a").unwrap();
        let y1 = nl.add_net("y1").unwrap();
        let y2 = nl.add_net("y2").unwrap();
        let m = nl.add_net("m").unwrap();
        nl.mark_primary_input(a).unwrap();
        nl.add_cell("i0", CellKind::Inv, vec![a], m, 1.0).unwrap();
        nl.add_cell("i1", CellKind::Inv, vec![m], y1, 1.0).unwrap();
        nl.add_cell("i2", CellKind::Inv, vec![m], y2, 2.0).unwrap();
        nl.add_extra_cap(m, 10e-15);
        let c = nl.load_cap(m, &tech);
        let gate = (tech.unit_wn + tech.unit_wp) * tech.c_gate;
        let drain = (tech.unit_wn + tech.unit_wp) * tech.c_drain;
        let expect = 10e-15 + gate * (1.0 + 2.0) + drain;
        assert!((c - expect).abs() < 1e-21, "{c} vs {expect}");
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let (a, _, _) = inv_chain(3);
        let (b, _, _) = inv_chain(3);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same construction, same hash"
        );
        let (longer, _, _) = inv_chain(4);
        assert_ne!(a.fingerprint(), longer.fingerprint());
        let (mut loaded, _, _) = inv_chain(3);
        loaded.add_extra_cap(loaded.find_net("n0").unwrap(), 1e-15);
        assert_ne!(
            a.fingerprint(),
            loaded.fingerprint(),
            "extra cap must change the hash"
        );
        let (mut retied, _, _) = inv_chain(3);
        let z = retied.add_net("z").unwrap();
        retied.tie_net(z, Zero).unwrap();
        assert_ne!(a.fingerprint(), retied.fingerprint());
    }

    /// Every field the `.mtk` parser can set must feed the hash; a
    /// frontend-visible difference that fingerprints identically would
    /// alias screening-cache keys.
    #[test]
    fn fingerprint_covers_parser_settable_fields() {
        let (a, _, _) = inv_chain(3);
        // Primary-output markers.
        let (mut extra_po, _, _) = inv_chain(3);
        extra_po.mark_primary_output(extra_po.find_net("n0").unwrap());
        assert_ne!(
            a.fingerprint(),
            extra_po.fingerprint(),
            "primary-output marking must change the hash"
        );
        // The po list is length-prefixed: [po(n1)] vs [po(n1), tie] must
        // not alias [po(n1), po(tie-as-net)]-style boundary confusion.
        let (mut po_then_net, _, _) = inv_chain(3);
        po_then_net.add_net("extra").unwrap();
        let (mut net_then_po, _, _) = inv_chain(3);
        let extra = net_then_po.add_net("extra").unwrap();
        net_then_po.mark_primary_output(extra);
        assert_ne!(po_then_net.fingerprint(), net_then_po.fingerprint());
        // Per-cell drive overrides.
        let mut strong = Netlist::new("chain");
        let input = strong.add_net("in").unwrap();
        strong.mark_primary_input(input).unwrap();
        let out = strong.add_net("n0").unwrap();
        strong
            .add_cell("i0", CellKind::Inv, vec![input], out, 2.0)
            .unwrap();
        let mut weak = strong.clone();
        weak.cells[0].drive = 1.0;
        assert_ne!(
            strong.fingerprint(),
            weak.fingerprint(),
            "cell drive must change the hash"
        );
    }

    #[test]
    fn transistor_and_width_totals() {
        let (nl, _, _) = inv_chain(4);
        assert_eq!(nl.total_transistors(), 8);
        let tech = Technology::l07();
        assert!((nl.total_nmos_width_units(&tech) - 4.0).abs() < 1e-12);
    }
}
