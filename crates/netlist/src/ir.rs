//! Mutable gate-level netlist IR.
//!
//! A [`Netlist`] is a DAG of [`Gate`]s connected by nets. It supports the
//! three structural operations the timing-driven optimizer performs — gate
//! resizing, buffer insertion, and commutative pin swapping — plus
//! dead-logic pruning and validation.

use crate::cell::{CellKind, CellType, Drive};
use crate::library::Library;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a net (wire).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GateId(pub(crate) u32);

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl NetId {
    /// The raw index, for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The raw index, for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Driver {
    /// Driven by the primary input with this index.
    Input(u32),
    /// Driven by a gate's output.
    Gate(GateId),
}

/// A gate instance: a sized cell with input nets and one output net.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Gate {
    /// The sized cell implementing this gate.
    pub kind: CellKind,
    ins: [NetId; 3],
    arity: u8,
    out: NetId,
}

impl Gate {
    /// The input nets, in pin order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.ins[..self.arity as usize]
    }

    /// The output net.
    #[inline]
    pub fn output(&self) -> NetId {
        self.out
    }
}

/// A connection point: a gate input pin or a primary output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sink {
    /// Pin `pin` of gate `gate`.
    Pin {
        /// The consuming gate.
        gate: GateId,
        /// The pin index on that gate.
        pin: u8,
    },
    /// The primary output with this index.
    Output(u32),
}

/// Every net's sinks in one flat list (compressed sparse rows), built by
/// [`Netlist::fanout`].
///
/// A net's sinks are the gate input pins it feeds, gates by index and pins
/// in order, followed by the primary outputs it drives. A pin swap or a
/// buffer insertion leaves the view stale until it is told of the edit
/// through [`Fanout::pins_swapped`] or [`Fanout::buffer_inserted`]; after
/// that it equals a freshly built view. Resizing never changes it.
#[derive(Debug, PartialEq, Eq)]
pub struct Fanout {
    /// `offsets[net]..offsets[net + 1]` indexes `net`'s sinks.
    offsets: Vec<u32>,
    sinks: Vec<Sink>,
}

impl Clone for Fanout {
    fn clone(&self) -> Self {
        Fanout {
            offsets: self.offsets.clone(),
            sinks: self.sinks.clone(),
        }
    }

    /// Copies `source` into this view's buffers.
    fn clone_from(&mut self, source: &Self) {
        self.offsets.clone_from(&source.offsets);
        self.sinks.clone_from(&source.sinks);
    }
}

impl Fanout {
    /// The sinks of `net`.
    #[inline]
    pub fn sinks(&self, net: NetId) -> &[Sink] {
        let i = net.index();
        &self.sinks[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every net's sinks, in net order.
    pub fn rows(&self) -> impl Iterator<Item = &[Sink]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.sinks[w[0] as usize..w[1] as usize])
    }

    fn row_range(&self, net: NetId) -> std::ops::Range<usize> {
        self.offsets[net.index()] as usize..self.offsets[net.index() + 1] as usize
    }

    /// Brings the view up to date after [`Netlist::swap_pins`] on `gate`
    /// (`nl` is the netlist after the swap): in the row of each of the
    /// gate's input nets, the gate's entries are relabelled with the pins
    /// that now read that net, in pin order. No row changes length.
    pub fn pins_swapped(&mut self, nl: &Netlist, gate: GateId) {
        let inputs = nl.gate(gate).inputs();
        for (i, &net) in inputs.iter().enumerate() {
            if inputs[..i].contains(&net) {
                continue; // row already rewritten
            }
            let row = self.row_range(net);
            let first = row.start
                + self.sinks[row]
                    .iter()
                    .position(|s| matches!(*s, Sink::Pin { gate: g, .. } if g == gate))
                    .expect("gate's pin on its input net's row");
            let pins = (0..inputs.len()).filter(|&p| inputs[p] == net);
            for (slot, pin) in self.sinks[first..].iter_mut().zip(pins) {
                *slot = Sink::Pin {
                    gate,
                    pin: pin as u8,
                };
            }
        }
    }

    /// Brings the view up to date after [`Netlist::insert_buffer`] added
    /// `buffer` (`nl` is the netlist after the insertion) and moved the
    /// sinks `moved` behind it. The buffered net's row drops `moved` and
    /// gains the buffer's pin after its other pins (the buffer has the
    /// highest gate index); the buffer's output net gets a new last row
    /// holding `moved` in sink order.
    ///
    /// # Panics
    ///
    /// Panics unless `buffer`'s output is the net after the view's last.
    pub fn buffer_inserted(&mut self, nl: &Netlist, buffer: GateId, moved: &[Sink]) {
        let g = nl.gate(buffer);
        let (net, out) = (g.inputs()[0], g.output());
        assert_eq!(
            out.index() + 1,
            self.offsets.len(),
            "buffer output is not the next net"
        );
        let row = self.row_range(net);
        let kept = self.sinks[row.clone()]
            .iter()
            .filter(|s| !moved.contains(s));
        let (pins, outputs): (Vec<Sink>, Vec<Sink>) =
            kept.partition(|s| matches!(s, Sink::Pin { .. }));
        let buffer_pin = Sink::Pin {
            gate: buffer,
            pin: 0,
        };
        let (old_len, new_len) = (row.len() as u32, (pins.len() + 1 + outputs.len()) as u32);
        self.sinks
            .splice(row, pins.into_iter().chain([buffer_pin]).chain(outputs));
        // Every later offset is at least the old row's length.
        for offset in &mut self.offsets[net.index() + 1..] {
            *offset = *offset + new_len - old_len;
        }
        let mut new_row = moved.to_vec();
        new_row.sort_by_key(|s| match *s {
            Sink::Pin { gate, pin } => (0, gate.index(), pin),
            Sink::Output(idx) => (1, idx as usize, 0),
        });
        self.sinks.extend(new_row);
        self.offsets.push(self.sinks.len() as u32);
    }
}

/// A mutable gate-level netlist.
///
/// # Example
///
/// ```
/// use netlist::{Netlist, CellType};
///
/// let mut nl = Netlist::new("toy");
/// let a = nl.add_input();
/// let b = nl.add_input();
/// let y = nl.add_gate(CellType::Nand2, &[a, b]);
/// nl.mark_output(y);
/// assert_eq!(nl.num_gates(), 1);
/// nl.validate().unwrap();
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    drivers: Vec<Driver>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            name: self.name.clone(),
            gates: self.gates.clone(),
            drivers: self.drivers.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
        }
    }

    /// Copies `source` into this netlist's buffers.
    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.gates.clone_from(&source.gates);
        self.drivers.clone_from(&source.drivers);
        self.inputs.clone_from(&source.inputs);
        self.outputs.clone_from(&source.outputs);
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            drivers: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist's name (used as the Verilog module name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self) -> NetId {
        let net = NetId(self.drivers.len() as u32);
        self.drivers.push(Driver::Input(self.inputs.len() as u32));
        self.inputs.push(net);
        net
    }

    /// Adds a minimum-drive gate of `cell_type` and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != cell_type.arity()` or an input net does
    /// not exist.
    pub fn add_gate(&mut self, cell_type: CellType, inputs: &[NetId]) -> NetId {
        self.add_sized_gate(CellKind::x1(cell_type), inputs)
    }

    /// Adds a gate with an explicit drive strength.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_sized_gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        assert_eq!(
            inputs.len(),
            kind.cell_type.arity(),
            "{} expects {} inputs",
            kind,
            kind.cell_type.arity()
        );
        for &i in inputs {
            assert!(i.index() < self.drivers.len(), "input net {i:?} missing");
        }
        let out = NetId(self.drivers.len() as u32);
        let gate_id = GateId(self.gates.len() as u32);
        self.drivers.push(Driver::Gate(gate_id));
        let mut ins = [NetId(0); 3];
        ins[..inputs.len()].copy_from_slice(inputs);
        self.gates.push(Gate {
            kind,
            ins,
            arity: inputs.len() as u8,
            out,
        });
        out
    }

    /// Marks a net as a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn mark_output(&mut self, net: NetId) {
        assert!(net.index() < self.drivers.len(), "net {net:?} missing");
        self.outputs.push(net);
    }

    /// The number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The number of nets (inputs plus gate outputs).
    pub fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Iterates over `(GateId, &Gate)` pairs.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// What drives `net`.
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Changes a gate's drive strength (the sizing move).
    pub fn resize(&mut self, gate: GateId, drive: Drive) {
        self.gates[gate.index()].kind.drive = drive;
    }

    /// Swaps two input pins of a gate (the pin-swapping move).
    ///
    /// # Panics
    ///
    /// Panics if either pin index is out of range. The caller is responsible
    /// for only swapping logically commutative pins (e.g. A/B of NAND2 or
    /// AOI21, but never C).
    pub fn swap_pins(&mut self, gate: GateId, pin_a: usize, pin_b: usize) {
        let g = &mut self.gates[gate.index()];
        assert!(pin_a < g.arity as usize && pin_b < g.arity as usize);
        g.ins.swap(pin_a, pin_b);
    }

    /// Inserts a buffer driven by `net` and reconnects the given sinks to
    /// the buffer's output (the buffering move). Returns the new net.
    ///
    /// # Panics
    ///
    /// Panics if any sink is not currently connected to `net`.
    pub fn insert_buffer(&mut self, net: NetId, drive: Drive, sinks: &[Sink]) -> NetId {
        let buf_out = self.add_sized_gate(CellKind::new(CellType::Buf, drive), &[net]);
        for &sink in sinks {
            match sink {
                Sink::Pin { gate, pin } => {
                    let g = &mut self.gates[gate.index()];
                    assert!(
                        (pin as usize) < g.arity as usize && g.ins[pin as usize] == net,
                        "sink {gate:?}/{pin} not on net {net:?}"
                    );
                    g.ins[pin as usize] = buf_out;
                }
                Sink::Output(idx) => {
                    assert!(
                        self.outputs[idx as usize] == net,
                        "output {idx} not on net {net:?}"
                    );
                    self.outputs[idx as usize] = buf_out;
                }
            }
        }
        buf_out
    }

    /// The fanout view: every net's sinks, built in one pass.
    pub fn fanout(&self) -> Fanout {
        let n = self.num_nets();
        // Counting sort into CSR rows: count each net's sinks into
        // `offsets[net + 1]`, prefix-sum, then fill while advancing
        // `offsets[net]` as the row cursor and shift it back afterwards.
        let mut offsets = vec![0u32; n + 1];
        let pins = self.gates.iter().flat_map(|g| g.inputs());
        for net in pins.chain(&self.outputs) {
            offsets[net.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let placeholder = Sink::Output(u32::MAX);
        let mut sinks = vec![placeholder; offsets[n] as usize];
        let mut place = |net: NetId, sink: Sink| {
            let cursor = &mut offsets[net.index()];
            sinks[*cursor as usize] = sink;
            *cursor += 1;
        };
        for (id, gate) in self.gates() {
            for (pin, &net) in gate.inputs().iter().enumerate() {
                place(
                    net,
                    Sink::Pin {
                        gate: id,
                        pin: pin as u8,
                    },
                );
            }
        }
        for (idx, &net) in self.outputs.iter().enumerate() {
            place(net, Sink::Output(idx as u32));
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Fanout { offsets, sinks }
    }

    /// Gates in topological order (every gate after its input drivers).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (cannot be
    /// constructed through this API, but guards against corrupted data).
    pub fn topo_order(&self) -> Vec<GateId> {
        self.topo_order_with(&self.fanout())
    }

    /// [`Netlist::topo_order`] over an already built [`Netlist::fanout`].
    ///
    /// # Panics
    ///
    /// As [`Netlist::topo_order`].
    pub fn topo_order_with(&self, fanout: &Fanout) -> Vec<GateId> {
        let mut indegree: Vec<u32> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs()
                    .iter()
                    .filter(|&&n| matches!(self.drivers[n.index()], Driver::Gate(_)))
                    .count() as u32
            })
            .collect();
        let mut queue: Vec<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| GateId(i as u32))
            .collect();
        queue.reserve(self.gates.len() - queue.len());
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            for &s in fanout.sinks(self.gates[id.index()].out) {
                if let Sink::Pin { gate, .. } = s {
                    indegree[gate.index()] -= 1;
                    if indegree[gate.index()] == 0 {
                        queue.push(gate);
                    }
                }
            }
        }
        assert_eq!(queue.len(), self.gates.len(), "combinational cycle");
        queue
    }

    /// Total cell area under `lib`, µm².
    pub fn area(&self, lib: &Library) -> f64 {
        self.gates
            .iter()
            .map(|g| lib.area(g.kind.cell_type, g.kind.drive))
            .sum()
    }

    /// Removes gates whose outputs reach no primary output, compacting ids.
    ///
    /// Returns the number of gates removed. Net ids are *not* stable across
    /// this call; callers should re-derive any side tables.
    pub fn prune_dead(&mut self) -> usize {
        let mut live_net = vec![false; self.num_nets()];
        let mut stack: Vec<NetId> = self.outputs.clone();
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut live_net[net.index()], true) {
                continue;
            }
            if let Driver::Gate(g) = self.drivers[net.index()] {
                for &i in self.gates[g.index()].inputs() {
                    if !live_net[i.index()] {
                        stack.push(i);
                    }
                }
            }
        }
        let dead = self
            .gates
            .iter()
            .filter(|g| !live_net[g.out.index()])
            .count();
        if dead == 0 {
            return 0;
        }
        // Rebuild with only live gates, remapping net ids.
        let mut net_map = vec![NetId(u32::MAX); self.num_nets()];
        let mut rebuilt = Netlist::new(self.name.clone());
        for &pi in &self.inputs {
            let new = rebuilt.add_input();
            net_map[pi.index()] = new;
        }
        for id in self.topo_order() {
            let g = &self.gates[id.index()];
            if !live_net[g.out.index()] {
                continue;
            }
            let ins: Vec<NetId> = g.inputs().iter().map(|&n| net_map[n.index()]).collect();
            let out = rebuilt.add_sized_gate(g.kind, &ins);
            net_map[g.out.index()] = out;
        }
        for &po in &self.outputs {
            rebuilt.mark_output(net_map[po.index()]);
        }
        *self = rebuilt;
        dead
    }

    /// Validates structural invariants: pin arities, net references, and
    /// acyclicity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (id, g) in self.gates() {
            if g.inputs().len() != g.kind.cell_type.arity() {
                return Err(format!("{id:?} arity mismatch"));
            }
            for &n in g.inputs() {
                if n.index() >= self.num_nets() {
                    return Err(format!("{id:?} references missing net {n:?}"));
                }
            }
            if self.drivers[g.out.index()] != Driver::Gate(id) {
                return Err(format!("{id:?} output driver table corrupt"));
            }
        }
        for &po in &self.outputs {
            if po.index() >= self.num_nets() {
                return Err(format!("missing output net {po:?}"));
            }
        }
        // topo_order panics on cycles; validate reports instead.
        let mut seen = vec![false; self.num_nets()];
        for &pi in &self.inputs {
            seen[pi.index()] = true;
        }
        let order = self.topo_order();
        for id in order {
            let g = &self.gates[id.index()];
            for &n in g.inputs() {
                if !seen[n.index()] {
                    return Err(format!("{id:?} consumes net {n:?} before definition"));
                }
            }
            seen[g.out.index()] = true;
        }
        Ok(())
    }

    /// Histogram of cell types, for reporting.
    pub fn cell_histogram(&self) -> Vec<(CellType, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for g in &self.gates {
            *counts.entry(g.kind.cell_type).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Netlist, NetId, NetId, NetId) {
        let mut nl = Netlist::new("toy");
        let a = nl.add_input();
        let b = nl.add_input();
        let y = nl.add_gate(CellType::Nand2, &[a, b]);
        let z = nl.add_gate(CellType::Inv, &[y]);
        nl.mark_output(z);
        (nl, a, b, y)
    }

    #[test]
    fn construction_and_validation() {
        let (nl, ..) = toy();
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.num_nets(), 4);
        nl.validate().unwrap();
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (nl, ..) = toy();
        let order = nl.topo_order();
        assert_eq!(order.len(), 2);
        // NAND must precede INV.
        assert!(order[0].index() == 0 && order[1].index() == 1);
    }

    #[test]
    fn resize_changes_kind() {
        let (mut nl, ..) = toy();
        nl.resize(GateId(0), Drive::new(4));
        assert_eq!(nl.gate(GateId(0)).kind.drive, Drive::new(4));
    }

    #[test]
    fn buffer_insertion_reroutes_sinks() {
        let mut nl = Netlist::new("fanout");
        let a = nl.add_input();
        let x = nl.add_gate(CellType::Inv, &[a]);
        let y1 = nl.add_gate(CellType::Inv, &[x]);
        let y2 = nl.add_gate(CellType::Inv, &[x]);
        let y3 = nl.add_gate(CellType::Inv, &[x]);
        for y in [y1, y2, y3] {
            nl.mark_output(y);
        }
        // Buffer two of the three sinks.
        let sinks = [
            Sink::Pin {
                gate: GateId(2),
                pin: 0,
            },
            Sink::Pin {
                gate: GateId(3),
                pin: 0,
            },
        ];
        let buf_net = nl.insert_buffer(x, Drive::X1, &sinks);
        nl.validate().unwrap();
        assert_eq!(nl.gate(GateId(2)).inputs()[0], buf_net);
        assert_eq!(nl.gate(GateId(3)).inputs()[0], buf_net);
        assert_eq!(nl.gate(GateId(1)).inputs()[0], x, "unbuffered sink kept");
        assert_eq!(nl.fanout().sinks(x).len(), 2, "gate 1 and buffer");
    }

    #[test]
    fn fanout_edits_match_a_fresh_view() {
        // Net `a` feeds two pins of the AOI21 and is an output; `x` feeds
        // three gates and an output.
        let mut nl = Netlist::new("edits");
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(CellType::Nand2, &[a, b]);
        let y = nl.add_gate(CellType::Aoi21, &[a, x, a]);
        let z1 = nl.add_gate(CellType::Inv, &[x]);
        let z2 = nl.add_gate(CellType::Nand2, &[x, y]);
        for net in [a, x, y, z1, z2] {
            nl.mark_output(net);
        }
        let mut fanout = nl.fanout();
        for (pin_a, pin_b) in [(0, 2), (0, 1), (1, 2), (2, 0)] {
            nl.swap_pins(GateId(1), pin_a, pin_b);
            fanout.pins_swapped(&nl, GateId(1));
            assert_eq!(fanout, nl.fanout(), "swap {pin_a}/{pin_b}");
        }
        let pin = |g: u32, pin: u8| Sink::Pin {
            gate: GateId(g),
            pin,
        };
        // Out of sink order on purpose, an output among them; then a
        // buffer on a primary input, and one that moves every sink.
        for (net, moved) in [
            (x, vec![Sink::Output(1), pin(3, 0)]),
            (a, vec![pin(1, 1)]),
            (y, vec![pin(3, 1), Sink::Output(2)]),
        ] {
            let buf_out = nl.insert_buffer(net, Drive::X1, &moved);
            let Driver::Gate(buffer) = nl.driver(buf_out) else {
                unreachable!("a buffer drives its output")
            };
            fanout.buffer_inserted(&nl, buffer, &moved);
            assert_eq!(fanout, nl.fanout(), "buffer on {net:?}");
        }
        nl.validate().unwrap();
    }

    #[test]
    fn pin_swap() {
        let (mut nl, a, b, _) = toy();
        nl.swap_pins(GateId(0), 0, 1);
        assert_eq!(nl.gate(GateId(0)).inputs(), &[b, a]);
        nl.validate().unwrap();
    }

    #[test]
    fn area_accumulates() {
        let (nl, ..) = toy();
        let lib = Library::nangate45();
        let expect = lib.area(CellType::Nand2, Drive::X1) + lib.area(CellType::Inv, Drive::X1);
        assert!((nl.area(&lib) - expect).abs() < 1e-12);
    }

    #[test]
    fn prune_dead_removes_unobserved_logic() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input();
        let live = nl.add_gate(CellType::Inv, &[a]);
        let dead = nl.add_gate(CellType::Inv, &[a]);
        let _deader = nl.add_gate(CellType::Inv, &[dead]);
        nl.mark_output(live);
        assert_eq!(nl.prune_dead(), 2);
        assert_eq!(nl.num_gates(), 1);
        nl.validate().unwrap();
        assert_eq!(nl.prune_dead(), 0, "idempotent");
    }

    #[test]
    fn fanout_lists_pins_in_gate_order_then_outputs() {
        let mut nl = Netlist::new("fan");
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(CellType::Nand2, &[b, a]);
        nl.mark_output(a);
        let y = nl.add_gate(CellType::Aoi21, &[a, x, a]);
        nl.mark_output(y);
        let fanout = nl.fanout();
        let pin = |g: u32, pin: u8| Sink::Pin {
            gate: GateId(g),
            pin,
        };
        assert_eq!(
            fanout.sinks(a),
            &[pin(0, 1), pin(1, 0), pin(1, 2), Sink::Output(0)]
        );
        assert_eq!(fanout.sinks(b), &[pin(0, 0)]);
        assert_eq!(fanout.sinks(x), &[pin(1, 1)]);
        assert_eq!(fanout.sinks(y), &[Sink::Output(1)]);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn arity_enforced() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input();
        nl.add_gate(CellType::Nand2, &[a]);
    }
}
