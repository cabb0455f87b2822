//! Static timing analysis.
//!
//! Forward-propagates arrival times and backward-propagates required times
//! over the netlist DAG using the library's linear delay model
//! `d_arc = intrinsic + pin_offset + R_drive · C_load`, where a net's load
//! is the sum of its sink pin capacitances, a fanout-proportional wire
//! capacitance, and the external output load for primary outputs.
//!
//! The capacitive-loading feedback is the effect the paper identifies as the
//! reason analytical prefix-graph metrics do not predict synthesized
//! quality (Section V-D): fanout costs load, load costs delay, and fixing it
//! (sizing/buffering) costs area.
//!
//! A pass builds the netlist's CSR fanout view once, derives loads and a
//! topological order from it, and reads delays from the library's dense
//! table (DESIGN.md §5 gives the bit-identity argument). The optimizer
//! keeps a [`Topology`] — netlist, fanout view, loads and order — for a
//! whole run and edits it only through its moves, which update it in
//! place; a sweep builds it once and its targets share it until their
//! moves differ. [`Topology::analyze_into`] refills one report's buffers,
//! and its two halves run apart: the forward pass once per optimizer
//! iteration, the backward pass once per target.

use netlist::ir::{Driver, Fanout, Sink};
use netlist::{Drive, GateId, Library, NetId, Netlist};
use serde::{Deserialize, Serialize};

/// Timing constraints for analysis and optimization.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingConstraints {
    /// Arrival time at each primary input, ns. Either one value for all
    /// inputs (uniform, the paper's training setting) or one per input;
    /// [`analyze`] panics on any other length.
    pub input_arrivals: Vec<f64>,
    /// Drive resistance of whatever feeds the primary inputs (ns/fF) —
    /// models the launching flip-flops of the paper's Fig. 5 setup.
    pub input_resistance: f64,
}

impl TimingConstraints {
    /// Uniform zero arrivals with a default input driver (the paper's
    /// training configuration: "uniform arrival and departure times").
    pub fn uniform(lib: &Library) -> Self {
        TimingConstraints {
            input_arrivals: vec![0.0],
            input_resistance: lib.resistance(netlist::CellType::Buf, netlist::Drive::new(4)),
        }
    }

    /// Nonuniform per-input arrival times (paper future-work extension):
    /// one value per primary input, in declaration order.
    pub fn with_arrivals(lib: &Library, arrivals: Vec<f64>) -> Self {
        TimingConstraints {
            input_arrivals: arrivals,
            input_resistance: lib.resistance(netlist::CellType::Buf, netlist::Drive::new(4)),
        }
    }

    fn arrival_of(&self, input_idx: usize) -> f64 {
        if self.input_arrivals.len() == 1 {
            self.input_arrivals[0]
        } else {
            self.input_arrivals[input_idx]
        }
    }
}

/// The result of a timing analysis pass. [`TimingReport::default`] is an
/// empty report for [`Topology::analyze_into`] to fill.
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    /// Arrival time per net, ns.
    pub arrival: Vec<f64>,
    /// Required time per net against the analysis target, ns.
    pub required: Vec<f64>,
    /// Capacitive load per net, fF.
    pub load: Vec<f64>,
    /// Critical (maximum) arrival over primary outputs, ns.
    pub critical_delay: f64,
    /// The delay target the required times were computed against.
    pub target: f64,
}

impl TimingReport {
    /// Slack of a net: `required - arrival`; negative on violating paths.
    #[inline]
    pub fn slack(&self, net: NetId) -> f64 {
        self.required[net.index()] - self.arrival[net.index()]
    }

    /// Worst slack over all nets.
    pub fn worst_slack(&self) -> f64 {
        self.required
            .iter()
            .zip(&self.arrival)
            .map(|(r, a)| r - a)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Computes every net's capacitive load.
pub fn net_loads(nl: &Netlist, lib: &Library) -> Vec<f64> {
    loads(nl, lib, &nl.fanout())
}

/// Every net's load, summed over its row of `fanout` by [`row_load`].
fn loads(nl: &Netlist, lib: &Library, fanout: &Fanout) -> Vec<f64> {
    fanout.rows().map(|row| row_load(nl, lib, row)).collect()
}

/// A net's load from its fanout row: wire capacitance for the row's
/// length, then each sink's pin capacitance (the output load for a primary
/// output) added in row order — gates by index, pins in order, then
/// primary outputs.
fn row_load(nl: &Netlist, lib: &Library, row: &[Sink]) -> f64 {
    row.iter().fold(lib.wire_cap(row.len()), |load, sink| {
        load + match *sink {
            Sink::Pin { gate, .. } => {
                let k = nl.gate(gate).kind;
                lib.input_cap(k.cell_type, k.drive)
            }
            Sink::Output(_) => lib.output_load(),
        }
    })
}

/// A netlist together with the part of a timing pass that depends only on
/// which gates drive which nets and on the gates' cells: its fanout view,
/// every net's load and a topological gate order.
///
/// The netlist is edited only through the optimizer's three moves, each of
/// which updates the rest in place, so one topology lasts a whole
/// optimizer run:
///
/// - [`Topology::swap_pins`] relabels the gate's entries in its input
///   nets' fanout rows. Loads and order stay: both pins load their net
///   with the same cell input capacitance.
/// - [`Topology::resize`] re-sums the loads of the gate's input nets over
///   their rows, in row order — the order [`net_loads`] sums in.
/// - [`Topology::insert_buffer`] updates the two rows, re-sums the old
///   net's load and sums the new one's, and places the buffer right after
///   its input's driver in the order.
///
/// Timing over the topology is bit-identical to [`analyze`] of its
/// netlist (DESIGN.md §5): every load is summed as a fresh build sums it,
/// and arrivals (maxes) and required times (mins) do not depend on which
/// topological order visits the gates.
#[derive(Debug)]
pub struct Topology<'l> {
    lib: &'l Library,
    nl: Netlist,
    fanout: Fanout,
    load: Vec<f64>,
    order: Vec<GateId>,
}

impl Clone for Topology<'_> {
    fn clone(&self) -> Self {
        Topology {
            lib: self.lib,
            nl: self.nl.clone(),
            fanout: self.fanout.clone(),
            load: self.load.clone(),
            order: self.order.clone(),
        }
    }

    /// Copies `source` into this topology's buffers.
    fn clone_from(&mut self, source: &Self) {
        self.lib = source.lib;
        self.nl.clone_from(&source.nl);
        self.fanout.clone_from(&source.fanout);
        self.load.clone_from(&source.load);
        self.order.clone_from(&source.order);
    }
}

impl<'l> Topology<'l> {
    /// Builds the topology of `nl` under `lib` from one fanout view.
    pub fn new(nl: Netlist, lib: &'l Library) -> Self {
        let fanout = nl.fanout();
        let load = loads(&nl, lib, &fanout);
        let order = nl.topo_order_with(&fanout);
        Topology {
            lib,
            nl,
            fanout,
            load,
            order,
        }
    }

    /// The library the loads are summed under.
    pub(crate) fn library(&self) -> &'l Library {
        self.lib
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Gives up the topology, keeping the netlist.
    pub(crate) fn into_netlist(self) -> Netlist {
        self.nl
    }

    /// The sinks of `net`, as [`Netlist::fanout`] of the netlist lists them.
    pub fn sinks(&self, net: NetId) -> &[Sink] {
        self.fanout.sinks(net)
    }

    /// Changes a gate's drive strength ([`Netlist::resize`]).
    pub fn resize(&mut self, gate: GateId, drive: Drive) {
        self.nl.resize(gate, drive);
        for pin in 0..self.nl.gate(gate).inputs().len() {
            self.refresh_load(self.nl.gate(gate).inputs()[pin]);
        }
    }

    /// Swaps two input pins of a gate ([`Netlist::swap_pins`]).
    ///
    /// # Panics
    ///
    /// As [`Netlist::swap_pins`].
    pub fn swap_pins(&mut self, gate: GateId, pin_a: usize, pin_b: usize) {
        self.nl.swap_pins(gate, pin_a, pin_b);
        self.fanout.pins_swapped(&self.nl, gate);
    }

    /// Inserts a buffer on `net` and moves `sinks` behind it
    /// ([`Netlist::insert_buffer`]). Returns the buffer's output net.
    ///
    /// # Panics
    ///
    /// As [`Netlist::insert_buffer`].
    pub fn insert_buffer(&mut self, net: NetId, drive: Drive, sinks: &[Sink]) -> NetId {
        let out = self.nl.insert_buffer(net, drive, sinks);
        let Driver::Gate(buffer) = self.nl.driver(out) else {
            unreachable!("a buffer drives its output net")
        };
        self.fanout.buffer_inserted(&self.nl, buffer, sinks);
        self.refresh_load(net);
        self.load
            .push(row_load(&self.nl, self.lib, self.fanout.sinks(out)));
        // Every sink moved behind the buffer came after `net`'s driver.
        let at = match self.nl.driver(net) {
            Driver::Gate(driver) => {
                1 + self
                    .order
                    .iter()
                    .position(|&g| g == driver)
                    .expect("every gate is in the order")
            }
            Driver::Input(_) => 0,
        };
        self.order.insert(at, buffer);
        out
    }

    fn refresh_load(&mut self, net: NetId) {
        self.load[net.index()] = row_load(&self.nl, self.lib, self.fanout.sinks(net));
    }

    /// [`analyze`] of the netlist.
    ///
    /// # Panics
    ///
    /// As [`analyze`].
    pub fn analyze(&self, cons: &TimingConstraints, target: f64) -> TimingReport {
        let mut report = TimingReport::default();
        self.analyze_into(cons, target, &mut report);
        report
    }

    /// [`Topology::analyze`] into `report`, refilling its buffers.
    ///
    /// # Panics
    ///
    /// As [`analyze`].
    pub fn analyze_into(&self, cons: &TimingConstraints, target: f64, report: &mut TimingReport) {
        self.arrivals_into(cons, report);
        self.required_into(target, report);
    }

    /// The forward half of [`Topology::analyze_into`]: fills `report`'s
    /// arrival times, loads and critical delay, none of which depend on
    /// the target.
    ///
    /// # Panics
    ///
    /// As [`analyze`].
    pub(crate) fn arrivals_into(&self, cons: &TimingConstraints, report: &mut TimingReport) {
        arrival_times(
            &self.nl,
            self.lib,
            cons,
            &self.load,
            &self.order,
            &mut report.arrival,
        );
        report.load.clone_from(&self.load);
        report.critical_delay = critical_delay(&self.nl, &report.arrival);
    }

    /// The backward half of [`Topology::analyze_into`]: fills `report`'s
    /// required times against `target`.
    pub(crate) fn required_into(&self, target: f64, report: &mut TimingReport) {
        required_times(
            &self.nl,
            self.lib,
            target,
            &self.load,
            &self.order,
            &mut report.required,
        );
        report.target = target;
    }
}

/// Runs full static timing analysis against a delay `target`.
///
/// The target only affects required times (and hence slacks); arrival times
/// and the critical delay are target-independent.
///
/// # Panics
///
/// Panics unless `cons.input_arrivals` holds one value or one per primary
/// input.
pub fn analyze(nl: &Netlist, lib: &Library, cons: &TimingConstraints, target: f64) -> TimingReport {
    Topology::new(nl.clone(), lib).analyze(cons, target)
}

/// Critical (maximum) arrival over `nl`'s primary outputs.
fn critical_delay(nl: &Netlist, arrival: &[f64]) -> f64 {
    nl.outputs()
        .iter()
        .map(|&po| arrival[po.index()])
        .fold(0.0f64, f64::max)
}

/// The backward pass: every net's required time against `target`, into
/// `required`.
fn required_times(
    nl: &Netlist,
    lib: &Library,
    target: f64,
    load: &[f64],
    order: &[GateId],
    required: &mut Vec<f64>,
) {
    required.clear();
    required.resize(nl.num_nets(), f64::INFINITY);
    for &po in nl.outputs() {
        required[po.index()] = required[po.index()].min(target);
    }
    for &gid in order.iter().rev() {
        let gate = nl.gate(gid);
        let k = gate.kind;
        let out = gate.output();
        let out_req = required[out.index()];
        for (pin, &in_net) in gate.inputs().iter().enumerate() {
            let r = out_req - lib.arc_delay(k.cell_type, k.drive, pin, load[out.index()]);
            if r < required[in_net.index()] {
                required[in_net.index()] = r;
            }
        }
    }
    // Nets with no sinks keep infinite required time; clamp for tidiness.
    for r in required.iter_mut() {
        if !r.is_finite() {
            *r = target;
        }
    }
}

/// The forward pass: every net's arrival time, into `arrival`.
///
/// # Panics
///
/// As [`analyze`].
fn arrival_times(
    nl: &Netlist,
    lib: &Library,
    cons: &TimingConstraints,
    load: &[f64],
    order: &[GateId],
    arrival: &mut Vec<f64>,
) {
    let arrivals = cons.input_arrivals.len();
    assert!(
        arrivals == 1 || arrivals == nl.inputs().len(),
        "input_arrivals has {arrivals} entries; the netlist has {} primary inputs \
         (give 1 or one per input)",
        nl.inputs().len()
    );
    arrival.clear();
    arrival.resize(nl.num_nets(), 0.0);
    // Primary inputs: constraint arrival plus the input driver charging the
    // net's load.
    for (idx, &net) in nl.inputs().iter().enumerate() {
        arrival[net.index()] = cons.arrival_of(idx) + cons.input_resistance * load[net.index()];
    }
    for &gid in order {
        let gate = nl.gate(gid);
        let k = gate.kind;
        let out = gate.output();
        let mut worst = f64::NEG_INFINITY;
        for (pin, &in_net) in gate.inputs().iter().enumerate() {
            let d = lib.arc_delay(k.cell_type, k.drive, pin, load[out.index()]);
            worst = worst.max(arrival[in_net.index()] + d);
        }
        arrival[out.index()] = worst;
    }
}

/// Traces one critical path from the worst primary output back to an input,
/// returning the gate ids along it (output-side first).
pub fn critical_path(nl: &Netlist, lib: &Library, report: &TimingReport) -> Vec<GateId> {
    let mut path = Vec::new();
    let Some(&worst_po) = nl
        .outputs()
        .iter()
        .max_by(|&&a, &&b| report.arrival[a.index()].total_cmp(&report.arrival[b.index()]))
    else {
        return path;
    };
    let mut net = worst_po;
    while let Driver::Gate(gid) = nl.driver(net) {
        path.push(gid);
        let gate = nl.gate(gid);
        let k = gate.kind;
        let out_load = report.load[gate.output().index()];
        // Find the input pin that set the arrival.
        let (_, worst_in) = gate
            .inputs()
            .iter()
            .enumerate()
            .map(|(pin, &in_net)| {
                let d = lib.arc_delay(k.cell_type, k.drive, pin, out_load);
                (report.arrival[in_net.index()] + d, in_net)
            })
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("gate has inputs");
        net = worst_in;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{adder, CellType, Drive};
    use prefix_graph::structures;

    fn lib() -> Library {
        Library::nangate45()
    }

    #[test]
    fn inverter_chain_delay_accumulates() {
        let lib = lib();
        let mut nl = Netlist::new("chain");
        let a = nl.add_input();
        let mut x = a;
        for _ in 0..8 {
            x = nl.add_gate(CellType::Inv, &[x]);
        }
        nl.mark_output(x);
        let r = analyze(&nl, &lib, &TimingConstraints::uniform(&lib), 1.0);
        // 8 stages, each at least the intrinsic delay.
        assert!(r.critical_delay > 8.0 * lib.intrinsic(CellType::Inv, Drive::X1));
        assert!(
            r.critical_delay < 0.5,
            "chain absurdly slow: {}",
            r.critical_delay
        );
    }

    #[test]
    fn fanout_costs_delay() {
        let lib = lib();
        let build = |fanout: usize| {
            let mut nl = Netlist::new("f");
            let a = nl.add_input();
            let x = nl.add_gate(CellType::Inv, &[a]);
            for _ in 0..fanout {
                let y = nl.add_gate(CellType::Inv, &[x]);
                nl.mark_output(y);
            }
            nl
        };
        let cons = TimingConstraints::uniform(&lib);
        let d2 = analyze(&build(2), &lib, &cons, 1.0).critical_delay;
        let d16 = analyze(&build(16), &lib, &cons, 1.0).critical_delay;
        assert!(d16 > d2 * 1.5, "fanout 16 ({d16}) vs 2 ({d2})");
    }

    #[test]
    fn upsizing_driver_reduces_delay() {
        let lib = lib();
        let mut nl = Netlist::new("s");
        let a = nl.add_input();
        let x = nl.add_gate(CellType::Nand2, &[a, a]);
        for _ in 0..8 {
            let y = nl.add_gate(CellType::Inv, &[x]);
            nl.mark_output(y);
        }
        let cons = TimingConstraints::uniform(&lib);
        let before = analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let nand = nl
            .gates()
            .find(|(_, g)| g.kind.cell_type == CellType::Nand2)
            .map(|(id, _)| id)
            .unwrap();
        nl.resize(nand, Drive::new(8));
        let after = analyze(&nl, &lib, &cons, 1.0).critical_delay;
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn slack_consistency() {
        let lib = lib();
        let nl = adder::generate(&structures::sklansky(16));
        let cons = TimingConstraints::uniform(&lib);
        let r = analyze(&nl, &lib, &cons, 0.4);
        // Worst slack equals target minus critical delay (within rounding),
        // because the critical PO's required time is exactly the target.
        let expect = 0.4 - r.critical_delay;
        assert!((r.worst_slack() - expect).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_connected_and_nonempty() {
        let lib = lib();
        let nl = adder::generate(&structures::brent_kung(16));
        let cons = TimingConstraints::uniform(&lib);
        let r = analyze(&nl, &lib, &cons, 0.4);
        let path = critical_path(&nl, &lib, &r);
        assert!(!path.is_empty());
        // Consecutive gates must be connected driver→sink.
        for w in path.windows(2) {
            let (down, up) = (w[0], w[1]);
            let up_out = nl.gate(up).output();
            assert!(nl.gate(down).inputs().contains(&up_out));
        }
    }

    #[test]
    fn deeper_structure_has_longer_delay() {
        let lib = lib();
        let cons = TimingConstraints::uniform(&lib);
        let ripple = adder::generate(&prefix_graph::PrefixGraph::ripple(16));
        let sk = adder::generate(&structures::sklansky(16));
        let dr = analyze(&ripple, &lib, &cons, 1.0).critical_delay;
        let ds = analyze(&sk, &lib, &cons, 1.0).critical_delay;
        assert!(dr > ds, "ripple {dr} should be slower than sklansky {ds}");
    }

    #[test]
    #[should_panic(expected = "input_arrivals has 3 entries; the netlist has 16 primary inputs")]
    fn too_few_arrivals_are_rejected() {
        let lib = lib();
        let nl = adder::generate(&structures::kogge_stone(8));
        let cons = TimingConstraints::with_arrivals(&lib, vec![0.0; 3]);
        analyze(&nl, &lib, &cons, 1.0);
    }

    #[test]
    #[should_panic(expected = "input_arrivals has 17 entries; the netlist has 16 primary inputs")]
    fn too_many_arrivals_are_rejected() {
        let lib = lib();
        let nl = adder::generate(&structures::kogge_stone(8));
        let cons = TimingConstraints::with_arrivals(&lib, vec![0.0; 17]);
        analyze(&nl, &lib, &cons, 1.0);
    }

    #[test]
    fn nonuniform_arrivals_shift_critical_delay() {
        let lib = lib();
        let nl = adder::generate(&structures::kogge_stone(8));
        let uniform = analyze(&nl, &lib, &TimingConstraints::uniform(&lib), 1.0);
        let late_msb = TimingConstraints::with_arrivals(
            &lib,
            (0..16)
                .map(|i| if i == 7 || i == 15 { 0.2 } else { 0.0 })
                .collect(),
        );
        let shifted = analyze(&nl, &lib, &late_msb, 1.0);
        assert!(shifted.critical_delay >= uniform.critical_delay + 0.1);
    }
}
