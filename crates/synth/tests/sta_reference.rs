//! `sta::analyze` against a reference implementation.
//!
//! The reference is the straightforward analysis the table-driven pass
//! replaced: a fresh `Vec<Vec<Sink>>` of sinks per call, loads summed over
//! it, a Kahn order over it and per-arc library calls. Random sequences of
//! the optimizer's edits (resize, buffer insertion, pin swap) run on random
//! adders of 6–64 bits under both libraries, with uniform and per-input
//! arrivals, and after every edit each arrival, required time, load and
//! the critical delay must equal the reference bit for bit.

mod common;

use netlist::ir::{Driver, Sink};
use netlist::{adder, Drive, GateId, Library, NetId, Netlist};
use proptest::prelude::*;
use rand::prelude::*;
use synth::sta::{self, TimingConstraints, TimingReport};

/// Every net's sinks: gate pins by gate index and pin order, then primary
/// outputs.
fn reference_sinks(nl: &Netlist) -> Vec<Vec<Sink>> {
    let mut sinks = vec![Vec::new(); nl.num_nets()];
    for (id, gate) in nl.gates() {
        for (pin, &net) in gate.inputs().iter().enumerate() {
            sinks[net.index()].push(Sink::Pin {
                gate: id,
                pin: pin as u8,
            });
        }
    }
    for (idx, &net) in nl.outputs().iter().enumerate() {
        sinks[net.index()].push(Sink::Output(idx as u32));
    }
    sinks
}

fn topo_order(nl: &Netlist, sinks: &[Vec<Sink>]) -> Vec<GateId> {
    let mut indegree: Vec<u32> = nl
        .gates()
        .map(|(_, g)| {
            g.inputs()
                .iter()
                .filter(|&&n| matches!(nl.driver(n), Driver::Gate(_)))
                .count() as u32
        })
        .collect();
    let mut queue: Vec<GateId> = nl
        .gates()
        .filter(|(id, _)| indegree[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut head = 0;
    while head < queue.len() {
        let out = nl.gate(queue[head]).output();
        head += 1;
        for &s in &sinks[out.index()] {
            if let Sink::Pin { gate, .. } = s {
                indegree[gate.index()] -= 1;
                if indegree[gate.index()] == 0 {
                    queue.push(gate);
                }
            }
        }
    }
    assert_eq!(queue.len(), nl.num_gates(), "combinational cycle");
    queue
}

fn net_loads(nl: &Netlist, lib: &Library) -> Vec<f64> {
    let mut load = vec![0.0f64; nl.num_nets()];
    let sinks = reference_sinks(nl);
    for (net_idx, net_sinks) in sinks.iter().enumerate() {
        let mut c = lib.wire_cap(net_sinks.len());
        for sink in net_sinks {
            match *sink {
                Sink::Pin { gate, .. } => {
                    let k = nl.gate(gate).kind;
                    c += lib.input_cap(k.cell_type, k.drive);
                }
                Sink::Output(_) => c += lib.output_load(),
            }
        }
        load[net_idx] = c;
    }
    load
}

fn analyze(nl: &Netlist, lib: &Library, cons: &TimingConstraints, target: f64) -> TimingReport {
    let load = net_loads(nl, lib);
    let mut arrival = vec![0.0f64; nl.num_nets()];
    for (idx, &net) in nl.inputs().iter().enumerate() {
        let at = if cons.input_arrivals.len() == 1 {
            cons.input_arrivals[0]
        } else {
            cons.input_arrivals[idx]
        };
        arrival[net.index()] = at + cons.input_resistance * load[net.index()];
    }
    let order = topo_order(nl, &reference_sinks(nl));
    for &gid in &order {
        let gate = nl.gate(gid);
        let k = gate.kind;
        let out = gate.output();
        let mut worst = f64::NEG_INFINITY;
        for (pin, &in_net) in gate.inputs().iter().enumerate() {
            let d = lib.intrinsic(k.cell_type, k.drive)
                + lib.pin_offset(k.cell_type, pin)
                + lib.resistance(k.cell_type, k.drive) * load[out.index()];
            worst = worst.max(arrival[in_net.index()] + d);
        }
        arrival[out.index()] = worst;
    }
    let critical_delay = nl
        .outputs()
        .iter()
        .map(|&po| arrival[po.index()])
        .fold(0.0f64, f64::max);
    let mut required = vec![f64::INFINITY; nl.num_nets()];
    for &po in nl.outputs() {
        required[po.index()] = required[po.index()].min(target);
    }
    for &gid in order.iter().rev() {
        let gate = nl.gate(gid);
        let k = gate.kind;
        let out_req = required[gate.output().index()];
        for (pin, &in_net) in gate.inputs().iter().enumerate() {
            let d = lib.intrinsic(k.cell_type, k.drive)
                + lib.pin_offset(k.cell_type, pin)
                + lib.resistance(k.cell_type, k.drive) * load[gate.output().index()];
            let r = out_req - d;
            if r < required[in_net.index()] {
                required[in_net.index()] = r;
            }
        }
    }
    for r in &mut required {
        if !r.is_finite() {
            *r = target;
        }
    }
    TimingReport {
        arrival,
        required,
        load,
        critical_delay,
        target,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every drive the library offers.
fn drives(lib: &Library) -> Vec<Drive> {
    let mut d = vec![Drive::X1];
    while let Some(up) = d.last().unwrap().upsized(lib.max_drive()) {
        d.push(up);
    }
    d
}

/// One random optimizer edit: resize a gate, move a random non-empty
/// subset of a multi-sink net's sinks behind a buffer, or swap two pins of
/// a gate.
fn random_edit(nl: &mut Netlist, lib: &Library, rng: &mut StdRng) {
    let drives = drives(lib);
    let pick_drive = |rng: &mut StdRng| drives[rng.random_range(0..drives.len())];
    let gates: Vec<GateId> = nl.gates().map(|(id, _)| id).collect();
    let gate = gates[rng.random_range(0..gates.len())];
    match rng.random_range(0..3) {
        0 => nl.resize(gate, pick_drive(rng)),
        1 => {
            let sinks = reference_sinks(nl);
            let nets: Vec<NetId> = nl
                .inputs()
                .iter()
                .copied()
                .chain(gates.iter().map(|&g| nl.gate(g).output()))
                .filter(|n| sinks[n.index()].len() >= 2)
                .collect();
            if nets.is_empty() {
                return;
            }
            let net = nets[rng.random_range(0..nets.len())];
            let all = &sinks[net.index()];
            let mut moved: Vec<Sink> = all.iter().copied().filter(|_| rng.random()).collect();
            if moved.is_empty() {
                moved.push(all[rng.random_range(0..all.len())]);
            }
            nl.insert_buffer(net, pick_drive(rng), &moved);
        }
        _ => {
            let arity = nl.gate(gate).inputs().len();
            if arity >= 2 {
                let a = rng.random_range(0..arity);
                let b = (a + rng.random_range(1..arity)) % arity;
                nl.swap_pins(gate, a, b);
            }
        }
    }
}

fn assert_matches_reference(
    nl: &Netlist,
    lib: &Library,
    cons: &TimingConstraints,
    target: f64,
) -> Result<(), String> {
    let got = sta::analyze(nl, lib, cons, target);
    let want = analyze(nl, lib, cons, target);
    prop_assert_eq!(bits(&got.load), bits(&want.load), "load");
    prop_assert_eq!(bits(&got.arrival), bits(&want.arrival), "arrival");
    prop_assert_eq!(bits(&got.required), bits(&want.required), "required");
    prop_assert_eq!(
        got.critical_delay.to_bits(),
        want.critical_delay.to_bits(),
        "critical delay"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn analyze_matches_reference_under_random_edits(
        g in common::graph_strategy(6..=64),
        tech8: bool,
        per_input: bool,
        seed: u64,
    ) {
        let lib = if tech8 { Library::tech8() } else { Library::nangate45() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nl = adder::generate(&g);
        let cons = if per_input {
            let arrivals = (0..nl.inputs().len()).map(|_| 0.2 * rng.random::<f64>()).collect();
            TimingConstraints::with_arrivals(&lib, arrivals)
        } else {
            TimingConstraints::uniform(&lib)
        };
        let target = analyze(&nl, &lib, &cons, 1.0).critical_delay * (0.3 + 0.9 * rng.random::<f64>());
        assert_matches_reference(&nl, &lib, &cons, target)?;
        for _ in 0..24 {
            random_edit(&mut nl, &lib, &mut rng);
            assert_matches_reference(&nl, &lib, &cons, target)?;
        }
    }
}
