//! `sta::analyze` against a reference implementation.
//!
//! The reference is the straightforward analysis the table-driven pass
//! replaced: a fresh `Vec<Vec<Sink>>` of sinks per call, loads summed over
//! it, a Kahn order over it and per-arc library calls. Random sequences of
//! the optimizer's edits (resize, buffer insertion — half of them on nets
//! driven by primary inputs — and pin swap) run on random adders of 6–64
//! bits under both libraries, with uniform and per-input arrivals. Each
//! edit is made twice: on a plain netlist, timed by `sta::analyze`, and
//! through the edit API of an `sta::Topology` kept up to date since the
//! first analysis. After every edit both timings must equal the
//! reference's arrivals, required times, loads and critical delay bit for
//! bit, and the topology's netlist and every one of its fanout rows must
//! equal the plain netlist and its reference sinks. The topology's timing
//! is also taken into a report last filled before the edit
//! (`Topology::analyze_into`), and from a topology copy of the previous
//! netlist refilled by `clone_from`.

mod common;

use netlist::ir::{Driver, Sink};
use netlist::{adder, Drive, GateId, Library, NetId, Netlist};
use proptest::prelude::*;
use rand::prelude::*;
use synth::sta::{self, TimingConstraints, TimingReport, Topology};

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

/// One of the optimizer's edits.
#[derive(Debug)]
enum Edit {
    Resize(GateId, Drive),
    Buffer(NetId, Drive, Vec<Sink>),
    SwapPins(GateId, usize, usize),
}

impl Edit {
    fn apply(&self, nl: &mut Netlist) {
        match self {
            Edit::Resize(gate, drive) => nl.resize(*gate, *drive),
            Edit::Buffer(net, drive, sinks) => {
                nl.insert_buffer(*net, *drive, sinks);
            }
            Edit::SwapPins(gate, a, b) => nl.swap_pins(*gate, *a, *b),
        }
    }

    fn apply_to(&self, topology: &mut Topology) {
        match self {
            Edit::Resize(gate, drive) => topology.resize(*gate, *drive),
            Edit::Buffer(net, drive, sinks) => {
                topology.insert_buffer(*net, *drive, sinks);
            }
            Edit::SwapPins(gate, a, b) => topology.swap_pins(*gate, *a, *b),
        }
    }
}

/// One random optimizer edit of `nl`: resize a gate, move a random
/// non-empty subset (perhaps all, in any order) of a multi-sink net's
/// sinks behind a buffer, or swap two pins of a gate. Half the buffers go
/// on nets driven by primary inputs.
fn random_edit(nl: &Netlist, lib: &Library, rng: &mut StdRng) -> Option<Edit> {
    let drives = drives(lib);
    let pick_drive = |rng: &mut StdRng| drives[rng.random_range(0..drives.len())];
    let gates: Vec<GateId> = nl.gates().map(|(id, _)| id).collect();
    let gate = gates[rng.random_range(0..gates.len())];
    match rng.random_range(0..3) {
        0 => Some(Edit::Resize(gate, pick_drive(rng))),
        1 => {
            let sinks = reference_sinks(nl);
            let candidates = if rng.random() {
                nl.inputs().to_vec()
            } else {
                gates.iter().map(|&g| nl.gate(g).output()).collect()
            };
            let nets: Vec<NetId> = candidates
                .into_iter()
                .filter(|n| sinks[n.index()].len() >= 2)
                .collect();
            if nets.is_empty() {
                return None;
            }
            let net = nets[rng.random_range(0..nets.len())];
            let all = &sinks[net.index()];
            let mut moved: Vec<Sink> = all.iter().copied().filter(|_| rng.random()).collect();
            if moved.is_empty() {
                moved.push(all[rng.random_range(0..all.len())]);
            }
            // In shuffled order: the buffer's new row must come out sorted.
            for i in (1..moved.len()).rev() {
                moved.swap(i, rng.random_range(0..i + 1));
            }
            Some(Edit::Buffer(net, pick_drive(rng), moved))
        }
        _ => {
            let arity = nl.gate(gate).inputs().len();
            (arity >= 2).then(|| {
                let a = rng.random_range(0..arity);
                let b = (a + rng.random_range(1..arity)) % arity;
                Edit::SwapPins(gate, a, b)
            })
        }
    }
}

fn assert_report_matches(
    got: &TimingReport,
    want: &TimingReport,
    what: &str,
) -> Result<(), String> {
    prop_assert_eq!(bits(&got.load), bits(&want.load), "{} load", what);
    prop_assert_eq!(bits(&got.arrival), bits(&want.arrival), "{} arrival", what);
    prop_assert_eq!(
        bits(&got.required),
        bits(&want.required),
        "{} required",
        what
    );
    prop_assert_eq!(
        got.critical_delay.to_bits(),
        want.critical_delay.to_bits(),
        "{} critical delay",
        what
    );
    Ok(())
}

/// `sta::analyze` of `nl` and the timing of `topology` (its loads
/// included) against the reference analysis of `nl`, and `topology`'s
/// netlist and fanout rows against `nl`. The timing is also taken into
/// `reused`, a report last filled before the latest edit, and from
/// `stale`, a topology of an earlier netlist that `clone_from` refills.
fn assert_matches_reference<'l>(
    nl: &Netlist,
    topology: &Topology<'l>,
    reused: &mut TimingReport,
    stale: &mut Topology<'l>,
    lib: &Library,
    cons: &TimingConstraints,
    target: f64,
) -> Result<(), String> {
    let want = analyze(nl, lib, cons, target);
    assert_report_matches(&sta::analyze(nl, lib, cons, target), &want, "analyze")?;
    prop_assert_eq!(
        format!("{:?}", topology.netlist()),
        format!("{nl:?}"),
        "topology netlist"
    );
    assert_report_matches(&topology.analyze(cons, target), &want, "topology")?;
    topology.analyze_into(cons, target, reused);
    assert_report_matches(reused, &want, "reused report")?;
    stale.clone_from(topology);
    assert_report_matches(&stale.analyze(cons, target), &want, "refilled topology")?;

    let sinks = reference_sinks(nl);
    let nets = nl
        .inputs()
        .iter()
        .copied()
        .chain(nl.gates().map(|(_, g)| g.output()));
    for net in nets {
        prop_assert_eq!(
            topology.sinks(net),
            &sinks[net.index()][..],
            "row of {:?}",
            net
        );
        prop_assert_eq!(
            stale.sinks(net),
            &sinks[net.index()][..],
            "refilled row of {:?}",
            net
        );
    }
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
        let mut topology = Topology::new(nl.clone(), &lib);
        let cons = if per_input {
            let arrivals = (0..nl.inputs().len()).map(|_| 0.2 * rng.random::<f64>()).collect();
            TimingConstraints::with_arrivals(&lib, arrivals)
        } else {
            TimingConstraints::uniform(&lib)
        };
        let target = analyze(&nl, &lib, &cons, 1.0).critical_delay * (0.3 + 0.9 * rng.random::<f64>());
        let mut reused = TimingReport::default();
        let mut stale = topology.clone();
        assert_matches_reference(&nl, &topology, &mut reused, &mut stale, &lib, &cons, target)?;
        for _ in 0..24 {
            if let Some(edit) = random_edit(&nl, &lib, &mut rng) {
                edit.apply(&mut nl);
                edit.apply_to(&mut topology);
            }
            assert_matches_reference(&nl, &topology, &mut reused, &mut stale, &lib, &cons, target)?;
        }
    }
}
