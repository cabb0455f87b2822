//! Timing-driven synthesis optimization.
//!
//! Reproduces the transform set the paper drives through OpenPhySyn
//! (Section IV-D): **gate sizing**, **buffer insertion**, **pin swapping**,
//! and area recovery on positive slack. The optimizer runs against a delay
//! target: while the target is violated it applies the best estimated
//! delay-improving moves on the critical region; once met (or stuck) it
//! recovers area by downsizing gates with slack.
//!
//! Move selection uses slack-based analytical estimates over a
//! [`Topology`] that the moves keep up to date for the whole run: one
//! arrival pass per iteration (two when the pin-swap pass moves a pin),
//! and one required-time pass against the target.
//!
//! A sweep optimizes its delay targets in one [`optimize_targets`] run.
//! Pin swaps, arrivals and move scores do not depend on the target, so
//! targets share one topology, with its pin-swap pass, arrival pass and
//! move application, for as long as they choose the same moves; a group
//! whose targets choose different moves forks. Every target still sees
//! the topologies and makes the computations of its own [`optimize`] run,
//! so each outcome is bit for bit the one-target result (DESIGN.md §5).
//!
//! A 4-target `SweepConfig::fast()` sweep of a random 16-bit adder state
//! takes a few hundred microseconds, and of a 64-bit one a few
//! milliseconds, on one core of a 2-vCPU Xeon VM (DESIGN.md §5 has the
//! measured table) — the property that makes synthesis-in-the-loop RL
//! training tractable on a workstation (the paper needed 192 CPU workers
//! against real OpenPhySyn).

use crate::sta::{TimingConstraints, TimingReport, Topology};
use netlist::ir::{Driver, Sink};
use netlist::{CellType, Drive, GateId, Library, NetId, Netlist};
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Configuration of the optimization loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Maximum delay-fixing iterations (one STA each).
    pub max_iterations: usize,
    /// Enable critical-path gate sizing.
    pub sizing: bool,
    /// Enable high-fanout buffer insertion.
    pub buffering: bool,
    /// Enable commutative pin swapping.
    pub pin_swap: bool,
    /// Enable area recovery (downsizing) once timing is met.
    pub area_recovery: bool,
    /// Nets with at least this many sinks are buffering candidates.
    pub buffer_fanout_threshold: usize,
    /// Moves applied per iteration (batching amortizes STA cost).
    pub moves_per_iteration: usize,
    /// Nets within this slack of the worst are treated as critical, ns.
    pub slack_epsilon: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            max_iterations: 80,
            sizing: true,
            buffering: true,
            pin_swap: true,
            area_recovery: true,
            buffer_fanout_threshold: 4,
            moves_per_iteration: 6,
            slack_epsilon: 0.004,
        }
    }
}

impl OptimizerConfig {
    /// The "open-source flow" effort level used for training (OpenPhySyn
    /// stand-in).
    pub fn openphysyn() -> Self {
        OptimizerConfig::default()
    }

    /// A stronger effort level standing in for the commercial tool of the
    /// paper's Fig. 5 (more iterations, finer batching, more aggressive
    /// buffering).
    pub fn commercial() -> Self {
        OptimizerConfig {
            max_iterations: 160,
            buffer_fanout_threshold: 3,
            moves_per_iteration: 4,
            slack_epsilon: 0.002,
            ..OptimizerConfig::default()
        }
    }

    /// A reduced-effort configuration for unit tests and quick sweeps.
    pub fn fast() -> Self {
        OptimizerConfig {
            max_iterations: 30,
            moves_per_iteration: 8,
            ..OptimizerConfig::default()
        }
    }
}

/// The result of optimizing a netlist against a delay target.
#[derive(Clone, Debug)]
pub struct SynthesisOutcome {
    /// The optimized netlist.
    pub netlist: Netlist,
    /// Final cell area, µm².
    pub area: f64,
    /// Final critical-path delay, ns.
    pub delay: f64,
    /// The delay target optimized against, ns.
    pub target: f64,
    /// Whether the target was met.
    pub met: bool,
    /// Delay-fixing iterations consumed.
    pub iterations: usize,
}

/// One chosen local move.
#[derive(Clone, Debug, PartialEq)]
enum Move {
    Upsize(GateId, Drive),
    Buffer { net: NetId, sinks: Vec<Sink> },
}

/// A scored move candidate. A buffer candidate names only its net: the
/// sinks it moves are gathered once it is chosen.
#[derive(Clone, Copy)]
enum Candidate {
    Upsize(GateId, Drive),
    Buffer(NetId),
}

impl Candidate {
    /// Where the move acts: at most one move per gate and one per net is
    /// chosen in an iteration.
    fn site(self) -> (bool, usize) {
        match self {
            Candidate::Upsize(gate, _) => (false, gate.index()),
            Candidate::Buffer(net) => (true, net.index()),
        }
    }
}

/// Optimizes `nl` against `target`, returning the best netlist found: the
/// one-target call of [`optimize_targets`].
///
/// The input netlist is not modified. Logic function is preserved by
/// construction (all moves are sizing/buffering/commutative swaps); tests
/// verify equivalence via simulation.
pub fn optimize(
    nl: &Netlist,
    lib: &Library,
    cons: &TimingConstraints,
    target: f64,
    cfg: &OptimizerConfig,
) -> SynthesisOutcome {
    let mut outcomes = optimize_targets(nl, lib, cons, &[target], cfg);
    outcomes.pop().expect("one outcome per target")
}

/// Optimizes `nl` against each of `targets` in one run, returning one
/// outcome per target in order. Each outcome is bit for bit the one
/// [`optimize`] returns for its target alone.
///
/// Targets whose runs have so far chosen the same moves share one working
/// [`Topology`]: its pin-swap pass, arrival pass, area and move
/// application are done once for all of them. Each target runs its own
/// required-time pass, best-state tracking, met test, move selection and
/// area recovery. When targets that share a topology choose different
/// moves, the topology is cloned before the moves are applied, so every
/// target sees the sequence of topologies its own run would.
pub fn optimize_targets(
    nl: &Netlist,
    lib: &Library,
    cons: &TimingConstraints,
    targets: &[f64],
    cfg: &OptimizerConfig,
) -> Vec<SynthesisOutcome> {
    optimize_topology(Topology::new(nl.clone(), lib), cons, targets, cfg)
}

/// [`optimize_targets`] of the netlist `work` holds.
pub(crate) fn optimize_topology<'l>(
    work: Topology<'l>,
    cons: &TimingConstraints,
    targets: &[f64],
    cfg: &OptimizerConfig,
) -> Vec<SynthesisOutcome> {
    let lib = work.library();
    let mut runs: Vec<TargetRun> = targets
        .iter()
        .map(|&target| TargetRun {
            target,
            best: None,
            iterations: 0,
        })
        .collect();
    let mut buffers = Buffers::default();
    let mut groups = vec![Group {
        work,
        targets: (0..targets.len()).collect(),
        iteration: 0,
    }];
    while let Some(group) = groups.pop() {
        run_group(group, &mut runs, &mut groups, cons, cfg, &mut buffers);
    }
    runs.into_iter()
        .map(|run| {
            let (mut delay, mut area, best) = run.best.expect("at least one iteration ran");
            let mut best =
                Rc::try_unwrap(best).unwrap_or_else(|shared| copy_of(&shared, &mut buffers.spare));
            if cfg.area_recovery {
                let budget = run.target.max(delay);
                let (recovered, recovered_delay) = recover_area(best, cons, budget, &mut buffers);
                delay = recovered_delay;
                area = recovered.netlist().area(lib);
                best = recovered;
            }
            SynthesisOutcome {
                met: delay <= run.target + 1e-9,
                netlist: best.into_netlist(),
                area,
                delay,
                target: run.target,
                iterations: run.iterations,
            }
        })
        .collect()
}

/// One delay target's delay-fixing run.
struct TargetRun<'l> {
    target: f64,
    /// The best state so far: (delay, area, topology), the topology shared
    /// with the targets it was also the best state of.
    best: Option<(f64, f64, Rc<Topology<'l>>)>,
    /// Iterations consumed, set when the run stops.
    iterations: usize,
}

/// Targets (indices into the runs) that have seen the same topologies so
/// far, sharing the one they are at.
struct Group<'l> {
    work: Topology<'l>,
    targets: Vec<usize>,
    /// Iterations run so far.
    iteration: usize,
}

/// Scratch space one [`optimize_targets`] call reuses across its passes.
#[derive(Default)]
struct Buffers<'l> {
    report: TimingReport,
    trial: TimingReport,
    swaps: Vec<GateId>,
    candidates: Vec<(f64, Candidate)>,
    batch: Vec<(GateId, Drive)>,
    snapshot: Option<Topology<'l>>,
    /// A best state no target holds any more, kept for its buffers.
    spare: Option<Topology<'l>>,
}

/// Runs `group`'s targets until each has stopped or the group has forked;
/// forks go on `forks`.
fn run_group<'l>(
    mut group: Group<'l>,
    runs: &mut [TargetRun<'l>],
    forks: &mut Vec<Group<'l>>,
    cons: &TimingConstraints,
    cfg: &OptimizerConfig,
    buffers: &mut Buffers<'l>,
) {
    let lib = group.work.library();
    loop {
        if group.iteration == cfg.max_iterations {
            for &t in &group.targets {
                runs[t].iterations = group.iteration;
            }
            return;
        }
        group.iteration += 1;
        let report = &mut buffers.report;
        if cfg.pin_swap {
            swap_pins_pass(&mut group.work, cons, report, &mut buffers.swaps);
        } else {
            group.work.arrivals_into(cons, report);
        }
        let (delay, area) = (report.critical_delay, group.work.netlist().area(lib));
        // The targets this state is the best one of so far, and the move
        // lists of the targets that go on, each with its targets.
        let mut improved = Vec::new();
        let mut lists: Vec<(Vec<Move>, Vec<usize>)> = Vec::new();
        for &t in &group.targets {
            let run = &mut runs[t];
            let improves = run
                .best
                .as_ref()
                .map(|(d, a, _)| better(delay, area, *d, *a, run.target))
                .unwrap_or(true);
            if improves {
                improved.push(t);
            }
            let moves = if delay <= run.target {
                Vec::new()
            } else {
                group.work.required_into(run.target, report);
                collect_moves(&group.work, report, cfg, &mut buffers.candidates)
            };
            if moves.is_empty() {
                run.iterations = group.iteration;
                continue;
            }
            match lists.iter_mut().find(|(list, _)| *list == moves) {
                Some((_, targets)) => targets.push(t),
                None => lists.push((moves, vec![t])),
            }
        }
        let Some((moves, targets)) = lists.pop() else {
            // No target goes on: the state itself moves into place.
            keep(runs, &improved, delay, area, group.work, &mut buffers.spare);
            return;
        };
        if !improved.is_empty() {
            let state = copy_of(&group.work, &mut buffers.spare);
            keep(runs, &improved, delay, area, state, &mut buffers.spare);
        }
        for (moves, targets) in lists {
            let mut work = group.work.clone();
            apply(&mut work, moves);
            forks.push(Group {
                work,
                targets,
                iteration: group.iteration,
            });
        }
        apply(&mut group.work, moves);
        group.targets = targets;
    }
}

/// Makes `state`, of `(delay, area)`, the best state of each of
/// `targets`, all sharing one copy. A replaced state no target holds any
/// more becomes the spare.
fn keep<'l>(
    runs: &mut [TargetRun<'l>],
    targets: &[usize],
    delay: f64,
    area: f64,
    state: Topology<'l>,
    spare: &mut Option<Topology<'l>>,
) {
    let state = Rc::new(state);
    for &t in targets {
        if let Some((_, _, old)) = runs[t].best.replace((delay, area, Rc::clone(&state))) {
            if let Ok(old) = Rc::try_unwrap(old) {
                *spare = Some(old);
            }
        }
    }
}

/// A copy of `source`, made in the spare's buffers when there is one.
fn copy_of<'l>(source: &Topology<'l>, spare: &mut Option<Topology<'l>>) -> Topology<'l> {
    match spare.take() {
        Some(mut copy) => {
            copy.clone_from(source);
            copy
        }
        None => source.clone(),
    }
}

/// Applies `moves` to `work` in order.
fn apply(work: &mut Topology, moves: Vec<Move>) {
    for mv in moves {
        match mv {
            Move::Upsize(gid, drive) => work.resize(gid, drive),
            Move::Buffer { net, sinks } => {
                work.insert_buffer(net, Drive::new(2), &sinks);
            }
        }
    }
}

/// Lexicographic quality: meeting the target dominates, then delay, then
/// area.
fn better(d_new: f64, a_new: f64, d_old: f64, a_old: f64, target: f64) -> bool {
    let met_new = d_new <= target;
    let met_old = d_old <= target;
    match (met_new, met_old) {
        (true, false) => true,
        (false, true) => false,
        (true, true) => a_new < a_old || (a_new == a_old && d_new < d_old),
        (false, false) => d_new < d_old,
    }
}

/// Commutative pin pairs per cell type: pins 0/1 of every symmetric
/// 2-input cell and of AOI21/OAI21 (whose C pin is not symmetric).
fn commutative(ct: CellType) -> bool {
    !matches!(ct, CellType::Inv | CellType::Buf)
}

/// Greedy pin-swap pass: put later-arriving signals on faster pins.
/// Leaves the arrivals of the swapped netlist in `report`.
fn swap_pins_pass(
    work: &mut Topology,
    cons: &TimingConstraints,
    report: &mut TimingReport,
    swaps: &mut Vec<GateId>,
) {
    work.arrivals_into(cons, report);
    let arrival = &report.arrival;
    swaps.clear();
    swaps.extend(
        work.netlist()
            .gates()
            .filter(|(_, g)| commutative(g.kind.cell_type))
            .filter(|(_, g)| {
                let ins = g.inputs();
                // Pin 0 has the larger pin offset (slower); the later
                // arrival should sit on pin 1.
                arrival[ins[0].index()] > arrival[ins[1].index()] + 1e-12
            })
            .map(|(id, _)| id),
    );
    if swaps.is_empty() {
        return; // the arrivals are already the swapped netlist's
    }
    for &id in swaps.iter() {
        work.swap_pins(id, 0, 1);
    }
    work.arrivals_into(cons, report);
}

/// Collects the best-estimated delay-improving moves on the critical
/// region, scoring candidates in `candidates`.
fn collect_moves(
    work: &Topology,
    report: &TimingReport,
    cfg: &OptimizerConfig,
    candidates: &mut Vec<(f64, Candidate)>,
) -> Vec<Move> {
    let worst = report.worst_slack();
    let critical = |slack: f64| slack <= worst + cfg.slack_epsilon;
    let (nl, lib) = (work.netlist(), work.library());
    candidates.clear();
    for (gid, gate) in nl.gates() {
        let out = gate.output();
        if report.slack(out) > worst + cfg.slack_epsilon {
            continue; // not critical
        }
        let k = gate.kind;
        let load = report.load[out.index()];
        if cfg.sizing {
            if let Some(up) = k.drive.upsized(lib.max_drive()) {
                // Own gain: lower resistance on our load, minus intrinsic growth.
                let gain = (lib.resistance(k.cell_type, k.drive) - lib.resistance(k.cell_type, up))
                    * load
                    - (lib.intrinsic(k.cell_type, up) - lib.intrinsic(k.cell_type, k.drive));
                // Upstream penalty: extra input cap loads each driver; use
                // the worst (most critical) input's driver resistance.
                let dcap = lib.input_cap(k.cell_type, up) - lib.input_cap(k.cell_type, k.drive);
                let penalty = gate
                    .inputs()
                    .iter()
                    .map(|&n| dcap * driver_resistance(nl, lib, n))
                    .fold(0.0f64, f64::max);
                let score = gain - penalty;
                if score > 1e-6 {
                    candidates.push((score, Candidate::Upsize(gid, up)));
                }
            }
        }
        if cfg.buffering {
            let net_sinks = work.sinks(out);
            if net_sinks.len() >= cfg.buffer_fanout_threshold {
                // Move non-critical sinks behind a buffer, keeping critical
                // ones directly driven.
                let (mut movable, mut movable_cap) = (0, 0.0);
                for sink in net_sinks {
                    if !critical(sink_slack(nl, report, sink)) {
                        movable += 1;
                        movable_cap += sink_cap(nl, lib, sink);
                    }
                }
                if movable > 0 && movable < net_sinks.len() {
                    let removed = movable_cap + lib.wire_cap(movable)
                        - lib.input_cap(CellType::Buf, Drive::new(2))
                        - lib.wire_cap(1);
                    let score = lib.resistance(k.cell_type, k.drive) * removed;
                    if score > 1e-6 {
                        candidates.push((score, Candidate::Buffer(out)));
                    }
                }
            }
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut chosen: Vec<Candidate> = Vec::with_capacity(cfg.moves_per_iteration);
    for &(_, candidate) in candidates.iter() {
        if chosen.iter().all(|c| c.site() != candidate.site()) {
            chosen.push(candidate);
            if chosen.len() >= cfg.moves_per_iteration {
                break;
            }
        }
    }
    chosen
        .into_iter()
        .map(|candidate| match candidate {
            Candidate::Upsize(gid, drive) => Move::Upsize(gid, drive),
            Candidate::Buffer(net) => Move::Buffer {
                net,
                sinks: work
                    .sinks(net)
                    .iter()
                    .filter(|sink| !critical(sink_slack(nl, report, sink)))
                    .copied()
                    .collect(),
            },
        })
        .collect()
}

/// Resistance of whatever drives `net` (input driver for PIs).
fn driver_resistance(nl: &Netlist, lib: &Library, net: NetId) -> f64 {
    match nl.driver(net) {
        Driver::Gate(g) => {
            let k = nl.gate(g).kind;
            lib.resistance(k.cell_type, k.drive)
        }
        Driver::Input(_) => lib.resistance(CellType::Buf, Drive::new(4)),
    }
}

/// Slack seen by a sink: its gate's output slack, or the net slack for POs.
fn sink_slack(nl: &Netlist, report: &TimingReport, sink: &Sink) -> f64 {
    match *sink {
        Sink::Pin { gate, .. } => report.slack(nl.gate(gate).output()),
        Sink::Output(idx) => {
            // PO sinks are as critical as the net itself.
            let net = nl.outputs()[idx as usize];
            report.slack(net)
        }
    }
}

/// Capacitance contributed by a sink.
fn sink_cap(nl: &Netlist, lib: &Library, sink: &Sink) -> f64 {
    match *sink {
        Sink::Pin { gate, .. } => {
            let k = nl.gate(gate).kind;
            lib.input_cap(k.cell_type, k.drive)
        }
        Sink::Output(_) => lib.output_load(),
    }
}

/// Downsizes gates with positive slack while keeping the achieved delay.
/// Returns the netlist and its critical delay (which does not depend on
/// the target STA runs against).
fn recover_area<'l>(
    mut work: Topology<'l>,
    cons: &TimingConstraints,
    budget: f64,
    buffers: &mut Buffers<'l>,
) -> (Topology<'l>, f64) {
    const MAX_ROUNDS: usize = 24;
    let lib = work.library();
    let Buffers {
        report,
        trial,
        batch,
        snapshot,
        ..
    } = buffers;
    // Whether `report` holds the timing of `work` as it stands.
    let mut known = false;
    for _ in 0..MAX_ROUNDS {
        if !known {
            work.analyze_into(cons, budget, report);
        }
        known = false;
        // Candidates: gates above X1 whose output slack comfortably exceeds
        // the estimated delay increase of one downsizing step.
        batch.clear();
        for (gid, gate) in work.netlist().gates() {
            let k = gate.kind;
            let Some(down) = k.drive.downsized() else {
                continue;
            };
            let load = report.load[gate.output().index()];
            let dd =
                (lib.resistance(k.cell_type, down) - lib.resistance(k.cell_type, k.drive)) * load;
            let slack = report.slack(gate.output());
            if slack > 2.5 * dd + 1e-4 {
                batch.push((gid, down));
            }
        }
        if batch.is_empty() {
            return (work, report.critical_delay);
        }
        match snapshot {
            Some(snapshot) => snapshot.clone_from(&work),
            None => *snapshot = Some(work.clone()),
        }
        for &(gid, down) in batch.iter() {
            work.resize(gid, down);
        }
        work.analyze_into(cons, budget, trial);
        if trial.critical_delay <= budget + 1e-9 {
            std::mem::swap(report, trial);
            known = true;
        } else {
            // Batch overshot: revert and retry conservatively one by one.
            std::mem::swap(&mut work, snapshot.as_mut().expect("stored above"));
            let mut applied = false;
            for &(gid, down) in batch.iter().take(8) {
                let keep = work.netlist().gate(gid).kind.drive;
                work.resize(gid, down);
                work.arrivals_into(cons, trial);
                if trial.critical_delay > budget + 1e-9 {
                    work.resize(gid, keep);
                } else {
                    applied = true;
                }
            }
            if !applied {
                return (work, report.critical_delay);
            }
        }
    }
    if !known {
        work.arrivals_into(cons, report);
    }
    (work, report.critical_delay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta;
    use netlist::{adder, sim};
    use prefix_graph::structures;
    use rand::prelude::*;

    fn setup(n: u16) -> (Netlist, Library, TimingConstraints) {
        let lib = Library::nangate45();
        let cons = TimingConstraints::uniform(&lib);
        let nl = adder::generate(&structures::sklansky(n));
        (nl, lib, cons)
    }

    #[test]
    fn tight_target_reduces_delay_and_grows_area() {
        let (nl, lib, cons) = setup(16);
        let base = sta::analyze(&nl, &lib, &cons, 1.0);
        let out = optimize(
            &nl,
            &lib,
            &cons,
            base.critical_delay * 0.45,
            &OptimizerConfig::fast(),
        );
        assert!(
            out.delay < base.critical_delay * 0.8,
            "no speedup: {} vs {}",
            out.delay,
            base.critical_delay
        );
        assert!(out.area > nl.area(&lib), "speed must cost area");
    }

    #[test]
    fn loose_target_is_met_cheaply() {
        let (nl, lib, cons) = setup(16);
        let base = sta::analyze(&nl, &lib, &cons, 1.0);
        let out = optimize(
            &nl,
            &lib,
            &cons,
            base.critical_delay * 1.5,
            &OptimizerConfig::fast(),
        );
        assert!(out.met);
        assert!(
            out.area <= nl.area(&lib) * 1.01,
            "loose target should not inflate area"
        );
    }

    #[test]
    fn optimization_preserves_function() {
        let lib = Library::nangate45();
        let cons = TimingConstraints::uniform(&lib);
        let mut rng = StdRng::seed_from_u64(3);
        for ctor in [structures::sklansky, structures::brent_kung] {
            let nl = adder::generate(&ctor(16));
            let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
            for frac in [0.4, 0.7, 1.2] {
                let out = optimize(&nl, &lib, &cons, base * frac, &OptimizerConfig::fast());
                out.netlist.validate().unwrap();
                for _ in 0..20 {
                    let a = rng.random::<u64>() & 0xFFFF;
                    let b = rng.random::<u64>() & 0xFFFF;
                    assert_eq!(sim::add(&out.netlist, a, b), a as u128 + b as u128);
                }
            }
        }
    }

    #[test]
    fn area_delay_tradeoff_is_monotone_across_targets() {
        let (nl, lib, cons) = setup(16);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let cfg = OptimizerConfig::fast();
        let mut results: Vec<(f64, f64)> = Vec::new();
        for frac in [0.45, 0.6, 0.8, 1.1] {
            let out = optimize(&nl, &lib, &cons, base * frac, &cfg);
            results.push((out.delay, out.area));
        }
        // Tighter targets never yield both more delay and less area than
        // looser ones; the achieved delays must be non-decreasing.
        for w in results.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-6, "delays out of order: {results:?}");
        }
        assert!(
            results.first().unwrap().1 >= results.last().unwrap().1,
            "tightest target should cost the most area: {results:?}"
        );
    }

    #[test]
    fn buffering_tames_high_fanout() {
        // Sklansky has N/2 fanout; buffering must be applied when chasing a
        // tight target.
        let (nl, lib, cons) = setup(32);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let out = optimize(&nl, &lib, &cons, base * 0.4, &OptimizerConfig::fast());
        let bufs = out
            .netlist
            .cell_histogram()
            .iter()
            .find(|(ct, _)| *ct == CellType::Buf)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        assert!(bufs > 0, "expected buffer insertion on sklansky(32)");
    }

    #[test]
    fn disabled_transforms_do_less() {
        let (nl, lib, cons) = setup(16);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let target = base * 0.45;
        let full = optimize(&nl, &lib, &cons, target, &OptimizerConfig::fast());
        let crippled = optimize(
            &nl,
            &lib,
            &cons,
            target,
            &OptimizerConfig {
                sizing: false,
                buffering: false,
                ..OptimizerConfig::fast()
            },
        );
        assert!(full.delay < crippled.delay, "sizing+buffering must matter");
    }

    #[test]
    fn commercial_effort_is_at_least_as_good() {
        let (nl, lib, cons) = setup(16);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let target = base * 0.4;
        let open = optimize(&nl, &lib, &cons, target, &OptimizerConfig::openphysyn());
        let comm = optimize(&nl, &lib, &cons, target, &OptimizerConfig::commercial());
        assert!(
            comm.delay <= open.delay * 1.02,
            "commercial {} vs open {}",
            comm.delay,
            open.delay
        );
    }

    #[test]
    fn outcome_reports_met_flag_correctly() {
        let (nl, lib, cons) = setup(8);
        let base = sta::analyze(&nl, &lib, &cons, 1.0).critical_delay;
        let loose = optimize(&nl, &lib, &cons, base * 2.0, &OptimizerConfig::fast());
        assert!(loose.met);
        assert!(loose.delay <= loose.target + 1e-9);
        let impossible = optimize(&nl, &lib, &cons, 0.001, &OptimizerConfig::fast());
        assert!(!impossible.met);
    }
}
