//! Timing-driven synthesis optimization.
//!
//! Reproduces the transform set the paper drives through OpenPhySyn
//! (Section IV-D): **gate sizing**, **buffer insertion**, **pin swapping**,
//! and area recovery on positive slack. The optimizer runs against a delay
//! target: while the target is violated it applies the best estimated
//! delay-improving moves on the critical region; once met (or stuck) it
//! recovers area by downsizing gates with slack.
//!
//! Move selection uses slack-based analytical estimates and a single full
//! STA per iteration, over one [`Topology`] that the moves keep up to date
//! for the whole run. A 4-target `SweepConfig::fast()` sweep of a random
//! 16-bit adder state takes a few hundred microseconds, and of a 64-bit
//! one a few milliseconds, on one core of a 2-vCPU Xeon VM (DESIGN.md §5
//! has the measured table) — the property that makes synthesis-in-the-loop
//! RL training tractable on a workstation (the paper needed 192 CPU
//! workers against real OpenPhySyn).

use crate::sta::{TimingConstraints, TimingReport, Topology};
use netlist::ir::{Driver, Sink};
use netlist::{CellType, Drive, GateId, Library, Netlist};
use serde::{Deserialize, Serialize};

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

/// One candidate local move.
#[derive(Clone, Debug)]
enum Move {
    Upsize(GateId, Drive),
    Buffer {
        net: netlist::NetId,
        sinks: Vec<Sink>,
    },
}

/// Optimizes `nl` against `target`, returning the best netlist found.
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
    optimize_from(Topology::new(nl.clone(), lib), cons, target, cfg)
}

/// [`optimize`] of the netlist `work` holds, keeping `work` up to date
/// through every move.
pub(crate) fn optimize_from(
    mut work: Topology<'_>,
    cons: &TimingConstraints,
    target: f64,
    cfg: &OptimizerConfig,
) -> SynthesisOutcome {
    let lib = work.library();
    let mut best: Option<(f64, f64, Topology)> = None; // (delay, area, topology)
    let mut iterations = 0;
    for _ in 0..cfg.max_iterations {
        iterations += 1;
        let report = if cfg.pin_swap {
            swap_pins_pass(&mut work, cons, target)
        } else {
            work.analyze(cons, target)
        };
        let area = work.netlist().area(lib);
        if best
            .as_ref()
            .map(|(d, a, _)| better(report.critical_delay, area, *d, *a, target))
            .unwrap_or(true)
        {
            best = Some((report.critical_delay, area, work.clone()));
        }
        if report.critical_delay <= target {
            break;
        }
        let moves = collect_moves(&work, &report, cfg);
        if moves.is_empty() {
            break;
        }
        for mv in moves {
            match mv {
                Move::Upsize(gid, drive) => work.resize(gid, drive),
                Move::Buffer { net, sinks } => {
                    work.insert_buffer(net, Drive::new(2), &sinks);
                }
            }
        }
    }
    let (mut delay, mut area, mut best) = best.expect("at least one iteration ran");
    if cfg.area_recovery {
        let (recovered, recovered_delay) = recover_area(best, cons, target.max(delay));
        delay = recovered_delay;
        area = recovered.netlist().area(lib);
        best = recovered;
    }
    SynthesisOutcome {
        met: delay <= target + 1e-9,
        netlist: best.into_netlist(),
        area,
        delay,
        target,
        iterations,
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
/// Returns the timing of the swapped netlist.
fn swap_pins_pass(work: &mut Topology, cons: &TimingConstraints, target: f64) -> TimingReport {
    let arrival = work.arrival_times(cons);
    let swaps: Vec<GateId> = work
        .netlist()
        .gates()
        .filter(|(_, g)| commutative(g.kind.cell_type))
        .filter(|(_, g)| {
            let ins = g.inputs();
            // Pin 0 has the larger pin offset (slower); the later arrival
            // should sit on pin 1.
            arrival[ins[0].index()] > arrival[ins[1].index()] + 1e-12
        })
        .map(|(id, _)| id)
        .collect();
    for id in swaps {
        work.swap_pins(id, 0, 1);
    }
    work.analyze(cons, target)
}

/// Collects the best-estimated delay-improving moves on the critical region.
fn collect_moves(work: &Topology, report: &TimingReport, cfg: &OptimizerConfig) -> Vec<Move> {
    let worst = report.worst_slack();
    let (nl, lib) = (work.netlist(), work.library());
    let mut candidates: Vec<(f64, Move)> = Vec::new();
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
                    candidates.push((score, Move::Upsize(gid, up)));
                }
            }
        }
        if cfg.buffering {
            let net_sinks = work.sinks(out);
            if net_sinks.len() >= cfg.buffer_fanout_threshold {
                // Move non-critical sinks behind a buffer, keeping critical
                // ones directly driven.
                let (critical, movable): (Vec<&Sink>, Vec<&Sink>) = net_sinks
                    .iter()
                    .partition(|s| sink_slack(nl, report, s) <= worst + cfg.slack_epsilon);
                if !movable.is_empty() && !critical.is_empty() {
                    let removed: f64 = movable.iter().map(|s| sink_cap(nl, lib, s)).sum::<f64>()
                        + lib.wire_cap(movable.len())
                        - lib.input_cap(CellType::Buf, Drive::new(2))
                        - lib.wire_cap(1);
                    let score = lib.resistance(k.cell_type, k.drive) * removed;
                    if score > 1e-6 {
                        candidates.push((
                            score,
                            Move::Buffer {
                                net: out,
                                sinks: movable.into_iter().copied().collect(),
                            },
                        ));
                    }
                }
            }
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut chosen = Vec::new();
    let mut touched = std::collections::HashSet::new();
    for (_, mv) in candidates {
        let key = match &mv {
            Move::Upsize(g, _) => g.index(),
            Move::Buffer { net, .. } => usize::MAX - net.index(),
        };
        if touched.insert(key) {
            chosen.push(mv);
            if chosen.len() >= cfg.moves_per_iteration {
                break;
            }
        }
    }
    chosen
}

/// Resistance of whatever drives `net` (input driver for PIs).
fn driver_resistance(nl: &Netlist, lib: &Library, net: netlist::NetId) -> f64 {
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
) -> (Topology<'l>, f64) {
    const MAX_ROUNDS: usize = 24;
    let lib = work.library();
    // The timing of `work` when a round leaves it exactly as analyzed.
    let mut known = None;
    for _ in 0..MAX_ROUNDS {
        let report = known.take().unwrap_or_else(|| work.analyze(cons, budget));
        // Candidates: gates above X1 whose output slack comfortably exceeds
        // the estimated delay increase of one downsizing step.
        let mut batch: Vec<(GateId, Drive)> = Vec::new();
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
        let snapshot = work.clone();
        for &(gid, down) in &batch {
            work.resize(gid, down);
        }
        let after = work.analyze(cons, budget);
        if after.critical_delay <= budget + 1e-9 {
            known = Some(after);
        } else {
            // Batch overshot: revert and retry conservatively one by one.
            work = snapshot;
            let mut applied = false;
            for &(gid, down) in batch.iter().take(8) {
                let keep = work.netlist().gate(gid).kind.drive;
                work.resize(gid, down);
                let r = work.analyze(cons, budget);
                if r.critical_delay > budget + 1e-9 {
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
    let delay = match known {
        Some(report) => report.critical_delay,
        None => work.analyze(cons, budget).critical_delay,
    };
    (work, delay)
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
