//! Frontier assembly: synthesize design sets at many delay targets and bin
//! into Pareto fronts — the procedure behind every figure of the paper
//! ("we synthesize the various adders … at 40 delay targets … bin all adder
//! circuits for an approach and present the area-delay Pareto front").
//!
//! Sweeps are generalized over the circuit task: [`sweep_task_front`]
//! synthesizes whatever netlist the [`CircuitTask`] emits (adder,
//! OR-prefix, incrementer, …); the `claims` bench bins every figure's
//! fronts with it.

use crate::evaluator::ObjectivePoint;
use crate::pareto::ParetoFront;
use crate::task::CircuitTask;
use netlist::Library;
use prefix_graph::PrefixGraph;
use synth::sweep::{sweep_netlist, SweepConfig};

/// Evenly spaced target fractions of the unoptimized delay, for dense
/// frontier sweeps (the paper uses 40 targets; figures here default lower).
pub fn target_fractions(count: usize) -> Vec<f64> {
    assert!(count >= 2, "need at least two targets");
    (0..count)
        .map(|i| 0.28 + (1.05 - 0.28) * i as f64 / (count - 1) as f64)
        .collect()
}

/// Synthesizes every labelled graph's **task netlist** at `targets` delay
/// targets (in parallel over `threads` workers) and bins all achieved
/// points into one Pareto front with the design label as payload.
pub fn sweep_task_front(
    task: &dyn CircuitTask,
    designs: &[(String, PrefixGraph)],
    lib: &Library,
    base: &SweepConfig,
    targets: usize,
    threads: usize,
) -> ParetoFront<String> {
    let cfg = SweepConfig {
        target_fractions: target_fractions(targets),
        ..base.clone()
    };
    let curves = crate::parallel::map_ordered(designs, threads.max(1), |(_, graph)| {
        sweep_netlist(task.emit_netlist(graph), lib, &cfg)
    });
    let mut front = ParetoFront::new();
    for ((label, _), curve) in designs.iter().zip(curves) {
        for (delay, area) in curve.knots() {
            front.insert(ObjectivePoint { area, delay }, label.clone());
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Adder, PrefixOr};
    use prefix_graph::structures;

    #[test]
    fn fractions_are_increasing_and_bounded() {
        let f = target_fractions(10);
        assert_eq!(f.len(), 10);
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert!(f[0] > 0.2 && *f.last().unwrap() < 1.2);
    }

    #[test]
    fn sweep_front_bins_multiple_designs() {
        let lib = Library::nangate45();
        let designs = vec![
            ("sklansky".to_string(), structures::sklansky(8)),
            ("brent_kung".to_string(), structures::brent_kung(8)),
            ("ripple".to_string(), prefix_graph::PrefixGraph::ripple(8)),
        ];
        let front = sweep_task_front(&Adder, &designs, &lib, &SweepConfig::fast(), 4, 3);
        assert!(!front.is_empty());
        // The worker count changes neither the points nor their labels.
        let serial = sweep_task_front(&Adder, &designs, &lib, &SweepConfig::fast(), 4, 1);
        let entries = |f: &ParetoFront<String>| {
            f.iter()
                .map(|(p, l)| (p.area.to_bits(), p.delay.to_bits(), l.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(&front), entries(&serial));
        // The front must mix architectures: ripple owns the slow/small end
        // and a log-depth tree the fast end.
        let labels: std::collections::HashSet<&String> = front.iter().map(|(_, l)| l).collect();
        assert!(labels.len() >= 2, "front degenerate: {labels:?}");
    }

    #[test]
    fn task_fronts_reflect_task_circuits() {
        // OR-prefix circuits cost one gate per node, so their whole front
        // must sit at a fraction of the adder front's area.
        let lib = Library::nangate45();
        let designs = vec![("sklansky".to_string(), structures::sklansky(8))];
        let cfg = SweepConfig::fast();
        let adder = sweep_task_front(&Adder, &designs, &lib, &cfg, 3, 1);
        let or = sweep_task_front(&PrefixOr, &designs, &lib, &cfg, 3, 1);
        assert!(!adder.is_empty() && !or.is_empty());
        let max_or = or.points().iter().map(|p| p.area).fold(0.0, f64::max);
        let min_adder = adder
            .points()
            .iter()
            .map(|p| p.area)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_or < min_adder,
            "or front ({max_or}) must undercut adder front ({min_adder})"
        );
    }
}
