//! Multi-target synthesis sweeps (the paper's Fig. 3 sampling).
//!
//! Each prefix-graph state is synthesized at a small number of delay targets
//! (4 in the paper) spanning relaxed to aggressive, and the achieved
//! `(delay, area)` points are PCHIP-interpolated into an
//! [`AreaDelayCurve`]. Targets are set as fractions of the state's
//! unoptimized (all-X1) critical delay, so the sweep adapts to each graph.
//! One [`optimize_targets`](crate::optimizer::optimize_targets) run
//! serves every target of a sweep, with each target's result bit for bit
//! that of an optimizer run against it alone.

use crate::curve::AreaDelayCurve;
use crate::optimizer::{optimize_topology, OptimizerConfig};
use crate::sta::{TimingConstraints, Topology};
use netlist::{adder, Library, Netlist};
use prefix_graph::PrefixGraph;
use serde::{Deserialize, Serialize};

/// Configuration of a synthesis sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Delay targets as fractions of the unoptimized critical delay.
    /// The paper samples 4 points per state.
    pub target_fractions: Vec<f64>,
    /// Optimizer effort per target.
    pub optimizer: OptimizerConfig,
    /// Optional nonuniform timing constraints (defaults to uniform).
    pub constraints: Option<TimingConstraints>,
}

impl SweepConfig {
    /// The paper's configuration: 4 targets, OpenPhySyn-level effort.
    pub fn paper() -> Self {
        SweepConfig {
            target_fractions: vec![0.30, 0.50, 0.75, 1.05],
            optimizer: OptimizerConfig::openphysyn(),
            constraints: None,
        }
    }

    /// Reduced effort for tests and fast RL iterations.
    pub fn fast() -> Self {
        SweepConfig {
            target_fractions: vec![0.30, 0.50, 0.75, 1.05],
            optimizer: OptimizerConfig::fast(),
            constraints: None,
        }
    }

    /// Commercial-tool effort (used for the Fig. 5 transfer experiments).
    pub fn commercial() -> Self {
        SweepConfig {
            target_fractions: vec![0.25, 0.40, 0.60, 0.85, 1.05],
            optimizer: OptimizerConfig::commercial(),
            constraints: None,
        }
    }
}

/// Sweeps a netlist across the configured delay targets.
///
/// The netlist's [`Topology`] is built once: the relaxed analysis that
/// sets the targets runs over it, and one [`optimize_targets`] run over
/// it serves every target.
///
/// [`optimize_targets`]: crate::optimizer::optimize_targets
pub fn sweep_netlist(nl: Netlist, lib: &Library, cfg: &SweepConfig) -> AreaDelayCurve {
    let cons = cfg
        .constraints
        .clone()
        .unwrap_or_else(|| TimingConstraints::uniform(lib));
    let topology = Topology::new(nl, lib);
    let relaxed = topology.analyze(&cons, f64::MAX / 4.0).critical_delay;
    let targets: Vec<f64> = cfg
        .target_fractions
        .iter()
        .map(|&frac| relaxed * frac)
        .collect();
    let samples: Vec<(f64, f64)> = optimize_topology(topology, &cons, &targets, &cfg.optimizer)
        .iter()
        .map(|out| (out.delay, out.area))
        .collect();
    AreaDelayCurve::from_samples(&samples)
}

/// Emits a netlist for `graph` through `emit` and sweeps it — the sweep
/// generalized over the circuit family (adder, OR-prefix, incrementer, or
/// any other prefix computation's generator).
pub fn sweep_with(
    graph: &PrefixGraph,
    emit: impl Fn(&PrefixGraph) -> Netlist,
    lib: &Library,
    cfg: &SweepConfig,
) -> AreaDelayCurve {
    sweep_netlist(emit(graph), lib, cfg)
}

/// Generates the adder netlist for `graph` and sweeps it — the full state
/// evaluation of the paper's PrefixRL environment (Fig. 1's "Circuit
/// Synthesis").
pub fn sweep_graph(graph: &PrefixGraph, lib: &Library, cfg: &SweepConfig) -> AreaDelayCurve {
    sweep_with(graph, adder::generate, lib, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefix_graph::structures;

    #[test]
    fn sweep_produces_usable_curve() {
        let lib = Library::nangate45();
        let curve = sweep_graph(&structures::sklansky(16), &lib, &SweepConfig::fast());
        assert!(curve.min_delay() > 0.0);
        assert!(curve.max_delay() > curve.min_delay());
        assert!(curve.area_at(curve.min_delay()) >= curve.area_at(curve.max_delay()));
    }

    #[test]
    fn structures_order_sanely_at_tight_delay() {
        // At the fast end, Kogge-Stone (shallow, low fanout) must achieve
        // lower delay than ripple (deep chain).
        let lib = Library::nangate45();
        let cfg = SweepConfig::fast();
        let ks = sweep_graph(&structures::kogge_stone(16), &lib, &cfg);
        let rp = sweep_graph(&prefix_graph::PrefixGraph::ripple(16), &lib, &cfg);
        assert!(ks.min_delay() < rp.min_delay());
    }

    #[test]
    fn tech8_curves_are_smaller_and_faster() {
        let g = structures::brent_kung(16);
        let n45 = sweep_graph(&g, &Library::nangate45(), &SweepConfig::fast());
        let t8 = sweep_graph(&g, &Library::tech8(), &SweepConfig::fast());
        assert!(t8.min_delay() < n45.min_delay());
        assert!(t8.area_at(t8.max_delay()) < n45.area_at(n45.max_delay()) / 20.0);
    }

    #[test]
    fn paper_config_has_four_targets() {
        assert_eq!(SweepConfig::paper().target_fractions.len(), 4);
    }

    #[test]
    fn sweep_with_generalizes_over_emitters() {
        let lib = Library::nangate45();
        let g = structures::sklansky(8);
        let cfg = SweepConfig::fast();
        // The adder path is exactly sweep_with over the adder generator.
        let direct = sweep_graph(&g, &lib, &cfg);
        let via = sweep_with(&g, adder::generate, &lib, &cfg);
        assert_eq!(direct.min_delay(), via.min_delay());
        // A different emitter yields a genuinely different curve: the
        // OR-prefix circuit is a fraction of the adder's area.
        let or = sweep_with(&g, netlist::prefix_or::generate, &lib, &cfg);
        assert!(or.area_at(or.max_delay()) < direct.area_at(direct.max_delay()) / 2.0);
    }
}
