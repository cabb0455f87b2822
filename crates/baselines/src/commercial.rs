//! The "Commercial" adder baseline (paper Fig. 5).
//!
//! Commercial synthesis tools instantiate an adder architecture from an
//! internal library chosen per timing constraint. This module provides that
//! library — the regular structures plus the sparse-tree family — and a
//! chooser that, like the tool, synthesizes each candidate at a delay
//! target and keeps the best.

use netlist::Library;
use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::pareto::better_at_target;
use synth::optimizer::{optimize, optimize_targets, OptimizerConfig};
use synth::sta::{self, TimingConstraints};

/// The architecture library a commercial tool selects from.
pub fn commercial_library(n: u16) -> Vec<(String, PrefixGraph)> {
    let mut lib: Vec<(String, PrefixGraph)> = vec![
        ("ripple".into(), PrefixGraph::ripple(n)),
        ("sklansky".into(), structures::sklansky(n)),
        ("brent_kung".into(), structures::brent_kung(n)),
        ("kogge_stone".into(), structures::kogge_stone(n)),
        ("ladner_fischer".into(), structures::ladner_fischer(n)),
    ];
    for s in [2u16, 4, 8] {
        if s < n {
            lib.push((
                format!("sparse_ks_{s}"),
                structures::sparse_kogge_stone(n, s),
            ));
        }
    }
    lib.dedup_by(|a, b| a.1 == b.1);
    lib
}

/// One tool-instantiated adder result at a delay target.
#[derive(Clone, Debug)]
pub struct CommercialChoice {
    /// The chosen architecture's name.
    pub architecture: String,
    /// Achieved delay, ns.
    pub delay: f64,
    /// Achieved area, µm².
    pub area: f64,
}

/// [`choose_at_target`] generalized over the circuit family: `emit` maps
/// each architecture's prefix graph to the netlist the tool instantiates
/// (`netlist::adder::generate`, `netlist::prefix_or::generate`, …), so the
/// same chooser baselines any prefix computation.
pub fn choose_at_target_with(
    n: u16,
    lib: &Library,
    cfg: &OptimizerConfig,
    target: f64,
    emit: impl Fn(&prefix_graph::PrefixGraph) -> netlist::Netlist,
) -> CommercialChoice {
    let cons = TimingConstraints::uniform(lib);
    let mut best: Option<CommercialChoice> = None;
    for (name, graph) in commercial_library(n) {
        let nl = emit(&graph);
        let out = optimize(&nl, lib, &cons, target, cfg);
        keep_better(&mut best, name, out.delay, out.area, target);
    }
    best.expect("library is nonempty")
}

/// Makes architecture `name`'s `(delay, area)` the choice in `best` when
/// there is none yet or it beats the current one at `target`.
fn keep_better(
    best: &mut Option<CommercialChoice>,
    name: String,
    delay: f64,
    area: f64,
    target: f64,
) {
    let candidate = ObjectivePoint { area, delay };
    let wins = best.as_ref().is_none_or(|b| {
        let current = ObjectivePoint {
            area: b.area,
            delay: b.delay,
        };
        better_at_target(&candidate, &current, target)
    });
    if wins {
        *best = Some(CommercialChoice {
            architecture: name,
            delay,
            area,
        });
    }
}

/// Synthesizes every library architecture's **adder** at `target` and
/// returns the best outcome (commercial-tool behaviour: meet timing at
/// minimum area, otherwise be as fast as possible).
pub fn choose_at_target(
    n: u16,
    lib: &Library,
    cfg: &OptimizerConfig,
    target: f64,
) -> CommercialChoice {
    choose_at_target_with(n, lib, cfg, target, netlist::adder::generate)
}

/// Sweeps the commercial chooser across delay targets between the fastest
/// and slowest achievable, returning one choice per target — the
/// "Commercial" series of the paper's Fig. 5.
///
/// Each architecture is optimized at every target in one
/// [`optimize_targets`] run, and each target keeps the winner
/// [`choose_at_target`] picks: candidates are compared in library order.
pub fn commercial_sweep(
    n: u16,
    lib: &Library,
    cfg: &OptimizerConfig,
    num_targets: usize,
) -> Vec<CommercialChoice> {
    let targets = sweep_targets(n, lib, cfg, num_targets);
    let cons = TimingConstraints::uniform(lib);
    let mut best: Vec<Option<CommercialChoice>> = vec![None; targets.len()];
    for (name, graph) in commercial_library(n) {
        let nl = netlist::adder::generate(&graph);
        let outcomes = optimize_targets(&nl, lib, &cons, &targets, cfg);
        for ((slot, out), &target) in best.iter_mut().zip(outcomes).zip(&targets) {
            keep_better(slot, name.clone(), out.delay, out.area, target);
        }
    }
    best.into_iter()
        .map(|choice| choice.expect("library is nonempty"))
        .collect()
}

/// The delay targets of [`commercial_sweep`]: evenly spaced from an
/// aggressively optimized Kogge-Stone (fast end) to a relaxed Brent-Kung
/// (slow end).
fn sweep_targets(n: u16, lib: &Library, cfg: &OptimizerConfig, num_targets: usize) -> Vec<f64> {
    let cons = TimingConstraints::uniform(lib);
    let bk = netlist::adder::generate(&structures::brent_kung(n));
    let slow = sta::analyze(&bk, lib, &cons, 1.0).critical_delay;
    let ks = netlist::adder::generate(&structures::kogge_stone(n));
    let fast = optimize(&ks, lib, &cons, 0.0, cfg).delay;
    (0..num_targets)
        .map(|i| fast + (slow - fast) * i as f64 / (num_targets.max(2) - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_contains_distinct_architectures() {
        let lib = commercial_library(16);
        assert!(lib.len() >= 6, "library too small: {}", lib.len());
        for (name, g) in &lib {
            g.verify_legal().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(g.n(), 16);
        }
    }

    #[test]
    fn chooser_prefers_cheap_architectures_at_loose_targets() {
        let lib = Library::nangate45();
        let cfg = OptimizerConfig::fast();
        let loose = choose_at_target(16, &lib, &cfg, 2.0);
        // A very loose target is met by the smallest architecture — never
        // Kogge-Stone (largest).
        assert_ne!(loose.architecture, "kogge_stone", "{loose:?}");
        assert!(loose.delay <= 2.0);
    }

    #[test]
    fn chooser_switches_architecture_with_target() {
        let lib = Library::nangate45();
        let cfg = OptimizerConfig::fast();
        let tight = choose_at_target(16, &lib, &cfg, 0.18);
        let loose = choose_at_target(16, &lib, &cfg, 1.5);
        assert_ne!(
            tight.architecture, loose.architecture,
            "tool must adapt its choice"
        );
    }

    #[test]
    fn chooser_generalizes_over_emitters() {
        // The same chooser instantiates priority-encoder spines: at any
        // target the chosen OR-prefix circuit is far smaller than the
        // adder pick (one gate per node vs G/P pairs).
        let lib = Library::nangate45();
        let cfg = OptimizerConfig::fast();
        let adder = choose_at_target(8, &lib, &cfg, 0.5);
        let or = choose_at_target_with(8, &lib, &cfg, 0.5, netlist::prefix_or::generate);
        assert!(or.area < adder.area / 2.0, "{or:?} vs {adder:?}");
    }

    #[test]
    fn sweep_produces_monotone_tradeoff_ends() {
        let lib = Library::nangate45();
        let choices = commercial_sweep(8, &lib, &OptimizerConfig::fast(), 5);
        assert_eq!(choices.len(), 5);
        let first = &choices[0];
        let last = &choices[choices.len() - 1];
        assert!(first.delay <= last.delay, "targets ascend");
        assert!(first.area >= last.area, "tight end costs more area");
    }

    #[test]
    fn sweep_picks_what_the_per_target_chooser_picks() {
        let lib = Library::nangate45();
        let cfg = OptimizerConfig::commercial();
        for n in [8u16, 16] {
            let swept = commercial_sweep(n, &lib, &cfg, 5);
            let targets = sweep_targets(n, &lib, &cfg, 5);
            assert_eq!(swept.len(), targets.len());
            for (got, &target) in swept.iter().zip(&targets) {
                let want = choose_at_target(n, &lib, &cfg, target);
                assert_eq!(got.architecture, want.architecture, "{n}b at {target}");
                assert_eq!(
                    got.delay.to_bits(),
                    want.delay.to_bits(),
                    "{n}b at {target}"
                );
                assert_eq!(got.area.to_bits(), want.area.to_bits(), "{n}b at {target}");
            }
        }
    }
}
